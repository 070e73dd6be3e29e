//! Job specifications: what a MapReduce job computes.
//!
//! A [`JobSpec`] names the HDFS input/output, the partitioner, the user map
//! and reduce functions (real data plane), and the sizing ratios the
//! synthetic plane uses in their place. The sort benchmarks (TeraSort,
//! Sort) are identity map / identity reduce with ratio 1.0; WordCount shows
//! a non-trivial pair.

use std::rc::Rc;

use bytes::Bytes;

use crate::record::{MapSink, Partitioner, Record, TotalOrderPartitioner};

/// Real-mode map function: emits any number of intermediate records for one
/// input record into the sink (which may already hold earlier output).
pub type MapFn = Rc<dyn Fn(&Record, &mut MapSink)>;

/// Real-mode reduce (or combine) function: reads one key's values from the
/// iterator, in arrival order, and pushes its output records onto the sink
/// (which may already hold earlier groups' output) — Hadoop's
/// `Reducer.reduce(K, Iterator<V>)`, which never hands a key's values over
/// as one array. A function may stop reading early; the next call gets the
/// next key's values either way.
///
/// The README shows this example; it compiles only while its two aliases are
/// the crate's.
///
/// ```
/// # use std::rc::Rc;
/// # use bytes::Bytes;
/// # use rmr_core::{JobSpec, MapSink, Record};
/// type MapFn = Rc<dyn Fn(&Record, &mut MapSink)>; // one input record
/// type ReduceFn = Rc<dyn Fn(&Bytes, &mut dyn Iterator<Item = &Bytes>, &mut Vec<Record>)>;
///
/// let map: MapFn = Rc::new(|r: &Record, out: &mut MapSink| out.emit(&r.key, r.value.clone()));
/// let first: ReduceFn = Rc::new(
///     |k: &Bytes, vs: &mut dyn Iterator<Item = &Bytes>, out: &mut Vec<Record>| {
///         out.extend(vs.next().map(|v| Record::new(k.clone(), v.clone())))
///     },
/// );
/// let spec = JobSpec::sort("/in", "/out", 8).with_mapper(map).with_combiner(first, 0.2);
/// ```
pub type ReduceFn = Rc<dyn Fn(&Bytes, &mut dyn Iterator<Item = &Bytes>, &mut Vec<Record>)>;

/// A MapReduce job description.
#[derive(Clone)]
pub struct JobSpec {
    /// Job name (reports).
    pub name: String,
    /// HDFS input path.
    pub input: String,
    /// HDFS output path.
    pub output: String,
    /// Key → reduce-partition mapping.
    pub partitioner: Rc<dyn Partitioner>,
    /// Synthetic sizing: map output bytes per input byte.
    pub map_output_ratio: f64,
    /// Synthetic sizing: reduce output bytes per merged input byte.
    pub reduce_output_ratio: f64,
    /// Synthetic sizing: average intermediate record size, bytes.
    pub avg_record_bytes: u64,
    /// Real-mode map function (`None` = identity).
    pub mapper: Option<MapFn>,
    /// Real-mode reduce function (`None` = identity pass-through).
    pub reducer: Option<ReduceFn>,
    /// Map-side combiner applied to sorted map output before it is written
    /// and shuffled (must be associative, as in Hadoop).
    pub combiner: Option<ReduceFn>,
    /// Synthetic sizing: intermediate volume surviving the combiner
    /// (1.0 = no reduction).
    pub combine_ratio: f64,
}

impl JobSpec {
    /// An identity sort job with a total-order partitioner (the TeraSort
    /// shape): globally sorted output.
    pub fn sort(input: &str, output: &str, avg_record_bytes: u64) -> Self {
        JobSpec {
            name: format!("sort({input})"),
            input: input.to_string(),
            output: output.to_string(),
            partitioner: Rc::new(TotalOrderPartitioner),
            map_output_ratio: 1.0,
            reduce_output_ratio: 1.0,
            avg_record_bytes,
            mapper: None,
            reducer: None,
            combiner: None,
            combine_ratio: 1.0,
        }
    }

    /// Sets a custom partitioner.
    pub fn with_partitioner(mut self, p: Rc<dyn Partitioner>) -> Self {
        self.partitioner = p;
        self
    }

    /// Sets the real-mode map function.
    pub fn with_mapper(mut self, f: MapFn) -> Self {
        self.mapper = Some(f);
        self
    }

    /// Sets the real-mode reduce function.
    pub fn with_reducer(mut self, f: ReduceFn) -> Self {
        self.reducer = Some(f);
        self
    }

    /// Sets the map-side combiner and the synthetic volume ratio it leaves.
    pub fn with_combiner(mut self, f: ReduceFn, combine_ratio: f64) -> Self {
        self.combiner = Some(f);
        self.combine_ratio = combine_ratio;
        self
    }

    /// Sets the synthetic sizing ratios.
    pub fn with_ratios(mut self, map_out: f64, reduce_out: f64) -> Self {
        self.map_output_ratio = map_out;
        self.reduce_output_ratio = reduce_out;
        self
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("input", &self.input)
            .field("output", &self.output)
            .field("map_output_ratio", &self.map_output_ratio)
            .field("reduce_output_ratio", &self.reduce_output_ratio)
            .field("avg_record_bytes", &self.avg_record_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_spec_defaults() {
        let s = JobSpec::sort("/in", "/out", 100);
        assert_eq!(s.map_output_ratio, 1.0);
        assert_eq!(s.reduce_output_ratio, 1.0);
        assert!(s.mapper.is_none());
        assert!(s.reducer.is_none());
        assert_eq!(s.avg_record_bytes, 100);
    }

    #[test]
    fn combiner_builder_applies() {
        let s = JobSpec::sort("/in", "/out", 8).with_combiner(
            Rc::new(
                |k: &Bytes, vs: &mut dyn Iterator<Item = &Bytes>, out: &mut Vec<Record>| {
                    out.extend(vs.next().map(|v| Record::new(k.clone(), v.clone())))
                },
            ),
            0.2,
        );
        assert!(s.combiner.is_some());
        assert_eq!(s.combine_ratio, 0.2);
    }

    #[test]
    fn builders_apply() {
        let s = JobSpec::sort("/in", "/out", 100)
            .with_ratios(0.5, 0.1)
            .with_mapper(Rc::new(|r: &Record, out: &mut MapSink| {
                out.emit(&r.key, r.value.clone())
            }));
        assert_eq!(s.map_output_ratio, 0.5);
        assert_eq!(s.reduce_output_ratio, 0.1);
        assert!(s.mapper.is_some());
    }
}
