//! WordCount — a non-identity map/reduce pair exercising the public API
//! beyond the sort benchmarks (grouping reducers, shrinking ratios).

use std::rc::Rc;

use bytes::Bytes;
use rand::Rng;

use rmr_core::cluster::Cluster;
use rmr_core::{encode_records, HashPartitioner, JobSpec, Record};
use rmr_hdfs::Blob;

/// A small vocabulary so counts aggregate meaningfully.
const WORDS: &[&str] = &[
    "rdma",
    "verbs",
    "shuffle",
    "merge",
    "reduce",
    "hadoop",
    "infiniband",
    "cache",
    "prefetch",
    "queue",
    "packet",
    "socket",
    "cluster",
    "disk",
];

/// Generates text-like input: each record is one "line" of `words_per_line`
/// space-separated words. Written as a single blob — one HDFS block, one map
/// split; use [`textgen_blocks`] when the job should fan out over many maps.
pub async fn textgen(cluster: &Cluster, path: &str, lines: usize, words_per_line: usize) {
    textgen_blocks(cluster, path, lines, words_per_line, lines).await;
}

/// [`textgen`], but writing `lines_per_block` lines per blob. Real blobs are
/// kept whole within one HDFS block, so this is what controls how many map
/// splits the input spans — per-node aggregation only has something to fold
/// when several co-located maps run.
pub async fn textgen_blocks(
    cluster: &Cluster,
    path: &str,
    lines: usize,
    words_per_line: usize,
    lines_per_block: usize,
) {
    textgen_write(cluster, path, lines, lines_per_block, |rng| {
        let line: Vec<&str> = (0..words_per_line)
            .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
            .collect();
        line.join(" ")
    })
    .await;
}

/// [`textgen_blocks`] over a synthetic `vocab`-word vocabulary (`w000000` …)
/// instead of the built-in fourteen words. With a vocabulary much larger than
/// one map's token count, per-map combining barely shrinks the shuffle — the
/// cross-map in-node fold is what collapses duplicate keys, which makes this
/// the generator of choice for benchmarking the combiner *engine* rather than
/// the map-side combiner.
pub async fn textgen_vocab(
    cluster: &Cluster,
    path: &str,
    lines: usize,
    words_per_line: usize,
    lines_per_block: usize,
    vocab: usize,
) {
    assert!(vocab > 0, "need a non-empty vocabulary");
    textgen_write(cluster, path, lines, lines_per_block, |rng| {
        let line: Vec<String> = (0..words_per_line)
            .map(|_| format!("w{:06}", rng.gen_range(0..vocab)))
            .collect();
        line.join(" ")
    })
    .await;
}

async fn textgen_write(
    cluster: &Cluster,
    path: &str,
    lines: usize,
    lines_per_block: usize,
    mut line_of: impl FnMut(&mut rand::rngs::SmallRng) -> String,
) {
    assert!(lines_per_block > 0, "need at least one line per block");
    let node = cluster.workers[0].id;
    let sim = cluster.sim.clone();
    let mut w = cluster
        .hdfs
        .create(path, node)
        .await
        .expect("textgen create");
    let records: Vec<Record> = sim.with_rng(|rng| {
        (0..lines)
            .map(|i| {
                Record::new(
                    format!("line{i:08}").into_bytes(),
                    Bytes::from(line_of(rng)),
                )
            })
            .collect()
    });
    for chunk in records.chunks(lines_per_block) {
        w.write(Blob::real(encode_records(chunk)))
            .await
            .expect("textgen write");
    }
    w.close().await.expect("textgen close");
}

/// Pushes one `(word, one)` record per whitespace-separated word of `line`.
/// Words of a valid-UTF-8 line are windows into the line; a line that is not
/// valid UTF-8 is tokenised after lossy conversion (each bad sequence
/// becomes U+FFFD), which needs a copy per word.
fn tokenize(line: &Bytes, one: &Bytes, out: &mut Vec<Record>) {
    let window = |w: &[u8]| {
        let at = w.as_ptr() as usize - line.as_ptr() as usize;
        Record::new(line.slice(at..at + w.len()), one.clone())
    };
    if line.is_ascii() {
        // `char::is_whitespace` on ASCII: TAB, LF, VT, FF, CR and SPACE
        // (`u8::is_ascii_whitespace` leaves out VT).
        let blank = |b: &u8| matches!(b, b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ');
        out.extend(line.split(blank).filter(|w| !w.is_empty()).map(window));
        return;
    }
    match std::str::from_utf8(line) {
        Ok(text) => out.extend(text.split_whitespace().map(|w| window(w.as_bytes()))),
        Err(_) => out.extend(
            String::from_utf8_lossy(line)
                .split_whitespace()
                .map(|w| Record::new(w.as_bytes().to_vec(), one.clone())),
        ),
    }
}

/// A count as the reducer reads it — whatever `str::parse::<u64>` accepts,
/// anything else counting as zero — parsed from the bytes in place.
fn parse_count(value: &[u8]) -> u64 {
    std::str::from_utf8(value)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The WordCount job: map splits lines into (word, 1); reduce sums counts.
pub fn wordcount_spec(input: &str, output: &str) -> JobSpec {
    let one = Bytes::from_static(b"1");
    let mapper = Rc::new(move |r: &Record, out: &mut Vec<Record>| tokenize(&r.value, &one, out));
    let reducer = Rc::new(|key: &Bytes, values: &[Bytes], out: &mut Vec<Record>| {
        let sum: u64 = values.iter().map(|v| parse_count(v)).sum();
        out.push(Record::new(key.clone(), Bytes::from(sum.to_string())));
    });
    let mut spec = JobSpec::sort(input, output, 8)
        .with_partitioner(Rc::new(HashPartitioner))
        .with_mapper(mapper)
        .with_reducer(reducer.clone())
        // Hadoop's WordCount sets the reducer as combiner: per-map partial
        // sums collapse the shuffle to at most |vocabulary| records per map.
        .with_combiner(reducer, 0.05)
        .with_ratios(0.6, 0.05);
    spec.name = format!("WordCount({input})");
    spec
}

/// WordCount without the map-side combiner (for measuring its effect).
pub fn wordcount_spec_no_combiner(input: &str, output: &str) -> JobSpec {
    let mut spec = wordcount_spec(input, output);
    spec.combiner = None;
    spec.combine_ratio = 1.0;
    spec.name = format!("WordCount-nocombine({input})");
    spec
}

/// Reads back a real-mode WordCount output into (word, count) pairs.
pub async fn read_counts(
    cluster: &Cluster,
    output: &str,
    reduces: usize,
) -> Result<std::collections::BTreeMap<String, u64>, String> {
    let client = cluster.workers[0].id;
    let mut counts = std::collections::BTreeMap::new();
    for r in 0..reduces {
        let path = format!("{output}/part-{r:05}");
        let mut reader = cluster
            .hdfs
            .open(&path, client)
            .await
            .map_err(|e| e.to_string())?;
        while let Some(block) = reader.next_block().await.map_err(|e| e.to_string())? {
            let data = block.data.ok_or_else(|| format!("{path}: no content"))?;
            for rec in rmr_core::decode_records(data) {
                let word = String::from_utf8_lossy(&rec.key).to_string();
                let count: u64 = String::from_utf8_lossy(&rec.value)
                    .parse()
                    .map_err(|e| format!("bad count: {e}"))?;
                *counts.entry(word).or_insert(0) += count;
            }
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map(line: &[u8]) -> Vec<Record> {
        let mapper = wordcount_spec("/in", "/out").mapper.unwrap();
        let mut out = Vec::new();
        mapper(&Record::new(b"line1".to_vec(), line.to_vec()), &mut out);
        out
    }

    /// What the mapper has always meant: lossy UTF-8, Unicode whitespace.
    fn reference(line: &[u8]) -> Vec<Record> {
        String::from_utf8_lossy(line)
            .split_whitespace()
            .map(|w| Record::new(w.as_bytes().to_vec(), b"1".to_vec()))
            .collect()
    }

    #[test]
    fn mapper_splits_lines() {
        let out = map(b"rdma verbs rdma");
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].key.as_ref(), b"rdma");
        assert_eq!(out[1].key.as_ref(), b"verbs");
        assert_eq!(out[2].value.as_ref(), b"1");
    }

    #[test]
    fn mapper_emits_windows_of_the_line() {
        let line = Bytes::from(b"  rdma\tverbs ".to_vec());
        let mapper = wordcount_spec("/in", "/out").mapper.unwrap();
        let mut out = vec![Record::new(&b"kept"[..], &b"0"[..])];
        mapper(&Record::new(&b"k"[..], line.clone()), &mut out);
        assert_eq!(out.len(), 3, "the sink keeps what it held");
        assert_eq!(out[1].key.as_ptr(), line.as_ptr().wrapping_add(2));
        assert_eq!(out[2].key.as_ptr(), line.as_ptr().wrapping_add(7));
        assert_eq!(out[1].value.as_ptr(), out[2].value.as_ptr());
    }

    #[test]
    fn mapper_matches_lossy_split_whitespace_on_awkward_lines() {
        let lines: [&[u8]; 9] = [
            b"",
            b"   ",
            b"  lead trail  ",
            b"a  b\t\tc\x0bd\x0ce\rf\ng",
            "caf\u{e9}\u{a0}au\u{2003}lait \u{3000}x".as_bytes(),
            b"bad\xffbyte \xc3( split\xe2\x82",
            b"\xa0nbsp-byte-alone\xa0 ok",
            b"\x1cfs\x1fus are-not-blank",
            "\u{85}nel\u{85}".as_bytes(),
        ];
        for line in lines {
            assert_eq!(map(line), reference(line), "line {line:?}");
        }
    }

    /// Bytes a line is built from: every ASCII byte (the six blanks and the
    /// four separators `char::is_whitespace` does not count, 0x1C–0x1F, more
    /// often), Unicode blanks (U+0085, U+00A0, U+3000) and invalid UTF-8.
    fn arb_piece() -> impl Strategy<Value = Vec<u8>> {
        const SEPARATORS: [&[u8]; 10] = [
            b"\t", b"\n", b"\x0b", b"\x0c", b"\r", b" ", b"\x1c", b"\x1d", b"\x1e", b"\x1f",
        ];
        const NOT_ASCII: [&[u8]; 7] = [
            "\u{85}".as_bytes(),
            "\u{a0}".as_bytes(),
            "\u{3000}".as_bytes(),
            b"\xff",
            b"\xc3",
            b"\x80",
            b"\xe2\x82",
        ];
        prop_oneof![
            (0u8..128).prop_map(|b| vec![b]),
            (0u8..128).prop_map(|b| vec![b]),
            (0..SEPARATORS.len()).prop_map(|i| SEPARATORS[i].to_vec()),
            (0..NOT_ASCII.len()).prop_map(|i| NOT_ASCII[i].to_vec()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The mapper against `split_whitespace` after lossy conversion, on
        /// all-ASCII lines (the fast path) and lines that are not.
        #[test]
        fn mapper_matches_lossy_split_whitespace(
            pieces in proptest::collection::vec(arb_piece(), 0..24),
            ascii in any::<bool>(),
        ) {
            let pieces = pieces.into_iter().filter(|p| !ascii || p.is_ascii());
            let line = pieces.collect::<Vec<_>>().concat();
            prop_assert_eq!(map(&line), reference(&line));
        }
    }

    #[test]
    fn reducer_sums_values() {
        let spec = wordcount_spec("/in", "/out");
        let reducer = spec.reducer.unwrap();
        let mut out = Vec::new();
        reducer(
            &Bytes::from_static(b"rdma"),
            &[
                Bytes::from_static(b"1"),
                Bytes::from_static(b"1"),
                Bytes::from_static(b"3"),
            ],
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value.as_ref(), b"5");
    }
}
