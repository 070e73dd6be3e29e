//! WordCount — a non-identity map/reduce pair exercising the public API
//! beyond the sort benchmarks (grouping reducers, shrinking ratios).

use std::fmt::Write;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::Rng;

use rmr_core::cluster::Cluster;
use rmr_core::record::encode_record;
use rmr_core::{HashPartitioner, JobSpec, MapSink, Record};
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
    let line_of = words_line(words_per_line, builtin_word);
    textgen_write(cluster, path, lines, lines_per_block, line_of).await;
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
    let line_of = words_line(words_per_line, vocab_word(vocab));
    textgen_write(cluster, path, lines, lines_per_block, line_of).await;
}

/// Appends one word of the built-in vocabulary.
fn builtin_word(rng: &mut SmallRng, line: &mut String) {
    line.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
}

/// Appends one word of a `vocab`-word synthetic vocabulary.
fn vocab_word(vocab: usize) -> impl FnMut(&mut SmallRng, &mut String) {
    move |rng, line| write!(line, "w{:06}", rng.gen_range(0..vocab)).expect("writing to a String")
}

/// A line of `words` words drawn by `word`, separated by single spaces.
fn words_line(
    words: usize,
    mut word: impl FnMut(&mut SmallRng, &mut String),
) -> impl FnMut(&mut SmallRng, &mut String) {
    move |rng, line| {
        for i in 0..words {
            if i > 0 {
                line.push(' ');
            }
            word(rng, line);
        }
    }
}

/// `lines` records in blocks of `lines_per_block`, each block encoded
/// straight into one buffer: record `i` is keyed `line{i:08}` and valued by
/// the line `line_of` appends, drawing from `rng` in record order.
fn text_blocks(
    rng: &mut SmallRng,
    lines: usize,
    lines_per_block: usize,
    mut line_of: impl FnMut(&mut SmallRng, &mut String),
) -> Vec<Bytes> {
    let (mut key, mut line) = (String::new(), String::new());
    (0..lines)
        .step_by(lines_per_block)
        .map(|first| {
            let mut block = BytesMut::new();
            for i in first..lines.min(first + lines_per_block) {
                key.clear();
                line.clear();
                write!(key, "line{i:08}").expect("writing to a String");
                line_of(rng, &mut line);
                encode_record(key.as_bytes(), line.as_bytes(), &mut block);
            }
            block.freeze()
        })
        .collect()
}

async fn textgen_write(
    cluster: &Cluster,
    path: &str,
    lines: usize,
    lines_per_block: usize,
    line_of: impl FnMut(&mut SmallRng, &mut String),
) {
    assert!(lines_per_block > 0, "need at least one line per block");
    let node = cluster.workers[0].id;
    let sim = cluster.sim.clone();
    let mut w = cluster
        .hdfs
        .create(path, node)
        .await
        .expect("textgen create");
    // Every line is drawn before the first write, which draws replica
    // placements from the same generator.
    let blocks = sim.with_rng(|rng| text_blocks(rng, lines, lines_per_block, line_of));
    for block in blocks {
        w.write(Blob::real(block)).await.expect("textgen write");
    }
    w.close().await.expect("textgen close");
}

/// Emits one `(word, one)` record per whitespace-separated word of `line`,
/// each word a borrowed slice. A line that is not valid UTF-8 is tokenised
/// after lossy conversion (each bad sequence becomes U+FFFD), which copies
/// the line once and no word.
fn tokenize(line: &[u8], one: &Bytes, out: &mut MapSink) {
    if line.is_ascii() {
        // `char::is_whitespace` on ASCII: TAB, LF, VT, FF, CR and SPACE
        // (`u8::is_ascii_whitespace` leaves out VT).
        let blank = |b: &u8| matches!(b, b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ');
        for word in line.split(blank).filter(|w| !w.is_empty()) {
            out.emit(word, one.clone());
        }
        return;
    }
    for word in String::from_utf8_lossy(line).split_whitespace() {
        out.emit(word.as_bytes(), one.clone());
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
    let mapper = Rc::new(move |r: &Record, out: &mut MapSink| tokenize(&r.value, &one, out));
    let reducer = Rc::new(
        |key: &Bytes, values: &mut dyn Iterator<Item = &Bytes>, out: &mut Vec<Record>| {
            let sum: u64 = values.map(|v| parse_count(v)).sum();
            out.push(Record::new(key.clone(), Bytes::from(sum.to_string())));
        },
    );
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
            for rec in rmr_core::block_records(data).to_records() {
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
        let mut arena = BytesMut::new();
        let input = Record::new(b"line1".to_vec(), line.to_vec());
        mapper(&input, &mut MapSink::Arena(&mut arena));
        rmr_core::decode_records(arena.freeze())
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

    /// The mapper appends to what the sink holds; into a group table, each
    /// word's key is copied once, the first time it is seen.
    #[test]
    fn mapper_appends_to_the_sink() {
        let mapper = wordcount_spec("/in", "/out").mapper.unwrap();
        let line = Record::new(&b"k"[..], &b"  rdma\tverbs rdma "[..]);
        let mut arena = BytesMut::new();
        let mut sink = MapSink::Arena(&mut arena);
        sink.emit(b"kept", Bytes::from_static(b"0"));
        mapper(&line, &mut sink);
        let keys: Vec<Bytes> = rmr_core::decode_records(arena.freeze())
            .into_iter()
            .map(|r| r.key)
            .collect();
        assert_eq!(keys, ["kept", "rdma", "verbs", "rdma"].map(Bytes::from));
        let mut table = rmr_core::record::GroupTable::default();
        mapper(&line, &mut MapSink::Groups(&mut table));
        assert_eq!(table.records(), 3);
        let count = wordcount_spec("/in", "/out").combiner.unwrap();
        let counts = table.combine(&count).to_records().expect("real");
        assert_eq!(counts[0], Record::new(&b"rdma"[..], &b"2"[..]));
        assert_eq!(counts[1], Record::new(&b"verbs"[..], &b"1"[..]));
    }

    /// The line generators' old path — every line a `Vec<&str>` (or
    /// `Vec<String>`) plus `join` plus a `Record`, all of them held, then
    /// `encode_records` per chunk — at one seed: the blocks encoded in place
    /// are byte for byte what it wrote.
    #[test]
    fn text_blocks_match_the_collect_and_join_path() {
        use rand::SeedableRng;
        let old_blocks = |vocab: Option<usize>| -> Vec<Bytes> {
            let mut rng = SmallRng::seed_from_u64(20261015);
            let records: Vec<Record> = (0..1_003)
                .map(|i| {
                    let line = match vocab {
                        None => (0..8)
                            .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
                            .collect::<Vec<&str>>()
                            .join(" "),
                        Some(vocab) => (0..8)
                            .map(|_| format!("w{:06}", rng.gen_range(0..vocab)))
                            .collect::<Vec<String>>()
                            .join(" "),
                    };
                    Record::new(format!("line{i:08}").into_bytes(), Bytes::from(line))
                })
                .collect();
            records.chunks(100).map(rmr_core::encode_records).collect()
        };
        let mut rng = SmallRng::seed_from_u64(20261015);
        let builtin = text_blocks(&mut rng, 1_003, 100, words_line(8, builtin_word));
        let mut rng = SmallRng::seed_from_u64(20261015);
        let vocab = text_blocks(&mut rng, 1_003, 100, words_line(8, vocab_word(5_000)));
        assert_eq!(builtin.len(), 11);
        assert_eq!(builtin, old_blocks(None));
        assert_eq!(vocab, old_blocks(Some(5_000)));
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
            &mut ["1", "1", "3"].map(Bytes::from).iter(),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value.as_ref(), b"5");
    }
}
