//! The chunker matrix: one parameterized property suite run against every
//! [`Chunker`] implementation, replacing the per-module copies of the
//! tiling/bounds/determinism tests.
//!
//! Properties pinned for each algorithm:
//! * **tiling** — `concat(chunks) == input` for arbitrary inputs,
//! * **bounds** — every chunk is at most `max_chunk_size`, and every
//!   non-final chunk is at least the algorithm's minimum,
//! * **determinism** — identical inputs produce identical boundaries,
//! * **stream equivalence** — [`StreamChunker`] reproduces the in-memory
//!   boundaries byte-for-byte, including through a one-byte-at-a-time
//!   reader.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::{
    AnyChunker, Chunker, ChunkerKind, ChunkerParams, RabinFingerprint, RabinTables, StreamChunker,
};

fn random_data(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Structured corpora covering the regimes that break chunkers: random,
/// constant runs, short inputs, rising ramps, and low-entropy data with
/// random islands.
fn corpora(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut islands = Vec::new();
    for _ in 0..40 {
        islands.extend(std::iter::repeat_n(0x55u8, rng.random_range(200..2000)));
        islands.extend((0..rng.random_range(50..300)).map(|_| rng.random::<u8>()));
    }
    vec![
        Vec::new(),
        vec![7u8],
        random_data(3, seed),
        random_data(200_000, seed.wrapping_add(1)),
        vec![0u8; 50_000],
        (0..50_000u32).map(|i| (i % 256) as u8).collect(),
        islands,
    ]
}

/// Every engine-selectable chunker at this `avg`, by kind.
fn matrix(avg: usize) -> Vec<AnyChunker> {
    ChunkerKind::ALL.iter().map(|k| k.build(avg).expect("buildable avg")).collect()
}

/// The minimum length every non-final chunk must satisfy.
fn min_for(kind: ChunkerKind, avg: usize) -> usize {
    match kind {
        // FSP cuts every `avg` bytes exactly.
        ChunkerKind::Fixed => avg,
        _ => ChunkerParams::with_avg(avg).expect("valid avg").min,
    }
}

fn assert_tiles_and_bounds(chunker: &AnyChunker, avg: usize, data: &[u8]) {
    let kind = chunker.kind();
    let spans = chunker.spans(data);
    let min = min_for(kind, avg);
    let mut covered = 0usize;
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(s.offset, covered, "{kind} avg={avg}: gap before chunk {i}");
        covered += s.len;
        assert!(
            s.len <= chunker.max_chunk_size(),
            "{kind} avg={avg}: chunk {i} of {} exceeds max {}",
            s.len,
            chunker.max_chunk_size()
        );
        if i + 1 != spans.len() {
            assert!(
                s.len >= min,
                "{kind} avg={avg}: non-final chunk {i} of {} under min {min}",
                s.len
            );
        }
    }
    assert_eq!(covered, data.len(), "{kind} avg={avg}: chunks do not tile");
}

#[test]
fn every_chunker_tiles_and_respects_bounds() {
    for avg in [2usize, 64, 1024] {
        for chunker in matrix(avg) {
            for data in corpora(100 + avg as u64) {
                assert_tiles_and_bounds(&chunker, avg, &data);
            }
        }
    }
}

#[test]
fn every_chunker_is_deterministic() {
    for avg in [64usize, 1024] {
        for chunker in matrix(avg) {
            let data = random_data(150_000, 200 + avg as u64);
            assert_eq!(
                chunker.cut_points(&data),
                chunker.cut_points(&data),
                "{} avg={avg} not deterministic",
                chunker.kind()
            );
        }
    }
}

/// A reader that trickles a few bytes at a time, exercising refill logic.
struct Trickle<'a>(&'a [u8]);
impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.len().min(buf.len()).min(3);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

#[test]
fn every_chunker_streams_identically_to_memory() {
    for avg in [64usize, 512] {
        for chunker in matrix(avg) {
            let kind = chunker.kind();
            let data = random_data(120_000, 300 + avg as u64);
            let expect = chunker.cut_points(&data);

            let streamed =
                StreamChunker::new(&data[..], chunker.clone()).collect_all().expect("memory read");
            let mut cuts = Vec::new();
            let mut consumed = 0usize;
            let mut rejoined = Vec::new();
            for c in &streamed {
                assert_eq!(c.offset as usize, consumed, "{kind} avg={avg}: offset drift");
                consumed += c.data.len();
                cuts.push(consumed);
                rejoined.extend_from_slice(&c.data);
            }
            assert_eq!(cuts, expect, "{kind} avg={avg}: stream cuts diverge");
            assert_eq!(rejoined, data, "{kind} avg={avg}: stream bytes diverge");

            let trickled =
                StreamChunker::new(Trickle(&data), chunker.clone()).collect_all().unwrap();
            assert_eq!(trickled, streamed, "{kind} avg={avg}: trickled reader diverges");
        }
    }
}

/// The cut the ring-buffer [`RabinFingerprint`] finds from `start`: the
/// reference the ring-free `RabinTables::scan` kernel must reproduce.
/// `backup` is TTTD's `(mask, magic)` fallback divisor.
fn ring_reference_cut(
    p: &ChunkerParams,
    tables: &std::sync::Arc<RabinTables>,
    backup: Option<(u64, u64)>,
    data: &[u8],
    start: usize,
) -> usize {
    let remaining = data.len() - start;
    if remaining <= p.min {
        return data.len();
    }
    let limit = remaining.min(p.max);
    let mut fp = RabinFingerprint::new(tables.clone());
    let first_test = start + p.min;
    for &b in &data[first_test - p.window..first_test] {
        fp.roll(b);
    }
    let mut fallback = None;
    for pos in first_test..=start + limit {
        if pos > first_test {
            fp.roll(data[pos - 1]);
        }
        if fp.value() & p.mask() == p.magic() {
            return pos;
        }
        if backup.is_some_and(|(mask, magic)| fp.value() & mask == magic) {
            fallback = Some(pos);
        }
    }
    fallback.filter(|_| limit == p.max).unwrap_or(start + limit)
}

#[test]
fn rabin_and_tttd_match_the_ring_buffer_reference() {
    for avg in [2usize, 64, 512, 4096] {
        let p = ChunkerParams::with_avg(avg).unwrap();
        let tables = RabinTables::default_with_window(p.window);
        let backup_mask = p.mask() >> 1;
        let backup = (backup_mask != 0).then_some((backup_mask, p.magic() & backup_mask));
        let rabin = ChunkerKind::Rabin.build(avg).unwrap();
        let tttd = ChunkerKind::Tttd.build(avg).unwrap();
        for (i, data) in corpora(500 + avg as u64).iter().enumerate() {
            for (chunker, backup) in [(&rabin, None), (&tttd, backup)] {
                let mut start = 0usize;
                let mut expect = Vec::new();
                while start < data.len() {
                    start = ring_reference_cut(&p, &tables, backup, data, start);
                    expect.push(start);
                }
                assert_eq!(
                    chunker.cut_points(data),
                    expect,
                    "{} avg={avg} corpus {i}: cut points moved",
                    chunker.kind()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_matrix_tiles_any_input(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        for chunker in matrix(256) {
            assert_tiles_and_bounds(&chunker, 256, &data);
        }
    }

}
