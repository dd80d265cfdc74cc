//! The chunker matrix: one parameterized property suite run against every
//! [`Chunker`] implementation, replacing the per-module copies of the
//! tiling/bounds/determinism tests.
//!
//! Properties pinned for each algorithm:
//! * **tiling** — `concat(chunks) == input` for arbitrary inputs,
//! * **bounds** — every chunk is at most `max_chunk_size`, and every
//!   non-final chunk is at least the algorithm's minimum,
//! * **determinism** — identical inputs produce identical boundaries,
//! * **size distribution** — the mean chunk is near the expected size on
//!   random data, and data with no content to cut on is cut at `max`,
//! * **stream equivalence** — [`StreamChunker`] reproduces the in-memory
//!   boundaries byte-for-byte, including through a one-byte-at-a-time
//!   reader.

use mhd_workload::Rng;
use proptest::prelude::*;

use crate::rabin::{LANE_SEGMENT, MIN_LANE_SEGMENT};
use crate::{
    AnyChunker, Chunker, ChunkerKind, ChunkerParams, RabinFingerprint, RabinTables, StreamChunker,
};

fn random_data(len: usize, seed: u64) -> Vec<u8> {
    Rng::new(seed).bytes(len)
}

/// Structured corpora covering the regimes that break chunkers: random,
/// constant runs, short inputs, rising ramps, and low-entropy data with
/// random islands.
fn corpora(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed);
    let mut islands = Vec::new();
    for _ in 0..40 {
        islands.extend(std::iter::repeat_n(0x55u8, 200 + rng.below(1800) as usize));
        islands.extend((0..50 + rng.below(250) as usize).map(|_| rng.next_u64() as u8));
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

/// Chunk lengths `chunker` cuts from `data`.
fn chunk_sizes(chunker: &AnyChunker, data: &[u8]) -> Vec<usize> {
    chunker.spans(data).iter().map(|s| s.len).collect()
}

#[test]
fn every_chunker_mean_is_near_avg_on_random_data() {
    // `avg` is a mean, not a size: CDC sizes are a truncated geometric
    // distribution, but their mean stays within 2x of it.
    let avg = 1024;
    let data = random_data(2 << 20, 900);
    for chunker in matrix(avg) {
        let sizes = chunk_sizes(&chunker, &data);
        let mean = data.len() as f64 / sizes.len() as f64;
        assert!(
            mean > avg as f64 / 2.0 && mean < avg as f64 * 2.0,
            "{}: mean {mean}",
            chunker.kind()
        );
    }
}

#[test]
fn every_chunker_cuts_content_free_data_at_max() {
    // All-zero bytes match neither Rabin's nor the gear hash's divisor,
    // so (more than 90 % of) their chunks are hard cuts at `max`; FSP
    // cuts there by definition.
    let data = vec![0u8; 1 << 20];
    for chunker in matrix(1024) {
        let sizes = chunk_sizes(&chunker, &data);
        let at_max = sizes.iter().filter(|&&s| s == chunker.max_chunk_size()).count();
        let kind = chunker.kind();
        assert!(at_max * 10 > sizes.len() * 9, "{kind}: {at_max} of {} at max", sizes.len());
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
fn ring_reference_cut(
    p: &ChunkerParams,
    tables: &std::sync::Arc<RabinTables>,
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
    for pos in first_test..=start + limit {
        if pos > first_test {
            fp.roll(data[pos - 1]);
        }
        if fp.value() & p.mask() == p.magic() {
            return pos;
        }
    }
    start + limit
}

/// The cut list `next_cut` gives when chained from 0: what a `cut_points`
/// override (Rabin's four-lane scan, FSP's arithmetic) must reproduce.
fn chained_cuts(chunker: &impl Chunker, data: &[u8]) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut start = 0usize;
    while start < data.len() {
        start = chunker.next_cut(data, start);
        cuts.push(start);
    }
    cuts
}

#[test]
fn rabin_matches_the_ring_buffer_reference() {
    // avg 2 and 8 are the dense end: up to half of all positions match.
    for avg in [2usize, 8, 64, 512, 4096] {
        let p = ChunkerParams::with_avg(avg).unwrap();
        let tables = RabinTables::default_with_window(p.window);
        let rabin = ChunkerKind::Rabin.build(avg).unwrap();
        for (i, data) in corpora(500 + avg as u64).iter().enumerate() {
            let mut start = 0usize;
            let mut expect = Vec::new();
            while start < data.len() {
                start = ring_reference_cut(&p, &tables, data, start);
                expect.push(start);
            }
            assert_eq!(rabin.cut_points(data), expect, "avg={avg} corpus {i}: cut points moved");
            assert_eq!(
                chained_cuts(&rabin, data),
                expect,
                "avg={avg} corpus {i}: chained next_cut moved"
            );
        }
    }
}

#[test]
fn every_cut_points_override_equals_chained_next_cut() {
    for avg in [2usize, 64, 1024] {
        for chunker in matrix(avg) {
            for (i, data) in corpora(600 + avg as u64).iter().enumerate() {
                assert_eq!(
                    chunker.cut_points(data),
                    chained_cuts(&chunker, data),
                    "{} avg={avg} corpus {i}",
                    chunker.kind()
                );
            }
        }
    }
}

/// Lengths on both sides of every seam of Rabin's whole-buffer scan: the
/// window and `min` (nothing testable yet), the length from which the
/// lanes run at all, one block, and two blocks with a single-lane and a
/// four-lane tail.
fn seam_lengths(p: &ChunkerParams) -> Vec<usize> {
    let (lanes, block) = (4 * MIN_LANE_SEGMENT, 4 * LANE_SEGMENT);
    let around = |n: usize| [n - 1, n, n + 1];
    let mut lengths = vec![p.window - 1, p.window, p.window + 1, p.min - 1, p.min, p.min + 1];
    lengths.extend(around(p.window + lanes));
    lengths.extend(around(p.min + lanes));
    lengths.extend(around(p.min + block));
    lengths.extend([p.min + 2 * block + lanes - 1, p.min + 2 * block + lanes + 2000]);
    lengths
}

#[test]
fn rabin_cut_points_equal_chained_next_cut_across_every_seam() {
    for avg in [2usize, 8, 64, 512, 4096] {
        let p = ChunkerParams::with_avg(avg).unwrap();
        let rabin = ChunkerKind::Rabin.build(avg).unwrap();
        let lengths = seam_lengths(&p);
        let longest = *lengths.iter().max().unwrap();
        for (kind, data) in
            [("random", random_data(longest, 700 + avg as u64)), ("constant", vec![0xA5; longest])]
        {
            for &len in &lengths {
                assert_eq!(
                    rabin.cut_points(&data[..len]),
                    chained_cuts(&rabin, &data[..len]),
                    "avg={avg} {kind} len={len}"
                );
            }
        }
    }
}

#[test]
fn rabin_cut_points_take_a_planted_candidate_where_next_cut_does() {
    for avg in [64usize, 512, 4096] {
        let p = ChunkerParams::with_avg(avg).unwrap();
        let rabin = ChunkerKind::Rabin.build(avg).unwrap();
        // A window whose fingerprint matches, cut out of random bytes.
        let mut fp = RabinFingerprint::new(RabinTables::default_with_window(p.window));
        let noise = random_data(256 * avg, 800 + avg as u64);
        let end = 1 + noise
            .iter()
            .position(|&b| {
                fp.roll(b);
                fp.warmed_up() && fp.value() & p.mask() == p.magic()
            })
            .expect("a candidate in 256 expected chunk sizes");
        let matching = &noise[end - p.window..end];

        // In all-zero data no position matches and every chunk is `max`
        // long, so chunks start at multiples of `max` until the planted
        // window ends one. `max` divides the lane segment: the first
        // position of a lane (`min + k * LANE_SEGMENT`) is also the first
        // one its chunk may cut at.
        assert_eq!(LANE_SEGMENT % p.max, 0);
        let len = p.min + 8 * LANE_SEGMENT + 4 * MIN_LANE_SEGMENT + 2000;
        let (lane, block) = (p.min + LANE_SEGMENT, p.min + 4 * LANE_SEGMENT);
        let planted_at = [
            (p.min, true),     // the first testable position, start + min
            (lane - 1, false), // the last position of lane 0: one short of min
            (lane, true),
            (lane + 1, false),
            (block - 1, false),
            (block, true),
            (block + 1, false),
            (3 * p.max, false),     // start + max
            (block + p.max, false), // start + max, one chunk into the second block
            (len - 1, false),
            (len, true),
        ];
        for (at, is_first_eligible) in planted_at {
            let mut data = vec![0u8; len];
            data[at - p.window..at].copy_from_slice(matching);
            let cuts = rabin.cut_points(&data);
            assert_eq!(cuts, chained_cuts(&rabin, &data), "avg={avg} planted at {at}");
            assert!(!is_first_eligible || cuts.contains(&at), "avg={avg}: no cut at {at}");
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

    /// At avg 64 the lanes run from 1040 bytes up, so most of these
    /// lengths mix a four-lane block with a single-lane tail.
    #[test]
    fn prop_rabin_cut_points_equal_chained_next_cut(
        data in proptest::collection::vec(any::<u8>(), 0..8192),
        avg_bits in 1u32..10,
    ) {
        let rabin = ChunkerKind::Rabin.build(1 << avg_bits).unwrap();
        prop_assert_eq!(rabin.cut_points(&data), chained_cuts(&rabin, &data));
    }
}
