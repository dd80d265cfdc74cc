//! Differential tests: every engine's measurements are bounded by an
//! engine-independent ground truth computed directly over the corpus.

use mhd_chunking::{Chunker, RabinChunker};
use mhd_core::{EngineConfig, EngineKind};
use mhd_hash::{sha1, ChunkHash, FxHashSet};
use mhd_integration::run_kind;
use mhd_workload::{Corpus, CorpusSpec};

/// Exact chunk-level duplicate bytes: a global hash set over the whole
/// corpus at the given ECS — the ceiling for chunk-aligned deduplication.
fn chunk_level_dup_bytes(corpus: &Corpus, ecs: usize) -> u64 {
    let chunker = RabinChunker::with_avg(ecs).unwrap();
    let mut seen: FxHashSet<ChunkHash> = FxHashSet::default();
    let mut dup = 0u64;
    for snapshot in &corpus.snapshots {
        for file in &snapshot.files {
            for s in chunker.spans(&file.data) {
                if !seen.insert(sha1(&file.data[s.offset..s.end()])) {
                    dup += s.len as u64;
                }
            }
        }
    }
    dup
}

#[test]
fn no_engine_exceeds_the_chunk_level_ceiling_much() {
    // MHD's byte-granular HHR can legitimately exceed the *chunk-aligned*
    // ceiling slightly (it removes partial-chunk duplicates inside merged
    // blocks); everyone else must stay at or below it.
    let corpus = Corpus::generate(CorpusSpec { seed: 71, ..CorpusSpec::paper_like(12 << 20) });
    let ecs = 1024;
    let ceiling = chunk_level_dup_bytes(&corpus, ecs);
    assert!(ceiling > corpus.total_bytes() / 3, "corpus must be duplicate-rich");

    let mut config = EngineConfig::new(ecs, 8);
    config.cache_manifests = 8;
    for kind in EngineKind::ALL {
        let (report, _) = run_kind(kind, &corpus.snapshots, config);
        let slack = if kind == EngineKind::Mhd { ceiling / 20 } else { 0 };
        assert!(
            report.dup_bytes <= ceiling + slack,
            "{kind:?} found {} dup bytes above the ceiling {ceiling}",
            report.dup_bytes
        );
    }
}

#[test]
fn cdc_dominates_big_chunk_engines_on_data() {
    // The full-index small-chunk engine is the data-only reference the
    // big-chunk-first engines approximate from below.
    let corpus = Corpus::generate(CorpusSpec { seed: 72, ..CorpusSpec::paper_like(12 << 20) });
    let mut config = EngineConfig::new(1024, 8);
    config.cache_manifests = 8;
    let (cdc, _) = run_kind(EngineKind::Cdc, &corpus.snapshots, config);
    for kind in [EngineKind::Bimodal, EngineKind::SubChunk, EngineKind::Fbc] {
        let (r, _) = run_kind(kind, &corpus.snapshots, config);
        assert!(
            r.dup_bytes <= cdc.dup_bytes,
            "{kind:?} {} should not out-dedup full-index CDC {}",
            r.dup_bytes,
            cdc.dup_bytes
        );
    }
}

#[test]
fn stored_data_never_below_generator_fresh_bytes() {
    // The generator knows exactly how many fresh (never-seen) bytes it
    // emitted; no lossless deduplicator can store fewer.
    let corpus = Corpus::generate(CorpusSpec::tiny(73));
    let floor = corpus.stats.fresh_bytes;
    for kind in EngineKind::ALL {
        let (report, _) = run_kind(kind, &corpus.snapshots, EngineConfig::new(512, 8));
        assert!(
            report.ledger.stored_data_bytes >= floor * 9 / 10,
            "{kind:?} stored {} below the information floor {floor}",
            report.ledger.stored_data_bytes
        );
    }
}
