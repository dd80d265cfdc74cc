//! End-to-end correctness across all five engines: byte-exact restore,
//! conservation of bytes, and metric sanity over a shared corpus.

use mhd_chunking::ChunkerKind;
use mhd_core::metrics::{compute, DiskModel};
use mhd_core::{restore, EngineConfig, EngineKind};
use mhd_integration::run_kind;
use mhd_workload::{Corpus, CorpusSpec};

fn corpus() -> Corpus {
    Corpus::generate(CorpusSpec::tiny(1234))
}

#[test]
fn every_engine_restores_byte_exactly() {
    let corpus = corpus();
    let total_files: usize = corpus.snapshots.iter().map(|s| s.files.len()).sum();
    for kind in EngineKind::ALL {
        let (_, mut substrate) = run_kind(kind, &corpus.snapshots, EngineConfig::new(512, 8));
        let verified = restore::verify_corpus(&mut substrate, &corpus)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(verified, total_files, "{kind:?}");
    }
}

/// Whatever boundaries a chunker cuts, every file of every snapshot
/// restores byte-exact: no chunker can "win" a comparison by corrupting
/// restores.
#[test]
fn mhd_restores_byte_exactly_under_every_chunker() {
    let corpus = corpus();
    let total_files: usize = corpus.snapshots.iter().map(|s| s.files.len()).sum();
    for chunker in ChunkerKind::ALL {
        let config = EngineConfig::new(512, 8).with_chunker(chunker);
        let (_, mut substrate) = run_kind(EngineKind::Mhd, &corpus.snapshots, config);
        let verified = restore::verify_corpus(&mut substrate, &corpus)
            .unwrap_or_else(|e| panic!("{chunker}: {e}"));
        assert_eq!(verified, total_files, "{chunker}");
    }
}

#[test]
fn bytes_are_conserved() {
    // Every input byte is either stored or accounted as duplicate.
    let corpus = corpus();
    for kind in EngineKind::ALL {
        let (report, _) = run_kind(kind, &corpus.snapshots, EngineConfig::new(512, 8));
        assert_eq!(report.input_bytes, corpus.total_bytes(), "{kind:?}");
        assert_eq!(
            report.ledger.stored_data_bytes + report.dup_bytes,
            report.input_bytes,
            "{kind:?}: stored + duplicate must equal input"
        );
    }
}

#[test]
fn metrics_are_sane_for_every_engine() {
    let corpus = corpus();
    for kind in EngineKind::ALL {
        let (report, _) = run_kind(kind, &corpus.snapshots, EngineConfig::new(512, 8));
        let m = compute(&report, &DiskModel::default());
        assert!(m.data_only_der >= 1.0, "{kind:?}: data DER {}", m.data_only_der);
        assert!(m.real_der >= 1.0, "{kind:?}: real DER {}", m.real_der);
        assert!(m.real_der <= m.data_only_der, "{kind:?}");
        assert!(m.metadata_ratio > 0.0 && m.metadata_ratio < 0.5, "{kind:?}: {}", m.metadata_ratio);
        assert!(m.throughput_ratio > 0.0, "{kind:?}");
        assert!(report.dup_slices > 0, "{kind:?}: the tiny corpus has duplication");
    }
}

#[test]
fn ledger_matches_backend_contents() {
    // The accounting ledger must agree with what is actually stored.
    use mhd_store::{Backend, FileKind};
    let corpus = corpus();
    for kind in EngineKind::ALL {
        let (report, mut substrate) = run_kind(kind, &corpus.snapshots, EngineConfig::new(512, 8));
        let backend = substrate.backend_mut();
        assert_eq!(
            report.ledger.inodes_disk_chunks,
            backend.count(FileKind::DiskChunk),
            "{kind:?}: DiskChunk inodes"
        );
        assert_eq!(
            report.ledger.inodes_manifests,
            backend.count(FileKind::Manifest),
            "{kind:?}: Manifest inodes"
        );
        assert_eq!(
            report.ledger.inodes_hooks,
            backend.count(FileKind::Hook),
            "{kind:?}: Hook inodes"
        );
        assert_eq!(
            report.ledger.inodes_file_manifests,
            backend.count(FileKind::FileManifest),
            "{kind:?}: FileManifest inodes"
        );
        assert_eq!(
            report.ledger.stored_data_bytes,
            backend.bytes_of_kind(FileKind::DiskChunk),
            "{kind:?}: stored bytes"
        );
        assert_eq!(
            report.ledger.manifest_bytes,
            backend.bytes_of_kind(FileKind::Manifest),
            "{kind:?}: manifest bytes (updates must track the delta)"
        );
        assert_eq!(
            report.ledger.hook_bytes,
            backend.bytes_of_kind(FileKind::Hook),
            "{kind:?}: hook bytes"
        );
    }
}

#[test]
fn determinism_across_runs() {
    let corpus = corpus();
    for kind in EngineKind::ALL {
        let (a, _) = run_kind(kind, &corpus.snapshots, EngineConfig::new(512, 8));
        let (b, _) = run_kind(kind, &corpus.snapshots, EngineConfig::new(512, 8));
        assert_eq!(a.ledger, b.ledger, "{kind:?}");
        assert_eq!(a.stats, b.stats, "{kind:?}");
        assert_eq!(a.dup_bytes, b.dup_bytes, "{kind:?}");
        assert_eq!(a.dup_slices, b.dup_slices, "{kind:?}");
    }
}

#[test]
fn every_engine_store_passes_fsck() {
    let corpus = corpus();
    for kind in EngineKind::ALL {
        let (_, mut substrate) = run_kind(kind, &corpus.snapshots, EngineConfig::new(512, 8));
        let report = mhd_core::fsck::check_store(&mut substrate);
        assert!(report.is_healthy(), "{kind:?}: {:?}", report.problems);
        assert!(report.manifests > 0, "{kind:?}");
    }
}

#[test]
fn mhd_reload_bound_holds_end_to_end() {
    let corpus = corpus();
    let (report, _) = run_kind(EngineKind::Mhd, &corpus.snapshots, EngineConfig::new(512, 8));
    assert!(report.stats.hhr_reloads() <= 2 * report.dup_slices);
    assert!(report.hhr_count > 0, "the corpus must exercise HHR");
}
