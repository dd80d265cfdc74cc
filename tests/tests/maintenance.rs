//! GC and compaction across engines and over the directory backend: the
//! maintenance path must be as engine-agnostic as the store format.

use mhd_core::{compact, gc, restore, Deduplicator, EngineConfig, EngineKind};
use mhd_integration::run_kind;
use mhd_workload::{Corpus, CorpusSpec};

#[test]
fn gc_reclaims_for_every_engine_layout() {
    // Delete everything: every engine's store must drain to zero data and
    // zero metadata inodes (hook/manifest/container layouts all differ).
    let corpus = Corpus::generate(CorpusSpec::tiny(901));
    for kind in EngineKind::ALL {
        let (_, mut substrate) = run_kind(kind, &corpus.snapshots, EngineConfig::new(512, 8));
        let report = gc::delete_stream(&mut substrate, "m").unwrap();
        assert!(report.recipes_deleted > 0, "{kind:?}");
        let ledger = substrate.ledger();
        assert_eq!(ledger.stored_data_bytes, 0, "{kind:?}");
        assert_eq!(ledger.inodes_disk_chunks, 0, "{kind:?}");
        assert_eq!(ledger.inodes_manifests, 0, "{kind:?}");
        assert_eq!(ledger.inodes_hooks, 0, "{kind:?}");
    }
}

#[test]
fn partial_gc_keeps_every_engine_restorable() {
    let corpus = Corpus::generate(CorpusSpec::tiny(902));
    for kind in EngineKind::ALL {
        let (_, mut substrate) = run_kind(kind, &corpus.snapshots, EngineConfig::new(512, 8));
        gc::delete_stream(&mut substrate, "m0/d0").unwrap();
        gc::delete_stream(&mut substrate, "m1/d0").unwrap();
        for snapshot in &corpus.snapshots {
            for file in &snapshot.files {
                if file.path.starts_with("m0/d0") || file.path.starts_with("m1/d0") {
                    continue;
                }
                let restored = restore::restore_file(&mut substrate, &file.path)
                    .unwrap_or_else(|e| panic!("{kind:?} {}: {e}", file.path));
                assert_eq!(restored, file.data, "{kind:?} {}", file.path);
            }
        }
        let fsck = mhd_core::fsck::check_store(&mut substrate);
        assert!(fsck.is_healthy(), "{kind:?}: {:?}", fsck.problems);
    }
}

#[test]
fn compaction_skips_multi_container_layouts_safely() {
    // SubChunk and SparseIndexing manifests span containers; compaction
    // must skip them (never corrupt them), even after retirements.
    let corpus = Corpus::generate(CorpusSpec::tiny(903));
    for kind in [EngineKind::SubChunk, EngineKind::SparseIndexing] {
        let (_, mut substrate) = run_kind(kind, &corpus.snapshots, EngineConfig::new(512, 8));
        gc::delete_stream(&mut substrate, "m0/d0").unwrap();
        let report = compact::compact(&mut substrate, 0.99).unwrap();
        // Nothing eligible is fine; corruption is not.
        let _ = report;
        let fsck = mhd_core::fsck::check_store(&mut substrate);
        assert!(fsck.is_healthy(), "{kind:?}: {:?}", fsck.problems);
        for snapshot in &corpus.snapshots {
            for file in &snapshot.files {
                if file.path.starts_with("m0/d0") {
                    continue;
                }
                let restored = restore::restore_file(&mut substrate, &file.path).unwrap();
                assert_eq!(restored, file.data, "{kind:?} {}", file.path);
            }
        }
    }
}

#[test]
fn full_lifecycle_on_directory_backend() {
    // backup → retire → gc → compact → restore, all against real files.
    use mhd_core::MhdEngine;
    use mhd_store::DirBackend;

    let root = std::env::temp_dir().join(format!("mhd-maint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let corpus = Corpus::generate(CorpusSpec::tiny(904));
    let mut engine =
        MhdEngine::new(DirBackend::create(&root).unwrap(), EngineConfig::new(512, 8)).unwrap();
    for s in &corpus.snapshots {
        engine.process_snapshot(s).unwrap();
    }
    engine.finish().unwrap();

    gc::delete_stream(engine.substrate_mut(), "m0_d0").unwrap();
    compact::compact(engine.substrate_mut(), 0.95).unwrap();

    let fsck = mhd_core::fsck::check_store(engine.substrate_mut());
    assert!(fsck.is_healthy(), "{:?}", fsck.problems);
    for snapshot in &corpus.snapshots {
        for file in &snapshot.files {
            if file.path.starts_with("m0/d0") {
                continue;
            }
            let restored = restore::restore_file(engine.substrate_mut(), &file.path).unwrap();
            assert_eq!(restored, file.data, "{}", file.path);
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}
