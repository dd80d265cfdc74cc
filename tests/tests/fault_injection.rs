//! Failure injection: engines must surface backend errors without
//! panicking, and state committed before the fault must stay readable.
//!
//! Two crash models are exercised:
//!
//! * **operation-boundary crashes** via [`FaultBackend`]: the n-th backend
//!   operation fails before mutating anything — the store is whatever the
//!   engine had committed up to that point;
//! * **torn physical writes** via `fault_short_write_at` on `DirBackend`
//!   and on `BatchedDirBackend` (its pool threads commit through the same
//!   routine): a file write stops half-way, modelling power loss
//!   mid-write — the atomic tmp+rename path must keep the target object
//!   intact and recovery must clean up the debris.

use std::path::PathBuf;

use bytes::Bytes;
use mhd_core::fsck::check_store;
use mhd_core::{CdcEngine, Deduplicator, EngineConfig, EngineError, EngineKind, MhdEngine};
use mhd_integration::hhr_pair_bytes;
use mhd_store::{
    Backend, BatchedDirBackend, DirBackend, Durability, FaultBackend, FaultPoint, FileKind,
    IoConfig, MemBackend, Substrate,
};
use mhd_workload::{Corpus, CorpusSpec, FileEntry, Snapshot};

fn snapshot(seed: u64) -> Snapshot {
    let corpus = Corpus::generate(CorpusSpec::tiny(seed));
    corpus.snapshots[0].clone()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mhd-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn one_file_snapshot(label: &str, data: Vec<u8>) -> Snapshot {
    Snapshot {
        machine: 0,
        day: 0,
        files: vec![FileEntry { path: format!("{label}/disk.img"), data: Bytes::from(data) }],
    }
}

/// The [`hhr_pair_bytes`] images as two one-file backups.
fn hhr_backup_pair() -> (Snapshot, Snapshot) {
    let (original, edited) = hhr_pair_bytes();
    (one_file_snapshot("day0", original), one_file_snapshot("day1", edited))
}

/// Every fault index up to `horizon` either succeeds (fault landed past
/// the run) or surfaces `EngineError::Store` — never a panic.
#[test]
fn mhd_survives_faults_at_every_offset() {
    let snap = snapshot(501);
    let mut failures = 0;
    for fault_at in 0..40u64 {
        let backend = FaultBackend::new(MemBackend::new(), fault_at);
        let mut engine = MhdEngine::new(backend, EngineConfig::new(512, 4)).expect("config");
        let result = engine.process_snapshot(&snap).and_then(|()| engine.finish().map(|_| ()));
        if let Err(e) = result {
            failures += 1;
            assert!(matches!(e, EngineError::Store(_)), "unexpected error kind: {e}");
        }
    }
    assert!(failures > 0, "some fault offsets must land inside the run");
}

#[test]
fn cdc_survives_faults_at_every_offset() {
    let snap = snapshot(502);
    let mut failures = 0;
    for fault_at in 0..40u64 {
        let backend = FaultBackend::new(MemBackend::new(), fault_at);
        let mut engine = CdcEngine::new(backend, EngineConfig::new(512, 4)).expect("config");
        let result = engine.process_snapshot(&snap).and_then(|()| engine.finish().map(|_| ()));
        if let Err(e) = result {
            failures += 1;
            assert!(matches!(e, EngineError::Store(_)));
        }
    }
    assert!(failures > 0);
}

/// After a mid-run fault, objects written before the fault are intact and
/// internally consistent (immutable DiskChunks/Hooks are never half
/// updated).
#[test]
fn committed_state_survives_fault() {
    let corpus = Corpus::generate(CorpusSpec::tiny(503));
    // First, measure how many backend ops a clean run performs.
    let clean = FaultBackend::new(MemBackend::new(), u64::MAX);
    let mut engine = MhdEngine::new(clean, EngineConfig::new(512, 4)).expect("config");
    for s in &corpus.snapshots {
        engine.process_snapshot(s).expect("clean run");
    }
    engine.finish().expect("clean finish");
    let total_ops = {
        let b = engine.substrate_mut().backend_mut();
        b.ops()
    };

    // Now fault half-way and inspect the backend afterwards.
    let fault_at = total_ops / 2;
    let faulty = FaultBackend::new(MemBackend::new(), fault_at);
    let mut engine = MhdEngine::new(faulty, EngineConfig::new(512, 4)).expect("config");
    let mut failed = false;
    for s in &corpus.snapshots {
        if engine.process_snapshot(s).is_err() {
            failed = true;
            break;
        }
    }
    if !failed {
        failed = engine.finish().is_err();
    }
    assert!(failed, "fault at {fault_at}/{total_ops} must fire");

    let backend = engine.substrate_mut().backend_mut();
    // Every committed manifest must decode and point at existing chunks.
    for name in backend.list(FileKind::Manifest) {
        let bytes = backend.get(FileKind::Manifest, &name).expect("committed manifest readable");
        let manifest = mhd_store::Manifest::decode(
            mhd_store::ManifestId(u64::from_str_radix(&name, 16).expect("hex name")),
            &bytes,
        )
        .expect("committed manifest decodes");
        for e in &manifest.entries {
            assert!(
                backend.exists(FileKind::DiskChunk, &e.container.name()),
                "manifest {name} references missing container"
            );
        }
    }
}

/// A file whose processing failed writes nothing that breaks restore of
/// earlier, fully-committed files.
#[test]
fn earlier_files_restore_after_fault() {
    let corpus = Corpus::generate(CorpusSpec::tiny(504));
    let faulty = FaultBackend::new(MemBackend::new(), 30);
    let mut engine = MhdEngine::new(faulty, EngineConfig::new(512, 4)).expect("config");
    let mut processed_streams = 0usize;
    for s in &corpus.snapshots {
        if engine.process_snapshot(s).is_err() {
            break;
        }
        processed_streams += 1;
    }
    let substrate = engine.substrate_mut();
    // Every FileManifest that exists must restore byte-exactly.
    let mut restored = 0;
    for s in corpus.snapshots.iter().take(processed_streams) {
        for f in &s.files {
            let bytes = mhd_core::restore::restore_file(substrate, &f.path)
                .unwrap_or_else(|e| panic!("{}: {e}", f.path));
            assert_eq!(bytes, f.data, "{}", f.path);
            restored += 1;
        }
    }
    // (restored == 0 is legal if the fault hit the very first file.)
    let _ = restored;
}

/// Satellite regression: a write killed mid-way through a manifest rewrite
/// must leave the old manifest intact (the torn bytes land in the hidden
/// tmp file, never the target), and recovery must clean up the debris.
#[test]
fn torn_manifest_rewrite_preserves_old_content() {
    let dir = temp_dir("torn-hhr");
    let plain = DirBackend::create_with(&dir, Durability::Rename).unwrap();
    torn_manifest_rewrite(plain, DirBackend::fault_short_write_at);
    std::fs::remove_dir_all(&dir).unwrap();
    // The writer `mhd backup`/`mhd serve` ship with: default `IoConfig`.
    let batched = BatchedDirBackend::create(&dir).unwrap();
    torn_manifest_rewrite(batched, BatchedDirBackend::fault_short_write_at);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn torn_manifest_rewrite<B: Backend + 'static>(backend: B, tear: fn(&mut B, u64)) {
    let (day0, day1) = hhr_backup_pair();
    let mut engine = MhdEngine::new(backend, EngineConfig::new(512, 8)).expect("config");
    engine.process_snapshot(&day0).unwrap();
    engine.process_snapshot(&day1).unwrap();
    // Put both days' objects on disk (the batched backend may still hold
    // them in its overlay), so that the next physical write is finish()
    // writing back an HHR-dirtied manifest; tear that one half-way.
    engine.substrate_mut().flush().unwrap();
    tear(engine.substrate_mut().backend_mut(), 0);
    let err = engine.finish();
    assert!(matches!(err, Err(EngineError::Store(_))), "torn write must surface: {err:?}");

    // The torn write went to a tmp file: recovery removes it (plus the
    // write-ahead intent), and the store is structurally sound.
    let substrate = engine.substrate_mut();
    let report = substrate.recover().unwrap();
    assert!(report.tmp_files_removed >= 1, "torn tmp file must be found: {report:?}");
    assert!(substrate.recover().unwrap().is_clean(), "recovery is idempotent");
    let fsck = check_store(substrate);
    assert!(fsck.is_healthy(), "problems after torn rewrite: {:?}", fsck.problems);

    // Day-0 content (committed before the torn rewrite) restores exactly.
    let restored = mhd_core::restore::restore_file(substrate, "day0/disk.img").unwrap();
    assert_eq!(restored, day0.files[0].data, "day0 must survive the torn day1 rewrite");
}

/// Satellite regression: per-kind fault points let a test target exactly
/// the HHR manifest-rewrite path. Every Manifest-write index across the
/// HHR run leaves a store whose committed state is consistent.
#[test]
fn manifest_write_faults_leave_consistent_store() {
    let (day0, day1) = hhr_backup_pair();
    // Count the Manifest writes a clean run performs.
    let clean = FaultBackend::with_point(
        MemBackend::new(),
        FaultPoint::write(Some(FileKind::Manifest), u64::MAX),
    );
    let mut engine = MhdEngine::new(clean, EngineConfig::new(512, 8)).expect("config");
    engine.process_snapshot(&day0).unwrap();
    engine.process_snapshot(&day1).unwrap();
    engine.finish().unwrap();
    let manifest_writes = engine.substrate_mut().backend_mut().matching_ops();
    assert!(manifest_writes >= 2, "HHR run must write manifests (got {manifest_writes})");

    let mut faulted = 0u64;
    for fail_at in 0..manifest_writes {
        let backend = FaultBackend::with_point(
            MemBackend::new(),
            FaultPoint::write(Some(FileKind::Manifest), fail_at),
        );
        let mut engine = MhdEngine::new(backend, EngineConfig::new(512, 8)).expect("config");
        let result = engine
            .process_snapshot(&day0)
            .and_then(|()| engine.process_snapshot(&day1))
            .and_then(|()| engine.finish().map(|_| ()));
        if result.is_err() {
            faulted += 1;
        }
        let substrate = engine.substrate_mut();
        let fsck = check_store(substrate);
        assert!(
            fsck.is_healthy(),
            "manifest-write fault {fail_at}/{manifest_writes}: {:?}",
            fsck.problems
        );
    }
    assert_eq!(faulted, manifest_writes, "every targeted manifest write must fire");
}

/// The crash-during-HHR matrix of the issue: run a backup pair that
/// triggers BME + HHR over a real directory store, crash at *every* write
/// index of the second backup, and require that recovery + fsck see a
/// consistent store and that every day-0 file restores byte-identically.
#[test]
fn crash_matrix_during_hhr_recovers_day0() {
    let (day0, day1) = hhr_backup_pair();

    // Clean run over a directory store: find the write-op window of the
    // second backup (+ finish), which contains the HHR manifest rewrite.
    let dir = temp_dir("matrix-clean");
    let backend = FaultBackend::with_point(
        DirBackend::create(&dir).unwrap(),
        FaultPoint::write(None, u64::MAX),
    );
    let mut engine = MhdEngine::new(backend, EngineConfig::new(512, 8)).expect("config");
    engine.process_snapshot(&day0).unwrap();
    let day0_writes = engine.substrate_mut().backend_mut().matching_ops();
    engine.process_snapshot(&day1).unwrap();
    engine.finish().unwrap();
    let total_writes = engine.substrate_mut().backend_mut().matching_ops();
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(total_writes > day0_writes, "backup 2 must write");

    for fail_at in day0_writes..total_writes {
        let dir = temp_dir("matrix");
        let backend = FaultBackend::with_point(
            DirBackend::create(&dir).unwrap(),
            FaultPoint::write(None, fail_at),
        );
        let mut engine = MhdEngine::new(backend, EngineConfig::new(512, 8)).expect("config");
        engine.process_snapshot(&day0).expect("backup 1 is before the fault window");
        let result = engine.process_snapshot(&day1).and_then(|()| engine.finish().map(|_| ()));
        assert!(result.is_err(), "write fault {fail_at} must fire during backup 2");

        // Crash "happened": recover the store and check every invariant.
        let substrate = engine.substrate_mut();
        substrate.recover().unwrap();
        let fsck = check_store(substrate);
        assert!(
            fsck.is_healthy(),
            "crash at write {fail_at} ({}..{}): {:?}",
            day0_writes,
            total_writes,
            fsck.problems
        );
        // The pre-crash backup restores byte-identically.
        let restored = mhd_core::restore::restore_file(substrate, "day0/disk.img")
            .unwrap_or_else(|e| panic!("crash at write {fail_at}: day0 unrestorable: {e}"));
        assert_eq!(restored, day0.files[0].data, "crash at write {fail_at}");
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The same matrix on the backend `mhd backup` and `mhd serve` write
/// through, with a pool of writers racing inside each kind's batch and
/// batches small enough that backup 2 flushes more than once. A write torn
/// half-way at every physical write index of backup 2 is a crash: the
/// overlay is lost, and what reached the directory must recover to a
/// healthy store that restores day 0 byte-identically. The kind-by-kind
/// flush barrier is what keeps a referrer off disk until its referees are.
///
/// The logs' appends are physical writes like any other: at least one
/// index of the matrix tears one, leaving a torn tail that recovery drops
/// (counted in `tmp_files_removed` beyond the `.tmp` files).
#[test]
fn crash_matrix_during_pooled_hhr_recovers_day0() {
    let (day0, day1) = hhr_backup_pair();
    let config = IoConfig { threads: 3, batch_ops: 4, ..IoConfig::default() };
    // DiskChunk tmp files, and the tmp siblings of torn log replacements.
    let tmp_files = |dir: &std::path::Path| -> usize {
        [dir.join(FileKind::DiskChunk.dir_name()), dir.to_path_buf()]
            .iter()
            .flat_map(|d| std::fs::read_dir(d).unwrap())
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".tmp"))
            .count()
    };
    let mut torn = 0;
    let mut torn_log_tails = 0;
    loop {
        let dir = temp_dir("pooled-matrix");
        let backend = BatchedDirBackend::create_with(&dir, config).unwrap();
        let mut engine = MhdEngine::new(backend, EngineConfig::new(512, 8)).expect("config");
        engine.process_snapshot(&day0).unwrap();
        engine.finish().unwrap();
        engine.substrate_mut().backend_mut().fault_short_write_at(torn);
        let result = engine.process_snapshot(&day1).and_then(|()| engine.finish().map(|_| ()));
        if result.is_ok() {
            // Past the last write of backup 2.
            drop(engine);
            std::fs::remove_dir_all(&dir).unwrap();
            break;
        }
        let debris = tmp_files(&dir);
        let mut on_disk = Substrate::new(DirBackend::create(&dir).unwrap());
        let report = on_disk.recover().unwrap();
        torn_log_tails += report.tmp_files_removed - debris;
        let fsck = check_store(&mut on_disk);
        assert!(fsck.is_healthy(), "torn write {torn}: {:?}", fsck.problems);
        let restored = mhd_core::restore::restore_file(&mut on_disk, "day0/disk.img")
            .unwrap_or_else(|e| panic!("torn write {torn}: day0 unrestorable: {e}"));
        assert_eq!(restored, day0.files[0].data, "torn write {torn}");
        // Dropping the engine flushes what its overlay still holds.
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
        torn += 1;
    }
    assert!(torn >= 2, "backup 2 made {torn} writes: the matrix proves nothing");
    assert!(torn_log_tails > 0, "no torn write of the {torn} hit a log");
}

/// The batched backend with worker threads and fsync durability must
/// produce the same dedup results as the write-through backends — batching
/// must be invisible to the engines. Exercised for every engine.
#[test]
fn engines_identical_across_backends() {
    let corpus = Corpus::generate(CorpusSpec::tiny(505));
    let config = EngineConfig::new(512, 8);

    fn run<B: Backend + 'static>(
        kind: EngineKind,
        backend: B,
        config: EngineConfig,
        corpus: &Corpus,
    ) -> mhd_core::DedupReport {
        let mut engine = kind.build(backend, config).expect("config");
        for s in &corpus.snapshots {
            engine.process_snapshot(s).expect("dedup");
        }
        engine.finish().expect("finish")
    }

    // One comparison triple per engine: MemBackend (reference),
    // write-through DirBackend, and the batched pool with fsync.
    for kind in EngineKind::ALL {
        let mem = run(kind, MemBackend::new(), config, &corpus);
        let dir_root = temp_dir(&format!("equiv-dir-{kind:?}"));
        let dir = run(kind, DirBackend::create(&dir_root).unwrap(), config, &corpus);
        let batched_root = temp_dir(&format!("equiv-batched-{kind:?}"));
        let io = IoConfig {
            threads: 3,
            batch_ops: 7,
            durability: Durability::Fsync,
            ..IoConfig::default()
        };
        let batched_backend = BatchedDirBackend::create_with(&batched_root, io).unwrap();
        let batched = run(kind, batched_backend, config, &corpus);
        for (label, other) in [("dir", &dir), ("batched", &batched)] {
            assert_eq!(mem.input_bytes, other.input_bytes, "{kind:?} {label}");
            assert_eq!(mem.dup_bytes, other.dup_bytes, "{kind:?} {label}");
            assert_eq!(mem.dup_slices, other.dup_slices, "{kind:?} {label}");
            assert_eq!(mem.chunks_stored, other.chunks_stored, "{kind:?} {label}");
            assert_eq!(mem.chunks_dup, other.chunks_dup, "{kind:?} {label}");
            assert_eq!(mem.hhr_count, other.hhr_count, "{kind:?} {label}");
            assert_eq!(mem.stats, other.stats, "{kind:?} {label}");
            assert_eq!(mem.ledger, other.ledger, "{kind:?} {label}");
        }
        std::fs::remove_dir_all(&dir_root).unwrap();
        std::fs::remove_dir_all(&batched_root).unwrap();
    }
}

/// Read-side fault points: a failed chunk reload during HHR's byte
/// re-reads must surface as an error, not corrupt the store.
#[test]
fn read_fault_during_hhr_reload_is_clean() {
    let (day0, day1) = hhr_backup_pair();
    // HHR reloads stored chunk bytes through get_range on DiskChunks.
    let backend =
        FaultBackend::with_point(MemBackend::new(), FaultPoint::read(Some(FileKind::DiskChunk), 0));
    let mut engine = MhdEngine::new(backend, EngineConfig::new(512, 8)).expect("config");
    engine.process_snapshot(&day0).unwrap();
    let result = engine.process_snapshot(&day1).and_then(|()| engine.finish().map(|_| ()));
    // Whether or not the reload happened before the fault index, the store
    // must stay consistent.
    let _ = result;
    let substrate = engine.substrate_mut();
    let fsck = check_store(substrate);
    assert!(fsck.is_healthy(), "{:?}", fsck.problems);
    let restored = mhd_core::restore::restore_file(substrate, "day0/disk.img").unwrap();
    assert_eq!(restored, day0.files[0].data);
}
