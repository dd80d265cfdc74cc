//! Additional cross-cutting engine tests: mixed workload shapes, config
//! edges, and accounting invariants that every engine must satisfy.

use bytes::Bytes;
use mhd_store::{Backend, FaultBackend, FaultOp, FaultPoint, FileKind, MemBackend};
use mhd_workload::{Corpus, CorpusSpec, FileEntry, Snapshot};

use crate::{DedupReport, Deduplicator, EngineConfig, EngineKind, MhdEngine};

pub(crate) fn random(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

pub(crate) fn snapshot(prefix: &str, datas: Vec<Vec<u8>>) -> Snapshot {
    Snapshot {
        machine: 0,
        day: 0,
        files: datas
            .into_iter()
            .enumerate()
            .map(|(i, d)| FileEntry { path: format!("{prefix}/f{i}"), data: Bytes::from(d) })
            .collect(),
    }
}

/// Runs `kind` over `snapshots` in memory; returns the report and the
/// finished engine (for its substrate).
pub(crate) fn drive(
    kind: EngineKind,
    snapshots: &[Snapshot],
    config: EngineConfig,
) -> (DedupReport, Box<dyn Deduplicator<Backend = MemBackend>>) {
    let mut e = kind.build(MemBackend::new(), config).unwrap();
    for s in snapshots {
        e.process_snapshot(s).unwrap();
    }
    (e.finish().unwrap(), e)
}

/// A fault point that never fires and counts the `op`s on `kind`.
pub(crate) fn counting(op: FaultOp, kind: FileKind) -> FaultPoint {
    FaultPoint { op, kind: Some(kind), fail_at: u64::MAX }
}

/// The paper's invariant, checked on the calls an ingest path makes:
/// DiskChunks and Hooks are written once and never deleted; only
/// Manifests are rewritten (by HHR). `run` drives the path over a store
/// whose backend stack holds `point`, and returns how many operations
/// matched it and how many objects of its kind the store holds at the
/// end. One write per object rules out an `update`, however the call
/// spells its kind.
pub(crate) fn assert_write_once(path: &str, mut run: impl FnMut(FaultPoint) -> (u64, u64)) {
    for kind in [FileKind::DiskChunk, FileKind::Hook] {
        let (deletes, _) = run(counting(FaultOp::Delete, kind));
        assert_eq!(deletes, 0, "{path} deleted a {kind:?}");
        let (writes, objects) = run(counting(FaultOp::Write, kind));
        assert!(objects > 0, "{path} stored no {kind:?}: the check proves nothing");
        assert_eq!(writes, objects, "{path} wrote {kind:?}s {writes} times for {objects} objects");
    }
}

/// Whether the path `run` drives (as for [`assert_write_once`]) rewrote a
/// Manifest: more Manifest writes than Manifests.
pub(crate) fn rewrites_manifests(mut run: impl FnMut(FaultPoint) -> (u64, u64)) -> bool {
    let (writes, manifests) = run(counting(FaultOp::Write, FileKind::Manifest));
    writes > manifests
}

fn run_all(snapshots: &[Snapshot], config: EngineConfig) -> Vec<DedupReport> {
    EngineKind::ALL.iter().map(|&kind| drive(kind, snapshots, config).0).collect()
}

#[test]
fn all_engines_reject_invalid_config() {
    let bad = EngineConfig::new(1000, 8); // not a power of two
    for kind in EngineKind::ALL {
        assert!(kind.build(MemBackend::new(), bad).is_err(), "{kind:?}");
    }
}

#[test]
fn empty_snapshot_is_a_noop() {
    let empty = Snapshot { machine: 0, day: 0, files: vec![] };
    for report in run_all(&[empty], EngineConfig::new(512, 4)) {
        assert_eq!(report.input_bytes, 0, "{}", report.algorithm);
        assert_eq!(report.ledger.stored_data_bytes, 0, "{}", report.algorithm);
        assert_eq!(report.dup_slices, 0, "{}", report.algorithm);
    }
}

#[test]
fn single_byte_files() {
    let snap = snapshot("tiny", vec![vec![7], vec![7], vec![8]]);
    for report in run_all(&[snap], EngineConfig::new(512, 4)) {
        assert_eq!(report.input_bytes, 3, "{}", report.algorithm);
        assert_eq!(report.ledger.stored_data_bytes + report.dup_bytes, 3, "{}", report.algorithm);
    }
}

#[test]
fn low_entropy_runs_do_not_break_accounting() {
    // Long zero runs hit the max-chunk-size path everywhere and create
    // massive intra-stream duplication.
    let zeros = vec![0u8; 96 << 10];
    let snap = snapshot("zeros", vec![zeros.clone(), zeros]);
    for report in run_all(&[snap], EngineConfig::new(512, 4)) {
        assert_eq!(
            report.ledger.stored_data_bytes + report.dup_bytes,
            report.input_bytes,
            "{}",
            report.algorithm
        );
        // At least the second file's worth must dedup.
        assert!(report.dup_bytes >= 90 << 10, "{}: {}", report.algorithm, report.dup_bytes);
    }
}

#[test]
fn interleaved_dup_and_fresh_regions() {
    // file = [A][fresh][B][fresh][A] where A and B repeat.
    let a = random(20 << 10, 1);
    let b = random(20 << 10, 2);
    let mut first = Vec::new();
    first.extend_from_slice(&a);
    first.extend_from_slice(&b);
    let mut second = Vec::new();
    second.extend_from_slice(&a);
    second.extend_from_slice(&random(8 << 10, 3));
    second.extend_from_slice(&b);
    second.extend_from_slice(&random(8 << 10, 4));
    second.extend_from_slice(&a);

    for report in run_all(
        &[snapshot("s1", vec![first]), snapshot("s2", vec![second])],
        EngineConfig::new(512, 4),
    ) {
        assert_eq!(
            report.ledger.stored_data_bytes + report.dup_bytes,
            report.input_bytes,
            "{}",
            report.algorithm
        );
        // MHD and CDC must find most of the repeated A/B content.
        if report.algorithm == "bf-mhd" || report.algorithm == "cdc" {
            assert!(
                report.dup_bytes > 48 << 10,
                "{}: only {} dup",
                report.algorithm,
                report.dup_bytes
            );
            assert!(report.dup_slices >= 2, "{}", report.algorithm);
        }
    }
}

#[test]
fn growing_file_day_over_day() {
    // Append-only growth (log files): every next day is a superset.
    let mut content = random(32 << 10, 9);
    let mut snapshots = Vec::new();
    for day in 0..4 {
        snapshots.push(Snapshot {
            machine: 0,
            day,
            files: vec![FileEntry {
                path: format!("log/d{day}"),
                data: Bytes::from(content.clone()),
            }],
        });
        content.extend_from_slice(&random(8 << 10, 10 + day as u64));
    }
    for report in run_all(&snapshots, EngineConfig::new(512, 4)) {
        // Day d is fully contained in day d+1: most of the input dedups.
        let unique = (32 << 10) + 3 * (8 << 10);
        assert!(
            report.ledger.stored_data_bytes < 2 * unique,
            "{} stored {} vs unique {unique}",
            report.algorithm,
            report.ledger.stored_data_bytes
        );
    }
}

#[test]
fn mhd_buffer_boundary_sizes() {
    // Exercise files whose chunk counts land exactly on SD and 2·SD
    // boundaries (off-by-one hazards in the SHM flush logic).
    for kib in [1usize, 2, 4, 8, 16, 32] {
        let snap = snapshot("b", vec![random(kib << 10, kib as u64)]);
        let mut e = MhdEngine::new(MemBackend::new(), EngineConfig::new(512, 4)).unwrap();
        e.process_snapshot(&snap).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.ledger.stored_data_bytes, (kib << 10) as u64, "{kib} KiB");
        let restored = crate::restore::restore_file(e.substrate_mut(), "b/f0").unwrap();
        assert_eq!(restored.len(), kib << 10);
    }
}

#[test]
fn duplicate_detection_is_order_sensitive_but_complete() {
    // Processing streams in the opposite order stores the same total
    // bytes (who stores is swapped, what is stored is not).
    let x = random(64 << 10, 21);
    let y = {
        let mut y = x.clone();
        let patch = random(2 << 10, 22);
        y[30_000..32_048].copy_from_slice(&patch);
        y
    };
    let forward = run_all(
        &[snapshot("a", vec![x.clone()]), snapshot("b", vec![y.clone()])],
        EngineConfig::new(512, 4),
    );
    let backward =
        run_all(&[snapshot("a", vec![y]), snapshot("b", vec![x])], EngineConfig::new(512, 4));
    for (f, b) in forward.iter().zip(&backward) {
        let diff = f.ledger.stored_data_bytes.abs_diff(b.ledger.stored_data_bytes);
        assert!(
            diff < 8 << 10,
            "{}: forward stored {} vs backward {}",
            f.algorithm,
            f.ledger.stored_data_bytes,
            b.ledger.stored_data_bytes
        );
    }
}

/// SHA-1 over everything a run leaves behind that is not a timing: the
/// report with `dedup_seconds` zeroed (as JSON) and the backend's sorted
/// `(FileKind, name, payload)` listing.
fn run_digest(report: &DedupReport, backend: &mut MemBackend) -> String {
    use mhd_store::{Backend, FileKind};
    let mut h = mhd_hash::Sha1::new();
    let report = DedupReport { dedup_seconds: 0.0, ..report.clone() };
    h.update(serde_json::to_string(&report).unwrap().as_bytes());
    for kind in FileKind::ALL {
        for name in backend.list(kind) {
            let payload = backend.get(kind, &name).unwrap();
            h.update(kind.dir_name().as_bytes());
            h.update(&(name.len() as u64).to_le_bytes());
            h.update(name.as_bytes());
            h.update(&(payload.len() as u64).to_le_bytes());
            h.update(&payload);
        }
    }
    h.finalize().to_hex()
}

#[test]
fn engine_outputs_are_pinned() {
    // Every engine's complete output — counters, ledger and every stored
    // byte — over a seeded corpus, with a two-manifest cache so evictions
    // and dirty write-backs happen. The digests were taken before the
    // engines were moved onto the shared scaffold; a refactor of the
    // engines must leave them alone, and the front end's worker count
    // must never show in them.
    use mhd_chunking::ChunkerKind;
    const CHUNKERS: [ChunkerKind; 2] = [ChunkerKind::Rabin, ChunkerKind::FastCdc];
    let corpus = mhd_workload::Corpus::generate(mhd_workload::CorpusSpec::tiny(19));
    let pinned = [
        ("bf-mhd", ChunkerKind::Rabin, "08c75e5d4f094f216ff7fa7c2a906eb85b6b173b"),
        ("bf-mhd", ChunkerKind::FastCdc, "958930540e18adba94a9458cc2b6bd19b097af7b"),
        ("cdc", ChunkerKind::Rabin, "813905fe148e5547c8cadf46d3e4c253b48f8fe7"),
        ("cdc", ChunkerKind::FastCdc, "8121f8a68f2a6573689554a4c16bffb81823fe1c"),
        ("bimodal", ChunkerKind::Rabin, "70ef48282959f81aa45403d62c88eaedb39d44ec"),
        ("bimodal", ChunkerKind::FastCdc, "4f096b06f3afe764dbcf02d43f3cce261f68263d"),
        ("subchunk", ChunkerKind::Rabin, "041696de01f10ccad38e1fcc0bf318e1d549c843"),
        ("subchunk", ChunkerKind::FastCdc, "13edf4f06fbf62c1248b0476a28a946e118fa542"),
        ("sparse-indexing", ChunkerKind::Rabin, "385fe8562f5a7d863159997a67d4a133fb3627d4"),
        ("sparse-indexing", ChunkerKind::FastCdc, "858ef5032ef97e5812752d739ec92dfd5c0d3b26"),
    ];
    for (kind, chunker) in EngineKind::ALL.into_iter().flat_map(|k| CHUNKERS.map(|c| (k, c))) {
        let mut config = EngineConfig::new(512, 8).with_chunker(chunker);
        config.cache_manifests = 2;
        for workers in [0, 2] {
            let (name, got) = crate::frontend::with_workers(workers, || {
                let (report, mut e) = drive(kind, &corpus.snapshots, config);
                if kind == EngineKind::Mhd {
                    assert!(report.hhr_count > 0, "the corpus must exercise HHR");
                    assert!(report.stats.manifest_output > report.files, "and dirty write-backs");
                }
                (e.name(), run_digest(&report, e.substrate_mut().backend_mut()))
            });
            let want = pinned.iter().find(|p| (p.0, p.1) == (name, chunker)).map(|p| p.2);
            assert_eq!(Some(got.as_str()), want, "{name} {chunker:?} workers={workers}");
        }
    }
}

#[test]
fn disk_chunks_and_hooks_are_written_once_by_every_engine() {
    let corpus = Corpus::generate(CorpusSpec::tiny(3));
    for kind in EngineKind::ALL {
        let run = |point: FaultPoint| {
            let backend = FaultBackend::with_point(MemBackend::new(), point);
            let mut e = kind.build(backend, EngineConfig::new(512, 8)).unwrap();
            for snapshot in &corpus.snapshots {
                e.process_snapshot(snapshot).unwrap();
            }
            e.finish().unwrap();
            let backend = e.substrate_mut().backend_mut();
            (backend.matching_ops(), backend.count(point.kind.unwrap_or(FileKind::DiskChunk)))
        };
        assert_write_once(&format!("{kind:?}"), run);
        if kind == EngineKind::Mhd {
            assert!(rewrites_manifests(run), "the corpus gave HHR nothing to rewrite");
        }
    }
}
