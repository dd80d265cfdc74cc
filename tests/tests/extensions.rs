//! Tests for the extension features beyond the paper's core: SI-MHD,
//! compact recipe encoding (Meister-style), and persistent engine state.

use mhd_core::{restore, Deduplicator, EngineConfig, EngineKind, HookIndex, MhdEngine};
use mhd_integration::run_kind;
use mhd_store::{FileManifest, MemBackend};
use mhd_workload::{Corpus, CorpusSpec};

#[test]
fn si_mhd_matches_bf_mhd_dedup_with_less_disk_metadata() {
    let corpus = Corpus::generate(CorpusSpec::tiny(811));
    let bf_cfg = EngineConfig::new(512, 8);
    let mut si_cfg = bf_cfg;
    si_cfg.mhd.hook_index = HookIndex::SparseIndex;

    let (bf, _) = run_kind(EngineKind::Mhd, &corpus.snapshots, bf_cfg);

    let mut si = MhdEngine::new(MemBackend::new(), si_cfg).unwrap();
    for s in &corpus.snapshots {
        si.process_snapshot(s).unwrap();
    }
    let si_report = si.finish().unwrap();

    assert_eq!(si_report.dup_bytes, bf.dup_bytes);
    assert_eq!(si_report.ledger.stored_data_bytes, bf.ledger.stored_data_bytes);
    assert_eq!(si_report.ledger.inodes_hooks, 0);
    assert!(si_report.ledger.total_metadata_bytes() < bf.ledger.total_metadata_bytes());
    assert!(si_report.ram_index_bytes > 0);
    // And it still restores.
    assert!(restore::verify_corpus(si.substrate_mut(), &corpus).unwrap() > 0);
}

#[test]
fn recipe_compression_saves_on_real_recipes() {
    // Deduplicate a corpus, then re-encode every produced FileManifest
    // compactly: the varint/delta coding must round-trip and save
    // substantially on real extent patterns.
    let corpus = Corpus::generate(CorpusSpec::tiny(812));
    let (_, mut substrate) =
        run_kind(EngineKind::Mhd, &corpus.snapshots, EngineConfig::new(512, 8));

    let mut fixed = 0usize;
    let mut compact = 0usize;
    let mut recipes = 0usize;
    for name in substrate.list_file_manifests() {
        let fm = substrate.load_file_manifest(&name).unwrap();
        let c = fm.encode_compact();
        assert_eq!(FileManifest::decode_compact(&c).unwrap(), fm, "{name}");
        fixed += fm.encoded_len();
        compact += c.len();
        recipes += 1;
    }
    assert!(recipes > 10);
    assert!(
        compact * 2 < fixed,
        "compact recipes {compact} should be well under half of fixed {fixed}"
    );
}

#[test]
fn engine_state_survives_serialisation_mid_corpus() {
    // Process half the corpus, serialise, deserialise into a new engine
    // over the same backend, process the rest: results must match a
    // single continuous run.
    let corpus = Corpus::generate(CorpusSpec::tiny(813));
    let config = EngineConfig::new(512, 8);
    let half = corpus.snapshots.len() / 2;

    // Continuous reference.
    let mut whole = MhdEngine::new(MemBackend::new(), config).unwrap();
    for s in &corpus.snapshots {
        whole.process_snapshot(s).unwrap();
    }
    let whole_report = whole.finish().unwrap();

    // Split run: first half...
    let mut first = MhdEngine::new(MemBackend::new(), config).unwrap();
    for s in &corpus.snapshots[..half] {
        first.process_snapshot(s).unwrap();
    }
    let _ = first.finish().unwrap(); // flush dirty manifests
    let state_json = serde_json::to_string(&first.export_state()).unwrap();
    let backend = std::mem::replace(first.substrate_mut().backend_mut(), MemBackend::new());

    // ...resume in a fresh engine over the same backend.
    let mut second = MhdEngine::new(backend, config).unwrap();
    second.import_state(serde_json::from_str(&state_json).unwrap()).unwrap();
    for s in &corpus.snapshots[half..] {
        second.process_snapshot(s).unwrap();
    }
    let resumed_report = second.finish().unwrap();

    // Dedup outcome identical to the continuous run (the cache starts
    // cold after resume, so I/O counters may differ slightly; bytes and
    // structures must not).
    assert_eq!(resumed_report.input_bytes, whole_report.input_bytes);
    assert_eq!(resumed_report.ledger.stored_data_bytes, whole_report.ledger.stored_data_bytes);
    assert_eq!(resumed_report.dup_bytes, whole_report.dup_bytes);
    assert_eq!(resumed_report.ledger.inodes_manifests, whole_report.ledger.inodes_manifests);
    assert!(restore::verify_corpus(second.substrate_mut(), &corpus).unwrap() > 0);
}
