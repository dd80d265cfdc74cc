//! The paper's comparative claims, checked as executable assertions on a
//! mid-sized corpus (the full-scale versions are the `mhd-bench` binaries;
//! these run in the test suite at reduced size).

use mhd_core::metrics::{compute, DiskModel};
use mhd_core::{EngineConfig, EngineKind};
use mhd_integration::run_kind;
use mhd_workload::{Corpus, CorpusSpec};

fn corpus() -> Corpus {
    Corpus::generate(CorpusSpec { seed: 77, ..CorpusSpec::paper_like(24 << 20) })
}

fn config() -> EngineConfig {
    let mut c = EngineConfig::new(1024, 16);
    c.cache_manifests = 8;
    c.bloom_bytes = 64 << 10;
    c
}

#[test]
fn mhd_has_least_total_metadata() {
    // Fig. 7(d): "The overall performance of the BF-MHD algorithm was the
    // best among the algorithms compared."
    let corpus = corpus();
    let (mhd, _) = run_kind(EngineKind::Mhd, &corpus.snapshots, config());
    for other in
        [EngineKind::Bimodal, EngineKind::SubChunk, EngineKind::SparseIndexing, EngineKind::Cdc]
    {
        let (r, _) = run_kind(other, &corpus.snapshots, config());
        assert!(
            mhd.ledger.total_metadata_bytes() < r.ledger.total_metadata_bytes(),
            "BF-MHD metadata {} must undercut {other:?}'s {}",
            mhd.ledger.total_metadata_bytes(),
            r.ledger.total_metadata_bytes()
        );
    }
}

#[test]
fn mhd_has_best_real_der() {
    // Fig. 8(b): "BF-MHD achieved the best real DER."
    let corpus = corpus();
    let disk = DiskModel::default();
    let (mhd, _) = run_kind(EngineKind::Mhd, &corpus.snapshots, config());
    let mhd_real = compute(&mhd, &disk).real_der;
    for other in [EngineKind::Bimodal, EngineKind::SubChunk, EngineKind::SparseIndexing] {
        let (r, _) = run_kind(other, &corpus.snapshots, config());
        let real = compute(&r, &disk).real_der;
        assert!(mhd_real > real, "BF-MHD real DER {mhd_real:.3} must beat {other:?}'s {real:.3}");
    }
}

#[test]
fn manifest_entries_scale_with_sd() {
    // §IV: MHD's manifests hold ~2N/SD entries — doubling SD roughly
    // halves manifest bytes on fresh data.
    let corpus = Corpus::generate(CorpusSpec {
        seed: 78,
        snapshots: 1, // fresh data only: no HHR growth
        ..CorpusSpec::paper_like(8 << 20)
    });
    let mut small_sd = config();
    small_sd.sd = 8;
    let mut large_sd = config();
    large_sd.sd = 32;
    let (a, _) = run_kind(EngineKind::Mhd, &corpus.snapshots, small_sd);
    let (b, _) = run_kind(EngineKind::Mhd, &corpus.snapshots, large_sd);
    let ratio = a.ledger.manifest_bytes as f64 / b.ledger.manifest_bytes.max(1) as f64;
    assert!(
        (2.0..8.0).contains(&ratio),
        "manifest bytes should shrink ~4x from SD 8 to SD 32, got {ratio:.2}x"
    );
}

#[test]
fn smaller_sd_improves_real_der_tradeoff() {
    // Fig. 9: "smaller SD led to better trade-offs between the real DER
    // and MetaDataRatio."
    let corpus = corpus();
    let disk = DiskModel::default();
    let mut reals = Vec::new();
    for sd in [32usize, 16, 8] {
        let mut c = config();
        c.sd = sd;
        let (r, _) = run_kind(EngineKind::Mhd, &corpus.snapshots, c);
        reals.push(compute(&r, &disk).real_der);
    }
    assert!(
        reals[2] >= reals[0] - 0.05,
        "real DER at SD 8 ({:.3}) should not lose to SD 32 ({:.3})",
        reals[2],
        reals[0]
    );
}

#[test]
fn cdc_finds_most_data_duplicates_but_pays_in_metadata() {
    // The full-index flat CDC is the data-only upper bound among the
    // hook-based engines, and the most metadata-hungry (512F + 312N).
    let corpus = corpus();
    let (cdc, _) = run_kind(EngineKind::Cdc, &corpus.snapshots, config());
    let (mhd, _) = run_kind(EngineKind::Mhd, &corpus.snapshots, config());
    assert!(cdc.dup_bytes >= mhd.dup_bytes);
    assert!(cdc.ledger.inodes_hooks > 4 * mhd.ledger.inodes_hooks);
}

#[test]
fn bloom_filter_suppresses_most_fresh_lookups() {
    // §IV assumes "the bloom filter eliminates all queries for
    // non-duplicate hash values"; measured, the suppressed count must
    // dominate the on-disk hook probes for fresh-heavy input.
    let corpus = corpus();
    let (r, _) = run_kind(EngineKind::Mhd, &corpus.snapshots, config());
    assert!(
        r.stats.bloom_suppressed > r.stats.hook_input,
        "suppressed {} vs hook probes {}",
        r.stats.bloom_suppressed,
        r.stats.hook_input
    );
}

#[test]
fn mhd_io_beats_others_when_inequality_holds() {
    // §IV: "when 3L < D/SD, the number of disk accesses for MHD is lower
    // than all other algorithms compared" — checked with measured counts
    // when the measured workload satisfies the precondition.
    let corpus = corpus();
    let (mhd, _) = run_kind(EngineKind::Mhd, &corpus.snapshots, config());
    let (cdc, _) = run_kind(EngineKind::Cdc, &corpus.snapshots, config());
    if 3 * mhd.dup_slices < cdc.chunks_dup / 16 {
        for other in [EngineKind::Bimodal, EngineKind::Cdc] {
            let (r, _) = run_kind(other, &corpus.snapshots, config());
            assert!(
                mhd.stats.total_with_bloom() < r.stats.total_with_bloom(),
                "MHD accesses {} vs {other:?} {}",
                mhd.stats.total_with_bloom(),
                r.stats.total_with_bloom()
            );
        }
    }
}
