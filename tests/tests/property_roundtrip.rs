//! Property-based whole-system tests: for arbitrary generated mini-corpora
//! and arbitrary engine parameters, deduplicate-then-restore is the
//! identity and accounting invariants hold.

use bytes::Bytes;
use mhd_core::{restore, EngineConfig, EngineKind};
use mhd_integration::run_kind;
use mhd_workload::{FileEntry, Snapshot};
use proptest::prelude::*;

/// Builds arbitrary multi-stream inputs with deliberate duplication:
/// streams are random byte soups plus splices of earlier content.
fn arb_streams() -> impl Strategy<Value = Vec<Snapshot>> {
    (
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20_000), 1..4),
        any::<u64>(),
    )
        .prop_map(|(mut bodies, seed)| {
            // Splice duplication: append a copy of stream 0's middle into
            // every later stream.
            let dup: Vec<u8> = bodies[0].iter().copied().skip(bodies[0].len() / 4).collect();
            for body in bodies.iter_mut().skip(1) {
                body.extend_from_slice(&dup);
            }
            bodies
                .into_iter()
                .enumerate()
                .map(|(day, body)| {
                    // Split each body into 1-3 files.
                    let n = 1 + (seed as usize + day) % 3;
                    let part = body.len() / n + 1;
                    let shared = Bytes::from(body);
                    let files = (0..n)
                        .map(|i| {
                            let start = (i * part).min(shared.len());
                            let end = ((i + 1) * part).min(shared.len());
                            FileEntry {
                                path: format!("m0/d{day}/f{i}"),
                                data: shared.slice(start..end),
                            }
                        })
                        .collect();
                    Snapshot { machine: 0, day, files }
                })
                .collect()
        })
}

/// Mirrors `restore::verify_corpus` for raw snapshot lists.
fn verify(
    substrate: &mut mhd_store::Substrate<mhd_store::MemBackend>,
    snapshots: &[Snapshot],
) -> Result<(), String> {
    for s in snapshots {
        for f in &s.files {
            let restored = restore::restore_file(substrate, &f.path)
                .map_err(|e| format!("{}: {e}", f.path))?;
            if restored != f.data {
                return Err(format!("{} mismatch", f.path));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// dedup ∘ restore == identity for MHD over arbitrary inputs and SD.
    #[test]
    fn prop_mhd_roundtrip(streams in arb_streams(), sd in 2usize..12) {
        let mut config = EngineConfig::new(256, sd);
        config.cache_manifests = 2; // force evictions and write-backs
        let (report, mut substrate) = run_kind(EngineKind::Mhd, &streams, config);
        prop_assert_eq!(
            report.ledger.stored_data_bytes + report.dup_bytes,
            report.input_bytes
        );
        prop_assert!(verify(&mut substrate, &streams).is_ok());
        prop_assert!(report.stats.hhr_reloads() <= 2 * report.dup_slices);
    }

    /// Same for the four baselines (smaller case count: they share most of
    /// the machinery).
    #[test]
    fn prop_baselines_roundtrip(streams in arb_streams()) {
        for kind in EngineKind::ALL {
            let mut config = EngineConfig::new(256, 4);
            config.cache_manifests = 2;
            let (report, mut substrate) = run_kind(kind, &streams, config);
            prop_assert_eq!(
                report.ledger.stored_data_bytes + report.dup_bytes,
                report.input_bytes,
                "{:?}", kind
            );
            prop_assert!(verify(&mut substrate, &streams).is_ok(), "{:?}", kind);
        }
    }
}
