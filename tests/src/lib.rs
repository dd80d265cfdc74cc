//! Shared helpers for the cross-crate integration tests in `tests/`.

#![forbid(unsafe_code)]

use mhd_core::{DedupReport, EngineConfig, EngineKind};
use mhd_store::{MemBackend, Substrate};
use mhd_workload::Snapshot;

/// Runs `kind` over `snapshots`; returns the report and the substrate for
/// restore verification.
pub fn run_kind(
    kind: EngineKind,
    snapshots: &[Snapshot],
    config: EngineConfig,
) -> (DedupReport, Substrate<MemBackend>) {
    let mut engine = kind.build(MemBackend::new(), config).expect("valid config");
    for s in snapshots {
        engine.process_snapshot(s).expect("dedup");
    }
    let report = engine.finish().expect("finish");
    // The engine owns its substrate (and is dropped right here): move it
    // out by swapping a fresh one in.
    let substrate = std::mem::replace(engine.substrate_mut(), Substrate::new(MemBackend::new()));
    (report, substrate)
}

/// Deterministic pseudo-random bytes (xorshift64), for tests that need
/// incompressible, seed-reproducible payloads without an RNG dependency.
pub fn xorshift_bytes(len: usize, seed: u64) -> Vec<u8> {
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

/// Two 64 KiB images where the second edits 1 KiB in the middle of the
/// first — the canonical BME + HHR trigger (duplicates straddle the edit,
/// so the merged manifest entry must be hysteresis-split and rewritten).
pub fn hhr_pair_bytes() -> (Vec<u8>, Vec<u8>) {
    let original = xorshift_bytes(64 << 10, 2);
    let mut edited = original.clone();
    edited[30_000..31_024].copy_from_slice(&xorshift_bytes(1024, 3));
    (original, edited)
}
