//! Shared helpers for the cross-crate integration tests in `tests/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mhd_core::{
    BimodalEngine, CdcEngine, DedupReport, Deduplicator, EngineConfig, FbcEngine, MhdEngine,
    SparseIndexEngine, SubChunkEngine,
};
use mhd_store::{MemBackend, Substrate};
use mhd_workload::Corpus;

/// Every engine under test, by name.
pub const ALL_ENGINES: [&str; 6] =
    ["bf-mhd", "cdc", "bimodal", "subchunk", "sparse-indexing", "fbc"];

/// Runs the named engine over `corpus`; returns the report and the
/// substrate for restore verification.
pub fn run_named(
    name: &str,
    corpus: &Corpus,
    config: EngineConfig,
) -> (DedupReport, Substrate<MemBackend>) {
    macro_rules! drive {
        ($engine:expr) => {{
            let mut engine = $engine.expect("valid config");
            for s in &corpus.snapshots {
                engine.process_snapshot(s).expect("dedup");
            }
            let report = engine.finish().expect("finish");
            (report, take_substrate(engine))
        }};
    }
    // Each engine type owns its substrate; move it out via a byte-level
    // swap with a fresh one (the engine is dropped right after).
    fn take_substrate<E>(mut engine: E) -> Substrate<MemBackend>
    where
        E: SubstrateAccess,
    {
        std::mem::replace(engine.substrate_mut_dyn(), Substrate::new(MemBackend::new()))
    }

    match name {
        "bf-mhd" => drive!(MhdEngine::new(MemBackend::new(), config)),
        "cdc" => drive!(CdcEngine::new(MemBackend::new(), config)),
        "bimodal" => drive!(BimodalEngine::new(MemBackend::new(), config)),
        "subchunk" => drive!(SubChunkEngine::new(MemBackend::new(), config)),
        "sparse-indexing" => drive!(SparseIndexEngine::new(MemBackend::new(), config)),
        "fbc" => drive!(FbcEngine::new(MemBackend::new(), config)),
        other => panic!("unknown engine {other}"),
    }
}

/// Uniform access to each engine's substrate.
pub trait SubstrateAccess {
    /// The engine's substrate.
    fn substrate_mut_dyn(&mut self) -> &mut Substrate<MemBackend>;
}

macro_rules! impl_access {
    ($($ty:ident),*) => {
        $(impl SubstrateAccess for $ty<MemBackend> {
            fn substrate_mut_dyn(&mut self) -> &mut Substrate<MemBackend> {
                self.substrate_mut()
            }
        })*
    };
}
impl_access!(MhdEngine, CdcEngine, BimodalEngine, SubChunkEngine, SparseIndexEngine, FbcEngine);

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
