//! Deduplication engines: MHD and the paper's baselines.
//!
//! This crate implements the paper's contribution — **Metadata Harnessing
//! Deduplication** ([`MhdEngine`]): Sampling-and-Hash-Merging (SHM),
//! Bi-Directional Match Extension (BME/FME), and Hysteresis Hash
//! Re-chunking (HHR) — together with the four comparison systems of its
//! evaluation:
//!
//! * [`CdcEngine`] — flat content-defined chunking with a full per-chunk
//!   hook index (the "CDC" column of Tables I–II),
//! * [`BimodalEngine`] — big-chunk-first dedup, re-chunking non-duplicate
//!   big chunks adjacent to duplicates (transition points),
//! * [`SubChunkEngine`] — big-chunk-first dedup re-chunking *every*
//!   non-duplicate big chunk, coalescing its small chunks into one
//!   container,
//! * [`SparseIndexEngine`] — segment-based dedup against champion
//!   manifests chosen by a RAM sparse index.
//!
//! All five are one scaffold (substrate, Bloom filter, Manifest cache,
//! counters, index lookup, per-file commit, ingest loop, report — private
//! to this crate) plus a policy, so they run against the same
//! [`mhd_store::Substrate`] with the same accounting and their
//! [`IoStats`](mhd_store::IoStats) and
//! [`MetadataLedger`](mhd_store::MetadataLedger) are directly comparable —
//! the measured analogue of the paper's Tables I and II. [`EngineKind`]
//! names them and builds any of them behind the one [`Deduplicator`]
//! interface. [`metrics`]
//! derives the evaluation's figures of merit (data-only DER, real DER,
//! MetaDataRatio, ThroughputRatio, DAD) and [`analysis`] provides the
//! closed-form models of §IV for cross-checking.
//!
//! # Example
//!
//! ```
//! use mhd_core::{Deduplicator, EngineConfig, MhdEngine, restore};
//! use mhd_store::MemBackend;
//! use mhd_workload::{Corpus, CorpusSpec};
//!
//! let corpus = Corpus::generate(CorpusSpec::tiny(1));
//! let mut engine = MhdEngine::new(MemBackend::new(), EngineConfig::new(512, 8))?;
//! for snapshot in &corpus.snapshots {
//!     engine.process_snapshot(snapshot)?;
//! }
//! let report = engine.finish()?;
//! assert!(report.dup_bytes > 0);
//! // Everything restores byte-exactly.
//! let files = restore::verify_corpus(engine.substrate_mut(), &corpus).unwrap();
//! assert!(files > 0);
//! # Ok::<(), mhd_core::EngineError>(())
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod compact;
pub mod fsck;
pub mod gc;
pub mod metrics;
pub mod restore;
pub mod statefile;
pub mod sync;

mod bimodal;
mod cdc_engine;
mod config;
mod engine;
#[cfg(test)]
mod engine_tests;
mod frontend;
mod mhd;
mod sparse_index;
mod subchunk;

pub use bimodal::BimodalEngine;
pub use cdc_engine::CdcEngine;
pub use config::{EngineConfig, HhrDupGranularity, HookIndex, MhdOptions};
pub use engine::{
    chunk_and_hash, DedupReport, Deduplicator, EngineError, EngineKind, EngineResult, HashedChunk,
    HookPresence,
};
pub use mhd::{MhdEngine, MhdState, SessionDelta};
pub use sparse_index::SparseIndexEngine;
pub use subchunk::SubChunkEngine;
