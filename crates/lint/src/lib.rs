//! `mhd-lint`: the deterministic concurrency model checker.
//!
//! The workspace's static invariants are checked by the compiler and the
//! tests on the shipped code (DESIGN.md §9 says where each one lives).
//! What stays here are the protocol models: [`mck`] exhaustively explores
//! the batched flush-barrier, trace-ring prune, GC-watermark, two-phase
//! publish, intent-record crash-recovery and compaction-vs-GC protocols
//! ([`models`]) over every interleaving, treating every reachable state
//! as a crash point. Any violation, or an exploration cut short, fails
//! the run.

#![forbid(unsafe_code)]

pub mod mck;
pub mod models;

pub use mck::{check, CheckResult, Model, Violation};
pub use models::{CompactGcModel, FlushModel, IntentModel, PublishModel, RingModel};
