//! `mhd-lint`: workspace invariant linter + deterministic concurrency
//! model checker.
//!
//! What the compiler can check, it checks: the durability paths deny
//! clippy's `unwrap_used`/`expect_used`/`panic`, and the root
//! `[workspace.lints.rust]` table sets `missing_docs` and `unsafe_code`
//! for every member. This crate keeps the invariants rustc and clippy
//! cannot see:
//!
//! * **L2** — backend mutations go through the tmp+rename commit helpers,
//!   and `FileKind::FLUSH_ORDER` stays a reference-respecting
//!   topological order that the batched backend actually uses;
//! * **L3** — DiskChunks and Hooks are immutable outside GC/compaction
//!   (the paper's core invariant: HHR rewrites only Manifests);
//! * **L5** — every member manifest inherits the workspace lint table,
//!   and only binary crates may force the `obs` cargo feature;
//! * **L7** — the daemon's lock acquisition graph stays acyclic and the
//!   engine lock is never acquired while another lock is held ([`locks`]);
//! * **L8** — staging ids live above one canonical `LOCAL_ID_BASE` floor
//!   and the publish splice remaps every one of them ([`idrange`]).
//!
//! The passes run over a dependency-free in-tree lexer ([`lexer`]); the
//! concurrency side ([`mck`], [`models`]) exhaustively explores the
//! batched flush-barrier, trace-ring prune, GC-watermark, two-phase
//! publish, intent-record crash-recovery, and compaction-vs-GC protocols
//! over every interleaving, treating every reachable state as a crash
//! point. Any finding fails the run.

#![forbid(unsafe_code)]

pub mod idrange;
pub mod lexer;
pub mod locks;
pub mod mck;
pub mod models;
pub mod passes;
pub mod source;

pub use idrange::pass_l8_id_range;
pub use locks::{lock_graph, pass_l7_lock_order, LockGraph};
pub use mck::{check, CheckResult, Model, Violation};
pub use models::{CompactGcModel, FlushModel, IntentModel, PublishModel, RingModel};
pub use passes::{run_passes, Workspace};
pub use source::SourceFile;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Pass identifier (e.g. `L3-immutability`).
    pub pass: &'static str,
    /// Workspace-relative file (or model name for checker findings).
    pub file: String,
    /// 1-based line, 0 when the finding is not line-anchored.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}
