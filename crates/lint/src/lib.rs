//! `mhd-lint`: workspace invariant linter + deterministic concurrency
//! model checker.
//!
//! The workspace maintains invariants the Rust compiler cannot check:
//!
//! * **L1** — no `unwrap`/`expect`/`panic!` on durability paths (the
//!   store, the CLI, and the core I/O modules): a panic mid-commit
//!   strands a half-written store;
//! * **L2** — backend mutations go through the tmp+rename commit helpers,
//!   and `FileKind::FLUSH_ORDER` stays a reference-respecting
//!   topological order that the batched backend actually uses;
//! * **L3** — DiskChunks and Hooks are immutable outside GC/compaction
//!   (the paper's core invariant: HHR rewrites only Manifests);
//! * **L4** — observability labels come from the registered vocabularies
//!   (`SCOPE_LABEL_KEYS`, `STAGE_NAME_PREFIXES`), so traces aggregate;
//! * **L5** — crate roots warn on missing docs, and only binary crates
//!   may force the `obs` cargo feature;
//! * **L6** — every crate root forbids `unsafe_code`, or denies it so
//!   that each use is a local `#[allow(unsafe_code)]`;
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
//! point. Findings ratchet against `lint-baseline.json` ([`findings`]):
//! known debt is tolerated, new debt fails CI, burn-down is free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod findings;
pub mod idrange;
pub mod lexer;
pub mod locks;
pub mod mck;
pub mod models;
pub mod passes;
pub mod sarif;
pub mod source;

pub use findings::{Baseline, Finding, Ratchet};
pub use idrange::pass_l8_id_range;
pub use locks::{lock_graph, pass_l7_lock_order, LockGraph};
pub use mck::{check, CheckResult, Model, Violation};
pub use models::{CompactGcModel, FlushModel, IntentModel, PublishModel, RingModel};
pub use passes::{run_passes, Workspace};
pub use sarif::to_sarif;
pub use source::SourceFile;
