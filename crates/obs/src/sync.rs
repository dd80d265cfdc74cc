//! Concurrency-primitive facade for the observability runtime.
//!
//! Every synchronization primitive the obs runtime uses — the trace-ring
//! registry, the scope table, the metric registry — is imported through
//! this module rather than straight from `std::sync`. The indirection
//! pins the exact primitive surface that `mhd-lint`'s deterministic
//! model checker mirrors: the trace-ring pruning model in
//! `crates/lint/src/models.rs` explores bounded interleavings of
//! precisely these operations (`Arc` strong counts, `Mutex`-guarded ring
//! pushes and drains), so a primitive added here without a model update
//! is visible in review. That is a convention: nothing checks where the
//! runtime modules import from.
//!
//! The re-exports are the real `std` types — there is no behavioral
//! shim; swapping in an instrumented implementation (loom-style) is a
//! one-module change.

pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
pub use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
