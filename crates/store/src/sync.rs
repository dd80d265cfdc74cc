//! Concurrency-primitive facade for the batched I/O path.
//!
//! [`crate::BatchedDirBackend`]'s worker pool imports its channels and
//! the lock around the shared job receiver through this module rather
//! than straight from `std::sync`. The indirection pins the primitive
//! surface that `mhd-lint`'s deterministic model checker mirrors: the
//! flush-barrier model in `crates/lint/src/models.rs` explores bounded
//! interleavings of precisely these operations (job send, per-write
//! commit, done-channel barrier), so a primitive added here without a
//! model update is visible in review. That is a convention: nothing
//! checks where `batched.rs` imports from.
//!
//! The job queue is `mpsc::sync_channel` — a bounded queue whose `send`
//! blocks while it is full and fails once the receiver is gone, and
//! whose `recv` fails once it is empty and every sender is gone. `std`'s
//! receiver has one owner, so the workers share it behind a [`Mutex`]
//! that each holds only while it waits for a job, never while it writes.
//!
//! The re-exports are the real `std` types — there is no behavioral
//! shim; swapping in an instrumented implementation (loom-style) is a
//! one-module change.

pub use std::sync::{mpsc, Arc, Mutex, PoisonError};
