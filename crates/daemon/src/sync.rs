//! Lock facade for the daemon: `std::sync` locks that do not poison.
//!
//! `shared.rs`, `registry.rs` and `index.rs` take their `Mutex`/`RwLock`
//! from here, in the mould of `mhd-obs`'s and `mhd-store`'s `sync.rs`.
//! `lock()`/`read()`/`write()` hand out the guard directly: a thread that
//! panicked while it held the lock leaves the data as it was at that
//! moment and the lock usable, instead of turning every later request of
//! a long-running daemon into a second panic. That is safe here because
//! each critical section in the daemon either only reads or leaves the
//! map consistent between statements (one `insert`/`remove` at a time).
//!
//! Nothing in `mhd-lint` checks where a lock is imported from; what it
//! does check is the order locks are taken in (L7 resolves every
//! `.lock()`/`.read()`/`.write()` with an empty argument list to a field
//! of `Mutex`/`RwLock` type), which is why these types keep those names
//! and that call shape.

use std::sync::{MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock that hands out guards without poisoning.
#[derive(Debug, Default)]
pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A readers-writer lock that hands out guards without poisoning.
#[derive(Debug, Default)]
pub(crate) struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    pub(crate) fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    pub(crate) fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}
