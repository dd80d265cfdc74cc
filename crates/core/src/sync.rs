//! Ranked locks that do not poison.
//!
//! Every `Mutex`/`RwLock` the daemon and the front end take comes from
//! here, built with a [`Rank`]. Two rules hold for all of them:
//!
//! * **No poisoning.** `lock()`/`read()`/`write()` hand out the guard
//!   directly: a thread that panicked while it held the lock leaves the
//!   data as it was at that moment and the lock usable, instead of
//!   turning every later request of a long-running daemon into a second
//!   panic. That is safe because each critical section either only reads
//!   or leaves its data consistent between statements.
//! * **Ranks only increase.** A thread may take a lock only while every
//!   lock it already holds has a strictly lower rank. Two threads can
//!   then never wait on each other in a cycle, and a thread can never
//!   re-take a lock it holds. Under `cfg(debug_assertions)` each thread
//!   keeps a stack of the ranks it holds, and an acquisition that breaks
//!   the rule panics *before* it blocks, naming both ranks; so every test
//!   checks every acquisition the code it runs makes. In release builds
//!   the stack and the check are compiled out and a lock is the `std`
//!   lock it wraps.
//!
//! A guard dropped out of order leaves the stack ordered: the stack holds
//! each rank at most once, and a release removes its own entry wherever
//! it sits.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, PoisonError};

/// Where a lock sits in the process's one lock order; the declaration
/// order is the acquisition order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// The daemon's engine lock (`SharedStore`): the root, taken before
    /// any other lock or alone.
    Engine,
    /// The daemon's session registry, taken under the engine lock by
    /// `BEGIN` and `STATS` and on its own elsewhere.
    Registry,
    /// One shard of the daemon's hook index, written under the engine
    /// lock by a publish and read on its own by `HAVE`. Shards share the
    /// rank, so no thread holds two.
    IndexShard,
    /// The front end's job queue and per-job state: held across no other
    /// acquisition.
    Leaf,
}

#[cfg(debug_assertions)]
thread_local! {
    /// The ranks this thread holds, strictly increasing.
    static HELD: std::cell::RefCell<Vec<Rank>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// This thread's claim on one rank; dropping it releases the rank.
struct Held {
    #[cfg(debug_assertions)]
    rank: Rank,
}

impl Held {
    /// Claims `rank`, panicking if this thread holds a rank at or above it.
    fn claim(rank: Rank) -> Held {
        #[cfg(debug_assertions)]
        {
            // The panic comes after the borrow ends: guards dropped while
            // it unwinds release their ranks through the same cell.
            let top = HELD.with_borrow_mut(|held| {
                let top = held.last().copied().filter(|&top| top >= rank);
                if top.is_none() {
                    held.push(rank);
                }
                top
            });
            if let Some(top) = top {
                panic!(
                    "lock order: {rank:?} taken while this thread holds {top:?}; \
                     ranks must strictly increase (sync::Rank)"
                );
            }
            Held { rank }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = rank;
            Held {}
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        // `try_with`: a guard can outlive the stack at thread exit.
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(at) = held.iter().rposition(|&r| r == self.rank) {
                held.remove(at);
            }
        });
    }
}

/// A ranked mutual-exclusion lock that hands out guards without
/// poisoning.
#[derive(Debug)]
pub struct Mutex<T> {
    rank: Rank,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A lock at `rank` around `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        Mutex { rank, inner: std::sync::Mutex::new(value) }
    }

    /// Blocks until this thread holds the lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = Held::claim(self.rank);
        MutexGuard { inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner), held }
    }
}

/// Access to a [`Mutex`]'s value; the lock and its rank are released on
/// drop.
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    held: Held,
}

impl<T> MutexGuard<'_, T> {
    /// Releases the lock, blocks until `condvar` is notified, and takes
    /// the lock back. The rank is claimed again as if newly acquired, so
    /// waiting while a higher-ranked lock is held panics (debug builds).
    pub fn wait(self, condvar: &Condvar) -> Self {
        let MutexGuard { inner, held } = self;
        #[cfg(debug_assertions)]
        let held = {
            let rank = held.rank;
            drop(held);
            Held::claim(rank)
        };
        MutexGuard { inner: condvar.wait(inner).unwrap_or_else(PoisonError::into_inner), held }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A ranked readers-writer lock that hands out guards without poisoning.
/// A read and a write claim the same rank: a thread holds one guard of a
/// given `RwLock` at a time.
#[derive(Debug)]
pub struct RwLock<T> {
    rank: Rank,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// A lock at `rank` around `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        RwLock { rank, inner: std::sync::RwLock::new(value) }
    }

    /// Blocks until this thread shares the lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = Held::claim(self.rank);
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    /// Blocks until this thread holds the lock alone.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = Held::claim(self.rank);
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }
}

/// Shared access to an [`RwLock`]'s value.
pub struct RwLockReadGuard<'a, T> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive access to an [`RwLock`]'s value.
pub struct RwLockWriteGuard<'a, T> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    fn held() -> Vec<Rank> {
        HELD.with_borrow(Vec::clone)
    }

    #[test]
    fn increasing_ranks_nest() {
        let engine = Mutex::new(Rank::Engine, 0);
        let registry = Mutex::new(Rank::Registry, 0);
        let shard = RwLock::new(Rank::IndexShard, 0);
        let queue = Mutex::new(Rank::Leaf, 0);
        {
            let _e = engine.lock();
            let _r = registry.lock();
            *shard.write() += 1;
            let _s = shard.read();
            let _q = queue.lock();
            assert_eq!(held(), [Rank::Engine, Rank::Registry, Rank::IndexShard, Rank::Leaf]);
        }
        assert!(held().is_empty());
    }

    #[test]
    #[should_panic(expected = "lock order: Engine taken while this thread holds Registry")]
    fn a_lower_rank_under_a_higher_one_panics() {
        let engine = Mutex::new(Rank::Engine, ());
        let registry = Mutex::new(Rank::Registry, ());
        let _r = registry.lock();
        let _e = engine.lock();
    }

    #[test]
    #[should_panic(expected = "lock order: IndexShard taken while this thread holds IndexShard")]
    fn an_equal_rank_panics() {
        let a = RwLock::new(Rank::IndexShard, ());
        let b = RwLock::new(Rank::IndexShard, ());
        let _a = a.read();
        let _b = b.read();
    }

    #[test]
    fn guards_dropped_out_of_order_leave_the_stack_clean() {
        let engine = Mutex::new(Rank::Engine, ());
        let registry = Mutex::new(Rank::Registry, ());
        let e = engine.lock();
        let r = registry.lock();
        drop(e);
        assert_eq!(held(), [Rank::Registry]);
        drop(r);
        assert!(held().is_empty());
        // Both ranks are free again, in either order of acquisition.
        let _e = engine.lock();
        let _r = registry.lock();
        assert_eq!(held(), [Rank::Engine, Rank::Registry]);
    }

    #[test]
    fn a_condvar_wait_keeps_the_stack_consistent() {
        let engine = Mutex::new(Rank::Engine, ());
        let flag = Mutex::new(Rank::Leaf, false);
        let wake = Condvar::new();
        let _e = engine.lock();
        std::thread::scope(|s| {
            s.spawn(|| {
                *flag.lock() = true;
                wake.notify_all();
            });
            let mut set = flag.lock();
            while !*set {
                set = set.wait(&wake);
            }
            assert_eq!(held(), [Rank::Engine, Rank::Leaf]);
        });
        assert_eq!(held(), [Rank::Engine]);
    }

    #[test]
    #[should_panic(expected = "lock order: Engine taken while this thread holds Registry")]
    fn waiting_under_a_higher_rank_panics() {
        let engine = Mutex::new(Rank::Engine, ());
        let registry = Mutex::new(Rank::Registry, ());
        let wake = Condvar::new();
        let e = engine.lock();
        let _r = registry.lock();
        let _e = e.wait(&wake);
    }

    #[test]
    fn a_panic_under_a_lock_leaves_it_usable_and_the_stack_clean() {
        let registry = Mutex::new(Rank::Registry, 5);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = registry.lock();
                panic!("a thread dies holding the lock");
            })
            .join()
        });
        assert!(died.is_err());
        assert_eq!(*registry.lock(), 5);
        assert!(held().is_empty());
    }
}
