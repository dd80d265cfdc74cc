//! Active-session registry: the GC protection handshake.
//!
//! Chunk and manifest ids are allocated monotonically, so "everything a
//! session could possibly write" is exactly "ids at or above the
//! watermark when the session opened". Each write session registers that
//! watermark here; the collector computes its sweep cutoff as
//! `min(current watermark, min over registered watermarks)` and
//! [`mhd_core::gc::collect_protected`] never deletes at or above the
//! cutoff. Deregistration happens on commit and abort alike — by then the
//! session's objects are either referenced by its recipes (live) or were
//! never written.
//!
//! The registry also owns stream-prefix exclusivity: two sessions may not
//! write the same `tenant/label` stream concurrently.
//!
//! Under two-phase commits the watermark is captured at `BEGIN`, *before*
//! the session's pipeline runs: every id the session later reserves in
//! its publish phase is allocated after registration and therefore at or
//! above its watermark, so staged splices are protected from the moment
//! they hit disk. Objects written *before* a session began are not
//! protected: a GC that deletes any sends every running pipeline back
//! (`SharedStore::gc`). The crate's schedule exploration runs every
//! interleaving of `BEGIN`, pipeline, publish and GC on a real store and
//! checks that no sweep reaches an open session's watermark.

use mhd_hash::FxHashMap;

use mhd_core::sync::{Mutex, Rank};

/// One registered session: its GC watermark and exclusive stream prefix.
#[derive(Debug, Clone)]
struct Registration {
    watermark: u64,
    prefix: String,
}

/// Tracks in-progress write sessions for GC protection and stream
/// exclusivity. All methods take `&self`; the registry is internally
/// locked and is shared via `Arc` between connection handlers and the
/// collector.
pub struct SessionRegistry {
    inner: Mutex<FxHashMap<u64, Registration>>,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

impl SessionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        SessionRegistry { inner: Mutex::new(Rank::Registry, FxHashMap::default()) }
    }

    /// Registers session `sid` with the chunk-id `watermark` captured at
    /// session open and its exclusive stream `prefix`
    /// (`"tenant/label"`). Fails if another active session holds the
    /// same prefix.
    pub fn register(&self, sid: u64, watermark: u64, prefix: &str) -> Result<(), String> {
        let mut inner = self.inner.lock();
        if inner.values().any(|r| r.prefix == prefix) {
            return Err(format!("stream {prefix:?} already has an active session"));
        }
        inner.insert(sid, Registration { watermark, prefix: prefix.to_string() });
        Ok(())
    }

    /// Drops session `sid` (commit or abort). Unknown ids are ignored —
    /// deregistration must be safe to call from cleanup paths.
    pub fn deregister(&self, sid: u64) {
        self.inner.lock().remove(&sid);
    }

    /// The smallest registered watermark, or `None` when no session is
    /// active (the collector may then sweep up to its own watermark).
    pub fn min_watermark(&self) -> Option<u64> {
        self.inner.lock().values().map(|r| r.watermark).min()
    }

    /// Number of active sessions.
    pub fn active(&self) -> usize {
        self.inner.lock().len()
    }

    /// Stream prefixes of active sessions, sorted (for stats output).
    pub fn active_prefixes(&self) -> Vec<String> {
        let mut prefixes: Vec<String> =
            self.inner.lock().values().map(|r| r.prefix.clone()).collect();
        prefixes.sort();
        prefixes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_watermark_tracks_registrations() {
        let reg = SessionRegistry::new();
        assert_eq!(reg.min_watermark(), None);
        reg.register(1, 100, "a/x").unwrap();
        reg.register(2, 40, "a/y").unwrap();
        reg.register(3, 70, "b/x").unwrap();
        assert_eq!(reg.min_watermark(), Some(40));
        assert_eq!(reg.active(), 3);
        reg.deregister(2);
        assert_eq!(reg.min_watermark(), Some(70));
        reg.deregister(3);
        reg.deregister(1);
        assert_eq!(reg.min_watermark(), None);
        assert_eq!(reg.active(), 0);
    }

    #[test]
    fn stream_prefixes_are_exclusive() {
        let reg = SessionRegistry::new();
        reg.register(1, 5, "alice/day0").unwrap();
        assert!(reg.register(2, 6, "alice/day0").is_err());
        // Same label under a different tenant is a different stream.
        reg.register(3, 6, "bob/day0").unwrap();
        reg.deregister(1);
        reg.register(4, 9, "alice/day0").unwrap();
        assert_eq!(reg.active_prefixes(), vec!["alice/day0", "bob/day0"]);
    }

    #[test]
    fn a_panic_under_the_registry_lock_leaves_it_usable() {
        let reg = SessionRegistry::new();
        reg.register(1, 5, "alice/day0").unwrap();
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = reg.inner.lock();
                panic!("a session thread dies holding the registry lock");
            })
            .join()
        });
        assert!(holder.is_err());
        // A std lock is poisoned from here on; this one hands out its
        // guard, and the map is as the dead thread left it.
        assert_eq!(reg.min_watermark(), Some(5));
        reg.register(2, 9, "bob/day0").unwrap();
        reg.deregister(1);
        assert_eq!(reg.active_prefixes(), vec!["bob/day0"]);
    }

    #[test]
    fn deregistering_unknown_sessions_is_harmless() {
        let reg = SessionRegistry::new();
        reg.deregister(42);
        assert_eq!(reg.active(), 0);
    }
}
