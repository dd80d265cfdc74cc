//! The per-session staging substrate behind two-phase commits.
//!
//! Phase 1 of a daemon commit runs a full dedup pipeline *outside* the
//! engine lock. [`StagingBackend`] is the backend that pipeline runs on:
//! reads fall through to a read-only handle on the shared store
//! — Hook reads to the daemon's [`SharedHookIndex`] instead, so no
//! pipeline reads the Hook log — while writes land in in-memory
//! overlays — [`Overlay::fresh`] for
//! brand-new objects (the session's chunks, manifests, hooks and recipes,
//! allocated in a private id range far above the shared store's) and
//! [`Overlay::updated`] for copy-on-write rewrites of shared manifests
//! (HHR write-backs). Phase 2 drains the overlays with
//! [`StagingBackend::take_staged`] and splices them into the shared store
//! under the lock.
//!
//! The base view reads the shared store through the writer's own
//! directory handle — DiskChunk files, and the Manifest and recipe logs'
//! indexes — so it only observes objects the durable backend has
//! flushed. The shared store flushes in
//! `FileKind::FLUSH_ORDER` (referee before referrer), which gives the
//! staging pipeline the invariant it needs: a visible manifest implies
//! its chunks are visible. The one racy edge — the lock-free hook index
//! claiming a hook whose manifest is not flushed yet — is tolerated by
//! the engine's presence-oracle mode (a missing manifest degrades to a
//! lookup miss).

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use mhd_store::{
    plain_hook_hash, safe_name, Backend, DirReader, FileKind, RecoveryReport, StoreError,
    StoreResult,
};

use crate::index::SharedHookIndex;

/// The staged writes of one commit pipeline, keyed within each kind by
/// the name the object will have on disk ([`safe_name`]): two names that
/// sanitise to one object are one object here too, as in the shared
/// store they are spliced into. `BTreeMap` keeps splice order
/// deterministic (name order equals id order for fixed-width hex names).
#[derive(Debug, Default)]
pub struct Overlay {
    /// Brand-new objects, named in the session's private id range (or by
    /// content hash, for hooks; by recipe name, for file manifests).
    pub fresh: [BTreeMap<String, Vec<u8>>; 4],
    /// Copy-on-write rewrites of objects that exist in the shared store
    /// (only manifests: the HHR write-back is the sole mutation in the
    /// system).
    pub updated: [BTreeMap<String, Vec<u8>>; 4],
}

impl Overlay {
    /// The fresh objects of one kind, in name order.
    pub fn fresh_of(&self, kind: FileKind) -> &BTreeMap<String, Vec<u8>> {
        &self.fresh[kind as usize]
    }

    /// The copy-on-write rewrites of one kind, in name order.
    pub fn updated_of(&self, kind: FileKind) -> &BTreeMap<String, Vec<u8>> {
        &self.updated[kind as usize]
    }
}

/// Copy-on-write backend for one staging pipeline: reads fall through to
/// a read-only handle on the shared store (Hook reads to
/// the shared Hook index), writes stay in memory until the publish phase
/// splices them in. See the module docs.
pub struct StagingBackend {
    base: DirReader,
    hooks: Arc<SharedHookIndex>,
    overlay: Overlay,
}

impl StagingBackend {
    /// Opens a staging view over the shared store `base` reads, whose
    /// Hooks `hooks` mirrors.
    ///
    /// The shared store passes a read-only handle on its own logs
    /// ([`BatchedDirBackend::reader`](mhd_store::BatchedDirBackend::reader)),
    /// so a commit reads Manifests and recipes from the indexes the writer
    /// keeps and loads no log. Its Hook log is never read.
    pub fn over(base: DirReader, hooks: Arc<SharedHookIndex>) -> Self {
        StagingBackend { base, hooks, overlay: Overlay::default() }
    }

    /// The shared store's Hook named `name`, as a 20-byte payload, from
    /// the shared index.
    fn shared_hook(&self, name: &str) -> Option<[u8; 20]> {
        let manifest = self.hooks.lookup(&plain_hook_hash(name)?)?;
        let mut payload = [0u8; 20];
        payload[..8].copy_from_slice(&manifest.0.to_le_bytes());
        Some(payload)
    }

    /// Reads an object of the shared store: a Hook from the index, any
    /// other kind from the directory view.
    fn shared(&mut self, kind: FileKind, name: &str) -> StoreResult<Bytes> {
        if kind != FileKind::Hook {
            return self.base.get(kind, name);
        }
        self.shared_hook(name)
            .map(|payload| Bytes::copy_from_slice(&payload))
            .ok_or_else(|| StoreError::NotFound { kind, name: name.to_string() })
    }

    fn shared_exists(&mut self, kind: FileKind, name: &str) -> bool {
        match kind {
            FileKind::Hook => self.shared_hook(name).is_some(),
            _ => self.base.exists(kind, name),
        }
    }

    /// Drains the staged writes for the publish phase.
    pub fn take_staged(&mut self) -> Overlay {
        std::mem::take(&mut self.overlay)
    }

    fn staged(&self, kind: FileKind, name: &str) -> Option<&Vec<u8>> {
        self.overlay.fresh[kind as usize]
            .get(name)
            .or_else(|| self.overlay.updated[kind as usize].get(name))
    }
}

impl Backend for StagingBackend {
    fn put(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        let name = &safe_name(name);
        // Only overlay collisions are refused here. The shared base is
        // deliberately *not* consulted: phase 1 holds no lock, so a base
        // existence check races with other sessions' publish phases — a
        // hook another session splices in mid-pipeline would fail this
        // whole commit with AlreadyExists. Collisions against the shared
        // store are resolved under the lock at splice time instead:
        // write_hook's exists-guard keeps first-mapping-wins for hooks,
        // chunk/manifest names are private staged ids that cannot clash,
        // and recipe names are protected by the stream lease.
        if self.staged(kind, name).is_some() {
            return Err(StoreError::AlreadyExists { kind, name: name.to_string() });
        }
        self.overlay.fresh[kind as usize].insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn update(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        let name = &safe_name(name);
        if let Some(entry) = self.overlay.fresh[kind as usize].get_mut(name) {
            *entry = data.to_vec();
            return Ok(());
        }
        if let Some(entry) = self.overlay.updated[kind as usize].get_mut(name) {
            *entry = data.to_vec();
            return Ok(());
        }
        if self.shared_exists(kind, name) {
            // Copy-on-write: the shared object stays untouched until the
            // publish phase decides what to do with the rewrite.
            self.overlay.updated[kind as usize].insert(name.to_string(), data.to_vec());
            return Ok(());
        }
        Err(StoreError::NotFound { kind, name: name.to_string() })
    }

    fn get(&mut self, kind: FileKind, name: &str) -> StoreResult<Bytes> {
        let name = &safe_name(name);
        if let Some(data) = self.staged(kind, name) {
            return Ok(Bytes::from(data.clone()));
        }
        self.shared(kind, name)
    }

    fn get_range(
        &mut self,
        kind: FileKind,
        name: &str,
        offset: u64,
        len: u64,
    ) -> StoreResult<Bytes> {
        let name = &safe_name(name);
        if let Some(data) = self.staged(kind, name) {
            let end = offset.saturating_add(len);
            if end > data.len() as u64 {
                return Err(StoreError::OutOfRange {
                    name: name.to_string(),
                    offset,
                    len,
                    size: data.len() as u64,
                });
            }
            return Ok(Bytes::from(data[offset as usize..end as usize].to_vec()));
        }
        if kind == FileKind::Hook {
            let hook = self.shared(kind, name)?;
            let size = hook.len() as u64;
            let end = offset.checked_add(len).filter(|&end| end <= size).ok_or_else(|| {
                StoreError::OutOfRange { name: name.to_string(), offset, len, size }
            })?;
            return Ok(hook.slice(offset as usize..end as usize));
        }
        self.base.get_range(kind, name, offset, len)
    }

    fn size_of(&mut self, kind: FileKind, name: &str) -> StoreResult<u64> {
        let name = &safe_name(name);
        if let Some(data) = self.staged(kind, name) {
            return Ok(data.len() as u64);
        }
        match kind {
            FileKind::Hook => self.shared(kind, name).map(|hook| hook.len() as u64),
            _ => self.base.size_of(kind, name),
        }
    }

    fn exists(&mut self, kind: FileKind, name: &str) -> bool {
        let name = &safe_name(name);
        self.staged(kind, name).is_some() || self.shared_exists(kind, name)
    }

    fn count(&mut self, kind: FileKind) -> u64 {
        // Updated names exist in base already, so they don't add. A fresh
        // hook can transiently shadow a base hook another session
        // published after this pipeline started (put no longer consults
        // the racy base), overcounting by one until the splice resolves
        // it — tolerable for a staging view that only feeds pipeline
        // stats.
        let shared = match kind {
            FileKind::Hook => self.hooks.len() as u64,
            _ => self.base.count(kind),
        };
        shared + self.overlay.fresh[kind as usize].len() as u64
    }

    fn list(&mut self, kind: FileKind) -> Vec<String> {
        let mut names = match kind {
            FileKind::Hook => self.hooks.hashes().iter().map(|h| h.to_hex()).collect(),
            _ => self.base.list(kind),
        };
        names.extend(self.overlay.fresh[kind as usize].keys().cloned());
        names.sort();
        names
    }

    fn delete(&mut self, kind: FileKind, name: &str) -> StoreResult<()> {
        let name = &safe_name(name);
        // The dedup pipeline never deletes; GC and rollback run on the
        // shared store, not on a staging view. Allow retracting a staged
        // write, refuse touching shared objects.
        if self.overlay.fresh[kind as usize].remove(name).is_some() {
            return Ok(());
        }
        if self.overlay.updated[kind as usize].remove(name).is_some() {
            return Ok(());
        }
        Err(StoreError::NotFound { kind, name: name.to_string() })
    }

    fn flush(&mut self) -> StoreResult<()> {
        // Staged writes are in-memory by design; durability happens at
        // publish time through the shared substrate.
        Ok(())
    }

    fn recover(&mut self) -> StoreResult<RecoveryReport> {
        Ok(RecoveryReport::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhd_hash::sha1;
    use mhd_store::{DirBackend, ManifestId};

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mhd-staging-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn overlay_shadows_and_merges_with_base() {
        let root = temp_root("overlay");
        let mut base = DirBackend::create(&root).unwrap();
        base.put(FileKind::DiskChunk, "base", b"old").unwrap();
        base.put(FileKind::Manifest, "m1", b"manifest-v1").unwrap();
        let shared = sha1(b"a shared chunk");
        let h1 = shared.to_hex();
        let index = Arc::new(SharedHookIndex::default());
        index.publish(shared, ManifestId(7));

        let mut s = StagingBackend::over(base.reader(), index);
        // Reads fall through.
        assert_eq!(&s.get(FileKind::DiskChunk, "base").unwrap()[..], b"old");
        // Fresh writes stay in memory and shadow reads.
        s.put(FileKind::DiskChunk, "new", b"fresh").unwrap();
        assert_eq!(&s.get(FileKind::DiskChunk, "new").unwrap()[..], b"fresh");
        assert_eq!(&s.get_range(FileKind::DiskChunk, "new", 1, 3).unwrap()[..], b"res");
        assert!(s.get_range(FileKind::DiskChunk, "new", 3, 9).is_err());
        // Puts never overwrite staged objects…
        assert!(s.put(FileKind::DiskChunk, "new", b"x").is_err());
        // …but a name that exists only in the shared base is accepted:
        // phase 1 holds no lock, so an object another session splices in
        // mid-pipeline (a racing hook publish) must not fail this
        // pipeline — the splice resolves the collision under the lock
        // (write_hook's first-mapping-wins guard).
        s.put(FileKind::Hook, &h1, b"hook-mine").unwrap();
        assert_eq!(&s.get(FileKind::Hook, &h1).unwrap()[..], b"hook-mine");
        // Updates of shared objects copy on write.
        s.update(FileKind::Manifest, "m1", b"manifest-v2").unwrap();
        assert_eq!(&s.get(FileKind::Manifest, "m1").unwrap()[..], b"manifest-v2");
        assert_eq!(&base.get(FileKind::Manifest, "m1").unwrap()[..], b"manifest-v1");
        // Listing and counting merge without double-counting.
        assert_eq!(s.count(FileKind::DiskChunk), 2);
        assert_eq!(s.list(FileKind::DiskChunk), vec!["base".to_string(), "new".to_string()]);
        assert_eq!(s.count(FileKind::Manifest), 1);

        let overlay = s.take_staged();
        assert_eq!(overlay.fresh_of(FileKind::DiskChunk).len(), 1);
        assert_eq!(overlay.updated_of(FileKind::Manifest).len(), 1);
        // Drained: the backend is clean again.
        assert_eq!(s.count(FileKind::DiskChunk), 1);
        // The shared Hook reads from the index: its payload names the
        // Manifest, and nothing read the Hook log.
        let payload = s.get(FileKind::Hook, &h1).unwrap();
        assert_eq!(payload.len(), 20);
        assert_eq!(payload[..8], 7u64.to_le_bytes());
        assert_eq!(s.list(FileKind::Hook), std::slice::from_ref(&h1));
        assert_eq!(s.count(FileKind::Hook), 1);
        assert!(!s.exists(FileKind::Hook, &sha1(b"no hook").to_hex()));
        base.put(FileKind::Hook, &h1, b"not what the index says").unwrap();
        assert_eq!(s.get(FileKind::Hook, &h1).unwrap(), payload);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The colliding-name part of the store's backend contract
    /// (`mhd-store`'s `exercise_colliding_names`), for the overlay: the
    /// shared base is deliberately not consulted by `put`, so only staged
    /// names collide here.
    #[test]
    fn names_that_sanitise_alike_are_one_staged_object() {
        let root = temp_root("colliding");
        let mut s = StagingBackend::over(DirBackend::open(&root).reader(), Arc::default());
        let kind = FileKind::FileManifest;
        s.put(kind, "t/day0/sub/b.bin", b"first").unwrap();
        assert!(matches!(
            s.put(kind, "t/day0/sub_b.bin", b"second"),
            Err(StoreError::AlreadyExists { .. })
        ));
        for alias in ["t/day0/sub/b.bin", "t/day0/sub_b.bin", "t_day0_sub_b.bin"] {
            assert!(s.exists(kind, alias));
            assert_eq!(&s.get(kind, alias).unwrap()[..], b"first");
            assert_eq!(&s.get_range(kind, alias, 1, 3).unwrap()[..], b"irs");
            assert_eq!(s.size_of(kind, alias).unwrap(), 5);
        }
        assert_eq!(s.list(kind), vec!["t_day0_sub_b.bin".to_string()]);
        s.update(kind, "t/day0/sub_b.bin", b"rewritten").unwrap();
        assert_eq!(&s.get(kind, "t/day0/sub/b.bin").unwrap()[..], b"rewritten");
        // What the publish phase splices is one object under the name it
        // will have on disk.
        let overlay = s.take_staged();
        let staged: Vec<_> = overlay.fresh_of(kind).iter().collect();
        assert_eq!(staged, [(&"t_day0_sub_b.bin".to_string(), &b"rewritten".to_vec())]);
        // The view over the empty root read it as empty and created nothing.
        assert_eq!(std::fs::read_dir(&root).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
