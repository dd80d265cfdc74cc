//! The sharded, shared Hook/hash index and the backend wrapper that
//! keeps it coherent.
//!
//! The engines find duplicate data through Hooks (hash → Manifest), which
//! a directory store keeps in its Hook log. A daemon serving many
//! concurrent clients also wants to answer "do you already have this
//! chunk?" (`HAVE`), occupancy queries and its staging engines' Hook
//! lookups *without* taking the engine lock, so the daemon mirrors the
//! Hook namespace into [`SharedHookIndex`]: an N-way sharded
//! `RwLock<FxHashMap>` keyed by the hash's first eight bytes, loaded from
//! the log once at open.
//!
//! Coherence is structural, not cooperative: [`IndexingBackend`] wraps
//! the real store backend and publishes/forgets index entries on the
//! Hook **write path itself** — every `put(Hook, …)` and
//! `delete(Hook, …)` that reaches disk also reaches the index, whether
//! it came from a backup commit, GC, or recovery rollback. Nothing else
//! in the engine needs to know the index exists.
//!
//! Shard traffic is attributed in the obs snapshot under `shard=N`
//! scopes (`daemon.index_inserts` / `daemon.index_removes`), so a hot
//! shard shows up in `mhd stats --internals` exactly like a hot engine
//! shard does.

use std::sync::Arc;

use bytes::Bytes;
use mhd_hash::{ChunkHash, FxHashMap};
use mhd_store::{plain_hook_hash, Backend, FileKind, ManifestId, RecoveryReport, StoreResult};

use mhd_core::sync::{Rank, RwLock};

/// Shards of a [`SharedHookIndex`]. A constant: SHA-1 prefixes spread
/// evenly, `index_occupancy` in `STATS` shows when they do not, and no
/// deployment has asked for another value.
pub const INDEX_SHARDS: usize = 8;

/// A concurrently-readable hash → manifest map, sharded to keep writer
/// contention away from readers.
pub struct SharedHookIndex {
    shards: Vec<RwLock<FxHashMap<ChunkHash, ManifestId>>>,
}

impl Default for SharedHookIndex {
    fn default() -> Self {
        let shards = (0..INDEX_SHARDS)
            .map(|_| RwLock::new(Rank::IndexShard, FxHashMap::default()))
            .collect();
        SharedHookIndex { shards }
    }
}

impl SharedHookIndex {
    fn shard_of(&self, hash: &ChunkHash) -> usize {
        (hash.prefix_u64() % self.shards.len() as u64) as usize
    }

    /// Inserts (or refreshes) a mapping.
    pub fn publish(&self, hash: ChunkHash, manifest: ManifestId) {
        let shard = self.shard_of(&hash);
        let _scope = mhd_obs::scope!("shard={shard}");
        mhd_obs::counter!("daemon.index_inserts").inc();
        self.shards[shard].write().insert(hash, manifest);
    }

    /// Removes a mapping (its Hook was garbage collected).
    pub fn forget(&self, hash: &ChunkHash) {
        let shard = self.shard_of(hash);
        let _scope = mhd_obs::scope!("shard={shard}");
        mhd_obs::counter!("daemon.index_removes").inc();
        self.shards[shard].write().remove(hash);
    }

    /// Whether `hash` has a Hook — the lock-free-for-the-engine `HAVE`
    /// probe (readers share the shard lock).
    pub fn contains(&self, hash: &ChunkHash) -> bool {
        self.shards[self.shard_of(hash)].read().contains_key(hash)
    }

    /// The manifest `hash`'s Hook points at, if it has one.
    pub fn lookup(&self, hash: &ChunkHash) -> Option<ManifestId> {
        self.shards[self.shard_of(hash)].read().get(hash).copied()
    }

    /// Every hash with a Hook, in no particular order.
    pub fn hashes(&self) -> Vec<ChunkHash> {
        self.shards.iter().flat_map(|s| s.read().keys().copied().collect::<Vec<_>>()).collect()
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries per shard, for occupancy/balance reporting.
    pub fn occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().len()).collect()
    }
}

/// Staging engines (two-phase commits) probe the shared index as their
/// hook-presence oracle: the whole store's hook population, lock-free,
/// possibly slightly ahead of durable state — exactly the contract
/// [`mhd_core::HookPresence`] documents.
impl mhd_core::HookPresence for SharedHookIndex {
    fn contains(&self, hash: &ChunkHash) -> bool {
        SharedHookIndex::contains(self, hash)
    }
}

/// Manifest id from a 20-byte Hook payload (first 8 bytes, little
/// endian).
pub(crate) fn payload_manifest(data: &[u8]) -> Option<ManifestId> {
    let raw: [u8; 8] = data.get(..8)?.try_into().ok()?;
    Some(ManifestId(u64::from_le_bytes(raw)))
}

/// A [`Backend`] decorator that mirrors Hook writes and deletes into a
/// [`SharedHookIndex`].
///
/// Everything except Hook `put`/`delete` passes straight through, so the
/// wrapped backend's crash-ordering, batching and recovery semantics are
/// untouched; the index is updated only *after* the inner operation
/// succeeds, so it never claims a hook the store does not have.
pub struct IndexingBackend<B> {
    inner: B,
    index: Arc<SharedHookIndex>,
}

impl<B: Backend> IndexingBackend<B> {
    /// Wraps `inner`, publishing Hook mutations to `index`.
    pub fn new(inner: B, index: Arc<SharedHookIndex>) -> Self {
        IndexingBackend { inner, index }
    }

    /// The shared index this backend publishes to.
    pub fn index(&self) -> &Arc<SharedHookIndex> {
        &self.index
    }

    /// The wrapped backend.
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Bulk-loads the index with the hash → Manifest pair of every Hook
    /// the store holds — read from the Hook log's in-memory index, not
    /// from disk. Called once at daemon open, after recovery rollback.
    pub fn populate_index(&mut self) -> StoreResult<usize> {
        let mut loaded = 0usize;
        for name in self.inner.list(FileKind::Hook) {
            let Some(hash) = plain_hook_hash(&name) else { continue };
            // A payload too short to name a Manifest is fsck's to report.
            if let Some(manifest) = payload_manifest(&self.inner.get(FileKind::Hook, &name)?) {
                self.index.publish(hash, manifest);
                loaded += 1;
            }
        }
        Ok(loaded)
    }
}

impl<B: Backend> Backend for IndexingBackend<B> {
    fn put(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        self.inner.put(kind, name, data)?;
        if kind == FileKind::Hook {
            if let (Some(hash), Some(manifest)) = (plain_hook_hash(name), payload_manifest(data)) {
                self.index.publish(hash, manifest);
            }
        }
        Ok(())
    }

    fn update(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        self.inner.update(kind, name, data)
    }

    fn get(&mut self, kind: FileKind, name: &str) -> StoreResult<Bytes> {
        self.inner.get(kind, name)
    }

    fn get_range(
        &mut self,
        kind: FileKind,
        name: &str,
        offset: u64,
        len: u64,
    ) -> StoreResult<Bytes> {
        self.inner.get_range(kind, name, offset, len)
    }

    fn size_of(&mut self, kind: FileKind, name: &str) -> StoreResult<u64> {
        self.inner.size_of(kind, name)
    }

    fn exists(&mut self, kind: FileKind, name: &str) -> bool {
        self.inner.exists(kind, name)
    }

    fn count(&mut self, kind: FileKind) -> u64 {
        self.inner.count(kind)
    }

    fn list(&mut self, kind: FileKind) -> Vec<String> {
        self.inner.list(kind)
    }

    fn delete(&mut self, kind: FileKind, name: &str) -> StoreResult<()> {
        self.inner.delete(kind, name)?;
        if kind == FileKind::Hook {
            if let Some(hash) = plain_hook_hash(name) {
                self.index.forget(&hash);
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> StoreResult<()> {
        self.inner.flush()
    }

    fn recover(&mut self) -> StoreResult<RecoveryReport> {
        self.inner.recover()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhd_hash::sha1;
    use mhd_store::MemBackend;

    #[test]
    fn hook_writes_and_deletes_mirror_into_the_index() {
        let index = Arc::new(SharedHookIndex::default());
        let mut b = IndexingBackend::new(MemBackend::new(), index.clone());
        let hash = sha1(b"chunk");
        let mut payload = [0u8; 20];
        payload[..8].copy_from_slice(&7u64.to_le_bytes());

        b.put(FileKind::Hook, &hash.to_hex(), &payload).unwrap();
        assert!(index.contains(&hash));
        assert_eq!(index.lookup(&hash), Some(ManifestId(7)));

        b.delete(FileKind::Hook, &hash.to_hex()).unwrap();
        assert!(!index.contains(&hash));
        assert!(index.is_empty());
    }

    #[test]
    fn a_panic_under_a_shard_lock_leaves_the_shard_usable() {
        let index = SharedHookIndex::default();
        let hash = sha1(b"published before the panic");
        index.publish(hash, ManifestId(3));
        let shard = index.shard_of(&hash);
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = index.shards[shard].write();
                panic!("a publisher dies holding the shard lock");
            })
            .join()
        });
        assert!(holder.is_err());
        // A std lock is poisoned from here on; `read()` and `write()`
        // of this one still hand out their guards.
        assert_eq!(index.lookup(&hash), Some(ManifestId(3)));
        index.forget(&hash);
        index.publish(hash, ManifestId(4));
        assert_eq!(index.occupancy()[shard], 1);
    }

    #[test]
    fn failed_put_publishes_nothing() {
        let index = Arc::new(SharedHookIndex::default());
        let mut b = IndexingBackend::new(MemBackend::new(), index.clone());
        let hash = sha1(b"x");
        b.put(FileKind::Hook, &hash.to_hex(), &[0u8; 20]).unwrap();
        // Second put of the same name fails with AlreadyExists…
        assert!(b.put(FileKind::Hook, &hash.to_hex(), &[1u8; 20]).is_err());
        // …and must not have refreshed the index entry.
        assert_eq!(index.lookup(&hash), Some(ManifestId(0)));
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn non_hook_kinds_are_not_indexed() {
        let index = Arc::new(SharedHookIndex::default());
        let mut b = IndexingBackend::new(MemBackend::new(), index.clone());
        b.put(FileKind::DiskChunk, "0000000000000001", b"data").unwrap();
        b.put(FileKind::FileManifest, "t/l/f", b"fm").unwrap();
        assert!(index.is_empty());
    }

    #[test]
    fn populate_loads_plain_names_only() {
        let index = Arc::new(SharedHookIndex::default());
        let mut b = IndexingBackend::new(MemBackend::new(), index.clone());
        let h1 = sha1(b"a");
        let h2 = sha1(b"b");
        let mut payload = [0u8; 20];
        payload[..8].copy_from_slice(&5u64.to_le_bytes());
        b.inner_mut().put(FileKind::Hook, &h1.to_hex(), &payload).unwrap();
        // An occurrence-style name must be skipped.
        b.inner_mut()
            .put(FileKind::Hook, &format!("{}-{:016x}", h2.to_hex(), 3), &[0u8; 20])
            .unwrap();
        assert_eq!(b.populate_index().unwrap(), 1);
        assert_eq!(index.lookup(&h1), Some(ManifestId(5)));
        assert!(!index.contains(&h2));
        assert_eq!(index.hashes(), [h1]);
    }

    #[test]
    fn occupancy_covers_all_shards() {
        let index = SharedHookIndex::default();
        for i in 0..100u32 {
            index.publish(sha1(&i.to_le_bytes()), ManifestId(u64::from(i)));
        }
        let occ = index.occupancy();
        assert_eq!(occ.len(), INDEX_SHARDS);
        assert_eq!(occ.iter().sum::<usize>(), 100);
        assert_eq!(index.len(), 100);
        // SHA-1 prefixes spread well: no shard may be empty at n=100.
        assert!(occ.iter().all(|&n| n > 0), "{occ:?}");
    }
}
