//! The Manifest cache used by the deduplication engines.
//!
//! Besides the manifests and their hash indexes, each resident manifest
//! carries a *child-digest* table for the MHD engine: merged-entry hash →
//! SHA-1 over the 20-byte chunk hashes of a run of incoming chunks whose
//! bytes were confirmed to hash to that entry. An incoming run with the
//! same child digest holds the same bytes (under the SHA-1 collision
//! assumption the chunk index already rests on), so a later probe
//! compares ≈ 20 B per chunk instead of re-hashing the run's bytes. The
//! table is written without touching recency, so it changes no eviction
//! and no I/O count, and it goes with its manifest: at most one 40-byte
//! pair per merged entry of a resident manifest.

use mhd_hash::{ChunkHash, FxHashMap};
use mhd_store::{Manifest, ManifestEntry, ManifestId};

use crate::LruCache;

/// A resident Manifest plus its hash index and dirty flag.
pub struct CachedManifest {
    /// The manifest content. Mutations must go through
    /// [`ManifestCache::splice_entry`] so the indexes stay consistent.
    manifest: Manifest,
    /// hash → entry index within `manifest.entries` (later entries win).
    index: FxHashMap<ChunkHash, u32>,
    /// Needs write-back before eviction (set by HHR re-chunking).
    dirty: bool,
    /// Entry hash → child digest of a run confirmed to hold its bytes
    /// (module docs).
    child_digests: FxHashMap<ChunkHash, ChunkHash>,
}

impl CachedManifest {
    /// Read access to the manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Entry index of `hash` within this manifest.
    pub fn find(&self, hash: &ChunkHash) -> Option<u32> {
        self.index.get(hash).copied()
    }

    /// Whether the manifest has unwritten modifications.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The child digest remembered for the entry hashed `hash`, if any.
    pub fn child_digest(&self, hash: &ChunkHash) -> Option<ChunkHash> {
        self.child_digests.get(hash).copied()
    }
}

/// LRU cache of Manifests with a cache-wide hash index.
///
/// The paper's description — each cached Manifest "organized as a hash
/// table", incoming hashes matched against the cache — implies a per-chunk
/// probe of every resident manifest; we keep an aggregate `hash →
/// manifests` index instead so the probe is O(1) regardless of cache size,
/// which changes nothing observable (same hits, same misses).
pub struct ManifestCache {
    lru: LruCache<ManifestId, CachedManifest>,
    /// Which resident manifests contain each hash (usually exactly one).
    by_hash: FxHashMap<ChunkHash, Vec<ManifestId>>,
}

impl ManifestCache {
    /// Creates a cache holding at most `capacity` manifests.
    pub fn new(capacity: usize) -> Self {
        ManifestCache { lru: LruCache::new(capacity), by_hash: FxHashMap::default() }
    }

    /// Number of resident manifests.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Whether `id` is resident.
    pub fn contains(&self, id: ManifestId) -> bool {
        self.lru.contains(&id)
    }

    /// Records that manifest `id` contains `hash`.
    fn link(by_hash: &mut FxHashMap<ChunkHash, Vec<ManifestId>>, hash: ChunkHash, id: ManifestId) {
        let ids = by_hash.entry(hash).or_default();
        if !ids.contains(&id) {
            ids.push(id);
        }
    }

    /// Records that manifest `id` no longer contains `hash`.
    fn unlink(
        by_hash: &mut FxHashMap<ChunkHash, Vec<ManifestId>>,
        hash: &ChunkHash,
        id: ManifestId,
    ) {
        if let Some(ids) = by_hash.get_mut(hash) {
            ids.retain(|&other| other != id);
            if ids.is_empty() {
                by_hash.remove(hash);
            }
        }
    }

    fn index_insert(by_hash: &mut FxHashMap<ChunkHash, Vec<ManifestId>>, m: &Manifest) {
        for e in &m.entries {
            Self::link(by_hash, e.hash, m.id);
        }
    }

    fn index_remove(by_hash: &mut FxHashMap<ChunkHash, Vec<ManifestId>>, m: &Manifest) {
        for e in &m.entries {
            Self::unlink(by_hash, &e.hash, m.id);
        }
    }

    /// Inserts a freshly loaded (clean) or newly created manifest.
    ///
    /// Returns the evicted manifest when one had to be freed, paired with
    /// whether it was dirty — the caller must write dirty evictees back
    /// ("a Manifest that has been set dirty, is written back to the disk
    /// before it is freed").
    #[must_use = "dirty evictees must be written back"]
    pub fn insert(&mut self, manifest: Manifest, dirty: bool) -> Option<(Manifest, bool)> {
        let index = manifest.build_index();
        Self::index_insert(&mut self.by_hash, &manifest);
        let entry = CachedManifest { manifest, index, dirty, child_digests: FxHashMap::default() };
        mhd_obs::counter!("cache.manifest_inserts").inc();
        let evicted = self.lru.insert(entry.manifest.id, entry);
        evicted.map(|(_, old)| {
            Self::index_remove(&mut self.by_hash, &old.manifest);
            mhd_obs::counter!("cache.manifest_evictions").inc();
            if old.dirty {
                mhd_obs::counter!("cache.dirty_writebacks").inc();
            }
            mhd_obs::trace(mhd_obs::TraceEvent::CacheEvict { dirty: old.dirty });
            (old.manifest, old.dirty)
        })
    }

    /// Finds which resident manifest (if any) contains `hash`, touching it
    /// as most-recently-used. Returns the manifest id and entry index.
    pub fn find_hash(&mut self, hash: &ChunkHash) -> Option<(ManifestId, u32)> {
        let Some(id) = self.by_hash.get(hash).and_then(|ids| ids.last().copied()) else {
            mhd_obs::counter!("cache.manifest_misses").inc();
            return None;
        };
        mhd_obs::counter!("cache.manifest_hits").inc();
        let cached = self.lru.get(&id).expect("by_hash index out of sync with LRU");
        let entry_idx = cached.find(hash).expect("per-manifest index out of sync");
        Some((id, entry_idx))
    }

    /// Read access to a resident manifest, touching recency.
    pub fn get(&mut self, id: ManifestId) -> Option<&CachedManifest> {
        self.lru.get(&id)
    }

    /// Read access without touching recency.
    pub fn peek(&self, id: ManifestId) -> Option<&CachedManifest> {
        self.lru.peek(&id)
    }

    /// Remembers that the entry hashed `hash` of resident manifest `id`
    /// holds the bytes of any chunk run whose child digest is `digest`.
    /// Recency is not touched, so noting changes no eviction order.
    /// Returns `false` (and notes nothing) when `id` is not resident or
    /// has no entry hashed `hash`.
    pub fn note_child_digest(
        &mut self,
        id: ManifestId,
        hash: ChunkHash,
        digest: ChunkHash,
    ) -> bool {
        let Some(cached) = self.lru.peek_mut(&id) else { return false };
        if !cached.index.contains_key(&hash) {
            return false;
        }
        cached.child_digests.insert(hash, digest);
        true
    }

    /// Replaces entry `at` of a resident manifest with `replacement` (the
    /// HHR re-chunking path) and marks the manifest dirty.
    ///
    /// Only the spliced range is hashed into the indexes: the replaced
    /// entry's hash leaves both unless another entry of the manifest
    /// still carries it, and the new hashes enter. What remains linear in
    /// the manifest is two passes that neither hash nor allocate — the
    /// positions behind the splice shift, and the entries before it are
    /// compared against the replaced hash. The result equals a
    /// from-scratch [`Manifest::build_index`] (later entries win a
    /// repeated hash).
    ///
    /// Returns `false` when `id` is not resident or `at` is out of range.
    pub fn splice_entry(
        &mut self,
        id: ManifestId,
        at: usize,
        replacement: Vec<ManifestEntry>,
    ) -> bool {
        let Some(cached) = self.lru.get_mut(&id) else { return false };
        let Some(removed) = cached.manifest.entries.get(at).map(|e| e.hash) else { return false };
        mhd_obs::counter!("cache.manifest_mutations").inc();
        cached.dirty = true;
        let added = replacement.len();
        cached.manifest.entries.splice(at..at + 1, replacement);
        let entries = &cached.manifest.entries;

        let at = at as u32;
        for pos in cached.index.values_mut().filter(|pos| **pos > at) {
            *pos = *pos + added as u32 - 1;
        }
        if cached.index.get(&removed) == Some(&at) {
            // The latest occurrence went away: fall back to an earlier one.
            match entries[..at as usize].iter().rposition(|e| e.hash == removed) {
                Some(earlier) => {
                    cached.index.insert(removed, earlier as u32);
                }
                None => {
                    cached.index.remove(&removed);
                }
            }
        }
        for (pos, e) in entries.iter().enumerate().skip(at as usize).take(added) {
            let latest = cached.index.entry(e.hash).or_insert(pos as u32);
            *latest = (*latest).max(pos as u32);
            Self::link(&mut self.by_hash, e.hash, id);
        }
        if !cached.index.contains_key(&removed) {
            Self::unlink(&mut self.by_hash, &removed, id);
            cached.child_digests.remove(&removed);
        }
        true
    }

    /// Drains the cache LRU-first, returning every resident manifest and
    /// its dirty flag (end-of-run write-back).
    pub fn drain(&mut self) -> Vec<(Manifest, bool)> {
        self.by_hash.clear();
        self.lru.drain_lru_first().into_iter().map(|(_, c)| (c.manifest, c.dirty)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhd_hash::sha1;
    use mhd_store::{DiskChunkId, ManifestFormat};
    use mhd_workload::Rng;

    fn manifest(id: u64, hashes: &[u64]) -> Manifest {
        let mut m = Manifest::new(ManifestId(id), ManifestFormat::HookFlags);
        let mut offset = 0;
        for &h in hashes {
            m.entries.push(ManifestEntry {
                hash: sha1(&h.to_le_bytes()),
                container: DiskChunkId(id),
                offset,
                size: 10,
                is_hook: false,
            });
            offset += 10;
        }
        m
    }

    #[test]
    fn find_hash_hits_resident_manifest() {
        let mut c = ManifestCache::new(4);
        assert!(c.insert(manifest(1, &[10, 11]), false).is_none());
        assert!(c.insert(manifest(2, &[20, 21]), false).is_none());
        let (id, idx) = c.find_hash(&sha1(&21u64.to_le_bytes())).unwrap();
        assert_eq!(id, ManifestId(2));
        assert_eq!(idx, 1);
        assert!(c.find_hash(&sha1(&99u64.to_le_bytes())).is_none());
    }

    #[test]
    fn eviction_returns_dirty_flag_and_cleans_index() {
        let mut c = ManifestCache::new(2);
        assert!(c.insert(manifest(1, &[10]), true).is_none());
        assert!(c.insert(manifest(2, &[20]), false).is_none());
        let (evicted, dirty) = c.insert(manifest(3, &[30]), false).unwrap();
        assert_eq!(evicted.id, ManifestId(1));
        assert!(dirty);
        // Evicted manifest's hashes are no longer findable.
        assert!(c.find_hash(&sha1(&10u64.to_le_bytes())).is_none());
        assert!(c.find_hash(&sha1(&20u64.to_le_bytes())).is_some());
    }

    #[test]
    fn find_hash_touches_recency() {
        let mut c = ManifestCache::new(2);
        let _ = c.insert(manifest(1, &[10]), false);
        let _ = c.insert(manifest(2, &[20]), false);
        // Touch manifest 1, then insert: manifest 2 must be the evictee.
        c.find_hash(&sha1(&10u64.to_le_bytes())).unwrap();
        let (evicted, _) = c.insert(manifest(3, &[30]), false).unwrap();
        assert_eq!(evicted.id, ManifestId(2));
    }

    fn entry(id: u64, h: u64, offset: u64, size: u64) -> ManifestEntry {
        ManifestEntry {
            hash: sha1(&h.to_le_bytes()),
            container: DiskChunkId(id),
            offset,
            size,
            is_hook: false,
        }
    }

    #[test]
    fn splice_reindexes_and_marks_dirty() {
        let mut c = ManifestCache::new(2);
        let _ = c.insert(manifest(1, &[10, 11]), false);
        // Split entry 0 in two (an HHR-style re-chunk).
        assert!(c.splice_entry(ManifestId(1), 0, vec![entry(1, 98, 0, 4), entry(1, 99, 4, 6)]));
        assert!(c.find_hash(&sha1(&10u64.to_le_bytes())).is_none());
        assert_eq!(c.find_hash(&sha1(&99u64.to_le_bytes())), Some((ManifestId(1), 1)));
        assert_eq!(c.find_hash(&sha1(&11u64.to_le_bytes())), Some((ManifestId(1), 2)));
        assert!(c.peek(ManifestId(1)).unwrap().is_dirty());
        assert!(!c.splice_entry(ManifestId(9), 0, Vec::new()));
        assert!(!c.splice_entry(ManifestId(1), 3, Vec::new()));
    }

    #[test]
    fn random_splices_equal_a_from_scratch_rebuild() {
        // A small hash alphabet forces repeats within and across
        // manifests: the case where "which entry does the index name"
        // and "does the manifest still hold this hash" are not obvious.
        let mut rng = Rng::new(77);
        let mut c = ManifestCache::new(4);
        for id in 1..=3u64 {
            let hashes: Vec<u64> = (0..12).map(|_| rng.below(8)).collect();
            let _ = c.insert(manifest(id, &hashes), false);
        }
        for _ in 0..300 {
            let id = ManifestId(1 + rng.below(3));
            let len = c.peek(id).unwrap().manifest().entries.len();
            if len > 64 {
                continue;
            }
            let at = rng.below(len as u64) as usize;
            let replacement: Vec<ManifestEntry> =
                (0..=rng.below(3)).map(|_| entry(id.0, rng.below(8), 0, 1)).collect();
            assert!(c.splice_entry(id, at, replacement));

            let mut by_hash: FxHashMap<ChunkHash, Vec<ManifestId>> = FxHashMap::default();
            for id in (1..=3u64).map(ManifestId) {
                let cached = c.peek(id).unwrap();
                assert_eq!(cached.index, cached.manifest.build_index(), "per-manifest index");
                for e in &cached.manifest.entries {
                    let ids = by_hash.entry(e.hash).or_default();
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            }
            // Resolution order among manifests sharing a hash is
            // insertion history, not content: compare as sets.
            let sorted = |map: &FxHashMap<ChunkHash, Vec<ManifestId>>| {
                let mut pairs: Vec<_> = map
                    .iter()
                    .map(|(h, ids)| {
                        let mut ids = ids.clone();
                        ids.sort();
                        (*h, ids)
                    })
                    .collect();
                pairs.sort();
                pairs
            };
            assert_eq!(sorted(&c.by_hash), sorted(&by_hash), "cache-wide index");
        }
    }

    #[test]
    fn child_digests_leave_eviction_order_alone_and_go_with_their_manifest() {
        let digest = |n: u64| sha1(&(1000 + n).to_le_bytes());
        // The same access sequence with and without noting digests: every
        // eviction names the same manifest.
        let run = |note: bool| {
            let mut c = ManifestCache::new(2);
            let mut evicted = Vec::new();
            for id in 1..=6u64 {
                if let Some((m, _)) = c.insert(manifest(id, &[10 * id, 10 * id + 1]), false) {
                    evicted.push(m.id);
                }
                if note {
                    // Note on the older resident manifest: a touch here
                    // would make the newer one the next evictee.
                    let older = ManifestId(id.saturating_sub(1).max(1));
                    c.note_child_digest(older, sha1(&(10 * older.0).to_le_bytes()), digest(id));
                }
                if id % 3 == 0 {
                    c.find_hash(&sha1(&(10 * id).to_le_bytes()));
                }
            }
            evicted
        };
        assert_eq!(run(true), run(false));

        let mut c = ManifestCache::new(1);
        let _ = c.insert(manifest(1, &[10, 11]), false);
        let h11 = sha1(&11u64.to_le_bytes());
        assert!(c.note_child_digest(ManifestId(1), h11, digest(1)));
        assert_eq!(c.peek(ManifestId(1)).unwrap().child_digest(&h11), Some(digest(1)));
        // Only a resident manifest's own entries take a digest.
        assert!(!c.note_child_digest(ManifestId(1), sha1(&99u64.to_le_bytes()), digest(2)));
        assert!(!c.note_child_digest(ManifestId(7), h11, digest(2)));
        // Eviction drops the table; the reloaded manifest starts without it.
        let (evicted, _) = c.insert(manifest(2, &[20]), false).unwrap();
        assert_eq!(evicted.id, ManifestId(1));
        let _ = c.insert(manifest(1, &[10, 11]), false);
        assert_eq!(c.peek(ManifestId(1)).unwrap().child_digest(&h11), None);
        // An HHR split of the entry drops its digest too.
        assert!(c.note_child_digest(ManifestId(1), h11, digest(3)));
        assert!(c.splice_entry(ManifestId(1), 1, vec![entry(1, 98, 10, 4), entry(1, 99, 14, 6)]));
        assert_eq!(c.peek(ManifestId(1)).unwrap().child_digest(&h11), None);
    }

    #[test]
    fn drain_returns_everything_and_empties() {
        let mut c = ManifestCache::new(4);
        let _ = c.insert(manifest(1, &[10]), true);
        let _ = c.insert(manifest(2, &[20]), false);
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert!(c.is_empty());
        assert!(c.find_hash(&sha1(&10u64.to_le_bytes())).is_none());
        let dirty: Vec<bool> = drained.iter().map(|(_, d)| *d).collect();
        assert_eq!(dirty.iter().filter(|&&d| d).count(), 1);
    }

    #[test]
    fn duplicate_hash_across_manifests_resolves_to_latest() {
        let mut c = ManifestCache::new(4);
        let _ = c.insert(manifest(1, &[10]), false);
        let _ = c.insert(manifest(2, &[10]), false);
        let (id, _) = c.find_hash(&sha1(&10u64.to_le_bytes())).unwrap();
        assert_eq!(id, ManifestId(2));
        // Evict manifest 2 by filling the cache; hash 10 must fall back to
        // manifest 1... (evictions are LRU so touch 1 first)
        c.get(ManifestId(1));
    }
}
