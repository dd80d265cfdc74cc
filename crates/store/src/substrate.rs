//! The typed storage facade used by all deduplication engines.
//!
//! [`Substrate`] owns a [`Backend`] plus the two accounting structures and
//! exposes exactly the operations the paper's system performs, each
//! incrementing the corresponding [`IoStats`] counter and
//! [`MetadataLedger`] category:
//!
//! | operation | Table II counter | Table I category |
//! |---|---|---|
//! | [`Substrate::write_disk_chunk`] | Chunk Output | DiskChunk inode, stored data bytes |
//! | [`Substrate::read_chunk_range`], [`Substrate::append_chunk_range`] | Chunk Input | — |
//! | [`Substrate::write_hook`] | Hook Output | Hook inode + 20 bytes |
//! | [`Substrate::lookup_hook`] | Hook Input | — |
//! | [`Substrate::write_manifest`] | Manifest Output | Manifest inode + entry bytes |
//! | [`Substrate::update_manifest`] | Manifest Output | entry byte delta |
//! | [`Substrate::load_manifest`] | Manifest Input | — |
//! | [`Substrate::write_file_manifest`] | — (identical across algorithms) | FileManifest inode + entry bytes |
//!
//! DiskChunks and Hooks are immutable here by construction: no update
//! method exists for them, enforcing the paper's "the DiskChunk and the
//! Hook files that have been written to disk will not be further modified".
//!
//! The substrate keeps no per-object bookkeeping. There is no
//! per-container content hash: the Manifest entries that tile a container
//! already hash every byte of it, and `fsck --deep` checks the container
//! against them. An update or a delete reads the object's current size
//! from the backend to adjust the ledger.

use bytes::Bytes;
use mhd_hash::ChunkHash;
use serde::{Deserialize, Serialize};

use crate::backend::{Backend, FileKind};
use crate::chunk_store::{DiskChunkBuilder, DiskChunkId};
use crate::file_manifest::FileManifest;
use crate::iostats::IoStats;
use crate::ledger::MetadataLedger;
use crate::manifest::{Manifest, ManifestId};
use crate::StoreResult;

/// The typed storage facade. See the module docs for the accounting map.
pub struct Substrate<B: Backend> {
    backend: B,
    stats: IoStats,
    ledger: MetadataLedger,
    next_chunk_id: u64,
    next_manifest_id: u64,
}

impl<B: Backend> Substrate<B> {
    /// Wraps a backend.
    pub fn new(backend: B) -> Self {
        Substrate {
            backend,
            stats: IoStats::default(),
            ledger: MetadataLedger::default(),
            next_chunk_id: 0,
            next_manifest_id: 0,
        }
    }

    /// The disk-access counters accumulated so far.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Mutable access for engine-level counters (query accounting).
    pub fn stats_mut(&mut self) -> &mut IoStats {
        &mut self.stats
    }

    /// The metadata byte/inode ledger accumulated so far.
    pub fn ledger(&self) -> &MetadataLedger {
        &self.ledger
    }

    /// Direct backend access (tests and restore).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Makes every buffered backend mutation visible and durable. Engines
    /// call this at `finish()` and at every commit point (GC, compaction),
    /// so a batched backend never holds committed state only in memory.
    pub fn flush(&mut self) -> StoreResult<()> {
        self.backend.flush()
    }

    /// Runs the backend's crash-recovery pass (torn tmp files, torn log
    /// tails). Call before reading a store that may have been
    /// interrupted.
    pub fn recover(&mut self) -> StoreResult<crate::RecoveryReport> {
        self.backend.recover()
    }

    // ----- DiskChunks --------------------------------------------------

    /// Allocates the identity for a new DiskChunk under construction.
    pub fn new_disk_chunk(&mut self) -> DiskChunkBuilder {
        let id = DiskChunkId(self.next_chunk_id);
        self.next_chunk_id += 1;
        DiskChunkBuilder::new(id)
    }

    /// Seals a builder and writes the container.
    ///
    /// Empty builders are dropped silently (a fully-duplicate file produces
    /// no DiskChunk) and return `false`.
    pub fn write_disk_chunk(&mut self, builder: DiskChunkBuilder) -> StoreResult<bool> {
        if builder.is_empty() {
            return Ok(false);
        }
        let (id, data) = builder.seal();
        self.backend.put(FileKind::DiskChunk, &id.name(), &data)?;
        mhd_obs::counter!("store.disk_chunk_writes").inc();
        mhd_obs::histogram!("store.disk_chunk_write_bytes").record(data.len() as u64);
        self.stats.chunk_output += 1;
        self.ledger.inodes_disk_chunks += 1;
        self.ledger.stored_data_bytes += data.len() as u64;
        Ok(true)
    }

    /// Reserves `n` consecutive DiskChunk ids and returns the first.
    ///
    /// Two-phase commits build objects in a staging substrate under a
    /// private id range, then reserve a real range here (under the store
    /// lock) and splice the staged objects in with
    /// [`Substrate::splice_disk_chunk`]. Unused ids in the range are
    /// simply gaps — ids are never recycled anyway.
    pub fn reserve_chunk_ids(&mut self, n: u64) -> u64 {
        let base = self.next_chunk_id;
        self.next_chunk_id += n;
        base
    }

    /// Reserves `n` consecutive Manifest ids and returns the first (the
    /// manifest analogue of [`Substrate::reserve_chunk_ids`]).
    pub fn reserve_manifest_ids(&mut self, n: u64) -> u64 {
        let base = self.next_manifest_id;
        self.next_manifest_id += n;
        base
    }

    /// Writes an already-sealed DiskChunk payload under a previously
    /// reserved id (the publish half of a two-phase commit: the bytes were
    /// produced by a staging substrate). Accounts exactly like
    /// [`Substrate::write_disk_chunk`].
    pub fn splice_disk_chunk(&mut self, id: DiskChunkId, data: &[u8]) -> StoreResult<()> {
        self.debug_check_chunks("spliced chunk", [id]);
        self.backend.put(FileKind::DiskChunk, &id.name(), data)?;
        mhd_obs::counter!("store.disk_chunk_writes").inc();
        mhd_obs::histogram!("store.disk_chunk_write_bytes").record(data.len() as u64);
        self.stats.chunk_output += 1;
        self.ledger.inodes_disk_chunks += 1;
        self.ledger.stored_data_bytes += data.len() as u64;
        Ok(())
    }

    /// Reads `len` bytes at `offset` from a sealed DiskChunk (an HHR
    /// byte-comparison reload, or a restore read).
    pub fn read_chunk_range(
        &mut self,
        id: DiskChunkId,
        offset: u64,
        len: u64,
    ) -> StoreResult<Bytes> {
        let data = self.backend.get_range(FileKind::DiskChunk, &id.name(), offset, len)?;
        self.count_chunk_read(len);
        Ok(data)
    }

    /// Appends `len` bytes at `offset` of a sealed DiskChunk to `out` —
    /// [`read_chunk_range`](Substrate::read_chunk_range) for a reader that
    /// builds one buffer from many ranges (a restore), counted the same.
    pub fn append_chunk_range(
        &mut self,
        id: DiskChunkId,
        offset: u64,
        len: u64,
        out: &mut Vec<u8>,
    ) -> StoreResult<()> {
        self.backend.append_range(FileKind::DiskChunk, &id.name(), offset, len, out)?;
        self.count_chunk_read(len);
        Ok(())
    }

    fn count_chunk_read(&mut self, len: u64) {
        mhd_obs::counter!("store.disk_chunk_reads").inc();
        mhd_obs::histogram!("store.disk_chunk_read_bytes").record(len);
        self.stats.chunk_input += 1;
    }

    /// Size of a sealed DiskChunk (no I/O charged: sizes live in the inode,
    /// which stat-style operations read without a data seek).
    pub fn disk_chunk_len(&mut self, id: DiskChunkId) -> StoreResult<u64> {
        self.backend.size_of(FileKind::DiskChunk, &id.name())
    }

    // ----- Hooks --------------------------------------------------------

    /// Writes a Hook: a file named by `hash` (see [`plain_hook_hash`])
    /// whose 20-byte payload is the address of `manifest`.
    ///
    /// Hooks are content-addressed and "mapped to only one Manifest"
    /// (§III): writing a hash that already has a Hook is a no-op (the
    /// first mapping wins) and charges nothing.
    pub fn write_hook(&mut self, hash: ChunkHash, manifest: ManifestId) -> StoreResult<()> {
        self.debug_check_manifest("hook target", manifest);
        if self.backend.exists(FileKind::Hook, &hash.to_hex()) {
            return Ok(());
        }
        let mut payload = [0u8; 20];
        payload[..8].copy_from_slice(&manifest.0.to_le_bytes());
        self.backend.put(FileKind::Hook, &hash.to_hex(), &payload)?;
        mhd_obs::counter!("store.hook_writes").inc();
        self.stats.hook_output += 1;
        self.ledger.inodes_hooks += 1;
        self.ledger.hook_bytes += 20;
        Ok(())
    }

    /// Writes a Hook *occurrence*: SparseIndexing samples hooks from the
    /// raw input (duplicates included), so the same hash can be persisted
    /// once per Manifest it maps to. The object is named `hash-manifest`
    /// and costs an inode + 20 bytes like any other Hook — this is what
    /// makes the SparseIndexing hook inode count the highest in Fig. 7(a).
    pub fn write_hook_occurrence(
        &mut self,
        hash: ChunkHash,
        manifest: ManifestId,
    ) -> StoreResult<()> {
        self.debug_check_manifest("hook target", manifest);
        let mut payload = [0u8; 20];
        payload[..8].copy_from_slice(&manifest.0.to_le_bytes());
        let name = format!("{}-{:016x}", hash.to_hex(), manifest.0);
        self.backend.put(FileKind::Hook, &name, &payload)?;
        self.stats.hook_output += 1;
        self.ledger.inodes_hooks += 1;
        self.ledger.hook_bytes += 20;
        Ok(())
    }

    /// Looks a Hook up on disk. Each call is one disk access whether or not
    /// the Hook exists (a miss still seeks the directory).
    pub fn lookup_hook(&mut self, hash: ChunkHash) -> StoreResult<Option<ManifestId>> {
        let _timer = mhd_obs::span!("store.hook_lookup_ns");
        mhd_obs::counter!("store.hook_reads").inc();
        self.stats.hook_input += 1;
        match self.backend.get(FileKind::Hook, &hash.to_hex()) {
            Ok(payload) if payload.len() == 20 => {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&payload[..8]);
                Ok(Some(ManifestId(u64::from_le_bytes(raw))))
            }
            Ok(_) => Err(crate::StoreError::Corrupt("hook payload must be 20 bytes".into())),
            Err(crate::StoreError::NotFound { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    // ----- Manifests ----------------------------------------------------

    /// Allocates a fresh Manifest identity.
    pub fn new_manifest_id(&mut self) -> ManifestId {
        let id = ManifestId(self.next_manifest_id);
        self.next_manifest_id += 1;
        id
    }

    /// Writes a new Manifest.
    pub fn write_manifest(&mut self, manifest: &Manifest) -> StoreResult<()> {
        self.debug_check_manifest("manifest", manifest.id);
        self.debug_check_chunks("manifest entry", manifest.entries.iter().map(|e| e.container));
        let encoded = manifest.encode();
        self.backend.put(FileKind::Manifest, &manifest.id.name(), &encoded)?;
        mhd_obs::counter!("store.manifest_writes").inc();
        mhd_obs::histogram!("store.manifest_write_bytes").record(encoded.len() as u64);
        self.stats.manifest_output += 1;
        self.ledger.inodes_manifests += 1;
        self.ledger.manifest_bytes += encoded.len() as u64;
        Ok(())
    }

    /// Rewrites a dirty Manifest (the HHR write-back). No new inode; the
    /// ledger is adjusted by the size delta.
    pub fn update_manifest(&mut self, manifest: &Manifest) -> StoreResult<()> {
        self.debug_check_chunks("manifest entry", manifest.entries.iter().map(|e| e.container));
        let name = manifest.id.name();
        let old = self.backend.size_of(FileKind::Manifest, &name)?;
        let encoded = manifest.encode();
        self.backend.update(FileKind::Manifest, &name, &encoded)?;
        mhd_obs::counter!("store.manifest_updates").inc();
        mhd_obs::histogram!("store.manifest_write_bytes").record(encoded.len() as u64);
        self.stats.manifest_output += 1;
        // Saturating: a staging substrate's ledger starts at zero but may
        // rewrite a manifest it only ever loaded from its base view, so a
        // shrinking rewrite's delta can exceed the running total. (Its
        // ledger is a discarded scratch value; a durable substrate's
        // ledger counts every manifest it updates and never saturates.)
        self.ledger.manifest_bytes =
            (self.ledger.manifest_bytes + encoded.len() as u64).saturating_sub(old);
        Ok(())
    }

    /// Loads a Manifest from disk into RAM.
    pub fn load_manifest(&mut self, id: ManifestId) -> StoreResult<Manifest> {
        let data = self.backend.get(FileKind::Manifest, &id.name())?;
        mhd_obs::counter!("store.manifest_reads").inc();
        self.stats.manifest_input += 1;
        Manifest::decode(id, &data)
    }

    /// Whether a Manifest object exists on the backend (no I/O charged).
    pub fn manifest_exists(&mut self, id: ManifestId) -> bool {
        self.backend.exists(FileKind::Manifest, &id.name())
    }

    // ----- FileManifests -------------------------------------------------

    /// Writes the recipe for one input file. FileManifest I/O is identical
    /// across algorithms (paper §IV) and is excluded from the Table II
    /// counters; only bytes and inodes are recorded.
    pub fn write_file_manifest(&mut self, name: &str, fm: &FileManifest) -> StoreResult<()> {
        self.debug_check_chunks("recipe extent", fm.extents().iter().map(|e| e.container));
        let encoded = fm.encode();
        self.backend.put(FileKind::FileManifest, name, &encoded)?;
        mhd_obs::counter!("store.file_manifest_writes").inc();
        self.ledger.inodes_file_manifests += 1;
        self.ledger.file_manifest_bytes += encoded.len() as u64;
        Ok(())
    }

    /// Rewrites a file recipe in place (container compaction re-targets
    /// extents). No new inode; ledger adjusts by the size delta.
    pub fn update_file_manifest(&mut self, name: &str, fm: &FileManifest) -> StoreResult<()> {
        let old = self.backend.size_of(FileKind::FileManifest, name)?;
        let encoded = fm.encode();
        self.backend.update(FileKind::FileManifest, name, &encoded)?;
        self.ledger.file_manifest_bytes =
            self.ledger.file_manifest_bytes - old + encoded.len() as u64;
        Ok(())
    }

    /// Creates a DiskChunk directly from bytes (compaction writes the
    /// surviving ranges of an old container into a fresh one).
    pub fn write_disk_chunk_bytes(&mut self, data: &[u8]) -> StoreResult<DiskChunkId> {
        let mut builder = self.new_disk_chunk();
        builder.append(data);
        let id = builder.id();
        self.write_disk_chunk(builder)?;
        Ok(id)
    }

    /// Loads a file recipe (restore path; no Table II counter, as above).
    pub fn load_file_manifest(&mut self, name: &str) -> StoreResult<FileManifest> {
        let data = self.backend.get(FileKind::FileManifest, name)?;
        FileManifest::decode(&data)
    }

    /// Names of all file recipes, sorted.
    pub fn list_file_manifests(&mut self) -> Vec<String> {
        self.backend.list(FileKind::FileManifest)
    }

    // ----- Deletion (garbage collection) ---------------------------------

    /// Deletes a sealed DiskChunk, returning the ledger's accounting of
    /// its data bytes to the pool. Only garbage collection calls this —
    /// engines never delete.
    pub fn delete_disk_chunk(&mut self, id: DiskChunkId) -> StoreResult<()> {
        let len = self.backend.size_of(FileKind::DiskChunk, &id.name())?;
        self.backend.delete(FileKind::DiskChunk, &id.name())?;
        self.ledger.inodes_disk_chunks -= 1;
        self.ledger.stored_data_bytes -= len;
        Ok(())
    }

    /// Deletes a Manifest (garbage collection).
    pub fn delete_manifest(&mut self, id: ManifestId) -> StoreResult<()> {
        let len = self.backend.size_of(FileKind::Manifest, &id.name())?;
        self.backend.delete(FileKind::Manifest, &id.name())?;
        self.ledger.inodes_manifests -= 1;
        self.ledger.manifest_bytes -= len;
        Ok(())
    }

    /// Deletes a Hook by its object name (covers both plain and
    /// occurrence-style hook names).
    pub fn delete_hook_by_name(&mut self, name: &str) -> StoreResult<()> {
        let len = self.backend.size_of(FileKind::Hook, name)?;
        self.backend.delete(FileKind::Hook, name)?;
        self.ledger.inodes_hooks -= 1;
        self.ledger.hook_bytes -= len;
        Ok(())
    }

    /// Deletes a file recipe (stream retirement).
    pub fn delete_file_manifest(&mut self, name: &str) -> StoreResult<()> {
        let len = self.backend.size_of(FileKind::FileManifest, name)?;
        self.backend.delete(FileKind::FileManifest, name)?;
        self.ledger.inodes_file_manifests -= 1;
        self.ledger.file_manifest_bytes -= len;
        Ok(())
    }

    // ----- Id discipline (debug builds) ----------------------------------
    //
    // Every id a written object is or names was allocated by this
    // substrate, so it lies below the substrate's watermarks. A two-phase
    // commit's staging engine allocates far above any store id, so a
    // staged id that reaches the published store without the splice's
    // remap fails here, whatever the code that let it through.

    fn debug_check_chunks(&self, what: &str, ids: impl IntoIterator<Item = DiskChunkId>) {
        if cfg!(debug_assertions) {
            for id in ids {
                assert!(
                    id.0 < self.next_chunk_id,
                    "{what} names chunk {:#x}, at or above this store's chunk watermark {:#x}",
                    id.0,
                    self.next_chunk_id
                );
            }
        }
    }

    fn debug_check_manifest(&self, what: &str, id: ManifestId) {
        debug_assert!(
            id.0 < self.next_manifest_id,
            "{what} names manifest {:#x}, at or above this store's manifest watermark {:#x}",
            id.0,
            self.next_manifest_id
        );
    }

    // ----- Concurrency support -------------------------------------------

    /// The next DiskChunk id this substrate would allocate. Chunk ids are
    /// allocated monotonically, so this value is a *watermark*: every chunk
    /// written from now on has `id >= chunk_id_watermark()`. A concurrent
    /// garbage collector that must not sweep chunks written by in-progress
    /// sessions records each session's watermark at registration and skips
    /// every chunk at or above the minimum (see `mhd_core::gc` and the
    /// daemon's session registry).
    pub fn chunk_id_watermark(&self) -> u64 {
        self.next_chunk_id
    }

    /// The next Manifest id this substrate would allocate (the manifest
    /// analogue of [`Substrate::chunk_id_watermark`]).
    pub fn manifest_id_watermark(&self) -> u64 {
        self.next_manifest_id
    }

    /// Raises the id allocators to at least `chunk` / `manifest`.
    ///
    /// After a crash, the persisted session state can be *behind* the
    /// store: a flush may have committed objects whose ids the lost
    /// state never recorded. Re-opening with stale allocators would hand
    /// out ids that collide with objects already on disk, so recovery
    /// scans the on-disk names and raises the floors past the maximum it
    /// finds. Lowering is never allowed — ids are write-once.
    pub fn ensure_id_floor(&mut self, chunk: u64, manifest: u64) {
        self.next_chunk_id = self.next_chunk_id.max(chunk);
        self.next_manifest_id = self.next_manifest_id.max(manifest);
    }

    // ----- Persistence ----------------------------------------------------

    /// Exports the substrate's mutable bookkeeping so a session over a
    /// durable backend (e.g. [`crate::DirBackend`]) can be resumed later.
    pub fn export_state(&self) -> SubstrateState {
        SubstrateState {
            stats: self.stats,
            ledger: self.ledger,
            next_chunk_id: self.next_chunk_id,
            next_manifest_id: self.next_manifest_id,
        }
    }

    /// Restores bookkeeping exported by [`Substrate::export_state`]. The
    /// backend must be the same store the state was exported from.
    pub fn import_state(&mut self, state: SubstrateState) {
        self.stats = state.stats;
        self.ledger = state.ledger;
        self.next_chunk_id = state.next_chunk_id;
        self.next_manifest_id = state.next_manifest_id;
    }
}

/// Serialisable snapshot of a [`Substrate`]'s bookkeeping (see
/// [`Substrate::export_state`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SubstrateState {
    /// Disk-access counters.
    pub stats: IoStats,
    /// Metadata ledger.
    pub ledger: MetadataLedger,
    /// Next DiskChunk id to allocate.
    pub next_chunk_id: u64,
    /// Next Manifest id to allocate.
    pub next_manifest_id: u64,
}

/// The hash a *plain* Hook object is named by (40 hex digits, as
/// [`Substrate::write_hook`] names it); `None` for SparseIndexing's
/// occurrence hooks (`hash-manifest`) and anything else. What an index
/// over the Hook set — the BF-MHD Bloom filter, the daemon's hook index —
/// is rebuilt from.
pub fn plain_hook_hash(name: &str) -> Option<ChunkHash> {
    if name.len() == 40 {
        ChunkHash::from_hex(name).ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    #![expect(clippy::disallowed_methods, reason = "tests remove their scratch directories")]

    use super::*;
    use crate::backend::MemBackend;
    use crate::file_manifest::Extent;
    use crate::manifest::{ManifestEntry, ManifestFormat};
    use crate::{BatchedDirBackend, IoConfig};
    use mhd_hash::sha1;

    fn substrate() -> Substrate<MemBackend> {
        Substrate::new(MemBackend::new())
    }

    #[test]
    fn disk_chunk_lifecycle_accounts() {
        let mut s = substrate();
        let mut b = s.new_disk_chunk();
        b.append(b"0123456789");
        let id = b.id();
        assert!(s.write_disk_chunk(b).unwrap());
        assert_eq!(s.stats().chunk_output, 1);
        assert_eq!(s.ledger().inodes_disk_chunks, 1);
        assert_eq!(s.ledger().stored_data_bytes, 10);
        assert_eq!(s.disk_chunk_len(id).unwrap(), 10);

        let bytes = s.read_chunk_range(id, 2, 3).unwrap();
        assert_eq!(&bytes[..], b"234");
        assert_eq!(s.stats().chunk_input, 1);
        // A restore's append counts as one more read; a failed one, none.
        let mut out = bytes.to_vec();
        s.append_chunk_range(id, 7, 3, &mut out).unwrap();
        assert!(s.append_chunk_range(id, 8, 3, &mut out).is_err());
        assert_eq!(out, b"234789");
        assert_eq!(s.stats().chunk_input, 2);
    }

    #[test]
    fn empty_disk_chunk_writes_nothing() {
        let mut s = substrate();
        let b = s.new_disk_chunk();
        assert!(!s.write_disk_chunk(b).unwrap());
        assert_eq!(s.stats().chunk_output, 0);
        assert_eq!(s.ledger().inodes_disk_chunks, 0);
    }

    #[test]
    fn hooks_round_trip_and_account() {
        let mut s = substrate();
        let h = sha1(b"hook");
        s.ensure_id_floor(0, 43);
        s.write_hook(h, ManifestId(42)).unwrap();
        assert_eq!(s.ledger().hook_bytes, 20);
        assert_eq!(s.ledger().inodes_hooks, 1);
        assert_eq!(s.lookup_hook(h).unwrap(), Some(ManifestId(42)));
        assert_eq!(s.lookup_hook(sha1(b"other")).unwrap(), None);
        // Both the hit and the miss were disk probes.
        assert_eq!(s.stats().hook_input, 2);
    }

    /// A Manifest entry in container 0.
    fn entry(tag: &[u8], offset: u64, size: u64, is_hook: bool) -> ManifestEntry {
        ManifestEntry { hash: sha1(tag), container: DiskChunkId(0), offset, size, is_hook }
    }

    /// HHR-style growth: the last entry is split in two.
    fn split_last(m: &mut Manifest) {
        let last = m.entries.pop().unwrap();
        let half = last.size / 2;
        m.entries.push(ManifestEntry { size: half, ..last });
        m.entries.push(entry(
            &last.offset.to_le_bytes(),
            last.offset + half,
            last.size - half,
            false,
        ));
    }

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("mhd-substrate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    /// A batched store that writes nothing before an explicit flush.
    fn unbatched_io() -> IoConfig {
        IoConfig {
            threads: 0,
            batch_ops: usize::MAX,
            batch_bytes: usize::MAX,
            ..IoConfig::default()
        }
    }

    /// The update reads the old size from the backend, so the delta is
    /// exact in memory and for a write still pending in a batch.
    #[test]
    fn manifest_update_adjusts_ledger_by_delta() {
        fn check<B: Backend>(mut s: Substrate<B>, before_update: impl FnOnce(&mut B)) {
            s.reserve_chunk_ids(1);
            let id = s.new_manifest_id();
            let mut m = Manifest::new(id, ManifestFormat::HookFlags);
            m.entries.push(entry(b"e0", 0, 200, true));
            s.write_manifest(&m).unwrap();
            let first = s.ledger().manifest_bytes;
            assert_eq!(first, m.encoded_len() as u64);
            before_update(s.backend_mut());

            // One entry becomes three.
            split_last(&mut m);
            split_last(&mut m);
            s.update_manifest(&m).unwrap();
            assert_eq!(s.ledger().manifest_bytes, m.encoded_len() as u64);
            assert!(s.ledger().manifest_bytes > first);
            assert_eq!(s.ledger().inodes_manifests, 1, "update must not add inodes");
            assert_eq!(s.stats().manifest_output, 2);

            let back = s.load_manifest(id).unwrap();
            assert_eq!(back, m);
            assert_eq!(s.stats().manifest_input, 1);
        }
        check(substrate(), |_| {});
        let root = temp_root("pending");
        let batched = BatchedDirBackend::create_with(&root, unbatched_io()).unwrap();
        check(Substrate::new(batched), |b| assert_eq!(b.pending_ops(), 1, "manifest not pending"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn file_manifest_accounting() {
        let mut s = substrate();
        s.reserve_chunk_ids(1);
        let mut fm = FileManifest::new();
        fm.push(Extent { container: DiskChunkId(0), offset: 0, len: 10 });
        s.write_file_manifest("stream0/file0", &fm).unwrap();
        assert_eq!(s.ledger().inodes_file_manifests, 1);
        assert_eq!(s.ledger().file_manifest_bytes, fm.encoded_len() as u64);
        assert_eq!(s.load_file_manifest("stream0/file0").unwrap(), fm);
        assert_eq!(s.list_file_manifests(), vec!["stream0/file0".to_string()]);
    }

    #[test]
    fn state_export_import_round_trip() {
        let root = temp_root("reopen");
        let open =
            || Substrate::new(BatchedDirBackend::create_with(&root, unbatched_io()).unwrap());
        let mut s = open();
        let mut b = s.new_disk_chunk();
        b.append(b"payload");
        s.write_disk_chunk(b).unwrap();
        let id = s.new_manifest_id();
        s.write_hook(sha1(b"h"), id).unwrap();
        let mut m = Manifest::new(id, ManifestFormat::HookFlags);
        m.entries.push(entry(b"e", 0, 7, true));
        s.write_manifest(&m).unwrap();
        s.flush().unwrap();

        let state = s.export_state();
        let json = serde_json::to_string(&state).unwrap();
        let back: crate::SubstrateState = serde_json::from_str(&json).unwrap();

        // Reopen the same directory and resume.
        let mut s2 = open();
        s2.import_state(back);
        assert_eq!(s2.stats(), s.stats());
        assert_eq!(s2.ledger(), s.ledger());
        split_last(&mut m);
        s2.update_manifest(&m).unwrap();
        assert_eq!(s2.ledger().manifest_bytes, m.encoded_len() as u64, "update deltas resume");
        s2.flush().unwrap();
        assert_eq!(s2.new_manifest_id(), ManifestId(1), "id allocation resumes");
        assert_eq!(s2.new_disk_chunk().id(), DiskChunkId(1));

        // A staging substrate: its ledger starts at zero and it rewrites a
        // Manifest it only loaded, so its ledger holds just the delta.
        let mut staging = open();
        staging.ensure_id_floor(1, 1);
        let mut loaded = staging.load_manifest(id).unwrap();
        split_last(&mut loaded);
        staging.update_manifest(&loaded).unwrap();
        let delta = (loaded.encoded_len() - m.encoded_len()) as u64;
        assert_eq!(staging.ledger().manifest_bytes, delta);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "recipe extent names chunk 0x1000000000000, at or above")]
    fn an_id_this_substrate_never_allocated_is_refused() {
        let mut s = substrate();
        s.reserve_chunk_ids(4);
        let mut fm = FileManifest::new();
        fm.push(Extent { container: DiskChunkId(1 << 48), offset: 0, len: 10 });
        let _ = s.write_file_manifest("stream0/file0", &fm);
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let mut s = substrate();
        assert_eq!(s.new_disk_chunk().id(), DiskChunkId(0));
        assert_eq!(s.new_disk_chunk().id(), DiskChunkId(1));
        assert_eq!(s.new_manifest_id(), ManifestId(0));
        assert_eq!(s.new_manifest_id(), ManifestId(1));
    }
}
