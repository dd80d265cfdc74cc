//! Garbage collection: stream deletion and container reclamation.
//!
//! Backup systems retire old streams (retention policies), but containers
//! are shared — a DiskChunk may hold bytes that dozens of later recipes
//! still reference. Reclamation is therefore mark-and-sweep over the
//! recipes:
//!
//! 1. **mark** — walk every live FileManifest and collect the set of
//!    referenced containers;
//! 2. **sweep** — delete the Hooks pointing at Manifests that describe
//!    only dead containers (DiskChunks no recipe references), then those
//!    Manifests, then — once both deletes are on disk — the containers:
//!    referrers before what they name, so a crash mid-sweep leaves no
//!    dangling reference.
//!
//! DiskChunks are immutable, so reclamation is whole-container: a
//! container stays alive while any byte of it is referenced (the classic
//! dedup fragmentation-vs-space trade-off; compaction is out of scope).
//! The ledger is adjusted so post-GC metrics stay truthful.

use mhd_hash::FxHashSet;
use mhd_store::{Backend, DiskChunkId, FileKind, Manifest, ManifestId, StoreResult, Substrate};

/// What one collection pass freed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// FileManifests deleted (by [`delete_stream`]).
    pub recipes_deleted: u64,
    /// DiskChunks reclaimed.
    pub containers_deleted: u64,
    /// Data bytes reclaimed.
    pub data_bytes_freed: u64,
    /// Manifests deleted.
    pub manifests_deleted: u64,
    /// Hooks deleted.
    pub hooks_deleted: u64,
    /// Containers still alive (for occupancy reporting).
    pub containers_live: u64,
    /// Containers spared by the protection cutoff (unreferenced *now*,
    /// but written at or after an in-progress session's watermark — their
    /// recipes may not have landed yet). Always `0` for [`collect`].
    pub containers_protected: u64,
}

/// Deletes every FileManifest whose name starts with `prefix` (e.g. one
/// backup label), then runs [`collect`]. Returns the combined report.
pub fn delete_stream<B: Backend>(
    substrate: &mut Substrate<B>,
    prefix: &str,
) -> StoreResult<GcReport> {
    let victims: Vec<String> = substrate
        .list_file_manifests()
        .into_iter()
        .filter(|name| name.starts_with(prefix))
        .collect();
    let mut deleted = 0u64;
    for name in victims {
        substrate.delete_file_manifest(&name)?;
        deleted += 1;
    }
    let mut report = collect(substrate)?;
    report.recipes_deleted = deleted;
    Ok(report)
}

/// Mark-and-sweep reclamation of unreferenced containers and their
/// metadata.
///
/// Safe only when no session is writing concurrently (the CLI runs it on
/// an otherwise-idle store). Under concurrent writers use
/// [`collect_protected`] with the oldest in-progress session's chunk-id
/// watermark as the cutoff.
pub fn collect<B: Backend>(substrate: &mut Substrate<B>) -> StoreResult<GcReport> {
    collect_protected(substrate, u64::MAX)
}

/// Mark-and-sweep reclamation that never touches DiskChunks with
/// `id >= cutoff` — the *protected set* of in-progress sessions.
///
/// Chunk ids are allocated monotonically
/// ([`Substrate::chunk_id_watermark`]), which gives concurrent GC a
/// session-protection protocol without per-chunk reference counting:
///
/// 1. every writing session records the watermark at the moment it
///    *opened* (before it wrote anything);
/// 2. a GC pass computes `cutoff = min(watermark at GC start, min over
///    registered sessions' watermarks)`;
/// 3. the sweep deletes an unreferenced chunk only when `id < cutoff`.
///
/// Any chunk a live session has written — or will write — has an id at
/// or above that session's watermark, hence at or above the cutoff, so
/// the sweep can never collect a chunk whose recipe merely has not
/// landed yet. Chunks below the cutoff belong to sessions that finished
/// (their recipes are on disk and participate in the mark) or died
/// (their intent records were rolled back at recovery), so for them the
/// classic mark result is authoritative. The daemon holds this to every
/// interleaving of its commit steps with a GC, on a real store
/// (`mhd-daemon`'s schedule exploration, DESIGN.md §12).
///
/// `cutoff = u64::MAX` protects nothing and degenerates to [`collect`].
pub fn collect_protected<B: Backend>(
    substrate: &mut Substrate<B>,
    cutoff: u64,
) -> StoreResult<GcReport> {
    let mut report = GcReport::default();

    // Mark: containers referenced by any live recipe.
    let mut live: FxHashSet<DiskChunkId> = FxHashSet::default();
    for name in substrate.list_file_manifests() {
        let fm = substrate.load_file_manifest(&name)?;
        for e in fm.extents() {
            live.insert(e.container);
        }
    }

    // Sweep, referrers first (reverse `FLUSH_ORDER`), so a crash at any
    // point leaves no Hook naming a missing Manifest and no Manifest or
    // recipe naming a missing container: decide which containers die,
    // delete the Hooks and Manifests that name them and rewrite the
    // Manifests that span both, flush, and only then delete the
    // containers.
    let chunk_names = substrate.backend_mut().list(FileKind::DiskChunk);
    let mut doomed = Vec::new();
    for name in chunk_names {
        let id = DiskChunkId(
            u64::from_str_radix(&name, 16)
                .map_err(|e| mhd_store::StoreError::Corrupt(format!("chunk name: {e}")))?,
        );
        if live.contains(&id) {
            report.containers_live += 1;
        } else if id.0 >= cutoff {
            // Written at or after a registered session's watermark: its
            // recipe may still be in flight. Spared this pass; a later
            // pass (after the session commits or is rolled back) decides.
            report.containers_protected += 1;
        } else {
            doomed.push(id);
        }
    }
    let dead: FxHashSet<DiskChunkId> = doomed.iter().copied().collect();

    // Manifests describing only dead containers go; those that span both
    // (SubChunk and SparseIndexing manifests reference many containers)
    // lose their dead entries.
    let mut dead_manifests: Vec<ManifestId> = Vec::new();
    let mut pruned_manifests: Vec<Manifest> = Vec::new();
    // Hashes whose entries were pruned, per manifest (their hooks dangle).
    let mut pruned: FxHashSet<(mhd_hash::ChunkHash, ManifestId)> = FxHashSet::default();
    for name in substrate.backend_mut().list(FileKind::Manifest) {
        let id = ManifestId(
            u64::from_str_radix(&name, 16)
                .map_err(|e| mhd_store::StoreError::Corrupt(format!("manifest name: {e}")))?,
        );
        let data = substrate.backend_mut().get(FileKind::Manifest, &name)?;
        let mut manifest = Manifest::decode(id, &data)?;
        let dead_count = manifest.entries.iter().filter(|e| dead.contains(&e.container)).count();
        if dead_count == 0 {
            continue;
        }
        if dead_count == manifest.entries.len() {
            dead_manifests.push(id);
        } else {
            for e in manifest.entries.iter().filter(|e| dead.contains(&e.container)) {
                pruned.insert((e.hash, id));
            }
            manifest.entries.retain(|e| !dead.contains(&e.container));
            // A hash can repeat in segment manifests: keep it referencable
            // if any surviving entry still carries it.
            for e in &manifest.entries {
                pruned.remove(&(e.hash, id));
            }
            pruned_manifests.push(manifest);
        }
    }
    let deleted_manifests: FxHashSet<ManifestId> = dead_manifests.iter().copied().collect();

    // Hooks pointing at deleted manifests or pruned entries.
    for name in substrate.backend_mut().list(FileKind::Hook) {
        let payload = substrate.backend_mut().get(FileKind::Hook, &name)?;
        if payload.len() != 20 {
            continue; // fsck's job, not GC's
        }
        let mid = ManifestId(u64::from_le_bytes(payload[..8].try_into().expect("8 bytes")));
        let hash_hex = name.split('-').next().unwrap_or(&name);
        let dangling = deleted_manifests.contains(&mid)
            || mhd_hash::ChunkHash::from_hex(hash_hex)
                .map(|h| pruned.contains(&(h, mid)))
                .unwrap_or(false);
        if dangling {
            substrate.delete_hook_by_name(&name)?;
            report.hooks_deleted += 1;
        }
    }
    for id in dead_manifests {
        substrate.delete_manifest(id)?;
        report.manifests_deleted += 1;
    }
    for manifest in &pruned_manifests {
        substrate.update_manifest(manifest)?;
    }
    substrate.flush()?;

    for id in doomed {
        report.data_bytes_freed += substrate.disk_chunk_len(id)?;
        substrate.delete_disk_chunk(id)?;
        report.containers_deleted += 1;
    }

    // GC is a commit point: every delete must be on disk before the pass
    // reports success.
    substrate.flush()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Deduplicator, EngineConfig, MhdEngine};
    use mhd_store::MemBackend;
    use mhd_workload::{Corpus, CorpusSpec};

    fn dedupped() -> (MhdEngine<MemBackend>, Corpus) {
        let corpus = Corpus::generate(CorpusSpec::tiny(501));
        let mut e = MhdEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
        for s in &corpus.snapshots {
            e.process_snapshot(s).unwrap();
        }
        e.finish().unwrap();
        (e, corpus)
    }

    #[test]
    fn collect_on_fully_live_store_frees_nothing() {
        let (mut e, _) = dedupped();
        let before = *e.substrate_mut().ledger();
        let report = collect(e.substrate_mut()).unwrap();
        assert_eq!(report.containers_deleted, 0);
        assert_eq!(report.manifests_deleted, 0);
        assert_eq!(report.hooks_deleted, 0);
        assert!(report.containers_live > 0);
        assert_eq!(*e.substrate_mut().ledger(), before);
    }

    #[test]
    fn deleting_all_streams_reclaims_everything() {
        let (mut e, _) = dedupped();
        let report = delete_stream(e.substrate_mut(), "m").unwrap();
        assert!(report.recipes_deleted > 0);
        assert!(report.containers_deleted > 0);
        assert_eq!(report.containers_live, 0);
        let ledger = e.substrate_mut().ledger();
        assert_eq!(ledger.stored_data_bytes, 0);
        assert_eq!(ledger.inodes_disk_chunks, 0);
        assert_eq!(ledger.inodes_manifests, 0);
        assert_eq!(ledger.inodes_hooks, 0);
        assert_eq!(ledger.manifest_bytes, 0);
        assert_eq!(ledger.hook_bytes, 0);
    }

    #[test]
    fn deleting_one_day_keeps_shared_containers() {
        let (mut e, corpus) = dedupped();
        let before_data = e.substrate_mut().ledger().stored_data_bytes;
        // Delete day 0 of every machine: later days reference much of the
        // same content (their recipes point into day-0 containers), so
        // most containers must survive.
        let report = delete_stream(e.substrate_mut(), "m0/d0").unwrap();
        assert!(report.recipes_deleted > 0);
        assert!(report.containers_live > 0);
        assert!(
            report.data_bytes_freed < before_data / 2,
            "freed {} of {} despite shared references",
            report.data_bytes_freed,
            before_data
        );
        // Remaining streams must still restore byte-exactly.
        for snapshot in &corpus.snapshots {
            for file in &snapshot.files {
                if file.path.starts_with("m0/d0") {
                    continue;
                }
                let restored = crate::restore::restore_file(e.substrate_mut(), &file.path).unwrap();
                assert_eq!(restored, file.data, "{}", file.path);
            }
        }
        // And the store stays structurally sound.
        let fsck = crate::fsck::check_store(e.substrate_mut());
        assert!(fsck.is_healthy(), "{:?}", fsck.problems);
    }

    #[test]
    fn protected_cutoff_spares_unreferenced_chunks_above_it() {
        let (mut e, _) = dedupped();
        // Delete every recipe *without* sweeping, then collect with a
        // cutoff of 0: every chunk is unreferenced but protected.
        let victims = e.substrate_mut().list_file_manifests();
        for name in victims {
            e.substrate_mut().delete_file_manifest(&name).unwrap();
        }
        let spared = collect_protected(e.substrate_mut(), 0).unwrap();
        assert_eq!(spared.containers_deleted, 0);
        assert!(spared.containers_protected > 0);
        assert_eq!(spared.containers_live, 0);

        // Raising the cutoff past the watermark reclaims everything —
        // exactly what collect() does.
        let watermark = e.substrate_mut().chunk_id_watermark();
        let swept = collect_protected(e.substrate_mut(), watermark).unwrap();
        assert_eq!(swept.containers_protected, 0);
        assert_eq!(swept.containers_deleted, spared.containers_protected);
        assert_eq!(e.substrate_mut().ledger().stored_data_bytes, 0);
    }

    #[test]
    fn protection_never_deletes_what_a_later_recipe_references() {
        // The daemon scenario: session S records watermark W, GC runs
        // while S's chunks are on disk but its recipe is not. Modelled by
        // writing chunks directly, collecting with cutoff = W, then
        // asserting the chunks survive to be referenced.
        let mut e = MhdEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
        let watermark = e.substrate_mut().chunk_id_watermark();
        let id = e.substrate_mut().write_disk_chunk_bytes(b"session-data").unwrap();
        let report = collect_protected(e.substrate_mut(), watermark).unwrap();
        assert_eq!(report.containers_deleted, 0, "in-flight chunk must be spared");
        assert_eq!(report.containers_protected, 1);
        assert_eq!(&e.substrate_mut().read_chunk_range(id, 0, 12).unwrap()[..], b"session-data");
    }

    #[test]
    fn gc_is_idempotent() {
        let (mut e, _) = dedupped();
        delete_stream(e.substrate_mut(), "m0/d0").unwrap();
        let second = collect(e.substrate_mut()).unwrap();
        assert_eq!(second.containers_deleted, 0);
        assert_eq!(second.manifests_deleted, 0);
    }
}
