//! Container compaction: reclaiming dead bytes *inside* live containers.
//!
//! [`crate::gc`] reclaims whole containers, but after stream retirements a
//! container often survives because a few of its blocks are still
//! referenced — the rest is dead weight. Compaction rewrites such
//! containers in two phases:
//!
//! [`stage`]
//! 1. compute entry-level liveness (a Manifest entry is live when any
//!    recipe extent overlaps its byte range);
//! 2. for containers whose live fraction falls below a threshold, write
//!    the live entries' bytes (in order) into a fresh container, and flush.
//!
//! [`Staged::apply`]
//! 3. re-offset the Manifest's live entries (the MHD tiling invariant
//!    holds again over the new container) and re-target every recipe
//!    extent that pointed into the old container, and flush;
//! 4. only then delete the old containers.
//!
//! Nothing references a staged container yet, so a store that dies after
//! [`stage`] loses nothing when the next write-open deletes it as above
//! the commit watermark (DESIGN.md §8) — along with every recipe pointing
//! into one, which is why a durable front end persists its watermark
//! *between* the phases ([`crate::statefile::OpenedStore::compact`]). From
//! there on every crash point leaves each recipe pointing at a container
//! that exists: old ones go last. [`compact`] runs both phases back to
//! back for stores with no watermark to keep.
//!
//! Correctness rests on an alignment property checked in debug builds: a
//! recipe extent only ever overlaps *live* entries, and those entries are
//! contiguous in the old container, so the translation is a single offset
//! shift per extent. DiskChunk immutability is preserved — old containers
//! are deleted and new ones created, never edited.

use mhd_hash::FxHashMap;
use mhd_store::{
    Backend, DiskChunkId, Extent, FileKind, FileManifest, Manifest, ManifestEntry, ManifestId,
    StoreResult, Substrate,
};

/// What one compaction pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Containers rewritten.
    pub containers_compacted: u64,
    /// Bytes reclaimed (dead bytes dropped from rewritten containers).
    pub bytes_reclaimed: u64,
    /// Recipe extents re-targeted.
    pub extents_rewritten: u64,
    /// Containers inspected but left alone (healthy occupancy or no
    /// manifest describes them).
    pub containers_skipped: u64,
}

/// One container's rewrite: its live bytes already sit in `new`; the
/// Manifest and the recipes still point into `old`.
struct Rewrite {
    manifest: Manifest,
    /// `(old_start, old_end, new_start)` per live manifest entry.
    moves: Vec<(u64, u64, u64)>,
    old: DiskChunkId,
    new: DiskChunkId,
}

impl Rewrite {
    /// Where byte `old_off` of the old container lives in the new one
    /// (`None` when it fell in a dead entry).
    fn translate(&self, old_off: u64) -> Option<u64> {
        self.moves
            .iter()
            .find(|&&(start, end, _)| old_off >= start && old_off < end)
            .map(|&(start, _, new_start)| new_start + (old_off - start))
    }
}

/// The outcome of [`stage`]: fresh containers on disk that nothing
/// references yet, and the rewrites [`Staged::apply`] will point at them.
pub struct Staged {
    rewrites: Vec<Rewrite>,
    recipes: Vec<(String, FileManifest)>,
    report: CompactReport,
}

/// Compacts every single-manifest container whose live-byte fraction is
/// below `threshold` (e.g. `0.7`). Returns what changed.
///
/// Only containers described by exactly one Manifest are compacted (MHD,
/// CDC and Bimodal layouts — one manifest per container; SubChunk and
/// SparseIndexing manifests span containers and are skipped).
pub fn compact<B: Backend>(
    substrate: &mut Substrate<B>,
    threshold: f64,
) -> StoreResult<CompactReport> {
    stage(substrate, threshold)?.apply(substrate)
}

/// Phase one of [`compact`]: picks the containers to rewrite and writes
/// their live bytes into fresh containers, flushed before this returns.
pub fn stage<B: Backend>(substrate: &mut Substrate<B>, threshold: f64) -> StoreResult<Staged> {
    assert!((0.0..=1.0).contains(&threshold), "threshold is a fraction");
    let mut report = CompactReport::default();

    // Load all manifests, grouped by the container(s) they describe.
    let mut manifests: Vec<Manifest> = Vec::new();
    for name in substrate.backend_mut().list(FileKind::Manifest) {
        let id = ManifestId(
            u64::from_str_radix(&name, 16)
                .map_err(|e| mhd_store::StoreError::Corrupt(format!("manifest name: {e}")))?,
        );
        let data = substrate.backend_mut().get(FileKind::Manifest, &name)?;
        manifests.push(Manifest::decode(id, &data)?);
    }
    let mut manifests_per_container: FxHashMap<DiskChunkId, u32> = FxHashMap::default();
    for m in &manifests {
        let mut seen = Vec::new();
        for e in &m.entries {
            if !seen.contains(&e.container) {
                seen.push(e.container);
                *manifests_per_container.entry(e.container).or_insert(0) += 1;
            }
        }
    }

    // Recipe extents per container.
    let recipe_names = substrate.list_file_manifests();
    let mut recipes: Vec<(String, FileManifest)> = Vec::with_capacity(recipe_names.len());
    let mut extents_per_container: FxHashMap<DiskChunkId, Vec<(u64, u64)>> = FxHashMap::default();
    for name in recipe_names {
        let fm = substrate.load_file_manifest(&name)?;
        for e in fm.extents() {
            extents_per_container.entry(e.container).or_default().push((e.offset, e.len));
        }
        recipes.push((name, fm));
    }

    // Per eligible manifest/container pair, decide and stage.
    let mut rewrites = Vec::new();
    for manifest in manifests {
        let Some(first) = manifest.entries.first() else { continue };
        let container = first.container;
        if manifest.entries.iter().any(|e| e.container != container)
            || manifests_per_container.get(&container).copied().unwrap_or(0) != 1
        {
            report.containers_skipped += 1;
            continue;
        }
        let refs = extents_per_container.get(&container);

        // Entry-level liveness.
        let live: Vec<bool> = manifest
            .entries
            .iter()
            .map(|e| {
                refs.is_some_and(|ranges| {
                    ranges.iter().any(|&(off, len)| off < e.end() && off + len > e.offset)
                })
            })
            .collect();
        let total: u64 = manifest.entries.iter().map(|e| e.size).sum();
        let live_bytes: u64 =
            manifest.entries.iter().zip(&live).filter(|(_, &l)| l).map(|(e, _)| e.size).sum();
        if total == 0 || live_bytes == 0 || (live_bytes as f64 / total as f64) >= threshold {
            report.containers_skipped += 1;
            continue;
        }

        // Build the new container from live entries, recording the offset
        // shift for each surviving old range.
        let mut new_bytes = Vec::with_capacity(live_bytes as usize);
        let mut moves: Vec<(u64, u64, u64)> = Vec::new();
        for (e, &is_live) in manifest.entries.iter().zip(&live) {
            if is_live {
                let new_start = new_bytes.len() as u64;
                let bytes = substrate.read_chunk_range(e.container, e.offset, e.size)?;
                new_bytes.extend_from_slice(&bytes);
                moves.push((e.offset, e.end(), new_start));
            }
        }
        let new = substrate.write_disk_chunk_bytes(&new_bytes)?;
        report.containers_compacted += 1;
        report.bytes_reclaimed += total - live_bytes;
        rewrites.push(Rewrite { manifest, moves, old: container, new });
    }
    substrate.flush()?;
    Ok(Staged { rewrites, recipes, report })
}

impl Staged {
    /// Phase two of [`compact`]: points the Manifests and recipes at the
    /// staged containers, flushes, and only then deletes the old ones.
    pub fn apply<B: Backend>(mut self, substrate: &mut Substrate<B>) -> StoreResult<CompactReport> {
        for rewrite in &mut self.rewrites {
            // Dead Hook entries lose their content: their on-disk Hook
            // files (when they point at this manifest) must go too, or
            // they dangle.
            for e in &rewrite.manifest.entries {
                if e.is_hook && rewrite.translate(e.offset).is_none() {
                    let name = e.hash.to_hex();
                    if let Ok(payload) = substrate.backend_mut().get(FileKind::Hook, &name) {
                        if payload.len() == 20
                            && u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"))
                                == rewrite.manifest.id.0
                        {
                            substrate.delete_hook_by_name(&name)?;
                        }
                    }
                }
            }

            // Re-offset the manifest (drop dead entries, shift live ones).
            rewrite.manifest.entries = (rewrite.manifest.entries.iter())
                .filter_map(|e| {
                    let offset = rewrite.translate(e.offset)?;
                    Some(ManifestEntry { offset, container: rewrite.new, ..*e })
                })
                .collect();
            // Every Manifest needs an entry point: if compaction dropped
            // all Hook entries, promote the first survivor and persist its
            // Hook.
            if !rewrite.manifest.entries.iter().any(|e| e.is_hook) {
                if let Some(first) = rewrite.manifest.entries.first_mut() {
                    first.is_hook = true;
                    let (hash, mid) = (first.hash, rewrite.manifest.id);
                    substrate.write_hook(hash, mid)?;
                }
            }
            let new_len = rewrite.moves.last().map_or(0, |&(start, end, at)| at + end - start);
            debug_assert_eq!(rewrite.manifest.check_tiling(new_len), Ok(()));
            substrate.update_manifest(&rewrite.manifest)?;

            // Re-target recipes.
            for (name, fm) in &mut self.recipes {
                let mut changed = false;
                let mut rebuilt = FileManifest::new();
                for e in fm.extents() {
                    if e.container == rewrite.old {
                        let new_off = rewrite.translate(e.offset).unwrap_or_else(|| {
                            panic!("recipe {name} extent {e:?} overlaps a dead entry")
                        });
                        debug_assert!(
                            rewrite
                                .translate(e.offset + e.len - 1)
                                .is_some_and(|end| end == new_off + e.len - 1),
                            "extent must stay contiguous across compaction"
                        );
                        rebuilt.push(Extent {
                            container: rewrite.new,
                            offset: new_off,
                            len: e.len,
                        });
                        changed = true;
                        self.report.extents_rewritten += 1;
                    } else {
                        rebuilt.push(*e);
                    }
                }
                if changed {
                    substrate.update_file_manifest(name, &rebuilt)?;
                    *fm = rebuilt;
                }
            }
        }
        // Compaction is a commit point: rewritten manifests and recipes
        // must be on disk before the containers they used to point into
        // go, and before the pass reports success.
        substrate.flush()?;
        for rewrite in &self.rewrites {
            substrate.delete_disk_chunk(rewrite.old)?;
        }
        Ok(self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gc, Deduplicator, EngineConfig, MhdEngine};
    use mhd_store::MemBackend;
    use mhd_workload::{Corpus, CorpusSpec};

    fn dedupped() -> (MhdEngine<MemBackend>, Corpus) {
        let corpus = Corpus::generate(CorpusSpec::tiny(601));
        let mut e = MhdEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
        for s in &corpus.snapshots {
            e.process_snapshot(s).unwrap();
        }
        e.finish().unwrap();
        (e, corpus)
    }

    #[test]
    fn fully_live_store_is_untouched() {
        let (mut e, _) = dedupped();
        let report = compact(e.substrate_mut(), 0.7).unwrap();
        assert_eq!(report.containers_compacted, 0);
        assert_eq!(report.bytes_reclaimed, 0);
    }

    #[test]
    fn compaction_reclaims_and_preserves_restore() {
        let (mut e, corpus) = dedupped();
        // Retire the first three days: day-3 recipes still reference
        // slices of old containers, leaving them partially live.
        for day in 0..3 {
            gc::delete_stream(e.substrate_mut(), &format!("m0/d{day}")).unwrap();
            gc::delete_stream(e.substrate_mut(), &format!("m1/d{day}")).unwrap();
            gc::delete_stream(e.substrate_mut(), &format!("m2/d{day}")).unwrap();
        }
        let before = e.substrate_mut().ledger().stored_data_bytes;
        let report = compact(e.substrate_mut(), 0.95).unwrap();
        assert!(report.containers_compacted > 0, "retirement must leave sparse containers");
        assert!(report.bytes_reclaimed > 0);
        let after = e.substrate_mut().ledger().stored_data_bytes;
        assert_eq!(after, before - report.bytes_reclaimed);

        // Remaining day restores byte-exactly and the store stays sound.
        for snapshot in corpus.snapshots.iter().filter(|s| s.day == 3) {
            for file in &snapshot.files {
                let restored = crate::restore::restore_file(e.substrate_mut(), &file.path).unwrap();
                assert_eq!(restored, file.data, "{}", file.path);
            }
        }
        let fsck = crate::fsck::check_store(e.substrate_mut());
        assert!(fsck.is_healthy(), "{:?}", fsck.problems);
    }

    #[test]
    fn compaction_is_idempotent() {
        let (mut e, _) = dedupped();
        gc::delete_stream(e.substrate_mut(), "m0/d0").unwrap();
        gc::delete_stream(e.substrate_mut(), "m1/d0").unwrap();
        compact(e.substrate_mut(), 0.95).unwrap();
        let second = compact(e.substrate_mut(), 0.95).unwrap();
        assert_eq!(second.containers_compacted, 0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn threshold_must_be_fraction() {
        let (mut e, _) = dedupped();
        let _ = compact(e.substrate_mut(), 1.5);
    }
}
