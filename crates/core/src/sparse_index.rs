//! The SparseIndexing baseline (Lillibridge et al., FAST'09, with the
//! parameters the paper uses in §V).
//!
//! The incoming stream is divided into large *segments* (`ECS × SD × 5`
//! bytes). A sample of each segment's chunk hashes (1-in-`SD`, chosen by a
//! hash mask) are its *hooks*; an in-RAM **sparse index** maps each hook to
//! at most 5 segment manifests. An incoming segment is deduplicated only
//! against its *champions* — the ≤ 10 manifests its hooks vote for —
//! loaded from disk. The segment manifest records *every* chunk of the
//! segment (duplicates included, "one hash may be recorded multiple times
//! if the corresponding chunk appears multiple times in the stream"), which
//! is why its manifest volume is the largest in Fig. 7(b); hook occurrences
//! are also persisted per manifest, giving the highest inode count in
//! Fig. 7(a).

use std::time::Instant;

use bytes::Bytes;
use mhd_cache::ManifestCache;
use mhd_chunking::AnyChunker;
use mhd_hash::{ChunkHash, FxHashMap};
use mhd_store::{
    Backend, Extent, FileManifest, Manifest, ManifestEntry, ManifestFormat, ManifestId, Substrate,
};
use mhd_workload::Snapshot;

use crate::config::EngineConfig;
use crate::engine::{
    DedupReport, Deduplicator, EngineError, EngineResult, HashedChunk, SliceTracker,
};
use crate::frontend;

/// One chunk queued into the current segment, tagged with its source file.
struct SegChunk {
    file_idx: usize,
    chunk: HashedChunk,
}

/// Segment-and-champion deduplicator with a RAM sparse index.
pub struct SparseIndexEngine<B: Backend> {
    config: EngineConfig,
    chunker: AnyChunker,
    substrate: Substrate<B>,
    cache: ManifestCache,
    /// hook hash → up to `manifests_per_hook` manifest ids, most recent
    /// first.
    sparse_index: FxHashMap<ChunkHash, Vec<ManifestId>>,
    slice: SliceTracker,
    input_bytes: u64,
    files: u64,
    chunks_stored: u64,
    dedup_seconds: f64,
}

impl<B: Backend> SparseIndexEngine<B> {
    /// Creates an engine over `backend`.
    pub fn new(backend: B, config: EngineConfig) -> EngineResult<Self> {
        config.validate().map_err(EngineError::Config)?;
        let chunker =
            config.chunker.build(config.ecs).map_err(|e| EngineError::Config(e.to_string()))?;
        Ok(SparseIndexEngine {
            chunker,
            substrate: Substrate::new(backend),
            cache: ManifestCache::new(config.cache_manifests),
            sparse_index: FxHashMap::default(),
            slice: SliceTracker::default(),
            input_bytes: 0,
            files: 0,
            chunks_stored: 0,
            dedup_seconds: 0.0,
            config,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The storage substrate (counters, ledger, restore access).
    pub fn substrate_mut(&mut self) -> &mut Substrate<B> {
        &mut self.substrate
    }

    /// RAM held by the sparse index (Table III): per entry, the 20-byte
    /// hook hash plus 8 bytes per manifest pointer.
    pub fn sparse_index_ram_bytes(&self) -> u64 {
        self.sparse_index.values().map(|v| 20 + 8 * v.len() as u64).sum()
    }

    fn is_hook(&self, hash: &ChunkHash) -> bool {
        hash.prefix_u64() % self.config.sd as u64 == 0
    }

    /// Deduplicates one accumulated segment and writes its manifest.
    fn flush_segment(
        &mut self,
        seg: &mut Vec<SegChunk>,
        files: &[Bytes],
        fms: &mut [FileManifest],
    ) -> EngineResult<()> {
        if seg.is_empty() {
            return Ok(());
        }
        // 1. Champions: manifests voted for by this segment's hooks.
        let mut votes: FxHashMap<ManifestId, u32> = FxHashMap::default();
        for sc in seg.iter() {
            if self.is_hook(&sc.chunk.hash) {
                if let Some(mids) = self.sparse_index.get(&sc.chunk.hash) {
                    for &mid in mids {
                        *votes.entry(mid).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut ranked: Vec<(ManifestId, u32)> = votes.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(b.0 .0.cmp(&a.0 .0)));
        ranked.truncate(self.config.max_champions());

        // 2. Load champions (cache-aware) and build the dedup map.
        let mut dedup: FxHashMap<ChunkHash, Extent> = FxHashMap::default();
        for (mid, _) in &ranked {
            if self.cache.contains(*mid) {
                self.substrate.stats_mut().cache_hits += 1;
                self.cache.get(*mid); // touch
            } else {
                let manifest = self.substrate.load_manifest(*mid)?;
                if let Some((evicted, dirty)) = self.cache.insert(manifest, false) {
                    debug_assert!(!dirty);
                    if dirty {
                        self.substrate.update_manifest(&evicted)?;
                    }
                }
            }
            let cached = self.cache.peek(*mid).expect("champion resident");
            for e in &cached.manifest().entries {
                dedup.entry(e.hash).or_insert(Extent {
                    container: e.container,
                    offset: e.offset,
                    len: e.size,
                });
            }
        }

        // 3. Dedup each chunk against the champions (and earlier chunks of
        // this segment), store the rest in the segment container.
        let mut builder = self.substrate.new_disk_chunk();
        let mut entries: Vec<ManifestEntry> = Vec::with_capacity(seg.len());
        for sc in seg.iter() {
            let data = &files[sc.file_idx];
            let c = &sc.chunk;
            let extent = if let Some(e) = dedup.get(&c.hash) {
                debug_assert_eq!(e.len, c.len as u64);
                self.slice.on_dup(e.len, 1);
                *e
            } else {
                self.slice.on_nondup();
                let offset = builder.append(c.slice(data));
                let e = Extent { container: builder.id(), offset, len: c.len as u64 };
                dedup.insert(c.hash, e); // intra-segment duplicates
                self.chunks_stored += 1;
                e
            };
            entries.push(ManifestEntry {
                hash: c.hash,
                container: extent.container,
                offset: extent.offset,
                size: extent.len,
                is_hook: false,
            });
            fms[sc.file_idx].push(extent);
        }
        self.substrate.write_disk_chunk(builder)?;

        // 4. Segment manifest (every chunk, dup or not) + hook persistence
        // + sparse index update.
        let mid = self.substrate.new_manifest_id();
        let manifest = Manifest { id: mid, format: ManifestFormat::PerEntryContainer, entries };
        self.substrate.write_manifest(&manifest)?;
        self.files += 1;
        let mut seen_hooks: Vec<ChunkHash> = Vec::new();
        for e in &manifest.entries {
            if self.is_hook(&e.hash) && !seen_hooks.contains(&e.hash) {
                seen_hooks.push(e.hash);
                self.substrate.write_hook_occurrence(e.hash, mid)?;
                let mids = self.sparse_index.entry(e.hash).or_default();
                mids.insert(0, mid);
                mids.truncate(self.config.manifests_per_hook());
            }
        }
        if let Some((evicted, dirty)) = self.cache.insert(manifest, false) {
            debug_assert!(!dirty);
            if dirty {
                self.substrate.update_manifest(&evicted)?;
            }
        }
        seg.clear();
        Ok(())
    }
}

impl<B: Backend> Deduplicator for SparseIndexEngine<B> {
    fn name(&self) -> &'static str {
        "sparse-indexing"
    }

    fn process_snapshot(&mut self, snapshot: &Snapshot) -> EngineResult<()> {
        let start = Instant::now();
        let files: Vec<Bytes> = snapshot.files.iter().map(|f| f.data.clone()).collect();
        let mut fms: Vec<FileManifest> =
            snapshot.files.iter().map(|_| FileManifest::new()).collect();

        let mut seg: Vec<SegChunk> = Vec::new();
        let mut seg_bytes = 0usize;
        for (file_idx, ingested) in frontend::ingest(&self.chunker, &snapshot.files).enumerate() {
            let (file, chunks) = ingested?;
            self.input_bytes += file.data.len() as u64;
            for chunk in chunks {
                seg_bytes += chunk.len as usize;
                seg.push(SegChunk { file_idx, chunk });
                if seg_bytes >= self.config.segment_bytes() {
                    self.flush_segment(&mut seg, &files, &mut fms)?;
                    seg_bytes = 0;
                }
            }
        }
        self.flush_segment(&mut seg, &files, &mut fms)?;
        self.slice.reset_run();

        for (file, fm) in snapshot.files.iter().zip(&fms) {
            debug_assert_eq!(fm.total_len(), file.data.len() as u64);
            self.substrate.write_file_manifest(&file.path, fm)?;
        }
        self.dedup_seconds += start.elapsed().as_secs_f64();
        Ok(())
    }

    fn finish(&mut self) -> EngineResult<DedupReport> {
        for (manifest, dirty) in self.cache.drain() {
            debug_assert!(!dirty);
            if dirty {
                self.substrate.update_manifest(&manifest)?;
            }
        }
        self.substrate.flush()?;
        Ok(DedupReport {
            algorithm: self.name().to_string(),
            input_bytes: self.input_bytes,
            dup_bytes: self.slice.dup_bytes,
            dup_slices: self.slice.slices,
            files: self.files,
            chunks_stored: self.chunks_stored,
            chunks_dup: self.slice.dup_chunks,
            hhr_count: 0,
            stats: *self.substrate.stats(),
            ledger: *self.substrate.ledger(),
            ram_index_bytes: self.sparse_index_ram_bytes(),
            dedup_seconds: self.dedup_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhd_store::MemBackend;
    use mhd_workload::FileEntry;

    fn snapshot(prefix: &str, datas: Vec<Vec<u8>>) -> Snapshot {
        Snapshot {
            machine: 0,
            day: 0,
            files: datas
                .into_iter()
                .enumerate()
                .map(|(i, d)| FileEntry { path: format!("{prefix}/f{i}"), data: Bytes::from(d) })
                .collect(),
        }
    }

    fn random(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    fn engine(ecs: usize, sd: usize) -> SparseIndexEngine<MemBackend> {
        SparseIndexEngine::new(MemBackend::new(), EngineConfig::new(ecs, sd)).unwrap()
    }

    #[test]
    fn identical_stream_dedups_via_champions() {
        let mut e = engine(512, 8);
        let content = random(128 << 10, 1);
        e.process_snapshot(&snapshot("a", vec![content.clone()])).unwrap();
        e.process_snapshot(&snapshot("b", vec![content])).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.ledger.stored_data_bytes, 128 << 10);
        assert_eq!(r.dup_bytes, 128 << 10);
        // Champions resolved from disk or from the manifest cache.
        assert!(r.stats.manifest_input + r.stats.cache_hits > 0, "champions must be consulted");
    }

    #[test]
    fn manifest_records_every_chunk_including_dups() {
        let mut e = engine(512, 8);
        let content = random(64 << 10, 2);
        e.process_snapshot(&snapshot("a", vec![content.clone()])).unwrap();
        let after_first = e.substrate.ledger().manifest_bytes;
        e.process_snapshot(&snapshot("b", vec![content])).unwrap();
        let r = e.finish().unwrap();
        // The second, fully-duplicate stream still grows manifests by
        // roughly the same amount (locality-preserving recording).
        let second_growth = r.ledger.manifest_bytes - after_first;
        assert!(
            second_growth * 10 >= after_first * 7,
            "second stream only grew manifests by {second_growth} vs {after_first}"
        );
    }

    #[test]
    fn sparse_index_ram_is_small_fraction_of_input() {
        let mut e = engine(512, 8);
        for day in 0..3u64 {
            e.process_snapshot(&snapshot(&format!("d{day}"), vec![random(256 << 10, day)]))
                .unwrap();
        }
        let r = e.finish().unwrap();
        assert!(r.ram_index_bytes > 0);
        // Sampled at 1/SD: a small fraction of input (paper: ~0.01%; here
        // the corpus is tiny so allow a loose bound).
        assert!(r.ram_index_bytes < r.input_bytes / 20);
    }

    #[test]
    fn hook_occurrences_accumulate_per_manifest() {
        let mut e = engine(512, 4);
        let content = random(128 << 10, 3);
        e.process_snapshot(&snapshot("a", vec![content.clone()])).unwrap();
        let hooks_after_first = e.substrate.ledger().inodes_hooks;
        e.process_snapshot(&snapshot("b", vec![content])).unwrap();
        let r = e.finish().unwrap();
        // The duplicate stream re-persists its hook occurrences (sampling
        // is over the input, not over unique data).
        assert!(r.ledger.inodes_hooks >= hooks_after_first * 2 - 2);
    }

    #[test]
    fn no_bloom_filter_in_sparse_indexing() {
        let mut e = engine(512, 8);
        e.process_snapshot(&snapshot("a", vec![random(64 << 10, 4)])).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.stats.bloom_suppressed, 0);
        assert_eq!(r.stats.hook_input, 0, "hooks are consulted in RAM, not on disk");
    }
}
