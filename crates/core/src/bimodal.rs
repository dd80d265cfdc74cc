//! The Bimodal baseline (Kruus, Ungureanu & Dubnicki, FAST'10).
//!
//! Bimodal chunks the stream at the *big* expected size (`ECS × SD`) and
//! deduplicates big chunks first. A non-duplicate big chunk adjacent to a
//! duplicate one (a "transition point") is re-chunked at the small size
//! (`ECS`) and its small chunks deduplicated individually; non-duplicate
//! big chunks away from transition points are stored whole. Every stored
//! chunk — big or small — gets one Manifest entry and one Hook ("each
//! chunk, big or small, is represented by one entry in the Manifests as
//! well as one Hook"), which is why its metadata grows as
//! `N/SD + 2L(SD−1)` hooks (Table I): each duplicate slice flanks up to two
//! re-chunked big chunks.

use std::time::Instant;

use bytes::Bytes;
use mhd_bloom::BloomFilter;
use mhd_cache::ManifestCache;
use mhd_chunking::AnyChunker;
use mhd_hash::ChunkHash;
use mhd_store::{
    Backend, Extent, FileManifest, Manifest, ManifestEntry, ManifestFormat, Substrate,
};
use mhd_workload::Snapshot;

use crate::config::EngineConfig;
use crate::engine::{
    chunk_and_hash, DedupReport, Deduplicator, EngineError, EngineResult, HashedChunk, SliceTracker,
};
use crate::frontend;

/// Big-chunk-first deduplicator with transition-point re-chunking.
pub struct BimodalEngine<B: Backend> {
    config: EngineConfig,
    big_chunker: AnyChunker,
    small_chunker: AnyChunker,
    substrate: Substrate<B>,
    bloom: BloomFilter,
    cache: ManifestCache,
    slice: SliceTracker,
    input_bytes: u64,
    files: u64,
    chunks_stored: u64,
    big_chunks_stored: u64,
    dedup_seconds: f64,
}

impl<B: Backend> BimodalEngine<B> {
    /// Creates an engine over `backend`.
    pub fn new(backend: B, config: EngineConfig) -> EngineResult<Self> {
        config.validate().map_err(EngineError::Config)?;
        let small_chunker =
            config.chunker.build(config.ecs).map_err(|e| EngineError::Config(e.to_string()))?;
        let big_chunker = config
            .chunker
            .build(config.big_chunk_size())
            .map_err(|e| EngineError::Config(e.to_string()))?;
        Ok(BimodalEngine {
            big_chunker,
            small_chunker,
            substrate: Substrate::new(backend),
            bloom: BloomFilter::with_bytes(config.bloom_bytes, (config.bloom_bytes * 2) as u64),
            cache: ManifestCache::new(config.cache_manifests),
            slice: SliceTracker::default(),
            input_bytes: 0,
            files: 0,
            chunks_stored: 0,
            big_chunks_stored: 0,
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

    /// Full-index lookup via cache → Bloom → Hook → Manifest, as in CDC.
    /// `big` routes the query to the big-chunk counter.
    fn lookup(&mut self, hash: ChunkHash, big: bool) -> EngineResult<Option<Extent>> {
        if big {
            self.substrate.stats_mut().big_chunk_query += 1;
        } else {
            self.substrate.stats_mut().small_chunk_query += 1;
        }
        let found = if let Some((mid, idx)) = self.cache.find_hash(&hash) {
            self.substrate.stats_mut().cache_hits += 1;
            Some(self.cache.peek(mid).expect("resident").manifest().entries[idx as usize])
        } else if !self.bloom.contains(&hash) {
            self.substrate.stats_mut().bloom_suppressed += 1;
            None
        } else if let Some(mid) = self.substrate.lookup_hook(hash)? {
            let manifest = self.substrate.load_manifest(mid)?;
            let e = manifest.entries.iter().find(|e| e.hash == hash).copied();
            if let Some((evicted, dirty)) = self.cache.insert(manifest, false) {
                if dirty {
                    self.substrate.update_manifest(&evicted)?;
                }
            }
            e
        } else {
            None
        };
        Ok(found.map(|e| Extent { container: e.container, offset: e.offset, len: e.size }))
    }

    /// Deduplicates one file, given its hashed big chunks.
    fn process_file(
        &mut self,
        path: &str,
        data: &Bytes,
        bigs: Vec<HashedChunk>,
    ) -> EngineResult<()> {
        self.input_bytes += data.len() as u64;

        // Pass 1: duplicate status of every big chunk (the big-chunk-first
        // queries).
        let mut dup_extents: Vec<Option<Extent>> = Vec::with_capacity(bigs.len());
        for b in &bigs {
            dup_extents.push(self.lookup(b.hash, true)?);
        }

        // Pass 2: store/dedup with transition-point re-chunking.
        let mut builder = self.substrate.new_disk_chunk();
        let mut entries: Vec<ManifestEntry> = Vec::new();
        let mut fm = FileManifest::new();

        for (j, b) in bigs.iter().enumerate() {
            if let Some(extent) = dup_extents[j] {
                self.slice.on_dup(extent.len, 1);
                fm.push(extent);
                continue;
            }
            let at_transition = (j > 0 && dup_extents[j - 1].is_some())
                || (j + 1 < bigs.len() && dup_extents[j + 1].is_some());
            if !at_transition {
                // Store the big chunk whole: one entry, one hook.
                self.slice.on_nondup();
                let offset = builder.append(b.slice(data));
                entries.push(ManifestEntry {
                    hash: b.hash,
                    container: builder.id(),
                    offset,
                    size: b.len as u64,
                    is_hook: false,
                });
                fm.push(Extent { container: builder.id(), offset, len: b.len as u64 });
                self.chunks_stored += 1;
                self.big_chunks_stored += 1;
                continue;
            }
            // Transition point: re-chunk at the small size and dedup each
            // small chunk.
            let big_bytes = Bytes::copy_from_slice(b.slice(data));
            let smalls = chunk_and_hash(&self.small_chunker, &big_bytes);
            for s in &smalls {
                if let Some(extent) = self.lookup(s.hash, false)? {
                    self.slice.on_dup(extent.len, 1);
                    fm.push(extent);
                } else {
                    self.slice.on_nondup();
                    let offset = builder.append(s.slice(&big_bytes));
                    entries.push(ManifestEntry {
                        hash: s.hash,
                        container: builder.id(),
                        offset,
                        size: s.len as u64,
                        is_hook: false,
                    });
                    fm.push(Extent { container: builder.id(), offset, len: s.len as u64 });
                    self.chunks_stored += 1;
                }
            }
        }
        self.slice.reset_run();

        if !builder.is_empty() {
            self.substrate.write_disk_chunk(builder)?;
            let mid = self.substrate.new_manifest_id();
            let manifest = Manifest { id: mid, format: ManifestFormat::Plain, entries };
            self.substrate.write_manifest(&manifest)?;
            for e in &manifest.entries {
                self.substrate.write_hook(e.hash, mid)?;
                self.bloom.insert(&e.hash);
            }
            if let Some((evicted, dirty)) = self.cache.insert(manifest, false) {
                if dirty {
                    self.substrate.update_manifest(&evicted)?;
                }
            }
            self.files += 1;
        }
        self.substrate.write_file_manifest(path, &fm)?;
        debug_assert_eq!(fm.total_len(), data.len() as u64);
        Ok(())
    }
}

impl<B: Backend> Deduplicator for BimodalEngine<B> {
    fn name(&self) -> &'static str {
        "bimodal"
    }

    fn process_snapshot(&mut self, snapshot: &Snapshot) -> EngineResult<()> {
        let start = Instant::now();
        for ingested in frontend::ingest(&self.big_chunker, &snapshot.files) {
            let (file, bigs) = ingested?;
            self.process_file(&file.path, &file.data, bigs)?;
        }
        self.dedup_seconds += start.elapsed().as_secs_f64();
        Ok(())
    }

    fn finish(&mut self) -> EngineResult<DedupReport> {
        for (manifest, dirty) in self.cache.drain() {
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
            ram_index_bytes: self.bloom.ram_bytes() as u64,
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

    fn engine() -> BimodalEngine<MemBackend> {
        BimodalEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap()
    }

    #[test]
    fn identical_file_dedups_at_big_granularity() {
        let mut e = engine();
        let content = random(64 << 10, 1);
        e.process_snapshot(&snapshot("a", vec![content.clone()])).unwrap();
        e.process_snapshot(&snapshot("b", vec![content])).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.ledger.stored_data_bytes, 64 << 10);
        assert_eq!(r.dup_bytes, 64 << 10);
        assert!(r.stats.big_chunk_query > 0);
    }

    #[test]
    fn fewer_hooks_than_cdc_without_duplicates() {
        // On pure fresh data (no transitions), Bimodal stores only big
        // chunks: ~N/SD hooks.
        let mut e = engine();
        e.process_snapshot(&snapshot("a", vec![random(256 << 10, 2)])).unwrap();
        let r = e.finish().unwrap();
        // Big chunks average 4 KiB (512·8); 256 KiB → ~64 stored chunks,
        // far fewer than the ~512 small chunks CDC would store.
        assert!(r.chunks_stored < 200, "stored {}", r.chunks_stored);
        assert_eq!(r.ledger.inodes_hooks, r.chunks_stored);
    }

    #[test]
    fn rechunks_at_transition_points() {
        let mut e = engine();
        let original = random(64 << 10, 3);
        let mut edited = original.clone();
        let patch = random(512, 4);
        edited[32_000..32_512].copy_from_slice(&patch);

        e.process_snapshot(&snapshot("a", vec![original])).unwrap();
        e.process_snapshot(&snapshot("b", vec![edited])).unwrap();
        let r = e.finish().unwrap();
        // Small-chunk queries prove re-chunking happened.
        assert!(r.stats.small_chunk_query > 0);
        // Some duplicate content inside the edited big chunk region is
        // recovered at small granularity.
        assert!(r.dup_bytes > 32 << 10, "dup {}", r.dup_bytes);
    }

    #[test]
    fn misses_interior_duplicates_away_from_transitions() {
        // A duplicate region fully inside a big chunk whose big hash
        // changed, with non-duplicate neighbours, is missed — the DER
        // weakness the paper exploits (§V-B).
        let mut e = engine();
        // Stream 1: one big random file.
        let original = random(128 << 10, 5);
        e.process_snapshot(&snapshot("a", vec![original.clone()])).unwrap();
        // Stream 2: fresh data, with a copy of an interior region of the
        // original spliced into the middle (smaller than a big chunk).
        let mut second = random(64 << 10, 6);
        second.extend_from_slice(&original[40_000..42_000]); // 2 KiB interior dup
        second.extend_from_slice(&random(64 << 10, 7));
        e.process_snapshot(&snapshot("b", vec![second])).unwrap();
        let r = e.finish().unwrap();
        // The 2 KiB is interior to non-dup big chunks on both sides: missed.
        assert!(r.dup_bytes < 2000, "found {} dup bytes unexpectedly", r.dup_bytes);
    }
}
