//! The flat CDC baseline (the "CDC" column of Tables I–II).
//!
//! Classic content-defined deduplication with a full index: every stored
//! chunk gets one Manifest entry (36 bytes) *and* one on-disk Hook — the
//! paper's `512F + 312N` metadata bill. A Bloom filter suppresses lookups
//! for never-seen hashes and the Manifest cache exploits locality, so a
//! duplicate data slice costs one Hook read plus one Manifest load, with
//! subsequent chunks of the slice resolving in RAM.

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
    DedupReport, Deduplicator, EngineError, EngineResult, HashedChunk, SliceTracker,
};
use crate::frontend;

/// Flat content-defined-chunking deduplicator with a full per-chunk index.
pub struct CdcEngine<B: Backend> {
    config: EngineConfig,
    chunker: AnyChunker,
    substrate: Substrate<B>,
    bloom: BloomFilter,
    cache: ManifestCache,
    slice: SliceTracker,
    input_bytes: u64,
    files: u64,
    chunks_stored: u64,
    dedup_seconds: f64,
}

impl<B: Backend> CdcEngine<B> {
    /// Creates an engine over `backend`.
    pub fn new(backend: B, config: EngineConfig) -> EngineResult<Self> {
        config.validate().map_err(EngineError::Config)?;
        let chunker =
            config.chunker.build(config.ecs).map_err(|e| EngineError::Config(e.to_string()))?;
        Ok(CdcEngine {
            chunker,
            substrate: Substrate::new(backend),
            bloom: BloomFilter::with_bytes(config.bloom_bytes, (config.bloom_bytes * 2) as u64),
            cache: ManifestCache::new(config.cache_manifests),
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

    fn lookup(&mut self, hash: ChunkHash) -> EngineResult<Option<Extent>> {
        let found = if let Some((mid, idx)) = self.cache.find_hash(&hash) {
            self.substrate.stats_mut().cache_hits += 1;
            let e = self.cache.peek(mid).expect("resident").manifest().entries[idx as usize];
            Some(e)
        } else if !self.bloom.contains(&hash) {
            self.substrate.stats_mut().bloom_suppressed += 1;
            None
        } else if let Some(mid) = self.substrate.lookup_hook(hash)? {
            let manifest = self.substrate.load_manifest(mid)?;
            let e = manifest.entries.iter().find(|e| e.hash == hash).copied();
            debug_assert!(e.is_some(), "hook points at manifest lacking its hash");
            if let Some((evicted, dirty)) = self.cache.insert(manifest, false) {
                debug_assert!(!dirty, "CDC never dirties manifests");
                if dirty {
                    self.substrate.update_manifest(&evicted)?;
                }
            }
            e
        } else {
            None // Bloom false positive
        };
        Ok(found.map(|e| Extent { container: e.container, offset: e.offset, len: e.size }))
    }

    fn process_file(
        &mut self,
        path: &str,
        data: &Bytes,
        chunks: Vec<HashedChunk>,
    ) -> EngineResult<()> {
        self.input_bytes += data.len() as u64;

        let mut builder = self.substrate.new_disk_chunk();
        let mut entries: Vec<ManifestEntry> = Vec::new();
        let mut fm = FileManifest::new();

        for c in &chunks {
            if let Some(extent) = self.lookup(c.hash)? {
                debug_assert_eq!(extent.len, c.len as u64);
                self.slice.on_dup(extent.len, 1);
                fm.push(extent);
            } else {
                self.slice.on_nondup();
                let offset = builder.append(c.slice(data));
                entries.push(ManifestEntry {
                    hash: c.hash,
                    container: builder.id(),
                    offset,
                    size: c.len as u64,
                    is_hook: false,
                });
                fm.push(Extent { container: builder.id(), offset, len: c.len as u64 });
                self.chunks_stored += 1;
            }
        }
        self.slice.reset_run();

        if !builder.is_empty() {
            self.substrate.write_disk_chunk(builder)?;
            let mid = self.substrate.new_manifest_id();
            let manifest = Manifest { id: mid, format: ManifestFormat::Plain, entries };
            self.substrate.write_manifest(&manifest)?;
            // Full index: a Hook per stored chunk.
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

impl<B: Backend> Deduplicator for CdcEngine<B> {
    fn name(&self) -> &'static str {
        "cdc"
    }

    fn process_snapshot(&mut self, snapshot: &Snapshot) -> EngineResult<()> {
        let start = Instant::now();
        for ingested in frontend::ingest(&self.chunker, &snapshot.files) {
            let (file, chunks) = ingested?;
            self.process_file(&file.path, &file.data, chunks)?;
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

    #[test]
    fn dedups_identical_file() {
        let mut e = CdcEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
        let content = random(64 << 10, 1);
        e.process_snapshot(&snapshot("a", vec![content.clone()])).unwrap();
        e.process_snapshot(&snapshot("b", vec![content])).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.ledger.stored_data_bytes, 64 << 10);
        assert_eq!(r.dup_bytes, 64 << 10);
        assert_eq!(r.files, 1);
    }

    #[test]
    fn hook_per_stored_chunk() {
        let mut e = CdcEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
        e.process_snapshot(&snapshot("a", vec![random(64 << 10, 2)])).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.ledger.inodes_hooks, r.chunks_stored, "CDC hooks one inode per chunk");
        // Manifest bytes ≈ 36·N (+13-byte envelope per manifest).
        assert_eq!(r.ledger.manifest_bytes, 36 * r.chunks_stored + 13 * r.files);
    }

    #[test]
    fn finds_shifted_duplicates() {
        // Prepend bytes: CDC realigns, most of the content still dedups.
        let mut e = CdcEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
        let content = random(64 << 10, 3);
        let mut shifted = random(50, 4);
        shifted.extend_from_slice(&content);
        e.process_snapshot(&snapshot("a", vec![content])).unwrap();
        e.process_snapshot(&snapshot("b", vec![shifted])).unwrap();
        let r = e.finish().unwrap();
        assert!(r.dup_bytes > 56 << 10, "dup bytes {}", r.dup_bytes);
    }

    #[test]
    fn slice_locality_one_manifest_load_per_slice() {
        let mut e = CdcEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
        let content = random(64 << 10, 5);
        e.process_snapshot(&snapshot("a", vec![content.clone()])).unwrap();
        e.process_snapshot(&snapshot("b", vec![content])).unwrap();
        let r = e.finish().unwrap();
        // The duplicate file is one slice, resolved with locality: the
        // manifest is either still cached from its creation (0 loads) or
        // loaded once via its hook, never per chunk.
        assert_eq!(r.dup_slices, 1);
        assert!(r.stats.manifest_input <= 1);
        assert!(r.stats.hook_input <= 2);
        assert!(r.stats.cache_hits > 0);
    }
}
