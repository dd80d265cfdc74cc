//! The FBC baseline (Frequency-Based Chunking, Lu, Jin & Du, MASCOTS'10),
//! discussed alongside Bimodal and SubChunk throughout the paper's §I–II:
//! "FBC performs selective re-chunking using several strategies based on
//! the frequency information of chunks estimated from data that have been
//! previously processed."
//!
//! Like Bimodal, FBC chunks big-first and stores most non-duplicate big
//! chunks whole; unlike Bimodal's positional trigger (transition points),
//! FBC re-chunks a big chunk when a count-min sketch says it contains
//! *frequent* small content — content seen often is content likely to
//! recur, so splitting it out pays for its metadata. The paper leaves FBC
//! out of its evaluation; it is provided here as an additional baseline
//! (`algorithm_shootout` example, `fbc_comparison` integration test) with
//! the same accounting as the other engines.

use std::time::Instant;

use bytes::Bytes;
use mhd_bloom::{BloomFilter, CountMinSketch};
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

/// How many sightings make a small chunk "frequent" enough to justify
/// re-chunking the big chunk containing it.
const FREQUENCY_THRESHOLD: u32 = 2;

/// Frequency-based-chunking deduplicator.
pub struct FbcEngine<B: Backend> {
    config: EngineConfig,
    big_chunker: AnyChunker,
    small_chunker: AnyChunker,
    substrate: Substrate<B>,
    bloom: BloomFilter,
    cache: ManifestCache,
    /// Frequency estimator over small-chunk hashes of the input stream.
    sketch: CountMinSketch,
    slice: SliceTracker,
    input_bytes: u64,
    files: u64,
    chunks_stored: u64,
    rechunked_bigs: u64,
    dedup_seconds: f64,
}

impl<B: Backend> FbcEngine<B> {
    /// Creates an engine over `backend`.
    pub fn new(backend: B, config: EngineConfig) -> EngineResult<Self> {
        config.validate().map_err(EngineError::Config)?;
        let small_chunker =
            config.chunker.build(config.ecs).map_err(|e| EngineError::Config(e.to_string()))?;
        let big_chunker = config
            .chunker
            .build(config.big_chunk_size())
            .map_err(|e| EngineError::Config(e.to_string()))?;
        Ok(FbcEngine {
            big_chunker,
            small_chunker,
            substrate: Substrate::new(backend),
            bloom: BloomFilter::with_bytes(config.bloom_bytes, (config.bloom_bytes * 2) as u64),
            cache: ManifestCache::new(config.cache_manifests),
            sketch: CountMinSketch::with_epsilon(1e-4),
            slice: SliceTracker::default(),
            input_bytes: 0,
            files: 0,
            chunks_stored: 0,
            rechunked_bigs: 0,
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

    /// Big chunks re-chunked due to frequent content (the FBC trigger).
    pub fn rechunked_bigs(&self) -> u64 {
        self.rechunked_bigs
    }

    /// Full-index lookup via cache → Bloom → Hook → Manifest, as in
    /// Bimodal (hooks exist for every stored chunk, big or small).
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

        let mut builder = self.substrate.new_disk_chunk();
        let mut entries: Vec<ManifestEntry> = Vec::new();
        let mut fm = FileManifest::new();

        for b in &bigs {
            // Frequency bookkeeping happens on the raw input (small
            // granularity), before any dedup decision — "estimated from
            // data that have been previously processed".
            let big_bytes = Bytes::copy_from_slice(b.slice(data));
            let smalls = chunk_and_hash(&self.small_chunker, &big_bytes);
            let frequent =
                smalls.iter().any(|s| self.sketch.estimate(&s.hash) >= FREQUENCY_THRESHOLD);
            for s in &smalls {
                self.sketch.add(&s.hash);
            }

            // Big-chunk dedup first.
            if let Some(extent) = self.lookup(b.hash, true)? {
                self.slice.on_dup(extent.len, 1);
                fm.push(extent);
                continue;
            }

            if !frequent {
                // Cold content: store the big chunk whole (one entry, one
                // hook — cheap metadata).
                self.slice.on_nondup();
                let offset = builder.append(&big_bytes);
                entries.push(ManifestEntry {
                    hash: b.hash,
                    container: builder.id(),
                    offset,
                    size: b.len as u64,
                    is_hook: false,
                });
                fm.push(Extent { container: builder.id(), offset, len: b.len as u64 });
                self.chunks_stored += 1;
                continue;
            }

            // Frequent content inside: re-chunk and dedup at the small
            // granularity.
            self.rechunked_bigs += 1;
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

impl<B: Backend> Deduplicator for FbcEngine<B> {
    fn name(&self) -> &'static str {
        "fbc"
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
            ram_index_bytes: (self.bloom.ram_bytes() + self.sketch.ram_bytes()) as u64,
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

    fn engine() -> FbcEngine<MemBackend> {
        FbcEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap()
    }

    #[test]
    fn identical_file_dedups_at_big_granularity() {
        let mut e = engine();
        let content = random(64 << 10, 1);
        e.process_snapshot(&snapshot("a", vec![content.clone()])).unwrap();
        e.process_snapshot(&snapshot("b", vec![content])).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.dup_bytes, 64 << 10);
        assert_eq!(r.ledger.stored_data_bytes, 64 << 10);
    }

    #[test]
    fn cold_fresh_data_stays_big() {
        let mut e = engine();
        e.process_snapshot(&snapshot("a", vec![random(128 << 10, 2)])).unwrap();
        let r = e.finish().unwrap();
        // All-new content has no frequent small chunks: no re-chunking,
        // few stored (big) chunks.
        assert_eq!(e.rechunked_bigs(), 0);
        assert!(r.chunks_stored < 100, "stored {}", r.chunks_stored);
    }

    #[test]
    fn frequent_content_triggers_rechunking() {
        let mut e = engine();
        // A 4 KiB motif repeated many times across two streams: its small
        // chunks become frequent, so big chunks containing it re-chunk.
        let motif = random(4 << 10, 3);
        let mut first = Vec::new();
        for i in 0..8 {
            first.extend_from_slice(&motif);
            first.extend_from_slice(&random(8 << 10, 10 + i));
        }
        e.process_snapshot(&snapshot("a", vec![first])).unwrap();
        let mut second = Vec::new();
        for i in 0..8 {
            second.extend_from_slice(&motif);
            second.extend_from_slice(&random(8 << 10, 30 + i));
        }
        e.process_snapshot(&snapshot("b", vec![second])).unwrap();
        let r = e.finish().unwrap();
        assert!(e.rechunked_bigs() > 0, "frequent motif must trigger re-chunking");
        // The motif occurrences in stream b dedup at small granularity.
        assert!(r.dup_bytes > 3 * (4 << 10), "dup {}", r.dup_bytes);
    }

    #[test]
    fn conserves_bytes_and_restores() {
        let corpus = mhd_workload::Corpus::generate(mhd_workload::CorpusSpec::tiny(91));
        let mut e = engine();
        for s in &corpus.snapshots {
            e.process_snapshot(s).unwrap();
        }
        let r = e.finish().unwrap();
        assert_eq!(r.ledger.stored_data_bytes + r.dup_bytes, r.input_bytes);
        assert!(crate::restore::verify_corpus(e.substrate_mut(), &corpus).unwrap() > 0);
    }
}
