//! The SubChunk baseline (anchor-driven subchunk deduplication,
//! Romanski et al., SYSTOR'11, as modelled in the paper's §II/§IV).
//!
//! SubChunk also chunks big-first, but re-chunks *every* non-duplicate big
//! chunk into small chunks for deduplication, then coalesces the
//! non-duplicate small chunks of one big chunk into a single container
//! DiskChunk (so there are ~`N/SD` DiskChunks of expected size `SD × ECS`).
//! The per-file Manifest records the small-chunk-to-container-chunk
//! mapping: 36 bytes per entry plus a shared 28-byte record per container
//! group (Table I: `36N + 28N/SD` manifest bytes), and is "conservatively
//! allocated with one Hook".
//!
//! Because only that one Hook per file is on disk, a duplicate slice is
//! found only when its first hash hits a Hook or when the covering
//! Manifest is already cached — "when one small-chunk-to-container-chunk
//! mapping was not hit, the duplicate data inside the big chunks covered
//! by the mapping would be missed", the DER loss visible in Fig. 8. Big
//! chunk identities are kept in a RAM index whose probes are charged as
//! big-chunk queries, following the paper's Table II accounting.

use bytes::Bytes;
use mhd_chunking::AnyChunker;
use mhd_hash::{ChunkHash, FxHashMap};
use mhd_store::{Backend, Extent, FileManifest, ManifestFormat, Substrate};
use mhd_workload::{FileEntry, Snapshot};

use crate::config::EngineConfig;
use crate::engine::{
    chunk_and_hash, chunker_at, ingest_files, DedupReport, Deduplicator, EngineResult, HashedChunk,
    Query, Scaffold,
};

/// Anchor-driven subchunk deduplicator.
pub struct SubChunkEngine<B: Backend> {
    s: Scaffold<B>,
    small_chunker: AnyChunker,
    /// RAM index of big-chunk content: big hash → the extents its content
    /// resolves to (its small chunks' homes).
    big_index: FxHashMap<ChunkHash, Vec<Extent>>,
}

impl<B: Backend> SubChunkEngine<B> {
    /// Creates an engine over `backend`.
    pub fn new(backend: B, config: EngineConfig) -> EngineResult<Self> {
        Ok(SubChunkEngine {
            s: Scaffold::new(backend, config, config.big_chunk_size())?,
            small_chunker: chunker_at(&config, config.ecs)?,
            big_index: FxHashMap::default(),
        })
    }

    /// Deduplicates one file, given its hashed big chunks.
    fn process_file(&mut self, file: &FileEntry, bigs: Vec<HashedChunk>) -> EngineResult<()> {
        let mut entries = Vec::new();
        let mut fm = FileManifest::new();

        for b in &bigs {
            // Big-chunk-first query (charged per the paper's Table II; the
            // Bloom filter suppresses never-seen big hashes).
            if self.s.bloom.contains(&b.hash) {
                self.s.substrate.stats_mut().big_chunk_query += 1;
                if let Some(extents) = self.big_index.get(&b.hash) {
                    let total: u64 = extents.iter().map(|e| e.len).sum();
                    debug_assert_eq!(total, b.len as u64);
                    for e in extents {
                        fm.push(*e);
                    }
                    self.s.slice.on_dup(b.len as u64, 1);
                    continue;
                }
            } else {
                self.s.substrate.stats_mut().bloom_suppressed += 1;
            }

            // Non-duplicate big chunk: re-chunk everything into small
            // chunks; coalesce its non-dup smalls into one container.
            // Small-chunk lookups that the (sparse, one-per-file) Hooks do
            // not reach are exactly the paper's missed duplicates.
            let big_bytes = Bytes::copy_from_slice(b.slice(&file.data));
            let smalls = chunk_and_hash(&self.small_chunker, &big_bytes);
            let mut out = self.s.begin();
            let mut homes: Vec<Extent> = Vec::with_capacity(smalls.len());
            for s in &smalls {
                let home =
                    self.s.dedup_chunk(Query::SmallOnDisk, &mut out, &mut fm, s, &big_bytes)?;
                homes.push(home);
            }
            self.s.substrate.write_disk_chunk(out.builder)?;
            entries.append(&mut out.entries);
            self.big_index.insert(b.hash, coalesce(homes));
            self.s.bloom.insert(&b.hash);
        }

        // Small hashes enter the Bloom filter (the summary of the index);
        // only the first one gets an on-disk Hook.
        self.s.commit_manifest(entries, ManifestFormat::Grouped, |s, manifest| {
            for e in &manifest.entries {
                s.bloom.insert(&e.hash);
            }
            Ok(s.substrate.write_hook(manifest.entries[0].hash, manifest.id)?)
        })?;
        self.s.write_recipe(file, &fm)
    }
}

/// Merges byte-adjacent extents (used to keep the big-chunk index compact).
fn coalesce(extents: Vec<Extent>) -> Vec<Extent> {
    let mut out: Vec<Extent> = Vec::with_capacity(extents.len());
    for e in extents {
        if let Some(last) = out.last_mut() {
            if last.container == e.container && last.offset + last.len == e.offset {
                last.len += e.len;
                continue;
            }
        }
        out.push(e);
    }
    out
}

impl<B: Backend> Deduplicator for SubChunkEngine<B> {
    type Backend = B;

    fn name(&self) -> &'static str {
        "subchunk"
    }

    fn process_snapshot(&mut self, snapshot: &Snapshot) -> EngineResult<()> {
        ingest_files(self, snapshot, |e| &mut e.s, Self::process_file)
    }

    fn finish(&mut self) -> EngineResult<DedupReport> {
        let big_index_ram: u64 = self
            .big_index
            .values()
            .map(|v| 20 + (v.len() * std::mem::size_of::<Extent>()) as u64)
            .sum();
        self.s.finish(self.name(), self.s.bloom.ram_bytes() as u64 + big_index_ram)
    }

    fn substrate_mut(&mut self) -> &mut Substrate<B> {
        &mut self.s.substrate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine_tests::{random, snapshot};
    use mhd_store::MemBackend;

    fn engine() -> SubChunkEngine<MemBackend> {
        SubChunkEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap()
    }

    #[test]
    fn identical_file_dedups_via_big_index() {
        let mut e = engine();
        let content = random(64 << 10, 1);
        e.process_snapshot(&snapshot("a", vec![content.clone()])).unwrap();
        e.process_snapshot(&snapshot("b", vec![content])).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.dup_bytes, 64 << 10);
        assert_eq!(r.ledger.stored_data_bytes, 64 << 10);
        assert!(r.stats.big_chunk_query > 0);
    }

    #[test]
    fn container_per_big_chunk() {
        let mut e = engine();
        e.process_snapshot(&snapshot("a", vec![random(128 << 10, 2)])).unwrap();
        let r = e.finish().unwrap();
        // DiskChunk inodes ≈ number of big chunks (ECS·SD = 4 KiB avg →
        // ~32 for 128 KiB), far more than the 1-per-file of CDC/MHD.
        assert!(r.ledger.inodes_disk_chunks >= 8, "{}", r.ledger.inodes_disk_chunks);
        // But only one manifest and one hook (per file).
        assert_eq!(r.ledger.inodes_manifests, 1);
        assert_eq!(r.ledger.inodes_hooks, 1);
    }

    #[test]
    fn manifest_bytes_grow_per_small_chunk() {
        let mut e = engine();
        e.process_snapshot(&snapshot("a", vec![random(64 << 10, 3)])).unwrap();
        let r = e.finish().unwrap();
        // Grouped format: ≥ 36 bytes per stored small chunk.
        assert!(r.ledger.manifest_bytes >= 36 * r.chunks_stored);
    }

    #[test]
    fn misses_duplicates_when_hook_not_hit() {
        // Duplicate content whose covering manifest was evicted from the
        // cache and whose single hook hash is absent from the new stream:
        // SubChunk misses it (the paper's §V-B DER weakness).
        let mut cfg = EngineConfig::new(512, 8);
        cfg.cache_manifests = 1;
        let mut e = SubChunkEngine::new(MemBackend::new(), cfg).unwrap();
        let original = random(64 << 10, 4);
        e.process_snapshot(&snapshot("a", vec![original.clone()])).unwrap();
        // An unrelated stream evicts the original's manifest.
        e.process_snapshot(&snapshot("b", vec![random(64 << 10, 5)])).unwrap();
        // New stream: fresh prefix, then an interior region of the
        // original (not including the original's first chunk).
        let mut third = random(32 << 10, 6);
        third.extend_from_slice(&original[30_000..45_000]);
        third.extend_from_slice(&random(32 << 10, 7));
        e.process_snapshot(&snapshot("c", vec![third])).unwrap();
        let r = e.finish().unwrap();

        // CDC with its full per-chunk index on the same input is the
        // reference for what was findable.
        let mut cdc = crate::CdcEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
        let orig2 = random(64 << 10, 4);
        cdc.process_snapshot(&snapshot("a", vec![orig2.clone()])).unwrap();
        cdc.process_snapshot(&snapshot("b", vec![random(64 << 10, 5)])).unwrap();
        let mut third2 = random(32 << 10, 6);
        third2.extend_from_slice(&orig2[30_000..45_000]);
        third2.extend_from_slice(&random(32 << 10, 7));
        cdc.process_snapshot(&snapshot("c", vec![third2])).unwrap();
        let rc = cdc.finish().unwrap();

        // Whole realigned big chunks are still found through SubChunk's
        // big-chunk index, but the small-granularity edges are missed:
        // strictly less than CDC recovers.
        assert!(rc.dup_bytes > 12_000, "CDC reference found only {}", rc.dup_bytes);
        assert!(
            r.dup_bytes < rc.dup_bytes,
            "subchunk {} should miss edges CDC {} finds",
            r.dup_bytes,
            rc.dup_bytes
        );
        // And the failed probes were charged as small-chunk queries.
        assert!(r.stats.small_chunk_query > 0);
    }

    #[test]
    fn coalesce_merges_adjacent() {
        use mhd_store::DiskChunkId;
        let e = |c: u64, o: u64, l: u64| Extent { container: DiskChunkId(c), offset: o, len: l };
        assert_eq!(coalesce(vec![e(1, 0, 5), e(1, 5, 5), e(2, 0, 5)]).len(), 2);
        assert_eq!(coalesce(vec![]).len(), 0);
    }
}
