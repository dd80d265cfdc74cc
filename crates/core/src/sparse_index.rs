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

use mhd_hash::{ChunkHash, FxHashMap};
use mhd_store::{
    Backend, Extent, FileManifest, ManifestEntry, ManifestFormat, ManifestId, Substrate,
};
use mhd_workload::{FileEntry, Snapshot};

use crate::config::EngineConfig;
use crate::engine::{DedupReport, Deduplicator, EngineResult, HashedChunk, Scaffold};
use crate::frontend;

/// One chunk queued into the current segment, tagged with its source file.
struct SegChunk {
    file_idx: usize,
    chunk: HashedChunk,
}

/// Segment-and-champion deduplicator with a RAM sparse index.
pub struct SparseIndexEngine<B: Backend> {
    /// No Bloom filter: hooks are looked up in the RAM sparse index.
    s: Scaffold<B, ()>,
    /// hook hash → up to `manifests_per_hook` manifest ids, most recent
    /// first.
    sparse_index: FxHashMap<ChunkHash, Vec<ManifestId>>,
}

impl<B: Backend> SparseIndexEngine<B> {
    /// Creates an engine over `backend`.
    pub fn new(backend: B, config: EngineConfig) -> EngineResult<Self> {
        Ok(SparseIndexEngine {
            s: Scaffold::without_bloom(backend, config, config.ecs)?,
            sparse_index: FxHashMap::default(),
        })
    }

    /// RAM held by the sparse index (Table III): per entry, the 20-byte
    /// hook hash plus 8 bytes per manifest pointer.
    pub fn sparse_index_ram_bytes(&self) -> u64 {
        self.sparse_index.values().map(|v| 20 + 8 * v.len() as u64).sum()
    }

    /// Deduplicates one accumulated segment and writes its manifest.
    fn flush_segment(
        &mut self,
        seg: &mut Vec<SegChunk>,
        files: &[FileEntry],
        fms: &mut [FileManifest],
    ) -> EngineResult<()> {
        if seg.is_empty() {
            return Ok(());
        }
        let config = self.s.config;
        let is_hook = |hash: &ChunkHash| hash.prefix_u64().is_multiple_of(config.sd as u64);

        // 1. Champions: manifests voted for by this segment's hooks.
        let mut votes: FxHashMap<ManifestId, u32> = FxHashMap::default();
        for sc in seg.iter() {
            if is_hook(&sc.chunk.hash) {
                if let Some(mids) = self.sparse_index.get(&sc.chunk.hash) {
                    for &mid in mids {
                        *votes.entry(mid).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut ranked: Vec<(ManifestId, u32)> = votes.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(b.0 .0.cmp(&a.0 .0)));
        ranked.truncate(config.max_champions());

        // 2. Load champions (cache-aware) and build the dedup map.
        let mut dedup: FxHashMap<ChunkHash, Extent> = FxHashMap::default();
        for (mid, _) in &ranked {
            if self.s.cache.contains(*mid) {
                self.s.substrate.stats_mut().cache_hits += 1;
                self.s.cache.get(*mid); // touch
            } else {
                let manifest = self.s.substrate.load_manifest(*mid)?;
                self.s.cache_insert(manifest)?;
            }
            let cached = self.s.cache.peek(*mid).expect("champion resident");
            for e in &cached.manifest().entries {
                dedup.entry(e.hash).or_insert(e.extent());
            }
        }

        // 3. Dedup each chunk against the champions (and earlier chunks of
        // this segment), store the rest in the segment container. The
        // segment manifest records every chunk, dup or not.
        let mut out = self.s.begin();
        for sc in seg.iter() {
            let (c, fm) = (&sc.chunk, &mut fms[sc.file_idx]);
            if let Some(e) = dedup.get(&c.hash) {
                debug_assert_eq!(e.len, c.len as u64);
                self.s.dup(fm, *e);
                out.entries.push(ManifestEntry {
                    hash: c.hash,
                    container: e.container,
                    offset: e.offset,
                    size: e.len,
                    is_hook: false,
                });
            } else {
                let bytes = c.slice(&files[sc.file_idx].data);
                let e = self.s.store(&mut out, fm, c.hash, bytes);
                dedup.insert(c.hash, e); // intra-segment duplicates
            }
        }
        self.s.substrate.write_disk_chunk(out.builder)?;

        // 4. Segment manifest + hook persistence + sparse index update.
        let sparse_index = &mut self.sparse_index;
        self.s.commit_manifest(out.entries, ManifestFormat::PerEntryContainer, |s, manifest| {
            let mut seen_hooks: Vec<ChunkHash> = Vec::new();
            for e in &manifest.entries {
                if is_hook(&e.hash) && !seen_hooks.contains(&e.hash) {
                    seen_hooks.push(e.hash);
                    s.substrate.write_hook_occurrence(e.hash, manifest.id)?;
                    let mids = sparse_index.entry(e.hash).or_default();
                    mids.insert(0, manifest.id);
                    mids.truncate(config.manifests_per_hook());
                }
            }
            Ok(())
        })?;
        seg.clear();
        Ok(())
    }
}

impl<B: Backend> Deduplicator for SparseIndexEngine<B> {
    type Backend = B;

    fn name(&self) -> &'static str {
        "sparse-indexing"
    }

    fn process_snapshot(&mut self, snapshot: &Snapshot) -> EngineResult<()> {
        let start = Instant::now();
        let mut fms: Vec<FileManifest> =
            snapshot.files.iter().map(|_| FileManifest::new()).collect();

        let mut seg: Vec<SegChunk> = Vec::new();
        let mut seg_bytes = 0usize;
        let ingest = frontend::ingest(&self.s.chunker, &snapshot.files);
        for (file_idx, ingested) in ingest.enumerate() {
            let (file, chunks) = ingested?;
            self.s.input_bytes += file.data.len() as u64;
            for chunk in chunks {
                seg_bytes += chunk.len as usize;
                seg.push(SegChunk { file_idx, chunk });
                if seg_bytes >= self.s.config.segment_bytes() {
                    self.flush_segment(&mut seg, &snapshot.files, &mut fms)?;
                    seg_bytes = 0;
                }
            }
        }
        self.flush_segment(&mut seg, &snapshot.files, &mut fms)?;

        for (file, fm) in snapshot.files.iter().zip(&fms) {
            self.s.write_recipe(file, fm)?;
        }
        self.s.dedup_seconds += start.elapsed().as_secs_f64();
        Ok(())
    }

    fn finish(&mut self) -> EngineResult<DedupReport> {
        self.s.finish(self.name(), self.sparse_index_ram_bytes())
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
        let after_first = e.s.substrate.ledger().manifest_bytes;
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
        let hooks_after_first = e.s.substrate.ledger().inodes_hooks;
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
