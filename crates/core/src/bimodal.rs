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

use bytes::Bytes;
use mhd_chunking::AnyChunker;
use mhd_store::{Backend, FileManifest, ManifestFormat, Substrate};
use mhd_workload::{FileEntry, Snapshot};

use crate::config::EngineConfig;
use crate::engine::{
    chunk_and_hash, chunker_at, ingest_files, DedupReport, Deduplicator, EngineResult, HashedChunk,
    Query, Scaffold,
};

/// Big-chunk-first deduplicator with transition-point re-chunking.
pub struct BimodalEngine<B: Backend> {
    s: Scaffold<B>,
    small_chunker: AnyChunker,
}

impl<B: Backend> BimodalEngine<B> {
    /// Creates an engine over `backend`.
    pub fn new(backend: B, config: EngineConfig) -> EngineResult<Self> {
        let s = Scaffold::new(backend, config, config.big_chunk_size())?;
        Ok(BimodalEngine { s, small_chunker: chunker_at(&config, config.ecs)? })
    }

    /// Deduplicates one file, given its hashed big chunks.
    fn process_file(&mut self, file: &FileEntry, bigs: Vec<HashedChunk>) -> EngineResult<()> {
        // Pass 1: duplicate status of every big chunk (the big-chunk-first
        // queries).
        let mut dup_extents = Vec::with_capacity(bigs.len());
        for b in &bigs {
            dup_extents.push(self.s.lookup(b.hash, Query::Big)?);
        }

        // Pass 2: store/dedup with transition-point re-chunking.
        let mut out = self.s.begin();
        let mut fm = FileManifest::new();
        for (j, b) in bigs.iter().enumerate() {
            if let Some(extent) = dup_extents[j] {
                self.s.dup(&mut fm, extent);
                continue;
            }
            let at_transition = (j > 0 && dup_extents[j - 1].is_some())
                || (j + 1 < bigs.len() && dup_extents[j + 1].is_some());
            if !at_transition {
                // Store the big chunk whole: one entry, one hook.
                self.s.store(&mut out, &mut fm, b.hash, b.slice(&file.data));
                continue;
            }
            // Transition point: re-chunk at the small size and dedup each
            // small chunk.
            let big_bytes = Bytes::copy_from_slice(b.slice(&file.data));
            for s in &chunk_and_hash(&self.small_chunker, &big_bytes) {
                self.s.dedup_chunk(Query::Small, &mut out, &mut fm, s, &big_bytes)?;
            }
        }
        // Every stored chunk, big or small, gets a Hook.
        self.s.commit_file(file, &fm, out, ManifestFormat::Plain, Scaffold::hook_every_entry)
    }
}

impl<B: Backend> Deduplicator for BimodalEngine<B> {
    type Backend = B;

    fn name(&self) -> &'static str {
        "bimodal"
    }

    fn process_snapshot(&mut self, snapshot: &Snapshot) -> EngineResult<()> {
        ingest_files(self, snapshot, |e| &mut e.s, Self::process_file)
    }

    fn finish(&mut self) -> EngineResult<DedupReport> {
        self.s.finish(self.name(), self.s.bloom.ram_bytes() as u64)
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
