//! The flat CDC baseline (the "CDC" column of Tables I–II).
//!
//! Classic content-defined deduplication with a full index: every stored
//! chunk gets one Manifest entry (36 bytes) *and* one on-disk Hook — the
//! paper's `512F + 312N` metadata bill. A Bloom filter suppresses lookups
//! for never-seen hashes and the Manifest cache exploits locality, so a
//! duplicate data slice costs one Hook read plus one Manifest load, with
//! subsequent chunks of the slice resolving in RAM.

use mhd_store::{Backend, FileManifest, ManifestFormat, Substrate};
use mhd_workload::{FileEntry, Snapshot};

use crate::config::EngineConfig;
use crate::engine::{
    ingest_files, DedupReport, Deduplicator, EngineResult, HashedChunk, Query, Scaffold,
};

/// Flat content-defined-chunking deduplicator with a full per-chunk index.
pub struct CdcEngine<B: Backend> {
    s: Scaffold<B>,
}

impl<B: Backend> CdcEngine<B> {
    /// Creates an engine over `backend`.
    pub fn new(backend: B, config: EngineConfig) -> EngineResult<Self> {
        Ok(CdcEngine { s: Scaffold::new(backend, config, config.ecs)? })
    }

    fn process_file(&mut self, file: &FileEntry, chunks: Vec<HashedChunk>) -> EngineResult<()> {
        let mut out = self.s.begin();
        let mut fm = FileManifest::new();
        for c in &chunks {
            self.s.dedup_chunk(Query::Uncharged, &mut out, &mut fm, c, &file.data)?;
        }
        // Full index: a Hook per stored chunk.
        self.s.commit_file(file, &fm, out, ManifestFormat::Plain, Scaffold::hook_every_entry)
    }
}

impl<B: Backend> Deduplicator for CdcEngine<B> {
    type Backend = B;

    fn name(&self) -> &'static str {
        "cdc"
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
