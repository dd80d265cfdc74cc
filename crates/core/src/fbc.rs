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

use bytes::Bytes;
use mhd_bloom::CountMinSketch;
use mhd_chunking::AnyChunker;
use mhd_store::{Backend, FileManifest, ManifestFormat, Substrate};
use mhd_workload::{FileEntry, Snapshot};

use crate::config::EngineConfig;
use crate::engine::{
    chunk_and_hash, chunker_at, ingest_files, DedupReport, Deduplicator, EngineResult, HashedChunk,
    Query, Scaffold,
};

/// How many sightings make a small chunk "frequent" enough to justify
/// re-chunking the big chunk containing it.
const FREQUENCY_THRESHOLD: u32 = 2;

/// Frequency-based-chunking deduplicator.
pub struct FbcEngine<B: Backend> {
    s: Scaffold<B>,
    small_chunker: AnyChunker,
    /// Frequency estimator over small-chunk hashes of the input stream.
    sketch: CountMinSketch,
    rechunked_bigs: u64,
}

impl<B: Backend> FbcEngine<B> {
    /// Creates an engine over `backend`.
    pub fn new(backend: B, config: EngineConfig) -> EngineResult<Self> {
        Ok(FbcEngine {
            s: Scaffold::new(backend, config, config.big_chunk_size())?,
            small_chunker: chunker_at(&config, config.ecs)?,
            sketch: CountMinSketch::with_epsilon(1e-4),
            rechunked_bigs: 0,
        })
    }

    /// Big chunks re-chunked due to frequent content (the FBC trigger).
    pub fn rechunked_bigs(&self) -> u64 {
        self.rechunked_bigs
    }

    /// Deduplicates one file, given its hashed big chunks.
    fn process_file(&mut self, file: &FileEntry, bigs: Vec<HashedChunk>) -> EngineResult<()> {
        let mut out = self.s.begin();
        let mut fm = FileManifest::new();

        for b in &bigs {
            // Frequency bookkeeping happens on the raw input (small
            // granularity), before any dedup decision — "estimated from
            // data that have been previously processed".
            let big_bytes = Bytes::copy_from_slice(b.slice(&file.data));
            let smalls = chunk_and_hash(&self.small_chunker, &big_bytes);
            let frequent =
                smalls.iter().any(|s| self.sketch.estimate(&s.hash) >= FREQUENCY_THRESHOLD);
            for s in &smalls {
                self.sketch.add(&s.hash);
            }

            // Big-chunk dedup first.
            if let Some(extent) = self.s.lookup(b.hash, Query::Big)? {
                self.s.dup(&mut fm, extent);
            } else if !frequent {
                // Cold content: store the big chunk whole (one entry, one
                // hook — cheap metadata).
                self.s.store(&mut out, &mut fm, b.hash, &big_bytes);
            } else {
                // Frequent content inside: re-chunk and dedup at the small
                // granularity.
                self.rechunked_bigs += 1;
                for s in &smalls {
                    self.s.dedup_chunk(Query::Small, &mut out, &mut fm, s, &big_bytes)?;
                }
            }
        }
        // As in Bimodal, hooks exist for every stored chunk, big or small.
        self.s.commit_file(file, &fm, out, ManifestFormat::Plain, Scaffold::hook_every_entry)
    }
}

impl<B: Backend> Deduplicator for FbcEngine<B> {
    type Backend = B;

    fn name(&self) -> &'static str {
        "fbc"
    }

    fn process_snapshot(&mut self, snapshot: &Snapshot) -> EngineResult<()> {
        ingest_files(self, snapshot, |e| &mut e.s, Self::process_file)
    }

    fn finish(&mut self) -> EngineResult<DedupReport> {
        let ram = self.s.bloom.ram_bytes() + self.sketch.ram_bytes();
        self.s.finish(self.name(), ram as u64)
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
