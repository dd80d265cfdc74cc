//! Byte-exact reconstruction of the original files from FileManifests —
//! the correctness proof for every engine (a deduplicator that cannot
//! restore its input has eliminated the wrong bytes).

use mhd_store::{Backend, DiskChunkId, FileManifest, StoreResult, Substrate};
use mhd_workload::Corpus;

/// Reconstructs one file by concatenating its recipe's extents, each read
/// straight into the one buffer reserved for the whole file.
pub fn restore_file<B: Backend>(substrate: &mut Substrate<B>, name: &str) -> StoreResult<Vec<u8>> {
    let fm = substrate.load_file_manifest(name)?;
    assemble(&fm, |id, offset, len, out| substrate.append_chunk_range(id, offset, len, out))
}

/// Concatenates `fm`'s extents, each appended by `read` (container,
/// offset, length, buffer) into the one buffer reserved for the file.
pub fn assemble(
    fm: &FileManifest,
    mut read: impl FnMut(DiskChunkId, u64, u64, &mut Vec<u8>) -> StoreResult<()>,
) -> StoreResult<Vec<u8>> {
    let mut out = Vec::with_capacity(fm.total_len() as usize);
    for extent in fm.extents() {
        read(extent.container, extent.offset, extent.len, &mut out)?;
    }
    Ok(out)
}

/// Restores every file of `corpus` and compares against the original
/// bytes. Returns the number of files verified, or a description of the
/// first mismatch.
pub fn verify_corpus<B: Backend>(
    substrate: &mut Substrate<B>,
    corpus: &Corpus,
) -> Result<usize, String> {
    let mut verified = 0usize;
    for snapshot in &corpus.snapshots {
        for file in &snapshot.files {
            let restored = restore_file(substrate, &file.path)
                .map_err(|e| format!("restoring {}: {e}", file.path))?;
            if restored != file.data {
                let diverge = restored
                    .iter()
                    .zip(file.data.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or(restored.len().min(file.data.len()));
                return Err(format!(
                    "{}: restored {} bytes vs original {} (first divergence at {diverge})",
                    file.path,
                    restored.len(),
                    file.data.len()
                ));
            }
            verified += 1;
        }
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use crate::{CdcEngine, Deduplicator, EngineConfig, MhdEngine};
    use mhd_store::MemBackend;
    use mhd_workload::{Corpus, CorpusSpec};

    #[test]
    fn cdc_restores_tiny_corpus_exactly() {
        let corpus = Corpus::generate(CorpusSpec::tiny(31));
        let mut e = CdcEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
        for s in &corpus.snapshots {
            e.process_snapshot(s).unwrap();
        }
        e.finish().unwrap();
        let n = super::verify_corpus(e.substrate_mut(), &corpus).unwrap();
        assert_eq!(n as u64, corpus.snapshots.iter().map(|s| s.files.len() as u64).sum::<u64>());
    }

    #[test]
    fn mhd_restores_tiny_corpus_exactly() {
        let corpus = Corpus::generate(CorpusSpec::tiny(32));
        let mut e = MhdEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
        for s in &corpus.snapshots {
            e.process_snapshot(s).unwrap();
        }
        e.finish().unwrap();
        assert!(super::verify_corpus(e.substrate_mut(), &corpus).unwrap() > 0);
    }
}
