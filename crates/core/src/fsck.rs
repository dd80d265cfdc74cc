//! Store integrity checking (`fsck` for the dedup store).
//!
//! Walks every object in a substrate and verifies the structural
//! invariants the engines maintain:
//!
//! * every Manifest decodes, references existing DiskChunks, and its
//!   entries stay in-bounds of their containers;
//! * MHD-format (HookFlags) Manifests exactly tile their DiskChunk — the
//!   invariant HHR re-chunking must preserve — and contain at least one
//!   Hook entry;
//! * every Hook points at an existing Manifest that still carries the
//!   hooked hash (Hooks are immutable and HHR never re-chunks Hook
//!   entries, so a dangling Hook means corruption);
//! * every FileManifest decodes and its extents stay in-bounds.
//!
//! Used by the `mhd fsck` CLI command and the integration tests, which
//! run it after every engine (a deduplicator that corrupts its own
//! invariants usually still restores *today* — fsck catches the latent
//! damage).

use mhd_hash::{sha1, ChunkHash};
use mhd_store::{
    Backend, DiskChunkId, FileKind, FileManifest, Manifest, ManifestFormat, ManifestId, Substrate,
};

/// Outcome of an integrity walk.
#[derive(Debug, Default)]
pub struct IntegrityReport {
    /// Manifests inspected.
    pub manifests: usize,
    /// Manifest entries inspected.
    pub entries: usize,
    /// Hooks inspected.
    pub hooks: usize,
    /// FileManifests inspected.
    pub file_manifests: usize,
    /// Human-readable problems found (empty == healthy).
    pub problems: Vec<String>,
}

impl IntegrityReport {
    /// True when no problems were found.
    pub fn is_healthy(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Walks the whole store. Reads go straight to the backend (no Table II
/// counters are charged — fsck is maintenance, not deduplication).
pub fn check_store<B: Backend>(substrate: &mut Substrate<B>) -> IntegrityReport {
    let mut report = IntegrityReport::default();
    let backend = substrate.backend_mut();

    // Container sizes, for bounds checks.
    let chunk_names = backend.list(FileKind::DiskChunk);
    let mut chunk_sizes = std::collections::BTreeMap::new();
    for name in &chunk_names {
        match backend.size_of(FileKind::DiskChunk, name) {
            Ok(size) => {
                chunk_sizes.insert(name.clone(), size);
            }
            Err(e) => report.problems.push(format!("chunk {name}: unreadable size: {e}")),
        }
    }

    // Manifests.
    let mut manifests = std::collections::BTreeMap::new();
    for name in backend.list(FileKind::Manifest) {
        let Ok(id_num) = u64::from_str_radix(&name, 16) else {
            report.problems.push(format!("manifest {name}: non-hex name"));
            continue;
        };
        let id = ManifestId(id_num);
        let data = match backend.get(FileKind::Manifest, &name) {
            Ok(d) => d,
            Err(e) => {
                report.problems.push(format!("manifest {name}: unreadable: {e}"));
                continue;
            }
        };
        let manifest = match Manifest::decode(id, &data) {
            Ok(m) => m,
            Err(e) => {
                report.problems.push(format!("manifest {name}: corrupt: {e}"));
                continue;
            }
        };
        report.manifests += 1;
        report.entries += manifest.entries.len();

        for (i, e) in manifest.entries.iter().enumerate() {
            match chunk_sizes.get(&e.container.name()) {
                None => {
                    report.problems.push(format!("manifest {name} entry {i}: missing container"))
                }
                Some(&size) if e.end() > size => report.problems.push(format!(
                    "manifest {name} entry {i}: range {}..{} exceeds container size {size}",
                    e.offset,
                    e.end()
                )),
                Some(_) => {}
            }
        }
        if manifest.format == ManifestFormat::HookFlags {
            if let Some(first) = manifest.entries.first() {
                let container_len = chunk_sizes.get(&first.container.name()).copied().unwrap_or(0);
                if let Err(e) = manifest.check_tiling(container_len) {
                    report.problems.push(format!("manifest {name}: tiling violated: {e}"));
                }
                if !manifest.entries.iter().any(|e| e.is_hook) {
                    report.problems.push(format!("manifest {name}: no Hook entry"));
                }
            }
        }
        manifests.insert(id, manifest);
    }

    // Hooks.
    for name in backend.list(FileKind::Hook) {
        report.hooks += 1;
        let payload = match backend.get(FileKind::Hook, &name) {
            Ok(p) => p,
            Err(e) => {
                report.problems.push(format!("hook {name}: unreadable: {e}"));
                continue;
            }
        };
        if payload.len() != 20 {
            report.problems.push(format!("hook {name}: payload {} != 20 bytes", payload.len()));
            continue;
        }
        // lint: allow(unwrap): payload length was checked to be 20 just above
        let mid = ManifestId(u64::from_le_bytes(payload[..8].try_into().expect("8 bytes")));
        // SparseIndexing occurrence hooks are named `hash-manifest`.
        let hash_hex = name.split('-').next().unwrap_or(&name);
        let Ok(hash) = ChunkHash::from_hex(hash_hex) else {
            report.problems.push(format!("hook {name}: non-hex hash name"));
            continue;
        };
        match manifests.get(&mid) {
            None => report.problems.push(format!("hook {name}: dangling manifest {mid:?}")),
            Some(m) => {
                if !m.entries.iter().any(|e| e.hash == hash) {
                    report.problems.push(format!("hook {name}: hash absent from manifest {mid:?}"));
                }
            }
        }
    }

    // FileManifests.
    for name in backend.list(FileKind::FileManifest) {
        let data = match backend.get(FileKind::FileManifest, &name) {
            Ok(d) => d,
            Err(e) => {
                report.problems.push(format!("recipe {name}: unreadable: {e}"));
                continue;
            }
        };
        let fm = match FileManifest::decode(&data) {
            Ok(fm) => fm,
            Err(e) => {
                report.problems.push(format!("recipe {name}: corrupt: {e}"));
                continue;
            }
        };
        report.file_manifests += 1;
        for (i, e) in fm.extents().iter().enumerate() {
            match chunk_sizes.get(&e.container.name()) {
                None => {
                    report.problems.push(format!("recipe {name} extent {i}: missing container"))
                }
                Some(&size) if e.offset + e.len > size => report.problems.push(format!(
                    "recipe {name} extent {i}: out of bounds ({}+{} > {size})",
                    e.offset, e.len
                )),
                Some(_) => {}
            }
        }
    }

    report
}

/// Deep scrub: recomputes the SHA-1 of every DiskChunk and compares it to
/// the content address recorded when the container was sealed (bit-rot
/// detection on durable backends). Containers sealed before the current
/// session whose hash is unknown (state not imported) are reported as
/// unverifiable, not unhealthy.
pub fn scrub<B: Backend>(substrate: &mut Substrate<B>) -> IntegrityReport {
    let mut report = IntegrityReport::default();
    let names = substrate.backend_mut().list(FileKind::DiskChunk);
    for name in names {
        let Ok(id_num) = u64::from_str_radix(&name, 16) else {
            report.problems.push(format!("chunk {name}: non-hex name"));
            continue;
        };
        let id = DiskChunkId(id_num);
        let Some(expected) = substrate.disk_chunk_hash(id) else {
            continue; // sealed in an earlier session without imported state
        };
        let data = match substrate.backend_mut().get(FileKind::DiskChunk, &name) {
            Ok(d) => d,
            Err(e) => {
                report.problems.push(format!("chunk {name}: unreadable: {e}"));
                continue;
            }
        };
        if sha1(&data) != expected {
            report
                .problems
                .push(format!("chunk {name}: content hash mismatch (expected {expected})"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Deduplicator, EngineConfig, MhdEngine};
    use mhd_store::MemBackend;
    use mhd_workload::{Corpus, CorpusSpec};

    fn dedupped_store() -> MhdEngine<MemBackend> {
        let corpus = Corpus::generate(CorpusSpec::tiny(71));
        let mut e = MhdEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
        for s in &corpus.snapshots {
            e.process_snapshot(s).unwrap();
        }
        e.finish().unwrap();
        e
    }

    #[test]
    fn healthy_store_passes() {
        let mut e = dedupped_store();
        let report = check_store(e.substrate_mut());
        assert!(report.is_healthy(), "problems: {:?}", report.problems);
        assert!(report.manifests > 0);
        assert!(report.entries > 0);
        assert!(report.hooks > 0);
        assert!(report.file_manifests > 0);
    }

    #[test]
    fn scrub_passes_clean_and_catches_rot() {
        let mut e = dedupped_store();
        assert!(scrub(e.substrate_mut()).is_healthy());

        // Flip a byte in one container: hash-addressed content no longer
        // matches its address.
        let backend = e.substrate_mut().backend_mut();
        let name = backend.list(FileKind::DiskChunk)[0].clone();
        let mut data = backend.get(FileKind::DiskChunk, &name).unwrap().to_vec();
        data[0] ^= 0xFF;
        backend.update(FileKind::DiskChunk, &name, &data).unwrap();
        let report = scrub(e.substrate_mut());
        assert!(report.problems.iter().any(|p| p.contains("content hash mismatch")));
    }

    #[test]
    fn detects_truncated_manifest() {
        let mut e = dedupped_store();
        let backend = e.substrate_mut().backend_mut();
        let name = backend.list(FileKind::Manifest)[0].clone();
        let data = backend.get(FileKind::Manifest, &name).unwrap();
        backend.update(FileKind::Manifest, &name, &data[..data.len() - 3]).unwrap();
        let report = check_store(e.substrate_mut());
        assert!(!report.is_healthy());
        assert!(report.problems.iter().any(|p| p.contains("corrupt")));
    }

    #[test]
    fn detects_dangling_hook() {
        let mut e = dedupped_store();
        let backend = e.substrate_mut().backend_mut();
        let hook = backend.list(FileKind::Hook)[0].clone();
        let mut payload = [0u8; 20];
        payload[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        backend.update(FileKind::Hook, &hook, &payload).unwrap();
        let report = check_store(e.substrate_mut());
        assert!(report.problems.iter().any(|p| p.contains("dangling")));
    }

    #[test]
    fn detects_bad_hook_payload_size() {
        let mut e = dedupped_store();
        let backend = e.substrate_mut().backend_mut();
        let hook = backend.list(FileKind::Hook)[0].clone();
        backend.update(FileKind::Hook, &hook, &[1, 2, 3]).unwrap();
        let report = check_store(e.substrate_mut());
        assert!(report.problems.iter().any(|p| p.contains("!= 20 bytes")));
    }
}
