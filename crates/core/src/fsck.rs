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
//! [`scrub`] (`mhd fsck --deep`) then checks the stored bytes themselves:
//! every Manifest entry's hash is the SHA-1 of its byte range, and the
//! entries of a container tile it, so re-hashing every entry's range
//! covers every stored byte and names the damaged range.
//!
//! Used by the `mhd fsck` CLI command and the integration tests, which
//! run it after every engine (a deduplicator that corrupts its own
//! invariants usually still restores *today* — fsck catches the latent
//! damage).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;

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
    /// Containers read ([`scrub`] only).
    pub containers: usize,
    /// Bytes re-hashed ([`scrub`] only).
    pub bytes: u64,
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
    let mut chunk_sizes = BTreeMap::new();
    for name in &chunk_names {
        match backend.size_of(FileKind::DiskChunk, name) {
            Ok(size) => {
                chunk_sizes.insert(name.clone(), size);
            }
            Err(e) => report.problems.push(format!("chunk {name}: unreadable size: {e}")),
        }
    }

    // Manifests.
    let mut manifests = BTreeMap::new();
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
        #[expect(clippy::expect_used, reason = "payload length was checked to be 20 just above")]
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

/// Deep scrub: reads each DiskChunk once and re-hashes the byte range of
/// every Manifest entry in it against that entry's hash (bit-rot
/// detection). A mismatch is reported as the container and the entry's
/// `offset+size`. Entries tile their containers whatever session wrote
/// them, so every stored byte is checked; a container, or a range of one,
/// that no entry reaches is reported rather than skipped, and so is a
/// container an entry names that cannot be read. A range several entries
/// name (segment manifests repeat them) is hashed once; `entries` counts
/// the ranges. Manifests that do not decode are [`check_store`]'s to
/// report: the bytes they describe show up here as unreached.
pub fn scrub<B: Backend>(substrate: &mut Substrate<B>) -> IntegrityReport {
    let mut report = IntegrityReport::default();
    let backend = substrate.backend_mut();

    // Container → its distinct `(offset, size, hash)` ranges, sorted by
    // offset, each with the first (manifest, entry index) naming it.
    type Ranges = BTreeMap<(u64, u64, ChunkHash), (ManifestId, usize)>;
    let mut containers: BTreeMap<DiskChunkId, Ranges> = BTreeMap::new();
    for name in backend.list(FileKind::DiskChunk) {
        match u64::from_str_radix(&name, 16) {
            Ok(id) => {
                containers.entry(DiskChunkId(id)).or_default();
            }
            Err(_) => report.problems.push(format!("chunk {name}: non-hex name")),
        }
    }
    for name in backend.list(FileKind::Manifest) {
        let Ok(id) = u64::from_str_radix(&name, 16).map(ManifestId) else { continue };
        let Ok(manifest) =
            backend.get(FileKind::Manifest, &name).and_then(|d| Manifest::decode(id, &d))
        else {
            continue;
        };
        for (i, e) in manifest.entries.iter().enumerate() {
            containers
                .entry(e.container)
                .or_default()
                .entry((e.offset, e.size, e.hash))
                .or_insert((id, i));
        }
    }

    for (container, ranges) in containers {
        let name = container.name();
        let data = match backend.get(FileKind::DiskChunk, &name) {
            Ok(d) => d,
            Err(e) => {
                report.problems.push(format!("chunk {name}: unreadable: {e}"));
                continue;
            }
        };
        report.containers += 1;
        // Bytes reached by some in-bounds entry, and where that reach ends.
        let (mut reached, mut cursor) = (0u64, 0u64);
        for (&(offset, size, hash), &(mid, i)) in &ranges {
            let at =
                || format!("chunk {name}: manifest {} entry {i} ({offset}+{size})", mid.name());
            // Offsets come off the disk: an end past the container (or past
            // u64) is reported, never sliced.
            let Some(end) = offset.checked_add(size).filter(|&end| end <= data.len() as u64) else {
                report.problems.push(format!("{}: exceeds container size {}", at(), data.len()));
                continue;
            };
            report.entries += 1;
            report.bytes += size;
            if sha1(&data[offset as usize..end as usize]) != hash {
                report.problems.push(format!("{}: content hash mismatch (expected {hash})", at()));
            }
            if end > cursor {
                reached += end - offset.max(cursor);
                cursor = end;
            }
        }
        if reached < data.len() as u64 {
            report.problems.push(format!(
                "chunk {name}: {} of {} bytes reached by no manifest entry",
                data.len() as u64 - reached,
                data.len()
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine_tests::{random, snapshot};
    use crate::{Deduplicator, EngineConfig, EngineKind, MhdEngine};
    use mhd_store::{ManifestEntry, MemBackend};
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

    /// Flips the byte in the middle of `e`'s range and expects the scrub
    /// to name the container and the entry's `offset+size`; then undoes it.
    fn expect_damage_reported(e: &mut MhdEngine<MemBackend>, entry: ManifestEntry) {
        let name = entry.container.name();
        let at = (entry.offset + entry.size / 2) as usize;
        let backend = e.substrate_mut().backend_mut();
        let mut data = backend.get(FileKind::DiskChunk, &name).unwrap().to_vec();
        data[at] ^= 0x01;
        backend.update(FileKind::DiskChunk, &name, &data).unwrap();
        let report = scrub(e.substrate_mut());
        let range = format!("({}+{})", entry.offset, entry.size);
        assert!(
            report.problems.iter().any(|p| p.contains(&name)
                && p.contains(&range)
                && p.contains("content hash mismatch")),
            "{entry:?}: {:?}",
            report.problems
        );
        data[at] ^= 0x01;
        let backend = e.substrate_mut().backend_mut();
        backend.update(FileKind::DiskChunk, &name, &data).unwrap();
        assert!(scrub(e.substrate_mut()).is_healthy());
    }

    fn manifest_entries(e: &mut MhdEngine<MemBackend>, id: ManifestId) -> Vec<ManifestEntry> {
        let data = e.substrate_mut().backend_mut().get(FileKind::Manifest, &id.name()).unwrap();
        Manifest::decode(id, &data).unwrap().entries
    }

    #[test]
    fn scrub_names_damage_under_hook_merged_and_hhr_split_entries() {
        let mut e = MhdEngine::new(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
        let original = random(64 << 10, 2);
        let mut edited = original.clone();
        edited[30_000..31_024].copy_from_slice(&random(1024, 3));
        e.process_snapshot(&snapshot("a", vec![original])).unwrap();
        e.finish().unwrap();
        let before = manifest_entries(&mut e, ManifestId(0));
        e.process_snapshot(&snapshot("b", vec![edited])).unwrap();
        assert!(e.finish().unwrap().hhr_count > 0);

        let after = manifest_entries(&mut e, ManifestId(0));
        let hook = *after.iter().find(|x| x.is_hook).unwrap();
        let merged = *after.iter().find(|x| !x.is_hook && before.contains(x)).unwrap();
        let split = *after.iter().find(|x| !before.contains(x)).expect("an HHR part");
        let report = scrub(e.substrate_mut());
        assert!(report.is_healthy(), "{:?}", report.problems);
        assert_eq!(report.bytes, e.substrate_mut().ledger().stored_data_bytes);
        for entry in [hook, merged, split] {
            expect_damage_reported(&mut e, entry);
        }
    }

    #[test]
    fn scrub_reports_missing_and_unreached_containers() {
        let mut e = dedupped_store();
        let backend = e.substrate_mut().backend_mut();
        let victim = backend.list(FileKind::DiskChunk)[0].clone();
        backend.delete(FileKind::DiskChunk, &victim).unwrap();
        let stray = DiskChunkId(u64::MAX >> 4).name();
        backend.put(FileKind::DiskChunk, &stray, b"bytes no manifest describes").unwrap();
        let report = scrub(e.substrate_mut());
        let names = |needle: &str, what: &str| {
            report.problems.iter().any(|p| p.contains(needle) && p.contains(what))
        };
        assert!(names(&victim, "unreadable"), "{:?}", report.problems);
        assert!(
            names(&stray, "27 of 27 bytes reached by no manifest entry"),
            "{:?}",
            report.problems
        );
        assert_eq!(report.problems.len(), 2, "{:?}", report.problems);
    }

    #[test]
    fn fresh_store_of_every_engine_scrubs_clean() {
        let corpus = Corpus::generate(CorpusSpec::tiny(72));
        for kind in EngineKind::ALL {
            let mut e = kind.build(MemBackend::new(), EngineConfig::new(512, 8)).unwrap();
            for s in &corpus.snapshots {
                e.process_snapshot(s).unwrap();
            }
            let stored = e.finish().unwrap().ledger.stored_data_bytes;
            let report = scrub(e.substrate_mut());
            assert!(report.is_healthy(), "{}: {:?}", kind.label(), report.problems);
            assert!(report.entries > 0 && report.containers > 0, "{}", kind.label());
            assert_eq!(report.bytes, stored, "{}: every stored byte re-hashed once", kind.label());
        }
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
