//! DiskChunkManifests: the hash sequences describing stored data blocks.
//!
//! Per the paper (Fig. 3), a Manifest is "a sequence of hash values
//! representing the data blocks within the corresponding DiskChunk", where
//! each entry costs 36 bytes — the 20-byte hash plus 8-byte start position
//! and 8-byte size — and the MHD format adds "a one-byte Hook flag to
//! indicate whether this entry is a Hook". The SubChunk format instead
//! groups entries by container, each group sharing a 28-byte record with
//! "the address and the number of the chunks contained in the same
//! DiskChunk". SparseIndexing manifests describe *segments* whose chunks
//! can live in many containers, so each entry carries its own container
//! pointer.
//!
//! The encodings below reproduce exactly those per-entry costs, so the
//! measured `manifest_bytes` in the ledger is directly comparable to the
//! closed forms of Table I.

use mhd_hash::{ChunkHash, FxHashMap};

use crate::chunk_store::DiskChunkId;
use crate::file_manifest::Extent;
use crate::{StoreError, StoreResult};

/// Identifier of a Manifest (dense sequence number; rendered as hex for
/// the hash-addressable file name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ManifestId(pub u64);

impl ManifestId {
    /// Object name in the backend namespace.
    pub fn name(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One data block described by a Manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// SHA-1 of the block.
    pub hash: ChunkHash,
    /// The DiskChunk holding the block's bytes.
    pub container: DiskChunkId,
    /// Byte offset of the block within the container.
    pub offset: u64,
    /// Block size in bytes.
    pub size: u64,
    /// MHD Hook flag: entry points (never merged or re-chunked).
    pub is_hook: bool,
}

impl ManifestEntry {
    /// Exclusive end offset within the container.
    pub fn end(&self) -> u64 {
        self.offset + self.size
    }

    /// Where the block's bytes live.
    pub fn extent(&self) -> Extent {
        Extent { container: self.container, offset: self.offset, len: self.size }
    }
}

/// On-disk layout of a Manifest, matching the per-algorithm formats of the
/// paper's analysis (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestFormat {
    /// 36 bytes/entry, single shared container (CDC, Bimodal).
    Plain,
    /// 37 bytes/entry — Plain plus the MHD one-byte Hook flag.
    HookFlags,
    /// Groups of entries sharing a 28-byte container record, 36 bytes per
    /// entry (SubChunk's small-chunk-to-container-chunk mapping).
    Grouped,
    /// 44 bytes/entry with a per-entry container pointer (SparseIndexing
    /// segment manifests, which span containers and repeat hashes).
    PerEntryContainer,
}

const ENTRY_BASE: usize = 36; // hash 20 + offset 8 + size 8
const GROUP_HEADER: usize = 28; // container address 20 + chunk count 8
const ENVELOPE: usize = 5; // format tag 1 + entry count 4

/// A Manifest plus its identity and format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Identity (backend object name derives from this).
    pub id: ManifestId,
    /// Serialisation format (fixed per engine).
    pub format: ManifestFormat,
    /// Block descriptions, in container order for single-container formats
    /// and stream order for segment manifests.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Creates an empty manifest.
    pub fn new(id: ManifestId, format: ManifestFormat) -> Self {
        Manifest { id, format, entries: Vec::new() }
    }

    /// Encoded size in bytes without materialising the encoding.
    pub fn encoded_len(&self) -> usize {
        let n = self.entries.len();
        ENVELOPE
            + match self.format {
                ManifestFormat::Plain => 8 + n * ENTRY_BASE,
                ManifestFormat::HookFlags => 8 + n * (ENTRY_BASE + 1),
                ManifestFormat::Grouped => n * ENTRY_BASE + self.group_count() * GROUP_HEADER,
                ManifestFormat::PerEntryContainer => n * (ENTRY_BASE + 8),
            }
    }

    /// Number of maximal runs of entries sharing a container.
    pub fn group_count(&self) -> usize {
        let mut count = 0;
        let mut last: Option<DiskChunkId> = None;
        for e in &self.entries {
            if last != Some(e.container) {
                count += 1;
                last = Some(e.container);
            }
        }
        count
    }

    /// Serialises the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.push(match self.format {
            ManifestFormat::Plain => 0u8,
            ManifestFormat::HookFlags => 1,
            ManifestFormat::Grouped => 2,
            ManifestFormat::PerEntryContainer => 3,
        });
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());

        match self.format {
            ManifestFormat::Plain | ManifestFormat::HookFlags => {
                let container = self.entries.first().map(|e| e.container.0).unwrap_or(0);
                out.extend_from_slice(&container.to_le_bytes());
                for e in &self.entries {
                    debug_assert_eq!(
                        e.container.0, container,
                        "single-container format with mixed containers"
                    );
                    out.extend_from_slice(e.hash.as_bytes());
                    out.extend_from_slice(&e.offset.to_le_bytes());
                    out.extend_from_slice(&e.size.to_le_bytes());
                    if self.format == ManifestFormat::HookFlags {
                        out.push(e.is_hook as u8);
                    }
                }
            }
            ManifestFormat::Grouped => {
                let mut i = 0;
                while i < self.entries.len() {
                    let container = self.entries[i].container;
                    let run_len =
                        self.entries[i..].iter().take_while(|e| e.container == container).count();
                    // 28-byte group record: container address padded to the
                    // paper's 20-byte address width + 8-byte chunk count.
                    out.extend_from_slice(&container.0.to_le_bytes());
                    out.extend_from_slice(&[0u8; 12]);
                    out.extend_from_slice(&(run_len as u64).to_le_bytes());
                    for e in &self.entries[i..i + run_len] {
                        out.extend_from_slice(e.hash.as_bytes());
                        out.extend_from_slice(&e.offset.to_le_bytes());
                        out.extend_from_slice(&e.size.to_le_bytes());
                    }
                    i += run_len;
                }
            }
            ManifestFormat::PerEntryContainer => {
                for e in &self.entries {
                    out.extend_from_slice(e.hash.as_bytes());
                    out.extend_from_slice(&e.container.0.to_le_bytes());
                    out.extend_from_slice(&e.offset.to_le_bytes());
                    out.extend_from_slice(&e.size.to_le_bytes());
                }
            }
        }
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// Deserialises a manifest previously produced by [`Manifest::encode`].
    pub fn decode(id: ManifestId, data: &[u8]) -> StoreResult<Self> {
        let mut r = Cursor { data, pos: 0 };
        let format = match r.u8()? {
            0 => ManifestFormat::Plain,
            1 => ManifestFormat::HookFlags,
            2 => ManifestFormat::Grouped,
            3 => ManifestFormat::PerEntryContainer,
            t => return Err(StoreError::Corrupt(format!("unknown manifest format tag {t}"))),
        };
        let n = r.u32()? as usize;
        let mut entries = Vec::with_capacity(n);

        match format {
            ManifestFormat::Plain | ManifestFormat::HookFlags => {
                let container = DiskChunkId(r.u64()?);
                for _ in 0..n {
                    let hash = r.hash()?;
                    let offset = r.u64()?;
                    let size = r.u64()?;
                    let is_hook =
                        if format == ManifestFormat::HookFlags { r.u8()? != 0 } else { false };
                    entries.push(ManifestEntry { hash, container, offset, size, is_hook });
                }
            }
            ManifestFormat::Grouped => {
                while entries.len() < n {
                    let container = DiskChunkId(r.u64()?);
                    r.skip(12)?;
                    let run_len = r.u64()? as usize;
                    for _ in 0..run_len {
                        let hash = r.hash()?;
                        let offset = r.u64()?;
                        let size = r.u64()?;
                        entries.push(ManifestEntry {
                            hash,
                            container,
                            offset,
                            size,
                            is_hook: false,
                        });
                    }
                }
            }
            ManifestFormat::PerEntryContainer => {
                for _ in 0..n {
                    let hash = r.hash()?;
                    let container = DiskChunkId(r.u64()?);
                    let offset = r.u64()?;
                    let size = r.u64()?;
                    entries.push(ManifestEntry { hash, container, offset, size, is_hook: false });
                }
            }
        }
        if entries.len() != n {
            return Err(StoreError::Corrupt(format!(
                "manifest {id:?}: expected {n} entries, decoded {}",
                entries.len()
            )));
        }
        Ok(Manifest { id, format, entries })
    }

    /// Builds a hash → entry-index lookup table. Later entries win when a
    /// hash repeats (only segment manifests repeat hashes).
    pub fn build_index(&self) -> FxHashMap<ChunkHash, u32> {
        let mut map = FxHashMap::default();
        map.reserve(self.entries.len());
        for (i, e) in self.entries.iter().enumerate() {
            map.insert(e.hash, i as u32);
        }
        map
    }

    /// Verifies that the entries exactly tile `[0, container_len)` of a
    /// single container — the invariant HHR re-chunking must preserve.
    pub fn check_tiling(&self, container_len: u64) -> Result<(), String> {
        let mut cursor = 0u64;
        let container = match self.entries.first() {
            Some(e) => e.container,
            None => {
                return if container_len == 0 {
                    Ok(())
                } else {
                    Err("empty manifest for non-empty container".into())
                }
            }
        };
        for (i, e) in self.entries.iter().enumerate() {
            if e.container != container {
                return Err(format!("entry {i} switches container"));
            }
            if e.offset != cursor {
                return Err(format!("entry {i} starts at {} but cursor is {cursor}", e.offset));
            }
            if e.size == 0 {
                return Err(format!("entry {i} has zero size"));
            }
            cursor = e.end();
        }
        if cursor != container_len {
            return Err(format!("entries cover {cursor} of {container_len} bytes"));
        }
        Ok(())
    }

    /// Total bytes described by the entries.
    pub fn covered_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
    }
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> StoreResult<&[u8]> {
        if self.pos + n > self.data.len() {
            return Err(StoreError::Corrupt("manifest truncated".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// `take(N)` as a fixed-size array; the copy replaces a
    /// `try_into().expect(..)` so truncation is the only failure mode.
    fn array<const N: usize>(&mut self) -> StoreResult<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }
    fn u8(&mut self) -> StoreResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn hash(&mut self) -> StoreResult<ChunkHash> {
        Ok(ChunkHash::from_bytes(self.array()?))
    }
    fn skip(&mut self, n: usize) -> StoreResult<()> {
        self.take(n).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhd_hash::sha1;

    fn entry(i: u64, container: u64, offset: u64, size: u64, is_hook: bool) -> ManifestEntry {
        ManifestEntry {
            hash: sha1(&i.to_le_bytes()),
            container: DiskChunkId(container),
            offset,
            size,
            is_hook,
        }
    }

    fn sample(format: ManifestFormat) -> Manifest {
        let mut m = Manifest::new(ManifestId(7), format);
        let same_container =
            !matches!(format, ManifestFormat::Grouped | ManifestFormat::PerEntryContainer);
        for i in 0..10u64 {
            let c = if same_container { 1 } else { i / 3 };
            m.entries.push(entry(i, c, i * 100, 100, i % 4 == 0));
        }
        m
    }

    #[test]
    fn round_trip_all_formats() {
        for format in [
            ManifestFormat::Plain,
            ManifestFormat::HookFlags,
            ManifestFormat::Grouped,
            ManifestFormat::PerEntryContainer,
        ] {
            let m = sample(format);
            let bytes = m.encode();
            assert_eq!(bytes.len(), m.encoded_len(), "{format:?}");
            let back = Manifest::decode(m.id, &bytes).unwrap();
            // Hook flags survive only in the HookFlags format.
            if format == ManifestFormat::HookFlags {
                assert_eq!(back, m);
            } else {
                assert_eq!(back.entries.len(), m.entries.len());
                for (a, b) in back.entries.iter().zip(&m.entries) {
                    assert_eq!(
                        (a.hash, a.container, a.offset, a.size),
                        (b.hash, b.container, b.offset, b.size)
                    );
                }
            }
        }
    }

    #[test]
    fn encoded_len_matches_paper_constants() {
        let n = 10usize;
        assert_eq!(sample(ManifestFormat::Plain).encoded_len(), 5 + 8 + n * 36);
        assert_eq!(sample(ManifestFormat::HookFlags).encoded_len(), 5 + 8 + n * 37);
        // 10 entries with containers 0,0,0,1,1,1,2,2,2,3 → 4 groups.
        assert_eq!(sample(ManifestFormat::Grouped).encoded_len(), 5 + n * 36 + 4 * 28);
        assert_eq!(sample(ManifestFormat::PerEntryContainer).encoded_len(), 5 + n * 44);
    }

    #[test]
    fn group_count_counts_runs_not_distinct() {
        let mut m = Manifest::new(ManifestId(1), ManifestFormat::Grouped);
        for &c in &[1u64, 1, 2, 1] {
            let off = m.entries.len() as u64 * 10;
            m.entries.push(entry(off, c, off, 10, false));
        }
        assert_eq!(m.group_count(), 3); // runs: [1,1], [2], [1]
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            Manifest::decode(ManifestId(0), &[9, 0, 0, 0, 0]),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(Manifest::decode(ManifestId(0), &[0, 1]), Err(StoreError::Corrupt(_))));
        // Valid tag but truncated entries.
        let m = sample(ManifestFormat::Plain);
        let bytes = m.encode();
        assert!(matches!(
            Manifest::decode(m.id, &bytes[..bytes.len() - 1]),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn tiling_check_accepts_exact_cover() {
        let mut m = Manifest::new(ManifestId(1), ManifestFormat::HookFlags);
        m.entries.push(entry(0, 5, 0, 300, true));
        m.entries.push(entry(1, 5, 300, 200, false));
        assert!(m.check_tiling(500).is_ok());
    }

    #[test]
    fn tiling_check_rejects_gap_overlap_shortfall() {
        let mut gap = Manifest::new(ManifestId(1), ManifestFormat::HookFlags);
        gap.entries.push(entry(0, 5, 0, 100, false));
        gap.entries.push(entry(1, 5, 150, 100, false));
        assert!(gap.check_tiling(250).is_err());

        let mut short = Manifest::new(ManifestId(2), ManifestFormat::HookFlags);
        short.entries.push(entry(0, 5, 0, 100, false));
        assert!(short.check_tiling(200).is_err());

        let empty = Manifest::new(ManifestId(3), ManifestFormat::HookFlags);
        assert!(empty.check_tiling(0).is_ok());
        assert!(empty.check_tiling(1).is_err());
    }

    #[test]
    fn index_maps_hashes_to_positions() {
        let m = sample(ManifestFormat::HookFlags);
        let idx = m.build_index();
        for (i, e) in m.entries.iter().enumerate() {
            assert_eq!(idx.get(&e.hash), Some(&(i as u32)));
        }
    }

    #[test]
    fn covered_bytes_sums_sizes() {
        assert_eq!(sample(ManifestFormat::Plain).covered_bytes(), 1000);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_entries(same_container: bool) -> impl Strategy<Value = Vec<ManifestEntry>> {
            proptest::collection::vec((any::<u64>(), 0u64..4, 1u64..10_000, any::<bool>()), 0..40)
                .prop_map(move |raw| {
                    let mut offset = 0;
                    raw.into_iter()
                        .map(|(seed, container, size, is_hook)| {
                            let e = ManifestEntry {
                                hash: sha1(&seed.to_le_bytes()),
                                container: DiskChunkId(if same_container { 1 } else { container }),
                                offset,
                                size,
                                is_hook,
                            };
                            offset += size;
                            e
                        })
                        .collect()
                })
        }

        proptest! {
            #[test]
            fn round_trip_hookflags(entries in arb_entries(true)) {
                let m = Manifest { id: ManifestId(9), format: ManifestFormat::HookFlags, entries };
                let back = Manifest::decode(m.id, &m.encode()).unwrap();
                prop_assert_eq!(back, m);
            }

            #[test]
            fn round_trip_grouped(entries in arb_entries(false)) {
                let m = Manifest { id: ManifestId(9), format: ManifestFormat::Grouped, entries };
                let back = Manifest::decode(m.id, &m.encode()).unwrap();
                prop_assert_eq!(back.entries.len(), m.entries.len());
                for (a, b) in back.entries.iter().zip(&m.entries) {
                    prop_assert_eq!((a.hash, a.container, a.offset, a.size),
                                    (b.hash, b.container, b.offset, b.size));
                }
            }

            #[test]
            fn round_trip_per_entry_container(entries in arb_entries(false)) {
                let m = Manifest {
                    id: ManifestId(9),
                    format: ManifestFormat::PerEntryContainer,
                    entries,
                };
                let back = Manifest::decode(m.id, &m.encode()).unwrap();
                prop_assert_eq!(back.entries.len(), m.entries.len());
            }

            /// encoded_len is always exact, for every format.
            #[test]
            fn encoded_len_is_exact(entries in arb_entries(false)) {
                for format in [ManifestFormat::Grouped, ManifestFormat::PerEntryContainer] {
                    let m = Manifest { id: ManifestId(3), format, entries: entries.clone() };
                    prop_assert_eq!(m.encode().len(), m.encoded_len());
                }
            }
        }
    }
}
