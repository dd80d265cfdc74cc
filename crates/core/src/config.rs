//! Engine configuration.

use mhd_chunking::ChunkerKind;
use serde::{Deserialize, Serialize};

/// How HHR represents the duplicate region it discovers inside a merged
/// chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HhrDupGranularity {
    /// One hash for the whole duplicate region — the paper's layout
    /// ("one hash representing the duplicate chunk(s)"). Minimal metadata;
    /// a recurrence of the same slice re-verifies by byte comparison.
    Single,
    /// One hash per matched small chunk. Slightly more metadata, but a
    /// recurring slice then matches entirely by hash with no reload —
    /// the ablation counterpart benchmarked in `ablation.rs`.
    PerChunk,
}

/// How MHD indexes its Hooks globally (§V: "the MHD algorithm can also be
/// implemented in conjunction with the sparse index data structure ...
/// we denote the bloom filter based implementation ... BF-MHD").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HookIndex {
    /// BF-MHD: Hooks are tiny on-disk files gated by an in-RAM Bloom
    /// filter (an inode + 20 bytes each; one disk probe per positive).
    Bloom,
    /// SI-MHD: Hooks are buffered in an in-RAM sparse index — no Hook
    /// inodes or disk probes, more RAM.
    SparseIndex,
}

/// MHD-specific switches, exposed for the ablation benches of DESIGN.md §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MhdOptions {
    /// Hook index implementation (BF-MHD vs SI-MHD).
    pub hook_index: HookIndex,
    /// Duplicate-region representation after HHR.
    pub hhr_dup: HhrDupGranularity,
    /// Create the EdgeHash entry on HHR (paper behaviour). Disabling merges
    /// the edge block into the remainder hash, so the same duplicate slice
    /// keeps re-triggering byte reloads.
    pub edge_hash: bool,
    /// Perform backward match extension (disabling leaves forward-only, an
    /// ablation of the bi-directional mechanism).
    pub backward_extension: bool,
    /// Perform forward match extension.
    pub forward_extension: bool,
}

impl Default for MhdOptions {
    fn default() -> Self {
        MhdOptions {
            hook_index: HookIndex::Bloom,
            hhr_dup: HhrDupGranularity::Single,
            edge_hash: true,
            backward_extension: true,
            forward_extension: true,
        }
    }
}

/// Parameters shared by every engine, mirroring the paper's experimental
/// setup (§V): the expected small chunk size `ECS`, the sample distance
/// `SD`, a Bloom filter, and an LRU Manifest cache.
///
/// Derived parameters follow the paper exactly: Bimodal/SubChunk use big
/// chunks of expected size `ECS × SD`; SparseIndexing uses segments of
/// `ECS × SD × 5`, at most 10 champions, and at most 5 manifests per hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Expected (small) chunk size in bytes; must be a power of two.
    pub ecs: usize,
    /// Sample distance in hashes.
    ///
    /// The paper runs SD ∈ {250, 500, 1000} against 1.0 TB; experiments
    /// here default to proportionally smaller values (the corpus is ~5000×
    /// smaller) so that `ECS × SD` stays well below a backup stream.
    pub sd: usize,
    /// Bloom filter size in bytes (the paper uses 100 MB for 1 TB; scale
    /// with your corpus).
    pub bloom_bytes: usize,
    /// Manifest cache capacity (number of resident manifests).
    pub cache_manifests: usize,
    /// Chunking algorithm used for the small-chunk stream (and, scaled to
    /// `ECS × SD`, for Bimodal/SubChunk big chunks). Persisted in store
    /// metadata so re-backups keep cutting the boundaries the store's
    /// existing chunks were built with.
    pub chunker: ChunkerKind,
    /// MHD-specific options.
    pub mhd: MhdOptions,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            ecs: 4096,
            sd: 32,
            bloom_bytes: 1 << 20,
            cache_manifests: 256,
            chunker: ChunkerKind::Rabin,
            mhd: MhdOptions::default(),
        }
    }
}

impl EngineConfig {
    /// Config with the given `ECS` and `SD`, other fields default.
    pub fn new(ecs: usize, sd: usize) -> Self {
        EngineConfig { ecs, sd, ..Default::default() }
    }

    /// Same config with a different chunking algorithm.
    pub fn with_chunker(self, chunker: ChunkerKind) -> Self {
        EngineConfig { chunker, ..self }
    }

    /// Expected big chunk size for Bimodal/SubChunk: `ECS × SD`.
    pub fn big_chunk_size(&self) -> usize {
        self.ecs * self.sd
    }

    /// SparseIndexing segment size: `ECS × SD × 5` (paper §V).
    pub fn segment_bytes(&self) -> usize {
        self.ecs * self.sd * 5
    }

    /// SparseIndexing champion budget per segment (paper §V).
    pub fn max_champions(&self) -> usize {
        10
    }

    /// SparseIndexing: manifests retained per hook (paper §V).
    pub fn manifests_per_hook(&self) -> usize {
        5
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if !self.ecs.is_power_of_two() {
            return Err(format!("ECS {} must be a power of two", self.ecs));
        }
        if self.sd < 2 {
            return Err("SD must be at least 2 (SHM merges SD-1 hashes)".into());
        }
        if self.bloom_bytes == 0 {
            return Err("bloom filter needs at least one byte".into());
        }
        if self.cache_manifests == 0 {
            return Err("manifest cache needs capacity".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_parameters_follow_paper() {
        let c = EngineConfig::new(2048, 64);
        assert_eq!(c.big_chunk_size(), 2048 * 64);
        assert_eq!(c.segment_bytes(), 2048 * 64 * 5);
        assert_eq!(c.max_champions(), 10);
        assert_eq!(c.manifests_per_hook(), 5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_params() {
        assert!(EngineConfig::new(3000, 32).validate().is_err());
        assert!(EngineConfig::new(4096, 1).validate().is_err());
        assert!(EngineConfig { bloom_bytes: 0, ..Default::default() }.validate().is_err());
        assert!(EngineConfig { cache_manifests: 0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn default_mhd_options_match_paper() {
        let o = MhdOptions::default();
        assert_eq!(o.hhr_dup, HhrDupGranularity::Single);
        assert!(o.edge_hash && o.backward_extension && o.forward_extension);
    }
}
