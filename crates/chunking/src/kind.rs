//! First-class chunker selection: [`ChunkerKind`] names an algorithm,
//! [`AnyChunker`] is the runtime-dispatched instance engines embed.
//!
//! The kind is what flows through configuration: `--chunker
//! rabin|tttd|fixed|fastcdc` on the CLI and daemon, a field in
//! `EngineConfig`, and a persisted entry in store metadata so re-backups
//! and restores keep cutting the same boundaries the store was built with.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::{Chunker, FastCdcChunker, FixedChunker, ParamError, RabinChunker, TttdChunker};

/// The selectable chunking algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChunkerKind {
    /// LBFS-style Rabin-fingerprint CDC (the paper's base chunker).
    Rabin,
    /// Two-Threshold Two-Divisor CDC with backup cuts.
    Tttd,
    /// Fixed-size partitioning (FSP).
    Fixed,
    /// Gear-hash FastCDC with normalized chunking.
    FastCdc,
}

impl ChunkerKind {
    /// Every kind, in CLI presentation order.
    pub const ALL: [ChunkerKind; 4] =
        [ChunkerKind::Rabin, ChunkerKind::Tttd, ChunkerKind::Fixed, ChunkerKind::FastCdc];

    /// The CLI/store-metadata spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ChunkerKind::Rabin => "rabin",
            ChunkerKind::Tttd => "tttd",
            ChunkerKind::Fixed => "fixed",
            ChunkerKind::FastCdc => "fastcdc",
        }
    }

    /// Builds the chunker at the given expected chunk size (`ECS`).
    pub fn build(&self, avg: usize) -> Result<AnyChunker, ParamError> {
        Ok(match self {
            ChunkerKind::Rabin => AnyChunker::Rabin(RabinChunker::with_avg(avg)?),
            ChunkerKind::Tttd => AnyChunker::Tttd(TttdChunker::with_avg(avg)?),
            ChunkerKind::Fixed => {
                if avg == 0 {
                    return Err(ParamError::ZeroMin);
                }
                AnyChunker::Fixed(FixedChunker::new(avg))
            }
            ChunkerKind::FastCdc => AnyChunker::FastCdc(FastCdcChunker::with_avg(avg)?),
        })
    }
}

impl Default for ChunkerKind {
    /// Rabin is the paper's base chunker and the pre-existing behaviour of
    /// every engine, so it stays the default.
    fn default() -> Self {
        ChunkerKind::Rabin
    }
}

impl fmt::Display for ChunkerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error for an unrecognised `--chunker` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownChunker(pub String);

impl fmt::Display for UnknownChunker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown chunker `{}` (expected rabin|tttd|fixed|fastcdc)", self.0)
    }
}

impl std::error::Error for UnknownChunker {}

impl FromStr for ChunkerKind {
    type Err = UnknownChunker;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ChunkerKind::ALL
            .into_iter()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| UnknownChunker(s.to_string()))
    }
}

/// A concrete chunker instance behind a [`ChunkerKind`]-shaped enum.
///
/// Enum dispatch keeps the type `Clone + Send + Sync` without an
/// allocation or a `dyn` indirection on the per-chunk hot path.
#[derive(Clone)]
pub enum AnyChunker {
    /// See [`RabinChunker`].
    Rabin(RabinChunker),
    /// See [`TttdChunker`].
    Tttd(TttdChunker),
    /// See [`FixedChunker`].
    Fixed(FixedChunker),
    /// See [`FastCdcChunker`].
    FastCdc(FastCdcChunker),
}

impl AnyChunker {
    /// Which algorithm this instance runs.
    pub fn kind(&self) -> ChunkerKind {
        match self {
            AnyChunker::Rabin(_) => ChunkerKind::Rabin,
            AnyChunker::Tttd(_) => ChunkerKind::Tttd,
            AnyChunker::Fixed(_) => ChunkerKind::Fixed,
            AnyChunker::FastCdc(_) => ChunkerKind::FastCdc,
        }
    }

    fn inner(&self) -> &dyn Chunker {
        match self {
            AnyChunker::Rabin(c) => c,
            AnyChunker::Tttd(c) => c,
            AnyChunker::Fixed(c) => c,
            AnyChunker::FastCdc(c) => c,
        }
    }
}

impl Chunker for AnyChunker {
    fn next_cut(&self, data: &[u8], start: usize) -> usize {
        self.inner().next_cut(data, start)
    }

    fn expected_chunk_size(&self) -> usize {
        self.inner().expected_chunk_size()
    }

    fn max_chunk_size(&self) -> usize {
        self.inner().max_chunk_size()
    }

    fn cut_points(&self, data: &[u8]) -> Vec<usize> {
        self.inner().cut_points(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_kind() {
        for kind in ChunkerKind::ALL {
            assert_eq!(kind.as_str().parse::<ChunkerKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert!("gzip".parse::<ChunkerKind>().is_err());
    }

    #[test]
    fn serde_round_trips_every_kind() {
        for kind in ChunkerKind::ALL {
            let json = serde_json::to_string(&kind).unwrap();
            let back: ChunkerKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn build_produces_matching_kind() {
        for kind in ChunkerKind::ALL {
            let chunker = kind.build(1024).unwrap();
            assert_eq!(chunker.kind(), kind);
            assert_eq!(chunker.expected_chunk_size(), 1024);
            assert!(chunker.max_chunk_size() >= 1024);
        }
    }

    #[test]
    fn build_rejects_bad_avg() {
        for kind in ChunkerKind::ALL {
            assert!(kind.build(0).is_err(), "{kind} accepted avg 0");
        }
        // Power-of-two applies to the CDC family only; Fixed takes any size.
        assert!(ChunkerKind::Rabin.build(3000).is_err());
        assert!(ChunkerKind::Fixed.build(3000).is_ok());
    }
}
