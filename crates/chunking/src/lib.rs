//! Content-defined chunking for the `mhd-dedup` workspace.
//!
//! The paper's chunker is the classic Rabin-fingerprint sliding-window
//! scheme from LBFS \[4\]: a fingerprint is computed at every byte position
//! over a small trailing window, and a position is a *cut point* when the
//! fingerprint matches a predefined pattern and the chunk is longer than a
//! lower bound, or unconditionally when the chunk reaches an upper bound.
//! This crate implements:
//!
//! * [`poly`] — carry-less GF(2) polynomial arithmetic with an
//!   irreducibility test (Rabin's criterion), used to derive the fingerprint
//!   tables from a provably irreducible modulus,
//! * [`RabinFingerprint`] — the table-driven rolling fingerprint itself,
//! * [`RabinChunker`] — the LBFS-style min/avg/max content-defined chunker
//!   (the paper's base chunker, §II),
//! * [`FixedChunker`] — fixed-size partitioning (FSP), the Venti/OceanStore
//!   strawman that suffers from boundary shifting, and
//! * [`FastCdcChunker`] — the gear-hash chunker with FastCDC-style
//!   normalized chunking.
//!
//! Chunker choice is a first-class parameter: [`ChunkerKind`] names each
//! algorithm (`rabin|fixed|fastcdc`), and [`AnyChunker`] is the
//! concrete dispatch enum engines embed.
//!
//! All chunkers implement the [`Chunker`] trait and produce boundaries that
//! exactly tile the input; `concat(chunks) == input` always holds.

#![forbid(unsafe_code)]

pub mod poly;

mod cdc;
mod fastcdc;
mod fixed;
mod kind;
mod params;
mod rabin;
mod stream;

#[cfg(test)]
mod matrix;

pub use cdc::RabinChunker;
pub use fastcdc::FastCdcChunker;
pub use fixed::FixedChunker;
pub use kind::{AnyChunker, ChunkerKind};
pub use params::{ChunkerParams, ParamError, DEFAULT_WINDOW};
pub use rabin::{RabinFingerprint, RabinTables, DEFAULT_POLY};
pub use stream::StreamChunker;

/// A chunk boundary description: a half-open byte range within one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the chunk within the input.
    pub offset: usize,
    /// Chunk length in bytes (always > 0).
    pub len: usize,
}

impl Span {
    /// Exclusive end offset.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }
}

/// A content-defined (or fixed) chunking strategy.
///
/// Implementations return the *exclusive end offsets* of every chunk, in
/// increasing order, with the final entry equal to `data.len()`. An empty
/// input produces no cuts.
///
/// The trait is object-safe: engines hold `&dyn Chunker` (or the concrete
/// [`AnyChunker`] enum) so the algorithm is a runtime parameter.
pub trait Chunker {
    /// Finds the end of the next chunk starting at `start` within `data`.
    ///
    /// Returns an offset in `(start, data.len()]`, never more than
    /// [`Chunker::max_chunk_size`] past `start`. This defines the
    /// chunker: chained from 0 it gives the cut list, [`StreamChunker`]
    /// builds on it, and engines call it to re-chunk sub-ranges
    /// (Bimodal/SubChunk re-chunking, HHR byte-range splitting) without
    /// materialising a boundary vector.
    fn next_cut(&self, data: &[u8], start: usize) -> usize;

    /// Expected (average) chunk size in bytes, used by engines for
    /// parameter scaling (`ECS` in the paper).
    fn expected_chunk_size(&self) -> usize;

    /// Upper bound on the length of any produced chunk.
    ///
    /// [`StreamChunker`] uses this as its look-ahead horizon: a cut is
    /// final once at least this many bytes are buffered past it.
    fn max_chunk_size(&self) -> usize;

    /// Returns the sorted, exclusive end offsets of all chunks of `data`.
    ///
    /// The default chains [`Chunker::next_cut`] from 0. An implementation
    /// may override it with a whole-buffer scan that is faster than one
    /// cut at a time — [`FixedChunker`] computes the multiples,
    /// [`RabinChunker`] finds candidates in four lanes — but the result
    /// must equal the chained list; the chunker matrix checks that for
    /// every implementation.
    fn cut_points(&self, data: &[u8]) -> Vec<usize> {
        let mut cuts = Vec::with_capacity(data.len() / self.expected_chunk_size().max(1) + 1);
        let mut start = 0usize;
        while start < data.len() {
            let end = self.next_cut(data, start);
            debug_assert!(end > start, "next_cut must make progress");
            cuts.push(end);
            start = end;
        }
        cuts
    }

    /// Convenience: full [`Span`] list tiling `data`.
    fn spans(&self, data: &[u8]) -> Vec<Span> {
        let cuts = {
            let _timer = mhd_obs::span!("chunking.find_cuts_ns");
            self.cut_points(data)
        };
        let mut spans = Vec::with_capacity(cuts.len());
        let mut start = 0usize;
        let sizes = mhd_obs::histogram!("chunking.chunk_bytes");
        for end in cuts {
            debug_assert!(end > start, "cut points must strictly increase");
            sizes.record((end - start) as u64);
            spans.push(Span { offset: start, len: end - start });
            start = end;
        }
        debug_assert_eq!(start, data.len(), "chunks must tile the input");
        mhd_obs::counter!("chunking.chunks").add(spans.len() as u64);
        spans
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    struct Halver;
    impl Chunker for Halver {
        fn next_cut(&self, data: &[u8], start: usize) -> usize {
            if start == 0 && data.len() >= 2 {
                data.len() / 2
            } else {
                data.len()
            }
        }
        fn expected_chunk_size(&self) -> usize {
            0
        }
        fn max_chunk_size(&self) -> usize {
            usize::MAX
        }
    }

    #[test]
    fn spans_tile_input() {
        let data = [0u8; 10];
        let spans = Halver.spans(&data);
        assert_eq!(spans, vec![Span { offset: 0, len: 5 }, Span { offset: 5, len: 5 }]);
        assert_eq!(spans.last().unwrap().end(), data.len());
    }

    #[test]
    fn empty_input_no_spans() {
        assert!(Halver.spans(&[]).is_empty());
    }
}
