//! Streaming chunking over any [`std::io::Read`].
//!
//! The paper's system chunks "the byte stream created by concatenating the
//! content of the files in the unprocessed file system". For inputs that do
//! not fit in memory, [`StreamChunker`] applies any [`Chunker`]
//! incrementally: it keeps a bounded window buffered, emits every chunk
//! whose end is provably stable (i.e. at least one `max`-size horizon from
//! the buffer end), and advances a consumed offset instead of memmoving
//! the buffer per chunk.

use std::io::Read;

use crate::{Chunker, RabinChunker};

/// Incrementally chunks a byte stream with bounded memory.
///
/// Works with any [`Chunker`]; the default type parameter keeps existing
/// `StreamChunker<R>` signatures meaning "Rabin", the paper's base chunker.
pub struct StreamChunker<R, C: Chunker = RabinChunker> {
    reader: R,
    chunker: C,
    buf: Vec<u8>,
    /// Bytes of `buf` below this offset are already emitted. Advancing an
    /// offset is O(1) per chunk; the old `buf.drain(..cut)` memmoved the
    /// whole remaining window per chunk — O(stream × max) traffic.
    pos: usize,
    /// Absolute stream offset of `buf[pos]`.
    base: u64,
    /// Read granularity.
    refill: usize,
    /// Reusable read buffer; the old code allocated a fresh one per
    /// `fill()` call on the hot path.
    scratch: Vec<u8>,
    eof: bool,
}

/// A chunk produced by [`StreamChunker`]: absolute offset plus owned bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamedChunk {
    /// Absolute byte offset of this chunk in the stream.
    pub offset: u64,
    /// The chunk payload.
    pub data: Vec<u8>,
}

impl<R: Read, C: Chunker> StreamChunker<R, C> {
    /// Wraps `reader`, cutting with `chunker`.
    pub fn new(reader: R, chunker: C) -> Self {
        let refill = chunker.max_chunk_size().max(64 * 1024);
        StreamChunker {
            reader,
            chunker,
            buf: Vec::new(),
            pos: 0,
            base: 0,
            refill,
            scratch: vec![0u8; refill],
            eof: false,
        }
    }

    /// Unconsumed window size beyond which consumed bytes are compacted
    /// away. Amortised: one memmove of at most a window per at least three
    /// windows consumed, bounding the buffer at ~4 windows while keeping
    /// copy traffic O(1) per byte streamed.
    fn compact_threshold(&self) -> usize {
        3 * (2 * self.chunker.max_chunk_size() + self.refill)
    }

    fn fill(&mut self) -> std::io::Result<()> {
        if self.pos >= self.compact_threshold() {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(self.buf.len() - self.pos);
            self.pos = 0;
        }
        let target = 2 * self.chunker.max_chunk_size() + self.refill;
        while !self.eof && self.buf.len() - self.pos < target {
            let n = self.reader.read(&mut self.scratch)?;
            if n == 0 {
                self.eof = true;
            } else {
                self.buf.extend_from_slice(&self.scratch[..n]);
            }
        }
        Ok(())
    }

    /// Produces the next chunk, or `Ok(None)` at end of stream.
    pub fn next_chunk(&mut self) -> std::io::Result<Option<StreamedChunk>> {
        self.fill()?;
        let window = &self.buf[self.pos..];
        if window.is_empty() {
            return Ok(None);
        }
        let cut = self.chunker.next_cut(window, 0);
        // A cut is only final if it cannot move when more data arrives:
        // either we are at EOF, or the cut is at least one full `max`
        // horizon before the buffer end (next_cut(_, 0) never looks past
        // `max_chunk_size` bytes).
        debug_assert!(self.eof || cut <= self.chunker.max_chunk_size());
        let data = window[..cut].to_vec();
        self.pos += cut;
        let offset = self.base;
        self.base += data.len() as u64;
        Ok(Some(StreamedChunk { offset, data }))
    }

    /// Drains the whole stream into a chunk list (convenience for tests and
    /// small inputs).
    pub fn collect_all(mut self) -> std::io::Result<Vec<StreamedChunk>> {
        let mut out = Vec::new();
        while let Some(c) = self.next_chunk()? {
            out.push(c);
        }
        Ok(out)
    }

    /// Current buffered bytes including the consumed prefix (test hook for
    /// the compaction bound).
    #[cfg(test)]
    fn buffered_len(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chunker, FastCdcChunker};
    use mhd_workload::Rng;

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn matches_in_memory_chunking() {
        let data = random_data(500_000, 21);
        let chunker = RabinChunker::with_avg(1024).unwrap();
        let expect = chunker.spans(&data);

        let streamed =
            StreamChunker::new(&data[..], chunker.clone()).collect_all().expect("in-memory read");
        assert_eq!(streamed.len(), expect.len());
        for (s, e) in streamed.iter().zip(&expect) {
            assert_eq!(s.offset as usize, e.offset);
            assert_eq!(&s.data[..], &data[e.offset..e.end()]);
        }
    }

    #[test]
    fn matches_in_memory_chunking_for_fastcdc() {
        let data = random_data(500_000, 24);
        let fast = FastCdcChunker::with_avg(1024).unwrap();

        let expect = fast.spans(&data);
        let streamed = StreamChunker::new(&data[..], fast.clone()).collect_all().unwrap();
        assert_eq!(streamed.len(), expect.len());
        for (s, e) in streamed.iter().zip(&expect) {
            assert_eq!((s.offset as usize, s.data.len()), (e.offset, e.len));
        }
    }

    #[test]
    fn reassembles_exactly() {
        let data = random_data(123_457, 22);
        let chunker = RabinChunker::with_avg(512).unwrap();
        let streamed = StreamChunker::new(&data[..], chunker).collect_all().unwrap();
        let rejoined: Vec<u8> = streamed.into_iter().flat_map(|c| c.data).collect();
        assert_eq!(rejoined, data);
    }

    #[test]
    fn empty_stream() {
        let chunker = RabinChunker::with_avg(512).unwrap();
        let mut s = StreamChunker::new(&[][..], chunker);
        assert!(s.next_chunk().unwrap().is_none());
    }

    /// A reader that trickles one byte at a time, exercising refill logic.
    struct Trickle<'a>(&'a [u8]);
    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn trickling_reader_equivalent() {
        let data = random_data(30_000, 23);
        let chunker = RabinChunker::with_avg(512).unwrap();
        let whole = StreamChunker::new(&data[..], chunker.clone()).collect_all().unwrap();
        let trickled = StreamChunker::new(Trickle(&data), chunker).collect_all().unwrap();
        assert_eq!(whole, trickled);
    }

    #[test]
    fn compaction_bounds_the_buffer() {
        // Stream far more data than the compaction threshold; the buffer
        // must stay bounded near threshold + one window, not grow with the
        // stream, while producing the exact in-memory boundaries.
        let chunker = RabinChunker::with_avg(256).unwrap();
        let data = random_data(2_000_000, 25);
        let expect = chunker.cut_points(&data);

        let mut s = StreamChunker::new(&data[..], chunker.clone());
        // Post-fill invariant: consumed prefix < threshold, unconsumed
        // window < target + one refill of read overshoot.
        let bound = s.compact_threshold() + 2 * chunker.max_chunk_size() + 2 * s.refill;
        let mut cuts = Vec::new();
        let mut consumed = 0usize;
        while let Some(c) = s.next_chunk().unwrap() {
            consumed += c.data.len();
            cuts.push(consumed);
            assert!(s.buffered_len() <= bound, "buffer grew to {}", s.buffered_len());
        }
        assert_eq!(cuts, expect);
    }
}
