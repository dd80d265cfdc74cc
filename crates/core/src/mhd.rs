//! The Metadata Harnessing Deduplication engine (BF-MHD).
//!
//! Implements §III of the paper:
//!
//! * **SHM** — non-duplicate chunks are buffered (buffer capacity 2·SD
//!   chunks; the front SD are flushed when it fills, the rest at file end).
//!   Each flushed run of up to SD chunks becomes *two* Manifest entries:
//!   the first chunk's hash is kept as a **Hook** and the remaining ≤ SD−1
//!   chunks are merged under a single hash — "the first and the last SD−1
//!   chunks respectively". Only Hook hashes enter the Bloom filter and the
//!   on-disk Hook store; merged hashes are reachable only through a cached
//!   Manifest (locality), exactly as in the paper.
//! * **BME/FME** — on a duplicate hit, the match is extended backward over
//!   the buffered chunks and forward over the lookahead, first by hash
//!   comparison, then — when the mismatching Manifest entry is a merged
//!   block that may straddle the duplicate/non-duplicate edge — by
//!   reloading the old bytes from the DiskChunk and comparing directly.
//!   A merged entry that whole incoming chunks cover exactly is first
//!   compared by *child digest* (SHA-1 over those chunks' 20-byte hashes)
//!   against the one the Manifest cache remembers for it: the digests of a
//!   file's new merged blocks are noted when its Manifest is committed,
//!   and every match confirmed by hashing the bytes notes one too. Only
//!   without a remembered digest, or with a different one (equal bytes cut
//!   differently), are the run's bytes hashed. The loop therefore hashes
//!   bytes for new merged blocks and HHR parts, and for duplicates only
//!   the first time a resident manifest meets them.
//! * **HHR** — a straddling merged entry is split into at most three new
//!   entries: the remainder, the **EdgeHash** block (sized like the first
//!   non-matching incoming chunk, to keep the same slice from re-triggering
//!   an identical re-chunk), and the duplicate region. The Manifest is
//!   mutated in cache, marked dirty, and written back on eviction or at
//!   finish. DiskChunks and Hooks are never modified.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use mhd_hash::{sha1, ChunkHash, FxHashMap, FxHashSet, Sha1};
use mhd_store::{
    Backend, Extent, FileManifest, IoStats, ManifestEntry, ManifestFormat, ManifestId, StoreError,
    Substrate,
};
use mhd_workload::{FileEntry, Snapshot};

use crate::config::{EngineConfig, HhrDupGranularity, HookIndex};
use crate::engine::{
    ingest_files, DedupReport, Deduplicator, EngineError, EngineResult, HashedChunk, HookPresence,
    Pending, Scaffold,
};

/// The BF-MHD engine (Bloom-filter-based MHD, the variant evaluated in §V).
pub struct MhdEngine<B: Backend> {
    s: Scaffold<B>,
    /// SI-MHD only: the in-RAM hook index replacing Bloom filter + on-disk
    /// Hook files.
    sparse_hooks: FxHashMap<ChunkHash, ManifestId>,
    /// Optional shared-store presence oracle (two-phase daemon commits):
    /// consulted before the Bloom filter, which then only covers the
    /// hooks this engine wrote itself.
    presence: Option<Arc<dyn HookPresence>>,
    /// When a presence oracle is installed: every hash that missed
    /// lookup, for publish-time conflict detection.
    missed: FxHashSet<ChunkHash>,
    /// `(merged hash, child digest)` of the current file's new merged
    /// entries, noted in the cache once its Manifest is committed.
    new_digests: Vec<(ChunkHash, ChunkHash)>,
}

/// Result of extending a match through one Manifest entry by byte
/// comparison.
struct ByteMatch {
    /// Whole incoming chunks matched (count).
    matched_chunks: usize,
    /// Bytes matched (sum of matched chunk lengths).
    matched_bytes: u64,
}

/// SHA-1 over the 20-byte hashes of `run`'s chunks, in order: the child
/// digest a merged entry is matched by before its bytes are (module docs).
fn child_digest<'a>(run: impl IntoIterator<Item = &'a HashedChunk>) -> ChunkHash {
    let mut h = Sha1::new();
    for c in run {
        h.update(c.hash.as_bytes());
    }
    h.finalize()
}

/// How many chunks, taken from the back of `buffer`, cover exactly `size`
/// bytes — `None` when chunk boundaries do not align with that range.
fn chunks_covering_suffix(buffer: &VecDeque<HashedChunk>, size: u64) -> Option<usize> {
    let mut total = 0u64;
    for (count, chunk) in buffer.iter().rev().enumerate() {
        total += chunk.len as u64;
        if total == size {
            return Some(count + 1);
        }
        if total > size {
            return None;
        }
    }
    None
}

/// How many leading chunks of `chunks` cover exactly `size` bytes.
fn chunks_covering_prefix(chunks: &[HashedChunk], size: u64) -> Option<usize> {
    let mut total = 0u64;
    for (count, chunk) in chunks.iter().enumerate() {
        total += chunk.len as u64;
        if total == size {
            return Some(count + 1);
        }
        if total > size {
            return None;
        }
    }
    None
}

impl<B: Backend> MhdEngine<B> {
    /// Creates an engine over `backend` with the given configuration.
    pub fn new(backend: B, config: EngineConfig) -> EngineResult<Self> {
        Ok(MhdEngine {
            s: Scaffold::new(backend, config, config.ecs)?,
            sparse_hooks: FxHashMap::default(),
            presence: None,
            missed: FxHashSet::default(),
            new_digests: Vec::new(),
        })
    }

    /// Installs a hook-presence oracle: lookups consult it before the
    /// Bloom filter (whose coverage shrinks to this engine's own hooks),
    /// every missing hook is tolerated as a plain miss (the oracle may
    /// run ahead of durable state), and every missed hash is recorded for
    /// [`MhdEngine::take_missed_hashes`]. This is the staging-engine mode
    /// of a two-phase daemon commit.
    pub fn set_hook_presence(&mut self, oracle: Arc<dyn HookPresence>) {
        self.presence = Some(oracle);
    }

    /// Drains the hashes that missed lookup since the last call (always
    /// empty unless a presence oracle is installed). A publisher
    /// intersects these with concurrently-published hooks to detect that
    /// this pipeline deduplicated against a stale view.
    pub fn take_missed_hashes(&mut self) -> FxHashSet<ChunkHash> {
        std::mem::take(&mut self.missed)
    }

    /// Records (under a presence oracle) and returns a lookup miss.
    fn miss(&mut self, hash: ChunkHash) -> EngineResult<Option<(ManifestId, u32)>> {
        if self.presence.is_some() {
            self.missed.insert(hash);
        }
        Ok(None)
    }

    /// The storage substrate (counters, ledger, restore access).
    pub fn substrate_mut(&mut self) -> &mut Substrate<B> {
        &mut self.s.substrate
    }

    /// Read access to the substrate.
    pub fn substrate(&self) -> &Substrate<B> {
        // Only &self accessors on Substrate are stats()/ledger(), which are
        // what callers need here.
        &self.s.substrate
    }

    /// Looks up an incoming chunk hash: RAM cache first, then Bloom filter,
    /// then the on-disk Hook store (loading the Manifest it points to).
    fn lookup(&mut self, hash: ChunkHash) -> EngineResult<Option<(ManifestId, u32)>> {
        if let Some(hit) = self.s.cache.find_hash(&hash) {
            self.s.substrate.stats_mut().cache_hits += 1;
            return Ok(Some(hit));
        }
        let mid = match self.s.config.mhd.hook_index {
            HookIndex::Bloom => {
                // With a presence oracle, the shared index answers for
                // hooks other sessions published; the Bloom filter only
                // covers this engine's own hooks.
                let claimed = match &self.presence {
                    Some(oracle) => oracle.contains(&hash) || self.s.bloom.contains(&hash),
                    None => self.s.bloom.contains(&hash),
                };
                if !claimed {
                    self.s.substrate.stats_mut().bloom_suppressed += 1;
                    return self.miss(hash);
                }
                match self.s.substrate.lookup_hook(hash)? {
                    Some(mid) => {
                        mhd_obs::counter!("mhd.hook_hits").inc();
                        mhd_obs::trace(mhd_obs::TraceEvent::HookHit);
                        mid
                    }
                    None => {
                        mhd_obs::counter!("mhd.bloom_false_positives").inc();
                        return self.miss(hash);
                    }
                }
            }
            HookIndex::SparseIndex => match self.sparse_hooks.get(&hash) {
                Some(&mid) => {
                    // RAM lookup: no disk probe charged.
                    mhd_obs::counter!("mhd.hook_hits").inc();
                    mhd_obs::trace(mhd_obs::TraceEvent::HookHit);
                    mid
                }
                None => return self.miss(hash),
            },
        };
        let manifest = match self.s.substrate.load_manifest(mid) {
            Ok(m) => m,
            // Under a presence oracle a hook can race the manifest it
            // points to (the lock-free index runs ahead of the publisher's
            // flush, or GC swept the manifest): degrade to a miss —
            // publish-time conflict detection re-runs the pipeline when
            // the race actually cost deduplication.
            Err(StoreError::NotFound { .. }) if self.presence.is_some() => {
                return self.miss(hash);
            }
            Err(e) => return Err(e.into()),
        };
        self.s.cache_insert(manifest)?;
        // Resolve the entry through the cache's per-manifest hash index
        // built on fill — a linear scan here is O(entries) per hook hit,
        // which dominates on large manifests.
        let idx = self.s.cache.peek(mid).and_then(|cached| cached.find(&hash));
        // Hooks are immutable and HHR never re-chunks Hook entries, so the
        // hash is always present in the Manifest its Hook points to —
        // except under a presence oracle, where the hook may map to a
        // concurrent publisher's manifest that happens to collide.
        debug_assert!(
            self.presence.is_some() || idx.is_some(),
            "hook points at manifest lacking its hash"
        );
        match idx {
            Some(i) => Ok(Some((mid, i))),
            None => self.miss(hash),
        }
    }

    /// Flushes one SHM run of up to SD buffered chunks into the builder:
    /// the first chunk becomes a Hook entry, the remaining chunks one
    /// merged entry.
    fn flush_run(
        &mut self,
        run: &[HashedChunk],
        data: &Bytes,
        out: &mut Pending,
        fm: &mut FileManifest,
    ) {
        debug_assert!(!run.is_empty() && run.len() <= self.s.config.sd);
        let container = out.builder.id();
        let first = &run[0];
        let off0 = out.builder.append(first.slice(data));
        out.entries.push(ManifestEntry {
            hash: first.hash,
            container,
            offset: off0,
            size: first.len as u64,
            is_hook: true,
        });
        if run.len() > 1 {
            let merged_start = run[1].offset as usize;
            let merged_end = run[run.len() - 1].end() as usize;
            let merged = &data[merged_start..merged_end];
            let off1 = out.builder.append(merged);
            let hash = sha1(merged);
            self.new_digests.push((hash, child_digest(&run[1..])));
            out.entries.push(ManifestEntry {
                hash,
                container,
                offset: off1,
                size: merged.len() as u64,
                is_hook: false,
            });
        }
        self.s.chunks_stored += run.len() as u64;
        fm.push(Extent { container, offset: off0, len: (run[run.len() - 1].end() - first.offset) });
    }

    /// Drains the first `count` chunks of the buffer through SHM.
    fn flush_front(
        &mut self,
        buffer: &mut VecDeque<HashedChunk>,
        count: usize,
        data: &Bytes,
        out: &mut Pending,
        fm: &mut FileManifest,
    ) {
        let mut run = Vec::with_capacity(count.min(self.s.config.sd));
        let mut remaining = count;
        while remaining > 0 {
            run.clear();
            while remaining > 0 && run.len() < self.s.config.sd {
                #[expect(
                    clippy::expect_used,
                    reason = "callers pass count <= buffer.len(), checked at entry"
                )]
                run.push(buffer.pop_front().expect("flush_front within buffer length"));
                remaining -= 1;
            }
            self.flush_run(&run, data, out, fm);
        }
    }

    /// Whether the whole chunks `run`, whose bytes are `bytes`, hold the
    /// bytes of merged entry `e` of resident manifest `mid`: by child
    /// digest when the cache remembers the same one for `e`, else by
    /// hashing `bytes` — and a match found that way is remembered.
    fn merged_run_matches<'a>(
        &mut self,
        mid: ManifestId,
        e: &ManifestEntry,
        run: impl IntoIterator<Item = &'a HashedChunk>,
        bytes: &[u8],
    ) -> bool {
        let digest = child_digest(run);
        if self.s.cache.peek(mid).and_then(|c| c.child_digest(&e.hash)) == Some(digest) {
            return true;
        }
        if sha1(bytes) != e.hash {
            return false;
        }
        self.s.cache.note_child_digest(mid, e.hash, digest);
        true
    }

    /// Byte-compares the tail of an old merged block against the buffer
    /// tail, matching whole incoming chunks only (the straddling chunk is
    /// new data and stays stored intact — the paper's Fig. 6, where Chunk
    /// N3 is not split).
    fn match_suffix(old: &[u8], buffer: &VecDeque<HashedChunk>, data: &Bytes) -> ByteMatch {
        let mut matched_chunks = 0usize;
        let mut matched_bytes = 0u64;
        for chunk in buffer.iter().rev() {
            let len = chunk.len as u64;
            if matched_bytes + len > old.len() as u64 {
                break;
            }
            let old_tail = &old
                [old.len() - (matched_bytes + len) as usize..old.len() - matched_bytes as usize];
            if old_tail != chunk.slice(data) {
                break;
            }
            matched_chunks += 1;
            matched_bytes += len;
        }
        ByteMatch { matched_chunks, matched_bytes }
    }

    /// Byte-compares the head of an old merged block against upcoming
    /// chunks, matching whole chunks only.
    fn match_prefix(old: &[u8], chunks: &[HashedChunk], data: &Bytes) -> ByteMatch {
        let mut matched_chunks = 0usize;
        let mut matched_bytes = 0u64;
        for chunk in chunks {
            let len = chunk.len as u64;
            if matched_bytes + len > old.len() as u64 {
                break;
            }
            let old_head = &old[matched_bytes as usize..(matched_bytes + len) as usize];
            if old_head != chunk.slice(data) {
                break;
            }
            matched_chunks += 1;
            matched_bytes += len;
        }
        ByteMatch { matched_chunks, matched_bytes }
    }

    /// Builds the replacement entries for a straddling merged entry `e`:
    /// remainder + EdgeHash + duplicate region (backward direction) or
    /// duplicate region + EdgeHash + remainder (forward direction).
    ///
    /// `dup_chunks` are the incoming chunks whose bytes matched (used for
    /// the per-chunk ablation granularity); `edge_len` is the length of the
    /// first non-matching incoming chunk (clamped to what remains of `e`).
    #[allow(clippy::too_many_arguments)]
    fn hhr_split(
        &mut self,
        e: ManifestEntry,
        old: &[u8],
        dup_bytes: u64,
        dup_chunks: &[HashedChunk],
        edge_len: u64,
        backward: bool,
    ) -> Vec<ManifestEntry> {
        debug_assert!(dup_bytes > 0 && dup_bytes < e.size);
        let container = e.container;
        let nondup = e.size - dup_bytes;
        let edge_len = if self.s.config.mhd.edge_hash { edge_len.min(nondup) } else { 0 };
        let rem_len = nondup - edge_len;
        self.s.hhr_count += 1;
        mhd_obs::counter!("mhd.hhr_splits").inc();
        mhd_obs::histogram!("mhd.hhr_dup_bytes").record(dup_bytes);

        let mut parts: Vec<(u64, u64, bool)> = Vec::with_capacity(3); // (rel_off, len, is_dup)
        if backward {
            // [remainder][edge][dup] — dup is the tail.
            if rem_len > 0 {
                parts.push((0, rem_len, false));
            }
            if edge_len > 0 {
                parts.push((rem_len, edge_len, false));
            }
            parts.push((nondup, dup_bytes, true));
        } else {
            // [dup][edge][remainder] — dup is the head.
            parts.push((0, dup_bytes, true));
            if edge_len > 0 {
                parts.push((dup_bytes, edge_len, false));
            }
            if rem_len > 0 {
                parts.push((dup_bytes + edge_len, rem_len, false));
            }
        }

        let mut out = Vec::with_capacity(parts.len() + dup_chunks.len());
        for (rel, len, is_dup) in parts {
            if is_dup && self.s.config.mhd.hhr_dup == HhrDupGranularity::PerChunk {
                // One entry per matched incoming chunk; their hashes are
                // already known.
                let mut cursor = rel;
                for c in dup_chunks {
                    out.push(ManifestEntry {
                        hash: c.hash,
                        container,
                        offset: e.offset + cursor,
                        size: c.len as u64,
                        is_hook: false,
                    });
                    cursor += c.len as u64;
                }
                debug_assert_eq!(cursor, rel + len);
            } else {
                out.push(ManifestEntry {
                    hash: sha1(&old[rel as usize..(rel + len) as usize]),
                    container,
                    offset: e.offset + rel,
                    size: len,
                    is_hook: false,
                });
            }
        }
        if mhd_obs::tracing() {
            mhd_obs::trace(mhd_obs::TraceEvent::HhrSplit { parts: out.len() as u64 });
        }
        out
    }

    /// Backward Match Extension. Consumes matching chunks from the buffer
    /// tail and returns their extents in reverse file order.
    fn backward_extend(
        &mut self,
        mid: ManifestId,
        hit_idx: u32,
        buffer: &mut VecDeque<HashedChunk>,
        data: &Bytes,
    ) -> EngineResult<(Vec<Extent>, u64, u64)> {
        let mut extents_rev: Vec<Extent> = Vec::new();
        let mut dup_bytes = 0u64;
        let mut dup_chunks = 0u64;
        let mut k = hit_idx as i64 - 1;

        while k >= 0 && !buffer.is_empty() {
            let e = {
                #[expect(
                    clippy::expect_used,
                    reason = "the BME loop runs under the cache pin taken at hit time"
                )]
                let cached = self.s.cache.peek(mid).expect("hit manifest resident");
                cached.manifest().entries[k as usize]
            };
            #[expect(clippy::expect_used, reason = "loop condition guarantees a non-empty buffer")]
            let tail = *buffer.back().expect("non-empty buffer");
            if e.hash == tail.hash {
                buffer.pop_back();
                extents_rev.push(e.extent());
                dup_bytes += e.size;
                dup_chunks += 1;
                k -= 1;
                continue;
            }
            // Merged entry: "new hash values are calculated for the
            // buffered chunk bytes before the HitChunk and compared with
            // the hash values ... in the Manifest" — match the trailing
            // e.size buffered bytes (when they align with whole chunks),
            // by child digest or by hash, avoiding any disk I/O for
            // fully-duplicate merged blocks.
            if !e.is_hook && e.size > tail.len as u64 {
                if let Some(count) = chunks_covering_suffix(buffer, e.size) {
                    let end = tail.end() as usize;
                    let start = end - e.size as usize;
                    let run = buffer.range(buffer.len() - count..);
                    if self.merged_run_matches(mid, &e, run, &data[start..end]) {
                        for _ in 0..count {
                            buffer.pop_back();
                        }
                        extents_rev.push(e.extent());
                        dup_bytes += e.size;
                        dup_chunks += count as u64;
                        k -= 1;
                        continue;
                    }
                }
            }
            // Mismatch. Only a merged block larger than the incoming chunk
            // can straddle the duplicate/non-duplicate edge.
            if e.is_hook || e.size <= tail.len as u64 {
                break;
            }
            let old = match self.s.substrate.read_chunk_range(e.container, e.offset, e.size) {
                Ok(old) => old,
                // Under a presence oracle the container may belong to a
                // concurrent publisher and not be flushed yet: stop
                // extending instead of failing the whole pipeline.
                Err(StoreError::NotFound { .. }) if self.presence.is_some() => break,
                Err(err) => return Err(err.into()),
            };
            let m = Self::match_suffix(&old, buffer, data);
            if m.matched_chunks == 0 {
                break;
            }
            // Record extents and drop the matched chunks; collect them for
            // the per-chunk granularity option.
            let mut matched: Vec<HashedChunk> = Vec::with_capacity(m.matched_chunks);
            let mut cursor = e.size;
            for _ in 0..m.matched_chunks {
                #[expect(
                    clippy::expect_used,
                    reason = "matched_chunks counted from this buffer while matching"
                )]
                let c = buffer.pop_back().expect("matched chunk present");
                cursor -= c.len as u64;
                extents_rev.push(Extent {
                    container: e.container,
                    offset: e.offset + cursor,
                    len: c.len as u64,
                });
                matched.push(c);
            }
            matched.reverse(); // file order
            dup_bytes += m.matched_bytes;
            dup_chunks += m.matched_chunks as u64;

            if m.matched_bytes == e.size {
                // The whole merged block matched: its hash already covers
                // exactly these bytes; no re-chunk needed; keep walking.
                k -= 1;
                continue;
            }
            // Straddle: split the entry (HHR).
            let edge_len = buffer.back().map(|c| c.len as u64).unwrap_or(0);
            let replacement = self.hhr_split(e, &old, m.matched_bytes, &matched, edge_len, true);
            self.s.cache.splice_entry(mid, k as usize, replacement);
            break;
        }
        Ok((extents_rev, dup_bytes, dup_chunks))
    }

    /// Forward Match Extension. Returns extents (file order), bytes,
    /// chunks consumed from the lookahead.
    fn forward_extend(
        &mut self,
        mid: ManifestId,
        hit_idx: u32,
        chunks: &[HashedChunk],
        mut i: usize,
        data: &Bytes,
    ) -> EngineResult<(Vec<Extent>, u64, usize)> {
        let mut extents: Vec<Extent> = Vec::new();
        let mut dup_bytes = 0u64;
        let start_i = i;
        let mut k = hit_idx as usize + 1;

        while i < chunks.len() {
            let e = {
                #[expect(
                    clippy::expect_used,
                    reason = "mid was pinned by the caller's lookup and peek never evicts"
                )]
                let cached = self.s.cache.peek(mid).expect("hit manifest resident");
                let entries = &cached.manifest().entries;
                if k >= entries.len() {
                    break;
                }
                entries[k]
            };
            let c = chunks[i];
            if e.hash == c.hash {
                extents.push(e.extent());
                dup_bytes += e.size;
                i += 1;
                k += 1;
                continue;
            }
            // Merged entry: match the next e.size bytes of lookahead (when
            // whole chunks cover them exactly), by child digest or by
            // hash — fully duplicate merged blocks match without any disk
            // I/O.
            if !e.is_hook && e.size > c.len as u64 {
                if let Some(count) = chunks_covering_prefix(&chunks[i..], e.size) {
                    let start = c.offset as usize;
                    let end = start + e.size as usize;
                    if self.merged_run_matches(mid, &e, &chunks[i..i + count], &data[start..end]) {
                        extents.push(e.extent());
                        dup_bytes += e.size;
                        i += count;
                        k += 1;
                        continue;
                    }
                }
            }
            if e.is_hook || e.size <= c.len as u64 {
                break;
            }
            let old = match self.s.substrate.read_chunk_range(e.container, e.offset, e.size) {
                Ok(old) => old,
                // Under a presence oracle the container may belong to a
                // concurrent publisher and not be flushed yet: stop
                // extending instead of failing the whole pipeline.
                Err(StoreError::NotFound { .. }) if self.presence.is_some() => break,
                Err(err) => return Err(err.into()),
            };
            let m = Self::match_prefix(&old, &chunks[i..], data);
            if m.matched_chunks == 0 {
                break;
            }
            let matched: Vec<HashedChunk> = chunks[i..i + m.matched_chunks].to_vec();
            let mut cursor = 0u64;
            for c in &matched {
                extents.push(Extent {
                    container: e.container,
                    offset: e.offset + cursor,
                    len: c.len as u64,
                });
                cursor += c.len as u64;
            }
            dup_bytes += m.matched_bytes;
            i += m.matched_chunks;

            if m.matched_bytes == e.size {
                k += 1;
                continue;
            }
            let edge_len = chunks.get(i).map(|c| c.len as u64).unwrap_or(0);
            let replacement = self.hhr_split(e, &old, m.matched_bytes, &matched, edge_len, false);
            self.s.cache.splice_entry(mid, k, replacement);
            break;
        }
        Ok((extents, dup_bytes, i - start_i))
    }

    /// Deduplicates one file, given its hashed chunks.
    fn process_file(&mut self, file: &FileEntry, chunks: Vec<HashedChunk>) -> EngineResult<()> {
        let _timer = mhd_obs::span!("stage.dedup_ns");
        let data = &file.data;

        let mut out = self.s.begin();
        let mut fm = FileManifest::new();
        let mut buffer: VecDeque<HashedChunk> = VecDeque::with_capacity(2 * self.s.config.sd);
        self.new_digests.clear();
        // Extents for still-buffered chunks are deferred; this queue holds
        // dup extents that must follow the next buffer flush in file order.
        let mut i = 0usize;

        while i < chunks.len() {
            let c = chunks[i];
            match self.lookup(c.hash)? {
                None => {
                    buffer.push_back(c);
                    self.s.slice.on_nondup();
                    if buffer.len() == 2 * self.s.config.sd {
                        // SHM partial flush: the front SD chunks can no
                        // longer be backward-extended (BME reach is the
                        // buffer) and go to the DiskChunk.
                        self.flush_front(&mut buffer, self.s.config.sd, data, &mut out, &mut fm);
                    }
                    i += 1;
                }
                Some((mid, hit_idx)) => {
                    let hit_entry = {
                        #[expect(
                            clippy::expect_used,
                            reason = "lookup_hash just resolved mid, so it is resident"
                        )]
                        let cached = self.s.cache.peek(mid).expect("resident");
                        cached.manifest().entries[hit_idx as usize]
                    };
                    debug_assert_eq!(hit_entry.size, c.len as u64, "hash hit with size mismatch");

                    let (bme_extents_rev, bme_bytes, bme_chunks) =
                        if self.s.config.mhd.backward_extension {
                            self.backward_extend(mid, hit_idx, &mut buffer, data)?
                        } else {
                            (Vec::new(), 0, 0)
                        };
                    if bme_chunks > 0 {
                        mhd_obs::counter!("mhd.bme_extensions").inc();
                        mhd_obs::counter!("mhd.bme_chunks").add(bme_chunks);
                        mhd_obs::counter!("mhd.bme_bytes").add(bme_bytes);
                        mhd_obs::trace(mhd_obs::TraceEvent::BmeExtend {
                            dir: mhd_obs::ExtendDir::Backward,
                            chunks: bme_chunks,
                        });
                    }
                    // Everything left in the buffer is confirmed
                    // non-duplicate; it precedes the dup region in file
                    // order, so flush it first.
                    let remaining = buffer.len();
                    if remaining > 0 {
                        self.flush_front(&mut buffer, remaining, data, &mut out, &mut fm);
                    }
                    for ext in bme_extents_rev.into_iter().rev() {
                        fm.push(ext);
                    }
                    fm.push(hit_entry.extent());

                    // Recompute the hit position: BME's HHR may have
                    // changed entry indices before it.
                    #[expect(
                        clippy::expect_used,
                        reason = "mid stayed resident across extend_backward (no eviction); \
                                  HHR only re-chunks non-hook entries, so the hit hash survives"
                    )]
                    let hit_idx_now = self
                        .s
                        .cache
                        .peek(mid)
                        .expect("resident")
                        .find(&c.hash)
                        .expect("hit hash still present");

                    let (fme_extents, fme_bytes, consumed) = if self.s.config.mhd.forward_extension
                    {
                        self.forward_extend(mid, hit_idx_now, &chunks, i + 1, data)?
                    } else {
                        (Vec::new(), 0, 0)
                    };
                    if consumed > 0 {
                        mhd_obs::counter!("mhd.fme_extensions").inc();
                        mhd_obs::counter!("mhd.fme_chunks").add(consumed as u64);
                        mhd_obs::counter!("mhd.fme_bytes").add(fme_bytes);
                        mhd_obs::trace(mhd_obs::TraceEvent::BmeExtend {
                            dir: mhd_obs::ExtendDir::Forward,
                            chunks: consumed as u64,
                        });
                    }
                    for ext in fme_extents {
                        fm.push(ext);
                    }

                    let slice_bytes = bme_bytes + c.len as u64 + fme_bytes;
                    let slice_chunks = bme_chunks + 1 + consumed as u64;
                    self.s.slice.on_dup(slice_bytes, slice_chunks);
                    i += 1 + consumed;
                }
            }
        }
        // Flush the buffer remainder and finalise the file.
        let remaining = buffer.len();
        if remaining > 0 {
            self.flush_front(&mut buffer, remaining, data, &mut out, &mut fm);
        }

        // Only the Hook entries are indexed: on disk behind the Bloom
        // filter (BF-MHD) or in the RAM sparse index (SI-MHD).
        let container_len = out.builder.len();
        let sparse_hooks = &mut self.sparse_hooks;
        let mut committed = None;
        self.s.commit_file(file, &fm, out, ManifestFormat::HookFlags, |s, manifest| {
            debug_assert_eq!(manifest.check_tiling(container_len), Ok(()));
            committed = Some(manifest.id);
            for e in manifest.entries.iter().filter(|e| e.is_hook) {
                match s.config.mhd.hook_index {
                    HookIndex::Bloom => s.write_hook(e.hash, manifest.id)?,
                    HookIndex::SparseIndex => {
                        // First mapping wins, like on-disk Hooks.
                        sparse_hooks.entry(e.hash).or_insert(manifest.id);
                    }
                }
            }
            Ok(())
        })?;
        // The new Manifest is resident now: its merged entries' digests
        // go with it.
        if let Some(mid) = committed {
            for (hash, digest) in self.new_digests.drain(..) {
                self.s.cache.note_child_digest(mid, hash, digest);
            }
        }
        Ok(())
    }
}

/// Serialisable snapshot of an [`MhdEngine`]'s session state: everything
/// except the backend itself and what is derived from it — the Manifest
/// cache, refilled on demand, and BF-MHD's Bloom filter, which
/// [`MhdEngine::import_state`] rebuilds from the Hook names. Enables
/// durable, resumable stores — see the `mhd` CLI.
#[derive(Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct MhdState {
    /// Substrate bookkeeping.
    pub substrate: mhd_store::SubstrateState,
    /// Sparse hook index (SI-MHD): hex hash → manifest id.
    pub sparse_hooks: Vec<(String, u64)>,
    /// Input bytes processed so far.
    pub input_bytes: u64,
    /// Duplicate slice tracker totals.
    pub dup_slices: u64,
    /// Duplicate bytes found so far.
    pub dup_bytes: u64,
    /// Duplicate chunks found so far.
    pub dup_chunks: u64,
    /// Files that produced manifests.
    pub files: u64,
    /// Stored chunk count.
    pub chunks_stored: u64,
    /// HHR operations so far.
    pub hhr_count: u64,
    /// Accumulated dedup seconds.
    pub dedup_seconds: f64,
}

/// Counter deltas of one staged commit: a fresh engine over a staging
/// substrate starts all counters at zero, so after `finish()` its
/// counters *are* the session's contribution, merged into the long-lived
/// shared engine by [`MhdEngine::absorb_delta`] when the staged objects
/// are spliced in. Only read-side [`IoStats`] travel in the delta — the
/// splice re-charges the write side through the shared substrate.
#[derive(Debug, Clone, Default)]
pub struct SessionDelta {
    /// Raw input bytes the session processed.
    pub input_bytes: u64,
    /// Duplicate slices found.
    pub dup_slices: u64,
    /// Duplicate bytes found.
    pub dup_bytes: u64,
    /// Duplicate chunks found.
    pub dup_chunks: u64,
    /// Files that produced recipes.
    pub files: u64,
    /// Chunks the session stored.
    pub chunks_stored: u64,
    /// HHR re-chunk operations.
    pub hhr_count: u64,
    /// Dedup wall-clock seconds.
    pub dedup_seconds: f64,
    /// The session's I/O counters (only read-side fields are absorbed).
    pub stats: IoStats,
}

impl<B: Backend> MhdEngine<B> {
    /// Exports this engine's counters as a session delta. Meaningful on a
    /// staging engine after [`Deduplicator::finish`], where every counter
    /// started from zero.
    pub fn export_delta(&self) -> SessionDelta {
        SessionDelta {
            input_bytes: self.s.input_bytes,
            dup_slices: self.s.slice.slices,
            dup_bytes: self.s.slice.dup_bytes,
            dup_chunks: self.s.slice.dup_chunks,
            files: self.s.files,
            chunks_stored: self.s.chunks_stored,
            hhr_count: self.s.hhr_count,
            dedup_seconds: self.s.dedup_seconds,
            stats: *self.s.substrate.stats(),
        }
    }

    /// Merges a staged session's counters into this engine.
    pub fn absorb_delta(&mut self, delta: &SessionDelta) {
        self.s.input_bytes += delta.input_bytes;
        self.s.slice.slices += delta.dup_slices;
        self.s.slice.dup_bytes += delta.dup_bytes;
        self.s.slice.dup_chunks += delta.dup_chunks;
        self.s.files += delta.files;
        self.s.chunks_stored += delta.chunks_stored;
        self.s.hhr_count += delta.hhr_count;
        self.s.dedup_seconds += delta.dedup_seconds;
        let stats = self.s.substrate.stats_mut();
        stats.chunk_input += delta.stats.chunk_input;
        stats.hook_input += delta.stats.hook_input;
        stats.manifest_input += delta.stats.manifest_input;
        stats.cache_hits += delta.stats.cache_hits;
        stats.bloom_suppressed += delta.stats.bloom_suppressed;
    }

    /// Exports the resumable session state. Call after
    /// [`Deduplicator::finish`] (so dirty manifests are flushed).
    pub fn export_state(&self) -> MhdState {
        MhdState {
            substrate: self.s.substrate.export_state(),
            sparse_hooks: self.sparse_hooks.iter().map(|(h, m)| (h.to_hex(), m.0)).collect(),
            input_bytes: self.s.input_bytes,
            dup_slices: self.s.slice.slices,
            dup_bytes: self.s.slice.dup_bytes,
            dup_chunks: self.s.slice.dup_chunks,
            files: self.s.files,
            chunks_stored: self.s.chunks_stored,
            hhr_count: self.s.hhr_count,
            dedup_seconds: self.s.dedup_seconds,
        }
    }

    /// Restores a session exported by [`MhdEngine::export_state`]. The
    /// backend must be the same durable store: BF-MHD's Bloom filter is
    /// rebuilt from its Hook names.
    pub fn import_state(&mut self, state: MhdState) -> EngineResult<()> {
        self.s.substrate.import_state(state.substrate);
        if self.s.config.mhd.hook_index == HookIndex::Bloom {
            self.s.rebuild_bloom();
        }
        self.sparse_hooks = state
            .sparse_hooks
            .into_iter()
            .map(|(h, m)| {
                ChunkHash::from_hex(&h)
                    .map(|hash| (hash, ManifestId(m)))
                    .map_err(|e| EngineError::Config(format!("corrupt hook state: {e}")))
            })
            .collect::<EngineResult<_>>()?;
        self.s.input_bytes = state.input_bytes;
        self.s.slice.slices = state.dup_slices;
        self.s.slice.dup_bytes = state.dup_bytes;
        self.s.slice.dup_chunks = state.dup_chunks;
        self.s.files = state.files;
        self.s.chunks_stored = state.chunks_stored;
        self.s.hhr_count = state.hhr_count;
        self.s.dedup_seconds = state.dedup_seconds;
        Ok(())
    }
}

impl<B: Backend> Deduplicator for MhdEngine<B> {
    type Backend = B;

    fn name(&self) -> &'static str {
        match self.s.config.mhd.hook_index {
            HookIndex::Bloom => "bf-mhd",
            HookIndex::SparseIndex => "si-mhd",
        }
    }

    fn process_snapshot(&mut self, snapshot: &Snapshot) -> EngineResult<()> {
        ingest_files(self, snapshot, |e| &mut e.s, Self::process_file)
    }

    fn finish(&mut self) -> EngineResult<DedupReport> {
        let ram_index_bytes = match self.s.config.mhd.hook_index {
            HookIndex::Bloom => self.s.bloom.ram_bytes() as u64,
            // 20-byte hash + 8-byte manifest pointer per entry.
            HookIndex::SparseIndex => 28 * self.sparse_hooks.len() as u64,
        };
        self.s.finish(self.name(), ram_index_bytes)
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

    fn engine(ecs: usize, sd: usize) -> MhdEngine<MemBackend> {
        MhdEngine::new(MemBackend::new(), EngineConfig::new(ecs, sd)).unwrap()
    }

    #[test]
    fn chunks_covering_suffix_alignment() {
        let mk = |lens: &[u32]| -> VecDeque<HashedChunk> {
            let mut off = 0u64;
            lens.iter()
                .map(|&len| {
                    let c = HashedChunk { offset: off, len, hash: sha1(&off.to_le_bytes()) };
                    off += len as u64;
                    c
                })
                .collect()
        };
        let buf = mk(&[100, 200, 300]);
        // Exact suffix coverings.
        assert_eq!(chunks_covering_suffix(&buf, 300), Some(1));
        assert_eq!(chunks_covering_suffix(&buf, 500), Some(2));
        assert_eq!(chunks_covering_suffix(&buf, 600), Some(3));
        // Misaligned or oversized.
        assert_eq!(chunks_covering_suffix(&buf, 250), None);
        assert_eq!(chunks_covering_suffix(&buf, 601), None);
        assert_eq!(chunks_covering_suffix(&mk(&[]), 1), None);
    }

    #[test]
    fn chunks_covering_prefix_alignment() {
        let mut off = 0u64;
        let chunks: Vec<HashedChunk> = [100u32, 200, 300]
            .iter()
            .map(|&len| {
                let c = HashedChunk { offset: off, len, hash: sha1(&off.to_le_bytes()) };
                off += len as u64;
                c
            })
            .collect();
        assert_eq!(chunks_covering_prefix(&chunks, 100), Some(1));
        assert_eq!(chunks_covering_prefix(&chunks, 300), Some(2));
        assert_eq!(chunks_covering_prefix(&chunks, 600), Some(3));
        assert_eq!(chunks_covering_prefix(&chunks, 150), None);
        assert_eq!(chunks_covering_prefix(&[], 1), None);
    }

    #[test]
    fn hhr_split_covers_entry_exactly() {
        // Whatever the direction/options, the split must tile the old
        // entry's byte range with no gaps or overlap.
        let mut e = engine(512, 8);
        let old = random(4096, 40);
        let entry = ManifestEntry {
            hash: sha1(&old),
            container: mhd_store::DiskChunkId(7),
            offset: 1000,
            size: 4096,
            is_hook: false,
        };
        let dup_chunks = [HashedChunk { offset: 0, len: 1024, hash: sha1(&old[3072..]) }];
        for backward in [true, false] {
            for edge_len in [0u64, 512, 10_000 /* clamped */] {
                let parts = e.hhr_split(entry, &old, 1024, &dup_chunks, edge_len, backward);
                assert!(parts.len() >= 2 && parts.len() <= 3, "{backward} {edge_len}");
                let mut cursor = entry.offset;
                for p in &parts {
                    assert_eq!(p.offset, cursor, "contiguous");
                    assert_eq!(p.container, entry.container);
                    assert!(!p.is_hook, "HHR never creates hooks");
                    cursor += p.size;
                }
                assert_eq!(cursor, entry.end(), "exact cover");
            }
        }
    }

    #[test]
    fn merged_probe_trusts_a_remembered_digest_and_falls_back_to_bytes() {
        let mut e = engine(512, 8);
        let content = random(64 << 10, 11);
        e.process_snapshot(&snapshot("a", vec![content.clone()])).unwrap();
        // One all-new file: its container holds the file's bytes in order,
        // and its Manifest is resident with a digest per merged entry.
        let mid = ManifestId(0);
        let merged =
            *e.s.cache.peek(mid).unwrap().manifest().entries.iter().find(|x| !x.is_hook).unwrap();
        let chunks = crate::engine::chunk_and_hash(&e.s.chunker, &Bytes::from(content.clone()));
        let run: Vec<HashedChunk> = chunks
            .into_iter()
            .filter(|c| c.offset >= merged.offset && c.end() <= merged.end())
            .collect();
        assert_eq!(run.iter().map(|c| c.len as u64).sum::<u64>(), merged.size);
        let bytes = &content[merged.offset as usize..merged.end() as usize];
        let wrong = vec![0u8; bytes.len()];

        // The remembered digest decides: the bytes handed in are not hashed.
        assert!(e.merged_run_matches(mid, &merged, &run, &wrong));
        // The same bytes cut into other chunks have another digest: the
        // probe hashes the bytes, matches only the right ones, and
        // remembers the new digest.
        let recut =
            [HashedChunk { offset: merged.offset, len: bytes.len() as u32, hash: sha1(bytes) }];
        assert!(!e.merged_run_matches(mid, &merged, &recut, &wrong));
        assert!(e.merged_run_matches(mid, &merged, &recut, bytes));
        assert!(e.merged_run_matches(mid, &merged, &recut, &wrong));
    }

    #[test]
    fn identical_second_file_is_fully_dup() {
        let mut e = engine(512, 8);
        let content = random(64 << 10, 1);
        e.process_snapshot(&snapshot("a", vec![content.clone()])).unwrap();
        e.process_snapshot(&snapshot("b", vec![content])).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.input_bytes, 2 * (64 << 10));
        // Second file eliminated entirely: stored bytes equal one copy.
        assert_eq!(r.ledger.stored_data_bytes, 64 << 10);
        assert!(r.dup_bytes >= (64 << 10) - 4096, "dup bytes {}", r.dup_bytes);
        // Only the first file produced a DiskChunk + Manifest.
        assert_eq!(r.files, 1);
        assert_eq!(r.stats.chunk_output, 1);
    }

    #[test]
    fn mutation_in_middle_triggers_hhr() {
        let mut e = engine(512, 8);
        let original = random(64 << 10, 2);
        let mut edited = original.clone();
        // Overwrite 1 KiB in the middle.
        let patch = random(1024, 3);
        edited[30_000..31_024].copy_from_slice(&patch);

        e.process_snapshot(&snapshot("a", vec![original])).unwrap();
        e.process_snapshot(&snapshot("b", vec![edited])).unwrap();
        let r = e.finish().unwrap();
        // Must have found duplicates on both sides of the edit...
        assert!(r.dup_bytes > 48 << 10, "dup {}", r.dup_bytes);
        // ...via hysteresis re-chunking with byte reloads.
        assert!(r.hhr_count >= 1, "expected HHR, got {}", r.hhr_count);
        assert!(r.stats.chunk_input >= 1);
        // Manifest grew: updates happened at write-back.
        assert!(r.stats.manifest_output >= r.files);
    }

    #[test]
    fn hhr_bounded_by_2l() {
        let mut e = engine(512, 8);
        let base = random(128 << 10, 4);
        let mut day2 = base.clone();
        for site in [20_000usize, 60_000, 100_000] {
            let patch = random(600, site as u64);
            day2[site..site + 600].copy_from_slice(&patch);
        }
        e.process_snapshot(&snapshot("a", vec![base])).unwrap();
        e.process_snapshot(&snapshot("b", vec![day2])).unwrap();
        let r = e.finish().unwrap();
        // Paper bound: chunk reloads ≤ 2L.
        assert!(
            r.stats.chunk_input <= 2 * r.dup_slices,
            "reloads {} > 2L = {}",
            r.stats.chunk_input,
            2 * r.dup_slices
        );
    }

    #[test]
    fn manifest_entry_count_is_harnessed() {
        // SHM: a file of n chunks yields ~2·n/SD entries, not n.
        let sd = 8;
        let mut e = engine(512, sd);
        let content = random(256 << 10, 5); // ~512 chunks at ECS 512
        e.process_snapshot(&snapshot("a", vec![content])).unwrap();
        let r = e.finish().unwrap();
        let n = r.chunks_stored;
        // Entries ≈ 2·N/SD; allow slack for per-file rounding.
        let max_entries = 2 * n / sd as u64 + 4 * r.files;
        let measured_entries = (r.ledger.manifest_bytes.saturating_sub(13 * r.files)) / 37;
        assert!(
            measured_entries <= max_entries,
            "entries {measured_entries} exceed SHM bound {max_entries} (N={n})"
        );
    }

    #[test]
    fn hooks_are_sampled_not_per_chunk() {
        let sd = 8;
        let mut e = engine(512, sd);
        let content = random(128 << 10, 6);
        e.process_snapshot(&snapshot("a", vec![content])).unwrap();
        let r = e.finish().unwrap();
        assert!(r.ledger.inodes_hooks <= r.chunks_stored / sd as u64 + 2 * r.files);
        assert!(r.ledger.inodes_hooks >= r.files, "at least one hook per manifest");
    }

    #[test]
    fn empty_and_tiny_files() {
        let mut e = engine(512, 4);
        e.process_snapshot(&snapshot("a", vec![vec![], vec![1, 2, 3], random(100, 7)])).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.input_bytes, 103);
        // Empty file still gets a (zero-extent) FileManifest.
        assert_eq!(r.ledger.inodes_file_manifests, 3);
    }

    #[test]
    fn buffer_overflow_flushes_partially() {
        // More than 2·SD chunks in one file forces mid-file SHM flushes.
        let sd = 4;
        let mut e = engine(512, sd);
        let content = random(64 << 10, 8); // ~128 chunks >> 2·SD = 8
        e.process_snapshot(&snapshot("a", vec![content])).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.files, 1);
        assert_eq!(r.stats.chunk_output, 1, "still one DiskChunk per file");
        assert!(r.ledger.inodes_hooks > 2, "multiple SHM runs → multiple hooks");
    }

    #[test]
    fn si_mhd_uses_ram_not_hook_inodes() {
        let content = random(96 << 10, 20);
        let run = |index: crate::HookIndex| {
            let mut cfg = EngineConfig::new(512, 8);
            cfg.mhd.hook_index = index;
            let mut e = MhdEngine::new(MemBackend::new(), cfg).unwrap();
            e.process_snapshot(&snapshot("a", vec![content.clone()])).unwrap();
            e.process_snapshot(&snapshot("b", vec![content.clone()])).unwrap();
            e.finish().unwrap()
        };
        let bf = run(crate::HookIndex::Bloom);
        let si = run(crate::HookIndex::SparseIndex);
        // Same dedup outcome...
        assert_eq!(bf.dup_bytes, si.dup_bytes);
        assert_eq!(bf.ledger.stored_data_bytes, si.ledger.stored_data_bytes);
        // ...but SI keeps hooks in RAM: no hook inodes, no disk probes.
        assert!(bf.ledger.inodes_hooks > 0);
        assert_eq!(si.ledger.inodes_hooks, 0);
        assert_eq!(si.stats.hook_input, 0);
        assert!(si.ram_index_bytes > 0);
        assert_eq!(si.algorithm, "si-mhd");
        assert_eq!(bf.algorithm, "bf-mhd");
    }

    #[test]
    fn forward_only_ablation_finds_less() {
        let base = random(96 << 10, 9);
        let mut day2 = base.clone();
        let patch = random(700, 10);
        day2[40_000..40_700].copy_from_slice(&patch);

        let run = |opts: crate::MhdOptions| {
            let mut cfg = EngineConfig::new(512, 8);
            cfg.mhd = opts;
            let mut e = MhdEngine::new(MemBackend::new(), cfg).unwrap();
            e.process_snapshot(&snapshot("a", vec![base.clone()])).unwrap();
            e.process_snapshot(&snapshot("b", vec![day2.clone()])).unwrap();
            e.finish().unwrap()
        };
        let full = run(crate::MhdOptions::default());
        let fwd_only = run(crate::MhdOptions { backward_extension: false, ..Default::default() });
        assert!(full.dup_bytes >= fwd_only.dup_bytes);
    }

    /// BF-MHD's filter summarises the Hook set: with no Hook deleted, the
    /// one rebuilt at import is bit for bit the one built insert by
    /// insert, mid-corpus and after the rest of it — from a `MemBackend`'s
    /// Hooks, and from the Hook log a directory store reopens.
    #[test]
    fn bloom_rebuilt_at_import_is_the_incremental_one() {
        use crate::statefile::{self, StoreMeta};
        use mhd_store::IoConfig;
        use mhd_workload::{Corpus, CorpusSpec};
        let corpus = Corpus::generate(CorpusSpec::tiny(813));
        let config = EngineConfig::new(512, 8);
        let half = corpus.snapshots.len() / 2;
        let mut whole = MhdEngine::new(MemBackend::new(), config).unwrap();
        let mut first = MhdEngine::new(MemBackend::new(), config).unwrap();
        let root = std::env::temp_dir().join(format!("mhd-bloom-import-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let meta = StoreMeta { ecs: 512, sd: 8, streams: 0, chunker: config.chunker };
        let open = || statefile::open_write(&root, meta, IoConfig::default(), |b| b).unwrap();
        let mut on_disk = open();
        for s in &corpus.snapshots[..half] {
            whole.process_snapshot(s).unwrap();
            first.process_snapshot(s).unwrap();
            on_disk.engine.process_snapshot(s).unwrap();
        }
        let _ = first.finish().unwrap();
        let state = first.export_state();
        let backend = std::mem::replace(first.substrate_mut().backend_mut(), MemBackend::new());
        let mut resumed = MhdEngine::new(backend, config).unwrap();
        resumed.import_state(state).unwrap();
        on_disk.commit().unwrap();
        drop(on_disk);
        let mut reopened = open();
        assert!(whole.s.bloom.fill_ratio() > 0.0);
        assert_eq!(resumed.s.bloom, whole.s.bloom, "rebuilt mid-corpus");
        assert_eq!(reopened.engine.s.bloom, whole.s.bloom, "rebuilt from the Hook log");
        for s in &corpus.snapshots[half..] {
            whole.process_snapshot(s).unwrap();
            resumed.process_snapshot(s).unwrap();
            reopened.engine.process_snapshot(s).unwrap();
        }
        assert_eq!(resumed.s.bloom, whole.s.bloom, "after the rest of the corpus");
        assert_eq!(reopened.engine.s.bloom, whole.s.bloom, "the directory store, at the end");
        drop(reopened);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A reopened store's filter holds exactly its Hooks: every one that
    /// remains, none that a GC swept or an open-time rollback deleted.
    #[test]
    fn reopened_bloom_holds_no_deleted_hook() {
        use crate::statefile::{self, StoreMeta};
        use mhd_store::{plain_hook_hash, BatchedDirBackend, FileKind, IoConfig};

        let root = std::env::temp_dir().join(format!("mhd-bloom-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let meta =
            StoreMeta { ecs: 512, sd: 8, streams: 0, chunker: EngineConfig::new(512, 8).chunker };
        let open = || statefile::open_write(&root, meta, IoConfig::default(), |b| b).unwrap();
        let hooks = |backend: &mut dyn Backend| -> FxHashSet<ChunkHash> {
            backend.list(FileKind::Hook).iter().filter_map(|n| plain_hook_hash(n)).collect()
        };
        // `before`: the Hooks on disk before some were deleted.
        let check = |engine: &mut MhdEngine<BatchedDirBackend>, before: FxHashSet<ChunkHash>| {
            let kept = hooks(engine.substrate_mut().backend_mut());
            let gone: Vec<_> = before.difference(&kept).collect();
            assert!(!gone.is_empty() && kept.is_subset(&before));
            assert!(kept.iter().all(|h| engine.s.bloom.contains(h)), "a kept hook is missing");
            assert!(!gone.iter().any(|h| engine.s.bloom.contains(h)), "a deleted hook is in");
        };
        let backup = |stream: &str, seed: u64| {
            let mut opened = open();
            opened.begin_stream(stream).unwrap();
            opened
                .engine
                .process_snapshot(&snapshot(stream, vec![random(64 << 10, seed)]))
                .unwrap();
            opened
        };
        backup("s-0", 1).commit().unwrap();
        backup("s-1", 2).commit().unwrap();

        // `mhd rm s-1`: the GC sweeps s-1's Hooks, and the reopened Hook
        // log holds exactly what the sweep left.
        let mut opened = open();
        let before = hooks(opened.engine.substrate_mut().backend_mut());
        crate::gc::delete_stream(opened.engine.substrate_mut(), "s-1_").unwrap();
        opened.commit().unwrap();
        let swept = hooks(opened.engine.substrate_mut().backend_mut());
        drop(opened);
        let mut opened = open();
        assert_eq!(hooks(opened.engine.substrate_mut().backend_mut()), swept);
        check(&mut opened.engine, before);
        drop(opened);

        // A backup flushed but never committed: the next open rolls its
        // Hooks back, and the open after that finds them gone from the log.
        let mut torn = backup("s-2", 3);
        let _ = torn.engine.finish().unwrap();
        let flushed = hooks(torn.engine.substrate_mut().backend_mut());
        drop(torn);
        let mut opened = open();
        assert!(opened.recovery.hooks_rolled_back > 0);
        check(&mut opened.engine, flushed);
        drop(opened);
        let mut opened = open();
        assert!(opened.recovery.is_clean());
        assert_eq!(hooks(opened.engine.substrate_mut().backend_mut()), swept);
        drop(opened);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
