//! [`TimedBackend`]: a transparent [`Backend`] decorator that records one
//! span per backend operation. It is how the store layer is timed from
//! outside `mhd-store`: hand it to `MhdEngine::new` / `Substrate::new` in
//! place of the backend it wraps.

use std::sync::Arc;

use bytes::Bytes;
use mhd_store::{Backend, FileKind, RecoveryReport, StoreResult};

use crate::trace::{Request, SpanId, Tracer};

/// Span names per operation and object kind, indexed by `FileKind as usize`
/// (DiskChunk, Manifest, Hook, FileManifest).
const PUT: [&str; 4] =
    ["store.put.chunk", "store.put.manifest", "store.put.hook", "store.put.file_manifest"];
const UPDATE: [&str; 4] = [
    "store.update.chunk",
    "store.update.manifest",
    "store.update.hook",
    "store.update.file_manifest",
];
const GET: [&str; 4] =
    ["store.get.chunk", "store.get.manifest", "store.get.hook", "store.get.file_manifest"];
const GET_RANGE: [&str; 4] = [
    "store.get_range.chunk",
    "store.get_range.manifest",
    "store.get_range.hook",
    "store.get_range.file_manifest",
];
const EXISTS: [&str; 4] = [
    "store.exists.chunk",
    "store.exists.manifest",
    "store.exists.hook",
    "store.exists.file_manifest",
];

/// Wraps `B`, timing every operation into a [`Tracer`].
pub struct TimedBackend<B> {
    inner: B,
    tracer: Arc<Tracer>,
    parent: SpanId,
    request: Option<Request>,
}

impl<B: Backend> TimedBackend<B> {
    /// Wraps `inner`; spans go to `tracer`.
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        TimedBackend { inner, tracer, parent: 0, request: None }
    }

    /// Names the span (and the backup stream) that the following backend
    /// operations belong to.
    pub fn enter(&mut self, parent: SpanId, request: Option<Request>) {
        self.parent = parent;
        self.request = request;
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        op: impl FnOnce(&mut B) -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> T {
        let open = self.tracer.open();
        let out = op(&mut self.inner);
        self.tracer.close(open, name, self.parent, self.request, bytes(&out));
        out
    }
}

fn read_len(result: &StoreResult<Bytes>) -> u64 {
    result.as_ref().map_or(0, |b| b.len() as u64)
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn put(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        self.timed(PUT[kind as usize], |b| b.put(kind, name, data), |_| data.len() as u64)
    }

    fn update(&mut self, kind: FileKind, name: &str, data: &[u8]) -> StoreResult<()> {
        self.timed(UPDATE[kind as usize], |b| b.update(kind, name, data), |_| data.len() as u64)
    }

    fn get(&mut self, kind: FileKind, name: &str) -> StoreResult<Bytes> {
        self.timed(GET[kind as usize], |b| b.get(kind, name), read_len)
    }

    fn get_range(
        &mut self,
        kind: FileKind,
        name: &str,
        offset: u64,
        len: u64,
    ) -> StoreResult<Bytes> {
        self.timed(GET_RANGE[kind as usize], |b| b.get_range(kind, name, offset, len), read_len)
    }

    fn size_of(&mut self, kind: FileKind, name: &str) -> StoreResult<u64> {
        self.timed("store.other.size_of", |b| b.size_of(kind, name), |_| 0)
    }

    fn exists(&mut self, kind: FileKind, name: &str) -> bool {
        self.timed(EXISTS[kind as usize], |b| b.exists(kind, name), |_| 0)
    }

    fn count(&mut self, kind: FileKind) -> u64 {
        self.timed("store.other.count", |b| b.count(kind), |_| 0)
    }

    fn list(&mut self, kind: FileKind) -> Vec<String> {
        self.timed("store.other.list", |b| b.list(kind), |_| 0)
    }

    fn delete(&mut self, kind: FileKind, name: &str) -> StoreResult<()> {
        self.timed("store.other.delete", |b| b.delete(kind, name), |_| 0)
    }

    fn flush(&mut self) -> StoreResult<()> {
        self.timed("store.flush", |b| b.flush(), |_| 0)
    }

    fn recover(&mut self) -> StoreResult<RecoveryReport> {
        self.timed("store.other.recover", |b| b.recover(), |_| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanTable;
    use crate::workloads::{engine_backup, engine_config};
    use mhd_core::MhdEngine;
    use mhd_store::MemBackend;
    use mhd_workload::{Corpus, CorpusSpec};

    #[test]
    fn timed_backend_is_transparent() {
        let corpus = Corpus::generate(CorpusSpec::tiny(11));

        let mut plain = MhdEngine::new(MemBackend::new(), engine_config()).unwrap();
        let (bare, _) =
            engine_backup(&mut plain, &corpus, None, &mut |_: &mut MemBackend, _, _| ()).unwrap();

        let tracer = Arc::new(Tracer::default());
        let backend = TimedBackend::new(MemBackend::new(), tracer.clone());
        let mut timed = MhdEngine::new(backend, engine_config()).unwrap();
        let (wrapped, _) =
            engine_backup(&mut timed, &corpus, Some(&tracer), &mut |b, id, req| b.enter(id, req))
                .unwrap();

        // Same dedup decisions, same accounting.
        assert_eq!(wrapped.stats, bare.stats);
        assert_eq!(wrapped.ledger, bare.ledger);
        assert_eq!(
            (wrapped.input_bytes, wrapped.dup_bytes, wrapped.dup_slices, wrapped.files),
            (bare.input_bytes, bare.dup_bytes, bare.dup_slices, bare.files)
        );
        assert_eq!(
            (wrapped.chunks_stored, wrapped.chunks_dup, wrapped.hhr_count),
            (bare.chunks_stored, bare.chunks_dup, bare.hhr_count)
        );

        // And the spans agree with the engine's own I/O counters.
        let spans = tracer.spans_since(0);
        let table = SpanTable::new(&spans);
        assert_eq!(table.count("store.put.chunk"), bare.stats.chunk_output);
        assert_eq!(table.count("store.put.hook"), bare.stats.hook_output);
        assert_eq!(table.bytes("store.put.chunk"), bare.ledger.stored_data_bytes);
        // Every backend span hangs under the engine call that caused it.
        let engine_calls: Vec<_> =
            spans.iter().filter(|s| s.layer() == "core").map(|s| s.id).collect();
        assert!(spans
            .iter()
            .filter(|s| s.layer() == "store")
            .all(|s| engine_calls.contains(&s.parent)));
    }
}
