// Fixture: an engine rewriting a DiskChunk and deleting a Hook (L3 —
// both kinds are immutable outside gc/compact, and a test-free core
// module is no exception).

pub fn rewrite_chunk(backend: &mut impl Backend, name: &str, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    backend.update(FileKind::DiskChunk, name, data).unwrap();
}

pub fn drop_hook(backend: &mut impl Backend, name: &str) {
    backend.delete(FileKind::Hook, name).unwrap();
}
