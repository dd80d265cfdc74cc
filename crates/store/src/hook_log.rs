//! The Hook namespace of a directory store: one append-only log.
//!
//! A Hook is a 20-byte pointer from a sampled hash to its Manifest. As a
//! file of its own it costs an inode, a 4 KiB block, a create and a
//! rename for those 20 bytes, and every open walks their directory.
//! [`DirBackend`](crate::DirBackend) keeps all of a store's Hooks as
//! records of the one file `root/hooks` instead, read once when the
//! backend is created into an in-memory index that answers every read.
//!
//! # Format
//!
//! [`MAGIC`], then one record per Hook:
//!
//! | bytes | field |
//! |---|---|
//! | 2 | name length `n`, little endian |
//! | 2 | payload length `d`, little endian |
//! | 4 | CRC-32 of the four length bytes |
//! | `n` | the name, as [`safe_name`](crate::safe_name) gives it (UTF-8) |
//! | `d` | the payload |
//! | 4 | CRC-32 of the record's first `8 + n + d` bytes |
//!
//! # Writes and crashes
//!
//! A put appends its record, and a batch of puts
//! ([`HookLog::commit`]) appends all its records in one write, fsynced
//! under [`Durability::Fsync`]. A write cut short leaves a *torn tail*:
//! fewer bytes than a header, a header whose record runs past the end of
//! the file, or nothing but zeros (a file system that grew the file
//! before its data blocks landed). Loading drops a torn tail, and the
//! next write, or [`HookLog::recover`], replaces the log without it. A
//! record whose bytes are all there but fail a checksum is damage, not a
//! tear: loading fails with an error naming the log and the record, so
//! nothing committed is ever dropped silently.
//!
//! The log is never edited in place. A delete only leaves the index;
//! the deletes since the last write are applied together by replacing
//! the whole log through [`write_atomic`] (tmp + rename), before the next
//! write of the log, a delete of another kind (so a Hook never outlives
//! the Manifest it names), a flush, or a recovery.
//!
//! # Upgrading
//!
//! An older store kept one file per Hook under the directory `hooks/`.
//! [`HookLog::create`] moves it aside as `.hooks.old`, writes its files'
//! records into the log and removes it: three steps, each of which the
//! next open completes if a crash cuts the one before short. That the
//! log takes the directory's name is what makes an older `mhd` refuse the
//! store: it cannot create its `hooks/` directory over a file.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::backend::{fsync_dir, fsync_file, io_at, tmp_sibling, torn_write, write_atomic};
use crate::{Durability, FileKind, StoreError, StoreResult};

/// The first bytes of every Hook log.
pub const MAGIC: &[u8; 8] = b"MHDHOOK1";

/// Bytes of a record before its name: two lengths and their checksum.
const HEADER: usize = 8;

/// Where [`HookLog::create`] parks an older store's Hook directory while
/// it moves the files into the log.
const PARKED: &str = ".hooks.old";

/// The CRC-32 (IEEE 802.3) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of `data`.
fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |c, &b| CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8))
}

/// Appends one record to `out`.
fn encode_record(out: &mut Vec<u8>, name: &str, data: &[u8]) -> StoreResult<()> {
    let too_long = || StoreError::Corrupt(format!("hook {name}: name or payload over 64 KiB"));
    let n = u16::try_from(name.len()).map_err(|_| too_long())?;
    let d = u16::try_from(data.len()).map_err(|_| too_long())?;
    let start = out.len();
    let mut lengths = [0u8; 4];
    lengths[..2].copy_from_slice(&n.to_le_bytes());
    lengths[2..].copy_from_slice(&d.to_le_bytes());
    out.extend_from_slice(&lengths);
    out.extend_from_slice(&crc32(&lengths).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(data);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// A log's records by name, and where its valid bytes end: `None` when
/// they end at the end of the file, `Some(offset)` when a torn tail
/// starts there.
type Parsed = (BTreeMap<String, Bytes>, Option<usize>);

/// Reads a whole log. A later record of a name replaces an earlier one.
fn parse(path: &Path, log: Bytes) -> StoreResult<Parsed> {
    let damaged = |record: usize, offset: usize, what: &str| {
        StoreError::Corrupt(format!("{}: record {record} at byte {offset}: {what}", path.display()))
    };
    if log.len() < MAGIC.len() {
        // Only `write_atomic` creates a log, so it is never this short;
        // a prefix of the magic is read as a log torn before its first
        // record.
        return match MAGIC.starts_with(&log) {
            true => Ok((BTreeMap::new(), Some(0))),
            false => Err(StoreError::Corrupt(format!("{}: not a Hook log", path.display()))),
        };
    }
    if &log[..MAGIC.len()] != MAGIC {
        return Err(StoreError::Corrupt(format!("{}: not a Hook log", path.display())));
    }
    let mut index = BTreeMap::new();
    let mut at = MAGIC.len();
    let mut record = 0usize;
    while at < log.len() {
        let rest = &log[at..];
        if rest.len() < HEADER || rest.iter().all(|&b| b == 0) {
            return Ok((index, Some(at)));
        }
        let (lengths, header_crc) = (&rest[..4], &rest[4..HEADER]);
        if crc32(lengths).to_le_bytes() != header_crc {
            return Err(damaged(record, at, "header checksum mismatch"));
        }
        let n = u16::from_le_bytes([lengths[0], lengths[1]]) as usize;
        let d = u16::from_le_bytes([lengths[2], lengths[3]]) as usize;
        let body = HEADER + n + d;
        if rest.len() < body + 4 {
            return Ok((index, Some(at)));
        }
        if crc32(&rest[..body]).to_le_bytes() != rest[body..body + 4] {
            return Err(damaged(record, at, "checksum mismatch"));
        }
        let name = std::str::from_utf8(&rest[HEADER..HEADER + n])
            .map_err(|_| damaged(record, at, "name is not UTF-8"))?;
        index.insert(name.to_string(), log.slice(at + HEADER + n..at + body));
        at += body + 4;
        record += 1;
    }
    Ok((index, None))
}

/// Reads `path` whole; `None` when it does not exist.
fn read(path: &Path) -> StoreResult<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(data) => Ok(Some(data)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) if e.kind() == std::io::ErrorKind::IsADirectory => {
            Err(StoreError::Corrupt(format!(
                "{} is an older store's Hook directory; open the store for writes once to \
                 move it into the Hook log",
                path.display()
            )))
        }
        Err(e) => Err(io_at("read", path, e)),
    }
}

/// The Hook log of one store and its in-memory index. See the module
/// docs for the format and the crash rules.
pub(crate) struct HookLog {
    path: PathBuf,
    durability: Durability,
    /// Every Hook by name: the log's records, minus the deletes not yet
    /// written.
    index: BTreeMap<String, Bytes>,
    /// Deletes or rewrites that only the index holds yet.
    dirty: bool,
    /// The file ends in bytes that are no record of the index (a torn
    /// tail seen at load, or an append that failed): the next write
    /// replaces the log instead of appending after them.
    torn: bool,
    /// The owning backend's fault hook: physical writes left until one is
    /// torn half-way ([`DirBackend::fault_short_write_at`](crate::DirBackend::fault_short_write_at)).
    tear_in: Arc<AtomicU64>,
}

impl HookLog {
    /// Reads the log of the store at `root`, creating nothing: a store
    /// without one has no Hooks.
    pub(crate) fn load(
        root: &Path,
        durability: Durability,
        tear_in: Arc<AtomicU64>,
    ) -> StoreResult<HookLog> {
        let path = root.join(FileKind::Hook.dir_name());
        let (index, torn) = match read(&path)? {
            Some(data) => parse(&path, Bytes::from(data))?,
            None => (BTreeMap::new(), None),
        };
        Ok(HookLog { path, durability, index, dirty: false, torn: torn.is_some(), tear_in })
    }

    /// Opens the log of the store at `root` for writes: finishes moving an
    /// older store's per-Hook files into it (module docs), creates it if
    /// the store has none, and loads it.
    #[expect(clippy::disallowed_methods, reason = "moves an older store's Hook directory aside")]
    pub(crate) fn create(
        root: &Path,
        durability: Durability,
        tear_in: Arc<AtomicU64>,
    ) -> StoreResult<HookLog> {
        let path = root.join(FileKind::Hook.dir_name());
        let parked = root.join(PARKED);
        if path.is_dir() {
            std::fs::rename(&path, &parked).map_err(|e| io_at("rename", &path, e))?;
            if durability == Durability::Fsync {
                fsync_dir(root)?;
            }
        }
        if parked.is_dir() {
            if !path.exists() {
                let mut log = MAGIC.to_vec();
                for (name, data) in read_hook_files(&parked)? {
                    encode_record(&mut log, &name, &data)?;
                }
                write_atomic(&path, &log, durability)?;
            }
            for entry in std::fs::read_dir(&parked).map_err(|e| io_at("read dir", &parked, e))? {
                let file = entry.map_err(|e| io_at("read dir", &parked, e))?.path();
                std::fs::remove_file(&file).map_err(|e| io_at("remove", &file, e))?;
            }
            std::fs::remove_dir(&parked).map_err(|e| io_at("remove dir", &parked, e))?;
        }
        if !path.exists() {
            write_atomic(&path, MAGIC, durability)?;
        }
        Self::load(root, durability, tear_in)
    }

    pub(crate) fn get(&self, name: &str) -> Option<&Bytes> {
        self.index.get(name)
    }

    pub(crate) fn len(&self) -> u64 {
        self.index.len() as u64
    }

    pub(crate) fn names(&self) -> Vec<String> {
        self.index.keys().cloned().collect()
    }

    /// Creates `name` (an [`AlreadyExists`](StoreError::AlreadyExists)
    /// error if it is taken): one appended record.
    pub(crate) fn put(&mut self, name: &str, data: &[u8]) -> StoreResult<()> {
        if self.index.contains_key(name) {
            return Err(StoreError::AlreadyExists { kind: FileKind::Hook, name: name.to_string() });
        }
        self.commit(vec![(name.to_string(), Bytes::copy_from_slice(data), false)])
    }

    /// Rewrites `name` (a [`NotFound`](StoreError::NotFound) error if it
    /// is absent): the log is replaced.
    pub(crate) fn update(&mut self, name: &str, data: &[u8]) -> StoreResult<()> {
        if !self.index.contains_key(name) {
            return Err(StoreError::NotFound { kind: FileKind::Hook, name: name.to_string() });
        }
        self.commit(vec![(name.to_string(), Bytes::copy_from_slice(data), true)])
    }

    /// Deletes `name` from the index; the log follows at the next
    /// [`sync`](HookLog::sync).
    pub(crate) fn delete(&mut self, name: &str) -> StoreResult<()> {
        match self.index.remove(name) {
            Some(_) => {
                self.dirty = true;
                Ok(())
            }
            None => Err(StoreError::NotFound { kind: FileKind::Hook, name: name.to_string() }),
        }
    }

    /// Writes a batch of puts (`false`) and updates (`true`), whose names
    /// the caller has checked: one append of every put's record, or —
    /// when an update, a delete or a torn tail means the file must change
    /// before its end — one replacement of the whole log. On an error the
    /// index holds none of the puts.
    pub(crate) fn commit(&mut self, writes: Vec<(String, Bytes, bool)>) -> StoreResult<()> {
        let mut appended = Vec::new();
        let mut puts = Vec::with_capacity(writes.len());
        for (name, data, update) in writes {
            if update {
                self.index.insert(name, data);
                self.dirty = true;
            } else {
                encode_record(&mut appended, &name, &data)?;
                puts.push((name, data));
            }
        }
        if self.dirty || self.torn {
            let names: Vec<String> = puts.iter().map(|(name, _)| name.clone()).collect();
            self.index.extend(puts);
            return self.rewrite().inspect_err(|_| {
                for name in &names {
                    self.index.remove(name);
                }
            });
        }
        if appended.is_empty() {
            return Ok(());
        }
        self.append(&appended)?;
        self.index.extend(puts);
        Ok(())
    }

    /// Appends `records` in one write (fsynced under
    /// [`Durability::Fsync`]).
    fn append(&mut self, records: &[u8]) -> StoreResult<()> {
        let path = &self.path;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_at("open", path, e))?;
        // Until the write is whole, the file's tail is not the index's.
        self.torn = true;
        if self.tears_now() {
            let _ = file.write_all(&records[..records.len() / 2]);
            return Err(StoreError::Io(std::io::Error::other(format!(
                "injected short write at {}",
                path.display()
            ))));
        }
        file.write_all(records).map_err(|e| io_at("append", path, e))?;
        if self.durability == Durability::Fsync {
            fsync_file(&file, path)?;
        }
        self.torn = false;
        Ok(())
    }

    /// Replaces the log by one holding exactly the index, through
    /// [`write_atomic`].
    fn rewrite(&mut self) -> StoreResult<()> {
        let mut log = MAGIC.to_vec();
        for (name, data) in &self.index {
            encode_record(&mut log, name, data)?;
        }
        if self.tears_now() {
            return Err(torn_write(&self.path, &log));
        }
        write_atomic(&self.path, &log, self.durability)?;
        self.dirty = false;
        self.torn = false;
        Ok(())
    }

    fn tears_now(&self) -> bool {
        self.tear_in.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)) == Ok(1)
    }

    /// Applies the deletes and rewrites only the index holds yet.
    pub(crate) fn sync(&mut self) -> StoreResult<()> {
        if self.dirty {
            self.rewrite()?;
        }
        Ok(())
    }

    /// Removes the tmp sibling a torn replacement left and replaces a log
    /// that ends in a torn tail. Returns how many torn writes it undid.
    #[expect(clippy::disallowed_methods, reason = "removes the log's torn tmp sibling")]
    pub(crate) fn recover(&mut self) -> StoreResult<usize> {
        let mut undone = 0;
        let (_, tmp) = tmp_sibling(&self.path)?;
        match std::fs::remove_file(&tmp) {
            Ok(()) => undone += 1,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_at("remove tmp", &tmp, e)),
        }
        if self.torn {
            undone += 1;
            self.rewrite()?;
        }
        self.sync()?;
        Ok(undone)
    }
}

impl Drop for HookLog {
    /// Best effort, like [`BatchedDirBackend`](crate::BatchedDirBackend)'s
    /// drop: deletes only the index holds reach the log.
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

/// The `(name, content)` of every file in an older store's Hook
/// directory, skipping hidden ones (torn `.*.tmp` writes).
fn read_hook_files(dir: &Path) -> StoreResult<Vec<(String, Vec<u8>)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| io_at("read dir", dir, e))? {
        let entry = entry.map_err(|e| io_at("read dir", dir, e))?;
        let Ok(name) = entry.file_name().into_string() else { continue };
        if name.starts_with('.') {
            continue;
        }
        let path = entry.path();
        let data = std::fs::read(&path).map_err(|e| io_at("read", &path, e))?;
        files.push((name, data));
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests build and damage scratch stores")]
mod tests {
    use super::*;
    use crate::{Backend, DirBackend};

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mhd-hooklog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn hook(i: u8) -> (String, [u8; 20]) {
        (format!("{i:040x}"), [i; 20])
    }

    /// A store holding Hooks 0, 1 and 2, written one put (one append) each.
    fn three_hooks(root: &Path) -> DirBackend {
        let mut b = DirBackend::create_with(root, Durability::Rename).unwrap();
        for i in 0..3 {
            let (name, payload) = hook(i);
            b.put(FileKind::Hook, &name, &payload).unwrap();
        }
        b
    }

    fn log_path(root: &Path) -> PathBuf {
        root.join(FileKind::Hook.dir_name())
    }

    /// Where record `i` of a log of 40-character names and 20-byte
    /// payloads starts.
    fn record_at(i: usize) -> usize {
        MAGIC.len() + i * (HEADER + 40 + 20 + 4)
    }

    #[test]
    fn crc32_is_the_ieee_one() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_survive_a_reopen_and_cost_one_file() {
        let root = temp_root("reopen");
        drop(three_hooks(&root));
        let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
        for i in 0..3 {
            let (name, payload) = hook(i);
            assert_eq!(&b.get(FileKind::Hook, &name).unwrap()[..], payload);
        }
        assert_eq!(b.count(FileKind::Hook), 3);
        assert!(log_path(&root).is_file());
        assert_eq!(std::fs::metadata(log_path(&root)).unwrap().len(), record_at(3) as u64);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A tail cut anywhere inside the last record, or grown with zeros, is
    /// dropped at open without an error; recovery replaces the log
    /// without it, and so does the next write of a handle that skipped
    /// recovery.
    #[test]
    fn a_torn_tail_is_dropped_and_replaced() {
        let root = temp_root("torn");
        drop(three_hooks(&root));
        let whole = std::fs::read(log_path(&root)).unwrap();
        let mut tails: Vec<Vec<u8>> =
            [1, HEADER - 1, HEADER, HEADER + 50, record_at(1) - MAGIC.len() - 1]
                .iter()
                .map(|&cut| whole[..record_at(2) + cut].to_vec())
                .collect();
        tails.push([&whole[..], &[0u8; 37][..]].concat());
        for (i, torn) in tails.into_iter().enumerate() {
            std::fs::write(log_path(&root), &torn).unwrap();
            let kept = if torn.len() > whole.len() { 3 } else { 2 };
            let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
            assert_eq!(b.count(FileKind::Hook), kept, "tail {i}");
            assert_eq!(b.recover().unwrap().tmp_files_removed, 1, "tail {i}");
            assert_eq!(std::fs::read(log_path(&root)).unwrap(), whole[..record_at(kept as usize)]);
            assert!(b.recover().unwrap().is_clean());

            std::fs::write(log_path(&root), &torn).unwrap();
            let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
            let (name, payload) = hook(9);
            b.put(FileKind::Hook, &name, &payload).unwrap();
            drop(b);
            let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
            assert_eq!(b.count(FileKind::Hook), kept + 1, "tail {i}");
            assert!(b.recover().unwrap().is_clean(), "tail {i}: the put replaced the log");
            drop(b);
            std::fs::write(log_path(&root), &whole).unwrap();
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A flipped byte anywhere in a record — its lengths included, the
    /// last record's too — is damage: the open fails naming the log, the
    /// record and its offset, and nothing is dropped.
    #[test]
    fn a_damaged_record_fails_the_open_by_name() {
        let root = temp_root("damage");
        drop(three_hooks(&root));
        let whole = std::fs::read(log_path(&root)).unwrap();
        for (record, within) in [(0, 20), (1, 0), (1, 5), (2, 70), (2, 3), (2, 60)] {
            let mut damaged = whole.clone();
            damaged[record_at(record) + within] ^= 0x10;
            std::fs::write(log_path(&root), &damaged).unwrap();
            let err = DirBackend::create_with(&root, Durability::Rename).err().unwrap();
            let want = format!("hooks: record {record} at byte {}", record_at(record));
            assert!(err.to_string().contains(&want), "{err}");
            assert_eq!(std::fs::read(log_path(&root)).unwrap(), damaged, "the log was edited");
        }
        std::fs::write(log_path(&root), b"not a log at all").unwrap();
        let err = DirBackend::create_with(&root, Durability::Rename).err().unwrap();
        assert!(err.to_string().contains("not a Hook log"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Deletes leave the index at once and reach the log together, in one
    /// replacement, before a delete of another kind.
    #[test]
    fn deletes_reach_the_log_in_one_replacement() {
        let root = temp_root("deletes");
        let mut b = three_hooks(&root);
        b.put(FileKind::Manifest, "0", b"m").unwrap();
        let before = std::fs::read(log_path(&root)).unwrap();
        for i in [0, 2] {
            b.delete(FileKind::Hook, &hook(i).0).unwrap();
        }
        assert_eq!(b.list(FileKind::Hook), [hook(1).0]);
        assert_eq!(std::fs::read(log_path(&root)).unwrap(), before, "not yet written");
        b.delete(FileKind::Manifest, "0").unwrap();
        assert_eq!(std::fs::metadata(log_path(&root)).unwrap().len(), record_at(1) as u64);
        let mut reopened = DirBackend::create_with(&root, Durability::Rename).unwrap();
        assert_eq!(reopened.list(FileKind::Hook), [hook(1).0]);

        // A replacement torn half-way leaves the log as it was and a tmp
        // sibling that recovery removes.
        let before = std::fs::read(log_path(&root)).unwrap();
        reopened.delete(FileKind::Hook, &hook(1).0).unwrap();
        reopened.fault_short_write_at(0);
        assert!(reopened.flush().is_err());
        assert_eq!(std::fs::read(log_path(&root)).unwrap(), before);
        let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
        assert_eq!(b.list(FileKind::Hook), [hook(1).0]);
        assert_eq!(b.recover().unwrap().tmp_files_removed, 1);
        // The handle that holds the delete writes it when it goes.
        drop(reopened);
        let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
        assert_eq!(b.count(FileKind::Hook), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// An older store's `hooks/` directory becomes the log at the first
    /// write-open, from any point a crash cut the move short; its torn
    /// tmp files are not Hooks.
    #[test]
    fn an_older_stores_hook_files_move_into_the_log() {
        let root = temp_root("upgrade");
        let older = |root: &Path, dir: &str| {
            std::fs::create_dir_all(root.join(dir)).unwrap();
            for i in 0..3 {
                let (name, payload) = hook(i);
                std::fs::write(root.join(dir).join(name), payload).unwrap();
            }
            std::fs::write(root.join(dir).join(".torn.tmp"), b"half").unwrap();
        };
        let expect_moved = |root: &Path| {
            let mut b = DirBackend::create_with(root, Durability::Fsync).unwrap();
            assert_eq!(b.list(FileKind::Hook), [0, 1, 2].map(|i| hook(i).0));
            assert_eq!(&b.get(FileKind::Hook, &hook(1).0).unwrap()[..], hook(1).1);
            assert!(log_path(root).is_file() && !root.join(PARKED).exists());
        };

        // Untouched, parked by a move cut short, and parked with the log
        // already written.
        older(&root, "hooks");
        expect_moved(&root);
        std::fs::remove_dir_all(&root).unwrap();
        older(&root, PARKED);
        expect_moved(&root);
        std::fs::remove_dir_all(&root).unwrap();
        older(&root, "hooks");
        drop(DirBackend::create_with(&root, Durability::Rename).unwrap());
        older(&root, PARKED);
        expect_moved(&root);

        // A reader neither moves nor reads the directory.
        std::fs::remove_dir_all(&root).unwrap();
        older(&root, "hooks");
        let mut view = DirBackend::open(&root);
        assert!(view.get(FileKind::Hook, &hook(0).0).is_err());
        assert!(root.join("hooks").is_dir());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
