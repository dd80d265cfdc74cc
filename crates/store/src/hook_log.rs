//! The metadata logs of a directory store: Hooks, Manifests and recipes.
//!
//! A Hook is 20 bytes, a Manifest or a recipe a few hundred. As files of
//! their own each costs an inode, a 4 KiB block, a create and a rename,
//! and every open walks their directories. [`DirBackend`](crate::DirBackend)
//! keeps every object of these three kinds as a checksummed record of one
//! append-only log per kind instead: `root/hooks`, `root/manifests` and
//! `root/file_manifests`. Only DiskChunks stay one file each. (The module
//! is named for the first kind that moved into a log.)
//!
//! # Format
//!
//! Eight bytes of magic, one per kind, then one record per write:
//!
//! | bytes | field |
//! |---|---|
//! | 2 | name length `n`, little endian |
//! | `w` | payload length `d`, little endian: `w` = 2 for Hooks, 4 for Manifests and recipes |
//! | 4 | CRC-32 of the `2 + w` length bytes |
//! | `n` | the name, as [`safe_name`](crate::safe_name) gives it (UTF-8) |
//! | `d` | the payload |
//! | 4 | CRC-32 of the record's first `6 + w + n + d` bytes |
//!
//! A later record of a name replaces an earlier one.
//!
//! # Index
//!
//! A load indexes the log from its headers: per name, where its newest
//! record starts and how long it is ([`Slot`]). A writer's load reads
//! the whole log and checks every record's CRC. The Hook log also keeps
//! its bytes in RAM, since every Bloom-filter positive reads a Hook; a
//! Manifest or recipe `get` is one positioned read of its record, on the
//! handle the index was built from and after the lock on the logs is
//! released, and a check of the record's CRC and name.
//!
//! A reader (`mhd restore` reads one recipe) checks the headers, and
//! each record as it reads it. For the recipe log it reads only what a
//! [`Sidecar`] does not cover: the writer leaves `file_manifests.idx`, a
//! sorted table of name hashes and slots, when it closes the log, so a
//! reader finds a recipe by a binary search of that file and indexes
//! only the records appended since. A listing or a count indexes the
//! whole log, checking every record.
//!
//! # Writes and crashes
//!
//! A put or an update appends one record, and a batch of writes
//! ([`Log::commit`]) appends all its records in one write, fsynced under
//! [`Durability::Fsync`]. An update therefore leaves the older version as
//! garbage in the log. A write cut short leaves a *torn tail*: fewer
//! bytes than a header, a header whose record runs past the end of the
//! file, nothing but zeros, or a last record that fails a check and is
//! all zeros from a sector boundary inside it on (a file system that
//! grew the file before all the append's blocks landed). Loading drops a
//! torn tail, and the next write, or [`Log::recover`], replaces the log
//! without it. A reader drops it in memory only. Any other record whose
//! bytes are all there but fail a checksum is damage, not a tear:
//! loading fails with an error naming the log, the record and its byte,
//! so nothing committed is ever dropped silently.
//!
//! The log is never edited in place. A delete only leaves the index. The
//! deletes since the last write are applied by replacing the whole log
//! through [`write_atomic`] (tmp + rename) with one holding only the
//! newest record of every name: before the next write of any log, a
//! DiskChunk delete, a flush or a recovery, and for every log with
//! deletes at once, referrers first ([`Logs::sync`]). The same
//! replacement runs when a log's garbage outgrows its live records, so a
//! log holds at most twice its live bytes plus one batch. A replacement
//! removes the recipe log's sidecar first, so no sidecar describes a
//! log other than the one it was written for; it also names that log's
//! inode.
//!
//! # Upgrading
//!
//! An older store kept one file per object under the directories
//! `hooks/`, `manifests/` and `file_manifests/`. [`Log::create`] moves
//! such a directory aside as `.<name>.old`, writes its files' records
//! into the log and removes it: three steps, each of which the next open
//! completes if a crash cuts the one before short. That a log takes the
//! directory's name is what makes an older `mhd` refuse the store: it
//! cannot create its directory over a file. A reader of a store not yet
//! opened for writes reads the directory's files as they are.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::backend::{fsync_dir, fsync_file, io_at, tmp_sibling, torn_write, write_atomic};
use crate::{Durability, FileKind, StoreError, StoreResult};

/// How one kind's log is laid out and held.
#[derive(Debug)]
pub(crate) struct Format {
    /// The first bytes of the log.
    magic: &'static [u8; 8],
    /// Bytes of a record's payload length.
    width: usize,
    /// Whether the log's bytes stay in RAM.
    resident: bool,
    /// Whether the log's writer keeps a [`Sidecar`] for readers that look
    /// one record up.
    lookup: bool,
    /// What a record holds, for errors.
    what: &'static str,
}

const HOOKS: Format =
    Format { magic: b"MHDHOOK1", width: 2, resident: true, lookup: false, what: "Hook" };
const MANIFESTS: Format =
    Format { magic: b"MHDMFST1", width: 4, resident: false, lookup: false, what: "Manifest" };
const RECIPES: Format =
    Format { magic: b"MHDRCPT1", width: 4, resident: false, lookup: true, what: "recipe" };

/// Bytes of every log's magic.
const MAGIC_LEN: usize = 8;

/// The log format of `kind`; `None` for DiskChunks, which stay files.
pub(crate) fn format(kind: FileKind) -> Option<&'static Format> {
    match kind {
        FileKind::DiskChunk => None,
        FileKind::Manifest => Some(&MANIFESTS),
        FileKind::Hook => Some(&HOOKS),
        FileKind::FileManifest => Some(&RECIPES),
    }
}

impl Format {
    /// Bytes of a record before its name: the two lengths and their CRC.
    const fn header_len(&self) -> usize {
        2 + self.width + 4
    }
}

/// The CRC-32 (IEEE 802.3) lookup tables for slicing by 8: `TABLES[0]` is
/// the byte-wise table, and `TABLES[k][i]` is `i`'s CRC advanced over `k`
/// more zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let c = tables[k - 1][i];
            tables[k][i] = (c >> 8) ^ tables[0][(c & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3) of `data`, eight bytes per step.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Appends one record to `out`.
fn encode_record(out: &mut Vec<u8>, format: &Format, name: &str, data: &[u8]) -> StoreResult<()> {
    let too_long =
        || StoreError::Corrupt(format!("{} {name}: name or payload too long", format.what));
    let n = u16::try_from(name.len()).map_err(|_| too_long())?;
    let d = u32::try_from(data.len()).map_err(|_| too_long())?;
    let start = out.len();
    out.extend_from_slice(&n.to_le_bytes());
    match format.width {
        2 => out.extend_from_slice(&u16::try_from(d).map_err(|_| too_long())?.to_le_bytes()),
        _ => out.extend_from_slice(&d.to_le_bytes()),
    }
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(data);
    u32::try_from(out.len() - start + 4).map_err(|_| too_long())?;
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Where a name's newest record lies in its log: its first byte and its
/// whole length, header and CRC included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    at: u64,
    len: u32,
}

/// The records of a stretch of a log by name, where its valid bytes end,
/// how many records the log holds up to there, and whether a torn tail
/// follows them.
struct Parsed {
    index: BTreeMap<String, Slot>,
    end: u64,
    records: u64,
    torn: bool,
}

/// The name and payload lengths of the record whose header `lengths` is
/// (the header without its CRC).
fn lengths(format: &Format, lengths: &[u8]) -> (usize, usize) {
    let n = u16::from_le_bytes([lengths[0], lengths[1]]) as usize;
    let d = match format.width {
        2 => u16::from_le_bytes([lengths[2], lengths[3]]) as usize,
        _ => u32::from_le_bytes([lengths[2], lengths[3], lengths[4], lengths[5]]) as usize,
    };
    (n, d)
}

/// No file system block is smaller: a file grown before all of an
/// append's blocks landed reads zeros from a multiple of this on.
const SECTOR: u64 = 512;

/// Walks the records of a log from byte `start` to its end (`bytes`),
/// numbering the first one `first`: checks every header's CRC, and every
/// record's too when `whole`, and indexes them. A torn tail (module docs)
/// ends the walk, and so does a record that fails a check while the file
/// is all zeros from a sector boundary inside it to its end: an append
/// whose last blocks never landed. Any other failed check is damage.
fn parse(
    path: &Path,
    format: &Format,
    bytes: &[u8],
    start: u64,
    first: u64,
    whole: bool,
) -> StoreResult<Parsed> {
    let damaged = |record: u64, at: usize, what: &str| {
        StoreError::Corrupt(format!(
            "{}: record {record} at byte {}: {what}",
            path.display(),
            start + at as u64
        ))
    };
    // Where the zeros that run to the end of the file begin.
    let zeros = bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    // Whether those zeros begin at a sector boundary inside the first
    // `span` bytes of the record at `at`.
    let cut = |at: usize, span: usize| {
        (start + zeros.max(at + 1) as u64).next_multiple_of(SECTOR) < start + (at + span) as u64
    };
    let header = format.header_len();
    let mut parsed = Parsed { index: BTreeMap::new(), end: start, records: first, torn: true };
    let mut at = 0;
    while at < bytes.len() {
        parsed.end = start + at as u64;
        let rest = &bytes[at..];
        if rest.len() < header || at >= zeros {
            return Ok(parsed);
        }
        if crc32(&rest[..header - 4]).to_le_bytes() != rest[header - 4..header] {
            return match cut(at, header) {
                true => Ok(parsed),
                false => Err(damaged(parsed.records, at, "header checksum mismatch")),
            };
        }
        let (n, d) = lengths(format, rest);
        let len = header + n + d + 4;
        if rest.len() < len {
            return Ok(parsed);
        }
        // A record the zeros may have cut is checked whoever reads it.
        if (whole || at + len > zeros)
            && crc32(&rest[..len - 4]).to_le_bytes() != rest[len - 4..len]
        {
            return match cut(at, len) {
                true => Ok(parsed),
                false => Err(damaged(parsed.records, at, "checksum mismatch")),
            };
        }
        let slot_len =
            u32::try_from(len).map_err(|_| damaged(parsed.records, at, "record over 4 GiB"))?;
        let name = std::str::from_utf8(&rest[header..header + n])
            .map_err(|_| damaged(parsed.records, at, "name is not UTF-8"))?;
        parsed.index.insert(name.to_string(), Slot { at: start + at as u64, len: slot_len });
        at += len;
        parsed.records += 1;
    }
    parsed.end = start + at as u64;
    parsed.torn = false;
    Ok(parsed)
}

/// [`parse`] of a whole log: its magic, then its records.
fn parse_log(path: &Path, format: &Format, log: &[u8], whole: bool) -> StoreResult<Parsed> {
    let not_a_log =
        || StoreError::Corrupt(format!("{}: not a {} log", path.display(), format.what));
    if log.len() < MAGIC_LEN {
        // Only `write_atomic` creates a log, so it is never this short;
        // a prefix of the magic is read as a log torn before its first
        // record.
        return match format.magic.starts_with(log) {
            true => {
                Ok(Parsed { index: BTreeMap::new(), end: MAGIC_LEN as u64, records: 0, torn: true })
            }
            false => Err(not_a_log()),
        };
    }
    if &log[..MAGIC_LEN] != format.magic {
        return Err(not_a_log());
    }
    parse(path, format, &log[MAGIC_LEN..], MAGIC_LEN as u64, 0, whole)
}

/// 64-bit FNV-1a of a name: how a [`Sidecar`] orders its entries.
fn name_hash(name: &str) -> u64 {
    name.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// The sidecar of the log at `log`.
pub(crate) fn sidecar_path(log: &Path) -> PathBuf {
    log.with_extension("idx")
}

/// A lookup log's index on disk, for readers that look one record up
/// without reading the log (`mhd restore` reads one recipe):
/// `<log>.idx`, written by the log's writer (see [`Log::publish`]).
///
/// It is a 44-byte header — magic `MHDIDX01`, the inode number of the log
/// it describes, how many of the log's bytes (`covered`) and records it
/// describes, its entry count, all u64 LE, and a CRC-32 of those 40
/// bytes — then one 24-byte entry per name, sorted: the name's
/// [`name_hash`], its newest record's offset (u64) and length (u32), and a
/// CRC-32 of those 20 bytes. A reader takes the records past `covered`
/// from the log itself. It uses no sidecar that fails a check or names
/// another inode, and it confirms every record an entry leads to by its
/// header and name.
struct Sidecar {
    file: File,
    covered: u64,
    records: u64,
    entries: u64,
}

const SIDECAR_MAGIC: &[u8; 8] = b"MHDIDX01";
const SIDECAR_HEADER: usize = 44;
const ENTRY: usize = 24;

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(word)
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(word)
}

impl Sidecar {
    /// The sidecar of the log at `path`, if it describes the log whose
    /// inode is `ino` and which is `size` bytes long.
    fn open(path: &Path, ino: u64, size: u64) -> Option<Sidecar> {
        let file = File::open(sidecar_path(path)).ok()?;
        let mut head = [0u8; SIDECAR_HEADER];
        file.read_exact_at(&mut head, 0).ok()?;
        let valid = &head[..8] == SIDECAR_MAGIC
            && crc32(&head[..40]) == u32_at(&head, 40)
            && u64_at(&head, 8) == ino;
        let covered = u64_at(&head, 16);
        (valid && (MAGIC_LEN as u64..=size).contains(&covered)).then(|| Sidecar {
            file,
            covered,
            records: u64_at(&head, 24),
            entries: u64_at(&head, 32),
        })
    }

    /// Entry `i`'s hash and slot; `None` if it fails its check.
    fn entry(&self, i: u64) -> Option<(u64, Slot)> {
        let mut entry = [0u8; ENTRY];
        self.file.read_exact_at(&mut entry, SIDECAR_HEADER as u64 + i * ENTRY as u64).ok()?;
        (crc32(&entry[..20]) == u32_at(&entry, 20))
            .then(|| (u64_at(&entry, 0), Slot { at: u64_at(&entry, 8), len: u32_at(&entry, 16) }))
    }

    /// The slots of the entries that carry `hash`, by binary search;
    /// `None` if an entry on the way fails its check.
    fn slots(&self, hash: u64) -> Option<Vec<Slot>> {
        let (mut lo, mut hi) = (0, self.entries);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.entry(mid)?.0 < hash {
                true => lo = mid + 1,
                false => hi = mid,
            }
        }
        let mut slots = Vec::new();
        while lo < self.entries {
            let (h, slot) = self.entry(lo)?;
            if h != hash {
                break;
            }
            slots.push(slot);
            lo += 1;
        }
        Some(slots)
    }

    /// Writes the sidecar of the log at `path` (inode `ino`), whose first
    /// `covered` bytes hold `records` records and whose names `index`
    /// holds. A lost or torn sidecar only sends readers back to the log,
    /// so it is never fsynced.
    fn write(
        path: &Path,
        ino: u64,
        covered: u64,
        records: u64,
        index: &BTreeMap<String, Slot>,
    ) -> StoreResult<()> {
        let mut entries: Vec<(u64, Slot)> =
            index.iter().map(|(name, &slot)| (name_hash(name), slot)).collect();
        entries.sort_unstable_by_key(|&(hash, slot)| (hash, slot.at));
        let mut out = Vec::with_capacity(SIDECAR_HEADER + entries.len() * ENTRY);
        out.extend_from_slice(SIDECAR_MAGIC);
        for word in [ino, covered, records, entries.len() as u64] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&crc32(&out).to_le_bytes());
        for (hash, slot) in entries {
            let start = out.len();
            out.extend_from_slice(&hash.to_le_bytes());
            out.extend_from_slice(&slot.at.to_le_bytes());
            out.extend_from_slice(&slot.len.to_le_bytes());
            let crc = crc32(&out[start..]);
            out.extend_from_slice(&crc.to_le_bytes());
        }
        write_atomic(&sidecar_path(path), &out, Durability::Rename)
    }
}

/// Where [`Log::create`] parks an older store's directory of `kind` while
/// it moves the files into the log.
pub(crate) fn parked(root: &Path, kind: FileKind) -> PathBuf {
    root.join(format!(".{}.old", kind.dir_name()))
}

/// The log of one kind of one store and its index. See the module docs
/// for the format and the crash rules.
pub(crate) struct Log {
    format: &'static Format,
    path: PathBuf,
    durability: Durability,
    /// The handle the index was built from, shared with the reads made
    /// after the logs' lock is released ([`Located::read`]): read-only for
    /// a reader, read and append for a writer; `None` for a reader of a
    /// store without this log.
    file: Option<Arc<File>>,
    /// Whether this handle writes the log (a writer loads every log at
    /// open) or only reads it.
    writer: bool,
    /// A resident log's valid bytes; empty for the others.
    held: Vec<u8>,
    /// Every name's newest record: for a writer, the whole log's, minus
    /// the deletes not yet written; for a reader, those of the records
    /// its `sidecar` does not cover.
    index: BTreeMap<String, Slot>,
    /// A reader's sidecar of the log (lookup logs only).
    sidecar: Option<Sidecar>,
    /// A writer's: how many of the log's bytes its sidecar on disk
    /// covers (0: none does).
    published: u64,
    /// Where the valid records end.
    end: u64,
    /// Records up to `end`, older versions included.
    records: u64,
    /// Bytes of the records the index names.
    live: u64,
    /// Deletes that only the index holds yet.
    dirty: bool,
    /// The file ends in bytes that are no record (a torn tail seen at
    /// load, or an append that failed): the next write replaces the log
    /// instead of appending after them.
    torn: bool,
    /// The owning backend's fault hook: physical writes left until one is
    /// torn half-way ([`DirBackend::fault_short_write_at`](crate::DirBackend::fault_short_write_at)).
    tear_in: Arc<AtomicU64>,
}

/// An append that [`Durability::Fsync`] still has to sync: its caller
/// does, once it has released the lock on the logs, so readers of the
/// logs never wait on the disk.
#[must_use = "an append under `fsync` is not durable until it is synced"]
pub(crate) struct Unsynced {
    file: Arc<File>,
    path: PathBuf,
}

impl Unsynced {
    pub(crate) fn sync(self) -> StoreResult<()> {
        fsync_file(&self.file, &self.path)
    }
}

/// Where a `get` finds a payload, taken under the logs' lock and read
/// after it is released.
pub(crate) enum Located {
    /// A resident log's payload, from RAM.
    Held(Bytes),
    /// A record to read from the log.
    Record { file: Arc<File>, path: PathBuf, format: &'static Format, slot: Slot },
}

impl Located {
    /// The payload of `name`. A record read from the log is checked
    /// against its CRC and its name first.
    pub(crate) fn read(self, name: &str) -> StoreResult<Bytes> {
        let (file, path, format, slot) = match self {
            Located::Held(payload) => return Ok(payload),
            Located::Record { file, path, format, slot } => (file, path, format, slot),
        };
        let mut record = vec![0u8; slot.len as usize];
        file.read_exact_at(&mut record, slot.at).map_err(|e| io_at("read", &path, e))?;
        let body = record.len() - 4;
        let header = format.header_len();
        if crc32(&record[..body]).to_le_bytes() != record[body..]
            || record.get(header..header + name.len()) != Some(name.as_bytes())
        {
            return Err(StoreError::Corrupt(format!(
                "{}: {} {name} at byte {}: checksum mismatch",
                path.display(),
                format.what,
                slot.at
            )));
        }
        Ok(Bytes::from(record).slice(header + name.len()..body))
    }
}

impl Log {
    /// Reads the log of `kind` of the store at `root`. A reader's handle
    /// is read-only and creates nothing: a store without the log has no
    /// objects of its kind. A writer checks every record; a reader checks
    /// the headers, and each record as it reads it (a resident log's all
    /// at load, as RAM serves them), and reads only the records past what
    /// a lookup log's sidecar covers.
    pub(crate) fn load(
        root: &Path,
        format: &'static Format,
        kind: FileKind,
        durability: Durability,
        tear_in: Arc<AtomicU64>,
        writer: bool,
    ) -> StoreResult<Log> {
        let path = root.join(kind.dir_name());
        let mut log = Log {
            format,
            path,
            durability,
            file: None,
            writer,
            held: Vec::new(),
            index: BTreeMap::new(),
            sidecar: None,
            published: 0,
            end: MAGIC_LEN as u64,
            records: 0,
            live: 0,
            dirty: false,
            torn: false,
            tear_in,
        };
        let opened = OpenOptions::new().read(true).append(writer).open(&log.path);
        let file = match opened {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && !writer => return Ok(log),
            Err(e) => return Err(io_at("open", &log.path, e)),
        };
        let meta = file.metadata().map_err(|e| io_at("stat", &log.path, e))?;
        let sidecar = match format.lookup {
            true => Sidecar::open(&log.path, meta.ino(), meta.len()),
            false => None,
        };
        let parsed = match sidecar {
            Some(sidecar) if !writer => {
                let mut magic = [0u8; MAGIC_LEN];
                file.read_exact_at(&mut magic, 0).map_err(|e| io_at("read", &log.path, e))?;
                if &magic != format.magic {
                    return Err(StoreError::Corrupt(format!(
                        "{}: not a {} log",
                        log.path.display(),
                        format.what
                    )));
                }
                let mut tail = vec![0u8; (meta.len() - sidecar.covered) as usize];
                file.read_exact_at(&mut tail, sidecar.covered)
                    .map_err(|e| io_at("read", &log.path, e))?;
                let parsed =
                    parse(&log.path, format, &tail, sidecar.covered, sidecar.records, false)?;
                log.sidecar = Some(sidecar);
                parsed
            }
            sidecar => {
                let mut data = vec![0u8; meta.len() as usize];
                file.read_exact_at(&mut data, 0).map_err(|e| io_at("read", &log.path, e))?;
                let parsed = parse_log(&log.path, format, &data, writer || format.resident)?;
                if format.resident {
                    data.truncate(parsed.end as usize);
                    log.held = data;
                }
                // A sidecar past the valid records is behind the log.
                log.published =
                    sidecar.map(|s| s.covered).filter(|&c| c <= parsed.end).unwrap_or(0);
                parsed
            }
        };
        log.live = parsed.index.values().map(|slot| u64::from(slot.len)).sum();
        log.index = parsed.index;
        log.end = parsed.end;
        log.records = parsed.records;
        log.torn = parsed.torn;
        log.file = Some(Arc::new(file));
        Ok(log)
    }

    /// Opens the log of `kind` of the store at `root` for writes: finishes
    /// moving an older store's per-object files into it (module docs),
    /// creates it if the store has none, and loads it.
    #[expect(clippy::disallowed_methods, reason = "moves an older store's directory aside")]
    pub(crate) fn create(
        root: &Path,
        format: &'static Format,
        kind: FileKind,
        durability: Durability,
        tear_in: Arc<AtomicU64>,
    ) -> StoreResult<Log> {
        let path = root.join(kind.dir_name());
        let parked = parked(root, kind);
        if path.is_dir() {
            std::fs::rename(&path, &parked).map_err(|e| io_at("rename", &path, e))?;
            if durability == Durability::Fsync {
                fsync_dir(root)?;
            }
        }
        if parked.is_dir() {
            if !path.exists() {
                let mut log = format.magic.to_vec();
                for (name, data) in read_object_files(&parked)? {
                    encode_record(&mut log, format, &name, &data)?;
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
            write_atomic(&path, format.magic, durability)?;
        }
        Self::load(root, format, kind, durability, tear_in, true)
    }

    /// Re-reads the whole log, checking every record, and indexes all of
    /// it: a reader's answer to a listing, a count or a damaged sidecar.
    fn reindex(&mut self) -> StoreResult<()> {
        let Some(file) = &self.file else { return Ok(()) };
        let len = file.metadata().map_err(|e| io_at("stat", &self.path, e))?.len();
        let mut data = vec![0u8; len as usize];
        file.read_exact_at(&mut data, 0).map_err(|e| io_at("read", &self.path, e))?;
        let parsed = parse_log(&self.path, self.format, &data, true)?;
        self.live = parsed.index.values().map(|slot| u64::from(slot.len)).sum();
        self.index = parsed.index;
        self.sidecar = None;
        Ok(())
    }

    /// Checks every record of the log, if its load did not: a reader's
    /// way to see damage a listing would read as an empty log.
    pub(crate) fn check(&mut self) -> StoreResult<()> {
        match self.writer || self.format.resident {
            true => Ok(()),
            false => self.reindex(),
        }
    }

    /// Whether the record at `slot` is `name`'s: its header checks and
    /// carries `name` and the slot's length.
    fn holds_name(&self, slot: Slot, name: &str) -> StoreResult<bool> {
        let Some(file) = &self.file else { return Ok(false) };
        let header = self.format.header_len();
        let mut head = vec![0u8; header + name.len()];
        file.read_exact_at(&mut head, slot.at).map_err(|e| io_at("read", &self.path, e))?;
        if crc32(&head[..header - 4]).to_le_bytes() != head[header - 4..header] {
            return Err(StoreError::Corrupt(format!(
                "{}: {} {name} at byte {}: header checksum mismatch",
                self.path.display(),
                self.format.what,
                slot.at
            )));
        }
        let (n, d) = lengths(self.format, &head);
        Ok(n == name.len()
            && header + n + d + 4 == slot.len as usize
            && &head[header..] == name.as_bytes())
    }

    /// Where the newest record of `name` lies: in the index, or else in a
    /// reader's sidecar.
    fn find(&mut self, name: &str) -> StoreResult<Option<Slot>> {
        if let Some(&slot) = self.index.get(name) {
            return Ok(Some(slot));
        }
        let Some(sidecar) = &self.sidecar else { return Ok(None) };
        let Some(slots) = sidecar.slots(name_hash(name)) else {
            self.reindex()?;
            return Ok(self.index.get(name).copied());
        };
        for slot in slots {
            if self.holds_name(slot, name)? {
                return Ok(Some(slot));
            }
        }
        Ok(None)
    }

    /// Where to read the payload of `name`: from RAM for a resident log,
    /// otherwise one positioned read of its record, which the caller
    /// makes ([`Located::read`]) once it has released the logs' lock.
    pub(crate) fn locate(&mut self, name: &str) -> StoreResult<Option<Located>> {
        let Some(slot) = self.find(name)? else { return Ok(None) };
        let payload = self.format.header_len() + name.len()..slot.len as usize - 4;
        if self.format.resident {
            let record = &self.held[slot.at as usize..][..slot.len as usize];
            return Ok(Some(Located::Held(Bytes::copy_from_slice(&record[payload]))));
        }
        Ok(self.file.clone().map(|file| Located::Record {
            file,
            path: self.path.clone(),
            format: self.format,
            slot,
        }))
    }

    /// The payload length of `name`, from its record's position alone.
    pub(crate) fn size_of(&mut self, name: &str) -> StoreResult<Option<u64>> {
        let header = self.format.header_len();
        Ok(self.find(name)?.map(|slot| (slot.len as usize - 4 - header - name.len()) as u64))
    }

    pub(crate) fn contains(&mut self, name: &str) -> StoreResult<bool> {
        Ok(self.find(name)?.is_some())
    }

    pub(crate) fn len(&mut self) -> StoreResult<u64> {
        if self.sidecar.is_some() {
            self.reindex()?;
        }
        Ok(self.index.len() as u64)
    }

    pub(crate) fn names(&mut self) -> StoreResult<Vec<String>> {
        if self.sidecar.is_some() {
            self.reindex()?;
        }
        Ok(self.index.keys().cloned().collect())
    }

    /// A reader's refusal to write.
    fn writable(&self) -> StoreResult<()> {
        match self.writer {
            true => Ok(()),
            false => Err(io_at("write", &self.path, std::io::Error::other("opened read-only"))),
        }
    }

    /// Deletes `name` from the index; the log follows at the next
    /// [`sync`](Log::sync).
    pub(crate) fn delete(&mut self, kind: FileKind, name: &str) -> StoreResult<()> {
        self.writable()?;
        match self.index.remove(name) {
            Some(slot) => {
                self.live -= u64::from(slot.len);
                self.dirty = true;
                Ok(())
            }
            None => Err(StoreError::NotFound { kind, name: name.to_string() }),
        }
    }

    /// Bytes of the log that no index entry names.
    fn garbage(&self) -> u64 {
        self.end - MAGIC_LEN as u64 - self.live
    }

    /// Writes a batch of puts and updates, whose names the caller has
    /// checked: one append of their records, or — when deletes or a torn
    /// tail mean the file must change before its end, or the append would
    /// leave more garbage than live bytes — one replacement of the whole
    /// log. On an error the index is as it was. An append under
    /// [`Durability::Fsync`] returns the sync it still needs.
    pub(crate) fn commit(&mut self, writes: &[(String, Bytes)]) -> StoreResult<Option<Unsynced>> {
        self.writable()?;
        let mut batch = Vec::new();
        let mut placed = Vec::with_capacity(writes.len());
        for (name, data) in writes {
            let at = batch.len();
            encode_record(&mut batch, self.format, name, data)?;
            placed.push((name, at, batch.len() - at));
        }
        if placed.is_empty() {
            return Ok(None);
        }
        // The live and dead bytes once the batch is appended.
        let (mut live, mut garbage) = (self.live, self.garbage());
        let mut newest: BTreeMap<&str, u64> = BTreeMap::new();
        for &(name, _, len) in &placed {
            let older = newest.insert(name, len as u64);
            if let Some(old) = older.or_else(|| self.index.get(name).map(|s| u64::from(s.len))) {
                live -= old;
                garbage += old;
            }
            live += len as u64;
        }
        if self.dirty || self.torn || garbage > live {
            return self.rewrite(&batch, &placed).map(|()| None);
        }
        self.append(&batch)?;
        for &(name, at, len) in &placed {
            let slot = Slot { at: self.end + at as u64, len: len as u32 };
            if let Some(old) = self.index.insert(name.clone(), slot) {
                self.live -= u64::from(old.len);
            }
            self.live += u64::from(slot.len);
        }
        self.end += batch.len() as u64;
        self.records += placed.len() as u64;
        if self.format.resident {
            self.held.extend_from_slice(&batch);
        }
        let file = self.file.clone().filter(|_| self.durability == Durability::Fsync);
        Ok(file.map(|file| Unsynced { file, path: self.path.clone() }))
    }

    /// Appends `records` in one write.
    fn append(&mut self, records: &[u8]) -> StoreResult<()> {
        let path = &self.path;
        let Some(mut file) = self.file.as_deref() else {
            return Err(io_at("append", path, std::io::ErrorKind::NotFound.into()));
        };
        // Until the write is whole, the file's tail is not the index's.
        self.torn = true;
        if self.tear_in.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            == Ok(1)
        {
            let _ = file.write_all(&records[..records.len() / 2]);
            return Err(StoreError::Io(std::io::Error::other(format!(
                "injected short write at {}",
                path.display()
            ))));
        }
        file.write_all(records).map_err(|e| io_at("append", path, e))?;
        self.torn = false;
        Ok(())
    }

    /// Replaces the log by one holding the newest record of every name
    /// the index keeps, in name order, then `batch`'s records (`placed`:
    /// name, offset in `batch`, length), through [`write_atomic`]. The
    /// sidecar goes first: none may outlive the log it describes.
    fn rewrite(&mut self, batch: &[u8], placed: &[(&String, usize, usize)]) -> StoreResult<()> {
        let old: Cow<'_, [u8]> = match (&self.file, self.format.resident) {
            (_, true) => Cow::Borrowed(&self.held),
            // A log with no record may be shorter than its magic.
            (Some(file), false) if !self.index.is_empty() => {
                let mut data = vec![0u8; self.end as usize];
                file.read_exact_at(&mut data, 0).map_err(|e| io_at("read", &self.path, e))?;
                Cow::Owned(data)
            }
            _ => Cow::Borrowed(&[]),
        };
        let replaced: BTreeSet<&str> = placed.iter().map(|(name, ..)| name.as_str()).collect();
        let mut log = self.format.magic.to_vec();
        let mut index = BTreeMap::new();
        for (name, slot) in &self.index {
            if replaced.contains(name.as_str()) {
                continue;
            }
            let record = old.get(slot.at as usize..slot.at as usize + slot.len as usize);
            let record = record.ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "{}: {name} lies past the log's end",
                    self.path.display()
                ))
            })?;
            index.insert(name.clone(), Slot { at: log.len() as u64, len: slot.len });
            log.extend_from_slice(record);
        }
        for &(name, at, len) in placed {
            index.insert(name.clone(), Slot { at: log.len() as u64, len: len as u32 });
            log.extend_from_slice(&batch[at..at + len]);
        }
        drop(old);
        if self.tear_in.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            == Ok(1)
        {
            return Err(torn_write(&self.path, &log));
        }
        self.unpublish()?;
        write_atomic(&self.path, &log, self.durability)?;
        let file = OpenOptions::new().read(true).append(self.writer).open(&self.path);
        self.file = Some(Arc::new(file.map_err(|e| io_at("open", &self.path, e))?));
        self.end = log.len() as u64;
        self.records = index.len() as u64;
        self.live = self.end - MAGIC_LEN as u64;
        self.index = index;
        self.dirty = false;
        self.torn = false;
        if self.format.resident {
            self.held = log;
        }
        Ok(())
    }

    /// Removes a lookup log's sidecar.
    #[expect(clippy::disallowed_methods, reason = "removes a sidecar before its log is replaced")]
    fn unpublish(&mut self) -> StoreResult<()> {
        if !self.format.lookup {
            return Ok(());
        }
        let sidecar = sidecar_path(&self.path);
        match std::fs::remove_file(&sidecar) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_at("remove", &sidecar, e)),
        }
        self.published = 0;
        Ok(())
    }

    /// Writes a lookup log's sidecar, covering the whole log, when the
    /// records appended since the last one outgrow it (an eighth of what
    /// it covers, and at least 1 MiB) or, with `now`, when any were. A
    /// log with deletes or a torn tail not yet written waits for them.
    pub(crate) fn publish(&mut self, now: bool) -> StoreResult<()> {
        let behind = self.end - self.published;
        let due = behind > 0 && (now || behind >= (self.published / 8).max(1 << 20));
        if !self.writer || !self.format.lookup || !due || self.dirty || self.torn {
            return Ok(());
        }
        let Some(file) = &self.file else { return Ok(()) };
        let ino = file.metadata().map_err(|e| io_at("stat", &self.path, e))?.ino();
        Sidecar::write(&self.path, ino, self.end, self.records, &self.index)?;
        self.published = self.end;
        Ok(())
    }

    /// Applies the deletes only the index holds yet.
    pub(crate) fn sync(&mut self) -> StoreResult<()> {
        if self.dirty {
            self.rewrite(&[], &[])?;
        }
        Ok(())
    }

    /// Removes the tmp siblings a torn replacement of the log or its
    /// sidecar left, and replaces a log that ends in a torn tail. Returns
    /// how many torn writes it undid.
    #[expect(clippy::disallowed_methods, reason = "removes the log's torn tmp siblings")]
    pub(crate) fn recover(&mut self) -> StoreResult<usize> {
        let mut undone = 0;
        for path in [self.path.clone(), sidecar_path(&self.path)] {
            let (_, tmp) = tmp_sibling(&path)?;
            match std::fs::remove_file(&tmp) {
                Ok(()) => undone += 1,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_at("remove tmp", &tmp, e)),
            }
        }
        if self.torn {
            undone += 1;
            self.rewrite(&[], &[])?;
        }
        Ok(undone)
    }
}

/// Where one kind's objects live, as a handle first finds them.
pub(crate) enum Space {
    /// The kind's log.
    Log(Log),
    /// One file per object in this directory: an older store's, seen by
    /// a reader before any write-open moved it into the log.
    Files(PathBuf),
}

/// The three logs of one store, behind one lock that every clone of a
/// [`DirBackend`](crate::DirBackend) shares: a writer loads them all when
/// it is created, a reader each one at its first access.
pub(crate) struct Logs {
    root: PathBuf,
    durability: Durability,
    tear_in: Arc<AtomicU64>,
    /// By [`FileKind`] discriminant; the DiskChunk place stays empty.
    spaces: [Option<Space>; 4],
}

impl Logs {
    pub(crate) fn new(root: &Path, durability: Durability, tear_in: Arc<AtomicU64>) -> Logs {
        Logs { root: root.to_path_buf(), durability, tear_in, spaces: Default::default() }
    }

    /// Opens every log for writes (moving an older store's directories
    /// into them first).
    pub(crate) fn create(&mut self) -> StoreResult<()> {
        for kind in FileKind::FLUSH_ORDER {
            if let Some(format) = format(kind) {
                let log =
                    Log::create(&self.root, format, kind, self.durability, self.tear_in.clone())?;
                self.spaces[kind as usize] = Some(Space::Log(log));
            }
        }
        Ok(())
    }

    /// Where `kind` (not a DiskChunk) lives, found at the first access: a
    /// log, an older store's directory, or the directory a write-open
    /// parked and had not yet moved.
    pub(crate) fn space(&mut self, kind: FileKind) -> StoreResult<&mut Space> {
        match &mut self.spaces[kind as usize] {
            Some(space) => Ok(space),
            empty => {
                let path = self.root.join(kind.dir_name());
                let parked = parked(&self.root, kind);
                let is_dir = std::fs::metadata(&path).map(|meta| meta.is_dir());
                let space = match (format(kind), is_dir) {
                    (_, Ok(true)) => Space::Files(path),
                    (_, Err(_)) if parked.is_dir() => Space::Files(parked),
                    (None, _) => Space::Files(path),
                    (Some(format), _) => Space::Log(Log::load(
                        &self.root,
                        format,
                        kind,
                        self.durability,
                        self.tear_in.clone(),
                        false,
                    )?),
                };
                Ok(empty.insert(space))
            }
        }
    }

    /// `kind`'s log; an error for an older store's directory.
    pub(crate) fn log(&mut self, kind: FileKind) -> StoreResult<&mut Log> {
        match self.space(kind)? {
            Space::Log(log) => Ok(log),
            Space::Files(dir) => Err(StoreError::Corrupt(format!(
                "{} is an older store's directory; open the store for writes once to move it \
                 into its log",
                dir.display()
            ))),
        }
    }

    /// Creates `name` (an [`AlreadyExists`](StoreError::AlreadyExists)
    /// error if it is taken): one appended record.
    pub(crate) fn put(
        &mut self,
        kind: FileKind,
        name: &str,
        data: &[u8],
    ) -> StoreResult<Option<Unsynced>> {
        if self.log(kind)?.contains(name)? {
            return Err(StoreError::AlreadyExists { kind, name: name.to_string() });
        }
        self.commit(kind, &[(name.to_string(), Bytes::copy_from_slice(data))])
    }

    /// Rewrites `name` (a [`NotFound`](StoreError::NotFound) error if it
    /// is absent): one appended record.
    pub(crate) fn update(
        &mut self,
        kind: FileKind,
        name: &str,
        data: &[u8],
    ) -> StoreResult<Option<Unsynced>> {
        if !self.log(kind)?.contains(name)? {
            return Err(StoreError::NotFound { kind, name: name.to_string() });
        }
        self.commit(kind, &[(name.to_string(), Bytes::copy_from_slice(data))])
    }

    /// Writes a batch of `kind`'s puts and updates to its log, after the
    /// deletes of every log.
    pub(crate) fn commit(
        &mut self,
        kind: FileKind,
        writes: &[(String, Bytes)],
    ) -> StoreResult<Option<Unsynced>> {
        self.sync()?;
        self.log(kind)?.commit(writes)
    }

    /// Applies every log's deletes, referrers first (reverse
    /// [`FileKind::FLUSH_ORDER`]), so no reference outlives its target.
    pub(crate) fn sync(&mut self) -> StoreResult<()> {
        for kind in FileKind::FLUSH_ORDER.into_iter().rev() {
            if let Some(Space::Log(log)) = &mut self.spaces[kind as usize] {
                log.sync()?;
            }
        }
        Ok(())
    }

    /// [`sync`](Logs::sync), then every lookup log's
    /// [`publish`](Log::publish).
    pub(crate) fn flush(&mut self, now: bool) -> StoreResult<()> {
        self.sync()?;
        for space in self.spaces.iter_mut().flatten() {
            if let Space::Log(log) = space {
                log.publish(now)?;
            }
        }
        Ok(())
    }

    /// Every loaded log's [`Log::recover`], then [`sync`](Logs::sync).
    pub(crate) fn recover(&mut self) -> StoreResult<usize> {
        let mut undone = 0;
        for space in self.spaces.iter_mut().flatten() {
            if let Space::Log(log) = space {
                undone += log.recover()?;
            }
        }
        self.sync()?;
        Ok(undone)
    }
}

impl Drop for Logs {
    /// Best effort, like [`BatchedDirBackend`](crate::BatchedDirBackend)'s
    /// drop: deletes only the indexes hold reach the logs, and the
    /// sidecars catch up with them.
    fn drop(&mut self) {
        let _ = self.flush(true);
    }
}

/// The `(name, content)` of every file in an older store's directory,
/// skipping hidden ones (torn `.*.tmp` writes).
fn read_object_files(dir: &Path) -> StoreResult<Vec<(String, Vec<u8>)>> {
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

    /// Bytes of a Hook record's header.
    const HEADER: usize = HOOKS.header_len();

    /// Where record `i` of a log of 40-character names and 20-byte
    /// payloads starts.
    fn record_at(i: usize) -> usize {
        MAGIC_LEN + i * (HEADER + 40 + 20 + 4)
    }

    /// A few pseudo-random bytes (xorshift), for the CRC comparison.
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32_is_the_ieee_one() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Slicing by eight gives the byte-at-a-time CRC at every length and
    /// every alignment of the slice within its buffer.
    #[test]
    fn crc32_by_eight_bytes_matches_the_bytewise_one() {
        let bytewise = |data: &[u8]| {
            !data.iter().fold(!0u32, |c, &b| TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8))
        };
        let buffer = noise(4096 + 16, 0x9E37_79B9_7F4A_7C15);
        let lengths = noise(64, 7);
        for (i, &r) in lengths.iter().enumerate() {
            let len = match i % 4 {
                0 => r as usize % 17,
                1 => r as usize,
                _ => (r as usize) << 4,
            };
            for start in 0..8 {
                let data = &buffer[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "length {len} at offset {start}");
            }
        }
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
            [1, HEADER - 1, HEADER, HEADER + 50, record_at(1) - MAGIC_LEN - 1]
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
    /// replacement, before a DiskChunk delete.
    #[test]
    fn deletes_reach_the_log_in_one_replacement() {
        let root = temp_root("deletes");
        let mut b = three_hooks(&root);
        b.put(FileKind::DiskChunk, "0", b"c").unwrap();
        let before = std::fs::read(log_path(&root)).unwrap();
        for i in [0, 2] {
            b.delete(FileKind::Hook, &hook(i).0).unwrap();
        }
        assert_eq!(b.list(FileKind::Hook), [hook(1).0]);
        assert_eq!(std::fs::read(log_path(&root)).unwrap(), before, "not yet written");
        b.delete(FileKind::DiskChunk, "0").unwrap();
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

    /// An older store's `hooks/`, `manifests/` and `file_manifests/`
    /// directories become logs at the first write-open, from any point a
    /// crash cut the move short; their torn tmp files are not objects. A
    /// reader before that reads the files as they are, and moves nothing.
    #[test]
    fn an_older_stores_hook_files_move_into_the_log() {
        for kind in [FileKind::Hook, FileKind::Manifest, FileKind::FileManifest] {
            let root = temp_root(&format!("upgrade-{}", kind.dir_name()));
            let parked = parked(&root, kind);
            let older = |root: &Path, dir: &Path| {
                std::fs::create_dir_all(dir).unwrap();
                for i in 0..3 {
                    let (name, payload) = hook(i);
                    std::fs::write(dir.join(name), payload).unwrap();
                }
                std::fs::write(dir.join(".torn.tmp"), b"half").unwrap();
                assert!(dir.starts_with(root));
            };
            let expect_moved = |root: &Path| {
                let mut b = DirBackend::create_with(root, Durability::Fsync).unwrap();
                assert_eq!(b.list(kind), [0, 1, 2].map(|i| hook(i).0), "{kind:?}");
                assert_eq!(&b.get(kind, &hook(1).0).unwrap()[..], hook(1).1, "{kind:?}");
                assert!(root.join(kind.dir_name()).is_file() && !parked.exists(), "{kind:?}");
            };
            let dir = root.join(kind.dir_name());

            // Untouched, parked by a move cut short, and parked with the
            // log already written.
            older(&root, &dir);
            expect_moved(&root);
            std::fs::remove_dir_all(&root).unwrap();
            older(&root, &parked);
            expect_moved(&root);
            std::fs::remove_dir_all(&root).unwrap();
            older(&root, &dir);
            drop(DirBackend::create_with(&root, Durability::Rename).unwrap());
            older(&root, &parked);
            expect_moved(&root);

            // A reader reads the directory, parked or not, and moves
            // nothing.
            for at in [&dir, &parked] {
                std::fs::remove_dir_all(&root).unwrap();
                older(&root, at);
                let mut view = DirBackend::open(&root);
                assert_eq!(view.list(kind), [0, 1, 2].map(|i| hook(i).0), "{kind:?}");
                assert_eq!(&view.get(kind, &hook(2).0).unwrap()[..], hook(2).1, "{kind:?}");
                assert_eq!(view.size_of(kind, &hook(2).0).unwrap(), 20, "{kind:?}");
                assert!(at.is_dir() && !root.join(".hooks.tmp").exists(), "{kind:?}");
            }
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    /// Manifests and recipes take 4-byte payload lengths: a recipe over
    /// 64 KiB is one record, read back by one positioned read.
    #[test]
    fn a_record_may_hold_more_than_64_kib() {
        let root = temp_root("wide");
        let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
        let big = noise(100_000, 3);
        b.put(FileKind::FileManifest, "t/big", &big).unwrap();
        let mut reopened = DirBackend::create_with(&root, Durability::Rename).unwrap();
        assert_eq!(&reopened.get(FileKind::FileManifest, "t_big").unwrap()[..], &big[..]);
        assert_eq!(reopened.size_of(FileKind::FileManifest, "t/big").unwrap(), 100_000);
        assert_eq!(
            &reopened.get_range(FileKind::FileManifest, "t/big", 70_000, 3).unwrap()[..],
            &big[70_000..70_003]
        );
        let header = RECIPES.header_len();
        let len = std::fs::metadata(root.join("file_manifests")).unwrap().len();
        assert_eq!(len as usize, MAGIC_LEN + header + 5 + 100_000 + 4);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// N rewrites of one Manifest leave at most twice its live bytes in
    /// the log (the bound is "plus one batch" only for a batch whose own
    /// records replace each other), and every reopen reads the newest
    /// version.
    #[test]
    fn rewrites_leave_at_most_twice_the_live_bytes() {
        let root = temp_root("garbage");
        let path = root.join(FileKind::Manifest.dir_name());
        let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
        b.put(FileKind::Manifest, "0000000000000001", &noise(500, 1)).unwrap();
        let record = |payload: usize| (MANIFESTS.header_len() + 16 + payload + 4) as u64;
        let mut replaced = 0;
        for n in 0..200u64 {
            let version = noise(300 + (n as usize * 37) % 400, n + 2);
            b.update(FileKind::Manifest, "0000000000000001", &version).unwrap();
            let len = std::fs::metadata(&path).unwrap().len();
            let live = record(version.len());
            assert!(len <= MAGIC_LEN as u64 + 2 * live, "rewrite {n}: {len} B for {live} live");
            if len == MAGIC_LEN as u64 + live {
                replaced += 1;
            }
            if n % 50 == 0 {
                let mut reopened = DirBackend::open(&root);
                let got = reopened.get(FileKind::Manifest, "0000000000000001").unwrap();
                assert_eq!(&got[..], &version[..], "rewrite {n}");
            }
        }
        assert!(replaced >= 50, "garbage was collected {replaced} times in 200 rewrites");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A damaged Manifest or recipe record fails a write-open naming the
    /// log, the record and its byte, and a reader's read of that record;
    /// a torn tail of either is dropped.
    #[test]
    fn damaged_and_torn_manifest_and_recipe_logs() {
        for kind in [FileKind::Manifest, FileKind::FileManifest] {
            let root = temp_root(&format!("damage-{}", kind.dir_name()));
            let path = root.join(kind.dir_name());
            let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
            for i in 0..3u8 {
                b.put(kind, &format!("{i:016x}"), &noise(200, u64::from(i) + 1)).unwrap();
            }
            drop(b);
            let whole = std::fs::read(&path).unwrap();
            let at = |i: usize| MAGIC_LEN + i * (format(kind).unwrap().header_len() + 16 + 200 + 4);
            assert_eq!(whole.len(), at(3));

            let mut damaged = whole.clone();
            damaged[at(1) + 40] ^= 0x01;
            std::fs::write(&path, &damaged).unwrap();
            let err = DirBackend::create_with(&root, Durability::Rename).err().unwrap();
            let want =
                format!("{}: record 1 at byte {}: checksum mismatch", kind.dir_name(), at(1));
            assert!(err.to_string().contains(&want), "{err}");
            // A reader checks the records it reads: the damaged one is an
            // error naming the log and its byte, the others still read.
            let mut view = DirBackend::open(&root);
            let err = view.get(kind, &format!("{:016x}", 1)).err().unwrap().to_string();
            let want = format!(
                "{}: {} {:016x} at byte {}",
                kind.dir_name(),
                format(kind).unwrap().what,
                1,
                at(1)
            );
            assert!(err.contains(&want) && err.contains("checksum mismatch"), "{err}");
            assert_eq!(&view.get(kind, &format!("{:016x}", 0)).unwrap()[..], &noise(200, 1)[..]);
            // Listing checks every record: `load` (what `mhd ls` runs
            // first) fails as a write-open does.
            let err = DirBackend::open(&root).load(kind).err().unwrap();
            assert!(err.to_string().contains(&format!("record 1 at byte {}", at(1))), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), damaged, "the log was edited");

            std::fs::write(&path, &whole[..at(2) + 100]).unwrap();
            let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
            assert_eq!(b.count(kind), 2);
            assert_eq!(b.recover().unwrap().tmp_files_removed, 1);
            assert_eq!(std::fs::read(&path).unwrap(), whole[..at(2)]);
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    /// A reader of a log with a torn tail drops the tail in memory, reads
    /// every whole record, and writes nothing: the file, its tmp sibling
    /// and the directory stay as they were.
    #[test]
    fn a_reader_drops_a_torn_tail_and_never_writes() {
        for kind in [FileKind::Hook, FileKind::Manifest, FileKind::FileManifest] {
            let root = temp_root(&format!("reader-{}", kind.dir_name()));
            let path = root.join(kind.dir_name());
            let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
            for i in 0..3 {
                let (name, payload) = hook(i);
                b.put(kind, &name, &payload).unwrap();
            }
            drop(b);
            let torn = [&std::fs::read(&path).unwrap()[..], &[1, 0, 9]].concat();
            std::fs::write(&path, &torn).unwrap();
            let entries = || std::fs::read_dir(&root).unwrap().count();
            let before = entries();

            let mut view = DirBackend::open(&root);
            assert_eq!(view.count(kind), 3, "{kind:?}");
            for i in 0..3 {
                let (name, payload) = hook(i);
                assert_eq!(&view.get(kind, &name).unwrap()[..], payload, "{kind:?}");
            }
            view.flush().unwrap();
            drop(view);
            assert_eq!(std::fs::read(&path).unwrap(), torn, "{kind:?}: a reader edited the log");
            assert_eq!(entries(), before, "{kind:?}: a reader made a file");
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    /// An append whose last blocks never landed reads as a record whose
    /// header checks, followed by zeros out to its stated length. That is
    /// a torn tail when the zeros begin at a sector boundary inside the
    /// record: a writer drops it and recovery replaces the log without
    /// it; a reader drops it in memory. Zeros that begin elsewhere inside
    /// the last record are damage.
    #[test]
    fn an_append_whose_last_blocks_never_landed_is_a_torn_tail() {
        let root = temp_root("unlanded");
        let kind = FileKind::Manifest;
        let path = root.join(kind.dir_name());
        let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
        for i in 0..3u8 {
            b.put(kind, &format!("{i:016x}"), &noise(1000, u64::from(i) + 1)).unwrap();
        }
        drop(b);
        let whole = std::fs::read(&path).unwrap();
        let at = |i: usize| MAGIC_LEN + i * (MANIFESTS.header_len() + 16 + 1000 + 4);
        assert_eq!((at(2), at(3)), (2068, 3098), "record 2 spans sectors 4 to 6");

        for from in [2560, 3072] {
            let mut unlanded = whole.clone();
            unlanded[from..].fill(0);
            std::fs::write(&path, &unlanded).unwrap();
            let mut view = DirBackend::open(&root);
            assert_eq!(view.count(kind), 2, "zeros from {from}");
            assert!(!view.exists(kind, &format!("{:016x}", 2)), "zeros from {from}");
            drop(view);
            assert_eq!(std::fs::read(&path).unwrap(), unlanded, "a reader edited the log");
            let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
            assert_eq!(b.count(kind), 2, "zeros from {from}");
            assert_eq!(b.recover().unwrap().tmp_files_removed, 1, "zeros from {from}");
            assert_eq!(std::fs::read(&path).unwrap(), whole[..at(2)], "zeros from {from}");
        }

        // Zeros from inside the last sector: no tear leaves those.
        let mut damaged = whole.clone();
        damaged[3079] |= 1;
        damaged[3080..].fill(0);
        std::fs::write(&path, &damaged).unwrap();
        let err = DirBackend::create_with(&root, Durability::Rename).err().unwrap();
        let want = format!("manifests: record 2 at byte {}: checksum mismatch", at(2));
        assert!(err.to_string().contains(&want), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    fn recipe(i: usize) -> String {
        format!("snapshot-0_f{i:04}.bin")
    }

    /// A recipe log's writer leaves a sidecar when it closes; a reader
    /// looks a recipe up there and in the records appended since, and
    /// indexes only those. A sidecar that fails a check, or that names
    /// another file, is not used; a replacement of the log removes it
    /// first.
    #[test]
    fn a_reader_looks_a_recipe_up_in_the_sidecar() {
        let root = temp_root("sidecar");
        let kind = FileKind::FileManifest;
        let sidecar = sidecar_path(&root.join(kind.dir_name()));
        let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
        for i in 0..50 {
            b.put(kind, &recipe(i), &noise(60, i as u64 + 1)).unwrap();
        }
        b.flush().unwrap();
        assert!(!sidecar.exists(), "a flush waits for a megabyte of records");
        drop(b);
        assert!(sidecar.is_file(), "the writer's close leaves one");

        // A second writer appends and updates; a reader meanwhile sees
        // the sidecar's records and the newer ones.
        let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
        for i in 50..55 {
            b.put(kind, &recipe(i), &noise(60, i as u64 + 1)).unwrap();
        }
        for i in [3, 50] {
            b.update(kind, &recipe(i), b"newer").unwrap();
        }
        let expect = |i: usize| match i {
            3 | 50 => b"newer".to_vec(),
            _ => noise(60, i as u64 + 1),
        };
        let check = |why: &str| {
            let mut view = DirBackend::open(&root);
            for i in 0..55 {
                assert_eq!(&view.get(kind, &recipe(i)).unwrap()[..], expect(i), "{why}: {i}");
                assert_eq!(view.size_of(kind, &recipe(i)).unwrap(), expect(i).len() as u64);
            }
            assert!(!view.exists(kind, "snapshot-0_nothing.bin"), "{why}");
            assert_eq!(view.count(kind), 55, "{why}");
        };
        let log = Log::load(&root, &RECIPES, kind, Durability::Rename, Arc::default(), false);
        let log = log.unwrap();
        assert!(log.sidecar.is_some());
        assert_eq!(log.index.len(), 6, "the reader indexed the appended records only");
        check("sidecar and tail");
        drop(b);
        let log = Log::load(&root, &RECIPES, kind, Durability::Rename, Arc::default(), false);
        assert!(log.unwrap().index.is_empty(), "the close brought the sidecar up to date");
        check("sidecar");

        // A damaged entry sends the reader back to the log.
        let good = std::fs::read(&sidecar).unwrap();
        for at in [SIDECAR_HEADER + 3, SIDECAR_HEADER + 30 * ENTRY + 9, 20] {
            let mut damaged = good.clone();
            damaged[at] ^= 0x40;
            std::fs::write(&sidecar, &damaged).unwrap();
            check(&format!("sidecar damaged at byte {at}"));
        }
        std::fs::write(&sidecar, &good).unwrap();

        // A sidecar of another file: the log copied over itself.
        let path = root.join(kind.dir_name());
        let copy = root.join("copy");
        std::fs::copy(&path, &copy).unwrap();
        std::fs::rename(&copy, &path).unwrap();
        let log = Log::load(&root, &RECIPES, kind, Durability::Rename, Arc::default(), false);
        assert!(log.unwrap().sidecar.is_none(), "the sidecar names the old inode");
        check("sidecar of another inode");

        // A delete replaces the log, and the sidecar goes first.
        let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
        b.delete(kind, &recipe(7)).unwrap();
        b.flush().unwrap();
        assert!(!sidecar.exists());
        drop(b);
        let mut view = DirBackend::open(&root);
        assert!(sidecar.is_file() && !view.exists(kind, &recipe(7)));
        assert_eq!(&view.get(kind, &recipe(8)).unwrap()[..], expect(8));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A reader's handle refuses every write, and a record located under
    /// the lock still reads after the writer replaced the log.
    #[test]
    fn readers_never_write_and_read_records_after_a_replacement() {
        let root = temp_root("readonly");
        let kind = FileKind::FileManifest;
        let mut b = DirBackend::create_with(&root, Durability::Rename).unwrap();
        b.put(kind, "a", b"first").unwrap();
        drop(b);
        let path = root.join(kind.dir_name());
        let before = std::fs::read(&path).unwrap();
        let mut view = DirBackend::open(&root);
        assert!(view.put(kind, "b", b"x").is_err());
        assert!(view.update(kind, "a", b"x").is_err());
        assert!(view.delete(kind, "a").is_err());
        view.flush().unwrap();
        drop(view);
        assert_eq!(std::fs::read(&path).unwrap(), before);

        let mut log = Log::create(&root, &RECIPES, kind, Durability::Rename, Arc::default());
        let log = log.as_mut().unwrap();
        let located = log.locate("a").unwrap().unwrap();
        log.delete(kind, "a").unwrap();
        log.commit(&[("c".to_string(), Bytes::copy_from_slice(b"third"))]).unwrap();
        assert_ne!(std::fs::read(&path).unwrap(), before, "the log was replaced");
        assert_eq!(&located.read("a").unwrap()[..], b"first");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
