//! The deduplication storage substrate.
//!
//! The paper's prototypes run "in the user space of the Ext3 file system",
//! with four kinds of hash-addressable files (§III, Fig. 2–3):
//!
//! * **DiskChunks** — containers of non-duplicate data bytes; immutable
//!   once written.
//! * **Manifests** (DiskChunkManifests) — the sequence of hash values
//!   describing the data blocks inside one DiskChunk; the *only* files
//!   updated during deduplication (by HHR).
//! * **Hooks** — sampled hash values, each a tiny file holding the 20-byte
//!   address of the Manifest it belongs to; immutable once written.
//! * **FileManifests** — the per-input-file recipes used to reconstruct the
//!   original files.
//!
//! This crate reproduces that substrate with a pluggable [`Backend`] (an
//! in-memory accounting backend and a real on-disk directory backend), and
//! — because the paper's evaluation is entirely in terms of *counts* —
//! first-class accounting: [`IoStats`] mirrors the disk-access categories of
//! Table II and [`MetadataLedger`] mirrors the inode/byte categories of
//! Table I (256 bytes per inode, 20 bytes per Hook, 36 bytes per Manifest
//! entry plus a one-byte Hook flag in the MHD format, 28 bytes per
//! container group in the SubChunk format). The [`Substrate`] facade ties
//! the three together and is what the engines in `mhd-core` program
//! against.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// Raw `std::fs` mutation lives only in backend.rs's commit helpers
// (clippy.toml lists the calls); test code makes its own scratch trees.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod backend;
mod batched;
mod chunk_store;
mod error;
mod file_manifest;
mod iostats;
mod ledger;
mod manifest;
mod substrate;

pub use backend::{
    fsync_dir, fsync_file, record_fsyncs, safe_name, write_atomic, Backend, DirBackend, Durability,
    FaultBackend, FaultOp, FaultPoint, FileKind, MemBackend, RecoveryReport,
};
pub use batched::{BatchedDirBackend, IoConfig};
pub use chunk_store::{DiskChunkBuilder, DiskChunkId};
pub use error::{StoreError, StoreResult};
pub use file_manifest::{Extent, FileManifest, EXTENT_BYTES};
pub use iostats::IoStats;
pub use ledger::{MetadataLedger, INODE_BYTES};
pub use manifest::{Manifest, ManifestEntry, ManifestFormat, ManifestId};
pub use substrate::{Substrate, SubstrateState};
