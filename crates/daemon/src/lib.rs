//! Multi-tenant MHD backup daemon.
//!
//! `mhd serve` turns the single-process, single-stream `mhd` CLI store
//! into a long-running service: many clients back up and restore
//! **concurrently**, as isolated **tenants**, against **one shared
//! deduplicated datastore** — the ROADMAP's "production-scale backup
//! service" step. The crate is a library; the `mhd serve` / `mhd client`
//! subcommands are thin drivers over it, and the integration tests drive
//! it in-process.
//!
//! # Architecture (DESIGN.md §10 has the full picture)
//!
//! * **One store, sharded commit work.** All tenants share a single
//!   [`BatchedDirBackend`](mhd_store::BatchedDirBackend) datastore, so
//!   cross-tenant duplicate data is stored once — the whole point of a
//!   shared dedup store. Tenancy is a *namespace* property: recipe names
//!   are prefixed `tenant/label/path`, and every listing/restore is
//!   filtered by the tenant prefix, so metadata never leaks across
//!   tenants even though chunks are shared.
//! * **Sessions are staged, commits are atomic and two-phase.** A write
//!   session stages its files in memory ([`WriteSession`]); nothing
//!   touches the store until `COMMIT`. The commit's dedup pipeline runs
//!   *outside* the engine lock on a per-session [`StagingBackend`]
//!   (hook probes against the lock-free index), and only the short
//!   publish phase — id-range reservation, `FLUSH_ORDER` splice, state
//!   persist — serialises, so aggregate throughput grows with session
//!   count. A crash mid-commit is rolled back at the next open — by
//!   this daemon or by `mhd backup|fsck` — from the session **intent
//!   records** (`daemon/wip/<stream>`) plus the persisted id watermarks
//!   ([`mhd_core::statefile`], DESIGN.md §8).
//! * **GC is watermark-protected.** Chunk ids are monotonic, so each
//!   session registers the id watermark at open
//!   ([`SessionRegistry`]); garbage collection sweeps only below
//!   `min(watermarks)` ([`mhd_core::gc::collect_protected`]), and a
//!   sweep that deleted anything sends every running pipeline back to
//!   re-run against what is left. The crate's tests run every
//!   interleaving of `BEGIN`, pipeline, publish and GC on a real store.
//! * **The hook index is sharded and shared.** [`SharedHookIndex`] keeps
//!   the hash→manifest hook mapping in N `RwLock` shards, kept coherent
//!   by [`IndexingBackend`] on the store's own write path; `HAVE` queries
//!   and stats read it without the engine lock, with per-shard `shard=N`
//!   obs attribution.
//!
//! # Quick use
//!
//! ```
//! use mhd_daemon::{Client, Daemon, DaemonConfig};
//! # let dir = std::env::temp_dir().join(format!("mhd-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! # std::fs::create_dir_all(&dir).unwrap();
//! let store = dir.join("store");
//! let socket = dir.join("mhd.sock");
//!
//! let daemon = Daemon::open(&store, DaemonConfig::default())?;
//! let handle = daemon.spawn(&socket)?;
//!
//! let mut client = Client::connect(&socket)?;
//! client.open("alice")?;
//! client.begin("day0")?;
//! client.send_file("disk.img", b"not much of a disk image")?;
//! let commit = client.commit()?;
//! assert_eq!(commit.files, 1);
//! let back = client.restore("day0/disk.img")?;
//! assert_eq!(back, b"not much of a disk image");
//! client.shutdown()?;
//! handle.join()?;
//! # std::fs::remove_dir_all(&dir).unwrap();
//! # Ok::<(), mhd_daemon::DaemonError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod client;
mod error;
mod index;
mod protocol;
mod registry;
mod server;
mod shared;
mod staging;

pub use client::{Client, CommitSummary};
pub use error::{DaemonError, DaemonResult};
pub use index::{IndexingBackend, SharedHookIndex, INDEX_SHARDS};
/// What [`SharedStore::open`]'s recovery found and undid.
pub use mhd_core::statefile::RecoverySummary;
pub use protocol::{Request, MAX_FILE_BYTES, MAX_LINE_BYTES};
pub use registry::SessionRegistry;
pub use server::{Daemon, ServeHandle};
pub use shared::{CommitReport, DaemonConfig, DaemonStats, SharedStore, WriteSession};
pub use staging::{Overlay, StagingBackend};
