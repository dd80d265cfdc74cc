//! Content hashing primitives for the `mhd-dedup` workspace.
//!
//! The paper (Zhou & Wen, ICPP 2013) identifies every data block by a
//! SHA-1 digest; Hooks, Manifest entries, and DiskChunk names are all
//! 160-bit hash values. This crate provides:
//!
//! * [`Sha1`] — a from-scratch, dependency-free implementation of
//!   FIPS 180-1 SHA-1 with a streaming interface, run on the CPU's SHA
//!   extensions where it has them ([`kernel`] says which),
//! * [`ChunkHash`] — a compact, `Copy`, ordered 160-bit digest newtype used
//!   as the universal identifier throughout the workspace,
//! * [`FxHasher64`] / [`FxHashMap`] / [`FxHashSet`] — a fast, non-DoS-hardened
//!   hasher for hot in-memory index structures (the deduplication indexes
//!   are keyed by already-uniform SHA-1 bytes, so SipHash would be wasted
//!   work).
//!
//! SHA-1 is used here as a *content identifier*, exactly as in the paper and
//! in contemporaneous systems (Venti, LBFS, Data Domain, Sparse Indexing).
//! It is not used for any security purpose.

// No `forbid(unsafe_code)` here: the workspace's `deny` stands, and the
// SHA-extension kernel is its one exception, allowed on its module below
// and nowhere else.
#![deny(clippy::undocumented_unsafe_blocks)]

mod chunk_hash;
mod fx;
mod sha1;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha1_x86;

pub use chunk_hash::{ChunkHash, ParseHashError, HASH_LEN};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher64};
pub use sha1::{kernel, sha1, Sha1};
