//! RAM caching for Manifests.
//!
//! The paper's deduplicator keeps "a number of Manifests, each of which is
//! organized as a hash table" in an in-RAM cache: an incoming chunk is a
//! duplicate if its hash matches a cached Manifest (data locality makes
//! this the common hit path). "If the cache becomes full ... one Manifest
//! would be freed following the Least-Recently-Used (LRU) policy. A
//! Manifest that has been set dirty, is written back to the disk before it
//! is freed."
//!
//! [`LruCache`] is a general-purpose O(1) LRU (hash map + intrusive
//! doubly-linked list over a slab), and [`ManifestCache`] layers the
//! dedup-specific parts on top: a per-manifest hash index, a cache-wide
//! hash → manifest index so lookups do not scan every resident manifest,
//! and dirty tracking whose evictees are handed back to the caller for
//! write-back (the cache has no access to storage by design).

#![forbid(unsafe_code)]

mod lru;
mod manifest_cache;

pub use lru::LruCache;
pub use manifest_cache::{CachedManifest, ManifestCache};
