//! Synthetic disk-image backup corpus.
//!
//! The paper evaluates on "disk image backups of a group of 14 PCs running
//! the Windows, Linux or Mac operating systems ... over a period of two
//! weeks", 1.0 TB total, with a measured maximal data-only DER of ≈ 4.15
//! and a Duplication Aggregation Degree (DAD — duplicate bytes per
//! duplicate slice) between 90 KB and 220 KB (Fig. 10a). That dataset is
//! private, so this crate generates a *statistically equivalent* corpus:
//!
//! * `machines` PCs split across `os_families` OS families; machines in a
//!   family start from the same OS base image (cross-machine duplication),
//! * one backup stream per machine per day for `snapshots` days; each day's
//!   image is the previous day's image with localised mutations
//!   (overwrite / insert / delete at sites spaced ~[`CorpusSpec::mean_slice_len`]
//!   apart — this spacing *is* the DAD control), plus occasional fresh
//!   appended data (new files),
//! * everything derived from a single seed, with per-(machine, day)
//!   sub-seeds so generation can fan out across threads (one scoped
//!   thread per block of machines) and still be bit-for-bit
//!   deterministic. The bytes come from this crate's own PRNG ([`Rng`],
//!   generator v1): `tests/pinned.rs` pins two corpora by digest, so a
//!   corpus is named by its flags across commits.
//!
//! Deduplication behaviour depends on the duplication *distribution* —
//! slice lengths, churn rate, boundary shifts from insertions/deletions —
//! not on whether the bytes are real NTFS structures, so this preserves
//! exactly what the paper's experiments measure. The generator reports its
//! ground truth ([`CorpusStats`]) so experiments can sanity-check the
//! calibration (DER ≈ 4, DAD in the 100–200 KB band).

#![forbid(unsafe_code)]

mod corpus;
mod mutate;
mod rng;
mod spec;
pub mod trace;

pub use corpus::{Corpus, CorpusStats, FileEntry, Snapshot};
pub use mutate::{MutationStats, Mutator};
pub use rng::Rng;
pub use spec::CorpusSpec;
