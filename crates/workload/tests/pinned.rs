//! The generator's output, pinned by digest.
//!
//! Every committed exhibit names a corpus by its flags (`--bytes N
//! --seed S`); these digests are what makes that a name for *bytes*. The
//! expected values were computed with the generator of the commit before
//! its PRNG moved into this crate (`rng.rs`, generator v1) and must never
//! be edited to make a change pass: a different digest is a different
//! corpus, and every file under `results/` would have to be regenerated.

use mhd_hash::Sha1;
use mhd_workload::{Corpus, CorpusSpec};

/// SHA-1 over every file of every stream in backup order: path, length,
/// bytes.
fn digest(corpus: &Corpus) -> String {
    let mut h = Sha1::new();
    for s in &corpus.snapshots {
        for f in &s.files {
            h.update(f.path.as_bytes());
            h.update(&(f.data.len() as u64).to_le_bytes());
            h.update(&f.data);
        }
    }
    h.finalize().to_hex()
}

#[test]
fn tiny_corpus_is_pinned() {
    let c = Corpus::generate(CorpusSpec::tiny(42));
    assert_eq!(c.total_bytes(), 1_586_851);
    assert_eq!(digest(&c), "889058468f2ac42d3d25c876820f7d9e0d9346f1");
}

/// What `--bytes 16M --seed 42` gives every exhibit binary
/// (`mhd_bench::Cli::corpus`).
#[test]
fn bytes_16m_seed_42_corpus_is_pinned() {
    let c = Corpus::generate(CorpusSpec { seed: 42, ..CorpusSpec::paper_like(16 << 20) });
    assert_eq!(c.total_bytes(), 17_166_737);
    assert_eq!(c.stats.fresh_bytes, 4_995_199);
    assert_eq!(digest(&c), "8368877bec006f40122c566b06655d0419c4bce8");
}
