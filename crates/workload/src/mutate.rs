//! The day-to-day image mutation model.

use crate::rng::Rng;

/// Ground-truth accounting of what a mutation pass changed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MutationStats {
    /// Mutation sites applied.
    pub sites: u64,
    /// Fresh bytes written (overwrites + inserts + appended blocks).
    pub fresh_bytes: u64,
    /// Bytes deleted.
    pub deleted_bytes: u64,
    /// Unchanged-run bytes between/around sites (duplicate-slice ground
    /// truth for DAD calibration).
    pub preserved_bytes: u64,
}

/// Applies localized mutations to disk images, day over day.
///
/// Sites are spaced exponentially with mean `mean_slice_len`, each site
/// overwriting, inserting, or deleting an exponentially-sized span with
/// mean `mean_site_len`. Overwrites are twice as likely as inserts or
/// deletes, and insert/delete are balanced so image size stays roughly
/// stationary.
pub struct Mutator {
    mean_slice_len: f64,
    mean_site_len: f64,
}

impl Mutator {
    /// Creates a mutator with the given spacing/site-size means (bytes).
    pub fn new(mean_slice_len: u64, mean_site_len: u64) -> Self {
        assert!(mean_slice_len > 0 && mean_site_len > 0);
        Mutator { mean_slice_len: mean_slice_len as f64, mean_site_len: mean_site_len as f64 }
    }

    fn exp(&self, rng: &mut Rng, mean: f64) -> usize {
        let u = rng.unit_f64().max(1e-12);
        ((-u.ln()) * mean).round().max(1.0) as usize
    }

    /// Mutates `image` in place, returning what changed.
    pub fn mutate(&self, image: &mut Vec<u8>, rng: &mut Rng) -> MutationStats {
        let mut stats = MutationStats::default();
        let mut out = Vec::with_capacity(image.len() + image.len() / 16);
        let mut pos = 0usize;

        while pos < image.len() {
            let gap = self.exp(rng, self.mean_slice_len).min(image.len() - pos);
            out.extend_from_slice(&image[pos..pos + gap]);
            stats.preserved_bytes += gap as u64;
            pos += gap;
            if pos >= image.len() {
                break;
            }

            // Every kind is clamped alike, so insert/delete volumes stay
            // balanced and the image size stationary.
            let span = self.exp(rng, self.mean_site_len).min(image.len() - pos);
            stats.sites += 1;
            match rng.below(4) {
                // 0, 1: overwrite in place (file edits; no boundary shift).
                // 2: insert (file growth; old data continues after it, so
                // everything behind shifts — the case fixed-size chunking
                // cannot handle).
                kind @ 0..=2 => {
                    let start = out.len();
                    out.resize(start + span, 0);
                    rng.fill_bytes(&mut out[start..]);
                    stats.fresh_bytes += span as u64;
                    if kind < 2 {
                        pos += span;
                    }
                }
                // 3: delete (file truncation/removal; also shifts).
                _ => {
                    stats.deleted_bytes += span as u64;
                    pos += span;
                }
            }
        }
        *image = out;
        stats
    }

    /// Appends `len` fresh bytes ("new files" churn).
    pub fn append_fresh(image: &mut Vec<u8>, len: usize, rng: &mut Rng) -> MutationStats {
        let start = image.len();
        image.resize(start + len, 0);
        rng.fill_bytes(&mut image[start..]);
        MutationStats { sites: 1, fresh_bytes: len as u64, ..Default::default() }
    }
}

impl MutationStats {
    /// Element-wise accumulation.
    pub fn absorb(&mut self, other: MutationStats) {
        self.sites += other.sites;
        self.fresh_bytes += other.fresh_bytes;
        self.deleted_bytes += other.deleted_bytes;
        self.preserved_bytes += other.preserved_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Rng {
        Rng::new(seed)
    }

    fn image(len: usize, seed: u64) -> Vec<u8> {
        rng(seed).bytes(len)
    }

    #[test]
    fn preserves_most_bytes_at_long_spacing() {
        let m = Mutator::new(64 << 10, 1 << 10);
        let mut img = image(1 << 20, 1);
        let before = img.clone();
        let stats = m.mutate(&mut img, &mut rng(2));
        assert!(stats.sites > 0);
        // Most of the image is untouched runs.
        assert!(stats.preserved_bytes as usize > before.len() * 3 / 4);
        // Accounting consistency: output = preserved + fresh.
        assert_eq!(img.len() as u64, stats.preserved_bytes + stats.fresh_bytes);
        // And input = preserved + overwritten-or-deleted old bytes, which
        // is bounded by fresh + deleted.
        assert!(
            before.len() as u64 <= stats.preserved_bytes + stats.fresh_bytes + stats.deleted_bytes
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let m = Mutator::new(8 << 10, 1 << 10);
        let mut a = image(256 << 10, 3);
        let mut b = a.clone();
        m.mutate(&mut a, &mut rng(4));
        m.mutate(&mut b, &mut rng(4));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let m = Mutator::new(8 << 10, 1 << 10);
        let mut a = image(256 << 10, 3);
        let mut b = a.clone();
        m.mutate(&mut a, &mut rng(5));
        m.mutate(&mut b, &mut rng(6));
        assert_ne!(a, b);
    }

    #[test]
    fn image_size_roughly_stationary() {
        let m = Mutator::new(16 << 10, 2 << 10);
        let mut img = image(1 << 20, 7);
        let mut r = rng(8);
        for _ in 0..10 {
            m.mutate(&mut img, &mut r);
        }
        let ratio = img.len() as f64 / (1 << 20) as f64;
        assert!((0.5..2.0).contains(&ratio), "image drifted to {ratio}x");
    }

    #[test]
    fn append_fresh_extends_and_accounts() {
        let mut img = image(1000, 9);
        let stats = Mutator::append_fresh(&mut img, 500, &mut rng(10));
        assert_eq!(img.len(), 1500);
        assert_eq!(stats.fresh_bytes, 500);
    }

    #[test]
    fn shared_prefix_means_slices_survive() {
        // After one mutation pass, long common substrings must remain (the
        // duplicate slices dedup finds). Check cheaply: some 4 KiB window
        // of the old image appears verbatim in the new one.
        let m = Mutator::new(64 << 10, 1 << 10);
        let mut img = image(512 << 10, 11);
        let before = img.clone();
        m.mutate(&mut img, &mut rng(12));
        let probe = &before[100_000..104_096];
        let found = img.windows(probe.len()).any(|w| w == probe);
        assert!(found, "no preserved 4 KiB slice found");
    }
}
