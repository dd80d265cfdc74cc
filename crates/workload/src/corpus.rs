//! Corpus generation: machines × daily snapshots of mutating disk images.

use bytes::Bytes;
use mhd_hash::sha1;
use serde::{Deserialize, Serialize};

use crate::mutate::Mutator;
use crate::rng::Rng;
use crate::spec::CorpusSpec;

/// One file within a backup stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Logical path, unique within the corpus
    /// (`m<machine>/d<day>/f<index>`).
    pub path: String,
    /// File content. `Bytes` so engines can slice without copying.
    pub data: Bytes,
}

/// One backup stream: a machine's disk image on one day, split into files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Machine index.
    pub machine: usize,
    /// Day index.
    pub day: usize,
    /// The image content as a sequence of files (engines consume the
    /// concatenated byte stream file by file, as in the paper's Fig. 2).
    pub files: Vec<FileEntry>,
}

impl Snapshot {
    /// Total bytes in this stream.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.data.len() as u64).sum()
    }
}

/// Generator ground truth, for calibration checks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Total input bytes over all streams.
    pub total_bytes: u64,
    /// Bytes that are fresh (never seen before) at generation time:
    /// day-0 unique regions + per-day mutation payloads. Lower bound on
    /// what any deduplicator must store.
    pub fresh_bytes: u64,
    /// Mutation sites applied across all days.
    pub mutation_sites: u64,
    /// Bytes carried over unchanged from the previous day (intra-machine
    /// duplicate volume).
    pub preserved_bytes: u64,
}

impl CorpusStats {
    /// Ground-truth upper bound on the data-only DER: total / fresh.
    pub fn ideal_der(&self) -> f64 {
        self.total_bytes as f64 / self.fresh_bytes.max(1) as f64
    }

    /// Ground-truth DAD estimate: preserved bytes per mutation site (each
    /// site terminates one unchanged run).
    pub fn expected_dad(&self) -> f64 {
        self.preserved_bytes as f64 / self.mutation_sites.max(1) as f64
    }
}

/// The generated corpus: streams in backup order (day-major: all machines
/// back up on day 0, then day 1, ...).
///
/// ```
/// use mhd_workload::{Corpus, CorpusSpec};
///
/// let corpus = Corpus::generate(CorpusSpec::tiny(7));
/// assert_eq!(corpus.snapshots.len(), 3 * 4); // 3 machines x 4 days
/// assert!(corpus.stats.ideal_der() > 1.0);   // duplication by construction
/// ```
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Backup streams in processing order.
    pub snapshots: Vec<Snapshot>,
    /// Generation ground truth.
    pub stats: CorpusStats,
    spec: CorpusSpec,
}

/// Deterministic sub-seed for a (machine, day) cell, independent of
/// generation order.
fn sub_seed(master: u64, machine: usize, day: usize) -> u64 {
    let mut bytes = [0u8; 24];
    bytes[..8].copy_from_slice(&master.to_le_bytes());
    bytes[8..16].copy_from_slice(&(machine as u64).to_le_bytes());
    bytes[16..24].copy_from_slice(&(day as u64).to_le_bytes());
    sha1(&bytes).prefix_u64()
}

impl Corpus {
    /// Generates the corpus described by `spec`. Deterministic in
    /// `spec.seed`; machine image evolution fans out over scoped threads.
    pub fn generate(spec: CorpusSpec) -> Self {
        spec.validate();

        // Shared OS base image per family.
        let base_len = (spec.machine_bytes as f64 * spec.os_base_fraction) as usize;
        let bases: Vec<Vec<u8>> = (0..spec.os_families)
            .map(|f| Rng::new(sub_seed(spec.seed, usize::MAX - f, 0)).bytes(base_len))
            .collect();

        // Evolve each machine's image over the days, in parallel across
        // machines (each machine's history is sequential).
        let per_machine: Vec<(Vec<Vec<u8>>, CorpusStats)> =
            map_on_scoped_threads(spec.machines, |m| {
                let family = m % spec.os_families;
                let mut rng = Rng::new(sub_seed(spec.seed, m, 0));
                let unique_len = spec.machine_bytes as usize - base_len;

                // The image is a static OS base region (shared within the
                // family, rarely updated) followed by the machine's user
                // region (mutated daily). Real disk images behave this
                // way, and the static region is exactly what big-chunk
                // algorithms (Bimodal/SubChunk) exploit.
                let mut base = bases[family].clone();
                let mut user = rng.bytes(unique_len);

                let mut stats = CorpusStats {
                    // The family base is fresh only for the first machine of
                    // the family; attribute it there (m < os_families).
                    fresh_bytes: if m < spec.os_families {
                        spec.machine_bytes
                    } else {
                        unique_len as u64
                    },
                    ..Default::default()
                };
                stats.total_bytes += (base.len() + user.len()) as u64;

                let mutator = Mutator::new(spec.mean_slice_len, spec.mean_site_len);
                let mut days = Vec::with_capacity(spec.snapshots);
                days.push([base.as_slice(), user.as_slice()].concat());

                for day in 1..spec.snapshots {
                    let mut rng = Rng::new(sub_seed(spec.seed, m, day));
                    let mut mstats = mutator.mutate(&mut user, &mut rng);
                    if rng.unit_f64() < spec.base_update_prob {
                        mstats.absorb(mutator.mutate(&mut base, &mut rng));
                    } else {
                        // Untouched base: one long preserved run.
                        mstats.preserved_bytes += base.len() as u64;
                    }
                    if rng.unit_f64() < spec.fresh_append_prob {
                        let len = (spec.machine_bytes as f64 * spec.fresh_append_fraction) as usize;
                        mstats.absorb(Mutator::append_fresh(&mut user, len, &mut rng));
                    }
                    stats.fresh_bytes += mstats.fresh_bytes;
                    stats.mutation_sites += mstats.sites;
                    stats.preserved_bytes += mstats.preserved_bytes;
                    stats.total_bytes += (base.len() + user.len()) as u64;
                    days.push([base.as_slice(), user.as_slice()].concat());
                }
                (days, stats)
            });

        // Assemble in day-major backup order and split images into files.
        let mut snapshots = Vec::with_capacity(spec.machines * spec.snapshots);
        let mut stats = CorpusStats::default();
        for (_, s) in &per_machine {
            stats.total_bytes += s.total_bytes;
            stats.fresh_bytes += s.fresh_bytes;
            stats.mutation_sites += s.mutation_sites;
            stats.preserved_bytes += s.preserved_bytes;
        }
        for day in 0..spec.snapshots {
            for (m, (days, _)) in per_machine.iter().enumerate() {
                snapshots.push(split_into_files(m, day, &days[day], spec.file_bytes));
            }
        }
        Corpus { snapshots, stats, spec }
    }

    /// The spec this corpus was generated from.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// Total input bytes over all streams.
    pub fn total_bytes(&self) -> u64 {
        self.stats.total_bytes
    }
}

/// `(0..n).map(f)` for `n > 0` on scoped threads: one contiguous block
/// of indices per available core (no work stealing — the per-machine
/// cost is uniform), results in index order.
fn map_on_scoped_threads<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let block = n.div_ceil(cores.min(n));
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n)
            .step_by(block)
            .map(|lo| scope.spawn(move || (lo..n.min(lo + block)).map(f).collect::<Vec<R>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("corpus generation worker panicked"))
            .collect()
    })
}

/// Splits one image into ~`file_bytes` files sharing the image's `Bytes`
/// allocation.
fn split_into_files(machine: usize, day: usize, image: &[u8], file_bytes: u64) -> Snapshot {
    let shared = Bytes::copy_from_slice(image);
    let mut files = Vec::new();
    let mut off = 0usize;
    let step = file_bytes as usize;
    let mut idx = 0;
    while off < shared.len() {
        let end = (off + step).min(shared.len());
        files.push(FileEntry {
            path: format!("m{machine}/d{day}/f{idx}"),
            data: shared.slice(off..end),
        });
        off = end;
        idx += 1;
    }
    Snapshot { machine, day, files }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = Corpus::generate(CorpusSpec::tiny(1));
        let b = Corpus::generate(CorpusSpec::tiny(1));
        assert_eq!(a.snapshots, b.snapshots);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn seeds_change_content() {
        let a = Corpus::generate(CorpusSpec::tiny(1));
        let b = Corpus::generate(CorpusSpec::tiny(2));
        assert_ne!(a.snapshots[0].files[0].data, b.snapshots[0].files[0].data);
    }

    #[test]
    fn day_major_order_and_sizes() {
        let spec = CorpusSpec::tiny(3);
        let c = Corpus::generate(spec);
        assert_eq!(c.snapshots.len(), spec.machines * spec.snapshots);
        for (i, s) in c.snapshots.iter().enumerate() {
            assert_eq!(s.day, i / spec.machines);
            assert_eq!(s.machine, i % spec.machines);
            assert!(s.total_bytes() > 0);
            for f in &s.files {
                assert!(f.data.len() as u64 <= spec.file_bytes);
            }
        }
        let sum: u64 = c.snapshots.iter().map(|s| s.total_bytes()).sum();
        assert_eq!(sum, c.total_bytes());
    }

    #[test]
    fn same_family_day0_images_share_base() {
        let spec = CorpusSpec::tiny(4); // 3 machines, 2 families: m0,m2 share
        let c = Corpus::generate(spec);
        let m0 = &c.snapshots[0];
        let m2 = &c.snapshots[2];
        let base_len = (spec.machine_bytes as f64 * spec.os_base_fraction) as usize;
        let head0: Vec<u8> = m0.files.iter().flat_map(|f| f.data.to_vec()).take(base_len).collect();
        let head2: Vec<u8> = m2.files.iter().flat_map(|f| f.data.to_vec()).take(base_len).collect();
        assert_eq!(head0, head2, "family base must be shared on day 0");
        // m1 is in the other family.
        let head1: Vec<u8> =
            c.snapshots[1].files.iter().flat_map(|f| f.data.to_vec()).take(base_len).collect();
        assert_ne!(head0, head1);
    }

    #[test]
    fn consecutive_days_mostly_identical() {
        let spec = CorpusSpec::tiny(5);
        let c = Corpus::generate(spec);
        // Machine 0, day 0 vs day 1: long common windows must exist.
        let d0: Vec<u8> = c.snapshots[0].files.iter().flat_map(|f| f.data.to_vec()).collect();
        let d1: Vec<u8> =
            c.snapshots[spec.machines].files.iter().flat_map(|f| f.data.to_vec()).collect();
        let probe = &d0[d0.len() / 2..d0.len() / 2 + 2048];
        assert!(d1.windows(probe.len()).any(|w| w == probe));
    }

    #[test]
    fn ground_truth_der_is_plausible() {
        // Paper-shaped corpus at small scale: ideal DER should land near
        // the paper's measured ≈ 4.15 (allowing generator slack).
        let c = Corpus::generate(CorpusSpec::paper_like(48 << 20));
        let der = c.stats.ideal_der();
        assert!((2.5..8.0).contains(&der), "ideal DER {der}");
    }

    #[test]
    fn stats_total_matches_snapshots() {
        let c = Corpus::generate(CorpusSpec::tiny(6));
        let sum: u64 = c.snapshots.iter().map(|s| s.total_bytes()).sum();
        assert_eq!(c.stats.total_bytes, sum);
    }
}
