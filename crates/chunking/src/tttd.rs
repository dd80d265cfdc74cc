//! The Two-Threshold Two-Divisor chunker (Eshghi & Tang \[3\]).
//!
//! TTTD improves on the hard max-size cut of the basic algorithm: while
//! scanning, positions matching a *backup* (more permissive) divisor are
//! remembered, and if the main divisor never fires before the upper bound,
//! the most recent backup candidate is used instead of an arbitrary cut at
//! `max`. This keeps more cut points content-defined, which matters for
//! data with long low-entropy runs.

use std::sync::Arc;

use crate::params::ChunkerParams;
use crate::rabin::RabinTables;
use crate::Chunker;

/// TTTD content-defined chunker.
#[derive(Clone)]
pub struct TttdChunker {
    params: ChunkerParams,
    tables: Arc<RabinTables>,
    /// `(mask, magic)` of the backup divisor. `None` when `avg <= 2`: the
    /// halved mask would be 0 there, and a `value & 0 == 0` test matches at
    /// *every* position, turning the backup cut into an unconditional cut
    /// near `max` — degenerating TTTD below plain CDC. With no meaningful
    /// backup divisor the chunker falls back to plain hard-max behaviour.
    backup: Option<(u64, u64)>,
}

impl TttdChunker {
    /// Creates a TTTD chunker. The backup divisor is half the main divisor
    /// (i.e. fires with twice the probability), the conventional choice.
    pub fn new(params: ChunkerParams) -> Result<Self, crate::ParamError> {
        params.validate()?;
        let backup_mask = params.mask() >> 1;
        let backup = (backup_mask != 0).then_some((backup_mask, params.magic() & backup_mask));
        Ok(TttdChunker { params, tables: RabinTables::default_with_window(params.window), backup })
    }

    /// Convenience constructor from an expected chunk size.
    pub fn with_avg(avg: usize) -> Result<Self, crate::ParamError> {
        Self::new(ChunkerParams::with_avg(avg)?)
    }

    /// The configured parameters.
    pub fn params(&self) -> ChunkerParams {
        self.params
    }
}

impl Chunker for TttdChunker {
    fn next_cut(&self, data: &[u8], start: usize) -> usize {
        let p = &self.params;
        let remaining = data.len() - start;
        if remaining <= p.min {
            return data.len();
        }
        let limit = remaining.min(p.max);
        let mask = p.mask();
        let magic = p.magic();

        let mut backup: Option<usize> = None;
        let main_cut = self.tables.scan(data, start + p.min, start + limit, |pos, value| {
            if value & mask == magic {
                return true;
            }
            if let Some((bmask, bmagic)) = self.backup {
                if value & bmask == bmagic {
                    backup = Some(pos);
                }
            }
            false
        });
        if let Some(pos) = main_cut {
            return pos;
        }
        // Reached the upper bound without a main-divisor match: prefer the
        // most recent backup candidate. (Only when the bound was actually
        // the max — a short tail is simply the final chunk.)
        if limit == p.max {
            if let Some(pos) = backup {
                return pos;
            }
        }
        start + limit
    }

    fn expected_chunk_size(&self) -> usize {
        self.params.avg
    }

    fn max_chunk_size(&self) -> usize {
        self.params.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RabinChunker;
    use mhd_workload::Rng;

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn fewer_max_size_chunks_than_plain_cdc_on_low_entropy_data() {
        // Data with long compressible runs interrupted by random islands:
        // plain CDC cuts runs at hard max; TTTD finds backup cut points in
        // the random islands more often.
        let mut rng = Rng::new(11);
        let mut data = Vec::new();
        for _ in 0..200 {
            data.extend(std::iter::repeat_n(0xAAu8, 500 + rng.below(2500) as usize));
            data.extend((0..100 + rng.below(300) as usize).map(|_| rng.next_u64() as u8));
        }
        let cdc = RabinChunker::with_avg(512).unwrap();
        let tttd = TttdChunker::with_avg(512).unwrap();
        let max = cdc.params().max;
        let cdc_hard = cdc.spans(&data).iter().filter(|s| s.len == max).count();
        let tttd_hard = tttd.spans(&data).iter().filter(|s| s.len == max).count();
        assert!(
            tttd_hard <= cdc_hard,
            "TTTD produced more hard cuts ({tttd_hard}) than CDC ({cdc_hard})"
        );
    }

    #[test]
    fn main_divisor_cuts_match_cdc() {
        // Where the main divisor fires first, TTTD and plain CDC agree.
        let data = random_data(100_000, 17);
        let cdc = RabinChunker::with_avg(512).unwrap();
        let tttd = TttdChunker::with_avg(512).unwrap();
        // On fully random data hard cuts are rare, so most boundaries agree.
        let a: std::collections::HashSet<_> = cdc.cut_points(&data).into_iter().collect();
        let b = tttd.cut_points(&data);
        let common = b.iter().filter(|c| a.contains(c)).count();
        assert!(common * 10 >= b.len() * 9, "{common}/{} agree", b.len());
    }

    #[test]
    fn degenerate_avg_two_falls_back_to_plain_cdc() {
        // Regression: with `avg = 2` the halved backup mask is 0, and the
        // old `value & 0 == 0` test fired at every position, so the backup
        // cut always replaced the hard `max` cut with whatever position was
        // scanned last. The safe derivation disables the backup divisor
        // instead, making TTTD cut exactly like plain CDC.
        let tttd = TttdChunker::with_avg(2).unwrap();
        assert!(tttd.backup.is_none(), "avg=2 must disable the backup divisor");
        let cdc = RabinChunker::with_avg(2).unwrap();
        // Low-entropy data maximises hard-max cuts, where the backup path
        // (and therefore the old bug) kicks in.
        let mut data = vec![0xAAu8; 10_000];
        data.extend_from_slice(&random_data(10_000, 19));
        assert_eq!(tttd.cut_points(&data), cdc.cut_points(&data));

        // The first avg with a usable backup divisor keeps it enabled.
        assert!(TttdChunker::with_avg(4).unwrap().backup.is_some());
    }

    // Tiling/bounds/determinism/streaming for TTTD are covered by the
    // parameterized matrix suite in `crate::matrix`.
}
