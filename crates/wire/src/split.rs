//! Chunk planning for multi-rail message splitting.
//!
//! Section 3.4 of the paper: large messages are "stripped into packs large
//! enough to avoid the transfer of the different chunks with a PIO
//! operation", with per-rail chunk sizes derived from sampling so that the
//! per-chunk transfer times are equal. A [`SplitPlan`] is the pure-data
//! outcome of that decision: an ordered list of `(offset, len, rail)`
//! chunk specifications that exactly covers the message.

use crate::error::WireError;
use crate::small::SmallList;

/// Rails a plan covers without allocating: one chunk per rail.
const INLINE_RAILS: usize = 4;

/// One planned chunk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Byte offset within the message payload.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
    /// Rail index the chunk is planned onto.
    pub rail: usize,
}

/// An ordered set of chunks covering a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitPlan {
    total_len: u64,
    chunks: SmallList<ChunkSpec, INLINE_RAILS>,
}

impl SplitPlan {
    /// Plan a split of `total_len` bytes across rails with the given
    /// weights (one per rail, need not be normalized; rails weighted 0 get
    /// nothing). Chunks smaller than `min_chunk` are folded into their
    /// neighbour so no chunk falls back into the PIO regime.
    ///
    /// Returns a single-chunk plan on the heaviest rail when `total_len`
    /// itself is below `2 * min_chunk` — splitting would create a PIO-sized
    /// fragment, exactly what §3.4 avoids.
    pub fn by_ratio<W>(total_len: u64, weights: W, min_chunk: u64) -> SplitPlan
    where
        W: IntoIterator<Item = f64>,
        W::IntoIter: Clone,
    {
        let weights = weights.into_iter();
        assert!(
            weights.clone().all(|w| w.is_finite() && w >= 0.0),
            "weights must be finite and non-negative: {:?}",
            weights.collect::<Vec<_>>()
        );
        let sum: f64 = weights.clone().sum();
        assert!(sum > 0.0, "at least one weight must be positive");

        // (The last of equally heavy rails, as `Iterator::max_by` picks.)
        let heaviest = weights
            .clone()
            .enumerate()
            .fold(
                (0, f64::MIN),
                |best, (i, w)| if w >= best.1 { (i, w) } else { best },
            )
            .0;

        if total_len < 2 * min_chunk.max(1) {
            return SplitPlan::single(total_len, heaviest);
        }

        // First pass: proportional shares, floored.
        let mut lens: SmallList<u64, INLINE_RAILS> = weights
            .map(|w| ((w / sum) * total_len as f64).floor() as u64)
            .collect();
        // Distribute the rounding remainder to the heaviest rail.
        let assigned: u64 = lens.iter().sum();
        lens[heaviest] += total_len - assigned;

        // Fold sub-minimum shares into the heaviest rail so no chunk is
        // PIO-sized (rails with zero weight simply stay empty).
        for i in 0..lens.len() {
            if i != heaviest && lens[i] > 0 && lens[i] < min_chunk {
                lens[heaviest] += lens[i];
                lens[i] = 0;
            }
        }

        let mut chunks = SmallList::new();
        let mut offset = 0u64;
        for (rail, &len) in lens.iter().enumerate() {
            if len == 0 {
                continue;
            }
            chunks.push(ChunkSpec { offset, len, rail });
            offset += len;
        }
        debug_assert_eq!(offset, total_len);
        SplitPlan { total_len, chunks }
    }

    /// Even split across `n_rails` (the "iso-split" reference of Fig. 7).
    pub fn iso(total_len: u64, n_rails: usize, min_chunk: u64) -> SplitPlan {
        assert!(n_rails > 0);
        SplitPlan::by_ratio(total_len, std::iter::repeat_n(1.0, n_rails), min_chunk)
    }

    /// A plan that keeps the whole message on one rail.
    pub fn single(total_len: u64, rail: usize) -> SplitPlan {
        SplitPlan {
            total_len,
            chunks: (total_len > 0)
                .then_some(ChunkSpec {
                    offset: 0,
                    len: total_len,
                    rail,
                })
                .into_iter()
                .collect(),
        }
    }

    /// Total message length covered.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Planned chunks in offset order.
    pub fn chunks(&self) -> impl Iterator<Item = &ChunkSpec> + '_ {
        self.chunks.iter()
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when the plan covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Bytes planned onto `rail`.
    pub fn bytes_on_rail(&self, rail: usize) -> u64 {
        self.chunks
            .iter()
            .filter(|c| c.rail == rail)
            .map(|c| c.len)
            .sum()
    }

    /// Verify the covering invariant: chunks are sorted, contiguous,
    /// non-overlapping, and sum to `total_len`. Returns the violation as a
    /// [`WireError::BadLength`] for uniform error plumbing.
    pub fn validate(&self) -> Result<(), WireError> {
        let mut expected_offset = 0u64;
        for c in self.chunks() {
            if c.offset != expected_offset {
                return Err(WireError::BadLength {
                    what: "chunk offset",
                    value: c.offset,
                });
            }
            if c.len == 0 {
                return Err(WireError::BadLength {
                    what: "chunk length",
                    value: 0,
                });
            }
            expected_offset += c.len;
        }
        if expected_offset != self.total_len {
            return Err(WireError::BadLength {
                what: "plan coverage",
                value: expected_offset,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_split_shapes() {
        // Paper platform: Myri 1202, Quadrics 851 -> ~58.6% / 41.4%.
        let plan = SplitPlan::by_ratio(8 << 20, [1202.0, 851.0], 8 * 1024);
        plan.validate().unwrap();
        assert_eq!(plan.len(), 2);
        let myri = plan.bytes_on_rail(0) as f64;
        let quad = plan.bytes_on_rail(1) as f64;
        let frac = myri / (myri + quad);
        assert!((frac - 1202.0 / 2053.0).abs() < 0.001, "fraction {frac}");
    }

    #[test]
    fn iso_split_is_even() {
        let plan = SplitPlan::iso(1 << 20, 2, 8 * 1024);
        plan.validate().unwrap();
        let a = plan.bytes_on_rail(0);
        let b = plan.bytes_on_rail(1);
        assert!(a.abs_diff(b) <= 1, "iso halves differ: {a} vs {b}");
        assert_eq!(a + b, 1 << 20);
    }

    #[test]
    fn small_message_stays_whole_on_heaviest_rail() {
        let plan = SplitPlan::by_ratio(10_000, [1202.0, 851.0], 8 * 1024);
        plan.validate().unwrap();
        assert_eq!(plan.len(), 1, "below 2*min_chunk must not split");
        assert_eq!(
            plan.chunks().next().unwrap().rail,
            0,
            "heaviest rail takes it"
        );
        assert_eq!(plan.bytes_on_rail(0), 10_000);
    }

    #[test]
    fn sub_minimum_share_folds_into_heaviest() {
        // Rail 1 weighted so lightly its share would be < min_chunk.
        let plan = SplitPlan::by_ratio(100_000, [1.0, 0.01], 8 * 1024);
        plan.validate().unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.bytes_on_rail(0), 100_000);
        assert_eq!(plan.bytes_on_rail(1), 0);
    }

    #[test]
    fn zero_weight_rail_gets_nothing() {
        let plan = SplitPlan::by_ratio(1 << 20, [1.0, 0.0, 1.0], 1024);
        plan.validate().unwrap();
        assert_eq!(plan.bytes_on_rail(1), 0);
        assert!(plan.bytes_on_rail(0) > 0 && plan.bytes_on_rail(2) > 0);
    }

    #[test]
    fn zero_length_plan_is_empty() {
        let plan = SplitPlan::by_ratio(0, [1.0, 1.0], 1024);
        plan.validate().unwrap();
        assert!(plan.is_empty());
        let single = SplitPlan::single(0, 0);
        assert!(single.is_empty());
        single.validate().unwrap();
    }

    #[test]
    fn single_plan_validates() {
        let plan = SplitPlan::single(4096, 1);
        plan.validate().unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.bytes_on_rail(1), 4096);
    }

    #[test]
    fn three_rail_ratio_covers() {
        let plan = SplitPlan::by_ratio(3_000_000, [1202.0, 851.0, 320.0], 8 * 1024);
        plan.validate().unwrap();
        assert_eq!(plan.len(), 3);
        let total: u64 = (0..3).map(|r| plan.bytes_on_rail(r)).sum();
        assert_eq!(total, 3_000_000);
    }

    #[test]
    fn validate_detects_gap() {
        let plan = SplitPlan {
            total_len: 100,
            chunks: vec![
                ChunkSpec {
                    offset: 0,
                    len: 40,
                    rail: 0,
                },
                ChunkSpec {
                    offset: 50, // gap at [40, 50)
                    len: 50,
                    rail: 1,
                },
            ]
            .into(),
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn validate_detects_short_coverage() {
        let plan = SplitPlan {
            total_len: 100,
            chunks: SmallList::one(ChunkSpec {
                offset: 0,
                len: 40,
                rail: 0,
            }),
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "weights must be finite")]
    fn negative_weight_panics() {
        SplitPlan::by_ratio(100, [1.0, -1.0], 1);
    }

    #[test]
    #[should_panic(expected = "at least one weight must be positive")]
    fn all_zero_weights_panic() {
        SplitPlan::by_ratio(100, [0.0, 0.0], 1);
    }
}
