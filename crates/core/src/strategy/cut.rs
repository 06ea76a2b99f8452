//! The cut: what a rail's frame carries of the work it was handed.
//!
//! The stages of the paper, in order: §3.1's opportunistic aggregation
//! ("copy the segments into a contiguous memory area and … send them as
//! a single chunk"), then §3.4's split ("split the large ones following
//! some previously processed ratios when both NICs are available and if
//! not, send them over the first free one").
//!
//! A split is decided *just in time*: when an idle rail first touches a
//! granted segment, the idle rails right now share it by ratio and each
//! picks up its earmarked chunk as the engine asks it. With only one rail
//! idle, the rail takes a bounded chunk instead of the whole remainder:
//! it frees up again soon, and if another rail is idle by then, the next
//! decision can split what is left. (Sending everything would pin a large
//! segment to whichever rail happened to free first — possibly the
//! slowest one.)

use nmad_model::RailId;

use super::{RailList, Seg, StrategyCtx, TxOp};
use crate::sampling::Weights;

/// See module docs.
#[derive(Clone, Copy, Debug)]
pub(super) enum Cut {
    /// One eager segment per frame; bulk in chunks of the rail's MTU.
    Whole,
    /// Waiting smalls merged into one aggregate; bulk in chunks of the
    /// rail's MTU.
    Aggregate,
    /// Smalls aggregated; bulk split over the idle rails by this ratio,
    /// or a bounded chunk while only one is idle.
    Split(Ratio),
}

/// How a split shares the bytes among the idle rails.
#[derive(Clone, Copy, Debug)]
pub(super) enum Ratio {
    /// Byte shares from the sampled performance tables (§3.4: transfer
    /// times equalized across rails).
    Sampled,
    /// Equal shares — the "iso-splitted" reference of Figure 7.
    Equal,
    /// A fixed permille of the bytes for the first idle rail, the rest
    /// spread equally over the others (the ratio-sensitivity ablation).
    FirstShare(u16),
}

impl Ratio {
    fn weights(self, ctx: &StrategyCtx<'_>, idle: &RailList, remaining: u64) -> Weights {
        match self {
            Ratio::Sampled => ctx.sampled_weights(idle, remaining),
            Ratio::Equal => idle.iter().map(|_| 1.0).collect(),
            Ratio::FirstShare(permille) => {
                let first = f64::from(permille.min(1000)) / 1000.0;
                let rest = (1.0 - first) / (idle.len() - 1) as f64;
                (0..idle.len())
                    .map(|i| if i == 0 { first } else { rest })
                    .collect()
            }
        }
    }
}

impl Cut {
    /// `rail`'s piece of granted segment `seg`; `None` when a split plan
    /// leaves `rail` out (too slow for the bytes that were left).
    pub(super) fn bulk(self, rail: RailId, seg: Seg, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        let (key, _, remaining) = seg;
        let mtu = ctx.rails[rail.0].mtu as u64;
        let Cut::Split(ratio) = self else {
            return Some(TxOp::Chunk { key, max_len: mtu });
        };
        let idle = ctx.idle_rails();
        if idle.len() < 2 || remaining < 2 * ctx.config.min_chunk as u64 {
            return Some(bounded_chunk(rail, seg, ctx));
        }
        let weights = ratio.weights(ctx, &idle, remaining);
        if weights.iter().sum::<f64>() > 0.0 {
            return ctx
                .plan_split(rail, seg, &idle, &weights)
                .then_some(TxOp::PlannedChunk);
        }
        Some(TxOp::Chunk { key, max_len: mtu })
    }

    /// The waiting eager segments below `small_below` bytes: the first of
    /// them alone, or as many as one aggregate holds.
    pub(super) fn smalls(self, small_below: u64, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        match self {
            Cut::Whole => ctx
                .backlog
                .eager_items()
                .find(|i| i.size < small_below)
                .map(|i| TxOp::Eager(i.key)),
            Cut::Aggregate | Cut::Split(_) => ctx.aggregation_batch(small_below),
        }
    }
}

/// A quarter of what is left of `seg`, at least two minimal chunks and
/// at most `rail`'s MTU: the rail frees up soon, and a later decision can
/// still split the rest.
pub(super) fn bounded_chunk(rail: RailId, seg: Seg, ctx: &StrategyCtx<'_>) -> TxOp {
    let (key, _, remaining) = seg;
    let max_len = (remaining / 4)
        .max(2 * ctx.config.min_chunk as u64)
        .min(ctx.rails[rail.0].mtu as u64);
    TxOp::Chunk { key, max_len }
}
