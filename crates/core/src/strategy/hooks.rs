//! The hooks: a step before the pipeline decides, or after it leaves a
//! rail idle.
//!
//! - **Re-stripe** (after RailS): split plans earmark chunks per rail at
//!   plan time; if a rail then slows down (drift, congestion) its
//!   earmarked chunks sit waiting while the other rails drain. Before
//!   each decision, any rail whose oldest in-flight frame has aged past
//!   [`STRAGGLE_FACTOR`] times its predicted service time ([`RailFlight`]
//!   EWMA or the sampled table, whichever predicts more; never less than
//!   [`STRAGGLE_FLOOR_NS`]) has its untaken planned chunks re-striped
//!   round-robin onto the healthy, non-straggling rails — the mechanism
//!   the engine uses on rail death, applied early on evidence of lag.
//!   Plans move, bytes do not: anything already posted stays put.
//! - **Harvest** (after FlexLink): only when the pipeline leaves a rail
//!   idle *and* the bytes nobody has placed yet exceed
//!   [`HARVEST_WATERMARK_BYTES`] does the idle rail take overflow work
//!   the placement reserved for somewhere else — a bounded chunk of a
//!   granted segment, or a batch of the smalls held for the fastest
//!   rail. An idle link only pays for itself once the primary path is
//!   saturated; stealing earlier just moves latency-sensitive traffic
//!   onto the slow link for nothing.

use nmad_model::RailId;

use super::cut::bounded_chunk;
use super::{StrategyCtx, TxOp};
use crate::obs::{Event, EventKind};

#[cfg(doc)]
use super::RailFlight;

/// A rail straggles once its oldest in-flight frame is this many times
/// older than its predicted service time.
const STRAGGLE_FACTOR: f64 = 4.0;

/// Floor on the straggler age (ns), so noisy early EWMA samples cannot
/// trigger re-striping storms.
const STRAGGLE_FLOOR_NS: u64 = 200_000;

/// Unplaced bytes above which an idle rail harvests overflow.
const HARVEST_WATERMARK_BYTES: u64 = 64 * 1024;

/// See module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Hook {
    Restripe,
    Harvest,
}

/// Re-stripe the untaken planned chunks of straggling (or unhealthy)
/// rails onto the healthy, non-straggling ones (`survivors` is the
/// caller's list, kept between decisions).
pub(super) fn restripe(ctx: &mut StrategyCtx<'_>, survivors: &mut Vec<usize>) {
    let n = ctx.rails.len();
    let straggling = (0..n)
        .filter(|&r| {
            if !ctx.view.ok(RailId(r)) {
                // The engine re-stripes on the Down transition itself;
                // treating not-ok as straggling here also covers rails
                // parked in probing limbo.
                return true;
            }
            let f = ctx.view.flight(RailId(r));
            if f.inflight == 0 {
                return false;
            }
            let age = ctx.now_ns.saturating_sub(f.oldest_post_ns);
            // Early EWMA samples are noisy; the table knows the size regime.
            let table_ns = (ctx.tables[r].time_for(f.inflight_bytes) * 1000.0) as u64;
            let est = f.ewma_service_ns.max(table_ns);
            age > ((est as f64 * STRAGGLE_FACTOR) as u64).max(STRAGGLE_FLOOR_NS)
        })
        .fold(0u64, |mask, r| mask | 1 << r);
    survivors.clear();
    survivors.extend((0..n).filter(|&r| straggling >> r & 1 == 0));
    if survivors.is_empty() {
        return;
    }
    for r in (0..n).filter(|&r| straggling >> r & 1 == 1) {
        let moved = ctx.backlog.reassign_rail(r, survivors);
        if moved > 0 && ctx.obs.is_enabled() {
            ctx.obs.record(
                Event::new(ctx.now_ns, EventKind::Restripe)
                    .rail(r)
                    .aux(moved as u64),
            );
        }
    }
}

/// Whether `unplaced` bytes — eager, and granted without a plan — are
/// more than the primary path should carry alone.
pub(super) fn overflows(unplaced: u64) -> bool {
    unplaced > HARVEST_WATERMARK_BYTES
}

/// Overflow work for `rail`, which the pipeline left idle.
pub(super) fn harvest(rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
    let unplaced: u64 = ctx
        .backlog
        .granted_items()
        .filter(|i| i.plan.is_none())
        .map(|i| i.remaining())
        .sum();
    if !overflows(ctx.backlog.eager_bytes() + unplaced) {
        return None;
    }
    match ctx.first_unplanned() {
        Some(seg) => Some(bounded_chunk(rail, seg, ctx)),
        None => ctx.aggregation_batch(ctx.config.min_chunk as u64),
    }
}
