//! Pluggable optimizing schedulers ("strategies", paper §2–3).
//!
//! A strategy is consulted exactly when a rail becomes idle and decides
//! which waiting work that rail should carry next — the paper's
//! "just-in-time" scheduling. Strategies see the backlog and per-rail
//! capabilities through [`StrategyCtx`], and answer with a [`TxOp`]; the
//! engine turns the op into a wire packet and does all bookkeeping.
//!
//! The implementations mirror the paper's incremental development:
//!
//! | Module | Paper section | Policy |
//! |---|---|---|
//! | [`single_rail`] | §3.1 (Figs 2–3) | everything on one rail, optional opportunistic aggregation |
//! | [`greedy`] | §3.2 (Figs 4–5) | idle NIC takes the first available segment |
//! | [`aggregate_eager`] | §3.3 (Fig 6) | aggregate small messages onto the lowest-latency rail, greedy for large |
//! | [`adaptive_split`] | §3.4 (Fig 7) | + split large segments across idle rails by sampled ratios (or 50/50 for the iso-split reference) |
//!
//! Beyond the paper's stages, the zoo carries strategies from later
//! multi-rail literature (see DESIGN.md "Strategy zoo"):
//!
//! | Module | Source | Policy |
//! |---|---|---|
//! | [`srpt`] | RailS | shortest-remaining-work first, straggler-aware re-striping |
//! | [`idle_harvest`] | FlexLink | any primary strategy + idle rails steal overflow above a watermark |
//! | [`latency_router`] | — | control-class smalls pinned to the lowest-latency rail, bulk split elsewhere |

pub mod adaptive_split;
pub mod aggregate_eager;
pub mod greedy;
pub mod idle_harvest;
pub mod latency_router;
pub mod single_rail;
pub mod srpt;
pub mod static_round_robin;

use nmad_model::{NicModel, RailId};
use nmad_wire::split::SplitPlan;
use nmad_wire::SmallList;

use crate::config::EngineConfig;
use crate::obs::{Event, EventKind, FlightRecorder};
use crate::request::{Backlog, PlannedChunk, SegKey};
use crate::sampling::{split_weights, PerfTable, Weights};

/// The segments one frame carries: aggregates of up to eight stay inline.
pub type KeyList = SmallList<SegKey, 8>;

/// A set of rails; up to four stay inline.
pub type RailList = SmallList<RailId, 4>;

/// What a strategy wants an idle rail to transmit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxOp {
    /// Send one whole eager segment as-is.
    Eager(SegKey),
    /// Copy these eager segments into one aggregate container (in the
    /// given order) and send it.
    Aggregate(KeyList),
    /// Send the next chunk (up to `max_len` bytes) of a granted segment
    /// that has no split plan.
    Chunk {
        /// Segment to consume from.
        key: SegKey,
        /// Upper bound on the chunk length.
        max_len: u64,
    },
    /// Send the chunk earmarked for this rail by the segment's split plan.
    PlannedChunk,
}

/// Per-rail in-flight load snapshot handed to strategies each decision.
///
/// All fields refer to data traffic only (control frames are excluded):
/// a strategy reasons about where payload bytes are, not about ACKs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RailFlight {
    /// Frames currently posted and not yet completed on this rail.
    pub inflight: u32,
    /// Payload bytes carried by those frames.
    pub inflight_bytes: u64,
    /// Post timestamp of the oldest still-outstanding frame (engine
    /// clock, ns); 0 when nothing is in flight.
    pub oldest_post_ns: u64,
    /// Cumulative payload bytes this rail has put on the wire.
    pub sent_bytes: u64,
    /// EWMA of observed per-frame service time on this rail (ns);
    /// 0 until the first completion.
    pub ewma_service_ns: u64,
}

/// Read/plan access the engine grants a strategy during one decision.
pub struct StrategyCtx<'a> {
    /// The waiting packs.
    pub backlog: &'a mut Backlog,
    /// Per-rail NIC capabilities, indexed by rail id.
    pub rails: &'a [NicModel],
    /// Per-rail busy flags (true = currently transmitting). The rail being
    /// asked is always idle.
    pub rail_busy: &'a [bool],
    /// Per-rail health flags (true = schedulable). Rails marked false are
    /// out of service; strategies must plan around them. The engine never
    /// asks for data traffic on an unhealthy rail.
    pub rail_ok: &'a [bool],
    /// Per-rail sampled performance tables (init-time sampling, §3.4).
    pub tables: &'a [PerfTable],
    /// Engine configuration (thresholds).
    pub config: &'a EngineConfig,
    /// Flight recorder: strategies record their decision events here
    /// (notably [`crate::obs::EventKind::DecideSplit`] at plan time, which
    /// carries the chunk ratio the engine cannot reconstruct later).
    /// Disabled recorders drop records in a branch, so this costs nothing
    /// when tracing is off.
    pub obs: &'a mut FlightRecorder,
    /// Engine clock at the moment of the decision (timestamp for events).
    pub now_ns: u64,
    /// Per-rail in-flight load view, indexed by rail id. May be shorter
    /// than `rails` (notably in unit fixtures); out-of-range rails read
    /// as idle via [`StrategyCtx::flight`].
    pub flight: &'a [RailFlight],
}

impl StrategyCtx<'_> {
    /// True when `rail` may carry data traffic.
    pub fn rail_ok(&self, rail: RailId) -> bool {
        self.rail_ok.get(rail.0).copied().unwrap_or(true)
    }

    /// Rails currently idle and healthy (including the one being asked).
    pub fn idle_rails(&self) -> RailList {
        self.rail_busy
            .iter()
            .enumerate()
            .filter(|&(i, &b)| !b && self.rail_ok(RailId(i)))
            .map(|(i, _)| RailId(i))
            .collect()
    }

    /// Byte shares that equalize the sampled transfer times of `total`
    /// bytes across `rails` (§3.4), one weight per rail.
    pub fn sampled_weights(&self, rails: &RailList, total: u64) -> Weights {
        split_weights(rails.iter().map(|r| &self.tables[r.0]), total)
    }

    /// Split the `remaining` bytes of granted segment `key`, from
    /// `next_offset` on, across `rails` in proportion to `weights` (one
    /// per rail, their sum positive) and attach the plan to the segment.
    /// True when `rail` got a chunk of it.
    pub fn plan_split(
        &mut self,
        rail: RailId,
        (key, next_offset, remaining): (SegKey, u64, u64),
        rails: &RailList,
        weights: &Weights,
    ) -> bool {
        let min_chunk = self.config.min_chunk as u64;
        let plan = SplitPlan::by_ratio(remaining, weights.iter().copied(), min_chunk);
        let chunks: Vec<PlannedChunk> = plan
            .chunks()
            .map(|c| PlannedChunk {
                rail: rails[c.rail].0,
                offset: next_offset + c.offset,
                len: c.len,
                taken: false,
            })
            .collect();
        let mine = chunks.iter().any(|c| c.rail == rail.0);
        if self.obs.is_enabled() {
            // One event per planned chunk, ratio in permille of the bytes
            // being split (aux), at plan time — the engine only sees
            // chunks one at a time later.
            for c in &chunks {
                let permille = c
                    .len
                    .saturating_mul(1000)
                    .checked_div(remaining)
                    .unwrap_or(0);
                self.obs.record(
                    Event::new(self.now_ns, EventKind::DecideSplit)
                        .rail(c.rail)
                        .seq(key.msg_id)
                        .size(c.len)
                        .aux(permille),
                );
            }
        }
        let ok = self.backlog.set_plan(key, chunks);
        debug_assert!(ok, "plan must cover the remainder");
        mine
    }

    /// In-flight load snapshot for `rail` (idle default when the engine —
    /// or a test fixture — supplied no entry for it).
    pub fn flight(&self, rail: RailId) -> RailFlight {
        self.flight.get(rail.0).copied().unwrap_or_default()
    }

    /// The healthy rail with the lowest minimal-message latency (falls
    /// back over all rails when none is healthy). Latency ties are broken
    /// by current load — idle over busy, fewer in-flight bytes, fewer
    /// lifetime sent bytes — so identical rails share control traffic
    /// instead of everything biasing onto rail 0.
    pub fn lowest_latency_rail(&self) -> RailId {
        let load_key = |i: usize| {
            let f = self.flight(RailId(i));
            (
                self.rails[i].analytic_pio_oneway(0),
                self.rail_busy.get(i).copied().unwrap_or(false),
                f.inflight_bytes,
                f.sent_bytes,
            )
        };
        let best = (0..self.rails.len())
            .filter(|&i| self.rail_ok(RailId(i)))
            .min_by_key(|&i| load_key(i));
        best.or_else(|| (0..self.rails.len()).min_by_key(|&i| load_key(i)))
            .map(RailId)
            .expect("engine always has rails")
    }
}

/// An optimizing scheduler.
pub trait Strategy: Send {
    /// Strategy name (figure legends, traces).
    fn name(&self) -> &'static str;

    /// Pick work for idle `rail`, or `None` to leave it idle. Implementors
    /// must only reference backlog entries in a schedulable phase; the
    /// engine validates and surfaces violations as
    /// [`crate::EngineError::InvalidStrategyOp`].
    fn next_tx(&mut self, rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp>;
}

/// Strategy selection, mirroring the paper's four stages plus the
/// iso-split reference of Fig. 7.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Everything on one rail, no aggregation (the "regular"/"N-segment"
    /// reference curves of Figs 2–3).
    SingleRail(usize),
    /// One rail with opportunistic aggregation of waiting small segments.
    SingleRailAggregating(usize),
    /// §3.2: greedy balancing — an idle NIC takes the first segment.
    Greedy,
    /// §3.3: aggregate small messages onto the lowest-latency rail; greedy
    /// balancing for large segments.
    AggregateEager,
    /// §3.4 final strategy: aggregation for small + sampled-ratio splitting
    /// for large segments across idle rails.
    AdaptiveSplit,
    /// Fig. 7 reference: like AdaptiveSplit but always splits 50/50.
    IsoSplit,
    /// Ablation: split with a fixed permille of bytes on the first idle
    /// rail instead of the sampled ratio.
    FixedSplit(u16),
    /// Anti-pattern baseline for the `ablate_jit` bench: bind each segment
    /// to a rail round-robin at submission, ignoring NIC idleness.
    StaticRoundRobin,
    /// RailS-style shortest-remaining-work-first with straggler-aware
    /// re-striping of the laggard rail's remaining plan.
    Srpt,
    /// FlexLink-style idle-link harvesting wrapped around the adaptive
    /// splitter: idle rails steal overflow chunks above a watermark.
    IdleHarvest,
    /// Latency-class router: small control-class messages pinned to the
    /// lowest-latency healthy rail, bulk split across the rest.
    LatencyRouter,
}

impl StrategyKind {
    /// Instantiate the strategy.
    pub fn build(self) -> Box<dyn Strategy> {
        match self {
            StrategyKind::SingleRail(rail) => {
                Box::new(single_rail::SingleRail::new(RailId(rail), false))
            }
            StrategyKind::SingleRailAggregating(rail) => {
                Box::new(single_rail::SingleRail::new(RailId(rail), true))
            }
            StrategyKind::Greedy => Box::new(greedy::Greedy::new()),
            StrategyKind::AggregateEager => Box::new(aggregate_eager::AggregateEager::new()),
            StrategyKind::AdaptiveSplit => Box::new(adaptive_split::AdaptiveSplit::new(
                adaptive_split::SplitMode::Sampled,
            )),
            StrategyKind::IsoSplit => Box::new(adaptive_split::AdaptiveSplit::new(
                adaptive_split::SplitMode::Iso,
            )),
            StrategyKind::FixedSplit(permille) => Box::new(adaptive_split::AdaptiveSplit::new(
                adaptive_split::SplitMode::Fixed(permille),
            )),
            StrategyKind::StaticRoundRobin => Box::new(static_round_robin::StaticRoundRobin::new()),
            StrategyKind::Srpt => Box::new(srpt::Srpt::new()),
            StrategyKind::IdleHarvest => Box::new(idle_harvest::IdleHarvest::new(Box::new(
                adaptive_split::AdaptiveSplit::new(adaptive_split::SplitMode::Sampled),
            ))),
            StrategyKind::LatencyRouter => Box::new(latency_router::LatencyRouter::new()),
        }
    }

    /// Short name for legends.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::SingleRail(_) => "single-rail",
            StrategyKind::SingleRailAggregating(_) => "single-rail+agg",
            StrategyKind::Greedy => "greedy",
            StrategyKind::AggregateEager => "aggregate-eager",
            StrategyKind::AdaptiveSplit => "adaptive-split",
            StrategyKind::IsoSplit => "iso-split",
            StrategyKind::FixedSplit(_) => "fixed-split",
            StrategyKind::StaticRoundRobin => "static-round-robin",
            StrategyKind::Srpt => "srpt",
            StrategyKind::IdleHarvest => "idle-harvest",
            StrategyKind::LatencyRouter => "latency-router",
        }
    }

    /// Every strategy in the zoo with representative parameters — the
    /// tournament roster and the proptest harness both iterate this.
    pub fn zoo() -> Vec<StrategyKind> {
        vec![
            StrategyKind::SingleRail(0),
            StrategyKind::SingleRailAggregating(0),
            StrategyKind::Greedy,
            StrategyKind::AggregateEager,
            StrategyKind::AdaptiveSplit,
            StrategyKind::IsoSplit,
            StrategyKind::FixedSplit(500),
            StrategyKind::StaticRoundRobin,
            StrategyKind::Srpt,
            StrategyKind::IdleHarvest,
            StrategyKind::LatencyRouter,
        ]
    }
}

/// Shared helper: collect the set of eager segments an aggregating
/// strategy should merge right now, respecting the aggregation size cap.
/// Returns keys in submit order; empty when nothing is waiting.
pub(crate) fn collect_aggregation_batch(ctx: &StrategyCtx<'_>) -> KeyList {
    collect_aggregation_batch_below(ctx, u64::MAX)
}

/// Like [`collect_aggregation_batch`] but only considering segments
/// strictly smaller than `max_seg` (multi-rail strategies exclude
/// DMA-eager "medium" segments, which balance better than they copy).
pub(crate) fn collect_aggregation_batch_below(ctx: &StrategyCtx<'_>, max_seg: u64) -> KeyList {
    let cap = ctx.config.agg_max_bytes as u64;
    let mut keys = KeyList::new();
    let mut total = 0u64;
    for item in ctx.backlog.eager_items() {
        if item.size >= max_seg {
            continue;
        }
        if !keys.is_empty() && total + item.size > cap {
            break;
        }
        total += item.size;
        keys.push(item.key);
        if total >= cap {
            break;
        }
    }
    keys
}

/// The op that sends `batch`: nothing, the one segment as it is, or an
/// aggregate of them.
pub(crate) fn batch_op(batch: KeyList) -> Option<TxOp> {
    match batch.len() {
        0 => None,
        1 => Some(TxOp::Eager(batch[0])),
        _ => Some(TxOp::Aggregate(batch)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_builds_matching_names() {
        assert_eq!(StrategyKind::Greedy.build().name(), "greedy");
        assert_eq!(StrategyKind::SingleRail(0).build().name(), "single-rail");
        assert_eq!(
            StrategyKind::SingleRailAggregating(1).build().name(),
            "single-rail+agg"
        );
        assert_eq!(
            StrategyKind::AggregateEager.build().name(),
            "aggregate-eager"
        );
        assert_eq!(StrategyKind::AdaptiveSplit.build().name(), "adaptive-split");
        assert_eq!(StrategyKind::IsoSplit.build().name(), "iso-split");
        assert_eq!(StrategyKind::Srpt.build().name(), "srpt");
        assert_eq!(StrategyKind::IdleHarvest.build().name(), "idle-harvest");
        assert_eq!(StrategyKind::LatencyRouter.build().name(), "latency-router");
    }

    #[test]
    fn labels_are_unique() {
        let kinds = StrategyKind::zoo();
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn zoo_covers_every_label() {
        // The zoo roster must build every strategy the engine can run.
        for kind in StrategyKind::zoo() {
            assert_eq!(kind.build().name(), kind.label());
        }
    }

    #[test]
    fn lowest_latency_ties_break_by_load() {
        use crate::sampling::default_ladder;
        use nmad_model::platform;

        // A symmetric fabric: two identical NICs. The old index-order
        // tie-break put every aggregation batch on rail 0 forever; the
        // load-aware tie-break must steer to the less-loaded rail.
        let rails = vec![platform::quadrics_qm500(), platform::quadrics_qm500()];
        let tables: Vec<PerfTable> = rails
            .iter()
            .map(|n| PerfTable::from_analytic(n, &default_ladder()))
            .collect();
        let config = EngineConfig::default();
        let mut backlog = Backlog::new();
        let mut obs = FlightRecorder::disabled();
        let flight = [
            RailFlight {
                inflight: 1,
                inflight_bytes: 4096,
                oldest_post_ns: 1,
                sent_bytes: 1 << 20,
                ewma_service_ns: 0,
            },
            RailFlight::default(),
        ];
        let ctx = StrategyCtx {
            backlog: &mut backlog,
            rails: &rails,
            rail_busy: &[false, false],
            rail_ok: &[true, true],
            tables: &tables,
            config: &config,
            obs: &mut obs,
            now_ns: 0,
            flight: &flight,
        };
        assert_eq!(
            ctx.lowest_latency_rail(),
            RailId(1),
            "loaded rail 0 loses the tie"
        );

        // With no load information at all, index order remains the
        // deterministic last resort.
        let ctx2 = StrategyCtx {
            backlog: &mut backlog,
            rails: &rails,
            rail_busy: &[false, false],
            rail_ok: &[true, true],
            tables: &tables,
            config: &config,
            obs: &mut obs,
            now_ns: 0,
            flight: &[],
        };
        assert_eq!(ctx2.lowest_latency_rail(), RailId(0));

        // A busy-but-otherwise-equal rail also loses the tie.
        let ctx3 = StrategyCtx {
            backlog: &mut backlog,
            rails: &rails,
            rail_busy: &[true, false],
            rail_ok: &[true, true],
            tables: &tables,
            config: &config,
            obs: &mut obs,
            now_ns: 0,
            flight: &[],
        };
        assert_eq!(ctx3.lowest_latency_rail(), RailId(1));
    }
}
