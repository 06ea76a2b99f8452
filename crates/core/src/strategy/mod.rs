//! The optimizing scheduler ("strategy", paper §2–3): one decision
//! pipeline, with every named [`StrategyKind`] a preset of it.
//!
//! The strategy is consulted exactly when a rail becomes idle and decides
//! which waiting work that rail should carry next — the paper's
//! "just-in-time" scheduling. It sees the backlog and per-rail
//! capabilities through [`StrategyCtx`] and answers with a [`TxOp`]; the
//! engine turns the op into a wire packet and does all bookkeeping.
//!
//! The paper builds its strategy one stage at a time, and so does the
//! pipeline (*classify → place → split*, as Nezha and RailS describe it):
//!
//! | Stage | Choices | Paper |
//! |---|---|---|
//! | order | FIFO across tracks, bulk first, shortest remaining work first | §3.2 / §3.1–3.4 / RailS |
//! | `place` | pinned with failover, any idle rail, smalls to the fastest rail, bound at first sight | §3.1 / §3.2 / §3.3 / §3.5's strawman |
//! | `cut` | segments whole, smalls aggregated, bulk split by sampled, equal or first-share ratio | — / §3.1 / §3.4 |
//! | `hooks` | re-stripe a straggler's plan before deciding, harvest overflow after | RailS / FlexLink |
//!
//! Every step is an enum matched in place: there is one [`Strategy`]
//! type, and [`StrategyKind::build`] picks its stages.

mod cut;
mod hooks;
mod place;
#[cfg(test)]
mod tests;

use nmad_model::{NicModel, RailId};
use nmad_sim::SimDuration;
use nmad_wire::split::SplitPlan;
use nmad_wire::SmallList;

use crate::config::EngineConfig;
use crate::obs::{Event, EventKind, FlightRecorder};
use crate::request::{Backlog, BacklogItem, PlannedChunk, SegKey};
use crate::sampling::{split_weights, PerfTable, Weights};

use cut::{Cut, Ratio};
use hooks::Hook;
use place::{Binding, Place};

/// The segments one frame carries: aggregates of up to eight stay inline.
pub type KeyList = SmallList<SegKey, 8>;

/// A set of rails; up to four stay inline.
pub type RailList = SmallList<RailId, 4>;

/// A granted segment's unsent remainder: key, offset of its next byte,
/// bytes left.
type Seg = (SegKey, u64, u64);

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

/// What one rail carries and has carried, as a decision reads it
/// through [`RailView::flight`].
///
/// A rail carries one frame at a time, so the engine's answer has at most
/// one frame in flight; a test fixture may report more. The in-flight
/// fields count data frames only (a control frame in flight reads as
/// none): a strategy reasons about where payload bytes are, not about
/// ACKs. [`RailFlight::sent_bytes`] is the exception.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RailFlight {
    /// Data frames posted and not yet completed on this rail.
    pub inflight: u32,
    /// Wire bytes of those frames, headers included.
    pub inflight_bytes: u64,
    /// Post timestamp of the oldest of them (engine clock, ns); 0 when
    /// nothing is in flight.
    pub oldest_post_ns: u64,
    /// Wire bytes this rail has posted so far, every frame's — headers,
    /// control frames and retransmissions included (the engine's
    /// per-rail `wire_bytes` counter). Only ever a latency tie-break
    /// ([`LatencyOrder::fastest`]): a lifetime share, not a payload
    /// count.
    pub sent_bytes: u64,
    /// EWMA of observed per-frame service time on this rail (ns);
    /// 0 until the first completion.
    pub ewma_service_ns: u64,
}

/// The rails as a decision sees them: read where they are kept, when
/// asked, and never copied (DESIGN.md §13 "Decision inputs"). The engine
/// answers from its own tables; a test fixture from the vectors it
/// generates.
pub trait RailView {
    /// Whether `rail` may carry data traffic. The engine never asks for
    /// data traffic on a rail that may not.
    fn ok(&self, rail: RailId) -> bool;
    /// Whether `rail` is transmitting. The rail being asked is idle.
    fn busy(&self, rail: RailId) -> bool;
    /// What `rail` carries and has carried.
    fn flight(&self, rail: RailId) -> RailFlight;
}

/// Read/plan access the engine grants a strategy during one decision.
pub struct StrategyCtx<'a> {
    /// The waiting packs.
    pub backlog: &'a mut Backlog,
    /// Per-rail NIC capabilities, indexed by rail id.
    pub rails: &'a [NicModel],
    /// Each rail's health, whether it is busy and what it carries.
    pub view: &'a dyn RailView,
    /// Per-rail sampled performance tables (init-time sampling, §3.4).
    pub tables: &'a [PerfTable],
    /// The rails by minimal-message latency, built once per engine.
    pub latency: &'a LatencyOrder,
    /// Where an aggregate's keys are collected. The engine keeps it
    /// between decisions (empty), so that a batch as long as one before
    /// it costs no allocation.
    pub batch: &'a mut KeyList,
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
}

impl StrategyCtx<'_> {
    /// Rails currently idle and healthy (including the one being asked).
    pub fn idle_rails(&self) -> RailList {
        (0..self.rails.len())
            .map(RailId)
            .filter(|&r| !self.view.busy(r) && self.view.ok(r))
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

    /// Whether an earlier split plan earmarked an untaken chunk for `rail`.
    fn planned_for(&self, rail: RailId) -> bool {
        // (A granted segment is urgent: no urgent one, no granted one.)
        self.backlog.has_urgent()
            && self.backlog.granted_items().any(|i| {
                i.plan
                    .as_ref()
                    .is_some_and(|p| p.iter().any(|c| !c.taken && c.rail == rail.0))
            })
    }

    /// The first granted segment no plan has claimed yet.
    fn first_unplanned(&self) -> Option<Seg> {
        // (A granted segment is urgent: no urgent one, no granted one.)
        if !self.backlog.has_urgent() {
            return None;
        }
        self.backlog
            .granted_items()
            .find(|i| i.plan.is_none())
            .map(seg)
    }

    /// What sends the eager segments one aggregate should carry right
    /// now — those below `small_below` bytes, in submit order, up to the
    /// aggregation size cap (the first always fits): nothing, the one
    /// segment as it is, or an aggregate of them in the list
    /// [`StrategyCtx::batch`] lends.
    fn aggregation_batch(&mut self, small_below: u64) -> Option<TxOp> {
        let cap = self.config.agg_max_bytes as u64;
        let keys = &mut *self.batch;
        keys.clear();
        let mut total = 0u64;
        for item in self.backlog.eager_items() {
            if item.size >= small_below {
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
        match keys.len() {
            0 => None,
            1 => Some(TxOp::Eager(keys[0])),
            _ => Some(TxOp::Aggregate(std::mem::take(keys))),
        }
    }
}

fn seg(i: &BacklogItem) -> Seg {
    (i.key, i.next_offset, i.remaining())
}

/// The rails by minimal-message latency (the NIC model's one-way time
/// of an empty PIO packet), built once per engine: a model's latency
/// never changes, so the order does not either, and a decision runs the
/// load tie-break only between rails of equal latency.
#[derive(Clone, Debug)]
pub struct LatencyOrder {
    /// Per rail, by rail id.
    latency: Vec<SimDuration>,
    /// Rail ids, lowest latency first; equal latencies in id order.
    order: Vec<usize>,
}

impl LatencyOrder {
    /// The order of `rails` (at least one).
    pub fn new(rails: &[NicModel]) -> Self {
        let latency: Vec<SimDuration> = rails.iter().map(|n| n.analytic_pio_oneway(0)).collect();
        let mut order: Vec<usize> = (0..rails.len()).collect();
        order.sort_by_key(|&r| latency[r]);
        LatencyOrder { latency, order }
    }

    /// The rail with the lowest minimal-message latency among those
    /// that are ok, or among all of them when none is. Latency ties are
    /// broken by load — idle over busy, fewer in-flight bytes, fewer
    /// lifetime sent bytes, then the lower id — so identical rails share
    /// the smalls instead of everything biasing onto rail 0. The load is
    /// read only of the tied rails.
    pub fn fastest(&self, rails: &(impl RailView + ?Sized)) -> RailId {
        let ok = |r: usize| rails.ok(RailId(r));
        let first = self.order.iter().position(|&r| ok(r));
        let from = first.unwrap_or(0);
        let latency = self.latency[self.order[from]];
        let mut tied = self.order[from..]
            .iter()
            .copied()
            .take_while(|&r| self.latency[r] == latency)
            .filter(|&r| first.is_none() || ok(r));
        let fastest = tied.next().expect("engine always has rails");
        let load = |r: usize| {
            let f = rails.flight(RailId(r));
            (rails.busy(RailId(r)), f.inflight_bytes, f.sent_bytes)
        };
        match tied.next() {
            None => RailId(fastest),
            Some(next) => [fastest, next]
                .into_iter()
                .chain(tied)
                .min_by_key(|&r| load(r))
                .map_or(RailId(fastest), RailId),
        }
    }
}

/// In which order a rail looks at the schedulable work.
#[derive(Clone, Copy, Debug)]
enum Order {
    /// "The first available segment" (§3.2): the oldest eager or granted
    /// segment, whichever track it waits on.
    Fifo,
    /// Granted bulk, then eager segments too large to be small, then the
    /// smalls.
    BulkFirst,
    /// Least remaining bytes first, ties by submit order (RailS): small
    /// requests stop queueing behind multi-megabyte transfers.
    Srpt,
}

/// A candidate of the SRPT order: work left, submit order, key, and the
/// unsent remainder of a granted segment (`None`: eager).
type Candidate = (u64, u64, SegKey, Option<Seg>);

/// The optimizing scheduler: an order, a placement and a cut, plus at
/// most one hook. Built by [`StrategyKind::build`].
#[derive(Debug)]
pub struct Strategy {
    kind: StrategyKind,
    order: Order,
    place: Place,
    cut: Cut,
    hook: Option<Hook>,
    /// The SRPT order's candidates, kept between decisions.
    candidates: Vec<Candidate>,
    /// The re-stripe hook's surviving rails, kept between decisions.
    survivors: Vec<usize>,
}

impl Strategy {
    /// Strategy name (figure legends, traces).
    pub fn name(&self) -> &'static str {
        self.kind.label()
    }

    /// Pick work for idle `rail`, or `None` to leave it idle. Only
    /// backlog entries in a schedulable phase are named; the engine
    /// validates every op and surfaces a violation as
    /// [`crate::EngineError::InvalidStrategyOp`].
    pub fn next_tx(&mut self, rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        match &mut self.place {
            Place::Bound(binding) => return binding.next_tx(rail, ctx),
            place if !place.admits(rail, ctx.view) => return None,
            _ => {}
        }
        if self.hook == Some(Hook::Restripe) {
            hooks::restripe(ctx, &mut self.survivors);
        }
        if ctx.planned_for(rail) {
            return Some(TxOp::PlannedChunk);
        }
        let op = match self.order {
            Order::Fifo => self.fifo(rail, ctx),
            Order::BulkFirst => self.bulk_first(rail, ctx),
            Order::Srpt => self.srpt(rail, ctx),
        };
        if op.is_none() && self.hook == Some(Hook::Harvest) {
            return hooks::harvest(rail, ctx);
        }
        op
    }

    fn fifo(&self, rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        let eager = ctx.backlog.eager_items().next();
        let bulk = ctx.backlog.granted_items().find(|i| i.plan.is_none());
        match (eager, bulk) {
            (Some(e), b) if b.is_none_or(|b| e.submit_seq < b.submit_seq) => {
                Some(TxOp::Eager(e.key))
            }
            (_, Some(b)) => self.cut.bulk(rail, seg(b), ctx),
            _ => None,
        }
    }

    fn bulk_first(&self, rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        if let Some(op) = ctx
            .first_unplanned()
            .and_then(|seg| self.cut.bulk(rail, seg, ctx))
        {
            return Some(op);
        }
        // A segment too large to be small gains nothing from a staging
        // copy and does gain from overlap: it goes whole, on this rail.
        let small_below = self.place.small_below(ctx.config);
        let large = ctx.backlog.may_have_urgent(small_below).then(|| {
            let mut eager = ctx.backlog.eager_items();
            eager.find(|i| i.size >= small_below).map(|i| i.key)
        });
        if let Some(key) = large.flatten() {
            return Some(TxOp::Eager(key));
        }
        self.smalls(rail, small_below, ctx)
    }

    fn srpt(&mut self, rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        let small_below = self.place.small_below(ctx.config);
        let eager = ctx
            .backlog
            .eager_items()
            .map(|i| (i.size, i.submit_seq, i.key, None));
        let bulk = ctx
            .backlog
            .granted_items()
            .filter(|i| i.plan.is_none())
            .map(|i| (i.remaining(), i.submit_seq, i.key, Some(seg(i))));
        let mut cands = std::mem::take(&mut self.candidates);
        cands.clear();
        cands.extend(eager.chain(bulk));
        // (Submit orders are unique: no two candidates compare equal.)
        cands.sort_unstable_by_key(|&(work, seq, ..)| (work, seq));
        let op = cands.iter().find_map(|&(work, _, key, bulk)| match bulk {
            // A split that leaves this rail out moves on to the next.
            Some(seg) => self.cut.bulk(rail, seg, ctx),
            None if work < small_below => self.smalls(rail, small_below, ctx),
            None => Some(TxOp::Eager(key)),
        });
        self.candidates = cands;
        op
    }

    /// The waiting smalls, if the placement lets `rail` take them.
    fn smalls(&self, rail: RailId, small_below: u64, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        if !self.place.takes_smalls(rail, ctx.view, ctx.latency) {
            return None;
        }
        self.cut.smalls(small_below, ctx)
    }

    /// [`Strategy::next_tx`] when the backlog's only schedulable work is
    /// the one eager segment `key` of `size` bytes: the same answer,
    /// decided from the rails alone — no context, no backlog scan.
    /// `None` for the preset that must see every segment it is asked
    /// about (the binding at first sight): ask it through the pipeline.
    ///
    /// With no granted segment there is no plan to take or re-stripe and
    /// no bulk to cut, and every cut sends a lone eager segment whole, so
    /// what is left of the pipeline is the placement's two questions —
    /// may `rail` carry anything, and may it take a small — and the
    /// harvest hook's watermark (DESIGN.md §13 "The lone eager segment").
    pub(crate) fn lone_eager(
        &self,
        rail: RailId,
        (key, size): (SegKey, u64),
        rails: &impl RailView,
        latency: &LatencyOrder,
        config: &EngineConfig,
    ) -> Option<Option<TxOp>> {
        if matches!(self.place, Place::Bound(_)) {
            return None;
        }
        if !self.place.admits(rail, rails) {
            return Some(None);
        }
        let small = size < self.place.small_below(config);
        if !small
            || matches!(self.order, Order::Fifo)
            || self.place.takes_smalls(rail, rails, latency)
        {
            return Some(Some(TxOp::Eager(key)));
        }
        // (The harvest takes a batch of the smalls below `min_chunk`.)
        let harvested = self.hook == Some(Hook::Harvest)
            && hooks::overflows(size)
            && size < config.min_chunk as u64;
        Some(harvested.then_some(TxOp::Eager(key)))
    }
}

/// The named strategies: each a preset of the pipeline's stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Everything on one rail, no aggregation (the "regular"/"N-segment"
    /// reference curves of Figs 2–3).
    SingleRail(usize),
    /// One rail with opportunistic aggregation of waiting small segments
    /// (§3.1).
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
    /// FlexLink-style idle-link harvesting on top of the adaptive
    /// splitter: idle rails steal overflow above a watermark.
    IdleHarvest,
}

impl StrategyKind {
    /// Instantiate the strategy: this preset's stages.
    pub fn build(self) -> Strategy {
        use self::Order::{BulkFirst, Fifo};
        use Cut::{Aggregate, Split, Whole};
        use Hook::{Harvest, Restripe};
        use Place::{AnyIdle, Pinned, SmallsToFastest};
        use Ratio::{Equal, FirstShare, Sampled};
        let (order, place, cut, hook) = match self {
            Self::SingleRail(r) => (BulkFirst, Pinned(RailId(r)), Whole, None),
            Self::SingleRailAggregating(r) => (BulkFirst, Pinned(RailId(r)), Aggregate, None),
            Self::Greedy => (Fifo, AnyIdle, Whole, None),
            Self::AggregateEager => (BulkFirst, SmallsToFastest, Aggregate, None),
            Self::AdaptiveSplit => (BulkFirst, SmallsToFastest, Split(Sampled), None),
            Self::IsoSplit => (BulkFirst, SmallsToFastest, Split(Equal), None),
            Self::FixedSplit(p) => (BulkFirst, SmallsToFastest, Split(FirstShare(p)), None),
            // The binding serves its own order and cut.
            Self::StaticRoundRobin => (Fifo, Place::Bound(Binding::default()), Whole, None),
            Self::Srpt => (Order::Srpt, AnyIdle, Split(Sampled), Some(Restripe)),
            Self::IdleHarvest => (BulkFirst, SmallsToFastest, Split(Sampled), Some(Harvest)),
        };
        Strategy {
            kind: self,
            order,
            place,
            cut,
            hook,
            candidates: Vec::new(),
            survivors: Vec::new(),
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
        ]
    }
}
