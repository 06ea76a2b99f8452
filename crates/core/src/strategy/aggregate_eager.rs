//! Aggregation of small messages — §3.3 of the paper (Figure 6).
//!
//! "We therefore implemented a second version of our strategy which
//! aggregates small messages as soon as they are submitted, favoring their
//! transfer on the fastest network (that is, Quadrics) and proceeding
//! afterward in a greedy fashion."
//!
//! Concretely: waiting eager segments are reserved for the lowest-latency
//! rail — another idle rail leaves them alone *while that rail is idle and
//! will pick them up itself*. If the fast rail is busy, any idle rail may
//! take them (the "greedy fashion" fallback, which also prevents
//! starvation). Granted large segments are balanced greedily exactly as in
//! §3.2.

use nmad_model::RailId;

use super::{batch_op, collect_aggregation_batch_below, Strategy, StrategyCtx, TxOp};

/// See module docs.
#[derive(Debug, Default)]
pub struct AggregateEager;

impl AggregateEager {
    /// New aggregating strategy.
    pub fn new() -> Self {
        AggregateEager
    }

    pub(crate) fn eager_op(rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        // "Medium" segments — above the PIO regime but below the
        // rendezvous threshold — gain nothing from staging copies and do
        // gain from overlap: balance them greedily like large ones.
        let pio_boundary = ctx.config.min_chunk as u64;
        if let Some(item) = ctx.backlog.eager_items().find(|i| i.size >= pio_boundary) {
            return Some(TxOp::Eager(item.key));
        }
        let fast = ctx.lowest_latency_rail();
        if rail != fast && !ctx.rail_busy[fast.0] {
            // The fast rail is idle and will be asked too; leave the small
            // messages for it.
            return None;
        }
        batch_op(collect_aggregation_batch_below(ctx, pio_boundary))
    }

    pub(crate) fn greedy_large_op(rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        let key = ctx.backlog.granted_items().next()?.key;
        Some(TxOp::Chunk {
            key,
            max_len: ctx.rails[rail.0].mtu as u64,
        })
    }
}

impl Strategy for AggregateEager {
    fn name(&self) -> &'static str {
        "aggregate-eager"
    }

    fn next_tx(&mut self, rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        // Large granted segments: greedy balancing over whoever is idle.
        if let Some(op) = Self::greedy_large_op(rail, ctx) {
            return Some(op);
        }
        Self::eager_op(rail, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::obs::FlightRecorder;
    use crate::request::{Backlog, SegKey, SegPhase};
    use crate::sampling::{default_ladder, PerfTable};
    use nmad_model::platform;

    fn key(msg: u64, seg: u16) -> SegKey {
        SegKey {
            conn: 0,
            msg_id: msg,
            seg_index: seg,
        }
    }

    struct Fixture {
        rails: Vec<nmad_model::NicModel>,
        tables: Vec<PerfTable>,
        config: EngineConfig,
        backlog: Backlog,
        obs: FlightRecorder,
    }

    impl Fixture {
        // Rail 0 = Myri (fast bandwidth), rail 1 = Quadrics (fast latency).
        fn new() -> Self {
            let rails = vec![platform::myri_10g(), platform::quadrics_qm500()];
            let tables = rails
                .iter()
                .map(|n| PerfTable::from_analytic(n, &default_ladder()))
                .collect();
            Fixture {
                rails,
                tables,
                config: EngineConfig::default(),
                backlog: Backlog::new(),
                obs: FlightRecorder::disabled(),
            }
        }

        fn ctx<'a>(&'a mut self, busy: &'a [bool]) -> StrategyCtx<'a> {
            StrategyCtx {
                backlog: &mut self.backlog,
                rails: &self.rails,
                rail_busy: busy,
                rail_ok: &[true, true],
                tables: &self.tables,
                config: &self.config,
                obs: &mut self.obs,
                now_ns: 0,
                flight: &[],
            }
        }
    }

    #[test]
    fn smalls_reserved_for_lowest_latency_rail() {
        let mut f = Fixture::new();
        f.backlog.push(key(1, 0), 2, 100, SegPhase::EagerReady);
        f.backlog.push(key(1, 1), 2, 100, SegPhase::EagerReady);
        let mut s = AggregateEager::new();
        let both_idle = [false, false];
        // Myri (rail 0) must defer while Quadrics (rail 1) is idle.
        assert_eq!(s.next_tx(RailId(0), &mut f.ctx(&both_idle)), None);
        // Quadrics aggregates both.
        assert_eq!(
            s.next_tx(RailId(1), &mut f.ctx(&both_idle)),
            Some(TxOp::Aggregate(vec![key(1, 0), key(1, 1)].into()))
        );
    }

    #[test]
    fn fallback_to_other_rail_when_fast_is_busy() {
        let mut f = Fixture::new();
        f.backlog.push(key(1, 0), 1, 100, SegPhase::EagerReady);
        let mut s = AggregateEager::new();
        let quadrics_busy = [false, true];
        assert_eq!(
            s.next_tx(RailId(0), &mut f.ctx(&quadrics_busy)),
            Some(TxOp::Eager(key(1, 0)))
        );
    }

    #[test]
    fn large_segments_balanced_greedily() {
        let mut f = Fixture::new();
        f.backlog
            .push(key(1, 0), 2, 1 << 20, SegPhase::RdvRequested);
        f.backlog
            .push(key(1, 1), 2, 1 << 20, SegPhase::RdvRequested);
        f.backlog.grant(key(1, 0));
        f.backlog.grant(key(1, 1));
        let mut s = AggregateEager::new();
        let both_idle = [false, false];
        match s.next_tx(RailId(0), &mut f.ctx(&both_idle)) {
            Some(TxOp::Chunk { key: k, .. }) => assert_eq!(k, key(1, 0)),
            other => panic!("{other:?}"),
        }
        // Engine would consume it; emulate.
        f.backlog.take_chunk(key(1, 0), u64::MAX).unwrap();
        match s.next_tx(RailId(1), &mut f.ctx(&both_idle)) {
            Some(TxOp::Chunk { key: k, .. }) => assert_eq!(k, key(1, 1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn large_takes_priority_over_small_on_any_rail() {
        let mut f = Fixture::new();
        f.backlog
            .push(key(1, 0), 1, 1 << 20, SegPhase::RdvRequested);
        f.backlog.grant(key(1, 0));
        f.backlog.push(key(2, 0), 1, 100, SegPhase::EagerReady);
        let mut s = AggregateEager::new();
        let both_idle = [false, false];
        match s.next_tx(RailId(0), &mut f.ctx(&both_idle)) {
            Some(TxOp::Chunk { .. }) => {}
            other => panic!("large first, got {other:?}"),
        }
    }

    #[test]
    fn quadrics_takes_single_small_directly() {
        let mut f = Fixture::new();
        f.backlog.push(key(1, 0), 1, 100, SegPhase::EagerReady);
        let mut s = AggregateEager::new();
        let both_idle = [false, false];
        assert_eq!(
            s.next_tx(RailId(1), &mut f.ctx(&both_idle)),
            Some(TxOp::Eager(key(1, 0)))
        );
    }

    #[test]
    fn medium_segments_balanced_not_aggregated() {
        let mut f = Fixture::new();
        let medium = f.config.min_chunk as u64; // 8 KiB: DMA-eager regime
        f.backlog.push(key(1, 0), 2, medium, SegPhase::EagerReady);
        f.backlog.push(key(1, 1), 2, medium, SegPhase::EagerReady);
        let mut s = AggregateEager::new();
        let both_idle = [false, false];
        // Myri (rail 0) takes the first medium segment greedily instead of
        // deferring to the latency rail.
        assert_eq!(
            s.next_tx(RailId(0), &mut f.ctx(&both_idle)),
            Some(TxOp::Eager(key(1, 0)))
        );
        f.backlog.take_eager(key(1, 0)).unwrap();
        assert_eq!(
            s.next_tx(RailId(1), &mut f.ctx(&both_idle)),
            Some(TxOp::Eager(key(1, 1)))
        );
    }

    #[test]
    fn mixed_smalls_aggregate_without_the_medium() {
        let mut f = Fixture::new();
        f.backlog.push(key(1, 0), 1, 64, SegPhase::EagerReady);
        f.backlog.push(
            key(2, 0),
            1,
            f.config.min_chunk as u64,
            SegPhase::EagerReady,
        );
        f.backlog.push(key(3, 0), 1, 64, SegPhase::EagerReady);
        let mut s = AggregateEager::new();
        // Only Quadrics idle: it serves the medium first (greedy priority).
        let myri_busy = [true, false];
        assert_eq!(
            s.next_tx(RailId(1), &mut f.ctx(&myri_busy)),
            Some(TxOp::Eager(key(2, 0)))
        );
        f.backlog.take_eager(key(2, 0)).unwrap();
        // Then the two smalls aggregate together.
        assert_eq!(
            s.next_tx(RailId(1), &mut f.ctx(&myri_busy)),
            Some(TxOp::Aggregate(vec![key(1, 0), key(3, 0)].into()))
        );
    }

    #[test]
    fn nothing_pending_returns_none() {
        let mut f = Fixture::new();
        let mut s = AggregateEager::new();
        let both_idle = [false, false];
        assert_eq!(s.next_tx(RailId(1), &mut f.ctx(&both_idle)), None);
    }
}
