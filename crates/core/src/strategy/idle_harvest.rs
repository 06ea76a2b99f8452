//! Idle-link harvesting — a wrapper strategy after FlexLink (see
//! PAPERS.md).
//!
//! Runs any primary strategy unchanged. Only when the primary leaves a
//! rail idle *and* the schedulable backlog exceeds a watermark does the
//! idle rail harvest overflow work the primary reserved for somewhere
//! else: a bounded chunk of a granted segment, or a batch of the small
//! messages the primary was holding for its preferred low-latency rail.
//! Below the watermark the primary's placement is left alone — FlexLink's
//! observation is that an idle link only pays for itself once the primary
//! path is saturated, and stealing earlier just moves latency-sensitive
//! traffic onto the slow link for nothing.
//!
//! The watermark lives in [`crate::config::ZooConfig::harvest_watermark_bytes`].

use nmad_model::RailId;

use super::{batch_op, collect_aggregation_batch_below, Strategy, StrategyCtx, TxOp};

/// See module docs.
pub struct IdleHarvest {
    primary: Box<dyn Strategy>,
}

impl IdleHarvest {
    /// Wrap `primary` with idle-link harvesting.
    pub fn new(primary: Box<dyn Strategy>) -> Self {
        IdleHarvest { primary }
    }
}

impl Strategy for IdleHarvest {
    fn name(&self) -> &'static str {
        "idle-harvest"
    }

    fn next_tx(&mut self, rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        if let Some(op) = self.primary.next_tx(rail, ctx) {
            return Some(op);
        }
        // The primary left this rail idle. Harvest only above the
        // watermark: schedulable bytes the primary has not yet placed
        // anywhere (eager segments plus unplanned granted remainders).
        let pressure: u64 = ctx.backlog.eager_bytes()
            + ctx
                .backlog
                .granted_items()
                .filter(|i| i.plan.is_none())
                .map(|i| i.remaining())
                .sum::<u64>();
        if pressure <= ctx.config.zoo.harvest_watermark_bytes {
            return None;
        }
        let min_chunk = ctx.config.min_chunk as u64;
        // Overflow bulk first: a bounded chunk, so the primary can still
        // split the rest once its preferred rails free up.
        let granted = ctx
            .backlog
            .granted_items()
            .find(|i| i.plan.is_none())
            .map(|i| (i.key, i.remaining()));
        if let Some((key, remaining)) = granted {
            let cap = (remaining / 4)
                .max(2 * min_chunk)
                .min(ctx.rails[rail.0].mtu as u64);
            return Some(TxOp::Chunk { key, max_len: cap });
        }
        // Otherwise steal a batch of the smalls the primary reserved for
        // its low-latency rail — under this much pressure that rail needs
        // the help.
        batch_op(collect_aggregation_batch_below(ctx, min_chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::obs::FlightRecorder;
    use crate::request::{Backlog, SegKey, SegPhase};
    use crate::sampling::{default_ladder, PerfTable};
    use crate::strategy::adaptive_split::{AdaptiveSplit, SplitMode};
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

    fn harvest() -> IdleHarvest {
        IdleHarvest::new(Box::new(AdaptiveSplit::new(SplitMode::Sampled)))
    }

    #[test]
    fn below_watermark_primary_placement_respected() {
        let mut f = Fixture::new();
        // A handful of smalls: AdaptiveSplit reserves them for the
        // low-latency rail (rail 1 = Quadrics) and leaves rail 0 idle.
        // Total pressure is far below the watermark, so rail 0 must NOT
        // steal them.
        for m in 0..4 {
            f.backlog.push(key(m, 0), 1, 64, SegPhase::EagerReady);
        }
        let mut s = harvest();
        let both_idle = [false, false];
        assert_eq!(s.next_tx(RailId(0), &mut f.ctx(&both_idle)), None);
        // The reserved rail still gets its batch.
        assert!(matches!(
            s.next_tx(RailId(1), &mut f.ctx(&both_idle)),
            Some(TxOp::Aggregate(_))
        ));
    }

    #[test]
    fn above_watermark_idle_rail_steals_smalls() {
        let mut f = Fixture::new();
        // Flood of 4 KiB smalls: pressure well above the 64 KiB
        // watermark. The primary still reserves them for rail 1; the
        // wrapper lets idle rail 0 harvest a batch.
        for m in 0..64 {
            f.backlog.push(key(m, 0), 1, 4096, SegPhase::EagerReady);
        }
        let mut s = harvest();
        let both_idle = [false, false];
        match s.next_tx(RailId(0), &mut f.ctx(&both_idle)) {
            Some(TxOp::Aggregate(keys)) => assert!(!keys.is_empty()),
            other => panic!("expected harvested batch, got {other:?}"),
        }
    }

    #[test]
    fn passes_primary_decisions_through() {
        let mut f = Fixture::new();
        f.backlog
            .push(key(0, 0), 1, 8 << 20, SegPhase::RdvRequested);
        f.backlog.grant(key(0, 0));
        let mut s = harvest();
        let both_idle = [false, false];
        // The primary splits the large segment; the wrapper must not
        // interfere.
        assert_eq!(
            s.next_tx(RailId(0), &mut f.ctx(&both_idle)),
            Some(TxOp::PlannedChunk)
        );
        assert!(f.backlog.take_planned(0).is_some());
        assert!(f.backlog.take_planned(1).is_some());
    }
}
