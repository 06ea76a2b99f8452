//! Single-rail strategy — the reference curves of Figures 2 and 3.
//!
//! All traffic goes to one designated rail. With `aggregate` enabled it
//! performs the *opportunistic aggregation* of §3.1: whenever more than one
//! small segment is waiting when the NIC becomes idle, they are copied into
//! one contiguous packet ("the best solution is to copy the segments into a
//! contiguous memory area and to send them as a single chunk").

use nmad_model::RailId;

use super::{batch_op, collect_aggregation_batch, Strategy, StrategyCtx, TxOp};

/// See module docs.
#[derive(Debug)]
pub struct SingleRail {
    rail: RailId,
    aggregate: bool,
}

impl SingleRail {
    /// Pin traffic to `rail`; `aggregate` enables opportunistic
    /// aggregation of waiting small segments.
    pub fn new(rail: RailId, aggregate: bool) -> Self {
        SingleRail { rail, aggregate }
    }

    /// The pinned rail.
    pub fn rail(&self) -> RailId {
        self.rail
    }
}

impl Strategy for SingleRail {
    fn name(&self) -> &'static str {
        if self.aggregate {
            "single-rail+agg"
        } else {
            "single-rail"
        }
    }

    fn next_tx(&mut self, rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        if rail != self.rail && ctx.rail_ok(self.rail) {
            return None; // other rails stay silent while ours is healthy
        }
        // Failover: when the pinned rail is out of service, whichever
        // healthy rail asks serves the backlog instead.
        // Granted large segments first (they were submitted earlier or the
        // handshake would not have completed): consume sequentially, whole
        // remainder in one chunk — a single rail gains nothing from
        // splitting.
        if let Some(item) = ctx.backlog.granted_items().next() {
            let key = item.key;
            let max_len = ctx.rails[rail.0].mtu as u64;
            return Some(TxOp::Chunk { key, max_len });
        }
        if self.aggregate {
            batch_op(collect_aggregation_batch(ctx))
        } else {
            ctx.backlog.eager_items().next().map(|i| TxOp::Eager(i.key))
        }
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

    fn ctx_parts() -> (Vec<nmad_model::NicModel>, Vec<PerfTable>, EngineConfig) {
        let rails = vec![platform::myri_10g(), platform::quadrics_qm500()];
        let tables = rails
            .iter()
            .map(|n| PerfTable::from_analytic(n, &default_ladder()))
            .collect();
        (rails, tables, EngineConfig::default())
    }

    fn key(msg: u64, seg: u16) -> SegKey {
        SegKey {
            conn: 0,
            msg_id: msg,
            seg_index: seg,
        }
    }

    #[test]
    fn ignores_other_rails() {
        let (rails, tables, config) = ctx_parts();
        let mut backlog = Backlog::new();
        backlog.push(key(1, 0), 1, 100, SegPhase::EagerReady);
        let mut s = SingleRail::new(RailId(0), false);
        let mut obs = FlightRecorder::disabled();
        let mut ctx = StrategyCtx {
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
        assert_eq!(s.next_tx(RailId(1), &mut ctx), None);
        assert!(s.next_tx(RailId(0), &mut ctx).is_some());
    }

    #[test]
    fn without_aggregation_sends_one_segment_at_a_time() {
        let (rails, tables, config) = ctx_parts();
        let mut backlog = Backlog::new();
        backlog.push(key(1, 0), 2, 100, SegPhase::EagerReady);
        backlog.push(key(1, 1), 2, 100, SegPhase::EagerReady);
        let mut s = SingleRail::new(RailId(0), false);
        let mut obs = FlightRecorder::disabled();
        let mut ctx = StrategyCtx {
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
        assert_eq!(s.next_tx(RailId(0), &mut ctx), Some(TxOp::Eager(key(1, 0))));
    }

    #[test]
    fn aggregates_waiting_smalls() {
        let (rails, tables, config) = ctx_parts();
        let mut backlog = Backlog::new();
        backlog.push(key(1, 0), 2, 100, SegPhase::EagerReady);
        backlog.push(key(1, 1), 2, 100, SegPhase::EagerReady);
        let mut s = SingleRail::new(RailId(0), true);
        let mut obs = FlightRecorder::disabled();
        let mut ctx = StrategyCtx {
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
        assert_eq!(
            s.next_tx(RailId(0), &mut ctx),
            Some(TxOp::Aggregate(vec![key(1, 0), key(1, 1)].into()))
        );
    }

    #[test]
    fn single_waiting_segment_not_wrapped_in_container() {
        let (rails, tables, config) = ctx_parts();
        let mut backlog = Backlog::new();
        backlog.push(key(1, 0), 1, 100, SegPhase::EagerReady);
        let mut s = SingleRail::new(RailId(0), true);
        let mut obs = FlightRecorder::disabled();
        let mut ctx = StrategyCtx {
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
        assert_eq!(s.next_tx(RailId(0), &mut ctx), Some(TxOp::Eager(key(1, 0))));
    }

    #[test]
    fn aggregation_respects_size_cap() {
        let (rails, tables, config) = ctx_parts();
        let cap = config.agg_max_bytes as u64;
        let mut backlog = Backlog::new();
        backlog.push(key(1, 0), 1, cap - 100, SegPhase::EagerReady);
        backlog.push(key(2, 0), 1, 500, SegPhase::EagerReady); // would exceed cap
        let mut s = SingleRail::new(RailId(0), true);
        let mut obs = FlightRecorder::disabled();
        let mut ctx = StrategyCtx {
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
        // Only the first fits: a lone segment ships as plain eager.
        assert_eq!(s.next_tx(RailId(0), &mut ctx), Some(TxOp::Eager(key(1, 0))));
    }

    #[test]
    fn granted_segment_takes_priority() {
        let (rails, tables, config) = ctx_parts();
        let mut backlog = Backlog::new();
        backlog.push(key(1, 0), 1, 1 << 20, SegPhase::RdvRequested);
        backlog.grant(key(1, 0));
        backlog.push(key(2, 0), 1, 100, SegPhase::EagerReady);
        let mut s = SingleRail::new(RailId(0), true);
        let mut obs = FlightRecorder::disabled();
        let mut ctx = StrategyCtx {
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
        match s.next_tx(RailId(0), &mut ctx) {
            Some(TxOp::Chunk { key: k, .. }) => assert_eq!(k, key(1, 0)),
            other => panic!("expected chunk, got {other:?}"),
        }
    }

    #[test]
    fn empty_backlog_returns_none() {
        let (rails, tables, config) = ctx_parts();
        let mut backlog = Backlog::new();
        let mut s = SingleRail::new(RailId(0), true);
        let mut obs = FlightRecorder::disabled();
        let mut ctx = StrategyCtx {
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
        assert_eq!(s.next_tx(RailId(0), &mut ctx), None);
    }
}
