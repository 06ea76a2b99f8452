//! Latency-class router: control-plane smalls pinned to the fastest
//! rail, bulk split across the rest.
//!
//! Mixed workloads interleave tiny control-class messages (latency
//! critical) with bulk transfers (bandwidth critical). Aggregation
//! already prefers the low-latency rail for smalls, but nothing stops a
//! bulk chunk from occupying that rail right when the next control
//! message arrives — head-of-line blocking measured in chunk serialization
//! time. This router makes the class separation explicit:
//!
//! - The **pin** is the lowest-latency healthy rail, re-evaluated at every
//!   decision through [`StrategyCtx::lowest_latency_rail`] — which is
//!   load-aware, so on symmetric fabrics the pin migrates off a loaded
//!   rail instead of sticking to rail 0.
//! - The pin serves waiting smalls first, and while smalls are waiting —
//!   or arrived within [`crate::config::ZooConfig::router_reserve_ns`] —
//!   it refuses bulk, staying free for the next control message (only
//!   while another healthy rail can carry the bulk; the router never
//!   strands traffic).
//! - Every other rail runs the bulk path: planned chunks, sampled-ratio
//!   splits over the idle rails (minus a reserved pin), bounded chunks,
//!   then whole medium segments. Smalls ride a non-pin rail only when the
//!   pin is saturated.

use nmad_model::RailId;

use super::{batch_op, collect_aggregation_batch_below, RailList, Strategy, StrategyCtx, TxOp};

/// See module docs.
#[derive(Debug, Default)]
pub struct LatencyRouter {
    /// Engine clock when the pin last served a small (reserve window).
    last_small_ns: Option<u64>,
}

impl LatencyRouter {
    /// New latency-class router.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bulk path: planned chunk, split across idle rails (minus an
    /// excluded reserved pin), bounded chunk, whole mediums.
    fn bulk_op(
        &mut self,
        rail: RailId,
        ctx: &mut StrategyCtx<'_>,
        exclude: Option<RailId>,
    ) -> Option<TxOp> {
        let has_planned = ctx.backlog.granted_items().any(|i| {
            i.plan
                .as_ref()
                .is_some_and(|p| p.iter().any(|c| !c.taken && c.rail == rail.0))
        });
        if has_planned {
            return Some(TxOp::PlannedChunk);
        }
        let min_chunk = ctx.config.min_chunk as u64;
        let first_unplanned = ctx
            .backlog
            .granted_items()
            .find(|i| i.plan.is_none())
            .map(|i| (i.key, i.next_offset, i.remaining()));
        if let Some(seg @ (key, _, remaining)) = first_unplanned {
            let idle: RailList = ctx
                .idle_rails()
                .into_iter()
                .filter(|r| Some(*r) != exclude)
                .collect();
            if idle.len() >= 2 && remaining >= 2 * min_chunk {
                let weights = ctx.sampled_weights(&idle, remaining);
                if weights.iter().sum::<f64>() > 0.0 {
                    if ctx.plan_split(rail, seg, &idle, &weights) {
                        return Some(TxOp::PlannedChunk);
                    }
                } else {
                    return Some(TxOp::Chunk {
                        key,
                        max_len: ctx.rails[rail.0].mtu as u64,
                    });
                }
            } else {
                let cap = (remaining / 4)
                    .max(2 * min_chunk)
                    .min(ctx.rails[rail.0].mtu as u64);
                return Some(TxOp::Chunk { key, max_len: cap });
            }
        }
        // Whole medium eager segments (DMA-eager regime) balance greedily.
        ctx.backlog
            .eager_items()
            .find(|i| i.size >= min_chunk)
            .map(|i| TxOp::Eager(i.key))
    }
}

impl Strategy for LatencyRouter {
    fn name(&self) -> &'static str {
        "latency-router"
    }

    fn next_tx(&mut self, rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        let pin = ctx.lowest_latency_rail();
        let min_chunk = ctx.config.min_chunk as u64;
        let smalls_waiting = ctx.backlog.eager_items().any(|i| i.size < min_chunk);
        let another_healthy = (0..ctx.rails.len()).any(|r| r != pin.0 && ctx.rail_ok(RailId(r)));
        let in_reserve_window = self
            .last_small_ns
            .is_some_and(|t| ctx.now_ns.saturating_sub(t) < ctx.config.zoo.router_reserve_ns);
        // The pin stays reserved for control traffic while smalls wait or
        // very recently flowed — but only when another healthy rail can
        // carry the bulk instead.
        let reserved = (smalls_waiting || in_reserve_window) && another_healthy;

        if rail == pin {
            if let Some(op) = batch_op(collect_aggregation_batch_below(ctx, min_chunk)) {
                self.last_small_ns = Some(ctx.now_ns);
                return Some(op);
            }
            if reserved {
                return None;
            }
            return self.bulk_op(rail, ctx, None);
        }
        // Non-pin rails: bulk, keeping split plans off a reserved pin.
        let exclude = reserved.then_some(pin);
        if let Some(op) = self.bulk_op(rail, ctx, exclude) {
            return Some(op);
        }
        // Smalls overflow onto this rail only when the pin cannot serve
        // them (saturated or out of service).
        let pin_blocked = ctx.rail_busy.get(pin.0).copied().unwrap_or(false) || !ctx.rail_ok(pin);
        if pin_blocked && smalls_waiting {
            return batch_op(collect_aggregation_batch_below(ctx, min_chunk));
        }
        None
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
        now_ns: u64,
    }

    impl Fixture {
        fn new() -> Self {
            // Rail 1 (Quadrics) is the latency-fast pin.
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
                now_ns: 0,
            }
        }

        fn ctx_with_health<'a>(&'a mut self, busy: &'a [bool], ok: &'a [bool]) -> StrategyCtx<'a> {
            StrategyCtx {
                backlog: &mut self.backlog,
                rails: &self.rails,
                rail_busy: busy,
                rail_ok: ok,
                tables: &self.tables,
                config: &self.config,
                obs: &mut self.obs,
                now_ns: self.now_ns,
                flight: &[],
            }
        }

        fn ctx<'a>(&'a mut self, busy: &'a [bool]) -> StrategyCtx<'a> {
            self.ctx_with_health(busy, &[true, true])
        }
    }

    #[test]
    fn pin_serves_smalls_and_refuses_bulk_while_reserved() {
        let mut f = Fixture::new();
        f.backlog.push(key(0, 0), 1, 64, SegPhase::EagerReady);
        f.backlog
            .push(key(1, 0), 1, 1 << 20, SegPhase::RdvRequested);
        f.backlog.grant(key(1, 0));
        let mut s = LatencyRouter::new();
        let both_idle = [false, false];
        // Pin (rail 1) takes the small, not the bulk.
        assert_eq!(
            s.next_tx(RailId(1), &mut f.ctx(&both_idle)),
            Some(TxOp::Eager(key(0, 0)))
        );
        f.backlog.take_eager(key(0, 0)).unwrap();
        // Inside the reserve window the pin refuses bulk...
        assert_eq!(s.next_tx(RailId(1), &mut f.ctx(&both_idle)), None);
        // ...while rail 0 carries it (single non-excluded idle rail →
        // bounded chunk).
        assert!(matches!(
            s.next_tx(RailId(0), &mut f.ctx(&both_idle)),
            Some(TxOp::Chunk { .. })
        ));
    }

    #[test]
    fn pin_takes_bulk_once_reserve_expires() {
        let mut f = Fixture::new();
        f.backlog.push(key(0, 0), 1, 64, SegPhase::EagerReady);
        f.backlog
            .push(key(1, 0), 1, 1 << 20, SegPhase::RdvRequested);
        f.backlog.grant(key(1, 0));
        let mut s = LatencyRouter::new();
        let both_idle = [false, false];
        assert_eq!(
            s.next_tx(RailId(1), &mut f.ctx(&both_idle)),
            Some(TxOp::Eager(key(0, 0)))
        );
        f.backlog.take_eager(key(0, 0)).unwrap();
        // Clock far past the reserve window: the pin joins bulk work. Both
        // rails are idle so the bulk splits across them.
        f.now_ns = 10 * f.config.zoo.router_reserve_ns;
        assert_eq!(
            s.next_tx(RailId(1), &mut f.ctx(&both_idle)),
            Some(TxOp::PlannedChunk)
        );
    }

    #[test]
    fn pin_carries_everything_when_alone() {
        let mut f = Fixture::new();
        f.backlog.push(key(0, 0), 1, 64, SegPhase::EagerReady);
        f.backlog
            .push(key(1, 0), 1, 1 << 20, SegPhase::RdvRequested);
        f.backlog.grant(key(1, 0));
        let mut s = LatencyRouter::new();
        let both_idle = [false, false];
        // Rail 0 is out of service: the pin must not reserve itself into
        // a stall — it serves the small, then the bulk.
        let ok = [false, true];
        assert_eq!(
            s.next_tx(RailId(1), &mut f.ctx_with_health(&both_idle, &ok)),
            Some(TxOp::Eager(key(0, 0)))
        );
        f.backlog.take_eager(key(0, 0)).unwrap();
        assert!(matches!(
            s.next_tx(RailId(1), &mut f.ctx_with_health(&both_idle, &ok)),
            Some(TxOp::Chunk { .. })
        ));
    }

    #[test]
    fn smalls_overflow_when_pin_saturated() {
        let mut f = Fixture::new();
        f.backlog.push(key(0, 0), 1, 64, SegPhase::EagerReady);
        let mut s = LatencyRouter::new();
        // Pin (rail 1) is at capacity: rail 0 may carry the small rather
        // than let it wait behind the pin's pipeline.
        let pin_busy = [false, true];
        assert_eq!(
            s.next_tx(RailId(0), &mut f.ctx(&pin_busy)),
            Some(TxOp::Eager(key(0, 0)))
        );
    }
}
