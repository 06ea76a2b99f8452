//! Shortest-remaining-work-first balancing with straggler-aware
//! re-striping, after RailS (see PAPERS.md).
//!
//! Two ideas compose here:
//!
//! 1. **SRPT order.** Where greedy serves the *oldest* schedulable work,
//!    this strategy serves the segment with the *least remaining bytes*
//!    first (ties by submit order). Under heavy-tailed size mixes the
//!    small requests stop queueing behind multi-megabyte transfers, which
//!    is exactly where RailS reports its wins.
//! 2. **Straggler re-striping.** Split plans earmark chunks per rail at
//!    plan time; if a rail then slows down (drift, congestion) its
//!    earmarked chunks sit waiting while the other rails drain. Each
//!    decision, any rail whose oldest in-flight frame has aged past a
//!    multiple of its predicted service time ([`RailFlight`] EWMA or the
//!    sampled table, whichever predicts more) has its untaken planned
//!    chunks re-striped round-robin onto the healthy, non-straggling
//!    rails — the same mechanism the engine uses on rail death, applied
//!    early on evidence of lag.
//!
//! Knobs live in [`crate::config::ZooConfig`]
//! (`srpt_straggle_factor`/`srpt_straggle_floor_ns`).

use nmad_model::RailId;

use super::{batch_op, collect_aggregation_batch_below, Strategy, StrategyCtx, TxOp};
use crate::obs::{Event, EventKind};
use crate::request::SegKey;

#[cfg(doc)]
use super::RailFlight;

/// One schedulable candidate, ordered by remaining work.
enum Cand {
    /// Whole eager segment of this size.
    Eager(SegKey, u64),
    /// Granted rendezvous segment: (key, remaining, next_offset).
    Granted(SegKey, u64, u64),
}

/// See module docs.
#[derive(Debug, Default)]
pub struct Srpt;

impl Srpt {
    /// New SRPT strategy.
    pub fn new() -> Self {
        Srpt
    }

    /// Re-stripe the untaken planned chunks of straggling (or newly
    /// unhealthy) rails onto the healthy, non-straggling survivors.
    fn restripe(&mut self, ctx: &mut StrategyCtx<'_>) {
        let n = ctx.rails.len();
        let zoo = &ctx.config.zoo;
        let straggling: Vec<bool> = (0..n)
            .map(|r| {
                if !ctx.rail_ok(RailId(r)) {
                    // The engine re-stripes on the Down transition itself;
                    // treating not-ok as straggling here also covers rails
                    // parked in probing limbo.
                    return true;
                }
                let f = ctx.flight(RailId(r));
                if f.inflight == 0 {
                    return false;
                }
                let age = ctx.now_ns.saturating_sub(f.oldest_post_ns);
                // Predicted completion: the observed per-frame EWMA or the
                // sampled table's estimate for the bytes in flight, whichever
                // is larger (early EWMA samples are noisy; the table knows
                // the size regime).
                let table_ns = (ctx.tables[r].time_for(f.inflight_bytes) * 1000.0) as u64;
                let est = f.ewma_service_ns.max(table_ns);
                let threshold = ((est as f64 * zoo.srpt_straggle_factor) as u64)
                    .max(zoo.srpt_straggle_floor_ns);
                age > threshold
            })
            .collect();
        let survivors: Vec<usize> = (0..n).filter(|&r| !straggling[r]).collect();
        if survivors.is_empty() {
            return;
        }
        for (r, _) in straggling.iter().enumerate().filter(|&(_, s)| *s) {
            let moved = ctx.backlog.reassign_rail(r, &survivors);
            if moved > 0 && ctx.obs.is_enabled() {
                ctx.obs.record(
                    Event::new(ctx.now_ns, EventKind::Restripe)
                        .rail(r)
                        .aux(moved as u64),
                );
            }
        }
    }
}

impl Strategy for Srpt {
    fn name(&self) -> &'static str {
        "srpt"
    }

    fn next_tx(&mut self, rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        self.restripe(ctx);

        // A chunk already earmarked for this rail (possibly just moved
        // here by the re-stripe above).
        let has_planned = ctx.backlog.granted_items().any(|i| {
            i.plan
                .as_ref()
                .is_some_and(|p| p.iter().any(|c| !c.taken && c.rail == rail.0))
        });
        if has_planned {
            return Some(TxOp::PlannedChunk);
        }

        // Shortest remaining work first, ties by submit order.
        let mut cands: Vec<(u64, u64, Cand)> = Vec::new();
        for i in ctx.backlog.eager_items() {
            cands.push((i.size, i.submit_seq, Cand::Eager(i.key, i.size)));
        }
        for i in ctx.backlog.granted_items() {
            if i.plan.is_none() {
                cands.push((
                    i.remaining(),
                    i.submit_seq,
                    Cand::Granted(i.key, i.remaining(), i.next_offset),
                ));
            }
        }
        cands.sort_by_key(|&(work, seq, _)| (work, seq));

        let min_chunk = ctx.config.min_chunk as u64;
        for (_, _, cand) in cands {
            match cand {
                Cand::Eager(key, size) => {
                    if size < min_chunk {
                        // Several smalls at the head of the SRPT order:
                        // batch them (submit order inside the container is
                        // fine — they all complete with this one frame).
                        let batch = collect_aggregation_batch_below(ctx, min_chunk);
                        return batch_op(batch).or(Some(TxOp::Eager(key)));
                    }
                    return Some(TxOp::Eager(key));
                }
                Cand::Granted(key, remaining, next_offset) => {
                    let idle = ctx.idle_rails();
                    if idle.len() >= 2 && remaining >= 2 * min_chunk {
                        // Finish this segment as fast as the fabric allows:
                        // split it across every idle rail by sampled shares
                        // (remaining-work-aware striping).
                        let weights = ctx.sampled_weights(&idle, remaining);
                        if weights.iter().sum::<f64>() > 0.0 {
                            let seg = (key, next_offset, remaining);
                            if ctx.plan_split(rail, seg, &idle, &weights) {
                                return Some(TxOp::PlannedChunk);
                            }
                            // Planned away from this rail (its share
                            // rounded to zero): try the next candidate.
                            continue;
                        }
                        return Some(TxOp::Chunk {
                            key,
                            max_len: ctx.rails[rail.0].mtu as u64,
                        });
                    }
                    // Sole idle rail (or small remainder): bounded chunk so
                    // a later decision can still split what is left.
                    let cap = (remaining / 4)
                        .max(2 * min_chunk)
                        .min(ctx.rails[rail.0].mtu as u64);
                    return Some(TxOp::Chunk { key, max_len: cap });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::obs::FlightRecorder;
    use crate::request::{Backlog, SegPhase};
    use crate::sampling::{default_ladder, PerfTable};
    use crate::strategy::RailFlight;
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
        flight: Vec<RailFlight>,
        now_ns: u64,
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
                flight: vec![RailFlight::default(); 2],
                now_ns: 0,
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
                now_ns: self.now_ns,
                flight: &self.flight,
            }
        }
    }

    #[test]
    fn shortest_remaining_work_served_first() {
        let mut f = Fixture::new();
        // Large submitted first, small second: greedy would serve the
        // large; SRPT must pick the small.
        f.backlog
            .push(key(0, 0), 1, 1 << 20, SegPhase::RdvRequested);
        f.backlog.grant(key(0, 0));
        f.backlog
            .push(key(1, 0), 1, 16 * 1024, SegPhase::EagerReady);
        let mut s = Srpt::new();
        let busy = [false, true];
        match s.next_tx(RailId(0), &mut f.ctx(&busy)) {
            Some(TxOp::Eager(k)) => assert_eq!(k, key(1, 0), "small eager first"),
            other => panic!("expected the small segment, got {other:?}"),
        }
    }

    #[test]
    fn smalls_batch_in_one_container() {
        let mut f = Fixture::new();
        f.backlog.push(key(0, 0), 1, 64, SegPhase::EagerReady);
        f.backlog.push(key(1, 0), 1, 64, SegPhase::EagerReady);
        let mut s = Srpt::new();
        let busy = [false, true];
        assert_eq!(
            s.next_tx(RailId(0), &mut f.ctx(&busy)),
            Some(TxOp::Aggregate(vec![key(0, 0), key(1, 0)].into()))
        );
    }

    #[test]
    fn splits_across_idle_rails() {
        let mut f = Fixture::new();
        f.backlog
            .push(key(0, 0), 1, 8 << 20, SegPhase::RdvRequested);
        f.backlog.grant(key(0, 0));
        let mut s = Srpt::new();
        let busy = [false, false];
        assert_eq!(
            s.next_tx(RailId(0), &mut f.ctx(&busy)),
            Some(TxOp::PlannedChunk)
        );
        let l0 = f.backlog.take_planned(0).unwrap().len;
        let l1 = f.backlog.take_planned(1).unwrap().len;
        assert_eq!(l0 + l1, 8 << 20);
    }

    #[test]
    fn straggler_plan_restriped_to_survivor() {
        let mut f = Fixture::new();
        f.backlog
            .push(key(0, 0), 1, 8 << 20, SegPhase::RdvRequested);
        f.backlog.grant(key(0, 0));
        let mut s = Srpt::new();
        let both_idle = [false, false];
        // Plan the split while both rails are idle.
        assert_eq!(
            s.next_tx(RailId(0), &mut f.ctx(&both_idle)),
            Some(TxOp::PlannedChunk)
        );
        f.backlog.take_planned(0).unwrap();
        // Rail 1's frame has aged far beyond any predicted completion
        // while its earmarked chunk is still untaken: it is a straggler,
        // and its chunk must move to the healthy survivor (rail 0).
        f.now_ns = 1_000_000_000;
        f.flight[1] = RailFlight {
            inflight: 1,
            inflight_bytes: 4 << 20,
            oldest_post_ns: 1, // ancient
            sent_bytes: 4 << 20,
            ewma_service_ns: 1_000,
        };
        let rail1_busy = [false, true];
        // Rail 0 asks again: re-striping must hand it rail 1's chunk.
        assert_eq!(
            s.next_tx(RailId(0), &mut f.ctx(&rail1_busy)),
            Some(TxOp::PlannedChunk)
        );
        let tc = f.backlog.take_planned(0).expect("chunk moved to rail 0");
        assert_eq!(tc.key, key(0, 0));
        assert!(
            f.backlog.take_planned(1).is_none(),
            "rail 1 must have lost its earmarked chunk"
        );
    }

    #[test]
    fn no_restripe_before_threshold() {
        let mut f = Fixture::new();
        f.backlog
            .push(key(0, 0), 1, 8 << 20, SegPhase::RdvRequested);
        f.backlog.grant(key(0, 0));
        let mut s = Srpt::new();
        let both_idle = [false, false];
        assert_eq!(
            s.next_tx(RailId(0), &mut f.ctx(&both_idle)),
            Some(TxOp::PlannedChunk)
        );
        f.backlog.take_planned(0).unwrap();
        // Rail 1 is busy but young: well inside its predicted completion.
        f.now_ns = 10_000;
        f.flight[1] = RailFlight {
            inflight: 1,
            inflight_bytes: 4 << 20,
            oldest_post_ns: 9_000,
            sent_bytes: 0,
            ewma_service_ns: 1_000_000,
        };
        let rail1_busy = [false, true];
        // Rail 0's own share is consumed; rail 1 keeps its chunk, so rail 0
        // gets nothing planned and nothing else is schedulable for it.
        assert_eq!(s.next_tx(RailId(0), &mut f.ctx(&rail1_busy)), None);
        assert!(
            f.backlog.take_planned(1).is_some(),
            "rail 1 keeps its earmarked chunk"
        );
    }
}
