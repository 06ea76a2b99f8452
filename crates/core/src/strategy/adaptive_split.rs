//! Packet stripping with adaptive threshold — §3.4 of the paper (Figure 7),
//! plus the 50/50 "iso-split" reference curve.
//!
//! The paper's final, combined strategy: "massively aggregate the small
//! messages, favor the sending of the resulting message over Quadrics,
//! split the large ones following some previously processed ratios when
//! both NICs are available and if not, send them over the first free one."
//!
//! Splitting is decided *just in time*: when an idle rail first touches a
//! granted segment, the strategy looks at which rails are idle right now.
//! Two or more idle → compute a split plan over them (byte shares from the
//! init-time sampling tables, or equal shares in iso mode) and earmark one
//! chunk per rail; each rail picks up its chunk as the engine asks it.
//! Only one rail idle → the segment goes whole onto that rail.

use nmad_model::RailId;

use super::aggregate_eager::AggregateEager;
use super::{Strategy, StrategyCtx, TxOp};
use crate::sampling::Weights;

/// How chunk sizes are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitMode {
    /// Byte shares from the sampled performance tables (§3.4: transfer
    /// times equalized across rails).
    Sampled,
    /// Equal shares — the "iso-splitted" reference of Figure 7.
    Iso,
    /// A fixed fraction (permille of the bytes) for the first idle rail,
    /// the rest spread equally over the others. Used by the ratio-
    /// sensitivity ablation bench.
    Fixed(u16),
}

/// See module docs.
#[derive(Debug)]
pub struct AdaptiveSplit {
    mode: SplitMode,
}

impl AdaptiveSplit {
    /// New splitting strategy.
    pub fn new(mode: SplitMode) -> Self {
        AdaptiveSplit { mode }
    }

    /// The configured mode.
    pub fn mode(&self) -> SplitMode {
        self.mode
    }
}

impl Strategy for AdaptiveSplit {
    fn name(&self) -> &'static str {
        match self.mode {
            SplitMode::Sampled => "adaptive-split",
            SplitMode::Iso => "iso-split",
            SplitMode::Fixed(_) => "fixed-split",
        }
    }

    fn next_tx(&mut self, rail: RailId, ctx: &mut StrategyCtx<'_>) -> Option<TxOp> {
        // 1. A chunk already earmarked for this rail by an earlier plan.
        let has_planned = ctx.backlog.granted_items().any(|i| {
            i.plan
                .as_ref()
                .is_some_and(|p| p.iter().any(|c| !c.taken && c.rail == rail.0))
        });
        if has_planned {
            return Some(TxOp::PlannedChunk);
        }

        // 2. First granted segment without a plan: split or send whole.
        let first_unplanned = ctx
            .backlog
            .granted_items()
            .find(|i| i.plan.is_none())
            .map(|i| (i.key, i.next_offset, i.remaining()));
        if let Some(seg @ (key, _, remaining)) = first_unplanned {
            let idle = ctx.idle_rails();
            let min_chunk = ctx.config.min_chunk as u64;
            if idle.len() >= 2 && remaining >= 2 * min_chunk {
                let weights: Weights = match self.mode {
                    SplitMode::Iso => idle.iter().map(|_| 1.0).collect(),
                    SplitMode::Sampled => ctx.sampled_weights(&idle, remaining),
                    SplitMode::Fixed(permille) => {
                        let f = f64::from(permille.min(1000)) / 1000.0;
                        let rest = (1.0 - f) / (idle.len() - 1) as f64;
                        (0..idle.len())
                            .map(|i| if i == 0 { f } else { rest })
                            .collect()
                    }
                };
                if weights.iter().sum::<f64>() > 0.0 {
                    if ctx.plan_split(rail, seg, &idle, &weights) {
                        return Some(TxOp::PlannedChunk);
                    }
                    // This rail contributes nothing (too slow for the
                    // remaining bytes); fall through to eager work.
                } else {
                    return Some(TxOp::Chunk {
                        key,
                        max_len: ctx.rails[rail.0].mtu as u64,
                    });
                }
            } else {
                // "If not [both available], send them over the first free
                // one" — but in bounded chunks, not the whole remainder:
                // the rail frees up again soon, and if another rail has
                // become idle by then, the next decision can split what is
                // left. (Sending everything would pin a large segment to
                // whichever rail happened to free first — possibly the
                // slowest one.)
                let cap = (remaining / 4)
                    .max(2 * min_chunk)
                    .min(ctx.rails[rail.0].mtu as u64);
                return Some(TxOp::Chunk { key, max_len: cap });
            }
        }

        // 3. Small messages: aggregate onto the lowest-latency rail.
        AggregateEager::eager_op(rail, ctx)
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

        fn grant_large(&mut self, k: SegKey, size: u64) {
            self.backlog.push(k, 1, size, SegPhase::RdvRequested);
            self.backlog.grant(k);
        }
    }

    #[test]
    fn splits_when_both_rails_idle() {
        let mut f = Fixture::new();
        f.grant_large(key(1, 0), 8 << 20);
        let mut s = AdaptiveSplit::new(SplitMode::Sampled);
        let both_idle = [false, false];
        assert_eq!(
            s.next_tx(RailId(0), &mut f.ctx(&both_idle)),
            Some(TxOp::PlannedChunk)
        );
        // A plan now exists; verify the shares: Myri carries the major part.
        let tc0 = f.backlog.take_planned(0).unwrap();
        let tc1 = f.backlog.take_planned(1).unwrap();
        assert_eq!(tc0.key, key(1, 0));
        assert_eq!(tc1.key, key(1, 0));
        let (len0, len1) = (tc0.len, tc1.len);
        assert_eq!(len0 + len1, 8 << 20);
        assert!(
            len0 > len1,
            "Myri must carry the major part: {len0} vs {len1}"
        );
        let frac = len0 as f64 / (8u64 << 20) as f64;
        assert!((0.52..0.68).contains(&frac), "myri fraction {frac}");
    }

    #[test]
    fn iso_mode_splits_evenly() {
        let mut f = Fixture::new();
        f.grant_large(key(1, 0), 8 << 20);
        let mut s = AdaptiveSplit::new(SplitMode::Iso);
        let both_idle = [false, false];
        assert_eq!(
            s.next_tx(RailId(0), &mut f.ctx(&both_idle)),
            Some(TxOp::PlannedChunk)
        );
        let len0 = f.backlog.take_planned(0).unwrap().len;
        let len1 = f.backlog.take_planned(1).unwrap().len;
        assert!(len0.abs_diff(len1) <= 1, "iso halves: {len0} vs {len1}");
    }

    #[test]
    fn bounded_chunk_when_other_rail_busy() {
        let mut f = Fixture::new();
        f.grant_large(key(1, 0), 8 << 20);
        let mut s = AdaptiveSplit::new(SplitMode::Sampled);
        let quadrics_busy = [false, true];
        match s.next_tx(RailId(0), &mut f.ctx(&quadrics_busy)) {
            Some(TxOp::Chunk { key: k, max_len }) => {
                assert_eq!(k, key(1, 0));
                // A quarter of the remainder: the rail frees soon so a
                // later decision can split the rest across idle rails.
                assert_eq!(max_len, (8 << 20) / 4);
            }
            other => panic!("expected bounded chunk, got {other:?}"),
        }
    }

    #[test]
    fn small_remainder_not_split() {
        let mut f = Fixture::new();
        // Below 2 * min_chunk: splitting would create PIO-sized fragments.
        f.grant_large(key(1, 0), (2 * f.config.min_chunk - 1) as u64);
        let mut s = AdaptiveSplit::new(SplitMode::Sampled);
        let both_idle = [false, false];
        match s.next_tx(RailId(0), &mut f.ctx(&both_idle)) {
            Some(TxOp::Chunk { .. }) => {}
            other => panic!("expected whole chunk, got {other:?}"),
        }
    }

    #[test]
    fn second_rail_picks_up_its_planned_chunk() {
        let mut f = Fixture::new();
        f.grant_large(key(1, 0), 8 << 20);
        let mut s = AdaptiveSplit::new(SplitMode::Sampled);
        let both_idle = [false, false];
        assert_eq!(
            s.next_tx(RailId(0), &mut f.ctx(&both_idle)),
            Some(TxOp::PlannedChunk)
        );
        // Engine consumes rail 0's chunk.
        f.backlog.take_planned(0).unwrap();
        // Rail 1 finds its earmarked chunk.
        assert_eq!(
            s.next_tx(RailId(1), &mut f.ctx(&both_idle)),
            Some(TxOp::PlannedChunk)
        );
    }

    #[test]
    fn smalls_still_aggregate_on_fast_rail() {
        let mut f = Fixture::new();
        f.backlog.push(key(1, 0), 2, 64, SegPhase::EagerReady);
        f.backlog.push(key(1, 1), 2, 64, SegPhase::EagerReady);
        let mut s = AdaptiveSplit::new(SplitMode::Sampled);
        let both_idle = [false, false];
        assert_eq!(s.next_tx(RailId(0), &mut f.ctx(&both_idle)), None);
        assert_eq!(
            s.next_tx(RailId(1), &mut f.ctx(&both_idle)),
            Some(TxOp::Aggregate(vec![key(1, 0), key(1, 1)].into()))
        );
    }

    #[test]
    fn three_rails_split_three_ways() {
        let rails = vec![
            platform::myri_10g(),
            platform::quadrics_qm500(),
            platform::sci_dolphin(),
        ];
        let tables: Vec<PerfTable> = rails
            .iter()
            .map(|n| PerfTable::from_analytic(n, &default_ladder()))
            .collect();
        let config = EngineConfig::default();
        let mut backlog = Backlog::new();
        backlog.push(key(1, 0), 1, 8 << 20, SegPhase::RdvRequested);
        backlog.grant(key(1, 0));
        let mut s = AdaptiveSplit::new(SplitMode::Sampled);
        let busy = [false, false, false];
        let mut obs = FlightRecorder::disabled();
        let mut ctx = StrategyCtx {
            backlog: &mut backlog,
            rails: &rails,
            rail_busy: &busy,
            rail_ok: &[true, true],
            tables: &tables,
            config: &config,
            obs: &mut obs,
            now_ns: 0,
            flight: &[],
        };
        assert_eq!(s.next_tx(RailId(0), &mut ctx), Some(TxOp::PlannedChunk));
        let l0 = backlog.take_planned(0).unwrap().len;
        let l1 = backlog.take_planned(1).unwrap().len;
        let l2 = backlog.take_planned(2).unwrap().len;
        assert_eq!(l0 + l1 + l2, 8 << 20);
        assert!(l0 > l1 && l1 > l2, "bandwidth ordering: {l0} {l1} {l2}");
    }
}
