//! Unit tests of the presets, over one fixture: two rails, Myri (rail
//! 0, the bandwidth) and Quadrics (rail 1, the latency), unless a test
//! builds it over other NICs.

use super::*;
use crate::request::SegPhase;
use crate::sampling::default_ladder;
use nmad_model::platform;

fn key(msg: u64, seg: u16) -> SegKey {
    SegKey {
        conn: 0,
        msg_id: msg,
        seg_index: seg,
    }
}

struct Fixture {
    rails: Vec<NicModel>,
    tables: Vec<PerfTable>,
    latency: LatencyOrder,
    batch: KeyList,
    config: EngineConfig,
    backlog: Backlog,
    obs: FlightRecorder,
    view: Lanes,
    now_ns: u64,
}

/// The rails as the fixture sets them, one vector per question. A rail
/// a vector has no entry for is healthy, idle and unloaded.
struct Lanes {
    busy: Vec<bool>,
    ok: Vec<bool>,
    flight: Vec<RailFlight>,
}

impl RailView for Lanes {
    fn ok(&self, rail: RailId) -> bool {
        self.ok.get(rail.0).copied().unwrap_or(true)
    }

    fn busy(&self, rail: RailId) -> bool {
        self.busy.get(rail.0).copied().unwrap_or(false)
    }

    fn flight(&self, rail: RailId) -> RailFlight {
        self.flight.get(rail.0).copied().unwrap_or_default()
    }
}

impl Fixture {
    fn new() -> Self {
        Self::over(vec![platform::myri_10g(), platform::quadrics_qm500()])
    }

    fn over(rails: Vec<NicModel>) -> Self {
        let n = rails.len();
        let tables = rails
            .iter()
            .map(|nic| PerfTable::from_analytic(nic, &default_ladder()))
            .collect();
        Fixture {
            latency: LatencyOrder::new(&rails),
            rails,
            tables,
            batch: KeyList::new(),
            config: EngineConfig::default(),
            backlog: Backlog::new(),
            obs: FlightRecorder::disabled(),
            view: Lanes {
                busy: vec![false; n],
                ok: vec![true; n],
                flight: Vec::new(),
            },
            now_ns: 0,
        }
    }

    fn ctx(&mut self) -> StrategyCtx<'_> {
        StrategyCtx {
            backlog: &mut self.backlog,
            rails: &self.rails,
            view: &self.view,
            tables: &self.tables,
            latency: &self.latency,
            batch: &mut self.batch,
            config: &self.config,
            obs: &mut self.obs,
            now_ns: self.now_ns,
        }
    }

    /// Offer idle `rail` to `s`.
    fn ask(&mut self, s: &mut Strategy, rail: usize) -> Option<TxOp> {
        s.next_tx(RailId(rail), &mut self.ctx())
    }

    fn eager(&mut self, k: SegKey, size: u64) {
        self.backlog.push(k, 1, size, SegPhase::EagerReady);
    }

    fn granted(&mut self, k: SegKey, size: u64) {
        self.backlog.push(k, 1, size, SegPhase::RdvRequested);
        self.backlog.grant(k);
    }

    fn chunk_key(&mut self, s: &mut Strategy, rail: usize) -> SegKey {
        match self.ask(s, rail) {
            Some(TxOp::Chunk { key, .. }) => key,
            other => panic!("expected a chunk on rail {rail}, got {other:?}"),
        }
    }
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
fn nothing_schedulable_leaves_every_rail_idle() {
    for kind in StrategyKind::zoo() {
        let mut s = kind.build();
        let mut f = Fixture::new();
        for rail in 0..2 {
            assert_eq!(f.ask(&mut s, rail), None, "{}: empty backlog", kind.label());
        }
        // A segment still waiting for its rendezvous grant is not
        // schedulable either.
        f.backlog
            .push(key(1, 0), 1, 1 << 20, SegPhase::RdvRequested);
        for rail in 0..2 {
            assert_eq!(f.ask(&mut s, rail), None, "{}: ungranted", kind.label());
        }
    }
}

#[test]
fn lowest_latency_ties_break_by_load() {
    // A symmetric fabric: two identical NICs. An index-order tie-break
    // would put every aggregation batch on rail 0 forever; the load-aware
    // one steers to the less-loaded rail.
    let mut f = Fixture::over(vec![platform::quadrics_qm500(), platform::quadrics_qm500()]);
    f.view.flight = vec![
        RailFlight {
            inflight: 1,
            inflight_bytes: 4096,
            oldest_post_ns: 1,
            sent_bytes: 1 << 20,
            ewma_service_ns: 0,
        },
        RailFlight::default(),
    ];
    assert_eq!(f.latency.fastest(&f.view), RailId(1), "loaded rail 0 loses");
    // With no load information at all, index order remains the
    // deterministic last resort.
    f.view.flight.clear();
    assert_eq!(f.latency.fastest(&f.view), RailId(0));
    // A busy-but-otherwise-equal rail also loses the tie.
    f.view.busy[0] = true;
    assert_eq!(f.latency.fastest(&f.view), RailId(1));
}

mod single_rail {
    use super::*;

    #[test]
    fn ignores_other_rails() {
        let mut f = Fixture::new();
        f.eager(key(1, 0), 100);
        let mut s = StrategyKind::SingleRail(0).build();
        assert_eq!(f.ask(&mut s, 1), None);
        assert!(f.ask(&mut s, 0).is_some());
    }

    #[test]
    fn another_rail_serves_while_the_pinned_one_is_out() {
        let mut f = Fixture::new();
        f.eager(key(1, 0), 100);
        f.view.ok[0] = false;
        let mut s = StrategyKind::SingleRail(0).build();
        assert_eq!(f.ask(&mut s, 1), Some(TxOp::Eager(key(1, 0))));
    }

    #[test]
    fn without_aggregation_sends_one_segment_at_a_time() {
        let mut f = Fixture::new();
        f.eager(key(1, 0), 100);
        f.eager(key(1, 1), 100);
        let mut s = StrategyKind::SingleRail(0).build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::Eager(key(1, 0))));
    }

    #[test]
    fn aggregates_waiting_smalls() {
        let mut f = Fixture::new();
        f.eager(key(1, 0), 100);
        f.eager(key(1, 1), 100);
        let mut s = StrategyKind::SingleRailAggregating(0).build();
        assert_eq!(
            f.ask(&mut s, 0),
            Some(TxOp::Aggregate(vec![key(1, 0), key(1, 1)].into()))
        );
    }

    #[test]
    fn single_waiting_segment_not_wrapped_in_container() {
        let mut f = Fixture::new();
        f.eager(key(1, 0), 100);
        let mut s = StrategyKind::SingleRailAggregating(0).build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::Eager(key(1, 0))));
    }

    #[test]
    fn aggregation_respects_size_cap() {
        let mut f = Fixture::new();
        let cap = f.config.agg_max_bytes as u64;
        f.eager(key(1, 0), cap - 100);
        f.eager(key(2, 0), 500); // would exceed the cap
        let mut s = StrategyKind::SingleRailAggregating(0).build();
        // Only the first fits: a lone segment ships as plain eager.
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::Eager(key(1, 0))));
    }

    #[test]
    fn granted_segment_takes_priority() {
        let mut f = Fixture::new();
        f.granted(key(1, 0), 1 << 20);
        f.eager(key(2, 0), 100);
        let mut s = StrategyKind::SingleRailAggregating(0).build();
        assert_eq!(f.chunk_key(&mut s, 0), key(1, 0));
    }
}

mod greedy {
    use super::*;

    #[test]
    fn any_idle_rail_gets_first_segment() {
        let mut f = Fixture::new();
        f.eager(key(1, 0), 100);
        f.eager(key(1, 1), 100);
        let mut s = StrategyKind::Greedy.build();
        // Rail 1 asks first and gets the first segment; rail 0 the second.
        assert_eq!(f.ask(&mut s, 1), Some(TxOp::Eager(key(1, 0))));
        f.backlog.take_eager(key(1, 0)).unwrap();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::Eager(key(1, 1))));
    }

    #[test]
    fn submit_order_decides_between_eager_and_granted() {
        let mut f = Fixture::new();
        f.granted(key(1, 0), 1 << 20);
        f.eager(key(2, 0), 100);
        let mut s = StrategyKind::Greedy.build();
        assert_eq!(f.chunk_key(&mut s, 0), key(1, 0), "oldest (granted) first");
    }

    #[test]
    fn eager_submitted_first_wins() {
        let mut f = Fixture::new();
        f.eager(key(1, 0), 100);
        f.granted(key(2, 0), 1 << 20);
        let mut s = StrategyKind::Greedy.build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::Eager(key(1, 0))));
    }

    #[test]
    fn chunk_max_len_is_rail_mtu() {
        let mut f = Fixture::new();
        f.granted(key(1, 0), 1 << 20);
        let mtu = f.rails[1].mtu as u64;
        let mut s = StrategyKind::Greedy.build();
        match f.ask(&mut s, 1) {
            Some(TxOp::Chunk { max_len, .. }) => assert_eq!(max_len, mtu),
            other => panic!("expected chunk, got {other:?}"),
        }
    }
}

mod aggregate_eager {
    use super::*;

    #[test]
    fn smalls_reserved_for_lowest_latency_rail() {
        let mut f = Fixture::new();
        f.eager(key(1, 0), 100);
        f.eager(key(1, 1), 100);
        let mut s = StrategyKind::AggregateEager.build();
        // Myri (rail 0) defers while Quadrics (rail 1) is idle...
        assert_eq!(f.ask(&mut s, 0), None);
        // ...and Quadrics aggregates both.
        assert_eq!(
            f.ask(&mut s, 1),
            Some(TxOp::Aggregate(vec![key(1, 0), key(1, 1)].into()))
        );
    }

    #[test]
    fn fallback_to_other_rail_when_fast_is_busy() {
        let mut f = Fixture::new();
        f.eager(key(1, 0), 100);
        f.view.busy[1] = true;
        let mut s = StrategyKind::AggregateEager.build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::Eager(key(1, 0))));
    }

    #[test]
    fn large_segments_balanced_greedily() {
        let mut f = Fixture::new();
        f.granted(key(1, 0), 1 << 20);
        f.granted(key(1, 1), 1 << 20);
        let mut s = StrategyKind::AggregateEager.build();
        assert_eq!(f.chunk_key(&mut s, 0), key(1, 0));
        f.backlog.take_chunk(key(1, 0), u64::MAX).unwrap();
        assert_eq!(f.chunk_key(&mut s, 1), key(1, 1));
    }

    #[test]
    fn large_takes_priority_over_small_on_any_rail() {
        let mut f = Fixture::new();
        f.granted(key(1, 0), 1 << 20);
        f.eager(key(2, 0), 100);
        let mut s = StrategyKind::AggregateEager.build();
        assert_eq!(f.chunk_key(&mut s, 0), key(1, 0));
    }

    #[test]
    fn quadrics_takes_single_small_directly() {
        let mut f = Fixture::new();
        f.eager(key(1, 0), 100);
        let mut s = StrategyKind::AggregateEager.build();
        assert_eq!(f.ask(&mut s, 1), Some(TxOp::Eager(key(1, 0))));
    }

    #[test]
    fn medium_segments_balanced_not_aggregated() {
        let mut f = Fixture::new();
        let medium = f.config.min_chunk as u64; // 8 KiB: DMA-eager regime
        f.eager(key(1, 0), medium);
        f.eager(key(1, 1), medium);
        let mut s = StrategyKind::AggregateEager.build();
        // Myri (rail 0) takes the first medium segment instead of
        // deferring to the latency rail.
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::Eager(key(1, 0))));
        f.backlog.take_eager(key(1, 0)).unwrap();
        assert_eq!(f.ask(&mut s, 1), Some(TxOp::Eager(key(1, 1))));
    }

    #[test]
    fn mixed_smalls_aggregate_without_the_medium() {
        let mut f = Fixture::new();
        f.eager(key(1, 0), 64);
        f.eager(key(2, 0), f.config.min_chunk as u64);
        f.eager(key(3, 0), 64);
        f.view.busy[0] = true;
        let mut s = StrategyKind::AggregateEager.build();
        // Only Quadrics is idle: it serves the medium first...
        assert_eq!(f.ask(&mut s, 1), Some(TxOp::Eager(key(2, 0))));
        f.backlog.take_eager(key(2, 0)).unwrap();
        // ...then the two smalls together.
        assert_eq!(
            f.ask(&mut s, 1),
            Some(TxOp::Aggregate(vec![key(1, 0), key(3, 0)].into()))
        );
    }
}

mod split {
    use super::*;

    #[test]
    fn splits_when_both_rails_idle() {
        let mut f = Fixture::new();
        f.granted(key(1, 0), 8 << 20);
        let mut s = StrategyKind::AdaptiveSplit.build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::PlannedChunk));
        let tc0 = f.backlog.take_planned(0).unwrap();
        let tc1 = f.backlog.take_planned(1).unwrap();
        assert_eq!((tc0.key, tc1.key), (key(1, 0), key(1, 0)));
        let (len0, len1) = (tc0.len, tc1.len);
        assert_eq!(len0 + len1, 8 << 20);
        // Myri carries the major part.
        let frac = len0 as f64 / (8u64 << 20) as f64;
        assert!((0.52..0.68).contains(&frac), "myri fraction {frac}");
    }

    #[test]
    fn iso_mode_splits_evenly() {
        let mut f = Fixture::new();
        f.granted(key(1, 0), 8 << 20);
        let mut s = StrategyKind::IsoSplit.build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::PlannedChunk));
        let len0 = f.backlog.take_planned(0).unwrap().len;
        let len1 = f.backlog.take_planned(1).unwrap().len;
        assert!(len0.abs_diff(len1) <= 1, "iso halves: {len0} vs {len1}");
    }

    #[test]
    fn first_share_goes_to_the_first_idle_rail() {
        let mut f = Fixture::new();
        f.granted(key(1, 0), 8 << 20);
        let mut s = StrategyKind::FixedSplit(250).build();
        assert_eq!(f.ask(&mut s, 1), Some(TxOp::PlannedChunk));
        let len0 = f.backlog.take_planned(0).unwrap().len;
        assert!(len0.abs_diff(2 << 20) <= 1, "a quarter on rail 0: {len0}");
    }

    #[test]
    fn bounded_chunk_when_other_rail_busy() {
        let mut f = Fixture::new();
        f.granted(key(1, 0), 8 << 20);
        f.view.busy[1] = true;
        let mut s = StrategyKind::AdaptiveSplit.build();
        // A quarter of the remainder: the rail frees soon so a later
        // decision can split the rest across idle rails.
        assert_eq!(
            f.ask(&mut s, 0),
            Some(TxOp::Chunk {
                key: key(1, 0),
                max_len: (8 << 20) / 4
            })
        );
    }

    #[test]
    fn small_remainder_not_split() {
        let mut f = Fixture::new();
        // Below 2 * min_chunk: splitting would create PIO-sized fragments.
        f.granted(key(1, 0), (2 * f.config.min_chunk - 1) as u64);
        let mut s = StrategyKind::AdaptiveSplit.build();
        assert_eq!(f.chunk_key(&mut s, 0), key(1, 0));
    }

    #[test]
    fn second_rail_picks_up_its_planned_chunk() {
        let mut f = Fixture::new();
        f.granted(key(1, 0), 8 << 20);
        let mut s = StrategyKind::AdaptiveSplit.build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::PlannedChunk));
        f.backlog.take_planned(0).unwrap();
        assert_eq!(f.ask(&mut s, 1), Some(TxOp::PlannedChunk));
    }

    #[test]
    fn smalls_still_aggregate_on_fast_rail() {
        let mut f = Fixture::new();
        f.eager(key(1, 0), 64);
        f.eager(key(1, 1), 64);
        let mut s = StrategyKind::AdaptiveSplit.build();
        assert_eq!(f.ask(&mut s, 0), None);
        assert_eq!(
            f.ask(&mut s, 1),
            Some(TxOp::Aggregate(vec![key(1, 0), key(1, 1)].into()))
        );
    }

    #[test]
    fn three_rails_split_three_ways() {
        let mut f = Fixture::over(vec![
            platform::myri_10g(),
            platform::quadrics_qm500(),
            platform::sci_dolphin(),
        ]);
        f.granted(key(1, 0), 8 << 20);
        let mut s = StrategyKind::AdaptiveSplit.build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::PlannedChunk));
        let l: Vec<u64> = (0..3)
            .map(|r| f.backlog.take_planned(r).unwrap().len)
            .collect();
        assert_eq!(l.iter().sum::<u64>(), 8 << 20);
        assert!(l[0] > l[1] && l[1] > l[2], "bandwidth ordering: {l:?}");
    }
}

mod idle_harvest {
    use super::*;

    #[test]
    fn below_watermark_primary_placement_respected() {
        let mut f = Fixture::new();
        // A handful of smalls, reserved for the low-latency rail: far
        // below the watermark, so rail 0 must not steal them.
        for m in 0..4 {
            f.eager(key(m, 0), 64);
        }
        let mut s = StrategyKind::IdleHarvest.build();
        assert_eq!(f.ask(&mut s, 0), None);
        assert!(matches!(f.ask(&mut s, 1), Some(TxOp::Aggregate(_))));
    }

    #[test]
    fn above_watermark_idle_rail_steals_smalls() {
        let mut f = Fixture::new();
        // A flood of 4 KiB smalls, well above the 64 KiB watermark: idle
        // rail 0 harvests a batch.
        for m in 0..64 {
            f.eager(key(m, 0), 4096);
        }
        let mut s = StrategyKind::IdleHarvest.build();
        match f.ask(&mut s, 0) {
            Some(TxOp::Aggregate(keys)) => assert!(!keys.is_empty()),
            other => panic!("expected harvested batch, got {other:?}"),
        }
    }

    #[test]
    fn passes_primary_decisions_through() {
        let mut f = Fixture::new();
        f.granted(key(0, 0), 8 << 20);
        let mut s = StrategyKind::IdleHarvest.build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::PlannedChunk));
        assert!(f.backlog.take_planned(0).is_some());
        assert!(f.backlog.take_planned(1).is_some());
    }
}

mod srpt {
    use super::*;

    #[test]
    fn shortest_remaining_work_served_first() {
        let mut f = Fixture::new();
        // Large submitted first, small second: SRPT picks the small.
        f.granted(key(0, 0), 1 << 20);
        f.eager(key(1, 0), 16 * 1024);
        f.view.busy[1] = true;
        let mut s = StrategyKind::Srpt.build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::Eager(key(1, 0))));
    }

    #[test]
    fn smalls_batch_in_one_container() {
        let mut f = Fixture::new();
        f.eager(key(0, 0), 64);
        f.eager(key(1, 0), 64);
        f.view.busy[1] = true;
        let mut s = StrategyKind::Srpt.build();
        assert_eq!(
            f.ask(&mut s, 0),
            Some(TxOp::Aggregate(vec![key(0, 0), key(1, 0)].into()))
        );
    }

    #[test]
    fn splits_across_idle_rails() {
        let mut f = Fixture::new();
        f.granted(key(0, 0), 8 << 20);
        let mut s = StrategyKind::Srpt.build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::PlannedChunk));
        let l0 = f.backlog.take_planned(0).unwrap().len;
        let l1 = f.backlog.take_planned(1).unwrap().len;
        assert_eq!(l0 + l1, 8 << 20);
    }

    /// A plan made while both rails were idle, rail 0's chunk taken;
    /// rail 1 then busy with one 4 MiB frame posted at `posted_ns`.
    fn planned_then_rail1_busy(posted_ns: u64, now_ns: u64, ewma: u64) -> (Fixture, Strategy) {
        let mut f = Fixture::new();
        f.granted(key(0, 0), 8 << 20);
        let mut s = StrategyKind::Srpt.build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::PlannedChunk));
        f.backlog.take_planned(0).unwrap();
        f.now_ns = now_ns;
        f.view.busy[1] = true;
        f.view.flight = vec![
            RailFlight::default(),
            RailFlight {
                inflight: 1,
                inflight_bytes: 4 << 20,
                oldest_post_ns: posted_ns,
                sent_bytes: 4 << 20,
                ewma_service_ns: ewma,
            },
        ];
        (f, s)
    }

    #[test]
    fn straggler_plan_restriped_to_survivor() {
        // Rail 1's frame has aged far beyond any predicted completion
        // while its earmarked chunk is untaken: the chunk moves to rail 0.
        let (mut f, mut s) = planned_then_rail1_busy(1, 1_000_000_000, 1_000);
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::PlannedChunk));
        let tc = f.backlog.take_planned(0).expect("chunk moved to rail 0");
        assert_eq!(tc.key, key(0, 0));
        assert!(f.backlog.take_planned(1).is_none(), "rail 1 lost its chunk");
    }

    #[test]
    fn no_restripe_before_threshold() {
        // Rail 1 is busy but young: well inside its predicted completion,
        // so it keeps its chunk and rail 0 has nothing to do.
        let (mut f, mut s) = planned_then_rail1_busy(9_000, 10_000, 1_000_000);
        assert_eq!(f.ask(&mut s, 0), None);
        assert!(
            f.backlog.take_planned(1).is_some(),
            "rail 1 keeps its chunk"
        );
    }
}

mod static_round_robin {
    use super::*;

    #[test]
    fn alternates_rails_in_submit_order() {
        let mut f = Fixture::new();
        for m in 0..4 {
            f.eager(key(m, 0), 64);
        }
        let mut s = StrategyKind::StaticRoundRobin.build();
        // Messages 0 and 2 are bound to rail 0; 1 and 3 to rail 1.
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::Eager(key(0, 0))));
        f.backlog.take_eager(key(0, 0)).unwrap();
        assert_eq!(f.ask(&mut s, 1), Some(TxOp::Eager(key(1, 0))));
        f.backlog.take_eager(key(1, 0)).unwrap();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::Eager(key(2, 0))));
    }

    #[test]
    fn ignores_idleness_of_other_rail() {
        let mut f = Fixture::new();
        f.eager(key(0, 0), 64);
        let mut s = StrategyKind::StaticRoundRobin.build();
        // Message 0 is bound to rail 0. Rail 1 refuses it even though it
        // is idle — the whole point of the anti-pattern.
        assert_eq!(f.ask(&mut s, 1), None);
        assert!(f.ask(&mut s, 0).is_some());
    }

    #[test]
    fn fresh_bindings_skip_down_rails() {
        let mut f = Fixture::new();
        for m in 0..4 {
            f.eager(key(m, 0), 64);
        }
        // Rail 0 is in outage: every fresh segment binds to rail 1.
        f.view.ok[0] = false;
        let mut s = StrategyKind::StaticRoundRobin.build();
        assert_eq!(f.ask(&mut s, 0), None);
        for m in 0..4 {
            assert_eq!(f.ask(&mut s, 1), Some(TxOp::Eager(key(m, 0))), "msg {m}");
            f.backlog.take_eager(key(m, 0)).unwrap();
        }
    }

    #[test]
    fn all_rails_down_still_binds() {
        // With no healthy rail the rotation must not spin forever: it
        // falls back to plain round-robin binding. (The engine never
        // offers a Down rail, but the strategy itself stays total.)
        let mut f = Fixture::new();
        f.eager(key(0, 0), 64);
        f.view.ok = vec![false, false];
        let mut s = StrategyKind::StaticRoundRobin.build();
        assert_eq!(f.ask(&mut s, 0), Some(TxOp::Eager(key(0, 0))));
    }

    #[test]
    fn granted_segments_follow_their_binding() {
        let mut f = Fixture::new();
        f.granted(key(0, 0), 1 << 20);
        let mut s = StrategyKind::StaticRoundRobin.build();
        assert_eq!(f.chunk_key(&mut s, 0), key(0, 0));
    }
}

/// The engine answers a backlog whose only schedulable work is one eager
/// segment without building a context ([`Strategy::lone_eager`]); these
/// hold that answer to the pipeline's, and the latency order that both
/// ask for the fastest rail to the scan over every rail it replaced.
mod lone_eager {
    use super::*;
    use proptest::prelude::{any, prop, prop_assert_eq, proptest, ProptestConfig};
    use proptest::strategy::Strategy as Gen;

    /// Two or three rails: identical ones (every latency tied) or the
    /// paper's pair, with a third of its own latency.
    fn rails(count: usize, tied: bool) -> Vec<NicModel> {
        let distinct = [
            platform::myri_10g(),
            platform::quadrics_qm500(),
            platform::gige(),
        ];
        let nic = |i: usize| match tied {
            true => platform::quadrics_qm500(),
            false => distinct[i].clone(),
        };
        (0..count).map(nic).collect()
    }

    /// Sizes on both sides of `min_chunk` (8 KiB by default) and of the
    /// harvest watermark (64 KiB).
    fn size() -> impl Gen<Value = u64> {
        (0u8..5, 0u64..4096).prop_map(|(class, jitter)| match class {
            0 => jitter / 16,
            1 => 8 * 1024 - 2048 + jitter,
            2 => 16 * 1024 + jitter,
            3 => 64 * 1024 - 2048 + jitter,
            _ => 96 * 1024 + jitter,
        })
    }

    fn flight() -> impl Gen<Value = RailFlight> {
        (0u32..2, 0u64..3, 0u64..3).prop_map(|(inflight, bytes, sent)| RailFlight {
            inflight,
            // Few values, so that loads tie too.
            inflight_bytes: bytes * 4096,
            oldest_post_ns: 0,
            sent_bytes: sent << 20,
            ewma_service_ns: 0,
        })
    }

    /// The scan [`LatencyOrder`] replaced: the healthy rail of least
    /// (latency, busy, in-flight bytes, sent bytes), all rails when none
    /// is healthy, the lowest id among equals.
    fn scan(rails: &Lanes, latency: &[SimDuration]) -> RailId {
        let key = |i: usize| {
            let f = rails.flight(RailId(i));
            let busy = rails.busy(RailId(i));
            (latency[i], busy, f.inflight_bytes, f.sent_bytes)
        };
        let all = 0..latency.len();
        let best = all
            .clone()
            .filter(|&i| rails.ok(RailId(i)))
            .min_by_key(|&i| key(i));
        RailId(best.or_else(|| all.min_by_key(|&i| key(i))).expect("rails"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Every preset, one eager segment across the size thresholds
        /// (`min_chunk` at its default and above the watermark, so that
        /// the harvest hook takes part), unschedulable rendezvous
        /// segments around it, rails busy and out of service, latencies
        /// tied and distinct, loads tied and not: the answer without a
        /// context is the pipeline's. The binding, which must see every
        /// segment, has no answer of its own.
        #[test]
        fn answers_as_the_pipeline_does(
            count in 2usize..4,
            tied in any::<bool>(),
            size in size(),
            waiting in (0usize..3, 0usize..3),
            big_min_chunk in any::<bool>(),
            busy in prop::collection::vec(any::<bool>(), 3),
            ok in prop::collection::vec(any::<bool>(), 3),
            flights in prop::collection::vec(flight(), 3),
            asked in 0usize..3,
        ) {
            let rail = asked % count;
            let mut f = Fixture::over(rails(count, tied));
            f.config.min_chunk = if big_min_chunk { 128 * 1024 } else { f.config.min_chunk };
            f.view.busy = busy[..count].to_vec();
            f.view.ok = ok[..count].to_vec();
            // The engine asks only an idle rail that may carry data.
            (f.view.busy[rail], f.view.ok[rail]) = (false, true);
            f.view.flight = flights[..count].to_vec();
            let lone = key(10, 0);
            for msg in 0..waiting.0 {
                f.backlog.push(key(msg as u64, 0), 1, 1 << 20, SegPhase::RdvRequested);
            }
            f.eager(lone, size);
            for msg in 0..waiting.1 {
                f.backlog.push(key(20 + msg as u64, 0), 1, 1 << 20, SegPhase::RdvRequested);
            }
            prop_assert_eq!(f.backlog.lone_eager(), Some((lone, size)));
            for kind in StrategyKind::zoo() {
                let fast = {
                    kind.build().lone_eager(RailId(rail), (lone, size), &f.view, &f.latency, &f.config)
                };
                let full = f.ask(&mut kind.build(), rail);
                match kind {
                    StrategyKind::StaticRoundRobin => prop_assert_eq!(fast, None),
                    _ => prop_assert_eq!(fast, Some(full), "{}", kind.label()),
                }
            }
        }

        /// The fastest rail out of the latency order is the one the scan
        /// over every rail finds, healthy or not, tied or not.
        #[test]
        fn the_latency_order_finds_what_the_scan_found(
            count in 1usize..4,
            tied in any::<bool>(),
            busy in prop::collection::vec(any::<bool>(), 3),
            ok in prop::collection::vec(any::<bool>(), 3),
            flights in prop::collection::vec(flight(), 3),
        ) {
            let nics = match count {
                1 => vec![platform::gige()],
                _ => rails(count, tied),
            };
            let latency: Vec<SimDuration> = nics.iter().map(|n| n.analytic_pio_oneway(0)).collect();
            let mut f = Fixture::over(nics);
            f.view.busy = busy[..count].to_vec();
            f.view.ok = ok[..count].to_vec();
            f.view.flight = flights[..count].to_vec();
            prop_assert_eq!(f.latency.fastest(&f.view), scan(&f.view, &latency));
        }
    }
}
