//! The paper's benchmark (§3.1): "a regular ping-pong program where the
//! send (resp. recv) sequence is a series of non-blocking send (resp.
//! non-blocking recv) operations."
//!
//! A message of `total_size` bytes is built from `segments` equal segments
//! (multi-segment messages model non-contiguous data or bursts of
//! non-blocking sends). The pong side answers with an identical shape.
//! Both sides are [`Script`]s. The ping posts a receive, sends and drains,
//! once per round; the pong posts a receive, then per round drains it,
//! posts the next one and answers. So each ping is submitted at the
//! instant the previous pong is delivered, and round trip *i* is the
//! ping's delivery *i* minus its delivery *i − 1* (minus time zero for
//! the first). One-way time is `min(RTT) / 2` after warmup, matching the
//! usual methodology of the plots.

use bytes::Bytes;
use nmad_core::{EngineConfig, EngineStats, PerfTable};
use nmad_model::Platform;
use nmad_sim::{SimDuration, SimTime};

use crate::script::{Script, Step};
use crate::world::SimWorld;

/// Ping-pong specification.
#[derive(Clone)]
pub struct PingPongSpec {
    /// Node hardware (both ends identical, like the paper's testbed).
    pub platform: Platform,
    /// Engine configuration (strategy + thresholds).
    pub config: EngineConfig,
    /// Total message size in bytes (sum over segments).
    pub total_size: usize,
    /// Number of equal segments the message is built from.
    pub segments: usize,
    /// Iterations discarded before timing.
    pub warmup: usize,
    /// Timed iterations.
    pub iters: usize,
    /// Sampled per-rail tables to install before running (None keeps the
    /// engines' analytic seed tables).
    pub tables: Option<Vec<PerfTable>>,
}

impl PingPongSpec {
    /// A spec with the defaults used throughout the figure harness:
    /// 1 warmup + 3 timed iterations (the simulation is deterministic, so
    /// few iterations suffice; warmup flushes connection setup effects).
    pub fn new(platform: Platform, config: EngineConfig, total_size: usize) -> Self {
        PingPongSpec {
            platform,
            config,
            total_size,
            segments: 1,
            warmup: 1,
            iters: 3,
            tables: None,
        }
    }

    /// Set the segment count.
    pub fn with_segments(mut self, segments: usize) -> Self {
        self.segments = segments;
        self
    }

    /// Install sampled tables.
    pub fn with_tables(mut self, tables: Vec<PerfTable>) -> Self {
        self.tables = Some(tables);
        self
    }

    fn payloads(&self) -> Vec<Bytes> {
        assert!(self.segments >= 1, "need at least one segment");
        let base = self.total_size / self.segments;
        let rem = self.total_size % self.segments;
        (0..self.segments)
            .map(|i| {
                let len = base + usize::from(i < rem);
                Bytes::from(vec![(i & 0xFF) as u8; len])
            })
            .collect()
    }
}

/// Ping-pong outcome.
#[derive(Clone, Debug)]
pub struct PingPongResult {
    /// All round-trip times, including warmup iterations.
    pub rtts: Vec<SimDuration>,
    /// Minimum post-warmup round trip.
    pub min_rtt: SimDuration,
    /// `min_rtt / 2` — the "transfer time" of the paper's latency plots.
    pub one_way: SimDuration,
    /// `total_size / one_way` in decimal MB/s — the bandwidth plots.
    pub bandwidth_mbs: f64,
    /// Sender-side engine counters (strategy behaviour assertions).
    pub sender_stats: EngineStats,
    /// Total simulated events (diagnostics).
    pub events: u64,
}

/// Run one ping-pong experiment.
pub fn run_pingpong(spec: &PingPongSpec) -> PingPongResult {
    let payloads = spec.payloads();
    let rounds = spec.warmup + spec.iters;
    let ping = (0..rounds).flat_map(|_| [Step::Recv, Step::Send(payloads.clone()), Step::Drain]);
    let pong = (0..rounds).flat_map(|_| [Step::Drain, Step::Recv, Step::Send(payloads.clone())]);
    let pong = std::iter::once(Step::Recv).chain(pong);
    let (ping, pong) = (Script::new(ping.collect()), Script::new(pong.collect()));
    let mut world = SimWorld::new(&spec.platform, spec.config.clone(), ping, pong);
    if let Some(tables) = &spec.tables {
        world.set_tables(tables.clone());
    }
    // Generous cap: rendezvous traffic is a handful of events per chunk.
    world.run(20_000_000);

    let pongs = world.app0().deliveries();
    assert_eq!(
        pongs.len(),
        rounds,
        "ping-pong stalled: completed {} of {rounds} rounds at {}",
        pongs.len(),
        world.now()
    );
    assert!(
        pongs.iter().all(|&(n, _)| n == spec.total_size),
        "a pong is not {} bytes: {pongs:?}",
        spec.total_size
    );
    let starts = std::iter::once(SimTime::ZERO).chain(pongs.iter().map(|&(_, t)| t));
    let rtts: Vec<SimDuration> = pongs
        .iter()
        .zip(starts)
        .map(|(&(_, t), s)| t.since(s))
        .collect();
    let min_rtt = rtts[spec.warmup..]
        .iter()
        .copied()
        .min()
        .expect("at least one timed iteration");
    let one_way = min_rtt / 2;
    let bandwidth_mbs = spec.total_size as f64 / one_way.as_secs_f64() / 1e6;
    PingPongResult {
        rtts,
        min_rtt,
        one_way,
        bandwidth_mbs,
        sender_stats: world.node(0).engine.stats().clone(),
        events: world.events_processed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmad_core::StrategyKind;
    use nmad_model::platform;

    fn spec(kind: StrategyKind, size: usize, segs: usize) -> PingPongSpec {
        PingPongSpec::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(kind),
            size,
        )
        .with_segments(segs)
    }

    #[test]
    fn myri_latency_anchor() {
        let s = PingPongSpec::new(
            platform::single_rail_platform(platform::myri_10g()),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
            4,
        );
        let r = run_pingpong(&s);
        let us = r.one_way.as_us_f64();
        assert!((2.6..3.4).contains(&us), "Myri 4B one-way {us} us (~2.8)");
    }

    #[test]
    fn quadrics_latency_anchor() {
        let s = PingPongSpec::new(
            platform::single_rail_platform(platform::quadrics_qm500()),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
            4,
        );
        let r = run_pingpong(&s);
        let us = r.one_way.as_us_f64();
        assert!(
            (1.6..2.3).contains(&us),
            "Quadrics 4B one-way {us} us (~1.7)"
        );
    }

    #[test]
    fn bandwidth_anchors() {
        let r = run_pingpong(&spec(StrategyKind::SingleRail(0), 8 << 20, 1));
        assert!(
            (r.bandwidth_mbs - 1200.0).abs() < 40.0,
            "Myri 8MB {} MB/s",
            r.bandwidth_mbs
        );
        let r = run_pingpong(&spec(StrategyKind::SingleRail(1), 8 << 20, 1));
        assert!(
            (r.bandwidth_mbs - 850.0).abs() < 30.0,
            "Quadrics 8MB {} MB/s",
            r.bandwidth_mbs
        );
    }

    #[test]
    fn multi_segment_small_messages_cost_more_without_aggregation() {
        let plain2 = run_pingpong(&spec(StrategyKind::SingleRail(0), 1024, 2));
        let plain1 = run_pingpong(&spec(StrategyKind::SingleRail(0), 1024, 1));
        assert!(
            plain2.one_way > plain1.one_way,
            "2 segments must be slower than 1: {:?} vs {:?}",
            plain2.one_way,
            plain1.one_way
        );
        // Aggregation closes most of the gap (Fig 2a).
        let agg2 = run_pingpong(&spec(StrategyKind::SingleRailAggregating(0), 1024, 2));
        assert!(agg2.one_way < plain2.one_way);
        let gap_plain = plain2.one_way.as_us_f64() - plain1.one_way.as_us_f64();
        let gap_agg = agg2.one_way.as_us_f64() - plain1.one_way.as_us_f64();
        assert!(
            gap_agg < gap_plain / 2.0,
            "aggregation must close most of the multi-segment gap: {gap_agg} vs {gap_plain}"
        );
        assert!(agg2.sender_stats.aggregates_built > 0);
    }

    /// The exact round trips (picoseconds, warmup included) and event
    /// counts of one shape per path a ping-pong takes: PIO on one rail,
    /// PIO and DMA on two, aggregation, and a split over sampled tables.
    #[test]
    fn exact_round_trips_and_events() {
        let paper = platform::paper_platform();
        let myri = platform::single_rail_platform(platform::myri_10g());
        let on = |p: &Platform, kind, size, segs| {
            PingPongSpec::new(p.clone(), EngineConfig::with_strategy(kind), size)
                .with_segments(segs)
        };
        let split = on(&paper, StrategyKind::AdaptiveSplit, 1 << 20, 1)
            .with_tables(crate::sampling::sample_platform(&paper));
        let cases = [
            (on(&myri, StrategyKind::SingleRail(0), 4, 1), 5_970_000, 49),
            (on(&paper, StrategyKind::Greedy, 4 << 10, 2), 15_720_000, 89),
            (
                on(&paper, StrategyKind::Greedy, 64 << 10, 2),
                97_501_888,
                273,
            ),
            (
                on(&paper, StrategyKind::SingleRailAggregating(0), 1000, 4),
                9_217_500,
                49,
            ),
            (split, 1_125_041_942, 209),
        ];
        for (spec, rtt_ps, events) in cases {
            let r = run_pingpong(&spec);
            let shape = format!("{} B x {}", spec.total_size, spec.segments);
            assert_eq!(r.rtts, [SimDuration(rtt_ps); 4], "{shape}");
            assert_eq!(r.events, events, "{shape}");
        }
    }

    #[test]
    fn rtt_stable_across_iterations() {
        let r = run_pingpong(&spec(StrategyKind::Greedy, 4096, 1));
        // Deterministic sim: post-warmup iterations must be identical.
        let timed = &r.rtts[1..];
        assert!(timed.windows(2).all(|w| w[0] == w[1]), "rtts: {:?}", r.rtts);
    }

    #[test]
    fn payload_shapes() {
        let s = spec(StrategyKind::Greedy, 10, 4);
        let p = s.payloads();
        let lens: Vec<usize> = p.iter().map(Bytes::len).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
        assert_eq!(lens.iter().sum::<usize>(), 10);
    }
}
