//! Beyond the paper's ping-pong: bursty, mixed-size workloads.
//!
//! Section 2 motivates the NIC-driven engine with communication-bounded
//! phases: "the communication support accumulates packets while the NIC is
//! busy and once the NIC becomes idle, the optimizer processes the backlog
//! of accumulated packets". A ping-pong never builds a deep backlog; this
//! experiment does — a burst of messages with a realistic size mix is
//! submitted at once, and we measure the makespan (time until the last
//! message is delivered) per strategy.

use bytes::Bytes;
use nmad_core::{EngineConfig, EngineStats, StrategyKind};
use nmad_model::platform;
use nmad_runtime_sim::{Script, SimWorld, Step};
use nmad_sim::{SimDuration, Xoshiro256StarStar};
use serde::{ser, Serialize, Value};

/// Message-size pattern of a burst.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BurstPattern {
    /// Random mix controlled by `small_fraction`.
    Mixed,
    /// Strictly alternating large (2 MiB) / tiny (4 KiB).
    AlternatingLargeSmall,
    /// All messages 2 MiB — with an odd count and the slow rail listed
    /// first, a static rotation gives the slow rail the extra message
    /// while just-in-time scheduling hands it to whichever rail frees up
    /// first (the fast one).
    UniformLarge,
}

/// Burst workload description.
#[derive(Clone, Debug)]
pub struct BurstSpec {
    /// Number of messages in the burst.
    pub messages: usize,
    /// PRNG seed for the message sizes.
    pub seed: u64,
    /// Fraction of small (< 1 KiB) messages; the rest split between
    /// medium (4–32 KiB) and large (256 KiB – 2 MiB) at 2:1.
    pub small_fraction: f64,
    /// Size pattern.
    pub pattern: BurstPattern,
    /// List the slow (Quadrics) rail as rail 0 — the configuration where
    /// naive static rotations pay most.
    pub slow_rail_first: bool,
}

impl Default for BurstSpec {
    fn default() -> Self {
        BurstSpec {
            messages: 64,
            seed: 2007,
            small_fraction: 0.6,
            pattern: BurstPattern::Mixed,
            slow_rail_first: false,
        }
    }
}

impl BurstSpec {
    /// Generate the message sizes of this burst (deterministic per seed).
    pub fn sizes(&self) -> Vec<usize> {
        match self.pattern {
            BurstPattern::AlternatingLargeSmall => (0..self.messages)
                .map(|i| if i % 2 == 0 { 2 << 20 } else { 4 << 10 })
                .collect(),
            BurstPattern::UniformLarge => vec![2 << 20; self.messages],
            BurstPattern::Mixed => {
                let mut rng = Xoshiro256StarStar::new(self.seed);
                (0..self.messages)
                    .map(|_| {
                        let u = rng.next_f64();
                        if u < self.small_fraction {
                            rng.range_usize(16, 1024)
                        } else if u < self.small_fraction + (1.0 - self.small_fraction) * 2.0 / 3.0
                        {
                            rng.range_usize(4 << 10, 32 << 10)
                        } else {
                            rng.range_usize(256 << 10, 2 << 20)
                        }
                    })
                    .collect()
            }
        }
    }

    /// Total bytes in the burst.
    pub fn total_bytes(&self) -> usize {
        self.sizes().iter().sum()
    }
}

/// Result of one burst run.
#[derive(Clone, Debug)]
pub struct BurstResult {
    /// Strategy label.
    pub strategy: String,
    /// Time until the last message was delivered, µs.
    pub makespan_us: f64,
    /// Aggregate goodput over the makespan, MB/s.
    pub goodput_mbs: f64,
    /// Aggregate containers built (how much the strategy batched).
    pub aggregates: u64,
    /// Chunks emitted (how much it split).
    pub chunks: u64,
    /// Fraction of payload bytes on rail 0.
    pub rail0_share: f64,
}

impl Serialize for BurstResult {
    fn to_value(&self) -> Value {
        ser::object([
            ("strategy", ser::v(&self.strategy)),
            ("makespan_us", ser::v(&self.makespan_us)),
            ("goodput_mbs", ser::v(&self.goodput_mbs)),
            ("aggregates", ser::v(&self.aggregates)),
            ("chunks", ser::v(&self.chunks)),
            ("rail0_share", ser::v(&self.rail0_share)),
        ])
    }
}

/// Run the burst under one strategy; returns makespan and behaviour.
pub fn run_burst(spec: &BurstSpec, kind: StrategyKind) -> (BurstResult, EngineStats) {
    let sizes = spec.sizes();
    let total: usize = sizes.iter().sum();
    let plat = if spec.slow_rail_first {
        nmad_model::Platform::new(
            platform::opteron_node(),
            vec![platform::quadrics_qm500(), platform::myri_10g()],
        )
    } else {
        platform::paper_platform()
    };
    // All submitted at once. The sim reads no payload byte, so every
    // message is a slice of one buffer.
    let buf = Bytes::from(vec![0x5Au8; sizes.iter().copied().max().unwrap_or(0)]);
    let burst = sizes
        .iter()
        .map(|&size| Step::Send(vec![buf.slice(..size)]));
    let mut world = SimWorld::new(
        &plat,
        EngineConfig::with_strategy(kind),
        Script::new(burst.collect()),
        Script::receiver(sizes.len()),
    );
    world.run(50_000_000);
    assert_eq!(
        world.app1().deliveries().len(),
        sizes.len(),
        "{}: burst did not fully deliver",
        kind.label()
    );
    let makespan = world.app1().last_delivery_at();
    let stats = world.node(0).engine.stats().clone();
    let result = BurstResult {
        strategy: kind.label().to_string(),
        makespan_us: makespan.as_us_f64(),
        goodput_mbs: total as f64 / makespan.as_secs_f64() / 1e6,
        aggregates: stats.aggregates_built,
        chunks: stats.chunks_sent,
        rail0_share: stats.rail_share(0),
    };
    (result, stats)
}

/// Run the burst under every multi-rail-relevant strategy.
pub fn burst_comparison(spec: &BurstSpec) -> Vec<BurstResult> {
    [
        StrategyKind::SingleRail(0),
        StrategyKind::SingleRail(1),
        StrategyKind::StaticRoundRobin,
        StrategyKind::Greedy,
        StrategyKind::AggregateEager,
        StrategyKind::AdaptiveSplit,
    ]
    .into_iter()
    .map(|k| run_burst(spec, k).0)
    .collect()
}

/// Render the comparison as a text table.
pub fn render_burst_table(spec: &BurstSpec, rows: &[BurstResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "burst: {} messages, {:.2} MB total (seed {})",
        spec.messages,
        spec.total_bytes() as f64 / 1e6,
        spec.seed
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>12} {:>8} {:>8} {:>10}",
        "strategy", "makespan us", "goodput MB/s", "aggs", "chunks", "rail0 %"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<18} {:>12.1} {:>12.1} {:>8} {:>8} {:>10.1}",
            r.strategy,
            r.makespan_us,
            r.goodput_mbs,
            r.aggregates,
            r.chunks,
            100.0 * r.rail0_share
        );
    }
    out
}

/// The §2 "optimization window" experiment: an application interleaves
/// computation with small submits. While the CPU computes, the engine
/// cannot run — requests pile up in the backlog, and when the scheduler
/// finally runs, an aggregating strategy ships the whole window in one
/// packet. Returns `(makespan_us, physical_packets, aggregates)`.
pub fn run_compute_window(kind: StrategyKind, messages: usize, compute_us: u64) -> (f64, u64, u64) {
    let compute = SimDuration::from_us(compute_us);
    let steps = (0..messages).flat_map(|i| {
        let send = Step::Send(vec![Bytes::from(vec![i as u8; 64])]);
        [send, Step::Compute(compute)]
    });
    let mut world = SimWorld::new(
        &platform::paper_platform(),
        EngineConfig::with_strategy(kind),
        Script::new(steps.collect()),
        Script::receiver(messages),
    );
    world.run(10_000_000);
    assert_eq!(
        world.app1().deliveries().len(),
        messages,
        "window run did not deliver"
    );
    let s = world.node(0).engine.stats();
    (
        world.app1().last_delivery_at().as_us_f64(),
        s.total_packets(),
        s.aggregates_built,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_sizes_are_deterministic_and_mixed() {
        let spec = BurstSpec::default();
        let a = spec.sizes();
        let b = spec.sizes();
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.iter().any(|&s| s < 1024), "has smalls");
        assert!(a.iter().any(|&s| s > 256 << 10), "has larges");
    }

    #[test]
    fn compute_window_aggregates_and_saves_packets() {
        // With 3 us of computation between 8 tiny submits, the aggregating
        // strategy ships far fewer physical packets than one-per-message
        // and finishes sooner than the non-aggregating baseline.
        let (t_agg, pkts_agg, aggs) = run_compute_window(StrategyKind::AggregateEager, 8, 3);
        let (t_plain, pkts_plain, _) = run_compute_window(StrategyKind::Greedy, 8, 3);
        assert!(aggs >= 1, "window must aggregate");
        assert!(
            pkts_agg < pkts_plain,
            "aggregation must save packets: {pkts_agg} vs {pkts_plain}"
        );
        assert!(
            t_agg <= t_plain,
            "aggregated window must not be slower: {t_agg} vs {t_plain}"
        );
    }

    #[test]
    fn jit_scheduling_beats_static_round_robin() {
        // §3.5: "we take our scheduling decisions just-in-time". A static
        // round-robin binding ignores message sizes and rail idleness, so
        // on a mixed burst it parks large messages on the slow rail while
        // the fast one idles.
        let spec = BurstSpec {
            messages: 3,
            pattern: BurstPattern::UniformLarge,
            slow_rail_first: true,
            ..Default::default()
        };
        let (jit, jit_stats) = run_burst(&spec, StrategyKind::Greedy);
        let (stat, stat_stats) = run_burst(&spec, StrategyKind::StaticRoundRobin);
        // Mechanism: the rotation gives the slow rail (rail 0) two of the
        // three messages; greedy gives the extra one to the fast rail.
        assert!(
            stat_stats.rail_share(0) > 0.6,
            "rotation must overload the slow rail (got {})",
            stat_stats.rail_share(0)
        );
        assert!(
            jit_stats.rail_share(0) < 0.5,
            "greedy must favour the fast rail (got {})",
            jit_stats.rail_share(0)
        );
        // Cost: a clear makespan gap.
        assert!(
            jit.makespan_us < stat.makespan_us * 0.85,
            "JIT greedy ({}) must clearly beat static binding ({})",
            jit.makespan_us,
            stat.makespan_us
        );
    }

    #[test]
    fn multirail_strategies_beat_single_rail_on_bursts() {
        let spec = BurstSpec {
            messages: 24,
            ..Default::default()
        };
        let rows = burst_comparison(&spec);
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.strategy == label)
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        let single_best = get("single-rail").makespan_us; // rail 0 (Myri)
        let adaptive = get("adaptive-split").makespan_us;
        let greedy = get("greedy").makespan_us;
        assert!(
            adaptive < single_best,
            "adaptive ({adaptive}) must beat single rail ({single_best})"
        );
        assert!(
            greedy < single_best,
            "greedy ({greedy}) must beat single rail ({single_best})"
        );
        // The final strategy batches smalls AND splits larges.
        let a = get("adaptive-split");
        assert!(a.aggregates > 0, "burst must trigger aggregation");
        assert!(a.chunks > 0, "burst must trigger splitting");
        assert!(a.rail0_share > 0.2 && a.rail0_share < 0.9);
    }
}
