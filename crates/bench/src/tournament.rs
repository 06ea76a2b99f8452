//! Strategy-zoo tournament: every [`StrategyKind`] against every traffic
//! scenario (`ablate_strategies`, `BENCH_strategies.json`).
//!
//! Three presets claim a regime; the tournament is the instrument that
//! checks the claims instead of taking them on faith:
//!
//! * **srpt** — shortest-remaining-work with straggler re-striping must
//!   match greedy on heavy-tailed backlogs (the regime where serving the
//!   short messages first pays and a parked chunk hurts most);
//! * **idle-harvest** — on an asymmetric small-message flood, the rail
//!   the primary placement leaves idle must be put to work, measurably
//!   shortening the makespan;
//! * **adaptive-split** — under mixed load, aggregating smalls onto the
//!   low-latency rail must cut the small-message p99 versus FIFO greedy,
//!   which lets them queue behind bulk.
//!
//! Six deterministic scenarios run on the discrete-event [`SimWorld`]
//! (virtual time, replayable from the seed): a uniform bulk burst, a
//! bounded-Pareto heavy-tail burst, MMPP bursty waves, mid-run bandwidth
//! drift, a hard rail outage under acked delivery, and the asymmetric
//! small-message flood. Every cell must deliver every message; the
//! claim gates above are checked by [`check`], and the winner table is
//! what EXPERIMENTS.md publishes.

use std::time::Duration;

use bytes::Bytes;
use nmad_core::obs::EventKind;
use nmad_core::{Effect, EngineConfig, Fault, FaultPlan, StrategyKind};
use nmad_model::platform;
use nmad_runtime_sim::{Script, SimWorld, Step};
use nmad_sim::{SimDuration, SimTime, Xoshiro256StarStar};
use serde::{ser, Serialize, Value};

use crate::loadgen::{ArrivalSampler, Arrivals, BoundedPareto};

/// Interval between the engine progress passes of a scenario with faults.
pub const FAULT_TICK: SimDuration = SimDuration::from_us(50);

/// `effect` on `rail` over `[from_us, until_us)`, a scenario's one
/// fault window.
fn window(rail: usize, from_us: u64, until_us: u64, effect: Effect) -> FaultPlan {
    let span = Duration::from_micros(from_us)..Duration::from_micros(until_us);
    FaultPlan::new(0, vec![Fault::during(rail, span, effect)])
}

/// Messages at or below this are "small" for the latency metric — the
/// PIO-class traffic aggregation favours onto the low-latency rail.
pub const SMALL_CUTOFF: usize = 4096;

/// The sender's script for a list of waves, each `(gap_us, sizes)`:
/// once the previous wave fully completes, `gap_us` of compute (think
/// time), then `sizes` submitted back to back. The payloads are slices
/// of one buffer.
fn waves(waves: Vec<(u64, Vec<usize>)>) -> Vec<Step> {
    let largest = waves.iter().flat_map(|(_, s)| s).copied().max();
    let buf = Bytes::from(vec![0x5Au8; largest.unwrap_or(0)]);
    let mut steps = Vec::new();
    for (gap_us, sizes) in waves {
        steps.push(Step::Drain);
        if gap_us > 0 {
            steps.push(Step::Compute(SimDuration::from_us(gap_us)));
        }
        steps.extend(sizes.iter().map(|&n| Step::Send(vec![buf.slice(..n)])));
    }
    steps
}

/// One tournament scenario: a deterministic submission schedule plus the
/// fabric conditions it runs under.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario label ("uniform", "heavy-tail", ...).
    pub name: &'static str,
    /// The sender's submission schedule: per wave a drain, the think
    /// time, the sends.
    pub steps: Vec<Step>,
    /// Optional link faults (an outage, a bandwidth drift) and the
    /// instant the engine's progress ticks, every [`FAULT_TICK`], stop.
    pub fault: Option<(FaultPlan, SimTime)>,
    /// Run with end-to-end acks and fast-failure health timers (the
    /// outage scenario needs both to recover).
    pub acked: bool,
}

impl Scenario {
    /// Message sizes in submission order, bytes.
    pub fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.steps.iter().filter_map(|s| match s {
            Step::Send(segments) => Some(segments.iter().map(Bytes::len).sum()),
            _ => None,
        })
    }

    /// Total messages across all waves.
    pub fn messages(&self) -> usize {
        self.sizes().count()
    }

    /// Total payload bytes across all waves.
    pub fn total_bytes(&self) -> u64 {
        self.sizes().map(|s| s as u64).sum()
    }
}

/// The six scenarios, deterministic in `seed`. `smoke` scales message
/// counts down for CI; the claim gates hold at both scales.
pub fn scenarios(seed: u64, smoke: bool) -> Vec<Scenario> {
    let n = |full: usize, smoke_n: usize| if smoke { smoke_n } else { full };
    let burst = |sizes: Vec<usize>| waves(vec![(0, sizes)]);

    // Uniform bulk: every message identical, no regime to exploit — the
    // sanity baseline where nothing should catastrophically lose.
    let uniform = Scenario {
        name: "uniform",
        steps: burst(vec![512 << 10; n(24, 12)]),
        fault: None,
        acked: false,
    };

    // Bounded-Pareto heavy tail: many smalls, a few multi-MiB elephants
    // in one burst — SRPT's regime, and mixed load for the small-p99
    // claim. A Pareto draw this short can miss the tail entirely, so the
    // elephants are pinned: the tail is the scenario.
    let mut rng = Xoshiro256StarStar::new(seed ^ 0x7A11);
    let pareto = BoundedPareto::new(64, 256 << 10, 1.1);
    let mut heavy_sizes: Vec<usize> = (0..n(36, 24))
        .map(|_| pareto.sample(&mut rng) as usize)
        .collect();
    // Interleave them from the front so smalls contend with elephants
    // in flight — appended at the end they'd finish before any queueing
    // and the small-p99/SRPT claims would measure nothing.
    let elephants = [2 << 20, 1 << 20, (3 << 20) / 2, 2 << 20];
    for (i, e) in elephants.iter().enumerate() {
        let at = (i * heavy_sizes.len() / elephants.len()).min(heavy_sizes.len());
        heavy_sizes.insert(at, *e);
    }
    let heavy = Scenario {
        name: "heavy-tail",
        steps: burst(heavy_sizes),
        fault: None,
        acked: false,
    };

    // MMPP bursty: quiet trickles and dense waves, sizes moderately
    // tailed. Wave boundaries come from the MMPP gap process: a gap
    // long enough to drain the pipeline starts a new wave.
    let mut rng = Xoshiro256StarStar::new(seed ^ 0xB02);
    let sizes = BoundedPareto::new(256, 256 << 10, 1.3);
    let mut sampler = ArrivalSampler::new(
        Arrivals::Mmpp2 {
            quiet_hz: 900.0,
            burst_hz: 40_000.0,
            // Short sojourns: at 40 kHz a 2 ms burst would swallow the
            // whole smoke-sized draw in one wave.
            mean_sojourn_s: 0.0003,
        },
        &mut rng,
    );
    let mut bursts: Vec<(u64, Vec<usize>)> = vec![(0, Vec::new())];
    for _ in 0..n(36, 24) {
        let gap_us = sampler.next_gap(&mut rng).as_micros() as u64;
        if gap_us > 200 && !bursts.last().unwrap().1.is_empty() {
            bursts.push((gap_us, Vec::new()));
        }
        let s = sizes.sample(&mut rng) as usize;
        bursts.last_mut().unwrap().1.push(s);
    }
    let bursty = Scenario {
        name: "bursty",
        steps: waves(bursts),
        fault: None,
        acked: false,
    };

    // Bandwidth drift: rail 0 (Myri, the bandwidth rail) loses half its
    // link rate shortly into a bulk pipeline and never recovers within
    // the run — the split ratios a strategy assumed go stale.
    let drift = Scenario {
        name: "drift",
        steps: burst(vec![1 << 20; n(16, 10)]),
        fault: Some((
            window(0, 500, 1_000_000, Effect::Bandwidth(0.45)),
            SimTime::from_us(60_000),
        )),
        acked: false,
    };

    // Hard outage: rail 0 silently eats every packet for most of the
    // run; acked delivery plus fast health timers must fail the traffic
    // over and still deliver everything.
    let outage = Scenario {
        name: "outage",
        steps: burst(vec![1 << 20; n(10, 6)]),
        fault: Some((
            window(0, 100, 15_000, Effect::Loss(1.0)),
            SimTime::from_us(120_000),
        )),
        acked: true,
    };

    // Asymmetric small flood: nothing but sub-chunk smalls. Primary
    // placement parks them all on the latency rail; the bandwidth rail
    // idles unless a strategy harvests it.
    let asym = Scenario {
        name: "asym-smalls",
        steps: burst(vec![4 << 10; n(64, 40)]),
        fault: None,
        acked: false,
    };

    vec![uniform, heavy, bursty, drift, outage, asym]
}

/// One (scenario, strategy) cell of the tournament grid.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Scenario label.
    pub scenario: String,
    /// Strategy label.
    pub strategy: String,
    /// Messages delivered (gate: every message).
    pub delivered: usize,
    /// Messages expected.
    pub expected: usize,
    /// Time until the last delivery, µs of virtual time.
    pub makespan_us: f64,
    /// p99 delivery time of small (≤ [`SMALL_CUTOFF`]) messages, µs;
    /// 0 when the scenario has no smalls.
    pub small_p99_us: f64,
    /// Aggregate containers built.
    pub aggregates: u64,
    /// Chunks emitted.
    pub chunks: u64,
    /// Retransmissions (outage scenario recovery traffic).
    pub retransmits: u64,
    /// Straggler re-striping decisions (SRPT only).
    pub restripes: u64,
    /// Fraction of payload bytes on rail 0.
    pub rail0_share: f64,
}

impl Serialize for Cell {
    fn to_value(&self) -> Value {
        ser::object([
            ("scenario", ser::v(&self.scenario)),
            ("strategy", ser::v(&self.strategy)),
            ("delivered", ser::v(&self.delivered)),
            ("expected", ser::v(&self.expected)),
            ("makespan_us", ser::v(&self.makespan_us)),
            ("small_p99_us", ser::v(&self.small_p99_us)),
            ("aggregates", ser::v(&self.aggregates)),
            ("chunks", ser::v(&self.chunks)),
            ("retransmits", ser::v(&self.retransmits)),
            ("restripes", ser::v(&self.restripes)),
            ("rail0_share", ser::v(&self.rail0_share)),
        ])
    }
}

/// Winner-table row: the fastest strategy of one scenario.
#[derive(Clone, Debug)]
pub struct Winner {
    /// Scenario label.
    pub scenario: String,
    /// Strategy with the shortest makespan.
    pub strategy: String,
    /// Winning makespan, µs.
    pub makespan_us: f64,
    /// Second-best strategy.
    pub runner_up: String,
    /// Winner's margin over the runner-up, percent.
    pub margin_pct: f64,
}

impl Serialize for Winner {
    fn to_value(&self) -> Value {
        ser::object([
            ("scenario", ser::v(&self.scenario)),
            ("strategy", ser::v(&self.strategy)),
            ("makespan_us", ser::v(&self.makespan_us)),
            ("runner_up", ser::v(&self.runner_up)),
            ("margin_pct", ser::v(&self.margin_pct)),
        ])
    }
}

/// The tournament result — what `BENCH_strategies.json` records.
#[derive(Clone, Debug)]
pub struct TournamentReport {
    /// Seed that replays every schedule.
    pub seed: u64,
    /// Whether the CI-scaled message counts were used.
    pub smoke: bool,
    /// Strategies entered, in grid order.
    pub strategies: Vec<String>,
    /// Scenario labels, in grid order.
    pub scenarios: Vec<String>,
    /// The full grid, scenario-major.
    pub cells: Vec<Cell>,
    /// Fastest strategy per scenario.
    pub winners: Vec<Winner>,
}

impl Serialize for TournamentReport {
    fn to_value(&self) -> Value {
        ser::object([
            ("seed", ser::v(&self.seed)),
            ("smoke", ser::v(&self.smoke)),
            ("strategies", ser::v(&self.strategies)),
            ("scenarios", ser::v(&self.scenarios)),
            ("cells", ser::v(&self.cells)),
            ("winners", ser::v(&self.winners)),
        ])
    }
}

/// Percentile of an unsorted µs vector.
fn pct(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// The world of one cell, not yet run: the scenario's schedule on node 0
/// under one strategy, node 1 receiving, the fault plan installed.
fn world(sc: &Scenario, kind: StrategyKind) -> SimWorld {
    let mut cfg = EngineConfig::with_strategy(kind);
    if sc.acked {
        cfg.acked = true;
        // Timers scaled to simulated microseconds, as in the sim-world
        // failover tests — the defaults are sized for wall-clock links.
        cfg.health.initial_rto_ns = 300_000;
        cfg.health.min_rto_ns = 100_000;
        cfg.health.max_rto_ns = 5_000_000;
        cfg.health.probe_interval_ns = 500_000;
        cfg.health.probe_timeout_ns = 300_000;
    }
    let sender = Script::new(sc.steps.clone());
    let mut w = SimWorld::new(
        &platform::paper_platform(),
        cfg,
        sender,
        Script::receiver(sc.messages()),
    );
    if let Some((plan, until)) = &sc.fault {
        w.enable_faults(plan, FAULT_TICK, *until);
    }
    w
}

/// Run one cell: the scenario's schedule under one strategy.
pub fn run_cell(sc: &Scenario, kind: StrategyKind) -> Cell {
    let expected = sc.messages();
    let mut w = world(sc, kind);
    // Recorded for the restripe count; what the engines decide is the
    // same without it.
    w.enable_recording(1 << 14);
    w.run(50_000_000);

    let deliveries = w.app1().deliveries();
    let makespan = deliveries
        .iter()
        .map(|&(_, t)| t)
        .max()
        .unwrap_or(SimTime::ZERO);
    let smalls: Vec<f64> = deliveries
        .iter()
        .filter(|&&(s, _)| s <= SMALL_CUTOFF)
        .map(|&(_, t)| t.as_us_f64())
        .collect();
    let restripes = w
        .merged_events()
        .iter()
        .filter(|e| e.kind == EventKind::Restripe)
        .count() as u64;
    let s = w.node(0).engine.stats();
    Cell {
        scenario: sc.name.to_string(),
        strategy: kind.label().to_string(),
        delivered: deliveries.len(),
        expected,
        makespan_us: makespan.as_us_f64(),
        small_p99_us: pct(smalls, 0.99),
        aggregates: s.aggregates_built,
        chunks: s.chunks_sent,
        retransmits: s.retransmits,
        restripes,
        rail0_share: s.rail_share(0),
    }
}

/// Run the full grid: every zoo strategy against every scenario.
pub fn run(seed: u64, smoke: bool) -> TournamentReport {
    let scs = scenarios(seed, smoke);
    let kinds = StrategyKind::zoo();
    let mut cells = Vec::with_capacity(scs.len() * kinds.len());
    let mut winners = Vec::with_capacity(scs.len());
    for sc in &scs {
        let row_start = cells.len();
        for &kind in &kinds {
            cells.push(run_cell(sc, kind));
        }
        let row = &cells[row_start..];
        let mut by_makespan: Vec<&Cell> = row.iter().collect();
        by_makespan.sort_by(|a, b| a.makespan_us.partial_cmp(&b.makespan_us).expect("finite"));
        let (win, second) = (by_makespan[0], by_makespan[1]);
        winners.push(Winner {
            scenario: sc.name.to_string(),
            strategy: win.strategy.clone(),
            makespan_us: win.makespan_us,
            runner_up: second.strategy.clone(),
            margin_pct: (second.makespan_us / win.makespan_us - 1.0) * 100.0,
        });
    }
    TournamentReport {
        seed,
        smoke,
        strategies: kinds.iter().map(|k| k.label().to_string()).collect(),
        scenarios: scs.iter().map(|s| s.name.to_string()).collect(),
        cells,
        winners,
    }
}

fn cell<'a>(r: &'a TournamentReport, scenario: &str, strategy: &str) -> Option<&'a Cell> {
    r.cells
        .iter()
        .find(|c| c.scenario == scenario && c.strategy == strategy)
}

/// The claim gates. Empty = pass. Everything here is deterministic
/// (virtual time), so there is no retry policy.
pub fn check(r: &TournamentReport) -> Vec<String> {
    let mut v = Vec::new();
    for c in &r.cells {
        if c.delivered != c.expected {
            v.push(format!(
                "{}/{}: delivered {}/{} messages",
                c.scenario, c.strategy, c.delivered, c.expected
            ));
        }
    }
    let pair = |sc: &str, a: &str, b: &str| Some((cell(r, sc, a)?, cell(r, sc, b)?));

    // SRPT claim: no worse than greedy on the heavy-tailed burst (its
    // home regime), with 2% slack for scheduling-order noise.
    match pair("heavy-tail", "srpt", "greedy") {
        Some((srpt, greedy)) => {
            if srpt.makespan_us > greedy.makespan_us * 1.02 {
                v.push(format!(
                    "srpt lost its heavy-tail claim: {:.1} us vs greedy {:.1} us",
                    srpt.makespan_us, greedy.makespan_us
                ));
            }
        }
        None => v.push("heavy-tail srpt/greedy cells missing".into()),
    }

    // Harvest claim: on the asymmetric small flood, stealing overflow
    // onto the idle rail must recover measurable bandwidth over the
    // primary placement alone (≥ 1% shorter makespan; in practice far
    // more — the gate guards the direction, the JSON records the size).
    match pair("asym-smalls", "idle-harvest", "adaptive-split") {
        Some((harvest, adaptive)) => {
            if harvest.makespan_us >= adaptive.makespan_us * 0.99 {
                v.push(format!(
                    "idle-harvest recovered no bandwidth on asym-smalls: {:.1} us vs adaptive-split {:.1} us",
                    harvest.makespan_us, adaptive.makespan_us
                ));
            }
        }
        None => v.push("asym-smalls idle-harvest/adaptive-split cells missing".into()),
    }

    // Small-p99 claim: under the mixed heavy-tail load, aggregating the
    // smalls onto the low-latency rail (§3.3, kept by the default
    // preset) must cut the small-message p99 at least in half versus
    // greedy, which drains the backlog in arrival order and parks smalls
    // behind elephant chunks.
    match pair("heavy-tail", "adaptive-split", "greedy") {
        Some((adaptive, greedy)) => {
            if adaptive.small_p99_us >= greedy.small_p99_us * 0.5 {
                v.push(format!(
                    "adaptive-split did not cut small p99 on heavy-tail: {:.1} us vs greedy {:.1} us",
                    adaptive.small_p99_us, greedy.small_p99_us
                ));
            }
        }
        None => v.push("heavy-tail adaptive-split/greedy cells missing".into()),
    }
    v
}

/// Aligned text summary: one table per scenario plus the winner table.
pub fn render(r: &TournamentReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "strategy tournament: {} strategies x {} scenarios (seed {}, {})",
        r.strategies.len(),
        r.scenarios.len(),
        r.seed,
        if r.smoke { "smoke" } else { "full" }
    );
    for sc in &r.scenarios {
        let _ = writeln!(out, "\n## {sc}");
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>12} {:>6} {:>7} {:>7} {:>9} {:>8}",
            "strategy", "makespan us", "small p99", "aggs", "chunks", "rtx", "restripe", "rail0 %"
        );
        for c in r.cells.iter().filter(|c| &c.scenario == sc) {
            let _ = writeln!(
                out,
                "{:<22} {:>12.1} {:>12.1} {:>6} {:>7} {:>7} {:>9} {:>8.1}",
                c.strategy,
                c.makespan_us,
                c.small_p99_us,
                c.aggregates,
                c.chunks,
                c.retransmits,
                c.restripes,
                100.0 * c.rail0_share
            );
        }
    }
    let _ = writeln!(out, "\n## winners");
    let _ = writeln!(
        out,
        "{:<14} {:<22} {:>12} {:<22} {:>10}",
        "scenario", "winner", "makespan us", "runner-up", "margin %"
    );
    for w in &r.winners {
        let _ = writeln!(
            out,
            "{:<14} {:<22} {:>12.1} {:<22} {:>10.1}",
            w.scenario, w.strategy, w.makespan_us, w.runner_up, w.margin_pct
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_and_cover_the_required_regimes() {
        let a = scenarios(7, true);
        let b = scenarios(7, true);
        assert_eq!(a.len(), 6, "at least five scenarios required");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.steps, y.steps);
        }
        let by_name = |n: &str| a.iter().find(|s| s.name == n).expect(n);
        // Heavy tail: smalls and elephants in one burst.
        let heavy = by_name("heavy-tail");
        let sizes: Vec<usize> = heavy.sizes().collect();
        assert!(sizes.iter().any(|&s| s <= SMALL_CUTOFF), "has smalls");
        assert!(sizes.iter().any(|&s| s >= 1 << 20), "has elephants");
        // Bursty: more than one wave, with real think gaps (a wave starts
        // with a drain; every one after the first computes next).
        let bursty = by_name("bursty");
        let think: Vec<bool> = (bursty.steps.windows(2))
            .filter(|w| w[0] == Step::Drain)
            .map(|w| matches!(w[1], Step::Compute(_)))
            .collect();
        assert!(think.len() > 1, "MMPP must produce waves");
        assert!(think.iter().skip(1).all(|&t| t));
        // Outage runs acked with a real down window; drift carries a
        // bandwidth window.
        let effect = |n: &str| by_name(n).fault.as_ref().expect(n).0.faults[0].effect;
        assert!(by_name("outage").acked);
        assert_eq!(effect("outage"), Effect::Loss(1.0));
        assert!(matches!(effect("drift"), Effect::Bandwidth(_)));
    }

    #[test]
    fn smoke_tournament_delivers_everywhere_and_the_claims_hold() {
        let r = run(2024, true);
        assert_eq!(
            r.cells.len(),
            r.strategies.len() * r.scenarios.len(),
            "full grid"
        );
        let violations = check(&r);
        assert!(violations.is_empty(), "{violations:?}\n{}", render(&r));
        // The rendered table names every strategy and scenario.
        let table = render(&r);
        for s in &r.strategies {
            assert!(table.contains(s.as_str()), "{s} missing from table");
        }
        // SRPT actually re-striped somewhere, or at least ran clean; the
        // outage cells must show recovery traffic.
        let outage_rtx: u64 = r
            .cells
            .iter()
            .filter(|c| c.scenario == "outage")
            .map(|c| c.retransmits)
            .sum();
        assert!(outage_rtx > 0, "outage never bit: {}", render(&r));
    }

    /// The flight recorder observes a run and changes nothing in it:
    /// every strategy delivers the same messages at the same instants,
    /// with the same counters, whether it records or not.
    #[test]
    fn recording_changes_no_decision() {
        let scs = scenarios(2024, true);
        let outage = scs.iter().find(|s| s.name == "outage").expect("outage");
        for kind in StrategyKind::zoo() {
            let run = |record: bool| {
                let mut w = world(outage, kind);
                if record {
                    w.enable_recording(1 << 14);
                }
                w.run(50_000_000);
                let stats = [0, 1].map(|i| format!("{:?}", w.node(i).engine.stats()));
                (w.app1().deliveries().to_vec(), w.now(), stats)
            };
            let (with, without) = (run(true), run(false));
            assert_eq!(with.0, without.0, "{kind:?}: deliveries");
            assert_eq!(with.1, without.1, "{kind:?}: makespan");
            assert_eq!(with.2, without.2, "{kind:?}: engine counters");
        }
    }
}
