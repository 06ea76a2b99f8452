//! Flight-recorder overhead accounting (the `ablate_obs` experiment).
//!
//! Observability is only free if the hot path stays hot. This ablation
//! drives a raw engine pair (no simulator — the simulator charges virtual
//! time, which hides real CPU cost) through the bandwidth ladder twice,
//! once with the flight recorder disabled and once with a recording ring,
//! and compares wall-clock time. Each point interleaves many single-message
//! timings of the two legs and keeps the per-leg minimum, so scheduler
//! noise (strictly additive) does not masquerade as overhead.
//!
//! The ladder runs **three** legs per point: recorder off, recorder on,
//! and the full continuous-telemetry stack (recorder + windows cut from
//! the engine's counters + SLO watchdog, folded once per message the way
//! a progress pass folds once per scheduler iteration). The run doubles as a
//! regression gate (used by `scripts/verify.sh`): [`check`] fails if
//! recording alone — or the full stack — costs more than
//! [`OVERHEAD_BUDGET_PCT`] of the disabled-recorder throughput in
//! aggregate, if the ring or the aggregator took any hot-path allocation
//! (both are preallocated; growing means the fixed-footprint claim
//! broke), or if nothing was recorded/aggregated at all. The result is
//! written to `BENCH_obs.json` at the repo root; the full-stack leg's
//! time series rides along as a JSONL artifact.

use std::time::Instant;

use bytes::Bytes;
use nmad_core::engine::Engine;
use nmad_core::{EngineConfig, Observe, StrategyKind};
use nmad_model::{platform, RailId};
use serde::{ser, Serialize, Value};

use crate::report::{lower_quartile_mean, mix};

/// Maximum tolerated aggregate wall-clock overhead of recording, percent.
pub const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Ring capacity of the recorder leg (the full-stack leg runs
/// `Observe::Watch`'s own).
pub const RECORD_CAPACITY: usize = 16_384;

/// Telemetry window used by the full-stack leg, ns. Short enough that a
/// ladder point closes many windows (window rotation is part of the cost
/// being measured), long enough to stay realistic.
pub const TELEMETRY_WINDOW_NS: u64 = 1_000_000;

/// One ladder point: the same workload timed without recording, with the
/// recorder ring, and with the full telemetry stack.
#[derive(Clone, Debug)]
pub struct ObsPoint {
    /// Message size in bytes.
    pub size: u64,
    /// Interleaved samples taken per leg.
    pub iters: usize,
    /// Lowest-quartile-mean single-message wall-clock, recorder off, ns.
    pub ns_off: u64,
    /// Lowest-quartile-mean single-message wall-clock with a 16 Ki-event
    /// ring enabled, ns.
    pub ns_on: u64,
    /// Lowest-quartile-mean single-message wall-clock with the ring, the
    /// windowed aggregator, and the watchdog all enabled, ns.
    pub ns_full: u64,
}

impl ObsPoint {
    /// Recording overhead of this point, percent (negative = noise).
    pub fn overhead_pct(&self) -> f64 {
        if self.ns_off == 0 {
            return 0.0;
        }
        (self.ns_on as f64 - self.ns_off as f64) * 100.0 / self.ns_off as f64
    }

    /// Full-stack (recorder + aggregator + watchdog) overhead, percent.
    pub fn full_overhead_pct(&self) -> f64 {
        if self.ns_off == 0 {
            return 0.0;
        }
        (self.ns_full as f64 - self.ns_off as f64) * 100.0 / self.ns_off as f64
    }
}

impl Serialize for ObsPoint {
    fn to_value(&self) -> Value {
        ser::object([
            ("size", ser::v(&self.size)),
            ("iters", ser::v(&self.iters)),
            ("ns_off", ser::v(&self.ns_off)),
            ("ns_on", ser::v(&self.ns_on)),
            ("ns_full", ser::v(&self.ns_full)),
            ("overhead_pct", ser::v(&self.overhead_pct())),
            ("full_overhead_pct", ser::v(&self.full_overhead_pct())),
        ])
    }
}

/// The full ablation result.
#[derive(Clone, Debug)]
pub struct ObsReport {
    /// One point per ladder size.
    pub points: Vec<ObsPoint>,
    /// `(Σ ns_on - Σ ns_off) / Σ ns_off`, percent.
    pub aggregate_overhead_pct: f64,
    /// `(Σ ns_full - Σ ns_off) / Σ ns_off`, percent: recorder +
    /// aggregator + watchdog combined.
    pub aggregate_full_overhead_pct: f64,
    /// Ring growth observed across every recorder-enabled run (must be 0:
    /// the ring is preallocated and records are fixed-size).
    pub hot_path_allocs: u64,
    /// Aggregator capacity growth across the full-stack legs, its
    /// snapshot of the counters included (must be 0: windows are written
    /// into a preallocated ring, never allocated).
    pub telemetry_allocs: u64,
    /// Events landed in the rings over the recorder-enabled legs.
    pub events_recorded: u64,
    /// Telemetry windows closed across the full-stack legs.
    pub telemetry_windows: u64,
    /// The gate applied by [`check`].
    pub budget_pct: f64,
    /// Time series (windows JSONL) from the last ladder point's
    /// full-stack leg — the CI artifact. Not serialized into the gate
    /// JSON; written alongside it.
    pub timeseries_jsonl: String,
}

impl Serialize for ObsReport {
    fn to_value(&self) -> Value {
        ser::object([
            ("points", ser::v(&self.points)),
            (
                "aggregate_overhead_pct",
                ser::v(&self.aggregate_overhead_pct),
            ),
            (
                "aggregate_full_overhead_pct",
                ser::v(&self.aggregate_full_overhead_pct),
            ),
            ("hot_path_allocs", ser::v(&self.hot_path_allocs)),
            ("telemetry_allocs", ser::v(&self.telemetry_allocs)),
            ("events_recorded", ser::v(&self.events_recorded)),
            ("telemetry_windows", ser::v(&self.telemetry_windows)),
            ("budget_pct", ser::v(&self.budget_pct)),
        ])
    }
}

fn engine_pair(observe: Observe) -> (Engine, Engine) {
    let mut cfg = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
    // As both live transports force it: the budget is a share of the hot
    // path they run. Without it, and with reassembly by reference, what
    // is left of a 1 MiB message in this pump is ~9 µs of bookkeeping —
    // a denominator no runtime has.
    cfg.crc = true;
    cfg.acked = true; // acks + RTT samples exercise the reliability events
    cfg.observe = observe;
    let mk = || Engine::new(cfg.clone(), platform::paper_platform().rails, vec![]);
    let (mut a, mut b) = (mk(), mk());
    a.conn_open();
    b.conn_open();
    (a, b)
}

/// Drive both engines until neither makes progress.
fn pump(a: &mut Engine, b: &mut Engine) {
    for _ in 0..1_000_000 {
        let mut progressed = false;
        for dir in 0..2 {
            let (tx, rx) = if dir == 0 {
                (&mut *a, &mut *b)
            } else {
                (&mut *b, &mut *a)
            };
            for r in 0..2 {
                let rail = RailId(r);
                if let Some(d) = tx.next_tx(rail).expect("next_tx") {
                    progressed = true;
                    tx.on_tx_done(rail, d.token).expect("tx_done");
                    rx.on_frame(rail, &d.frame).expect("on_frame");
                }
            }
        }
        if !progressed {
            return;
        }
    }
    panic!("engines did not quiesce");
}

/// Send one message through the pair and return its wall-clock ns.
///
/// Every leg ends with one clock advance + telemetry fold, exactly the
/// amortized work a scheduler pass performs; on the off/recorder legs the
/// fold is a no-op, so the legs stay symmetric and the measured delta is
/// genuinely the aggregator's cost. `clock` accumulates real elapsed ns
/// so telemetry windows open and close at their configured cadence.
fn one_msg(a: &mut Engine, b: &mut Engine, payload: &Bytes, clock: &mut u64) -> u64 {
    let start = Instant::now();
    b.post_recv(0);
    a.submit_send(0, vec![payload.clone()]);
    pump(a, b);
    *clock += start.elapsed().as_nanos() as u64;
    a.observe_clock(*clock);
    b.observe_clock(*clock);
    a.fold_telemetry();
    b.fold_telemetry();
    start.elapsed().as_nanos() as u64
}

/// Counters pulled off a point's recorder-enabled legs after timing.
struct PointCounters {
    allocs: u64,
    events: u64,
    telemetry_allocs: u64,
    telemetry_windows: u64,
    timeseries_jsonl: String,
}

/// One ladder point: `samples` single-message timings per leg, finely
/// interleaved so a background-noise burst taxes all legs alike;
/// scheduler noise is strictly additive, so the mean of each leg's
/// lowest-quartile samples is the noise-free estimate. Also returns the
/// recorder/telemetry counters from the instrumented legs.
fn measure_point(size: usize, samples: usize) -> (ObsPoint, PointCounters) {
    let (mut a_off, mut b_off) = engine_pair(Observe::Off);
    let (mut a_on, mut b_on) = engine_pair(Observe::Record {
        capacity: RECORD_CAPACITY,
    });
    let (mut a_full, mut b_full) = engine_pair(Observe::Watch {
        window_ns: TELEMETRY_WINDOW_NS,
    });
    let payload = Bytes::from(vec![0x5Au8; size]);
    let (mut c_off, mut c_on, mut c_full) = (0u64, 0u64, 0u64);
    // Warm all pairs (allocator, page faults, sampling-table paths).
    one_msg(&mut a_off, &mut b_off, &payload, &mut c_off);
    one_msg(&mut a_on, &mut b_on, &payload, &mut c_on);
    one_msg(&mut a_full, &mut b_full, &payload, &mut c_full);
    let mut off = Vec::with_capacity(samples);
    let mut on = Vec::with_capacity(samples);
    let mut full = Vec::with_capacity(samples);
    for i in 0..samples {
        // Pseudo-random leg rotation (SplitMix64) so periodic system
        // noise (scheduler ticks, frequency scaling) cannot phase-lock
        // onto one leg of a fixed alternation.
        let legs: [usize; 3] = match mix(i as u64) % 3 {
            0 => [0, 1, 2],
            1 => [1, 2, 0],
            _ => [2, 0, 1],
        };
        for leg in legs {
            match leg {
                0 => off.push(one_msg(&mut a_off, &mut b_off, &payload, &mut c_off)),
                1 => on.push(one_msg(&mut a_on, &mut b_on, &payload, &mut c_on)),
                _ => full.push(one_msg(&mut a_full, &mut b_full, &payload, &mut c_full)),
            }
        }
    }
    let allocs = a_on.recorder().hot_path_allocs()
        + b_on.recorder().hot_path_allocs()
        + a_full.recorder().hot_path_allocs()
        + b_full.recorder().hot_path_allocs();
    let events = a_on.recorder().total_recorded() + b_on.recorder().total_recorded();
    let agg =
        |e: &Engine, f: fn(&nmad_core::TelemetryAggregator) -> u64| e.telemetry().map_or(0, f);
    let counters = PointCounters {
        allocs,
        events,
        telemetry_allocs: agg(&a_full, |t| t.hot_path_allocs())
            + agg(&b_full, |t| t.hot_path_allocs()),
        telemetry_windows: agg(&a_full, |t| t.windows_closed())
            + agg(&b_full, |t| t.windows_closed()),
        timeseries_jsonl: a_full
            .telemetry()
            .map(nmad_core::obs::windows_jsonl)
            .unwrap_or_default(),
    };
    (
        ObsPoint {
            size: size as u64,
            iters: samples,
            ns_off: lower_quartile_mean(&mut off),
            ns_on: lower_quartile_mean(&mut on),
            ns_full: lower_quartile_mean(&mut full),
        },
        counters,
    )
}

/// Run the ablation. `smoke` shrinks the ladder and repetition count for
/// the CI gate.
pub fn run(smoke: bool) -> ObsReport {
    let sizes: Vec<u64> = if smoke {
        vec![4 << 10, 64 << 10, 1 << 20]
    } else {
        nmad_runtime_sim::bandwidth_sizes()
    };
    let mut points = Vec::new();
    let (mut allocs, mut events) = (0u64, 0u64);
    let (mut t_allocs, mut t_windows) = (0u64, 0u64);
    let mut timeseries = String::new();
    for &size in &sizes {
        // Scale the sample count so every point does comparable work:
        // many short interleaved samples beat a few long windows, because
        // the per-leg minimum only needs ONE noise-free sample per leg.
        let per_point: u64 = if smoke { 64 << 20 } else { 128 << 20 };
        let samples = (per_point / size).clamp(128, 4096) as usize;
        let (p, c) = measure_point(size as usize, samples);
        allocs += c.allocs;
        events += c.events;
        t_allocs += c.telemetry_allocs;
        t_windows += c.telemetry_windows;
        if !c.timeseries_jsonl.is_empty() {
            timeseries = c.timeseries_jsonl;
        }
        points.push(p);
    }

    let sum_off: u64 = points.iter().map(|p| p.ns_off).sum();
    let sum_on: u64 = points.iter().map(|p| p.ns_on).sum();
    let sum_full: u64 = points.iter().map(|p| p.ns_full).sum();
    let agg = |sum: u64| {
        if sum_off == 0 {
            0.0
        } else {
            (sum as f64 - sum_off as f64) * 100.0 / sum_off as f64
        }
    };
    ObsReport {
        points,
        aggregate_overhead_pct: agg(sum_on),
        aggregate_full_overhead_pct: agg(sum_full),
        hot_path_allocs: allocs,
        telemetry_allocs: t_allocs,
        events_recorded: events,
        telemetry_windows: t_windows,
        budget_pct: OVERHEAD_BUDGET_PCT,
        timeseries_jsonl: timeseries,
    }
}

/// Gate violations (empty = within budget).
pub fn check(report: &ObsReport) -> Vec<String> {
    let mut v = Vec::new();
    if report.aggregate_overhead_pct > report.budget_pct {
        v.push(format!(
            "recorder overhead {:.2}% exceeds the {:.0}% budget",
            report.aggregate_overhead_pct, report.budget_pct
        ));
    }
    if report.aggregate_full_overhead_pct > report.budget_pct {
        v.push(format!(
            "telemetry-stack overhead {:.2}% exceeds the {:.0}% budget",
            report.aggregate_full_overhead_pct, report.budget_pct
        ));
    }
    if report.hot_path_allocs != 0 {
        v.push(format!(
            "{} hot-path allocations attributable to the recorder (ring must stay preallocated)",
            report.hot_path_allocs
        ));
    }
    if report.telemetry_allocs != 0 {
        v.push(format!(
            "{} hot-path allocations attributable to the aggregator (windows and snapshot must stay preallocated)",
            report.telemetry_allocs
        ));
    }
    if report.events_recorded == 0 {
        v.push("recorder-enabled legs recorded no events".into());
    }
    if report.telemetry_windows == 0 {
        v.push("full-stack legs closed no telemetry windows".into());
    }
    v
}

/// Human-readable table.
pub fn render(report: &ObsReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>7} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "size", "msgs", "off (us)", "on (us)", "full (us)", "recorder", "telemetry"
    );
    for p in &report.points {
        let _ = writeln!(
            out,
            "{:>10} {:>7} {:>12.1} {:>12.1} {:>12.1} {:>9.2}% {:>9.2}%",
            p.size,
            p.iters,
            p.ns_off as f64 / 1e3,
            p.ns_on as f64 / 1e3,
            p.ns_full as f64 / 1e3,
            p.overhead_pct(),
            p.full_overhead_pct()
        );
    }
    let _ = writeln!(
        out,
        "aggregate overhead: recorder {:.2}%, full stack {:.2}% (budget {:.0}%)",
        report.aggregate_overhead_pct, report.aggregate_full_overhead_pct, report.budget_pct
    );
    let _ = writeln!(
        out,
        "{} events recorded, {} telemetry windows, {}+{} hot-path allocs",
        report.events_recorded,
        report.telemetry_windows,
        report.hot_path_allocs,
        report.telemetry_allocs
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_flags_budget_and_allocs() {
        let mut r = ObsReport {
            points: vec![],
            aggregate_overhead_pct: 9.0,
            aggregate_full_overhead_pct: 9.0,
            hot_path_allocs: 2,
            telemetry_allocs: 1,
            events_recorded: 0,
            telemetry_windows: 0,
            budget_pct: OVERHEAD_BUDGET_PCT,
            timeseries_jsonl: String::new(),
        };
        assert_eq!(check(&r).len(), 6);
        r.aggregate_overhead_pct = 1.0;
        r.aggregate_full_overhead_pct = 2.0;
        r.hot_path_allocs = 0;
        r.telemetry_allocs = 0;
        r.events_recorded = 10;
        r.telemetry_windows = 4;
        assert!(check(&r).is_empty());
    }

    #[test]
    fn one_point_measures_and_records() {
        let (p, c) = measure_point(64 << 10, 2);
        assert!(p.ns_off > 0 && p.ns_on > 0 && p.ns_full > 0);
        assert_eq!(c.allocs, 0, "ring must never grow");
        assert_eq!(
            c.telemetry_allocs, 0,
            "windows and snapshot stay preallocated"
        );
        assert!(c.events > 0, "recording must capture the transfer");
    }
}
