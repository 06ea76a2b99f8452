//! Chaos soak: minutes of multi-tenant traffic over the mem fabric
//! under a seeded plan that opens every kind of fault window, gated on SLOs
//! (`nmad soak`, `ablate_soak`, `BENCH_soak.json`).
//!
//! The unit tests each exercise one failure mode in isolation; the soak
//! asks the question production asks: does the engine stay correct and
//! *bounded* when outages, corruption, reordering, drop storms and
//! bandwidth drift all land on top of live load — and does it return to
//! nominal once the faults heal? Concretely the gates are:
//!
//! * **Latency SLO** — p99 / p999 over the whole run (chaos included)
//!   under a ceiling. Catches unbounded retry loops and requests parked
//!   on dead rails.
//! * **No permanent degradation** — closed-loop throughput of the last
//!   (clean) windows within 10 % of the first (clean) windows. The chaos
//!   schedule only fires in the middle of the run and heals before the
//!   tail, so head and tail compare clean against clean.
//! * **No leaks** — the pool ledger on both endpoints reads zero
//!   unaccounted buffers after the drain.
//! * **No stuck requests** — every accepted send acks within the drain
//!   deadline after the final fault heals.
//!
//! Everything is replayable: the traffic schedules and the fault plan
//! ([`chaos_plan`]) derive from one recorded seed.

use std::collections::VecDeque;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nmad_core::{Effect, EngineConfig, Fault, FaultPlan, Observe, StrategyKind, SubmitError};
use nmad_model::platform;
use nmad_sim::Xoshiro256StarStar;
use nmad_transport_mem::{pair, Endpoint, FabricConfig, RecvHandle, SendHandle};
use nmad_wire::ConnId;
use serde::{ser, Serialize, Value};

use crate::loadgen::{ArrivalSampler, LoopMode, TrafficSpec};

/// When the chaos of a run of `duration` heals, 70 % of the way in: from
/// here on only the background noise is left, so the run's tail is a
/// recovery check.
pub fn heal_at(duration: Duration) -> Duration {
    duration.mul_f64(0.70)
}

/// The seeded fault plan of a soak of `duration` over two rails: a hard
/// outage on rail 0, bandwidth drift on both rails, drop storms on rail
/// 1, and background corruption, duplication and reordering that never
/// ends. Derived entirely from the recorded seed.
///
/// Invariants the generator maintains (and the tests pin down): every
/// window but the background noise lies inside the middle `[25 %, 70 %]`
/// of the run, so the head and tail windows are clean; the outage hits
/// rail 0 only and the drop storms hit rail 1 only *after* the outage
/// has ended, so at least one rail can always make forward progress and
/// latency stays bounded by a few RTOs instead of an outage length.
pub fn chaos_plan(seed: u64, duration: Duration) -> FaultPlan {
    let mut rng = Xoshiro256StarStar::new(seed ^ 0xC4A0_5EED);
    let d = duration.as_secs_f64();
    let jitter = |rng: &mut Xoshiro256StarStar, frac: f64| {
        // +/- 2 % of the run around the nominal point.
        Duration::from_secs_f64(d * (frac + (rng.next_f64() - 0.5) * 0.04))
    };
    let heal = heal_at(duration);

    // Background noise on both rails for the whole run, heal included
    // (exercises CRC, duplicate suppression and reassembly).
    let noise = [
        Effect::Corrupt(0.0005),
        Effect::Duplicate(0.0005),
        Effect::Reorder(0.001),
    ];
    let mut plan = FaultPlan::everywhere(seed, 2, &noise);

    // Hard outage on rail 0: ~15 % of the run, many RTOs long.
    let down_at = jitter(&mut rng, 0.30);
    let up_at = jitter(&mut rng, 0.45);
    plan.faults
        .push(Fault::during(0, down_at..up_at, Effect::Loss(1.0)));

    // Bandwidth drift on both rails in turn across the chaos window: a
    // slow rail forces the online calibrator to re-split while traffic
    // flows. A rail's factor holds until its next drift, the last until
    // the heal.
    let drifts =
        [0.27, 0.36, 0.45, 0.54].map(|frac| (jitter(&mut rng, frac), 0.3 + rng.next_f64() * 1.2));
    for (i, &(at, factor)) in drifts.iter().enumerate() {
        let until = drifts.get(i + 2).map_or(heal, |next| next.0);
        plan.faults
            .push(Fault::during(i % 2, at..until, Effect::Bandwidth(factor)));
    }

    // Drop storms on rail 1 only, strictly after the rail-0 outage is
    // over (never blackhole both rails at once); each lasts until the
    // next, the last until the heal.
    let storm_floor = up_at.as_secs_f64() / d + 0.02;
    let storms = [storm_floor.max(0.48), 0.58]
        .map(|frac| (jitter(&mut rng, frac), 0.2 + rng.next_f64() * 0.3));
    for (i, &(at, p)) in storms.iter().enumerate() {
        let until = storms.get(i + 1).map_or(heal, |next| next.0);
        plan.faults
            .push(Fault::during(1, at..until, Effect::Loss(p)));
    }
    plan
}

/// Soak parameters. `smoke()` fits the CI budget; `full()` is the
/// minutes-long scheduled run.
#[derive(Clone, Debug)]
pub struct SoakSpec {
    /// Master seed — recorded in the report; replays the whole run.
    pub seed: u64,
    /// Load phase length (drain comes on top).
    pub duration: Duration,
    /// Windows the run is sliced into for throughput accounting.
    pub windows: usize,
    /// Fabric rate shaping (wall seconds per modelled second). Must be
    /// positive: the mem fabric refuses the plan's bandwidth drift on an
    /// unshaped wire.
    pub time_scale: f64,
    /// The tenant mix.
    pub traffic: TrafficSpec,
    /// p99 ack-latency ceiling over the whole run.
    pub p99_ceiling: Duration,
    /// p999 ack-latency ceiling over the whole run.
    pub p999_ceiling: Duration,
    /// Max tolerated head→tail closed-loop throughput decay, percent.
    pub max_decay_pct: f64,
    /// Budget for draining outstanding requests after the load phase.
    pub drain_deadline: Duration,
    /// Whether the chaos plan applies. A clean run (false) has no fault
    /// plan at all: no outage, no storm, no drift, no background noise —
    /// it exercises the watchdog's false-positive contract: zero
    /// alerts, or the gate fails.
    pub chaos: bool,
    /// Continuous-telemetry window interval. `Duration::ZERO` disables
    /// the telemetry pipeline and the watchdog entirely (the pre-PR-7
    /// soak behaviour).
    pub telemetry_window: Duration,
}

impl SoakSpec {
    /// CI smoke: ~8 s of load, finishes well inside a minute.
    pub fn smoke(seed: u64) -> Self {
        SoakSpec {
            seed,
            duration: Duration::from_secs(8),
            windows: 8,
            time_scale: 20.0,
            traffic: TrafficSpec::standard(seed),
            // Ceilings sized from the chaos plan, not from hope: a
            // message caught in-flight when the outage lands can pay
            // most of the outage (~15 % of the run) plus an RTO chain;
            // the gates catch anything *unbounded* beyond that.
            p99_ceiling: Duration::from_millis(2_500),
            p999_ceiling: Duration::from_millis(5_000),
            max_decay_pct: 10.0,
            drain_deadline: Duration::from_secs(30),
            chaos: true,
            telemetry_window: Duration::from_millis(250),
        }
    }

    /// Scheduled full soak: minutes of load, same gates.
    pub fn full(seed: u64) -> Self {
        SoakSpec {
            duration: Duration::from_secs(180),
            windows: 12,
            drain_deadline: Duration::from_secs(120),
            ..SoakSpec::smoke(seed)
        }
    }
}

/// One ack-latency sample.
#[derive(Clone, Copy)]
struct Sample {
    /// When the ack was observed, ns since soak start.
    at_ns: u64,
    /// Submit→ack latency, ns.
    lat_ns: u64,
}

/// What one tenant thread brings home.
struct TenantRun {
    accepted: u64,
    shed: u64,
    acked: u64,
    bytes_acked: u64,
    stuck: u64,
    samples: Vec<Sample>,
}

/// Per-tenant slice of the report.
#[derive(Clone, Debug)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// "open" or "closed/N".
    pub mode: String,
    /// Sends the admission layer accepted.
    pub accepted: u64,
    /// Sends shed with `WouldBlock` (counted, not crashed).
    pub shed: u64,
    /// Sends acked end-to-end.
    pub acked: u64,
    /// Payload bytes acked.
    pub bytes_acked: u64,
    /// Median ack latency, microseconds.
    pub p50_us: u64,
    /// p99 ack latency, microseconds.
    pub p99_us: u64,
    /// p999 ack latency, microseconds.
    pub p999_us: u64,
}

impl Serialize for TenantOutcome {
    fn to_value(&self) -> Value {
        ser::object([
            ("name", ser::v(&self.name)),
            ("mode", ser::v(&self.mode)),
            ("accepted", ser::v(&self.accepted)),
            ("shed", ser::v(&self.shed)),
            ("acked", ser::v(&self.acked)),
            ("bytes_acked", ser::v(&self.bytes_acked)),
            ("p50_us", ser::v(&self.p50_us)),
            ("p99_us", ser::v(&self.p99_us)),
            ("p999_us", ser::v(&self.p999_us)),
        ])
    }
}

/// The soak result — what `BENCH_soak.json` records.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Seed that replays the run (traffic + fault plan).
    pub seed: u64,
    /// Load-phase length, seconds.
    pub duration_s: f64,
    /// Throughput windows.
    pub windows: usize,
    /// Fabric time scale.
    pub time_scale: f64,
    /// Per-tenant outcomes.
    pub tenants: Vec<TenantOutcome>,
    /// Closed-loop messages acked per window (the decay metric's input).
    pub closed_msgs_per_window: Vec<u64>,
    /// Closed-loop ack rate over the first two (clean) windows, msgs/s.
    pub head_rate_hz: f64,
    /// Closed-loop ack rate over the last two (clean) windows, msgs/s.
    pub tail_rate_hz: f64,
    /// Head→tail decay, percent (negative = tail faster).
    pub decay_pct: f64,
    /// Overall p50 ack latency, microseconds.
    pub p50_us: u64,
    /// Overall p99 ack latency, microseconds.
    pub p99_us: u64,
    /// Overall p999 ack latency, microseconds.
    pub p999_us: u64,
    /// Engine retransmissions on the sender.
    pub retransmits: u64,
    /// Frames the fault injector ate on the sender's tx side.
    pub tx_dropped: u64,
    /// Frames the receiver rejected (CRC/decode).
    pub rx_errors: u64,
    /// Submissions shed by per-tenant admission.
    pub shed_admission: u64,
    /// Unaccounted pool buffers on the sender after drain (gate: 0).
    pub pool_leaks_a: u64,
    /// Unaccounted pool buffers on the receiver after drain (gate: 0).
    pub pool_leaks_b: u64,
    /// Requests that never acked within the drain deadline (gate: 0).
    pub stuck: u64,
    /// Storm and drift windows in the plan.
    pub dial_events: usize,
    /// Full-loss windows in the plan.
    pub outage_count: usize,
    /// Heal point, seconds into the run.
    pub heal_at_s: f64,
    /// Gate: p99 ceiling, microseconds.
    pub p99_ceiling_us: u64,
    /// Gate: p999 ceiling, microseconds.
    pub p999_ceiling_us: u64,
    /// Gate: max decay, percent.
    pub max_decay_pct: f64,
    /// Whether the chaos plan was applied (false = clean run,
    /// exercising the watchdog's zero-false-positive contract).
    pub chaos: bool,
    /// Telemetry window interval, seconds (0 = telemetry off).
    pub telemetry_window_s: f64,
    /// Telemetry windows closed on the sender by the end of the drain.
    pub telemetry_windows: u64,
    /// Watchdog alerts fired on the sender, in firing order.
    pub alerts: Vec<AlertOutcome>,
    /// Watchdog verdict (`None` = watchdog off).
    pub watchdog_clean: Option<bool>,
    /// First rail-0 outage start, seconds into the run (-1 when clean).
    pub outage_down_s: f64,
    /// First rail-1 drop storm, seconds into the run (-1 when clean).
    pub storm_at_s: f64,
    /// Full JSONL telemetry time series from the sender — written as
    /// its own artifact by callers, not serialized into the gate JSON.
    pub telemetry_jsonl: Option<String>,
    /// Machine-readable watchdog verdict (same policy as the series).
    pub verdict_json: Option<String>,
}

/// One watchdog alert, flattened for the report.
#[derive(Clone, Debug)]
pub struct AlertOutcome {
    /// Rule label (`retransmit_storm`, ...).
    pub kind: String,
    /// Telemetry window ordinal that tripped it.
    pub window: u64,
    /// Engine-clock fire time, seconds into the run.
    pub t_s: f64,
    /// Offending rail, when rail-scoped.
    pub rail: Option<u64>,
    /// Measured value.
    pub value: f64,
    /// EWMA baseline at fire time.
    pub baseline: f64,
}

impl Serialize for AlertOutcome {
    fn to_value(&self) -> Value {
        ser::object([
            ("kind", ser::v(&self.kind)),
            ("window", ser::v(&self.window)),
            ("t_s", ser::v(&self.t_s)),
            ("rail", ser::v(&self.rail)),
            ("value", ser::v(&self.value)),
            ("baseline", ser::v(&self.baseline)),
        ])
    }
}

impl Serialize for SoakReport {
    fn to_value(&self) -> Value {
        ser::object([
            ("seed", ser::v(&self.seed)),
            ("duration_s", ser::v(&self.duration_s)),
            ("windows", ser::v(&self.windows)),
            ("time_scale", ser::v(&self.time_scale)),
            ("tenants", ser::v(&self.tenants)),
            (
                "closed_msgs_per_window",
                ser::v(&self.closed_msgs_per_window),
            ),
            ("head_rate_hz", ser::v(&self.head_rate_hz)),
            ("tail_rate_hz", ser::v(&self.tail_rate_hz)),
            ("decay_pct", ser::v(&self.decay_pct)),
            ("p50_us", ser::v(&self.p50_us)),
            ("p99_us", ser::v(&self.p99_us)),
            ("p999_us", ser::v(&self.p999_us)),
            ("retransmits", ser::v(&self.retransmits)),
            ("tx_dropped", ser::v(&self.tx_dropped)),
            ("rx_errors", ser::v(&self.rx_errors)),
            ("shed_admission", ser::v(&self.shed_admission)),
            ("pool_leaks_a", ser::v(&self.pool_leaks_a)),
            ("pool_leaks_b", ser::v(&self.pool_leaks_b)),
            ("stuck", ser::v(&self.stuck)),
            ("dial_events", ser::v(&self.dial_events)),
            ("outage_count", ser::v(&self.outage_count)),
            ("heal_at_s", ser::v(&self.heal_at_s)),
            ("p99_ceiling_us", ser::v(&self.p99_ceiling_us)),
            ("p999_ceiling_us", ser::v(&self.p999_ceiling_us)),
            ("max_decay_pct", ser::v(&self.max_decay_pct)),
            ("chaos", ser::v(&self.chaos)),
            ("telemetry_window_s", ser::v(&self.telemetry_window_s)),
            ("telemetry_windows", ser::v(&self.telemetry_windows)),
            ("alerts", ser::v(&self.alerts)),
            ("watchdog_clean", ser::v(&self.watchdog_clean)),
            ("outage_down_s", ser::v(&self.outage_down_s)),
            ("storm_at_s", ser::v(&self.storm_at_s)),
        ])
    }
}

/// Fast-failure health so the soak's RTOs and probes fit the run length
/// (the defaults are sized for real links, not a shaped fabric). `nmad
/// top` runs on the same wall-clock timers.
pub fn soak_health(engine: &mut EngineConfig) {
    engine.health = nmad_core::HealthConfig {
        initial_rto_ns: 20_000_000,
        min_rto_ns: 5_000_000,
        // Cap backoff at 200 ms: the latency tail under a drop storm is
        // dominated by the last RTO in the chain, and the SLO cares
        // about boundedness, not patience.
        max_rto_ns: 200_000_000,
        probe_interval_ns: 50_000_000,
        probe_timeout_ns: 20_000_000,
    };
}

/// Run one soak. Blocks for `duration` plus however much of the drain
/// budget the tail needs.
pub fn run(spec: &SoakSpec) -> SoakReport {
    let plan = spec.chaos.then(|| chaos_plan(spec.seed, spec.duration));

    let mut engine = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
    engine.acked = true;
    soak_health(&mut engine);
    engine.calibrate = true;
    // Bounded everything: the soak must shed, not grow.
    engine.max_tenant_inflight = 32;
    let telemetry_on = spec.telemetry_window > Duration::ZERO;
    if telemetry_on {
        engine.observe = Observe::Watch {
            window_ns: spec.telemetry_window.as_nanos() as u64,
        };
    }

    let mut cfg = FabricConfig::new(platform::paper_platform(), engine);
    cfg.conns = spec.traffic.tenants.len();
    cfg.time_scale = spec.time_scale;
    cfg.faults = plan.clone();

    let (a, b) = pair(cfg);
    let conns = a.conns().to_vec();
    let start = Instant::now();

    let runs: Vec<TenantRun> = thread::scope(|s| {
        let handles: Vec<_> = spec
            .traffic
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let rng = spec.traffic.tenant_rng(i);
                let (a, b, conn) = (&a, &b, conns[i]);
                let tenant = t.clone();
                let spec = &*spec;
                s.spawn(move || tenant_loop(a, b, conn, &tenant, rng, start, spec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });

    // Everything is drained: read the ledgers and counters.
    let st = a.stats();
    let ov = st.overload;
    let window_len = spec.duration.as_secs_f64() / spec.windows as f64;

    // Closed-loop acked messages per window (decay metric input).
    let mut per_window = vec![0u64; spec.windows];
    let mut all_lat: Vec<u64> = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        for smp in &r.samples {
            all_lat.push(smp.lat_ns);
            if matches!(spec.traffic.tenants[i].mode, LoopMode::Closed { .. }) {
                let w = (smp.at_ns as f64 / 1e9 / window_len) as usize;
                if w < spec.windows {
                    per_window[w] += 1;
                }
            }
        }
    }
    all_lat.sort_unstable();
    let head: u64 = per_window.iter().take(2).sum();
    let tail: u64 = per_window.iter().rev().take(2).sum();
    let head_rate = head as f64 / (2.0 * window_len);
    let tail_rate = tail as f64 / (2.0 * window_len);
    let decay_pct = if head > 0 {
        (head as f64 - tail as f64) / head as f64 * 100.0
    } else {
        100.0
    };

    let tenants = runs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut lat: Vec<u64> = r.samples.iter().map(|s| s.lat_ns).collect();
            lat.sort_unstable();
            TenantOutcome {
                name: spec.traffic.tenants[i].name.to_string(),
                mode: match spec.traffic.tenants[i].mode {
                    LoopMode::Open => "open".to_string(),
                    LoopMode::Closed { window } => format!("closed/{window}"),
                },
                accepted: r.accepted,
                shed: r.shed,
                acked: r.acked,
                bytes_acked: r.bytes_acked,
                p50_us: pct_us(&lat, 0.50),
                p99_us: pct_us(&lat, 0.99),
                p999_us: pct_us(&lat, 0.999),
            }
        })
        .collect();

    // Telemetry + watchdog verdicts off the sender (the endpoint the
    // chaos bites: retransmits and failovers are sender-side calls).
    let telemetry_jsonl = a.telemetry_jsonl();
    let verdict_json = a.watchdog_verdict();
    let telemetry_windows = a.telemetry_latest().map_or(0, |w| w.ordinal + 1);
    let alerts: Vec<AlertOutcome> = a
        .alerts()
        .iter()
        .map(|al| AlertOutcome {
            kind: al.kind.label().to_string(),
            window: al.window,
            t_s: al.ts_ns as f64 / 1e9,
            rail: al.rail.map(|r| r as u64),
            value: al.value,
            baseline: al.baseline,
        })
        .collect();
    let watchdog_clean = telemetry_on.then_some(alerts.is_empty());
    // The plan's windows by kind: a full loss is an outage, a lesser one
    // a storm, a bandwidth window a drift.
    let faults: &[Fault] = plan.as_ref().map_or(&[], |p| &p.faults);
    let starts = |pick: fn(Effect) -> bool| -> Vec<Duration> {
        faults
            .iter()
            .filter(|f| pick(f.effect))
            .map(|f| f.from)
            .collect()
    };
    let outages = starts(|e| e == Effect::Loss(1.0));
    let storms = starts(|e| matches!(e, Effect::Loss(p) if p < 1.0));
    let drifts = starts(|e| matches!(e, Effect::Bandwidth(_)));
    let first_s = |at: &[Duration]| at.iter().min().map_or(-1.0, |t| t.as_secs_f64());

    SoakReport {
        seed: spec.seed,
        duration_s: spec.duration.as_secs_f64(),
        windows: spec.windows,
        time_scale: spec.time_scale,
        tenants,
        closed_msgs_per_window: per_window,
        head_rate_hz: head_rate,
        tail_rate_hz: tail_rate,
        decay_pct,
        p50_us: pct_us(&all_lat, 0.50),
        p99_us: pct_us(&all_lat, 0.99),
        p999_us: pct_us(&all_lat, 0.999),
        retransmits: st.retransmits,
        tx_dropped: a.tx_dropped(),
        rx_errors: b.rx_errors(),
        shed_admission: ov.admission_rejections,
        pool_leaks_a: a.pool_leaks(),
        pool_leaks_b: b.pool_leaks(),
        stuck: runs.iter().map(|r| r.stuck).sum(),
        dial_events: storms.len() + drifts.len(),
        outage_count: outages.len(),
        heal_at_s: plan
            .as_ref()
            .map_or(0.0, |_| heal_at(spec.duration).as_secs_f64()),
        p99_ceiling_us: spec.p99_ceiling.as_micros() as u64,
        p999_ceiling_us: spec.p999_ceiling.as_micros() as u64,
        max_decay_pct: spec.max_decay_pct,
        chaos: spec.chaos,
        telemetry_window_s: spec.telemetry_window.as_secs_f64(),
        telemetry_windows,
        alerts,
        watchdog_clean,
        outage_down_s: first_s(&outages),
        storm_at_s: first_s(&storms),
        telemetry_jsonl,
        verdict_json,
    }
}

/// One tenant: paced submissions through the admission boundary, acks
/// reaped as latency samples, full drain at the end.
fn tenant_loop(
    a: &Endpoint,
    b: &Endpoint,
    conn: ConnId,
    tenant: &crate::loadgen::TenantSpec,
    mut rng: Xoshiro256StarStar,
    start: Instant,
    spec: &SoakSpec,
) -> TenantRun {
    /// Open-loop backlog hard cap: past this the tenant self-throttles
    /// by blocking on the oldest request (the generator must not become
    /// its own unbounded queue).
    const OPEN_BACKLOG_CAP: usize = 1024;

    let mut arrivals = ArrivalSampler::new(tenant.arrivals, &mut rng);
    let mut out = TenantRun {
        accepted: 0,
        shed: 0,
        acked: 0,
        bytes_acked: 0,
        stuck: 0,
        samples: Vec::new(),
    };
    // Outstanding requests, oldest first: (send, recv, submitted, bytes).
    type Pending = (SendHandle, RecvHandle, Instant, u64);
    let mut backlog: VecDeque<Pending> = VecDeque::new();
    let drain_end = start + spec.duration + spec.drain_deadline;

    // Reap the oldest entry. Blocking variant waits out the remaining
    // drain budget; a miss there is a stuck request, the soak's cardinal
    // failure.
    let reap = |backlog: &mut VecDeque<Pending>, out: &mut TenantRun, block: bool| {
        let Some((s, r, submitted, bytes)) = backlog.pop_front() else {
            return false;
        };
        let timeout = if block {
            drain_end.saturating_duration_since(Instant::now())
        } else {
            Duration::ZERO
        };
        if s.wait_acked(timeout) {
            let lat = submitted.elapsed();
            out.acked += 1;
            out.bytes_acked += bytes;
            out.samples.push(Sample {
                at_ns: start.elapsed().as_nanos() as u64,
                lat_ns: lat.as_nanos() as u64,
            });
            // Ack means the receiver reassembled it; claim the assembly
            // so buffered messages don't pile up behind the soak.
            if r.wait(Duration::from_secs(10)).is_none() {
                out.stuck += 1;
            }
            true
        } else if block {
            out.stuck += 1;
            true
        } else {
            backlog.push_front((s, r, submitted, bytes));
            false
        }
    };

    while start.elapsed() < spec.duration {
        // Reap what's done; closed loops also enforce their window here.
        while reap(&mut backlog, &mut out, false) {}
        match tenant.mode {
            LoopMode::Closed { window } => {
                while backlog.len() >= window {
                    reap(&mut backlog, &mut out, true);
                }
            }
            LoopMode::Open => {
                while backlog.len() >= OPEN_BACKLOG_CAP {
                    reap(&mut backlog, &mut out, true);
                }
            }
        }

        // Pace, then offer one message to the admission boundary.
        thread::sleep(arrivals.next_gap(&mut rng).min(Duration::from_millis(100)));
        if start.elapsed() >= spec.duration {
            break;
        }
        let size = tenant.sizes.sample(&mut rng) as usize;
        let payload = Bytes::from(vec![0x5Au8; size]);
        match a.try_send(conn, vec![payload]) {
            Ok(s) => {
                let r = b.recv(conn);
                backlog.push_back((s, r, Instant::now(), size as u64));
                out.accepted += 1;
            }
            Err(SubmitError::WouldBlock) => out.shed += 1,
            Err(SubmitError::Shutdown) => break,
        }
    }

    // Drain: after the final heal every outstanding request must ack.
    while !backlog.is_empty() {
        reap(&mut backlog, &mut out, true);
    }
    out
}

/// Percentile of a sorted ns vector, reported in microseconds.
fn pct_us(sorted_ns: &[u64], q: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] / 1_000
}

/// SLO gate. Empty = pass. Latency and decay messages carry "timing"
/// so the bench main can classify load-sensitive failures for its
/// retry-once policy; the ledger gates (leaks, stuck) are deterministic
/// and never retried.
pub fn check(r: &SoakReport) -> Vec<String> {
    let mut v = Vec::new();
    if r.stuck > 0 {
        v.push(format!(
            "{} requests stuck after the final fault healed (gate: 0)",
            r.stuck
        ));
    }
    if r.pool_leaks_a > 0 || r.pool_leaks_b > 0 {
        v.push(format!(
            "pool ledger leaked: sender {} / receiver {} unaccounted buffers (gate: 0)",
            r.pool_leaks_a, r.pool_leaks_b
        ));
    }
    for t in &r.tenants {
        if t.accepted == 0 || t.acked == 0 {
            v.push(format!(
                "tenant {} made no progress: accepted {}, acked {}",
                t.name, t.accepted, t.acked
            ));
        }
    }
    if r.chaos && r.retransmits == 0 && r.tx_dropped == 0 {
        v.push("chaos never bit: zero retransmits and zero injected drops".to_string());
    }
    // Watchdog contract. Chaos run: the injected incidents must be
    // *reported*, promptly — an alert blaming rail 0 within two windows
    // of the outage landing, and a retransmit-storm alert blaming
    // rail 1 within two windows of the first drop storm. Clean run:
    // nothing may fire at all. (The detection gates are load-sensitive,
    // hence "timing" for the retry-once policy; a false positive on a
    // clean fabric is deterministic and never retried.)
    if let Some(clean) = r.watchdog_clean {
        let w = r.telemetry_window_s;
        // Alert timestamps are engine-clock (fabric epoch); injection
        // times are relative to the load start a few ms later. One
        // window of slack on the early side absorbs the skew.
        let within = |t: f64, inject: f64| t >= inject - w && t <= inject + 2.0 * w;
        if !r.chaos {
            if !clean {
                v.push(format!(
                    "clean run fired {} watchdog alert(s): {:?}",
                    r.alerts.len(),
                    r.alerts.iter().map(|a| a.kind.as_str()).collect::<Vec<_>>()
                ));
            }
        } else {
            if !r
                .alerts
                .iter()
                .any(|a| a.rail == Some(0) && within(a.t_s, r.outage_down_s))
            {
                v.push(format!(
                    "timing: no watchdog alert blamed rail 0 within 2 windows of the outage at {:.2}s (alerts: {:?})",
                    r.outage_down_s,
                    r.alerts
                ));
            }
            if !r.alerts.iter().any(|a| {
                a.kind == "retransmit_storm" && a.rail == Some(1) && within(a.t_s, r.storm_at_s)
            }) {
                v.push(format!(
                    "timing: no retransmit-storm alert blamed rail 1 within 2 windows of the drop storm at {:.2}s (alerts: {:?})",
                    r.storm_at_s,
                    r.alerts
                ));
            }
        }
    }
    if r.p99_us > r.p99_ceiling_us {
        v.push(format!(
            "timing: p99 {} us over the {} us ceiling",
            r.p99_us, r.p99_ceiling_us
        ));
    }
    if r.p999_us > r.p999_ceiling_us {
        v.push(format!(
            "timing: p999 {} us over the {} us ceiling",
            r.p999_us, r.p999_ceiling_us
        ));
    }
    if r.decay_pct > r.max_decay_pct {
        v.push(format!(
            "timing: closed-loop throughput decayed {:.1}% head->tail (gate {:.0}%): {:.1} -> {:.1} msgs/s",
            r.decay_pct, r.max_decay_pct, r.head_rate_hz, r.tail_rate_hz
        ));
    }
    v
}

/// Aligned text summary.
pub fn render(r: &SoakReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos soak: seed {} | {:.0}s load, {} windows | {} storm/drift windows, {} outage(s), heal at {:.1}s",
        r.seed, r.duration_s, r.windows, r.dial_events, r.outage_count, r.heal_at_s
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>9} {:>7} {:>9} {:>12} {:>9} {:>9} {:>9}",
        "tenant", "mode", "accepted", "shed", "acked", "bytes", "p50 us", "p99 us", "p999 us"
    );
    for t in &r.tenants {
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>9} {:>7} {:>9} {:>12} {:>9} {:>9} {:>9}",
            t.name,
            t.mode,
            t.accepted,
            t.shed,
            t.acked,
            t.bytes_acked,
            t.p50_us,
            t.p99_us,
            t.p999_us
        );
    }
    let _ = writeln!(
        out,
        "latency: p50 {} us, p99 {} us (ceiling {}), p999 {} us (ceiling {})",
        r.p50_us, r.p99_us, r.p99_ceiling_us, r.p999_us, r.p999_ceiling_us
    );
    let _ = writeln!(
        out,
        "throughput: head {:.1} -> tail {:.1} closed msgs/s ({:+.1}% decay, gate {:.0}%)",
        r.head_rate_hz, r.tail_rate_hz, r.decay_pct, r.max_decay_pct
    );
    let _ = writeln!(
        out,
        "faults: {} retransmits, {} injected drops, {} rx rejects | shed {}",
        r.retransmits, r.tx_dropped, r.rx_errors, r.shed_admission
    );
    let _ = writeln!(
        out,
        "ledgers: pool leaks {}/{} | stuck {}",
        r.pool_leaks_a, r.pool_leaks_b, r.stuck
    );
    if let Some(clean) = r.watchdog_clean {
        let _ = writeln!(
            out,
            "watchdog: {} | {} telemetry windows of {:.0} ms | outage at {:.2}s, storm at {:.2}s",
            if clean { "clean" } else { "alerts fired" },
            r.telemetry_windows,
            r.telemetry_window_s * 1e3,
            r.outage_down_s,
            r.storm_at_s
        );
        for a in &r.alerts {
            let _ = writeln!(
                out,
                "  alert {:>17} at {:>7.2}s window {:>3} rail {:>4} value {:>12.1} baseline {:>10.1}",
                a.kind,
                a.t_s,
                a.window,
                a.rail.map_or("-".to_string(), |x| x.to_string()),
                a.value,
                a.baseline
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum of the `Loss` windows open on `rail` at `at`.
    fn loss(plan: &FaultPlan, rail: usize, at: Duration) -> f64 {
        let open = |f: &&Fault| f.rail == rail && f.from <= at && f.until.is_none_or(|u| at < u);
        let losses = plan.faults.iter().filter(open).map(|f| match f.effect {
            Effect::Loss(p) => p,
            _ => 0.0,
        });
        losses.sum()
    }

    #[test]
    fn schedule_is_deterministic_and_bounded() {
        let d = Duration::from_secs(100);
        let a = chaos_plan(7, d);
        let b = chaos_plan(7, d);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.seed, b.seed);
        // Chaos only in the middle; every chaos window ends by the heal;
        // head and tail stay clean but for the background noise.
        let heal = heal_at(d);
        assert!(heal <= d.mul_f64(0.75));
        for f in &a.faults {
            match f.until {
                Some(until) => {
                    assert!(f.from >= d.mul_f64(0.25), "{f:?}");
                    assert!(f.from < until && until <= heal, "{f:?} past the heal");
                }
                None => {
                    assert_eq!(f.from, Duration::ZERO, "{f:?}");
                    assert!(
                        matches!(f.effect, Effect::Corrupt(p) | Effect::Duplicate(p) | Effect::Reorder(p) if p <= 0.001),
                        "only background noise lasts: {f:?}"
                    );
                }
            }
        }
        let outages = a.faults.iter().filter(|f| f.effect == Effect::Loss(1.0));
        assert_eq!(outages.count(), 1);
    }

    #[test]
    fn schedule_never_blackholes_both_rails() {
        for seed in 0..32 {
            let d = Duration::from_secs(60);
            let plan = chaos_plan(seed, d);
            let outage_end = plan
                .faults
                .iter()
                .filter(|f| f.effect == Effect::Loss(1.0))
                .filter_map(|f| f.until)
                .max()
                .unwrap();
            for f in &plan.faults {
                if let Effect::Loss(p) = f.effect {
                    if p < 1.0 {
                        // Storms only off the outage rail, only after the
                        // outage, and never total loss.
                        assert_ne!(f.rail, 0, "storm on the outage rail (seed {seed})");
                        assert!(f.from >= outage_end, "storm during outage (seed {seed})");
                        assert!(p < 0.9, "storm too close to blackhole (seed {seed})");
                    }
                }
            }
            // No instant with both rails at full loss: the loss on a rail
            // changes only where a window opens or closes.
            let edges = plan.faults.iter().flat_map(|f| [Some(f.from), f.until]);
            for at in edges.flatten() {
                assert!(
                    loss(&plan, 0, at) < 1.0 || loss(&plan, 1, at) < 1.0,
                    "both rails blackholed at {at:?} (seed {seed})"
                );
            }
        }
    }

    /// A miniature end-to-end soak: every machinery piece (traffic,
    /// drift, storms, outage, heal, drain, ledgers) in ~2 s of load.
    #[test]
    fn mini_soak_runs_clean() {
        let mut spec = SoakSpec::smoke(5);
        spec.duration = Duration::from_secs(2);
        spec.windows = 4;
        let r = run(&spec);
        assert_eq!(r.stuck, 0, "{}", render(&r));
        assert_eq!(r.pool_leaks_a + r.pool_leaks_b, 0, "{}", render(&r));
        for t in &r.tenants {
            assert!(t.accepted > 0 && t.acked > 0, "{}", render(&r));
        }
        assert!(
            r.retransmits > 0 || r.tx_dropped > 0,
            "chaos had no effect: {}",
            render(&r)
        );
        // The report replays: serialization carries the seed.
        let json = serde_json::to_string(&r).expect("serializable");
        assert!(json.contains("\"seed\""));
    }

    /// The watchdog correctness gate in miniature: the rail-0 outage
    /// and the rail-1 drop storm must each be reported within two
    /// telemetry windows of injection.
    #[test]
    fn chaos_soak_watchdog_reports_the_injected_incidents() {
        let mut spec = SoakSpec::smoke(11);
        spec.duration = Duration::from_secs(3);
        spec.windows = 4;
        spec.telemetry_window = Duration::from_millis(125);
        let r = run(&spec);
        assert!(r.telemetry_windows > 0, "{}", render(&r));
        let w = r.telemetry_window_s;
        let within = |t: f64, inject: f64| t >= inject - w && t <= inject + 2.0 * w;
        assert!(
            r.alerts
                .iter()
                .any(|a| a.rail == Some(0) && within(a.t_s, r.outage_down_s)),
            "rail-0 outage at {:.2}s unreported: {}",
            r.outage_down_s,
            render(&r)
        );
        assert!(
            r.alerts.iter().any(|a| a.kind == "retransmit_storm"
                && a.rail == Some(1)
                && within(a.t_s, r.storm_at_s)),
            "rail-1 drop storm at {:.2}s unreported: {}",
            r.storm_at_s,
            render(&r)
        );
        let verdict = r.verdict_json.as_deref().expect("watchdog verdict");
        assert!(verdict.contains("\"clean\":false"), "{verdict}");
        // The time series went along for the ride.
        let jsonl = r.telemetry_jsonl.as_deref().expect("telemetry series");
        assert!(jsonl.lines().count() as u64 >= r.telemetry_windows.min(8));
    }

    /// The false-positive half of the contract: a clean fabric under
    /// the same load and the same thresholds fires nothing.
    #[test]
    fn clean_soak_fires_no_alerts() {
        let mut spec = SoakSpec::smoke(11);
        spec.duration = Duration::from_secs(2);
        spec.windows = 4;
        spec.chaos = false;
        spec.telemetry_window = Duration::from_millis(125);
        let r = run(&spec);
        assert_eq!(r.watchdog_clean, Some(true), "{}", render(&r));
        assert!(r.alerts.is_empty(), "{}", render(&r));
        assert!(r.telemetry_windows > 0, "telemetry never closed a window");
        let verdict = r.verdict_json.as_deref().expect("watchdog verdict");
        assert!(verdict.contains("\"clean\":true"), "{verdict}");
        assert_eq!(r.outage_count, 0);
        assert_eq!(r.tx_dropped, 0, "clean run must inject nothing");
        // check() must agree: no watchdog violations on a clean run.
        for v in check(&r) {
            assert!(
                !v.contains("watchdog") && !v.contains("alert"),
                "clean-run watchdog violation: {v}"
            );
        }
    }
}
