//! Telemetry windows against the flight recorder: a window is the
//! difference of two snapshots of the engine's counters, and over a whole
//! run the windows must add up to exactly what the recorder's events say
//! happened. The workload is seeded, acked and deterministic (the
//! simulator), with a rail outage so that retransmits, failovers, probes
//! and probe pongs all occur; the recorder ring is sized so that it never
//! laps, which makes its events a complete reference.
//!
//! The same run holds the exporters to the metric table: a name is one
//! number in every exporter, so the JSONL windows of a counter add up to
//! its Prometheus running total, rail by rail.

use std::time::Duration;

use newmadeleine::bytes::Bytes;
use newmadeleine::core::obs::metrics::{Scope, METRICS};
use newmadeleine::core::obs::{to_prometheus, windows_jsonl, Event, EventKind, NO_RAIL};
use newmadeleine::core::request::SendId;
use newmadeleine::core::{
    Effect, Engine, EngineConfig, Fault, FaultPlan, Observe, StrategyKind, Window,
};
use newmadeleine::model::platform;
use newmadeleine::runtime_sim::{AppLogic, NodeApi, SimWorld};
use newmadeleine::sim::rng::Xoshiro256StarStar;
use newmadeleine::sim::{SimDuration, SimTime};
use newmadeleine::wire::ConnId;

const MESSAGES: usize = 40;
const OUTSTANDING: usize = 4;
/// Telemetry window: 1 ms of engine clock, so the 300 ms run closes
/// about 300 windows (the ring keeps 512: none is overwritten).
const WINDOW_NS: u64 = 1_000_000;

struct App {
    conn: ConnId,
    sizes: Vec<usize>,
    next: usize,
}

impl App {
    fn new(seed: u64) -> Self {
        let mut rng = Xoshiro256StarStar::new(seed);
        let sizes = (0..MESSAGES)
            .map(|_| match rng.range_u64(0, 3) {
                0 => rng.range_usize(16, 2048),
                1 => rng.range_usize(8 << 10, 24 << 10),
                _ => rng.range_usize(64 << 10, 1 << 20),
            })
            .collect();
        App {
            conn: 0,
            sizes,
            next: 0,
        }
    }

    fn submit_next(&mut self, api: &mut NodeApi<'_>) {
        if let Some(&n) = self.sizes.get(self.next) {
            self.next += 1;
            api.submit_send(self.conn, vec![Bytes::from(vec![self.next as u8; n])]);
        }
    }
}

impl AppLogic for App {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        for _ in 0..MESSAGES {
            api.post_recv(self.conn);
        }
        for _ in 0..OUTSTANDING {
            self.submit_next(api);
        }
    }

    fn on_send_complete(&mut self, _send: SendId, api: &mut NodeApi<'_>) {
        self.submit_next(api);
    }
}

/// `(count, sum)` of a quantity.
type CountSum = (u64, u64);

fn add(cs: &mut CountSum, count: u64, sum: u64) {
    cs.0 += count;
    cs.1 += sum;
}

#[derive(Clone, Debug, Default, PartialEq)]
struct RailTally {
    tx: CountSum,
    rx: CountSum,
    rtt: CountSum,
    retransmits: u64,
    failovers: u64,
    probes: u64,
}

#[derive(Debug, Default, PartialEq)]
struct Tally {
    submits: u64,
    acks: CountSum,
    retransmits: u64,
    rails: Vec<RailTally>,
}

impl Tally {
    fn new(n_rails: usize) -> Self {
        Tally {
            rails: vec![RailTally::default(); n_rails],
            ..Tally::default()
        }
    }

    /// What the recorder's events say happened.
    fn of_events<'a>(n_rails: usize, events: impl Iterator<Item = &'a Event>) -> Self {
        let mut t = Tally::new(n_rails);
        for e in events {
            let rail = (e.rail != NO_RAIL).then(|| &mut t.rails[e.rail as usize]);
            match (e.kind, rail) {
                (EventKind::TxPost, Some(r)) => add(&mut r.tx, 1, e.size),
                (EventKind::Rx, Some(r)) => add(&mut r.rx, 1, e.size),
                (EventKind::RttSample | EventKind::ProbeOk, Some(r)) => add(&mut r.rtt, 1, e.aux),
                (EventKind::Failover, Some(r)) => r.failovers += 1,
                (EventKind::ProbeSent, Some(r)) => r.probes += 1,
                (EventKind::AckReceived, _) => add(&mut t.acks, 1, e.aux),
                (EventKind::Submit, _) => t.submits += 1,
                (EventKind::Retransmit, _) => {
                    t.retransmits += 1;
                    // `size` is the mask of every rail the attempt blamed.
                    for (i, r) in t.rails.iter_mut().enumerate() {
                        r.retransmits += e.size >> i & 1;
                    }
                }
                _ => {}
            }
        }
        t
    }

    /// What the telemetry windows add up to.
    fn of_windows<'a>(n_rails: usize, windows: impl Iterator<Item = &'a Window>) -> Self {
        let mut t = Tally::new(n_rails);
        for w in windows {
            let s = &w.stats;
            t.submits += s.msgs_submitted;
            add(&mut t.acks, s.ack_rtt_ns.count(), s.ack_rtt_ns.sum());
            t.retransmits += s.retransmits;
            for (r, rs) in t.rails.iter_mut().zip(&s.rails) {
                add(&mut r.tx, rs.tx_frames(), rs.wire_bytes);
                add(&mut r.rx, rs.rx_packets, rs.rx_wire_bytes);
                add(&mut r.rtt, rs.rtt_ns.count(), rs.rtt_ns.sum());
                r.retransmits += rs.retransmits_blamed;
                r.failovers += rs.failovers;
                r.probes += rs.probes_sent;
            }
        }
        t
    }
}

/// The seeded acked run with an outage, both engines' telemetry folded
/// past the end: every count is in a closed window, and no window or
/// event was overwritten.
fn seeded_run() -> SimWorld<App, App> {
    let p = platform::paper_platform();
    let mut config = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
    config.acked = true;
    config.observe = Observe::Watch {
        window_ns: WINDOW_NS,
    };
    let mut world = SimWorld::new(&p, config, App::new(0x5EED), App::new(0xFEED));
    // A ring that never laps: the reference must be complete.
    world.enable_recording(1 << 20);
    let span = Duration::from_micros(400)..Duration::from_micros(30_000);
    let outage = Fault::during(0, span, Effect::Loss(1.0));
    world.enable_faults(
        &FaultPlan::new(0, vec![outage]),
        SimDuration::from_us(100),
        SimTime::from_us(300_000),
    );
    world.open_conn();
    world.run(50_000_000);
    let end_ns = world.now().0 / 1_000;
    for node in 0..2 {
        let engine = &mut world.node_mut(node).engine;
        // Close the window still filling: every count is in a closed one.
        engine.observe_clock(end_ns + WINDOW_NS);
        engine.fold_telemetry();
        assert_eq!(engine.recorder().dropped(), 0, "the reference lapped");
        let agg = engine
            .telemetry()
            .expect("Observe::Watch builds the windows");
        assert_eq!(
            agg.windows().count() as u64,
            agg.windows_closed(),
            "a window was overwritten"
        );
    }
    world
}

#[test]
fn windows_add_up_to_what_the_recorder_saw() {
    let world = seeded_run();
    let n_rails = world.node(0).engine.stats().rails.len();
    let mut both = Tally::new(n_rails);
    for node in 0..2 {
        let engine = &world.node(node).engine;
        let agg = engine
            .telemetry()
            .expect("Observe::Watch builds the windows");
        let events = Tally::of_events(n_rails, engine.recorder().iter());
        let windows = Tally::of_windows(n_rails, agg.windows());
        assert_eq!(windows, events, "node {node}");
        assert_eq!(events.submits, MESSAGES as u64, "node {node}");
        both.submits += events.submits;
        add(&mut both.acks, events.acks.0, events.acks.1);
        both.retransmits += events.retransmits;
        for (b, r) in both.rails.iter_mut().zip(&events.rails) {
            add(&mut b.tx, r.tx.0, r.tx.1);
            add(&mut b.rx, r.rx.0, r.rx.1);
            add(&mut b.rtt, r.rtt.0, r.rtt.1);
            b.retransmits += r.retransmits;
            b.failovers += r.failovers;
            b.probes += r.probes;
        }
    }
    // Every counter the windows are checked on moved, so dropping any one
    // increment shows.
    assert!(both.acks.0 > 0 && both.retransmits > 0, "{both:?}");
    let outage = &both.rails[0];
    assert!(
        outage.retransmits > 0 && outage.failovers > 0 && outage.probes > 0,
        "{both:?}"
    );
    for r in &both.rails {
        assert!(r.tx.0 > 0 && r.rx.0 > 0 && r.rtt.0 > 0, "{both:?}");
    }
}

/// The keys every line of `BENCH_obs_timeseries.jsonl` carried before the
/// exporters were derived from the metric table: the artifact's readers
/// keep them, each with its meaning.
const SERIES_KEYS: [&str; 15] = [
    "ordinal",
    "start_ns",
    "end_ns",
    "submits",
    "acks",
    "retransmits",
    "sheds",
    "backpressure",
    "alerts",
    "p50_ns",
    "p99_ns",
    "syscalls_per_packet",
    "pool_reuse_rate",
    "pool_outstanding",
    "rails",
];
const SERIES_RAIL_KEYS: [&str; 9] = [
    "tx_frames",
    "tx_bytes",
    "rx_frames",
    "rx_bytes",
    "retransmits",
    "failovers",
    "probes",
    "utilization",
    "p99_ns",
];

/// Prometheus samples by series (`name` or `name{rail="r"}`).
fn prometheus_samples(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').expect("a sample is `series value`");
            (series.to_string(), value.to_string())
        })
        .collect()
}

/// What the JSONL windows add up to for an integer `key`, at
/// `rail` if given.
fn jsonl_sum(lines: &[serde_json::Value], key: &str, rail: Option<usize>) -> u64 {
    lines
        .iter()
        .map(|w| match rail {
            None => w.get(key),
            Some(r) => w
                .get("rails")
                .and_then(|rs| rs.as_array()?.get(r)?.get(key)),
        })
        .map(|v| {
            v.and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("{key} is no count"))
        })
        .sum()
}

#[test]
fn one_name_is_one_number_in_every_exporter() {
    let world = seeded_run();
    for node in 0..2 {
        let engine: &Engine = &world.node(node).engine;
        let agg = engine
            .telemetry()
            .expect("Observe::Watch builds the windows");
        // One instant: the last fold closed the last window with the
        // counters as they are now.
        let prom = prometheus_samples(&to_prometheus(agg, engine.stats()));
        let sample = |series: &str| prom.iter().find(|(s, _)| s == series).map(|(_, v)| v);
        let lines: Vec<serde_json::Value> = windows_jsonl(agg)
            .lines()
            .map(|l| serde_json::from_str(l).expect("each window is a JSON object"))
            .collect();
        assert_eq!(lines.len() as u64, agg.windows_closed());
        for line in &lines {
            for key in SERIES_KEYS {
                assert!(line.get(key).is_some(), "node {node}: no {key}");
            }
            for rail in line.get("rails").and_then(|r| r.as_array()).unwrap() {
                for key in SERIES_RAIL_KEYS {
                    assert!(rail.get(key).is_some(), "node {node}: no rail {key}");
                }
            }
        }
        let n_rails = engine.stats().rails.len();
        let mut moved = 0;
        for m in METRICS {
            let rails: Vec<Option<usize>> = match m.scope {
                Scope::Engine => vec![None],
                Scope::Rail => (0..n_rails).map(Some).collect(),
            };
            for rail in rails {
                let label = rail.map_or(String::new(), |r| format!("{{rail=\"{r}\"}}"));
                let window = format!("{}{label}", m.prometheus_name(true));
                assert!(sample(&window).is_some(), "node {node}: no {window}");
                if !m.is_counter() {
                    continue;
                }
                let total = format!("{}{label}", m.prometheus_name(false));
                let total = sample(&total).unwrap_or_else(|| panic!("node {node}: no {total}"));
                let summed = jsonl_sum(&lines, m.name, rail);
                assert_eq!(
                    total.parse::<u64>().unwrap(),
                    summed,
                    "node {node}: {} at {rail:?}: Prometheus total against the windows' sum",
                    m.name
                );
                moved += usize::from(summed > 0);
            }
        }
        assert!(moved > 10, "node {node}: only {moved} counters moved");
    }
}
