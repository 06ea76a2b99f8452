//! Telemetry windows against the flight recorder: a window is the
//! difference of two snapshots of the engine's counters, and over a whole
//! run the windows must add up to exactly what the recorder's events say
//! happened. The workload is seeded, acked and deterministic (the
//! simulator), with a rail outage so that retransmits, failovers, probes
//! and probe pongs all occur; the recorder ring is sized so that it never
//! laps, which makes its events a complete reference.

use newmadeleine::bytes::Bytes;
use newmadeleine::core::obs::{Event, EventKind, NO_RAIL};
use newmadeleine::core::request::SendId;
use newmadeleine::core::{EngineConfig, Observe, StrategyKind, Window};
use newmadeleine::model::platform;
use newmadeleine::runtime_sim::{AppLogic, FaultPlan, NodeApi, SimWorld};
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

#[test]
fn windows_add_up_to_what_the_recorder_saw() {
    let p = platform::paper_platform();
    let n_rails = p.rails.len();
    let mut config = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
    config.acked = true;
    config.observe = Observe::Watch {
        window_ns: WINDOW_NS,
    };
    let mut world = SimWorld::new(&p, config, App::new(0x5EED), App::new(0xFEED));
    // A ring that never laps: the reference must be complete.
    world.enable_recording(1 << 20);
    world.enable_faults(FaultPlan {
        rail: 0,
        down_at: SimTime::ZERO + SimDuration::from_us(400),
        up_at: SimTime::ZERO + SimDuration::from_us(30_000),
        tick: SimDuration::from_us(100),
        until: SimTime::ZERO + SimDuration::from_us(300_000),
        drift: None,
    });
    world.open_conn();
    world.run(50_000_000);
    let end_ns = world.now().0 / 1_000;

    let mut both = Tally::new(n_rails);
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
