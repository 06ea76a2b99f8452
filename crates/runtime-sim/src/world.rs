//! The simulated two-node world.
//!
//! Each node owns a real [`Engine`] plus the modelled hardware: a CPU
//! ([`nmad_sim::MultiResource`]) that serializes PIO injections, memcpys and software
//! overheads; an I/O bus ([`FluidChannel`]) that DMA transfers drain
//! through with max-min fairness; and the per-rail wire latencies. The
//! event loop implements the timing semantics the paper's observations
//! hinge on:
//!
//! * **PIO** occupies a CPU core for the whole injection, so with the
//!   paper's single-threaded engine (1 core) two sub-8 KiB packets on
//!   different rails serialize (the §3.2 crossover); configuring
//!   `HostModel::cores = 2` simulates the §4 future-work multi-threaded
//!   engine with parallel PIO;
//! * **DMA** costs only a descriptor setup on the CPU, then contends on
//!   the bus (the 1675 MB/s plateau and the Fig. 7 hetero-split headroom);
//! * every scheduling pass pays `sched_cost + Σ poll_cost(rail)` — the
//!   poll penalty of carrying a second NIC that Fig. 6 isolates.

use std::collections::HashMap;

use bytes::Bytes;
use nmad_core::engine::Engine;
use nmad_core::obs::{summary, Event, EventKind, FlightRecorder};
use nmad_core::request::{RecvId, SendId};
use nmad_core::{Effect, EngineConfig, FaultPlan};
use nmad_model::{HostModel, NicModel, Platform, RailId, TxMode};
use nmad_sim::{
    EventQueue, FlowId, FluidChannel, Grant, MultiResource, SimDuration, SimTime,
    Xoshiro256StarStar,
};
use nmad_wire::{ConnId, PacketFrame, SmallList};

use crate::script::Script;

/// The fault plan a world runs under, its bounds in simulated time, and
/// the engine progress ticks that come with it: they drive the health
/// tracker's timer wheel. Without a plan the simulation has neither.
struct Faults {
    plan: FaultPlan<SimTime>,
    /// Draws for losses short of a full outage (none inside one).
    rng: Xoshiro256StarStar,
    /// Interval between engine progress ticks (timer-wheel granularity).
    tick: SimDuration,
    /// No tick is scheduled past this instant (bounds the event queue).
    until: SimTime,
}

struct PendingDma {
    rail: usize,
    token: nmad_core::driver::TxToken,
    frame: PacketFrame,
    started: SimTime,
}

/// One simulated node: engine + hardware occupancy state.
pub struct Node {
    host: HostModel,
    rails: Vec<NicModel>,
    /// The real NewMadeleine engine.
    pub engine: Engine,
    cpu: MultiResource,
    bus: FluidChannel,
    dma: HashMap<FlowId, PendingDma>,
    kick_pending: bool,
}

impl Node {
    fn new(platform: &Platform, config: EngineConfig) -> Self {
        let mut engine = Engine::new(config, platform.rails.clone(), vec![]);
        engine.conn_open(); // conn 0, the one a Script speaks on
        Node {
            host: platform.host.clone(),
            rails: platform.rails.clone(),
            engine,
            cpu: MultiResource::new("cpu", platform.host.cores),
            bus: FluidChannel::new("iobus", platform.host.bus_capacity),
            dma: HashMap::new(),
            kick_pending: false,
        }
    }
}

#[derive(Debug)]
enum Ev {
    /// Request a scheduling pass on a node (CPU must be grabbed first).
    Kick(usize),
    /// The scheduling pass itself (CPU grant reached).
    Sched(usize),
    /// A PIO injection finished: rail idle, packet on the wire.
    PioDone {
        node: usize,
        rail: usize,
        token: nmad_core::driver::TxToken,
    },
    /// CPU finished programming a DMA descriptor: start draining.
    DmaStart {
        node: usize,
        rail: usize,
        token: nmad_core::driver::TxToken,
        frame: PacketFrame,
    },
    /// Re-examine the node's bus for flow completions.
    BusCheck { node: usize, epoch: u64 },
    /// A packet reached the destination NIC (before rx software overhead).
    /// The frame travels as refcounted parts — the modelled wire moves
    /// bytes without the simulator ever flattening them.
    Arrive {
        node: usize,
        rail: usize,
        frame: PacketFrame,
    },
    /// Rx overhead paid; hand the frame to the engine.
    Deliver {
        node: usize,
        rail: usize,
        frame: PacketFrame,
    },
    /// Periodic engine progress pass (retransmission timers, health
    /// probes). Only scheduled when a fault plan is installed.
    Tick,
}

/// Handle through which a node's [`Script`] acts on its node, on conn 0.
pub(crate) struct NodeApi<'a> {
    idx: usize,
    node: &'a mut Node,
    queue: &'a mut EventQueue<Ev>,
    now: SimTime,
}

impl NodeApi<'_> {
    /// Current virtual time.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Submit a non-blocking multi-segment send (collect layer only; the
    /// engine transmits when NICs go idle).
    pub(crate) fn submit_send(&mut self, segments: Vec<Bytes>) -> SendId {
        let id = self.node.engine.submit_send(0, segments);
        let g = self.node.cpu.acquire(self.now, self.node.host.submit_cost);
        schedule_kick(self.idx, self.node, self.queue, g.end);
        id
    }

    /// Post a non-blocking receive. Posting can release parked rendezvous
    /// grants, so the engine gets a scheduling pass if work appeared.
    pub(crate) fn post_recv(&mut self) {
        self.node.engine.post_recv(0);
        if self.node.engine.has_tx_work() {
            let at = self.now;
            schedule_kick(self.idx, self.node, self.queue, at);
        }
    }

    /// Occupy the CPU with application computation for `dur`. While the
    /// CPU computes, submitted requests pile up in the backlog — the §2
    /// scenario where "the communication support accumulates packets while
    /// the NIC is busy" (here: while the *CPU* is busy) and the optimizer
    /// then processes the whole window at once.
    pub(crate) fn compute(&mut self, dur: SimDuration) {
        let g = self.node.cpu.acquire(self.now, dur);
        schedule_kick(self.idx, self.node, self.queue, g.end);
    }
}

/// The sends an `on_tx_done` completed, copied out of the list the
/// engine lends: the hooks they fire drive the engine again.
fn sends_of(completed: &[(SendId, ConnId)]) -> SmallList<SendId, 8> {
    completed.iter().map(|&(s, _)| s).collect()
}

fn schedule_kick(idx: usize, node: &mut Node, queue: &mut EventQueue<Ev>, at: SimTime) {
    if node.kick_pending {
        return;
    }
    node.kick_pending = true;
    queue.push(at, Ev::Kick(idx));
}

/// The two-node simulation.
pub struct SimWorld {
    queue: EventQueue<Ev>,
    nodes: Vec<Node>,
    apps: [Script; 2],
    /// Hardware-model flight recorder (disabled by default; see
    /// [`SimWorld::enable_recording`]). Sim-only activity — CPU grants
    /// and the rails' PIO and DMA occupancies (intervals: stamped at
    /// their start, their end in `seq`), fault-plan losses, app-level
    /// completions — lands here with `actor` = node index; engine-level
    /// lifecycle events land in each node engine's own recorder.
    /// Consumers merge the three streams by timestamp; the CPU and rail
    /// lanes of [`nmad_core::obs::gantt`] are drawn from it.
    pub recorder: FlightRecorder,
    faults: Option<Faults>,
    /// Packets lost to the fault plan's loss windows.
    pub packets_lost: u64,
    events: u64,
}

impl SimWorld {
    /// Build a symmetric two-node world: both ends run `platform` with an
    /// engine configured by `config` and conn 0 open, node 0 runs `app0`
    /// and node 1 `app1`.
    pub fn new(platform: &Platform, config: EngineConfig, app0: Script, app1: Script) -> Self {
        SimWorld {
            queue: EventQueue::new(),
            nodes: vec![
                Node::new(platform, config.clone()),
                Node::new(platform, config),
            ],
            apps: [app0, app1],
            recorder: FlightRecorder::disabled(),
            faults: None,
            packets_lost: 0,
            events: 0,
        }
    }

    /// Run under `plan` (its windows count from `SimTime::ZERO`), with an
    /// engine progress pass every `tick` up to `until`. A window loses
    /// the frames that arrive on its rail in either direction, or scales
    /// the bandwidth of the DMA drains that start on it (PIO injections,
    /// the small control traffic, keep their speed).
    ///
    /// Panics on a plan the sim cannot apply in full
    /// ([`FaultPlan::refused`]): it applies `Loss` and `Bandwidth` only —
    /// its receive path panics on a CRC error, its unacked runs on a
    /// duplicate, and it holds no frame back to reorder.
    pub fn enable_faults(&mut self, plan: &FaultPlan, tick: SimDuration, until: SimTime) {
        let applies = |e| matches!(e, Effect::Loss(_) | Effect::Bandwidth(_));
        if let Some(f) = plan.refused(self.nodes[0].rails.len(), applies) {
            panic!("the sim cannot apply {f:?}");
        }
        self.faults = Some(Faults {
            plan: plan.in_unit(|d| SimTime::from_ns(d.as_nanos() as u64)),
            rng: Xoshiro256StarStar::new(plan.seed),
            tick,
            until,
        });
    }

    /// Start flight-recording: the world keeps `capacity` hardware-model
    /// events per stream, and both node engines get rings of the same
    /// capacity for their lifecycle events. Recording only observes: the
    /// engines see the same clock, and decide the same, with it on or off.
    pub fn enable_recording(&mut self, capacity: usize) {
        self.recorder = FlightRecorder::with_capacity(capacity);
        for n in &mut self.nodes {
            *n.engine.recorder_mut() = FlightRecorder::with_capacity(capacity);
        }
    }

    /// All recorded events (hardware-model stream plus both engines),
    /// merged by timestamp. The world stream already carries node indices
    /// in `actor`; engine events are re-stamped with their node index.
    pub fn merged_events(&self) -> Vec<Event> {
        let mut all: Vec<Event> = self.recorder.iter().copied().collect();
        for (i, n) in self.nodes.iter().enumerate() {
            all.extend(n.engine.recorder().iter().map(|e| {
                let mut e = *e;
                e.actor = i as u16;
                e
            }));
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Events the three recording rings lost to overflow.
    pub fn events_dropped(&self) -> u64 {
        let engines: u64 = self
            .nodes
            .iter()
            .map(|n| n.engine.recorder().dropped())
            .sum();
        engines + self.recorder.dropped()
    }

    fn now_ns(now: SimTime) -> u64 {
        // SimTime counts picoseconds; the recorder timestamps in ns.
        now.0 / 1_000
    }

    /// A hardware-model event to record (none while recording is off).
    fn sim_event(&self, now: SimTime, kind: EventKind, node: usize) -> Option<Event> {
        if !self.recorder.is_enabled() {
            return None;
        }
        Some(Event::new(Self::now_ns(now), kind).actor(node as u16))
    }

    /// A hardware-model interval to record: stamped at its start, its
    /// end in `seq`.
    fn sim_span(&self, kind: EventKind, node: usize, g: Grant) -> Option<Event> {
        let e = self.sim_event(g.start, kind, node)?;
        Some(e.seq(Self::now_ns(g.end)))
    }

    /// Replace both engines' sampling tables.
    pub fn set_tables(&mut self, tables: Vec<nmad_core::PerfTable>) {
        self.nodes[0].engine.set_tables(tables.clone());
        self.nodes[1].engine.set_tables(tables);
    }

    /// Node accessor.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Mutable node accessor (e.g. to run one more engine pass after the
    /// run).
    pub fn node_mut(&mut self, i: usize) -> &mut Node {
        &mut self.nodes[i]
    }

    /// Application of node 0.
    pub fn app0(&self) -> &Script {
        &self.apps[0]
    }

    /// Application of node 1.
    pub fn app1(&self) -> &Script {
        &self.apps[1]
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Start both scripts at t = 0 and process events until the queue
    /// drains or `max_events` is hit (a safety net against livelock bugs —
    /// exceeding it panics with the trace rendered).
    pub fn run(&mut self, max_events: u64) {
        self.start_apps();
        if let Some(f) = &self.faults {
            self.queue.push(SimTime::ZERO + f.tick, Ev::Tick);
        }
        while let Some((now, ev)) = self.queue.pop() {
            self.events += 1;
            if self.events > max_events {
                panic!(
                    "simulation exceeded {max_events} events at {now}; recorded:\n{}",
                    summary(&self.merged_events(), None)
                );
            }
            self.dispatch(now, ev);
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        // The engines' clock is the world's, on every event.
        let ns = Self::now_ns(now);
        for n in &mut self.nodes {
            n.engine.observe_clock(ns);
        }
        match ev {
            Ev::Kick(i) => {
                if !self.nodes[i].engine.has_tx_work() {
                    self.nodes[i].kick_pending = false;
                    return;
                }
                // One scheduling pass: the global scheduler polls every
                // enabled NIC and runs the strategy.
                let poll_total: SimDuration = self.nodes[i].rails.iter().map(|r| r.poll_cost).sum();
                let cost = self.nodes[i].host.sched_cost + poll_total;
                let g = self.nodes[i].cpu.acquire(now, cost);
                self.queue.push(g.end, Ev::Sched(i));
            }
            Ev::Sched(i) => {
                self.nodes[i].kick_pending = false;
                for r in 0..self.nodes[i].rails.len() {
                    let d = self.nodes[i]
                        .engine
                        .next_tx(RailId(r))
                        .expect("engine invariant violated");
                    if let Some(decision) = d {
                        // The rail is busy until its on_tx_done.
                        self.launch(i, r, decision, now);
                    }
                }
            }
            Ev::PioDone { node, rail, token } => {
                let completed = sends_of(
                    self.nodes[node]
                        .engine
                        .on_tx_done(RailId(rail), token)
                        .expect("tx token must be valid"),
                );
                for s in completed {
                    self.fire_send_complete(node, now, s);
                }
                schedule_kick(node, &mut self.nodes[node], &mut self.queue, now);
            }
            Ev::DmaStart {
                node,
                rail,
                token,
                frame,
            } => {
                let mut cap = self.nodes[node].rails[rail].link_bandwidth;
                // Bandwidth drift: a flow started inside the window drains
                // at the scaled rate for its whole lifetime (fluid
                // approximation — chunk drains are short relative to the
                // drift window).
                cap *= self
                    .faults
                    .as_ref()
                    .map_or(1.0, |f| f.plan.bandwidth(rail, now));
                let len = frame.wire_len() as u64;
                let flow = self.nodes[node].bus.add_flow(now, len, cap);
                self.nodes[node].dma.insert(
                    flow,
                    PendingDma {
                        rail,
                        token,
                        frame,
                        started: now,
                    },
                );
                self.schedule_bus_check(node, now);
            }
            Ev::BusCheck { node, epoch } => {
                if epoch != self.nodes[node].bus.epoch() {
                    return; // stale: rates changed since this was scheduled
                }
                let Some((fid, t, ep)) = self.nodes[node].bus.next_completion() else {
                    return;
                };
                debug_assert_eq!(ep, epoch);
                debug_assert!(t <= now, "bus check fired early: {t:?} vs {now:?}");
                if self.nodes[node].bus.try_complete(now, fid) {
                    let PendingDma {
                        rail,
                        token,
                        frame,
                        started,
                    } = self.nodes[node]
                        .dma
                        .remove(&fid)
                        .expect("completed flow must be tracked");
                    let drain = Grant {
                        start: started,
                        end: now,
                    };
                    if let Some(e) = self.sim_span(EventKind::SimBus, node, drain) {
                        self.recorder
                            .record(e.rail(rail).size(frame.wire_len() as u64));
                    }
                    let completed = sends_of(
                        self.nodes[node]
                            .engine
                            .on_tx_done(RailId(rail), token)
                            .expect("tx token must be valid"),
                    );
                    let dst = 1 - node;
                    let lat = self.nodes[node].rails[rail].wire_latency;
                    self.queue.push(
                        now + lat,
                        Ev::Arrive {
                            node: dst,
                            rail,
                            frame,
                        },
                    );
                    for s in completed {
                        self.fire_send_complete(node, now, s);
                    }
                    schedule_kick(node, &mut self.nodes[node], &mut self.queue, now);
                }
                self.schedule_bus_check(node, now);
            }
            Ev::Arrive { node, rail, frame } => {
                let lost = |f: &mut Faults| f.plan.lost(rail, now, &mut f.rng);
                if self.faults.as_mut().is_some_and(lost) {
                    self.packets_lost += 1;
                    if let Some(e) = self.sim_event(now, EventKind::SimNic, node) {
                        self.recorder
                            .record(e.rail(rail).size(frame.wire_len() as u64).aux(1));
                    }
                    return;
                }
                let rx = self.nodes[node].rails[rail].rx_overhead;
                let g = self.nodes[node].cpu.acquire(now, rx);
                if let Some(e) = self.sim_span(EventKind::SimCpu, node, g) {
                    self.recorder
                        .record(e.rail(rail).size(frame.wire_len() as u64));
                }
                self.queue.push(g.end, Ev::Deliver { node, rail, frame });
            }
            Ev::Deliver { node, rail, frame } => {
                let outcome = self.nodes[node]
                    .engine
                    .on_frame(RailId(rail), &frame)
                    .unwrap_or_else(|e| panic!("n{node} rx error: {e}"));
                // (The engine lends the outcome; the hooks below need it.)
                let recvs: SmallList<RecvId, 8> = outcome.completed_recvs.iter().copied().collect();
                for recv in recvs {
                    let msg = self.nodes[node]
                        .engine
                        .try_recv(recv)
                        .expect("completed recv has a result");
                    if let Some(e) = self.sim_event(now, EventKind::SimApp, node) {
                        self.recorder.record(e.seq(recv.0).aux(1));
                    }
                    let (app, mut api) = self.app(node, now);
                    app.on_recv_complete(msg, &mut api);
                }
                schedule_kick(node, &mut self.nodes[node], &mut self.queue, now);
            }
            Ev::Tick => {
                for i in 0..self.nodes.len() {
                    let _ = self.nodes[i].engine.progress(ns);
                    if self.nodes[i].engine.has_tx_work() {
                        schedule_kick(i, &mut self.nodes[i], &mut self.queue, now);
                    }
                }
                let f = self
                    .faults
                    .as_ref()
                    .expect("ticks only run with a fault plan");
                let next = now + f.tick;
                if next <= f.until {
                    self.queue.push(next, Ev::Tick);
                }
            }
        }
    }

    fn launch(&mut self, node: usize, rail: usize, d: nmad_core::TxDecision, now: SimTime) {
        let nic = self.nodes[node].rails[rail].clone();
        let host = self.nodes[node].host.clone();
        let mut cpu_cost = nic.tx_overhead;
        if d.copied_bytes > 0 {
            cpu_cost += host.memcpy_time(d.copied_bytes);
        }
        let wire_len = d.frame.wire_len();
        let g = match d.mode {
            TxMode::Pio => {
                cpu_cost += nic.pio_injection_time(wire_len);
                let g = self.nodes[node].cpu.acquire(now, cpu_cost);
                // The injection holds the rail as long as the CPU.
                if let Some(e) = self.sim_span(EventKind::SimNic, node, g) {
                    self.recorder.record(e.rail(rail).size(wire_len as u64));
                }
                self.queue.push(
                    g.end,
                    Ev::PioDone {
                        node,
                        rail,
                        token: d.token,
                    },
                );
                self.queue.push(
                    g.end + nic.wire_latency,
                    Ev::Arrive {
                        node: 1 - node,
                        rail,
                        frame: d.frame,
                    },
                );
                g
            }
            _ => {
                cpu_cost += nic.dma_setup;
                let g = self.nodes[node].cpu.acquire(now, cpu_cost);
                self.queue.push(
                    g.end,
                    Ev::DmaStart {
                        node,
                        rail,
                        token: d.token,
                        frame: d.frame,
                    },
                );
                g
            }
        };
        if let Some(e) = self.sim_span(EventKind::SimCpu, node, g) {
            let copied = d.copied_bytes as u64;
            self.recorder
                .record(e.rail(rail).size(wire_len as u64).aux(copied));
        }
    }

    fn schedule_bus_check(&mut self, node: usize, now: SimTime) {
        if let Some((_, t, ep)) = self.nodes[node].bus.next_completion() {
            self.queue
                .push(t.max(now), Ev::BusCheck { node, epoch: ep });
        }
    }

    fn fire_send_complete(&mut self, node: usize, now: SimTime, send: SendId) {
        if let Some(e) = self.sim_event(now, EventKind::SimApp, node) {
            self.recorder.record(e.seq(send.0));
        }
        let (app, mut api) = self.app(node, now);
        app.on_send_complete(send, &mut api);
    }

    /// Run both scripts' steps up to their first wait, at t = 0.
    pub(crate) fn start_apps(&mut self) {
        for node in 0..2 {
            let (app, mut api) = self.app(node, SimTime::ZERO);
            app.advance(&mut api);
        }
    }

    /// Node `node`'s script, and the handle it acts through at `now`.
    fn app(&mut self, node: usize, now: SimTime) -> (&mut Script, NodeApi<'_>) {
        let api = NodeApi {
            idx: node,
            node: &mut self.nodes[node],
            queue: &mut self.queue,
            now,
        };
        (&mut self.apps[node], api)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{Script, Step};
    use nmad_core::{Fault, StrategyKind};
    use nmad_model::platform;
    use std::time::Duration;

    /// One message of `payloads` from node 0 to node 1.
    fn one_shot(strategy: StrategyKind, payloads: Vec<Bytes>) -> SimWorld {
        let p = platform::paper_platform();
        SimWorld::new(
            &p,
            EngineConfig::with_strategy(strategy),
            Script::new(vec![Step::Send(payloads)]),
            Script::receiver(1),
        )
    }

    /// Run [`one_shot`]; returns the delivery time with the world.
    fn transfer(strategy: StrategyKind, payloads: Vec<Bytes>) -> (SimTime, SimWorld) {
        let mut w = one_shot(strategy, payloads);
        w.run(1_000_000);
        assert_eq!(w.app1().deliveries().len(), 1, "delivered");
        let t = w.app1().last_delivery_at();
        (t, w)
    }

    /// Completions without the engine's say, to test a script's own
    /// rules.
    impl SimWorld {
        /// Tell node `node`'s script that `send` completed.
        pub(crate) fn complete_send(&mut self, node: usize, send: SendId) {
            self.fire_send_complete(node, self.now(), send);
        }

        /// Hand node `node`'s script a delivery of `len` bytes.
        pub(crate) fn complete_recv(&mut self, node: usize, len: usize) {
            let segments = vec![Bytes::from(vec![0u8; len])];
            let msg = nmad_wire::reassembly::MessageAssembly {
                msg_id: 0,
                segments,
            };
            let (app, mut api) = self.app(node, self.now());
            app.on_recv_complete(msg, &mut api);
        }
    }

    /// `n` messages of `size` bytes, all submitted at start.
    fn pipeline(n: usize, size: usize) -> Script {
        Script::new(
            (0..n)
                .map(|i| Step::Send(vec![Bytes::from(vec![i as u8; size])]))
                .collect(),
        )
    }

    #[test]
    fn small_message_latency_near_quadrics_floor() {
        // The adaptive strategy routes a tiny message over Quadrics; the
        // one-way time must land near the 1.7 us hardware floor plus the
        // engine's scheduling/poll costs.
        let (t, w) = transfer(StrategyKind::AdaptiveSplit, vec![Bytes::from(vec![0u8; 4])]);
        let us = t.as_us_f64();
        assert!(
            (1.7..3.2).contains(&us),
            "4B transfer took {us} us, expected ~1.7-3.2 us"
        );
        // It must actually have used Quadrics (rail 1).
        assert_eq!(w.node(0).engine.stats().rails[1].packets, 1);
        assert_eq!(w.node(0).engine.stats().rails[0].packets, 0);
    }

    #[test]
    fn large_message_bandwidth_near_rail_sum() {
        let size = 8 << 20;
        let (t, w) = transfer(
            StrategyKind::AdaptiveSplit,
            vec![Bytes::from(vec![7u8; size])],
        );
        let bw = size as f64 / t.as_secs_f64() / 1e6;
        // Hetero split over both rails under the 1950 MB/s bus: expect
        // ~1800-1950 MB/s (beats both single rails and the iso bound).
        assert!(
            (1750.0..1960.0).contains(&bw),
            "8MB adaptive-split bandwidth {bw} MB/s"
        );
        let s = w.node(0).engine.stats();
        assert!(s.rails[0].payload_bytes > 0 && s.rails[1].payload_bytes > 0);
    }

    #[test]
    fn single_rail_bandwidth_matches_calibration() {
        let size = 8 << 20;
        let (t, _) = transfer(
            StrategyKind::SingleRail(0),
            vec![Bytes::from(vec![7u8; size])],
        );
        let bw = size as f64 / t.as_secs_f64() / 1e6;
        assert!((bw - 1200.0).abs() < 40.0, "Myri-only bandwidth {bw}");
        let (t, _) = transfer(
            StrategyKind::SingleRail(1),
            vec![Bytes::from(vec![7u8; size])],
        );
        let bw = size as f64 / t.as_secs_f64() / 1e6;
        assert!((bw - 850.0).abs() < 30.0, "Quadrics-only bandwidth {bw}");
    }

    #[test]
    fn greedy_two_segments_hits_equal_split_plateau() {
        let seg = 4 << 20;
        let (t, w) = transfer(
            StrategyKind::Greedy,
            vec![Bytes::from(vec![1u8; seg]), Bytes::from(vec![2u8; seg])],
        );
        let bw = (2 * seg) as f64 / t.as_secs_f64() / 1e6;
        // Equal split paced by Quadrics: bound 1702, measured 1675 in the
        // paper. Allow the same neighbourhood.
        assert!(
            (1600.0..1710.0).contains(&bw),
            "greedy 2x4MB bandwidth {bw} MB/s"
        );
        let s = w.node(0).engine.stats();
        assert!(s.rails[0].payload_bytes > 0 && s.rails[1].payload_bytes > 0);
    }

    #[test]
    fn payload_integrity_through_split_transfer() {
        let mut rng = nmad_sim::Xoshiro256StarStar::new(42);
        let mut data = vec![0u8; 3_000_000];
        rng.fill_bytes(&mut data);
        let payload = Bytes::from(data.clone());
        let (_, w) = transfer(StrategyKind::AdaptiveSplit, vec![payload]);
        let got = w.app1().last_message();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].as_ref(), data.as_slice());
        // Not a byte copied at either end: every chunk is a slice of the
        // sender's segment, handed to `on_frame` in the frame it left in,
        // so reassembly re-joins the chunks instead of gathering them.
        for node in 0..2 {
            let d = w.node(node).engine.stats().datapath;
            assert_eq!(d.tx_staged_copy_bytes, 0, "node {node}: {d:?}");
            assert_eq!(d.rx_copy_bytes, 0, "node {node}: {d:?}");
        }
        // The receiver still holds each frame when its injection
        // completes: the pool parks the head and serves it again.
        let d = w.node(0).engine.stats().datapath;
        assert!(d.pool_hits > 0, "no head came back from the pool: {d:?}");
    }

    #[test]
    fn sender_reports_local_completion() {
        let (delivered_at, w) = transfer(StrategyKind::Greedy, vec![Bytes::from(vec![0u8; 1024])]);
        let send_done_at = w.app0().completions().first().map(|&(_, t)| t);
        assert!(send_done_at.is_some());
        assert!(send_done_at.unwrap() <= delivered_at);
    }

    #[test]
    fn compute_phase_builds_an_aggregation_window() {
        // Submit 6 tiny messages interleaved with CPU computation: the
        // engine cannot transmit while the CPU computes (single core), so
        // the backlog accumulates and the aggregating strategy batches it.
        let busy = (0..6u8).flat_map(|i| {
            let send = Step::Send(vec![Bytes::from(vec![i; 32])]);
            [send, Step::Compute(SimDuration::from_us(2))]
        });
        let p = platform::paper_platform();
        let mut w = SimWorld::new(
            &p,
            EngineConfig::with_strategy(StrategyKind::AggregateEager),
            Script::new(busy.collect()),
            Script::receiver(6),
        );
        w.run(1_000_000);
        assert_eq!(w.app1().deliveries().len(), 6, "all messages delivered");
        let s = w.node(0).engine.stats();
        // The first message may leave alone (NIC idle at submit time), but
        // the compute phase must force at least one aggregate of the rest.
        assert!(
            s.aggregates_built >= 1,
            "compute phase must build an aggregation window: {s:?}"
        );
        assert!(
            s.total_packets() < 6,
            "fewer physical packets than messages: {}",
            s.total_packets()
        );
    }

    #[test]
    fn timeline_shows_pio_serialization_and_dma_overlap() {
        use nmad_core::obs::gantt;

        fn run(total: usize) -> Vec<Event> {
            let seg = total / 2;
            let payloads = vec![Bytes::from(vec![1u8; seg]), Bytes::from(vec![2u8; seg])];
            let mut w = one_shot(StrategyKind::Greedy, payloads);
            w.enable_recording(1 << 14);
            w.run(1_000_000);
            assert_eq!(w.events_dropped(), 0, "ring too small");
            w.merged_events()
        }

        fn overlap(events: &[Event], a: &str, b: &str) -> bool {
            let lanes = gantt::lanes(events);
            let busy = |name: &str| {
                let lane = lanes.iter().find(|l| l.name() == name);
                lane.map_or(vec![], |l| l.busy.clone())
            };
            let (a, b) = (busy(a), busy(b));
            a.iter()
                .any(|x| b.iter().any(|y| x.0 < y.1 && y.0 < x.1 && x.1 > x.0))
        }

        // PIO case (2 x 2 KiB): rail lanes are CPU lanes, so the two
        // injections must NOT overlap in time.
        let events = run(4 << 10);
        assert!(
            !overlap(&events, "n0.rail0", "n0.rail1"),
            "PIO injections must serialize:\n{}",
            gantt::render(&events, 0, 60)
        );

        // DMA case (2 x 512 KiB): the two rail transfers must overlap.
        let events = run(1 << 20);
        assert!(
            overlap(&events, "n0.rail0", "n0.rail1"),
            "DMA transfers must overlap:\n{}",
            gantt::render(&events, 0, 60)
        );
    }

    #[test]
    fn bandwidth_reconverges_to_surviving_rail_after_failure() {
        // Rail 0 (Myri, the fast one) dies 100 us into a 10 x 1 MiB acked
        // pipeline and stays dead past the last delivery. The engine must
        // blame it, fail over, and the steady-state bandwidth of the tail
        // of the pipeline must re-converge to the surviving Quadrics
        // rail's plateau (~850 MB/s, calibrated by
        // `single_rail_bandwidth_matches_calibration`) within 10%. Once
        // the link heals, probes must reinstate the rail through the full
        // Up -> Suspect -> Down -> Probing -> Up cycle.
        use nmad_core::{health, RailState};

        const N: usize = 10;
        const SIZE: usize = 1 << 20;

        let p = platform::paper_platform();
        let mut cfg = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
        cfg.acked = true;
        // Timers scaled to simulated microseconds.
        cfg.health.initial_rto_ns = 300_000;
        cfg.health.min_rto_ns = 100_000;
        cfg.health.max_rto_ns = 5_000_000;
        cfg.health.probe_interval_ns = 500_000;
        cfg.health.probe_timeout_ns = 300_000;
        let mut w = SimWorld::new(&p, cfg, pipeline(N, SIZE), Script::receiver(N));
        // The health path is read from the recorded transitions.
        w.enable_recording(1 << 16);
        let span = Duration::from_micros(100)..Duration::from_micros(25_000);
        let outage = Fault::during(0, span, Effect::Loss(1.0));
        w.enable_faults(
            &FaultPlan::new(0, vec![outage]),
            SimDuration::from_us(50),
            SimTime::from_us(35_000),
        );
        w.run(5_000_000);

        let times: Vec<SimTime> = w.app1().deliveries().iter().map(|&(_, t)| t).collect();
        assert_eq!(times.len(), N, "all messages must survive the outage");
        assert!(w.packets_lost > 0, "the outage must actually bite");
        let s0 = w.node(0).engine.stats().clone();
        assert!(s0.retransmits > 0, "recovery must use retransmission");
        assert!(s0.rails[0].timeouts > 0, "rail 0 must take the blame");

        // Steady state: after failover settles (~1.4 ms) the pipeline
        // streams back-to-back over the surviving rail. The messages
        // caught mid-flight by the outage are retransmitted and complete
        // last — partly from bytes that crossed before the failure — so
        // the bandwidth window covers only the cleanly-streamed ones.
        let steady = times[N - 4].since(times[0]).as_secs_f64();
        let bw = (N - 4) as f64 * SIZE as f64 / steady / 1e6;
        assert!(
            (bw - 850.0).abs() <= 85.0,
            "post-failover bandwidth {bw:.0} MB/s not within 10% of the \
             surviving rail's 850 MB/s plateau"
        );

        // The link healed at 25 ms; ticks ran to 35 ms, so probes must
        // have walked rail 0 through the full recovery cycle.
        let health0 = w.node(0).engine.health().rail(nmad_model::RailId(0));
        assert_eq!(health0.state(), RailState::Up, "rail 0 reinstated");
        assert_eq!(w.node(0).engine.recorder().dropped(), 0, "ring too small");
        let hist = health::recorded_path(w.node(0).engine.recorder().iter(), 0);
        let cycle = [
            RailState::Up,
            RailState::Suspect,
            RailState::Down,
            RailState::Probing,
            RailState::Up,
        ];
        let mut it = hist.iter();
        assert!(
            cycle.iter().all(|n| it.any(|h| h == n)),
            "rail 0 history must contain the full recovery cycle: {hist:?}"
        );
        assert!(
            s0.rails[0].probes_sent > 0,
            "reinstatement comes from probes"
        );
    }

    #[test]
    fn calibration_tracks_bandwidth_drift_and_is_deterministic() {
        // Rail 0 (Myri) loses half its bandwidth 2 ms into a 24 x 1 MiB
        // pipeline. With online calibration enabled, the sender's
        // completion-path samples must rebuild the split tables and move
        // the byte share away from the degraded rail; under a fixed sim
        // seed the whole trajectory (history and final tables) must be
        // bit-identical across runs.
        const N: usize = 24;
        const SIZE: usize = 1 << 20;

        let run = || {
            let p = platform::paper_platform();
            let mut cfg = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
            cfg.calibrate = true;
            let mut w = SimWorld::new(&p, cfg, pipeline(N, SIZE), Script::receiver(N));
            // The rebuilds are checked as recorded events below.
            w.enable_recording(8192);
            let span = Duration::from_micros(2_000)..Duration::from_secs(1);
            let drift = Fault::during(0, span, Effect::Bandwidth(0.5));
            w.enable_faults(
                &FaultPlan::new(0, vec![drift]),
                SimDuration::from_us(50),
                SimTime::from_us(40_000),
            );
            w.run(5_000_000);
            assert_eq!(w.app1().deliveries().len(), N, "pipeline must complete");
            w
        };

        let w = run();
        let cal = w.node(0).engine.calibrator().expect("calibration enabled");
        let hist = cal.history();
        assert!(!hist.is_empty(), "the pipeline must trigger rebuilds");
        let last = hist.last().unwrap();
        // Seed tables give Myri ~57-60% of a 1 MiB split; at half
        // bandwidth its equal-time share drops near ~43%. The calibrated
        // ratio must have left the seed band and moved the right way.
        assert!(
            last.permille[0] < 500,
            "degraded rail share must fall below half: {:?}",
            hist.iter().map(|s| s.permille.clone()).collect::<Vec<_>>()
        );
        assert!(
            last.permille[0] > 250,
            "share must stay in a sane band: {:?}",
            last.permille
        );
        // The rebuilds are visible as obs events (old -> new permille).
        let calib_events: Vec<Event> = w
            .merged_events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Calibrate)
            .collect();
        assert!(!calib_events.is_empty(), "calibrate events recorded");

        // Determinism: identical runs converge to identical tables.
        let w2 = run();
        let cal2 = w2.node(0).engine.calibrator().expect("calibration enabled");
        assert_eq!(cal.history().len(), cal2.history().len());
        for (a, b) in cal.history().iter().zip(cal2.history()) {
            assert_eq!(a.permille, b.permille);
            assert_eq!(a.samples, b.samples);
        }
        for (ta, tb) in w
            .node(0)
            .engine
            .tables()
            .iter()
            .zip(w2.node(0).engine.tables())
        {
            assert_eq!(ta.sizes(), tb.sizes());
            for &s in ta.sizes() {
                assert_eq!(
                    ta.time_for(s).to_bits(),
                    tb.time_for(s).to_bits(),
                    "tables must be bit-identical at size {s}"
                );
            }
        }
    }

    /// The sim's receive path panics on a CRC error: a corrupting plan is
    /// refused when it is installed, not found out mid-run.
    #[test]
    #[should_panic(expected = "the sim cannot apply Fault { rail: 0,")]
    fn the_sim_refuses_a_corrupt_fault() {
        let p = platform::paper_platform();
        let mut w = SimWorld::new(
            &p,
            EngineConfig::default(),
            Script::default(),
            Script::default(),
        );
        let plan = FaultPlan::everywhere(0, 2, &[Effect::Corrupt(0.1)]);
        w.enable_faults(&plan, SimDuration::from_us(50), SimTime::from_us(1_000));
    }

    #[test]
    fn world_is_deterministic() {
        let run = || {
            let (t, w) = transfer(
                StrategyKind::AdaptiveSplit,
                vec![Bytes::from(vec![1u8; 777_777])],
            );
            (t, w.events_processed())
        };
        assert_eq!(run(), run());
    }
}
