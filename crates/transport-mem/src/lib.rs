//! # nmad-transport-mem — the engine on real threads
//!
//! The simulator proves the *timing* claims; this crate proves the engine
//! is a real communication library: two endpoints in one process,
//! exchanging fully encoded wire packets over per-rail channels. The same
//! [`Engine`] code runs here as under the simulator — only the driver
//! side differs:
//!
//! * each rail is a [`crossbeam_channel`] pair, optionally rate-shaped to
//!   the rail's modelled bandwidth (scaled) so multi-rail balancing is
//!   observable in wall-clock time;
//! * on `Runtime::Serial` (the default) one progress thread per endpoint
//!   plays the role of the NIC-activity loop: it delivers arrivals,
//!   reports transmit completions, and offers idle rails to the engine,
//!   holding the engine lock across the step. On `Runtime::Threads` a
//!   scheduler over [`ParallelHub`] does the engine work and one TX and
//!   one RX worker per rail move the frames — the shaped wire time is
//!   slept out in the TX workers, outside the engine lock, so rails
//!   overlap. `Runtime::Reactor` is TCP-only and refused here;
//! * payload CRCs are enabled, and a deterministic fault injector can
//!   corrupt packets in flight to exercise the detection path.
//!
//! The application surface — [`Endpoint`], [`SendHandle`],
//! [`RecvHandle`] — is [`nmad_core::endpoint`]'s, re-exported: this crate
//! only says how frames move.
//!
//! The channels carry [`PacketFrame`]s — refcounted scatter-gather views
//! of the sender's buffers, not flattened copies. Duplication and
//! reordering in the fault injector are refcount bumps; corruption does a
//! copy-on-write of the one affected part only (mutating in place would
//! reach back into the sender's retransmission state).

#![warn(missing_docs)]
// Copy-regression gate: see DESIGN.md "Datapath and copy discipline".
#![deny(clippy::unnecessary_to_owned, clippy::redundant_clone)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use crossbeam_channel::{unbounded, Receiver, Sender};
use nmad_core::engine::Engine;
use nmad_core::request::{RecvId, SendId};
use nmad_core::{
    ChaosState, Completion, EngineConfig, Event, EventKind, Fabric, FabricStatus, FlightRecorder,
    OutboxReceiver, ParallelHub, Runtime,
};
pub use nmad_core::{Endpoint, RecvHandle, SendHandle};
use nmad_model::{Platform, RailId};
use nmad_sim::Xoshiro256StarStar;
use nmad_wire::{ConnId, PacketFrame};
use parking_lot::{Condvar, Mutex};

/// A scheduled outage of one rail: every packet on `rail` is dropped
/// from `down_at` until `up_at` (measured from fabric construction).
/// `up_at: None` kills the rail for good.
#[derive(Clone, Copy, Debug)]
pub struct RailOutage {
    /// Rail to kill.
    pub rail: usize,
    /// Outage start, relative to fabric construction.
    pub down_at: Duration,
    /// Outage end; `None` means the rail never comes back.
    pub up_at: Option<Duration>,
}

impl RailOutage {
    fn covers(&self, elapsed: Duration) -> bool {
        elapsed >= self.down_at && self.up_at.map(|u| elapsed < u).unwrap_or(true)
    }
}

/// Deterministic fault injection on the wire.
#[derive(Clone, Debug, Default)]
pub struct FaultSpec {
    /// Probability a packet byte gets flipped in flight.
    pub corrupt_prob: f64,
    /// Probability a packet is silently dropped.
    pub drop_prob: f64,
    /// Probability a packet is delivered twice.
    pub dup_prob: f64,
    /// Probability a packet is held back and delivered after the next
    /// packet on the same rail (pairwise reordering).
    pub reorder_prob: f64,
    /// PRNG seed.
    pub seed: u64,
    /// Scheduled rail outages (kill / flap windows).
    pub outages: Vec<RailOutage>,
}

/// Fabric configuration.
#[derive(Clone)]
pub struct FabricConfig {
    /// Rail layout and relative speeds.
    pub platform: Platform,
    /// Engine configuration (strategy etc.). CRC is forced on.
    pub engine: EngineConfig,
    /// Logical channels to open on both endpoints at construction.
    pub conns: usize,
    /// Rate shaping: seconds of wall time per modelled second. `0.0`
    /// disables shaping (transfers complete as fast as threads run).
    /// With shaping, a rail moves `link_bandwidth * 1/scale` bytes per
    /// wall-clock second — keep messages small when scaling heavily.
    pub time_scale: f64,
    /// Optional fault injection applied to outgoing packets.
    pub faults: Option<FaultSpec>,
    /// Optional live chaos dials (per-rail bandwidth multiplier and
    /// drop boost) a soak driver can turn while the fabric runs. The
    /// caller keeps a clone of the handle; the workers read it
    /// lock-free on every injection.
    pub chaos: Option<ChaosState>,
}

impl FabricConfig {
    /// Unshaped, fault-free fabric on the given platform and strategy.
    pub fn new(platform: Platform, engine: EngineConfig) -> Self {
        FabricConfig {
            platform,
            engine,
            conns: 1,
            time_scale: 0.0,
            faults: None,
            chaos: None,
        }
    }
}

/// Serial runtime state: the engine, and the wake-up of the one
/// progress thread that holds its lock across a step.
struct Shared {
    engine: Mutex<Engine>,
    cv: Condvar,
    status: FabricStatus,
    shutdown: AtomicBool,
    /// Wakeup for this endpoint's worker: set under `work` and notified
    /// whenever new work arrives (a submit, a retransmit request, or a
    /// delivery from the peer worker), so the idle loop sleeps on a
    /// condvar instead of spin-polling.
    work: Mutex<bool>,
    work_cv: Condvar,
}

impl Shared {
    fn new(engine: Engine) -> Arc<Self> {
        Arc::new(Shared {
            engine: Mutex::new(engine),
            cv: Condvar::new(),
            status: FabricStatus::default(),
            shutdown: AtomicBool::new(false),
            work: Mutex::new(false),
            work_cv: Condvar::new(),
        })
    }
}

impl Fabric for Shared {
    fn engine(&self) -> &Mutex<Engine> {
        &self.engine
    }

    fn cv(&self) -> &Condvar {
        &self.cv
    }

    fn status(&self) -> &FabricStatus {
        &self.status
    }

    fn submit(&self, conn: ConnId, segments: Vec<Bytes>) -> SendId {
        let id = self.engine.lock().submit_send(conn, segments);
        self.kick();
        id
    }

    fn post_recv(&self, conn: ConnId) -> RecvId {
        let id = self.engine.lock().post_recv(conn);
        self.kick();
        id
    }

    /// Wake this endpoint's worker.
    fn kick(&self) {
        *self.work.lock() = true;
        self.work_cv.notify_one();
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.kick();
    }
}

struct InFlight {
    ready_at: Instant,
    token: nmad_core::driver::TxToken,
    frame: PacketFrame,
}

struct Worker {
    shared: Arc<Shared>,
    /// The peer endpoint's shared state, to wake its worker on delivery.
    peer: Arc<Shared>,
    /// Shaping, fault and chaos settings of the fabric.
    config: FabricConfig,
    rx: Vec<Receiver<PacketFrame>>,
    tx: Vec<Sender<PacketFrame>>,
    inflight: Vec<Option<InFlight>>,
    /// Packets held back by the reorder injector, per rail.
    held: Vec<Option<PacketFrame>>,
    /// Fabric construction time: the engine clock and outage windows are
    /// measured from here.
    start: Instant,
    rng: Xoshiro256StarStar,
}

/// Upper bound on an idle wait: keeps shutdown responsive even if a
/// wakeup is lost to a race outside the `work` lock.
const MAX_IDLE_WAIT: Duration = Duration::from_millis(2);
const MIN_IDLE_WAIT: Duration = Duration::from_micros(20);

impl Worker {
    /// The progress thread of `shared`'s endpoint, on its end of the
    /// per-rail wires.
    fn new(
        config: &FabricConfig,
        shared: Arc<Shared>,
        peer: Arc<Shared>,
        wires: Wires,
        start: Instant,
        seed: u64,
    ) -> Self {
        let n_rails = config.platform.rail_count();
        Worker {
            shared,
            peer,
            config: config.clone(),
            rx: wires.rx,
            tx: wires.tx,
            inflight: (0..n_rails).map(|_| None).collect(),
            held: (0..n_rails).map(|_| None).collect(),
            start,
            rng: Xoshiro256StarStar::new(seed),
        }
    }

    fn spawn(self, name: &str, conns: Vec<ConnId>) -> Endpoint {
        let shared = self.shared.clone();
        let worker = spawn(name.into(), move || self.run());
        Endpoint::new(shared, conns, vec![worker])
    }

    fn run(mut self) {
        loop {
            let progressed = self.step();
            self.shared.cv.notify_all();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if !progressed {
                // Sleep until someone kicks us or the next engine/shaping
                // deadline — no spin-polling.
                let wait = self.idle_wait();
                let mut pending = self.shared.work.lock();
                if !*pending {
                    self.shared.work_cv.wait_for(&mut pending, wait);
                }
                *pending = false;
            }
        }
    }

    /// How long the worker may sleep: bounded by the earliest shaped
    /// transmission completion and the engine's next timer deadline.
    fn idle_wait(&self) -> Duration {
        let now = Instant::now();
        let mut wait = MAX_IDLE_WAIT;
        for f in self.inflight.iter().flatten() {
            wait = wait.min(f.ready_at.saturating_duration_since(now));
        }
        if let Some(deadline_ns) = self.shared.engine.lock().next_deadline_ns() {
            let now_ns = self.start.elapsed().as_nanos() as u64;
            wait = wait.min(Duration::from_nanos(deadline_ns.saturating_sub(now_ns)));
        }
        wait.max(MIN_IDLE_WAIT)
    }

    fn step(&mut self) -> bool {
        let mut progressed = false;
        let now = Instant::now();
        let now_ns = now.saturating_duration_since(self.start).as_nanos() as u64;
        let mut to_deliver: Vec<(usize, PacketFrame)> = Vec::new();
        let mut eng = self.shared.engine.lock();

        // 0. Run the engine's timers: adaptive retransmission, rail
        // health bookkeeping, reinstatement probes.
        let timer_out = eng.progress(now_ns);
        if !timer_out.retransmitted.is_empty() || timer_out.control_enqueued {
            progressed = true;
        }

        // 1. Deliver arrivals. The frame's parts are still the sender's
        // buffers — the engine reads them without another flatten.
        for rail in 0..self.rx.len() {
            while let Ok(frame) = self.rx[rail].try_recv() {
                progressed = true;
                if eng.on_frame(RailId(rail), &frame).is_err() {
                    self.shared.status.rx_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // 2. Retire transmissions whose shaped duration elapsed.
        for rail in 0..self.inflight.len() {
            let ready = matches!(&self.inflight[rail], Some(f) if f.ready_at <= now);
            if ready {
                let f = self.inflight[rail].take().unwrap();
                progressed = true;
                if eng.on_tx_done(RailId(rail), f.token).is_err() {
                    self.shared.fail();
                }
                to_deliver.push((rail, f.frame));
            }
        }

        // 3. Offer idle rails to the engine.
        for rail in 0..self.inflight.len() {
            if self.inflight[rail].is_some() {
                continue;
            }
            // A strategy bug poisons the endpoint's waits; it does not
            // take the progress thread down with every waiter's timeout.
            let decision = eng.next_tx(RailId(rail)).unwrap_or_else(|_| {
                self.shared.fail();
                None
            });
            if let Some(d) = decision {
                progressed = true;
                let dur = shaped_duration(&self.config, rail, d.frame.wire_len());
                self.inflight[rail] = Some(InFlight {
                    ready_at: now + dur,
                    token: d.token,
                    frame: d.frame,
                });
            }
        }
        drop(eng);
        for (rail, frame) in to_deliver {
            self.deliver(rail, frame);
        }
        progressed
    }

    /// Hand one wire packet, or what the fault injector leaves of it, to
    /// the peer and wake its worker.
    fn deliver(&mut self, rail: usize, frame: PacketFrame) {
        let (tx, peer) = (&self.tx[rail], &self.peer);
        apply_faults(
            &self.config,
            self.start,
            rail,
            &mut self.rng,
            &mut self.held[rail],
            &self.shared.status.tx_dropped,
            frame,
            &mut |f| {
                // Peer gone: drop silently (shutdown path).
                let _ = tx.send(f);
                peer.kick();
            },
        );
    }
}

/// Wall-clock duration of one shaped injection on `rail`, stretched by
/// the chaos bandwidth multiplier: a rail degraded to a quarter of its
/// bandwidth takes 4x the wire time.
fn shaped_duration(config: &FabricConfig, rail: usize, bytes: usize) -> Duration {
    if config.time_scale <= 0.0 {
        return Duration::ZERO;
    }
    let nic = &config.platform.rails[rail];
    let secs =
        (bytes as f64 / nic.link_bandwidth + nic.wire_latency.as_secs_f64()) * config.time_scale;
    // `ChaosState` clamps the multiplier to >= 0.01.
    let mult = config
        .chaos
        .as_ref()
        .map_or(1.0, |c| c.bandwidth_mult(rail));
    Duration::from_secs_f64(secs / mult)
}

/// Apply the fabric's fault spec and chaos drop boost to one outgoing
/// frame; survivors reach `push` in delivery order. Shared by the serial
/// worker and the `Threads` TX workers so both runtimes exercise the
/// identical injector (the rng draw order — drop, corrupt, dup, reorder —
/// is part of the contract: serial fault sequences must not change
/// underneath seeded tests).
#[allow(clippy::too_many_arguments)]
fn apply_faults(
    config: &FabricConfig,
    start: Instant,
    rail: usize,
    rng: &mut Xoshiro256StarStar,
    held: &mut Option<PacketFrame>,
    tx_dropped: &AtomicU64,
    frame: PacketFrame,
    push: &mut dyn FnMut(PacketFrame),
) {
    let drop_boost = config.chaos.as_ref().map_or(0.0, |c| c.drop_boost(rail));
    let Some(spec) = &config.faults else {
        // No fault spec: the chaos drop boost still applies (one rng
        // draw, only when a chaos handle is installed and hot).
        if drop_boost > 0.0 && rng.chance(drop_boost) {
            tx_dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            push(frame);
        }
        return;
    };
    let elapsed = start.elapsed();
    // Scheduled outage: the rail eats everything, including probes.
    if spec
        .outages
        .iter()
        .any(|o| o.rail == rail && o.covers(elapsed))
    {
        tx_dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // The chaos boost folds into the one existing drop draw so the rng
    // sequence (and with it every seeded test) is unchanged when the
    // boost is zero.
    if rng.chance((spec.drop_prob + drop_boost).min(1.0)) {
        tx_dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let frame = if rng.chance(spec.corrupt_prob) {
        corrupt_frame(rng, frame)
    } else {
        frame
    };
    let dup = rng.chance(spec.dup_prob);
    if held.is_none() && rng.chance(spec.reorder_prob) {
        // Hold this packet back; it goes out right after the next one
        // on this rail (pairwise reorder). Clones are refcount bumps.
        *held = Some(frame.clone());
        if dup {
            push(frame);
        }
        return;
    }
    push(frame.clone());
    if dup {
        push(frame);
    }
    if let Some(h) = held.take() {
        push(h);
    }
}

/// Flip one bit somewhere in the wire image. Copy-on-write of the one
/// part holding the chosen byte — never the whole wire image. The part
/// cannot be mutated in place: it is refcount-shared with the sender's
/// retransmission state, and a real wire would not reach back into the
/// sender's memory either.
fn corrupt_frame(rng: &mut Xoshiro256StarStar, mut frame: PacketFrame) -> PacketFrame {
    let idx = rng.range_usize(0, frame.wire_len());
    let (part_idx, off) = frame.locate(idx).expect("index within wire image");
    let part = frame.part(part_idx).expect("located part exists");
    let mut raw = BytesMut::with_capacity(part.len());
    raw.extend_from_slice(part);
    raw[off] ^= 1 << rng.range_u64(0, 8);
    frame.replace_part(part_idx, raw.freeze());
    frame
}

/// `Threads` runtime: one rail's TX worker. Pops published decisions off
/// its own outbox and sleeps out the shaped wire time *outside the
/// engine lock* — this is where cross-rail overlap (and the measured
/// speedup) comes from — then applies fault injection and hands the
/// frame to the peer's channel. The channel send wakes the peer's RX
/// worker directly; no global condvar is involved.
struct ParTxWorker {
    hub: Arc<ParallelHub>,
    rail: usize,
    outbox: OutboxReceiver,
    tx: Sender<PacketFrame>,
    /// Shaping, fault and chaos settings of the fabric.
    config: FabricConfig,
    /// Reorder-injector hold slot for this rail.
    held: Option<PacketFrame>,
    rng: Xoshiro256StarStar,
    start: Instant,
    /// Per-thread recorder shard; deposited into the hub at exit.
    shard: FlightRecorder,
}

/// `Threads` TX worker: upper bound on one outbox wait.
const PAR_TX_IDLE_WAIT: Duration = Duration::from_millis(2);
/// `Threads` RX worker: channel wait bound (shutdown responsiveness).
const PAR_RX_IDLE_WAIT: Duration = Duration::from_millis(10);

impl ParTxWorker {
    fn run(mut self) {
        loop {
            match self.outbox.pop_wait(PAR_TX_IDLE_WAIT) {
                Some(d) => self.inject(d),
                None => {
                    if self.hub.is_shutdown() {
                        break;
                    }
                }
            }
        }
        // Clean shutdown drains the outbox: published decisions still go
        // out so the peer's reassembly isn't left dangling.
        while let Some(d) = self.outbox.pop() {
            self.inject(d);
        }
        self.hub.deposit_shard(self.shard.events());
    }

    fn inject(&mut self, d: nmad_core::TxDecision) {
        let bytes = d.frame.wire_len();
        let dur = shaped_duration(&self.config, self.rail, bytes);
        if dur > Duration::ZERO {
            std::thread::sleep(dur);
        }
        self.shard.record(
            Event::new(
                self.start.elapsed().as_nanos() as u64,
                EventKind::WorkerWrite,
            )
            .rail(self.rail)
            .seq(d.token.0)
            .size(bytes as u64)
            .aux(dur.as_nanos() as u64),
        );
        self.hub.push_completion(
            self.rail,
            Completion::TxDone {
                rail: self.rail,
                token: d.token,
            },
        );
        let tx = &self.tx;
        apply_faults(
            &self.config,
            self.start,
            self.rail,
            &mut self.rng,
            &mut self.held,
            &self.hub.status.tx_dropped,
            d.frame,
            &mut |f| {
                let _ = tx.send(f);
            },
        );
    }
}

/// `Threads` runtime: one rail's RX worker. Blocks on the rail's channel
/// (the sender's `send` is the wakeup) and queues arrivals for the
/// scheduler's next batched drain.
struct ParRxWorker {
    hub: Arc<ParallelHub>,
    rail: usize,
    rx: Receiver<PacketFrame>,
    start: Instant,
    shard: FlightRecorder,
}

impl ParRxWorker {
    fn run(mut self) {
        loop {
            match self.rx.recv_timeout(PAR_RX_IDLE_WAIT) {
                Ok(frame) => {
                    self.shard.record(
                        Event::new(self.start.elapsed().as_nanos() as u64, EventKind::WorkerRx)
                            .rail(self.rail)
                            .size(frame.wire_len() as u64),
                    );
                    self.hub.push_completion(
                        self.rail,
                        Completion::RxFrame {
                            rail: self.rail,
                            frame,
                        },
                    );
                }
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                    if self.hub.is_shutdown() {
                        break;
                    }
                }
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => break,
            }
        }
        self.hub.deposit_shard(self.shard.events());
    }
}

/// One endpoint's end of the per-rail channels.
#[derive(Default)]
struct Wires {
    tx: Vec<Sender<PacketFrame>>,
    rx: Vec<Receiver<PacketFrame>>,
}

impl Wires {
    /// Both ends of `rails` bidirectional wires.
    fn pair(rails: usize) -> (Wires, Wires) {
        let (mut a, mut b) = (Wires::default(), Wires::default());
        for _ in 0..rails {
            let (t, r) = unbounded();
            a.tx.push(t);
            b.rx.push(r);
            let (t, r) = unbounded();
            b.tx.push(t);
            a.rx.push(r);
        }
        (a, b)
    }
}

/// Build a connected pair of endpoints on the runtime
/// [`EngineConfig::runtime`] names: one progress thread each
/// (`Serial`), or the sharded pipeline — scheduler plus per-rail TX/RX
/// workers — each (`Threads`).
///
/// # Panics
///
/// On `Runtime::Reactor`: the in-process fabric has no sockets to
/// multiplex.
pub fn pair(config: FabricConfig) -> (Endpoint, Endpoint) {
    let mut cfg_engine = config.engine.clone();
    cfg_engine.crc = true;
    let side = || {
        let mut engine = Engine::new(cfg_engine.clone(), config.platform.rails.clone(), vec![]);
        let conns: Vec<ConnId> = (0..config.conns.max(1))
            .map(|_| engine.conn_open())
            .collect();
        (engine, conns)
    };
    let ((engine_a, conns_a), (engine_b, conns_b)) = (side(), side());

    let (a, b) = Wires::pair(config.platform.rail_count());

    let start = Instant::now();
    let seed = config.faults.as_ref().map(|f| f.seed).unwrap_or(0);
    match cfg_engine.runtime {
        Runtime::Serial => {
            let (shared_a, shared_b) = (Shared::new(engine_a), Shared::new(engine_b));
            let worker_a = Worker::new(
                &config,
                shared_a.clone(),
                shared_b.clone(),
                a,
                start,
                seed ^ 0xA,
            );
            let worker_b = Worker::new(&config, shared_b, shared_a, b, start, seed ^ 0xB);
            (
                worker_a.spawn("nmad-mem-a", conns_a),
                worker_b.spawn("nmad-mem-b", conns_b),
            )
        }
        Runtime::Threads => (
            spawn_threads(&config, engine_a, conns_a, a, start, seed ^ 0xA, "a"),
            spawn_threads(&config, engine_b, conns_b, b, start, seed ^ 0xB, "b"),
        ),
        Runtime::Reactor => panic!("the mem fabric has no sockets: Runtime::Reactor is TCP-only"),
    }
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawn mem fabric thread")
}

/// One endpoint on the hub runtime: a TX and an RX worker per rail
/// around `engine`'s [`ParallelHub`], and its scheduler.
fn spawn_threads(
    config: &FabricConfig,
    engine: Engine,
    conns: Vec<ConnId>,
    wires: Wires,
    start: Instant,
    seed: u64,
    name: &str,
) -> Endpoint {
    let record_capacity = engine.config().record_capacity;
    let (hub, senders, receivers) = ParallelHub::new(engine);
    let mut workers = Vec::new();
    let rails = receivers.into_iter().zip(wires.tx).zip(wires.rx);
    for (rail, ((outbox, tx), rx)) in rails.enumerate() {
        let txw = ParTxWorker {
            hub: hub.clone(),
            rail,
            outbox,
            tx,
            config: config.clone(),
            held: None,
            // Per-rail rng: deterministic, decorrelated across rails.
            rng: Xoshiro256StarStar::new(seed ^ (rail as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            start,
            shard: FlightRecorder::with_capacity(record_capacity),
        };
        workers.push(spawn(format!("nmad-mem-{name}-tx{rail}"), move || {
            txw.run()
        }));
        let rxw = ParRxWorker {
            hub: hub.clone(),
            rail,
            rx,
            start,
            shard: FlightRecorder::with_capacity(record_capacity),
        };
        workers.push(spawn(format!("nmad-mem-{name}-rx{rail}"), move || {
            rxw.run()
        }));
    }
    // Scheduler last: joined after the I/O workers so it drains
    // their final completions before quiescing.
    let sched_hub = hub.clone();
    workers.push(spawn(format!("nmad-mem-{name}-sched"), move || {
        sched_hub.run_scheduler(senders, start)
    }));
    Endpoint::new(hub, conns, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmad_core::health::RailState;
    use nmad_core::StrategyKind;
    use nmad_model::platform;

    const T: Duration = Duration::from_secs(10);

    fn fabric(kind: StrategyKind) -> (Endpoint, Endpoint) {
        pair(FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(kind),
        ))
    }

    fn random_payload(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn two_connections_are_independent() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        );
        cfg.conns = 2;
        let (a, b) = pair(cfg);
        let (c0, c1) = (a.conns()[0], a.conns()[1]);
        let r1 = b.recv(c1);
        let r0 = b.recv(c0);
        a.send(c1, vec![Bytes::from_static(b"one")]);
        a.send(c0, vec![Bytes::from_static(b"zero")]);
        assert_eq!(&r0.wait(T).unwrap().segments[0][..], b"zero");
        assert_eq!(&r1.wait(T).unwrap().segments[0][..], b"one");
    }

    #[test]
    fn corruption_detected_not_delivered_silently() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
        );
        cfg.faults = Some(FaultSpec {
            corrupt_prob: 1.0, // every packet corrupted
            drop_prob: 0.0,
            seed: 7,
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let r = b.recv(c);
        a.send(c, vec![Bytes::from(random_payload(512, 3))]);
        // The message must NOT arrive intact...
        assert!(
            r.wait(Duration::from_millis(500)).is_none(),
            "corrupted packet must not complete a receive"
        );
        // ...and the receiver must have counted the rejection.
        assert!(b.rx_errors() > 0, "CRC failure must be counted");
    }

    #[test]
    fn drops_are_counted() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
        );
        cfg.faults = Some(FaultSpec {
            corrupt_prob: 0.0,
            drop_prob: 1.0,
            seed: 9,
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let r = b.recv(c);
        a.send(c, vec![Bytes::from_static(b"lost")]);
        assert!(r.wait(Duration::from_millis(300)).is_none());
        assert!(a.tx_dropped() > 0);
    }

    #[test]
    fn shaped_fabric_still_delivers() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        );
        cfg.time_scale = 10.0; // 10x slower than modelled time
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let payload = random_payload(100_000, 11);
        let r = b.recv(c);
        let start = Instant::now();
        a.send(c, vec![Bytes::from(payload.clone())]);
        let msg = r.wait(T).expect("recv under shaping");
        assert_eq!(msg.segments[0].as_ref(), payload.as_slice());
        // 100 KB over ~2 GB/s scaled 10x -> at least ~0.4 ms of shaping.
        assert!(
            start.elapsed() > Duration::from_micros(300),
            "shaping must slow the transfer"
        );
    }

    /// Health timers scaled for tests: quick timeouts, quick probes.
    fn fast_health(engine: &mut EngineConfig) {
        engine.health.initial_rto_ns = 10_000_000; // 10 ms
        engine.health.min_rto_ns = 2_000_000;
        engine.health.max_rto_ns = 200_000_000;
        engine.health.probe_interval_ns = 20_000_000;
        engine.health.probe_timeout_ns = 10_000_000;
    }

    #[test]
    fn retransmission_recovers_on_a_lossy_fabric() {
        // 40% of packets silently dropped; the engine's own adaptive
        // retransmission timers must deliver every message exactly once —
        // no caller-driven retry loop.
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AggregateEager),
        );
        cfg.engine.acked = true;
        fast_health(&mut cfg.engine);
        cfg.faults = Some(FaultSpec {
            corrupt_prob: 0.0,
            drop_prob: 0.4,
            seed: 17,
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let n = 10;
        let recvs: Vec<RecvHandle> = (0..n).map(|_| b.recv(c)).collect();
        let sends: Vec<SendHandle> = (0..n)
            .map(|i| a.send(c, vec![Bytes::from(random_payload(500 + i * 37, i as u64))]))
            .collect();
        for (i, s) in sends.iter().enumerate() {
            assert!(
                s.wait_acked(Duration::from_secs(30)),
                "message {i} never recovered"
            );
        }
        for (i, r) in recvs.into_iter().enumerate() {
            let msg = r.wait(T).expect("delivered");
            assert_eq!(
                msg.segments[0].as_ref(),
                random_payload(500 + i * 37, i as u64).as_slice(),
                "message {i} corrupted"
            );
        }
        assert!(a.stats().retransmits > 0, "losses must have forced retries");
        assert_eq!(b.stats().msgs_received, n as u64, "exactly-once delivery");
    }

    #[test]
    fn duplicates_and_reordering_tolerated() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::Greedy),
        );
        cfg.engine.acked = true;
        fast_health(&mut cfg.engine);
        cfg.faults = Some(FaultSpec {
            drop_prob: 0.1,
            dup_prob: 0.3,
            reorder_prob: 0.3,
            seed: 29,
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let n = 12;
        let recvs: Vec<RecvHandle> = (0..n).map(|_| b.recv(c)).collect();
        let sends: Vec<SendHandle> = (0..n)
            .map(|i| {
                a.send(
                    c,
                    vec![Bytes::from(random_payload(300 + i * 53, 100 + i as u64))],
                )
            })
            .collect();
        for (i, s) in sends.iter().enumerate() {
            assert!(s.wait_acked(Duration::from_secs(30)), "message {i} lost");
        }
        for (i, r) in recvs.into_iter().enumerate() {
            let msg = r.wait(T).expect("delivered");
            assert_eq!(
                msg.segments[0].as_ref(),
                random_payload(300 + i * 53, 100 + i as u64).as_slice(),
                "message {i} corrupted"
            );
        }
        assert_eq!(b.stats().msgs_received, n as u64, "exactly-once delivery");
    }

    #[test]
    fn rail_failover_and_recovery_mid_transfer() {
        // The acceptance scenario: one of two rails dies while an 8 MB
        // acked transfer is in flight. The engine must (1) time out, blame
        // and take the dead rail out of service, (2) finish the transfer
        // over the survivor via automatic retransmission — the caller only
        // waits — and (3) reinstate the rail via probes once the outage
        // ends, walking the full Up -> Suspect -> Down -> Probing -> Up
        // cycle.
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        );
        cfg.engine.acked = true;
        fast_health(&mut cfg.engine);
        cfg.faults = Some(FaultSpec {
            seed: 41,
            outages: vec![RailOutage {
                rail: 0,
                down_at: Duration::from_millis(5),
                up_at: Some(Duration::from_millis(700)),
            }],
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let payload = random_payload(8 << 20, 55);
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(payload.clone())]);
        // No caller-driven retry: a plain wait must suffice.
        assert!(
            s.wait_acked(Duration::from_secs(60)),
            "transfer must survive the rail outage"
        );
        let msg = r.wait(T).expect("delivered");
        assert_eq!(msg.segments[0].as_ref(), payload.as_slice());
        let st = a.stats();
        assert!(st.retransmits > 0, "outage must have forced retransmission");
        assert!(
            st.rails[0].timeouts > 0,
            "dead rail must have been blamed: {:?}",
            st.rails
        );
        // Wait out the outage window plus probe turnaround, then check
        // the rail came back.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let hist = a.rail_history(0);
            let recovered = is_subsequence(
                &[
                    RailState::Up,
                    RailState::Suspect,
                    RailState::Down,
                    RailState::Probing,
                    RailState::Up,
                ],
                &hist,
            );
            if recovered {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "rail 0 never walked the full recovery cycle: {hist:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(a.rail_states()[0], RailState::Up);
        assert!(
            a.stats().rails[0].probes_sent > 0,
            "recovery must come from probing"
        );
        assert!(a.stats().rails[0].state_transitions >= 4);
        // The reinstated rail carries traffic again.
        let r2 = b.recv(c);
        let s2 = a.send(c, vec![Bytes::from(random_payload(2 << 20, 56))]);
        assert!(s2.wait_acked(Duration::from_secs(30)));
        assert!(r2.wait(T).is_some());
    }

    /// True when `needle` appears in `haystack` in order (not necessarily
    /// contiguously).
    fn is_subsequence(needle: &[RailState], haystack: &[RailState]) -> bool {
        let mut it = haystack.iter();
        needle.iter().all(|n| it.any(|h| h == n))
    }

    /// The chaos dials act while the fabric runs: a full drop boost
    /// blackholes the wire, healing it lets the engine's own
    /// retransmission recover — no restart, no rebuild.
    #[test]
    fn chaos_dials_apply_live() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AggregateEager),
        );
        cfg.engine.acked = true;
        fast_health(&mut cfg.engine);
        let chaos = ChaosState::new(2);
        cfg.chaos = Some(chaos.clone());
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        // Clean roundtrip at identity.
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(random_payload(512, 7))]);
        assert!(s.wait_acked(T));
        assert!(r.wait(T).is_some());
        // Blackhole both rails mid-run.
        chaos.set_drop_boost(0, 1.0);
        chaos.set_drop_boost(1, 1.0);
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(random_payload(512, 8))]);
        assert!(
            !s.wait_acked(Duration::from_millis(300)),
            "a fully dropped wire cannot confirm delivery"
        );
        // Heal: the pending send recovers through retransmission alone.
        chaos.heal_all();
        assert!(s.wait_acked(Duration::from_secs(30)), "heal must unstick");
        assert!(r.wait(T).is_some());
        assert!(a.stats().retransmits > 0);
        assert!(a.tx_dropped() > 0, "the boost must have eaten frames");
    }

    /// Reference-size split share of `rail` from the engine's live
    /// tables, in permille.
    fn split_share_permille(ep: &Endpoint, rail: usize) -> u16 {
        let eng = ep.fabric().engine().lock();
        let refs: Vec<&nmad_core::PerfTable> = eng.tables().iter().collect();
        nmad_core::split_ratio_permille(&refs, 1 << 20)[rail]
    }

    /// Satellite scenario: a rail held Down for many RTOs under
    /// continuous load. No request may get stuck, the rail must come
    /// back via probing once the outage ends, and the online calibrator
    /// must first strip the dead rail's split share (failover penalty)
    /// and then let it re-earn that share from fresh samples.
    #[test]
    fn long_outage_under_load_re_earns_split_share() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        );
        cfg.engine.acked = true;
        fast_health(&mut cfg.engine);
        cfg.engine.calibration.enabled = true;
        cfg.engine.calibration.rebuild_every = 4;
        cfg.engine.calibration.min_samples = 4;
        // ~150 initial-RTO periods, dozens of probe intervals.
        let outage_end = Duration::from_millis(1500);
        cfg.faults = Some(FaultSpec {
            seed: 61,
            outages: vec![RailOutage {
                rail: 0,
                down_at: Duration::from_millis(5),
                up_at: Some(outage_end),
            }],
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let share_nominal = split_share_permille(&a, 0);
        assert!(share_nominal > 0, "rail 0 must start with a split share");

        // Continuous load spanning the whole outage and a bit beyond.
        // Every message is awaited: a request stuck forever fails here,
        // not in some later diagnostic.
        let start = Instant::now();
        let mut share_min = share_nominal;
        let mut i = 0u64;
        while start.elapsed() < outage_end + Duration::from_millis(500) {
            let r = b.recv(c);
            let s = a.send(c, vec![Bytes::from(random_payload(256 << 10, 200 + i))]);
            assert!(
                s.wait_acked(Duration::from_secs(30)),
                "message {i} stuck during the outage"
            );
            assert!(r.wait(T).is_some(), "message {i} not delivered");
            share_min = share_min.min(split_share_permille(&a, 0));
            i += 1;
        }
        let st = a.stats();
        assert!(st.retransmits > 0, "outage must have forced retransmission");
        assert!(st.rails[0].timeouts > 0, "dead rail must have been blamed");
        assert!(
            share_min < share_nominal,
            "failover penalty must strip split share: nominal {share_nominal}, min {share_min}"
        );

        // The rail is reinstated via probing.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let hist = a.rail_history(0);
            if is_subsequence(
                &[
                    RailState::Up,
                    RailState::Suspect,
                    RailState::Down,
                    RailState::Probing,
                    RailState::Up,
                ],
                &hist,
            ) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "rail 0 never walked the recovery cycle: {hist:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(a.stats().rails[0].probes_sent > 0);

        // Fresh load on the healed fabric: observed transfer times pull
        // the penalized EWMA back and rail 0 re-earns its share (>= 80%
        // of nominal).
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let r = b.recv(c);
            let s = a.send(c, vec![Bytes::from(random_payload(256 << 10, 900 + i))]);
            assert!(s.wait_acked(Duration::from_secs(10)), "post-recovery stuck");
            assert!(r.wait(T).is_some());
            i += 1;
            let share = split_share_permille(&a, 0);
            if u32::from(share) * 10 >= u32::from(share_nominal) * 8 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "rail 0 never re-earned its split share: nominal {share_nominal}, now {share}"
            );
        }
    }

    #[test]
    fn ack_never_arrives_when_message_dropped() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
        );
        cfg.engine.acked = true;
        cfg.faults = Some(FaultSpec {
            corrupt_prob: 0.0,
            drop_prob: 1.0,
            seed: 3,
            ..FaultSpec::default()
        });
        let (a, _b) = pair(cfg);
        let c = a.conns()[0];
        let s = a.send(c, vec![Bytes::from_static(b"doomed")]);
        // Local completion may happen (bytes injected)...
        s.wait(Duration::from_millis(200));
        // ...but delivery is never confirmed.
        assert!(!s.wait_acked(Duration::from_millis(300)));
    }

    #[test]
    fn unexpected_message_buffered_until_recv() {
        let (a, b) = fabric(StrategyKind::Greedy);
        let c = a.conns()[0];
        let s = a.send(c, vec![Bytes::from_static(b"early")]);
        assert!(s.wait(T));
        std::thread::sleep(Duration::from_millis(20));
        let msg = b.recv(c).wait(T).expect("buffered unexpected message");
        assert_eq!(&msg.segments[0][..], b"early");
    }

    /// An engine error on the progress thread (here: a completion for
    /// a token the engine never issued) is counted and poisons the
    /// endpoint's waits. The worker does not panic, which would leave
    /// every waiter to run out its full timeout.
    #[test]
    fn engine_error_poisons_waits_instead_of_panicking_the_worker() {
        let config = FabricConfig::new(platform::paper_platform(), EngineConfig::default());
        let mk = || Engine::new(config.engine.clone(), config.platform.rails.clone(), vec![]);
        let (shared, peer) = (Shared::new(mk()), Shared::new(mk()));
        let conn = shared.engine.lock().conn_open();
        let ((wires, _peer_wires), start) = (Wires::pair(2), Instant::now());
        let mut worker = Worker::new(&config, shared, peer, wires, start, 0);
        worker.inflight[0] = Some(InFlight {
            ready_at: start,
            token: nmad_core::driver::TxToken(u64::MAX),
            frame: PacketFrame::from_wire(Bytes::from_static(b"never issued")),
        });
        let a = worker.spawn("nmad-mem-poisoned", vec![conn]);
        let t0 = Instant::now();
        assert!(a.recv(conn).wait(T).is_none());
        assert!(t0.elapsed() < T / 2, "a poisoned wait returns early");
        assert_eq!(a.io_errors(), 1);
    }

    #[test]
    #[should_panic(expected = "Runtime::Reactor is TCP-only")]
    fn reactor_runtime_is_refused() {
        let engine = EngineConfig {
            runtime: Runtime::Reactor,
            ..EngineConfig::default()
        };
        pair(FabricConfig::new(platform::paper_platform(), engine));
    }

    // ------------------------------------------------------------------
    // Hub runtime (`Runtime::Threads`) on the in-process fabric
    // ------------------------------------------------------------------

    #[test]
    fn threads_shaped_fabric_overlaps_rails() {
        // The point of the pipeline: with shaping, the per-rail TX
        // workers sleep out their wire time concurrently, so a striped
        // transfer must not take the sum of both rails' serial times.
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        );
        cfg.time_scale = 10.0;
        cfg.engine.runtime = Runtime::Threads;
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let payload = random_payload(100_000, 64);
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(payload.clone())]);
        assert!(s.wait(T));
        let msg = r.wait(T).expect("recv under shaping");
        assert_eq!(msg.segments[0].as_ref(), payload.as_slice());
    }

    #[test]
    fn threads_corruption_detected() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
        );
        cfg.engine.runtime = Runtime::Threads;
        cfg.faults = Some(FaultSpec {
            corrupt_prob: 1.0,
            drop_prob: 0.0,
            seed: 71,
            ..FaultSpec::default()
        });
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let r = b.recv(c);
        a.send(c, vec![Bytes::from(random_payload(512, 72))]);
        assert!(
            r.wait(Duration::from_millis(500)).is_none(),
            "corrupted packet must not complete a receive"
        );
        assert!(b.rx_errors() > 0, "CRC failure must be counted");
    }
}
