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
//! * callers drive progress, through the driver both transports share
//!   ([`Serial`], DESIGN.md §15): `send` hands the frames to the peer's
//!   channels on the caller's thread, a handle's `wait` reads and
//!   digests what it waits for, and one backstop thread per endpoint,
//!   asleep on a condvar, covers what no caller is around for (an
//!   unexpected message, a shaped injection coming due, a
//!   retransmission). This crate supplies the rails (`MemRails`): the
//!   channels, the shaped wire and the fault injector. The engine lock
//!   is never held while a frame is handed over or a thread is woken,
//!   and a shaped injection is a deadline, not a sleep: rails overlap;
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
#![forbid(unsafe_code)]
// Copy-regression gate: see DESIGN.md "Datapath and copy discipline".
#![deny(clippy::unnecessary_to_owned, clippy::redundant_clone)]

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, Sender};
use nmad_core::driver::TxToken;
use nmad_core::engine::Engine;
use nmad_core::{
    Effect, EngineConfig, FabricStatus, FaultPlan, Rails, Serial, SyscallStats, WorkSignal,
};
pub use nmad_core::{Endpoint, RecvHandle, SendHandle};
use nmad_model::Platform;
use nmad_sim::Xoshiro256StarStar;
use nmad_wire::{ConnId, PacketFrame};

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
    /// Optional fault plan applied to outgoing frames, its windows
    /// counted from the pair's construction. A `Bandwidth` window needs
    /// a shaped fabric (`time_scale > 0`): [`pair`] refuses it otherwise.
    pub faults: Option<FaultPlan>,
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
        }
    }
}

/// Arrivals one pass takes off a rail before the engine digests them
/// (refcounted frames: nothing is copied here). Like the one 64 KiB
/// `read` per rail of the TCP pass: whoever waits for what has arrived
/// is released before more is taken, and a large message does not keep
/// every small one behind it waiting for the whole backlog.
const READ_BUDGET: usize = 64 * 1024;

/// A frame on the wire of one rail: posted by the engine, handed to the
/// peer at `ready_at` on the engine clock — on an unshaped fabric
/// (`None`) by the flush that follows.
struct InFlight {
    ready_at: Option<u64>,
    token: TxToken,
    frame: PacketFrame,
}

/// The rails ([`Serial`] holds them behind its rails lock): this
/// endpoint's end of the per-rail channels, the shaped wire and the
/// fault injector.
struct MemRails {
    /// Shaping and fault settings of the fabric.
    config: FabricConfig,
    /// The peer endpoint, told of every delivery ([`Serial::arrived`]).
    peer: Option<Arc<Serial<MemRails>>>,
    rx: Vec<Receiver<PacketFrame>>,
    tx: Vec<Sender<PacketFrame>>,
    inflight: Vec<Option<InFlight>>,
    /// Packets held back by the reorder injector, per rail.
    held: Vec<Option<PacketFrame>>,
    /// One per endpoint, drawn in the order frames are delivered (under
    /// the rails lock, rail by rail): seeded fault sequences repeat.
    rng: Xoshiro256StarStar,
}

impl MemRails {
    fn new(config: &FabricConfig, wires: Wires, seed: u64) -> Self {
        let n_rails = config.platform.rail_count();
        MemRails {
            config: config.clone(),
            peer: None,
            rx: wires.rx,
            tx: wires.tx,
            inflight: (0..n_rails).map(|_| None).collect(),
            held: (0..n_rails).map(|_| None).collect(),
            rng: Xoshiro256StarStar::new(seed),
        }
    }
}

impl Rails for MemRails {
    /// The channels say nothing of their own accord: every delivery
    /// reports itself ([`Serial::arrived`]).
    type Parker = WorkSignal;

    /// The pair's construction: the fault plan's windows count from it.
    type Clock = Instant;

    fn count(&self) -> usize {
        self.inflight.len()
    }

    /// The frame's parts are still the sender's buffers — the engine
    /// reads them without another flatten.
    fn read(&mut self, frames: &mut Vec<(usize, PacketFrame)>, _: &FabricStatus) -> bool {
        let mut owed = false;
        for (rail, rx) in self.rx.iter().enumerate() {
            let mut taken = 0;
            while taken < READ_BUDGET {
                let Ok(frame) = rx.try_recv() else { break };
                taken += frame.wire_len();
                frames.push((rail, frame));
            }
            owed |= taken >= READ_BUDGET && !rx.is_empty();
        }
        owed
    }

    fn idle(&self, rail: usize) -> bool {
        self.inflight[rail].is_none()
    }

    fn enqueue(&mut self, rail: usize, frame: PacketFrame, token: TxToken, now: u64) {
        let ready_at = (self.config.time_scale > 0.0)
            .then(|| now + shaped_ns(&self.config, rail, frame.wire_len(), now));
        self.inflight[rail] = Some(InFlight {
            ready_at,
            token,
            frame,
        });
    }

    /// Retire the injections whose shaped duration elapsed (an unshaped
    /// one in the pass that posted it) and hand each frame, or what the
    /// fault injector leaves of it, to the peer.
    fn flush(
        &mut self,
        done: &mut Vec<(usize, TxToken)>,
        status: &FabricStatus,
        now: u64,
    ) -> Option<u64> {
        let mut delivered = false;
        for (rail, slot) in self.inflight.iter_mut().enumerate() {
            let Some(f) = slot.take_if(|f| f.ready_at.is_none_or(|at| at <= now)) else {
                continue;
            };
            done.push((rail, f.token));
            let tx = &self.tx[rail];
            // Peer gone: drop silently (shutdown path).
            let mut push = |frame| delivered |= tx.send(frame).is_ok();
            let Some(plan) = &self.config.faults else {
                push(f.frame);
                continue;
            };
            let at = Duration::from_nanos(now);
            let held = &mut self.held[rail];
            if plan.fate(rail, at, &mut self.rng, held, f.frame, &mut push) {
                status.tx_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(peer) = self.peer.as_ref().filter(|_| delivered) {
            peer.arrived();
        }
        self.inflight
            .iter()
            .flatten()
            .filter_map(|f| f.ready_at)
            .min()
    }

    fn syscalls(&self) -> SyscallStats {
        SyscallStats::default()
    }

    /// Forget the peer (each end holds the other) and hang up.
    fn close(&mut self) {
        self.peer = None;
        self.rx.clear();
        self.tx.clear();
        self.inflight.clear();
        self.held.clear();
    }
}

/// Wall-clock nanoseconds of one shaped injection on `rail` started `at`
/// on the engine clock, stretched by the fault plan's bandwidth factor:
/// a rail at a quarter of its bandwidth takes 4x the wire time.
fn shaped_ns(config: &FabricConfig, rail: usize, bytes: usize, at: u64) -> u64 {
    let nic = &config.platform.rails[rail];
    let secs =
        (bytes as f64 / nic.link_bandwidth + nic.wire_latency.as_secs_f64()) * config.time_scale;
    let factor = config
        .faults
        .as_ref()
        .map_or(1.0, |p| p.bandwidth(rail, Duration::from_nanos(at)));
    Duration::from_secs_f64(secs / factor).as_nanos() as u64
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

/// Build a connected pair of endpoints: callers drive progress and one
/// backstop thread each covers the rest.
pub fn pair(config: FabricConfig) -> (Endpoint, Endpoint) {
    let mut cfg_engine = config.engine.clone();
    cfg_engine.crc = true;
    let rails = config.platform.rail_count();
    // Without shaping there is no wire time for a bandwidth factor to
    // stretch.
    let applies = |e| config.time_scale > 0.0 || !matches!(e, Effect::Bandwidth(_));
    if let Some(f) = config.faults.iter().find_map(|p| p.refused(rails, applies)) {
        panic!(
            "the mem fabric at time_scale {} cannot apply {f:?}",
            config.time_scale
        );
    }
    let (a, b) = Wires::pair(rails);
    let start = Instant::now();
    let seed = config.faults.as_ref().map_or(0, |p| p.seed);
    let side = |wires, seed| {
        let mut engine = Engine::new(cfg_engine.clone(), config.platform.rails.clone(), vec![]);
        let conns: Vec<ConnId> = (0..config.conns.max(1))
            .map(|_| engine.conn_open())
            .collect();
        let rails = MemRails::new(&config, wires, seed);
        let serial = Serial::new(engine, rails, WorkSignal::default(), start);
        (serial, conns)
    };
    let ((sa, conns_a), (sb, conns_b)) = (side(a, seed ^ 0xA), side(b, seed ^ 0xB));
    sa.io().rails.peer = Some(sb.clone());
    sb.io().rails.peer = Some(sa.clone());
    let endpoint = |serial: Arc<Serial<MemRails>>, name, conns| {
        serial.spawn(name, conns).expect("spawn mem fabric thread")
    };
    (
        endpoint(sa, "nmad-mem-a", conns_a),
        endpoint(sb, "nmad-mem-b", conns_b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nmad_core::endpoint::{BACKSTOP_TICK, CALLER_LEASE, SPIN_BUDGET};
    use nmad_core::health::{self, RailState};
    use nmad_core::{Fault, Observe, StrategyKind};
    use nmad_model::platform;

    const T: Duration = Duration::from_secs(10);

    fn fabric(kind: StrategyKind) -> (Endpoint, Endpoint) {
        pair(FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(kind),
        ))
    }

    fn serial(e: &Endpoint) -> Arc<Serial<MemRails>> {
        let fabric: Arc<dyn std::any::Any + Send + Sync> = e.fabric().clone();
        fabric.downcast().expect("serial endpoint expected")
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

    /// The shapes of `tests/conformance.rs` (eager, rendezvous striped
    /// over both rails, multi-segment, both directions at once, acked)
    /// leave no pool buffer unaccounted for on either end.
    #[test]
    fn pool_ledger_balances_after_the_conformance_shapes() {
        let mut cfg = FabricConfig::new(platform::paper_platform(), EngineConfig::default());
        cfg.engine.acked = true;
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        for (i, len) in [64usize, 3000, 2 << 20, 100_000].into_iter().enumerate() {
            let segments = |seed| {
                let payload = Bytes::from(random_payload(len, seed));
                vec![payload.slice(..len / 3), payload.slice(len / 3..)]
            };
            let (ra, rb) = (a.recv(c), b.recv(c));
            let (sa, sb) = (
                a.send(c, segments(i as u64)),
                b.send(c, segments(!(i as u64))),
            );
            assert!(sa.wait_acked(T) && sb.wait_acked(T));
            let (at_a, at_b) = (ra.wait(T).expect("b to a"), rb.wait(T).expect("a to b"));
            assert_eq!(at_b.segments, segments(i as u64));
            assert_eq!(at_a.segments, segments(!(i as u64)));
        }
        assert_eq!(a.pool_leaks() + b.pool_leaks(), 0);
        assert_eq!(
            a.rx_errors() + b.rx_errors() + a.io_errors() + b.io_errors(),
            0
        );
    }

    #[test]
    fn corruption_detected_not_delivered_silently() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
        );
        // Every packet corrupted.
        cfg.faults = Some(FaultPlan::everywhere(7, 2, &[Effect::Corrupt(1.0)]));
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
        cfg.faults = Some(FaultPlan::everywhere(9, 2, &[Effect::Loss(1.0)]));
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let r = b.recv(c);
        a.send(c, vec![Bytes::from_static(b"lost")]);
        assert!(r.wait(Duration::from_millis(300)).is_none());
        assert!(a.tx_dropped() > 0);
    }

    /// Without shaping there is no wire time to stretch: a bandwidth
    /// window is refused, not ignored.
    #[test]
    #[should_panic(expected = "the mem fabric at time_scale 0 cannot apply Fault { rail: 0,")]
    fn an_unshaped_fabric_refuses_a_bandwidth_fault() {
        let mut cfg = FabricConfig::new(platform::paper_platform(), EngineConfig::default());
        cfg.faults = Some(FaultPlan::everywhere(1, 2, &[Effect::Bandwidth(0.5)]));
        pair(cfg);
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
        cfg.faults = Some(FaultPlan::everywhere(17, 2, &[Effect::Loss(0.4)]));
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
        let effects = [
            Effect::Loss(0.1),
            Effect::Duplicate(0.3),
            Effect::Reorder(0.3),
        ];
        cfg.faults = Some(FaultPlan::everywhere(29, 2, &effects));
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
        cfg.engine.observe = Observe::Record { capacity: 1 << 14 };
        cfg.faults = Some(FaultPlan::new(
            41,
            vec![Fault::during(
                0,
                Duration::from_millis(5)..Duration::from_millis(700),
                Effect::Loss(1.0),
            )],
        ));
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
            let hist = rail0_path(&a);
            if is_subsequence(&RECOVERY, &hist) {
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

    /// A dead rail's way back into service.
    const RECOVERY: [RailState; 5] = [
        RailState::Up,
        RailState::Suspect,
        RailState::Down,
        RailState::Probing,
        RailState::Up,
    ];

    /// Rail 0's health path, read from the transitions `ep`'s recorder
    /// took; the ring must have kept them all.
    fn rail0_path(ep: &Endpoint) -> Vec<RailState> {
        let eng = ep.fabric().engine().lock();
        let rec = eng.recorder();
        assert_eq!(rec.dropped(), 0, "ring too small for the run");
        health::recorded_path(rec.iter(), 0)
    }

    /// True when `needle` appears in `haystack` in order (not necessarily
    /// contiguously).
    fn is_subsequence(needle: &[RailState], haystack: &[RailState]) -> bool {
        let mut it = haystack.iter();
        needle.iter().all(|n| it.any(|h| h == n))
    }

    /// A plan acts while the fabric runs: a full loss on both rails
    /// blackholes the wire from the start, healing it lets the engine's
    /// own retransmission recover — no restart, no rebuild.
    #[test]
    fn chaos_dials_apply_live() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AggregateEager),
        );
        cfg.engine.acked = true;
        fast_health(&mut cfg.engine);
        let plan = FaultPlan::everywhere(0, 2, &[Effect::Loss(1.0)]);
        cfg.faults = Some(plan.clone());
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(random_payload(512, 8))]);
        assert!(
            !s.wait_acked(Duration::from_millis(300)),
            "a fully dropped wire cannot confirm delivery"
        );
        // Heal: the pending send recovers through retransmission alone.
        plan.heal();
        assert!(s.wait_acked(Duration::from_secs(30)), "heal must unstick");
        assert!(r.wait(T).is_some());
        assert!(a.stats().retransmits > 0);
        assert!(a.tx_dropped() > 0, "the plan must have eaten frames");
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
        cfg.engine.calibrate = true;
        // ~25,000 events in a release build.
        cfg.engine.observe = Observe::Record { capacity: 1 << 17 };
        // A shaped wire, so that an injection takes what its rail's model
        // says and the calibrator has a ratio to come back to: unshaped,
        // every rail is as fast as the thread that drives it, any split
        // is a fixed point and the last assertion waits for a drift.
        cfg.time_scale = 4.0;
        // ~150 initial-RTO periods, dozens of probe intervals.
        let outage_end = Duration::from_millis(1500);
        cfg.faults = Some(FaultPlan::new(
            61,
            vec![Fault::during(
                0,
                Duration::from_millis(5)..outage_end,
                Effect::Loss(1.0),
            )],
        ));
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
            let hist = rail0_path(&a);
            if is_subsequence(&RECOVERY, &hist) {
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
        cfg.faults = Some(FaultPlan::everywhere(3, 2, &[Effect::Loss(1.0)]));
        let (a, _b) = pair(cfg);
        let c = a.conns()[0];
        let s = a.send(c, vec![Bytes::from_static(b"doomed")]);
        // Local completion may happen (bytes injected)...
        s.wait(Duration::from_millis(200));
        // ...but delivery is never confirmed.
        assert!(!s.wait_acked(Duration::from_millis(300)));
    }

    // ------------------------------------------------------------------
    // Who drives progress (twins of the TCP tests)
    // ------------------------------------------------------------------

    /// Messages the engine has fully received. Reads the stats under
    /// the engine lock only: unlike a `wait`, it makes no progress pass.
    fn msgs_received(e: &Endpoint) -> u64 {
        e.stats().msgs_received
    }

    /// Watch `cond` for up to `limit` without touching the endpoints.
    fn eventually(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < limit {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        cond()
    }

    /// Nobody holds the receiver: the delivery, a function call on the
    /// sender's thread, wakes its backstop, which buffers the message.
    /// A `recv` posted long after returns at once, without a pass.
    #[test]
    fn unexpected_message_is_buffered_with_no_caller_around() {
        let (a, b) = fabric(StrategyKind::Greedy);
        let c = a.conns()[0];
        assert!(a.send(c, vec![Bytes::from_static(b"early")]).wait(T));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(msgs_received(&b), 1, "not buffered within 10 ms");
        let sb = serial(&b);
        let _rails = sb.io(); // (a pass would need them: none is made)
        let msg = b.recv(c).wait(Duration::ZERO).expect("buffered message");
        assert_eq!(&msg.segments[0][..], b"early");
    }

    /// Four application threads each wait on their own receive of one
    /// endpoint while a fifth sends: whoever makes the pass that
    /// delivers a message wakes the others. And a zero timeout is still
    /// exactly one pass: no sleep when nothing is there, and enough to
    /// pick up a frame only a caller's pass can read.
    #[test]
    fn concurrent_waiters_all_complete_and_zero_timeout_polls_once() {
        let (a, b) = fabric(StrategyKind::Greedy);
        let c = a.conns()[0];
        let recvs: Vec<RecvHandle> = (0..4).map(|_| b.recv(c)).collect();
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|scope| {
            let waiters: Vec<_> = recvs
                .iter()
                .map(|r| {
                    scope.spawn(|| {
                        start.wait();
                        r.wait(T)
                    })
                })
                .collect();
            start.wait();
            for i in 0..4 {
                a.send(c, vec![Bytes::from(random_payload(300 + i, 70 + i as u64))]);
            }
            for (i, w) in waiters.into_iter().enumerate() {
                let msg = w.join().expect("waiter").expect("delivered");
                assert_eq!(
                    msg.segments[0].as_ref(),
                    random_payload(300 + i, 70 + i as u64).as_slice()
                );
            }
        });
        assert_eq!(a.pool_leaks() + b.pool_leaks(), 0);

        let r = b.recv(c);
        let t0 = Instant::now();
        assert!(r.wait(Duration::ZERO).is_none());
        assert!(t0.elapsed() < Duration::from_millis(50), "zero wait slept");
        // Stand in for a caller mid-pass (once the waiters' lease is
        // over), so that the delivery does not wake the backstop thread:
        // only the zero wait's own pass can read it.
        let sb = serial(&b);
        assert!(eventually(T, || sb.claimed().is_none()));
        sb.enter();
        a.send(c, vec![Bytes::from_static(b"one pass")]);
        // (Unless a backstop pass still in flight has read it instead.)
        assert!(
            sb.owed() || msgs_received(&b) == 5,
            "the delivery woke nobody"
        );
        let msg = r.wait(Duration::ZERO).expect("one pass reads and delivers");
        assert_eq!(&msg.segments[0][..], b"one pass");
        sb.leave();
    }

    /// The Dekker hand-off, and the lease. A delivery that finds callers
    /// making passes wakes nobody: the frame is picked up when the last
    /// of them leaves — by its kick, not by the next tick. One that
    /// finds a lease wakes nobody either, and waits for the backstop no
    /// longer than what is left of it. First forced (a stand-in poller
    /// that never reads, a caller that completes one wait and is gone
    /// for good), then with two threads hammering `send` while the other
    /// end's only caller does its last pass and leaves.
    #[test]
    fn declined_delivery_is_picked_up_by_the_last_poller_or_at_lease_end() {
        let (a, b) = fabric(StrategyKind::Greedy);
        let c = a.conns()[0];
        let sb = serial(&b);
        let small = |seed| vec![Bytes::from(random_payload(64, seed))];
        let prompt = BACKSTOP_TICK / 2;
        let mut declined = 0;
        for round in 0..40 {
            let before = msgs_received(&b);
            sb.enter();
            // (Reaped: a send that follows another within the window may
            // stay in the backlog until a pass, and a wait that has to
            // look is one.)
            assert!(a.send(c, small(round)).wait(T));
            // (A backstop pass still in flight may have read it instead.)
            assert!(
                sb.owed() || msgs_received(&b) > before,
                "round {round}: the delivery woke nobody"
            );
            declined += u32::from(msgs_received(&b) == before);
            sb.leave();
            assert!(
                eventually(prompt, || msgs_received(&b) > before),
                "round {round}: frame stranded after the last poller left"
            );
        }
        assert!(
            declined >= 30,
            "only {declined} of 40 deliveries were declined"
        );
        for round in 0..40 {
            let got = b.recv(c).wait(T).expect("a declined round's message");
            assert_eq!(got.segments, small(round), "round {round}");
        }

        // (On a loaded machine the lease may be over before it is looked
        // at.) Nothing is left unreceived from above, and each round's
        // second message is taken before the next round posts its
        // receive: so every lease looked at is that of a wait that
        // received the message sent for it, and the next round's `before`
        // counts every message sent so far.
        let phase_start = msgs_received(&b);
        let mut leased = 0;
        for round in 0..40 {
            let r = b.recv(c);
            a.send(c, small(100 + round));
            let got = r.wait(T).expect("round's first message");
            assert_eq!(got.segments, small(100 + round), "round {round}");
            let lease = sb.claimed();
            assert!(lease.is_none_or(|l| l <= CALLER_LEASE));
            let before = msgs_received(&b);
            a.send(c, small(200 + round));
            leased += u32::from(lease.is_some() && msgs_received(&b) == before);
            assert!(
                eventually(CALLER_LEASE + prompt, || msgs_received(&b) > before),
                "round {round}: frame under the lease stranded after it ran out"
            );
            let got = b.recv(c).wait(T).expect("round's second message");
            assert_eq!(got.segments, small(200 + round), "round {round}");
        }
        assert!(
            leased >= 30,
            "only {leased} of 40 completed waits held the rails"
        );
        // Every message sent so far has reached the engine before the
        // runs below take their `base`.
        assert!(
            eventually(T, || msgs_received(&b) == phase_start + 80),
            "{} of 80 leased-round messages reached the engine",
            msgs_received(&b) - phase_start
        );

        for run in 0..300 {
            let base = msgs_received(&b);
            std::thread::scope(|scope| {
                for t in 0..2u64 {
                    let (a, small) = (&a, &small);
                    scope.spawn(move || {
                        for i in 0..25 {
                            a.send(c, small(t << 32 | i));
                        }
                    });
                }
                assert!(b.recv(c).wait(T).is_some());
            });
            assert!(
                eventually(CALLER_LEASE + prompt, || msgs_received(&b) == base + 50),
                "run {run}: {} of 50 frames reached the engine",
                msgs_received(&b) - base
            );
        }
        assert_eq!(a.io_errors() + b.io_errors() + b.rx_errors(), 0);
    }

    /// To hold the rails is to promise to read them. A thread that only
    /// submits and reaps renews the lease with every wait and never
    /// needs a pass for its own results: it makes the ones declined on
    /// the strength of its lease, so what arrives for somebody else is
    /// read while it is still at it, not when it stops.
    #[test]
    fn lease_holder_that_never_waits_for_arrivals_still_reads_them() {
        let (a, b) = fabric(StrategyKind::Greedy);
        let c = a.conns()[0];
        let sb = serial(&b);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    assert!(b.send(c, vec![Bytes::from_static(b"reaped")]).wait(T));
                }
            });
            // (The reaper is stopped before anything is asserted: a
            // failure must not leave the scope waiting for it.)
            let stranded = (0..20).find(|&round| {
                let before = msgs_received(&b);
                let leased = eventually(T, || sb.claimed().is_some());
                a.send(c, vec![Bytes::from(random_payload(64, round))]);
                !(leased && eventually(BACKSTOP_TICK / 2, || msgs_received(&b) > before))
            });
            stop.store(true, Ordering::SeqCst);
            assert_eq!(stranded, None, "unread while the lease holder kept at it");
        });
    }

    /// A shaped wire: nobody waits on the sender, so its backstop thread
    /// retires the injection at `ready_at` (a published deadline, not
    /// the tick), and the receiver's caller, asleep on the completion
    /// condvar once its spin budget is spent, is woken by the pass the
    /// delivery set off.
    #[test]
    fn shaped_injection_is_retired_by_the_backstop_while_the_caller_sleeps() {
        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
        );
        cfg.time_scale = 15_000.0; // ~1.2 KB at 1.2 GB/s + 1 us: ~30 ms
        let (a, b) = pair(cfg);
        let c = a.conns()[0];
        let r = b.recv(c);
        let (t0, cpu0) = (Instant::now(), thread_cpu());
        a.send(c, vec![Bytes::from(random_payload(1200, 5))]);
        assert!(r.wait(T).is_some());
        let (took, ran) = (t0.elapsed(), thread_cpu() - cpu0);
        assert!(took >= Duration::from_millis(25), "unshaped: {took:?}");
        assert!(
            took < BACKSTOP_TICK * 3 / 4,
            "retired by the tick: {took:?}"
        );
        assert!(ran < took / 2, "the caller span for {ran:?} of {took:?}");
    }

    /// CPU time of the calling thread so far (zero where procfs does not
    /// say).
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let ns = stat.split_whitespace().next().and_then(|f| f.parse().ok());
        Duration::from_nanos(ns.unwrap_or(0))
    }

    /// Dropping an endpoint wakes and joins its backstop thread although
    /// a caller of a handle is asleep mid-`wait`, and that wait returns
    /// `None` at once, not at its timeout.
    #[test]
    fn shutdown_returns_the_waits_in_flight() {
        let (a, b) = fabric(StrategyKind::Greedy);
        let r = b.recv(a.conns()[0]);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let t0 = Instant::now();
                (r.wait(T), t0.elapsed())
            });
            // (Past the spin budget: the waiter is asleep.)
            std::thread::sleep(SPIN_BUDGET * 5);
            drop(b);
            let (msg, took) = waiter.join().expect("waiter");
            assert!(msg.is_none());
            assert!(took < T / 2, "a wait across shutdown ran to its timeout");
        });
    }

    /// The fault injector's draws are a contract: one rng per endpoint,
    /// drawn per frame in delivery order — drop, corrupt, dup, reorder.
    /// For a fixed seed and single-threaded sends the counts below are
    /// those of the one-progress-thread runtime this one replaced.
    #[test]
    fn seeded_fault_sequence_is_pinned() {
        let spec = |loss, reorder| {
            let effects = [
                Effect::Loss(loss),
                Effect::Duplicate(0.3),
                Effect::Reorder(reorder),
            ];
            FaultPlan::everywhere(2007, 2, &effects)
        };
        let payload = |i: usize| vec![Bytes::from(random_payload(64 + i, i as u64))];

        let mut cfg = FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::Greedy),
        );
        cfg.faults = Some(spec(0.2, 0.3));
        let (a, _b) = pair(cfg.clone());
        let c = a.conns()[0];
        for i in 0..200 {
            assert!(a.send(c, payload(i)).wait(T));
        }
        assert_eq!(a.tx_dropped(), 41);

        // Acked, and nothing lost or held back: no retransmission adds
        // frames of its own, every duplicate reaches the receiver.
        cfg.engine.acked = true;
        cfg.engine.health.initial_rto_ns = 60_000_000_000;
        cfg.engine.health.max_rto_ns = 120_000_000_000;
        cfg.faults = Some(spec(0.0, 0.0));
        let (a, b) = pair(cfg);
        for i in 0..200 {
            let r = b.recv(c);
            assert!(a.send(c, payload(i)).wait_acked(T));
            assert!(r.wait(T).is_some());
        }
        assert_eq!(a.tx_dropped(), 0);
        assert_eq!(b.stats().duplicates_dropped, 50);
    }

    /// An engine error on the progress path (here: a completion for a
    /// token the engine never issued, left in a rail's in-flight slot) is
    /// counted and poisons the endpoint's waits on whichever thread made
    /// the pass. Nothing panics, which would leave every waiter to run
    /// out its full timeout.
    #[test]
    fn engine_error_poisons_waits_instead_of_panicking_the_worker() {
        let (a, _b) = fabric(StrategyKind::Greedy);
        let c = a.conns()[0];
        let start = Instant::now();
        serial(&a).io().rails.inflight[0] = Some(InFlight {
            ready_at: None,
            token: TxToken(u64::MAX),
            frame: PacketFrame::from_wire(Bytes::from_static(b"never issued")),
        });
        assert!(a.recv(c).wait(T).is_none());
        assert!(start.elapsed() < T / 2, "a poisoned wait returns early");
        assert_eq!(a.io_errors(), 1);
    }
}
