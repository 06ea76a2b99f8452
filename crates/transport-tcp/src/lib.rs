//! # nmad-transport-tcp — the engine over real TCP sockets
//!
//! Paper §2 lists the library's drivers: Elan, MX, GM-2, SiSCI "and the
//! legacy socket API on top of TCP/IP". The exotic NICs are simulated in
//! this reproduction — but the socket driver can be implemented for real.
//! This crate runs the unmodified NewMadeleine engine over one TCP
//! connection per rail:
//!
//! * packets are framed with a `u32` little-endian length prefix and carry
//!   the exact same wire format as every other harness;
//! * endpoints can live in the same process ([`pair_localhost`]) or in
//!   different processes ([`listen`] / [`connect`]).
//!
//! Multiple TCP connections between the same two hosts are the classic
//! poor man's multi-rail: the strategies still apply (striping a large
//! message over N sockets, aggregating small ones onto the first).
//!
//! A transport is only "how bytes move on a rail": the application
//! surface — [`Endpoint`], [`SendHandle`], [`RecvHandle`] — is
//! [`nmad_core::endpoint`]'s, re-exported here, and so is the runtime
//! ([`Serial`], DESIGN.md §15): the calling thread drives progress —
//! `send` offers the idle rails, a handle's `wait` makes passes itself,
//! and one that completed on something the peer sent (a receive, a
//! delivery ack) holds the sockets for 1 ms more, the lease — and one
//! backstop thread per endpoint sleeps in `epoll_wait` for what no
//! caller is around for: on the sockets and its eventfd, under a lease
//! on the eventfd alone, so that what the lease holder is about to read
//! wakes nobody. This crate supplies the rails ([`Rails`]): one
//! nonblocking socket each, read by whoever holds the rails lock, one
//! `read` per rail and pass. The engine lock is never held across a
//! socket syscall (DESIGN.md "Who drives progress").
//!
//! Transmissions go out with `write_vectored` straight from the engine's
//! [`PacketFrame`] parts (no flattening). Arrivals are carved by the one
//! `FrameReader`: each `read` fills the spare capacity of a 64 KiB read
//! buffer that nothing zero-fills, so a rail that only ever gets small
//! reads never touches most of it. Frames that fit the buffer are copied
//! out into buffers the reader takes back once nobody holds their frames
//! any more — a small one into a shared slab, one over 512 B into a
//! buffer of about its size that carries it alone — a larger one is read
//! straight into its own allocation, and each is handed to
//! [`nmad_core::Engine::on_frame`] as one refcounted slice. A rendezvous
//! chunk goes one better: its head says where in its segment it belongs,
//! and both rails' readers share a landing table (under the rails lock)
//! that holds one allocation per segment in progress, so the payload is
//! read — or, when it arrived whole with other frames, copied once —
//! into its place there; the chunks reach the engine as slices of one
//! allocation, re-join in reassembly and the segment is delivered
//! without the gather. The table is a placement hint: whatever it cannot
//! serve exactly (a range claimed before, a head that disagrees with the
//! frame or the segment, no room) takes the frame-of-its-own path
//! (DESIGN.md "Receive: reassembly by reference").
//!
//! ## Syscalls per frame (DESIGN.md §12)
//!
//! A frame leaves in one `write_vectored` (more after a partial write)
//! and one `read` carves every frame it brought; what amortizes the
//! transmit side is the optimisation window — a burst of small messages
//! is one aggregate frame (DESIGN.md §15 "The window"). Both ratios are
//! counted in [`nmad_core::SyscallStats`]; the transmit one is asserted
//! by `conformance::burst_aggregates_and_echo_does_not`. TCP_NODELAY is
//! unconditionally set on every rail socket (see `RailIo::new`): the
//! engine coalesces on its own terms, so Nagle's algorithm could only
//! add delayed-ACK latency to control frames, never save packets.

#![warn(missing_docs)]
// Copy-regression gate: see DESIGN.md "Datapath and copy discipline".
#![deny(clippy::unnecessary_to_owned, clippy::redundant_clone)]

use std::io::{ErrorKind, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nmad_core::driver::TxToken;
use nmad_core::engine::Engine;
use nmad_core::{
    Effect, EngineConfig, FabricStatus, FaultPlan, Parker, Rails, Serial, SyscallStats,
};
pub use nmad_core::{Endpoint, RecvHandle, SendHandle};
use nmad_model::Platform;
use nmad_sim::Xoshiro256StarStar;
use nmad_wire::PacketFrame;

use frame::{FrameReader, LandingTable, Source, LEN_PREFIX};

mod frame;
mod sys;

/// The backstop thread's timed poll where [`sys`] is the
/// `Unsupported` stub and there is no readiness to block on.
const FALLBACK_POLL: Duration = Duration::from_micros(50);
/// Epoll token of the backstop thread's eventfd (rails use their index).
const KICK_TOKEN: u64 = u64::MAX;
/// Gather-list length of the one frame per write, kept on the stack: a
/// frame of more parts than this (plus its length prefix) takes another
/// `write_vectored`.
const FLUSH_IOVECS: usize = 16;

/// Transport configuration.
#[derive(Clone)]
pub struct TcpConfig {
    /// Rail layout (one TCP connection per rail; the model's thresholds
    /// drive the strategies exactly as on the simulated platform).
    pub platform: Platform,
    /// Engine configuration. CRC is forced on.
    pub engine: EngineConfig,
    /// Logical channels opened at construction on both endpoints.
    pub conns: usize,
    /// Optional fault plan, its windows counted from each endpoint's
    /// construction. TCP applies `Loss` only: a lost frame is discarded
    /// before the socket write (frames are length-prefixed, so the
    /// stream stays aligned). [`listen`] and [`connect`] refuse any
    /// other effect with `InvalidInput`.
    pub faults: Option<FaultPlan>,
}

impl TcpConfig {
    /// Default configuration.
    pub fn new(platform: Platform, engine: EngineConfig) -> Self {
        TcpConfig {
            platform,
            engine,
            conns: 1,
            faults: None,
        }
    }
}

/// One gather list covering the concatenation
/// `prefix₀+frame₀, prefix₁+frame₁, …` starting at byte `skip` of the
/// whole batch: fills `slices` from the front, as far as it is long, and
/// returns how many entries that made (the partial-write resume loop
/// rebuilds from the new offset, so a list cut short just means another
/// `write_vectored` — never corruption).
fn gather_batch_slices<'a>(
    prefixes: &'a [[u8; LEN_PREFIX]],
    frames: &'a [PacketFrame],
    mut skip: usize,
    slices: &mut [IoSlice<'a>],
) -> usize {
    let mut filled = 0;
    for (prefix, frame) in prefixes.iter().zip(frames) {
        let frame_total = LEN_PREFIX + frame.wire_len();
        if skip >= frame_total {
            skip -= frame_total;
            continue;
        }
        let parts = std::iter::once(&prefix[..]).chain(frame.parts().map(|part| &part[..]));
        for part in parts {
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            let Some(slot) = slices.get_mut(filled) else {
                return filled;
            };
            *slot = IoSlice::new(&part[skip..]);
            filled += 1;
            skip = 0;
        }
    }
    filled
}

/// A rail's socket reads with a raw `read(2)` into bytes nobody wrote: a
/// landing chunk's window ([`sys::read_into`]) and the read buffer's
/// spare capacity ([`sys::read_spare`]).
impl Source for &TcpStream {
    fn read_into(&mut self, window: &mut bytes::Window) -> std::io::Result<usize> {
        sys::read_into(self, window)
    }

    fn read_spare(&mut self, buf: &mut Vec<u8>) -> std::io::Result<usize> {
        sys::read_spare(self, buf)
    }
}

/// Per-rail socket state: partial reads and pending vectored writes.
struct RailIo {
    stream: TcpStream,
    rx: FrameReader,
    /// Frame pending injection, written gather-style part by part.
    tx_frame: Option<PacketFrame>,
    /// Little-endian length prefix for `tx_frame`.
    tx_prefix: [u8; LEN_PREFIX],
    /// Bytes of `prefix + frame` already accepted by the socket.
    tx_off: usize,
    /// Tx token to report once the pending frame fully drains.
    pending_token: Option<TxToken>,
    /// A write failed for good: never idle again (see [`RailIo::flush`]).
    tx_closed: bool,
    /// WRITE interest currently registered (see [`Readiness::track_write`]).
    want_write: bool,
}

impl RailIo {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        // TCP_NODELAY on every rail socket, both ends (listen/accept
        // and connect both land here): the engine's control frames — rendezvous
        // grants, delivery acks, health probes — are a few dozen bytes,
        // and Nagle would hold them behind in-flight data until the
        // peer's delayed ACK fired. That inflates measured SRTT by up to
        // 40 ms, trips retransmission timers, and serializes the
        // rendezvous handshake. The engine already coalesces small
        // frames on its own terms (aggregation), so Nagle only adds
        // latency without saving packets.
        stream.set_nodelay(true)?;
        Ok(RailIo {
            stream,
            rx: FrameReader::new(),
            tx_frame: None,
            tx_prefix: [0; LEN_PREFIX],
            tx_off: 0,
            pending_token: None,
            tx_closed: false,
            want_write: false,
        })
    }

    /// Queue a frame for transmission. The parts are shared with the
    /// engine's in-flight state (refcounted), not copied into a staging
    /// buffer. With no frame the next [`RailIo::flush`] reports the
    /// token at once.
    fn enqueue(&mut self, frame: Option<PacketFrame>, token: TxToken) {
        debug_assert!(self.pending_token.is_none(), "one injection at a time");
        if let Some(frame) = &frame {
            self.tx_prefix = (frame.wire_len() as u32).to_le_bytes();
        }
        self.tx_off = 0;
        self.tx_frame = frame;
        self.pending_token = Some(token);
    }

    /// Push the pending frame with gather writes; return the token once
    /// everything drained. `tx_off` tracks partial progress across the
    /// prefix and the frame parts between calls.
    fn flush(&mut self, tally: &mut SyscallStats) -> std::io::Result<Option<TxToken>> {
        loop {
            let Some(frame) = &self.tx_frame else {
                return Ok(self.pending_token.take());
            };
            let total = LEN_PREFIX + frame.wire_len();
            let mut slices = [IoSlice::new(&[]); FLUSH_IOVECS];
            let filled = gather_batch_slices(
                std::slice::from_ref(&self.tx_prefix),
                std::slice::from_ref(frame),
                self.tx_off,
                &mut slices,
            );
            match self.stream.write_vectored(&slices[..filled]) {
                Ok(n) if n > 0 => {
                    tally.tx_calls += 1;
                    self.tx_off += n;
                    if self.tx_off >= total {
                        tally.tx_frames += 1;
                        self.tx_frame = None;
                        self.tx_off = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // The socket takes no more (peer reset, or `Ok(0)`): the
                // frame is lost with its token never reported, like any
                // frame in flight on a rail that died, and the rail is
                // not offered again. Reported once.
                dead => {
                    self.tx_frame = None;
                    self.pending_token = None;
                    self.tx_closed = true;
                    return Err(dead.err().unwrap_or_else(|| ErrorKind::WriteZero.into()));
                }
            }
        }
    }

    fn idle(&self) -> bool {
        self.pending_token.is_none() && !self.tx_closed
    }
}

/// The rails ([`Serial`] holds them behind its rails lock): one
/// nonblocking socket each.
struct TcpRails {
    rails: Vec<RailIo>,
    ready: Arc<Readiness>,
    faults: Option<FaultPlan>,
    /// The fault plan's loss draws (unused without a plan).
    rng: Xoshiro256StarStar,
    /// Frames the plan lost since the last flush published them.
    dropped: u64,
    /// Syscall amortization tallies, mirrored into the engine's stats.
    syscalls: SyscallStats,
    /// Where both rails' readers put the chunks of a striped segment.
    landing: LandingTable,
}

impl Rails for TcpRails {
    type Parker = Arc<Readiness>;

    /// The endpoint's construction: the fault plan's windows count from
    /// it.
    type Clock = Instant;

    fn count(&self) -> usize {
        self.rails.len()
    }

    /// One `read` per rail. A read that came back full may have left
    /// bytes behind that edge-triggered readiness will not report again.
    fn read(&mut self, frames: &mut Vec<(usize, PacketFrame)>, status: &FabricStatus) -> bool {
        let mut owed = false;
        for (r, rail) in self.rails.iter_mut().enumerate() {
            let open = !rail.rx.closed();
            match rail.rx.read_some(
                &rail.stream,
                r,
                &mut self.landing,
                frames,
                &mut self.syscalls,
            ) {
                Ok(full) => owed |= full,
                Err(_) => {
                    status.io_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            if open && rail.rx.closed() {
                self.ready.forget(rail);
            }
        }
        owed
    }

    fn idle(&self, rail: usize) -> bool {
        self.rails[rail].idle()
    }

    /// A frame the fault plan loses: the transmit "succeeds" locally
    /// but the frame never reaches the wire — exactly a lossy link,
    /// recoverable in acked mode only.
    fn enqueue(&mut self, rail: usize, frame: PacketFrame, token: TxToken, now: u64) {
        let at = Duration::from_nanos(now);
        let lost = self
            .faults
            .as_ref()
            .is_some_and(|plan| plan.lost(rail, at, &mut self.rng));
        self.dropped += u64::from(lost);
        self.rails[rail].enqueue((!lost).then_some(frame), token);
    }

    fn flush(
        &mut self,
        done: &mut Vec<(usize, TxToken)>,
        status: &FabricStatus,
        _: u64,
    ) -> Option<u64> {
        if self.dropped > 0 {
            let dropped = std::mem::take(&mut self.dropped);
            status.tx_dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        for (r, rail) in self.rails.iter_mut().enumerate() {
            match rail.flush(&mut self.syscalls) {
                Ok(Some(token)) => done.push((r, token)),
                Ok(None) => {}
                Err(_) => {
                    status.io_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            self.ready.track_write(r, rail);
        }
        // A partial write is finished on `EPOLLOUT`.
        None
    }

    fn syscalls(&self) -> SyscallStats {
        self.syscalls
    }

    /// Close the sockets: the peer sees EOF.
    fn close(&mut self) {
        self.rails.clear();
    }
}

/// What the backstop thread sleeps on: one epoll instance over
/// the rail sockets (edge-triggered READ; WRITE only while a partial
/// write is pending) plus an eventfd for kicks — and, while a caller
/// holds the rails under a lease, a second instance over the eventfd
/// alone ([`Parker::park_leased`]). Every `write` into a loopback socket
/// otherwise wakes the peer's backstop out of `epoll_wait`, on another
/// CPU, to be declined by the caller that is already polling: one
/// context switch per message, and the writer pays for the wake-up
/// inside its `send`. Off the sockets, what arrives queues on the first
/// instance's ready list and wakes nobody; the edge is still there for
/// the next [`Parker::park`].
struct Readiness {
    /// `None` where [`sys`] is the `Unsupported` stub: [`FALLBACK_POLL`].
    epoll: Option<Epoll>,
    /// A kick is pending: back-to-back kicks cost one `eventfd` write.
    kicked: AtomicBool,
}

/// The two instances and the eventfd both watch.
struct Epoll {
    /// Over the rail sockets and `kick`.
    rails: sys::Poller,
    /// Over `kick` alone, for a leased park.
    leased: sys::Poller,
    kick: sys::EventFd,
}

impl Readiness {
    fn new(rails: &[RailIo]) -> std::io::Result<Self> {
        let kicked = AtomicBool::new(false);
        let poller = match sys::Poller::new() {
            Err(e) if e.kind() == ErrorKind::Unsupported => {
                let epoll = None;
                return Ok(Readiness { epoll, kicked });
            }
            other => other?,
        };
        let (leased, kick) = (sys::Poller::new()?, sys::EventFd::new()?);
        poller.add(kick.raw(), KICK_TOKEN, false)?;
        leased.add(kick.raw(), KICK_TOKEN, false)?;
        for (idx, rail) in rails.iter().enumerate() {
            poller.add(rail.stream.as_raw_fd(), idx as u64, false)?;
        }
        let epoll = Some(Epoll {
            rails: poller,
            leased,
            kick,
        });
        Ok(Readiness { epoll, kicked })
    }

    /// WRITE interest follows the rail's pending partial write (an idle
    /// socket is always writable and would wake the backstop for
    /// nothing), updated by whichever thread made the pass.
    fn track_write(&self, idx: usize, rail: &mut RailIo) {
        let Some(epoll) = &self.epoll else {
            return;
        };
        let want = rail.tx_frame.is_some();
        if want != rail.want_write {
            rail.want_write = want;
            let _ = epoll
                .rails
                .modify(rail.stream.as_raw_fd(), idx as u64, want);
        }
    }

    /// Stop watching a rail whose read side is finished.
    fn forget(&self, rail: &RailIo) {
        if let Some(epoll) = &self.epoll {
            let _ = epoll.rails.delete(rail.stream.as_raw_fd());
        }
    }

    /// Sleep on one of the two instances until it reports something or
    /// `timeout`. The latch is cleared before the caller's pass, so a
    /// later kick writes again. A kick drained through one instance is
    /// at most one empty wake-up of the other.
    fn sleep(&self, leased: bool, timeout: Duration) {
        let Some(epoll) = &self.epoll else {
            return std::thread::park_timeout(timeout.min(FALLBACK_POLL));
        };
        let poller = if leased { &epoll.leased } else { &epoll.rails };
        let mut events = [sys::EpollEvent::zeroed(); 4];
        let ms = timeout.as_micros().div_ceil(1000) as i32;
        // An interrupted wait is a spurious wake-up: harmless.
        let n = poller.wait(&mut events, ms).unwrap_or(0);
        if events[..n].iter().any(|e| e.token() == KICK_TOKEN) {
            epoll.kick.drain();
        }
        self.kicked.store(false, Ordering::SeqCst);
    }
}

impl Parker for Readiness {
    fn kick(&self) {
        if let Some(epoll) = &self.epoll {
            if !self.kicked.swap(true, Ordering::SeqCst) {
                epoll.kick.wake();
            }
        }
    }

    /// Sleep until a rail is ready, a kick, or `timeout`.
    fn park(&self, timeout: Duration) {
        self.sleep(false, timeout);
    }

    /// Sleep until a kick or `timeout`: the sockets are the lease
    /// holder's. (The stub has nothing to tell apart: its timed poll.)
    fn park_leased(&self, timeout: Duration) {
        self.sleep(true, timeout);
    }
}

/// Refuse a fault plan TCP cannot apply in full: anything but `Loss`.
fn check_faults(config: &TcpConfig) -> std::io::Result<()> {
    let rails = config.platform.rail_count();
    let applies = |e| matches!(e, Effect::Loss(_));
    match config.faults.iter().find_map(|p| p.refused(rails, applies)) {
        None => Ok(()),
        Some(f) => Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("TCP cannot apply {f:?}"),
        )),
    }
}

/// The one constructor: an engine with its channels open, the rails
/// under [`Serial`] and its backstop thread.
fn build_endpoint(config: &TcpConfig, streams: Vec<TcpStream>) -> std::io::Result<Endpoint> {
    let mut cfg_engine = config.engine.clone();
    cfg_engine.crc = true;
    let mut engine = Engine::new(cfg_engine, config.platform.rails.clone(), vec![]);
    let conns = (0..config.conns.max(1))
        .map(|_| engine.conn_open())
        .collect();
    let rails = streams
        .into_iter()
        .map(RailIo::new)
        .collect::<std::io::Result<Vec<_>>>()?;
    let ready = Arc::new(Readiness::new(&rails)?);
    let rails = TcpRails {
        rails,
        ready: ready.clone(),
        faults: config.faults.clone(),
        rng: Xoshiro256StarStar::new(config.faults.as_ref().map_or(0, |p| p.seed)),
        dropped: 0,
        syscalls: SyscallStats::default(),
        landing: LandingTable::new(),
    };
    Serial::new(engine, rails, ready, Instant::now()).spawn("nmad-tcp", conns)
}

/// Listen for a peer: binds one listener per rail on `127.0.0.1:0` and
/// returns the addresses to hand to [`connect`], plus a closure-ish
/// acceptor to finish the handshake.
pub struct PendingListen {
    config: TcpConfig,
    listeners: Vec<TcpListener>,
    addrs: Vec<SocketAddr>,
}

impl PendingListen {
    /// The addresses (one per rail) the peer must connect to, in order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Accept one connection per rail and build the endpoint.
    pub fn accept(self) -> std::io::Result<Endpoint> {
        let mut streams = Vec::with_capacity(self.listeners.len());
        for l in &self.listeners {
            let (s, _) = l.accept()?;
            streams.push(s);
        }
        build_endpoint(&self.config, streams)
    }
}

/// Start listening (server side).
pub fn listen(config: TcpConfig) -> std::io::Result<PendingListen> {
    check_faults(&config)?;
    let n = config.platform.rail_count();
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(l.local_addr()?);
        listeners.push(l);
    }
    Ok(PendingListen {
        config,
        listeners,
        addrs,
    })
}

/// Connect to a listening peer (client side): one address per rail, in the
/// exact order published by [`PendingListen::addrs`].
pub fn connect(config: TcpConfig, addrs: &[SocketAddr]) -> std::io::Result<Endpoint> {
    check_faults(&config)?;
    if addrs.len() != config.platform.rail_count() {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            format!(
                "{} addresses for {} rails: one address per rail",
                addrs.len(),
                config.platform.rail_count()
            ),
        ));
    }
    let mut streams = Vec::with_capacity(addrs.len());
    for a in addrs {
        streams.push(TcpStream::connect(a)?);
    }
    build_endpoint(&config, streams)
}

/// A connected pair within one process over localhost, `(server,
/// client)`, wired up on the calling thread: [`listen`], [`connect`],
/// then [`PendingListen::accept`]. No thread has to dial while this one
/// blocks in `accept`: the kernel completes each rail's handshake into
/// its listener's backlog, so `connect` returns before anything is
/// accepted, and each `accept` finds its rail's connection waiting.
pub fn pair_localhost(config: TcpConfig) -> std::io::Result<(Endpoint, Endpoint)> {
    let pending = listen(config.clone())?;
    let client = connect(config, pending.addrs())?;
    let server = pending.accept()?;
    Ok((server, client))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nmad_core::endpoint::{BACKSTOP_TICK, CALLER_LEASE};
    use nmad_core::StrategyKind;
    use nmad_model::{platform, RailId};
    use nmad_sim::Xoshiro256StarStar;

    const T: Duration = Duration::from_secs(20);

    fn fabric(kind: StrategyKind) -> (Endpoint, Endpoint) {
        pair_localhost(TcpConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(kind),
        ))
        .expect("localhost pair")
    }

    fn random(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    /// A loss window makes even a reliable TCP wire lossy; acked mode
    /// recovers through the engine's own retransmission, the lost frames
    /// are counted, and healing the plan returns the fabric to zero-loss
    /// behaviour.
    #[test]
    fn chaos_drop_boost_recovered_by_retransmission() {
        let mut engine = EngineConfig::with_strategy(StrategyKind::Greedy);
        engine.acked = true;
        engine.health.initial_rto_ns = 20_000_000;
        engine.health.min_rto_ns = 5_000_000;
        // (Half of all frames lost on both rails: at the default 2 s
        // clamp the backed-off timers alone take 2.5 s, or 10.)
        engine.health.max_rto_ns = 40_000_000;
        let plan = loss_on_both_rails(0.5);
        let mut cfg = TcpConfig::new(platform::paper_platform(), engine);
        cfg.faults = Some(plan.clone());
        let (a, b) = pair_localhost(cfg).expect("localhost pair");
        let c = a.conns()[0];
        let n = 8;
        let recvs: Vec<RecvHandle> = (0..n).map(|_| b.recv(c)).collect();
        let sends: Vec<SendHandle> = (0..n)
            .map(|i| a.send(c, vec![Bytes::from(random(400 + i * 31, i as u64))]))
            .collect();
        for (i, s) in sends.iter().enumerate() {
            assert!(s.wait_acked(T), "message {i} never recovered");
        }
        for r in recvs {
            assert!(r.wait(T).is_some());
        }
        assert!(a.stats().retransmits > 0, "a 50% loss must force retries");
        assert!(a.tx_dropped() > 0, "the lost frames must be counted");
        // Rendezvous-sized, still lossy: a retransmission re-chunks the
        // whole message, so its chunks come back over ranges of the
        // segment's landing allocation that the first attempt's
        // survivors claimed. Those miss, arrive in frames of their own
        // and are trimmed or dropped as duplicates; the delivery is
        // byte-exact whichever mix of landed and gathered it is.
        // (Which frames are lost follows the order the rails were
        // written in: most messages meet the case, not every one.)
        let before = b.stats();
        let met = (0..32).any(|i| {
            let large = random((1 << 20) + i * 4099, 50 + i as u64);
            let r = b.recv(c);
            let s = a.send(c, vec![Bytes::from(large.clone())]);
            assert!(s.wait_acked(T), "large message {i} never recovered");
            assert_eq!(r.wait(T).unwrap().segments[0].as_ref(), large.as_slice());
            let after = b.stats();
            after.duplicates_dropped > before.duplicates_dropped
                || after.datapath.rx_copy_bytes > before.datapath.rx_copy_bytes
        });
        assert!(met, "no retransmitted chunk met a range already claimed");
        plan.heal();
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(random(4096, 99))]);
        assert!(s.wait_acked(T));
        assert!(r.wait(T).is_some());
        assert_eq!(a.pool_leaks() + b.pool_leaks(), 0);
        assert_eq!(a.io_errors() + b.io_errors(), 0);
    }

    /// `Loss` on both rails for the whole run (or until healed).
    fn loss_on_both_rails(p: f64) -> FaultPlan {
        FaultPlan::everywhere(0x7C9, 2, &[Effect::Loss(p)])
    }

    /// TCP applies losses only: a plan it would have to ignore part of
    /// is refused before a socket is opened.
    #[test]
    fn a_plan_tcp_cannot_apply_is_refused() {
        for effect in [
            Effect::Bandwidth(0.5),
            Effect::Corrupt(0.1),
            Effect::Duplicate(0.1),
            Effect::Reorder(0.1),
        ] {
            let mut cfg = TcpConfig::new(platform::paper_platform(), EngineConfig::default());
            cfg.faults = Some(FaultPlan::everywhere(1, 2, &[effect]));
            let err = pair_localhost(cfg.clone()).err().expect("refused");
            assert_eq!(err.kind(), ErrorKind::InvalidInput, "{effect:?}");
            let err = connect(cfg, &[]).err().expect("refused");
            assert_eq!(err.kind(), ErrorKind::InvalidInput, "{effect:?}");
        }
    }

    #[test]
    fn explicit_listen_connect_flow() {
        let cfg = TcpConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::Greedy),
        );
        let pending = listen(cfg.clone()).unwrap();
        let addrs = pending.addrs().to_vec();
        assert_eq!(addrs.len(), 2, "one socket per rail");
        let client = std::thread::spawn(move || connect(cfg, &addrs).unwrap());
        let server = pending.accept().unwrap();
        let client = client.join().unwrap();
        let c = server.conns()[0];
        let r = client.recv(c);
        server.send(c, vec![Bytes::from_static(b"over real tcp")]);
        assert_eq!(&r.wait(T).unwrap().segments[0][..], b"over real tcp");
    }

    /// The address list comes from outside the program: a wrong count is
    /// an `InvalidInput` error, not a panic.
    #[test]
    fn connect_with_wrong_address_count_is_an_error() {
        let cfg = TcpConfig::new(platform::paper_platform(), EngineConfig::default());
        let pending = listen(cfg.clone()).unwrap();
        let err = connect(cfg, &pending.addrs()[..1])
            .err()
            .expect("one address, two rails");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }

    // ------------------------------------------------------------------
    // Who drives progress
    // ------------------------------------------------------------------

    fn serial(e: &Endpoint) -> Arc<Serial<TcpRails>> {
        let fabric: Arc<dyn std::any::Any + Send + Sync> = e.fabric().clone();
        fabric.downcast().expect("serial endpoint expected")
    }

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
            std::thread::sleep(Duration::from_micros(200));
        }
        cond()
    }

    /// (a) With no application call on the receiver, the backstop thread
    /// buffers an arrival (unexpected-message path), and a
    /// rendezvous-sized send completes although only the receiver ever
    /// waits: the sender's side of the handshake is the backstop's too.
    #[test]
    fn backstop_buffers_arrivals_and_drives_rendezvous() {
        let (a, b) = fabric(StrategyKind::AdaptiveSplit);
        let c = a.conns()[0];
        let small = random(512, 61);
        a.send(c, vec![Bytes::from(small.clone())]);
        assert!(
            eventually(Duration::from_millis(50), || msgs_received(&b) == 1),
            "arrival not buffered by the backstop thread within 50 ms"
        );
        let large = random(1 << 20, 62);
        a.send(c, vec![Bytes::from(large.clone())]);
        let (r1, r2) = (b.recv(c), b.recv(c));
        assert_eq!(r1.wait(T).unwrap().segments[0].as_ref(), small.as_slice());
        assert_eq!(r2.wait(T).unwrap().segments[0].as_ref(), large.as_slice());
        assert!(a.stats().rdv_handshakes >= 1);
        assert_eq!(a.io_errors() + b.io_errors() + b.rx_errors(), 0);
    }

    /// The lease. A wait that completes on something the peer sent keeps
    /// the sockets for [`CALLER_LEASE`] after it, however small what it
    /// read — the backstop thread counts the endpoint as still polled
    /// and sleeps on its eventfd alone — and no longer: what arrives
    /// meanwhile, with no further call on the receiver, is still
    /// buffered by the backstop. A sender waiting on its handle takes
    /// none, eager or rendezvous: its grants and partial writes are its
    /// backstop's. The holder's own are the other thing a lease
    /// delays: a rendezvous-sized send submitted under a lease by a
    /// caller that then makes no call completes all the same — the
    /// grant is read, and a write the sockets took only part of is
    /// finished, by the backstop when the lease is over (`EPOLLOUT`
    /// wakes nobody before), so the stall is bounded by the lease.
    #[test]
    fn receive_wait_leases_the_sockets_and_hands_them_back() {
        let (a, b) = fabric(StrategyKind::AdaptiveSplit);
        let c = a.conns()[0];
        let (sa, sb) = (serial(&a), serial(&b));
        let small = |seed| vec![Bytes::from(random(512, seed))];
        let large = random(1 << 20, 92);

        // (On a loaded machine the lease may be over before it is looked
        // at.)
        let leased = (0..20).find_map(|round| {
            let r = b.recv(c);
            let s = a.send(c, small(round));
            assert!(r.wait(T).is_some());
            let lease = sb.claimed();
            assert!(s.wait(T));
            assert!(sa.claimed().is_none(), "the sender's wait took a lease");
            lease
        });
        assert!(leased.expect("no lease after a receive wait") <= CALLER_LEASE);

        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(large.clone())]);
        assert_eq!(r.wait(T).unwrap().segments[0].as_ref(), large.as_slice());
        assert!(s.wait(T));
        assert!(
            sa.claimed().is_none(),
            "the sender's wait on a rendezvous took a lease"
        );

        let r = b.recv(c);
        a.send(c, small(90));
        assert!(r.wait(T).is_some());
        let before = msgs_received(&b);
        a.send(c, small(91));
        assert!(
            eventually(Duration::from_millis(50), || msgs_received(&b) > before),
            "arrival under the lease not buffered once it ran out"
        );
        assert!(sb.claimed().is_none());

        // Submitted under a lease by a caller that is then gone: the
        // grant, and whatever write of the data the sockets do not take
        // whole, wait for `b`'s backstop, which is off the sockets until
        // the lease is over and on them (`EPOLLOUT` included) from then.
        let (ra, rb) = (a.recv(c), b.recv(c));
        a.send(c, small(93));
        assert!(rb.wait(T).is_some());
        let s = b.send(c, vec![Bytes::from(large.clone())]);
        let t0 = Instant::now();
        assert_eq!(ra.wait(T).unwrap().segments[0].as_ref(), large.as_slice());
        assert!(
            t0.elapsed() < BACKSTOP_TICK / 2,
            "a rendezvous left behind under a lease waited for the tick"
        );
        assert!(s.wait(T));
        assert_eq!(a.io_errors() + b.io_errors() + b.rx_errors(), 0);
    }

    /// The leased park, without an engine: a socket that got ready is
    /// the lease holder's and wakes nobody, but its edge stays on the
    /// first instance for the next plain park; a kick ends either kind
    /// of sleep; and the eventfd both instances watch, drained through
    /// one, costs the other an empty wake-up at most.
    #[test]
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn leased_park_sleeps_through_the_sockets_but_not_through_a_kick() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let rails = [RailIo::new(listener.accept().unwrap().0).unwrap()];
        let ready = Readiness::new(&rails).unwrap();
        let tick = Duration::from_millis(30);
        let took = |sleep: &dyn Fn()| {
            let t0 = Instant::now();
            sleep();
            t0.elapsed()
        };

        peer.write_all(b"pending").unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert!(
            took(&|| ready.park_leased(tick)) >= tick,
            "woken by a socket"
        );
        assert!(took(&|| ready.park(T)) < tick, "the socket's edge was lost");

        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                ready.kick();
            });
            assert!(took(&|| ready.park_leased(T)) < Duration::from_millis(50));
        });
        // (Drained through the second instance; the socket's edge is
        // spent and its bytes unread: nothing is left to report.)
        ready.park(tick);
        assert!(
            took(&|| ready.park(tick)) >= tick,
            "a drained kick woke twice"
        );
        ready.kick();
        assert!(took(&|| ready.park(T)) < tick, "a kick before the sleep");
        ready.park_leased(tick);
        assert!(
            took(&|| ready.park_leased(tick)) >= tick,
            "a drained kick woke twice"
        );
    }

    /// (c) Four application threads each wait on their own receive of
    /// one endpoint while a fifth sends: whoever makes the pass that
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
                a.send(c, vec![Bytes::from(random(300 + i, 70 + i as u64))]);
            }
            for (i, w) in waiters.into_iter().enumerate() {
                let msg = w.join().expect("waiter").expect("delivered");
                assert_eq!(
                    msg.segments[0].as_ref(),
                    random(300 + i, 70 + i as u64).as_slice()
                );
            }
        });

        let r = b.recv(c);
        let t0 = Instant::now();
        assert!(r.wait(Duration::ZERO).is_none());
        assert!(t0.elapsed() < Duration::from_millis(50), "zero wait slept");
        // Stand in for a caller mid-pass so the backstop thread declines
        // the arrival: only the zero wait's own pass can read it.
        let sb = serial(&b);
        sb.enter();
        // (Reaped: within the window of the four sends above this one may
        // stay in the backlog until a pass, and then `owed` — which the
        // backstop also raises when it finds the stand-in at the end of
        // the waiters' lease — would not mean that it has arrived.)
        assert!(a.send(c, vec![Bytes::from_static(b"one pass")]).wait(T));
        assert!(eventually(T, || sb.owed()));
        let msg = r.wait(Duration::ZERO).expect("one pass reads and delivers");
        assert_eq!(&msg.segments[0][..], b"one pass");
        sb.leave();
    }

    /// (d) Acked mode under a full loss retransmits with no
    /// application call in flight: the backstop thread's sleep is sized
    /// by `Engine::next_deadline_ns`, including an RTO armed on the
    /// sender's own thread after the backstop went to sleep. The same
    /// holds when the sender goes on to `wait_acked`: the backstop
    /// declines the kick for the new timer, the waiter's passes answer
    /// the declined wake-up, find nothing and give up long before the
    /// RTO — and the backstop must still be up for it, not a tick later.
    #[test]
    fn backstop_retransmits_on_the_engine_deadline() {
        for in_wait in [false, true] {
            let mut engine = EngineConfig::with_strategy(StrategyKind::Greedy);
            engine.acked = true;
            engine.health.initial_rto_ns = 20_000_000;
            engine.health.min_rto_ns = 5_000_000;
            let plan = loss_on_both_rails(1.0);
            let mut cfg = TcpConfig::new(platform::paper_platform(), engine);
            cfg.faults = Some(plan.clone());
            let (a, b) = pair_localhost(cfg).expect("localhost pair");
            let c = a.conns()[0];
            // The sender's backstop thread is early in a full idle tick
            // (it has had nothing to do since the pair was built).
            let sa = serial(&a);
            if in_wait {
                sa.enter();
            }
            let s = a.send(c, vec![Bytes::from(random(400, 81))]);
            if in_wait {
                // Stand in for the waiter: its pass clears the flag the
                // declining backstop raised, and it leaves without a kick.
                assert!(eventually(T, || sa.take_owed()));
                sa.leave();
            }
            assert!(
                eventually(BACKSTOP_TICK / 2, || a.stats().retransmits > 0),
                "in_wait {in_wait}: no retransmit within 2.5x the 20 ms RTO"
            );
            plan.heal();
            assert!(eventually(T, || msgs_received(&b) == 1));
            assert!(s.wait_acked(T));
            assert!(b.recv(c).wait(T).is_some());
        }
    }

    /// (f) The Dekker hand-off. An arrival the backstop thread declines
    /// because a caller is mid-pass must be picked up when that caller
    /// leaves — by its re-kick, not by the next tick. First forced (a
    /// stand-in poller that never reads), then under two threads
    /// hammering `send`, whose passes write but never read: every frame
    /// sent to their endpoint still reaches its engine promptly.
    #[test]
    fn declined_arrival_is_rekicked_by_the_last_poller() {
        let (a, b) = fabric(StrategyKind::Greedy);
        let c = a.conns()[0];
        let sb = serial(&b);
        let prompt = BACKSTOP_TICK / 2;
        let mut declined = 0;
        for round in 0..40 {
            let before = msgs_received(&b);
            sb.enter();
            a.send(c, vec![Bytes::from(random(64, round))]);
            let saw = eventually(T, || sb.owed() || msgs_received(&b) > before);
            assert!(saw, "round {round}: the arrival woke nobody");
            // (A pass still in flight may have read it instead.)
            declined += u32::from(msgs_received(&b) == before);
            sb.leave();
            assert!(
                eventually(prompt, || msgs_received(&b) > before),
                "round {round}: frame stranded after the last poller left"
            );
        }
        assert!(
            declined >= 30,
            "only {declined} of 40 arrivals were declined"
        );

        let base = msgs_received(&b);
        let mut rng = Xoshiro256StarStar::new(0xDE44E2);
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let b = &b;
                scope.spawn(move || {
                    for i in 0..5_000 {
                        b.send(c, vec![Bytes::from(random(32, t << 32 | i))]);
                    }
                });
            }
            for i in 0..2_000u64 {
                a.send(
                    c,
                    vec![Bytes::from(random(32 + (rng.next_u64() % 200) as usize, i))],
                );
            }
        });
        // Promptly: while frames are missing the count never stands still
        // for half a tick. (A stranded frame waits for the next tick; a
        // debug build on a busy box merely takes longer to read 2000.)
        let mut last = (msgs_received(&b), Instant::now());
        while last.0 < base + 2_000 {
            assert!(
                last.1.elapsed() < prompt,
                "{} of 2000 frames reached the engine, then none for half a tick",
                last.0 - base
            );
            std::thread::sleep(Duration::from_millis(1));
            let got = msgs_received(&b);
            if got > last.0 {
                last = (got, Instant::now());
            }
        }
        assert_eq!(a.io_errors() + b.io_errors(), 0);
    }

    /// A read error on one rail does not drop what the same pass read
    /// from the other, and a broken engine invariant on the progress
    /// path (here a token the engine never issued) is counted and
    /// poisons the endpoint's waits instead of panicking inside them.
    #[test]
    fn progress_path_failures_are_typed_not_panics() {
        let (a, b) = fabric(StrategyKind::Greedy);
        let c = a.conns()[0];
        // By hand on b's sockets: rail 0 loses framing, rail 1 carries a
        // well-formed first message built by a bare engine.
        let mut eng = Engine::new(
            EngineConfig {
                crc: true,
                ..EngineConfig::default()
            },
            platform::paper_platform().rails,
            vec![],
        );
        let conn = eng.conn_open();
        eng.submit_send(conn, vec![Bytes::from_static(b"other rail")]);
        let frame = eng.next_tx(RailId(1)).unwrap().expect("decision").frame;
        {
            let sb = serial(&b);
            let io = sb.io();
            let mut wire = (frame.wire_len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&frame.to_bytes());
            (&io.rails.rails[1].stream).write_all(&wire).unwrap();
            (&io.rails.rails[0].stream)
                .write_all(&u32::MAX.to_le_bytes())
                .unwrap();
        }
        let msg = a
            .recv(c)
            .wait(T)
            .expect("rail 1's frame survives rail 0's error");
        assert_eq!(&msg.segments[0][..], b"other rail");
        assert!(eventually(T, || a.io_errors() == 1));

        let r = a.recv(c);
        serial(&a).io().rails.rails[0].enqueue(None, TxToken(u64::MAX));
        let t0 = Instant::now();
        assert!(r.wait(T).is_none());
        assert!(
            t0.elapsed() < T / 2,
            "a poisoned wait returns, it does not hang"
        );
        assert_eq!(a.io_errors(), 2);
    }

    /// A rail whose socket died is counted once per direction and not
    /// offered again: a wait on a send that cannot leave times out, it
    /// does not retry the failed write on every pass.
    #[test]
    fn dead_rail_is_counted_once_and_not_retried() {
        let (a, b) = fabric(StrategyKind::Greedy);
        let c = a.conns()[0];
        drop(b);
        // The kernel accepts a rail's first write after the peer closed;
        // the reset that write provokes fails the next one.
        for _ in 0..20 {
            a.send(c, vec![Bytes::from_static(b"into the void")])
                .wait(Duration::from_millis(5));
        }
        assert!(a.io_errors() > 0, "writes to a closed peer never failed");
        let rails = a.stats().rails.len() as u64;
        assert!(
            a.io_errors() <= 2 * rails,
            "{} I/O errors on {rails} dead rails",
            a.io_errors()
        );
    }

    mod batch_props {
        use super::super::{gather_batch_slices, LEN_PREFIX};
        use bytes::Bytes;
        use nmad_wire::{PacketFrame, PartList};
        use proptest::prelude::*;
        use std::io::IoSlice;

        /// Arbitrary scatter-gather frame: a head plus 0–4 body parts,
        /// any of which may be empty or a single byte (the awkward
        /// shapes the gather logic must skip or tail-slice correctly).
        fn arb_frame() -> impl Strategy<Value = PacketFrame> {
            (
                prop::collection::vec(any::<u8>(), 0..40),
                prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..4),
            )
                .prop_map(|(head, parts)| {
                    let mut list = PartList::new();
                    for p in parts {
                        list.push(Bytes::from(p));
                    }
                    PacketFrame::from_parts(Bytes::from(head), list)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The batched gather list, consumed under arbitrary partial
            /// writes and iovec caps, yields a byte stream identical to
            /// writing each frame separately (`prefix ++ frame` flattened
            /// in order).
            #[test]
            fn batched_gather_matches_sequential_writes(
                frames in prop::collection::vec(arb_frame(), 1..6),
                writes in prop::collection::vec(1usize..48, 1..64),
                max_slices in 1usize..8,
            ) {
                let prefixes: Vec<[u8; LEN_PREFIX]> = frames
                    .iter()
                    .map(|f| (f.wire_len() as u32).to_le_bytes())
                    .collect();
                let total: usize =
                    frames.iter().map(|f| LEN_PREFIX + f.wire_len()).sum();

                // Reference: sequential single-frame writes.
                let mut expect = Vec::with_capacity(total);
                for (p, f) in prefixes.iter().zip(&frames) {
                    expect.extend_from_slice(p);
                    expect.extend_from_slice(&f.to_bytes());
                }

                // Batched path: each simulated `write_vectored` consumes
                // `n` bytes of the gather list rebuilt at the current
                // offset, exactly like `RailIo::flush`'s resume loop.
                let mut got = Vec::with_capacity(total);
                let mut off = 0usize;
                let mut list = vec![IoSlice::new(&[]); max_slices];
                let mut wi = 0usize;
                while off < total {
                    let filled = gather_batch_slices(&prefixes, &frames, off, &mut list);
                    let slices = &list[..filled];
                    prop_assert!(!slices.is_empty(), "empty gather list before end of batch");
                    let avail: usize = slices.iter().map(|s| s.len()).sum();
                    let n = writes[wi % writes.len()].min(avail);
                    wi += 1;
                    let mut left = n;
                    for s in slices {
                        if left == 0 {
                            break;
                        }
                        let take = left.min(s.len());
                        got.extend_from_slice(&s[..take]);
                        left -= take;
                    }
                    off += n;
                }
                prop_assert_eq!(got, expect);
            }

            /// A list with room for every part covers the whole batch
            /// remainder from any offset — i.e. an unconstrained kernel
            /// could finish the batch in a single syscall.
            #[test]
            fn uncapped_gather_covers_remainder(
                frames in prop::collection::vec(arb_frame(), 1..6),
                off_frac in 0.0f64..1.0,
            ) {
                let prefixes: Vec<[u8; LEN_PREFIX]> = frames
                    .iter()
                    .map(|f| (f.wire_len() as u32).to_le_bytes())
                    .collect();
                let total: usize =
                    frames.iter().map(|f| LEN_PREFIX + f.wire_len()).sum();
                let off = ((total as f64) * off_frac) as usize;
                prop_assume!(off < total);
                let parts: usize = frames.iter().map(|f| 1 + f.parts().count()).sum();
                let mut slices = vec![IoSlice::new(&[]); parts];
                let filled = gather_batch_slices(&prefixes, &frames, off, &mut slices);
                let avail: usize = slices[..filled].iter().map(|s| s.len()).sum();
                prop_assert_eq!(avail, total - off);
            }
        }
    }
}
