//! Readiness-driven reactor: many connections, a fixed thread pool.
//!
//! The thread-per-rail runtime (DESIGN.md §10) spends two blocking
//! threads per rail/peer — fine for the paper's two-NIC platform,
//! hopeless for thousands of peers. This module multiplexes every
//! connection onto a **fixed pool of epoll workers** (default
//! `min(cores, 4)`, see [`worker_count`]): each worker owns one epoll
//! instance, an eventfd waker, a slab of connections and a buffer-pool
//! magazine, and runs a classic edge-triggered readiness loop.
//!
//! The syscalls come from [`crate::sys`] (raw epoll/eventfd, linux
//! x86_64/aarch64 only; `ErrorKind::Unsupported` elsewhere — the serial
//! and thread-per-rail runtimes remain the portable paths).
//!
//! ## Interest-set state machine
//!
//! Every connection is registered edge-triggered for READ
//! (`EPOLLIN | EPOLLRDHUP | EPOLLET`). WRITE interest is *demand
//! driven*: it is added only when a write returns `WouldBlock` with
//! bytes still staged (the socket pushed back), and removed again the
//! moment the staged batch fully drains. A connection therefore never
//! busy-spins on writability it does not need, and a full peer
//! propagates backpressure naturally: the rail's staged batch stays
//! put, its outbox fills, the scheduler's `has_space()` check stops
//! publishing, and [`nmad_core::ParallelHub::try_submit_send`] starts
//! refusing tenants with `WouldBlock` (the PR 6 contract, unchanged).
//!
//! ## Telemetry
//!
//! Workers count polls/wakeups/events/stalls into lock-free atomics
//! and record events-per-wakeup + ready-depth histograms under a
//! briefly-held mutex; the scheduler mirrors a snapshot into
//! [`nmad_core::ReactorStats`] on every pass (same flow as
//! [`nmad_core::SyscallStats`]).

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use nmad_core::driver::TxToken;
use nmad_core::obs::Log2Histogram;
use nmad_core::{
    ChaosState, Completion, Magazine, OutboxReceiver, ParallelHub, ReactorStats, SharedPool,
};
use nmad_sim::Xoshiro256StarStar;
use nmad_wire::PacketFrame;
use parking_lot::Mutex;

use crate::frame::{FrameReader, LEN_PREFIX};
use crate::{chaos_drops, gather_batch_slices, MAX_IOVECS, TX_BATCH};

/// Ceiling on the auto-sized worker pool.
pub const DEFAULT_MAX_WORKERS: usize = 4;
/// Events one `epoll_wait` can return per wakeup.
const EVENTS_PER_POLL: usize = 1024;
/// Idle poll bound: how long a worker parks in the kernel with no
/// readiness (the eventfd waker ends it early, so this only bounds
/// shutdown latency).
const POLL_TIMEOUT_MS: i32 = 25;
/// Echo connections stage at most this many bytes per read/write-back
/// round (pre-allocated once from the magazine — the event loop itself
/// never allocates).
const ECHO_BUF: usize = 64 * 1024;
/// Listener backlog for high connection counts: `TcpListener::bind`
/// defaults to 128, which drops SYNs when thousands of clients connect
/// in a burst. Re-`listen`ing with a deeper backlog fixes that without
/// reimplementing bind (see [`bump_backlog`]).
pub const HIGH_BACKLOG: i32 = 4096;
/// Slab token reserved for the per-worker eventfd waker.
const WAKER_TOKEN: u64 = u64::MAX;
/// Bound on the shutdown drain: staged rail batches get this long to
/// reach the socket before the worker gives up (mirrors the hub
/// scheduler's own drain grace).
const SHUTDOWN_DRAIN_GRACE: Duration = Duration::from_millis(500);

// ---------------------------------------------------------------------
// Typed fd-limit error (satellite: no raw EMFILE panics)
// ---------------------------------------------------------------------

/// Transport-level error that distinguishes file-descriptor exhaustion
/// from other I/O failures, so callers can shed load instead of dying
/// on a raw `Too many open files`.
#[derive(Debug)]
pub enum TransportError {
    /// The process hit `RLIMIT_NOFILE` (`EMFILE`) or the system hit its
    /// global file table bound (`ENFILE`). Accepting/connecting further
    /// must wait for capacity; existing connections are unaffected.
    FdLimit(io::Error),
    /// Any other I/O error.
    Io(io::Error),
}

impl TransportError {
    /// Classify an I/O error.
    pub fn from_io(e: io::Error) -> Self {
        if is_fd_limit(&e) {
            TransportError::FdLimit(e)
        } else {
            TransportError::Io(e)
        }
    }

    /// True for the fd-exhaustion variant.
    pub fn is_fd_limit(&self) -> bool {
        matches!(self, TransportError::FdLimit(_))
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::FdLimit(e) => {
                write!(f, "file descriptor limit exhausted (shed, not fatal): {e}")
            }
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::FdLimit(e) | TransportError::Io(e) => Some(e),
        }
    }
}

/// True when `e` is `EMFILE` (per-process fd limit) or `ENFILE`
/// (system-wide file table full).
pub fn is_fd_limit(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

/// Worker threads of an endpoint's reactor pool: `min(available cores,
/// 4)`.
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, DEFAULT_MAX_WORKERS)
}

// Re-exported: these paths predate the move to [`crate::sys`].
pub use crate::sys::{self, EventFd, Poller};

/// Bump a bound listener's backlog beyond the 128 that
/// `TcpListener::bind` hard-codes (re-`listen`ing an already-listening
/// socket just updates the backlog).
pub fn bump_backlog(listener: &TcpListener, backlog: i32) -> io::Result<()> {
    sys::listen_backlog(listener.as_raw_fd(), backlog)
}

// ---------------------------------------------------------------------
// Shared pool state and telemetry
// ---------------------------------------------------------------------

#[derive(Default)]
struct Counters {
    polls: AtomicU64,
    wakeups: AtomicU64,
    events: AtomicU64,
    sched_wakes: AtomicU64,
    fd_shed: AtomicU64,
    write_stalls: AtomicU64,
}

#[derive(Default)]
struct Hists {
    events_per_wake: Log2Histogram,
    ready_depth: Log2Histogram,
}

/// What a newly registered connection will do with its bytes.
enum Pending {
    /// Echo everything back (bench servers, `nmad reactor`).
    Echo(TcpStream),
    /// Accept connections and register them as echo conns.
    Listener(TcpListener),
    /// Engine rail: RX frames to the hub, TX from the rail's outbox.
    Rail(Box<RailSpec>),
}

/// Registration payload for a rail connection.
struct RailSpec {
    stream: TcpStream,
    rail: usize,
    hub: Arc<ParallelHub>,
    outbox: OutboxReceiver,
    chaos: Option<ChaosState>,
}

struct WorkerShared {
    waker: Arc<EventFd>,
    inbox: Mutex<VecDeque<Pending>>,
}

/// State shared between the pool handle, its workers, and the
/// telemetry snapshot closure installed on the hub.
pub struct ReactorShared {
    workers: Vec<WorkerShared>,
    shutdown: AtomicBool,
    next: AtomicUsize,
    counters: Counters,
    per_worker_busy: Vec<AtomicU64>,
    conns: AtomicU64,
    hists: Mutex<Hists>,
    epoch: Instant,
    pool: SharedPool,
}

impl ReactorShared {
    /// Queue `p` on the next worker round-robin and wake it.
    fn dispatch(&self, p: Pending) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed) % self.workers.len();
        let w = &self.workers[idx];
        w.inbox.lock().push_back(p);
        w.waker.wake();
    }

    /// Current event-loop telemetry (the scheduler mirrors this into
    /// [`nmad_core::EngineStats`] every pass).
    pub fn snapshot(&self) -> ReactorStats {
        let per_worker_busy_ns: Vec<u64> = self
            .per_worker_busy
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let hists = self.hists.lock();
        ReactorStats {
            workers: self.workers.len() as u64,
            conns: self.conns.load(Ordering::Relaxed),
            polls: self.counters.polls.load(Ordering::Relaxed),
            wakeups: self.counters.wakeups.load(Ordering::Relaxed),
            events: self.counters.events.load(Ordering::Relaxed),
            sched_wakes: self.counters.sched_wakes.load(Ordering::Relaxed),
            fd_shed: self.counters.fd_shed.load(Ordering::Relaxed),
            write_stalls: self.counters.write_stalls.load(Ordering::Relaxed),
            // The loop's own buffers are sized at registration and read
            // into in place: nothing on the event path can grow one.
            hot_path_allocs: 0,
            busy_ns: per_worker_busy_ns.iter().sum(),
            elapsed_ns: self.epoch.elapsed().as_nanos() as u64,
            per_worker_busy_ns,
            events_per_wake: hists.events_per_wake.clone(),
            ready_depth: hists.ready_depth.clone(),
        }
    }
}

// ---------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------

/// Result of pumping one connection.
enum Pump {
    /// Nothing left to do right now.
    Idle,
    /// The socket refused staged bytes: arm WRITE interest.
    WantWrite,
    /// Peer gone or unrecoverable error: deregister and drop.
    Close,
}

struct EchoConn {
    stream: TcpStream,
    /// Pre-allocated from the worker's magazine; the pump never grows
    /// it — that is the zero-allocation guarantee the gate checks.
    buf: BytesMut,
    len: usize,
    off: usize,
}

struct RailConn {
    stream: TcpStream,
    rail: usize,
    hub: Arc<ParallelHub>,
    outbox: OutboxReceiver,
    rx: FrameReader,
    /// Staged TX batch (drained from the outbox), resumed across
    /// partial writes via the PR 7 gather-list builder.
    frames: Vec<PacketFrame>,
    prefixes: Vec<[u8; LEN_PREFIX]>,
    tokens: Vec<TxToken>,
    tx_off: usize,
    carved: Vec<(usize, PacketFrame)>,
    chaos: Option<ChaosState>,
    rng: Xoshiro256StarStar,
}

enum Kind {
    Echo(EchoConn),
    Listener(TcpListener),
    Rail(Box<RailConn>),
}

struct Conn {
    kind: Kind,
    /// WRITE interest currently armed (the demand-driven half of the
    /// interest set).
    want_write: bool,
    /// A readable edge arrived that we have not yet read to
    /// `WouldBlock` (edge-triggered: skipping a read would lose it).
    read_ready: bool,
}

impl Conn {
    fn raw_fd(&self) -> RawFd {
        match &self.kind {
            Kind::Echo(e) => e.stream.as_raw_fd(),
            Kind::Listener(l) => l.as_raw_fd(),
            Kind::Rail(r) => r.stream.as_raw_fd(),
        }
    }
}

// ---------------------------------------------------------------------
// The worker
// ---------------------------------------------------------------------

struct Worker {
    idx: usize,
    shared: Arc<ReactorShared>,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    free_slots: Vec<usize>,
    /// Slots holding rail connections (pumped on scheduler wakes).
    rail_slots: Vec<usize>,
    magazine: Magazine,
}

impl Worker {
    fn run(mut self) {
        let mut events = vec![sys::EpollEvent::zeroed(); EVENTS_PER_POLL];
        loop {
            let n = match self.poller.wait(&mut events, POLL_TIMEOUT_MS) {
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => 0,
                Err(_) => break,
            };
            let t0 = Instant::now();
            let c = &self.shared.counters;
            c.polls.fetch_add(1, Ordering::Relaxed);
            let mut sched_wake = false;
            if n > 0 {
                c.wakeups.fetch_add(1, Ordering::Relaxed);
                c.events.fetch_add(n as u64, Ordering::Relaxed);
            }
            for ev in &events[..n] {
                let token = ev.token();
                if token == WAKER_TOKEN {
                    self.shared.workers[self.idx].waker.drain();
                    sched_wake = true;
                    continue;
                }
                let flags = ev.flags();
                self.handle_event(
                    token as usize,
                    flags & sys::EPOLLIN != 0,
                    flags & sys::EPOLLOUT != 0,
                    flags & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                );
            }
            if sched_wake {
                self.shared
                    .counters
                    .sched_wakes
                    .fetch_add(1, Ordering::Relaxed);
                self.pump_rail_txs();
            }
            let registered = self.drain_inbox();
            if n > 0 {
                let staged_tx: usize = self
                    .rail_slots
                    .iter()
                    .filter(|&&s| {
                        matches!(&self.conns[s], Some(Conn { kind: Kind::Rail(r), .. })
                            if !r.frames.is_empty())
                    })
                    .count();
                let mut hists = self.shared.hists.lock();
                hists.events_per_wake.record(n as u64);
                hists
                    .ready_depth
                    .record((n + registered + staged_tx) as u64);
            }
            self.shared.per_worker_busy[self.idx]
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.drain_shutdown();
                break;
            }
        }
    }

    /// Pull queued registrations into the slab; returns how many landed.
    fn drain_inbox(&mut self) -> usize {
        let mut registered = 0;
        loop {
            let p = self.shared.workers[self.idx].inbox.lock().pop_front();
            let Some(p) = p else { break };
            registered += 1;
            if let Err(e) = self.register(p) {
                if is_fd_limit(&e) {
                    self.shared.counters.fd_shed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        registered
    }

    fn register(&mut self, p: Pending) -> io::Result<()> {
        let conn = match p {
            Pending::Echo(stream) => {
                stream.set_nonblocking(true)?;
                stream.set_nodelay(true)?;
                let mut buf = self.magazine.take(ECHO_BUF);
                buf.resize(ECHO_BUF, 0);
                Conn {
                    kind: Kind::Echo(EchoConn {
                        stream,
                        buf,
                        len: 0,
                        off: 0,
                    }),
                    want_write: false,
                    // Treat a fresh conn as readable once: bytes may
                    // have arrived before the registration.
                    read_ready: true,
                }
            }
            Pending::Listener(listener) => {
                listener.set_nonblocking(true)?;
                Conn {
                    kind: Kind::Listener(listener),
                    want_write: false,
                    read_ready: true,
                }
            }
            Pending::Rail(spec) => {
                spec.stream.set_nonblocking(true)?;
                spec.stream.set_nodelay(true)?;
                Conn {
                    kind: Kind::Rail(Box::new(RailConn {
                        stream: spec.stream,
                        rail: spec.rail,
                        hub: spec.hub,
                        outbox: spec.outbox,
                        rx: FrameReader::new(),
                        frames: Vec::with_capacity(TX_BATCH),
                        prefixes: Vec::with_capacity(TX_BATCH),
                        tokens: Vec::with_capacity(TX_BATCH),
                        tx_off: 0,
                        carved: Vec::with_capacity(32),
                        chaos: spec.chaos,
                        rng: Xoshiro256StarStar::new(
                            0x5EAC ^ (spec.rail as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        ),
                    })),
                    want_write: false,
                    read_ready: true,
                }
            }
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.conns[s] = Some(conn);
                s
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let conn = self.conns[slot].as_ref().unwrap();
        let is_rail = matches!(conn.kind, Kind::Rail(_));
        if let Err(e) = self.poller.add(conn.raw_fd(), slot as u64, false) {
            self.conns[slot] = None;
            self.free_slots.push(slot);
            return Err(e);
        }
        self.shared.conns.fetch_add(1, Ordering::Relaxed);
        if is_rail {
            self.rail_slots.push(slot);
        }
        // Catch up on anything that happened before registration: data
        // already buffered, work already published to the outbox.
        self.handle_event(slot, true, false, false);
        Ok(())
    }

    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        let _ = self.poller.delete(conn.raw_fd());
        match conn.kind {
            Kind::Echo(e) => {
                // Return the echo buffer to the pool (sole reference,
                // so the magazine actually recycles it).
                self.magazine.reclaim(e.buf.freeze());
            }
            Kind::Rail(_) => self.rail_slots.retain(|&s| s != slot),
            Kind::Listener(_) => {}
        }
        self.free_slots.push(slot);
        self.shared.conns.fetch_sub(1, Ordering::Relaxed);
    }

    /// Apply a pump verdict to the interest set (the WRITE half of the
    /// state machine lives entirely here).
    fn apply(&mut self, slot: usize, pump: Pump) {
        match pump {
            Pump::Close => self.close(slot),
            Pump::WantWrite => {
                let Some(conn) = self.conns[slot].as_mut() else {
                    return;
                };
                if !conn.want_write {
                    conn.want_write = true;
                    self.shared
                        .counters
                        .write_stalls
                        .fetch_add(1, Ordering::Relaxed);
                    let fd = conn.raw_fd();
                    if self.poller.modify(fd, slot as u64, true).is_err() {
                        self.close(slot);
                    }
                }
            }
            Pump::Idle => {
                let Some(conn) = self.conns[slot].as_mut() else {
                    return;
                };
                if conn.want_write {
                    conn.want_write = false;
                    let fd = conn.raw_fd();
                    if self.poller.modify(fd, slot as u64, false).is_err() {
                        self.close(slot);
                    }
                }
            }
        }
    }

    // `_writable` is decoded for symmetry but not branched on: the TX
    // pump runs on every rail event (an empty outbox pop is cheap) and
    // echo pumps flush staged bytes first regardless of the edge.
    fn handle_event(&mut self, slot: usize, readable: bool, _writable: bool, hangup: bool) {
        enum K {
            Listener,
            Echo,
            Rail,
        }
        let k = {
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                return; // stale event for an already-closed slot
            };
            if readable || hangup {
                // A hangup still needs a read: it drains buffered bytes
                // and observes the EOF that triggers the close.
                conn.read_ready = true;
            }
            match conn.kind {
                Kind::Listener(_) => K::Listener,
                Kind::Echo(_) => K::Echo,
                Kind::Rail(_) => K::Rail,
            }
        };
        match k {
            K::Listener => {
                if readable {
                    self.accept_loop(slot);
                } else if hangup {
                    self.close(slot);
                }
            }
            K::Echo => {
                let pump = {
                    let conn = self.conns[slot].as_mut().unwrap();
                    Self::pump_echo(conn)
                };
                self.apply(slot, pump);
            }
            K::Rail => {
                let verdict = {
                    let conn = self.conns[slot].as_mut().unwrap();
                    let mut verdict = Pump::Idle;
                    if conn.read_ready {
                        verdict = Self::pump_rail_rx(conn);
                    }
                    if !matches!(verdict, Pump::Close) {
                        let tx = Self::pump_rail_tx(conn);
                        if !matches!(tx, Pump::Idle) {
                            verdict = tx;
                        }
                    }
                    verdict
                };
                self.apply(slot, verdict);
            }
        }
    }

    /// Accept until `WouldBlock`. Fd exhaustion is the *graceful* path:
    /// count the shed and stop — the pending connection stays in the
    /// kernel backlog and is retried on the next incoming-connection
    /// edge, nothing panics.
    fn accept_loop(&mut self, slot: usize) {
        loop {
            let accepted = {
                let Some(Conn {
                    kind: Kind::Listener(l),
                    ..
                }) = self.conns[slot].as_ref()
                else {
                    return;
                };
                l.accept()
            };
            match accepted {
                Ok((stream, _)) => self.shared.dispatch(Pending::Echo(stream)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if is_fd_limit(&e) => {
                    self.shared.counters.fd_shed.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(_) => break,
            }
        }
    }

    /// The echo pump: flush staged bytes, then read-and-stage more,
    /// until the socket blocks in both directions. Never allocates —
    /// `buf` is the registration-time magazine block, and a blocked
    /// write simply pauses reading (flow control: un-echoed bytes stay
    /// in the kernel's receive queue and throttle the peer).
    fn pump_echo(conn: &mut Conn) -> Pump {
        let Kind::Echo(e) = &mut conn.kind else {
            return Pump::Idle;
        };
        loop {
            while e.off < e.len {
                match e.stream.write(&e.buf[e.off..e.len]) {
                    Ok(0) => return Pump::Close,
                    Ok(n) => e.off += n,
                    Err(err) if err.kind() == ErrorKind::WouldBlock => return Pump::WantWrite,
                    Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return Pump::Close,
                }
            }
            if !conn.read_ready {
                return Pump::Idle;
            }
            match e.stream.read(&mut e.buf[..]) {
                Ok(0) => return Pump::Close,
                Ok(n) => {
                    e.len = n;
                    e.off = 0;
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => {
                    conn.read_ready = false;
                    return Pump::Idle;
                }
                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Pump::Close,
            }
        }
    }

    /// Rail RX: read until the socket is drained, handing the frames of
    /// each read to the hub's completion queue (the framing is
    /// [`FrameReader`]'s, as on every runtime).
    fn pump_rail_rx(conn: &mut Conn) -> Pump {
        let Kind::Rail(r) = &mut conn.kind else {
            return Pump::Idle;
        };
        loop {
            let mut tally = nmad_core::SyscallStats::default();
            let more =
                r.rx.read_some(&r.stream, r.rail, &mut r.carved, &mut tally)
                    .unwrap_or_else(|_| {
                        r.hub.status.io_errors.fetch_add(1, Ordering::Relaxed);
                        false
                    });
            r.hub.syscalls.add_rx(tally.rx_calls, tally.rx_frames);
            for (rail, frame) in r.carved.drain(..) {
                r.hub
                    .push_completion(rail, Completion::RxFrame { rail, frame });
            }
            if r.rx.closed() {
                return Pump::Close;
            }
            if !more {
                // A short read drained the socket as surely as
                // `WouldBlock` does: the next edge will say when there
                // is more.
                conn.read_ready = false;
                return Pump::Idle;
            }
        }
    }

    /// Rail TX: stage a batch off the outbox, push it with coalesced
    /// vectored writes, resume partials across the batch. A socket that
    /// refuses bytes arms WRITE interest and leaves the batch staged;
    /// the un-popped remainder keeps the outbox full, which is exactly
    /// the backpressure the scheduler's `has_space()` check observes.
    fn pump_rail_tx(conn: &mut Conn) -> Pump {
        let Kind::Rail(r) = &mut conn.kind else {
            return Pump::Idle;
        };
        loop {
            if r.frames.is_empty() {
                while r.frames.len() < TX_BATCH {
                    match r.outbox.pop() {
                        Some(d) => {
                            if chaos_drops(&r.chaos, r.rail, &mut r.rng) {
                                // Chaos drop: local completion, no wire
                                // bytes (lossy-link model; the frame is
                                // length-prefixed so the stream stays
                                // aligned). Bandwidth pacing is not
                                // modelled here — sleeping would stall
                                // every conn this worker multiplexes.
                                r.hub.push_completion(
                                    r.rail,
                                    Completion::TxDone {
                                        rail: r.rail,
                                        token: d.token,
                                    },
                                );
                                continue;
                            }
                            r.prefixes.push((d.frame.wire_len() as u32).to_le_bytes());
                            r.tokens.push(d.token);
                            r.frames.push(d.frame);
                        }
                        None => break,
                    }
                }
                if r.frames.is_empty() {
                    return Pump::Idle;
                }
                r.tx_off = 0;
            }
            let total: usize = r.frames.iter().map(|f| LEN_PREFIX + f.wire_len()).sum();
            {
                // Scoped: the gather list borrows the staged frames, and
                // the batch bookkeeping below needs them back.
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOVECS);
                while r.tx_off < total {
                    gather_batch_slices(&r.prefixes, &r.frames, r.tx_off, &mut slices, MAX_IOVECS);
                    match r.stream.write_vectored(&slices) {
                        Ok(0) => return Pump::Close,
                        Ok(n) => {
                            r.hub.syscalls.add_tx(1, 0);
                            r.tx_off += n;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => return Pump::WantWrite,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            r.hub.status.io_errors.fetch_add(1, Ordering::Relaxed);
                            return Pump::Close;
                        }
                    }
                }
            }
            r.hub.syscalls.add_tx(0, r.frames.len() as u64);
            for token in r.tokens.drain(..) {
                r.hub.push_completion(
                    r.rail,
                    Completion::TxDone {
                        rail: r.rail,
                        token,
                    },
                );
            }
            r.frames.clear();
            r.prefixes.clear();
            r.tx_off = 0;
        }
    }

    /// Pump TX on every rail this worker owns (scheduler wake: new work
    /// was published to some outbox).
    fn pump_rail_txs(&mut self) {
        let slots: Vec<usize> = self.rail_slots.clone();
        for slot in slots {
            if self.conns[slot].is_some() {
                let verdict = {
                    let conn = self.conns[slot].as_mut().unwrap();
                    Self::pump_rail_tx(conn)
                };
                self.apply(slot, verdict);
            }
        }
    }

    /// Shutdown drain: published decisions still go out (bounded by a
    /// grace period) so the peer's reassembly isn't left dangling —
    /// mirrors the TX workers' drain in the thread-per-rail runtime.
    fn drain_shutdown(&mut self) {
        let deadline = Instant::now() + SHUTDOWN_DRAIN_GRACE;
        loop {
            self.pump_rail_txs();
            let pending = self.rail_slots.iter().any(|&s| {
                matches!(&self.conns[s], Some(Conn { kind: Kind::Rail(r), .. })
                    if !r.frames.is_empty() || !r.outbox.is_empty())
            });
            if !pending || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

/// A fixed pool of reactor workers. Connections are registered
/// round-robin; dropping the pool shuts the workers down (staged TX
/// drains within a bounded grace).
pub struct ReactorPool {
    shared: Arc<ReactorShared>,
    threads: Vec<JoinHandle<()>>,
}

impl ReactorPool {
    /// Spawn `workers` event-loop threads drawing connection buffers
    /// from `pool`. Fails with `Unsupported` off linux-x86_64/aarch64.
    pub fn new(workers: usize, pool: SharedPool) -> io::Result<Self> {
        let workers = workers.max(1);
        let mut worker_shared = Vec::with_capacity(workers);
        let mut pollers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let poller = Poller::new()?;
            let waker = Arc::new(EventFd::new()?);
            poller.add(waker.raw(), WAKER_TOKEN, false)?;
            worker_shared.push(WorkerShared {
                waker,
                inbox: Mutex::new(VecDeque::new()),
            });
            pollers.push(poller);
        }
        let shared = Arc::new(ReactorShared {
            workers: worker_shared,
            shutdown: AtomicBool::new(false),
            next: AtomicUsize::new(0),
            counters: Counters::default(),
            per_worker_busy: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            conns: AtomicU64::new(0),
            hists: Mutex::new(Hists::default()),
            epoch: Instant::now(),
            pool: pool.clone(),
        });
        let mut threads = Vec::with_capacity(workers);
        for (idx, poller) in pollers.into_iter().enumerate() {
            let worker = Worker {
                idx,
                shared: shared.clone(),
                poller,
                conns: Vec::new(),
                free_slots: Vec::new(),
                rail_slots: Vec::new(),
                magazine: pool.magazine(64),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("nmad-reactor{idx}"))
                    .spawn(move || worker.run())?,
            );
        }
        Ok(ReactorPool { shared, threads })
    }

    /// Pool with the auto-sized worker count (`min(cores, 4)`).
    pub fn with_default_workers(pool: SharedPool) -> io::Result<Self> {
        Self::new(worker_count(), pool)
    }

    /// Register an echo connection (bench servers, `nmad reactor`).
    pub fn add_echo(&self, stream: TcpStream) -> io::Result<()> {
        self.shared.dispatch(Pending::Echo(stream));
        Ok(())
    }

    /// Register a listener whose accepted connections become echo
    /// conns, with the backlog bumped for high connection counts.
    pub fn add_listener(&self, listener: TcpListener) -> io::Result<()> {
        // Best effort: the syscall layer may be stubbed out, and a
        // 128-deep backlog still works — just drops SYNs under bursts.
        let _ = bump_backlog(&listener, HIGH_BACKLOG);
        self.shared.dispatch(Pending::Listener(listener));
        Ok(())
    }

    /// Register an engine rail connection. Returns the owning worker's
    /// waker, which the caller installs as the rail outbox's wake hook
    /// (publishing TX work must wake the epoll loop, not a condvar).
    pub fn add_rail(
        &self,
        stream: TcpStream,
        rail: usize,
        hub: Arc<ParallelHub>,
        outbox: OutboxReceiver,
        chaos: Option<ChaosState>,
    ) -> io::Result<Arc<EventFd>> {
        let idx = self.shared.next.fetch_add(1, Ordering::Relaxed) % self.shared.workers.len();
        let w = &self.shared.workers[idx];
        w.inbox.lock().push_back(Pending::Rail(Box::new(RailSpec {
            stream,
            rail,
            hub,
            outbox,
            chaos,
        })));
        w.waker.wake();
        Ok(w.waker.clone())
    }

    /// The shared state (telemetry snapshots for
    /// [`nmad_core::ParallelHub::set_reactor_source`]).
    pub fn handle(&self) -> Arc<ReactorShared> {
        self.shared.clone()
    }

    /// Current event-loop telemetry.
    pub fn stats(&self) -> ReactorStats {
        self.shared.snapshot()
    }

    /// Connections currently registered.
    pub fn conns(&self) -> u64 {
        self.shared.conns.load(Ordering::Relaxed)
    }

    /// Outstanding buffers in the backing pool (leak ledger).
    pub fn pool_outstanding(&self) -> u64 {
        self.shared.pool.outstanding()
    }

    /// Stop the workers (staged TX drains within a bounded grace) and
    /// join them. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for w in &self.shared.workers {
            w.waker.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}
