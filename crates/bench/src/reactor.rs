//! Reactor-transport ablation (the `ablate_reactor` target).
//!
//! Two legs, one claim: the readiness-driven reactor serves *many*
//! connections on a *fixed* thread pool without giving up the paper's
//! multi-rail throughput.
//!
//! * **scale** — one [`nmad_transport_tcp::reactor::ReactorPool`] echo
//!   server (≤ `min(cores, 4)` threads) against 10k+ loopback client
//!   connections driven by a single epoll client loop in this bench.
//!   Each client runs a closed loop of Pareto-sized echo round trips
//!   (loadgen-shaped: the same heavy-tailed sizes the soak uses).
//!   Gated on completion, sustained connection count, fd sheds, p99
//!   round-trip latency, and the zero-hot-path-allocation tripwire.
//! * **perthread** — the reactor endpoint versus the thread-per-rail
//!   parallel endpoint over the same 2-rail message pump, compared on
//!   throughput *per I/O thread*: the reactor drives both rails on
//!   `worker_count` threads where thread-per-rail burns four (TX+RX per
//!   rail), so per-thread throughput must not regress
//!   ([`PER_THREAD_GATE`]).
//!
//! Latency and throughput gates are wall-clock and ride CI noise, so
//! their violations carry the shared `timing:` prefix and get the
//! one-retry policy ([`crate::report::retry_once_on_timing`]); the
//! completion / shed / allocation gates are deterministic and never
//! retried. The result is written to `BENCH_reactor.json`.
//!
//! On targets without the raw epoll layer (non-Linux, exotic arch) the
//! whole ablation reports `supported: false` and gates vacuously pass —
//! the reactor is an opt-in runtime there anyway.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use nmad_core::{EngineConfig, Runtime, SharedPool, StrategyKind};
use nmad_model::platform;
use nmad_sim::Xoshiro256StarStar;
use nmad_transport_tcp::reactor::{self, sys, Poller, ReactorPool};
use nmad_transport_tcp::TcpConfig;
use serde::{ser, Serialize, Value};

use crate::loadgen::BoundedPareto;

/// Per-I/O-thread throughput ratio (reactor over thread-per-rail) the
/// perthread leg must reach. The reactor runs both rails on fewer
/// threads, so ≥ 1.0 means "same or better work per thread".
pub const PER_THREAD_GATE: f64 = 1.0;

/// Heavy-tailed echo message sizes (bytes): min, max, tail index.
pub const SIZE_MIN: u64 = 64;
/// See [`SIZE_MIN`].
pub const SIZE_MAX: u64 = 16 * 1024;
/// See [`SIZE_MIN`].
pub const SIZE_ALPHA: f64 = 1.2;

/// Give up on a leg after this long (a wedged reactor must fail the
/// gate, not hang CI).
const DEADLINE: Duration = Duration::from_secs(120);

/// What one run measures. `smoke` shrinks the connection herd for the
/// CI gate; the full run drives the paper-scale 10k+.
#[derive(Clone, Copy, Debug)]
pub struct ReactorSpec {
    /// Concurrent echo connections the scale leg asks for.
    pub conns: usize,
    /// Echo round trips per connection.
    pub rounds: u32,
    /// p99 round-trip ceiling, µs (closed-loop: queueing behind the
    /// whole herd is part of the measurement, so this scales with
    /// `conns`).
    pub p99_gate_us: u64,
    /// Messages per endpoint in the perthread leg.
    pub messages: usize,
    /// Message size in the perthread leg, bytes.
    pub msg_size: usize,
    /// RNG seed for the size distribution.
    pub seed: u64,
}

impl ReactorSpec {
    /// CI smoke: a few hundred connections, seconds of wall clock.
    pub fn smoke(seed: u64) -> Self {
        ReactorSpec {
            conns: 256,
            rounds: 4,
            p99_gate_us: 500_000,
            messages: 48,
            msg_size: 64 << 10,
            seed,
        }
    }

    /// Full run: the 10k-connection claim.
    pub fn full(seed: u64) -> Self {
        ReactorSpec {
            conns: 10_000,
            rounds: 2,
            p99_gate_us: 5_000_000,
            messages: 256,
            msg_size: 256 << 10,
            seed,
        }
    }
}

/// Scale-leg outcome: the echo herd against the fixed pool.
#[derive(Clone, Debug, Default)]
pub struct ScaleLeg {
    /// Connections originally requested.
    pub target_conns: usize,
    /// Connections actually driven (smaller only if the fd limit could
    /// not be raised far enough — recorded, not hidden).
    pub driven_conns: usize,
    /// Peak concurrent connections the server observed (excluding the
    /// listener registration).
    pub sustained_conns: u64,
    /// Reactor worker threads serving the herd.
    pub threads: u64,
    /// Every round trip on every connection completed in time.
    pub completed: bool,
    /// Round trips that failed on a socket error.
    pub errors: u64,
    /// Wall clock for the echo phase, ns.
    pub elapsed_ns: u64,
    /// Payload bytes echoed back to clients.
    pub echoed_bytes: u64,
    /// Median round trip, µs.
    pub p50_us: u64,
    /// 99th-percentile round trip, µs.
    pub p99_us: u64,
    /// Server-side accepts shed on fd exhaustion (must be zero — the
    /// bench raises `RLIMIT_NOFILE` to fit the herd first).
    pub fd_shed: u64,
    /// Event-loop allocations outside the pre-allocated pool blocks
    /// (tripwire, must be zero).
    pub hot_path_allocs: u64,
    /// Writes that armed WRITE interest (backpressure actually
    /// exercised; informational).
    pub write_stalls: u64,
    /// `epoll_wait` returns observed by the pool.
    pub polls: u64,
    /// Readiness events delivered.
    pub events: u64,
    /// Mean events per non-empty wakeup.
    pub events_per_wake: f64,
    /// Busy fraction of the worker loops over the leg.
    pub loop_utilization: f64,
}

impl ScaleLeg {
    /// Aggregate echo throughput, MB/s.
    pub fn mbs(&self) -> f64 {
        mbs(self.echoed_bytes, self.elapsed_ns)
    }

    /// Echo throughput per reactor thread, MB/s.
    pub fn per_thread_mbs(&self) -> f64 {
        if self.threads == 0 {
            return 0.0;
        }
        self.mbs() / self.threads as f64
    }
}

impl Serialize for ScaleLeg {
    fn to_value(&self) -> Value {
        ser::object([
            ("target_conns", ser::v(&self.target_conns)),
            ("driven_conns", ser::v(&self.driven_conns)),
            ("sustained_conns", ser::v(&self.sustained_conns)),
            ("threads", ser::v(&self.threads)),
            ("completed", ser::v(&self.completed)),
            ("errors", ser::v(&self.errors)),
            ("elapsed_ns", ser::v(&self.elapsed_ns)),
            ("echoed_bytes", ser::v(&self.echoed_bytes)),
            ("mbs", ser::v(&self.mbs())),
            ("per_thread_mbs", ser::v(&self.per_thread_mbs())),
            ("p50_us", ser::v(&self.p50_us)),
            ("p99_us", ser::v(&self.p99_us)),
            ("fd_shed", ser::v(&self.fd_shed)),
            ("hot_path_allocs", ser::v(&self.hot_path_allocs)),
            ("write_stalls", ser::v(&self.write_stalls)),
            ("polls", ser::v(&self.polls)),
            ("events", ser::v(&self.events)),
            ("events_per_wake", ser::v(&self.events_per_wake)),
            ("loop_utilization", ser::v(&self.loop_utilization)),
        ])
    }
}

/// Perthread-leg outcome: reactor vs thread-per-rail endpoints.
#[derive(Clone, Debug, Default)]
pub struct PerThreadLeg {
    /// Both endpoints finished their message pump in time.
    pub completed: bool,
    /// Reactor-endpoint wall clock, ns.
    pub reactor_ns: u64,
    /// Thread-per-rail endpoint wall clock, ns.
    pub parallel_ns: u64,
    /// Payload bytes pumped per endpoint.
    pub payload_bytes: u64,
    /// Reactor I/O threads.
    pub reactor_workers: u64,
    /// Thread-per-rail I/O threads (TX+RX per rail).
    pub parallel_threads: u64,
}

impl PerThreadLeg {
    /// Reactor aggregate throughput, MB/s.
    pub fn reactor_mbs(&self) -> f64 {
        mbs(self.payload_bytes, self.reactor_ns)
    }

    /// Thread-per-rail aggregate throughput, MB/s.
    pub fn parallel_mbs(&self) -> f64 {
        mbs(self.payload_bytes, self.parallel_ns)
    }

    /// Per-I/O-thread throughput ratio, reactor over thread-per-rail.
    pub fn per_thread_ratio(&self) -> f64 {
        let par = self.parallel_mbs() / self.parallel_threads.max(1) as f64;
        if par == 0.0 {
            return 0.0;
        }
        (self.reactor_mbs() / self.reactor_workers.max(1) as f64) / par
    }
}

impl Serialize for PerThreadLeg {
    fn to_value(&self) -> Value {
        ser::object([
            ("completed", ser::v(&self.completed)),
            ("reactor_ns", ser::v(&self.reactor_ns)),
            ("parallel_ns", ser::v(&self.parallel_ns)),
            ("payload_bytes", ser::v(&self.payload_bytes)),
            ("reactor_workers", ser::v(&self.reactor_workers)),
            ("parallel_threads", ser::v(&self.parallel_threads)),
            ("reactor_mbs", ser::v(&self.reactor_mbs())),
            ("parallel_mbs", ser::v(&self.parallel_mbs())),
            ("per_thread_ratio", ser::v(&self.per_thread_ratio())),
        ])
    }
}

/// The full ablation result.
#[derive(Clone, Debug)]
pub struct ReactorReport {
    /// False when the target has no raw epoll layer: every gate
    /// vacuously passes (the reactor is opt-in there).
    pub supported: bool,
    /// The spec that was run.
    pub spec_conns: usize,
    /// See [`ReactorSpec::rounds`].
    pub spec_rounds: u32,
    /// See [`ReactorSpec::p99_gate_us`].
    pub p99_gate_us: u64,
    /// See [`PER_THREAD_GATE`].
    pub per_thread_gate: f64,
    /// RNG seed used.
    pub seed: u64,
    /// Scale leg (echo herd).
    pub scale: ScaleLeg,
    /// Perthread leg (endpoint vs endpoint).
    pub perthread: PerThreadLeg,
}

impl Serialize for ReactorReport {
    fn to_value(&self) -> Value {
        ser::object([
            ("supported", ser::v(&self.supported)),
            ("spec_conns", ser::v(&self.spec_conns)),
            ("spec_rounds", ser::v(&self.spec_rounds)),
            ("p99_gate_us", ser::v(&self.p99_gate_us)),
            ("per_thread_gate", ser::v(&self.per_thread_gate)),
            ("seed", ser::v(&self.seed)),
            ("scale", ser::v(&self.scale)),
            ("perthread", ser::v(&self.perthread)),
        ])
    }
}

fn mbs(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    bytes as f64 / (ns as f64 / 1e9) / 1e6
}

// ---------------------------------------------------------------------
// Scale leg: one client event loop vs the reactor echo server
// ---------------------------------------------------------------------

struct ScaleClient {
    stream: TcpStream,
    msg: Vec<u8>,
    sent: usize,
    rcvd: usize,
    rounds_left: u32,
    t0: Instant,
    done: bool,
}

enum ClientStep {
    /// Blocked on the socket; wait for the next edge.
    Blocked,
    /// All rounds finished (socket stays open to hold the herd).
    Finished,
    /// Socket error; the round trip is lost.
    Failed,
}

impl ScaleClient {
    /// Drive this client as far as it will go: write the current round,
    /// read the echo, start the next round. Edge-triggered safe — only
    /// returns on `WouldBlock`, completion, or error.
    fn pump(&mut self, scratch: &mut [u8], rtts: &mut Vec<u64>, echoed: &mut u64) -> ClientStep {
        loop {
            if self.done {
                return ClientStep::Finished;
            }
            while self.sent < self.msg.len() {
                match self.stream.write(&self.msg[self.sent..]) {
                    Ok(0) => return ClientStep::Failed,
                    Ok(n) => self.sent += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return ClientStep::Blocked,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return ClientStep::Failed,
                }
            }
            while self.rcvd < self.msg.len() {
                let want = (self.msg.len() - self.rcvd).min(scratch.len());
                match self.stream.read(&mut scratch[..want]) {
                    Ok(0) => return ClientStep::Failed,
                    Ok(n) => {
                        self.rcvd += n;
                        *echoed += n as u64;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return ClientStep::Blocked,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return ClientStep::Failed,
                }
            }
            rtts.push(self.t0.elapsed().as_micros() as u64);
            self.rounds_left -= 1;
            if self.rounds_left == 0 {
                self.done = true;
                return ClientStep::Finished;
            }
            self.sent = 0;
            self.rcvd = 0;
            self.t0 = Instant::now();
        }
    }
}

/// What one client herd measured (in-process or in the child).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientOutcome {
    /// Round trips lost to socket errors.
    pub errors: u64,
    /// Clients that never finished before the deadline.
    pub unfinished: u64,
    /// Payload bytes echoed back.
    pub echoed_bytes: u64,
    /// Wall clock of the echo phase, ns.
    pub elapsed_ns: u64,
    /// Median round trip, µs.
    pub p50_us: u64,
    /// 99th-percentile round trip, µs.
    pub p99_us: u64,
}

/// Connect `conns` loopback clients and run the closed echo loop —
/// everything one process' worth of fds can hold. `on_connected` fires
/// after the whole herd is connected and still open, so the caller can
/// take a deterministic concurrency reading off the server.
fn drive_clients(
    addr: std::net::SocketAddr,
    conns: usize,
    rounds: u32,
    seed: u64,
    on_connected: impl FnOnce(),
) -> io::Result<ClientOutcome> {
    // Connect the herd (sequential blocking connects: the kernel
    // completes loopback handshakes against the deepened backlog while
    // the reactor drains accepts concurrently).
    let mut rng = Xoshiro256StarStar::new(seed);
    let sizes = BoundedPareto::new(SIZE_MIN, SIZE_MAX, SIZE_ALPHA);
    let mut clients = Vec::with_capacity(conns);
    let poller = Poller::new()?;
    for i in 0..conns {
        let stream = TcpStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let len = sizes.sample(&mut rng) as usize;
        let mut msg = vec![0u8; len];
        rng.fill_bytes(&mut msg);
        use std::os::fd::AsRawFd;
        poller.add(stream.as_raw_fd(), i as u64, true)?;
        clients.push(ScaleClient {
            stream,
            msg,
            sent: 0,
            rcvd: 0,
            rounds_left: rounds,
            t0: Instant::now(),
            done: false,
        });
    }

    on_connected();

    // Echo phase: closed-loop round trips, all driven from one client
    // event loop.
    let mut rtts = Vec::with_capacity(conns * rounds as usize);
    let mut echoed = 0u64;
    let mut errors = 0u64;
    let mut scratch = vec![0u8; 64 << 10];
    let mut remaining = conns;
    let t0 = Instant::now();
    for c in &mut clients {
        c.t0 = Instant::now();
        match c.pump(&mut scratch, &mut rtts, &mut echoed) {
            ClientStep::Blocked => {}
            ClientStep::Finished => remaining -= 1,
            ClientStep::Failed => {
                errors += 1;
                c.done = true;
                remaining -= 1;
            }
        }
    }
    let mut events = vec![sys::EpollEvent::zeroed(); 1024];
    let deadline = t0 + DEADLINE;
    while remaining > 0 && Instant::now() < deadline {
        let n = poller.wait(&mut events, 100)?;
        for e in &events[..n] {
            let i = e.token() as usize;
            if i >= clients.len() || clients[i].done {
                continue;
            }
            match clients[i].pump(&mut scratch, &mut rtts, &mut echoed) {
                ClientStep::Blocked => {}
                ClientStep::Finished => remaining -= 1,
                ClientStep::Failed => {
                    errors += 1;
                    clients[i].done = true;
                    remaining -= 1;
                }
            }
        }
    }
    let elapsed_ns = t0.elapsed().as_nanos() as u64;

    rtts.sort_unstable();
    let q = |f: f64| -> u64 {
        if rtts.is_empty() {
            return 0;
        }
        let idx = ((rtts.len() - 1) as f64 * f) as usize;
        rtts[idx]
    };
    Ok(ClientOutcome {
        errors,
        unfinished: remaining as u64,
        echoed_bytes: echoed,
        elapsed_ns,
        p50_us: q(0.50),
        p99_us: q(0.99),
    })
}

/// Env var the child-process client herd reads its marching orders
/// from: `<addr> <conns> <rounds> <seed>`.
pub const CLIENT_ENV: &str = "NMAD_REACTOR_CLIENT";

/// Child-process entry point: when [`CLIENT_ENV`] is set, run the herd
/// against the given server and print one parseable outcome line. The
/// bench binary calls this before anything else; returns false when the
/// env var is absent (normal run).
pub fn client_main() -> bool {
    let Ok(orders) = std::env::var(CLIENT_ENV) else {
        return false;
    };
    let parts: Vec<&str> = orders.split_whitespace().collect();
    let parsed = (|| -> Option<(std::net::SocketAddr, usize, u32, u64)> {
        Some((
            parts.first()?.parse().ok()?,
            parts.get(1)?.parse().ok()?,
            parts.get(2)?.parse().ok()?,
            parts.get(3)?.parse().ok()?,
        ))
    })();
    let Some((addr, conns, rounds, seed)) = parsed else {
        eprintln!("malformed {CLIENT_ENV}: {orders:?}");
        std::process::exit(2);
    };
    // The child only needs its own ends of the herd.
    let _ = sys::raise_nofile_limit(conns as u64 + 512);
    match drive_clients(addr, conns, rounds, seed, || {}) {
        Ok(o) => {
            println!(
                "REACTOR_CLIENT errors={} unfinished={} echoed={} elapsed_ns={} p50_us={} p99_us={}",
                o.errors, o.unfinished, o.echoed_bytes, o.elapsed_ns, o.p50_us, o.p99_us
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("client herd failed: {e}");
            std::process::exit(3);
        }
    }
}

fn parse_client_line(stdout: &str) -> Option<ClientOutcome> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("REACTOR_CLIENT "))?;
    let mut o = ClientOutcome::default();
    for kv in line.split_whitespace().skip(1) {
        let (k, val) = kv.split_once('=')?;
        let n: u64 = val.parse().ok()?;
        match k {
            "errors" => o.errors = n,
            "unfinished" => o.unfinished = n,
            "echoed" => o.echoed_bytes = n,
            "elapsed_ns" => o.elapsed_ns = n,
            "p50_us" => o.p50_us = n,
            "p99_us" => o.p99_us = n,
            _ => return None,
        }
    }
    Some(o)
}

/// `Err(Unsupported)` means no epoll on this target — the caller turns
/// that into `supported: false`, any other error is a real failure.
///
/// `client_exe` is the bench binary itself (which dispatches to
/// [`client_main`]): when the per-process fd limit cannot hold both
/// ends of the herd, the client side runs in a child process so each
/// process only needs one fd per connection. Without a child hook the
/// herd scales down gracefully instead.
fn run_scale(spec: &ReactorSpec, client_exe: Option<&std::path::Path>) -> io::Result<ScaleLeg> {
    // Probe epoll support before touching limits or sockets.
    drop(Poller::new()?);

    // Both ends in one process need two fds per connection plus
    // headroom for listeners, epoll instances, eventfds and stdio.
    let both_ends = (spec.conns as u64) * 2 + 512;
    let one_end = spec.conns as u64 + 512;
    let soft = sys::raise_nofile_limit(both_ends)
        .map(|(s, _)| s)
        .unwrap_or(0);
    let mut driven = spec.conns;
    let use_child = soft < both_ends && soft >= one_end && client_exe.is_some();
    if soft < both_ends && !use_child {
        // Graceful scale-down: drive what fits and say so.
        driven = (soft.saturating_sub(512) / 2) as usize;
        eprintln!(
            "fd limit {soft} below the {both_ends} needed for {} connections; driving {driven}",
            spec.conns
        );
    }

    let threads = reactor::worker_count();
    let mut pool = ReactorPool::new(threads, SharedPool::new(256))?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    pool.add_listener(listener)?;

    let outcome: ClientOutcome;
    let sustained: u64;
    if use_child {
        eprintln!(
            "fd limit {soft} cannot hold both ends of {driven} connections; \
             driving the client herd from a child process"
        );
        let mut child = std::process::Command::new(client_exe.unwrap())
            .env(
                CLIENT_ENV,
                format!("{addr} {driven} {} {}", spec.rounds, spec.seed),
            )
            .stdout(std::process::Stdio::piped())
            .spawn()?;
        // Sample the server's concurrency peak while the child runs.
        let mut peak = 0u64;
        let hard_deadline = Instant::now() + DEADLINE + Duration::from_secs(60);
        loop {
            peak = peak.max(pool.conns().saturating_sub(1));
            if child.try_wait()?.is_some() || Instant::now() > hard_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output()?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        outcome = parse_client_line(&stdout).ok_or_else(|| {
            io::Error::other(format!(
                "client child produced no outcome (status {:?})",
                out.status
            ))
        })?;
        sustained = peak;
    } else {
        // In-process: read the server's gauge the moment the whole herd
        // is connected and still open — registration can lag the last
        // connect by a beat, so wait it out (the gauge counts the
        // listener registration too).
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let peak = Arc::new(AtomicU64::new(0));
        let shared = pool.handle();
        let hook_peak = peak.clone();
        outcome = drive_clients(addr, driven, spec.rounds, spec.seed, move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let c = shared.snapshot().conns.saturating_sub(1);
                hook_peak.fetch_max(c, Ordering::Relaxed);
                if c >= driven as u64 || Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })?;
        sustained = peak.load(Ordering::Relaxed);
    }

    let stats = pool.stats();
    pool.shutdown();

    Ok(ScaleLeg {
        target_conns: spec.conns,
        driven_conns: driven,
        sustained_conns: sustained,
        threads: stats.workers,
        completed: outcome.errors == 0 && outcome.unfinished == 0,
        errors: outcome.errors,
        elapsed_ns: outcome.elapsed_ns,
        echoed_bytes: outcome.echoed_bytes,
        p50_us: outcome.p50_us,
        p99_us: outcome.p99_us,
        fd_shed: stats.fd_shed,
        hot_path_allocs: stats.hot_path_allocs,
        write_stalls: stats.write_stalls,
        polls: stats.polls,
        events: stats.events,
        events_per_wake: stats.mean_events_per_wake(),
        loop_utilization: stats.loop_utilization(),
    })
}

// ---------------------------------------------------------------------
// Perthread leg: reactor endpoint vs thread-per-rail endpoint
// ---------------------------------------------------------------------

/// Pump `messages` rendezvous-size messages through one localhost
/// endpoint pair; returns (wall ns, completed).
fn run_endpoint(runtime: Runtime, messages: usize, msg_size: usize) -> (u64, bool) {
    let mut engine = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
    engine.runtime = runtime;
    let (a, b) =
        nmad_transport_tcp::pair_localhost(TcpConfig::new(platform::paper_platform(), engine))
            .expect("localhost pair");
    let c = a.conns()[0];
    let payload = Bytes::from(vec![0x6Bu8; msg_size]);
    let t0 = Instant::now();
    let recvs: Vec<_> = (0..messages).map(|_| b.recv(c)).collect();
    let sends: Vec<_> = (0..messages)
        .map(|_| a.send(c, vec![payload.clone()]))
        .collect();
    let mut completed = true;
    for s in &sends {
        completed &= s.wait(DEADLINE);
    }
    for r in recvs {
        completed &= r.wait(DEADLINE).is_some();
    }
    (t0.elapsed().as_nanos() as u64, completed)
}

fn run_perthread(spec: &ReactorSpec) -> PerThreadLeg {
    let rails = platform::paper_platform().rail_count() as u64;
    let (parallel_ns, par_ok) = run_endpoint(Runtime::Threads, spec.messages, spec.msg_size);
    let (reactor_ns, rea_ok) = run_endpoint(Runtime::Reactor, spec.messages, spec.msg_size);
    PerThreadLeg {
        completed: par_ok && rea_ok,
        reactor_ns,
        parallel_ns,
        payload_bytes: (spec.messages * spec.msg_size) as u64,
        reactor_workers: reactor::worker_count() as u64,
        parallel_threads: rails * 2,
    }
}

/// Run both legs. `client_exe` should be the bench binary itself (its
/// `main` dispatches to [`client_main`]) so an fd-limited environment
/// can still drive the full herd from a child process.
pub fn run(spec: &ReactorSpec, client_exe: Option<&std::path::Path>) -> ReactorReport {
    let scale = match run_scale(spec, client_exe) {
        Ok(leg) => leg,
        Err(e) if e.kind() == ErrorKind::Unsupported => {
            eprintln!("no epoll layer on this target; reactor ablation skipped");
            return ReactorReport {
                supported: false,
                spec_conns: spec.conns,
                spec_rounds: spec.rounds,
                p99_gate_us: spec.p99_gate_us,
                per_thread_gate: PER_THREAD_GATE,
                seed: spec.seed,
                scale: ScaleLeg::default(),
                perthread: PerThreadLeg::default(),
            };
        }
        Err(e) => panic!("scale leg failed outright: {e}"),
    };
    let perthread = run_perthread(spec);
    ReactorReport {
        supported: true,
        spec_conns: spec.conns,
        spec_rounds: spec.rounds,
        p99_gate_us: spec.p99_gate_us,
        per_thread_gate: PER_THREAD_GATE,
        seed: spec.seed,
        scale,
        perthread,
    }
}

/// Gate violations (empty = the reactor holds its claims). Wall-clock
/// gates carry the `timing:` prefix for the shared retry policy.
pub fn check(report: &ReactorReport) -> Vec<String> {
    let mut v = Vec::new();
    if !report.supported {
        return v;
    }
    let s = &report.scale;
    if !s.completed {
        v.push(format!(
            "scale leg incomplete: {} errors, {} conns driven",
            s.errors, s.driven_conns
        ));
    }
    if s.driven_conns < s.target_conns {
        v.push(format!(
            "fd limit capped the herd at {} of {} connections",
            s.driven_conns, s.target_conns
        ));
    }
    if s.sustained_conns < s.driven_conns as u64 {
        v.push(format!(
            "server sustained {} of {} connections",
            s.sustained_conns, s.driven_conns
        ));
    }
    if s.threads > reactor::DEFAULT_MAX_WORKERS as u64 {
        v.push(format!(
            "{} reactor threads exceed the fixed-pool cap {}",
            s.threads,
            reactor::DEFAULT_MAX_WORKERS
        ));
    }
    if s.fd_shed != 0 {
        v.push(format!(
            "{} accepts shed on fd exhaustion despite the raised limit",
            s.fd_shed
        ));
    }
    if s.hot_path_allocs != 0 {
        v.push(format!(
            "{} event-loop allocations outside the pool (tripwire must be zero)",
            s.hot_path_allocs
        ));
    }
    if s.p99_us > report.p99_gate_us {
        v.push(format!(
            "timing: p99 round trip {} us above the {} us gate",
            s.p99_us, report.p99_gate_us
        ));
    }
    let p = &report.perthread;
    if !p.completed {
        v.push("perthread leg did not complete all messages".into());
    }
    if p.per_thread_ratio() < report.per_thread_gate {
        v.push(format!(
            "timing: per-thread throughput ratio {:.2} below the {:.1} gate \
             (reactor {:.1} MB/s on {} threads vs thread-per-rail {:.1} MB/s on {} threads)",
            p.per_thread_ratio(),
            report.per_thread_gate,
            p.reactor_mbs(),
            p.reactor_workers,
            p.parallel_mbs(),
            p.parallel_threads
        ));
    }
    v
}

/// Human-readable summary.
pub fn render(report: &ReactorReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if !report.supported {
        let _ = writeln!(out, "reactor ablation skipped: no epoll on this target");
        return out;
    }
    let s = &report.scale;
    let _ = writeln!(
        out,
        "scale: {} conns on {} threads, {} round trips, {:.1} MB/s ({:.1}/thread)",
        s.sustained_conns,
        s.threads,
        s.driven_conns * report.spec_rounds as usize,
        s.mbs(),
        s.per_thread_mbs()
    );
    let _ = writeln!(
        out,
        "       rtt p50 {} us, p99 {} us (gate {} us); fd_shed {}, hot allocs {}, stalls {}",
        s.p50_us, s.p99_us, report.p99_gate_us, s.fd_shed, s.hot_path_allocs, s.write_stalls
    );
    let _ = writeln!(
        out,
        "       {} polls, {} events ({:.1}/wake), loop utilization {:.1}%",
        s.polls,
        s.events,
        s.events_per_wake,
        s.loop_utilization * 100.0
    );
    let p = &report.perthread;
    let _ = writeln!(
        out,
        "perthread: reactor {:.1} MB/s / {} threads vs thread-per-rail {:.1} MB/s / {} threads \
         = ratio {:.2} (gate {:.1})",
        p.reactor_mbs(),
        p.reactor_workers,
        p.parallel_mbs(),
        p.parallel_threads,
        p.per_thread_ratio(),
        report.per_thread_gate
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passing_report() -> ReactorReport {
        ReactorReport {
            supported: true,
            spec_conns: 4,
            spec_rounds: 2,
            p99_gate_us: 1000,
            per_thread_gate: PER_THREAD_GATE,
            seed: 1,
            scale: ScaleLeg {
                target_conns: 4,
                driven_conns: 4,
                sustained_conns: 4,
                threads: 1,
                completed: true,
                errors: 0,
                elapsed_ns: 1_000_000,
                echoed_bytes: 1 << 20,
                p50_us: 10,
                p99_us: 100,
                ..ScaleLeg::default()
            },
            perthread: PerThreadLeg {
                completed: true,
                reactor_ns: 1_000_000,
                parallel_ns: 1_000_000,
                payload_bytes: 1 << 20,
                reactor_workers: 1,
                parallel_threads: 4,
            },
        }
    }

    #[test]
    fn check_passes_and_flags() {
        let mut r = passing_report();
        assert!(check(&r).is_empty(), "{:?}", check(&r));

        r.scale.hot_path_allocs = 1;
        r.scale.fd_shed = 2;
        r.scale.p99_us = 5000;
        r.perthread.reactor_ns = 100_000_000; // ratio collapses
        let v = check(&r);
        assert_eq!(v.len(), 4, "{v:?}");
        // Wall-clock gates are marked for the retry policy; the
        // deterministic ones are not.
        assert_eq!(v.iter().filter(|s| s.starts_with("timing:")).count(), 2);
    }

    #[test]
    fn unsupported_report_vacuously_passes() {
        let mut r = passing_report();
        r.supported = false;
        r.scale = ScaleLeg::default();
        r.perthread = PerThreadLeg::default();
        assert!(check(&r).is_empty());
    }

    /// A miniature herd end-to-end (skips where epoll is absent).
    #[test]
    fn tiny_scale_leg_round_trips() {
        let spec = ReactorSpec {
            conns: 8,
            rounds: 2,
            p99_gate_us: u64::MAX,
            messages: 1,
            msg_size: 1024,
            seed: 7,
        };
        match run_scale(&spec, None) {
            Ok(leg) => {
                assert!(leg.completed, "tiny herd must finish: {leg:?}");
                assert_eq!(leg.sustained_conns, 8);
                assert_eq!(leg.errors, 0);
                assert_eq!(leg.hot_path_allocs, 0);
                assert!(leg.echoed_bytes > 0);
            }
            Err(e) if e.kind() == ErrorKind::Unsupported => {}
            Err(e) => panic!("tiny scale leg failed: {e}"),
        }
    }
}
