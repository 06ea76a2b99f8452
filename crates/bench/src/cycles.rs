//! Per-packet CPU-cycles gate (the `ablate_cycles` target).
//!
//! The paper's engine lives or dies on raw per-packet cost: a scheduler
//! that picks the perfect rail is worthless if checksumming, syscalls or
//! allocator traffic eat the budget first. This ablation measures the
//! three hot-path costs the raw-speed work attacks and gates each one:
//!
//! * **Checksum kernels** — GiB/s of every available CRC-32 kernel
//!   (scalar, slicing-by-16, PCLMUL folding). Gate: slice16 at least
//!   [`SLICE16_SPEEDUP_GATE`]× scalar, SIMD at least
//!   [`SIMD_SPEEDUP_GATE`]× scalar where the CPU supports it.
//! * **Syscalls per message** — the burst shape (a window of
//!   [`BURST_WINDOW`] messages of 4 × 256 B kept full, as
//!   `conformance::burst_aggregates_and_echo_does_not` drives it) over
//!   loopback TCP at 2 rails; the optimisation window must turn a burst
//!   into few aggregate frames, one `write_vectored` each. Gate: at most
//!   [`TX_SYSCALLS_PER_MESSAGE_GATE`] TX syscalls per message.
//! * **Pool reuse** — a soak-shaped aggregation workload; takes must
//!   be served from the engine pool's free list, not fresh allocations.
//!   Gate: reuse rate at least [`POOL_REUSE_RATE_GATE`].
//! * **Per-packet CPU** — the same CRC-on workload timed with the
//!   checksum kernel forced to scalar vs. the best available kernel,
//!   interleaved like `ablate_obs`. Gate: the fast kernel's per-message
//!   cost strictly below the scalar baseline (the SIMD work must be
//!   visible end to end, not just in a microbenchmark).
//!
//! The result is written to `BENCH_cycles.json` at the repo root; the
//! smoke variant (`NMAD_CYCLES_SMOKE=1`) runs in `scripts/verify.sh`.

use std::time::{Duration, Instant};

use bytes::Bytes;
use nmad_core::engine::Engine;
use nmad_core::{EngineConfig, StrategyKind, SyscallStats};
use nmad_model::{platform, RailId};
use nmad_wire::checksum::{self, Kernel};
use serde::{ser, Serialize, Value};

use crate::report::{lower_quartile_mean, mix};

/// Minimum slicing-by-16 throughput, as a multiple of the scalar kernel.
pub const SLICE16_SPEEDUP_GATE: f64 = 3.0;

/// Minimum PCLMUL-folding throughput, as a multiple of the scalar
/// kernel (applied only where the CPU reports the features).
pub const SIMD_SPEEDUP_GATE: f64 = 8.0;

/// Maximum TX syscalls per message of the burst shape over loopback TCP
/// at 2 rails (ROADMAP item 1 measured 0.065).
pub const TX_SYSCALLS_PER_MESSAGE_GATE: f64 = 0.25;

/// Messages the burst shape keeps in flight.
pub const BURST_WINDOW: usize = 32;

/// Minimum fraction of pool takes served from the free list.
pub const POOL_REUSE_RATE_GATE: f64 = 0.90;

/// Give up on the fabric leg after this long (a wedged pipeline must
/// fail the gate, not hang CI).
const FABRIC_DEADLINE: Duration = Duration::from_secs(120);

/// One checksum kernel's measured throughput.
#[derive(Clone, Debug)]
pub struct KernelPoint {
    /// Kernel name (`scalar`, `slice16`, `simd`).
    pub kernel: &'static str,
    /// Lowest-quartile-mean throughput, GiB/s.
    pub gib_s: f64,
    /// Throughput relative to the scalar kernel in the same run.
    pub speedup: f64,
}

impl Serialize for KernelPoint {
    fn to_value(&self) -> Value {
        ser::object([
            ("kernel", ser::v(&self.kernel.to_string())),
            ("gib_s", ser::v(&self.gib_s)),
            ("speedup", ser::v(&self.speedup)),
        ])
    }
}

/// Pool traffic of the aggregation workload.
#[derive(Clone, Debug)]
pub struct PoolPoint {
    /// Pool takes across both engines.
    pub takes: u64,
    /// Takes served from the free list.
    pub hits: u64,
    /// Takes that allocated fresh memory.
    pub allocs: u64,
    /// `hits / takes`.
    pub reuse_rate: f64,
}

impl Serialize for PoolPoint {
    fn to_value(&self) -> Value {
        ser::object([
            ("takes", ser::v(&self.takes)),
            ("hits", ser::v(&self.hits)),
            ("allocs", ser::v(&self.allocs)),
            ("reuse_rate", ser::v(&self.reuse_rate)),
        ])
    }
}

/// Per-message CPU cost of the CRC-on workload, scalar vs. best kernel.
#[derive(Clone, Debug)]
pub struct PerPacketPoint {
    /// Message size, bytes.
    pub size: u64,
    /// Interleaved samples per leg.
    pub samples: usize,
    /// Lowest-quartile-mean per-message wall-clock, kernel forced
    /// scalar, ns.
    pub scalar_ns: u64,
    /// Same with the best available kernel, ns.
    pub fast_ns: u64,
    /// Which kernel the fast leg used.
    pub fast_kernel: &'static str,
}

impl Serialize for PerPacketPoint {
    fn to_value(&self) -> Value {
        ser::object([
            ("size", ser::v(&self.size)),
            ("samples", ser::v(&self.samples)),
            ("scalar_ns", ser::v(&self.scalar_ns)),
            ("fast_ns", ser::v(&self.fast_ns)),
            ("fast_kernel", ser::v(&self.fast_kernel.to_string())),
        ])
    }
}

/// The full ablation result.
#[derive(Clone, Debug)]
pub struct CyclesReport {
    /// One point per available checksum kernel.
    pub kernels: Vec<KernelPoint>,
    /// Bits per fold lane the `simd` kernel ran with on this CPU: 512
    /// (VPCLMULQDQ), 128 (PCLMULQDQ), 0 when it is unavailable. Its
    /// GiB/s from two hosts compare only at the same width.
    pub simd_fold_width: u32,
    /// Syscall tallies of the fabric leg: TX side from the sender, RX
    /// side from the receiver.
    pub syscalls: SyscallStats,
    /// Messages pushed through the fabric leg.
    pub fabric_messages: u64,
    /// Whether every fabric send/recv completed before the deadline.
    pub fabric_completed: bool,
    /// Pool traffic of the aggregation workload.
    pub pool: PoolPoint,
    /// Scalar-vs-fast per-message CPU comparison.
    pub per_packet: PerPacketPoint,
    /// Gates applied by [`check`].
    pub slice16_gate: f64,
    /// See [`SIMD_SPEEDUP_GATE`].
    pub simd_gate: f64,
    /// See [`TX_SYSCALLS_PER_MESSAGE_GATE`].
    pub tx_syscall_gate: f64,
    /// See [`POOL_REUSE_RATE_GATE`].
    pub pool_reuse_gate: f64,
}

impl CyclesReport {
    /// `write_vectored` calls per message of the fabric leg (0 when it
    /// moved none).
    pub fn tx_calls_per_message(&self) -> f64 {
        self.syscalls.tx_calls as f64 / self.fabric_messages.max(1) as f64
    }
}

impl Serialize for CyclesReport {
    fn to_value(&self) -> Value {
        ser::object([
            ("kernels", ser::v(&self.kernels)),
            ("simd_available", ser::v(&(self.simd_fold_width != 0))),
            ("simd_fold_width", ser::v(&self.simd_fold_width)),
            ("tx_calls", ser::v(&self.syscalls.tx_calls)),
            ("tx_frames", ser::v(&self.syscalls.tx_frames)),
            ("tx_per_packet", ser::v(&self.syscalls.tx_per_packet())),
            ("tx_calls_per_message", ser::v(&self.tx_calls_per_message())),
            ("rx_calls", ser::v(&self.syscalls.rx_calls)),
            ("rx_frames", ser::v(&self.syscalls.rx_frames)),
            ("rx_per_packet", ser::v(&self.syscalls.rx_per_packet())),
            ("fabric_messages", ser::v(&self.fabric_messages)),
            ("fabric_completed", ser::v(&self.fabric_completed)),
            ("pool", ser::v(&self.pool)),
            ("per_packet", ser::v(&self.per_packet)),
            ("slice16_gate", ser::v(&self.slice16_gate)),
            ("simd_gate", ser::v(&self.simd_gate)),
            ("tx_syscall_gate", ser::v(&self.tx_syscall_gate)),
            ("pool_reuse_gate", ser::v(&self.pool_reuse_gate)),
        ])
    }
}

/// Deterministic pseudo-random buffer (no clock, no RNG state): CRC
/// tables are data-independent, but a patterned buffer would let the
/// prefetcher flatter the slower kernels.
fn noise_buf(len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    let mut i = 0u64;
    while v.len() < len {
        v.extend_from_slice(&mix(i).to_le_bytes());
        i += 1;
    }
    v.truncate(len);
    v
}

/// Throughput of every available kernel over `len` bytes,
/// `samples` passes each, interleaved round-robin so a noise burst
/// taxes all kernels alike.
fn measure_kernels(len: usize, samples: usize) -> Vec<KernelPoint> {
    let buf = noise_buf(len);
    let kernels = checksum::available_kernels();
    // All kernels must agree before we time anything (the proptests
    // prove this exhaustively; this is the cheap in-run sanity check).
    let want = checksum::update_with(Kernel::Scalar, checksum::crc32_init(), &buf);
    for &k in &kernels {
        assert_eq!(
            checksum::update_with(k, checksum::crc32_init(), &buf),
            want,
            "kernel {} disagrees with scalar",
            k.name()
        );
    }
    let mut times: Vec<Vec<u64>> = vec![Vec::with_capacity(samples); kernels.len()];
    for s in 0..samples {
        // Rotate the starting kernel per round so cache state at round
        // boundaries does not systematically favour one kernel.
        let rot = (mix(s as u64) % kernels.len() as u64) as usize;
        for j in 0..kernels.len() {
            let ki = (j + rot) % kernels.len();
            let t0 = Instant::now();
            let crc = checksum::update_with(kernels[ki], checksum::crc32_init(), &buf);
            let ns = t0.elapsed().as_nanos() as u64;
            assert_eq!(crc, want); // keeps the compute from being optimized out
            times[ki].push(ns);
        }
    }
    let ns: Vec<u64> = times.iter_mut().map(|t| lower_quartile_mean(t)).collect();
    let gib = |ns: u64| {
        if ns == 0 {
            0.0
        } else {
            len as f64 / (ns as f64 / 1e9) / (1u64 << 30) as f64
        }
    };
    let scalar_ns = ns[0].max(1);
    kernels
        .iter()
        .zip(&ns)
        .map(|(&k, &t)| KernelPoint {
            kernel: k.name(),
            gib_s: gib(t),
            speedup: scalar_ns as f64 / t.max(1) as f64,
        })
        .collect()
}

/// The burst shape over loopback TCP at 2 rails: a window of
/// [`BURST_WINDOW`] messages of 4 × 256 B kept full by a sender that
/// never waits for an arrival on its own endpoint, so its submissions
/// meet in the backlog and leave as aggregates.
/// Returns (syscalls, messages, completed).
fn measure_fabric_syscalls(messages: usize) -> (SyscallStats, u64, bool) {
    use nmad_transport_tcp::{pair_localhost, RecvHandle, SendHandle, TcpConfig};
    use std::collections::VecDeque;

    let config = TcpConfig::new(platform::paper_platform(), EngineConfig::default());
    let (a, b) = pair_localhost(config).expect("localhost fabric");
    let conn = a.conns()[0];
    let segment = Bytes::from(noise_buf(256));
    let mut completed = true;
    let mut inflight: VecDeque<(RecvHandle, SendHandle)> = VecDeque::new();
    for i in 0..messages + BURST_WINDOW {
        if inflight.len() == BURST_WINDOW || i >= messages {
            let Some((r, s)) = inflight.pop_front() else {
                break;
            };
            completed &= r.wait(FABRIC_DEADLINE).is_some() && s.wait(FABRIC_DEADLINE);
        }
        if i < messages {
            inflight.push_back((b.recv(conn), a.send(conn, vec![segment.clone(); 4])));
        }
    }
    // TX tallies live on the sender, RX tallies on the receiver.
    let tx = a.stats().syscalls;
    let rx = b.stats().syscalls;
    (
        SyscallStats {
            tx_calls: tx.tx_calls,
            tx_frames: tx.tx_frames,
            rx_calls: rx.rx_calls,
            rx_frames: rx.rx_frames,
        },
        messages as u64,
        completed,
    )
}

fn engine_pair(strategy: StrategyKind, crc: bool) -> (Engine, Engine) {
    let mut cfg = EngineConfig::with_strategy(strategy);
    cfg.crc = crc;
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

/// Soak-shaped pool workload: windows of small messages under the
/// aggregating strategy, so every window takes head buffers and staging
/// slabs from the pool and reclaims them at completion — steady-state
/// reuse is exactly what the pool exists to serve without allocating.
///
/// Unlike [`pump`], this loop mirrors a real runtime's buffer
/// lifecycle: the frame is delivered and dropped, and the receiving app
/// consumes its message (releasing the zero-copy slices into the
/// staging slab), *before* the sender's `on_tx_done` tries to reclaim
/// head and slab — otherwise every reclaim is a refcount miss and
/// nothing ever returns to the free list.
fn measure_pool(rounds: usize, window: usize) -> PoolPoint {
    let (mut a, mut b) = engine_pair(StrategyKind::AggregateEager, false);
    let payload = Bytes::from(noise_buf(256));
    for _ in 0..rounds {
        let rids: Vec<_> = (0..window).map(|_| b.post_recv(0)).collect();
        for _ in 0..window {
            a.submit_send(0, vec![payload.clone()]);
        }
        loop {
            let mut progressed = false;
            for r in 0..2 {
                let rail = RailId(r);
                if let Some(d) = a.next_tx(rail).expect("next_tx") {
                    progressed = true;
                    let (frame, token) = (d.frame, d.token);
                    b.on_frame(rail, &frame).expect("on_frame");
                    drop(frame);
                    for &rid in &rids {
                        let _ = b.try_recv(rid); // consume + drop delivered messages
                    }
                    a.on_tx_done(rail, token).expect("tx_done");
                }
            }
            if !progressed {
                break;
            }
        }
    }
    let (da, db) = (a.stats().datapath, b.stats().datapath);
    let hits = da.pool_hits + db.pool_hits;
    let allocs = da.hot_path_allocs + db.hot_path_allocs;
    let takes = hits + allocs;
    PoolPoint {
        takes,
        hits,
        allocs,
        reuse_rate: hits as f64 / takes.max(1) as f64,
    }
}

/// Send one message through the pair and return its wall-clock ns.
fn one_msg(a: &mut Engine, b: &mut Engine, payload: &Bytes) -> u64 {
    let start = Instant::now();
    b.post_recv(0);
    a.submit_send(0, vec![payload.clone()]);
    pump(a, b);
    start.elapsed().as_nanos() as u64
}

/// The CRC-on workload timed with the checksum kernel forced to scalar
/// vs. the best available kernel, finely interleaved (`ablate_obs`
/// noise discipline). Restores the best kernel before returning.
fn measure_per_packet(size: usize, samples: usize) -> PerPacketPoint {
    let fast = *checksum::available_kernels()
        .last()
        .expect("scalar always available");
    let (mut a_s, mut b_s) = engine_pair(StrategyKind::AdaptiveSplit, true);
    let (mut a_f, mut b_f) = engine_pair(StrategyKind::AdaptiveSplit, true);
    let payload = Bytes::from(noise_buf(size));
    // Warm both pairs (allocator, page faults, split tables).
    checksum::set_kernel(Kernel::Scalar);
    one_msg(&mut a_s, &mut b_s, &payload);
    checksum::set_kernel(fast);
    one_msg(&mut a_f, &mut b_f, &payload);
    let mut scalar = Vec::with_capacity(samples);
    let mut fastv = Vec::with_capacity(samples);
    for i in 0..samples {
        let scalar_first = mix(i as u64) & 1 == 0;
        for leg in 0..2 {
            if (leg == 0) == scalar_first {
                checksum::set_kernel(Kernel::Scalar);
                scalar.push(one_msg(&mut a_s, &mut b_s, &payload));
            } else {
                checksum::set_kernel(fast);
                fastv.push(one_msg(&mut a_f, &mut b_f, &payload));
            }
        }
    }
    checksum::set_kernel(fast);
    PerPacketPoint {
        size: size as u64,
        samples,
        scalar_ns: lower_quartile_mean(&mut scalar),
        fast_ns: lower_quartile_mean(&mut fastv),
        fast_kernel: fast.name(),
    }
}

/// Run the ablation. `smoke` shrinks buffer sizes and repetition counts
/// for the CI gate.
pub fn run(smoke: bool) -> CyclesReport {
    let kernels = if smoke {
        measure_kernels(1 << 20, 24)
    } else {
        measure_kernels(4 << 20, 64)
    };
    let (syscalls, fabric_messages, fabric_completed) =
        measure_fabric_syscalls(if smoke { 2_000 } else { 20_000 });
    let pool = if smoke {
        measure_pool(64, 16)
    } else {
        measure_pool(512, 16)
    };
    let per_packet = if smoke {
        measure_per_packet(64 << 10, 48)
    } else {
        measure_per_packet(64 << 10, 256)
    };
    CyclesReport {
        kernels,
        simd_fold_width: checksum::simd_fold_width(),
        syscalls,
        fabric_messages,
        fabric_completed,
        pool,
        per_packet,
        slice16_gate: SLICE16_SPEEDUP_GATE,
        simd_gate: SIMD_SPEEDUP_GATE,
        tx_syscall_gate: TX_SYSCALLS_PER_MESSAGE_GATE,
        pool_reuse_gate: POOL_REUSE_RATE_GATE,
    }
}

/// Gate violations (empty = the hot path holds its claims). Timing-
/// sensitive messages carry "speedup", "syscalls" or "per-packet" so
/// the bench main can classify them for the shared retry-once policy;
/// the coverage gates (completion, zero frames, zero takes) are
/// deterministic and never retried.
pub fn check(report: &CyclesReport) -> Vec<String> {
    let mut v = Vec::new();
    for p in &report.kernels {
        let gate = match p.kernel {
            "slice16" => report.slice16_gate,
            "simd" => report.simd_gate,
            _ => continue,
        };
        if p.speedup < gate {
            v.push(format!(
                "{} speedup {:.2}x below the {:.1}x gate",
                p.kernel, p.speedup, gate
            ));
        }
    }
    if !report.fabric_completed {
        v.push("fabric leg did not complete all sends/recvs before the deadline".into());
    }
    if report.syscalls.tx_frames == 0 {
        v.push("fabric leg transmitted no frames (syscall ratio unmeasured)".into());
    } else if report.tx_calls_per_message() > report.tx_syscall_gate {
        v.push(format!(
            "{:.3} TX syscalls per message above the {:.2} gate ({} calls / {} messages)",
            report.tx_calls_per_message(),
            report.tx_syscall_gate,
            report.syscalls.tx_calls,
            report.fabric_messages
        ));
    }
    if report.pool.takes == 0 {
        v.push("pool workload took no pool buffers".into());
    } else if report.pool.reuse_rate < report.pool_reuse_gate {
        v.push(format!(
            "pool reuse rate {:.1}% below the {:.0}% gate ({} reused of {} takes)",
            report.pool.reuse_rate * 100.0,
            report.pool_reuse_gate * 100.0,
            report.pool.hits,
            report.pool.takes
        ));
    }
    if report.per_packet.fast_ns >= report.per_packet.scalar_ns {
        v.push(format!(
            "per-packet CPU with {} ({} ns) not below the scalar baseline ({} ns)",
            report.per_packet.fast_kernel, report.per_packet.fast_ns, report.per_packet.scalar_ns
        ));
    }
    v
}

/// Human-readable table.
pub fn render(report: &CyclesReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:>8} {:>10} {:>9}", "kernel", "GiB/s", "speedup");
    for p in &report.kernels {
        let _ = writeln!(out, "{:>8} {:>10.2} {:>8.1}x", p.kernel, p.gib_s, p.speedup);
    }
    let _ = match report.simd_fold_width {
        0 => writeln!(out, "(simd kernel unavailable on this CPU)"),
        bits => writeln!(out, "(simd folds {bits} bits per lane on this CPU)"),
    };
    let s = &report.syscalls;
    let _ = writeln!(
        out,
        "fabric: {} msgs in {} frames, {} wr = {:.3} tx syscalls/msg, \
         {} rd / {} frames = {:.3} rx syscalls/pkt",
        report.fabric_messages,
        s.tx_frames,
        s.tx_calls,
        report.tx_calls_per_message(),
        s.rx_calls,
        s.rx_frames,
        s.rx_per_packet()
    );
    let m = &report.pool;
    let _ = writeln!(
        out,
        "pool: {} takes, {} reused ({:.1}%), {} allocs",
        m.takes,
        m.hits,
        m.reuse_rate * 100.0,
        m.allocs
    );
    let pp = &report.per_packet;
    let _ = writeln!(
        out,
        "per-packet CPU ({} B, crc on): scalar {:.1} us, {} {:.1} us ({:.2}x)",
        pp.size,
        pp.scalar_ns as f64 / 1e3,
        pp.fast_kernel,
        pp.fast_ns as f64 / 1e3,
        pp.scalar_ns as f64 / pp.fast_ns.max(1) as f64
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_report() -> CyclesReport {
        CyclesReport {
            kernels: vec![
                KernelPoint {
                    kernel: "scalar",
                    gib_s: 0.3,
                    speedup: 1.0,
                },
                KernelPoint {
                    kernel: "slice16",
                    gib_s: 1.5,
                    speedup: 5.0,
                },
                KernelPoint {
                    kernel: "simd",
                    gib_s: 12.0,
                    speedup: 40.0,
                },
            ],
            simd_fold_width: 128,
            syscalls: SyscallStats {
                tx_calls: 40,
                tx_frames: 256,
                rx_calls: 30,
                rx_frames: 256,
            },
            fabric_messages: 256,
            fabric_completed: true,
            pool: PoolPoint {
                takes: 1000,
                hits: 980,
                allocs: 20,
                reuse_rate: 0.98,
            },
            per_packet: PerPacketPoint {
                size: 64 << 10,
                samples: 48,
                scalar_ns: 400_000,
                fast_ns: 60_000,
                fast_kernel: "simd",
            },
            slice16_gate: SLICE16_SPEEDUP_GATE,
            simd_gate: SIMD_SPEEDUP_GATE,
            tx_syscall_gate: TX_SYSCALLS_PER_MESSAGE_GATE,
            pool_reuse_gate: POOL_REUSE_RATE_GATE,
        }
    }

    #[test]
    fn check_passes_clean_and_flags_each_gate() {
        let clean = clean_report();
        assert!(check(&clean).is_empty(), "{:?}", check(&clean));

        let mut r = clean.clone();
        r.kernels[1].speedup = 2.0; // slice16 under 3x
        r.kernels[2].speedup = 5.0; // simd under 8x
        r.syscalls.tx_calls = 200; // 0.78 per message
        r.pool.reuse_rate = 0.5;
        r.per_packet.fast_ns = r.per_packet.scalar_ns; // not strictly below
        r.fabric_completed = false;
        assert_eq!(check(&r).len(), 6, "{:?}", check(&r));
    }

    #[test]
    fn zero_denominators_are_coverage_failures() {
        let mut r = clean_report();
        r.syscalls.tx_frames = 0;
        r.pool.takes = 0;
        let v = check(&r);
        assert!(v.iter().any(|s| s.contains("no frames")), "{v:?}");
        assert!(v.iter().any(|s| s.contains("no pool buffers")), "{v:?}");
    }

    #[test]
    fn kernel_measurement_orders_kernels_sanely() {
        // Tiny run: the point is agreement + plumbing, not stable timing.
        let points = measure_kernels(64 << 10, 8);
        assert_eq!(points[0].kernel, "scalar");
        assert!((points[0].speedup - 1.0).abs() < 1e-9);
        assert!(points.len() >= 2, "slice16 must always be available");
    }

    #[test]
    fn pool_workload_reuses_buffers() {
        let m = measure_pool(16, 8);
        assert!(m.takes > 0, "workload must touch the pool");
        assert!(
            m.reuse_rate > 0.5,
            "steady-state reuse must dominate: {m:?}"
        );
    }

    #[test]
    fn render_mentions_every_section() {
        let s = render(&clean_report());
        assert!(s.contains("slice16") && s.contains("syscalls/pkt"));
        assert!(s.contains("pool:") && s.contains("per-packet CPU"));
    }
}
