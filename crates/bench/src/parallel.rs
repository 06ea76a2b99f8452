//! Lock-contention ablation for the parallel progress engine (the
//! `ablate_parallel` target).
//!
//! The single-threaded runtimes hold the engine lock across the
//! transport write, so two rails never overlap their wire time — the
//! multi-rail bandwidth claim dies on lock hold time, not on the wire.
//! This ablation measures exactly that serialization: both legs drive a
//! real engine through the same eager workload where every frame
//! injection costs its wire-paced duration (`sleep(bytes / pace)` stands
//! in for the slow transport write; sleeps overlap across threads even
//! on a single-core CI box).
//!
//! * **baseline** — today's discipline: one thread owns the engine and
//!   sleeps out each frame's wire time before completing it, so rails
//!   take turns.
//! * **parallel** — the real [`ParallelHub`] pipeline: the scheduler
//!   publishes decisions into per-rail outboxes and per-rail TX workers
//!   sleep out the wire time *outside* the engine lock, concurrently.
//!
//! [`check`] is the regression gate used by `scripts/verify.sh`: with
//! two or more rails the parallel pipeline must reach at least
//! [`SPEEDUP_GATE`]× the baseline's aggregate throughput, every rail
//! must actually carry frames, and the scheduler's lock-hold histogram
//! must prove the short-critical-section claim was exercised. The
//! result is written to `BENCH_parallel.json` at the repo root.

use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nmad_core::engine::Engine;
use nmad_core::{Completion, EngineConfig, ParallelHub, SendId, StrategyKind};
use nmad_model::{platform, NicModel, RailId};
use serde::{ser, Serialize, Value};

/// Minimum aggregate-throughput ratio (parallel over baseline) the gate
/// demands from every multi-rail point.
pub const SPEEDUP_GATE: f64 = 1.5;

/// Wire pacing: nanoseconds of injection time per KiB of wire bytes
/// (~32 MB/s per rail). Slow enough that per-frame sleeps dwarf
/// scheduler overhead and `thread::sleep` slack on a loaded CI box.
pub const PACE_NS_PER_KIB: u64 = 32_000;

/// Message size: below the 32 KiB rendezvous threshold (no handshake,
/// so no receiver engine is needed — eager sends complete at tx-done)
/// and above the 16 KiB aggregation cap.
pub const MSG_SIZE: usize = 24 << 10;

/// Give up on a leg after this long (a wedged pipeline must fail the
/// gate, not hang CI).
const COMPLETION_DEADLINE: Duration = Duration::from_secs(120);

fn pace(wire_bytes: u64) -> Duration {
    Duration::from_nanos(wire_bytes.saturating_mul(PACE_NS_PER_KIB) / 1024)
}

/// Homogeneous rails so the ideal multi-rail speedup is the rail count.
fn rail_models(n: usize) -> Vec<NicModel> {
    (0..n).map(|_| platform::myri_10g()).collect()
}

fn mk_engine(rails: usize) -> Engine {
    // Greedy hands the oldest backlog entry to whichever rail asks, so
    // a deep eager backlog loads every rail without rendezvous traffic.
    let cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
    let mut eng = Engine::new(cfg, rail_models(rails), vec![]);
    eng.conn_open();
    eng
}

/// One thread owns the engine and pays each frame's wire time inline —
/// the single-lock discipline the threaded transports use today.
/// Returns the leg's wall-clock ns.
fn run_baseline(rails: usize, messages: usize) -> u64 {
    let mut eng = mk_engine(rails);
    let payload = Bytes::from(vec![0x5Au8; MSG_SIZE]);
    let t0 = Instant::now();
    let ids: Vec<SendId> = (0..messages)
        .map(|_| eng.submit_send(0, vec![payload.clone()]))
        .collect();
    loop {
        let mut progressed = false;
        for r in 0..rails {
            if let Some(d) = eng.next_tx(RailId(r)).expect("next_tx") {
                progressed = true;
                thread::sleep(pace(d.frame.wire_len() as u64));
                eng.on_tx_done(RailId(r), d.token).expect("tx_done");
            }
        }
        if !progressed {
            assert!(
                ids.iter().all(|&id| eng.send_complete(id)),
                "baseline leg quiesced with incomplete sends"
            );
            return t0.elapsed().as_nanos() as u64;
        }
    }
}

/// What the parallel leg measured, plus the scheduler's own evidence.
struct ParallelOutcome {
    ns: u64,
    completed: bool,
    lock_hold_passes: u64,
    lock_hold_p50_ns: u64,
    lock_hold_max_ns: u64,
    completion_batch_mean: f64,
    rail_packets: Vec<u64>,
}

/// The real sharded pipeline: scheduler thread + one wire-paced TX
/// worker per rail, sleeps overlapping outside the engine lock.
fn run_parallel(rails: usize, messages: usize) -> ParallelOutcome {
    let eng = mk_engine(rails);
    let (hub, senders, receivers) = ParallelHub::new(eng);
    let epoch = Instant::now();
    let mut workers = Vec::new();
    for (rail, mut rx) in receivers.into_iter().enumerate() {
        let hub = hub.clone();
        let h = thread::Builder::new()
            .name(format!("ablate-tx{rail}"))
            .spawn(move || loop {
                match rx.pop_wait(Duration::from_millis(2)) {
                    Some(d) => {
                        thread::sleep(pace(d.frame.wire_len() as u64));
                        hub.push_completion(
                            rail,
                            Completion::TxDone {
                                rail,
                                token: d.token,
                            },
                        );
                    }
                    None => {
                        if hub.is_shutdown() {
                            while let Some(d) = rx.pop() {
                                hub.push_completion(
                                    rail,
                                    Completion::TxDone {
                                        rail,
                                        token: d.token,
                                    },
                                );
                            }
                            return;
                        }
                    }
                }
            })
            .expect("spawn tx worker");
        workers.push(h);
    }
    let sched = {
        let hub = hub.clone();
        thread::Builder::new()
            .name("ablate-sched".into())
            .spawn(move || hub.run_scheduler(senders, epoch))
            .expect("spawn scheduler")
    };

    let payload = Bytes::from(vec![0x5Au8; MSG_SIZE]);
    let t0 = Instant::now();
    let ids: Vec<SendId> = (0..messages)
        .map(|_| {
            hub.submit_send(0, vec![payload.clone()])
                .expect("hub not shut down")
        })
        .collect();
    let completed = {
        let mut eng = hub.engine().lock();
        loop {
            if ids.iter().all(|&id| eng.send_complete(id)) {
                break true;
            }
            if t0.elapsed() > COMPLETION_DEADLINE {
                break false;
            }
            hub.app_cv().wait_for(&mut eng, Duration::from_millis(20));
        }
    };
    let ns = t0.elapsed().as_nanos() as u64;

    hub.begin_shutdown();
    for w in workers {
        w.join().expect("tx worker");
    }
    sched.join().expect("scheduler");

    let eng = hub.engine().lock();
    let obs = &eng.stats().obs;
    ParallelOutcome {
        ns,
        completed,
        lock_hold_passes: obs.lock_hold_ns.count(),
        lock_hold_p50_ns: obs.lock_hold_ns.approx_quantile(0.5).unwrap_or(0),
        lock_hold_max_ns: obs.lock_hold_ns.max().unwrap_or(0),
        completion_batch_mean: obs.completion_batch.mean().unwrap_or(0.0),
        rail_packets: eng.stats().rails.iter().map(|r| r.packets).collect(),
    }
}

/// One rail-count point: the same workload through both disciplines.
#[derive(Clone, Debug)]
pub struct ParallelPoint {
    /// Rail count of this point.
    pub rails: usize,
    /// Messages pushed through each leg.
    pub messages: usize,
    /// Application payload bytes moved per leg.
    pub payload_bytes: u64,
    /// Single-lock leg wall-clock, ns.
    pub baseline_ns: u64,
    /// Sharded-pipeline leg wall-clock, ns.
    pub parallel_ns: u64,
    /// Whether every send completed before the deadline (both legs;
    /// the baseline asserts, the parallel leg reports).
    pub completed: bool,
    /// Scheduler passes recorded in the lock-hold histogram.
    pub lock_hold_passes: u64,
    /// Median scheduler critical section, ns.
    pub lock_hold_p50_ns: u64,
    /// Worst scheduler critical section, ns.
    pub lock_hold_max_ns: u64,
    /// Mean completions drained per scheduler pass.
    pub completion_batch_mean: f64,
    /// Data packets each rail carried in the parallel leg.
    pub rail_packets: Vec<u64>,
}

impl ParallelPoint {
    /// Aggregate-throughput ratio: baseline time over parallel time.
    pub fn speedup(&self) -> f64 {
        if self.parallel_ns == 0 {
            return 0.0;
        }
        self.baseline_ns as f64 / self.parallel_ns as f64
    }

    /// Baseline aggregate throughput, MB/s.
    pub fn baseline_mbs(&self) -> f64 {
        mbs(self.payload_bytes, self.baseline_ns)
    }

    /// Parallel aggregate throughput, MB/s.
    pub fn parallel_mbs(&self) -> f64 {
        mbs(self.payload_bytes, self.parallel_ns)
    }
}

fn mbs(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    bytes as f64 / (ns as f64 / 1e9) / 1e6
}

impl Serialize for ParallelPoint {
    fn to_value(&self) -> Value {
        ser::object([
            ("rails", ser::v(&self.rails)),
            ("messages", ser::v(&self.messages)),
            ("payload_bytes", ser::v(&self.payload_bytes)),
            ("baseline_ns", ser::v(&self.baseline_ns)),
            ("parallel_ns", ser::v(&self.parallel_ns)),
            ("baseline_mbs", ser::v(&self.baseline_mbs())),
            ("parallel_mbs", ser::v(&self.parallel_mbs())),
            ("speedup", ser::v(&self.speedup())),
            ("completed", ser::v(&self.completed)),
            ("lock_hold_passes", ser::v(&self.lock_hold_passes)),
            ("lock_hold_p50_ns", ser::v(&self.lock_hold_p50_ns)),
            ("lock_hold_max_ns", ser::v(&self.lock_hold_max_ns)),
            ("completion_batch_mean", ser::v(&self.completion_batch_mean)),
            ("rail_packets", ser::v(&self.rail_packets)),
        ])
    }
}

/// The full ablation result.
#[derive(Clone, Debug)]
pub struct ParallelReport {
    /// One point per rail count in the ladder.
    pub points: Vec<ParallelPoint>,
    /// The gate applied by [`check`] to every multi-rail point.
    pub speedup_gate: f64,
    /// Worst speedup across the multi-rail points (what the gate sees).
    pub multi_rail_speedup: f64,
    /// Wire pacing used, ns per KiB.
    pub pace_ns_per_kib: u64,
    /// Message size used, bytes.
    pub msg_size: u64,
}

impl Serialize for ParallelReport {
    fn to_value(&self) -> Value {
        ser::object([
            ("points", ser::v(&self.points)),
            ("speedup_gate", ser::v(&self.speedup_gate)),
            ("multi_rail_speedup", ser::v(&self.multi_rail_speedup)),
            ("pace_ns_per_kib", ser::v(&self.pace_ns_per_kib)),
            ("msg_size", ser::v(&self.msg_size)),
        ])
    }
}

/// Run the ablation. `smoke` shrinks the rail ladder and message count
/// for the CI gate.
pub fn run(smoke: bool) -> ParallelReport {
    let (rail_ladder, messages): (Vec<usize>, usize) = if smoke {
        (vec![1, 2], 96)
    } else {
        (vec![1, 2, 4], 256)
    };
    let mut points = Vec::new();
    for &rails in &rail_ladder {
        let baseline_ns = run_baseline(rails, messages);
        let out = run_parallel(rails, messages);
        points.push(ParallelPoint {
            rails,
            messages,
            payload_bytes: (messages * MSG_SIZE) as u64,
            baseline_ns,
            parallel_ns: out.ns,
            completed: out.completed,
            lock_hold_passes: out.lock_hold_passes,
            lock_hold_p50_ns: out.lock_hold_p50_ns,
            lock_hold_max_ns: out.lock_hold_max_ns,
            completion_batch_mean: out.completion_batch_mean,
            rail_packets: out.rail_packets,
        });
    }
    let multi_rail_speedup = points
        .iter()
        .filter(|p| p.rails >= 2)
        .map(ParallelPoint::speedup)
        .fold(f64::INFINITY, f64::min);
    ParallelReport {
        points,
        speedup_gate: SPEEDUP_GATE,
        multi_rail_speedup,
        pace_ns_per_kib: PACE_NS_PER_KIB,
        msg_size: MSG_SIZE as u64,
    }
}

/// Gate violations (empty = pipeline holds its claims).
pub fn check(report: &ParallelReport) -> Vec<String> {
    let mut v = Vec::new();
    for p in &report.points {
        if !p.completed {
            v.push(format!(
                "parallel leg at {} rails did not complete all sends",
                p.rails
            ));
        }
        if p.lock_hold_passes == 0 {
            v.push(format!(
                "parallel leg at {} rails recorded no scheduler passes (lock-hold histogram empty)",
                p.rails
            ));
        }
        if p.rails < 2 {
            continue;
        }
        if p.speedup() < report.speedup_gate {
            v.push(format!(
                "speedup {:.2}x at {} rails below the {:.1}x gate",
                p.speedup(),
                p.rails,
                report.speedup_gate
            ));
        }
        for (i, &pk) in p.rail_packets.iter().enumerate() {
            if pk == 0 {
                v.push(format!(
                    "rail {i} carried no frames in the {}-rail parallel leg",
                    p.rails
                ));
            }
        }
    }
    v
}

/// Human-readable table.
pub fn render(report: &ParallelReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>10} {:>10} {:>8} {:>12} {:>12} {:>8}",
        "rails", "msgs", "base (ms)", "par (ms)", "speedup", "lock p50", "lock max", "batch"
    );
    for p in &report.points {
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>10.1} {:>10.1} {:>7.2}x {:>9} ns {:>9} ns {:>8.2}",
            p.rails,
            p.messages,
            p.baseline_ns as f64 / 1e6,
            p.parallel_ns as f64 / 1e6,
            p.speedup(),
            p.lock_hold_p50_ns,
            p.lock_hold_max_ns,
            p.completion_batch_mean
        );
    }
    let _ = writeln!(
        out,
        "multi-rail speedup {:.2}x (gate {:.1}x), pacing {} ns/KiB, {} B messages",
        report.multi_rail_speedup, report.speedup_gate, report.pace_ns_per_kib, report.msg_size
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_flags_slow_and_idle_rails() {
        let mut r = ParallelReport {
            points: vec![ParallelPoint {
                rails: 2,
                messages: 8,
                payload_bytes: 8 * MSG_SIZE as u64,
                baseline_ns: 100,
                parallel_ns: 90,
                completed: false,
                lock_hold_passes: 0,
                lock_hold_p50_ns: 0,
                lock_hold_max_ns: 0,
                completion_batch_mean: 0.0,
                rail_packets: vec![8, 0],
            }],
            speedup_gate: SPEEDUP_GATE,
            multi_rail_speedup: 100.0 / 90.0,
            pace_ns_per_kib: PACE_NS_PER_KIB,
            msg_size: MSG_SIZE as u64,
        };
        // Incomplete, no sched passes, speedup under gate, idle rail.
        assert_eq!(check(&r).len(), 4);
        let p = &mut r.points[0];
        p.completed = true;
        p.lock_hold_passes = 50;
        p.parallel_ns = 50;
        p.rail_packets = vec![4, 4];
        assert!(check(&r).is_empty());
    }

    #[test]
    fn both_legs_move_a_tiny_workload() {
        let base = run_baseline(2, 4);
        assert!(base > 0);
        let par = run_parallel(2, 4);
        assert!(par.completed, "parallel leg must finish 4 sends");
        assert!(par.lock_hold_passes > 0, "scheduler must have run");
        assert_eq!(par.rail_packets.iter().sum::<u64>(), 4);
    }
}
