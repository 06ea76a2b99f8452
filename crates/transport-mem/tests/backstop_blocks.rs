//! The backstop threads cost nothing while nothing
//! happens, and next to nothing while callers drive progress themselves.
//!
//! These read per-thread scheduler accounting for every thread named
//! `nmad-mem-*` in the process, so they live in a test binary of their
//! own (no other test's endpoints alive) and take turns.

#![cfg(target_os = "linux")]

use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nmad_core::EngineConfig;
use nmad_model::platform;
use nmad_transport_mem::{pair, Endpoint, FabricConfig};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
const T: Duration = Duration::from_secs(20);

/// Total on-CPU time of the live threads called `nmad-mem-*`
/// (`/proc/self/task/*/schedstat`: run ns, wait ns, timeslices).
fn backstop_cpu() -> Duration {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.starts_with("nmad-mem-") {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
        let run = stat.split_whitespace().next().and_then(|f| f.parse().ok());
        total += run.unwrap_or(0u64);
    }
    Duration::from_nanos(total)
}

fn fabric() -> (Endpoint, Endpoint) {
    pair(FabricConfig::new(
        platform::paper_platform(),
        EngineConfig::default(),
    ))
}

fn exchange(from: &Endpoint, to: &Endpoint) {
    let c = from.conns()[0];
    let r = to.recv(c);
    assert!(from.send(c, vec![Bytes::from_static(b"ping")]).wait(T));
    assert!(r.wait(T).is_some());
}

/// An idle pair is silent: over 300 ms the two backstop threads together
/// run for less than two milliseconds — their six idle ticks, which an
/// unoptimized build makes in 0.5–0.8 ms by itself and in 1.0–1.4 ms in
/// the middle of a workspace test run; a thread that polls every
/// millisecond would run for ten.
#[test]
fn idle_pair_is_silent() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (a, b) = fabric();
    exchange(&a, &b);
    std::thread::sleep(Duration::from_millis(50));
    let before = backstop_cpu();
    std::thread::sleep(Duration::from_millis(300));
    let ran = backstop_cpu() - before;
    assert!(
        ran < Duration::from_millis(2),
        "idle backstop threads ran {ran:?} in 300 ms"
    );
}

/// A pair whose callers poll does not run its backstops: every delivery
/// finds the receiver held, by a caller making passes or by the lease of
/// one that has just left, and wakes nobody. What is left to the two
/// threads is to look, once per lease, whether that is still so.
#[test]
fn polled_pair_leaves_its_backstops_asleep() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (a, b) = fabric();
    exchange(&a, &b);
    let (before, t0, mut rounds) = (backstop_cpu(), Instant::now(), 0u32);
    while t0.elapsed() < Duration::from_millis(300) {
        exchange(&a, &b);
        exchange(&b, &a);
        rounds += 1;
    }
    let (ran, took) = (backstop_cpu() - before, t0.elapsed());
    assert!(rounds > 1000, "only {rounds} round trips in {took:?}");
    assert!(
        ran < took / 20,
        "backstop threads ran {ran:?} of {took:?} under {rounds} polled round trips"
    );
}
