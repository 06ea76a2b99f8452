//! The serial runtime's backstop thread blocks on readiness: it costs
//! nothing while nothing happens and does not spin on a dead peer.
//!
//! These read per-thread scheduler accounting for every thread named
//! `nmad-tcp` in the process, so they live in a test binary of their
//! own (no other test's endpoints alive) and take turns.

#![cfg(target_os = "linux")]

use std::sync::Mutex;
use std::time::Duration;

use bytes::Bytes;
use nmad_core::EngineConfig;
use nmad_model::platform;
use nmad_transport_tcp::{pair_localhost, Endpoint, TcpConfig};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
const T: Duration = Duration::from_secs(20);

/// Total on-CPU nanoseconds and times scheduled, over the live threads
/// called `nmad-tcp` (`/proc/self/task/*/schedstat`: run ns, wait ns,
/// timeslices).
fn backstop_sched() -> (u64, u64) {
    let mut total = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim() != "nmad-tcp" {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
        let mut fields = stat
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        total.0 += fields.next().unwrap_or(0);
        total.1 += fields.nth(1).unwrap_or(0);
    }
    total
}

fn pair() -> (Endpoint, Endpoint) {
    pair_localhost(TcpConfig::new(
        platform::paper_platform(),
        EngineConfig::default(),
    ))
    .expect("localhost pair")
}

fn exchange(a: &Endpoint, b: &Endpoint) {
    let c = a.conns()[0];
    let r = b.recv(c);
    assert!(a.send(c, vec![Bytes::from_static(b"warm")]).wait(T));
    assert!(r.wait(T).is_some());
}

/// (b) An idle pair is silent: over 300 ms no socket is read and the two
/// backstop threads together run for less than two milliseconds (their
/// six idle ticks: 0.5–0.9 ms unoptimized on a quiet host, more in the
/// middle of a workspace test run; polling every millisecond would be
/// ten).
#[test]
fn idle_pair_is_silent() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (a, b) = pair();
    exchange(&a, &b);
    std::thread::sleep(Duration::from_millis(50));
    let reads = |e: &Endpoint| e.stats().syscalls.rx_calls;
    let (reads_before, (run_before, _)) = (reads(&a) + reads(&b), backstop_sched());
    std::thread::sleep(Duration::from_millis(300));
    let (reads_after, (run_after, _)) = (reads(&a) + reads(&b), backstop_sched());
    assert_eq!(
        reads_after, reads_before,
        "an idle endpoint read its sockets"
    );
    let ran = Duration::from_nanos(run_after - run_before);
    assert!(
        ran < Duration::from_millis(2),
        "idle backstop threads ran {ran:?} in 300 ms"
    );
}

/// (e) Dropping the peer leaves the survivor's backstop thread blocked:
/// it sees the hang-up once, stops watching those sockets and goes back
/// to its idle tick instead of spinning on `EPOLLRDHUP`.
#[test]
fn survivor_blocks_after_peer_drop() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (a, b) = pair();
    exchange(&a, &b);
    drop(b);
    std::thread::sleep(Duration::from_millis(50));
    let (run_before, wakes_before) = backstop_sched();
    std::thread::sleep(Duration::from_millis(300));
    let (run_after, wakes_after) = backstop_sched();
    assert!(
        wakes_after - wakes_before <= 8,
        "survivor's backstop thread woke {} times in 300 ms",
        wakes_after - wakes_before
    );
    // (Three idle ticks: 0.4 ms unoptimized on a quiet host; spinning on
    // the hang-up would be 300.)
    let ran = Duration::from_nanos(run_after - run_before);
    assert!(
        ran < Duration::from_millis(2),
        "survivor's backstop thread ran {ran:?} in 300 ms"
    );
    // Still alive and still honest: nothing arrives any more.
    assert!(a
        .recv(a.conns()[0])
        .wait(Duration::from_millis(10))
        .is_none());
}
