//! The backstop thread blocks on readiness: it costs
//! nothing while nothing happens, next to nothing while callers drive
//! progress themselves, and does not spin on a dead peer.
//!
//! These read per-thread scheduler accounting for every thread named
//! `nmad-tcp` in the process, so they live in a test binary of their
//! own (no other test's endpoints alive) and take turns.

#![cfg(target_os = "linux")]

use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nmad_core::endpoint::CALLER_LEASE;
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

/// A pair whose callers poll does not run its backstops. Every `write`
/// makes the peer's socket readable, but the peer is held — by a caller
/// making passes or by the lease of one that has just left — and its
/// backstop sleeps on its eventfd alone until the lease is over: what
/// is left to the two threads is to look, once per lease, whether that
/// is still so. Over 300 ms of echo round trips they are scheduled
/// 520–550 times and run for 6 ms; woken out of `epoll_wait` by every
/// arrival only to decline it, 2,900–3,800 times and for 80–100 ms
/// (unoptimized). The count is the steady reading of the two. The time
/// is mostly the kernel's, 11 µs a wake-up on a quiet host and up to 40
/// in the middle of a test run on a shared one (7–25 ms), so the budget
/// is a tenth of the window, and a window over it is measured again,
/// twice at most.
#[test]
fn polled_pair_leaves_its_backstops_asleep() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (a, b) = pair();
    exchange(&a, &b);
    let mut busy = Vec::new();
    for _ in 0..3 {
        let ((run, wakes), t0, mut rounds) = (backstop_sched(), Instant::now(), 0u32);
        while t0.elapsed() < Duration::from_millis(300) {
            exchange(&a, &b);
            exchange(&b, &a);
            rounds += 1;
        }
        let (took, after) = (t0.elapsed(), backstop_sched());
        let (ran, woke) = (Duration::from_nanos(after.0 - run), after.1 - wakes);
        assert!(rounds > 500, "only {rounds} round trips in {took:?}");
        // One look per lease and thread, and half as many again.
        let looks = 2 * (took.as_nanos() / CALLER_LEASE.as_nanos()) as u64;
        assert!(
            woke < looks * 3 / 2,
            "backstop threads woke {woke} times in {took:?} under {rounds} polled round trips"
        );
        if ran < took / 10 {
            return;
        }
        busy.push(ran);
    }
    panic!("backstop threads ran {busy:?} in three windows of 300 ms of polled round trips");
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
