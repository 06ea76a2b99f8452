//! One conformance suite for every supported (transport, runtime) pair.
//!
//! The application-facing contract — `send`/`recv`, the handles' waits,
//! the stats an application reads back — is defined once, on
//! `core::Endpoint`, so it is checked once: each case below runs
//! unchanged on every row of [`PAIRS`]. What only one runtime does
//! (the serial runtime's backstop and lease, worker shards) is tested
//! next to that runtime.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use newmadeleine::bytes::Bytes;
use newmadeleine::core::{
    Endpoint, EngineConfig, OverloadStats, RecvHandle, Runtime, SendHandle, StrategyKind,
    SubmitError,
};
use newmadeleine::model::platform;
use newmadeleine::sim::Xoshiro256StarStar;
use newmadeleine::{transport_mem as mem, transport_tcp as tcp};

const T: Duration = Duration::from_secs(20);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Transport {
    Mem,
    Tcp,
}

/// Every runtime on every transport.
const PAIRS: [(Transport, Runtime); 4] = [
    (Transport::Mem, Runtime::Serial),
    (Transport::Mem, Runtime::Threads),
    (Transport::Tcp, Runtime::Serial),
    (Transport::Tcp, Runtime::Threads),
];

/// Run `case` on a fresh connected pair of every kind, with `engine` as
/// configured by the case plus the row's runtime.
fn on_every_pair(engine: EngineConfig, case: impl Fn((Transport, Runtime), Endpoint, Endpoint)) {
    on_every_pair_with_conns(1, engine, case);
}

/// [`on_every_pair`] with `conns` logical channels open on each pair.
fn on_every_pair_with_conns(
    conns: usize,
    engine: EngineConfig,
    case: impl Fn((Transport, Runtime), Endpoint, Endpoint),
) {
    on_pairs(&PAIRS, conns, engine, case);
}

/// [`on_every_pair`] for what is the serial runtime's alone: the pairs
/// on which callers drive progress.
fn on_serial_pairs(engine: EngineConfig, case: impl Fn((Transport, Runtime), Endpoint, Endpoint)) {
    let serial: Vec<_> = PAIRS
        .into_iter()
        .filter(|&(_, runtime)| runtime == Runtime::Serial)
        .collect();
    on_pairs(&serial, 1, engine, case);
}

fn on_pairs(
    pairs: &[(Transport, Runtime)],
    conns: usize,
    engine: EngineConfig,
    case: impl Fn((Transport, Runtime), Endpoint, Endpoint),
) {
    for &(transport, runtime) in pairs {
        let mut engine = engine.clone();
        engine.runtime = runtime;
        let plat = platform::paper_platform();
        let (a, b) = match transport {
            Transport::Mem => {
                let mut cfg = mem::FabricConfig::new(plat, engine);
                cfg.conns = conns;
                mem::pair(cfg)
            }
            Transport::Tcp => {
                let mut cfg = tcp::TcpConfig::new(plat, engine);
                cfg.conns = conns;
                tcp::pair_localhost(cfg)
                    .unwrap_or_else(|e| panic!("{transport:?} x {runtime:?}: {e}"))
            }
        };
        case((transport, runtime), a, b);
    }
}

fn random(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn small_message() {
    on_every_pair(
        EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        |on, a, b| {
            let c = a.conns()[0];
            let payload = random(512, 1);
            let r = b.recv(c);
            let s = a.send(c, vec![Bytes::from(payload.clone())]);
            assert!(s.wait(T), "{on:?}: send must complete");
            let msg = r.wait(T).unwrap_or_else(|| panic!("{on:?}: recv"));
            assert_eq!(msg.segments[0].as_ref(), payload.as_slice(), "{on:?}");
            assert_eq!(a.rx_errors() + b.rx_errors(), 0, "{on:?}");
            assert_eq!(a.io_errors() + b.io_errors(), 0, "{on:?}");
        },
    );
}

#[test]
fn large_message_striped_over_two_rails() {
    on_every_pair(
        EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        |on, a, b| {
            let c = a.conns()[0];
            let payload = random(3 << 20, 2);
            let r = b.recv(c);
            let segment = Bytes::from(payload.clone());
            let sent_from = segment.as_ptr();
            let s = a.send(c, vec![segment]);
            assert!(s.wait(T), "{on:?}");
            let msg = r.wait(T).unwrap_or_else(|| panic!("{on:?}: recv"));
            assert_eq!(msg.segments[0].as_ref(), payload.as_slice(), "{on:?}");
            // Reassembly is by reference. In memory every chunk is a
            // slice of the sender's segment: they re-join and that
            // segment is the delivery. Over TCP the serial runtime's
            // readers put each chunk where its head says it belongs in
            // one allocation for the segment (the landing table), so
            // the chunks re-join there too and nothing is gathered. On
            // `Threads` each rail is read by a thread of its own with no
            // table between them (it would be a lock on every frame of
            // a runtime built to share none): each chunk arrives in its
            // frame's allocation, and the segment is gathered — every
            // byte copied once — when it is whole.
            let datapath = b.stats().datapath;
            let (copied, payload_len) = (datapath.rx_copy_bytes, payload.len() as u64);
            match on {
                (Transport::Mem, _) => {
                    assert_eq!(copied, 0, "{on:?}");
                    assert_eq!(msg.segments[0].as_ptr(), sent_from, "{on:?}");
                }
                (Transport::Tcp, Runtime::Serial) => {
                    assert_eq!(copied, 0, "{on:?}");
                    assert!(datapath.rx_zero_copy_bytes >= payload_len, "{on:?}");
                }
                (Transport::Tcp, Runtime::Threads) => assert_eq!(copied, payload_len, "{on:?}"),
            }
            let st = a.stats();
            assert!(st.rdv_handshakes >= 1, "{on:?}: must rendezvous");
            assert!(
                st.rails[0].payload_bytes > 0 && st.rails[1].payload_bytes > 0,
                "{on:?}: both rails must carry bytes: {:?}",
                st.rails
            );
            if on.1 != Runtime::Serial {
                // The hub scheduler's short critical sections were measured.
                assert!(st.obs.lock_hold_ns.count() > 0, "{on:?}");
                assert!(st.obs.outbox_depth.count() > 0, "{on:?}");
            }
        },
    );
}

#[test]
fn bidirectional_traffic() {
    on_every_pair(
        EngineConfig::with_strategy(StrategyKind::Greedy),
        |on, a, b| {
            let c = a.conns()[0];
            let (pa, pb) = (random(100_000, 3), random(120_000, 4));
            let (ra, rb) = (a.recv(c), b.recv(c));
            let sa = a.send(c, vec![Bytes::from(pa.clone())]);
            let sb = b.send(c, vec![Bytes::from(pb.clone())]);
            assert!(sa.wait(T) && sb.wait(T), "{on:?}");
            assert_eq!(rb.wait(T).unwrap().segments[0].as_ref(), pa.as_slice());
            assert_eq!(ra.wait(T).unwrap().segments[0].as_ref(), pb.as_slice());
        },
    );
}

#[test]
fn many_pipelined_messages_in_order() {
    for kind in [StrategyKind::AggregateEager, StrategyKind::AdaptiveSplit] {
        on_every_pair(EngineConfig::with_strategy(kind), |on, a, b| {
            let c = a.conns()[0];
            let n = 50;
            let recvs: Vec<RecvHandle> = (0..n).map(|_| b.recv(c)).collect();
            let sends: Vec<SendHandle> = (0..n)
                .map(|i| a.send(c, vec![Bytes::from(random(32 + i * 13, i as u64))]))
                .collect();
            for s in &sends {
                assert!(s.wait(T), "{on:?}");
            }
            for (i, r) in recvs.into_iter().enumerate() {
                let msg = r.wait(T).unwrap_or_else(|| panic!("{on:?}: recv {i}"));
                assert_eq!(
                    msg.segments[0].as_ref(),
                    random(32 + i * 13, i as u64).as_slice(),
                    "{on:?}: message {i} out of order or corrupted"
                );
            }
        });
    }
}

#[test]
fn multi_segment_message() {
    let shapes: [(StrategyKind, &[usize]); 2] = [
        // Eager segments the aggregating strategy may batch (whether it
        // does depends on thread timing: that is the opportunistic part).
        (StrategyKind::AggregateEager, &[128, 128, 128, 128]),
        // Eager and rendezvous segments in one message.
        (StrategyKind::AdaptiveSplit, &[10, 50_000, 150_000]),
    ];
    for (kind, sizes) in shapes {
        on_every_pair(EngineConfig::with_strategy(kind), |on, a, b| {
            let c = a.conns()[0];
            let segs: Vec<Bytes> = (sizes.iter().zip(9..))
                .map(|(&n, seed)| Bytes::from(random(n, seed)))
                .collect();
            let r = b.recv(c);
            let s = a.send(c, segs.clone());
            assert!(s.wait(T), "{on:?}");
            assert_eq!(r.wait(T).unwrap().segments, segs, "{on:?}");
            assert!(a.stats().total_packets() >= 1, "{on:?}");
        });
    }
}

#[test]
fn acked_delivery() {
    let mut engine = EngineConfig::with_strategy(StrategyKind::Greedy);
    engine.acked = true;
    on_every_pair(engine, |on, a, b| {
        let c = a.conns()[0];
        let payload = random(200_000, 21);
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(payload.clone())]);
        assert!(s.wait_acked(T), "{on:?}: delivery must be confirmed");
        assert_eq!(r.wait(T).unwrap().segments[0].as_ref(), payload.as_slice());
        assert!(a.stats().acks_received >= 1, "{on:?}");
        assert!(!s.retransmit(), "{on:?}: nothing to resend once acked");
        if on.0 == Transport::Tcp {
            // TCP does not lose frames: the adaptive timers must not have
            // fired spuriously on a healthy fabric.
            assert_eq!(a.stats().retransmits, 0, "{on:?}");
        }
    });
}

/// `Duration::MAX` is the natural "wait forever": it must not overflow
/// the clock arithmetic of any of the three waits.
#[test]
fn unbounded_wait_returns_the_message() {
    let mut engine = EngineConfig::with_strategy(StrategyKind::Greedy);
    engine.acked = true;
    on_every_pair(engine, |on, a, b| {
        let c = a.conns()[0];
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from_static(b"no deadline")]);
        let msg = r
            .wait(Duration::MAX)
            .unwrap_or_else(|| panic!("{on:?}: recv"));
        assert_eq!(&msg.segments[0][..], b"no deadline", "{on:?}");
        assert!(s.wait(Duration::MAX), "{on:?}");
        assert!(s.wait_acked(Duration::MAX), "{on:?}");
    });
}

/// `try_send` under a per-tenant quota of one message in flight: the hub
/// runtime refuses the second submission and re-admits the tenant once
/// the first has drained; the serial runtime has no admission boundary
/// and admits everything, as `Endpoint::try_send` documents.
#[test]
fn try_send_admission() {
    let mut engine = EngineConfig::with_strategy(StrategyKind::Greedy);
    engine.overload.max_tenant_inflight = 1;
    on_every_pair(engine, |on, a, b| {
        let c = a.conns()[0];
        // The first message cannot complete before the second is
        // submitted: it is a rendezvous and no receive is posted yet.
        let payload = random(1 << 20, 57);
        let s1 = a.try_send(c, vec![Bytes::from(payload.clone())]).unwrap();
        let second = a.try_send(c, vec![Bytes::from_static(b"second")]);
        let r1 = b.recv(c);
        assert!(s1.wait(T), "{on:?}");
        assert_eq!(r1.wait(T).unwrap().segments[0].as_ref(), payload.as_slice());

        let s2 = if on.1 == Runtime::Serial {
            assert_eq!(a.overload_stats(), OverloadStats::default(), "{on:?}");
            second.unwrap_or_else(|e| panic!("{on:?}: serial always admits, got {e:?}"))
        } else {
            assert!(
                matches!(second, Err(SubmitError::WouldBlock)),
                "{on:?}: over quota must push back"
            );
            assert!(a.overload_stats().admission_rejections > 0, "{on:?}");
            // The quota's credit comes back on a scheduler pass after
            // the delivery.
            let deadline = Instant::now() + T;
            loop {
                match a.try_send(c, vec![Bytes::from_static(b"second")]) {
                    Ok(h) => break h,
                    Err(SubmitError::WouldBlock) => {
                        assert!(Instant::now() < deadline, "{on:?}: never re-admitted");
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => panic!("{on:?}: {e:?}"),
                }
            }
        };
        let r2 = b.recv(c);
        assert!(s2.wait(T), "{on:?}");
        assert_eq!(&r2.wait(T).unwrap().segments[0][..], b"second", "{on:?}");
    });
}

/// Many application threads on one endpoint, each on its own channel —
/// the shape the hub runtime exists for. Sizes cover the eager track
/// (alone and, with a window queued, aggregated) and the rendezvous.
#[test]
fn concurrent_callers_on_distinct_conns() {
    const CALLERS: usize = 4;
    const MESSAGES: usize = 200;
    const WINDOW: usize = 8;
    const SIZES: [usize; 9] = [64, 256, 4096, 16_384, 200, 49_152, 700, 65_536, 262_144];
    let message =
        |caller: usize, i: usize| random(SIZES[i % SIZES.len()], (caller * MESSAGES + i) as u64);
    on_every_pair_with_conns(CALLERS, EngineConfig::default(), |on, a, b| {
        std::thread::scope(|s| {
            for (caller, &c) in a.conns().iter().enumerate() {
                let (a, b) = (&a, &b);
                s.spawn(move || {
                    let mut inflight = VecDeque::new();
                    for i in 0..MESSAGES {
                        if inflight.len() == WINDOW {
                            let h: SendHandle = inflight.pop_front().unwrap();
                            assert!(h.wait(T), "{on:?}: caller {caller}");
                        }
                        inflight.push_back(a.send(c, vec![Bytes::from(message(caller, i))]));
                    }
                    for h in inflight {
                        assert!(h.wait(T), "{on:?}: caller {caller}");
                    }
                });
                s.spawn(move || {
                    // Keeps WINDOW receives posted; the last WINDOW stay unmatched.
                    let mut posted: VecDeque<RecvHandle> = (0..WINDOW).map(|_| b.recv(c)).collect();
                    for i in 0..MESSAGES {
                        let msg = posted.pop_front().unwrap().wait(T);
                        let msg = msg.unwrap_or_else(|| panic!("{on:?}: conn {caller} recv {i}"));
                        assert!(
                            msg.segments[0].as_ref() == message(caller, i).as_slice(),
                            "{on:?}: conn {caller} message {i} out of order or corrupted"
                        );
                        posted.push_back(b.recv(c));
                    }
                });
            }
        });
        assert_eq!(a.rx_errors() + b.rx_errors(), 0, "{on:?}");
        assert_eq!(a.io_errors() + b.io_errors(), 0, "{on:?}");
        assert_eq!(a.pool_leaks() + b.pool_leaks(), 0, "{on:?}");
    });
}

/// Data frames `e` put on the wire so far: by the engine's per-rail
/// count and, where bytes cross the kernel, by the transport's own count
/// of frames and of `write_vectored` calls (no control frame is sent in
/// the shapes that ask).
fn data_frames(on: (Transport, Runtime), e: &Endpoint) -> u64 {
    let st = e.stats();
    let packets = st.total_packets();
    if on.0 == Transport::Tcp {
        assert_eq!(st.syscalls.tx_frames, packets, "{on:?}");
        assert!(st.syscalls.tx_calls <= packets, "{on:?}");
    }
    packets
}

/// The optimisation window on live rails (DESIGN.md §15 "The window"),
/// where callers drive progress. A burst — a window of 32 messages of
/// 4 x 256 B kept full by a sender that never waits for an arrival on
/// its own endpoint — leaves as aggregates of a frame's worth; an echo,
/// where each end answers what it has just received, sends every message
/// at once, one frame each.
#[test]
fn burst_aggregates_and_echo_does_not() {
    const MESSAGES: usize = 2000;
    const WINDOW: usize = 32;
    on_serial_pairs(EngineConfig::default(), |on, a, b| {
        let c = a.conns()[0];
        let message = |i: usize| -> Vec<Bytes> {
            (0..4)
                .map(|seg| Bytes::from(random(256, (i * 4 + seg) as u64)))
                .collect()
        };
        let mut inflight: VecDeque<(RecvHandle, SendHandle)> = VecDeque::new();
        for i in 0..MESSAGES + WINDOW {
            if inflight.len() == WINDOW || i >= MESSAGES {
                let (r, s) = inflight.pop_front().unwrap();
                let got = r.wait(T).unwrap_or_else(|| panic!("{on:?}: recv"));
                assert_eq!(got.segments, message(i - WINDOW), "{on:?}");
                assert!(s.wait(T), "{on:?}");
            }
            if i < MESSAGES {
                inflight.push_back((b.recv(c), a.send(c, message(i))));
            }
        }
        let per_msg = data_frames(on, &a) as f64 / MESSAGES as f64;
        let writes = a.stats().syscalls.tx_calls as f64 / MESSAGES as f64;
        println!("{on:?}: burst frames_per_msg {per_msg:.4}, tx_calls_per_msg {writes:.4}");
        assert!(
            per_msg <= 0.25,
            "{on:?}: {per_msg} data frames per message: the burst did not aggregate"
        );
        assert_eq!(a.rx_errors() + b.rx_errors(), 0, "{on:?}");
    });
    on_serial_pairs(EngineConfig::default(), |on, a, b| {
        let c = a.conns()[0];
        const ROUNDS: u64 = 300;
        for i in 0..ROUNDS {
            let (ra, rb) = (a.recv(c), b.recv(c));
            let sa = a.send(c, vec![Bytes::from(random(64, i))]);
            let ping = rb.wait(T).unwrap_or_else(|| panic!("{on:?}: ping {i}"));
            let sb = b.send(c, ping.segments);
            let pong = ra.wait(T).unwrap_or_else(|| panic!("{on:?}: pong {i}"));
            assert_eq!(
                pong.segments[0].as_ref(),
                random(64, i).as_slice(),
                "{on:?}"
            );
            assert!(sa.wait(T) && sb.wait(T), "{on:?}");
        }
        assert_eq!(data_frames(on, &a), ROUNDS, "{on:?}: one frame per ping");
        assert_eq!(data_frames(on, &b), ROUNDS, "{on:?}: one frame per pong");
    });
}

/// Shutdown drains: a message submitted within the window of another —
/// still in the backlog when `send` returns — is sent when its endpoint
/// is dropped, not stranded.
#[test]
fn send_then_drop_delivers() {
    on_serial_pairs(EngineConfig::default(), |on, a, b| {
        let c = a.conns()[0];
        let recvs: Vec<RecvHandle> = (0..3).map(|_| b.recv(c)).collect();
        for i in 0..3 {
            a.send(c, vec![Bytes::from(random(200 + i, i as u64))]);
        }
        drop(a);
        for (i, r) in recvs.into_iter().enumerate() {
            let msg = r
                .wait(T)
                .unwrap_or_else(|| panic!("{on:?}: message {i} stranded"));
            assert_eq!(
                msg.segments[0].as_ref(),
                random(200 + i, i as u64).as_slice()
            );
        }
    });
}

/// Acked sends back to back: a send's retransmission timer and its
/// round-trip sample run from the submission, so none of them may sit
/// in the backlog waiting for company — with no lease held and the
/// window of a first small frame open, where unacked ones would. No
/// timer fires, and where callers drive progress the sends leave as they
/// are submitted (two aggregates would carry all of them otherwise).
/// Both are a matter of timing on a loaded machine — a send that finds
/// the backstop mid-pass joins the backlog, as ever, and a thread that
/// loses its CPU for a millisecond outlasts the shortest timeout — so
/// one burst in five has to show them, not each.
#[test]
fn acked_burst_is_not_held_back() {
    const BURST: u64 = 32;
    let engine = EngineConfig {
        acked: true,
        ..EngineConfig::default()
    };
    on_every_pair(engine, |on, a, b| {
        let c = a.conns()[0];
        let small = |seed: u64| vec![Bytes::from(random(256, seed))];
        let srtt = |e: &Endpoint| {
            let rails = 0..e.stats().rails.len();
            rails.filter_map(|r| e.rail_telemetry(r).srtt_ns).min()
        };
        for i in 0..BURST {
            let r = b.recv(c);
            let s = a.send(c, small(i));
            assert!(r.wait(T).is_some(), "{on:?}");
            assert!(s.wait_acked(T), "{on:?}");
        }
        let echo = srtt(&a);
        let clean = (1..=5).any(|attempt| {
            // (The lease of the last `wait_acked` runs out.)
            std::thread::sleep(Duration::from_millis(5));
            let before = a.stats();
            let recvs: Vec<RecvHandle> = (0..BURST).map(|_| b.recv(c)).collect();
            let sends: Vec<SendHandle> = (0..BURST)
                .map(|i| a.send(c, small(attempt * 100 + i)))
                .collect();
            let frames = a.stats().total_packets() - before.total_packets();
            for r in recvs {
                assert!(r.wait(T).is_some(), "{on:?}");
            }
            for s in &sends {
                assert!(s.wait_acked(T), "{on:?}");
            }
            let fired = a.stats().retransmits - before.retransmits;
            println!(
                "{on:?}: {frames} frames left with {BURST} sends, {fired} retransmissions, \
                 srtt echo {echo:?} burst {:?}",
                srtt(&a)
            );
            fired == 0 && (on.1 != Runtime::Serial || frames >= BURST / 2)
        });
        assert!(clean, "{on:?}: acked sends waited in the backlog");
    });
}
