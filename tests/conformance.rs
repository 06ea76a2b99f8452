//! One conformance suite for every transport.
//!
//! The application-facing contract — `send`/`recv`, the handles' waits,
//! the stats an application reads back — is defined once, on
//! `core::Endpoint`, so it is checked once: each case below runs
//! unchanged on both rows of [`Transport`], the mem fabric and loopback
//! TCP under the one runtime. What only a transport does (readiness,
//! the shaped wire) is tested next to that transport.

use std::collections::VecDeque;
use std::time::Duration;

use newmadeleine::bytes::Bytes;
use newmadeleine::core::{
    Endpoint, EngineConfig, RecvHandle, SendHandle, StrategyKind, SubmitError,
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

/// Run `case` on a fresh connected pair of every kind, with `engine` as
/// configured by the case.
fn on_every_pair(engine: EngineConfig, case: impl Fn(Transport, Endpoint, Endpoint)) {
    on_every_pair_with_conns(1, engine, case);
}

/// [`on_every_pair`] with `conns` logical channels open on each pair.
fn on_every_pair_with_conns(
    conns: usize,
    engine: EngineConfig,
    case: impl Fn(Transport, Endpoint, Endpoint),
) {
    for transport in [Transport::Mem, Transport::Tcp] {
        let engine = engine.clone();
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
                tcp::pair_localhost(cfg).unwrap_or_else(|e| panic!("{transport:?}: {e}"))
            }
        };
        case(transport, a, b);
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
            // segment is the delivery. Over TCP the rails' readers put
            // each chunk where its head says it belongs in one
            // allocation for the segment (the landing table), so the
            // chunks re-join there too and nothing is gathered.
            let datapath = b.stats().datapath;
            assert_eq!(datapath.rx_copy_bytes, 0, "{on:?}");
            match on {
                Transport::Mem => assert_eq!(msg.segments[0].as_ptr(), sent_from, "{on:?}"),
                Transport::Tcp => {
                    assert!(
                        datapath.rx_zero_copy_bytes >= payload.len() as u64,
                        "{on:?}"
                    )
                }
            }
            let st = a.stats();
            assert!(st.rdv_handshakes >= 1, "{on:?}: must rendezvous");
            assert!(
                st.rails[0].payload_bytes > 0 && st.rails[1].payload_bytes > 0,
                "{on:?}: both rails must carry bytes: {:?}",
                st.rails
            );
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
        if on == Transport::Tcp {
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

/// `try_send` under the per-tenant quota: a quota of one message in
/// flight refuses the second submission, counts it and re-admits the
/// tenant once the first has completed.
#[test]
fn try_send_admission() {
    let mut quota = EngineConfig::with_strategy(StrategyKind::Greedy);
    quota.max_tenant_inflight = 1;
    on_every_pair(quota, |on, a, b| {
        let c = a.conns()[0];
        // The first message cannot complete before the second is
        // submitted: it is a rendezvous and no receive is posted yet.
        let payload = random(1 << 20, 57);
        let s1 = a.try_send(c, vec![Bytes::from(payload.clone())]).unwrap();
        let second = a.try_send(c, vec![Bytes::from_static(b"second")]);
        assert!(
            matches!(second, Err(SubmitError::WouldBlock)),
            "{on:?}: over quota must push back"
        );
        assert!(a.stats().overload.admission_rejections > 0, "{on:?}");
        let r1 = b.recv(c);
        assert!(s1.wait(T), "{on:?}");
        assert_eq!(r1.wait(T).unwrap().segments[0].as_ref(), payload.as_slice());
        // The quota's credit is back with the first send's completion.
        let s2 = a
            .try_send(c, vec![Bytes::from_static(b"second")])
            .unwrap_or_else(|e| panic!("{on:?}: not re-admitted: {e:?}"));
        let r2 = b.recv(c);
        assert!(s2.wait(T), "{on:?}");
        assert_eq!(&r2.wait(T).unwrap().segments[0][..], b"second", "{on:?}");
    });
}

/// Many application threads on one endpoint, each on its own channel,
/// each keeping a closed window of sends; a receiver thread per channel
/// keeps as many receives posted. Order and content per channel, no
/// errors, no pool leak — under mixed sizes (the eager track, alone and
/// aggregated with a window queued, and the rendezvous), and under the
/// shape the second runtime was kept for until it lost it too: 8 callers
/// x a window of 16 x 256 B (`mt8_256`, EXPERIMENTS.md PR 24).
#[test]
fn concurrent_callers_on_distinct_conns() {
    const MIXED: [usize; 9] = [64, 256, 4096, 16_384, 200, 49_152, 700, 65_536, 262_144];
    concurrent_callers(4, 200, 8, &MIXED);
    concurrent_callers(8, 1000, 16, &[256]);
}

fn concurrent_callers(callers: usize, messages: usize, window: usize, sizes: &[usize]) {
    let message =
        |caller: usize, i: usize| random(sizes[i % sizes.len()], (caller * messages + i) as u64);
    on_every_pair_with_conns(callers, EngineConfig::default(), |on, a, b| {
        std::thread::scope(|s| {
            for (caller, &c) in a.conns().iter().enumerate() {
                let (a, b) = (&a, &b);
                s.spawn(move || {
                    let mut inflight = VecDeque::new();
                    for i in 0..messages {
                        if inflight.len() == window {
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
                    // Keeps `window` receives posted; the last ones stay unmatched.
                    let mut posted: VecDeque<RecvHandle> = (0..window).map(|_| b.recv(c)).collect();
                    for i in 0..messages {
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
fn data_frames(on: Transport, e: &Endpoint) -> u64 {
    let st = e.stats();
    let packets = st.total_packets();
    if on == Transport::Tcp {
        assert_eq!(st.syscalls.tx_frames, packets, "{on:?}");
        assert!(st.syscalls.tx_calls <= packets, "{on:?}");
    }
    packets
}

/// The optimisation window on live rails (DESIGN.md §15 "The window").
/// A burst — a window of 32 messages of
/// 4 x 256 B kept full by a sender that never waits for an arrival on
/// its own endpoint — leaves as aggregates of a frame's worth; an echo,
/// where each end answers what it has just received, sends every message
/// at once, one frame each.
#[test]
fn burst_aggregates_and_echo_does_not() {
    const MESSAGES: usize = 2000;
    const WINDOW: usize = 32;
    on_every_pair(EngineConfig::default(), |on, a, b| {
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
    on_every_pair(EngineConfig::default(), |on, a, b| {
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
    on_every_pair(EngineConfig::default(), |on, a, b| {
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
/// timer fires, and the sends leave as they are submitted (two
/// aggregates would carry all of them otherwise).
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
            fired == 0 && frames >= BURST / 2
        });
        assert!(clean, "{on:?}: acked sends waited in the backlog");
    });
}
