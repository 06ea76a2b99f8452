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
    for (transport, runtime) in PAIRS {
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
            // segment is the delivery. Over TCP each chunk arrives in its
            // frame's allocation, and the segment is gathered — every
            // byte copied once — when it is whole.
            let copied = b.stats().datapath.rx_copy_bytes;
            match on.0 {
                Transport::Mem => {
                    assert_eq!(copied, 0, "{on:?}");
                    assert_eq!(msg.segments[0].as_ptr(), sent_from, "{on:?}");
                }
                Transport::Tcp => assert_eq!(copied, payload.len() as u64, "{on:?}"),
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
