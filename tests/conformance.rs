//! One conformance suite for every supported (transport, runtime) pair.
//!
//! The application-facing contract — `send`/`recv`, the handles' waits,
//! the stats an application reads back — is defined once, on
//! `core::Endpoint`, so it is checked once: each case below runs
//! unchanged on every row of [`PAIRS`]. What only one runtime does
//! (the serial TCP runtime's backstop and lease, the reactor's
//! backpressure, worker shards) is tested next to that runtime.

use std::io::ErrorKind;
use std::time::Duration;

use newmadeleine::bytes::Bytes;
use newmadeleine::core::{Endpoint, EngineConfig, RecvHandle, Runtime, SendHandle, StrategyKind};
use newmadeleine::model::platform;
use newmadeleine::sim::Xoshiro256StarStar;
use newmadeleine::{transport_mem as mem, transport_tcp as tcp};

const T: Duration = Duration::from_secs(20);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Transport {
    Mem,
    Tcp,
}

/// Every pair that exists. (mem × `Reactor` does not: `mem::pair`
/// refuses it, see `reactor_runtime_is_refused` there.)
const PAIRS: [(Transport, Runtime); 5] = [
    (Transport::Mem, Runtime::Serial),
    (Transport::Mem, Runtime::Threads),
    (Transport::Tcp, Runtime::Serial),
    (Transport::Tcp, Runtime::Threads),
    (Transport::Tcp, Runtime::Reactor),
];

/// Run `case` on a fresh connected pair of every supported kind, with
/// `engine` as configured by the case plus the row's runtime.
fn on_every_pair(engine: EngineConfig, case: impl Fn((Transport, Runtime), Endpoint, Endpoint)) {
    for (transport, runtime) in PAIRS {
        let mut engine = engine.clone();
        engine.runtime = runtime;
        let plat = platform::paper_platform();
        let (a, b) = match transport {
            Transport::Mem => mem::pair(mem::FabricConfig::new(plat, engine)),
            Transport::Tcp => match tcp::pair_localhost(tcp::TcpConfig::new(plat, engine)) {
                Ok(pair) => pair,
                // No epoll on this target: the reactor does not exist here.
                Err(e) if e.kind() == ErrorKind::Unsupported && runtime == Runtime::Reactor => {
                    continue
                }
                Err(e) => panic!("{transport:?} x {runtime:?}: {e}"),
            },
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
            let s = a.send(c, vec![Bytes::from(payload.clone())]);
            assert!(s.wait(T), "{on:?}");
            let msg = r.wait(T).unwrap_or_else(|| panic!("{on:?}: recv"));
            assert_eq!(msg.segments[0].as_ref(), payload.as_slice(), "{on:?}");
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
