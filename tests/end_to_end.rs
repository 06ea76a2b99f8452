//! Cross-crate end-to-end tests through the facade: the same engine code
//! on the simulator, on real threads, over loopback TCP and under the
//! mini-MPI layer.

use std::time::{Duration, Instant};

use newmadeleine::bytes::Bytes;
use newmadeleine::core::{Endpoint, EngineConfig, StrategyKind};
use newmadeleine::model::platform;
use newmadeleine::mpi::{world, WorldConfig, COMM_WORLD};
use newmadeleine::sim::Xoshiro256StarStar;
use newmadeleine::transport_mem::{pair, FabricConfig};
use newmadeleine::transport_tcp::{pair_localhost, TcpConfig};

const T: Duration = Duration::from_secs(20);

fn random(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn every_strategy_delivers_on_threads() {
    for kind in [
        StrategyKind::SingleRail(0),
        StrategyKind::SingleRail(1),
        StrategyKind::SingleRailAggregating(0),
        StrategyKind::Greedy,
        StrategyKind::AggregateEager,
        StrategyKind::IsoSplit,
        StrategyKind::AdaptiveSplit,
    ] {
        let (a, b) = pair(FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(kind),
        ));
        let c = a.conns()[0];
        for (i, size) in [1usize, 100, 10_000, 300_000].into_iter().enumerate() {
            let payload = random(size, i as u64);
            let r = b.recv(c);
            let s = a.send(c, vec![Bytes::from(payload.clone())]);
            assert!(s.wait(T), "{}: send {size}B", kind.label());
            let msg = r
                .wait(T)
                .unwrap_or_else(|| panic!("{}: recv {size}B", kind.label()));
            assert_eq!(
                msg.segments[0].as_ref(),
                payload.as_slice(),
                "{}: payload integrity at {size}B",
                kind.label()
            );
        }
    }
}

#[test]
fn multi_segment_messages_survive_every_strategy() {
    for kind in [
        StrategyKind::Greedy,
        StrategyKind::AggregateEager,
        StrategyKind::AdaptiveSplit,
    ] {
        let (a, b) = pair(FabricConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(kind),
        ));
        let c = a.conns()[0];
        // Mixed segment sizes: tiny + medium + rendezvous-sized.
        let segs: Vec<Bytes> = vec![
            Bytes::from(random(10, 1)),
            Bytes::from(random(20_000, 2)),
            Bytes::from(random(200_000, 3)),
            Bytes::from(random(500, 4)),
        ];
        let r = b.recv(c);
        let s = a.send(c, segs.clone());
        assert!(s.wait(T), "{}", kind.label());
        let msg = r.wait(T).expect("recv");
        assert_eq!(msg.segments, segs, "{}", kind.label());
    }
}

/// A 3 MiB message striped over three rails, on the mem fabric and over
/// TCP: delivered byte for byte, and rail `r` at one end is rail `r` at
/// the other. Once both ends are quiescent, the wire bytes each end sent
/// on a rail are the wire bytes the other received on it, rail by rail
/// and both ways. TCP pairs its sockets by the order of the listeners'
/// addresses, so this holds there only while that order is kept.
#[test]
fn three_rail_platform_end_to_end() {
    let cfg = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
    let tcp_cfg = TcpConfig::new(platform::three_rail_platform(), cfg.clone());
    let pairs = [
        (
            "mem",
            pair(FabricConfig::new(platform::three_rail_platform(), cfg)),
        ),
        ("tcp", pair_localhost(tcp_cfg).expect("localhost pair")),
    ];
    for (fabric, (a, b)) in pairs {
        let c = a.conns()[0];
        let payload = random(3 << 20, 99);
        let r = b.recv(c);
        let s = a.send(c, vec![Bytes::from(payload.clone())]);
        assert!(s.wait(T), "{fabric}");
        let got = r.wait(T).expect("delivered");
        assert_eq!(got.segments.len(), 1, "{fabric}");
        assert!(got.segments[0] == payload, "{fabric}: delivery differs");
        let st = a.stats();
        let used = st.rails.iter().filter(|r| r.payload_bytes > 0).count();
        assert!(
            used >= 2,
            "{fabric}: 3-rail split should use several rails: {:?}",
            st.rails
        );
        // (Sent, received) wire bytes per rail, one way: equal pairs once
        // nothing is in flight any more, however long the acks take.
        let one_way = |from: &Endpoint, to: &Endpoint| -> Vec<(u64, u64)> {
            let (from, to) = (from.stats(), to.stats());
            from.rails
                .iter()
                .zip(&to.rails)
                .map(|(f, t)| (f.wire_bytes, t.rx_wire_bytes))
                .collect()
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        let (ab, ba) = loop {
            let (ab, ba) = (one_way(&a, &b), one_way(&b, &a));
            let quiescent = ab.iter().chain(&ba).all(|(sent, got)| sent == got);
            if quiescent || Instant::now() > deadline {
                break (ab, ba);
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(ab.len(), 3, "{fabric}");
        for (dir, pairs) in [("a -> b", &ab), ("b -> a", &ba)] {
            for (rail, (sent, got)) in pairs.iter().enumerate() {
                assert_eq!(
                    sent, got,
                    "{fabric} {dir} rail {rail}: wire bytes sent vs received {pairs:?}"
                );
            }
        }
    }
}

#[test]
fn mpi_pingpong_over_multirail() {
    let ranks = world(
        2,
        WorldConfig::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        ),
    );
    std::thread::scope(|s| {
        for r in &ranks {
            s.spawn(move || {
                let peer = 1 - r.rank;
                let data = random(1 << 20, r.rank as u64);
                let got = r.sendrecv(peer, COMM_WORLD, 3, &data);
                assert_eq!(got, random(1 << 20, peer as u64));
            });
        }
    });
}
