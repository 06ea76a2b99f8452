//! Soak tests: sustained mixed traffic through every harness, checking
//! integrity, ordering, accounting and quiescence over hundreds of
//! messages.

use std::time::Duration;

use newmadeleine::bytes::Bytes;
use newmadeleine::core::{EngineConfig, StrategyKind};
use newmadeleine::model::platform;
use newmadeleine::sim::Xoshiro256StarStar;
use newmadeleine::transport_mem::{pair, FabricConfig};

fn mixed_payload(i: usize, rng: &mut Xoshiro256StarStar) -> Vec<u8> {
    let len = match i % 5 {
        0 => rng.range_usize(1, 64),
        1 => rng.range_usize(64, 4 << 10),
        2 => rng.range_usize(4 << 10, 32 << 10),
        3 => rng.range_usize(32 << 10, 128 << 10),
        _ => rng.range_usize(128 << 10, 512 << 10),
    };
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn two_hundred_mixed_messages_on_the_mem_fabric() {
    let mut cfg = FabricConfig::new(
        platform::paper_platform(),
        EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
    );
    // A shaped wire (~17 MB at a quarter of the modelled rate: tens of
    // ms): the rails are busy while the sends queue, so small messages
    // meet in the backlog because of the wire, not because of how two
    // threads happened to interleave (unshaped, 1 run in 15 aggregated
    // nothing).
    cfg.time_scale = 4.0;
    let (a, b) = pair(cfg);
    let c = a.conns()[0];
    let n = 200;
    let t = Duration::from_secs(60);

    let mut gen = Xoshiro256StarStar::new(4242);
    let payloads: Vec<Vec<u8>> = (0..n).map(|i| mixed_payload(i, &mut gen)).collect();

    let recvs: Vec<_> = (0..n).map(|_| b.recv(c)).collect();
    let sends: Vec<_> = payloads
        .iter()
        .map(|p| a.send(c, vec![Bytes::from(p.clone())]))
        .collect();

    for (i, s) in sends.iter().enumerate() {
        assert!(s.wait(t), "send {i} timed out");
    }
    let mut total = 0usize;
    for (i, r) in recvs.into_iter().enumerate() {
        let msg = r.wait(t).unwrap_or_else(|| panic!("recv {i} timed out"));
        assert_eq!(
            msg.segments[0].as_ref(),
            payloads[i].as_slice(),
            "message {i} corrupted"
        );
        total += payloads[i].len();
    }

    let st = a.stats();
    assert_eq!(st.msgs_sent, n as u64);
    assert_eq!(st.total_payload_bytes(), total as u64);
    assert_eq!(b.rx_errors(), 0);
    // A mixed soak must have exercised every mechanism.
    assert!(st.aggregates_built > 0, "smalls must have aggregated");
    assert!(st.rdv_handshakes > 0, "larges must have rendezvoused");
    assert!(
        st.rails[0].payload_bytes > 0 && st.rails[1].payload_bytes > 0,
        "both rails must carry traffic"
    );
}

#[test]
fn soak_simulated_pingpong_stays_deterministic_under_load() {
    use newmadeleine::runtime_sim::{run_pingpong, PingPongSpec};
    // 50 timed iterations of a mixed-segment ping-pong: all RTTs after
    // warmup must be identical (no state leaks between iterations).
    let spec = PingPongSpec {
        warmup: 2,
        iters: 50,
        ..PingPongSpec::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
            96 << 10,
        )
    }
    .with_segments(3);
    let r = run_pingpong(&spec);
    let timed = &r.rtts[2..];
    assert!(
        timed.windows(2).all(|w| w[0] == w[1]),
        "iterations drifted: {:?}",
        &r.rtts[..6]
    );
}

#[test]
fn soak_many_small_connections() {
    // 16 logical channels, 8 messages each, interleaved submits.
    let mut cfg = FabricConfig::new(
        platform::paper_platform(),
        EngineConfig::with_strategy(StrategyKind::AggregateEager),
    );
    cfg.conns = 16;
    let (a, b) = pair(cfg);
    let t = Duration::from_secs(30);
    let mut handles = Vec::new();
    for round in 0..8u8 {
        for (ci, &conn) in a.conns().to_vec().iter().enumerate() {
            let payload = vec![round ^ ci as u8; 100 + ci * 13];
            let r = b.recv(conn);
            a.send(conn, vec![Bytes::from(payload.clone())]);
            handles.push((r, payload));
        }
    }
    for (i, (r, want)) in handles.into_iter().enumerate() {
        let msg = r.wait(t).unwrap_or_else(|| panic!("recv {i}"));
        assert_eq!(msg.segments[0].as_ref(), want.as_slice(), "slot {i}");
    }
}
