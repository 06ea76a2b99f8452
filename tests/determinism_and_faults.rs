//! Determinism of the simulated platform and fault handling of the
//! threaded transport.

use std::time::Duration;

use newmadeleine::bytes::Bytes;
use newmadeleine::core::{Effect, EngineConfig, FaultPlan, StrategyKind};
use newmadeleine::model::platform;
use newmadeleine::runtime_sim::{run_pingpong, sample_platform, PingPongSpec};
use newmadeleine::transport_mem::{pair, FabricConfig};

#[test]
fn simulation_is_bit_reproducible() {
    let run = || {
        let spec = PingPongSpec::new(
            platform::paper_platform(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
            777_777,
        )
        .with_segments(3);
        let r = run_pingpong(&spec);
        (r.rtts.clone(), r.events)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical specs must produce identical event streams");
}

#[test]
fn sampling_is_reproducible() {
    let p = platform::paper_platform();
    let t1 = sample_platform(&p);
    let t2 = sample_platform(&p);
    for (a, b) in t1.iter().zip(&t2) {
        for &s in a.sizes() {
            assert_eq!(a.time_for(s).to_bits(), b.time_for(s).to_bits());
        }
    }
}

#[test]
fn corrupted_wire_is_rejected_loudly() {
    let mut cfg = FabricConfig::new(
        platform::paper_platform(),
        EngineConfig::with_strategy(StrategyKind::Greedy),
    );
    cfg.faults = Some(FaultPlan::everywhere(123, 2, &[Effect::Corrupt(1.0)]));
    let (a, b) = pair(cfg);
    let c = a.conns()[0];
    let r = b.recv(c);
    a.send(c, vec![Bytes::from(vec![9u8; 2048])]);
    assert!(r.wait(Duration::from_millis(400)).is_none());
    assert!(b.rx_errors() > 0, "corruption must be detected and counted");
}

#[test]
fn partial_corruption_still_delivers_clean_messages() {
    // 30% corruption: some messages die, but clean ones must still flow
    // and never be delivered with wrong bytes.
    let mut cfg = FabricConfig::new(
        platform::paper_platform(),
        EngineConfig::with_strategy(StrategyKind::SingleRail(1)),
    );
    cfg.faults = Some(FaultPlan::everywhere(5, 2, &[Effect::Corrupt(0.3)]));
    let (a, b) = pair(cfg);
    let c = a.conns()[0];
    let n = 40;
    let recvs: Vec<_> = (0..n).map(|_| b.recv(c)).collect();
    for i in 0..n {
        a.send(c, vec![Bytes::from(vec![i as u8; 64])]);
    }
    let mut delivered = 0;
    for (i, r) in recvs.into_iter().enumerate() {
        if let Some(msg) = r.wait(Duration::from_millis(200)) {
            assert_eq!(msg.segments[0].as_ref(), vec![i as u8; 64].as_slice());
            delivered += 1;
        } else {
            // In-order matching: once a message is lost, later recvs on the
            // same connection cannot match. Stop checking.
            break;
        }
    }
    let errors = b.rx_errors();
    assert!(
        delivered > 0 || errors > 0,
        "either something arrived clean or errors were counted"
    );
    assert!(errors > 0, "with 30% corruption some packets must fail CRC");
}
