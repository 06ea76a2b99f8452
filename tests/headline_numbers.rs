//! Integration tests asserting the paper's headline numbers end-to-end
//! through the public facade: §3.1 anchors, the §3.2 greedy plateau, and
//! the §3.4 splitting hierarchy.

use newmadeleine::core::{EngineConfig, StrategyKind};
use newmadeleine::model::platform;
use newmadeleine::runtime_sim::{run_pingpong, sample_platform, PingPongSpec};

fn one_way_us(kind: StrategyKind, platform: newmadeleine::model::Platform, size: usize) -> f64 {
    run_pingpong(&PingPongSpec::new(
        platform,
        EngineConfig::with_strategy(kind),
        size,
    ))
    .one_way
    .as_us_f64()
}

fn bandwidth(kind: StrategyKind, platform: newmadeleine::model::Platform, size: usize) -> f64 {
    run_pingpong(&PingPongSpec::new(
        platform,
        EngineConfig::with_strategy(kind),
        size,
    ))
    .bandwidth_mbs
}

#[test]
fn myri_latency_2_8us() {
    let t = one_way_us(
        StrategyKind::SingleRail(0),
        platform::single_rail_platform(platform::myri_10g()),
        4,
    );
    assert!(
        (t - 2.8).abs() < 0.5,
        "Myri-10G 4B one-way {t} us, paper: 2.8"
    );
}

#[test]
fn quadrics_latency_1_7us() {
    let t = one_way_us(
        StrategyKind::SingleRail(0),
        platform::single_rail_platform(platform::quadrics_qm500()),
        4,
    );
    assert!(
        (t - 1.7).abs() < 0.5,
        "Quadrics 4B one-way {t} us, paper: 1.7"
    );
}

#[test]
fn myri_bandwidth_1200() {
    let bw = bandwidth(
        StrategyKind::SingleRail(0),
        platform::single_rail_platform(platform::myri_10g()),
        8 << 20,
    );
    assert!(
        (bw - 1200.0).abs() < 50.0,
        "Myri 8MB {bw} MB/s, paper: ~1200"
    );
}

#[test]
fn quadrics_bandwidth_850() {
    let bw = bandwidth(
        StrategyKind::SingleRail(0),
        platform::single_rail_platform(platform::quadrics_qm500()),
        8 << 20,
    );
    assert!(
        (bw - 850.0).abs() < 40.0,
        "Quadrics 8MB {bw} MB/s, paper: ~850"
    );
}

#[test]
fn greedy_plateau_near_1675() {
    // Paper §3.2: greedy balancing of a 2-segment message reaches
    // 1675 MB/s — higher than either single rail.
    let spec = PingPongSpec::new(
        platform::paper_platform(),
        EngineConfig::with_strategy(StrategyKind::Greedy),
        8 << 20,
    )
    .with_segments(2);
    let bw = run_pingpong(&spec).bandwidth_mbs;
    assert!(
        (1600.0..1720.0).contains(&bw),
        "greedy 2-seg 8MB plateau {bw} MB/s, paper: 1675"
    );
    assert!(bw > 1250.0, "must beat the best single rail");
}

#[test]
fn splitting_hierarchy_at_8mb() {
    // Fig 7: hetero-split > iso-split > Myri alone > Quadrics alone.
    let p = platform::paper_platform();
    let tables = sample_platform(&p);

    let hetero = run_pingpong(
        &PingPongSpec::new(
            p.clone(),
            EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
            8 << 20,
        )
        .with_tables(tables),
    )
    .bandwidth_mbs;
    let iso = run_pingpong(&PingPongSpec::new(
        p.clone(),
        EngineConfig::with_strategy(StrategyKind::IsoSplit),
        8 << 20,
    ))
    .bandwidth_mbs;
    let myri = bandwidth(
        StrategyKind::SingleRail(0),
        platform::single_rail_platform(platform::myri_10g()),
        8 << 20,
    );
    let quad = bandwidth(
        StrategyKind::SingleRail(0),
        platform::single_rail_platform(platform::quadrics_qm500()),
        8 << 20,
    );
    assert!(
        hetero > iso && iso > myri && myri > quad,
        "hierarchy violated: hetero {hetero}, iso {iso}, myri {myri}, quad {quad}"
    );
    // Hetero-split is capped by the ~1950 MB/s bus, not the 2053 rail sum.
    assert!(
        hetero < 1960.0,
        "hetero-split {hetero} must respect the I/O bus ceiling"
    );
    // And it improves markedly over iso (the point of §3.4).
    assert!(
        hetero / iso > 1.05,
        "hetero ({hetero}) should beat iso ({iso}) by >5%"
    );
}

#[test]
fn aggregation_beats_separate_packets_for_4_segments() {
    // Fig 2a/3a: for small multi-segment messages, copying into one packet
    // wins; the copy overhead is "very low".
    let p = platform::single_rail_platform(platform::quadrics_qm500());
    let plain = run_pingpong(
        &PingPongSpec::new(
            p.clone(),
            EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
            4096,
        )
        .with_segments(4),
    );
    let agg = run_pingpong(
        &PingPongSpec::new(
            p.clone(),
            EngineConfig::with_strategy(StrategyKind::SingleRailAggregating(0)),
            4096,
        )
        .with_segments(4),
    );
    let single = run_pingpong(&PingPongSpec::new(
        p,
        EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
        4096,
    ));
    let (tp, ta, ts) = (
        plain.one_way.as_us_f64(),
        agg.one_way.as_us_f64(),
        single.one_way.as_us_f64(),
    );
    assert!(
        ta < tp,
        "aggregated 4-seg ({ta}) must beat plain 4-seg ({tp})"
    );
    // Aggregation brings the 4-segment message within 25% of a regular one.
    assert!(
        ta < ts * 1.25,
        "aggregated ({ta}) must approach the regular message ({ts})"
    );
    assert_eq!(agg.sender_stats.aggregates_built, 4); // one per round trip
}

#[test]
fn fig6_poll_gap_is_small_constant() {
    // §3.3: the multi-rail aggregating strategy pays a small constant
    // penalty vs Quadrics-only: the mandatory poll of the Myri-10G NIC.
    let quad_only = one_way_us(
        StrategyKind::SingleRailAggregating(0),
        platform::single_rail_platform(platform::quadrics_qm500()),
        64,
    );
    let multi = one_way_us(StrategyKind::AggregateEager, platform::paper_platform(), 64);
    let gap = multi - quad_only;
    assert!(gap > 0.0, "multi-rail must pay the poll cost ({gap})");
    assert!(gap < 0.8, "poll gap should be sub-microsecond, got {gap}");
}

#[test]
fn small_message_overtakes_large_one_in_time() {
    // Paper §4: segments "can be reordered so as to group small segments,
    // or even sent out-of-order". A small message submitted *after* a
    // 1 MiB one is delivered first: the large segment is still in its
    // rendezvous handshake / bulk transfer while the small one goes out
    // eagerly on the latency rail.
    use newmadeleine::bytes::Bytes;
    use newmadeleine::runtime_sim::{Script, SimWorld, Step};

    let sender = Script::new(vec![
        Step::Send(vec![Bytes::from(vec![1u8; 1 << 20])]),
        Step::Send(vec![Bytes::from(vec![2u8; 64])]),
    ]);
    let mut w = SimWorld::new(
        &platform::paper_platform(),
        EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        sender,
        Script::receiver(2),
    );
    w.run(1_000_000);
    let at = |big: bool| {
        let mut d = w.app1().deliveries().iter();
        d.find(|&&(n, _)| (n > 1000) == big).map(|&(_, t)| t)
    };
    let small = at(false).expect("small delivered");
    let big = at(true).expect("big delivered");
    assert!(
        small < big,
        "small ({small}) must overtake the earlier-submitted large ({big})"
    );
}
