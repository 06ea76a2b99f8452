//! Golden decision sequences: one seeded mixed schedule (eager, multi-
//! segment, medium, rendezvous/split; both directions at once, a bounded
//! number outstanding, compute gaps) through the simulator for every
//! strategy in the zoo. The hash covers what each engine decided, in
//! order — `(kind, rail, bytes)` of every `Decide*` event and of every
//! frame posted, control included — and the makespan is the virtual time
//! the run ended at. The values were taken at the commit before the
//! engine's per-message tables were rebuilt (PR 16) and pin "a change of
//! data structure does not change a decision".

use std::time::Duration;

use newmadeleine::bytes::Bytes;
use newmadeleine::core::obs::EventKind;
use newmadeleine::core::{Effect, EngineConfig, Fault, FaultPlan, StrategyKind};
use newmadeleine::model::platform;
use newmadeleine::runtime_sim::{Script, SimWorld, Step};
use newmadeleine::sim::rng::Xoshiro256StarStar;
use newmadeleine::sim::{SimDuration, SimTime};

const MESSAGES: usize = 60;
const OUTSTANDING: usize = 6;

/// Segment sizes of one node's messages, drawn from four shapes.
fn schedule(seed: u64) -> Vec<Vec<usize>> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..MESSAGES)
        .map(|_| match rng.range_u64(0, 10) {
            // Small multi-segment: the aggregation track.
            0..=3 => (0..rng.range_usize(1, 5))
                .map(|_| rng.range_usize(16, 2048))
                .collect(),
            // Medium single segment: eager DMA.
            4..=5 => vec![rng.range_usize(8 << 10, 24 << 10)],
            // Large single segment: rendezvous, split across rails.
            6..=8 => vec![rng.range_usize(64 << 10, 2 << 20)],
            // A small header in front of a large body.
            _ => vec![
                rng.range_usize(16, 256),
                rng.range_usize(40 << 10, 512 << 10),
            ],
        })
        .collect()
}

/// One node's application: every message of its schedule, at most
/// `OUTSTANDING` at a time, and every fifth one submitted after some
/// computation, so the backlog sees both trickles and bursts.
fn app(seed: u64) -> Script {
    let mut steps = Vec::new();
    for (i, sizes) in schedule(seed).into_iter().enumerate() {
        if i % 5 == 4 {
            steps.push(Step::Compute(SimDuration::from_us(20)));
        }
        let segments = sizes.iter().map(|&n| Bytes::from(vec![i as u8; n]));
        steps.push(Step::Send(segments.collect()));
    }
    Script::new(steps).recvs(MESSAGES).window(OUTSTANDING)
}

fn fnv1a(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Run the schedule; returns (decision hash, makespan in picoseconds,
/// messages received by both nodes, retransmissions by both nodes).
fn run(config: EngineConfig, faults: Option<FaultPlan>) -> (u64, u64, u64, u64) {
    let p = platform::paper_platform();
    let mut world = SimWorld::new(&p, config, app(0xA11CE), app(0xB0B));
    world.enable_recording(1 << 20);
    if let Some(plan) = faults {
        // An engine progress pass every 100 us, up to 400 ms.
        let (tick, until) = (SimDuration::from_us(100), SimTime::from_us(400_000));
        world.enable_faults(&plan, tick, until);
    }
    world.run(50_000_000);
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let (mut received, mut retransmits) = (0, 0);
    for node in 0..2 {
        let engine = &world.node(node).engine;
        assert_eq!(engine.recorder().dropped(), 0, "ring too small");
        for e in engine.recorder().iter() {
            let code = match e.kind {
                EventKind::DecideEager => 1,
                EventKind::DecideAggregate => 2,
                EventKind::DecideSplit => 3,
                EventKind::DecideChunk => 4,
                EventKind::TxPost => 5 + e.aux,
                _ => continue,
            };
            fnv1a(&mut hash, code);
            fnv1a(&mut hash, u64::from(e.rail));
            fnv1a(&mut hash, e.size);
        }
        received += engine.stats().msgs_received;
        retransmits += engine.stats().retransmits;
    }
    (hash, world.now().0, received, retransmits)
}

#[test]
fn every_strategy_decides_as_it_did_before_the_tables_were_rebuilt() {
    let golden: [(u64, u64); 10] = GOLDEN;
    let zoo = StrategyKind::zoo();
    assert_eq!(zoo.len(), golden.len());
    let mut got = Vec::new();
    for &kind in &zoo {
        let (hash, makespan, received, _) = run(EngineConfig::with_strategy(kind), None);
        assert_eq!(received, 2 * MESSAGES as u64, "{kind:?} lost messages");
        got.push((hash, makespan));
    }
    for ((kind, one), want) in zoo.iter().zip(&got).zip(&golden) {
        assert_eq!(one, want, "{kind:?}; all (hash, makespan ps): {got:#x?}");
    }
}

/// Acked mode under a rail outage: retransmission timers, blame, failover
/// and probes all run off the engine's per-message state, in id order.
/// (The fault plan's ticks run to `until`, so the makespan says nothing
/// here; the retransmission count stands in for it.)
#[test]
fn acked_outage_recovers_as_it_did_before_the_tables_were_rebuilt() {
    let mut config = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
    config.acked = true;
    let span = Duration::from_micros(400)..Duration::from_micros(30_000);
    let outage = Fault::during(0, span, Effect::Loss(1.0));
    let plan = FaultPlan::new(0, vec![outage]);
    let (hash, _, received, retransmits) = run(config, Some(plan));
    assert_eq!(received, 2 * MESSAGES as u64, "messages lost for good");
    assert_eq!((hash, retransmits), GOLDEN_ACKED_OUTAGE, "{hash:#x}");
}

/// `(decision hash, makespan in ps)` in `StrategyKind::zoo()` order.
const GOLDEN: [(u64, u64); 10] = [
    (0x0586_ed36_8bf0_57eb, 0x4_0213_dd7e),
    (0xd8e7_b29c_9b55_4b4b, 0x3_e468_1e26),
    (0x83b5_c974_a635_f4eb, 0x2_b3c3_ab73),
    (0x3a18_8c24_c011_f60e, 0x2_cd84_ddfd),
    (0x3e6e_16f2_bc17_d4f2, 0x2_70cc_4adf),
    (0x7471_2164_1c21_b970, 0x2_8cdf_9682),
    (0x7471_2164_1c21_b970, 0x2_8cdf_9682),
    (0x7864_a262_5f06_3c7f, 0x2_ec81_9095),
    (0xd815_71b5_8ec6_9409, 0x2_6fe3_e3fc),
    (0x3e6e_16f2_bc17_d4f2, 0x2_70cc_4adf),
];
/// `(decision hash, retransmissions)`. A retransmitted send's second
/// local completion frees no window slot (`Script`'s first-completion
/// rule), so the schedule is the one the application meant.
const GOLDEN_ACKED_OUTAGE: (u64, u64) = (0x7e0d_fc67_f082_762d, 39);
