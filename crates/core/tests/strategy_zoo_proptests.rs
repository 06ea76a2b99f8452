//! Zoo-wide strategy property tests: every [`StrategyKind`] is driven
//! over arbitrary backlogs — empty, a single eager segment, mixed sizes,
//! rendezvous grants arriving mid-run, rails flapping Up/Down — through a
//! faithful emulation of the engine's decision loop. Whatever the
//! strategy answers, the harness holds it to the engine's contract:
//!
//! * no panics;
//! * every op is *valid* (the exact checks `Engine::execute_op` turns
//!   into `InvalidStrategyOp`: eager/aggregate segments takeable,
//!   chunks takeable, planned chunks earmarked for the asking rail);
//! * byte conservation — each segment is consumed exactly once, in
//!   pieces summing to its size;
//! * full drain — once every grant has landed and flapping has settled,
//!   a bounded number of offers empties the backlog.
//!
//! Each rail reports an arbitrary in-flight load ([`RailFlight`]), often
//! aged past any predicted completion, and the fabric is either the
//! paper's or two identical rails: SRPT's re-striping and the
//! lowest-latency rail's load tie-break run under the same contract.

use nmad_core::obs::FlightRecorder;
use nmad_core::request::{Backlog, SegKey, SegPhase};
use nmad_core::sampling::{default_ladder, PerfTable};
use nmad_core::strategy::{KeyList, LatencyOrder, RailFlight, RailView, StrategyCtx, TxOp};
use nmad_core::{EngineConfig, StrategyKind};
use nmad_model::{platform, RailId};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct ItemSpec {
    size: u64,
    rdv: bool,
    /// Round (before the drain phase) at which a rendezvous grant lands.
    grant_round: usize,
}

fn arb_item() -> impl Strategy<Value = ItemSpec> {
    (
        prop_oneof![
            1u64..64,           // tiny (aggregation candidates)
            1024u64..8192,      // PIO-sized
            8192u64..32_768,    // eager DMA
            32_768u64..262_144, // rendezvous / splitting
        ],
        any::<bool>(),
        0usize..20,
    )
        .prop_map(|(size, rdv_roll, grant_round)| {
            // Mirror the engine's track selection: large goes rendezvous,
            // small goes eager; `rdv_roll` lets mediums go either way the
            // way a multi-segment message boundary would.
            let rdv = size >= 32_768 || (size >= 8192 && rdv_roll);
            ItemSpec {
                size,
                rdv,
                grant_round,
            }
        })
}

/// Rail-health mask per flap period; always at least one rail up.
fn arb_flaps() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(1u8..=3, 1..6)
}

/// One rail's in-flight view: up to two frames, the oldest posted in the
/// first millisecond (the clock starts anywhere in it, so that frame is
/// often older than the 200 µs straggler floor), and a service-time EWMA
/// small enough that such an age outlives it.
fn arb_flight() -> impl Strategy<Value = RailFlight> {
    (
        0u32..3,
        0u64..65_536,
        0u64..1_000_000,
        0u64..(8 << 20),
        0u64..5_000,
    )
        .prop_map(
            |(inflight, inflight_bytes, oldest_post_ns, sent_bytes, ewma_service_ns)| RailFlight {
                inflight,
                inflight_bytes,
                oldest_post_ns,
                sent_bytes,
                ewma_service_ns,
            },
        )
}

/// The rails as one round sets them: health, busy flags and loads.
struct Lanes<'a> {
    ok: &'a [bool],
    busy: &'a [bool],
    flight: &'a [RailFlight],
}

impl RailView for Lanes<'_> {
    fn ok(&self, rail: RailId) -> bool {
        self.ok[rail.0]
    }

    fn busy(&self, rail: RailId) -> bool {
        self.busy[rail.0]
    }

    fn flight(&self, rail: RailId) -> RailFlight {
        self.flight[rail.0]
    }
}

/// Emulate the engine's side of one decision, enforcing its validity
/// contract. Returns bytes consumed, credited per segment key.
fn apply_op(
    op: TxOp,
    rail: usize,
    backlog: &mut Backlog,
    mtu: u64,
    consumed: &mut HashMap<SegKey, u64>,
) -> Result<(), String> {
    match op {
        TxOp::Eager(key) => {
            let item = backlog.take_eager(key);
            prop_assert!(item.is_some(), "rail {rail}: eager segment not takeable");
            let item = item.unwrap();
            *consumed.entry(key).or_default() += item.size;
        }
        TxOp::Aggregate(keys) => {
            prop_assert!(!keys.is_empty(), "rail {rail}: empty aggregate");
            for key in keys {
                let item = backlog.take_eager(key);
                prop_assert!(
                    item.is_some(),
                    "rail {rail}: aggregate segment not takeable"
                );
                *consumed.entry(key).or_default() += item.unwrap().size;
            }
        }
        TxOp::Chunk { key, max_len } => {
            let tc = backlog.take_chunk(key, max_len.min(mtu));
            prop_assert!(tc.is_some(), "rail {rail}: chunk not takeable");
            let tc = tc.unwrap();
            prop_assert!(tc.len > 0, "rail {rail}: zero-length chunk");
            *consumed.entry(key).or_default() += tc.len;
        }
        TxOp::PlannedChunk => {
            let tc = backlog.take_planned(rail);
            prop_assert!(tc.is_some(), "rail {rail}: no planned chunk for rail");
            let tc = tc.unwrap();
            *consumed.entry(tc.key).or_default() += tc.len;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The zoo contract (see module docs), for every strategy, over
    /// arbitrary item mixes, grant timings, and rail flap schedules.
    #[test]
    fn every_strategy_honors_the_engine_contract(
        items in prop::collection::vec(arb_item(), 0..8),
        flaps in arb_flaps(),
        flap_period in 1usize..7,
        flight in prop::collection::vec(arb_flight(), 2),
        clock0 in 0u64..1_000_000,
        symmetric in any::<bool>(),
    ) {
        let rails = if symmetric {
            vec![platform::quadrics_qm500(); 2]
        } else {
            platform::paper_platform().rails
        };
        let tables: Vec<PerfTable> = rails
            .iter()
            .map(|n| PerfTable::from_analytic(n, &default_ladder()))
            .collect();
        let config = EngineConfig::default();
        let n_rails = rails.len();
        let latency = LatencyOrder::new(&rails);

        for kind in StrategyKind::zoo() {
            let mut strategy = kind.build();
            let mut batch = KeyList::new();
            let mut backlog = Backlog::new();
            let mut obs = FlightRecorder::disabled();
            let mut consumed: HashMap<SegKey, u64> = HashMap::new();

            for (i, it) in items.iter().enumerate() {
                let key = SegKey { conn: 0, msg_id: i as u64, seg_index: 0 };
                let phase = if it.rdv { SegPhase::RdvRequested } else { SegPhase::EagerReady };
                backlog.push(key, 1, it.size, phase);
            }

            // Flapping phase: grants land, rails go up and down. Then a
            // drain phase with everything granted and all rails up.
            let flap_rounds = 20;
            let mut rail_ok = vec![true; n_rails];
            let mut now_ns = clock0;
            for round in 0..flap_rounds + 400 {
                now_ns += 1_000;
                // Apply this round's health mask (drain phase: all up).
                let mask = if round < flap_rounds {
                    flaps[(round / flap_period) % flaps.len()]
                } else {
                    0b11
                };
                let new_ok: Vec<bool> = (0..n_rails).map(|r| mask & (1 << r) != 0).collect();
                // Emulate the engine's failover on Up -> Down transitions:
                // untaken planned chunks move to the survivors.
                let survivors: Vec<usize> =
                    (0..n_rails).filter(|&r| new_ok[r]).collect();
                for r in 0..n_rails {
                    if rail_ok[r] && !new_ok[r] && !survivors.is_empty() {
                        backlog.reassign_rail(r, &survivors);
                    }
                }
                rail_ok = new_ok;
                // Rendezvous grants arrive on their scheduled round.
                for (i, it) in items.iter().enumerate() {
                    if it.rdv && it.grant_round == round {
                        let key = SegKey { conn: 0, msg_id: i as u64, seg_index: 0 };
                        backlog.grant(key);
                    }
                }

                // Offer every healthy rail once, engine-style.
                let busy = vec![false; n_rails];
                let mut progressed = false;
                for r in 0..n_rails {
                    if !rail_ok[r] {
                        continue; // the engine never asks a down rail
                    }
                    let op = {
                        let view = Lanes { ok: &rail_ok, busy: &busy, flight: &flight };
                        let mut ctx = StrategyCtx {
                            backlog: &mut backlog,
                            rails: &rails,
                            view: &view,
                            tables: &tables,
                            latency: &latency,
                            batch: &mut batch,
                            config: &config,
                            obs: &mut obs,
                            now_ns,
                        };
                        strategy.next_tx(RailId(r), &mut ctx)
                    };
                    if let Some(op) = op {
                        progressed = true;
                        let mtu = rails[r].mtu as u64;
                        apply_op(op, r, &mut backlog, mtu, &mut consumed)?;
                    }
                }
                if round >= flap_rounds && backlog.is_empty() {
                    break;
                }
                if round >= flap_rounds && !progressed {
                    // Quiesced with work left: the drain assert below
                    // reports it with full context.
                    break;
                }
            }

            prop_assert!(
                backlog.is_empty(),
                "{}: backlog failed to drain ({} left)",
                kind.label(),
                backlog.len()
            );
            // Byte conservation: every segment consumed exactly once, in
            // pieces summing to its size.
            for (i, it) in items.iter().enumerate() {
                let key = SegKey { conn: 0, msg_id: i as u64, seg_index: 0 };
                prop_assert_eq!(
                    consumed.get(&key).copied().unwrap_or(0),
                    it.size,
                    "{}: segment {} byte conservation violated",
                    kind.label(),
                    i
                );
            }
        }
    }
}
