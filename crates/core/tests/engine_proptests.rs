//! Property-based tests driving the full engine pair with arbitrary
//! message patterns: whatever the strategy does (aggregate, split,
//! reorder across rails), every message must arrive intact, in order,
//! and the engines must quiesce.

use bytes::Bytes;
use nmad_core::engine::Engine;
use nmad_core::{EngineConfig, StrategyKind};
use nmad_model::{platform, RailId};
use nmad_sim::Xoshiro256StarStar;
use nmad_wire::PacketFrame;
use proptest::prelude::*;

fn engines(kind: StrategyKind, acked: bool) -> (Engine, Engine) {
    let mut cfg = EngineConfig::with_strategy(kind);
    cfg.acked = acked;
    let mk =
        |cfg: &EngineConfig| Engine::new(cfg.clone(), platform::paper_platform().rails, vec![]);
    (mk(&cfg), mk(&cfg))
}

/// Drive both engines until neither makes progress. Returns rounds used.
fn pump(a: &mut Engine, b: &mut Engine) -> usize {
    for round in 0..100_000 {
        let mut progressed = false;
        for dir in 0..2 {
            let (tx, rx) = if dir == 0 {
                (&mut *a, &mut *b)
            } else {
                (&mut *b, &mut *a)
            };
            for r in 0..2 {
                let rail = RailId(r);
                if let Some(d) = tx.next_tx(rail).expect("next_tx") {
                    progressed = true;
                    tx.on_tx_done(rail, d.token).expect("tx_done");
                    rx.on_frame(rail, &d.frame).expect("on_frame");
                }
            }
        }
        if !progressed {
            return round;
        }
    }
    panic!("engines did not quiesce");
}

#[derive(Debug, Clone)]
struct MsgSpec {
    seg_sizes: Vec<usize>,
    seed: u64,
}

fn arb_msg() -> impl Strategy<Value = MsgSpec> {
    (
        prop::collection::vec(
            prop_oneof![
                0usize..64,           // tiny (aggregation candidates)
                1024usize..8192,      // PIO-sized
                8192usize..32_768,    // eager DMA
                32_768usize..300_000, // rendezvous / splitting
            ],
            1..5,
        ),
        any::<u64>(),
    )
        .prop_map(|(seg_sizes, seed)| MsgSpec { seg_sizes, seed })
}

fn payloads(spec: &MsgSpec) -> Vec<Bytes> {
    let mut rng = Xoshiro256StarStar::new(spec.seed);
    spec.seg_sizes
        .iter()
        .map(|&len| {
            let mut v = vec![0u8; len];
            rng.fill_bytes(&mut v);
            Bytes::from(v)
        })
        .collect()
}

fn strategy_from(idx: u8) -> StrategyKind {
    let zoo = StrategyKind::zoo();
    zoo[idx as usize % zoo.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any batch of messages, any strategy: all delivered intact and in
    /// order, engines quiesce, byte accounting is exact.
    #[test]
    fn delivery_is_exact(msgs in prop::collection::vec(arb_msg(), 1..8), strat in any::<u8>(), acked in any::<bool>()) {
        let kind = strategy_from(strat);
        let (mut tx, mut rx) = engines(kind, acked);
        let conn = tx.conn_open();
        rx.conn_open();

        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for m in &msgs {
            recvs.push(rx.post_recv(conn));
            sends.push(tx.submit_send(conn, payloads(m)));
        }
        pump(&mut tx, &mut rx);

        for (i, (send, recv)) in sends.iter().zip(&recvs).enumerate() {
            prop_assert!(tx.send_complete(*send), "{}: send {i} incomplete", kind.label());
            if acked {
                prop_assert!(tx.send_acked(*send), "{}: send {i} unacked", kind.label());
            }
            let got = rx.try_recv(*recv).expect("recv result");
            let want = payloads(&msgs[i]);
            prop_assert_eq!(&got.segments, &want, "{}: message {} corrupted", kind.label(), i);
        }
        prop_assert!(tx.is_quiescent(), "{}: sender not quiescent", kind.label());

        // Byte conservation: payload bytes sent == sum of message sizes
        // (control packets and container headers excluded by definition).
        let total: u64 = msgs
            .iter()
            .map(|m| m.seg_sizes.iter().map(|&s| s as u64).sum::<u64>())
            .sum();
        prop_assert_eq!(tx.stats().total_payload_bytes(), total);
    }

    /// Submission before any recv is posted ("unexpected messages") must
    /// deliver identically once recvs appear.
    #[test]
    fn unexpected_messages_match_later_recvs(msgs in prop::collection::vec(arb_msg(), 1..5), strat in any::<u8>()) {
        let kind = strategy_from(strat);
        let (mut tx, mut rx) = engines(kind, false);
        let conn = tx.conn_open();
        rx.conn_open();

        for m in &msgs {
            tx.submit_send(conn, payloads(m));
        }
        pump(&mut tx, &mut rx);
        // Eager traffic arrived before any recv was posted; rendezvous
        // segments are flow-controlled and only move once the matching
        // recv exists — hence the extra pump after each post.
        for (i, m) in msgs.iter().enumerate() {
            let recv = rx.post_recv(conn);
            pump(&mut tx, &mut rx);
            let got = rx.try_recv(recv).expect("unexpected queue must match");
            prop_assert_eq!(&got.segments, &payloads(m), "message {} mismatched", i);
        }
    }

    /// Interleaving two connections never mixes their payloads, whatever
    /// aggregation does across channels.
    #[test]
    fn connections_never_cross(msgs in prop::collection::vec((arb_msg(), any::<bool>()), 2..10)) {
        let (mut tx, mut rx) = engines(StrategyKind::AdaptiveSplit, false);
        let c0 = tx.conn_open();
        let c1 = tx.conn_open();
        rx.conn_open();
        rx.conn_open();

        let mut expected: Vec<(u32, Vec<Bytes>, nmad_core::RecvId)> = Vec::new();
        for (m, which) in &msgs {
            let conn = if *which { c1 } else { c0 };
            let recv = rx.post_recv(conn);
            tx.submit_send(conn, payloads(m));
            expected.push((conn, payloads(m), recv));
        }
        pump(&mut tx, &mut rx);
        for (conn, want, recv) in expected {
            let got = rx.try_recv(recv).expect("delivered");
            prop_assert_eq!(&got.segments, &want, "conn {} payload crossed", conn);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Reliability under arbitrary loss: drive the pair with a random
    /// drop pattern; the retry loop must converge to exactly-once
    /// delivery with intact payloads.
    #[test]
    fn retransmission_converges_under_random_loss(
        msgs in prop::collection::vec(arb_msg(), 1..4),
        drop_seed in any::<u64>(),
        drop_prob_pct in 0u8..60,
    ) {
        let (mut tx, mut rx) = engines(StrategyKind::AggregateEager, true);
        let conn = tx.conn_open();
        rx.conn_open();
        let mut rng = nmad_sim::Xoshiro256StarStar::new(drop_seed);
        let drop_prob = f64::from(drop_prob_pct) / 100.0;

        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for m in &msgs {
            recvs.push(rx.post_recv(conn));
            sends.push(tx.submit_send(conn, payloads(m)));
        }

        // Lossy pump with periodic retransmission. Acks and grants are
        // droppable too — the protocol must survive any of it.
        let mut converged = false;
        'attempts: for _round in 0..200 {
            for _ in 0..2_000 {
                let mut progressed = false;
                for dir in 0..2 {
                    let (a, b) = if dir == 0 {
                        (&mut tx, &mut rx)
                    } else {
                        (&mut rx, &mut tx)
                    };
                    for r in 0..2 {
                        let rail = nmad_model::RailId(r);
                        if let Some(d) = a.next_tx(rail).expect("next_tx") {
                            progressed = true;
                            a.on_tx_done(rail, d.token).expect("tx_done");
                            if !rng.chance(drop_prob) {
                                b.on_frame(rail, &d.frame).expect("on_frame");
                            }
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
            if sends.iter().all(|&s| tx.send_acked(s)) {
                converged = true;
                break 'attempts;
            }
            for &s in &sends {
                tx.retransmit(s);
            }
        }
        prop_assert!(converged, "retry loop failed to converge");
        for (i, (m, recv)) in msgs.iter().zip(&recvs).enumerate() {
            let got = rx.try_recv(*recv).expect("delivered");
            prop_assert_eq!(&got.segments, &payloads(m), "message {} corrupted", i);
        }
        prop_assert_eq!(
            rx.stats().msgs_received,
            msgs.len() as u64,
            "exactly-once delivery violated"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full fault model, no manual retries: packets are dropped,
    /// duplicated, and reordered at random while a synthetic clock drives
    /// `Engine::progress`. The adaptive retransmission and rail-health
    /// machinery alone must converge to exactly-once delivery with intact
    /// payloads.
    #[test]
    fn automatic_retransmission_survives_drop_dup_reorder(
        msgs in prop::collection::vec(arb_msg(), 1..4),
        strat in any::<u8>(),
        fault_seed in any::<u64>(),
        drop_pct in 0u8..40,
        dup_pct in 0u8..30,
        reorder_pct in 0u8..30,
    ) {
        let kind = strategy_from(strat);
        let mut cfg = EngineConfig::with_strategy(kind);
        cfg.acked = true;
        // Timers sized to the synthetic 1 µs step below.
        cfg.health.initial_rto_ns = 50_000;
        cfg.health.min_rto_ns = 20_000;
        cfg.health.max_rto_ns = 500_000;
        cfg.health.probe_interval_ns = 100_000;
        cfg.health.probe_timeout_ns = 50_000;
        let mk = |cfg: &EngineConfig| {
            Engine::new(cfg.clone(), platform::paper_platform().rails, vec![])
        };
        let (mut tx, mut rx) = (mk(&cfg), mk(&cfg));
        let conn = tx.conn_open();
        rx.conn_open();
        let mut rng = Xoshiro256StarStar::new(fault_seed);
        let drop_prob = f64::from(drop_pct) / 100.0;
        let dup_prob = f64::from(dup_pct) / 100.0;
        let reorder_prob = f64::from(reorder_pct) / 100.0;

        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for m in &msgs {
            recvs.push(rx.post_recv(conn));
            sends.push(tx.submit_send(conn, payloads(m)));
        }

        // In-flight packets per destination: (delivery step, rail, frame).
        let mut inflight: [Vec<(u64, usize, PacketFrame)>; 2] = [Vec::new(), Vec::new()];
        let mut converged = false;
        for step in 0u64..400_000 {
            let now_ns = step * 1_000;
            for (dir, eng) in [&mut tx, &mut rx].into_iter().enumerate() {
                let _ = eng.progress(now_ns);
                for r in 0..2 {
                    while let Some(d) = eng.next_tx(RailId(r)).expect("next_tx") {
                        eng.on_tx_done(RailId(r), d.token).expect("tx_done");
                        let copies = if rng.chance(drop_prob) { 0 }
                            else if rng.chance(dup_prob) { 2 }
                            else { 1 };
                        for _ in 0..copies {
                            let delay = if rng.chance(reorder_prob) {
                                2 + rng.next_u64() % 30
                            } else {
                                1
                            };
                            inflight[1 - dir].push((step + delay, r, d.frame.clone()));
                        }
                    }
                }
            }
            for (dst, eng) in [&mut tx, &mut rx].into_iter().enumerate() {
                let due: Vec<(u64, usize, PacketFrame)> = {
                    let q = &mut inflight[dst];
                    let mut kept = Vec::new();
                    let mut now = Vec::new();
                    for p in q.drain(..) {
                        if p.0 <= step { now.push(p) } else { kept.push(p) }
                    }
                    *q = kept;
                    now
                };
                for (_, r, frame) in due {
                    eng.on_frame(RailId(r), &frame).expect("on_frame");
                }
            }
            if sends.iter().all(|&s| tx.send_acked(s)) {
                converged = true;
                break;
            }
        }
        prop_assert!(
            converged,
            "automatic retransmission failed to converge (drop {drop_pct}% dup {dup_pct}% reorder {reorder_pct}%)"
        );
        for (i, (m, recv)) in msgs.iter().zip(&recvs).enumerate() {
            let got = rx.try_recv(*recv).expect("delivered");
            prop_assert_eq!(&got.segments, &payloads(m), "message {} corrupted", i);
        }
        prop_assert_eq!(
            rx.stats().msgs_received,
            msgs.len() as u64,
            "exactly-once delivery violated"
        );
    }
}

/// One call on a [`Backlog`], with small numbers for keys so that calls
/// meet the items earlier ones left.
#[derive(Debug, Clone)]
enum BacklogOp {
    Push {
        msg: u64,
        seg: u16,
        size: u64,
        rdv: bool,
    },
    Grant(u64, u16),
    TakeEager(u64, u16),
    TakeChunk(u64, u16, u64),
    SetPlan(u64, u16),
    TakePlanned(usize),
    RemoveMsg(u64),
    ReassignRail(usize),
}

fn arb_backlog_op() -> impl Strategy<Value = BacklogOp> {
    let key = || (0u64..5, 0u16..3);
    // Around the thresholds a test may set, and zero.
    let size = prop_oneof![Just(0u64), 1u64..300, 8000u64..8400, 8192u64..40_000];
    prop_oneof![
        (key(), size, any::<bool>()).prop_map(|((msg, seg), size, rdv)| BacklogOp::Push {
            msg,
            seg,
            size,
            rdv
        }),
        key().prop_map(|(m, s)| BacklogOp::Grant(m, s)),
        key().prop_map(|(m, s)| BacklogOp::TakeEager(m, s)),
        (key(), 1u64..20_000).prop_map(|((m, s), len)| BacklogOp::TakeChunk(m, s, len)),
        key().prop_map(|(m, s)| BacklogOp::SetPlan(m, s)),
        (0usize..2).prop_map(BacklogOp::TakePlanned),
        (0u64..5).prop_map(BacklogOp::RemoveMsg),
        (0usize..2).prop_map(BacklogOp::ReassignRail),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The backlog answers `has_schedulable`, `has_urgent`, `eager_bytes`
    /// and `small_eager_bytes` from counts it keeps in step: after any
    /// sequence of calls they say what a scan of the items says.
    #[test]
    fn backlog_counts_match_a_scan(
        ops in prop::collection::vec(arb_backlog_op(), 1..80),
        small_below in prop_oneof![Just(1u64), Just(256u64), Just(8192u64), Just(u64::MAX)],
    ) {
        use nmad_core::request::{Backlog, PlannedChunk, SegKey, SegPhase};
        let key = |msg_id, seg_index| SegKey { conn: 0, msg_id, seg_index };
        let mut b = Backlog::with_small_below(small_below);
        for op in ops {
            match op.clone() {
                BacklogOp::Push { msg, seg, size, rdv } => {
                    let phase = if rdv { SegPhase::RdvRequested } else { SegPhase::EagerReady };
                    b.push(key(msg, seg), 3, size, phase);
                }
                BacklogOp::Grant(m, s) => {
                    b.grant(key(m, s));
                }
                BacklogOp::TakeEager(m, s) => {
                    b.take_eager(key(m, s));
                }
                BacklogOp::TakeChunk(m, s, len) => {
                    b.take_chunk(key(m, s), len);
                }
                BacklogOp::SetPlan(m, s) => {
                    // Two halves of what is left, one per rail.
                    let left = b.granted_items().find(|i| i.key == key(m, s) && i.plan.is_none());
                    if let Some((from, size)) = left.map(|i| (i.next_offset, i.size)) {
                        let mid = from + (size - from) / 2;
                        let chunk = |rail, offset, end| PlannedChunk {
                            rail,
                            offset,
                            len: end - offset,
                            taken: false,
                        };
                        let plan = [chunk(0, from, mid), chunk(1, mid, size)];
                        b.set_plan(key(m, s), plan.into_iter().filter(|c| c.len > 0).collect());
                    }
                }
                BacklogOp::TakePlanned(rail) => {
                    b.take_planned(rail);
                }
                BacklogOp::RemoveMsg(m) => {
                    b.remove_msg(0, m);
                }
                BacklogOp::ReassignRail(dead) => {
                    b.reassign_rail(dead, &[1 - dead]);
                }
            }
            let eager = || b.eager_items().map(|i| i.size);
            let granted = b.granted_items().count();
            prop_assert_eq!(b.has_schedulable(), eager().count() + granted > 0, "{:?}", op);
            prop_assert_eq!(
                b.has_urgent(),
                granted > 0 || eager().any(|size| size >= small_below),
                "{:?}", op
            );
            prop_assert_eq!(b.eager_bytes(), eager().sum::<u64>(), "{:?}", op);
            prop_assert_eq!(
                b.small_eager_bytes(),
                eager().filter(|&size| size < small_below).sum::<u64>(),
                "{:?}", op
            );
        }
    }
}

/// The backlog as a plain `Vec` searched from the front and closed up
/// behind every take: what [`nmad_core::request::Backlog`] must keep
/// doing, however it stores its items.
#[derive(Default)]
struct VecBacklog {
    items: Vec<nmad_core::request::BacklogItem>,
    next_seq: u64,
}

impl VecBacklog {
    fn find(&self, key: nmad_core::request::SegKey) -> Option<usize> {
        self.items.iter().position(|i| i.key == key)
    }

    fn take_eager(
        &mut self,
        key: nmad_core::request::SegKey,
    ) -> Option<nmad_core::request::BacklogItem> {
        use nmad_core::request::SegPhase;
        let idx = self.find(key)?;
        (self.items[idx].phase == SegPhase::EagerReady).then(|| self.items.remove(idx))
    }

    /// A chunk of `len` bytes at `offset` leaves item `idx`, which goes
    /// with it when `exhausted`.
    fn took(
        &mut self,
        idx: usize,
        (offset, len): (u64, u64),
        exhausted: bool,
    ) -> nmad_core::request::TakenChunk {
        let item = &mut self.items[idx];
        let taken = nmad_core::request::TakenChunk {
            key: item.key,
            total_segs: item.total_segs,
            offset,
            len,
            chunk_index: item.chunks_emitted,
            seg_exhausted: exhausted,
        };
        item.chunks_emitted += 1;
        if exhausted {
            self.items.remove(idx);
        }
        taken
    }
}

#[derive(Debug, Clone)]
enum TakeOp {
    Plain(BacklogOp),
    /// An aggregate's keys: a stretch of the waiting eager segments in
    /// submit order — every `stride`-th from the `skip`-th on, `len` of
    /// them — or, `reversed`, the same against it.
    Run {
        skip: usize,
        stride: usize,
        len: usize,
        reversed: bool,
    },
}

fn arb_take_op() -> impl Strategy<Value = TakeOp> {
    prop_oneof![
        arb_backlog_op().prop_map(TakeOp::Plain),
        arb_backlog_op().prop_map(TakeOp::Plain),
        arb_backlog_op().prop_map(TakeOp::Plain),
        (0usize..3, 1usize..3, 1usize..6, any::<bool>()).prop_map(
            |(skip, stride, len, reversed)| TakeOp::Run {
                skip,
                stride,
                len,
                reversed
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the backlog is made of, it behaves as the plain `Vec` it
    /// was: after any sequence of calls (keys unique, as the engine's
    /// are: a message's segments are enqueued once and a retransmission
    /// removes them first) every call answered the same, the same items
    /// wait in the same order in the same state, and the counts agree.
    #[test]
    fn backlog_matches_a_plain_vec(ops in prop::collection::vec(arb_take_op(), 1..120)) {
        use nmad_core::request::{Backlog, PlannedChunk, SegKey, SegPhase};
        let key = |msg_id, seg_index| SegKey { conn: 0, msg_id, seg_index };
        let (mut b, mut m) = (Backlog::with_small_below(256), VecBacklog::default());
        for op in ops {
            let op = match op {
                TakeOp::Run { skip, stride, len, reversed } => {
                    let mut keys: Vec<SegKey> =
                        b.eager_items().skip(skip).step_by(stride).take(len).map(|i| i.key).collect();
                    if reversed {
                        keys.reverse();
                    }
                    let bytes: u64 = keys.iter().map(|&k| m.take_eager(k).expect("waiting").size).sum();
                    prop_assert_eq!(b.take_eager_run(keys.iter().copied()), Some(bytes));
                    // A key that does not wait ends the run where it is.
                    let absent = [key(99, 0)];
                    let gone = b.eager_items().next().map(|i| i.key);
                    let run = gone.into_iter().chain(absent);
                    prop_assert_eq!(b.take_eager_run(run), None);
                    gone.map(|k| m.take_eager(k));
                    continue_checks(&b, &m)?;
                    continue;
                }
                TakeOp::Plain(op) => op,
            };
            match op.clone() {
                BacklogOp::Push { msg, seg, size, rdv } => {
                    if m.find(key(msg, seg)).is_none() {
                        let phase = if rdv { SegPhase::RdvRequested } else { SegPhase::EagerReady };
                        b.push(key(msg, seg), 3, size, phase);
                        m.items.push(nmad_core::request::BacklogItem {
                            key: key(msg, seg),
                            total_segs: 3,
                            size,
                            phase,
                            next_offset: 0,
                            chunks_emitted: 0,
                            plan: None,
                            submit_seq: m.next_seq,
                        });
                        m.next_seq += 1;
                    }
                }
                BacklogOp::Grant(ms, s) => {
                    let idx = m.find(key(ms, s)).filter(|&i| m.items[i].phase == SegPhase::RdvRequested);
                    if let Some(i) = idx {
                        m.items[i].phase = SegPhase::RdvGranted;
                    }
                    prop_assert_eq!(b.grant(key(ms, s)), idx.is_some(), "{:?}", op);
                }
                BacklogOp::TakeEager(ms, s) => {
                    let (got, want) = (b.take_eager(key(ms, s)), m.take_eager(key(ms, s)));
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "{:?}", op);
                }
                BacklogOp::TakeChunk(ms, s, max_len) => {
                    let idx = m.find(key(ms, s)).filter(|&i| {
                        let item = &m.items[i];
                        item.phase == SegPhase::RdvGranted && item.plan.is_none() && item.next_offset < item.size
                    });
                    let want = idx.map(|i| {
                        let item = &mut m.items[i];
                        let piece = (item.next_offset, (item.size - item.next_offset).min(max_len));
                        item.next_offset += piece.1;
                        let exhausted = item.next_offset == item.size;
                        m.took(i, piece, exhausted)
                    });
                    prop_assert_eq!(b.take_chunk(key(ms, s), max_len), want, "{:?}", op);
                }
                BacklogOp::SetPlan(ms, s) => {
                    // Two halves of what is left, one per rail.
                    let idx = m.find(key(ms, s)).filter(|&i| {
                        m.items[i].phase == SegPhase::RdvGranted && m.items[i].plan.is_none()
                    });
                    if let Some(i) = idx {
                        let (from, size) = (m.items[i].next_offset, m.items[i].size);
                        let mid = from + (size - from) / 2;
                        let chunk = |rail, offset, end| PlannedChunk { rail, offset, len: end - offset, taken: false };
                        let plan: Vec<_> =
                            [chunk(0, from, mid), chunk(1, mid, size)].into_iter().filter(|c| c.len > 0).collect();
                        prop_assert!(b.set_plan(key(ms, s), plan.clone()), "{:?}", op);
                        m.items[i].plan = Some(plan);
                    } else {
                        prop_assert!(!b.set_plan(key(ms, s), Vec::new()), "{:?}", op);
                    }
                }
                BacklogOp::TakePlanned(rail) => {
                    let mine = |c: &PlannedChunk| !c.taken && c.rail == rail;
                    let found = m.items.iter().enumerate().find_map(|(i, item)| {
                        let plan = item.plan.as_ref().filter(|_| item.phase == SegPhase::RdvGranted)?;
                        Some((i, plan.iter().position(mine)?))
                    });
                    let want = found.map(|(i, j)| {
                        let plan = m.items[i].plan.as_mut().expect("found by its plan");
                        plan[j].taken = true;
                        let piece = (plan[j].offset, plan[j].len);
                        let exhausted = plan.iter().all(|c| c.taken);
                        m.took(i, piece, exhausted)
                    });
                    prop_assert_eq!(b.take_planned(rail), want, "{:?}", op);
                }
                BacklogOp::RemoveMsg(ms) => {
                    let before = m.items.len();
                    m.items.retain(|i| i.key.msg_id != ms);
                    prop_assert_eq!(b.remove_msg(0, ms), before - m.items.len(), "{:?}", op);
                }
                BacklogOp::ReassignRail(dead) => {
                    let chunks = m.items.iter_mut().filter_map(|i| i.plan.as_mut()).flatten();
                    let moved = chunks.filter(|c| !c.taken && c.rail == dead).map(|c| c.rail = 1 - dead).count();
                    prop_assert_eq!(b.reassign_rail(dead, &[1 - dead]), moved, "{:?}", op);
                }
            }
            continue_checks(&b, &m)?;
        }
    }
}

/// The backlog `b` holds what the model `m` holds, in its order and
/// state, and counts it the same; otherwise, what differs.
fn continue_checks(b: &nmad_core::request::Backlog, m: &VecBacklog) -> Result<(), String> {
    use nmad_core::request::SegPhase;
    let of = |phase| m.items.iter().filter(move |i| i.phase == phase);
    let shown = |items: &mut dyn Iterator<Item = &nmad_core::request::BacklogItem>| {
        items.map(|i| format!("{i:?}")).collect::<Vec<_>>()
    };
    let eager = || of(SegPhase::EagerReady).map(|i| i.size);
    let granted = of(SegPhase::RdvGranted).count();
    let got = (
        (
            b.len(),
            shown(&mut b.eager_items()),
            shown(&mut b.granted_items()),
        ),
        (b.has_rdv_pending(), b.has_schedulable(), b.has_urgent()),
        (b.eager_bytes(), b.small_eager_bytes()),
    );
    let want = (
        (
            m.items.len(),
            shown(&mut of(SegPhase::EagerReady)),
            shown(&mut of(SegPhase::RdvGranted)),
        ),
        (
            of(SegPhase::RdvRequested).count() > 0,
            eager().count() + granted > 0,
            granted > 0 || eager().any(|s| s >= 256),
        ),
        (
            eager().sum::<u64>(),
            eager().filter(|&s| s < 256).sum::<u64>(),
        ),
    );
    (got == want)
        .then_some(())
        .ok_or_else(|| format!("backlog {got:?}\n  model {want:?}"))
}

/// A backlog of 4,096 segments drained front-first — one at a time, then
/// again sixteen at a time as aggregates take them — costs a step or two
/// a segment by the backlog's own count of items looked at and items
/// shifted. Taking from a `Vec`'s front shifted every item behind it:
/// 4,095 + 4,094 + ... = 8.4 M steps for the same drain.
#[test]
fn draining_a_long_backlog_front_first_is_linear() {
    use nmad_core::request::{Backlog, SegKey, SegPhase};
    const N: u64 = 4096;
    let key = |i: u64| SegKey {
        conn: 0,
        msg_id: i / 4,
        seg_index: (i % 4) as u16,
    };
    let mut b = Backlog::new();
    let fill = |b: &mut Backlog| (0..N).for_each(|i| b.push(key(i), 4, 256, SegPhase::EagerReady));
    fill(&mut b);
    let before = b.steps();
    for i in 0..N {
        assert_eq!(b.take_eager(key(i)).expect("waiting").key, key(i));
    }
    assert!(b.is_empty());
    assert!(
        b.steps() - before <= 2 * N,
        "{} steps for {N} takes",
        b.steps() - before
    );
    fill(&mut b);
    let before = b.steps();
    for run in 0..N / 16 {
        let keys = (run * 16..(run + 1) * 16).map(key);
        assert_eq!(b.take_eager_run(keys), Some(16 * 256));
    }
    assert!(b.is_empty());
    assert!(
        b.steps() - before <= 2 * N,
        "{} steps for {N} takes",
        b.steps() - before
    );
    // Behind a segment that stays (a rendezvous waiting for its grant)
    // the front is one item further in, and that is all.
    b.push(key(N), 4, 1 << 20, SegPhase::RdvRequested);
    fill(&mut b);
    let before = b.steps();
    for run in 0..N / 16 {
        let keys = (run * 16..(run + 1) * 16).map(key);
        assert_eq!(b.take_eager_run(keys), Some(16 * 256));
    }
    assert_eq!(b.len(), 1);
    assert!(
        b.steps() - before <= 4 * N,
        "{} steps for {N} takes",
        b.steps() - before
    );
}
