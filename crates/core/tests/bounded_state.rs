//! "Bounded memory" as a test: the engine's per-message tables are
//! sliding windows, so what they hold follows the messages in progress
//! and not the messages ever sent — and an id that has left a window
//! still answers exactly as it last did.
//!
//! Two bare engines move 160 000 messages (eager, aggregated,
//! rendezvous/split) with a bounded number outstanding, unacknowledged
//! and acknowledged. A message that never finishes and a receive nobody
//! takes hold nothing back either. And how many are in progress is
//! bounded too, for a sender that goes through the admission check: an
//! open loop of 200 000 offers against rails that take a frame each per
//! tick stays within its per-tenant quota.

use std::collections::VecDeque;

use bytes::Bytes;
use nmad_core::{Engine, EngineConfig, RecvId, SendId, SubmitError};
use nmad_model::{platform, RailId};
use nmad_wire::{ConnId, PacketFrame};

/// Messages in progress at most.
const OUTSTANDING: usize = 16;
/// Table slots per message in progress (a handle, a slot, a partial
/// message) and a spare.
const SLOTS_PER_MESSAGE: usize = 4;

fn engine(acked: bool) -> Engine {
    let config = EngineConfig {
        acked,
        ..EngineConfig::default()
    };
    Engine::new(config, platform::paper_platform().rails, vec![])
}

/// The segments of message `i`: one small, three small (aggregated), one
/// medium, and every eighth one large enough for a rendezvous and a split.
fn segments(pool: &Bytes, i: u64) -> Vec<Bytes> {
    let tagged = |len: usize| {
        let mut seg = pool.slice(..len).to_vec();
        seg[..8].copy_from_slice(&i.to_le_bytes());
        Bytes::from(seg)
    };
    match i % 8 {
        7 => vec![tagged(32 << 10)],
        1 | 4 => vec![tagged(64), pool.slice(..200), pool.slice(..31)],
        2 | 5 => vec![tagged(12 << 10)],
        _ => vec![tagged(64)],
    }
}

/// One round of "every idle rail of both engines": true when a frame
/// moved. The first data frame `a` ever posts is kept in `keep`.
fn pump(a: &mut Engine, b: &mut Engine, keep: &mut Option<PacketFrame>) -> bool {
    let mut moved = false;
    for dir in 0..2 {
        let (from, to) = if dir == 0 {
            (&mut *a, &mut *b)
        } else {
            (&mut *b, &mut *a)
        };
        for r in 0..from.rails().len() {
            let rail = RailId(r);
            if let Some(d) = from.next_tx(rail).expect("next_tx") {
                if dir == 0 && !d.control && keep.is_none() {
                    *keep = Some(d.frame.clone());
                }
                from.on_tx_done(rail, d.token).expect("on_tx_done");
                to.on_frame(rail, &d.frame).expect("on_frame");
                moved = true;
            }
        }
    }
    moved
}

/// What the tables of both engines may hold with `in_progress` messages
/// (and holes) in them.
fn assert_bounded(a: &Engine, b: &Engine, in_progress: usize, when: &str) {
    // (One injection in flight per rail.)
    let rails = a.rails().len();
    let allowed = SLOTS_PER_MESSAGE * (in_progress + rails);
    for (name, e) in [("sender", a), ("receiver", b)] {
        assert!(
            e.state_len() <= allowed,
            "{when}: the {name}'s tables hold {} slots with {in_progress} messages in progress \
             (allowed {allowed})",
            e.state_len()
        );
    }
}

/// Move `n` messages from `a` to `b` on `conn`, `OUTSTANDING` at a time.
/// Returns the first data frame `a` posted.
fn run(a: &mut Engine, b: &mut Engine, conn: ConnId, n: u64) -> PacketFrame {
    let acked = a.config().acked;
    let pool = Bytes::from(vec![0xA5u8; 32 << 10]);
    let mut in_progress: VecDeque<(u64, SendId, RecvId)> = VecDeque::new();
    let mut first_frame = None;
    let mut delivered = 0u64;
    for msg in 0..n {
        let (send, recv) = (SendId(msg), RecvId(msg));
        assert_eq!(a.submit_send(conn, segments(&pool, msg)), send);
        assert_eq!(b.post_recv(conn), recv);
        in_progress.push_back((msg, send, recv));
        assert!(!a.send_acked(send), "acked before it left");
        assert_bounded(a, b, in_progress.len(), "after a submit");
        // Reap down to the window, oldest first, moving frames as needed.
        while in_progress.len() > OUTSTANDING {
            let &(msg, send, recv) = in_progress.front().expect("nonempty");
            let sent = a.send_complete(send) && (!acked || a.send_acked(send));
            match sent.then(|| b.try_recv(recv)).flatten() {
                Some(m) => {
                    assert_eq!(m.segments[0][..8], msg.to_le_bytes(), "wrong message");
                    assert!(b.try_recv(recv).is_none(), "taken twice");
                    in_progress.pop_front();
                    delivered += 1;
                }
                None => assert!(pump(a, b, &mut first_frame), "stuck at message {msg}"),
            }
            assert_bounded(a, b, in_progress.len(), "while reaping");
        }
    }
    while pump(a, b, &mut first_frame) {}
    for (msg, send, recv) in in_progress.drain(..) {
        assert!(a.send_complete(send) && (!acked || a.send_acked(send)));
        let m = b.try_recv(recv).expect("delivered");
        assert_eq!(m.segments[0][..8], msg.to_le_bytes());
        delivered += 1;
    }
    assert_eq!(delivered, n);
    assert!(a.is_quiescent() && b.is_quiescent());
    assert_eq!(
        (a.state_len(), b.state_len()),
        (0, 0),
        "nothing in progress"
    );
    first_frame.expect("a data frame was posted")
}

/// Ids long gone answer as they last did; ids never issued answer no.
fn assert_answers_are_exact(a: &mut Engine, b: &mut Engine, n: u64) {
    let acked = a.config().acked;
    for old in [0, 1, n / 2, n - 1] {
        assert!(a.send_complete(SendId(old)), "send {old} completed once");
        assert_eq!(a.send_acked(SendId(old)), acked, "send {old}");
        assert!(b.try_recv(RecvId(old)).is_none(), "recv {old} was consumed");
        assert!(!(acked && a.retransmit(SendId(old))), "nothing to resend");
    }
    for never in [n, n + 1, n + 1_000_000, u64::MAX] {
        assert!(!a.send_complete(SendId(never)), "send {never} never issued");
        assert!(!a.send_acked(SendId(never)));
        assert!(b.try_recv(RecvId(never)).is_none());
        assert!(!b.send_complete(SendId(never)), "the receiver sent nothing");
    }
}

#[test]
fn unacked_tables_follow_the_messages_in_progress() {
    let (mut a, mut b) = (engine(false), engine(false));
    let conn = a.conn_open();
    assert_eq!(conn, b.conn_open());
    let n = 80_000;
    run(&mut a, &mut b, conn, n);
    assert_eq!(b.stats().msgs_received, n);
    assert!(a.stats().aggregates_built > 0 && a.stats().chunks_sent > 0);
    assert_answers_are_exact(&mut a, &mut b, n);
}

#[test]
fn acked_tables_follow_the_messages_in_progress_and_old_duplicates_are_still_dropped() {
    let (mut a, mut b) = (engine(true), engine(true));
    let conn = a.conn_open();
    b.conn_open();
    let n = 80_000;
    let first = run(&mut a, &mut b, conn, n);
    assert_eq!(b.stats().msgs_received, n);
    assert_eq!(a.stats().acks_received, n);
    assert_answers_are_exact(&mut a, &mut b, n);

    // A duplicate of message 0, retired 80 000 messages ago: dropped and
    // acknowledged again, not delivered a second time.
    let before = b.stats().clone();
    let out = b.on_frame(RailId(0), &first).expect("duplicate tolerated");
    assert!(out.control_enqueued && out.completed_recvs.is_empty());
    assert_eq!(b.stats().duplicates_dropped, before.duplicates_dropped + 1);
    assert_eq!(b.stats().acks_sent, before.acks_sent + 1);
    assert_eq!(b.stats().msgs_received, n);
    // ... and the late ack finds the sender's slot long gone.
    let mut none = None;
    while pump(&mut a, &mut b, &mut none) {}
    assert_eq!(a.stats().acks_received, n + 1);
    assert_bounded(&a, &b, 0, "after the duplicate");
}

/// How many messages are in progress is bounded too, for a sender that
/// asks: an open loop offers `PER_TICK` medium messages a tick through
/// the per-tenant admission check, the rails take one frame each a tick,
/// and the receiver takes what those frames delivered — a quarter of
/// what is offered. `submit_send` in place of `try_submit_send` grows the
/// backlog by six messages a tick, to 150 000 by the end.
#[test]
fn an_open_loop_sender_is_held_by_its_quota() {
    const OFFERS: u64 = 200_000;
    const PER_TICK: u64 = 8;
    const QUOTA: usize = 32;
    let config = EngineConfig {
        max_tenant_inflight: QUOTA,
        ..EngineConfig::default()
    };
    let rails = platform::paper_platform().rails.len();
    let mut a = Engine::new(config, platform::paper_platform().rails, vec![]);
    let mut b = engine(false);
    let conn = a.conn_open();
    b.conn_open();
    let pool = Bytes::from(vec![0xA5u8; 12 << 10]);
    let mut admitted: VecDeque<(u64, SendId, RecvId)> = VecDeque::new();
    let mut on_the_wire = Vec::new();
    let (mut offered, mut refused, mut delivered) = (0u64, 0u64, 0u64);
    while offered < OFFERS || !admitted.is_empty() {
        for (rail, d) in on_the_wire.drain(..) {
            let d: nmad_core::TxDecision = d;
            a.on_tx_done(rail, d.token).expect("on_tx_done");
            b.on_frame(rail, &d.frame).expect("on_frame");
        }
        while let Some(&(msg, send, recv)) = admitted.front() {
            let Some(m) = b.try_recv(recv) else { break };
            assert_eq!(m.segments[0][..8], msg.to_le_bytes(), "wrong message");
            assert!(a.send_complete(send));
            admitted.pop_front();
            delivered += 1;
        }
        for rail in (0..rails).map(RailId) {
            on_the_wire.extend(a.next_tx(rail).expect("next_tx").map(|d| (rail, d)));
        }
        for _ in 0..PER_TICK.min(OFFERS - offered) {
            let mut segment = pool.to_vec();
            segment[..8].copy_from_slice(&offered.to_le_bytes());
            match a.try_submit_send(conn, vec![Bytes::from(segment)]) {
                Ok(send) => admitted.push_back((offered, send, b.post_recv(conn))),
                Err(SubmitError::WouldBlock) => refused += 1,
                Err(e) => panic!("{e}"),
            }
            offered += 1;
        }
        assert!(
            admitted.len() <= QUOTA,
            "{} messages in progress after {offered} offers",
            admitted.len()
        );
        assert_bounded(&a, &b, QUOTA, "open loop");
        let out = a.stats().datapath.pool_outstanding;
        assert!(out <= 2 * rails as u64, "{out} buffers out");
    }
    let st = a.stats();
    // Backlog length as every submission found it, conn_tx span with it.
    let backlog = st.obs.backlog_depth.max().expect("submissions");
    println!("{delivered} delivered, {refused} refused, backlog <= {backlog}");
    assert!(backlog <= QUOTA as u64, "{backlog}");
    assert_eq!(
        (st.overload.admission_rejections, offered),
        (refused, delivered + refused),
        "every offer is delivered or counted as refused"
    );
    assert!(refused > OFFERS / 2, "the quota never bound");
    assert_eq!(b.stats().msgs_received, delivered);
    assert!(a.is_quiescent() && b.is_quiescent());
    assert_eq!((a.state_len(), b.state_len()), (0, 0));
}

#[test]
fn a_lost_frame_and_an_untaken_receive_do_not_pin_the_tables() {
    // Without acks nothing resends a lost frame: message LOST never
    // finishes. UNTAKEN arrives and is left lying. The 100 000 messages
    // after them are delivered all the same, in tables that stay small.
    const LOST: u64 = 5;
    const UNTAKEN: u64 = 9;
    const ALLOWED: usize = 256;
    let (mut a, mut b) = (engine(false), engine(false));
    let conn = a.conn_open();
    b.conn_open();
    let pool = Bytes::from(vec![0xA5u8; 32 << 10]);
    let n = 100_000;
    let mut lost_frame = None;
    let mut left = Vec::new();
    for msg in 0..n {
        let send = a.submit_send(conn, segments(&pool, msg));
        let recv = b.post_recv(conn);
        if msg == LOST {
            // Its one frame goes out and never arrives.
            let d = a.next_tx(RailId(0)).expect("next_tx").expect("a frame");
            a.on_tx_done(RailId(0), d.token).expect("on_tx_done");
            lost_frame = Some(d.frame);
        }
        while pump(&mut a, &mut b, &mut None) {}
        assert!(a.send_complete(send));
        if msg == LOST || msg == UNTAKEN {
            left.push((msg, recv));
        } else {
            let m = b.try_recv(recv).expect("delivered");
            assert_eq!(m.segments[0][..8], msg.to_le_bytes(), "wrong message");
        }
        assert!(
            a.state_len() == 0 && b.state_len() <= ALLOWED,
            "after message {msg}: {} and {} slots",
            a.state_len(),
            b.state_len()
        );
    }
    assert_eq!(b.stats().msgs_received, n - 1);
    assert!(b.try_recv(left[0].1).is_none(), "never arrived");
    // Both are still told apart from the retired ids around them: the
    // lost frame, 100 000 messages late, completes its message.
    let out = b
        .on_frame(RailId(0), &lost_frame.expect("kept"))
        .expect("on_frame");
    assert_eq!(out.completed_recvs.iter().collect::<Vec<_>>(), [&left[0].1]);
    for (msg, recv) in left {
        let m = b.try_recv(recv).expect("delivered");
        assert_eq!(m.segments[0][..8], msg.to_le_bytes());
    }
    assert_eq!((a.state_len(), b.state_len()), (0, 0));
}
