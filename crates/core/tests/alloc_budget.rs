//! Heap allocations per engine call, counted by a global allocator in a
//! process of its own (one test function: nothing else allocates while a
//! call is measured). After a warm-up that sizes the windows, the pool
//! and the scratch lists, a decision allocates nothing — the frame's head
//! and an aggregate's slab come out of the pool together with the `Arc`
//! they are frozen into — except the one that plans a split, which
//! allocates its plan's `Vec`; and a message, at the first sight of it,
//! allocates the `Vec` of its segments that `try_recv` hands over. The
//! bookkeeping around them allocates nothing. Every budget is the count
//! the engine makes: one more is a regression.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use nmad_core::{Engine, EngineConfig, EngineError, TxDecision};
use nmad_model::{platform, RailId};
use nmad_wire::header::{ChunkPacket, Packet};
use nmad_wire::reassembly::ReasmError;
use nmad_wire::FrameBody;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a relaxed atomic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `call` makes.
fn count<T>(call: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = call();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

fn engine() -> Engine {
    let config = EngineConfig {
        crc: true,
        ..EngineConfig::default()
    };
    Engine::new(config, platform::paper_platform().rails, vec![])
}

/// The next decision of `e` on whichever rail has one.
fn decide(e: &mut Engine) -> Option<(RailId, TxDecision)> {
    (0..e.rails().len()).find_map(|r| {
        let d = e.next_tx(RailId(r)).expect("next_tx")?;
        Some((RailId(r), d))
    })
}

/// Move everything both engines have to say, in the order of the mem
/// fabric: the injection is reported done while the peer still holds the
/// frame.
fn drain(a: &mut Engine, b: &mut Engine) {
    loop {
        let mut moved = false;
        for dir in 0..2 {
            let (from, to) = if dir == 0 {
                (&mut *a, &mut *b)
            } else {
                (&mut *b, &mut *a)
            };
            while let Some((rail, d)) = decide(from) {
                from.on_tx_done(rail, d.token).expect("on_tx_done");
                to.on_frame(rail, &d.frame).expect("on_frame");
                moved = true;
            }
        }
        if !moved {
            return;
        }
    }
}

/// The rendezvous request of `a`'s large message and `b`'s grant.
fn handshake(a: &mut Engine, b: &mut Engine) {
    let (rail, request) = decide(a).expect("the rendezvous request");
    a.on_tx_done(rail, request.token).expect("token");
    b.on_frame(rail, &request.frame).expect("request");
    let (rail, grant) = decide(b).expect("the grant");
    b.on_tx_done(rail, grant.token).expect("token");
    a.on_frame(rail, &grant.frame).expect("grant");
}

#[test]
fn steady_state_allocations_stay_within_budget() {
    let (mut a, mut b) = (engine(), engine());
    let conn = a.conn_open();
    b.conn_open();
    let small = Bytes::from(vec![7u8; 64]);
    let large = Bytes::from(vec![9u8; 256 << 10]);

    // Warm-up: every shape a few times over, receives consumed.
    for round in 0..64 {
        let mut recvs = Vec::new();
        for _ in 0..8 {
            a.submit_send(conn, vec![small.clone()]);
            recvs.push(b.post_recv(conn));
        }
        if round % 8 == 0 {
            a.submit_send(conn, vec![large.clone()]);
            recvs.push(b.post_recv(conn));
        }
        drain(&mut a, &mut b);
        for r in recvs {
            b.try_recv(r).expect("delivered in the warm-up");
        }
    }
    let mut report = Vec::new();
    let mut check = |what: &'static str, allocations: u64, budget: u64| {
        report.push(format!("{what}: {allocations} (budget {budget})"));
        assert!(allocations <= budget, "{}", report.join("\n"));
    };

    // An idle query.
    let (n, idle) = count(|| decide(&mut a));
    assert!(idle.is_none());
    check("idle next_tx, both rails", n, 0);

    // One eager message, end to end.
    let segments = vec![small.clone()];
    let (n, _) = count(|| a.submit_send(conn, segments));
    check("submit_send beyond the caller's Vec", n, 0);
    let recv = b.post_recv(conn);
    let (n, decision) = count(|| decide(&mut a));
    let (rail, d) = decision.expect("an eager frame");
    check("eager decision", n, 0);
    let (n, done) = count(|| a.on_tx_done(rail, d.token));
    assert_eq!(done.expect("token").len(), 1);
    check("on_tx_done", n, 0);
    let (n, out) = count(|| b.on_frame(rail, &d.frame));
    assert_eq!(out.expect("frame").completed_recvs.len(), 1);
    // (The message's list of one segment, made where it lands.)
    check("on_frame of a one-segment eager frame", n, 1);
    drop(d);
    let (n, msg) = count(|| b.try_recv(recv));
    assert_eq!(msg.expect("delivered").segments[0], small);
    check("try_recv", n, 0);

    // Eight small messages in one aggregate.
    let recvs: Vec<_> = (0..8)
        .map(|_| {
            a.submit_send(conn, vec![small.clone()]);
            b.post_recv(conn)
        })
        .collect();
    let (n, decision) = count(|| decide(&mut a));
    let (rail, d) = decision.expect("an aggregate frame");
    assert_eq!(a.stats().segments_aggregated % 8, 0);
    check("aggregate decision, 8 segments", n, 0);
    let (n, done) = count(|| a.on_tx_done(rail, d.token));
    assert_eq!(done.expect("token").len(), 8);
    check("on_tx_done of the aggregate", n, 0);
    b.on_frame(rail, &d.frame).expect("frame");
    drop(d);
    for r in recvs {
        b.try_recv(r).expect("delivered");
    }

    // The burst: a window of 32 messages of 4 x 256 B submitted before
    // any rail is offered, as a sender that never waits leaves them (the
    // shape of the benchmark's `tcp_burst_multiseg`). They leave as two
    // aggregates of 64 entries. Counted per call site over the whole
    // burst, the engine's own allocations only: the caller's `Vec` of
    // segments is made before the count starts.
    let quarter = Bytes::from(vec![5u8; 256]);
    let burst = |a: &mut Engine, b: &mut Engine| {
        let (mut submit, mut decide_n, mut done_n, mut frame_n, mut recv_n) = (0, 0, 0, 0, 0);
        let mut recvs = Vec::with_capacity(32);
        for _ in 0..32 {
            let segments = vec![quarter.clone(); 4];
            submit += count(|| a.submit_send(conn, segments)).0;
            recvs.push(b.post_recv(conn));
        }
        let mut frames = 0;
        loop {
            let (n, decision) = count(|| decide(a));
            decide_n += n;
            let Some((rail, d)) = decision else { break };
            frames += 1;
            done_n += count(|| a.on_tx_done(rail, d.token).expect("token")).0;
            frame_n += count(|| b.on_frame(rail, &d.frame).expect("frame")).0;
        }
        for r in recvs {
            let (n, msg) = count(|| b.try_recv(r));
            assert_eq!(msg.expect("delivered").segments.len(), 4);
            recv_n += n;
        }
        (frames, [submit, decide_n, done_n, frame_n, recv_n])
    };
    burst(&mut a, &mut b); // (sizes the lists a 64-entry aggregate needs)
    let (frames, [submit, decide_n, done_n, frame_n, recv_n]) = burst(&mut a, &mut b);
    assert_eq!(frames, 2, "two aggregates of sixteen messages");
    // Per frame: nothing for the decision — the frame's head and slab
    // come out of the pool with their `Arc`s. The lists around them are
    // the engine's, kept between frames:
    // the aggregate's 64 keys (lent to the strategy, carried by the
    // frame, given back to its rail at `on_tx_done`), the sixteen sends
    // it completes, its entries on arrival and the receives they
    // complete. Per message: 1, on arrival — the `Vec` of its four
    // segments, made at first sight, filled where they land and handed
    // to the application as it is. 32 / 32 = 1.0 a message plus the
    // caller's `Vec`: the deterministic part of the benchmark's traced
    // `alloc.count_per_msg` (with the benchmark's own). Before the lists
    // were kept, 88: the key list grew five times a frame, the entry and
    // completion lists were new each frame, and the reassembly collected
    // a second list to hand over.
    check("burst: 32 submit_send beyond the caller's Vec", submit, 0);
    check("burst: decisions, 2 aggregate frames", decide_n, 0);
    check("burst: 2 on_tx_done", done_n, 0);
    check("burst: on_frame, 2 frames of 16 messages", frame_n, 32);
    check("burst: 32 try_recv", recv_n, 0);

    // A rendezvous split over both rails: one planned chunk per rail.
    a.submit_send(conn, vec![large.clone()]);
    let recv = b.post_recv(conn);
    handshake(&mut a, &mut b);
    let (n, first) = count(|| a.next_tx(RailId(0)));
    let first = first.expect("next_tx").expect("rail 0's chunk");
    // (The plan: a `Vec` of one chunk per rail.)
    check("the decision that plans the split", n, 1);
    let (n, second) = count(|| a.next_tx(RailId(1)));
    let second = second.expect("next_tx").expect("rail 1's chunk");
    check("planned-chunk decision", n, 0);
    let (n, _) = count(|| a.on_tx_done(RailId(0), first.token));
    check("on_tx_done of a chunk", n, 0);
    a.on_tx_done(RailId(1), second.token).expect("token");
    b.on_frame(RailId(0), &first.frame).expect("first chunk");
    b.on_frame(RailId(1), &second.frame).expect("second chunk");
    drop((first, second));
    assert_eq!(b.try_recv(recv).expect("delivered").segments[0], large);

    // The same message while the other rail is busy with a small one:
    // bounded chunks, one after the other, on rail 0. The first opens the
    // message (its list of one segment), the next ones re-join it. Once
    // unchecked: the first time, the in-flight window grows past the
    // busy rail's frame to the length this shape needs.
    bounded_chunks(&mut a, &mut b, &mut |_, _, _| {});
    bounded_chunks(&mut a, &mut b, &mut check);

    // A CRC-valid chunk from a buggy peer that claims a segment of 2^40
    // bytes: kept like any other first chunk — its message's list of one
    // segment, nothing sized from a `total_len` off the wire — and a
    // chunk that disagrees about the length is still told so.
    a.submit_send(conn, vec![large.clone()]);
    b.post_recv(conn);
    handshake(&mut a, &mut b);
    let genuine = a.next_tx(RailId(0)).expect("next_tx").expect("a chunk");
    let (env, body, _) = genuine.frame.decode().expect("our own frame");
    let FrameBody::Packet(Packet::Chunk(genuine)) = body else {
        panic!("a granted rendezvous sends chunks");
    };
    let claim = |total_len: u64| {
        let chunk = ChunkPacket {
            msg_id: genuine.msg_id + 1,
            total_len,
            offset: 0,
            chunk_index: 0,
            data: small.clone(),
            ..genuine.clone()
        };
        Packet::Chunk(chunk).encode_frame(env.conn_id, 0, true)
    };
    let (hostile, disagreeing) = (claim(1 << 40), claim(1 << 20));
    let held = b.state_len();
    let (n, out) = count(|| b.on_frame(RailId(0), &hostile));
    assert!(out.expect("a valid chunk").completed_recvs.is_empty());
    check("on_frame of a chunk claiming a 2^40-byte segment", n, 1);
    assert!(b.state_len() > held, "the message is in flight");
    let err = b
        .on_frame(RailId(0), &disagreeing)
        .expect_err("two lengths");
    let EngineError::Reassembly(ReasmError::LengthMismatch { msg_id, .. }) = err else {
        panic!("{err:?}");
    };
    assert_eq!(msg_id, genuine.msg_id + 1);

    println!("{}", report.join("\n"));
}

/// A large message sent in bounded chunks on rail 0 while rail 1 carries
/// a small one, every call counted into `check`.
fn bounded_chunks(a: &mut Engine, b: &mut Engine, check: &mut impl FnMut(&'static str, u64, u64)) {
    let (small, large) = (
        Bytes::from(vec![7u8; 64]),
        Bytes::from(vec![9u8; 256 << 10]),
    );
    a.submit_send(0, vec![small.clone()]);
    let small_recv = b.post_recv(0);
    let busy = a
        .next_tx(RailId(1))
        .expect("next_tx")
        .expect("the small one");
    a.submit_send(0, vec![large.clone()]);
    let recv = b.post_recv(0);
    handshake(a, b);
    for chunk in 0..3 {
        let (n, d) = count(|| a.next_tx(RailId(0)));
        let d = d.expect("next_tx").expect("a bounded chunk");
        check("bounded-chunk decision", n, 0);
        a.on_tx_done(RailId(0), d.token).expect("token");
        let (n, out) = count(|| b.on_frame(RailId(0), &d.frame));
        assert!(out.expect("chunk").completed_recvs.is_empty());
        // Reassembly is by reference and its piece list inline: a chunk
        // is kept as the slice of its frame that it is.
        if chunk > 0 {
            check("on_frame of a chunk into an open reassembly", n, 0);
        } else {
            check("on_frame of the first chunk of a message", n, 1);
        }
    }
    a.on_tx_done(RailId(1), busy.token).expect("token");
    b.on_frame(RailId(1), &busy.frame).expect("small");
    drop(busy);
    drain(a, b);
    assert_eq!(
        b.try_recv(small_recv).expect("delivered").segments[0],
        small
    );
    assert_eq!(b.try_recv(recv).expect("delivered").segments[0], large);
}
