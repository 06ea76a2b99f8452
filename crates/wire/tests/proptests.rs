//! Property-based tests for the wire format invariants.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

use nmad_wire::agg::{parse_aggregate, AggregateBuilder, AggregateEntry};
use nmad_wire::checksum::{self, Kernel};
use nmad_wire::frame::{encode_parts_frame, PartList};
use nmad_wire::header::{
    AckPacket, ChunkHead, ChunkPacket, EagerPacket, Packet, PacketKind, RdvAck, RdvRequest,
    SamplePacket,
};
use nmad_wire::reassembly::Reassembler;
use nmad_wire::split::SplitPlan;
use nmad_wire::{FrameBody, PacketFrame, WireError};

fn arb_bytes(max: usize) -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

fn arb_entries() -> impl Strategy<Value = Vec<AggregateEntry>> {
    let entry = (any::<u64>(), any::<u16>(), 1..32u16, arb_bytes(128)).prop_map(
        |(msg_id, seg_raw, total_segs, data)| AggregateEntry {
            conn_id: (msg_id >> 32) as u32,
            msg_id,
            seg_index: seg_raw % total_segs,
            total_segs,
            data,
        },
    );
    prop::collection::vec(entry, 1..20)
}

/// The container of `entries`, spelled out field by field: the reference
/// the builder's layouts are held against.
fn reference_container(entries: &[AggregateEntry]) -> Vec<u8> {
    let mut out = (entries.len() as u16).to_le_bytes().to_vec();
    for e in entries {
        out.extend_from_slice(&e.conn_id.to_le_bytes());
        out.extend_from_slice(&e.msg_id.to_le_bytes());
        out.extend_from_slice(&e.seg_index.to_le_bytes());
        out.extend_from_slice(&e.total_segs.to_le_bytes());
        out.extend_from_slice(&(e.data.len() as u32).to_le_bytes());
        out.extend_from_slice(&e.data);
    }
    out
}

/// A builder staging below `threshold`, with `entries` pushed.
fn built(entries: &[AggregateEntry], threshold: usize) -> AggregateBuilder {
    let mut b = AggregateBuilder::new();
    b.begin(threshold, BytesMut::new());
    for e in entries {
        b.push(e.conn_id, e.msg_id, e.seg_index, e.total_segs, &e.data);
    }
    b
}

/// `wire` as a frame of the parts the (sorted) `cuts` leave.
fn recut(wire: &Bytes, cuts: &[usize]) -> PacketFrame {
    let mut parts = PartList::new();
    let mut from = 0;
    for &cut in cuts.iter().chain([&wire.len()]) {
        parts.push(wire.slice(from..cut));
        from = cut;
    }
    PacketFrame::from_parts(Bytes::new(), parts)
}

/// Where the payloads of a decoded `body` lie in its frame's wire image,
/// as `(start, end)`.
fn payload_ranges(body: &FrameBody, wire_len: usize) -> Vec<(usize, usize)> {
    match body {
        FrameBody::Packet(p) => vec![(wire_len - p.payload_bytes(), wire_len)],
        FrameBody::Aggregate(entries) => {
            let mut at = 24 + 2;
            let range = |e: &AggregateEntry| {
                at += 20 + e.data.len();
                (at - e.data.len(), at)
            };
            entries.iter().map(range).collect()
        }
    }
}

/// Decode `wire` whole and cut at `cuts`: the same envelope and body, and
/// exactly the payloads a cut runs through are copied.
fn assert_recut_decodes_alike(wire: &Bytes, cuts: &[usize]) {
    let (env, body, copied) = PacketFrame::from_wire(wire.clone())
        .decode()
        .expect("whole");
    assert_eq!(copied, 0, "a single part never straddles");
    let straddled: usize = payload_ranges(&body, wire.len())
        .into_iter()
        .filter(|&(start, end)| cuts.iter().any(|&c| start < c && c < end))
        .map(|(start, end)| end - start)
        .sum();
    let got = recut(wire, cuts).decode();
    assert_eq!(got, Ok((env, body, straddled)), "cut at {cuts:?}");
}

/// One frame of each packet kind with a CRC, as the parent of the PR that
/// gave every header one layout encoded it (conn 0xC1C2C3C4, seq
/// 0xD1D2D3D4; payload byte `i` is `7 i + 3`).
fn golden_frames() -> Vec<(Packet, Bytes)> {
    let data = |n: u8| Bytes::from((0..n).map(|i| i * 7 + 3).collect::<Vec<u8>>());
    let entries = [
        AggregateEntry {
            conn_id: 0x0A0B_0C0D,
            msg_id: 0x1122_3344_5566_7788,
            seg_index: 1,
            total_segs: 4,
            data: data(5),
        },
        AggregateEntry {
            conn_id: 2,
            msg_id: 9,
            seg_index: 0,
            total_segs: 1,
            data: data(0),
        },
        AggregateEntry {
            conn_id: 2,
            msg_id: 10,
            seg_index: 3,
            total_segs: 4,
            data: data(3),
        },
    ];
    let frames = [
        (
            Packet::Eager(EagerPacket { msg_id: 0x0102_0304_0506_0708, seg_index: 2, total_segs: 5, data: data(6) }),
            "4e4d0101c4c3c2c1d4d3d2d1160000007a937df90100000008070605040302010200050006000000030a11181f26",
        ),
        (
            built(&entries, usize::MAX).finish(),
            "4e4d0102c4c3c2c1d4d3d2d146000000d89dd2670100000003000d0c0b0a88776655443322110100040005000000\
             030a11181f0200000009000000000000000000010000000000020000000a000000000000000300040003000000030a11",
        ),
        (
            Packet::RdvRequest(RdvRequest { msg_id: 0x1112_1314_1516_1718, seg_index: 3, total_segs: 7, total_len: 0x2122_2324_2526_2728 }),
            "4e4d0103c4c3c2c1d4d3d2d1140000000fa44ff2010000001817161514131211030007002827262524232221",
        ),
        (
            Packet::RdvAck(RdvAck { msg_id: 0x3132_3334_3536_3738, seg_index: 0x4142 }),
            "4e4d0104c4c3c2c1d4d3d2d10a0000004fb372ae0100000038373635343332314241",
        ),
        (
            Packet::Chunk(ChunkPacket { msg_id: 0x5152_5354_5556_5758, seg_index: 0x6162, total_segs: 0x6364, offset: 0x1000, total_len: 0x2000, chunk_index: 0x7172, data: data(4) }),
            "4e4d0105c4c3c2c1d4d3d2d1260000009966bb1401000000585756555453525162616463001000000000000000200000\
             00000000727104000000030a1118",
        ),
        (
            Packet::Ack(AckPacket { msg_id: 0x8182_8384_8586_8788 }),
            "4e4d0106c4c3c2c1d4d3d2d1080000009790e00b010000008887868584838281",
        ),
        (
            Packet::SamplePing(SamplePacket { probe_id: 0x9192_9394_9596_9798, data: data(2) }),
            "4e4d0107c4c3c2c1d4d3d2d10e000000bac8eddc01000000989796959493929102000000030a",
        ),
        (
            Packet::SamplePong(SamplePacket { probe_id: 0xA1A2_A3A4_A5A6_A7A8, data: data(1) }),
            "4e4d0108c4c3c2c1d4d3d2d10d0000008d5c232701000000a8a7a6a5a4a3a2a10100000003",
        ),
    ];
    let unhex = |hex: &str| -> Bytes {
        let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
        let byte =
            |pair: &[u8]| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap();
        Bytes::from(digits.chunks(2).map(byte).collect::<Vec<u8>>())
    };
    frames
        .into_iter()
        .map(|(pkt, hex)| (pkt, unhex(hex)))
        .collect()
}

/// The wire did not change: both encoders — and, for the aggregate, the
/// builder's staged and zero-copy paths — still produce the parent's
/// bytes, with and without the CRC (which only the envelope's crc and
/// flags fields, bytes 16..22, tell apart).
#[test]
fn every_kind_encodes_to_its_golden_bytes() {
    for (pkt, golden) in golden_frames() {
        assert_eq!(
            pkt.encode(0xC1C2_C3C4, 0xD1D2_D3D4, true),
            golden,
            "{pkt:?}"
        );
        assert_eq!(
            pkt.encode_frame(0xC1C2_C3C4, 0xD1D2_D3D4, true).to_bytes(),
            golden
        );
        let mut plain = golden.to_vec();
        plain[16..22].fill(0);
        assert_eq!(
            pkt.encode(0xC1C2_C3C4, 0xD1D2_D3D4, false),
            plain,
            "{pkt:?}"
        );
        assert_eq!(
            pkt.encode_frame(0xC1C2_C3C4, 0xD1D2_D3D4, false).to_bytes(),
            plain
        );
        assert_eq!(Packet::decode(&golden).expect("golden").1, pkt);
        if let Packet::Aggregate(body) = &pkt {
            let entries = parse_aggregate(body).expect("golden container");
            let parts = built(&entries, 4).finish_parts();
            assert_eq!((parts.staged_bytes, parts.zero_copy_bytes), (3, 5));
            let frame = encode_parts_frame(
                PacketKind::Aggregate,
                0xC1C2_C3C4,
                0xD1D2_D3D4,
                true,
                parts.parts,
                BytesMut::new(),
            );
            assert_eq!(frame.to_bytes(), golden);
        }
    }
}

/// Every golden frame cut into one to three parts at every pair of byte
/// offsets decodes to what it decodes to whole; a header that lies across
/// a cut costs nothing, a payload that does is copied and counted.
#[test]
fn golden_frames_decode_alike_however_they_are_cut() {
    for (_, wire) in golden_frames() {
        for first in 0..=wire.len() {
            for second in first..=wire.len() {
                assert_recut_decodes_alike(&wire, &[first, second]);
            }
        }
    }
}

/// Every strict prefix of every golden frame, whole or in two parts, is
/// `Truncated` for both decoders — the same error — and `ChunkHead::peek`
/// finds on every prefix what the decoder finds in the frame: the head
/// from `ChunkHead::LEN` bytes of a chunk frame on, nothing before and
/// nothing in any other kind.
#[test]
fn golden_prefixes_are_truncated_and_peek_agrees_with_decode() {
    for (pkt, wire) in golden_frames() {
        let head = match &pkt {
            Packet::Chunk(c) => Some(ChunkHead {
                conn_id: 0xC1C2_C3C4,
                msg_id: c.msg_id,
                seg_index: c.seg_index,
                offset: c.offset,
                total_len: c.total_len,
                len: c.data.len(),
            }),
            _ => None,
        };
        for cut in 0..=wire.len() {
            let seen = head.filter(|_| cut >= ChunkHead::LEN);
            assert_eq!(ChunkHead::peek(&wire[..cut]), Ok(seen), "{pkt:?} at {cut}");
            if cut == wire.len() {
                continue;
            }
            let flat = Packet::decode(&wire[..cut]).expect_err("a strict prefix");
            assert!(matches!(flat, WireError::Truncated { .. }), "{flat:?}");
            let prefix = wire.slice(..cut);
            for split in 0..=cut {
                let got = recut(&prefix, &[split])
                    .decode()
                    .expect_err("a strict prefix");
                assert_eq!(got, flat, "{pkt:?} cut at {cut}, parts split at {split}");
            }
        }
    }
}

/// Byte ranges `(start, end)` of a segment of `total` bytes as
/// retransmissions send them: windows cut anywhere (in order they would
/// append; shuffled they leave gaps and overlap), then whatever they
/// left out — the tail first (a gap in front), then the whole segment
/// over everything.
fn retransmitted_windows(total: usize, raw: &[(usize, usize)], seed: u64) -> Vec<(usize, usize)> {
    let mut windows: Vec<(usize, usize)> = raw
        .iter()
        .map(|&(a, b)| {
            let start = a % total;
            (start, start + 1 + b % (total - start))
        })
        .collect();
    nmad_sim::Xoshiro256StarStar::new(seed).shuffle(&mut windows);
    windows.push((total / 2, total));
    windows.push((0, total));
    windows
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    prop_oneof![
        (any::<u64>(), any::<u16>(), 1..64u16, arb_bytes(512)).prop_map(
            |(msg_id, seg_raw, total_segs, data)| {
                Packet::Eager(EagerPacket {
                    msg_id,
                    seg_index: seg_raw % total_segs,
                    total_segs,
                    data,
                })
            }
        ),
        (any::<u64>(), any::<u16>(), any::<u16>(), any::<u64>()).prop_map(
            |(msg_id, seg_index, total_segs, total_len)| {
                Packet::RdvRequest(RdvRequest {
                    msg_id,
                    seg_index,
                    total_segs,
                    total_len,
                })
            }
        ),
        (any::<u64>(), any::<u16>())
            .prop_map(|(msg_id, seg_index)| Packet::RdvAck(RdvAck { msg_id, seg_index })),
        any::<u64>().prop_map(|msg_id| Packet::Ack(AckPacket { msg_id })),
        (any::<u64>(), arb_bytes(256))
            .prop_map(|(probe_id, data)| Packet::SamplePing(SamplePacket { probe_id, data })),
        (
            any::<u64>(),
            0..1024u64,
            0..512u64,
            any::<u16>(),
            any::<u16>(),
            1..16u16
        )
            .prop_map(
                |(msg_id, total_extra, len, seg_index, chunk_index, total_segs)| {
                    // Construct a consistent chunk: offset + len <= total_len.
                    let data = Bytes::from(vec![0xA5u8; len as usize]);
                    let offset = total_extra;
                    Packet::Chunk(ChunkPacket {
                        msg_id,
                        seg_index,
                        total_segs,
                        offset,
                        total_len: offset + len,
                        chunk_index,
                        data,
                    })
                }
            ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any packet survives an encode/decode round trip, with and without CRC.
    #[test]
    fn packet_roundtrip(pkt in arb_packet(), conn in any::<u32>(), seq in any::<u32>(), crc in any::<bool>()) {
        let buf = pkt.encode(conn, seq, crc);
        prop_assert_eq!(buf.len(), pkt.wire_len());
        let (env, decoded) = Packet::decode(&buf).unwrap();
        prop_assert_eq!(env.conn_id, conn);
        prop_assert_eq!(env.seq, seq);
        prop_assert_eq!(env.crc_checked, crc);
        prop_assert_eq!(decoded, pkt);
    }

    /// Decoding any strict prefix of a packet fails rather than panicking
    /// or succeeding.
    #[test]
    fn truncated_prefix_never_decodes(pkt in arb_packet(), frac in 0.0f64..1.0) {
        let buf = pkt.encode(1, 1, true);
        let cut = ((buf.len() as f64) * frac) as usize;
        prop_assume!(cut < buf.len());
        prop_assert!(Packet::decode(&buf[..cut]).is_err());
    }

    /// Single-byte corruption of a CRC-protected packet is either detected
    /// or confined to the envelope fields checked separately.
    #[test]
    fn payload_corruption_detected(data in prop::collection::vec(any::<u8>(), 1..512), flip in any::<usize>(), bit in 0..8u32) {
        let pkt = Packet::Eager(EagerPacket {
            msg_id: 1, seg_index: 0, total_segs: 1, data: Bytes::from(data),
        });
        let buf = pkt.encode(0, 0, true);
        let mut raw = buf.to_vec();
        // Corrupt somewhere in the body (past the envelope).
        let idx = 24 + (flip % (raw.len() - 24));
        raw[idx] ^= 1 << bit;
        if let Ok((_, decoded)) = Packet::decode(&raw) {
            prop_assert_ne!(decoded, pkt, "silent corruption");
        } // else: detected, good

    }

    /// Aggregation containers preserve entry order, ids and payload bytes.
    #[test]
    fn aggregate_roundtrip(entries in arb_entries()) {
        let Packet::Aggregate(body) = built(&entries, usize::MAX).finish() else { unreachable!() };
        prop_assert_eq!(body.to_vec(), reference_container(&entries));
        let parsed = parse_aggregate(&body).unwrap();
        prop_assert_eq!(parsed, entries);
    }

    /// Ratio split plans always cover the message exactly, with no chunk
    /// below the minimum except the degenerate single-chunk case.
    #[test]
    fn split_plan_covers(total in 0u64..(32 << 20), w0 in 0.0f64..2000.0, w1 in 0.0f64..2000.0, min_chunk in 1u64..65_536) {
        prop_assume!(w0 + w1 > 0.0);
        let plan = SplitPlan::by_ratio(total, [w0, w1], min_chunk);
        prop_assert!(plan.validate().is_ok());
        prop_assert_eq!(plan.bytes_on_rail(0) + plan.bytes_on_rail(1), total);
        if plan.len() > 1 {
            for c in plan.chunks() {
                prop_assert!(c.len >= min_chunk,
                    "multi-chunk plan has a {}-byte chunk < min {}", c.len, min_chunk);
            }
        }
    }

    /// A chunked segment reassembles to the exact original bytes under any
    /// permutation of chunk arrivals.
    #[test]
    fn reassembly_any_order(
        payload in prop::collection::vec(any::<u8>(), 1..8192),
        cuts in prop::collection::vec(any::<usize>(), 0..6),
        seed in any::<u64>(),
    ) {
        // Build a random partition of the payload.
        let mut offsets: Vec<usize> = cuts.iter().map(|c| c % payload.len()).collect();
        offsets.push(0);
        offsets.push(payload.len());
        offsets.sort_unstable();
        offsets.dedup();
        let mut pieces: Vec<(u64, Bytes)> = offsets.windows(2)
            .map(|w| (w[0] as u64, Bytes::copy_from_slice(&payload[w[0]..w[1]])))
            .collect();
        // Shuffle deterministically.
        let mut rng = nmad_sim::Xoshiro256StarStar::new(seed);
        rng.shuffle(&mut pieces);

        let mut r = Reassembler::new();
        let mut done = None;
        let n = pieces.len();
        for (i, (off, data)) in pieces.into_iter().enumerate() {
            let res = r.insert_chunk(42, 0, 1, off, payload.len() as u64, data).unwrap();
            if i + 1 == n {
                done = res.and_then(|()| r.take(42));
            } else {
                prop_assert!(res.is_none(), "completed early");
            }
        }
        let done = done.expect("must complete on last chunk");
        prop_assert_eq!(done.into_contiguous(), payload);
    }

    /// The lenient path under every way a chunk can land on the pieces
    /// held so far: behind the last one, beyond it (a gap to fill
    /// later), inside one, across its end, or over bytes already there —
    /// retransmitted windows cut anywhere, in any order, as often as it
    /// takes. New bytes are counted once and the segment completes with
    /// exactly the original bytes.
    #[test]
    fn lenient_reassembly_append_gap_and_overlap(
        payload in prop::collection::vec(any::<u8>(), 1..4096),
        windows in prop::collection::vec((any::<usize>(), any::<usize>()), 0..24),
        seed in any::<u64>(),
    ) {
        let total = payload.len();
        let mut r = Reassembler::new();
        let (mut stored, mut done) = (0u64, None);
        for (start, end) in retransmitted_windows(total, &windows, seed) {
            let (msg, new_bytes) = r
                .insert_chunk_lenient(
                    7, 0, 1, start as u64, total as u64,
                    Bytes::copy_from_slice(&payload[start..end]),
                )
                .unwrap();
            stored += new_bytes;
            if msg.is_some() {
                done = r.take(7);
                break;
            }
        }
        prop_assert_eq!(stored, total as u64);
        prop_assert_eq!(done.expect("every byte arrived").into_contiguous(), payload);
    }

    /// Whole segments delivered a run at a time — the reassembler takes
    /// the leading entries of one message at one lookup — end exactly as
    /// delivered one by one: the same answer for every entry up to the
    /// first error, that error, the refused entry still holding its
    /// payload, and the same messages left in flight.
    #[test]
    fn eager_runs_are_the_entries_one_by_one(
        raw in prop::collection::vec((0u32..2, 0u64..6, 0u16..8, 0u8..12, arb_bytes(8)), 1..24),
    ) {
        // Mostly well-formed (a message has 1 + id % 4 segments), now and
        // then a segment count that disagrees or an index out of range;
        // segments arriving twice come by themselves.
        let mut entries: Vec<AggregateEntry> = raw
            .into_iter()
            .map(|(conn_id, msg_id, seg_raw, odd, data)| {
                let total_segs = 1 + (msg_id % 4) as u16 + u16::from(odd == 0);
                let seg_index = if odd == 1 { seg_raw } else { seg_raw % total_segs };
                AggregateEntry { conn_id, msg_id, seg_index, total_segs, data }
            })
            .collect();
        let (mut single, mut runs) = (Reassembler::new(), Reassembler::new());
        let mut want = Vec::new();
        for e in &entries {
            let answer = single.insert_eager(e.msg_id, e.seg_index, e.total_segs, e.data.clone());
            let failed = answer.is_err();
            want.push(answer);
            if failed {
                break;
            }
        }
        let (mut got, mut at) = (Vec::new(), 0);
        while at < entries.len() && !got.last().is_some_and(Result::is_err) {
            let before = entries[at..].to_vec();
            let (taken, answer) = runs.insert_eager_run(&mut entries[at..]);
            prop_assert!(taken > 0 || answer.is_err(), "a run that takes nothing and says nothing");
            got.extend((1..taken).map(|_| Ok(None)));
            if answer.is_err() {
                got.extend((0..taken.min(1)).map(|_| Ok(None)));
                prop_assert_eq!(&entries[at + taken..], &before[taken..], "refused entries are left alone");
            }
            got.push(answer);
            at += taken;
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            (runs.in_flight(), runs.completed_count(), runs.completed_bytes()),
            (single.in_flight(), single.completed_count(), single.completed_bytes())
        );
    }

    /// Reassembly by reference, the aliased end: chunks that are slices
    /// of one allocation — cut anywhere, in any order, overlapping as
    /// retransmitted windows do — re-join into that allocation. The
    /// delivery points at the source's bytes and nothing was gathered.
    #[test]
    fn slices_of_one_allocation_deliver_it_aliased(
        payload in prop::collection::vec(any::<u8>(), 1..4096),
        windows in prop::collection::vec((any::<usize>(), any::<usize>()), 0..24),
        seed in any::<u64>(),
    ) {
        let source = Bytes::from(payload);
        let total = source.len();
        let mut r = Reassembler::new();
        let mut done = None;
        for (start, end) in retransmitted_windows(total, &windows, seed) {
            let chunk = source.slice(start..end);
            let (msg, _) = r
                .insert_chunk_lenient(7, 0, 1, start as u64, total as u64, chunk)
                .unwrap();
            if msg.is_some() {
                done = r.take(7);
                break;
            }
        }
        let done = done.expect("every byte arrived");
        prop_assert_eq!(done.segments.len(), 1);
        prop_assert_eq!(done.segments[0].as_ptr(), source.as_ptr());
        prop_assert_eq!(&done.segments[0], &source);
        prop_assert_eq!((r.joined_bytes(), r.gathered_bytes()), (total as u64, 0));
    }

    /// The other end: every chunk in an allocation of its own, as TCP
    /// frames bring them. The content is the same and each byte was
    /// copied exactly once, when the segment was whole.
    #[test]
    fn foreign_allocations_are_gathered_exactly_once(
        payload in prop::collection::vec(any::<u8>(), 2..4096),
        cuts in prop::collection::vec(any::<usize>(), 1..8),
        seed in any::<u64>(),
    ) {
        let total = payload.len();
        // At least two chunks: the first cut is forced inside.
        let mut offsets: Vec<usize> = cuts.iter().map(|c| c % total).collect();
        offsets[0] = 1 + offsets[0] % (total - 1);
        offsets.push(0);
        offsets.push(total);
        offsets.sort_unstable();
        offsets.dedup();
        let mut chunks: Vec<(usize, usize)> = offsets.windows(2).map(|w| (w[0], w[1])).collect();
        let mut rng = nmad_sim::Xoshiro256StarStar::new(seed);
        rng.shuffle(&mut chunks);

        let mut r = Reassembler::new();
        let mut done = None;
        for (start, end) in chunks {
            prop_assert_eq!(r.gathered_bytes(), 0, "gathered before the segment was whole");
            let chunk = Bytes::copy_from_slice(&payload[start..end]);
            done = r.insert_chunk(7, 0, 1, start as u64, total as u64, chunk).unwrap();
        }
        let done = done.and_then(|()| r.take(7)).expect("the last chunk completes it");
        prop_assert_eq!(done.into_contiguous(), payload);
        prop_assert_eq!((r.joined_bytes(), r.gathered_bytes()), (0, total as u64));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The vectored encoder and the legacy flat encoder produce
    /// byte-identical wire images for any packet. This is the contract
    /// that lets the two coexist: a frame's parts concatenated are
    /// exactly what `encode` would have flattened.
    #[test]
    fn vectored_encoder_matches_flat(pkt in arb_packet(), conn in any::<u32>(), seq in any::<u32>(), crc in any::<bool>()) {
        let flat = pkt.encode(conn, seq, crc);
        let frame = pkt.encode_frame(conn, seq, crc);
        prop_assert_eq!(frame.wire_len(), flat.len());
        let image = frame.to_bytes();
        prop_assert_eq!(image.as_ref(), flat.as_slice());
    }

    /// Decoding a scatter-gather frame yields the same packet as the flat
    /// decoder, without flattening first.
    #[test]
    fn frame_decode_matches_flat_decode(pkt in arb_packet(), conn in any::<u32>(), seq in any::<u32>(), crc in any::<bool>()) {
        let frame = pkt.encode_frame(conn, seq, crc);
        let (env, body, _straddle) = frame.decode().unwrap();
        prop_assert_eq!(env.conn_id, conn);
        prop_assert_eq!(env.seq, seq);
        prop_assert_eq!(env.crc_checked, crc);
        let FrameBody::Packet(decoded) = body else {
            return Err("non-aggregate packet decoded as aggregate".into());
        };
        prop_assert_eq!(decoded, pkt);
    }

    /// The scatter-gather aggregate container is byte-identical to the
    /// copy-everything container spelled out field by field, for any
    /// entry mix and any staging threshold (the threshold only moves
    /// bytes between "staged" and "zero-copy", never changes the wire
    /// image), and its frame decodes to the entries it was built from.
    #[test]
    fn aggregate_parts_match_flat_container(entries in arb_entries(), threshold in 0usize..256) {
        let flat = Packet::Aggregate(Bytes::from(reference_container(&entries))).encode(7, 9, true);
        let agg = built(&entries, threshold).finish_parts();
        prop_assert_eq!(
            agg.staged_bytes + agg.zero_copy_bytes + nmad_wire::agg::CONTAINER_OVERHEAD
                + nmad_wire::agg::ENTRY_OVERHEAD * entries.len(),
            agg.container_len
        );
        let frame = encode_parts_frame(PacketKind::Aggregate, 7, 9, true, agg.parts, BytesMut::new());
        let image = frame.to_bytes();
        prop_assert_eq!(image.as_ref(), flat.as_slice());
        let (_, body, copied) = frame.decode().unwrap();
        prop_assert_eq!((body, copied), (FrameBody::Aggregate(entries), 0));
    }

    /// Any frame, aggregates included, cut into up to three parts anywhere
    /// decodes to what it decodes to whole, and `copied` is exactly the
    /// payload bytes a cut ran through.
    #[test]
    fn recut_frames_decode_alike(
        pkt in prop_oneof![
            arb_packet(),
            arb_entries().prop_map(|e| Packet::Aggregate(Bytes::from(reference_container(&e)))),
        ],
        cuts in (any::<usize>(), any::<usize>()),
        crc in any::<bool>(),
    ) {
        let wire = pkt.encode(3, 4, crc);
        let mut cuts = [cuts.0 % (wire.len() + 1), cuts.1 % (wire.len() + 1)];
        cuts.sort_unstable();
        assert_recut_decodes_alike(&wire, &cuts);
    }

    /// `ChunkHead::peek` finds on every prefix of any frame what the
    /// decoder finds in the whole of it.
    #[test]
    fn chunk_head_peek_agrees_with_decode_on_every_prefix(pkt in arb_packet(), conn in any::<u32>(), crc in any::<bool>()) {
        let wire = pkt.encode(conn, 1, crc);
        let head = match &pkt {
            Packet::Chunk(c) => Some(ChunkHead {
                conn_id: conn,
                msg_id: c.msg_id,
                seg_index: c.seg_index,
                offset: c.offset,
                total_len: c.total_len,
                len: c.data.len(),
            }),
            _ => None,
        };
        for cut in 0..=wire.len() {
            prop_assert_eq!(ChunkHead::peek(&wire[..cut]), Ok(head.filter(|_| cut >= ChunkHead::LEN)));
        }
    }

    /// Chunks sliced zero-copy out of a message (`Bytes::slice`), carried
    /// through frame encode/decode, reassemble to the exact original.
    #[test]
    fn zero_copy_chunks_reassemble(
        payload in prop::collection::vec(any::<u8>(), 1..8192),
        cuts in prop::collection::vec(any::<usize>(), 0..6),
        seed in any::<u64>(),
    ) {
        let original = Bytes::from(payload);
        let mut offsets: Vec<usize> = cuts.iter().map(|c| c % original.len()).collect();
        offsets.push(0);
        offsets.push(original.len());
        offsets.sort_unstable();
        offsets.dedup();
        let mut pieces: Vec<(u64, Bytes)> = offsets.windows(2)
            .map(|w| (w[0] as u64, original.slice(w[0]..w[1])))
            .collect();
        let mut rng = nmad_sim::Xoshiro256StarStar::new(seed);
        rng.shuffle(&mut pieces);

        let mut r = Reassembler::new();
        let mut done = None;
        for (i, (off, data)) in pieces.iter().enumerate() {
            let pkt = Packet::Chunk(ChunkPacket {
                msg_id: 42,
                seg_index: 0,
                total_segs: 1,
                offset: *off,
                total_len: original.len() as u64,
                chunk_index: i as u16,
                data: data.clone(),
            });
            let frame = pkt.encode_frame(3, i as u32, true);
            let (_, body, _) = frame.decode().unwrap();
            let FrameBody::Packet(Packet::Chunk(c)) = body else {
                return Err("chunk decoded as something else".into());
            };
            let res = r.insert_chunk(c.msg_id, c.seg_index, c.total_segs, c.offset,
                c.total_len, c.data).unwrap();
            if res.is_some() { done = r.take(42); }
        }
        // Encode and decode kept every chunk a slice of the original, so
        // the delivery is the original.
        let done = done.expect("must complete once all chunks arrive");
        prop_assert_eq!(done.segments[0].as_ptr(), original.as_ptr());
        prop_assert_eq!(done.into_contiguous(), original.as_ref());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Feeding completely arbitrary bytes to the decoder must never panic
    /// — it either errors or yields a structurally valid packet.
    #[test]
    fn decode_arbitrary_bytes_never_panics(raw in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Packet::decode(&raw);
    }

    /// Arbitrary bytes prefixed with a valid envelope header also must not
    /// panic (exercises the per-kind body decoders).
    #[test]
    fn decode_valid_envelope_arbitrary_body(kind in 1u8..=8, body in prop::collection::vec(any::<u8>(), 0..512), split in any::<usize>()) {
        let mut raw = Vec::new();
        raw.extend_from_slice(&0x4D4Eu16.to_le_bytes()); // magic
        raw.push(1); // version
        raw.push(kind);
        raw.extend_from_slice(&0u32.to_le_bytes()); // conn
        raw.extend_from_slice(&0u32.to_le_bytes()); // seq
        raw.extend_from_slice(&(body.len() as u32).to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes()); // crc (flag off)
        raw.extend_from_slice(&0u16.to_le_bytes()); // flags
        raw.extend_from_slice(&0u16.to_le_bytes()); // reserved
        raw.extend_from_slice(&body);
        // Whatever the flat decoder makes of it, the frame decoder makes
        // the same of it, whole and with a cut anywhere in the body
        // (a header cut short is `Truncated` for both, never a panic).
        let flat = Packet::decode(&raw).map(|(env, pkt)| (env, pkt.kind()));
        let wire = Bytes::from(raw);
        for cuts in [vec![], vec![24 + split % (body.len() + 1)]] {
            let framed = recut(&wire, &cuts).decode().map(|(env, body, _)| (env, match body {
                FrameBody::Packet(pkt) => pkt.kind(),
                FrameBody::Aggregate(_) => PacketKind::Aggregate,
            }));
            if kind == PacketKind::Aggregate as u8 {
                // (The flat decoder keeps a container opaque.)
                prop_assert!(flat.is_ok());
                continue;
            }
            prop_assert_eq!(&framed, &flat);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every CRC kernel the CPU supports (slicing-by-16 and, where
    /// detected, the PCLMUL fold) computes bit-identical checksums to the
    /// scalar reference over arbitrary bytes fed through arbitrary
    /// streaming splits — duplicate cut points deliberately produce empty
    /// parts. This is the contract that lets [`checksum::update`]
    /// dispatch to whichever kernel the CPU supports.
    #[test]
    fn crc_kernels_match_scalar_on_any_split(
        data in prop::collection::vec(any::<u8>(), 0..4096),
        cuts in prop::collection::vec(any::<usize>(), 0..8),
    ) {
        let mut offsets: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        offsets.push(0);
        offsets.push(data.len());
        offsets.sort_unstable();
        // No dedup: repeated offsets become zero-length parts, which the
        // streaming API must absorb without touching the state.
        let reference =
            checksum::crc32_finish(checksum::update_with(Kernel::Scalar, checksum::crc32_init(), &data));
        for kernel in checksum::available_kernels() {
            let mut state = checksum::crc32_init();
            for w in offsets.windows(2) {
                state = checksum::update_with(kernel, state, &data[w[0]..w[1]]);
            }
            prop_assert_eq!(
                checksum::crc32_finish(state), reference,
                "kernel {} diverged from scalar", kernel.name()
            );
        }
    }

    /// A 1-byte tail after the bulk body — the worst case for wide
    /// kernels' remainder handling — plus a trailing empty part matches
    /// the scalar whole-buffer answer for every kernel.
    #[test]
    fn crc_kernels_handle_one_byte_tails(data in prop::collection::vec(any::<u8>(), 1..1024)) {
        let split = data.len() - 1;
        let reference =
            checksum::crc32_finish(checksum::update_with(Kernel::Scalar, checksum::crc32_init(), &data));
        for kernel in checksum::available_kernels() {
            let mut state = checksum::crc32_init();
            state = checksum::update_with(kernel, state, &data[..split]);
            state = checksum::update_with(kernel, state, &data[split..]);
            state = checksum::update_with(kernel, state, &[]);
            prop_assert_eq!(
                checksum::crc32_finish(state), reference,
                "kernel {} mishandled a 1-byte tail", kernel.name()
            );
        }
    }
}
