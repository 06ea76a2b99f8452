//! Property-based tests for the wire format invariants.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

use nmad_wire::agg::{parse_aggregate, AggregateBuilder, AggregateEntry};
use nmad_wire::checksum::{self, Kernel};
use nmad_wire::frame::encode_parts_frame;
use nmad_wire::header::{
    AckPacket, ChunkPacket, EagerPacket, Packet, PacketKind, RdvAck, RdvRequest, SamplePacket,
};
use nmad_wire::reassembly::Reassembler;
use nmad_wire::split::SplitPlan;
use nmad_wire::FrameBody;

fn arb_bytes(max: usize) -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
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
    fn aggregate_roundtrip(entries in prop::collection::vec(
        (any::<u64>(), any::<u16>(), 1..32u16, arb_bytes(128)), 1..20)) {
        let mut b = AggregateBuilder::new();
        let mut expect = Vec::new();
        for (msg_id, seg_raw, total_segs, data) in entries {
            let e = AggregateEntry { conn_id: (msg_id >> 32) as u32, msg_id, seg_index: seg_raw % total_segs, total_segs, data };
            expect.push(e.clone());
            b.push(e);
        }
        let Packet::Aggregate(body) = b.finish() else { unreachable!() };
        let parsed = parse_aggregate(&body).unwrap();
        prop_assert_eq!(parsed, expect);
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
                done = res;
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
                done = msg;
                break;
            }
        }
        prop_assert_eq!(stored, total as u64);
        prop_assert_eq!(done.expect("every byte arrived").into_contiguous(), payload);
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
                done = msg;
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
        let done = done.expect("the last chunk completes it");
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
    /// legacy copy-everything container for any entry mix and any staging
    /// threshold (the threshold only moves bytes between "staged" and
    /// "zero-copy", never changes the wire image).
    #[test]
    fn aggregate_parts_match_flat_container(
        entries in prop::collection::vec(
            (any::<u64>(), any::<u16>(), 1..32u16, arb_bytes(128)), 1..20),
        threshold in 0usize..256,
    ) {
        let mut flat_b = AggregateBuilder::new();
        let mut parts_b = AggregateBuilder::new();
        for (msg_id, seg_raw, total_segs, data) in entries {
            let e = AggregateEntry {
                conn_id: (msg_id >> 32) as u32,
                msg_id,
                seg_index: seg_raw % total_segs,
                total_segs,
                data,
            };
            flat_b.push(e.clone());
            parts_b.push(e);
        }
        let flat_pkt = flat_b.finish();
        let flat = flat_pkt.encode(7, 9, true);
        let agg = parts_b.finish_parts(threshold, BytesMut::new());
        prop_assert_eq!(
            agg.staged_bytes + agg.zero_copy_bytes + nmad_wire::agg::CONTAINER_OVERHEAD
                + nmad_wire::agg::ENTRY_OVERHEAD * agg_entry_count(&flat),
            agg.container_len
        );
        let frame = encode_parts_frame(PacketKind::Aggregate, 7, 9, true, agg.parts, BytesMut::new());
        let image = frame.to_bytes();
        prop_assert_eq!(image.as_ref(), flat.as_slice());
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
            if let Some(d) = res { done = Some(d); }
        }
        // Encode and decode kept every chunk a slice of the original, so
        // the delivery is the original.
        let done = done.expect("must complete once all chunks arrive");
        prop_assert_eq!(done.segments[0].as_ptr(), original.as_ptr());
        prop_assert_eq!(done.into_contiguous(), original.as_ref());
    }
}

/// Entry count of a flat-encoded aggregate packet (for the length identity).
fn agg_entry_count(wire: &[u8]) -> usize {
    // Envelope is 24 bytes; the container starts with a u16 entry count.
    u16::from_le_bytes(wire[24..26].try_into().unwrap()) as usize
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
    fn decode_valid_envelope_arbitrary_body(kind in 1u8..=8, body in prop::collection::vec(any::<u8>(), 0..512)) {
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
        let _ = Packet::decode(&raw);
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
