//! Scatter-gather packet frames (the zero-copy datapath).
//!
//! [`Packet::encode`] flattens a packet into one contiguous buffer, which
//! costs a memcpy of every payload byte on the hot path. A [`PacketFrame`]
//! avoids that: it is a small owned *head* part (envelope + kind-specific
//! body header) followed by refcounted [`Bytes`] payload slices, i.e. an
//! iovec list. Runtimes that can gather (`write_vectored`, the simulator's
//! modelled DMA, the in-process fabric) transmit the parts directly; the
//! byte stream on the wire is identical to the flat encoding
//! ([`Packet::encode_frame`] and [`Packet::encode`] produce the same
//! image, property-tested in `tests/proptests.rs`).
//!
//! Copy discipline (see DESIGN.md "Datapath and copy discipline"):
//!
//! * encode never copies payload bytes — they ride as slices of the
//!   application's segment buffers;
//! * the only allowed tx-side staging copy is sub-PIO aggregation
//!   ([`crate::agg::AggregateBuilder::finish_parts`]);
//! * decode ([`PacketFrame::decode`]) slices payloads out of the frame
//!   parts without copying; it copies only when a field straddles a part
//!   boundary, and reports how many bytes that cost.

use bytes::{BufMut, Bytes, BytesMut};

use crate::agg::{parse_entries, AggregateEntry};
use crate::checksum::{crc32_finish, crc32_init, update};
use crate::codec::Source;
use crate::error::WireError;
use crate::header::{
    check_crc, open_envelope, Envelope, EnvelopeHdr, Packet, PacketKind, ENVELOPE_LEN,
};
use crate::small::SmallList;
use crate::ConnId;

/// Parts stored inline in a [`PartList`] before spilling to the heap.
/// Covers the common frames (head + payload, or head + a few aggregate
/// runs) without allocating.
pub const INLINE_PARTS: usize = 4;

/// The parts of a frame: a [`SmallList`] that never holds an empty part.
/// `Bytes::new()` is allocation-free, so an empty list costs nothing.
#[derive(Clone, Default)]
pub struct PartList(SmallList<Bytes, INLINE_PARTS>);

impl PartList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no parts were pushed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Append a part. Empty parts are skipped — they carry no wire bytes.
    pub fn push(&mut self, part: Bytes) {
        if !part.is_empty() {
            self.0.push(part);
        }
    }

    fn extend(&mut self, parts: impl IntoIterator<Item = Bytes>) {
        parts.into_iter().for_each(|p| self.push(p));
    }

    /// The `i`-th part.
    pub fn get(&self, i: usize) -> Option<&Bytes> {
        self.0.get(i)
    }

    fn get_mut(&mut self, i: usize) -> Option<&mut Bytes> {
        self.0.get_mut(i)
    }

    /// Iterate over the parts.
    pub fn iter(&self) -> impl Iterator<Item = &Bytes> + Clone + '_ {
        self.0.iter()
    }

    /// Total bytes across parts.
    pub fn total_len(&self) -> usize {
        self.iter().map(|p| p.len()).sum()
    }
}

impl std::fmt::Debug for PartList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|p| p.len()))
            .finish()
    }
}

/// One physical packet as a scatter-gather list.
///
/// Invariants:
///
/// * the concatenation of the parts is exactly the wire image the flat
///   encoder would produce — `wire_len()` equals that total;
/// * part 0 (when present) starts with the 24-byte envelope;
/// * an empty frame (`PacketFrame::empty()`) has **zero** parts and a
///   `wire_len()` of 0 — placeholder frames must never contribute phantom
///   bytes to buffer or copy accounting.
#[derive(Clone, Default)]
pub struct PacketFrame {
    parts: PartList,
    wire_len: usize,
}

impl PacketFrame {
    /// A frame with no parts and zero wire length (the placeholder for
    /// "no packet"; never counts any bytes).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Wrap an already-contiguous wire image as a single-part frame
    /// (receive side: a frame split out of a socket ring, or a legacy
    /// flat encoding).
    pub fn from_wire(wire: Bytes) -> Self {
        let wire_len = wire.len();
        let mut parts = PartList::new();
        parts.push(wire);
        PacketFrame { parts, wire_len }
    }

    /// Assemble a frame from an envelope head and body parts. `head` must
    /// start with the envelope; the caller is responsible for field
    /// consistency (this is the low-level constructor used by the
    /// encoders and fault injection).
    pub fn from_parts(head: Bytes, mut body: PartList) -> Self {
        let wire_len = head.len() + body.total_len();
        if !head.is_empty() {
            body.0.insert(0, head);
        }
        PacketFrame {
            parts: body,
            wire_len,
        }
    }

    /// Total bytes this frame occupies on the wire.
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// True when the frame has no parts (the `empty()` placeholder).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Number of scatter-gather parts.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// The `i`-th part.
    pub fn part(&self, i: usize) -> Option<&Bytes> {
        self.parts.get(i)
    }

    /// Iterate over the parts (iovec order).
    pub fn parts(&self) -> impl Iterator<Item = &Bytes> + Clone + '_ {
        self.parts.iter()
    }

    /// The head part (envelope + body header), if any. Kept by the engine
    /// so its buffer can be reclaimed into the pool at tx completion.
    pub fn head(&self) -> Option<&Bytes> {
        self.parts.get(0)
    }

    /// Locate the part containing global byte offset `idx`, returning
    /// `(part_index, offset_within_part)`.
    pub fn locate(&self, idx: usize) -> Option<(usize, usize)> {
        let mut base = 0;
        for (i, p) in self.parts.iter().enumerate() {
            if idx < base + p.len() {
                return Some((i, idx - base));
            }
            base += p.len();
        }
        None
    }

    /// Replace part `i` with an equal-length buffer (fault injection:
    /// copy-on-write corruption of a single part without flattening the
    /// frame or mutating buffers shared with the sender).
    pub fn replace_part(&mut self, i: usize, part: Bytes) {
        let slot = self.parts.get_mut(i).expect("part index in range");
        assert_eq!(slot.len(), part.len(), "replacement must keep wire length");
        *slot = part;
    }

    /// Flatten into one contiguous buffer. Zero-copy when the frame is
    /// already a single part; otherwise copies `wire_len()` bytes (compat
    /// path — the hot paths transmit the parts directly).
    pub fn to_bytes(&self) -> Bytes {
        match self.parts.len() {
            0 => Bytes::new(),
            1 => self.parts.get(0).expect("one part").clone(),
            _ => {
                let mut buf = BytesMut::with_capacity(self.wire_len);
                for p in self.parts.iter() {
                    buf.extend_from_slice(p);
                }
                buf.freeze()
            }
        }
    }

    /// Decode the frame without flattening it.
    ///
    /// Payload bytes are sliced out of the frame parts (refcounted, no
    /// copy) whenever a field lies within one part — which is always the
    /// case for frames built by the vectored encoder and for single-part
    /// frames. The `usize` in the result is the number of payload bytes
    /// that *were* copied because they straddled a part boundary, so the
    /// engine can account for them.
    pub fn decode(&self) -> Result<(Envelope, FrameBody, usize), WireError> {
        let mut entries = Vec::new();
        let (envelope, packet, copied) = self.decode_with(&mut entries)?;
        let body = packet.map_or(FrameBody::Aggregate(entries), FrameBody::Packet);
        Ok((envelope, body, copied))
    }

    /// [`Self::decode`] for a receiver that keeps one entry list between
    /// frames: an aggregate's entries are appended to `entries` and the
    /// packet is `None`. (After an error `entries` may hold the ones read
    /// before it.)
    pub fn decode_with(
        &self,
        entries: &mut Vec<AggregateEntry>,
    ) -> Result<(Envelope, Option<Packet>, usize), WireError> {
        let mut r = SgReader::new(self, "envelope");
        let (envelope, crc) = open_envelope(&mut r)?;
        check_crc(crc, || r.crc_of_rest())?;
        r.what = "packet body";
        // Entries are parsed straight out of the parts, so aggregate
        // payloads stay zero-copy on the receive side too.
        let packet = match envelope.kind {
            PacketKind::Aggregate => {
                parse_entries(&mut r, entries)?;
                None
            }
            kind => Some(Packet::decode_body(kind, &mut r)?),
        };
        r.expect_end()?;
        Ok((envelope, packet, r.copied()))
    }
}

impl std::fmt::Debug for PacketFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PacketFrame({}B, parts {:?})", self.wire_len, self.parts)
    }
}

/// A decoded frame body. Aggregates come back as their entries directly
/// (parsed zero-copy from the parts) instead of an opaque re-flattened
/// container.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameBody {
    /// Any non-aggregate packet.
    Packet(Packet),
    /// Aggregate container entries, in wire order.
    Aggregate(Vec<AggregateEntry>),
}

/// Bounds-checked cursor over the parts of a [`PacketFrame`] (the
/// scatter-gather analogue of [`crate::codec::Reader`]).
pub struct SgReader<'a> {
    frame: &'a PacketFrame,
    /// The part being read, its index, and what is left of it.
    part: usize,
    current: &'a Bytes,
    rest: &'a [u8],
    consumed: usize,
    copied: usize,
    what: &'static str,
}

impl<'a> SgReader<'a> {
    /// Cursor at the start of `frame`, labelled `what` for diagnostics.
    pub fn new(frame: &'a PacketFrame, what: &'static str) -> Self {
        const NONE: &Bytes = &Bytes::new();
        let current = frame.part(0).unwrap_or(NONE);
        SgReader {
            frame,
            part: 0,
            current,
            rest: current.as_slice(),
            consumed: 0,
            copied: 0,
            what,
        }
    }

    /// Payload bytes copied so far because they straddled part boundaries.
    pub fn copied(&self) -> usize {
        self.copied
    }

    /// What is left of the first part that has anything left.
    fn current(&mut self) -> &'a [u8] {
        while self.rest.is_empty() {
            let Some(next) = self.frame.part(self.part + 1) else {
                break;
            };
            self.part += 1;
            self.current = next;
            self.rest = next.as_slice();
        }
        self.rest
    }

    fn advance(&mut self, n: usize) {
        self.rest = &self.rest[n..];
        self.consumed += n;
    }

    /// The one path for what straddles a part boundary.
    fn read_exact(&mut self, dst: &mut [u8]) -> Result<(), WireError> {
        if self.remaining() < dst.len() {
            return Err(WireError::Truncated {
                what: self.what,
                needed: dst.len(),
                available: self.remaining(),
            });
        }
        let mut filled = 0;
        while filled < dst.len() {
            let cur = self.current();
            let n = cur.len().min(dst.len() - filled);
            dst[filled..filled + n].copy_from_slice(&cur[..n]);
            self.advance(n);
            filled += n;
        }
        Ok(())
    }

    /// CRC-32 of everything after the cursor, without consuming it.
    pub fn crc_of_rest(&self) -> u32 {
        let later = self.frame.parts().skip(self.part + 1);
        let state = later.fold(update(crc32_init(), self.rest), |s, p| update(s, p));
        crc32_finish(state)
    }
}

impl Source for SgReader<'_> {
    fn remaining(&self) -> usize {
        self.frame.wire_len() - self.consumed
    }

    /// Straight out of the current part when the header lies within it.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        if let Some(&head) = self.current().first_chunk() {
            self.advance(N);
            return Ok(head);
        }
        let mut head = [0u8; N];
        self.read_exact(&mut head)?;
        Ok(head)
    }

    /// Zero-copy (a refcounted slice of the current part) when the range
    /// lies within one part; copies — and counts the copy — only when it
    /// straddles parts.
    #[inline]
    fn bytes(&mut self, n: usize) -> Result<Bytes, WireError> {
        if n == 0 {
            return Ok(Bytes::new());
        }
        if self.current().len() >= n {
            let off = self.current.len() - self.rest.len();
            let b = self.current.slice(off..off + n);
            self.advance(n);
            return Ok(b);
        }
        let mut out = vec![0u8; n];
        self.read_exact(&mut out)?;
        self.copied += n;
        Ok(Bytes::from(out))
    }
}

/// Streaming CRC over a packet's body: what `head` holds of it, then
/// every body part.
fn crc_over(head: &[u8], body: &PartList) -> u32 {
    let state = body
        .iter()
        .fold(update(crc32_init(), head), |s, p| update(s, p));
    crc32_finish(state)
}

impl Packet {
    /// Vectored encoder: build a [`PacketFrame`] whose parts concatenate
    /// to exactly the bytes [`Packet::encode`] would produce, without
    /// copying any payload — the packet's data moves into the frame as
    /// the refcounted slice it is.
    ///
    /// `head` is the buffer the envelope and body header are written into
    /// (hand a pooled buffer here to keep the hot path allocation-free; it
    /// is cleared first).
    pub fn encode_frame_into(
        self,
        conn_id: ConnId,
        seq: u32,
        with_crc: bool,
        mut head: BytesMut,
    ) -> PacketFrame {
        let (kind, wire_len) = (self.kind(), self.wire_len());
        head.clear();
        head.put_slice(&[0; ENVELOPE_LEN]);
        self.write_head(&mut head);
        let payload = self.into_payload().filter(|p| !p.is_empty());
        let crc = with_crc.then(|| {
            let state = update(crc32_init(), &head[ENVELOPE_LEN..]);
            crc32_finish(payload.iter().fold(state, |s, p| update(s, p)))
        });
        let envelope = EnvelopeHdr::new(kind, conn_id, seq, wire_len - ENVELOPE_LEN, crc);
        head[..ENVELOPE_LEN].copy_from_slice(&envelope.write());
        // (Part 0, the head, is never empty: it holds the envelope.)
        let mut parts = PartList::new();
        parts.push(head.freeze());
        parts.extend(payload);
        PacketFrame { parts, wire_len }
    }

    /// Vectored encoder with a fresh head buffer (see
    /// [`Packet::encode_frame_into`]).
    pub fn encode_frame(&self, conn_id: ConnId, seq: u32, with_crc: bool) -> PacketFrame {
        let head_len = ENVELOPE_LEN + 40;
        let head = BytesMut::with_capacity(head_len);
        self.clone().encode_frame_into(conn_id, seq, with_crc, head)
    }
}

/// Build a frame around pre-encoded body parts (the aggregate path: the
/// builder produces interleaved staged runs and zero-copy payload slices;
/// this wraps them in an envelope without re-encoding anything).
pub fn encode_parts_frame(
    kind: PacketKind,
    conn_id: ConnId,
    seq: u32,
    with_crc: bool,
    body: PartList,
    mut head: BytesMut,
) -> PacketFrame {
    head.clear();
    let crc = with_crc.then(|| crc_over(&[], &body));
    head.put_slice(&EnvelopeHdr::new(kind, conn_id, seq, body.total_len(), crc).write());
    PacketFrame::from_parts(head.freeze(), body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{AckPacket, ChunkHead, ChunkPacket, EagerPacket, SamplePacket};

    fn eager(data: &[u8]) -> Packet {
        Packet::Eager(EagerPacket {
            msg_id: 7,
            seg_index: 1,
            total_segs: 3,
            data: Bytes::copy_from_slice(data),
        })
    }

    #[test]
    fn empty_frame_has_no_phantom_bytes() {
        let f = PacketFrame::empty();
        assert_eq!(f.wire_len(), 0);
        assert_eq!(f.num_parts(), 0);
        assert!(f.is_empty());
        assert_eq!(f.to_bytes().len(), 0);
    }

    #[test]
    fn vectored_matches_flat_for_all_kinds() {
        let pkts = vec![
            eager(b"hello"),
            eager(b""),
            Packet::Ack(AckPacket { msg_id: 12 }),
            Packet::RdvRequest(crate::header::RdvRequest {
                msg_id: 5,
                seg_index: 2,
                total_segs: 4,
                total_len: 1 << 20,
            }),
            Packet::RdvAck(crate::header::RdvAck {
                msg_id: 5,
                seg_index: 2,
            }),
            Packet::Chunk(ChunkPacket {
                msg_id: 9,
                seg_index: 0,
                total_segs: 1,
                offset: 512,
                total_len: 4096,
                chunk_index: 1,
                data: Bytes::from(vec![0xEE; 256]),
            }),
            Packet::SamplePing(SamplePacket {
                probe_id: 3,
                data: Bytes::from(vec![1; 64]),
            }),
        ];
        for pkt in pkts {
            for crc in [false, true] {
                let flat = pkt.encode(11, 42, crc);
                let frame = pkt.encode_frame(11, 42, crc);
                assert_eq!(frame.wire_len(), flat.len());
                assert_eq!(&frame.to_bytes()[..], &flat[..], "{pkt:?} crc={crc}");
            }
        }
    }

    #[test]
    fn payload_part_shares_storage_with_source() {
        let data = Bytes::from(vec![0xAB; 1024]);
        let pkt = Packet::Eager(EagerPacket {
            msg_id: 1,
            seg_index: 0,
            total_segs: 1,
            data: data.clone(),
        });
        let frame = pkt.encode_frame(0, 0, true);
        assert_eq!(frame.num_parts(), 2);
        let payload = frame.part(1).unwrap();
        assert_eq!(payload.as_slice().as_ptr(), data.as_slice().as_ptr());
    }

    #[test]
    fn decode_yields_zero_copy_slices() {
        let pkt = eager(b"zero copy payload");
        let frame = pkt.encode_frame(2, 3, true);
        let (env, body, copied) = frame.decode().unwrap();
        assert_eq!(env.conn_id, 2);
        assert_eq!(env.seq, 3);
        assert!(env.crc_checked);
        assert_eq!(copied, 0, "aligned frame must decode without copying");
        assert_eq!(body, FrameBody::Packet(pkt));
    }

    #[test]
    fn decode_single_part_wire_matches_flat_decode() {
        let pkt = eager(b"via the flat path");
        let flat = pkt.encode(4, 5, true);
        let frame = PacketFrame::from_wire(flat.clone());
        let (env, body, copied) = frame.decode().unwrap();
        let (env2, pkt2) = Packet::decode(&flat).unwrap();
        assert_eq!(env, env2);
        assert_eq!(body, FrameBody::Packet(pkt2));
        assert_eq!(copied, 0, "single-part frames never straddle");
    }

    #[test]
    fn decode_detects_corruption() {
        let pkt = eager(&[7u8; 64]);
        let frame = pkt.encode_frame(0, 0, true);
        let payload = frame.part(1).unwrap();
        let mut raw = BytesMut::new();
        raw.extend_from_slice(payload);
        raw[10] ^= 0x01;
        let mut bad = frame.clone();
        bad.replace_part(1, raw.freeze());
        assert!(matches!(bad.decode(), Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn straddling_read_copies_and_counts() {
        // Hand-build a frame whose payload straddles two parts.
        let pkt = eager(b"abcdefgh");
        let flat = pkt.encode(0, 0, false);
        let head = flat.slice(..flat.len() - 4);
        let mut body = PartList::new();
        body.push(flat.slice(flat.len() - 4..));
        let frame = PacketFrame::from_parts(head, body);
        assert_eq!(frame.wire_len(), flat.len());
        let (_, body, copied) = frame.decode().unwrap();
        assert_eq!(copied, 8, "straddling payload must be copied and counted");
        let FrameBody::Packet(Packet::Eager(e)) = body else {
            panic!("wrong body")
        };
        assert_eq!(&e.data[..], b"abcdefgh");
    }

    fn chunk(offset: u64, total_len: u64, data: Vec<u8>) -> Packet {
        Packet::Chunk(ChunkPacket {
            msg_id: 9,
            seg_index: 2,
            total_segs: 3,
            offset,
            total_len,
            chunk_index: 1,
            data: Bytes::from(data),
        })
    }

    /// `offset + len` comes off the wire: a CRC-valid chunk whose extent
    /// overflows `u64` is a `BadLength` in both decoders and in the head
    /// peek, not an overflow panic (debug) or a wrapped sum that passes
    /// the extent check (release).
    #[test]
    fn chunk_extent_overflow_is_an_error_not_a_panic() {
        let pkt = chunk(u64::MAX - 10, u64::MAX, vec![7; 32]);
        let bad = |r: Result<(), WireError>| {
            assert!(
                matches!(
                    r,
                    Err(WireError::BadLength {
                        what: "chunk extent",
                        value: u64::MAX
                    })
                ),
                "{r:?}"
            )
        };
        for crc in [false, true] {
            let flat = pkt.encode(4, 5, crc);
            bad(Packet::decode(&flat).map(drop));
            bad(PacketFrame::from_wire(flat.clone()).decode().map(drop));
            bad(pkt.encode_frame(4, 5, crc).decode().map(drop));
            bad(ChunkHead::peek(&flat).map(drop));
        }
        // One byte less and the sum fits, but runs past `total_len`.
        let pkt = chunk(u64::MAX - 32, u64::MAX - 1, vec![7; 32]);
        assert!(matches!(
            ChunkHead::peek(&pkt.encode(4, 5, true)),
            Err(WireError::BadLength {
                value: u64::MAX,
                ..
            })
        ));
    }

    /// The peeked head is what the full decode finds, from exactly
    /// `ChunkHead::LEN` bytes on; before that, and for every other kind,
    /// there is no head — and `possible` only says no once the kind byte
    /// is there and is another kind's.
    #[test]
    fn chunk_head_peek_agrees_with_decode() {
        let pkt = chunk(512, 4096, vec![0xEE; 256]);
        let frame = pkt.encode_frame(11, 42, true);
        assert_eq!(frame.head().map(Bytes::len), Some(ChunkHead::LEN));
        let flat = frame.to_bytes();
        let want = ChunkHead {
            conn_id: 11,
            msg_id: 9,
            seg_index: 2,
            offset: 512,
            total_len: 4096,
            len: 256,
        };
        for cut in 0..=flat.len() {
            let head = ChunkHead::peek(&flat[..cut]).expect("well-formed");
            assert_eq!(head, (cut >= ChunkHead::LEN).then_some(want), "at {cut}");
            assert!(cut == 0 || ChunkHead::possible(&flat[..cut]), "at {cut}");
        }
        let data = eager(&[1; 100]).encode(11, 42, true);
        assert_eq!(ChunkHead::peek(&data), Ok(None));
        assert!(ChunkHead::possible(&data[..3]) && !ChunkHead::possible(&data[..4]));
        // Another wire version's chunk is not ours to place.
        let mut other = flat.to_vec();
        other[2] ^= 0xFF;
        assert_eq!(ChunkHead::peek(&other), Ok(None));
    }

    #[test]
    fn locate_and_replace_part() {
        let pkt = eager(b"xyzw");
        let frame = pkt.encode_frame(0, 0, false);
        let head_len = frame.part(0).unwrap().len();
        assert_eq!(frame.locate(0), Some((0, 0)));
        assert_eq!(frame.locate(head_len), Some((1, 0)));
        assert_eq!(frame.locate(head_len + 3), Some((1, 3)));
        assert_eq!(frame.locate(frame.wire_len()), None);
    }

    #[test]
    fn part_list_spills_past_inline() {
        let mut l = PartList::new();
        for i in 0..INLINE_PARTS + 3 {
            l.push(Bytes::from(vec![i as u8; i + 1]));
        }
        assert_eq!(l.len(), INLINE_PARTS + 3);
        for (i, p) in l.iter().enumerate() {
            assert_eq!(p.len(), i + 1);
        }
        assert_eq!(l.total_len(), (1..=INLINE_PARTS + 3).sum::<usize>());
    }

    #[test]
    fn empty_parts_are_skipped() {
        let mut l = PartList::new();
        l.push(Bytes::new());
        l.push(Bytes::from_static(b"x"));
        l.push(Bytes::new());
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn truncated_frame_rejected() {
        let pkt = eager(&[1u8; 32]);
        let flat = pkt.encode(0, 0, true);
        for cut in [0, 5, ENVELOPE_LEN - 1, ENVELOPE_LEN + 3, flat.len() - 1] {
            let f = PacketFrame::from_wire(flat.slice(..cut));
            assert!(f.decode().is_err(), "cut at {cut} must fail");
        }
    }
}
