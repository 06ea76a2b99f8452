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

use crate::agg::AggregateEntry;
use crate::checksum::{crc32_finish, crc32_init, update};
use crate::error::WireError;
use crate::header::{Envelope, Packet, PacketKind, ENVELOPE_LEN, FLAG_CRC, MAGIC, VERSION};
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
    pub fn from_parts(head: Bytes, body: PartList) -> Self {
        let mut parts = PartList::new();
        let mut wire_len = head.len();
        parts.push(head);
        for p in body.0 {
            wire_len += p.len();
            parts.push(p);
        }
        PacketFrame { parts, wire_len }
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
        let mut r = SgReader::new(self, "envelope");
        let magic = r.u16()?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = PacketKind::from_u8(r.u8()?)?;
        let conn_id = r.u32()?;
        let seq = r.u32()?;
        let payload_len = r.u32()? as usize;
        let crc = r.u32()?;
        let flags = r.u16()?;
        let _reserved = r.u16()?;
        if r.remaining() < payload_len {
            return Err(WireError::Truncated {
                what: "packet payload",
                needed: payload_len,
                available: r.remaining(),
            });
        }
        if r.remaining() > payload_len {
            return Err(WireError::TrailingBytes(r.remaining() - payload_len));
        }
        let crc_checked = flags & FLAG_CRC != 0;
        if crc_checked {
            let computed = r.crc_of_rest();
            if computed != crc {
                return Err(WireError::BadChecksum {
                    computed,
                    expected: crc,
                });
            }
        }
        r.what = "packet body";
        let body = Self::decode_body_sg(kind, &mut r)?;
        r.expect_end()?;
        Ok((
            Envelope {
                conn_id,
                seq,
                kind,
                crc_checked,
            },
            body,
            r.copied(),
        ))
    }

    fn decode_body_sg(kind: PacketKind, r: &mut SgReader<'_>) -> Result<FrameBody, WireError> {
        use crate::header::{
            AckPacket, ChunkPacket, EagerPacket, RdvAck, RdvRequest, SamplePacket,
        };
        let pkt = match kind {
            PacketKind::Eager => {
                let msg_id = r.u64()?;
                let seg_index = r.u16()?;
                let total_segs = r.u16()?;
                let len = r.u32()? as usize;
                let data = r.bytes(len)?;
                Packet::Eager(EagerPacket {
                    msg_id,
                    seg_index,
                    total_segs,
                    data,
                })
            }
            PacketKind::Aggregate => {
                // Parse entries straight out of the parts so aggregate
                // payloads stay zero-copy on the receive side too.
                let count = r.u16()? as usize;
                if count == 0 {
                    return Err(WireError::BadLength {
                        what: "aggregate count",
                        value: 0,
                    });
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let conn_id = r.u32()?;
                    let msg_id = r.u64()?;
                    let seg_index = r.u16()?;
                    let total_segs = r.u16()?;
                    let len = r.u32()? as usize;
                    let data = r.bytes(len)?;
                    entries.push(AggregateEntry {
                        conn_id,
                        msg_id,
                        seg_index,
                        total_segs,
                        data,
                    });
                }
                return Ok(FrameBody::Aggregate(entries));
            }
            PacketKind::RdvRequest => Packet::RdvRequest(RdvRequest {
                msg_id: r.u64()?,
                seg_index: r.u16()?,
                total_segs: r.u16()?,
                total_len: r.u64()?,
            }),
            PacketKind::RdvAck => Packet::RdvAck(RdvAck {
                msg_id: r.u64()?,
                seg_index: r.u16()?,
            }),
            PacketKind::Chunk => {
                let msg_id = r.u64()?;
                let seg_index = r.u16()?;
                let total_segs = r.u16()?;
                let offset = r.u64()?;
                let total_len = r.u64()?;
                let chunk_index = r.u16()?;
                let len = r.u32()? as usize;
                crate::header::chunk_extent(offset, len, total_len)?;
                let data = r.bytes(len)?;
                Packet::Chunk(ChunkPacket {
                    msg_id,
                    seg_index,
                    total_segs,
                    offset,
                    total_len,
                    chunk_index,
                    data,
                })
            }
            PacketKind::Ack => Packet::Ack(AckPacket { msg_id: r.u64()? }),
            PacketKind::SamplePing | PacketKind::SamplePong => {
                let probe_id = r.u64()?;
                let len = r.u32()? as usize;
                let data = r.bytes(len)?;
                let p = SamplePacket { probe_id, data };
                if kind == PacketKind::SamplePing {
                    Packet::SamplePing(p)
                } else {
                    Packet::SamplePong(p)
                }
            }
        };
        Ok(FrameBody::Packet(pkt))
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
    part: usize,
    off: usize,
    consumed: usize,
    copied: usize,
    what: &'static str,
}

impl<'a> SgReader<'a> {
    /// Cursor at the start of `frame`, labelled `what` for diagnostics.
    pub fn new(frame: &'a PacketFrame, what: &'static str) -> Self {
        SgReader {
            frame,
            part: 0,
            off: 0,
            consumed: 0,
            copied: 0,
            what,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.frame.wire_len() - self.consumed
    }

    /// Payload bytes copied so far because they straddled part boundaries.
    pub fn copied(&self) -> usize {
        self.copied
    }

    fn skip_exhausted(&mut self) {
        while let Some(p) = self.frame.part(self.part) {
            if self.off < p.len() {
                break;
            }
            self.part += 1;
            self.off = 0;
        }
    }

    fn short(&self, needed: usize) -> WireError {
        WireError::Truncated {
            what: self.what,
            needed,
            available: self.remaining(),
        }
    }

    fn read_exact(&mut self, dst: &mut [u8]) -> Result<(), WireError> {
        if self.remaining() < dst.len() {
            return Err(self.short(dst.len()));
        }
        let mut filled = 0;
        while filled < dst.len() {
            self.skip_exhausted();
            let p = self.frame.part(self.part).expect("remaining checked");
            let n = (p.len() - self.off).min(dst.len() - filled);
            dst[filled..filled + n].copy_from_slice(&p[self.off..self.off + n]);
            self.off += n;
            self.consumed += n;
            filled += n;
        }
        Ok(())
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b)?;
        Ok(b[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let mut b = [0u8; 2];
        self.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Read `n` bytes. Zero-copy (a refcounted slice of the current part)
    /// when the range lies within one part; copies — and counts the copy —
    /// only when it straddles parts.
    pub fn bytes(&mut self, n: usize) -> Result<Bytes, WireError> {
        if n == 0 {
            return Ok(Bytes::new());
        }
        if self.remaining() < n {
            return Err(self.short(n));
        }
        self.skip_exhausted();
        let p = self.frame.part(self.part).expect("remaining checked");
        if p.len() - self.off >= n {
            let b = p.slice(self.off..self.off + n);
            self.off += n;
            self.consumed += n;
            return Ok(b);
        }
        let mut out = vec![0u8; n];
        self.read_exact(&mut out)?;
        self.copied += n;
        Ok(Bytes::from(out))
    }

    /// CRC-32 of everything after the cursor, without consuming it.
    pub fn crc_of_rest(&self) -> u32 {
        let mut state = crc32_init();
        let mut part = self.part;
        let mut off = self.off;
        while let Some(p) = self.frame.part(part) {
            if off < p.len() {
                state = update(state, &p[off..]);
            }
            part += 1;
            off = 0;
        }
        crc32_finish(state)
    }

    /// Fail if any bytes remain.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Write the fixed envelope into `head`. `crc` may be a placeholder that
/// is patched after the body is known (see [`patch_crc`]).
fn write_envelope(
    head: &mut BytesMut,
    kind: PacketKind,
    conn_id: ConnId,
    seq: u32,
    payload_len: usize,
    with_crc: bool,
) {
    head.put_u16_le(MAGIC);
    head.put_u8(VERSION);
    head.put_u8(kind as u8);
    head.put_u32_le(conn_id);
    head.put_u32_le(seq);
    head.put_u32_le(payload_len as u32);
    head.put_u32_le(0); // crc, patched below when enabled
    head.put_u16_le(if with_crc { FLAG_CRC } else { 0 });
    head.put_u16_le(0); // reserved
}

/// Patch the envelope's crc field in place (offset 16..20).
fn patch_crc(head: &mut BytesMut, crc: u32) {
    head[16..20].copy_from_slice(&crc.to_le_bytes());
}

/// Streaming CRC over the body: the head's bytes past the envelope, then
/// every body part.
fn crc_over(head: &BytesMut, body: &PartList) -> u32 {
    let mut state = crc32_init();
    state = update(state, &head[ENVELOPE_LEN..]);
    for p in body.iter() {
        state = update(state, p);
    }
    crc32_finish(state)
}

impl Packet {
    /// Vectored encoder: build a [`PacketFrame`] whose parts concatenate
    /// to exactly the bytes [`Packet::encode`] would produce, without
    /// copying any payload — data rides as refcounted slices.
    ///
    /// `head` is the buffer the envelope and body header are written into
    /// (hand a pooled buffer here to keep the hot path allocation-free; it
    /// is cleared first).
    pub fn encode_frame_into(
        &self,
        conn_id: ConnId,
        seq: u32,
        with_crc: bool,
        mut head: BytesMut,
    ) -> PacketFrame {
        head.clear();
        let payload_len = self.wire_len() - ENVELOPE_LEN;
        write_envelope(&mut head, self.kind(), conn_id, seq, payload_len, with_crc);
        let mut body = PartList::new();
        match self {
            Packet::Eager(p) => {
                head.put_u64_le(p.msg_id);
                head.put_u16_le(p.seg_index);
                head.put_u16_le(p.total_segs);
                head.put_u32_le(p.data.len() as u32);
                body.push(p.data.clone());
            }
            Packet::Aggregate(b) => {
                body.push(b.clone());
            }
            Packet::RdvRequest(p) => {
                head.put_u64_le(p.msg_id);
                head.put_u16_le(p.seg_index);
                head.put_u16_le(p.total_segs);
                head.put_u64_le(p.total_len);
            }
            Packet::RdvAck(p) => {
                head.put_u64_le(p.msg_id);
                head.put_u16_le(p.seg_index);
            }
            Packet::Chunk(p) => {
                head.put_u64_le(p.msg_id);
                head.put_u16_le(p.seg_index);
                head.put_u16_le(p.total_segs);
                head.put_u64_le(p.offset);
                head.put_u64_le(p.total_len);
                head.put_u16_le(p.chunk_index);
                head.put_u32_le(p.data.len() as u32);
                body.push(p.data.clone());
            }
            Packet::Ack(p) => {
                head.put_u64_le(p.msg_id);
            }
            Packet::SamplePing(p) | Packet::SamplePong(p) => {
                head.put_u64_le(p.probe_id);
                head.put_u32_le(p.data.len() as u32);
                body.push(p.data.clone());
            }
        }
        if with_crc {
            let crc = crc_over(&head, &body);
            patch_crc(&mut head, crc);
        }
        let frame = PacketFrame::from_parts(head.freeze(), body);
        debug_assert_eq!(frame.wire_len(), self.wire_len());
        frame
    }

    /// Vectored encoder with a fresh head buffer (see
    /// [`Packet::encode_frame_into`]).
    pub fn encode_frame(&self, conn_id: ConnId, seq: u32, with_crc: bool) -> PacketFrame {
        let head_len = ENVELOPE_LEN + 40;
        self.encode_frame_into(conn_id, seq, with_crc, BytesMut::with_capacity(head_len))
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
    write_envelope(&mut head, kind, conn_id, seq, body.total_len(), with_crc);
    if with_crc {
        let crc = crc_over(&head, &body);
        patch_crc(&mut head, crc);
    }
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
