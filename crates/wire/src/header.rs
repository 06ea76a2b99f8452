//! Packet envelope and per-kind headers.
//!
//! Every physical packet starts with a fixed 24-byte envelope followed
//! by a kind-specific header and payload. Each header is one fixed
//! layout (all little-endian), declared once below with `layout!` and
//! used by the flat encoder, the vectored one, both decoders and
//! [`ChunkHead::peek`] alike: a header is written as one array and read
//! back from one array, never field by field. DESIGN.md §4 has the table.

use bytes::{BufMut, Bytes, BytesMut};

use crate::checksum::crc32;
use crate::codec::{Reader, Source};
use crate::error::WireError;
use crate::{ConnId, MsgId};

/// Declares a header layout: a struct of little-endian integers, each at
/// its fixed offset (`field: type = offset`), the header's wire length
/// `LEN`, `write` (the header as one array) and `read` (from one array).
macro_rules! layout {
    ($(#[$meta:meta])* $vis:vis struct $name:ident[$len:expr] {
        $($(#[$fmeta:meta])* $field:ident: $ty:ty = $at:expr),* $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $name {
            /// Bytes this header occupies on the wire.
            pub const LEN: usize = $len;

            /// The header's wire image.
            #[inline]
            pub fn write(&self) -> [u8; $len] {
                let mut b = [0u8; $len];
                $(b[$at..$at + size_of::<$ty>()].copy_from_slice(&self.$field.to_le_bytes());)*
                b
            }

            /// The header read back from its wire image.
            #[inline]
            pub fn read(b: &[u8; $len]) -> Self {
                $name {
                    $($field: <$ty>::from_le_bytes(
                        *b[$at..].first_chunk().expect("field inside LEN"),
                    ),)*
                }
            }
        }
    };
}
pub(crate) use layout;

/// Wire magic: "NM" little-endian.
pub const MAGIC: u16 = 0x4D4E;
/// Current wire version.
pub const VERSION: u8 = 1;
/// Size of the fixed envelope in bytes.
pub const ENVELOPE_LEN: usize = EnvelopeHdr::LEN;
/// Flag bit: payload CRC present and must be verified.
pub const FLAG_CRC: u16 = 0b1;

/// Packet kind discriminants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PacketKind {
    /// Single segment of a (possibly multi-segment) small message.
    Eager = 1,
    /// Several segments aggregated into one physical packet.
    Aggregate = 2,
    /// Rendezvous request (large message announcement).
    RdvRequest = 3,
    /// Rendezvous grant.
    RdvAck = 4,
    /// One chunk of a split large message.
    Chunk = 5,
    /// Message-level acknowledgement (used by retry logic and tests).
    Ack = 6,
    /// Sampling probe request (init-time network sampling, paper §3.4).
    SamplePing = 7,
    /// Sampling probe reply.
    SamplePong = 8,
}

impl PacketKind {
    pub(crate) fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => PacketKind::Eager,
            2 => PacketKind::Aggregate,
            3 => PacketKind::RdvRequest,
            4 => PacketKind::RdvAck,
            5 => PacketKind::Chunk,
            6 => PacketKind::Ack,
            7 => PacketKind::SamplePing,
            8 => PacketKind::SamplePong,
            other => return Err(WireError::BadKind(other)),
        })
    }
}

/// The fixed per-packet envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Connection the packet belongs to.
    pub conn_id: ConnId,
    /// Per-(connection, rail) send sequence number.
    pub seq: u32,
    /// Packet kind.
    pub kind: PacketKind,
    /// Whether the payload CRC was present and verified on decode.
    pub crc_checked: bool,
}

layout! {
    /// The envelope as it lies on the wire.
    pub(crate) struct EnvelopeHdr[24] {
        magic: u16 = 0,
        version: u8 = 2,
        kind: u8 = 3,
        conn_id: u32 = 4,
        seq: u32 = 8,
        payload_len: u32 = 12,
        crc: u32 = 16,
        flags: u16 = 20,
        reserved: u16 = 22,
    }
}

impl EnvelopeHdr {
    /// The envelope of a `kind` packet whose `payload_len` bytes after it
    /// checksum to `crc` (`None`: no CRC on this packet).
    pub(crate) fn new(
        kind: PacketKind,
        conn_id: ConnId,
        seq: u32,
        payload_len: usize,
        crc: Option<u32>,
    ) -> Self {
        EnvelopeHdr {
            magic: MAGIC,
            version: VERSION,
            kind: kind as u8,
            conn_id,
            seq,
            payload_len: payload_len as u32,
            crc: crc.unwrap_or(0),
            flags: if crc.is_some() { FLAG_CRC } else { 0 },
            reserved: 0,
        }
    }
}

/// Read the envelope at the start of a packet and check it against what
/// follows: magic, version, kind, and a payload of exactly `payload_len`
/// bytes. Returns the envelope and, when the packet carries one, the CRC
/// its payload must have.
pub(crate) fn open_envelope(r: &mut impl Source) -> Result<(Envelope, Option<u32>), WireError> {
    let h = EnvelopeHdr::read(&r.array()?);
    if h.magic != MAGIC {
        return Err(WireError::BadMagic(h.magic));
    }
    if h.version != VERSION {
        return Err(WireError::BadVersion(h.version));
    }
    let kind = PacketKind::from_u8(h.kind)?;
    let (payload_len, available) = (h.payload_len as usize, r.remaining());
    if available < payload_len {
        return Err(WireError::Truncated {
            what: "packet payload",
            needed: payload_len,
            available,
        });
    }
    if available > payload_len {
        return Err(WireError::TrailingBytes(available - payload_len));
    }
    let crc_checked = h.flags & FLAG_CRC != 0;
    let envelope = Envelope {
        conn_id: h.conn_id,
        seq: h.seq,
        kind,
        crc_checked,
    };
    Ok((envelope, crc_checked.then_some(h.crc)))
}

/// Fail unless the payload's CRC, `computed` only when the packet carries
/// one, is the `expected` one.
pub(crate) fn check_crc(
    expected: Option<u32>,
    computed: impl FnOnce() -> u32,
) -> Result<(), WireError> {
    let Some(expected) = expected else {
        return Ok(());
    };
    match computed() {
        computed if computed != expected => Err(WireError::BadChecksum { computed, expected }),
        _ => Ok(()),
    }
}

/// One segment of a small message, sent eagerly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EagerPacket {
    /// Message this segment belongs to.
    pub msg_id: MsgId,
    /// Index of this segment within the message.
    pub seg_index: u16,
    /// Total number of segments in the message (receiver completion test).
    pub total_segs: u16,
    /// Segment payload.
    pub data: Bytes,
}

layout! {
    /// What precedes an eager segment's payload.
    pub(crate) struct EagerHdr[16] {
        msg_id: MsgId = 0,
        seg_index: u16 = 8,
        total_segs: u16 = 10,
        len: u32 = 12,
    }
}

layout! {
    /// Rendezvous request: announces a large *segment* of a message.
    /// Chunking and rendezvous operate per segment — the schedulable unit
    /// of the paper's strategies.
    pub struct RdvRequest[20] {
        /// Message the segment belongs to.
        msg_id: MsgId = 0,
        /// Segment index within the message.
        seg_index: u16 = 8,
        /// Total segments in the message.
        total_segs: u16 = 10,
        /// Payload length of this segment.
        total_len: u64 = 12,
    }
}

layout! {
    /// Rendezvous grant: the receiver is ready (buffers posted).
    pub struct RdvAck[10] {
        /// Message being granted.
        msg_id: MsgId = 0,
        /// Segment being granted.
        seg_index: u16 = 8,
    }
}

/// One chunk of a split segment, possibly arriving over any rail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkPacket {
    /// Message this chunk belongs to.
    pub msg_id: MsgId,
    /// Segment this chunk belongs to.
    pub seg_index: u16,
    /// Total segments in the message (lets any chunk initialize the
    /// receiver's per-message state).
    pub total_segs: u16,
    /// Byte offset of this chunk within the segment payload.
    pub offset: u64,
    /// Total segment payload length (repeated in every chunk so any
    /// arrival order can initialize the reassembly buffer).
    pub total_len: u64,
    /// Chunk index (diagnostics only; offsets are authoritative).
    pub chunk_index: u16,
    /// Chunk payload.
    pub data: Bytes,
}

layout! {
    /// What precedes a chunk's payload.
    pub(crate) struct ChunkHdr[34] {
        msg_id: MsgId = 0,
        seg_index: u16 = 8,
        total_segs: u16 = 10,
        offset: u64 = 12,
        total_len: u64 = 20,
        chunk_index: u16 = 28,
        len: u32 = 30,
    }
}

/// Check that a chunk's `[offset, offset + len)` lies inside its
/// segment's `total_len`. All three come off the wire: the sum is
/// checked, not wrapped.
pub(crate) fn chunk_extent(offset: u64, len: usize, total_len: u64) -> Result<(), WireError> {
    match offset.checked_add(len as u64) {
        Some(end) if end <= total_len => Ok(()),
        end => Err(WireError::BadLength {
            what: "chunk extent",
            value: end.unwrap_or(u64::MAX),
        }),
    }
}

/// What the head of a [`PacketKind::Chunk`] frame says about where its
/// payload belongs, read from the frame's first [`ChunkHead::LEN`] bytes
/// before the rest has arrived — so that a stream transport can read the
/// payload straight into its place in the segment. The layout is this
/// crate's (the envelope above, then [`ChunkPacket`]'s fields as
/// [`Packet::encode_frame`] writes them); nothing here is verified
/// against the frame's CRC, which covers bytes not seen yet: a peeked
/// head is a hint for placement, and the frame is still decoded in full
/// afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkHead {
    /// Connection the chunk belongs to.
    pub conn_id: ConnId,
    /// Message the chunk belongs to.
    pub msg_id: MsgId,
    /// Segment the chunk belongs to.
    pub seg_index: u16,
    /// Byte offset of the payload within the segment.
    pub offset: u64,
    /// The segment's total length.
    pub total_len: u64,
    /// Payload length; `offset + len <= total_len` holds.
    pub len: usize,
}

impl ChunkHead {
    /// Bytes of a chunk frame before its payload: the envelope and the
    /// chunk header.
    pub const LEN: usize = ENVELOPE_LEN + ChunkHdr::LEN;

    /// True when `frame`, the first bytes of a frame (at least one), may
    /// turn out to be a chunk frame once [`ChunkHead::LEN`] bytes of it
    /// are there: nothing seen so far says otherwise.
    pub fn possible(frame: &[u8]) -> bool {
        frame
            .get(3)
            .is_none_or(|&kind| kind == PacketKind::Chunk as u8)
    }

    /// Read the head of a chunk frame from the frame's first bytes.
    /// `Ok(None)` when `frame` is shorter than a chunk head or is not a
    /// chunk frame of this wire version; an error when it is one and its
    /// extent overflows or runs past `total_len`.
    pub fn peek(frame: &[u8]) -> Result<Option<ChunkHead>, WireError> {
        let Some((envelope, rest)) = frame.split_first_chunk() else {
            return Ok(None);
        };
        let (env, Some(chunk)) = (EnvelopeHdr::read(envelope), rest.first_chunk()) else {
            return Ok(None);
        };
        if (env.magic, env.version, env.kind) != (MAGIC, VERSION, PacketKind::Chunk as u8) {
            return Ok(None);
        }
        let c = ChunkHdr::read(chunk);
        chunk_extent(c.offset, c.len as usize, c.total_len)?;
        Ok(Some(ChunkHead {
            conn_id: env.conn_id,
            msg_id: c.msg_id,
            seg_index: c.seg_index,
            offset: c.offset,
            total_len: c.total_len,
            len: c.len as usize,
        }))
    }
}

layout! {
    /// Message-level acknowledgement.
    pub struct AckPacket[8] {
        /// Acknowledged message.
        msg_id: MsgId = 0,
    }
}

/// Sampling probe (ping or pong) used by init-time network sampling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SamplePacket {
    /// Probe identifier (echoed back in the pong).
    pub probe_id: u64,
    /// Probe payload (its size is the sampled size).
    pub data: Bytes,
}

layout! {
    /// What precedes a probe's payload.
    pub(crate) struct SampleHdr[12] {
        probe_id: u64 = 0,
        len: u32 = 8,
    }
}

/// A decoded packet body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Packet {
    /// See [`EagerPacket`].
    Eager(EagerPacket),
    /// Aggregated segments; see [`crate::agg`]. The payload is kept opaque
    /// here and parsed by [`crate::agg::parse_aggregate`].
    Aggregate(Bytes),
    /// See [`RdvRequest`].
    RdvRequest(RdvRequest),
    /// See [`RdvAck`].
    RdvAck(RdvAck),
    /// See [`ChunkPacket`].
    Chunk(ChunkPacket),
    /// See [`AckPacket`].
    Ack(AckPacket),
    /// See [`SamplePacket`].
    SamplePing(SamplePacket),
    /// See [`SamplePacket`].
    SamplePong(SamplePacket),
}

impl Packet {
    /// Kind discriminant of this body.
    pub fn kind(&self) -> PacketKind {
        match self {
            Packet::Eager(_) => PacketKind::Eager,
            Packet::Aggregate(_) => PacketKind::Aggregate,
            Packet::RdvRequest(_) => PacketKind::RdvRequest,
            Packet::RdvAck(_) => PacketKind::RdvAck,
            Packet::Chunk(_) => PacketKind::Chunk,
            Packet::Ack(_) => PacketKind::Ack,
            Packet::SamplePing(_) => PacketKind::SamplePing,
            Packet::SamplePong(_) => PacketKind::SamplePong,
        }
    }

    /// Number of *payload* bytes this packet carries for the application
    /// (zero for pure control packets).
    pub fn payload_bytes(&self) -> usize {
        match self {
            Packet::Eager(p) => p.data.len(),
            Packet::Aggregate(b) => b.len(),
            Packet::Chunk(p) => p.data.len(),
            Packet::SamplePing(p) | Packet::SamplePong(p) => p.data.len(),
            Packet::RdvRequest(_) | Packet::RdvAck(_) | Packet::Ack(_) => 0,
        }
    }

    /// True for control-plane packets that should jump transmit queues.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Packet::RdvRequest(_) | Packet::RdvAck(_) | Packet::Ack(_)
        )
    }

    /// Write the header that follows the envelope into `out`; the payload
    /// that follows the header on the wire, if any, is returned.
    pub(crate) fn write_head(&self, out: &mut impl BufMut) -> Option<&Bytes> {
        let len = |data: &Bytes| data.len() as u32;
        match self {
            Packet::Eager(p) => {
                let head = EagerHdr {
                    msg_id: p.msg_id,
                    seg_index: p.seg_index,
                    total_segs: p.total_segs,
                    len: len(&p.data),
                };
                out.put_slice(&head.write());
                Some(&p.data)
            }
            Packet::Aggregate(body) => Some(body),
            Packet::Chunk(p) => {
                let head = ChunkHdr {
                    msg_id: p.msg_id,
                    seg_index: p.seg_index,
                    total_segs: p.total_segs,
                    offset: p.offset,
                    total_len: p.total_len,
                    chunk_index: p.chunk_index,
                    len: len(&p.data),
                };
                out.put_slice(&head.write());
                Some(&p.data)
            }
            Packet::SamplePing(p) | Packet::SamplePong(p) => {
                let head = SampleHdr {
                    probe_id: p.probe_id,
                    len: len(&p.data),
                };
                out.put_slice(&head.write());
                Some(&p.data)
            }
            Packet::RdvRequest(p) => {
                out.put_slice(&p.write());
                None
            }
            Packet::RdvAck(p) => {
                out.put_slice(&p.write());
                None
            }
            Packet::Ack(p) => {
                out.put_slice(&p.write());
                None
            }
        }
    }

    /// The payload that follows the header on the wire, if any, moved out
    /// of the packet.
    pub(crate) fn into_payload(self) -> Option<Bytes> {
        match self {
            Packet::Eager(EagerPacket { data, .. })
            | Packet::Chunk(ChunkPacket { data, .. })
            | Packet::SamplePing(SamplePacket { data, .. })
            | Packet::SamplePong(SamplePacket { data, .. })
            | Packet::Aggregate(data) => Some(data),
            Packet::RdvRequest(_) | Packet::RdvAck(_) | Packet::Ack(_) => None,
        }
    }

    /// Decode the `kind` packet that is all of what `r` has left. (An
    /// aggregate stays the opaque container it is.)
    pub(crate) fn decode_body(kind: PacketKind, r: &mut impl Source) -> Result<Packet, WireError> {
        Ok(match kind {
            PacketKind::Eager => {
                let h = EagerHdr::read(&r.array()?);
                Packet::Eager(EagerPacket {
                    msg_id: h.msg_id,
                    seg_index: h.seg_index,
                    total_segs: h.total_segs,
                    data: r.bytes(h.len as usize)?,
                })
            }
            PacketKind::Aggregate => Packet::Aggregate(r.bytes(r.remaining())?),
            PacketKind::RdvRequest => Packet::RdvRequest(RdvRequest::read(&r.array()?)),
            PacketKind::RdvAck => Packet::RdvAck(RdvAck::read(&r.array()?)),
            PacketKind::Chunk => {
                let h = ChunkHdr::read(&r.array()?);
                chunk_extent(h.offset, h.len as usize, h.total_len)?;
                Packet::Chunk(ChunkPacket {
                    msg_id: h.msg_id,
                    seg_index: h.seg_index,
                    total_segs: h.total_segs,
                    offset: h.offset,
                    total_len: h.total_len,
                    chunk_index: h.chunk_index,
                    data: r.bytes(h.len as usize)?,
                })
            }
            PacketKind::Ack => Packet::Ack(AckPacket::read(&r.array()?)),
            PacketKind::SamplePing | PacketKind::SamplePong => {
                let h = SampleHdr::read(&r.array()?);
                let p = SamplePacket {
                    probe_id: h.probe_id,
                    data: r.bytes(h.len as usize)?,
                };
                if kind == PacketKind::SamplePing {
                    Packet::SamplePing(p)
                } else {
                    Packet::SamplePong(p)
                }
            }
        })
    }

    /// Encode this packet with its envelope into a wire buffer.
    ///
    /// `with_crc` computes and embeds the payload CRC (the simulator skips
    /// it; the threaded transport enables it).
    pub fn encode(&self, conn_id: ConnId, seq: u32, with_crc: bool) -> Bytes {
        let mut w = BytesMut::with_capacity(self.wire_len());
        w.put_slice(&[0; ENVELOPE_LEN]);
        if let Some(payload) = self.write_head(&mut w) {
            w.put_slice(payload);
        }
        let crc = with_crc.then(|| crc32(&w[ENVELOPE_LEN..]));
        let envelope = EnvelopeHdr::new(self.kind(), conn_id, seq, w.len() - ENVELOPE_LEN, crc);
        w[..ENVELOPE_LEN].copy_from_slice(&envelope.write());
        w.freeze()
    }

    /// Decode one packet (envelope + body) from `buf`, which must contain
    /// exactly one packet.
    pub fn decode(buf: &[u8]) -> Result<(Envelope, Packet), WireError> {
        let (envelope, crc) = open_envelope(&mut Reader::new(buf, "envelope"))?;
        let mut r = Reader::new(&buf[ENVELOPE_LEN..], "packet body");
        check_crc(crc, || crc32(&buf[ENVELOPE_LEN..]))?;
        let packet = Packet::decode_body(envelope.kind, &mut r)?;
        r.expect_end()?;
        Ok((envelope, packet))
    }

    /// Total wire size this packet will occupy (envelope + body).
    pub fn wire_len(&self) -> usize {
        let body = match self {
            Packet::Eager(p) => EagerHdr::LEN + p.data.len(),
            Packet::Aggregate(b) => b.len(),
            Packet::RdvRequest(_) => RdvRequest::LEN,
            Packet::RdvAck(_) => RdvAck::LEN,
            Packet::Chunk(p) => ChunkHdr::LEN + p.data.len(),
            Packet::Ack(_) => AckPacket::LEN,
            Packet::SamplePing(p) | Packet::SamplePong(p) => SampleHdr::LEN + p.data.len(),
        };
        ENVELOPE_LEN + body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(pkt: Packet) {
        let buf = pkt.encode(7, 42, true);
        assert_eq!(buf.len(), pkt.wire_len(), "wire_len must match encode");
        let (env, decoded) = Packet::decode(&buf).expect("decode");
        assert_eq!(env.conn_id, 7);
        assert_eq!(env.seq, 42);
        assert_eq!(env.kind, pkt.kind());
        assert!(env.crc_checked);
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn eager_roundtrip() {
        roundtrip(Packet::Eager(EagerPacket {
            msg_id: 99,
            seg_index: 1,
            total_segs: 4,
            data: Bytes::from_static(b"hello rails"),
        }));
    }

    #[test]
    fn empty_eager_roundtrip() {
        roundtrip(Packet::Eager(EagerPacket {
            msg_id: 0,
            seg_index: 0,
            total_segs: 1,
            data: Bytes::new(),
        }));
    }

    #[test]
    fn control_roundtrips() {
        roundtrip(Packet::RdvRequest(RdvRequest {
            msg_id: 5,
            seg_index: 2,
            total_segs: 4,
            total_len: 8 << 20,
        }));
        roundtrip(Packet::RdvAck(RdvAck {
            msg_id: 5,
            seg_index: 2,
        }));
        roundtrip(Packet::Ack(AckPacket { msg_id: 5 }));
    }

    #[test]
    fn chunk_roundtrip() {
        roundtrip(Packet::Chunk(ChunkPacket {
            msg_id: 12,
            seg_index: 1,
            total_segs: 2,
            offset: 4096,
            total_len: 65536,
            chunk_index: 1,
            data: Bytes::from(vec![0xAA; 1024]),
        }));
    }

    #[test]
    fn sample_roundtrips() {
        roundtrip(Packet::SamplePing(SamplePacket {
            probe_id: 3,
            data: Bytes::from(vec![1; 64]),
        }));
        roundtrip(Packet::SamplePong(SamplePacket {
            probe_id: 3,
            data: Bytes::from(vec![1; 64]),
        }));
    }

    #[test]
    fn crc_flag_off_skips_verification() {
        let pkt = Packet::Ack(AckPacket { msg_id: 1 });
        let buf = pkt.encode(0, 0, false);
        let (env, _) = Packet::decode(&buf).unwrap();
        assert!(!env.crc_checked);
    }

    #[test]
    fn corrupted_payload_detected() {
        let pkt = Packet::Eager(EagerPacket {
            msg_id: 1,
            seg_index: 0,
            total_segs: 1,
            data: Bytes::from(vec![7; 256]),
        });
        let buf = pkt.encode(0, 0, true);
        let mut raw = buf.to_vec();
        raw[ENVELOPE_LEN + 20] ^= 0xFF;
        match Packet::decode(&raw) {
            Err(WireError::BadChecksum { .. }) => {}
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let pkt = Packet::Ack(AckPacket { msg_id: 1 });
        let mut raw = pkt.encode(0, 0, false).to_vec();
        raw[0] = 0x00;
        assert!(matches!(Packet::decode(&raw), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn bad_version_rejected() {
        let pkt = Packet::Ack(AckPacket { msg_id: 1 });
        let mut raw = pkt.encode(0, 0, false).to_vec();
        raw[2] = 9;
        assert!(matches!(
            Packet::decode(&raw),
            Err(WireError::BadVersion(9))
        ));
    }

    #[test]
    fn bad_kind_rejected() {
        let pkt = Packet::Ack(AckPacket { msg_id: 1 });
        let mut raw = pkt.encode(0, 0, false).to_vec();
        raw[3] = 200;
        assert!(matches!(Packet::decode(&raw), Err(WireError::BadKind(200))));
    }

    #[test]
    fn truncated_buffer_rejected() {
        let pkt = Packet::Eager(EagerPacket {
            msg_id: 1,
            seg_index: 0,
            total_segs: 1,
            data: Bytes::from(vec![7; 64]),
        });
        let raw = pkt.encode(0, 0, false);
        for cut in [0, 5, ENVELOPE_LEN - 1, ENVELOPE_LEN + 3, raw.len() - 1] {
            assert!(
                Packet::decode(&raw[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn chunk_extent_overflow_rejected() {
        let pkt = Packet::Chunk(ChunkPacket {
            msg_id: 1,
            seg_index: 0,
            total_segs: 1,
            offset: 100,
            total_len: 50, // inconsistent: offset beyond total
            chunk_index: 0,
            data: Bytes::from(vec![0; 10]),
        });
        let raw = pkt.encode(0, 0, false);
        assert!(matches!(
            Packet::decode(&raw),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn control_classification() {
        assert!(Packet::RdvAck(RdvAck {
            msg_id: 0,
            seg_index: 0
        })
        .is_control());
        assert!(!Packet::Eager(EagerPacket {
            msg_id: 0,
            seg_index: 0,
            total_segs: 1,
            data: Bytes::new()
        })
        .is_control());
    }
}
