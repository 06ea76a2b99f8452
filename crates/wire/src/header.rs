//! Packet envelope and per-kind headers.
//!
//! Every physical packet starts with a fixed 24-byte [`Envelope`] followed
//! by a kind-specific header and payload. Layout (all little-endian):
//!
//! ```text
//! offset  size  field
//!      0     2  magic 0x4D4E ("NM")
//!      2     1  version (currently 1)
//!      3     1  kind (PacketKind discriminant)
//!      4     4  conn_id
//!      8     4  seq        per-(connection, rail) send sequence
//!     12     4  payload_len  bytes after the envelope
//!     16     4  crc32 of the payload (0 when flags bit 0 is clear)
//!     20     2  flags      bit 0: crc present
//!     22     2  reserved
//! ```

use bytes::Bytes;

use crate::checksum::crc32;
use crate::codec::{Reader, Writer};
use crate::error::WireError;
use crate::{ConnId, MsgId};

/// Wire magic: "NM" little-endian.
pub const MAGIC: u16 = 0x4D4E;
/// Current wire version.
pub const VERSION: u8 = 1;
/// Size of the fixed envelope in bytes.
pub const ENVELOPE_LEN: usize = 24;
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

/// Rendezvous request: announces a large *segment* of a message. Chunking
/// and rendezvous operate per segment — the schedulable unit of the paper's
/// strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RdvRequest {
    /// Message the segment belongs to.
    pub msg_id: MsgId,
    /// Segment index within the message.
    pub seg_index: u16,
    /// Total segments in the message.
    pub total_segs: u16,
    /// Payload length of this segment.
    pub total_len: u64,
}

/// Rendezvous grant: the receiver is ready (buffers posted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RdvAck {
    /// Message being granted.
    pub msg_id: MsgId,
    /// Segment being granted.
    pub seg_index: u16,
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
    pub const LEN: usize = ENVELOPE_LEN + 8 + 2 + 2 + 8 + 8 + 2 + 4;

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
        let Some(head) = frame.get(..Self::LEN) else {
            return Ok(None);
        };
        let mut r = Reader::new(head, "chunk head");
        if r.u16()? != MAGIC || r.u8()? != VERSION || r.u8()? != PacketKind::Chunk as u8 {
            return Ok(None);
        }
        let conn_id = r.u32()?;
        let (_seq, _payload_len, _crc) = (r.u32()?, r.u32()?, r.u32()?);
        let (_flags, _reserved) = (r.u16()?, r.u16()?);
        let msg_id = r.u64()?;
        let seg_index = r.u16()?;
        let _total_segs = r.u16()?;
        let offset = r.u64()?;
        let total_len = r.u64()?;
        let _chunk_index = r.u16()?;
        let len = r.u32()? as usize;
        r.expect_end()?;
        chunk_extent(offset, len, total_len)?;
        Ok(Some(ChunkHead {
            conn_id,
            msg_id,
            seg_index,
            offset,
            total_len,
            len,
        }))
    }
}

/// Message-level acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckPacket {
    /// Acknowledged message.
    pub msg_id: MsgId,
}

/// Sampling probe (ping or pong) used by init-time network sampling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SamplePacket {
    /// Probe identifier (echoed back in the pong).
    pub probe_id: u64,
    /// Probe payload (its size is the sampled size).
    pub data: Bytes,
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

    fn encode_body(&self, w: &mut Writer) {
        match self {
            Packet::Eager(p) => {
                w.u64(p.msg_id);
                w.u16(p.seg_index);
                w.u16(p.total_segs);
                w.u32(p.data.len() as u32);
                w.bytes(&p.data);
            }
            Packet::Aggregate(b) => {
                w.bytes(b);
            }
            Packet::RdvRequest(p) => {
                w.u64(p.msg_id);
                w.u16(p.seg_index);
                w.u16(p.total_segs);
                w.u64(p.total_len);
            }
            Packet::RdvAck(p) => {
                w.u64(p.msg_id);
                w.u16(p.seg_index);
            }
            Packet::Chunk(p) => {
                w.u64(p.msg_id);
                w.u16(p.seg_index);
                w.u16(p.total_segs);
                w.u64(p.offset);
                w.u64(p.total_len);
                w.u16(p.chunk_index);
                w.u32(p.data.len() as u32);
                w.bytes(&p.data);
            }
            Packet::Ack(p) => {
                w.u64(p.msg_id);
            }
            Packet::SamplePing(p) | Packet::SamplePong(p) => {
                w.u64(p.probe_id);
                w.u32(p.data.len() as u32);
                w.bytes(&p.data);
            }
        }
    }

    fn decode_body(kind: PacketKind, payload: &[u8]) -> Result<Packet, WireError> {
        let mut r = Reader::new(payload, "packet body");
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
            PacketKind::Aggregate => Packet::Aggregate(r.rest()),
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
                chunk_extent(offset, len, total_len)?;
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
        r.expect_end()?;
        Ok(pkt)
    }

    /// Encode this packet with its envelope into a wire buffer.
    ///
    /// `with_crc` computes and embeds the payload CRC (the simulator skips
    /// it; the threaded transport enables it).
    pub fn encode(&self, conn_id: ConnId, seq: u32, with_crc: bool) -> Bytes {
        let mut body = Writer::with_capacity(self.payload_bytes() + 48);
        self.encode_body(&mut body);
        let body = body.finish();

        let mut w = Writer::with_capacity(ENVELOPE_LEN + body.len());
        w.u16(MAGIC);
        w.u8(VERSION);
        w.u8(self.kind() as u8);
        w.u32(conn_id);
        w.u32(seq);
        w.u32(body.len() as u32);
        if with_crc {
            w.u32(crc32(&body));
            w.u16(FLAG_CRC);
        } else {
            w.u32(0);
            w.u16(0);
        }
        w.u16(0); // reserved
        w.bytes(&body);
        w.finish()
    }

    /// Decode one packet (envelope + body) from `buf`, which must contain
    /// exactly one packet.
    pub fn decode(buf: &[u8]) -> Result<(Envelope, Packet), WireError> {
        let mut r = Reader::new(buf, "envelope");
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
        let payload = r.bytes(payload_len)?;
        r.expect_end()?;
        let crc_checked = flags & FLAG_CRC != 0;
        if crc_checked {
            let computed = crc32(&payload);
            if computed != crc {
                return Err(WireError::BadChecksum {
                    computed,
                    expected: crc,
                });
            }
        }
        let packet = Packet::decode_body(kind, &payload)?;
        Ok((
            Envelope {
                conn_id,
                seq,
                kind,
                crc_checked,
            },
            packet,
        ))
    }

    /// Total wire size this packet will occupy (envelope + body).
    pub fn wire_len(&self) -> usize {
        let body = match self {
            Packet::Eager(p) => 8 + 2 + 2 + 4 + p.data.len(),
            Packet::Aggregate(b) => b.len(),
            Packet::RdvRequest(_) => 8 + 2 + 2 + 8,
            Packet::RdvAck(_) => 8 + 2,
            Packet::Chunk(p) => 8 + 2 + 2 + 8 + 8 + 2 + 4 + p.data.len(),
            Packet::Ack(_) => 8,
            Packet::SamplePing(p) | Packet::SamplePong(p) => 8 + 4 + p.data.len(),
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
