//! Aggregation containers.
//!
//! The paper's key small-message optimization (§3.3): when several segments
//! are waiting while a NIC is busy, the optimizing scheduler copies them
//! into one contiguous physical packet — "opportunistic aggregation". The
//! segments may belong to different messages and even different logical
//! channels (§4). The container layout after the packet envelope is:
//!
//! ```text
//! count: u16
//! repeated count times:
//!   msg_id:     u64
//!   seg_index:  u16
//!   total_segs: u16
//!   len:        u32
//!   data:       len bytes
//! ```

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{Reader, Writer};
use crate::error::WireError;
use crate::frame::PartList;
use crate::header::Packet;
use crate::MsgId;

/// Per-entry byte overhead inside an aggregate container.
pub const ENTRY_OVERHEAD: usize = 4 + 8 + 2 + 2 + 4;
/// Fixed container overhead (the count field).
pub const CONTAINER_OVERHEAD: usize = 2;

/// One aggregated segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregateEntry {
    /// Logical channel (connection) the segment belongs to. Aggregation
    /// works across channels (paper §4), so every entry carries its own.
    pub conn_id: u32,
    /// Message the segment belongs to.
    pub msg_id: MsgId,
    /// Segment index within its message.
    pub seg_index: u16,
    /// Total segments of that message.
    pub total_segs: u16,
    /// Segment payload.
    pub data: Bytes,
}

/// Incrementally builds an aggregate container.
#[derive(Debug, Default)]
pub struct AggregateBuilder {
    entries: Vec<AggregateEntry>,
    payload_bytes: usize,
}

impl AggregateBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a segment to the container.
    pub fn push(&mut self, entry: AggregateEntry) {
        self.payload_bytes += entry.data.len();
        self.entries.push(entry);
    }

    /// Drop whatever is queued (the storage stays).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.payload_bytes = 0;
    }

    /// Number of segments queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no segments are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Application payload bytes queued (excluding per-entry headers).
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Wire size of the container this builder would produce.
    pub fn container_len(&self) -> usize {
        CONTAINER_OVERHEAD + self.entries.len() * ENTRY_OVERHEAD + self.payload_bytes
    }

    /// Bytes the host CPU must copy to stage this container (the memcpy
    /// cost the paper calls "very low"): all segment payloads.
    pub fn copy_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Finish into an opaque [`Packet::Aggregate`] body.
    ///
    /// Panics if empty: an empty aggregate is always a strategy bug.
    pub fn finish(self) -> Packet {
        assert!(!self.entries.is_empty(), "empty aggregate container");
        assert!(
            self.entries.len() <= u16::MAX as usize,
            "too many entries in one aggregate"
        );
        let mut w = Writer::with_capacity(self.container_len());
        w.u16(self.entries.len() as u16);
        for e in &self.entries {
            w.u32(e.conn_id);
            w.u64(e.msg_id);
            w.u16(e.seg_index);
            w.u16(e.total_segs);
            w.u32(e.data.len() as u32);
            w.bytes(&e.data);
        }
        Packet::Aggregate(w.finish())
    }

    /// Finish into scatter-gather body parts instead of a flat container.
    ///
    /// Entries whose payload is below `stage_threshold` (the PIO regime —
    /// the copy the paper calls "very low" cost, §3.1) are staged into
    /// `slab` together with every entry header; entries at or above it
    /// ride as refcounted zero-copy slices between staged runs. The wire
    /// image is identical to [`AggregateBuilder::finish`] — only the copy
    /// pattern differs.
    ///
    /// `slab` should come from a buffer pool (it is cleared first). The
    /// returned [`AggregateParts`] reports how many payload bytes were
    /// staged so the engine can charge exactly that memcpy cost.
    ///
    /// Panics if empty, like [`AggregateBuilder::finish`]. The builder is
    /// left empty with its storage kept: one builder serves every
    /// aggregate of an engine without allocating again.
    pub fn finish_parts(&mut self, stage_threshold: usize, mut slab: BytesMut) -> AggregateParts {
        assert!(!self.entries.is_empty(), "empty aggregate container");
        assert!(
            self.entries.len() <= u16::MAX as usize,
            "too many entries in one aggregate"
        );
        let container_len = self.container_len();
        slab.clear();
        let staged = |e: &AggregateEntry| e.data.len() < stage_threshold;
        slab.put_u16_le(self.entries.len() as u16);
        for e in &self.entries {
            slab.put_u32_le(e.conn_id);
            slab.put_u64_le(e.msg_id);
            slab.put_u16_le(e.seg_index);
            slab.put_u16_le(e.total_segs);
            slab.put_u32_le(e.data.len() as u32);
            if staged(e) {
                slab.put_slice(&e.data);
            }
        }
        // Second walk over the same entries: every zero-copy payload cuts
        // the (single) slab allocation into staged runs, which become
        // slices of the frozen slab around the payload's own part.
        let slab = slab.freeze();
        let mut parts = PartList::new();
        let (mut staged_bytes, mut zero_copy_bytes) = (0usize, 0usize);
        let (mut run_start, mut pos) = (0usize, CONTAINER_OVERHEAD);
        for e in self.entries.drain(..) {
            pos += ENTRY_OVERHEAD;
            if staged(&e) {
                pos += e.data.len();
                staged_bytes += e.data.len();
            } else {
                parts.push(slab.slice(run_start..pos));
                run_start = pos;
                zero_copy_bytes += e.data.len();
                parts.push(e.data);
            }
        }
        parts.push(slab.slice(run_start..pos));
        self.payload_bytes = 0;
        debug_assert_eq!(parts.total_len(), container_len);
        AggregateParts {
            parts,
            staged_bytes,
            zero_copy_bytes,
            container_len,
            slab,
        }
    }
}

/// Result of [`AggregateBuilder::finish_parts`].
#[derive(Debug)]
pub struct AggregateParts {
    /// Body parts in wire order (staged runs interleaved with zero-copy
    /// payload slices).
    pub parts: PartList,
    /// Payload bytes copied into the staging slab (sub-threshold entries).
    pub staged_bytes: usize,
    /// Payload bytes riding as refcounted slices (no copy).
    pub zero_copy_bytes: usize,
    /// Total container size on the wire.
    pub container_len: usize,
    /// The frozen staging slab itself. The staged runs in `parts` are
    /// slices of this allocation; holding it here lets the engine hand
    /// the allocation back to its buffer pool once the frame completes
    /// instead of abandoning the slab after every aggregate.
    pub slab: Bytes,
}

/// Parse an aggregate container body back into its entries.
pub fn parse_aggregate(body: &[u8]) -> Result<Vec<AggregateEntry>, WireError> {
    let mut r = Reader::new(body, "aggregate container");
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
    r.expect_end()?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(msg_id: u64, seg: u16, total: u16, data: &[u8]) -> AggregateEntry {
        AggregateEntry {
            conn_id: 0,
            msg_id,
            seg_index: seg,
            total_segs: total,
            data: Bytes::copy_from_slice(data),
        }
    }

    #[test]
    fn roundtrip_multiple_messages() {
        let mut b = AggregateBuilder::new();
        b.push(entry(1, 0, 2, b"first"));
        b.push(entry(1, 1, 2, b"second"));
        b.push(entry(9, 0, 1, b"other message"));
        assert_eq!(b.len(), 3);
        assert_eq!(b.payload_bytes(), 5 + 6 + 13);
        let expected_len = b.container_len();

        let pkt = b.finish();
        let Packet::Aggregate(body) = &pkt else {
            panic!("wrong kind")
        };
        assert_eq!(body.len(), expected_len);
        let entries = parse_aggregate(body).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].data, Bytes::from_static(b"first"));
        assert_eq!(entries[2].msg_id, 9);
    }

    #[test]
    fn roundtrip_through_full_packet_encode() {
        let mut b = AggregateBuilder::new();
        b.push(entry(4, 0, 1, &[0xCC; 100]));
        let pkt = b.finish();
        let buf = pkt.encode(3, 11, true);
        let (_, decoded) = Packet::decode(&buf).unwrap();
        let Packet::Aggregate(body) = decoded else {
            panic!("wrong kind")
        };
        let entries = parse_aggregate(&body).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].data.len(), 100);
    }

    #[test]
    fn zero_length_segment_allowed() {
        let mut b = AggregateBuilder::new();
        b.push(entry(1, 0, 1, b""));
        b.push(entry(2, 0, 1, b"x"));
        let Packet::Aggregate(body) = b.finish() else {
            panic!()
        };
        let entries = parse_aggregate(&body).unwrap();
        assert_eq!(entries[0].data.len(), 0);
        assert_eq!(entries[1].data.len(), 1);
    }

    #[test]
    #[should_panic(expected = "empty aggregate")]
    fn empty_container_panics() {
        AggregateBuilder::new().finish();
    }

    #[test]
    fn zero_count_rejected_on_parse() {
        let mut w = Writer::new();
        w.u16(0);
        let body = w.finish();
        assert!(matches!(
            parse_aggregate(&body),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn truncated_entry_rejected() {
        let mut b = AggregateBuilder::new();
        b.push(entry(1, 0, 1, b"payload"));
        let Packet::Aggregate(body) = b.finish() else {
            panic!()
        };
        for cut in [1, 3, 10, body.len() - 1] {
            assert!(parse_aggregate(&body[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut b = AggregateBuilder::new();
        b.push(entry(1, 0, 1, b"p"));
        let Packet::Aggregate(body) = b.finish() else {
            panic!()
        };
        let mut extended = body.to_vec();
        extended.push(0xFF);
        assert!(matches!(
            parse_aggregate(&extended),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn finish_parts_matches_flat_wire_image() {
        let big = vec![0xBB; 512];
        let mut flat = AggregateBuilder::new();
        let mut sg = AggregateBuilder::new();
        for b in [&mut flat, &mut sg] {
            b.push(entry(1, 0, 2, b"small one"));
            b.push(entry(2, 0, 1, &big));
            b.push(entry(1, 1, 2, b"small two"));
            b.push(entry(3, 0, 1, &big));
        }
        let Packet::Aggregate(body) = flat.finish() else {
            panic!()
        };
        // Threshold 256: the two big entries ride zero-copy.
        let parts = sg.finish_parts(256, BytesMut::new());
        assert_eq!(parts.staged_bytes, 9 + 9);
        assert_eq!(parts.zero_copy_bytes, 1024);
        assert_eq!(parts.container_len, body.len());
        let mut joined = Vec::new();
        for p in parts.parts.iter() {
            joined.extend_from_slice(p);
        }
        assert_eq!(joined, body.to_vec(), "wire images must be identical");
        // Interleaving: run / big / run / big (no trailing run — the last
        // entry is zero-copy... actually last entry is big, so runs end
        // with an empty tail that is skipped).
        assert!(parts.parts.len() >= 4);
    }

    #[test]
    fn finish_parts_all_small_is_one_staged_run() {
        let mut b = AggregateBuilder::new();
        b.push(entry(1, 0, 1, b"aa"));
        b.push(entry(2, 0, 1, b"bb"));
        let parts = b.finish_parts(4096, BytesMut::new());
        assert_eq!(parts.parts.len(), 1, "everything staged in one slab run");
        assert_eq!(parts.staged_bytes, 4);
        assert_eq!(parts.zero_copy_bytes, 0);
    }

    #[test]
    fn finish_parts_zero_copy_slices_share_storage() {
        let big = Bytes::from(vec![0xCD; 300]);
        let mut b = AggregateBuilder::new();
        b.push(AggregateEntry {
            conn_id: 0,
            msg_id: 1,
            seg_index: 0,
            total_segs: 1,
            data: big.clone(),
        });
        let parts = b.finish_parts(128, BytesMut::new());
        let payload = parts
            .parts
            .iter()
            .find(|p| p.len() == 300)
            .expect("payload part");
        assert_eq!(payload.as_slice().as_ptr(), big.as_slice().as_ptr());
    }

    #[test]
    fn overhead_constants_match_layout() {
        let mut b = AggregateBuilder::new();
        b.push(entry(1, 0, 1, b"abc"));
        let Packet::Aggregate(body) = b.finish() else {
            panic!()
        };
        assert_eq!(body.len(), CONTAINER_OVERHEAD + ENTRY_OVERHEAD + 3);
    }
}
