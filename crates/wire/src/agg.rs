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
//!   entry head (20 bytes: conn_id, msg_id, seg_index, total_segs, len)
//!   data:      len bytes
//! ```

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{Reader, Source};
use crate::error::WireError;
use crate::frame::PartList;
use crate::header::{layout, Packet};
use crate::{ConnId, MsgId};

layout! {
    /// What precedes each entry's payload inside the container.
    pub(crate) struct EntryHdr[20] {
        conn_id: ConnId = 0,
        msg_id: MsgId = 4,
        seg_index: u16 = 12,
        total_segs: u16 = 14,
        len: u32 = 16,
    }
}

/// Per-entry byte overhead inside an aggregate container.
pub const ENTRY_OVERHEAD: usize = EntryHdr::LEN;
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

/// Builds an aggregate container entry by entry, staging as it goes: an
/// entry whose payload is below the staging threshold (the PIO regime —
/// the copy the paper calls "very low" cost, §3.1) is copied into the
/// slab behind its head straight from the segment it is pushed from; one
/// at or above it rides as a refcounted slice between staged runs. The
/// threshold only moves bytes between "staged" and "zero-copy": the wire
/// image is the same for every value.
#[derive(Debug)]
pub struct AggregateBuilder {
    /// The container minus the zero-copy payloads: the count (written at
    /// the end), every entry head and the staged payloads.
    slab: BytesMut,
    /// The zero-copy payloads, each with the slab position it follows.
    shared: Vec<(usize, Bytes)>,
    stage_threshold: usize,
    entries: usize,
    payload_bytes: usize,
}

impl Default for AggregateBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl AggregateBuilder {
    /// Empty builder that stages every entry into a buffer of its own.
    pub fn new() -> Self {
        AggregateBuilder {
            slab: BytesMut::new(),
            shared: Vec::new(),
            stage_threshold: usize::MAX,
            entries: 0,
            payload_bytes: 0,
        }
    }

    /// Start a container over: entries below `stage_threshold` bytes are
    /// staged into `slab`, which should come from a buffer pool (it is
    /// cleared first). The slab of a container begun and not finished
    /// comes back.
    pub fn begin(&mut self, stage_threshold: usize, mut slab: BytesMut) -> BytesMut {
        slab.clear();
        self.shared.clear();
        self.stage_threshold = stage_threshold;
        (self.entries, self.payload_bytes) = (0, 0);
        std::mem::replace(&mut self.slab, slab)
    }

    /// Add a segment to the container.
    #[inline]
    pub fn push(
        &mut self,
        conn_id: ConnId,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        data: &Bytes,
    ) {
        if self.entries == 0 {
            self.slab.put_slice(&[0; CONTAINER_OVERHEAD]);
        }
        let head = EntryHdr {
            conn_id,
            msg_id,
            seg_index,
            total_segs,
            len: data.len() as u32,
        };
        self.slab.put_slice(&head.write());
        if data.len() < self.stage_threshold {
            self.slab.put_slice(data);
        } else {
            self.shared.push((self.slab.len(), data.clone()));
        }
        self.entries += 1;
        self.payload_bytes += data.len();
    }

    /// Number of segments queued.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no segments are queued.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Application payload bytes queued (excluding per-entry headers).
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Wire size of the container this builder would produce.
    pub fn container_len(&self) -> usize {
        CONTAINER_OVERHEAD + self.entries * ENTRY_OVERHEAD + self.payload_bytes
    }

    /// Finish a container in which every entry was staged into the opaque
    /// [`Packet::Aggregate`] body.
    ///
    /// Panics if empty: an empty aggregate is always a strategy bug.
    pub fn finish(&mut self) -> Packet {
        let agg = self.finish_parts();
        assert_eq!(agg.zero_copy_bytes, 0, "a flat container stages it all");
        Packet::Aggregate(agg.slab)
    }

    /// Finish into scatter-gather body parts: the staged runs of the
    /// slab, cut where a zero-copy payload rides between them. The
    /// returned [`AggregateParts`] reports how many payload bytes were
    /// staged so the engine can charge exactly that memcpy cost.
    ///
    /// Panics if empty, like [`AggregateBuilder::finish`]. The builder is
    /// left empty with its list kept: one builder serves every aggregate
    /// of an engine without allocating again.
    pub fn finish_parts(&mut self) -> AggregateParts {
        assert!(self.entries > 0, "empty aggregate container");
        let count = u16::try_from(self.entries).expect("too many entries in one aggregate");
        self.slab[..CONTAINER_OVERHEAD].copy_from_slice(&count.to_le_bytes());
        let zero_copy_bytes: usize = self.shared.iter().map(|(_, p)| p.len()).sum();
        let (staged_bytes, container_len) =
            (self.payload_bytes - zero_copy_bytes, self.container_len());
        // Every zero-copy payload cuts the (single) slab allocation into
        // staged runs, which become slices of the frozen slab around the
        // payload's own part.
        let slab = std::mem::take(&mut self.slab).freeze();
        (self.entries, self.payload_bytes) = (0, 0);
        let mut parts = PartList::new();
        let mut run_start = 0;
        for (at, payload) in self.shared.drain(..) {
            parts.push(slab.slice(run_start..at));
            parts.push(payload);
            run_start = at;
        }
        parts.push(slab.slice(run_start..));
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

/// Append the entries of the container that is the next thing in `r` to
/// `entries`.
pub(crate) fn parse_entries(
    r: &mut impl Source,
    entries: &mut Vec<AggregateEntry>,
) -> Result<(), WireError> {
    let count = u16::from_le_bytes(r.array()?) as usize;
    if count == 0 {
        return Err(WireError::BadLength {
            what: "aggregate count",
            value: 0,
        });
    }
    // (Sized by what can be there, not by a count off the wire alone.)
    entries.reserve(count.min(r.remaining() / ENTRY_OVERHEAD));
    for _ in 0..count {
        let h = EntryHdr::read(&r.array()?);
        entries.push(AggregateEntry {
            conn_id: h.conn_id,
            msg_id: h.msg_id,
            seg_index: h.seg_index,
            total_segs: h.total_segs,
            data: r.bytes(h.len as usize)?,
        });
    }
    Ok(())
}

/// Parse an aggregate container body back into its entries.
pub fn parse_aggregate(body: &[u8]) -> Result<Vec<AggregateEntry>, WireError> {
    let mut r = Reader::new(body, "aggregate container");
    let mut entries = Vec::new();
    parse_entries(&mut r, &mut entries)?;
    r.expect_end()?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(b: &mut AggregateBuilder, msg_id: u64, seg: u16, total: u16, data: &[u8]) {
        b.push(0, msg_id, seg, total, &Bytes::copy_from_slice(data));
    }

    fn container(b: &mut AggregateBuilder) -> Bytes {
        let Packet::Aggregate(body) = b.finish() else {
            panic!("wrong kind")
        };
        body
    }

    #[test]
    fn roundtrip_multiple_messages() {
        let mut b = AggregateBuilder::new();
        push(&mut b, 1, 0, 2, b"first");
        push(&mut b, 1, 1, 2, b"second");
        push(&mut b, 9, 0, 1, b"other message");
        assert_eq!(b.len(), 3);
        assert_eq!(b.payload_bytes(), 5 + 6 + 13);
        let expected_len = b.container_len();

        let body = container(&mut b);
        assert_eq!(body.len(), expected_len);
        assert!(b.is_empty(), "finishing leaves the builder empty");
        let entries = parse_aggregate(&body).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].data, Bytes::from_static(b"first"));
        assert_eq!(entries[2].msg_id, 9);
    }

    #[test]
    fn roundtrip_through_full_packet_encode() {
        let mut b = AggregateBuilder::new();
        push(&mut b, 4, 0, 1, &[0xCC; 100]);
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
        push(&mut b, 1, 0, 1, b"");
        push(&mut b, 2, 0, 1, b"x");
        let entries = parse_aggregate(&container(&mut b)).unwrap();
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
        assert!(matches!(
            parse_aggregate(&[0, 0]),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn truncated_entry_rejected() {
        let mut b = AggregateBuilder::new();
        push(&mut b, 1, 0, 1, b"payload");
        let body = container(&mut b);
        for cut in [1, 3, 10, body.len() - 1] {
            assert!(parse_aggregate(&body[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut b = AggregateBuilder::new();
        push(&mut b, 1, 0, 1, b"p");
        let mut extended = container(&mut b).to_vec();
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
        // Threshold 256: the two big entries ride zero-copy.
        sg.begin(256, BytesMut::new());
        for b in [&mut flat, &mut sg] {
            push(b, 1, 0, 2, b"small one");
            push(b, 2, 0, 1, &big);
            push(b, 1, 1, 2, b"small two");
            push(b, 3, 0, 1, &big);
        }
        let body = container(&mut flat);
        let parts = sg.finish_parts();
        assert_eq!(parts.staged_bytes, 9 + 9);
        assert_eq!(parts.zero_copy_bytes, 1024);
        assert_eq!(parts.container_len, body.len());
        let mut joined = Vec::new();
        for p in parts.parts.iter() {
            joined.extend_from_slice(p);
        }
        assert_eq!(joined, body.to_vec(), "wire images must be identical");
        // Interleaving: run / big / run / big (the last entry is
        // zero-copy, so the empty tail run is skipped).
        assert_eq!(parts.parts.len(), 4);
    }

    #[test]
    fn finish_parts_all_small_is_one_staged_run() {
        let mut b = AggregateBuilder::new();
        b.begin(4096, BytesMut::new());
        push(&mut b, 1, 0, 1, b"aa");
        push(&mut b, 2, 0, 1, b"bb");
        let parts = b.finish_parts();
        assert_eq!(parts.parts.len(), 1, "everything staged in one slab run");
        assert_eq!(parts.staged_bytes, 4);
        assert_eq!(parts.zero_copy_bytes, 0);
    }

    #[test]
    fn finish_parts_zero_copy_slices_share_storage() {
        let big = Bytes::from(vec![0xCD; 300]);
        let mut b = AggregateBuilder::new();
        b.begin(128, BytesMut::new());
        b.push(0, 1, 0, 1, &big);
        let parts = b.finish_parts();
        let payload = parts
            .parts
            .iter()
            .find(|p| p.len() == 300)
            .expect("payload part");
        assert_eq!(payload.as_slice().as_ptr(), big.as_slice().as_ptr());
    }

    /// A container begun and abandoned (an aggregate that failed half-way)
    /// hands its slab back at the next `begin` and leaves nothing behind.
    #[test]
    fn begin_returns_the_unfinished_slab_and_starts_clean() {
        let mut b = AggregateBuilder::new();
        b.begin(4, BytesMut::with_capacity(512));
        push(&mut b, 1, 0, 1, b"abandoned");
        let back = b.begin(4096, BytesMut::new());
        assert_eq!(back.capacity(), 512);
        assert!(b.is_empty());
        push(&mut b, 2, 0, 1, b"kept");
        let parts = b.finish_parts();
        assert_eq!((parts.staged_bytes, parts.zero_copy_bytes), (4, 0));
        assert_eq!(parse_aggregate(&parts.slab).unwrap()[0].msg_id, 2);
    }

    #[test]
    fn overhead_constants_match_layout() {
        let mut b = AggregateBuilder::new();
        push(&mut b, 1, 0, 1, b"abc");
        assert_eq!(
            container(&mut b).len(),
            CONTAINER_OVERHEAD + ENTRY_OVERHEAD + 3
        );
    }
}
