//! Receive-side reassembly.
//!
//! Multi-rail transfers deliver pieces of a message out of order: eager
//! segments may be aggregated or not, and large segments arrive as chunks
//! over *different* rails (paper §4: "large data segments can be split on
//! the sending side and later reassembled on the receiving side"). The
//! [`Reassembler`] brings them back together:
//!
//! * a message is an ordered list of segments (`seg_index` /
//!   `total_segs`);
//! * each segment is either delivered whole (eager/aggregate) or as a set
//!   of byte-ranged chunks;
//! * completion is detected per segment, then per message.
//!
//! The reassembler is strict: duplicate or overlapping data is reported as
//! an error (the engine decides whether to tolerate it — retry logic does,
//! normal operation treats it as a protocol bug).

use std::collections::HashMap;

use bytes::Bytes;

use crate::MsgId;

/// Reassembly errors (protocol violations from the reassembler's view).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReasmError {
    /// Two packets disagreed about the number of segments in the message.
    SegCountMismatch {
        /// Message involved.
        msg_id: MsgId,
        /// Count seen first.
        have: u16,
        /// Count in the offending packet.
        got: u16,
    },
    /// A whole segment arrived twice.
    DuplicateSegment {
        /// Message involved.
        msg_id: MsgId,
        /// Segment index.
        seg_index: u16,
    },
    /// A chunk overlapped already-received bytes.
    OverlappingChunk {
        /// Message involved.
        msg_id: MsgId,
        /// Segment index.
        seg_index: u16,
        /// Offset of the offending chunk.
        offset: u64,
    },
    /// Two chunks disagreed about a segment's total length, or a chunk ran
    /// past it.
    LengthMismatch {
        /// Message involved.
        msg_id: MsgId,
        /// Segment index.
        seg_index: u16,
    },
    /// A segment index was at or above `total_segs`.
    SegIndexOutOfRange {
        /// Message involved.
        msg_id: MsgId,
        /// The offending index.
        seg_index: u16,
        /// The message's segment count.
        total_segs: u16,
    },
    /// Chunked and eager delivery were mixed for one segment.
    MixedDelivery {
        /// Message involved.
        msg_id: MsgId,
        /// Segment index.
        seg_index: u16,
    },
}

impl std::fmt::Display for ReasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ReasmError {}

/// A fully reassembled message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageAssembly {
    /// The message id.
    pub msg_id: MsgId,
    /// Segments in index order, exactly as packed by the sender.
    pub segments: Vec<Bytes>,
}

impl MessageAssembly {
    /// Total payload bytes across segments.
    pub fn total_len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Concatenate segments into one buffer (convenience for tests and the
    /// mini-MPI layer).
    pub fn into_contiguous(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_len());
        for s in self.segments {
            out.extend_from_slice(&s);
        }
        out
    }
}

#[derive(Debug)]
enum SegState {
    /// Nothing received yet.
    Missing,
    /// Delivered whole.
    Complete(Bytes),
    /// Being chunk-reassembled.
    Chunked {
        buf: Vec<u8>,
        /// Sorted, disjoint received intervals `(start, end)`.
        intervals: Vec<(u64, u64)>,
        total_len: u64,
        received: u64,
    },
}

impl SegState {
    fn is_complete(&self) -> bool {
        match self {
            SegState::Complete(_) => true,
            SegState::Chunked {
                received,
                total_len,
                ..
            } => received == total_len,
            SegState::Missing => false,
        }
    }
}

/// Write `data` at `start` of a segment buffer that grows as chunks
/// arrive: `buf` holds the bytes up to the furthest one received so far
/// and was allocated with the segment's full length, so nothing moves.
/// A chunk that lands at the end is appended, the gap in front of one
/// that lands beyond it is zero-filled (to be overwritten when its chunk
/// arrives), and only bytes already there are written over — a
/// rendezvous chunk is not written twice, once as zeros.
fn store(buf: &mut Vec<u8>, start: usize, data: &[u8]) {
    if start > buf.len() {
        buf.resize(start, 0);
    }
    let inside = data.len().min(buf.len() - start);
    buf[start..start + inside].copy_from_slice(&data[..inside]);
    buf.extend_from_slice(&data[inside..]);
}

#[derive(Debug)]
struct PartialMessage {
    total_segs: u16,
    segs: Vec<SegState>,
    complete_segs: u16,
}

impl PartialMessage {
    fn new(total_segs: u16) -> Self {
        PartialMessage {
            total_segs,
            segs: (0..total_segs).map(|_| SegState::Missing).collect(),
            complete_segs: 0,
        }
    }
}

/// Per-connection reassembler for incoming messages.
#[derive(Debug, Default)]
pub struct Reassembler {
    partial: HashMap<MsgId, PartialMessage>,
    /// Messages completed so far (accounting).
    completed_count: u64,
    /// Payload bytes completed so far (accounting).
    completed_bytes: u64,
}

impl Reassembler {
    /// Empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Messages currently in flight (incomplete).
    pub fn in_flight(&self) -> usize {
        self.partial.len()
    }

    /// Total messages completed.
    pub fn completed_count(&self) -> u64 {
        self.completed_count
    }

    /// Total payload bytes across completed messages.
    pub fn completed_bytes(&self) -> u64 {
        self.completed_bytes
    }

    fn entry(&mut self, msg_id: MsgId, total_segs: u16) -> Result<&mut PartialMessage, ReasmError> {
        let pm = self
            .partial
            .entry(msg_id)
            .or_insert_with(|| PartialMessage::new(total_segs));
        if pm.total_segs != total_segs {
            return Err(ReasmError::SegCountMismatch {
                msg_id,
                have: pm.total_segs,
                got: total_segs,
            });
        }
        Ok(pm)
    }

    fn check_index(msg_id: MsgId, seg_index: u16, total_segs: u16) -> Result<(), ReasmError> {
        if seg_index >= total_segs {
            return Err(ReasmError::SegIndexOutOfRange {
                msg_id,
                seg_index,
                total_segs,
            });
        }
        Ok(())
    }

    /// Deliver one whole segment. Returns the completed message when this
    /// was the last missing piece.
    pub fn insert_eager(
        &mut self,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        data: Bytes,
    ) -> Result<Option<MessageAssembly>, ReasmError> {
        Self::check_index(msg_id, seg_index, total_segs)?;
        let pm = self.entry(msg_id, total_segs)?;
        match &pm.segs[seg_index as usize] {
            SegState::Missing => {}
            SegState::Complete(_) => {
                return Err(ReasmError::DuplicateSegment { msg_id, seg_index })
            }
            SegState::Chunked { .. } => {
                return Err(ReasmError::MixedDelivery { msg_id, seg_index })
            }
        }
        pm.segs[seg_index as usize] = SegState::Complete(data);
        pm.complete_segs += 1;
        Ok(self.finish_if_done(msg_id))
    }

    /// Deliver one chunk of a segment. Returns the completed message when
    /// this chunk finished the last segment.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_chunk(
        &mut self,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        offset: u64,
        total_len: u64,
        data: &[u8],
    ) -> Result<Option<MessageAssembly>, ReasmError> {
        Self::check_index(msg_id, seg_index, total_segs)?;
        if offset + data.len() as u64 > total_len {
            return Err(ReasmError::LengthMismatch { msg_id, seg_index });
        }
        let pm = self.entry(msg_id, total_segs)?;
        let slot = &mut pm.segs[seg_index as usize];
        if let SegState::Missing = slot {
            *slot = SegState::Chunked {
                buf: Vec::with_capacity(total_len as usize),
                intervals: Vec::new(),
                total_len,
                received: 0,
            };
        }
        match slot {
            SegState::Chunked {
                buf,
                intervals,
                total_len: have_len,
                received,
            } => {
                if *have_len != total_len {
                    return Err(ReasmError::LengthMismatch { msg_id, seg_index });
                }
                let start = offset;
                let end = offset + data.len() as u64;
                // Find insertion point in the sorted disjoint interval set
                // and reject any overlap.
                let idx = intervals.partition_point(|&(s, _)| s < start);
                if idx > 0 && intervals[idx - 1].1 > start {
                    return Err(ReasmError::OverlappingChunk {
                        msg_id,
                        seg_index,
                        offset,
                    });
                }
                if idx < intervals.len() && intervals[idx].0 < end {
                    return Err(ReasmError::OverlappingChunk {
                        msg_id,
                        seg_index,
                        offset,
                    });
                }
                intervals.insert(idx, (start, end));
                store(buf, start as usize, data);
                *received += data.len() as u64;
                if *received == *have_len {
                    pm.complete_segs += 1;
                }
            }
            SegState::Complete(_) => return Err(ReasmError::MixedDelivery { msg_id, seg_index }),
            SegState::Missing => unreachable!("initialized above"),
        }
        Ok(self.finish_if_done(msg_id))
    }

    /// Like [`Self::insert_chunk`], but tolerant of data already received:
    /// overlapping byte ranges are trimmed away and only the missing bytes
    /// are stored. Retransmissions re-send whole messages and re-chunk
    /// them independently, so a retransmitted chunk's boundaries may
    /// straddle data that survived an earlier attempt — the payload bytes
    /// are identical, only the framing differs. Returns the completed
    /// message (if this chunk finished it) and the number of genuinely new
    /// bytes stored (0 for a pure duplicate).
    #[allow(clippy::too_many_arguments)]
    pub fn insert_chunk_lenient(
        &mut self,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        offset: u64,
        total_len: u64,
        data: &[u8],
    ) -> Result<(Option<MessageAssembly>, u64), ReasmError> {
        Self::check_index(msg_id, seg_index, total_segs)?;
        if offset + data.len() as u64 > total_len {
            return Err(ReasmError::LengthMismatch { msg_id, seg_index });
        }
        let pm = self.entry(msg_id, total_segs)?;
        let slot = &mut pm.segs[seg_index as usize];
        if let SegState::Missing = slot {
            *slot = SegState::Chunked {
                buf: Vec::with_capacity(total_len as usize),
                intervals: Vec::new(),
                total_len,
                received: 0,
            };
        }
        let mut new_bytes = 0u64;
        match slot {
            SegState::Chunked {
                buf,
                intervals,
                total_len: have_len,
                received,
            } => {
                if *have_len != total_len {
                    return Err(ReasmError::LengthMismatch { msg_id, seg_index });
                }
                // Walk the sorted disjoint interval set and copy only the
                // uncovered sub-ranges of [offset, end).
                let end = offset + data.len() as u64;
                let mut cur = offset;
                let mut gaps: Vec<(u64, u64)> = Vec::new();
                for &(s, e) in intervals.iter() {
                    if e <= cur {
                        continue;
                    }
                    if s >= end {
                        break;
                    }
                    if s > cur {
                        gaps.push((cur, s));
                    }
                    cur = cur.max(e);
                    if cur >= end {
                        break;
                    }
                }
                if cur < end {
                    gaps.push((cur, end));
                }
                for &(s, e) in &gaps {
                    store(
                        buf,
                        s as usize,
                        &data[(s - offset) as usize..(e - offset) as usize],
                    );
                    let idx = intervals.partition_point(|&(is, _)| is < s);
                    intervals.insert(idx, (s, e));
                    new_bytes += e - s;
                }
                *received += new_bytes;
                if new_bytes > 0 && *received == *have_len {
                    pm.complete_segs += 1;
                }
            }
            // The segment already arrived whole (eager) — a chunked
            // retransmission of it carries nothing new.
            SegState::Complete(_) => {}
            SegState::Missing => unreachable!("initialized above"),
        }
        Ok((self.finish_if_done(msg_id), new_bytes))
    }

    fn finish_if_done(&mut self, msg_id: MsgId) -> Option<MessageAssembly> {
        let pm = self.partial.get(&msg_id)?;
        if pm.complete_segs != pm.total_segs {
            return None;
        }
        debug_assert!(pm.segs.iter().all(SegState::is_complete));
        let pm = self.partial.remove(&msg_id).unwrap();
        let segments: Vec<Bytes> = pm
            .segs
            .into_iter()
            .map(|s| match s {
                SegState::Complete(b) => b,
                SegState::Chunked { buf, .. } => Bytes::from(buf),
                SegState::Missing => unreachable!("all segments complete"),
            })
            .collect();
        let assembly = MessageAssembly { msg_id, segments };
        self.completed_count += 1;
        self.completed_bytes += assembly.total_len() as u64;
        Some(assembly)
    }

    /// Drop any partial state for `msg_id` (failure handling), returning
    /// whether anything was dropped.
    pub fn abort(&mut self, msg_id: MsgId) -> bool {
        self.partial.remove(&msg_id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    #[test]
    fn single_segment_eager_completes() {
        let mut r = Reassembler::new();
        let done = r.insert_eager(1, 0, 1, b(b"hello")).unwrap().unwrap();
        assert_eq!(done.msg_id, 1);
        assert_eq!(done.segments.len(), 1);
        assert_eq!(&done.segments[0][..], b"hello");
        assert_eq!(r.in_flight(), 0);
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.completed_bytes(), 5);
    }

    #[test]
    fn multi_segment_out_of_order() {
        let mut r = Reassembler::new();
        assert!(r.insert_eager(7, 2, 3, b(b"C")).unwrap().is_none());
        assert!(r.insert_eager(7, 0, 3, b(b"A")).unwrap().is_none());
        let done = r.insert_eager(7, 1, 3, b(b"B")).unwrap().unwrap();
        let flat = done.into_contiguous();
        assert_eq!(flat, b"ABC");
    }

    #[test]
    fn chunked_segment_any_order() {
        let mut r = Reassembler::new();
        let payload: Vec<u8> = (0..100u8).collect();
        assert!(r
            .insert_chunk(3, 0, 1, 60, 100, &payload[60..])
            .unwrap()
            .is_none());
        assert!(r
            .insert_chunk(3, 0, 1, 0, 100, &payload[..30])
            .unwrap()
            .is_none());
        let done = r
            .insert_chunk(3, 0, 1, 30, 100, &payload[30..60])
            .unwrap()
            .unwrap();
        assert_eq!(done.segments[0].as_ref(), payload.as_slice());
    }

    #[test]
    fn mixed_eager_and_chunked_segments() {
        let mut r = Reassembler::new();
        let big: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        assert!(r.insert_eager(9, 0, 2, b(b"small")).unwrap().is_none());
        assert!(r
            .insert_chunk(9, 1, 2, 0, 1000, &big[..500])
            .unwrap()
            .is_none());
        let done = r
            .insert_chunk(9, 1, 2, 500, 1000, &big[500..])
            .unwrap()
            .unwrap();
        assert_eq!(&done.segments[0][..], b"small");
        assert_eq!(done.segments[1].as_ref(), big.as_slice());
    }

    #[test]
    fn duplicate_segment_rejected() {
        let mut r = Reassembler::new();
        r.insert_eager(1, 0, 2, b(b"x")).unwrap();
        let err = r.insert_eager(1, 0, 2, b(b"x")).unwrap_err();
        assert_eq!(
            err,
            ReasmError::DuplicateSegment {
                msg_id: 1,
                seg_index: 0
            }
        );
    }

    #[test]
    fn overlapping_chunk_rejected() {
        let mut r = Reassembler::new();
        r.insert_chunk(1, 0, 1, 0, 100, &[0; 50]).unwrap();
        let err = r.insert_chunk(1, 0, 1, 25, 100, &[0; 50]).unwrap_err();
        assert!(matches!(
            err,
            ReasmError::OverlappingChunk { offset: 25, .. }
        ));
        // Exact duplicate also overlaps.
        let err = r.insert_chunk(1, 0, 1, 0, 100, &[0; 50]).unwrap_err();
        assert!(matches!(
            err,
            ReasmError::OverlappingChunk { offset: 0, .. }
        ));
    }

    #[test]
    fn lenient_chunk_trims_overlap_and_keeps_received_data() {
        let mut r = Reassembler::new();
        let payload: Vec<u8> = (0..=255u8).cycle().take(100).collect();
        // A chunk from the first attempt survived: [60, 100).
        r.insert_chunk(1, 0, 1, 60, 100, &payload[60..]).unwrap();
        // The retransmission re-chunks the message with different
        // boundaries; its pieces straddle the surviving interval.
        let (done, fresh) = r
            .insert_chunk_lenient(1, 0, 1, 0, 100, &payload[..50])
            .unwrap();
        assert!(done.is_none());
        assert_eq!(fresh, 50);
        // [40, 80) overlaps both existing intervals; only [50, 60) is new.
        let (done, fresh) = r
            .insert_chunk_lenient(1, 0, 1, 40, 100, &payload[40..80])
            .unwrap();
        assert_eq!(fresh, 10);
        let done = done.expect("message complete once every byte is covered");
        assert_eq!(done.segments[0].as_ref(), payload.as_slice());
        // Entirely-covered chunks are pure duplicates.
        let mut r2 = Reassembler::new();
        r2.insert_chunk(2, 0, 1, 0, 100, &payload[..50]).unwrap();
        let (done, fresh) = r2
            .insert_chunk_lenient(2, 0, 1, 10, 100, &payload[10..30])
            .unwrap();
        assert!(done.is_none());
        assert_eq!(fresh, 0);
    }

    #[test]
    fn chunk_past_total_rejected() {
        let mut r = Reassembler::new();
        let err = r.insert_chunk(1, 0, 1, 90, 100, &[0; 20]).unwrap_err();
        assert!(matches!(err, ReasmError::LengthMismatch { .. }));
    }

    #[test]
    fn inconsistent_total_len_rejected() {
        let mut r = Reassembler::new();
        r.insert_chunk(1, 0, 1, 0, 100, &[0; 10]).unwrap();
        let err = r.insert_chunk(1, 0, 1, 50, 200, &[0; 10]).unwrap_err();
        assert!(matches!(err, ReasmError::LengthMismatch { .. }));
    }

    #[test]
    fn seg_count_mismatch_rejected() {
        let mut r = Reassembler::new();
        r.insert_eager(1, 0, 3, b(b"x")).unwrap();
        let err = r.insert_eager(1, 1, 4, b(b"y")).unwrap_err();
        assert_eq!(
            err,
            ReasmError::SegCountMismatch {
                msg_id: 1,
                have: 3,
                got: 4
            }
        );
    }

    #[test]
    fn seg_index_out_of_range_rejected() {
        let mut r = Reassembler::new();
        let err = r.insert_eager(1, 3, 3, b(b"x")).unwrap_err();
        assert!(matches!(err, ReasmError::SegIndexOutOfRange { .. }));
    }

    #[test]
    fn mixed_delivery_rejected() {
        let mut r = Reassembler::new();
        r.insert_eager(1, 0, 2, b(b"whole")).unwrap();
        let err = r.insert_chunk(1, 0, 2, 0, 10, &[0; 5]).unwrap_err();
        assert!(matches!(err, ReasmError::MixedDelivery { .. }));

        let mut r = Reassembler::new();
        r.insert_chunk(2, 0, 1, 0, 10, &[0; 5]).unwrap();
        let err = r.insert_eager(2, 0, 1, b(b"whole")).unwrap_err();
        assert!(matches!(err, ReasmError::MixedDelivery { .. }));
    }

    #[test]
    fn abort_discards_partial_state() {
        let mut r = Reassembler::new();
        r.insert_eager(5, 0, 2, b(b"x")).unwrap();
        assert_eq!(r.in_flight(), 1);
        assert!(r.abort(5));
        assert!(!r.abort(5));
        assert_eq!(r.in_flight(), 0);
        // The message can start over afterwards.
        r.insert_eager(5, 0, 2, b(b"x")).unwrap();
        let done = r.insert_eager(5, 1, 2, b(b"y")).unwrap().unwrap();
        assert_eq!(done.into_contiguous(), b"xy");
    }

    #[test]
    fn interleaved_messages_do_not_interfere() {
        let mut r = Reassembler::new();
        assert!(r.insert_eager(1, 0, 2, b(b"1a")).unwrap().is_none());
        assert!(r.insert_eager(2, 0, 2, b(b"2a")).unwrap().is_none());
        let d2 = r.insert_eager(2, 1, 2, b(b"2b")).unwrap().unwrap();
        assert_eq!(d2.into_contiguous(), b"2a2b");
        let d1 = r.insert_eager(1, 1, 2, b(b"1b")).unwrap().unwrap();
        assert_eq!(d1.into_contiguous(), b"1a1b");
    }

    #[test]
    fn zero_length_segment_completes() {
        let mut r = Reassembler::new();
        let done = r.insert_eager(1, 0, 1, Bytes::new()).unwrap().unwrap();
        assert_eq!(done.total_len(), 0);
    }
}
