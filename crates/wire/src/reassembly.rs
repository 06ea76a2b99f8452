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
//!
//! Reassembly is by reference: a chunk is kept as the `Bytes` it arrived
//! in, and slices of one allocation re-join as they meet
//! ([`Bytes::try_unsplit`]). Where every chunk is a slice of the sender's
//! segment (the mem fabric, the sim) any arrival order ends in that
//! segment again — delivered aliased, nothing allocated, nothing copied.
//! Where each chunk came in an allocation of its own (TCP: one per frame)
//! the pieces are gathered once, when the segment is whole. Nothing is
//! ever sized from a `total_len` off the wire before that many bytes are
//! actually held.
//!
//! What it allocates per message is what the message needs: the `Vec` of
//! its segments, and that one gather. Its own bookkeeping lives in a
//! window slot and inline lists.

use bytes::Bytes;

use crate::agg::AggregateEntry;
use crate::small::SmallList;
use crate::window::IdWindow;
use crate::MsgId;

/// What a [`Reassembler`] holds of the far side's making, twice: a
/// message id comes off the wire and can be anything, so one further
/// ahead of the window than this is refused
/// ([`ReasmError::OutOfWindow`]) before any slot is made for it; and a
/// message that never finishes (a frame of it was lost) is remembered as
/// unfinished until this many newer ones have been given up on too.
pub const MAX_SPAN: u64 = 1 << 16;

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
    /// The message id is more than [`MAX_SPAN`] ahead of the window.
    OutOfWindow {
        /// The offending id.
        msg_id: MsgId,
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

/// The received pieces of a chunked segment as `(offset, bytes)`: sorted,
/// disjoint, and maximal — neighbours that adjoin in one allocation are
/// one piece. Chunks of one rail arrive in order and re-join, so two
/// rails make two pieces.
type Pieces = SmallList<(u64, Bytes), 2>;

/// Sub-ranges `(start, end)` of one chunk.
type Gaps = SmallList<(u64, u64), 2>;

#[derive(Debug, Default)]
enum SegState {
    /// Nothing received yet.
    #[default]
    Missing,
    /// Delivered whole.
    Complete(Bytes),
    /// Being chunk-reassembled; one piece once every byte is there.
    Chunked {
        pieces: Pieces,
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

/// The sub-ranges of `[start, end)` that `pieces` does not cover yet.
fn uncovered(pieces: &Pieces, start: u64, end: u64) -> Gaps {
    let mut gaps = Gaps::new();
    let mut cur = start;
    for (s, piece) in pieces.iter() {
        let (s, e) = (*s, *s + piece.len() as u64);
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
    }
    if cur < end {
        gaps.push((cur, end));
    }
    gaps
}

/// Put `piece`, whose range `[at, at + len)` overlaps nothing in `pieces`,
/// in its place and re-join it with the neighbours it continues, in the
/// segment and in memory.
fn place(pieces: &mut Pieces, at: u64, piece: Bytes) {
    let i = pieces
        .iter()
        .position(|(start, _)| *start >= at)
        .unwrap_or(pieces.len());
    pieces.insert(i, (at, piece));
    // The neighbour behind first: the one in front keeps its index.
    for back in [i + 1, i] {
        if back == 0 || back >= pieces.len() {
            continue;
        }
        let front = back - 1;
        if pieces[front].0 + pieces[front].1.len() as u64 != pieces[back].0 {
            continue;
        }
        let halves = (
            std::mem::take(&mut pieces[front].1),
            std::mem::take(&mut pieces[back].1),
        );
        match halves.0.try_unsplit(halves.1) {
            Ok(joined) => {
                pieces[front].1 = joined;
                pieces.remove(back);
            }
            Err(halves) => (pieces[front].1, pieces[back].1) = halves,
        }
    }
}

/// A message with pieces missing. One-segment messages, the common case,
/// keep their segment inline.
#[derive(Debug)]
struct PartialMessage {
    total_segs: u16,
    segs: SmallList<SegState, 1>,
    complete_segs: u16,
}

/// Per-connection reassembler for incoming messages. Message ids are the
/// sender's per-connection counter, so the messages in flight live in an
/// [`IdWindow`]: a finished one is retired, and a late piece of it is
/// told apart from the first piece of a new message for good.
#[derive(Debug, Default)]
pub struct Reassembler {
    partial: IdWindow<PartialMessage>,
    /// Messages completed so far (accounting).
    completed_count: u64,
    /// Payload bytes completed so far (accounting).
    completed_bytes: u64,
    /// Unfinished messages given up on (accounting).
    abandoned_count: u64,
    /// Bytes of chunked segments that completed as one piece (accounting).
    joined_bytes: u64,
    /// Bytes of chunked segments copied into one buffer (accounting).
    gathered_bytes: u64,
}

impl Reassembler {
    /// Empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Messages currently in flight (incomplete).
    pub fn in_flight(&self) -> usize {
        self.partial.iter().count()
    }

    /// Slots held for messages in flight, finished ones behind an older
    /// unfinished one and never-finished ones the window moved past
    /// included (state accounting).
    pub fn span(&self) -> usize {
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

    /// Messages that never finished and were forgotten: more than
    /// [`MAX_SPAN`] newer ones never finished either.
    pub fn abandoned_count(&self) -> u64 {
        self.abandoned_count
    }

    /// Payload bytes of the chunked segments that completed as one piece
    /// — every chunk a slice of one allocation — and are delivered as
    /// they arrived: not copied.
    pub fn joined_bytes(&self) -> u64 {
        self.joined_bytes
    }

    /// Payload bytes of the chunked segments whose chunks arrived in
    /// different allocations and were copied, once, into one buffer when
    /// the segment was whole.
    pub fn gathered_bytes(&self) -> u64 {
        self.gathered_bytes
    }

    /// The message `msg_id`, of `total_segs` segments of which `seg_index`
    /// is one, made on first sight. `None` when it completed earlier.
    fn message(
        &mut self,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
    ) -> Result<Option<&mut PartialMessage>, ReasmError> {
        if seg_index >= total_segs {
            return Err(ReasmError::SegIndexOutOfRange {
                msg_id,
                seg_index,
                total_segs,
            });
        }
        // Messages that never finish must not leave the next one out of
        // the window: the oldest make room for it.
        let span = MAX_SPAN as usize;
        self.abandoned_count += self.partial.bound(span / 2, span) as u64;
        if self.partial.span_with(msg_id) > MAX_SPAN {
            return Err(ReasmError::OutOfWindow { msg_id });
        }
        let fresh = || PartialMessage {
            total_segs,
            segs: (0..total_segs).map(|_| SegState::Missing).collect(),
            complete_segs: 0,
        };
        let Some(pm) = self.partial.live_or_insert_with(msg_id, fresh) else {
            return Ok(None);
        };
        if pm.total_segs != total_segs {
            return Err(ReasmError::SegCountMismatch {
                msg_id,
                have: pm.total_segs,
                got: total_segs,
            });
        }
        Ok(Some(pm))
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
        let mut one = [AggregateEntry {
            conn_id: 0,
            msg_id,
            seg_index,
            total_segs,
            data,
        }];
        self.insert_eager_run(&mut one).1
    }

    /// Deliver the leading entries of `entries` that are whole segments of
    /// one message — the first entry's, on its connection — as
    /// [`Self::insert_eager`] would one by one, up to and including the
    /// one that completes it; the message is looked up once. Returns how
    /// many were taken (their payload is moved out) and what
    /// `insert_eager` would have said of the last of them: an error is
    /// about the entry after those, which is left as it was.
    pub fn insert_eager_run(
        &mut self,
        entries: &mut [AggregateEntry],
    ) -> (usize, Result<Option<MessageAssembly>, ReasmError>) {
        let Some(first) = entries.first() else {
            return (0, Ok(None));
        };
        let (conn_id, msg_id, seg_index) = (first.conn_id, first.msg_id, first.seg_index);
        let mut taken = 0;
        let whole = self
            .message(msg_id, seg_index, first.total_segs)
            .and_then(|pm| {
                // (A segment of a message that completed earlier arrived twice.)
                let pm = pm.ok_or(ReasmError::DuplicateSegment { msg_id, seg_index })?;
                let run = entries
                    .iter_mut()
                    .take_while(|e| (e.conn_id, e.msg_id) == (conn_id, msg_id));
                for e in run {
                    let (seg_index, total_segs) = (e.seg_index, e.total_segs);
                    if seg_index >= total_segs {
                        return Err(ReasmError::SegIndexOutOfRange {
                            msg_id,
                            seg_index,
                            total_segs,
                        });
                    }
                    if total_segs != pm.total_segs {
                        return Err(ReasmError::SegCountMismatch {
                            msg_id,
                            have: pm.total_segs,
                            got: total_segs,
                        });
                    }
                    match &mut pm.segs[seg_index as usize] {
                        slot @ SegState::Missing => {
                            *slot = SegState::Complete(std::mem::take(&mut e.data))
                        }
                        SegState::Complete(_) => {
                            return Err(ReasmError::DuplicateSegment { msg_id, seg_index })
                        }
                        SegState::Chunked { .. } => {
                            return Err(ReasmError::MixedDelivery { msg_id, seg_index })
                        }
                    }
                    taken += 1;
                    pm.complete_segs += 1;
                    if pm.complete_segs == pm.total_segs {
                        return Ok(true);
                    }
                }
                Ok(false)
            });
        let done = whole.map(|whole| whole.then(|| self.finish(msg_id)).flatten());
        (taken, done)
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
        data: Bytes,
    ) -> Result<Option<MessageAssembly>, ReasmError> {
        self.chunk(msg_id, seg_index, total_segs, offset, total_len, data, true)
            .map(|(done, _)| done)
    }

    /// Like [`Self::insert_chunk`], but tolerant of data already received:
    /// overlapping byte ranges are trimmed away and only the missing bytes
    /// are kept. Retransmissions re-send whole messages and re-chunk
    /// them independently, so a retransmitted chunk's boundaries may
    /// straddle data that survived an earlier attempt — the payload bytes
    /// are identical, only the framing differs. Returns the completed
    /// message (if this chunk finished it) and the number of genuinely new
    /// bytes kept (0 for a pure duplicate).
    #[allow(clippy::too_many_arguments)]
    pub fn insert_chunk_lenient(
        &mut self,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        offset: u64,
        total_len: u64,
        data: Bytes,
    ) -> Result<(Option<MessageAssembly>, u64), ReasmError> {
        self.chunk(
            msg_id, seg_index, total_segs, offset, total_len, data, false,
        )
    }

    /// Both chunk inserts: `strict` reports bytes already received (and a
    /// segment that arrived whole) as an error, otherwise they are
    /// skipped. Only the uncovered sub-ranges of the chunk are kept, as
    /// slices of `data`; the chunk that makes the segment whole leaves it
    /// in one piece.
    #[allow(clippy::too_many_arguments)]
    fn chunk(
        &mut self,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        offset: u64,
        total_len: u64,
        data: Bytes,
        strict: bool,
    ) -> Result<(Option<MessageAssembly>, u64), ReasmError> {
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= total_len)
            .ok_or(ReasmError::LengthMismatch { msg_id, seg_index })?;
        let overlap = ReasmError::OverlappingChunk {
            msg_id,
            seg_index,
            offset,
        };
        let slot = self
            .message(msg_id, seg_index, total_segs)?
            .and_then(|pm| pm.segs.get_mut(seg_index as usize));
        let Some(slot) = slot else {
            return if strict { Err(overlap) } else { Ok((None, 0)) };
        };
        if let SegState::Missing = slot {
            *slot = SegState::Chunked {
                pieces: Pieces::new(),
                total_len,
                received: 0,
            };
        }
        let mut new_bytes = 0u64;
        // Whether this chunk made the segment whole, and whether that
        // took a copy.
        let (mut seg_done, mut gathered) = (false, false);
        match slot {
            SegState::Chunked {
                pieces,
                total_len: have_len,
                received,
            } => {
                if *have_len != total_len {
                    return Err(ReasmError::LengthMismatch { msg_id, seg_index });
                }
                let gaps = uncovered(pieces, offset, end);
                new_bytes = gaps.iter().map(|(s, e)| e - s).sum();
                if strict && new_bytes != data.len() as u64 {
                    return Err(overlap);
                }
                for &(s, e) in gaps.iter() {
                    let gap = data.slice((s - offset) as usize..(e - offset) as usize);
                    place(pieces, s, gap);
                }
                *received += new_bytes;
                seg_done = new_bytes > 0 && *received == total_len;
                gathered = seg_done && pieces.len() > 1;
                if gathered {
                    // Sized by what is held, which by now is all of it.
                    let mut whole = Vec::with_capacity(*received as usize);
                    for (_, piece) in std::mem::take(pieces) {
                        whole.extend_from_slice(&piece);
                    }
                    pieces.push((0, Bytes::from(whole)));
                }
            }
            SegState::Complete(_) if strict => {
                return Err(ReasmError::MixedDelivery { msg_id, seg_index })
            }
            // The segment already arrived whole (eager) — a chunked
            // retransmission of it carries nothing new.
            SegState::Complete(_) | SegState::Missing => {}
        }
        match (seg_done, gathered) {
            (true, true) => self.gathered_bytes += total_len,
            (true, false) => self.joined_bytes += total_len,
            (false, _) => {}
        }
        Ok((self.finish_if_done(msg_id, seg_done), new_bytes))
    }

    /// Count a chunked segment that just completed and, when it was the
    /// last one missing, hand the message over.
    fn finish_if_done(&mut self, msg_id: MsgId, seg_done: bool) -> Option<MessageAssembly> {
        let pm = self.partial.live_mut(msg_id)?;
        pm.complete_segs += u16::from(seg_done);
        if pm.complete_segs != pm.total_segs {
            return None;
        }
        self.finish(msg_id)
    }

    /// Retire the message, all of whose segments are whole, and hand it
    /// over. The segments are taken out of its slot where it lies; what
    /// is retired is the emptied rest.
    fn finish(&mut self, msg_id: MsgId) -> Option<MessageAssembly> {
        let pm = self.partial.live_mut(msg_id)?;
        debug_assert!(pm.segs.iter().all(SegState::is_complete));
        let whole = |s: &mut SegState| match s {
            SegState::Complete(b) => std::mem::take(b),
            SegState::Chunked { pieces, .. } => pieces
                .iter_mut()
                .next()
                .map_or(Bytes::new(), |(_, b)| std::mem::take(b)),
            SegState::Missing => Bytes::new(),
        };
        let segments: Vec<Bytes> = pm.segs.iter_mut().map(whole).collect();
        self.partial.retire(msg_id);
        let assembly = MessageAssembly { msg_id, segments };
        self.completed_count += 1;
        self.completed_bytes += assembly.total_len() as u64;
        Some(assembly)
    }

    /// Drop any partial state for `msg_id` (failure handling), returning
    /// whether anything was dropped.
    pub fn abort(&mut self, msg_id: MsgId) -> bool {
        self.partial.forget(msg_id).is_some()
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
            .insert_chunk(3, 0, 1, 60, 100, b(&payload[60..]))
            .unwrap()
            .is_none());
        assert!(r
            .insert_chunk(3, 0, 1, 0, 100, b(&payload[..30]))
            .unwrap()
            .is_none());
        let done = r
            .insert_chunk(3, 0, 1, 30, 100, b(&payload[30..60]))
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
            .insert_chunk(9, 1, 2, 0, 1000, b(&big[..500]))
            .unwrap()
            .is_none());
        let done = r
            .insert_chunk(9, 1, 2, 500, 1000, b(&big[500..]))
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
        r.insert_chunk(1, 0, 1, 0, 100, b(&[0; 50])).unwrap();
        let err = r.insert_chunk(1, 0, 1, 25, 100, b(&[0; 50])).unwrap_err();
        assert!(matches!(
            err,
            ReasmError::OverlappingChunk { offset: 25, .. }
        ));
        // Exact duplicate also overlaps.
        let err = r.insert_chunk(1, 0, 1, 0, 100, b(&[0; 50])).unwrap_err();
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
        r.insert_chunk(1, 0, 1, 60, 100, b(&payload[60..])).unwrap();
        // The retransmission re-chunks the message with different
        // boundaries; its pieces straddle the surviving interval.
        let (done, fresh) = r
            .insert_chunk_lenient(1, 0, 1, 0, 100, b(&payload[..50]))
            .unwrap();
        assert!(done.is_none());
        assert_eq!(fresh, 50);
        // [40, 80) overlaps both existing intervals; only [50, 60) is new.
        let (done, fresh) = r
            .insert_chunk_lenient(1, 0, 1, 40, 100, b(&payload[40..80]))
            .unwrap();
        assert_eq!(fresh, 10);
        let done = done.expect("message complete once every byte is covered");
        assert_eq!(done.segments[0].as_ref(), payload.as_slice());
        // Entirely-covered chunks are pure duplicates.
        let mut r2 = Reassembler::new();
        r2.insert_chunk(2, 0, 1, 0, 100, b(&payload[..50])).unwrap();
        let (done, fresh) = r2
            .insert_chunk_lenient(2, 0, 1, 10, 100, b(&payload[10..30]))
            .unwrap();
        assert!(done.is_none());
        assert_eq!(fresh, 0);
    }

    #[test]
    fn chunk_past_total_rejected() {
        let mut r = Reassembler::new();
        let err = r.insert_chunk(1, 0, 1, 90, 100, b(&[0; 20])).unwrap_err();
        assert!(matches!(err, ReasmError::LengthMismatch { .. }));
    }

    #[test]
    fn inconsistent_total_len_rejected() {
        let mut r = Reassembler::new();
        r.insert_chunk(1, 0, 1, 0, 100, b(&[0; 10])).unwrap();
        let err = r.insert_chunk(1, 0, 1, 50, 200, b(&[0; 10])).unwrap_err();
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
        let err = r.insert_chunk(1, 0, 2, 0, 10, b(&[0; 5])).unwrap_err();
        assert!(matches!(err, ReasmError::MixedDelivery { .. }));

        let mut r = Reassembler::new();
        r.insert_chunk(2, 0, 1, 0, 10, b(&[0; 5])).unwrap();
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
    fn late_piece_of_a_completed_message_is_refused_not_restarted() {
        let mut r = Reassembler::new();
        r.insert_eager(0, 0, 1, b(b"done")).unwrap().unwrap();
        r.insert_chunk(1, 0, 1, 0, 4, b(b"done")).unwrap().unwrap();
        assert_eq!(r.span(), 0, "both retired");
        let err = r.insert_eager(0, 0, 1, b(b"done")).unwrap_err();
        assert!(matches!(
            err,
            ReasmError::DuplicateSegment { msg_id: 0, .. }
        ));
        let err = r.insert_chunk(1, 0, 1, 0, 4, b(b"done")).unwrap_err();
        assert!(matches!(
            err,
            ReasmError::OverlappingChunk { msg_id: 1, .. }
        ));
        let (done, fresh) = r.insert_chunk_lenient(1, 0, 1, 0, 4, b(b"done")).unwrap();
        assert!(done.is_none() && fresh == 0, "a pure duplicate");
        assert!(!r.abort(0), "nothing left to drop");
        assert_eq!((r.in_flight(), r.completed_count()), (0, 2));
    }

    #[test]
    fn finished_messages_wait_for_the_oldest_unfinished_one() {
        let mut r = Reassembler::new();
        r.insert_eager(0, 0, 2, b(b"half")).unwrap();
        for msg in 1..50 {
            r.insert_eager(msg, 0, 1, b(b"x")).unwrap().unwrap();
        }
        assert_eq!((r.in_flight(), r.span()), (1, 50));
        r.insert_eager(0, 1, 2, b(b"rest")).unwrap().unwrap();
        assert_eq!((r.in_flight(), r.span()), (0, 0));
    }

    #[test]
    fn message_id_far_ahead_is_refused_before_any_slot_is_made() {
        let mut r = Reassembler::new();
        let err = r.insert_eager(MAX_SPAN, 0, 1, b(b"x")).unwrap_err();
        assert_eq!(err, ReasmError::OutOfWindow { msg_id: MAX_SPAN });
        let err = r.insert_chunk(u64::MAX, 0, 1, 0, 1, b(b"x")).unwrap_err();
        assert_eq!(err, ReasmError::OutOfWindow { msg_id: u64::MAX });
        assert_eq!(r.span(), 0);
        r.insert_eager(MAX_SPAN - 1, 0, 2, b(b"x")).unwrap();
        assert_eq!(r.span() as u64, MAX_SPAN);
    }

    #[test]
    fn a_message_that_never_finishes_does_not_hold_the_others_back() {
        let mut r = Reassembler::new();
        r.insert_eager(0, 0, 2, b(b"half")).unwrap(); // its other half is lost
        for msg in 2..3 * MAX_SPAN {
            // (Message 1 is lost whole.)
            r.insert_eager(msg, 0, 1, b(b"x")).unwrap().unwrap();
            assert!(r.span() <= 66, "{} slots at message {msg}", r.span());
        }
        assert_eq!((r.in_flight(), r.abandoned_count()), (1, 0));
        // Neither is forgotten: both still complete, however late.
        r.insert_eager(1, 0, 1, b(b"late")).unwrap().unwrap();
        let done = r.insert_eager(0, 1, 2, b(b"rest")).unwrap().unwrap();
        assert_eq!(done.into_contiguous(), b"halfrest");
        assert_eq!((r.in_flight(), r.span()), (0, 0));
    }

    #[test]
    fn the_oldest_never_finished_messages_are_given_up_on_past_max_span() {
        let mut r = Reassembler::new();
        // Every other message loses its second half: too many unfinished
        // ones for the window to shed by itself, and still no message is
        // refused.
        let lost = 2 * MAX_SPAN;
        for msg in 0..2 * lost {
            if msg % 2 == 0 {
                r.insert_eager(msg, 0, 2, b(b"half")).unwrap();
            } else {
                r.insert_eager(msg, 0, 1, b(b"x")).unwrap().unwrap();
            }
            assert!(r.span() as u64 <= 2 * MAX_SPAN);
        }
        assert!(r.abandoned_count() > 0);
        assert_eq!(r.in_flight() as u64 + r.abandoned_count(), lost);
        // The oldest is forgotten (its late half is no new message), the
        // newest still completes.
        let err = r.insert_eager(0, 1, 2, b(b"rest")).unwrap_err();
        assert!(matches!(
            err,
            ReasmError::DuplicateSegment { msg_id: 0, .. }
        ));
        r.insert_eager(2 * lost - 2, 1, 2, b(b"rest"))
            .unwrap()
            .unwrap();
    }

    #[test]
    fn chunks_in_any_order_merge_into_one_interval() {
        let mut r = Reassembler::new();
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        // Two rails, each in order, interleaved; the middle one last.
        for (s, e) in [(0, 512), (2048, 3000), (512, 1024), (3000, 4096)] {
            let done = r
                .insert_chunk(0, 0, 1, s as u64, 4096, b(&payload[s..e]))
                .unwrap();
            assert!(done.is_none());
        }
        let err = r.insert_chunk(0, 0, 1, 1000, 4096, b(&payload[1000..1100]));
        assert!(matches!(err, Err(ReasmError::OverlappingChunk { .. })));
        let done = r
            .insert_chunk(0, 0, 1, 1024, 4096, b(&payload[1024..2048]))
            .unwrap()
            .unwrap();
        assert_eq!(done.segments[0].as_ref(), payload.as_slice());
    }

    #[test]
    fn slices_of_one_allocation_rejoin_and_are_delivered_aliased() {
        let source = Bytes::from((0..=255u8).cycle().take(4096).collect::<Vec<_>>());
        let mut r = Reassembler::new();
        // Two rails interleaved, the middle last, as above.
        for (s, e) in [(0, 512), (2048, 3000), (512, 1024), (3000, 4096)] {
            let done = r.insert_chunk(0, 0, 1, s as u64, 4096, source.slice(s..e));
            assert!(done.unwrap().is_none());
        }
        let done = r
            .insert_chunk(0, 0, 1, 1024, 4096, source.slice(1024..2048))
            .unwrap()
            .unwrap();
        assert_eq!(done.segments[0].as_ptr(), source.as_ptr());
        assert_eq!(done.segments[0], source);
        assert_eq!((r.joined_bytes(), r.gathered_bytes()), (4096, 0));
    }

    #[test]
    fn lenient_overlaps_of_one_allocation_still_end_in_one_piece() {
        let source = Bytes::from((0..100u8).collect::<Vec<_>>());
        let mut r = Reassembler::new();
        let mut insert = |s: usize, e: usize| {
            r.insert_chunk_lenient(1, 0, 1, s as u64, 100, source.slice(s..e))
                .unwrap()
        };
        assert_eq!(insert(60, 100).1, 40);
        assert_eq!(insert(0, 50).1, 50);
        // Only [50, 60) of it is new, and it closes the gap.
        let (done, fresh) = insert(40, 80);
        assert_eq!(fresh, 10);
        let done = done.expect("whole");
        assert_eq!(done.segments[0].as_ptr(), source.as_ptr());
        assert_eq!(done.segments[0], source);
        assert_eq!(r.gathered_bytes(), 0);
    }

    #[test]
    fn chunks_in_allocations_of_their_own_are_gathered_once_when_whole() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut r = Reassembler::new();
        // One slice of another buffer among slices of the source is
        // enough: the segment is not one allocation.
        let source = Bytes::from(payload.clone());
        r.insert_chunk(5, 0, 1, 0, 1000, source.slice(..300))
            .unwrap();
        r.insert_chunk(5, 0, 1, 600, 1000, source.slice(600..))
            .unwrap();
        assert_eq!(r.gathered_bytes(), 0, "nothing is copied per arrival");
        let done = r
            .insert_chunk(5, 0, 1, 300, 1000, b(&payload[300..600]))
            .unwrap()
            .unwrap();
        assert_eq!(done.segments[0].as_ref(), payload.as_slice());
        assert_ne!(done.segments[0].as_ptr(), source.as_ptr());
        assert_eq!((r.joined_bytes(), r.gathered_bytes()), (0, 1000));
    }

    #[test]
    fn neighbours_in_memory_that_are_not_neighbours_in_the_segment_stay_apart() {
        // A sender that cuts its chunks out of one buffer in another
        // order than the segment's: adjacency in memory alone joins
        // nothing.
        let buffer = Bytes::from(b"WORLDHELLO".to_vec());
        let mut r = Reassembler::new();
        r.insert_chunk(1, 0, 1, 5, 10, buffer.slice(..5)).unwrap();
        let done = r.insert_chunk(1, 0, 1, 0, 10, buffer.slice(5..));
        assert_eq!(&done.unwrap().unwrap().segments[0][..], b"HELLOWORLD");
        assert_eq!(r.gathered_bytes(), 10);
    }

    #[test]
    fn a_total_len_nobody_could_hold_reserves_nothing() {
        let mut r = Reassembler::new();
        let huge = 1u64 << 40;
        assert!(r
            .insert_chunk(1, 0, 1, huge - 4, huge, b(b"tail"))
            .unwrap()
            .is_none());
        assert_eq!(r.in_flight(), 1);
        let err = r.insert_chunk(1, 0, 1, 0, 8, b(b"head")).unwrap_err();
        assert!(matches!(err, ReasmError::LengthMismatch { .. }));
    }

    #[test]
    fn zero_length_segment_completes() {
        let mut r = Reassembler::new();
        let done = r.insert_eager(1, 0, 1, Bytes::new()).unwrap().unwrap();
        assert_eq!(done.total_len(), 0);
    }
}
