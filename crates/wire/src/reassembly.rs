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
//! One slot per message: the reassembler's window is the only per-message
//! table on the receive side. A slot holds what its owner keeps with the
//! message (the engine: the receive matched to it) beside what arrived of
//! it, from first sight until the message is taken. What it allocates per
//! message is what the message needs: the `Vec` of its segments, made at
//! first sight with the message's segment count, written where each
//! segment lands and handed over as it is — and, for chunked segments
//! that came in allocations of their own, that one gather. Chunk state
//! exists only for segments that arrive chunked, the first of them
//! inline.

use bytes::Bytes;

use crate::agg::AggregateEntry;
use crate::small::SmallList;
use crate::window::{IdWindow, Lookup};
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

/// The segments of a message that are whole, a bit each: inline up to 64
/// segments.
type Bits = SmallList<u64, 1>;

/// A segment that arrives in chunks, from its first chunk on.
#[derive(Debug, Default)]
struct Chunked {
    seg_index: u16,
    total_len: u64,
    received: u64,
    /// Emptied into the message's segment list when the segment is whole.
    pieces: Pieces,
}

impl Chunked {
    fn is_whole(&self) -> bool {
        self.received == self.total_len
    }
}

/// What arrived of a message.
#[derive(Debug)]
struct Message {
    total_segs: u16,
    /// Segments in index order, up to the last that landed, an empty one
    /// where nothing is yet: made at first sight with room for all of
    /// them, grown where each segment lands — a segment that lands in
    /// order is pushed, nothing is filled in first — and handed over as
    /// it is.
    segments: Vec<Bytes>,
    whole: Bits,
    whole_count: u16,
    /// Payload bytes of the whole segments.
    bytes: u64,
    /// The segments that arrive chunked; one stays inline.
    chunked: SmallList<Chunked, 1>,
}

impl Message {
    fn new(total_segs: u16) -> Self {
        Message {
            total_segs,
            segments: Vec::with_capacity(total_segs as usize),
            whole: (0..(total_segs as usize).div_ceil(64)).map(|_| 0).collect(),
            whole_count: 0,
            bytes: 0,
            chunked: SmallList::new(),
        }
    }

    fn total_segs(&self) -> u16 {
        self.total_segs
    }

    fn is_complete(&self) -> bool {
        self.whole_count == self.total_segs()
    }

    fn is_whole(&self, seg_index: u16) -> bool {
        let i = seg_index as usize;
        self.whole[i / 64] >> (i % 64) & 1 == 1
    }

    /// Segment `seg_index` is whole: it is `data`.
    fn land(&mut self, seg_index: u16, data: Bytes) {
        let i = seg_index as usize;
        self.whole[i / 64] |= 1 << (i % 64);
        self.whole_count += 1;
        self.bytes += data.len() as u64;
        match i.checked_sub(self.segments.len()) {
            Some(0) => self.segments.push(data),
            Some(_) => {
                self.segments.resize(i, Bytes::new());
                self.segments.push(data);
            }
            None => self.segments[i] = data,
        }
    }

    /// Write the eager segment `data` in its place (it is moved out).
    fn put_eager(
        &mut self,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        data: &mut Bytes,
    ) -> Result<(), ReasmError> {
        if seg_index >= total_segs {
            return Err(ReasmError::SegIndexOutOfRange {
                msg_id,
                seg_index,
                total_segs,
            });
        }
        if total_segs != self.total_segs() {
            return Err(ReasmError::SegCountMismatch {
                msg_id,
                have: self.total_segs(),
                got: total_segs,
            });
        }
        if self.chunked.iter().any(|c| c.seg_index == seg_index) {
            return Err(ReasmError::MixedDelivery { msg_id, seg_index });
        }
        if self.is_whole(seg_index) {
            return Err(ReasmError::DuplicateSegment { msg_id, seg_index });
        }
        self.land(seg_index, std::mem::take(data));
        Ok(())
    }
}

/// What a [`Reassembler`] keeps of one message id.
#[derive(Debug, Default)]
struct Slot<T> {
    tag: T,
    /// `None` until the first piece arrives.
    msg: Option<Message>,
}

impl<T> Slot<T> {
    /// Some of the message arrived, not all.
    fn is_partial(&self) -> bool {
        self.msg.as_ref().is_some_and(|m| !m.is_complete())
    }
}

/// Per-connection reassembler for incoming messages, and the one window
/// its owner keeps per message: message ids are the sender's
/// per-connection counter, so the messages live in an [`IdWindow`], one
/// slot each from the first of "its owner tagged it" ([`Self::tag_mut`]:
/// the engine's receive was posted) and "its first piece arrived" until
/// [`Self::take`] hands it over. A taken message's slot is retired, and a
/// late piece of it is told apart from the first piece of a new message
/// for good.
///
/// An insert that completes a message answers with its tag; the message
/// stays in its slot, its segments where they landed, until it is taken.
#[derive(Debug, Default)]
pub struct Reassembler<T = ()> {
    msgs: IdWindow<Slot<T>>,
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
    /// Empty reassembler with no tags (see [`Reassembler::default`] for
    /// one with).
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T: Default + Copy> Reassembler<T> {
    /// Messages currently in flight: some of them arrived, not all.
    pub fn in_flight(&self) -> usize {
        self.msgs.iter().filter(|(_, s)| s.is_partial()).count()
    }

    /// Slots held: messages tagged, in flight or complete and not taken,
    /// and those behind an older unfinished one (state accounting).
    pub fn span(&self) -> usize {
        self.msgs.len()
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

    /// The tag of message `msg_id`, its slot made on first sight; `None`
    /// once the message is taken. The id is the owner's, not the wire's:
    /// nothing bounds it.
    pub fn tag_mut(&mut self, msg_id: MsgId) -> Option<&mut T> {
        let slot = self.msgs.live_or_insert_with(msg_id, Slot::default);
        slot.map(|s| &mut s.tag)
    }

    /// True when `msg_id` completed at some point: it is complete and
    /// waits to be taken, or it was taken (or given up on).
    pub fn delivered(&self, msg_id: MsgId) -> bool {
        match self.msgs.get(msg_id) {
            Lookup::Past => true,
            Lookup::Live(slot) => slot.msg.as_ref().is_some_and(Message::is_complete),
            Lookup::Never => false,
        }
    }

    /// Hand the complete message `msg_id` over and retire its slot;
    /// `None` (and nothing changes) while it is not complete.
    pub fn take(&mut self, msg_id: MsgId) -> Option<MessageAssembly> {
        let segments = self.msgs.retire_with(msg_id, |slot| {
            let msg = slot.msg.as_mut().filter(|m| m.is_complete())?;
            Some(std::mem::take(&mut msg.segments))
        })?;
        Some(MessageAssembly { msg_id, segments })
    }

    /// The tag and the arrived part of message `msg_id`, of `total_segs`
    /// segments of which `seg_index` is one, made on first sight. `None`
    /// when it completed earlier.
    fn message(
        &mut self,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
    ) -> Result<Option<(T, &mut Message)>, ReasmError> {
        if seg_index >= total_segs {
            return Err(ReasmError::SegIndexOutOfRange {
                msg_id,
                seg_index,
                total_segs,
            });
        }
        // Messages that never finish must not leave the next one out of
        // the window: the oldest make room for it. Only a partial message
        // is given up on; one complete or only tagged waits for its owner.
        let span = MAX_SPAN as usize;
        let given_up = self.msgs.bound(span / 2, span, |s| !s.is_partial());
        self.abandoned_count += given_up as u64;
        if self.msgs.span_with(msg_id) > MAX_SPAN {
            return Err(ReasmError::OutOfWindow { msg_id });
        }
        let Some(slot) = self.msgs.live_or_insert_with(msg_id, Slot::default) else {
            return Ok(None);
        };
        let msg = slot.msg.get_or_insert_with(|| Message::new(total_segs));
        if msg.is_complete() {
            return Ok(None);
        }
        if msg.total_segs() != total_segs {
            return Err(ReasmError::SegCountMismatch {
                msg_id,
                have: msg.total_segs(),
                got: total_segs,
            });
        }
        Ok(Some((slot.tag, msg)))
    }

    /// Count the message that just completed, of `bytes` payload bytes.
    fn completed(&mut self, bytes: u64) {
        self.completed_count += 1;
        self.completed_bytes += bytes;
    }

    /// Deliver one whole segment. Returns the message's tag when this was
    /// the last missing piece.
    pub fn insert_eager(
        &mut self,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        data: Bytes,
    ) -> Result<Option<T>, ReasmError> {
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
    ) -> (usize, Result<Option<T>, ReasmError>) {
        let Some(first) = entries.first() else {
            return (0, Ok(None));
        };
        let (conn_id, msg_id, seg_index) = (first.conn_id, first.msg_id, first.seg_index);
        let msg = match self.message(msg_id, seg_index, first.total_segs) {
            Ok(Some(msg)) => msg,
            // (A segment of a message that completed earlier arrived twice.)
            Ok(None) => return (0, Err(ReasmError::DuplicateSegment { msg_id, seg_index })),
            Err(e) => return (0, Err(e)),
        };
        let (tag, msg) = msg;
        let run = entries
            .iter_mut()
            .take_while(|e| (e.conn_id, e.msg_id) == (conn_id, msg_id));
        let mut taken = 0;
        for e in run {
            if let Err(err) = msg.put_eager(msg_id, e.seg_index, e.total_segs, &mut e.data) {
                return (taken, Err(err));
            }
            taken += 1;
            if msg.is_complete() {
                let bytes = msg.bytes;
                self.completed(bytes);
                return (taken, Ok(Some(tag)));
            }
        }
        (taken, Ok(None))
    }

    /// Deliver one chunk of a segment. Returns the message's tag when this
    /// chunk finished the last segment.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_chunk(
        &mut self,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        offset: u64,
        total_len: u64,
        data: Bytes,
    ) -> Result<Option<T>, ReasmError> {
        self.chunk(msg_id, seg_index, total_segs, offset, total_len, data, true)
            .map(|(done, _)| done)
    }

    /// Like [`Self::insert_chunk`], but tolerant of data already received:
    /// overlapping byte ranges are trimmed away and only the missing bytes
    /// are kept. Retransmissions re-send whole messages and re-chunk
    /// them independently, so a retransmitted chunk's boundaries may
    /// straddle data that survived an earlier attempt — the payload bytes
    /// are identical, only the framing differs. Returns the message's tag
    /// (if this chunk finished it) and the number of genuinely new bytes
    /// kept (0 for a pure duplicate).
    #[allow(clippy::too_many_arguments)]
    pub fn insert_chunk_lenient(
        &mut self,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        offset: u64,
        total_len: u64,
        data: Bytes,
    ) -> Result<(Option<T>, u64), ReasmError> {
        self.chunk(
            msg_id, seg_index, total_segs, offset, total_len, data, false,
        )
    }

    /// Both chunk inserts: `strict` reports bytes already received (and a
    /// segment that arrived whole) as an error, otherwise they are
    /// skipped. Only the uncovered sub-ranges of the chunk are kept, as
    /// slices of `data`; the chunk that makes the segment whole leaves it
    /// in one piece, in its place in the message.
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
    ) -> Result<(Option<T>, u64), ReasmError> {
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= total_len)
            .ok_or(ReasmError::LengthMismatch { msg_id, seg_index })?;
        let overlap = ReasmError::OverlappingChunk {
            msg_id,
            seg_index,
            offset,
        };
        let nothing_new = |err| if strict { Err(err) } else { Ok((None, 0)) };
        let Some((tag, msg)) = self.message(msg_id, seg_index, total_segs)? else {
            return nothing_new(overlap);
        };
        let at = match msg.chunked.iter().position(|c| c.seg_index == seg_index) {
            Some(at) => at,
            // The segment already arrived whole (eager) — a chunked
            // retransmission of it carries nothing new.
            None if msg.is_whole(seg_index) => {
                return nothing_new(ReasmError::MixedDelivery { msg_id, seg_index })
            }
            None => {
                msg.chunked.push(Chunked {
                    seg_index,
                    total_len,
                    ..Chunked::default()
                });
                msg.chunked.len() - 1
            }
        };
        let seg = &mut msg.chunked[at];
        if seg.total_len != total_len {
            return Err(ReasmError::LengthMismatch { msg_id, seg_index });
        }
        if seg.is_whole() {
            return match data.is_empty() {
                true => Ok((None, 0)),
                false => nothing_new(overlap),
            };
        }
        let gaps = uncovered(&seg.pieces, offset, end);
        let new_bytes: u64 = gaps.iter().map(|(s, e)| e - s).sum();
        if strict && new_bytes != data.len() as u64 {
            return Err(overlap);
        }
        for &(s, e) in gaps.iter() {
            let gap = data.slice((s - offset) as usize..(e - offset) as usize);
            place(&mut seg.pieces, s, gap);
        }
        seg.received += new_bytes;
        if new_bytes == 0 || !seg.is_whole() {
            return Ok((None, new_bytes));
        }
        let pieces = std::mem::take(&mut seg.pieces);
        let gathered = pieces.len() > 1;
        let whole = if gathered {
            // Sized by what is held, which by now is all of it.
            let mut whole = Vec::with_capacity(seg.received as usize);
            for (_, piece) in pieces {
                whole.extend_from_slice(&piece);
            }
            Bytes::from(whole)
        } else {
            pieces.into_iter().next().map_or(Bytes::new(), |(_, b)| b)
        };
        msg.land(seg_index, whole);
        let done = msg.is_complete().then_some((tag, msg.bytes));
        match gathered {
            true => self.gathered_bytes += total_len,
            false => self.joined_bytes += total_len,
        }
        let Some((tag, bytes)) = done else {
            return Ok((None, new_bytes));
        };
        self.completed(bytes);
        Ok((Some(tag), new_bytes))
    }

    /// Drop what arrived of `msg_id` (failure handling) and keep its tag,
    /// returning whether anything was dropped. A complete message is not
    /// dropped.
    pub fn abort(&mut self, msg_id: MsgId) -> bool {
        let Some(slot) = self.msgs.live_mut(msg_id) else {
            return false;
        };
        let partial = slot.is_partial();
        if partial {
            slot.msg = None;
        }
        partial
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    /// `insert_eager`, the message taken when it completed.
    fn eager(
        r: &mut Reassembler,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        data: Bytes,
    ) -> Result<Option<MessageAssembly>, ReasmError> {
        let done = r.insert_eager(msg_id, seg_index, total_segs, data)?;
        Ok(done.map(|()| r.take(msg_id).expect("complete")))
    }

    /// `insert_chunk`, the message taken when it completed.
    fn chunk(
        r: &mut Reassembler,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        offset: u64,
        total_len: u64,
        data: Bytes,
    ) -> Result<Option<MessageAssembly>, ReasmError> {
        let done = r.insert_chunk(msg_id, seg_index, total_segs, offset, total_len, data)?;
        Ok(done.map(|()| r.take(msg_id).expect("complete")))
    }

    /// `insert_chunk_lenient`, the message taken when it completed.
    fn lenient(
        r: &mut Reassembler,
        msg_id: MsgId,
        seg_index: u16,
        total_segs: u16,
        offset: u64,
        total_len: u64,
        data: Bytes,
    ) -> Result<(Option<MessageAssembly>, u64), ReasmError> {
        let (done, new_bytes) =
            r.insert_chunk_lenient(msg_id, seg_index, total_segs, offset, total_len, data)?;
        Ok((done.map(|()| r.take(msg_id).expect("complete")), new_bytes))
    }

    #[test]
    fn single_segment_eager_completes() {
        let mut r = Reassembler::new();
        let done = eager(&mut r, 1, 0, 1, b(b"hello")).unwrap().unwrap();
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
        assert!(eager(&mut r, 7, 2, 3, b(b"C")).unwrap().is_none());
        assert!(eager(&mut r, 7, 0, 3, b(b"A")).unwrap().is_none());
        let done = eager(&mut r, 7, 1, 3, b(b"B")).unwrap().unwrap();
        let flat = done.into_contiguous();
        assert_eq!(flat, b"ABC");
    }

    #[test]
    fn chunked_segment_any_order() {
        let mut r = Reassembler::new();
        let payload: Vec<u8> = (0..100u8).collect();
        assert!(chunk(&mut r, 3, 0, 1, 60, 100, b(&payload[60..]))
            .unwrap()
            .is_none());
        assert!(chunk(&mut r, 3, 0, 1, 0, 100, b(&payload[..30]))
            .unwrap()
            .is_none());
        let done = chunk(&mut r, 3, 0, 1, 30, 100, b(&payload[30..60]))
            .unwrap()
            .unwrap();
        assert_eq!(done.segments[0].as_ref(), payload.as_slice());
    }

    #[test]
    fn mixed_eager_and_chunked_segments() {
        let mut r = Reassembler::new();
        let big: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        assert!(eager(&mut r, 9, 0, 2, b(b"small")).unwrap().is_none());
        assert!(chunk(&mut r, 9, 1, 2, 0, 1000, b(&big[..500]))
            .unwrap()
            .is_none());
        let done = chunk(&mut r, 9, 1, 2, 500, 1000, b(&big[500..]))
            .unwrap()
            .unwrap();
        assert_eq!(&done.segments[0][..], b"small");
        assert_eq!(done.segments[1].as_ref(), big.as_slice());
    }

    #[test]
    fn duplicate_segment_rejected() {
        let mut r = Reassembler::new();
        eager(&mut r, 1, 0, 2, b(b"x")).unwrap();
        let err = eager(&mut r, 1, 0, 2, b(b"x")).unwrap_err();
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
        chunk(&mut r, 1, 0, 1, 0, 100, b(&[0; 50])).unwrap();
        let err = chunk(&mut r, 1, 0, 1, 25, 100, b(&[0; 50])).unwrap_err();
        assert!(matches!(
            err,
            ReasmError::OverlappingChunk { offset: 25, .. }
        ));
        // Exact duplicate also overlaps.
        let err = chunk(&mut r, 1, 0, 1, 0, 100, b(&[0; 50])).unwrap_err();
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
        chunk(&mut r, 1, 0, 1, 60, 100, b(&payload[60..])).unwrap();
        // The retransmission re-chunks the message with different
        // boundaries; its pieces straddle the surviving interval.
        let (done, fresh) = lenient(&mut r, 1, 0, 1, 0, 100, b(&payload[..50])).unwrap();
        assert!(done.is_none());
        assert_eq!(fresh, 50);
        // [40, 80) overlaps both existing intervals; only [50, 60) is new.
        let (done, fresh) = lenient(&mut r, 1, 0, 1, 40, 100, b(&payload[40..80])).unwrap();
        assert_eq!(fresh, 10);
        let done = done.expect("message complete once every byte is covered");
        assert_eq!(done.segments[0].as_ref(), payload.as_slice());
        // Entirely-covered chunks are pure duplicates.
        let mut r2 = Reassembler::new();
        chunk(&mut r2, 2, 0, 1, 0, 100, b(&payload[..50])).unwrap();
        let (done, fresh) = lenient(&mut r2, 2, 0, 1, 10, 100, b(&payload[10..30])).unwrap();
        assert!(done.is_none());
        assert_eq!(fresh, 0);
    }

    #[test]
    fn chunk_past_total_rejected() {
        let mut r = Reassembler::new();
        let err = chunk(&mut r, 1, 0, 1, 90, 100, b(&[0; 20])).unwrap_err();
        assert!(matches!(err, ReasmError::LengthMismatch { .. }));
    }

    #[test]
    fn inconsistent_total_len_rejected() {
        let mut r = Reassembler::new();
        chunk(&mut r, 1, 0, 1, 0, 100, b(&[0; 10])).unwrap();
        let err = chunk(&mut r, 1, 0, 1, 50, 200, b(&[0; 10])).unwrap_err();
        assert!(matches!(err, ReasmError::LengthMismatch { .. }));
    }

    #[test]
    fn seg_count_mismatch_rejected() {
        let mut r = Reassembler::new();
        eager(&mut r, 1, 0, 3, b(b"x")).unwrap();
        let err = eager(&mut r, 1, 1, 4, b(b"y")).unwrap_err();
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
        let err = eager(&mut r, 1, 3, 3, b(b"x")).unwrap_err();
        assert!(matches!(err, ReasmError::SegIndexOutOfRange { .. }));
    }

    #[test]
    fn mixed_delivery_rejected() {
        let mut r = Reassembler::new();
        eager(&mut r, 1, 0, 2, b(b"whole")).unwrap();
        let err = chunk(&mut r, 1, 0, 2, 0, 10, b(&[0; 5])).unwrap_err();
        assert!(matches!(err, ReasmError::MixedDelivery { .. }));

        let mut r = Reassembler::new();
        chunk(&mut r, 2, 0, 1, 0, 10, b(&[0; 5])).unwrap();
        let err = eager(&mut r, 2, 0, 1, b(b"whole")).unwrap_err();
        assert!(matches!(err, ReasmError::MixedDelivery { .. }));
    }

    #[test]
    fn abort_discards_partial_state() {
        let mut r = Reassembler::new();
        eager(&mut r, 5, 0, 2, b(b"x")).unwrap();
        assert_eq!(r.in_flight(), 1);
        assert!(r.abort(5));
        assert!(!r.abort(5));
        assert_eq!(r.in_flight(), 0);
        // The message can start over afterwards.
        eager(&mut r, 5, 0, 2, b(b"x")).unwrap();
        let done = eager(&mut r, 5, 1, 2, b(b"y")).unwrap().unwrap();
        assert_eq!(done.into_contiguous(), b"xy");
    }

    #[test]
    fn interleaved_messages_do_not_interfere() {
        let mut r = Reassembler::new();
        assert!(eager(&mut r, 1, 0, 2, b(b"1a")).unwrap().is_none());
        assert!(eager(&mut r, 2, 0, 2, b(b"2a")).unwrap().is_none());
        let d2 = eager(&mut r, 2, 1, 2, b(b"2b")).unwrap().unwrap();
        assert_eq!(d2.into_contiguous(), b"2a2b");
        let d1 = eager(&mut r, 1, 1, 2, b(b"1b")).unwrap().unwrap();
        assert_eq!(d1.into_contiguous(), b"1a1b");
    }

    #[test]
    fn late_piece_of_a_completed_message_is_refused_not_restarted() {
        let mut r = Reassembler::new();
        eager(&mut r, 0, 0, 1, b(b"done")).unwrap().unwrap();
        chunk(&mut r, 1, 0, 1, 0, 4, b(b"done")).unwrap().unwrap();
        assert_eq!(r.span(), 0, "both retired");
        let err = eager(&mut r, 0, 0, 1, b(b"done")).unwrap_err();
        assert!(matches!(
            err,
            ReasmError::DuplicateSegment { msg_id: 0, .. }
        ));
        let err = chunk(&mut r, 1, 0, 1, 0, 4, b(b"done")).unwrap_err();
        assert!(matches!(
            err,
            ReasmError::OverlappingChunk { msg_id: 1, .. }
        ));
        let (done, fresh) = lenient(&mut r, 1, 0, 1, 0, 4, b(b"done")).unwrap();
        assert!(done.is_none() && fresh == 0, "a pure duplicate");
        assert!(!r.abort(0), "nothing left to drop");
        assert_eq!((r.in_flight(), r.completed_count()), (0, 2));
    }

    #[test]
    fn finished_messages_wait_for_the_oldest_unfinished_one() {
        let mut r = Reassembler::new();
        eager(&mut r, 0, 0, 2, b(b"half")).unwrap();
        for msg in 1..50 {
            eager(&mut r, msg, 0, 1, b(b"x")).unwrap().unwrap();
        }
        assert_eq!((r.in_flight(), r.span()), (1, 50));
        eager(&mut r, 0, 1, 2, b(b"rest")).unwrap().unwrap();
        assert_eq!((r.in_flight(), r.span()), (0, 0));
    }

    #[test]
    fn message_id_far_ahead_is_refused_before_any_slot_is_made() {
        let mut r = Reassembler::new();
        let err = eager(&mut r, MAX_SPAN, 0, 1, b(b"x")).unwrap_err();
        assert_eq!(err, ReasmError::OutOfWindow { msg_id: MAX_SPAN });
        let err = chunk(&mut r, u64::MAX, 0, 1, 0, 1, b(b"x")).unwrap_err();
        assert_eq!(err, ReasmError::OutOfWindow { msg_id: u64::MAX });
        assert_eq!(r.span(), 0);
        eager(&mut r, MAX_SPAN - 1, 0, 2, b(b"x")).unwrap();
        assert_eq!(r.span() as u64, MAX_SPAN);
    }

    #[test]
    fn a_message_that_never_finishes_does_not_hold_the_others_back() {
        let mut r = Reassembler::new();
        eager(&mut r, 0, 0, 2, b(b"half")).unwrap(); // its other half is lost
        for msg in 2..3 * MAX_SPAN {
            // (Message 1 is lost whole.)
            eager(&mut r, msg, 0, 1, b(b"x")).unwrap().unwrap();
            assert!(r.span() <= 66, "{} slots at message {msg}", r.span());
        }
        assert_eq!((r.in_flight(), r.abandoned_count()), (1, 0));
        // Neither is forgotten: both still complete, however late.
        eager(&mut r, 1, 0, 1, b(b"late")).unwrap().unwrap();
        let done = eager(&mut r, 0, 1, 2, b(b"rest")).unwrap().unwrap();
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
                eager(&mut r, msg, 0, 2, b(b"half")).unwrap();
            } else {
                eager(&mut r, msg, 0, 1, b(b"x")).unwrap().unwrap();
            }
            assert!(r.span() as u64 <= 2 * MAX_SPAN);
        }
        assert!(r.abandoned_count() > 0);
        assert_eq!(r.in_flight() as u64 + r.abandoned_count(), lost);
        // The oldest is forgotten (its late half is no new message), the
        // newest still completes.
        let err = eager(&mut r, 0, 1, 2, b(b"rest")).unwrap_err();
        assert!(matches!(
            err,
            ReasmError::DuplicateSegment { msg_id: 0, .. }
        ));
        eager(&mut r, 2 * lost - 2, 1, 2, b(b"rest"))
            .unwrap()
            .unwrap();
    }

    #[test]
    fn chunks_in_any_order_merge_into_one_interval() {
        let mut r = Reassembler::new();
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        // Two rails, each in order, interleaved; the middle one last.
        for (s, e) in [(0, 512), (2048, 3000), (512, 1024), (3000, 4096)] {
            let done = chunk(&mut r, 0, 0, 1, s as u64, 4096, b(&payload[s..e])).unwrap();
            assert!(done.is_none());
        }
        let err = chunk(&mut r, 0, 0, 1, 1000, 4096, b(&payload[1000..1100]));
        assert!(matches!(err, Err(ReasmError::OverlappingChunk { .. })));
        let done = chunk(&mut r, 0, 0, 1, 1024, 4096, b(&payload[1024..2048]))
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
            let done = chunk(&mut r, 0, 0, 1, s as u64, 4096, source.slice(s..e));
            assert!(done.unwrap().is_none());
        }
        let done = chunk(&mut r, 0, 0, 1, 1024, 4096, source.slice(1024..2048))
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
            lenient(&mut r, 1, 0, 1, s as u64, 100, source.slice(s..e)).unwrap()
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
        chunk(&mut r, 5, 0, 1, 0, 1000, source.slice(..300)).unwrap();
        chunk(&mut r, 5, 0, 1, 600, 1000, source.slice(600..)).unwrap();
        assert_eq!(r.gathered_bytes(), 0, "nothing is copied per arrival");
        let done = chunk(&mut r, 5, 0, 1, 300, 1000, b(&payload[300..600]))
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
        chunk(&mut r, 1, 0, 1, 5, 10, buffer.slice(..5)).unwrap();
        let done = chunk(&mut r, 1, 0, 1, 0, 10, buffer.slice(5..));
        assert_eq!(&done.unwrap().unwrap().segments[0][..], b"HELLOWORLD");
        assert_eq!(r.gathered_bytes(), 10);
    }

    #[test]
    fn a_total_len_nobody_could_hold_reserves_nothing() {
        let mut r = Reassembler::new();
        let huge = 1u64 << 40;
        assert!(chunk(&mut r, 1, 0, 1, huge - 4, huge, b(b"tail"))
            .unwrap()
            .is_none());
        assert_eq!(r.in_flight(), 1);
        let err = chunk(&mut r, 1, 0, 1, 0, 8, b(b"head")).unwrap_err();
        assert!(matches!(err, ReasmError::LengthMismatch { .. }));
    }

    #[test]
    fn zero_length_segment_completes() {
        let mut r = Reassembler::new();
        let done = eager(&mut r, 1, 0, 1, Bytes::new()).unwrap().unwrap();
        assert_eq!(done.total_len(), 0);
    }

    #[test]
    fn a_complete_message_waits_in_its_slot_with_its_tag_until_taken() {
        let mut r: Reassembler<Option<u32>> = Reassembler::default();
        // Tagged before anything arrived (a posted receive), then filled.
        *r.tag_mut(0).expect("new") = Some(30);
        assert!(r.take(0).is_none() && !r.delivered(0));
        assert_eq!(r.insert_eager(0, 1, 2, b(b"B")).unwrap(), None);
        assert!(r.take(0).is_none(), "not complete");
        assert_eq!(r.insert_eager(0, 0, 2, b(b"A")).unwrap(), Some(Some(30)));
        // Complete and waiting: delivered, and every late piece is one
        // too many.
        assert!(r.delivered(0));
        assert_eq!((r.in_flight(), r.span(), r.completed_count()), (0, 1, 1));
        let err = r.insert_eager(0, 0, 2, b(b"A")).unwrap_err();
        assert!(matches!(err, ReasmError::DuplicateSegment { .. }));
        assert!(!r.abort(0), "a complete message is not dropped");
        // Arrived first, tagged after: the tag is found in the same slot.
        assert_eq!(r.insert_eager(1, 0, 1, b(b"C")).unwrap(), Some(None));
        *r.tag_mut(1).expect("complete, not taken") = Some(40);
        let m = r.take(0).expect("complete");
        assert_eq!(m.into_contiguous(), b"AB");
        assert!(r.tag_mut(0).is_none(), "taken: retired");
        assert!(r.delivered(0));
        assert_eq!(r.take(1).expect("complete").segments, vec![b(b"C")]);
        assert_eq!(r.span(), 0);
    }

    #[test]
    fn complete_messages_nobody_took_yet_are_never_given_up_on() {
        // Unexpected messages: all arrive before any is taken, more than
        // the window holds unfinished ones.
        let n = 2 * MAX_SPAN;
        let mut r = Reassembler::new();
        for msg in 0..n {
            assert_eq!(
                r.insert_eager(msg, 0, 1, b(&msg.to_le_bytes())),
                Ok(Some(()))
            );
        }
        assert_eq!((r.abandoned_count(), r.span() as u64), (0, n));
        for msg in 0..n {
            assert!(r.delivered(msg));
            let m = r.take(msg).expect("complete, waiting");
            assert_eq!(m.segments, vec![b(&msg.to_le_bytes())]);
            assert!(r.take(msg).is_none(), "taken once");
        }
        assert_eq!(r.span(), 0);
    }

    #[test]
    fn receives_posted_ahead_are_never_given_up_on() {
        let n = 2 * MAX_SPAN;
        let mut r: Reassembler<Option<u64>> = Reassembler::default();
        for msg in 0..n {
            *r.tag_mut(msg).expect("new") = Some(msg);
        }
        // They arrive in two halves, all first halves first.
        for msg in 0..n {
            assert_eq!(r.insert_eager(msg, 0, 2, b(b"a")), Ok(None));
        }
        for msg in 0..n {
            assert!(!r.delivered(msg));
            assert_eq!(r.insert_eager(msg, 1, 2, b(b"b")), Ok(Some(Some(msg))));
            assert_eq!(r.take(msg).expect("complete").into_contiguous(), b"ab");
        }
        assert_eq!((r.abandoned_count(), r.span()), (0, 0));
    }

    #[test]
    fn the_list_handed_over_is_the_one_made_at_first_sight() {
        let mut r = Reassembler::new();
        r.insert_eager(1, 3, 4, b(b"d")).unwrap();
        let payload = Bytes::from(vec![9u8; 64]);
        r.insert_chunk(1, 1, 4, 32, 64, payload.slice(32..))
            .unwrap();
        r.insert_eager(1, 0, 4, b(b"a")).unwrap();
        r.insert_chunk(1, 1, 4, 0, 64, payload.slice(..32)).unwrap();
        assert_eq!(r.insert_eager(1, 2, 4, Bytes::new()).unwrap(), Some(()));
        let m = r.take(1).expect("complete");
        assert_eq!(m.segments.capacity(), 4);
        assert_eq!(m.segments, vec![b(b"a"), payload, Bytes::new(), b(b"d")]);
        assert_eq!((r.joined_bytes(), r.completed_bytes()), (64, 66));
    }

    #[test]
    fn abort_drops_what_arrived_and_keeps_the_tag() {
        let mut r: Reassembler<Option<u32>> = Reassembler::default();
        *r.tag_mut(2).expect("new") = Some(7);
        assert!(!r.abort(2), "nothing arrived yet");
        r.insert_chunk(2, 0, 2, 0, 8, b(b"half")).unwrap();
        assert!(r.abort(2));
        // Starts over: the same bytes are new again.
        r.insert_chunk(2, 0, 2, 0, 8, b(b"half")).unwrap();
        r.insert_chunk(2, 0, 2, 4, 8, b(b"more")).unwrap();
        assert_eq!(r.insert_eager(2, 1, 2, b(b"!")).unwrap(), Some(Some(7)));
        assert_eq!(r.take(2).unwrap().into_contiguous(), b"halfmore!");
    }

    #[test]
    fn more_than_64_segments_are_tracked_past_the_inline_bits() {
        let mut r = Reassembler::new();
        for seg in (0..200u16).rev() {
            let done = r.insert_eager(5, seg, 200, b(&[seg as u8])).unwrap();
            assert_eq!(done.is_some(), seg == 0);
            if seg == 70 {
                let err = r.insert_eager(5, 130, 200, b(b"x")).unwrap_err();
                assert!(matches!(
                    err,
                    ReasmError::DuplicateSegment { seg_index: 130, .. }
                ));
            }
        }
        let m = r.take(5).unwrap();
        assert!(m
            .segments
            .iter()
            .enumerate()
            .all(|(i, s)| s[..] == [i as u8]));
    }
}
