//! The collect layer: request handles, segment states, and the backlog of
//! "waiting packs" the optimizing schedulers work on (paper Figure 1).

use std::collections::VecDeque;

use nmad_wire::{ConnId, MsgId};

/// Handle to a submitted (non-blocking) send.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SendId(pub u64);

/// Handle to a posted (non-blocking) receive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecvId(pub u64);

/// Identifies one segment of one message on one connection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegKey {
    /// Connection.
    pub conn: ConnId,
    /// Message id (per-connection sequence assigned at submit).
    pub msg_id: MsgId,
    /// Segment index within the message.
    pub seg_index: u16,
}

/// Lifecycle of a waiting segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegPhase {
    /// Small enough for the eager track; a strategy may send or aggregate
    /// it at any time.
    EagerReady,
    /// Large segment: a rendezvous request is out, waiting for the grant.
    /// Not schedulable yet.
    RdvRequested,
    /// Rendezvous granted: the strategy may emit chunks for it.
    RdvGranted,
}

/// One chunk of a split plan attached to a granted segment (§3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedChunk {
    /// Rail earmarked to carry the chunk.
    pub rail: usize,
    /// Byte offset within the segment.
    pub offset: u64,
    /// Chunk length.
    pub len: u64,
    /// Set once a tx decision consumed the chunk.
    pub taken: bool,
}

/// The result of consuming a chunk from the backlog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TakenChunk {
    /// Segment the chunk came from.
    pub key: SegKey,
    /// Total segments of the parent message.
    pub total_segs: u16,
    /// Byte offset within the segment.
    pub offset: u64,
    /// Chunk length.
    pub len: u64,
    /// Chunk sequence number within the segment.
    pub chunk_index: u16,
    /// True when this take fully consumed the segment (it left the
    /// backlog).
    pub seg_exhausted: bool,
}

/// A waiting segment — the unit the optimizing schedulers reason about.
#[derive(Clone, Debug)]
pub struct BacklogItem {
    /// Segment identity.
    pub key: SegKey,
    /// Total segments in the parent message.
    pub total_segs: u16,
    /// Segment payload size in bytes.
    pub size: u64,
    /// Lifecycle phase.
    pub phase: SegPhase,
    /// Next unconsumed byte (chunk consumption without a plan).
    pub next_offset: u64,
    /// Chunk counter for wire diagnostics.
    pub chunks_emitted: u16,
    /// Optional split plan (set once by a splitting strategy).
    pub plan: Option<Vec<PlannedChunk>>,
    /// Monotonic submit order, for FIFO fairness.
    pub submit_seq: u64,
}

impl BacklogItem {
    /// Bytes not yet consumed by any tx decision.
    pub fn remaining(&self) -> u64 {
        match &self.plan {
            None => self.size - self.next_offset,
            Some(plan) => plan.iter().filter(|c| !c.taken).map(|c| c.len).sum(),
        }
    }
}

/// The set of waiting segments, in submit order.
///
/// This is the "waiting packs" box of the paper's Figure 1: requests
/// accumulate here while NICs are busy; each NIC-idle event lets the
/// strategy pick (and remove) work from it.
///
/// A deque: what is taken is mostly what was submitted first, and the
/// front leaves without the rest being shifted (DESIGN.md §12).
#[derive(Debug)]
pub struct Backlog {
    items: VecDeque<BacklogItem>,
    next_seq: u64,
    counts: Counts,
    /// Items a search looked at plus items a removal shifted, ever.
    steps: u64,
}

/// What a scan of the backlog's items would answer, kept in step instead
/// — the questions come with every submission and every idle query.
/// Every method that adds, removes or grants an item tallies it here.
#[derive(Debug, Default)]
struct Counts {
    /// Eager segments below this many bytes are *small*: the ones an
    /// aggregate is made of, and that lose nothing by waiting for company.
    small_below: u64,
    /// Eager and granted items: what a strategy can pick from.
    schedulable: usize,
    /// Of those, the eager ones.
    eager: usize,
    /// Of those, the ones that cannot wait: granted segments and eager
    /// ones that are not small.
    urgent: usize,
    /// Bytes of the eager items, and of the small ones among them.
    eager_bytes: u64,
    small_eager_bytes: u64,
}

impl Counts {
    /// An item of `phase` and `size` joins the backlog, or leaves it.
    fn tally(&mut self, phase: SegPhase, size: u64, joins: bool) {
        let small = size < self.small_below;
        let (eager, urgent, eager_bytes, small_eager) = match phase {
            SegPhase::RdvRequested => return,
            SegPhase::RdvGranted => (0, 1, 0, 0),
            SegPhase::EagerReady if small => (1, 0, size, size),
            SegPhase::EagerReady => (1, 1, size, 0),
        };
        if joins {
            self.schedulable += 1;
            self.eager += eager;
            self.urgent += urgent;
            self.eager_bytes += eager_bytes;
            self.small_eager_bytes += small_eager;
        } else {
            self.schedulable -= 1;
            self.eager -= eager;
            self.urgent -= urgent;
            self.eager_bytes -= eager_bytes;
            self.small_eager_bytes -= small_eager;
        }
    }
}

impl Default for Backlog {
    fn default() -> Self {
        Self::new()
    }
}

impl Backlog {
    /// Empty backlog in which every eager segment counts as small.
    pub fn new() -> Self {
        Self::with_small_below(u64::MAX)
    }

    /// Empty backlog whose eager segments are small below `small_below`
    /// bytes (the engine's `min_chunk`).
    pub fn with_small_below(small_below: u64) -> Self {
        Backlog {
            items: VecDeque::new(),
            next_seq: 0,
            counts: Counts {
                small_below,
                ..Counts::default()
            },
            steps: 0,
        }
    }

    /// Take the item at `idx` out; the shorter side closes the gap.
    fn remove_at(&mut self, idx: usize) -> BacklogItem {
        self.steps += idx.min(self.items.len() - 1 - idx) as u64;
        let item = self.items.remove(idx).expect("index from a search");
        self.counts.tally(item.phase, item.size, false);
        item
    }

    /// What the backlog has done so far, in items looked at by a search
    /// and items shifted by a removal: the work a take costs, counted.
    #[doc(hidden)]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of waiting segments.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Enqueue a segment (engine-side).
    pub fn push(&mut self, key: SegKey, total_segs: u16, size: u64, phase: SegPhase) {
        let submit_seq = self.next_seq;
        self.next_seq += 1;
        self.counts.tally(phase, size, true);
        self.items.push_back(BacklogItem {
            key,
            total_segs,
            size,
            phase,
            next_offset: 0,
            chunks_emitted: 0,
            plan: None,
            submit_seq,
        });
    }

    /// Waiting eager segments, in submit order.
    pub fn eager_items(&self) -> impl Iterator<Item = &BacklogItem> {
        self.items
            .iter()
            .filter(|i| i.phase == SegPhase::EagerReady)
    }

    /// Granted (chunk-schedulable) segments, in submit order.
    pub fn granted_items(&self) -> impl Iterator<Item = &BacklogItem> {
        self.items
            .iter()
            .filter(|i| i.phase == SegPhase::RdvGranted)
    }

    /// Whether a strategy has anything to pick from: an eager or a
    /// granted segment (every `TxOp` names one of the two).
    pub fn has_schedulable(&self) -> bool {
        self.counts.schedulable > 0
    }

    /// The one eager segment and its size, when it is all a strategy can
    /// pick from: no other eager segment and no granted one.
    pub fn lone_eager(&self) -> Option<(SegKey, u64)> {
        if (self.counts.schedulable, self.counts.eager) != (1, 1) {
            return None;
        }
        let mut eager = self.eager_items().map(|i| (i.key, i.size));
        eager.next()
    }

    /// Whether anything schedulable cannot wait for company: a granted
    /// segment, or an eager one that is not small.
    pub fn has_urgent(&self) -> bool {
        self.counts.urgent > 0
    }

    /// Whether an eager segment of `at_least` bytes or more, or a granted
    /// one, may be waiting: false when the counts rule both out, which
    /// saves the scan that would find neither.
    pub fn may_have_urgent(&self, at_least: u64) -> bool {
        self.counts.urgent > 0 || at_least < self.counts.small_below
    }

    /// Whether any segment is waiting for a rendezvous grant.
    pub fn has_rdv_pending(&self) -> bool {
        self.items.iter().any(|i| i.phase == SegPhase::RdvRequested)
    }

    /// Where `key` waits, looking from index `from` on — where what is
    /// taken in submit order is found at once — and then around.
    fn position(&mut self, key: SegKey, from: usize) -> Option<usize> {
        let n = self.items.len();
        let hit = |i: usize| self.items[i].key == key;
        let (looked_at, found) = if from < n && hit(from) {
            (1, Some(from))
        } else {
            let mut around = (from..n).chain(0..from.min(n)).enumerate();
            let found = around.find(|&(_, i)| hit(i));
            found.map_or((n, None), |(nth, i)| (nth + 1, Some(i)))
        };
        self.steps += looked_at as u64;
        found
    }

    /// Mark a rendezvous-requested segment as granted. Returns false if the
    /// segment is unknown or not awaiting a grant.
    pub fn grant(&mut self, key: SegKey) -> bool {
        match self.position(key, 0) {
            Some(idx) if self.items[idx].phase == SegPhase::RdvRequested => {
                self.items[idx].phase = SegPhase::RdvGranted;
                self.counts
                    .tally(SegPhase::RdvGranted, self.items[idx].size, true);
                true
            }
            _ => false,
        }
    }

    /// Remove and return an eager segment (strategy committed to send it).
    pub fn take_eager(&mut self, key: SegKey) -> Option<BacklogItem> {
        self.take_eager_from(key, 0).map(|(_, item)| item)
    }

    /// Remove the eager segments `keys` (an aggregate's) and return their
    /// total size; `None` at the first key that is not a waiting eager
    /// segment — the ones before it are gone, as when taken one by one.
    ///
    /// An aggregate's keys are mostly neighbours — a run from the front,
    /// in submit order — and then they are checked and removed in one
    /// pass, the deque closing the gap once. Otherwise each is looked for
    /// from where the one before it was, which is where it is when the
    /// keys come in submit order.
    pub fn take_eager_run<I>(&mut self, keys: I) -> Option<u64>
    where
        I: IntoIterator<Item = SegKey>,
        I::IntoIter: Clone,
    {
        let keys = keys.into_iter();
        let Some(first) = keys.clone().next() else {
            return Some(0);
        };
        let start = self.position(first, 0)?;
        let end = start + keys.clone().count();
        let eager = |(i, k): (&BacklogItem, SegKey)| i.key == k && i.phase == SegPhase::EagerReady;
        if end <= self.items.len() && self.items.range(start..end).zip(keys.clone()).all(eager) {
            let shifted = start.min(self.items.len() - end);
            self.steps += (end - start - 1 + shifted) as u64;
            let counts = &mut self.counts;
            let taken = self.items.drain(start..end);
            return Some(taken.fold(0, |bytes, item| {
                counts.tally(item.phase, item.size, false);
                bytes + item.size
            }));
        }
        let (mut from, mut bytes) = (start, 0);
        for key in keys {
            let (idx, item) = self.take_eager_from(key, from)?;
            (from, bytes) = (idx, bytes + item.size);
        }
        Some(bytes)
    }

    fn take_eager_from(&mut self, key: SegKey, from: usize) -> Option<(usize, BacklogItem)> {
        let idx = self.position(key, from)?;
        if self.items[idx].phase != SegPhase::EagerReady {
            return None;
        }
        Some((idx, self.remove_at(idx)))
    }

    /// Consume up to `max_len` bytes from the front of a granted segment
    /// that has *no* split plan. The item is removed once fully consumed.
    pub fn take_chunk(&mut self, key: SegKey, max_len: u64) -> Option<TakenChunk> {
        assert!(max_len > 0, "take_chunk with zero max_len");
        let idx = self.position(key, 0)?;
        let item = &mut self.items[idx];
        if item.phase != SegPhase::RdvGranted || item.plan.is_some() {
            return None;
        }
        let offset = item.next_offset;
        let len = (item.size - offset).min(max_len);
        if len == 0 {
            return None;
        }
        let chunk_index = item.chunks_emitted;
        item.next_offset += len;
        item.chunks_emitted += 1;
        let total_segs = item.total_segs;
        let seg_exhausted = item.next_offset == item.size;
        if seg_exhausted {
            self.remove_at(idx);
        }
        Some(TakenChunk {
            key,
            total_segs,
            offset,
            len,
            chunk_index,
            seg_exhausted,
        })
    }

    /// Attach a split plan to a granted segment. The plan must cover
    /// exactly the unconsumed remainder, in offset order. Returns false on
    /// any mismatch (unknown segment, wrong phase, plan already set, bad
    /// coverage).
    pub fn set_plan(&mut self, key: SegKey, chunks: Vec<PlannedChunk>) -> bool {
        let Some(idx) = self.position(key, 0) else {
            return false;
        };
        let item = &mut self.items[idx];
        if item.phase != SegPhase::RdvGranted || item.plan.is_some() {
            return false;
        }
        let mut expect = item.next_offset;
        for c in &chunks {
            if c.offset != expect || c.len == 0 || c.taken {
                return false;
            }
            expect += c.len;
        }
        if expect != item.size {
            return false;
        }
        item.plan = Some(chunks);
        true
    }

    /// Take the first untaken planned chunk earmarked for `rail`, across
    /// all granted segments in submit order. Fully-consumed items are
    /// removed.
    pub fn take_planned(&mut self, rail: usize) -> Option<TakenChunk> {
        let mut found: Option<(usize, usize)> = None;
        'outer: for (i, item) in self.items.iter().enumerate() {
            if item.phase != SegPhase::RdvGranted {
                continue;
            }
            let Some(plan) = &item.plan else { continue };
            for (j, c) in plan.iter().enumerate() {
                if !c.taken && c.rail == rail {
                    found = Some((i, j));
                    break 'outer;
                }
            }
        }
        let (i, j) = found?;
        let item = &mut self.items[i];
        let plan = item.plan.as_mut().unwrap();
        plan[j].taken = true;
        let (offset, len) = (plan[j].offset, plan[j].len);
        let chunk_index = item.chunks_emitted;
        item.chunks_emitted += 1;
        let key = item.key;
        let total_segs = item.total_segs;
        let seg_exhausted = plan.iter().all(|c| c.taken);
        if seg_exhausted {
            self.remove_at(i);
        }
        Some(TakenChunk {
            key,
            total_segs,
            offset,
            len,
            chunk_index,
            seg_exhausted,
        })
    }

    /// Sum of eager segment sizes (used by aggregation threshold checks).
    pub fn eager_bytes(&self) -> u64 {
        self.counts.eager_bytes
    }

    /// Sum of the small eager segments' sizes: what one aggregate could
    /// carry right now.
    pub fn small_eager_bytes(&self) -> u64 {
        self.counts.small_eager_bytes
    }

    /// Failover support: re-point every not-yet-taken planned chunk that
    /// targets `dead` at the surviving rails (round-robin). Returns how
    /// many chunks moved.
    pub fn reassign_rail(&mut self, dead: usize, survivors: &[usize]) -> usize {
        assert!(!survivors.is_empty(), "failover needs a surviving rail");
        let mut moved = 0;
        for item in &mut self.items {
            let Some(plan) = &mut item.plan else { continue };
            for c in plan.iter_mut() {
                if !c.taken && c.rail == dead {
                    c.rail = survivors[moved % survivors.len()];
                    moved += 1;
                }
            }
        }
        moved
    }

    /// Remove every waiting segment of one message (retransmission
    /// support); returns how many were dropped.
    pub fn remove_msg(&mut self, conn: nmad_wire::ConnId, msg_id: nmad_wire::MsgId) -> usize {
        let before = self.items.len();
        let counts = &mut self.counts;
        self.items.retain(|i| {
            let hit = i.key.conn == conn && i.key.msg_id == msg_id;
            if hit {
                counts.tally(i.phase, i.size, false);
            }
            !hit
        });
        before - self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(msg: u64, seg: u16) -> SegKey {
        SegKey {
            conn: 0,
            msg_id: msg,
            seg_index: seg,
        }
    }

    #[test]
    fn push_and_take_eager_fifo() {
        let mut b = Backlog::new();
        b.push(key(1, 0), 2, 100, SegPhase::EagerReady);
        b.push(key(1, 1), 2, 100, SegPhase::EagerReady);
        let order: Vec<u16> = b.eager_items().map(|i| i.key.seg_index).collect();
        assert_eq!(order, vec![0, 1]);
        let item = b.take_eager(key(1, 0)).unwrap();
        assert_eq!(item.key.seg_index, 0);
        assert_eq!(b.len(), 1);
        assert!(b.take_eager(key(1, 0)).is_none(), "already taken");
    }

    #[test]
    fn take_eager_rejects_wrong_phase() {
        let mut b = Backlog::new();
        b.push(key(1, 0), 1, 1 << 20, SegPhase::RdvRequested);
        assert!(b.take_eager(key(1, 0)).is_none());
    }

    #[test]
    fn grant_transitions_phase() {
        let mut b = Backlog::new();
        b.push(key(1, 0), 1, 1 << 20, SegPhase::RdvRequested);
        assert!(b.has_rdv_pending());
        assert_eq!(b.granted_items().count(), 0);
        assert!(b.grant(key(1, 0)));
        assert!(!b.has_rdv_pending());
        assert_eq!(b.granted_items().count(), 1);
        assert!(!b.grant(key(1, 0)), "double grant must fail");
        assert!(!b.grant(key(9, 0)), "unknown segment must fail");
    }

    #[test]
    fn take_chunk_consumes_and_removes() {
        let mut b = Backlog::new();
        b.push(key(1, 0), 1, 1000, SegPhase::RdvRequested);
        b.grant(key(1, 0));
        let tc = b.take_chunk(key(1, 0), 600).unwrap();
        assert_eq!((tc.offset, tc.len, tc.chunk_index), (0, 600, 0));
        assert!(!tc.seg_exhausted);
        assert_eq!(b.len(), 1, "not exhausted yet");
        let tc = b.take_chunk(key(1, 0), 600).unwrap();
        assert_eq!((tc.offset, tc.len, tc.chunk_index), (600, 400, 1));
        assert!(tc.seg_exhausted);
        assert!(b.is_empty(), "exhausted item must be removed");
        assert!(b.take_chunk(key(1, 0), 10).is_none());
    }

    #[test]
    fn take_chunk_requires_grant() {
        let mut b = Backlog::new();
        b.push(key(1, 0), 1, 1000, SegPhase::RdvRequested);
        assert!(b.take_chunk(key(1, 0), 100).is_none());
    }

    #[test]
    fn plan_lifecycle() {
        let mut b = Backlog::new();
        b.push(key(1, 0), 1, 1000, SegPhase::RdvRequested);
        b.grant(key(1, 0));
        let plan = vec![
            PlannedChunk {
                rail: 0,
                offset: 0,
                len: 600,
                taken: false,
            },
            PlannedChunk {
                rail: 1,
                offset: 600,
                len: 400,
                taken: false,
            },
        ];
        assert!(b.set_plan(key(1, 0), plan));
        // Rail 1 takes its earmarked chunk even though rail 0's is first.
        let tc = b.take_planned(1).unwrap();
        assert_eq!(tc.key, key(1, 0));
        assert_eq!(tc.total_segs, 1);
        assert_eq!((tc.offset, tc.len), (600, 400));
        assert!(!tc.seg_exhausted);
        assert!(b.take_planned(1).is_none(), "rail 1 has nothing left");
        let tc = b.take_planned(0).unwrap();
        assert_eq!((tc.offset, tc.len), (0, 600));
        assert!(tc.seg_exhausted);
        assert!(b.is_empty(), "fully taken plan removes item");
    }

    #[test]
    fn set_plan_validates_coverage() {
        let mut b = Backlog::new();
        b.push(key(1, 0), 1, 1000, SegPhase::RdvRequested);
        b.grant(key(1, 0));
        // Gap.
        assert!(!b.set_plan(
            key(1, 0),
            vec![
                PlannedChunk {
                    rail: 0,
                    offset: 0,
                    len: 500,
                    taken: false
                },
                PlannedChunk {
                    rail: 1,
                    offset: 600,
                    len: 400,
                    taken: false
                },
            ]
        ));
        // Short coverage.
        assert!(!b.set_plan(
            key(1, 0),
            vec![PlannedChunk {
                rail: 0,
                offset: 0,
                len: 500,
                taken: false
            }]
        ));
        // Correct plan still accepted afterwards.
        assert!(b.set_plan(
            key(1, 0),
            vec![PlannedChunk {
                rail: 0,
                offset: 0,
                len: 1000,
                taken: false
            }]
        ));
        // And not twice.
        assert!(!b.set_plan(
            key(1, 0),
            vec![PlannedChunk {
                rail: 0,
                offset: 0,
                len: 1000,
                taken: false
            }]
        ));
    }

    #[test]
    fn plan_blocks_unplanned_take_chunk() {
        let mut b = Backlog::new();
        b.push(key(1, 0), 1, 1000, SegPhase::RdvRequested);
        b.grant(key(1, 0));
        b.set_plan(
            key(1, 0),
            vec![PlannedChunk {
                rail: 0,
                offset: 0,
                len: 1000,
                taken: false,
            }],
        );
        assert!(b.take_chunk(key(1, 0), 100).is_none());
    }

    #[test]
    fn take_planned_respects_submit_order() {
        let mut b = Backlog::new();
        for msg in 0..2 {
            b.push(key(msg, 0), 1, 100, SegPhase::RdvRequested);
            b.grant(key(msg, 0));
            b.set_plan(
                key(msg, 0),
                vec![PlannedChunk {
                    rail: 0,
                    offset: 0,
                    len: 100,
                    taken: false,
                }],
            );
        }
        let tc = b.take_planned(0).unwrap();
        assert_eq!(tc.key.msg_id, 0, "earliest submitted plan first");
    }

    #[test]
    fn remaining_accounts_for_plan_and_offset() {
        let mut b = Backlog::new();
        b.push(key(1, 0), 1, 1000, SegPhase::RdvRequested);
        b.grant(key(1, 0));
        b.take_chunk(key(1, 0), 300).unwrap();
        let item = b.granted_items().next().unwrap();
        assert_eq!(item.remaining(), 700);
    }

    #[test]
    fn eager_bytes_sums_only_eager() {
        let mut b = Backlog::new();
        b.push(key(1, 0), 2, 100, SegPhase::EagerReady);
        b.push(key(1, 1), 2, 50, SegPhase::EagerReady);
        b.push(key(2, 0), 1, 1 << 20, SegPhase::RdvRequested);
        assert_eq!(b.eager_bytes(), 150);
    }
}
