//! Deterministic event queue.
//!
//! A thin wrapper over [`std::collections::BinaryHeap`] that delivers events
//! in non-decreasing time order and breaks ties by insertion sequence
//! (FIFO). Deterministic tie-breaking is what makes whole simulation runs —
//! and therefore every figure in EXPERIMENTS.md — bit-reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One queued event: scheduled time, insertion sequence, payload.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of timestamped events with FIFO tie-breaking.
///
/// ```
/// use nmad_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(20), "late");
/// q.push(SimTime::from_ns(10), "early");
/// q.push(SimTime::from_ns(10), "early-second");
/// assert_eq!(q.pop(), Some((SimTime::from_ns(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `event` at `time`.
    ///
    /// Panics if `time` is earlier than the last popped event: scheduling
    /// into the past is always a logic error in a discrete-event simulation.
    pub fn push(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.last_popped,
            "event scheduled in the past: {time:?} < current {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.last_popped = entry.time;
        Some((entry.time, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the most recently popped event — the simulation "now".
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_breaking() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_ns(7), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.pop();
        q.push(SimTime::from_ns(9), ());
    }

    #[test]
    fn same_time_as_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1);
        q.pop();
        q.push(SimTime::from_ns(10), 2);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 2)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        let mut t = SimTime::ZERO;
        let mut popped = Vec::new();
        for round in 0..50u64 {
            q.push(t + SimDuration::from_ns(round + 1), round);
            if round % 3 == 0 {
                if let Some((pt, e)) = q.pop() {
                    t = pt;
                    popped.push(e);
                }
            }
        }
        while let Some((_, e)) = q.pop() {
            popped.push(e);
        }
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted, "events must pop in schedule order");
        assert_eq!(popped.len(), 50);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_ns(1), ());
        q.push(SimTime::from_ns(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }
}
