//! Max-min fair fluid-flow model of a shared channel.
//!
//! The paper observes that balancing one 8 MB message over Myri-10G
//! (1200 MB/s) *and* Quadrics (850 MB/s) yields 1675 MB/s, not
//! 2050 MB/s, because both DMA engines drain through the same host I/O bus
//! ("theoretically able to support data transfers up to approximately
//! 2 GB/s"). [`FluidChannel`] reproduces that effect: each active transfer
//! is a *flow* with a per-flow rate cap (its NIC link rate); the channel
//! divides its total capacity across active flows with max-min fairness
//! (progressive filling), so a flow gets `min(own cap, fair share)` and
//! capacity unused by capped flows is redistributed to the others.
//!
//! The model is event-driven: whenever the flow set changes, rates are
//! recomputed and the channel's *epoch* advances. Callers schedule a
//! completion event for [`FluidChannel::next_completion`] and discard the
//! event if the epoch moved in the meantime (a standard fluid-DES pattern).

use crate::time::{SimDuration, SimTime};

/// Handle to an active flow. Slot indices are reused, so the generation
/// field protects against use-after-complete bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlowId {
    slot: usize,
    generation: u64,
}

#[derive(Clone, Debug)]
struct Flow {
    generation: u64,
    /// Bytes still to transfer (fractional to avoid integration drift).
    remaining: f64,
    /// Per-flow rate cap in bytes/second (e.g. the NIC link rate).
    cap: f64,
    /// Current allocated rate in bytes/second.
    rate: f64,
}

/// Remaining bytes below this are considered "done". Completion events are
/// scheduled with ceil-rounded times, so at the event instant the integrated
/// bytes can undershoot by at most one picosecond's worth of flow — about
/// 2e-3 bytes at 2 GB/s. A hundredth of a byte of slack absorbs that plus
/// float drift while staying far below any meaningful payload size.
const EPS_BYTES: f64 = 1e-2;

/// A shared channel with max-min fair sharing across active flows.
#[derive(Clone, Debug)]
pub struct FluidChannel {
    name: &'static str,
    capacity: f64,
    slots: Vec<Option<Flow>>,
    free_slots: Vec<usize>,
    next_generation: u64,
    last_update: SimTime,
    /// Bumped every time allocated rates change; used to invalidate stale
    /// scheduled completion events.
    epoch: u64,
    /// Total bytes fully delivered through the channel (accounting).
    delivered: f64,
}

impl FluidChannel {
    /// Create a channel with `capacity` bytes/second aggregate throughput.
    pub fn new(name: &'static str, capacity: f64) -> Self {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "channel capacity must be positive and finite, got {capacity}"
        );
        FluidChannel {
            name,
            capacity,
            slots: Vec::new(),
            free_slots: Vec::new(),
            next_generation: 0,
            last_update: SimTime::ZERO,
            epoch: 0,
            delivered: 0.0,
        }
    }

    /// Channel name (for diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Aggregate capacity in bytes/second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Current epoch; advances whenever allocated rates change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Total bytes fully delivered so far.
    pub fn delivered_bytes(&self) -> f64 {
        self.delivered
    }

    /// Start a new flow of `bytes` with per-flow rate cap `cap` (bytes/s).
    ///
    /// Time must be monotonic across all mutating calls.
    pub fn add_flow(&mut self, now: SimTime, bytes: u64, cap: f64) -> FlowId {
        assert!(
            cap > 0.0 && cap.is_finite(),
            "flow cap must be positive and finite, got {cap}"
        );
        self.integrate_to(now);
        let generation = self.next_generation;
        self.next_generation += 1;
        let flow = Flow {
            generation,
            remaining: bytes as f64,
            cap,
            rate: 0.0,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot] = Some(flow);
                slot
            }
            None => {
                self.slots.push(Some(flow));
                self.slots.len() - 1
            }
        };
        self.recompute_rates();
        FlowId { slot, generation }
    }

    /// Integrate progress up to `now` without changing the flow set.
    pub fn advance(&mut self, now: SimTime) {
        self.integrate_to(now);
    }

    /// Bytes still pending on `id`, or `None` if the flow is gone.
    pub fn remaining(&self, id: FlowId) -> Option<f64> {
        self.flow(id).map(|f| f.remaining.max(0.0))
    }

    /// Current allocated rate of `id` in bytes/second.
    pub fn rate(&self, id: FlowId) -> Option<f64> {
        self.flow(id).map(|f| f.rate)
    }

    /// Earliest completion among active flows at current rates:
    /// `(flow, completion time, epoch)`.
    ///
    /// The returned epoch must be compared against [`Self::epoch`] when the
    /// scheduled event fires; a mismatch means rates changed and the event
    /// is stale.
    pub fn next_completion(&self) -> Option<(FlowId, SimTime, u64)> {
        let mut best: Option<(FlowId, SimDuration)> = None;
        for (slot, entry) in self.slots.iter().enumerate() {
            let Some(flow) = entry else { continue };
            debug_assert!(flow.rate > 0.0, "active flow with zero rate");
            let secs = (flow.remaining.max(0.0)) / flow.rate;
            let dur = SimDuration::from_secs_f64_ceil(secs).max(SimDuration::from_ps(1));
            let id = FlowId {
                slot,
                generation: flow.generation,
            };
            match best {
                Some((_, d)) if d <= dur => {}
                _ => best = Some((id, dur)),
            }
        }
        best.map(|(id, dur)| (id, self.last_update + dur, self.epoch))
    }

    /// Try to complete `id` at `now`. Returns `true` if the flow existed and
    /// its remaining bytes were (within tolerance) drained; the flow is then
    /// removed and rates are recomputed. Returns `false` if the flow is
    /// unknown (already completed) or not yet done (stale event).
    pub fn try_complete(&mut self, now: SimTime, id: FlowId) -> bool {
        self.integrate_to(now);
        let done = match self.flow(id) {
            Some(f) => f.remaining <= EPS_BYTES,
            None => return false,
        };
        if !done {
            return false;
        }
        self.slots[id.slot] = None;
        self.free_slots.push(id.slot);
        self.recompute_rates();
        true
    }

    /// Sum of currently allocated rates (must never exceed capacity).
    pub fn allocated_rate(&self) -> f64 {
        self.slots.iter().flatten().map(|f| f.rate).sum()
    }

    fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.slots
            .get(id.slot)?
            .as_ref()
            .filter(|f| f.generation == id.generation)
    }

    fn integrate_to(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "{}: time went backwards: {now:?} < {:?}",
            self.name,
            self.last_update
        );
        let dt = now.since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            for flow in self.slots.iter_mut().flatten() {
                let moved = (flow.rate * dt).min(flow.remaining);
                flow.remaining -= moved;
                self.delivered += moved;
            }
        }
        self.last_update = now;
    }

    /// Progressive-filling max-min fair allocation with per-flow caps.
    fn recompute_rates(&mut self) {
        let mut order: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect();
        // Allocate the most-constrained flows first so spare capacity
        // cascades to the less-constrained ones.
        order.sort_by(|&a, &b| {
            let ca = self.slots[a].as_ref().unwrap().cap;
            let cb = self.slots[b].as_ref().unwrap().cap;
            ca.partial_cmp(&cb).unwrap().then(a.cmp(&b))
        });
        let mut left = self.capacity;
        let mut n_left = order.len();
        for slot in order {
            let fair = left / n_left as f64;
            let flow = self.slots[slot].as_mut().unwrap();
            flow.rate = flow.cap.min(fair);
            left -= flow.rate;
            n_left -= 1;
        }
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: f64 = 1.0e6;

    fn channel() -> FluidChannel {
        FluidChannel::new("bus", 1850.0 * MB)
    }

    #[test]
    fn single_flow_runs_at_its_cap() {
        let mut ch = channel();
        let f = ch.add_flow(SimTime::ZERO, 1_000_000, 1200.0 * MB);
        assert!((ch.rate(f).unwrap() - 1200.0 * MB).abs() < 1.0);
        let (id, t, _) = ch.next_completion().unwrap();
        assert_eq!(id, f);
        // 1 MB at 1200 MB/s = 833.3 us.
        assert!((t.as_us_f64() - 833.333).abs() < 0.5, "{t:?}");
    }

    #[test]
    fn two_flows_share_bus_capacity() {
        let mut ch = channel();
        let myri = ch.add_flow(SimTime::ZERO, 4_000_000, 1200.0 * MB);
        let quad = ch.add_flow(SimTime::ZERO, 4_000_000, 850.0 * MB);
        // Fair share would be 925 each; Quadrics caps at 850, leftover goes
        // to Myri: 1850 - 850 = 1000.
        assert!((ch.rate(quad).unwrap() - 850.0 * MB).abs() < 1.0);
        assert!((ch.rate(myri).unwrap() - 1000.0 * MB).abs() < 1.0);
        assert!(ch.allocated_rate() <= ch.capacity() + 1.0);
    }

    #[test]
    fn capacity_never_exceeded_many_flows() {
        let mut ch = channel();
        for _ in 0..8 {
            ch.add_flow(SimTime::ZERO, 1 << 20, 1200.0 * MB);
        }
        assert!(ch.allocated_rate() <= ch.capacity() + 1.0);
        // Every flow gets the same fair share since all caps exceed it.
        let share = ch.capacity() / 8.0;
        for slot in 0..8 {
            let id = FlowId {
                slot,
                generation: slot as u64,
            };
            assert!((ch.rate(id).unwrap() - share).abs() < 1.0);
        }
    }

    #[test]
    fn completion_then_speedup() {
        let mut ch = channel();
        let small = ch.add_flow(SimTime::ZERO, 100_000, 850.0 * MB);
        let big = ch.add_flow(SimTime::ZERO, 10_000_000, 1200.0 * MB);
        let rate_before = ch.rate(big).unwrap();
        let (first, t, epoch) = ch.next_completion().unwrap();
        assert_eq!(first, small);
        assert_eq!(epoch, ch.epoch());
        assert!(ch.try_complete(t, small));
        let rate_after = ch.rate(big).unwrap();
        assert!(
            rate_after > rate_before,
            "big flow must speed up after small completes: {rate_before} -> {rate_after}"
        );
        assert!((rate_after - 1200.0 * MB).abs() < 1.0);
    }

    #[test]
    fn stale_epoch_detectable() {
        let mut ch = channel();
        let _a = ch.add_flow(SimTime::ZERO, 1_000_000, 1200.0 * MB);
        let (_, _, epoch) = ch.next_completion().unwrap();
        // Adding another flow changes rates -> epoch advances.
        let _b = ch.add_flow(SimTime::from_us(1), 1_000_000, 850.0 * MB);
        assert_ne!(epoch, ch.epoch(), "epoch must move when rates change");
    }

    #[test]
    fn try_complete_rejects_unfinished_flow() {
        let mut ch = channel();
        let f = ch.add_flow(SimTime::ZERO, 1_000_000, 1200.0 * MB);
        assert!(!ch.try_complete(SimTime::from_us(1), f));
        assert!(ch.remaining(f).unwrap() > 0.0);
    }

    #[test]
    fn try_complete_rejects_unknown_flow() {
        let mut ch = channel();
        let f = ch.add_flow(SimTime::ZERO, 1, 1200.0 * MB);
        let (_, t, _) = ch.next_completion().unwrap();
        assert!(ch.try_complete(t, f));
        assert!(!ch.try_complete(t, f), "double completion must fail");
    }

    #[test]
    fn byte_conservation() {
        let mut ch = channel();
        let total: u64 = 3_000_000 + 5_000_000;
        let a = ch.add_flow(SimTime::ZERO, 3_000_000, 1200.0 * MB);
        let b = ch.add_flow(SimTime::ZERO, 5_000_000, 850.0 * MB);
        for _ in 0..2 {
            let (id, t, epoch) = ch.next_completion().unwrap();
            assert_eq!(epoch, ch.epoch());
            assert!(ch.try_complete(t, id), "completion event must land");
        }
        assert!(ch.next_completion().is_none());
        let delivered = ch.delivered_bytes();
        assert!(
            (delivered - total as f64).abs() < 1.0,
            "delivered {delivered} != {total}"
        );
        let _ = (a, b);
    }

    #[test]
    fn slot_reuse_keeps_generations_distinct() {
        let mut ch = channel();
        let a = ch.add_flow(SimTime::ZERO, 1, 1.0 * MB);
        let (_, t, _) = ch.next_completion().unwrap();
        assert!(ch.try_complete(t, a));
        let b = ch.add_flow(t, 1000, 1.0 * MB);
        assert_eq!(a.slot, b.slot, "slot should be reused");
        assert_ne!(a.generation, b.generation);
        assert!(ch.remaining(a).is_none(), "old id must not alias new flow");
        assert!(ch.remaining(b).is_some());
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut ch = channel();
        let f = ch.add_flow(SimTime::ZERO, 0, 1.0 * MB);
        let (id, t, _) = ch.next_completion().unwrap();
        assert_eq!(id, f);
        // Clamped to 1 ps, never zero-length.
        assert!(t.as_ps() >= 1);
        assert!(ch.try_complete(t, f));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn monotonicity_enforced() {
        let mut ch = channel();
        ch.add_flow(SimTime::from_us(10), 100, 1.0 * MB);
        ch.advance(SimTime::from_us(5));
    }
}
