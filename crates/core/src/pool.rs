//! Reusable buffer pool for the transmit hot path.
//!
//! Every packet needs a small owned head buffer (envelope + body header)
//! and aggregation needs a staging slab; allocating them fresh per packet
//! is exactly the per-packet overhead §3.3 warns about. The engine owns
//! one [`Pool`]: [`Pool::take`] pops a recycled buffer (a *pool hit*) or
//! allocates (a counted *hot-path alloc*), and [`Pool::reclaim`] recovers
//! the buffer from a frozen [`Bytes`] once the frame leaves the in-flight
//! set ([`Bytes::try_into_mut`]) — which succeeds when no one else still
//! holds a reference. The in-process fabric's receiver may still hold
//! one; that is a counted miss, not an error, and the buffer waits in a
//! bounded *limbo* until the receiver lets go.
//!
//! A buffer is kept together with the `Arc` it was frozen into, so a hit
//! costs no allocation at all: neither the bytes nor the `Arc` that the
//! frame's `freeze` puts them in (DESIGN.md §12).
//!
//! The pool keeps no counters of its own: `take` and `reclaim` count
//! straight into the engine's [`DataPathStats`], whose `pool_outstanding`
//! is the leak ledger.

use bytes::{Bytes, BytesMut};
use std::collections::VecDeque;

use crate::stats::DataPathStats;

/// Free buffers kept for reuse; a reclaim past this is dropped.
pub(crate) const FREE_MAX: usize = 32;
/// Buffers parked while another holder still reads them; the one that
/// has waited longest is let go when a new one arrives at the bound.
pub(crate) const LIMBO_MAX: usize = 16;

/// A bounded free list of byte buffers plus the limbo of buffers handed
/// back while still shared.
#[derive(Debug)]
pub(crate) struct Pool {
    /// Each with the `Arc` it goes back into at its next `freeze`.
    free: Vec<BytesMut>,
    /// Reclaimed while still shared, oldest first.
    limbo: VecDeque<Bytes>,
}

impl Default for Pool {
    fn default() -> Self {
        Pool {
            free: Vec::with_capacity(FREE_MAX),
            limbo: VecDeque::with_capacity(LIMBO_MAX),
        }
    }
}

impl Pool {
    /// Take a cleared buffer with at least `min_capacity` bytes of
    /// capacity: a free one that fits (looking in the limbo for buffers
    /// that have become unique when none does), else a fresh allocation.
    pub(crate) fn take(&mut self, min_capacity: usize, d: &mut DataPathStats) -> BytesMut {
        let fits = |b: &BytesMut| b.capacity() >= min_capacity;
        d.pool_outstanding += 1;
        let free = match self.free.iter().position(fits) {
            Some(idx) => Some(self.free.swap_remove(idx)),
            None => self.unique_in_limbo(fits),
        };
        if let Some(mut buf) = free {
            buf.clear();
            d.pool_hits += 1;
            return buf;
        }
        d.hot_path_allocs += 1;
        BytesMut::with_capacity(min_capacity)
    }

    /// Hand a taken buffer back. Its allocation is recycled when `buf` is
    /// the sole reference; a buffer someone else still holds is a counted
    /// miss and waits in the limbo. Either way the ledger entry closes.
    pub(crate) fn reclaim(&mut self, buf: Bytes, d: &mut DataPathStats) {
        debug_assert!(d.pool_outstanding > 0, "pool reclaim with nothing taken");
        d.pool_outstanding = d.pool_outstanding.saturating_sub(1);
        match buf.try_into_mut() {
            Ok(buf) => {
                d.pool_reclaims += 1;
                self.keep(buf);
            }
            Err(buf) => {
                d.pool_reclaim_misses += 1;
                if self.limbo.len() == LIMBO_MAX {
                    self.limbo.pop_front();
                }
                self.limbo.push_back(buf);
            }
        }
    }

    fn keep(&mut self, buf: BytesMut) {
        if self.free.len() < FREE_MAX {
            self.free.push(buf);
        }
    }

    /// A parked buffer that nobody else holds any more and that `fits`,
    /// newest first — the frame handed back last is the likeliest to be
    /// gone by now; those that do not fit go to the free list on the way.
    fn unique_in_limbo(&mut self, fits: impl Fn(&BytesMut) -> bool) -> Option<BytesMut> {
        for at in (0..self.limbo.len()).rev() {
            if !self.limbo[at].is_unique() {
                continue;
            }
            let parked = self.limbo.remove(at).expect("an index below the length");
            match parked.try_into_mut() {
                Ok(buf) if fits(&buf) => return Some(buf),
                Ok(buf) => self.keep(buf),
                Err(parked) => self.limbo.insert(at, parked),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn take_allocates_then_hits_after_reclaim() {
        let (mut p, mut d) = (Pool::default(), DataPathStats::default());
        let b = p.take(64, &mut d);
        assert_eq!((d.hot_path_allocs, d.pool_hits), (1, 0));
        p.reclaim(b.freeze(), &mut d);
        assert_eq!((d.pool_reclaims, p.free.len()), (1, 1));
        let b2 = p.take(32, &mut d);
        assert_eq!(d.pool_hits, 1);
        assert!(b2.capacity() >= 32);
        assert!(b2.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(d.pool_reuse_rate(), 0.5);
    }

    #[test]
    fn a_hit_freezes_into_the_arc_it_came_back_in() {
        let (mut p, mut d) = (Pool::default(), DataPathStats::default());
        let mut b = p.take(64, &mut d);
        b.extend_from_slice(b"first");
        let frozen = b.freeze();
        let ptr = frozen.as_ptr();
        p.reclaim(frozen, &mut d);
        let mut b = p.take(64, &mut d);
        b.extend_from_slice(b"second");
        let frozen = b.freeze();
        assert_eq!((&frozen[..], frozen.as_ptr()), (&b"second"[..], ptr));
        assert_eq!((d.hot_path_allocs, d.pool_hits), (1, 1));
        p.reclaim(frozen, &mut d);
    }

    #[test]
    fn capacity_preference() {
        let (mut p, mut d) = (Pool::default(), DataPathStats::default());
        let small = p.take(8, &mut d);
        let big = p.take(4096, &mut d);
        p.reclaim(small.freeze(), &mut d);
        p.reclaim(big.freeze(), &mut d);
        let got = p.take(2048, &mut d);
        assert!(got.capacity() >= 2048, "must pick the big free buffer");
        assert_eq!(d.pool_hits, 1);
    }

    #[test]
    fn shared_buffer_waits_in_limbo_and_is_recycled_once_released() {
        let (mut p, mut d) = (Pool::default(), DataPathStats::default());
        let frame = p.take(64, &mut d).freeze();
        let peer = frame.clone();
        p.reclaim(frame, &mut d);
        assert_eq!(d.pool_outstanding, 0, "custody is back at once");
        assert_eq!(
            (p.limbo.len(), p.free.len(), d.pool_reclaim_misses),
            (1, 0, 1)
        );
        // Still shared: the next take cannot have it.
        let other = p.take(64, &mut d);
        assert_eq!((d.hot_path_allocs, p.limbo.len()), (2, 1));
        drop(peer);
        // Released: the take after that is a hit on the very buffer.
        let again = p.take(64, &mut d);
        assert_eq!((d.hot_path_allocs, d.pool_hits, p.limbo.len()), (2, 1, 0));
        p.reclaim(other.freeze(), &mut d);
        p.reclaim(again.freeze(), &mut d);
        assert_eq!(d.pool_outstanding, 0);
    }

    #[test]
    fn free_list_and_limbo_are_bounded() {
        let (mut p, mut d) = (Pool::default(), DataPathStats::default());
        let bufs: Vec<Bytes> = (0..FREE_MAX + LIMBO_MAX + 8)
            .map(|_| p.take(8, &mut d).freeze())
            .collect();
        // Views on the first few keep them shared: they go to the limbo.
        let views = bufs[..LIMBO_MAX + 4].to_vec();
        for b in bufs {
            p.reclaim(b, &mut d);
        }
        assert_eq!((p.free.len(), p.limbo.len()), (FREE_MAX, LIMBO_MAX));
        assert_eq!(d.pool_outstanding, 0);
        drop(views);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nothing taken")]
    fn reclaim_without_a_take_is_caught() {
        let (mut p, mut d) = (Pool::default(), DataPathStats::default());
        p.reclaim(Bytes::from(vec![0u8; 8]), &mut d);
    }

    #[derive(Clone, Debug)]
    enum Op {
        Take(usize),
        Freeze(usize),
        Clone(usize),
        DropView(usize),
        Reclaim(usize),
    }

    /// Views are dropped a third as often as they are made, so that
    /// shared reclaims pile up past the limbo's bound.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..13, any::<usize>(), 1usize..512).prop_map(|(kind, i, len)| match kind {
            0..=2 => Op::Take(len),
            3..=5 => Op::Freeze(i),
            6..=8 => Op::Clone(i),
            9 => Op::DropView(i),
            _ => Op::Reclaim(i),
        })
    }

    proptest! {
        /// Random take / freeze / clone / drop / reclaim sequences: the
        /// ledger is exact after every step, the free list and the limbo
        /// stay bounded, and a taken buffer never aliases a live `Bytes`
        /// (every take is filled with its own sentinel, and no live view
        /// may see a byte change).
        #[test]
        fn ledger_bounds_and_no_aliasing(ops in proptest::collection::vec(op(), 1..250)) {
            let (mut p, mut d) = (Pool::default(), DataPathStats::default());
            let mut taken: Vec<BytesMut> = Vec::new();
            let mut frozen: Vec<Bytes> = Vec::new();
            // Live views and the sentinel each must still read.
            let mut views: Vec<(Bytes, u8)> = Vec::new();
            let (mut takes, mut reclaims) = (0u64, 0u64);
            for op in ops {
                match op {
                    Op::Take(len) => {
                        let mut b = p.take(len, &mut d);
                        prop_assert!(b.is_empty() && b.capacity() >= len);
                        takes += 1;
                        b.resize(len, takes as u8);
                        taken.push(b);
                    }
                    Op::Freeze(i) if !taken.is_empty() => {
                        let b = taken.swap_remove(i % taken.len());
                        frozen.push(b.freeze());
                    }
                    Op::Clone(i) if !frozen.is_empty() => {
                        let b = frozen[i % frozen.len()].clone();
                        let sentinel = b[0];
                        views.push((b, sentinel));
                    }
                    Op::DropView(i) if !views.is_empty() => {
                        views.swap_remove(i % views.len());
                    }
                    Op::Reclaim(i) if !frozen.is_empty() => {
                        let b = frozen.swap_remove(i % frozen.len());
                        p.reclaim(b, &mut d);
                        reclaims += 1;
                    }
                    _ => {}
                }
                prop_assert_eq!(d.pool_outstanding, (taken.len() + frozen.len()) as u64);
                prop_assert_eq!(d.pool_hits + d.hot_path_allocs, takes);
                prop_assert_eq!(d.pool_reclaims + d.pool_reclaim_misses, reclaims);
                prop_assert!(p.free.len() <= FREE_MAX && p.limbo.len() <= LIMBO_MAX);
                for (view, sentinel) in &views {
                    prop_assert!(view.iter().all(|b| b == sentinel), "a live view changed");
                }
            }
        }
    }
}
