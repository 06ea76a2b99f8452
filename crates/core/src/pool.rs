//! Reusable buffer pool for the transmit hot path.
//!
//! Every packet needs a small owned head buffer (envelope + body header)
//! and aggregation needs a staging slab; allocating them fresh per packet
//! is exactly the per-packet overhead §3.3 warns about. The pool keeps a
//! free list of recycled `Vec<u8>` allocations: [`BufferPool::take`] pops
//! one (a *pool hit*) or allocates (a counted *hot-path alloc*), and
//! [`BufferPool::reclaim`] recovers the allocation from a frozen
//! [`Bytes`] once the frame leaves the in-flight set — which succeeds
//! precisely when no one else still holds a reference (the threaded
//! transports drop theirs at tx completion; the in-process fabric's
//! receiver may legitimately still hold one, which is counted as a miss,
//! not an error — a [`Magazine`] parks such a buffer and recycles it once
//! the receiver has let go).
//!
//! Two deployment shapes share the counters and the ledger discipline:
//!
//! * [`BufferPool`] — the original single-owner pool (one `&mut` holder,
//!   no locking). The deterministic simulator and unit tests use it.
//! * [`SharedPool`] + [`Magazine`] — a lock-protected shared free list
//!   fronted by per-worker *magazines* (thread-local buffer caches, the
//!   slab-allocator sense of the word). A magazine serves `take` and
//!   `reclaim` from its local stack without touching the shared lock;
//!   only bounded batch refills/flushes cross it, so packet-head
//!   allocation stops bouncing a cache line between rail workers.

use bytes::{Bytes, BytesMut};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters the pool reports back to
/// [`crate::stats::DataPathStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Requests served from the free list.
    pub hits: u64,
    /// Requests that had to allocate.
    pub allocs: u64,
    /// Buffers recovered into the free list.
    pub reclaims: u64,
    /// Reclaim attempts on still-shared buffers.
    pub reclaim_misses: u64,
    /// Requests served from a magazine's local cache without taking the
    /// shared lock (always 0 for a plain [`BufferPool`]).
    pub magazine_hits: u64,
    /// Batch refills that did take the shared lock.
    pub magazine_refills: u64,
    /// Batch flushes of excess local buffers back to the shared list.
    pub magazine_flushes: u64,
}

impl PoolCounters {
    /// Fraction of takes served lock-free from a magazine (0.0 when no
    /// magazine is in play or nothing was taken yet).
    pub fn magazine_hit_rate(&self) -> f64 {
        let takes = self.hits + self.allocs;
        if takes == 0 {
            0.0
        } else {
            self.magazine_hits as f64 / takes as f64
        }
    }
}

/// A bounded free list of byte buffers.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    max_buffers: usize,
    counters: PoolCounters,
    /// Leak ledger: buffers taken and not yet handed back to `reclaim`.
    /// Every `take` must eventually be answered by exactly one `reclaim`
    /// (shared buffers count — a miss still closes the ledger entry), so
    /// a nonzero value at engine drop is a leaked buffer.
    outstanding: u64,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new(32)
    }
}

impl BufferPool {
    /// Pool keeping at most `max_buffers` free buffers (excess reclaims
    /// are dropped to bound memory).
    pub fn new(max_buffers: usize) -> Self {
        BufferPool {
            free: Vec::new(),
            max_buffers,
            counters: PoolCounters::default(),
            outstanding: 0,
        }
    }

    /// Take a cleared buffer with at least `min_capacity` bytes of
    /// capacity, preferring a recycled one.
    pub fn take(&mut self, min_capacity: usize) -> BytesMut {
        // Find a free buffer that already has the capacity; otherwise
        // reuse the largest available (growing it amortizes like a fresh
        // Vec, but keeps the allocation count honest).
        self.outstanding += 1;
        if let Some(idx) = self.free.iter().position(|b| b.capacity() >= min_capacity) {
            let mut buf = self.free.swap_remove(idx);
            buf.clear();
            self.counters.hits += 1;
            return BytesMut::from(buf);
        }
        self.counters.allocs += 1;
        BytesMut::with_capacity(min_capacity)
    }

    /// Try to recover the allocation behind `buf` into the free list.
    /// Succeeds only when `buf` is the sole reference; a shared buffer is
    /// counted as a miss and dropped (the other holder keeps it alive).
    pub fn reclaim(&mut self, buf: Bytes) {
        self.outstanding = self.outstanding.saturating_sub(1);
        if buf.is_unique() {
            if self.free.len() < self.max_buffers {
                let v: Vec<u8> = buf.into();
                self.free.push(v);
            }
            self.counters.reclaims += 1;
        } else {
            self.counters.reclaim_misses += 1;
        }
    }

    /// Buffers currently on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// Buffers taken and not yet reclaimed (the leak ledger). A steady
    /// nonzero value equals the frames currently in flight; a value that
    /// stays nonzero after the engine quiesces is a leak.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Cumulative hit/alloc/reclaim counters.
    pub fn counters(&self) -> PoolCounters {
        self.counters
    }
}

// ----------------------------------------------------------------------
// Shared pool + per-worker magazines
// ----------------------------------------------------------------------

/// Counters live as atomics so magazines on different threads update
/// them without the free-list lock; `outstanding` is the process-wide
/// leak ledger (magazine-cached buffers are *free*, not outstanding).
#[derive(Debug, Default)]
struct SharedCounters {
    hits: AtomicU64,
    allocs: AtomicU64,
    reclaims: AtomicU64,
    reclaim_misses: AtomicU64,
    magazine_hits: AtomicU64,
    magazine_refills: AtomicU64,
    magazine_flushes: AtomicU64,
    outstanding: AtomicU64,
}

impl SharedCounters {
    fn snapshot(&self) -> PoolCounters {
        PoolCounters {
            hits: self.hits.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            reclaims: self.reclaims.load(Ordering::Relaxed),
            reclaim_misses: self.reclaim_misses.load(Ordering::Relaxed),
            magazine_hits: self.magazine_hits.load(Ordering::Relaxed),
            magazine_refills: self.magazine_refills.load(Ordering::Relaxed),
            magazine_flushes: self.magazine_flushes.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug)]
struct SharedState {
    free: Mutex<Vec<Vec<u8>>>,
    max_buffers: usize,
    counters: SharedCounters,
}

/// A cloneable handle on a lock-protected buffer free list. Workers
/// don't use it directly — each carves a [`Magazine`] and goes through
/// that, touching the shared lock only on bounded batch refill/flush.
#[derive(Clone, Debug)]
pub struct SharedPool {
    inner: Arc<SharedState>,
}

impl Default for SharedPool {
    fn default() -> Self {
        Self::new(32)
    }
}

impl SharedPool {
    /// Shared pool keeping at most `max_buffers` free buffers across the
    /// central list (magazine caches are bounded separately).
    pub fn new(max_buffers: usize) -> Self {
        SharedPool {
            inner: Arc::new(SharedState {
                free: Mutex::new(Vec::new()),
                max_buffers,
                counters: SharedCounters::default(),
            }),
        }
    }

    /// Carve a per-worker magazine caching at most `cap` local buffers.
    /// Refill and flush batches are `cap / 2` (at least 1), so a worker
    /// amortizes one lock acquisition over many takes/reclaims.
    pub fn magazine(&self, cap: usize) -> Magazine {
        Magazine {
            shared: Arc::clone(&self.inner),
            local: Vec::with_capacity(cap),
            limbo: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Cumulative counters aggregated across all magazines.
    pub fn counters(&self) -> PoolCounters {
        self.inner.counters.snapshot()
    }

    /// Buffers in someone's custody (taken, not yet reclaimed) across
    /// all magazines — the leak ledger.
    pub fn outstanding(&self) -> u64 {
        self.inner.counters.outstanding.load(Ordering::Relaxed)
    }

    /// Buffers on the central free list (excludes magazine caches).
    pub fn free_buffers(&self) -> usize {
        self.inner.free.lock().expect("pool lock poisoned").len()
    }
}

/// Per-worker front for a [`SharedPool`]: a bounded local stack of free
/// buffers serving `take`/`reclaim` without the shared lock. Dropping a
/// magazine flushes its cache back to the shared list, so the ledger
/// stays exact: custody is only ever counted in `outstanding`, never in
/// a cache.
///
/// A buffer handed back while someone else still reads it — the
/// in-process fabric's receiver shares every frame with its sender —
/// cannot be recycled yet. It waits in a bounded *limbo* (custody
/// returned, memory not yet free), and `take` looks there first for
/// buffers that have become unique since.
#[derive(Debug)]
pub struct Magazine {
    shared: Arc<SharedState>,
    local: Vec<Vec<u8>>,
    /// Reclaimed while still shared, oldest first; at most `cap`.
    limbo: VecDeque<Bytes>,
    cap: usize,
}

impl Magazine {
    fn batch(&self) -> usize {
        (self.cap / 2).max(1)
    }

    /// Take a cleared buffer with at least `min_capacity` bytes of
    /// capacity: local cache first (topped up with whatever the limbo
    /// can release), then a batch refill from the shared list, then a
    /// counted fresh allocation.
    pub fn take(&mut self, min_capacity: usize) -> BytesMut {
        let fits = |b: &Vec<u8>| b.capacity() >= min_capacity;
        if !self.local.iter().any(fits) {
            self.release_limbo();
        }
        let c = &self.shared.counters;
        c.outstanding.fetch_add(1, Ordering::Relaxed);
        if let Some(idx) = self.local.iter().position(fits) {
            let mut buf = self.local.swap_remove(idx);
            buf.clear();
            c.magazine_hits.fetch_add(1, Ordering::Relaxed);
            c.hits.fetch_add(1, Ordering::Relaxed);
            return BytesMut::from(buf);
        }
        // Local miss: one lock acquisition refills up to half a magazine,
        // preferring a buffer that already fits this request.
        let mut fitting: Option<Vec<u8>> = None;
        {
            let mut free = self.shared.free.lock().expect("pool lock poisoned");
            if !free.is_empty() {
                c.magazine_refills.fetch_add(1, Ordering::Relaxed);
                if let Some(idx) = free.iter().position(|b| b.capacity() >= min_capacity) {
                    fitting = Some(free.swap_remove(idx));
                }
                let room = self.batch().saturating_sub(fitting.is_some() as usize);
                for _ in 0..room.min(free.len()) {
                    self.local.push(free.pop().expect("len checked"));
                }
            }
        }
        if let Some(mut buf) = fitting {
            buf.clear();
            c.hits.fetch_add(1, Ordering::Relaxed);
            return BytesMut::from(buf);
        }
        c.allocs.fetch_add(1, Ordering::Relaxed);
        BytesMut::with_capacity(min_capacity)
    }

    /// Try to recover the allocation behind `buf` into the local cache
    /// (same uniqueness rule as [`BufferPool::reclaim`]); overflow past
    /// the magazine bound flushes a batch to the shared list. A buffer
    /// someone else still holds is a counted miss and waits in the limbo,
    /// pushing out the one that has waited longest when that is full.
    pub fn reclaim(&mut self, buf: Bytes) {
        let c = &self.shared.counters;
        let _ = c
            .outstanding
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
        if buf.is_unique() {
            c.reclaims.fetch_add(1, Ordering::Relaxed);
            self.cache(buf.into());
        } else {
            c.reclaim_misses.fetch_add(1, Ordering::Relaxed);
            if self.limbo.len() == self.cap {
                self.limbo.pop_front();
            }
            self.limbo.push_back(buf);
        }
    }

    /// Put a free buffer into the local cache.
    fn cache(&mut self, buf: Vec<u8>) {
        self.local.push(buf);
        if self.local.len() > self.cap {
            self.flush(self.batch());
        }
    }

    /// Move every parked buffer that nobody else holds any more into the
    /// local cache.
    fn release_limbo(&mut self) {
        for _ in 0..self.limbo.len() {
            match self.limbo.pop_front() {
                Some(buf) if buf.is_unique() => self.cache(buf.into()),
                Some(buf) => self.limbo.push_back(buf),
                None => break,
            }
        }
    }

    /// Move up to `n` cached buffers back to the shared free list
    /// (dropping overflow past the shared bound, like `BufferPool`).
    fn flush(&mut self, n: usize) {
        let c = &self.shared.counters;
        c.magazine_flushes.fetch_add(1, Ordering::Relaxed);
        let mut free = self.shared.free.lock().expect("pool lock poisoned");
        for _ in 0..n {
            let Some(b) = self.local.pop() else { break };
            if free.len() < self.shared.max_buffers {
                free.push(b);
            }
        }
    }

    /// Buffers cached locally (free, not outstanding).
    pub fn cached(&self) -> usize {
        self.local.len()
    }

    /// Buffers waiting for another holder to let go (not outstanding,
    /// not yet free).
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.limbo.len()
    }

    /// Ledger + counter views, mirroring [`BufferPool`]'s API so the
    /// engine can hold either.
    pub fn outstanding(&self) -> u64 {
        self.shared.counters.outstanding.load(Ordering::Relaxed)
    }

    /// Cumulative counters (shared across every magazine of the pool).
    pub fn counters(&self) -> PoolCounters {
        self.shared.counters.snapshot()
    }
}

impl Drop for Magazine {
    fn drop(&mut self) {
        // Hand every cached buffer back so the shared pool remains the
        // sole owner of free memory; custody accounting is untouched
        // (cached buffers were never outstanding).
        self.flush(usize::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_allocates_then_hits_after_reclaim() {
        let mut p = BufferPool::new(4);
        let b = p.take(64);
        assert_eq!(p.counters().allocs, 1);
        assert_eq!(p.counters().hits, 0);
        p.reclaim(b.freeze());
        assert_eq!(p.counters().reclaims, 1);
        assert_eq!(p.free_buffers(), 1);
        let b2 = p.take(32);
        assert_eq!(p.counters().hits, 1);
        assert!(b2.capacity() >= 32);
        assert!(b2.is_empty(), "recycled buffer must come back cleared");
    }

    #[test]
    fn shared_buffer_is_a_miss() {
        let mut p = BufferPool::new(4);
        let b = p.take(16).freeze();
        let _other = b.clone();
        p.reclaim(b);
        assert_eq!(p.counters().reclaim_misses, 1);
        assert_eq!(p.free_buffers(), 0);
    }

    #[test]
    fn free_list_is_bounded() {
        let mut p = BufferPool::new(2);
        for _ in 0..5 {
            let b = p.take(8);
            p.reclaim(b.freeze());
        }
        assert!(p.free_buffers() <= 2);
    }

    #[test]
    fn outstanding_ledger_tracks_take_and_reclaim() {
        let mut p = BufferPool::new(4);
        assert_eq!(p.outstanding(), 0);
        let a = p.take(64);
        let b = p.take(64);
        assert_eq!(p.outstanding(), 2, "two buffers out");
        p.reclaim(a.freeze());
        assert_eq!(p.outstanding(), 1, "one still held — a would-be leak");
        // A shared reclaim (miss) still closes the ledger entry: custody
        // returned even though the allocation could not be recycled.
        let frozen = b.freeze();
        let _shared = frozen.clone();
        p.reclaim(frozen);
        assert_eq!(p.outstanding(), 0);
        assert_eq!(p.counters().reclaim_misses, 1);
    }

    #[test]
    fn capacity_preference() {
        let mut p = BufferPool::new(4);
        let small = p.take(8);
        let big = p.take(4096);
        p.reclaim(small.freeze());
        p.reclaim(big.freeze());
        let got = p.take(2048);
        assert!(got.capacity() >= 2048, "must pick the big free buffer");
        assert_eq!(p.counters().hits, 1);
    }

    #[test]
    fn magazine_serves_locally_after_warmup() {
        let pool = SharedPool::new(32);
        let mut mag = pool.magazine(8);
        // First round allocates; reclaims land in the local cache.
        let bufs: Vec<_> = (0..4).map(|_| mag.take(64)).collect();
        for b in bufs {
            mag.reclaim(b.freeze());
        }
        assert_eq!(mag.counters().allocs, 4);
        // Steady state: every take is a lock-free magazine hit.
        for _ in 0..100 {
            let b = mag.take(64);
            mag.reclaim(b.freeze());
        }
        let c = mag.counters();
        assert_eq!(c.magazine_hits, 100);
        assert_eq!(c.allocs, 4, "no further allocations after warmup");
        assert!(
            c.magazine_hit_rate() > 0.9,
            "rate {}",
            c.magazine_hit_rate()
        );
        assert_eq!(mag.outstanding(), 0, "ledger balanced");
    }

    #[test]
    fn magazine_ledger_counts_custody_not_cache() {
        let pool = SharedPool::new(32);
        let mut mag = pool.magazine(4);
        let a = mag.take(64);
        let b = mag.take(64);
        assert_eq!(pool.outstanding(), 2);
        mag.reclaim(a.freeze());
        assert_eq!(
            pool.outstanding(),
            1,
            "cached buffer is free, not outstanding"
        );
        assert_eq!(mag.cached(), 1);
        // Shared reclaim still closes the ledger entry.
        let frozen = b.freeze();
        let _other = frozen.clone();
        mag.reclaim(frozen);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(mag.counters().reclaim_misses, 1);
    }

    #[test]
    fn shared_buffer_waits_in_limbo_and_is_recycled_once_released() {
        let pool = SharedPool::new(32);
        let mut mag = pool.magazine(2);
        let frame = mag.take(64).freeze();
        let peer = frame.clone();
        mag.reclaim(frame);
        assert_eq!(pool.outstanding(), 0, "custody is back at once");
        assert_eq!((mag.parked(), mag.cached()), (1, 0));
        assert_eq!(mag.counters().reclaim_misses, 1);
        // Still shared: the next take cannot have it.
        let other = mag.take(64);
        assert_eq!((mag.counters().allocs, mag.parked()), (2, 1));
        drop(peer);
        // Released: the take after that is a hit on the very buffer.
        let again = mag.take(64);
        assert_eq!((mag.counters().allocs, mag.counters().hits), (2, 1));
        assert_eq!(mag.parked(), 0);
        mag.reclaim(other.freeze());
        mag.reclaim(again.freeze());
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn limbo_is_bounded_by_the_magazine_size() {
        let pool = SharedPool::new(32);
        let mut mag = pool.magazine(2);
        let held: Vec<Bytes> = (0..5)
            .map(|_| {
                let frame = mag.take(64).freeze();
                mag.reclaim(frame.clone());
                frame
            })
            .collect();
        assert_eq!(mag.parked(), 2, "the oldest three were let go for good");
        assert_eq!(pool.outstanding(), 0);
        drop(held);
        let _ = mag.take(64);
        assert_eq!(mag.counters().hits, 1);
    }

    #[test]
    fn magazine_overflow_flushes_to_shared_and_drop_returns_cache() {
        let pool = SharedPool::new(32);
        {
            let mut mag = pool.magazine(2);
            let bufs: Vec<_> = (0..6).map(|_| mag.take(32)).collect();
            for b in bufs {
                mag.reclaim(b.freeze());
            }
            // cap 2 exceeded -> at least one batch flush crossed the lock.
            assert!(mag.counters().magazine_flushes >= 1);
            assert!(mag.cached() <= 2 + 1, "cache stays near its bound");
        }
        // Magazine dropped: everything is back on the shared list.
        assert_eq!(pool.outstanding(), 0);
        assert!(pool.free_buffers() >= 1);
    }

    #[test]
    fn magazines_refill_from_shared_free_list() {
        let pool = SharedPool::new(32);
        // Populate the shared list through one magazine...
        {
            let mut feeder = pool.magazine(8);
            let bufs: Vec<_> = (0..6).map(|_| feeder.take(128)).collect();
            for b in bufs {
                feeder.reclaim(b.freeze());
            }
        }
        // ...and serve another from it without fresh allocations.
        let mut mag = pool.magazine(8);
        let b = mag.take(64);
        let c = mag.counters();
        assert_eq!(c.allocs, 6, "refill hit, no new allocation");
        assert!(c.magazine_refills >= 1);
        assert!(b.capacity() >= 64);
        mag.reclaim(b.freeze());
    }

    #[test]
    fn magazines_concurrent_ledger_exact() {
        let pool = SharedPool::new(64);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mut mag = pool.magazine(8);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let b = mag.take(64 + (i % 7) * 16);
                    mag.reclaim(b.freeze());
                }
            }));
        }
        for h in handles {
            h.join().expect("worker ok");
        }
        assert_eq!(pool.outstanding(), 0, "ledger exact under contention");
        let c = pool.counters();
        assert_eq!(c.hits + c.allocs, 2000);
        assert_eq!(c.reclaims + c.reclaim_misses, 2000);
    }
}
