//! Parallel per-rail progress pipeline (the sharded-queue engine).
//!
//! The single-threaded runtimes drive the engine through one big
//! `Mutex<Engine>` held across transport I/O, so two rails can never
//! make progress simultaneously — the multi-rail aggregated-bandwidth
//! claim ends up bottlenecked by lock hold time rather than the wire.
//! This module decomposes that lock into a sharded, mostly lock-free
//! pipeline:
//!
//! ```text
//! app threads ── MPSC submission queue ──►┐
//!                                         │  scheduler thread
//! TX worker r ──┐                         ▼  (short critical section)
//! RX worker r ──┴─ per-rail completion ─► drain batches → progress →
//!                  queues (MPSC)          strategy decisions
//!                                         │
//!                      per-rail SPSC      ▼
//! TX worker r ◄─────── outboxes ◄──────── publish TxDecisions
//!  (slow transport write OUTSIDE any shared lock)
//! ```
//!
//! * [`MpscQueue`] — submissions and completions: many producers, one
//!   consumer (the scheduler), a `Mutex<VecDeque>` whose critical
//!   section is a push or a batch drain, never I/O.
//! * [`spsc`] — a bounded lock-free ring with unique producer/consumer
//!   handles; the per-rail outbox the scheduler publishes into and the
//!   rail's TX worker pops from.
//! * [`ParallelHub`] — ties it together: id pre-allocation for the
//!   submission queue, the batched scheduler pass (one amortized
//!   critical section running completions, timers, health, calibration
//!   feeding and strategy decisions), and per-outbox condvar wakeups so
//!   each rail's TX worker sleeps on *its own* signal instead of a
//!   single global condvar.
//!
//! The hub is transport-agnostic the same way [`super::Engine`] is:
//! `transport-tcp` workers write sockets, `transport-mem` workers sleep
//! out the shaped wire time — both outside the engine lock. Nothing in
//! this module runs unless a transport is built with
//! [`crate::Runtime::Threads`]; the serial runtime never constructs a
//! hub.

use std::cell::UnsafeCell;
use std::collections::{HashMap, VecDeque};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nmad_model::RailId;
use nmad_wire::{ConnId, PacketFrame};
use parking_lot::{Condvar, Mutex};

use crate::config::OverloadConfig;
use crate::driver::{TxDecision, TxToken};
use crate::endpoint::FabricStatus;
use crate::error::SubmitError;
use crate::obs::{Event, EventKind};
use crate::request::{RecvId, SendId};
use crate::stats::OverloadStats;

use super::Engine;

/// Outbox capacity per rail. The engine issues at most one in-flight
/// injection per rail, so depth rarely exceeds 1 today; the headroom is
/// for future per-rail pipelining and costs a few hundred bytes.
pub const OUTBOX_CAPACITY: usize = 8;

/// Upper bound on a scheduler idle wait: keeps shutdown responsive even
/// if a wakeup is lost outside the signal lock.
pub const MAX_IDLE_WAIT: Duration = Duration::from_millis(2);
/// Lower bound on a scheduler idle wait (don't busy-spin on imminent
/// deadlines).
pub const MIN_IDLE_WAIT: Duration = Duration::from_micros(20);
/// How long the shutdown drain keeps trying to flush already-queued
/// transmit work (e.g. a retransmission armed before shutdown whose
/// outbox is full because the worker died first) before giving up. The
/// drain exits as soon as the work flushes; the grace only bounds the
/// pathological case.
pub const SHUTDOWN_DRAIN_GRACE: Duration = Duration::from_millis(500);

// ---------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------

/// Pad to a cache line so the producer's tail and the consumer's head
/// never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct SpscInner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    /// Next slot to pop (owned by the consumer, read by the producer).
    head: CachePadded<AtomicUsize>,
    /// Next slot to push (owned by the producer, read by the consumer).
    tail: CachePadded<AtomicUsize>,
}

// Safety: slots are handed off producer→consumer through the
// release/acquire pair on `tail` (and back through `head`); a slot is
// only ever touched by the side that owns it at that instant.
unsafe impl<T: Send> Send for SpscInner<T> {}
unsafe impl<T: Send> Sync for SpscInner<T> {}

impl<T> Drop for SpscInner<T> {
    fn drop(&mut self) {
        // Single-threaded by now (last Arc owner): drop whatever the
        // consumer never popped.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        let mut i = head;
        while i != tail {
            unsafe { (*self.buf[i % self.cap].get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// Unique producer handle of an [`spsc`] ring.
pub struct SpscProducer<T> {
    inner: Arc<SpscInner<T>>,
}

/// Unique consumer handle of an [`spsc`] ring.
pub struct SpscConsumer<T> {
    inner: Arc<SpscInner<T>>,
}

/// Build a bounded lock-free single-producer/single-consumer ring.
/// Uniqueness is enforced by the type system: the handles are not
/// `Clone`, and push/pop take `&mut self`.
pub fn spsc<T: Send>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    assert!(capacity > 0, "spsc ring needs capacity");
    let buf = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(SpscInner {
        buf,
        cap: capacity,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        SpscProducer {
            inner: inner.clone(),
        },
        SpscConsumer { inner },
    )
}

impl<T: Send> SpscProducer<T> {
    /// Push a value; returns it back when the ring is full.
    pub fn push(&mut self, v: T) -> Result<(), T> {
        let tail = self.inner.tail.0.load(Ordering::Relaxed);
        let head = self.inner.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.inner.cap {
            return Err(v);
        }
        unsafe { (*self.inner.buf[tail % self.inner.cap].get()).write(v) };
        self.inner
            .tail
            .0
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Entries currently queued (racy by nature; exact from the
    /// producer's side).
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.0.load(Ordering::Relaxed);
        let head = self.inner.head.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when a push would currently succeed.
    pub fn has_space(&self) -> bool {
        self.len() < self.inner.cap
    }
}

impl<T: Send> SpscConsumer<T> {
    /// Pop the oldest value, if any.
    pub fn pop(&mut self) -> Option<T> {
        let head = self.inner.head.0.load(Ordering::Relaxed);
        let tail = self.inner.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let v = unsafe { (*self.inner.buf[head % self.inner.cap].get()).assume_init_read() };
        self.inner
            .head
            .0
            .store(head.wrapping_add(1), Ordering::Release);
        Some(v)
    }

    /// Entries currently queued (exact from the consumer's side).
    pub fn len(&self) -> usize {
        let head = self.inner.head.0.load(Ordering::Relaxed);
        let tail = self.inner.tail.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// MPSC queue
// ---------------------------------------------------------------------

/// Many-producer/single-consumer queue for submissions and completions.
///
/// "Mostly lock-free" the way the pipeline needs it: the mutex guards a
/// push or a batch drain — a few pointer moves — never transport I/O or
/// strategy work, so producers contend for nanoseconds, not for the
/// duration of a socket write.
pub struct MpscQueue<T> {
    q: Mutex<VecDeque<T>>,
    depth: AtomicUsize,
}

impl<T> Default for MpscQueue<T> {
    fn default() -> Self {
        MpscQueue {
            q: Mutex::new(VecDeque::new()),
            depth: AtomicUsize::new(0),
        }
    }
}

impl<T> MpscQueue<T> {
    /// Append one entry; returns the queue depth after the push.
    pub fn push(&self, v: T) -> usize {
        let mut q = self.q.lock();
        q.push_back(v);
        let d = q.len();
        self.depth.store(d, Ordering::Release);
        d
    }

    /// Move every queued entry into `out`, preserving FIFO order.
    /// Returns how many were drained.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let mut q = self.q.lock();
        let n = q.len();
        out.extend(q.drain(..));
        self.depth.store(0, Ordering::Release);
        n
    }

    /// Entries currently queued (lock-free read of the depth gauge).
    pub fn len(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// Wakeup signal
// ---------------------------------------------------------------------

/// Edge-triggered wakeup: a boolean under a mutex plus a condvar. Kicks
/// that land while the waiter is busy are remembered (the flag stays
/// set), so no wakeup is ever lost to the check-then-wait race — and
/// cost no `futex` call: the condvar is notified only when someone is
/// parked on it, which the same mutex says.
#[derive(Default)]
pub struct WorkSignal {
    state: Mutex<SignalState>,
    cv: Condvar,
}

#[derive(Default)]
struct SignalState {
    pending: bool,
    /// Threads inside [`WorkSignal::wait`]'s condvar wait.
    parked: usize,
}

impl WorkSignal {
    /// Signal the waiter: sets the flag and, if it is parked, wakes it.
    pub fn kick(&self) {
        let mut st = self.state.lock();
        st.pending = true;
        let parked = st.parked > 0;
        drop(st);
        if parked {
            self.cv.notify_one();
        }
    }

    /// Wait until kicked or `timeout` elapses; consumes the pending kick.
    /// Returns true when a kick arrived (before or during the wait).
    pub fn wait(&self, timeout: Duration) -> bool {
        let mut st = self.state.lock();
        if !st.pending {
            st.parked += 1;
            self.cv.wait_for(&mut st, timeout);
            st.parked -= 1;
        }
        std::mem::take(&mut st.pending)
    }
}

// ---------------------------------------------------------------------
// Queue payloads
// ---------------------------------------------------------------------

/// An application-side operation queued for the scheduler. The id is
/// pre-allocated from an atomic counter *before* the push: drain order
/// across producer threads need not match allocation order, so the id
/// must travel with the op (see [`Engine::submit_send_with_id`]).
pub enum AppOp {
    /// `submit_send` payload.
    Send {
        /// Logical channel.
        conn: ConnId,
        /// Message segments.
        segments: Vec<Bytes>,
        /// Pre-allocated send id.
        id: SendId,
    },
    /// `post_recv` payload.
    Recv {
        /// Logical channel.
        conn: ConnId,
        /// Pre-allocated recv id.
        id: RecvId,
    },
}

/// A wire-side event queued by a TX or RX worker for the scheduler's
/// next batched drain.
pub enum Completion {
    /// A TX worker finished injecting the frame for `token`.
    TxDone {
        /// Rail the injection ran on.
        rail: usize,
        /// Token from the published [`TxDecision`].
        token: TxToken,
    },
    /// An RX worker pulled a complete frame off the wire.
    RxFrame {
        /// Arrival rail.
        rail: usize,
        /// The received frame (refcounted; not flattened).
        frame: PacketFrame,
    },
}

// ---------------------------------------------------------------------
// Outbox: SPSC ring + per-rail wakeup
// ---------------------------------------------------------------------

/// Scheduler-side handle of one rail's outbox: pushes wake that rail's
/// TX worker through its own condvar — not a global one.
pub struct OutboxSender {
    ring: SpscProducer<TxDecision>,
    signal: Arc<WorkSignal>,
}

/// TX-worker-side handle of one rail's outbox.
pub struct OutboxReceiver {
    ring: SpscConsumer<TxDecision>,
    signal: Arc<WorkSignal>,
}

/// Build one rail's outbox pair.
pub fn outbox(capacity: usize) -> (OutboxSender, OutboxReceiver) {
    let (p, c) = spsc(capacity);
    let signal = Arc::new(WorkSignal::default());
    (
        OutboxSender {
            ring: p,
            signal: signal.clone(),
        },
        OutboxReceiver { ring: c, signal },
    )
}

impl OutboxSender {
    /// Publish a decision and wake the rail's TX worker. Returns the
    /// decision back when the ring is full so the scheduler can requeue
    /// it without a clone — the large `Err` variant is the point.
    #[allow(clippy::result_large_err)]
    pub fn push(&mut self, d: TxDecision) -> Result<(), TxDecision> {
        self.ring.push(d)?;
        self.signal.kick();
        Ok(())
    }

    /// Frames currently queued for the worker.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// True when a push would currently succeed.
    pub fn has_space(&self) -> bool {
        self.ring.has_space()
    }
}

impl OutboxReceiver {
    /// Pop the next published decision without blocking.
    pub fn pop(&mut self) -> Option<TxDecision> {
        self.ring.pop()
    }

    /// Pop, sleeping on this rail's own condvar up to `timeout` when the
    /// outbox is empty.
    pub fn pop_wait(&mut self, timeout: Duration) -> Option<TxDecision> {
        if let Some(d) = self.ring.pop() {
            return Some(d);
        }
        self.signal.wait(timeout);
        self.ring.pop()
    }

    /// Wake the worker sleeping on this outbox (shutdown path).
    pub fn kick(&self) {
        self.signal.kick();
    }
}

// ---------------------------------------------------------------------
// The hub
// ---------------------------------------------------------------------

/// Result of one [`ParallelHub::scheduler_pass`].
#[derive(Debug, Default)]
pub struct SchedPass {
    /// App ops + completions drained this pass.
    pub drained: usize,
    /// Decisions published into outboxes this pass.
    pub published: usize,
    /// True when the pass did anything (drained, published, or timer
    /// work fired).
    pub progressed: bool,
    /// Engine's next timer deadline, captured inside the lock so the
    /// idle wait can be sized without re-locking.
    pub next_deadline_ns: Option<u64>,
    /// True when the engine still holds queued transmit work (control or
    /// backlog) after the refill — captured inside the lock so the
    /// shutdown drain knows whether anything is left to flush.
    pub tx_work_pending: bool,
}

/// Reusable scratch for the scheduler loop: drained ops and completions
/// land here so steady-state passes allocate nothing.
#[derive(Default)]
pub struct SchedScratch {
    ops: Vec<AppOp>,
    completions: Vec<Completion>,
    /// Overload counters as of the previous pass, for delta-based
    /// shed/backpressure obs events.
    last_overload: OverloadStats,
}

/// Lock-free syscall amortization tally: the transport's TX workers add
/// (vectored-write calls, frames moved) pairs, RX workers add (read
/// calls, frames carved). Lives on the hub because the workers must not
/// take the engine lock on the hot path; the scheduler mirrors a
/// snapshot into [`crate::stats::SyscallStats`] each pass.
#[derive(Debug, Default)]
pub struct SyscallCounters {
    tx_calls: AtomicU64,
    tx_frames: AtomicU64,
    rx_calls: AtomicU64,
    rx_frames: AtomicU64,
}

impl SyscallCounters {
    /// Record one batch of TX work: `calls` kernel crossings moved
    /// `frames` frames.
    pub fn add_tx(&self, calls: u64, frames: u64) {
        self.tx_calls.fetch_add(calls, Ordering::Relaxed);
        self.tx_frames.fetch_add(frames, Ordering::Relaxed);
    }

    /// Record one batch of RX work: `calls` reads yielded `frames`
    /// complete frames.
    pub fn add_rx(&self, calls: u64, frames: u64) {
        self.rx_calls.fetch_add(calls, Ordering::Relaxed);
        self.rx_frames.fetch_add(frames, Ordering::Relaxed);
    }

    /// Consistent-enough snapshot for stats mirroring.
    pub fn snapshot(&self) -> crate::stats::SyscallStats {
        crate::stats::SyscallStats {
            tx_calls: self.tx_calls.load(Ordering::Relaxed),
            tx_frames: self.tx_frames.load(Ordering::Relaxed),
            rx_calls: self.rx_calls.load(Ordering::Relaxed),
            rx_frames: self.rx_frames.load(Ordering::Relaxed),
        }
    }
}

/// Shared state of the parallel pipeline: the engine behind its (now
/// short-held) mutex, the submission queue, per-rail completion queues,
/// and the scheduler's wakeup signal. One hub per endpoint.
pub struct ParallelHub {
    engine: Mutex<Engine>,
    /// App-visible completion wakeups (`send_complete`/`try_recv`
    /// waiters); paired with `engine`.
    app_cv: Condvar,
    submissions: MpscQueue<AppOp>,
    completions: Vec<MpscQueue<Completion>>,
    sched: WorkSignal,
    shutdown: AtomicBool,
    next_send_id: AtomicU64,
    next_recv_id: AtomicU64,
    /// Error counters, fed by the scheduler and by the transport's
    /// workers, and the poison flag (see [`FabricStatus`]).
    pub status: FabricStatus,
    /// Per-worker flight-recorder shards deposited at worker exit,
    /// merged with the engine ring at export.
    shards: Mutex<Vec<crate::obs::Event>>,
    /// Overload limits, copied from the engine config at construction so
    /// the admission boundary never needs the engine lock.
    overload: OverloadConfig,
    /// Sends admitted but not yet locally completed, per tenant
    /// (connection). Only maintained when
    /// [`OverloadConfig::max_tenant_inflight`] is nonzero.
    tenant_inflight: Mutex<HashMap<ConnId, u64>>,
    /// Outstanding-pool-buffer gauge mirrored out of the engine by each
    /// scheduler pass, so the watermark check is a lock-free load.
    pool_outstanding: AtomicU64,
    /// Syscall amortization counters fed by the transport's TX/RX
    /// workers outside any lock; each scheduler pass snapshots them
    /// into [`crate::stats::SyscallStats`] via `Engine::note_syscalls`.
    pub syscalls: SyscallCounters,
    queue_rejections: AtomicU64,
    admission_rejections: AtomicU64,
    watermark_rejections: AtomicU64,
    shutdown_rejections: AtomicU64,
}

impl ParallelHub {
    /// Wrap an engine and build one outbox per rail. The senders go to
    /// the scheduler thread, the receivers to the per-rail TX workers.
    pub fn new(engine: Engine) -> (Arc<Self>, Vec<OutboxSender>, Vec<OutboxReceiver>) {
        let n = engine.rails().len();
        let overload = engine.config().overload;
        let hub = Arc::new(ParallelHub {
            engine: Mutex::new(engine),
            app_cv: Condvar::new(),
            submissions: MpscQueue::default(),
            completions: (0..n).map(|_| MpscQueue::default()).collect(),
            sched: WorkSignal::default(),
            shutdown: AtomicBool::new(false),
            next_send_id: AtomicU64::new(0),
            next_recv_id: AtomicU64::new(0),
            status: FabricStatus::default(),
            shards: Mutex::new(Vec::new()),
            overload,
            tenant_inflight: Mutex::new(HashMap::new()),
            pool_outstanding: AtomicU64::new(0),
            syscalls: SyscallCounters::default(),
            queue_rejections: AtomicU64::new(0),
            admission_rejections: AtomicU64::new(0),
            watermark_rejections: AtomicU64::new(0),
            shutdown_rejections: AtomicU64::new(0),
        });
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (s, r) = outbox(OUTBOX_CAPACITY);
            senders.push(s);
            receivers.push(r);
        }
        (hub, senders, receivers)
    }

    /// The engine mutex, for app-side waits and cold-path snapshots.
    /// Hot-path producers must go through [`ParallelHub::submit_send`] /
    /// [`ParallelHub::push_completion`] instead.
    pub fn engine(&self) -> &Mutex<Engine> {
        &self.engine
    }

    /// Condvar the scheduler notifies after passes that completed app
    /// work; pairs with [`ParallelHub::engine`].
    pub fn app_cv(&self) -> &Condvar {
        &self.app_cv
    }

    /// Queue a send without touching the engine lock. The id is handed
    /// out immediately; the op reaches the backlog on the scheduler's
    /// next pass.
    ///
    /// Errors only on shutdown — a submit after
    /// [`ParallelHub::begin_shutdown`] is refused explicitly instead of
    /// panicking or silently vanishing into a queue nobody will drain.
    /// Overload limits are NOT enforced here; callers that want
    /// backpressure use [`ParallelHub::try_submit_send`].
    pub fn submit_send(&self, conn: ConnId, segments: Vec<Bytes>) -> Result<SendId, SubmitError> {
        if self.is_shutdown() {
            self.shutdown_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Shutdown);
        }
        self.charge_tenant(conn);
        Ok(self.enqueue_send(conn, segments))
    }

    /// [`ParallelHub::submit_send`] with the full overload policy: the
    /// submission is refused with [`SubmitError::WouldBlock`] when the
    /// submission queue is at its configured depth, the buffer pool is
    /// above its watermark, or the tenant is over its admission quota
    /// (see [`OverloadConfig`]). Never blocks and never queues on
    /// rejection — the caller decides whether to retry, shed, or slow
    /// down.
    pub fn try_submit_send(
        &self,
        conn: ConnId,
        segments: Vec<Bytes>,
    ) -> Result<SendId, SubmitError> {
        if self.is_shutdown() {
            self.shutdown_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Shutdown);
        }
        let depth_cap = self.overload.max_submission_depth;
        if depth_cap != 0 && self.submissions.len() >= depth_cap {
            self.queue_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::WouldBlock);
        }
        let watermark = self.overload.pool_watermark;
        if watermark != 0 && self.pool_outstanding.load(Ordering::Relaxed) > watermark as u64 {
            self.watermark_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::WouldBlock);
        }
        let quota = self.overload.max_tenant_inflight;
        if quota != 0 {
            let mut tenants = self.tenant_inflight.lock();
            let inflight = tenants.entry(conn).or_insert(0);
            if *inflight >= quota as u64 {
                self.admission_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::WouldBlock);
            }
            *inflight += 1;
        }
        Ok(self.enqueue_send(conn, segments))
    }

    fn enqueue_send(&self, conn: ConnId, segments: Vec<Bytes>) -> SendId {
        let id = SendId(self.next_send_id.fetch_add(1, Ordering::Relaxed));
        self.submissions.push(AppOp::Send { conn, segments, id });
        self.sched.kick();
        id
    }

    /// Count an admitted send against its tenant without enforcing the
    /// quota (the legacy submit path still accounts, so the scheduler's
    /// completion credits balance).
    fn charge_tenant(&self, conn: ConnId) {
        if self.overload.max_tenant_inflight != 0 {
            *self.tenant_inflight.lock().entry(conn).or_insert(0) += 1;
        }
    }

    /// Queue a receive without touching the engine lock. Errors only on
    /// shutdown, like [`ParallelHub::submit_send`].
    pub fn post_recv(&self, conn: ConnId) -> Result<RecvId, SubmitError> {
        if self.is_shutdown() {
            self.shutdown_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Shutdown);
        }
        let id = RecvId(self.next_recv_id.fetch_add(1, Ordering::Relaxed));
        self.submissions.push(AppOp::Recv { conn, id });
        self.sched.kick();
        Ok(id)
    }

    /// Snapshot of the admission boundary's rejection counters.
    pub fn overload_stats(&self) -> OverloadStats {
        OverloadStats {
            queue_rejections: self.queue_rejections.load(Ordering::Relaxed),
            admission_rejections: self.admission_rejections.load(Ordering::Relaxed),
            watermark_rejections: self.watermark_rejections.load(Ordering::Relaxed),
            shutdown_rejections: self.shutdown_rejections.load(Ordering::Relaxed),
        }
    }

    /// Sends admitted and not yet locally completed for `conn` (0 when
    /// tenant tracking is disabled).
    pub fn tenant_inflight(&self, conn: ConnId) -> u64 {
        self.tenant_inflight.lock().get(&conn).copied().unwrap_or(0)
    }

    /// Push a wire-side completion from a worker and wake the scheduler.
    pub fn push_completion(&self, rail: usize, c: Completion) {
        self.completions[rail].push(c);
        self.sched.kick();
    }

    /// Wake the scheduler (e.g. after a manual retransmit).
    pub fn kick_sched(&self) {
        self.sched.kick();
    }

    /// Ask every thread of the pipeline to wind down.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.sched.kick();
    }

    /// True once [`ParallelHub::begin_shutdown`] ran.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Deposit a worker's flight-recorder shard at worker exit.
    pub fn deposit_shard(&self, events: Vec<crate::obs::Event>) {
        self.shards.lock().extend(events);
    }

    /// Engine ring + every deposited worker shard, merged by timestamp.
    pub fn merged_events(&self) -> Vec<crate::obs::Event> {
        let engine_events = self.engine.lock().recorder().events();
        let shards = self.shards.lock();
        crate::obs::merge_events(&[&engine_events, &shards])
    }

    /// One batched scheduler pass: drain app submissions, drain every
    /// rail's completion queue, run the engine's timer work, then refill
    /// the outboxes from strategy decisions. This is the only place the
    /// engine lock is taken on the parallel hot path, and it is held for
    /// exactly this amortized batch — the lock-hold histogram in
    /// `EngineStats` proves it.
    pub fn scheduler_pass(
        &self,
        now_ns: u64,
        outboxes: &mut [OutboxSender],
        scratch: &mut SchedScratch,
    ) -> SchedPass {
        let mut pass = SchedPass::default();
        scratch.ops.clear();
        scratch.completions.clear();
        self.submissions.drain_into(&mut scratch.ops);

        let t0 = Instant::now();
        let mut eng = self.engine.lock();
        for op in scratch.ops.drain(..) {
            pass.drained += 1;
            match op {
                AppOp::Send { conn, segments, id } => eng.submit_send_with_id(conn, segments, id),
                AppOp::Recv { conn, id } => eng.post_recv_with_id(conn, id),
            }
        }
        let mut completions_drained = 0u64;
        for q in &self.completions {
            q.drain_into(&mut scratch.completions);
        }
        for c in scratch.completions.drain(..) {
            pass.drained += 1;
            completions_drained += 1;
            match c {
                Completion::TxDone { rail, token } => {
                    // Tokens are issued by this hub's own engine; an
                    // unknown one can only mean worker/scheduler state
                    // diverged, which the tests would catch.
                    let completed = eng
                        .on_tx_done(RailId(rail), token)
                        .expect("token issued by this hub");
                    if self.overload.max_tenant_inflight != 0 && !completed.is_empty() {
                        let mut tenants = self.tenant_inflight.lock();
                        for (_, conn) in &completed {
                            if let Some(n) = tenants.get_mut(conn) {
                                *n = n.saturating_sub(1);
                            }
                        }
                    }
                }
                Completion::RxFrame { rail, frame } => {
                    if eng.on_frame(RailId(rail), &frame).is_err() {
                        self.status.rx_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if !self.is_shutdown() {
            // During shutdown drain we stop arming new timer work: an
            // unacked send with no live peer would otherwise re-queue a
            // retransmission every RTO and the drain would never settle.
            // Already-queued frames still flush below.
            let timer_out = eng.progress(now_ns);
            if !timer_out.retransmitted.is_empty() || timer_out.control_enqueued {
                pass.progressed = true;
            }
        }
        for (r, ob) in outboxes.iter_mut().enumerate() {
            while ob.has_space() {
                match eng.next_tx(RailId(r)) {
                    Ok(Some(d)) => {
                        pass.published += 1;
                        // Full is impossible: has_space() was checked and
                        // this thread is the only producer.
                        ob.push(d).expect("outbox has space");
                    }
                    Ok(None) => break,
                    Err(_) => {
                        self.status.io_errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            eng.note_outbox_depth(ob.len() as u64);
        }
        eng.note_sched_pass(t0.elapsed().as_nanos() as u64, completions_drained);
        pass.next_deadline_ns = eng.next_deadline_ns();
        pass.tx_work_pending = eng.has_tx_work();

        // Mirror the admission boundary into the engine-side stats and
        // flight recorder, and refresh the watermark input. Delta-based:
        // one obs event per pass per rejection kind, not per rejection.
        let overload = self.overload_stats();
        let last = scratch.last_overload;
        let shed_deltas = [
            (overload.queue_rejections - last.queue_rejections, 0u64),
            (
                overload.admission_rejections - last.admission_rejections,
                1u64,
            ),
            (
                overload.watermark_rejections - last.watermark_rejections,
                2u64,
            ),
        ];
        for (delta, aux) in shed_deltas {
            if delta > 0 {
                eng.recorder_mut()
                    .record(Event::new(now_ns, EventKind::Shed).size(delta).aux(aux));
            }
        }
        let shutdown_delta = overload.shutdown_rejections - last.shutdown_rejections;
        if shutdown_delta > 0 {
            eng.recorder_mut().record(
                Event::new(now_ns, EventKind::Backpressure)
                    .size(shutdown_delta)
                    .aux(1),
            );
        }
        eng.note_overload(overload);
        eng.note_syscalls(self.syscalls.snapshot());
        scratch.last_overload = overload;
        self.pool_outstanding
            .store(eng.stats().datapath.pool_outstanding, Ordering::Relaxed);
        // Fold this pass's events (including the Shed/Backpressure
        // deltas above) into the telemetry windows while the lock is
        // still held. `progress` already folded once, but during
        // shutdown drain it is skipped and this keeps the series alive.
        eng.observe_clock(now_ns);
        eng.fold_telemetry();
        drop(eng);

        if pass.drained > 0 || pass.published > 0 {
            pass.progressed = true;
            // Completions may have finished sends/receives app threads
            // are waiting on.
            self.app_cv.notify_all();
        }
        pass
    }

    /// The scheduler thread body: run passes, sleeping on the scheduler
    /// signal between them (bounded by the engine's next timer
    /// deadline). `epoch` anchors the engine's monotonic clock. Returns
    /// once shutdown is requested and the pipeline has quiesced — call
    /// it after the TX/RX workers have been joined so their final
    /// completions get drained.
    pub fn run_scheduler(&self, mut outboxes: Vec<OutboxSender>, epoch: Instant) {
        let mut scratch = SchedScratch::default();
        let mut shutdown_since: Option<Instant> = None;
        loop {
            let now_ns = epoch.elapsed().as_nanos() as u64;
            let pass = self.scheduler_pass(now_ns, &mut outboxes, &mut scratch);
            if self.is_shutdown() {
                let since = *shutdown_since.get_or_insert_with(Instant::now);
                let queues_empty =
                    self.submissions.is_empty() && self.completions.iter().all(MpscQueue::is_empty);
                // Drain: give pending TX work (queued retransmissions
                // included) a bounded grace window to flush through the
                // outboxes. Work that cannot flush — e.g. frames for a
                // rail whose worker already exited — does not hold the
                // scheduler hostage past the grace period.
                let drained = !pass.tx_work_pending || since.elapsed() >= SHUTDOWN_DRAIN_GRACE;
                if queues_empty && !pass.progressed && drained {
                    break;
                }
                if !pass.progressed {
                    self.sched.wait(Duration::from_millis(1));
                }
                continue;
            }
            if pass.progressed {
                continue;
            }
            let mut wait = MAX_IDLE_WAIT;
            if let Some(deadline_ns) = pass.next_deadline_ns {
                wait = wait.min(Duration::from_nanos(deadline_ns.saturating_sub(now_ns)));
            }
            self.sched.wait(wait.max(MIN_IDLE_WAIT));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::strategy::StrategyKind;
    use nmad_model::platform;
    use std::sync::atomic::AtomicU32;
    use std::thread;

    // -----------------------------------------------------------------
    // SPSC
    // -----------------------------------------------------------------

    #[test]
    fn spsc_fifo_and_capacity() {
        let (mut p, mut c) = spsc::<u32>(4);
        assert!(c.pop().is_none());
        for i in 0..4 {
            p.push(i).unwrap();
        }
        assert_eq!(p.push(99), Err(99), "full ring rejects");
        assert_eq!(p.len(), 4);
        for i in 0..4 {
            assert_eq!(c.pop(), Some(i));
        }
        assert!(c.pop().is_none());
        // Wrap around several times.
        for round in 0..10u32 {
            p.push(round).unwrap();
            assert_eq!(c.pop(), Some(round));
        }
    }

    #[test]
    fn spsc_drops_unpopped_values() {
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut p, mut c) = spsc::<D>(8);
        for _ in 0..5 {
            p.push(D).unwrap();
        }
        drop(c.pop()); // one popped and dropped
        drop(p);
        drop(c); // ring drops the remaining four
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    /// Cross-thread stress: every pushed value arrives exactly once, in
    /// order, across ring wrap-arounds — no lost or duplicated frames.
    #[test]
    fn spsc_cross_thread_no_loss_no_dup_fifo() {
        const N: u64 = 50_000;
        let (mut p, mut c) = spsc::<u64>(16);
        let producer = thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match p.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            // Single-core CI: yield so the consumer runs.
                            thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expect = 0u64;
        while expect < N {
            if let Some(v) = c.pop() {
                assert_eq!(v, expect, "FIFO order violated");
                expect += 1;
            } else {
                thread::yield_now();
            }
        }
        assert!(c.pop().is_none(), "no duplicated frames after the last");
        producer.join().unwrap();
    }

    // -----------------------------------------------------------------
    // MPSC
    // -----------------------------------------------------------------

    /// Multi-producer stress: per-producer FIFO holds and nothing is
    /// lost or duplicated across batch drains.
    #[test]
    fn mpsc_per_producer_fifo_no_loss() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 5_000;
        let q = Arc::new(MpscQueue::<(u64, u64)>::default());
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|pid| {
                let q = q.clone();
                thread::spawn(move || {
                    for i in 0..PER {
                        q.push((pid, i));
                    }
                })
            })
            .collect();
        let mut seen = vec![0u64; PRODUCERS as usize];
        let mut total = 0u64;
        let mut buf = Vec::new();
        while total < PRODUCERS * PER {
            buf.clear();
            if q.drain_into(&mut buf) == 0 {
                thread::yield_now();
            }
            for &(pid, i) in &buf {
                assert_eq!(
                    seen[pid as usize], i,
                    "producer {pid} out of order or lost an entry"
                );
                seen[pid as usize] += 1;
                total += 1;
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.is_empty());
        assert!(seen.iter().all(|&s| s == PER));
    }

    #[test]
    fn mpsc_depth_gauge_tracks() {
        let q = MpscQueue::<u8>::default();
        assert_eq!(q.push(1), 1);
        assert_eq!(q.push(2), 2);
        assert_eq!(q.len(), 2);
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.len(), 0);
    }

    // -----------------------------------------------------------------
    // WorkSignal / outbox wakeups
    // -----------------------------------------------------------------

    #[test]
    fn kick_before_wait_is_not_lost() {
        let s = WorkSignal::default();
        s.kick();
        // The kick predates the wait: wait must return immediately and
        // report it (the lost-wakeup race the old global condvar had).
        let t0 = Instant::now();
        assert!(s.wait(Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(1));
        // Consumed: a second wait times out.
        assert!(!s.wait(Duration::from_millis(1)));
    }

    /// A kick notifies the condvar only when someone is parked on it, so
    /// the parked waiter must still be woken: the kick is sent once the
    /// waiter is seen inside its wait, and ends it long before its timeout.
    #[test]
    fn kick_wakes_a_parked_waiter() {
        let s = Arc::new(WorkSignal::default());
        let waiter = {
            let s = s.clone();
            thread::spawn(move || s.wait(Duration::from_secs(30)))
        };
        while s.state.lock().parked == 0 {
            thread::yield_now();
        }
        let t0 = Instant::now();
        s.kick();
        assert!(waiter.join().unwrap(), "the parked wait saw the kick");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "woken, not timed out"
        );
        assert_eq!(s.state.lock().parked, 0);
    }

    #[test]
    fn outbox_push_wakes_the_waiting_worker() {
        let (mut tx, mut rx) = outbox(4);
        let worker = thread::spawn(move || rx.pop_wait(Duration::from_secs(10)));
        // Give the worker time to park on its condvar.
        thread::sleep(Duration::from_millis(20));
        let d = TxDecision {
            token: TxToken(7),
            frame: PacketFrame::empty(),
            mode: nmad_model::TxMode::Pio,
            copied_bytes: 0,
            control: false,
            small_eager: false,
        };
        let t0 = Instant::now();
        tx.push(d).unwrap();
        let got = worker.join().unwrap().expect("worker woken with frame");
        assert_eq!(got.token, TxToken(7));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "wakeup must be prompt, not a timeout expiry"
        );
    }

    // -----------------------------------------------------------------
    // Hub: end-to-end over the sharded pipeline (no transport)
    // -----------------------------------------------------------------

    type HubSide = (Arc<ParallelHub>, Vec<OutboxSender>, Vec<OutboxReceiver>);

    fn hub_pair() -> (HubSide, HubSide) {
        let mk = || {
            let cfg = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
            let mut eng = Engine::new(cfg, platform::paper_platform().rails, vec![]);
            eng.conn_open();
            ParallelHub::new(eng)
        };
        (mk(), mk())
    }

    /// Drive two hubs by hand: scheduler passes publish into outboxes,
    /// a fake "wire" moves frames to the peer's completion queues.
    #[test]
    fn hub_round_trip_through_queues() {
        let ((hub_a, mut ob_a, mut rx_a), (hub_b, mut ob_b, mut rx_b)) = hub_pair();
        let conn = 0;
        let send = hub_a
            .submit_send(conn, vec![Bytes::from(vec![0xAB; 100_000])])
            .unwrap();
        let recv = hub_b.post_recv(conn).unwrap();
        let mut scratch_a = SchedScratch::default();
        let mut scratch_b = SchedScratch::default();
        for step in 0..10_000 {
            let now = step as u64 * 1_000;
            hub_a.scheduler_pass(now, &mut ob_a, &mut scratch_a);
            hub_b.scheduler_pass(now, &mut ob_b, &mut scratch_b);
            let mut moved = false;
            for (rail, rx) in rx_a.iter_mut().enumerate() {
                while let Some(d) = rx.pop() {
                    moved = true;
                    hub_a.push_completion(
                        rail,
                        Completion::TxDone {
                            rail,
                            token: d.token,
                        },
                    );
                    hub_b.push_completion(
                        rail,
                        Completion::RxFrame {
                            rail,
                            frame: d.frame,
                        },
                    );
                }
            }
            for (rail, rx) in rx_b.iter_mut().enumerate() {
                while let Some(d) = rx.pop() {
                    moved = true;
                    hub_b.push_completion(
                        rail,
                        Completion::TxDone {
                            rail,
                            token: d.token,
                        },
                    );
                    hub_a.push_completion(
                        rail,
                        Completion::RxFrame {
                            rail,
                            frame: d.frame,
                        },
                    );
                }
            }
            let done = {
                let eng = hub_a.engine().lock();
                eng.send_complete(send)
            };
            if done && !moved {
                break;
            }
        }
        assert!(hub_a.engine().lock().send_complete(send));
        let msg = hub_b
            .engine()
            .lock()
            .try_recv(recv)
            .expect("message delivered through the sharded pipeline");
        assert_eq!(msg.segments[0].len(), 100_000);
        // The scheduler recorded its critical sections.
        let stats = hub_a.engine().lock().stats().clone();
        assert!(stats.obs.lock_hold_ns.count() > 0, "lock-hold histogram");
        assert!(
            stats.obs.completion_batch.count() > 0,
            "completion-batch histogram"
        );
        assert!(stats.obs.outbox_depth.count() > 0, "outbox-depth histogram");
    }

    /// Clean shutdown drains all queues: ops submitted right before
    /// shutdown still reach the engine before the scheduler exits.
    #[test]
    fn shutdown_drains_queues() {
        let cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
        let mut eng = Engine::new(cfg, platform::paper_platform().rails, vec![]);
        eng.conn_open();
        let (hub, senders, receivers) = ParallelHub::new(eng);
        let epoch = Instant::now();
        let sched = {
            let hub = hub.clone();
            thread::spawn(move || hub.run_scheduler(senders, epoch))
        };
        let ids: Vec<SendId> = (0..50)
            .map(|i| {
                hub.submit_send(0, vec![Bytes::from(vec![i as u8; 64])])
                    .unwrap()
            })
            .collect();
        hub.begin_shutdown();
        for r in &receivers {
            r.kick();
        }
        sched.join().unwrap();
        // Every submission made it into the engine (ids known), and the
        // submission queue is empty.
        let eng = hub.engine().lock();
        assert!(
            hub.submissions.is_empty(),
            "shutdown must drain submissions"
        );
        // Sends aren't complete (no wire), but they must exist: a
        // submitted-but-unknown id would return false from send_complete
        // AND not be retransmittable — check via the backlog instead.
        assert!(eng.has_tx_work(), "drained submissions reached the backlog");
        drop(eng);
        drop(ids);
        drop(receivers);
    }

    /// The ids handed out by the hub before the scheduler drains the
    /// queue stay stable: what the app got back is what the engine sees.
    #[test]
    fn preallocated_ids_survive_queue_reordering() {
        let cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
        let mut eng = Engine::new(cfg, platform::paper_platform().rails, vec![]);
        eng.conn_open();
        let (hub, mut senders, _receivers) = ParallelHub::new(eng);
        // Concurrent submitters racing for ids.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let hub = hub.clone();
                thread::spawn(move || {
                    (0..100)
                        .map(|i| {
                            hub.submit_send(0, vec![Bytes::from(vec![t as u8; 32 + i])])
                                .unwrap()
                        })
                        .collect::<Vec<SendId>>()
                })
            })
            .collect();
        let ids: Vec<SendId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let mut scratch = SchedScratch::default();
        hub.scheduler_pass(0, &mut senders, &mut scratch);
        // All 400 ids distinct and all known to the engine (not done,
        // but tracked — send_complete returns false, not a panic; the
        // real proof is that a later with_id submit would reject reuse).
        let mut sorted: Vec<u64> = ids.iter().map(|i| i.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 400, "ids must be unique across producers");
        let eng = hub.engine().lock();
        assert_eq!(eng.stats().obs.seg_size.count(), 400, "all sends landed");
    }

    // -----------------------------------------------------------------
    // Overload policy and shutdown semantics
    // -----------------------------------------------------------------

    #[test]
    fn submit_after_shutdown_errors() {
        let cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
        let mut eng = Engine::new(cfg, platform::paper_platform().rails, vec![]);
        eng.conn_open();
        let (hub, _senders, _receivers) = ParallelHub::new(eng);
        hub.begin_shutdown();
        assert_eq!(
            hub.submit_send(0, vec![Bytes::from_static(b"late")]),
            Err(SubmitError::Shutdown)
        );
        assert_eq!(
            hub.try_submit_send(0, vec![Bytes::from_static(b"late")]),
            Err(SubmitError::Shutdown)
        );
        assert_eq!(hub.post_recv(0), Err(SubmitError::Shutdown));
        assert_eq!(hub.overload_stats().shutdown_rejections, 3);
        assert!(
            hub.submissions.is_empty(),
            "rejected ops must not be queued"
        );
    }

    #[test]
    fn try_submit_would_block_on_depth() {
        let mut cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
        cfg.overload.max_submission_depth = 1;
        let mut eng = Engine::new(cfg, platform::paper_platform().rails, vec![]);
        eng.conn_open();
        let (hub, _senders, _receivers) = ParallelHub::new(eng);
        // No scheduler running, so the first admitted op sits in the
        // queue and the second hits the depth cap.
        hub.try_submit_send(0, vec![Bytes::from_static(b"first")])
            .unwrap();
        assert_eq!(
            hub.try_submit_send(0, vec![Bytes::from_static(b"second")]),
            Err(SubmitError::WouldBlock)
        );
        assert_eq!(hub.overload_stats().queue_rejections, 1);
        // The legacy path ignores the cap (backwards-compatible).
        hub.submit_send(0, vec![Bytes::from_static(b"third")])
            .unwrap();
    }

    /// Per-tenant admission: a tenant at its in-flight quota is refused,
    /// and completing its send returns the credit.
    #[test]
    fn tenant_admission_credits_on_completion() {
        let mut cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
        cfg.overload.max_tenant_inflight = 1;
        let mut eng = Engine::new(cfg, platform::paper_platform().rails, vec![]);
        eng.conn_open();
        eng.conn_open();
        let (hub, mut senders, mut receivers) = ParallelHub::new(eng);
        hub.try_submit_send(0, vec![Bytes::from_static(b"one")])
            .unwrap();
        assert_eq!(
            hub.try_submit_send(0, vec![Bytes::from_static(b"two")]),
            Err(SubmitError::WouldBlock),
            "tenant 0 is at quota"
        );
        assert_eq!(hub.overload_stats().admission_rejections, 1);
        // Another tenant is unaffected by tenant 0's quota.
        hub.try_submit_send(1, vec![Bytes::from_static(b"other")])
            .unwrap();
        assert_eq!(hub.tenant_inflight(0), 1);
        // Drive tenant 0's send to local completion by hand: publish,
        // then feed the TxDone back (unacked mode completes at tx_done).
        let mut scratch = SchedScratch::default();
        hub.scheduler_pass(0, &mut senders, &mut scratch);
        let mut done = 0;
        for (rail, rx) in receivers.iter_mut().enumerate() {
            while let Some(d) = rx.pop() {
                hub.push_completion(
                    rail,
                    Completion::TxDone {
                        rail,
                        token: d.token,
                    },
                );
                done += 1;
            }
        }
        assert!(done >= 1, "the eager send must have been published");
        hub.scheduler_pass(1_000, &mut senders, &mut scratch);
        assert_eq!(hub.tenant_inflight(0), 0, "completion returns the credit");
        hub.try_submit_send(0, vec![Bytes::from_static(b"three")])
            .unwrap();
    }

    /// Shutdown with an un-acked send in flight: queued retransmissions
    /// drain instead of hanging the scheduler, and the drain completes
    /// within the grace window even though the peer never acks.
    #[test]
    fn shutdown_drains_inflight_retransmissions() {
        let mut cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
        cfg.acked = true;
        cfg.health = crate::health::HealthConfig {
            initial_rto_ns: 5_000_000,
            min_rto_ns: 2_000_000,
            max_rto_ns: 50_000_000,
            ..Default::default()
        };
        let mut eng = Engine::new(cfg, platform::paper_platform().rails, vec![]);
        eng.conn_open();
        let (hub, senders, receivers) = ParallelHub::new(eng);
        let epoch = Instant::now();
        let sched = {
            let hub = hub.clone();
            thread::spawn(move || hub.run_scheduler(senders, epoch))
        };
        // Lossy TX workers: complete transmissions but drop every frame
        // on the floor, so acks never arrive and RTOs keep firing.
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let workers: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(rail, mut rx)| {
                let hub = hub.clone();
                let done = done.clone();
                thread::spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        if let Some(d) = rx.pop_wait(Duration::from_millis(2)) {
                            hub.push_completion(
                                rail,
                                Completion::TxDone {
                                    rail,
                                    token: d.token,
                                },
                            );
                        }
                    }
                })
            })
            .collect();
        hub.submit_send(0, vec![Bytes::from(vec![0xEE; 256])])
            .unwrap();
        // Wait until at least one retransmission has been queued.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if hub.engine().lock().stats().retransmits >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "retransmission never fired");
            thread::sleep(Duration::from_millis(1));
        }
        hub.begin_shutdown();
        // The scheduler must exit on its own: queued retransmissions
        // flush through the outboxes, no new ones are armed, and the
        // grace window bounds the wait.
        let join_deadline = Instant::now() + SHUTDOWN_DRAIN_GRACE + Duration::from_secs(10);
        while !sched.is_finished() {
            assert!(
                Instant::now() < join_deadline,
                "scheduler failed to drain and exit after shutdown"
            );
            thread::sleep(Duration::from_millis(1));
        }
        sched.join().unwrap();
        done.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
        assert!(hub.submissions.is_empty(), "submissions drained");
        let eng = hub.engine().lock();
        assert!(
            eng.stats().retransmits >= 1,
            "the scenario actually exercised retransmission"
        );
    }
}
