//! The one application-facing endpoint.
//!
//! An [`Endpoint`] is an engine behind a lock plus whatever moves its
//! frames; everything an application calls — `send`, `recv`, the
//! handles' waits, every stats and telemetry accessor — is defined here,
//! once, over the object-safe [`Fabric`] trait. A transport is only "how
//! bytes move on a rail": for the serial runtime it supplies [`Rails`]
//! and a [`Parker`] to [`Serial`], which is the [`Fabric`] and drives
//! progress on the callers' threads. The trait is the type erasure over
//! `Serial<MemRails>` and `Serial<TcpRails>`, not a second runtime.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use nmad_wire::reassembly::MessageAssembly;
use nmad_wire::ConnId;
use parking_lot::{Condvar, Mutex};

use crate::engine::Engine;
use crate::error::SubmitError;
use crate::health::{RailState, RailTelemetry};
use crate::obs::{Alert, Event, Window};
use crate::request::{RecvId, SendId};
use crate::stats::EngineStats;

mod serial;
mod signal;
pub use serial::{Clock, Parker, Pass, Rails, Serial, BACKSTOP_TICK, CALLER_LEASE, SPIN_BUDGET};
pub use signal::WorkSignal;

/// What every fabric counts beside its engine, and the poison flag its
/// waits honour.
#[derive(Default)]
pub struct FabricStatus {
    /// Packets rejected on receive (decode/CRC/reassembly errors).
    pub rx_errors: AtomicU64,
    /// Transport I/O errors, and engine invariants broken on the
    /// progress path ([`Fabric::fail`]).
    pub io_errors: AtomicU64,
    /// Frames the fabric's fault plan lost on this endpoint's tx side.
    pub tx_dropped: AtomicU64,
    failed: AtomicBool,
}

impl FabricStatus {
    /// True once [`Fabric::fail`] ran: waits that would block return
    /// `false`/`None` from now on.
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }
}

/// What a [`Fabric::wait`] completes on. Where callers drive progress
/// it decides whether the wait, once complete, holds the rails
/// ([`CALLER_LEASE`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitFor {
    /// Something the peer sent — a message, a delivery ack: the caller
    /// that read it is the one to read what follows, and holds the
    /// rails.
    Arrival,
    /// Local completion of a send. It never holds the rails: a sender's
    /// rendezvous grants and partial writes are its backstop thread's,
    /// which must stay on them.
    Local,
}

/// What an [`Endpoint`] needs of the runtime under it, whatever rails
/// that runs on: where the engine lives, how a submission reaches it and
/// how a caller waits for progress.
pub trait Fabric: std::any::Any + Send + Sync {
    /// The engine lock.
    fn engine(&self) -> &Mutex<Engine>;

    /// Condvar notified when app-visible completions may have landed;
    /// pairs with [`Fabric::engine`].
    fn cv(&self) -> &Condvar;

    /// Error counters and the poison flag.
    fn status(&self) -> &FabricStatus;

    /// Hand a send to the engine and get progress going.
    fn submit(&self, conn: ConnId, segments: Vec<Bytes>) -> SendId;

    /// [`Fabric::submit`] under the overload policy
    /// ([`Engine::try_submit_send`]).
    fn try_submit(&self, conn: ConnId, segments: Vec<Bytes>) -> Result<SendId, SubmitError>;

    /// Post a receive.
    fn post_recv(&self, conn: ConnId) -> RecvId;

    /// Get whoever drives progress to look at the engine again.
    fn kick(&self);

    /// Block until `done` holds (true), or `timeout` runs out or the
    /// fabric is poisoned (false). A zero timeout is one look (one
    /// progress pass where callers drive progress); `Duration::MAX` is
    /// none.
    fn wait(
        &self,
        kind: WaitFor,
        timeout: Duration,
        done: &mut dyn FnMut(&mut Engine) -> bool,
    ) -> bool;

    /// An engine invariant broke on the progress path: count it and
    /// poison the endpoint's waits instead of panicking in a caller or
    /// the backstop thread. Call it with the engine lock held, so that no waiter
    /// is between its check of the flag and its sleep.
    fn fail(&self) {
        let status = self.status();
        status.io_errors.fetch_add(1, Ordering::Relaxed);
        status.failed.store(true, Ordering::SeqCst);
        self.cv().notify_all();
    }

    /// Ask every thread of the runtime to wind down.
    fn begin_shutdown(&self);

    /// Runs once those threads are joined: release what they used.
    fn finish_shutdown(&self) {}
}

/// One endpoint of a connected pair, on any transport.
pub struct Endpoint {
    fabric: Arc<dyn Fabric>,
    /// Joined in order on drop.
    workers: Vec<JoinHandle<()>>,
    conns: Vec<ConnId>,
}

/// Handle to a send in flight.
pub struct SendHandle {
    fabric: Arc<dyn Fabric>,
    id: SendId,
}

/// Handle to a posted receive.
pub struct RecvHandle {
    fabric: Arc<dyn Fabric>,
    id: RecvId,
}

/// The one wait: until `done` yields, `timeout` runs out or the fabric
/// is poisoned ([`Fabric::wait`]).
fn wait_on<T>(
    fabric: &dyn Fabric,
    kind: WaitFor,
    timeout: Duration,
    mut done: impl FnMut(&mut Engine) -> Option<T>,
) -> Option<T> {
    let mut out = None;
    fabric.wait(kind, timeout, &mut |eng| {
        out = done(eng);
        out.is_some()
    });
    out
}

impl SendHandle {
    /// Block until the send completes locally, or `timeout` expires.
    /// Returns true on completion.
    pub fn wait(&self, timeout: Duration) -> bool {
        wait_on(&*self.fabric, WaitFor::Local, timeout, |eng| {
            eng.send_complete(self.id).then_some(())
        })
        .is_some()
    }

    /// Block until the *peer confirms delivery* (requires
    /// `EngineConfig::acked` on both endpoints), or `timeout` expires.
    pub fn wait_acked(&self, timeout: Duration) -> bool {
        wait_on(&*self.fabric, WaitFor::Arrival, timeout, |eng| {
            eng.send_acked(self.id).then_some(())
        })
        .is_some()
    }
}

impl RecvHandle {
    /// Block until the message arrives, or `timeout` expires.
    pub fn wait(&self, timeout: Duration) -> Option<MessageAssembly> {
        wait_on(&*self.fabric, WaitFor::Arrival, timeout, |eng| {
            eng.try_recv(self.id)
        })
    }
}

impl Endpoint {
    /// Assemble an endpoint from what a transport built: the fabric
    /// around its engine, the channels opened on that engine, and the
    /// runtime's threads in the order they are to be joined.
    pub fn new(fabric: Arc<dyn Fabric>, conns: Vec<ConnId>, workers: Vec<JoinHandle<()>>) -> Self {
        Endpoint {
            fabric,
            workers,
            conns,
        }
    }

    /// The fabric under this endpoint (engine lock included), for
    /// callers that need more than the accessors below.
    pub fn fabric(&self) -> &Arc<dyn Fabric> {
        &self.fabric
    }

    /// Logical channels opened at construction.
    pub fn conns(&self) -> &[ConnId] {
        &self.conns
    }

    /// Submit a non-blocking send. Where callers drive progress a lone
    /// message — after a quiet millisecond, or from a caller that has
    /// just been handed something the peer sent — is on the wire when
    /// this returns; a small one that follows another within a
    /// millisecond may stay in the backlog, for the strategy to
    /// aggregate, until the next wait on this endpoint, a frame's worth
    /// or the end of that millisecond (DESIGN.md §15 "The window").
    pub fn send(&self, conn: ConnId, segments: Vec<Bytes>) -> SendHandle {
        SendHandle {
            fabric: self.fabric.clone(),
            id: self.fabric.submit(conn, segments),
        }
    }

    /// Submit a send under the overload policy: refused with
    /// [`SubmitError::WouldBlock`] while the channel's sends in progress
    /// are at its quota (see [`crate::EngineConfig::max_tenant_inflight`];
    /// unset, never), and with [`SubmitError::Shutdown`] once the
    /// endpoint has shut down.
    pub fn try_send(&self, conn: ConnId, segments: Vec<Bytes>) -> Result<SendHandle, SubmitError> {
        Ok(SendHandle {
            fabric: self.fabric.clone(),
            id: self.fabric.try_submit(conn, segments)?,
        })
    }

    /// Post a non-blocking receive.
    pub fn recv(&self, conn: ConnId) -> RecvHandle {
        RecvHandle {
            fabric: self.fabric.clone(),
            id: self.fabric.post_recv(conn),
        }
    }

    /// Engine statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        self.fabric.engine().lock().stats().clone()
    }

    /// Buffer-pool ledger check: outstanding pool buffers not accounted
    /// for by any in-flight transmission. Non-zero means a leak.
    pub fn pool_leaks(&self) -> u64 {
        self.fabric.engine().lock().pool_leaks()
    }

    /// Packets rejected on receive (decode/CRC/reassembly errors).
    pub fn rx_errors(&self) -> u64 {
        self.fabric.status().rx_errors.load(Ordering::Relaxed)
    }

    /// Transport I/O errors, plus engine invariants broken on the
    /// progress path.
    pub fn io_errors(&self) -> u64 {
        self.fabric.status().io_errors.load(Ordering::Relaxed)
    }

    /// Frames the fabric's fault plan lost on this endpoint's tx side
    /// (mem and TCP alike; zero without a plan).
    pub fn tx_dropped(&self) -> u64 {
        self.fabric.status().tx_dropped.load(Ordering::Relaxed)
    }

    /// Current health state of every rail.
    pub fn rail_states(&self) -> Vec<RailState> {
        self.fabric.engine().lock().rail_states()
    }

    /// Timer and dwell-time telemetry of one rail (SRTT/RTTVAR/RTO and
    /// per-state dwell times, as of the engine clock).
    pub fn rail_telemetry(&self, rail: usize) -> RailTelemetry {
        self.fabric.engine().lock().rail_telemetry(rail)
    }

    /// Snapshot of the recorded flight events, oldest first. Empty unless
    /// the endpoint was built with a recorder (`EngineConfig::observe`
    /// other than `Off`).
    pub fn events(&self) -> Vec<Event> {
        self.fabric.engine().lock().recorder().events()
    }

    /// Run `read` on the engine with the telemetry windows the engine
    /// clock has passed closed.
    fn folded<T>(&self, read: impl FnOnce(&Engine) -> T) -> T {
        let mut eng = self.fabric.engine().lock();
        eng.fold_telemetry();
        read(&eng)
    }

    /// The Prometheus text exposition of the telemetry windows. `None`
    /// unless the endpoint was built with `Observe::Watch`.
    pub fn telemetry_prometheus(&self) -> Option<String> {
        self.folded(|eng| {
            eng.telemetry()
                .map(|agg| crate::obs::to_prometheus(agg, eng.stats()))
        })
    }

    /// The telemetry time series as JSONL, one closed window per line
    /// (oldest first, at most the ring's depth).
    pub fn telemetry_jsonl(&self) -> Option<String> {
        self.folded(|eng| eng.telemetry().map(crate::obs::windows_jsonl))
    }

    /// Snapshot of the most recently closed telemetry window.
    pub fn telemetry_latest(&self) -> Option<Window> {
        self.folded(|eng| eng.telemetry().and_then(|agg| agg.latest().cloned()))
    }

    /// Watchdog alerts fired so far (empty without a watchdog).
    pub fn alerts(&self) -> Vec<Alert> {
        self.folded(|eng| eng.watchdog().map_or(Vec::new(), |d| d.alerts().to_vec()))
    }

    /// Machine-readable watchdog verdict. `None` unless the endpoint
    /// was built with `Observe::Watch`.
    pub fn watchdog_verdict(&self) -> Option<String> {
        self.folded(|eng| eng.watchdog().map(|d| d.verdict_json()))
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.fabric.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.fabric.finish_shutdown();
    }
}
