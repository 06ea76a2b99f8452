//! The serial runtime's driver, once for every transport: callers drive
//! progress, the engine lock is never held while bytes move, and one
//! backstop thread per endpoint sleeps until something happens that no
//! caller is around for (DESIGN.md "Who drives progress").
//!
//! A transport supplies how bytes move on its rails ([`Rails`]), what
//! its backstop thread sleeps on ([`Parker`]) and the [`Clock`] every
//! time is read from; [`Serial::spawn`] makes an endpoint of them. Lock
//! order is rails → engine. What the backstop thread does when it wakes
//! is one function, `Serial::backstop_turn`: the thread only parks and
//! calls it, and tests call it with no thread at all.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use nmad_model::RailId;
use nmad_wire::{ConnId, PacketFrame};
use parking_lot::{Condvar, Mutex, MutexGuard};

use super::{Endpoint, Fabric, FabricStatus, WaitFor};
use crate::driver::TxToken;
use crate::engine::Engine;
use crate::error::SubmitError;
use crate::request::{RecvId, SendId};
use crate::stats::SyscallStats;

/// How long a waiting caller keeps making passes that move nothing
/// before it sleeps and leaves the rails to the backstop. A time, not a
/// count of passes: a pass that finds the rails taken takes no time at
/// all, and the holder may be off its CPU for as long as a scheduler
/// slice.
pub const SPIN_BUDGET: Duration = Duration::from_micros(1000);
/// How long after a completed `wait` for something the peer sent
/// ([`WaitFor::Arrival`]) the backstop thread still leaves the rails
/// alone. A peer that waits in a loop is back well within the lease and
/// the roles stay fixed — the caller reads and digests what it waits
/// for, the backstop stays asleep ([`Parker::park_leased`]); one that is
/// not delays what is the backstop's to do right after its wait — an
/// arrival, a due timer, the rest of a partial write — by this much at
/// most. Not longer than [`SPIN_BUDGET`], so that a caller about to
/// sleep never holds a lease.
///
/// Also how long a rail that took a small eager frame counts as busy
/// (`Pass::busy_until`): a caller that answers within a lease and one
/// that follows up within the window are the same notion of "at once".
pub const CALLER_LEASE: Duration = SPIN_BUDGET;
/// Rounds of post-and-flush one pass makes before the rails are read
/// again.
const TX_ROUNDS: usize = 8;
/// Backstop thread: longest sleep with no timer armed. Arrivals, kicks
/// and shutdown all end the sleep; one that ends at the tick makes no
/// pass unless one is due, so nothing waits for it.
pub const BACKSTOP_TICK: Duration = Duration::from_millis(100);

/// A span on the engine clock; one too long for it (`Duration::MAX`) is
/// forever.
fn ns(span: Duration) -> u64 {
    u64::try_from(span.as_nanos()).unwrap_or(u64::MAX)
}

/// The serial runtime's one time source: [`Serial`] reads the engine
/// clock through the one it is handed and nowhere else, once per pass
/// (DESIGN.md §15 "The clock").
pub trait Clock: Send + Sync + 'static {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
}

/// The production clock: the time since the epoch a transport took when
/// it built the endpoint (both ends of a mem pair share one).
impl Clock for std::time::Instant {
    fn now_ns(&self) -> u64 {
        self.elapsed().as_nanos() as u64
    }
}

/// What the backstop thread sleeps on.
pub trait Parker: Send + Sync + 'static {
    /// Sleep until the rails are ready for a pass (where the transport
    /// can tell), a kick or `timeout`. A kick that came before the
    /// sleep ends it at once.
    fn park(&self, timeout: Duration);

    /// [`Parker::park`] while a caller holds the rails under a lease
    /// (`timeout` ends no later than the lease does): rails that get
    /// ready meanwhile are that caller's to read, so a parker that can
    /// tell them from a kick sleeps through them — only a kick or
    /// `timeout` end the sleep — and keeps them for the next
    /// [`Parker::park`] to report.
    fn park_leased(&self, timeout: Duration) {
        self.park(timeout);
    }

    /// Whether rails got ready since the last call: the wake-up is then
    /// owed a pass. A parker that cannot tell answers yes, and every
    /// wake-up is a pass; one whose rails report each arrival with a
    /// pass owed ([`Serial::arrived`]) answers no.
    fn take_ready(&self) -> bool;

    /// End the current (or next) [`Parker::park`], leased or not.
    fn kick(&self);
}

/// Rails that tell their parker what to watch share it with the
/// [`Serial`] around them.
impl<P: Parker> Parker for Arc<P> {
    fn park(&self, timeout: Duration) {
        (**self).park(timeout);
    }

    fn park_leased(&self, timeout: Duration) {
        (**self).park_leased(timeout);
    }

    fn take_ready(&self) -> bool {
        (**self).take_ready()
    }

    fn kick(&self) {
        (**self).kick();
    }
}

/// How bytes move on the rails of one endpoint. Every method runs under
/// the rails lock, on whichever thread makes the pass; none is called
/// with the engine lock held except [`Rails::idle`] and
/// [`Rails::enqueue`], which only touch memory. A `now` is the pass's
/// reading of the endpoint's [`Clock`].
pub trait Rails: Send + 'static {
    /// What this endpoint's backstop thread sleeps on.
    type Parker: Parker;

    /// What the endpoint reads the time from.
    type Clock: Clock;

    /// Number of rails.
    fn count(&self) -> usize;

    /// One bounded read per rail: append the whole frames it brought to
    /// `frames`, tagged with their rail. True when a rail may hold more,
    /// that is when one more pass is owed.
    fn read(&mut self, frames: &mut Vec<(usize, PacketFrame)>, status: &FabricStatus) -> bool;

    /// True when `rail` can take a frame.
    fn idle(&self, rail: usize) -> bool;

    /// Take a frame for `rail` (idle by [`Rails::idle`]); it leaves in
    /// [`Rails::flush`].
    fn enqueue(&mut self, rail: usize, frame: PacketFrame, token: TxToken, now: u64);

    /// Move what was enqueued as far as it goes without blocking and
    /// push the token of every injection that finished. Returns the
    /// engine-clock time at which an unfinished one wants another pass
    /// with nothing else happening (a shaped wire; readiness the
    /// [`Parker`] reports needs none).
    fn flush(
        &mut self,
        done: &mut Vec<(usize, TxToken)>,
        status: &FabricStatus,
        now: u64,
    ) -> Option<u64>;

    /// Kernel crossings so far (all zero where bytes move in memory).
    fn syscalls(&self) -> SyscallStats;

    /// The endpoint is shut down: let go of sockets, channels and peers.
    fn close(&mut self);
}

/// The rails and what a pass collects with the engine lock free, to be
/// digested by its next engine critical section. Both vectors are
/// reused by every pass and empty between passes.
pub struct Pass<R> {
    /// The transport's rails.
    pub rails: R,
    frames: Vec<(usize, PacketFrame)>,
    done: Vec<(usize, TxToken)>,
    /// Engine-clock time until which the rails count as busy: a pass
    /// posted a small eager frame [`CALLER_LEASE`] before. A `write` that
    /// the kernel (or a channel) buffered has always "finished", so this
    /// is what opens the window a busy NIC opens in the paper — until
    /// then [`Serial::offer`] may leave small submissions in the backlog,
    /// and the published deadline is no later, so the backstop thread is
    /// up when the window ends.
    busy_until: u64,
}

/// Serial runtime state of one endpoint. Any thread may make a progress
/// pass; lock order is `io` → `engine`, and `engine` is never held while
/// the rails move bytes or a parker is kicked.
pub struct Serial<R: Rails> {
    engine: Mutex<Engine>,
    /// Notified after progress, only while `waiters` is nonzero.
    cv: Condvar,
    io: Mutex<Pass<R>>,
    parker: R::Parker,
    /// The engine clock (timeouts, probes, the window and the lease).
    clock: R::Clock,
    shutdown: AtomicBool,
    status: FabricStatus,
    /// Application threads making passes right now; while nonzero the
    /// backstop thread declines its wake-ups.
    pollers: AtomicUsize,
    /// Engine-clock time until which a caller that left keeps the rails
    /// ([`CALLER_LEASE`]); the backstop thread declines until then as if
    /// that caller still polled, and sleeps no longer.
    lease_ns: AtomicU64,
    /// One more full pass is owed: a wake-up was declined, frames
    /// arrived ([`Serial::arrived`]), a submitter found `io` taken, or a
    /// pass stopped with work in sight (a read that came back full,
    /// [`TX_ROUNDS`]). Set *before* reading
    /// `pollers`; the last poller to leave reads it *after* its
    /// decrement and kicks the backstop — Dekker order, all `SeqCst`, so
    /// the pass is never lost.
    skipped: AtomicBool,
    /// Threads asleep on `cv`.
    waiters: AtomicUsize,
    /// [`Engine::next_deadline_ns`] as of the last pass, or what
    /// [`Rails::flush`] asked for if that is earlier (`u64::MAX`: no
    /// timer armed). The backstop thread sizes every sleep by it, also
    /// the ones after a wake-up it declined.
    deadline_ns: AtomicU64,
}

impl<R: Rails> Serial<R> {
    /// The serial runtime around `engine`, whose clock is `clock`;
    /// [`Serial::spawn`] makes an endpoint of it.
    pub fn new(engine: Engine, rails: R, parker: R::Parker, clock: R::Clock) -> Arc<Self> {
        Arc::new(Serial {
            engine: Mutex::new(engine),
            cv: Condvar::new(),
            io: Mutex::new(Pass {
                rails,
                frames: Vec::new(),
                done: Vec::new(),
                busy_until: 0,
            }),
            parker,
            clock,
            shutdown: AtomicBool::new(false),
            status: FabricStatus::default(),
            pollers: AtomicUsize::new(0),
            lease_ns: AtomicU64::new(0),
            skipped: AtomicBool::new(false),
            waiters: AtomicUsize::new(0),
            deadline_ns: AtomicU64::new(u64::MAX),
        })
    }

    /// The endpoint on this runtime, its backstop thread (`name`)
    /// started.
    pub fn spawn(self: Arc<Self>, name: &str, conns: Vec<ConnId>) -> std::io::Result<Endpoint> {
        let backstop = self.clone();
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || backstop.run_backstop())?;
        Ok(Endpoint::new(self, conns, vec![thread]))
    }

    /// The rails lock: held by whoever makes a pass, for one pass at a
    /// time.
    pub fn io(&self) -> MutexGuard<'_, Pass<R>> {
        self.io.lock()
    }

    /// Wake the threads asleep on the completion condvar, if any (the
    /// count spares the futex syscall when there are none).
    fn notify(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.cv.notify_all();
        }
    }

    /// Count the calling thread as one that makes passes; pairs with
    /// [`Serial::leave`].
    pub fn enter(&self) {
        self.pollers.fetch_add(1, Ordering::SeqCst);
    }

    /// Stop being a poller; the last one out hands an owed pass to the
    /// backstop thread (see `skipped`): it kicks it, and the flag it
    /// leaves up makes that wake-up a pass — unless a lease is held:
    /// then the backstop is up when the lease ends and finds the flag.
    /// (The clock is read for the lease only when a pass is owed.)
    pub fn leave(&self) {
        if self.pollers.fetch_sub(1, Ordering::SeqCst) == 1
            && self.owed()
            && self.leased(self.clock.now_ns()).is_none()
        {
            self.parker.kick();
        }
    }

    /// True while a pass is owed (see `skipped`).
    pub fn owed(&self) -> bool {
        self.skipped.load(Ordering::SeqCst)
    }

    /// Answer for the owed pass, if there is one.
    pub fn take_owed(&self) -> bool {
        self.skipped.swap(false, Ordering::SeqCst)
    }

    /// Frames were put on this endpoint's rails by a thread that is not
    /// one of its own (the mem fabric: the sender's). That thread owes
    /// the endpoint a pass (`skipped`, raised first: Dekker order) and
    /// wakes the backstop only when nobody holds the rails: the last
    /// caller out finds the flag, and under a lease the backstop is up
    /// by itself when it runs out. No lock of this endpoint is taken. The
    /// lease is read after the frames are on the rails, never at a time
    /// from before: a lease that ended in between may have seen its
    /// backstop's pass find nothing.
    pub fn arrived(&self) {
        self.skipped.store(true, Ordering::SeqCst);
        if self.claimed_at(self.clock.now_ns()).is_none() {
            self.parker.kick();
        }
    }

    /// Run `submit` under the engine lock and, unless another thread is
    /// mid-pass, offer the idle rails in the same critical section and
    /// flush on this thread (the paper's "NIC idle → send now"). Nothing
    /// is read: a submitter does not pay for arrivals it is not waiting
    /// for. With `io` taken the submission just joins the backlog — the
    /// window the strategies optimise over — and one more pass is owed.
    ///
    /// So it does, if it `may_wait`, while the rails count as busy
    /// (`Pass::busy_until`), nobody holds a lease — a caller in
    /// conversation with the peer sends at once, as does whoever comes
    /// after a quiet window — and the engine has nothing that loses by
    /// waiting ([`Engine::tx_can_wait`]). No pass is owed for it: the
    /// published deadline is the window's end at the latest, and every
    /// pass anyone makes before asks the strategy over the whole backlog.
    fn offer<T>(&self, may_wait: bool, submit: impl FnOnce(&mut Engine) -> T) -> T {
        self.enter();
        let io = self.io.try_lock();
        let mut eng = self.engine.lock();
        let out = submit(&mut eng);
        match io {
            Some(mut io) => {
                let mut now = self.clock.now_ns();
                let waits = may_wait
                    && now < io.busy_until
                    && self.lease_ns.load(Ordering::SeqCst) <= now
                    && eng.tx_can_wait();
                if waits {
                    drop(eng);
                } else if self.pump(&mut io, eng, &mut now) {
                    self.notify();
                }
            }
            None => {
                drop(eng);
                self.skipped.store(true, Ordering::SeqCst);
            }
        }
        self.leave();
        out
    }

    /// Caller-driven progress for a handle's `wait`: check `done`, then
    /// make passes on this thread, one at least, until it holds, the
    /// wait's time is up or nothing has moved for [`SPIN_BUDGET`]. The
    /// checks use each pass's reading of the clock; only a look that
    /// found the rails taken, and made no pass, reads it here. A wait
    /// for something the peer sent that completes holds the rails for
    /// [`CALLER_LEASE`], whether or not it made a pass itself. `time` is
    /// the wait's: when it gives up, resolved from its first reading
    /// (`u64::MAX`: never), and its latest reading.
    fn drive(
        &self,
        kind: WaitFor,
        timeout: u64,
        time: &mut (Option<u64>, u64),
        done: &mut dyn FnMut(&mut Engine) -> bool,
    ) -> bool {
        self.enter();
        let holds = kind == WaitFor::Arrival;
        // Since when every pass has moved nothing, if the last one did.
        let mut quiet_since: Option<u64> = None;
        let mut found_done = true;
        let out = loop {
            if done(&mut self.engine.lock()) {
                break true;
            }
            if self.status.failed() || self.shutdown.load(Ordering::SeqCst) {
                break false;
            }
            found_done = false;
            let pass = self.try_pass();
            // (The caller looks at `done` once more, under the lock it
            // goes to sleep with.)
            if timeout == 0 {
                break false;
            }
            let (moved, now) = pass.unwrap_or_else(|| (false, self.clock.now_ns()));
            let until = *time.0.get_or_insert(now.saturating_add(timeout));
            time.1 = now;
            let spun =
                !moved && now.saturating_sub(*quiet_since.get_or_insert(now)) >= ns(SPIN_BUDGET);
            if now >= until || spun {
                break false;
            }
            if moved {
                quiet_since = None;
            } else {
                std::thread::yield_now();
            }
        };
        // To hold the rails is to promise to read them. A wait that found
        // its result made has read nothing: before it renews the lease it
        // makes the pass that was declined on the strength of the last
        // one, or a thread that only submits and reaps would keep what
        // arrives for another, asleep in its own wait, unread for good.
        if holds && found_done && self.owed() {
            self.try_pass();
        }
        let fresh = holds && out && {
            // Read afresh: the lease counts from the wait's end, and its
            // last pass may be a scheduler slice behind by then. It only
            // grows: of waiters that complete together, one that read
            // the clock first must not leave the earliest end.
            let now = self.clock.now_ns();
            self.lease_ns
                .fetch_max(now + ns(CALLER_LEASE), Ordering::SeqCst)
                <= now
        };
        self.leave();
        // The backstop may be asleep for a full tick. The first lease
        // after one ran out wakes it; from then on it is up whenever a
        // lease ends, which is what [`Serial::arrived`] and
        // [`Serial::leave`] count on.
        if fresh {
            self.parker.kick();
        }
        out
    }

    /// One full pass by a caller, unless the rails are taken (for one
    /// pass at a time: there is nothing to do but try again): whether
    /// anything moved, and the clock as the pass last read it.
    fn try_pass(&self) -> Option<(bool, u64)> {
        let mut io = self.io.try_lock()?;
        // This pass starts after whatever the flag stood for.
        self.skipped.store(false, Ordering::SeqCst);
        let calls = io.rails.syscalls();
        let (progressed, now) = self.step(&mut io);
        if progressed {
            self.notify();
        }
        // Bytes of a frame that is not whole yet count too: the rail is
        // live and this thread is the one draining it.
        let after = io.rails.syscalls();
        let read = after.rx_calls + after.tx_calls != calls.rx_calls + calls.tx_calls;
        Some((progressed || read, now))
    }

    /// One full pass by the thread holding the rails lock: one read per
    /// rail with the engine lock free, then [`Serial::pump`] from a fresh
    /// reading of the clock. Whether anything moved, and the clock as the
    /// pass last read it. A rail that may hold more leaves a pass owed.
    fn step(&self, io: &mut Pass<R>) -> (bool, u64) {
        if io.rails.read(&mut io.frames, &self.status) {
            self.skipped.store(true, Ordering::SeqCst);
        }
        let eng = self.engine.lock();
        let mut now = self.clock.now_ns();
        (self.pump(io, eng, &mut now), now)
    }

    /// The engine half of a pass. One short critical section digests
    /// what was collected unlocked (`io.frames`, `io.done`), runs the
    /// timers and posts the next frame on every idle rail; the rails are
    /// flushed with the engine lock released — that is when submitters
    /// fill the backlog — and finished injections loop back for their
    /// `on_tx_done`. Ends when none finished, or after [`TX_ROUNDS`]
    /// with a pass owed: a backlog that keeps every injection finishing
    /// must not keep the arrivals waiting. `now` is the engine clock as
    /// the caller just read it, and as the pass last read it on return.
    fn pump<'a>(
        &'a self,
        io: &mut Pass<R>,
        mut eng: MutexGuard<'a, Engine>,
        now: &mut u64,
    ) -> bool {
        let outcome = eng.progress(*now);
        let mut progressed =
            !io.frames.is_empty() || !outcome.retransmitted.is_empty() || outcome.control_enqueued;
        for round in 1.. {
            for (rail, frame) in io.frames.drain(..) {
                if eng.on_frame(RailId(rail), &frame).is_err() {
                    self.status.rx_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            for (rail, token) in io.done.drain(..) {
                if eng.on_tx_done(RailId(rail), token).is_err() {
                    self.fail();
                }
            }
            for rail in 0..io.rails.count() {
                // An idle query is cheap, not free, and an idle tick of
                // the backstop would make one per rail: skip it when
                // nothing is schedulable.
                if !io.rails.idle(rail) || !eng.has_tx_work() {
                    continue;
                }
                match eng.next_tx(RailId(rail)) {
                    Ok(Some(d)) => {
                        // More of its kind may follow at once: the rails
                        // are busy from here on.
                        if d.small_eager {
                            io.busy_until = *now + ns(CALLER_LEASE);
                        }
                        io.rails.enqueue(rail, d.frame, d.token, *now);
                    }
                    Ok(None) => {}
                    // A strategy bug poisons the endpoint's waits; it
                    // does not panic on whichever thread made the pass.
                    Err(_) => self.fail(),
                }
            }
            // Mirrored so `nmad cycles` and the bench gates see the
            // serial runtime too.
            eng.note_syscalls(io.rails.syscalls());
            let timer = eng.next_deadline_ns().unwrap_or(u64::MAX);
            drop(eng);

            let wire = io.rails.flush(&mut io.done, &self.status, *now);
            // (A window that is over is no deadline: whoever held
            // something back did so before it ended, and this pass has
            // asked the strategy since.)
            let window = if io.busy_until > *now {
                io.busy_until
            } else {
                u64::MAX
            };
            let deadline = timer.min(wire.unwrap_or(u64::MAX)).min(window);
            // The backstop thread may be asleep until the timer it last
            // saw here: an earlier one (an RTO armed just now, a window
            // that opened) wakes it.
            if deadline < self.deadline_ns.swap(deadline, Ordering::SeqCst) {
                self.parker.kick();
            }
            if io.done.is_empty() {
                break;
            }
            progressed = true;
            if round == TX_ROUNDS {
                self.skipped.store(true, Ordering::SeqCst);
                break;
            }
            eng = self.engine.lock();
            // The engine times an injection from `next_tx` to
            // `on_tx_done` by its clock (calibration samples, the
            // service-time estimate): one that finished in this flush
            // must not be digested at the time it was posted.
            *now = self.clock.now_ns();
            eng.observe_clock(*now);
        }
        progressed
    }

    /// What is left at `now` of the lease a caller holds, if any.
    fn leased(&self, now: u64) -> Option<Duration> {
        let until = self.lease_ns.load(Ordering::SeqCst);
        Some(Duration::from_nanos(until.checked_sub(now)?)).filter(|d| !d.is_zero())
    }

    /// After how long to ask again whether callers still have the rails
    /// — what is left of a lease, else a full tick while some are making
    /// passes (the last to leave says so) — or `None` when it is the
    /// backstop thread's turn.
    pub fn claimed(&self) -> Option<Duration> {
        self.claimed_at(self.clock.now_ns())
    }

    /// [`Serial::claimed`] at `now`.
    fn claimed_at(&self, now: u64) -> Option<Duration> {
        let polled = || (self.pollers.load(Ordering::SeqCst) > 0).then_some(BACKSTOP_TICK);
        self.leased(now).or_else(polled)
    }

    /// [`Serial::claimed`] for a wake-up that is then the callers': with
    /// `skipped` raised first, for the last of them to find, or the next
    /// wait that renews the lease (all gone before they could see the
    /// flag: ours after all).
    fn declined(&self, now: u64) -> Option<Duration> {
        self.claimed_at(now)?;
        self.skipped.store(true, Ordering::SeqCst);
        self.claimed_at(now)
    }

    /// The backstop thread: it parks as the last turn said, and takes
    /// the next turn.
    fn run_backstop(&self) {
        let mut sleep = Sleep::Park(BACKSTOP_TICK);
        loop {
            match sleep {
                Sleep::Park(timeout) => self.parker.park(timeout),
                Sleep::ParkLeased(timeout) => self.parker.park_leased(timeout),
                Sleep::Stop => return,
            }
            sleep = self.backstop_turn();
        }
    }

    /// One wake-up's work of the backstop thread, and how it sleeps
    /// next. A wake-up is a pass only when one is due — the rails
    /// reported ready, a pass is owed or the published deadline has
    /// passed — and then passes follow while one is owed; a kick that
    /// only announced an earlier deadline re-sizes the sleep. None is
    /// made while application threads are making passes themselves: the
    /// wake-up is theirs (see `skipped` for why that loses nothing),
    /// timers included, and under a lease the sleep is off the rails
    /// ([`Parker::park_leased`]). It reads the clock once, and twice
    /// more for each pass: the pass's own reading, and one after it to
    /// size the next sleep by.
    fn backstop_turn(&self) -> Sleep {
        if self.shutdown.load(Ordering::SeqCst) {
            return Sleep::Stop;
        }
        let mut now = self.clock.now_ns();
        let mut due = self.parker.take_ready() || self.deadline_ns.load(Ordering::SeqCst) <= now;
        let declined = loop {
            // (Declined, what was due is owed: `skipped` is raised.)
            let declined = self.declined(now);
            if declined.is_some() {
                break declined;
            }
            // (Both answered by the one pass.)
            if !(self.take_owed() | std::mem::take(&mut due)) {
                break None;
            }
            if self.step(&mut self.io.lock()).0 {
                self.notify();
            }
            // (After the pass's flush: the pass's own reading is as
            // old as the flush took.)
            now = self.clock.now_ns();
        };
        // Declined for a lease: until it ends the rails are its
        // holder's, and nothing they report is a reason to wake up.
        // Declined for callers mid-pass alone: one of them may clear
        // `skipped`, miss what arrives next and leave without a lease
        // (a wait that timed out), kicking nobody — so the rails still
        // wake this thread.
        let lease = declined.and_then(|_| self.leased(now));
        let deadline = self.deadline_ns.load(Ordering::SeqCst);
        let timeout = match (deadline.saturating_sub(now), lease.or(declined)) {
            // Due, and the callers' to fire on their next pass: no
            // reason to spin here until they have.
            (0, Some(_)) => Duration::from_millis(1),
            (until, held) => Duration::from_nanos(until).min(held.unwrap_or(BACKSTOP_TICK)),
        };
        match lease {
            Some(_) => Sleep::ParkLeased(timeout),
            None => Sleep::Park(timeout),
        }
    }
}

/// How the backstop thread sleeps after a turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sleep {
    /// Until the rails are ready, a kick or the timeout.
    Park(Duration),
    /// Until a kick or the timeout: a caller holds the rails.
    ParkLeased(Duration),
    /// The endpoint is shutting down.
    Stop,
}

impl<R: Rails> Fabric for Serial<R> {
    fn engine(&self) -> &Mutex<Engine> {
        &self.engine
    }

    fn cv(&self) -> &Condvar {
        &self.cv
    }

    fn status(&self) -> &FabricStatus {
        &self.status
    }

    fn submit(&self, conn: ConnId, segments: Vec<Bytes>) -> SendId {
        self.offer(true, |eng| eng.submit_send(conn, segments))
    }

    /// [`Fabric::submit`] through the engine's admission check, under
    /// the engine lock the submission takes anyway; an endpoint that has
    /// shut down admits nothing.
    fn try_submit(&self, conn: ConnId, segments: Vec<Bytes>) -> Result<SendId, SubmitError> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(self.engine.lock().refuse_shutdown());
        }
        self.offer(true, |eng| eng.try_submit_send(conn, segments))
    }

    fn post_recv(&self, conn: ConnId) -> RecvId {
        let mut eng = self.engine.lock();
        let id = eng.post_recv(conn);
        // Only a receive that released a parked rendezvous grant leaves
        // something to transmit (what a submitter left in the backlog
        // for the window is not this call's to send).
        let granted = !eng.tx_can_wait();
        drop(eng);
        if granted {
            self.kick();
        }
        id
    }

    fn kick(&self) {
        self.offer(false, |_| ());
    }

    /// The caller drives progress itself and sleeps on the completion
    /// condvar only between bouts of it, so a zero timeout is exactly
    /// one progress pass. The timeout counts from the first pass's
    /// reading of the clock: a wait whose first look succeeds reads none
    /// for it.
    fn wait(
        &self,
        kind: WaitFor,
        timeout: Duration,
        done: &mut dyn FnMut(&mut Engine) -> bool,
    ) -> bool {
        let mut time = (None, 0);
        loop {
            if self.drive(kind, ns(timeout), &mut time, done) {
                return true;
            }
            let mut eng = self.engine.lock();
            if done(&mut eng) {
                return true;
            }
            if self.status.failed() || self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            // (`Duration::MAX` is "no timeout" to a condvar.)
            let left = match time {
                (Some(u64::MAX), _) => Duration::MAX,
                (Some(until), now) if until > now => Duration::from_nanos(until - now),
                // A zero timeout, or the time is up.
                _ => return false,
            };
            // Registered under the engine lock, which the wait releases
            // atomically: a pass that completes us after this point sees
            // the count and notifies.
            self.waiters.fetch_add(1, Ordering::SeqCst);
            self.cv.wait_for(&mut eng, left);
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Wakes the backstop thread to be joined, and the callers asleep in
    /// a `wait`, which return `false`/`None`.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.parker.kick();
        // (Under the engine lock: no waiter is between its check of the
        // flag and its sleep.)
        let _eng = self.engine.lock();
        self.notify();
    }

    /// Close the rails now (a TCP peer sees EOF), not when the last
    /// handle's reference to the shared state goes — after one last
    /// round of posts: shutdown drains, and what a submitter left in the
    /// backlog for the window leaves here at the latest.
    fn finish_shutdown(&self) {
        let mut io = self.io.lock();
        let mut now = self.clock.now_ns();
        self.pump(&mut io, self.engine.lock(), &mut now);
        io.rails.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use nmad_model::platform;
    use nmad_wire::FrameBody;
    use std::collections::VecDeque;

    const T: Duration = Duration::from_secs(20);

    /// The test clock: it moves only when a test (or the scripted rails)
    /// steps it, and it counts the reads the runtime makes of it.
    #[derive(Default)]
    struct StepClock {
        ns: AtomicU64,
        reads: AtomicU64,
    }

    impl StepClock {
        /// Where the clock stands, read without being counted.
        fn peek(&self) -> u64 {
            self.ns.load(Ordering::SeqCst)
        }

        fn step(&self, by: Duration) {
            self.ns.fetch_add(ns(by), Ordering::SeqCst);
        }

        fn reads(&self) -> u64 {
            self.reads.load(Ordering::SeqCst)
        }
    }

    impl Clock for Arc<StepClock> {
        fn now_ns(&self) -> u64 {
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.peek()
        }
    }

    /// The parker of a backstop that no thread runs: nothing parks on
    /// it, it counts the kicks and keeps the last one for
    /// [`Fixture::backstop`] to find. The scripted rails report nothing
    /// of their own accord.
    #[derive(Default)]
    struct StepParker {
        kicks: AtomicU64,
        kicked: AtomicBool,
    }

    impl Parker for StepParker {
        fn park(&self, _: Duration) {
            unreachable!("no thread parks in these tests");
        }

        fn take_ready(&self) -> bool {
            false
        }

        fn kick(&self) {
            self.kicks.fetch_add(1, Ordering::SeqCst);
            self.kicked.store(true, Ordering::SeqCst);
        }
    }

    /// What the scripted rails did, and what they will find.
    #[derive(Default)]
    struct Script {
        /// Every frame a flush carried, tagged with its rail.
        sent: Mutex<Vec<(usize, PacketFrame)>>,
        /// What the next read brings.
        inbox: Mutex<VecDeque<(usize, PacketFrame)>>,
        flushes: AtomicUsize,
        /// Reads so far: one per pass, whoever made it.
        reads: AtomicUsize,
        /// How far each read steps the clock (0: reads take no time).
        stride: AtomicU64,
    }

    impl Script {
        fn sent(&self) -> usize {
            self.sent.lock().len()
        }

        fn flushes(&self) -> usize {
            self.flushes.load(Ordering::SeqCst)
        }

        fn reads(&self) -> usize {
            self.reads.load(Ordering::SeqCst)
        }

        /// Segments in the `i`th frame sent, if it is an aggregate.
        fn aggregated(&self, i: usize) -> Option<usize> {
            match self.sent.lock()[i].1.decode().expect("own frame").1 {
                FrameBody::Aggregate(entries) => Some(entries.len()),
                FrameBody::Packet(_) => None,
            }
        }

        /// The endpoint talks to itself: what it sent since the last
        /// call is what it reads next (both directions of a channel
        /// count their messages from zero).
        fn loop_back(&self, from: usize) -> usize {
            let sent = self.sent.lock();
            self.inbox.lock().extend(sent[from..].iter().cloned());
            sent.len()
        }
    }

    /// Rails that are not a transport: a frame is on the wire with the
    /// flush that follows its post, and nothing arrives but what the
    /// test put there.
    struct ScriptRails {
        script: Arc<Script>,
        clock: Arc<StepClock>,
        posted: Vec<Option<(PacketFrame, TxToken)>>,
    }

    impl Rails for ScriptRails {
        type Parker = StepParker;
        type Clock = Arc<StepClock>;

        fn count(&self) -> usize {
            self.posted.len()
        }

        fn read(&mut self, frames: &mut Vec<(usize, PacketFrame)>, _: &FabricStatus) -> bool {
            self.script.reads.fetch_add(1, Ordering::SeqCst);
            self.clock
                .ns
                .fetch_add(self.script.stride.load(Ordering::SeqCst), Ordering::SeqCst);
            frames.extend(self.script.inbox.lock().drain(..));
            false
        }

        fn idle(&self, rail: usize) -> bool {
            self.posted[rail].is_none()
        }

        fn enqueue(&mut self, rail: usize, frame: PacketFrame, token: TxToken, _: u64) {
            self.posted[rail] = Some((frame, token));
        }

        fn flush(
            &mut self,
            done: &mut Vec<(usize, TxToken)>,
            _: &FabricStatus,
            _: u64,
        ) -> Option<u64> {
            self.script.flushes.fetch_add(1, Ordering::SeqCst);
            for (rail, slot) in self.posted.iter_mut().enumerate() {
                if let Some((frame, token)) = slot.take() {
                    self.script.sent.lock().push((rail, frame));
                    done.push((rail, token));
                }
            }
            None
        }

        fn syscalls(&self) -> SyscallStats {
            SyscallStats::default()
        }

        fn close(&mut self) {}
    }

    /// An endpoint on the scripted rails whose backstop thread is not
    /// started: the test takes its turns ([`Fixture::backstop`]).
    struct Fixture {
        ep: Endpoint,
        serial: Arc<Serial<ScriptRails>>,
        script: Arc<Script>,
        clock: Arc<StepClock>,
        conn: ConnId,
        /// When the backstop's sleep times out on the clock (a kick ends
        /// a leased sleep and a plain one alike).
        asleep_until: AtomicU64,
        /// Turns taken and passes they made.
        turns: AtomicUsize,
        passes: AtomicUsize,
    }

    impl Fixture {
        fn new() -> Self {
            let rails = platform::paper_platform().rails;
            let posted = rails.iter().map(|_| None).collect();
            let cfg = EngineConfig {
                crc: true,
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(cfg, rails, vec![]);
            let conn = engine.conn_open();
            let script = Arc::new(Script::default());
            let clock = Arc::new(StepClock::default());
            let rails = ScriptRails {
                script: script.clone(),
                clock: clock.clone(),
                posted,
            };
            let serial = Serial::new(engine, rails, StepParker::default(), clock.clone());
            let ep = Endpoint::new(serial.clone(), vec![conn], vec![]);
            Fixture {
                ep,
                serial,
                script,
                clock,
                conn,
                // (Where `run_backstop` starts.)
                asleep_until: AtomicU64::new(ns(BACKSTOP_TICK)),
                turns: AtomicUsize::new(0),
                passes: AtomicUsize::new(0),
            }
        }

        /// Take the backstop's turns for as long as it would be awake:
        /// while a kick is pending or the clock has passed its sleep's
        /// timeout. The turns taken.
        fn backstop(&self) -> usize {
            let parker = &self.serial.parker;
            let mut turns = 0;
            loop {
                let kicked = parker.kicked.swap(false, Ordering::SeqCst);
                if !kicked && self.clock.peek() < self.asleep_until.load(Ordering::SeqCst) {
                    return turns;
                }
                assert!(turns < 100, "the backstop never went back to sleep");
                let reads = self.script.reads();
                let sleep = self.serial.backstop_turn();
                turns += 1;
                self.turns.fetch_add(1, Ordering::SeqCst);
                let passes = self.script.reads() - reads;
                self.passes.fetch_add(passes, Ordering::SeqCst);
                let (Sleep::Park(timeout) | Sleep::ParkLeased(timeout)) = sleep else {
                    return turns;
                };
                let until = self.clock.peek().saturating_add(ns(timeout));
                self.asleep_until.store(until, Ordering::SeqCst);
            }
        }

        /// Clock reads, parker kicks, backstop turns and backstop passes
        /// so far.
        fn traffic(&self) -> [u64; 4] {
            [
                self.clock.reads(),
                self.serial.parker.kicks.load(Ordering::SeqCst),
                self.turns.load(Ordering::SeqCst) as u64,
                self.passes.load(Ordering::SeqCst) as u64,
            ]
        }

        /// Submit one message of four 256 B segments.
        fn send_kib(&self) -> crate::endpoint::SendHandle {
            let seg = Bytes::from(vec![0x5a; 256]);
            self.ep.send(self.conn, vec![seg; 4])
        }

        /// Strategy queries and decisions so far.
        fn queries(&self) -> u64 {
            let st = self.ep.stats();
            let control: u64 = st.rails.iter().map(|r| r.control_packets).sum();
            st.idle_queries + st.total_packets() + control
        }

        fn busy_until(&self) -> u64 {
            self.serial.io().busy_until
        }
    }

    /// `after - before`, element by element.
    fn delta(after: [u64; 4], before: [u64; 4]) -> [u64; 4] {
        std::array::from_fn(|i| after[i] - before[i])
    }

    /// (i) A lone submission after a quiet window is on the wire when
    /// `send` returns; (ii) the ones that follow within the window stay
    /// in the backlog at no cost — the backstop, kicked because the
    /// window opened, makes no pass: none is due — and the one that makes
    /// a frame's worth sends them all as one aggregate. (The clock does
    /// not move: every step below is inside one window.)
    #[test]
    fn a_burst_waits_in_the_backlog_for_a_frames_worth() {
        let f = Fixture::new();
        f.send_kib();
        assert_eq!(f.script.sent(), 1, "the lone one left at once");
        assert_eq!(f.script.aggregated(0), Some(4));
        let until = f.busy_until();
        assert!(until > 0, "a small frame makes the rails busy");
        assert_eq!((f.backstop(), f.traffic()[3]), (1, 0), "a kick, no pass");

        let (flushes, queries) = (f.script.flushes(), f.queries());
        let held: Vec<_> = (0..15).map(|_| f.send_kib()).collect();
        f.backstop();
        let seen = (f.script.sent(), f.script.flushes(), f.queries());
        let last = f.send_kib();
        assert_eq!(seen, (1, flushes, queries), "held at no cost");
        assert_eq!(f.script.sent(), 2, "one frame for sixteen messages");
        assert_eq!(f.script.aggregated(1), Some(64));
        assert!(held.iter().all(|h| h.wait(T)) && last.wait(T));
        assert_eq!(f.script.sent(), 2);
    }

    /// (iii) What is held leaves in the first pass of its own send wait,
    /// and of a receive wait on the same endpoint — posting the receive
    /// is not a pass.
    #[test]
    fn a_held_submission_leaves_with_the_first_pass_of_any_wait() {
        let f = Fixture::new();
        f.send_kib();
        let held = f.send_kib();
        let still = f.script.sent();
        assert!(held.wait(T));
        let after_send_wait = f.script.sent();

        let held = f.send_kib();
        let r = f.ep.recv(f.conn);
        let posted = f.script.sent();
        assert!(r.wait(Duration::ZERO).is_none());
        assert_eq!((still, after_send_wait), (1, 2));
        assert_eq!(posted, 2, "a posted receive sends nothing");
        assert_eq!(f.script.sent(), 3);
        assert!(held.wait(Duration::ZERO));
    }

    /// (iv) With no further call the backstop sends what is held when
    /// the window ends: the published deadline is no later, and the
    /// backstop sleeps no longer.
    #[test]
    fn the_backstop_sends_what_is_held_when_the_window_ends() {
        let f = Fixture::new();
        f.send_kib();
        // Kicked because the window opened, the backstop makes no pass
        // and sleeps until the window ends.
        f.backstop();
        let held = f.send_kib();
        let sent = f.script.sent();
        let deadline = f.serial.deadline_ns.load(Ordering::SeqCst);
        assert_eq!(sent, 1, "held in the window");
        assert!(deadline <= f.busy_until(), "held past the deadline");
        let until = f.asleep_until.load(Ordering::SeqCst);
        assert_eq!(until, deadline, "asleep past the deadline");
        f.clock.step(CALLER_LEASE);
        assert_eq!(f.backstop(), 1);
        assert_eq!(f.script.sent(), 2, "stranded in the backlog");
        assert!(held.wait(T));
    }

    /// (v) Nothing waits under a lease — a caller in conversation with
    /// the peer — nor behind a control packet or a segment that is not
    /// small.
    #[test]
    fn a_lease_a_control_packet_or_a_medium_segment_send_at_once() {
        let f = Fixture::new();
        let r = f.ep.recv(f.conn);
        f.send_kib();
        f.script.loop_back(0);
        assert!(r.wait(T).is_some());
        assert!(f.serial.leased(f.clock.peek()).is_some());
        f.send_kib();
        let under_lease = f.script.sent();
        assert_eq!(under_lease, 2);

        let f = Fixture::new();
        f.send_kib();
        f.ep.fabric().engine().lock().send_sample(f.conn, 7, 8);
        f.send_kib();
        let behind_control = f.script.sent();
        let medium = Bytes::from(vec![1; 8 * 1024]);
        f.ep.send(f.conn, vec![Bytes::from_static(b"small"), medium]);
        let with_medium = f.script.sent();
        // The probe and the message, one on each rail or one after
        // the other; then the medium segment and its small sibling.
        assert_eq!(behind_control, 3);
        assert_eq!(with_medium, 5);
    }

    /// A wait's timeout counts on the endpoint's clock from its first
    /// pass: it does not give up before the clock has passed it, and
    /// does once it has. A zero timeout is one pass, and the clock is
    /// read for the pass alone; with the rails taken it is not read.
    #[test]
    fn a_wait_gives_up_when_the_clock_passes_its_timeout() {
        let f = Fixture::new();
        let r = f.ep.recv(f.conn);
        let (reads, flushes) = (f.clock.reads(), f.script.flushes());
        assert!(r.wait(Duration::ZERO).is_none());
        assert_eq!(f.script.flushes() - flushes, 1, "one pass");
        assert_eq!(f.clock.reads() - reads, 1, "read for the pass only");
        let io = f.serial.io();
        assert!(r.wait(Duration::ZERO).is_none());
        drop(io);
        assert_eq!(f.clock.reads() - reads, 1, "no pass, no read");

        // Each read takes 100 us of the clock, so the wait's own passes
        // move it: the first reads 100 us, and the wait gives up at the
        // pass whose reading is 500 us later, not at the one before.
        let stride = Duration::from_micros(100);
        f.script.stride.store(ns(stride), Ordering::SeqCst);
        for (timeout, passes) in [(stride * 5, 6), (stride * 5 + Duration::from_nanos(1), 7)] {
            let (start, reads) = (f.clock.peek(), f.script.reads());
            assert!(r.wait(timeout).is_none());
            assert_eq!(f.script.reads() - reads, passes, "{timeout:?}");
            assert_eq!(f.clock.peek() - start, ns(stride) * passes as u64);
        }
    }

    /// The traffic of one scripted ping-pong round trip and of a 32-deep
    /// burst of 4 x 256 B messages, both ends on the one endpoint, the
    /// backstop's turns included: clock reads, parker kicks, backstop
    /// turns and the passes they made. 8 reads and nothing else per
    /// round trip; 71 reads (2.2 a message), 2 kicks, 2 turns and no
    /// pass per burst.
    ///
    /// The round trip is the benchmark's: two receives posted, the ping
    /// sent, received, echoed and received, both sends reaped; it is
    /// counted in the steady state, under the lease the last one left,
    /// which kicks nobody. The burst starts after a quiet tick: 32
    /// sends, then every receive and every send waited for. Its kicks
    /// are the window that opened, whose turn only re-sizes the sleep (a
    /// pass there would send the backlog held so far), and the first
    /// lease, whose turn declines. When every site that needed the time read
    /// the wall clock itself, the same scenarios, with a counter at each
    /// of those reads, read it 14 times per round trip (14–18 over 15
    /// runs: that backstop woke on wall time) and 144 times per burst
    /// (142–149; 4.5 a message).
    #[test]
    fn clock_reads_per_round_trip_and_per_burst_message() {
        let f = Fixture::new();
        let round_trip = || {
            let (r_ping, r_pong) = (f.ep.recv(f.conn), f.ep.recv(f.conn));
            let looped = f.script.sent();
            let s_ping = f.ep.send(f.conn, vec![Bytes::from(vec![1; 64])]);
            let looped = f.script.loop_back(looped);
            let ping = r_ping.wait(T).expect("ping");
            let s_pong = f.ep.send(f.conn, ping.segments);
            f.script.loop_back(looped);
            assert!(r_pong.wait(T).is_some() && s_ping.wait(T) && s_pong.wait(T));
            // (What the backstop does about this round trip's kicks is
            // counted with it.)
            f.backstop();
        };
        // (Two to warm up: what the backstop did when the first one
        // opened the window and took the lease is done with.)
        round_trip();
        round_trip();
        let before = f.traffic();
        round_trip();
        let per_round_trip = delta(f.traffic(), before);

        // (A quiet tick: the lease and the window are over, and the
        // backstop has woken to find so.)
        f.clock.step(BACKSTOP_TICK);
        f.backstop();
        let before = f.traffic();
        let burst: Vec<_> = (0..32).map(|_| (f.ep.recv(f.conn), f.send_kib())).collect();
        // (The kick of the window that opened is not to merge with the
        // lease's below.)
        f.backstop();
        let mut looped = 0;
        for (r, _) in &burst {
            looped = f.script.loop_back(looped);
            assert!(r.wait(T).is_some());
            // (What the backstop does about the lease's kick is counted
            // before the next wait looks, not whenever it gets to it.)
            f.backstop();
        }
        assert!(burst.iter().all(|(_, s)| s.wait(T)));
        f.backstop();
        let per_burst = delta(f.traffic(), before);
        eprintln!(
            "[clock reads, kicks, backstop turns, backstop passes]: \
             {per_round_trip:?} per round trip, {per_burst:?} per 32 burst messages"
        );
        assert_eq!((per_round_trip, per_burst), ([8, 0, 0, 0], [71, 2, 2, 0]));
    }

    /// A burst after a quiet tick aggregates as the same burst with no
    /// gap does, whenever the backstop the window's opening kicked takes
    /// its turn: what is held leaves when a frame's worth is there or
    /// the window ends, not with that turn. The one frame more is the
    /// lone message that reopens the window (scenario (i)). A pass on
    /// every wake-up would send what is held so far as a frame of its
    /// own whenever the turn finds something held — after 28 of the 32
    /// sends: four frames.
    #[test]
    fn a_burst_after_a_quiet_tick_aggregates_as_one_with_no_gap_does() {
        // Frames a 32-message burst takes when the backstop's turns come
        // after its send `late` (and after every wait).
        let burst = |f: &Fixture, late: usize| {
            let sent = f.script.sent();
            let sends: Vec<_> = (0..32)
                .map(|i| {
                    let s = f.send_kib();
                    if i == late {
                        f.backstop();
                    }
                    s
                })
                .collect();
            assert!(sends.iter().all(|s| s.wait(T)));
            f.backstop();
            f.script.sent() - sent
        };
        for late in 0..32 {
            let f = Fixture::new();
            burst(&f, late);
            let no_gap = burst(&f, late);
            f.clock.step(BACKSTOP_TICK);
            f.backstop();
            let after_a_tick = burst(&f, late);
            assert_eq!(
                (no_gap, after_a_tick),
                (2, 3),
                "the backstop's turn after send {late}"
            );
        }
    }

    /// An endpoint that has shut down admits nothing: `try_submit` on a
    /// fabric someone kept says so, counts it and queues nothing.
    #[test]
    fn a_shut_down_endpoint_refuses_try_submit() {
        let Fixture {
            ep, serial, conn, ..
        } = Fixture::new();
        let segment = || vec![Bytes::from_static(b"late")];
        assert!(serial.try_submit(conn, segment()).is_ok());
        drop(ep);
        assert_eq!(
            serial.try_submit(conn, segment()),
            Err(SubmitError::Shutdown)
        );
        assert_eq!(serial.backstop_turn(), Sleep::Stop);
        let eng = serial.engine.lock();
        assert_eq!(eng.stats().overload.shutdown_rejections, 1);
        assert_eq!(eng.stats().obs.seg_size.count(), 1, "nothing queued");
    }

    /// (vi) Control, chunk and medium eager frames do not make the rails
    /// busy: a rendezvous played against the endpoint itself.
    #[test]
    fn a_rendezvous_does_not_open_the_window() {
        let f = Fixture::new();
        let r = f.ep.recv(f.conn);
        let payload = Bytes::from(vec![7; 1 << 20]);
        let s = f.ep.send(f.conn, vec![payload.clone()]);
        let mut looped = 0;
        let msg = (0..1_000).find_map(|_| {
            looped = f.script.loop_back(looped);
            r.wait(Duration::ZERO)
        });
        let msg = msg.expect("rendezvous never completed");
        assert!(msg.segments[0] == payload && s.wait(T));
        assert!(f.ep.stats().chunks_sent >= 2);
        assert!(f
            .ep
            .send(f.conn, vec![Bytes::from(vec![1; 8 * 1024])])
            .wait(T));
        assert_eq!(f.busy_until(), 0);
    }
}
