//! The NewMadeleine engine: collect layer + global scheduler + transmit
//! bookkeeping (paper §2, Figure 1).
//!
//! The engine is *passive* and runtime-agnostic. A runtime (the
//! discrete-event simulator or the threaded transport) drives it:
//!
//! ```text
//! app  ──────── submit_send / post_recv ───────►  Engine (collect layer)
//! rail idle ──── next_tx(rail) ───────────────►  strategy decision → TxDecision
//! injection done ── on_tx_done(rail, token) ──►  send completions
//! frame arrives ─── on_frame(rail, frame) ───►  reassembly, grants, recv completions
//! ```
//!
//! Request processing is entirely disconnected from the submit calls:
//! `submit_send` only queues work; all transmission decisions happen in
//! `next_tx`, invoked when a NIC reports idle — the paper's core design
//! point.
//!
//! Per-message state is a bounded window, not an archive (DESIGN.md §12,
//! "Engine state tables"): message ids and send/receive handles are dense
//! counters, so everything keyed by them lives in [`IdWindow`]s that are
//! indexed, not hashed, and let go of a slot once its answers can no
//! longer change. A rail carries one frame at a time, so what is in
//! flight is one slot per rail.

use std::collections::VecDeque;

use bytes::Bytes;
use nmad_model::{NicModel, RailId, TxMode};
use nmad_wire::agg::{
    parse_aggregate, AggregateBuilder, AggregateEntry, AggregateParts, CONTAINER_OVERHEAD,
    ENTRY_OVERHEAD,
};
use nmad_wire::frame::encode_parts_frame;
use nmad_wire::header::{
    AckPacket, ChunkPacket, EagerPacket, Envelope, Packet, PacketKind, RdvAck, RdvRequest,
    SamplePacket,
};
use nmad_wire::reassembly::{MessageAssembly, ReasmError, Reassembler};
use nmad_wire::{ConnId, IdWindow, Lookup, MsgId, PacketFrame};

use crate::config::{EngineConfig, Observe};
use crate::driver::{TxDecision, TxToken};
use crate::error::{EngineError, SubmitError};
use crate::health::{HealthTracker, RailState, RailTelemetry, Transition};
use crate::obs::{Event, EventKind, FlightRecorder, TelemetryAggregator, Watchdog};
use crate::pool::Pool;
use crate::request::{Backlog, RecvId, SegKey, SegPhase, SendId};
use crate::sampling::{
    default_ladder, split_ratio_permille, OnlineCalibrator, PerfTable, REFERENCE_SIZE,
};
use crate::stats::EngineStats;
use crate::strategy::{KeyList, LatencyOrder, RailFlight, RailView, Strategy, StrategyCtx, TxOp};

/// Pool capacity for packet head buffers: envelope (24 bytes) plus the
/// largest per-kind body header (chunk, 34 bytes), rounded up.
const HEAD_CAPACITY: usize = 64;

/// Outcome of processing one incoming packet. The engine keeps one
/// between frames and lends it out: [`Engine::on_frame`] fills it anew.
#[derive(Debug, Default)]
pub struct OnPacketOutcome {
    /// Receives completed by this packet.
    pub completed_recvs: Vec<RecvId>,
    /// True when the packet caused control traffic to be queued (the
    /// runtime should offer idle rails to the engine again).
    pub control_enqueued: bool,
    /// True when a rendezvous grant arrived (backlog became schedulable).
    pub granted: bool,
    /// Sampling pongs received: `(probe_id, payload_len)`.
    pub sample_pongs: Vec<(u64, usize)>,
}

impl OnPacketOutcome {
    /// Nothing happened yet; the lists keep their capacity.
    fn clear(&mut self) {
        self.completed_recvs.clear();
        self.control_enqueued = false;
        self.granted = false;
        self.sample_pongs.clear();
    }
}

/// Outcome of one [`Engine::progress`] call.
#[derive(Debug, Default)]
pub struct ProgressOutcome {
    /// Sends automatically re-enqueued after a retransmission timeout.
    pub retransmitted: Vec<SendId>,
    /// True when control traffic (probes) was queued — the runtime should
    /// offer idle rails to the engine again.
    pub control_enqueued: bool,
}

/// High bit of a sample probe id marks engine-internal health probes, so
/// they never collide with runtime-issued sampling probes and are consumed
/// by the engine instead of surfacing in
/// [`OnPacketOutcome::sample_pongs`].
const PROBE_BIT: u64 = 1 << 63;

/// Per-message retransmission timer state (acked mode only).
#[derive(Debug)]
struct Attempt {
    /// When the current attempt started (Karn: RTT samples only come from
    /// attempts that were never retransmitted).
    started_ns: u64,
    /// When the retransmission timer fires.
    deadline_ns: u64,
    /// Current timeout, doubled on every expiry (exponential backoff).
    rto_ns: u64,
    /// The message was retransmitted at least once.
    retransmitted: bool,
    /// Rails that carried packets of the current attempt (bit per rail).
    rails_used: u64,
}

impl Attempt {
    /// The rails the attempt used that have shown no sign of life since
    /// it started (bit per rail): whom a timeout can blame.
    fn suspects(&self, health: &HealthTracker) -> u64 {
        rails_of(self.rails_used)
            .filter(|&r| !health.ok_since(RailId(r), self.started_ns))
            .fold(0, |mask, r| mask | 1 << r)
    }
}

/// The rails whose bit is set in `mask`, lowest first.
fn rails_of(mask: u64) -> impl Iterator<Item = usize> {
    (0..u64::BITS as usize).filter(move |r| mask >> r & 1 == 1)
}

/// Everything the engine keeps of one submitted message, in its
/// connection's send window from `submit_send` until the send is done
/// (and, in acked mode, acknowledged).
#[derive(Debug)]
struct SendSlot {
    id: SendId,
    /// One `Bytes` per segment; let go once no (re)transmission can need
    /// it again.
    data: Vec<Bytes>,
    /// Segments not yet fully consumed from the backlog.
    segs_unconsumed: usize,
    /// Pieces of the message in frames posted and not yet reported done.
    items_outstanding: usize,
    /// Completed (all bytes injected).
    done: bool,
    /// The peer confirmed delivery (acked mode).
    acked: bool,
    /// Retransmission timer, until the ack (acked mode).
    attempt: Option<Attempt>,
}

impl SendSlot {
    /// A frame posted on `rail` carries `pieces` pieces of this message:
    /// as many more injections to wait for, and the retransmission timer
    /// runs from now. True when the pieces are a retransmission.
    fn charge(&mut self, rail: RailId, now_ns: u64, pieces: usize) -> bool {
        self.items_outstanding += pieces;
        let Some(att) = &mut self.attempt else {
            return false;
        };
        att.rails_used |= 1 << rail.0;
        att.deadline_ns = att.deadline_ns.max(now_ns.saturating_add(att.rto_ns));
        att.retransmitted
    }

    /// Nothing can change what the slot and its handle answer any more:
    /// done, and in acked mode also acknowledged.
    fn settled(&self, acked_mode: bool) -> bool {
        self.done && (self.acked || !acked_mode)
    }
}

/// Let go of the slot of send `msg_id` in `sends` and of its handle. (The
/// slot is dropped where it lies, its payload handles with it.)
fn retire_send(
    sends: &mut IdWindow<SendSlot>,
    send_ids: &mut IdWindow<(ConnId, MsgId)>,
    msg_id: MsgId,
) {
    if let Some(id) = sends.retire_with(msg_id, |slot| Some(slot.id)) {
        send_ids.retire(id.0);
    }
}

#[derive(Debug, Default)]
struct ConnRx {
    /// One slot per incoming message, by message id, from the first of
    /// "its receive was posted" and "its first piece arrived" until
    /// `try_recv` takes it: the receive matched to it (in-order matching;
    /// the tag) and what arrived of it. A complete message waits there,
    /// "unexpected" while no receive is posted.
    msgs: Reassembler<Option<RecvId>>,
    /// Rendezvous requests waiting for their receive to be posted
    /// (flow control: large data moves only into posted buffers). The
    /// rail the request arrived on routes the eventual grant back over
    /// a path known to work.
    pending_rdv: Vec<(MsgId, u16, RailId)>,
    /// Next msg_id a `post_recv` will match.
    next_match: MsgId,
}

/// Per-call lists, kept between calls so that the eager track pays per
/// message, not per list: asking an idle rail, building an aggregate,
/// completing its sends and taking one apart cost no allocation once the
/// lists are as long as they were before.
#[derive(Debug, Default)]
struct Scratch {
    /// Per rail, the list an aggregate's keys are collected in: lent to
    /// the strategy, carried by the frame, given back at its
    /// `on_tx_done` (one frame per rail at a time).
    keys: Vec<KeyList>,
    /// The sends an `on_tx_done` completed.
    completed: Vec<(SendId, ConnId)>,
    /// The entries of the aggregate being taken apart.
    entries: Vec<AggregateEntry>,
    /// What the frame being taken apart did.
    received: OnPacketOutcome,
}

/// The NewMadeleine engine. One instance per node endpoint.
pub struct Engine {
    config: EngineConfig,
    rails: Vec<NicModel>,
    /// The rails by minimal-message latency, for the strategy.
    latency: LatencyOrder,
    tables: Vec<PerfTable>,
    strategy: Strategy,
    backlog: Backlog,
    /// Outbound control packets: `(conn, packet, rail pin)` FIFO. Most
    /// control traffic is unpinned (any usable rail); health probes and
    /// their pongs are pinned to the rail under test.
    control_q: VecDeque<(ConnId, Packet, Option<RailId>)>,
    /// Per connection (ids are dense from 0): the sends in progress, by
    /// the msg id `submit_send` gave them — the window's end is the next
    /// one.
    conn_tx: Vec<IdWindow<SendSlot>>,
    conn_rx: Vec<ConnRx>,
    /// Send handles in use: where the send's slot is.
    send_ids: IdWindow<(ConnId, MsgId)>,
    /// Receive handles in use: the message each one matched.
    recv_ids: IdWindow<(ConnId, MsgId)>,
    /// Per rail, the frame it carries between `next_tx` and `on_tx_done`:
    /// a rail carries one frame at a time, and is busy while its slot is
    /// occupied.
    in_flight: Vec<Option<InFlightTx>>,
    /// The token the next frame gets: a dense counter in post order.
    next_token: u64,
    tx_seq: Vec<u32>,
    stats: EngineStats,
    /// Recycled head/slab buffers for the transmit hot path.
    pool: Pool,
    /// Per-rail health records (fed by acks/timeouts, drives failover).
    health: HealthTracker,
    /// Engine-internal clock, advanced by [`Engine::progress`].
    now_ns: u64,
    /// Health probes in flight, by probe number (the window's end is the
    /// next one): rail under test, sent at. A lost probe keeps its slot —
    /// its pong may still come — so this holds one entry per probe lost.
    probe_sent: IdWindow<(usize, u64)>,
    /// Packet-lifecycle flight recorder (disabled under
    /// [`Observe::Off`]).
    obs: FlightRecorder,
    /// Continuous telemetry: windows cut from [`Engine::stats`], plus the
    /// SLO watchdog over the closed ones (present iff
    /// [`Observe::Watch`]). Boxed so the common telemetry-off engine
    /// doesn't carry the window ring inline.
    telemetry: Option<Box<TelemetryState>>,
    /// Online recalibration of `tables` from observed transfer times
    /// (present iff [`EngineConfig::calibrate`]).
    calibrator: Option<OnlineCalibrator>,
    /// Per-rail EWMA of observed data-frame service time (ns), read by
    /// strategies through [`RailFlight`] so SRPT can predict completions.
    ewma_service_ns: Vec<u64>,
    scratch: Scratch,
    /// The one aggregate builder (its entry list is reused).
    agg: AggregateBuilder,
}

/// Telemetry state folded inside the engine lock: the aggregator and
/// the watchdog consuming its newly closed windows.
struct TelemetryState {
    agg: TelemetryAggregator,
    dog: Watchdog,
}

/// Bookkeeping held between `next_tx` and `on_tx_done` in the slot of the
/// rail the frame was posted on: what the decision carried, plus the
/// pooled head buffer to reclaim at tx completion.
#[derive(Debug)]
struct InFlightTx {
    /// The frame's token.
    token: TxToken,
    /// The segments the frame carries a piece of (none: control).
    keys: KeyList,
    head: Option<Bytes>,
    /// Pooled aggregation staging slab riding in this frame (aggregate
    /// decisions only); reclaimed alongside the head at tx completion so
    /// the pool's leak ledger balances.
    slab: Option<Bytes>,
    /// Wire bytes of the posted frame (for the in-flight gauge and the
    /// `TxDone` event).
    wire_len: usize,
    /// Engine clock at `next_tx`; `on_tx_done - posted_ns` is the
    /// injection time the online calibrator ingests.
    posted_ns: u64,
    /// Control-only frame (excluded from calibration: latency-bound).
    control: bool,
}

impl Engine {
    /// Build an engine for the given rails. `tables` may be empty, in
    /// which case analytic seed tables are derived from the NIC models
    /// (real init-time sampling replaces them via [`Engine::set_tables`]).
    pub fn new(config: EngineConfig, rails: Vec<NicModel>, tables: Vec<PerfTable>) -> Self {
        config.validate();
        assert!(!rails.is_empty(), "engine needs at least one rail");
        assert!(rails.len() <= 64, "rail sets are 64-bit masks");
        let tables = if tables.is_empty() {
            let ladder = default_ladder();
            rails
                .iter()
                .map(|n| PerfTable::from_analytic(n, &ladder))
                .collect()
        } else {
            assert_eq!(tables.len(), rails.len(), "one table per rail");
            tables
        };
        let n = rails.len();
        // The calibrator's seed (and prior) is whatever tables the engine
        // starts from: analytic or real init-time sampling.
        let calibrator = config
            .calibrate
            .then(|| OnlineCalibrator::new(tables.clone(), default_ladder()));
        let telemetry = match config.observe {
            Observe::Watch { window_ns } => Some(Box::new(TelemetryState {
                agg: TelemetryAggregator::new(n, window_ns),
                dog: Watchdog::new(n),
            })),
            Observe::Off | Observe::Record { .. } => None,
        };
        Engine {
            strategy: config.strategy.build(),
            health: HealthTracker::new(config.health, n),
            obs: FlightRecorder::with_capacity(config.observe.recorder_capacity()),
            calibrator,
            telemetry,
            backlog: Backlog::with_small_below(config.min_chunk as u64),
            config,
            latency: LatencyOrder::new(&rails),
            tables,
            control_q: VecDeque::new(),
            conn_tx: Vec::new(),
            conn_rx: Vec::new(),
            send_ids: IdWindow::new(),
            recv_ids: IdWindow::new(),
            in_flight: (0..n).map(|_| None).collect(),
            next_token: 0,
            tx_seq: vec![0; n],
            stats: EngineStats::new(n),
            pool: Pool::default(),
            now_ns: 0,
            probe_sent: IdWindow::new(),
            ewma_service_ns: vec![0; n],
            scratch: Scratch {
                keys: vec![KeyList::new(); n],
                ..Scratch::default()
            },
            agg: AggregateBuilder::new(),
            rails,
        }
    }

    /// Read access to the flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.obs
    }

    /// Mutable access to the flight recorder (e.g. to clear it between
    /// workload phases).
    pub fn recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.obs
    }

    /// The continuous telemetry aggregator, under [`Observe::Watch`].
    pub fn telemetry(&self) -> Option<&TelemetryAggregator> {
        self.telemetry.as_deref().map(|t| &t.agg)
    }

    /// The SLO watchdog, under [`Observe::Watch`].
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.telemetry.as_deref().map(|t| &t.dog)
    }

    /// Close the telemetry windows the engine clock has moved past, each
    /// with what [`Engine::stats`] did over it, and run the watchdog over
    /// the ones that closed. Called from [`Engine::progress`] and by
    /// whoever reads the windows; one comparison when no window boundary
    /// passed, free when telemetry is off.
    ///
    /// Newly fired alerts are recorded as [`EventKind::Alert`] events
    /// into the flight-recorder ring, so they travel with every existing
    /// exporter; a window counts the alerts fired since the previous
    /// close, so an alert is counted in the window after the one that
    /// tripped it.
    pub fn fold_telemetry(&mut self) {
        let Some(ts) = self.telemetry.as_deref_mut() else {
            return;
        };
        let TelemetryState { agg, dog } = ts;
        let newly_closed = agg.fold(self.now_ns, &mut self.stats, dog.alerts_fired()) as usize;
        if newly_closed == 0 {
            return;
        }
        let fired_from = dog.alerts().len();
        let kept = agg.windows().count();
        // More windows may have closed than the ring retains (e.g. a long
        // idle gap): observe the survivors.
        for w in agg.windows().skip(kept.saturating_sub(newly_closed)) {
            dog.observe(w);
        }
        for a in &dog.alerts()[fired_from..] {
            let mut ev = Event::new(a.ts_ns, EventKind::Alert)
                .seq(a.window)
                .aux(a.kind.code())
                .size(a.value as u64);
            if let Some(r) = a.rail {
                ev = ev.rail(r);
            }
            self.obs.record(ev);
        }
    }

    /// Advance the engine's observation clock without running any timer
    /// work. Runtimes that rarely (or never) call [`Engine::progress`] —
    /// the simulator only ticks it when a fault plan is armed — use this
    /// so event timestamps and RTT samples still track their clock.
    pub fn observe_clock(&mut self, now_ns: u64) {
        self.now_ns = self.now_ns.max(now_ns);
    }

    /// Health telemetry snapshot for `rail` as of the engine clock.
    pub fn rail_telemetry(&self, rail: usize) -> RailTelemetry {
        self.health.telemetry(RailId(rail), self.now_ns)
    }

    /// Open a logical channel. Both endpoints must open connections in the
    /// same order (like the paper's channel establishment).
    pub fn conn_open(&mut self) -> ConnId {
        self.conn_tx.push(IdWindow::new());
        self.conn_rx.push(ConnRx::default());
        (self.conn_tx.len() - 1) as ConnId
    }

    /// Replace the per-rail performance tables (after init-time sampling).
    /// When online calibration is enabled, the new tables also become the
    /// calibrator's seed curves (corrections and history reset: the prior
    /// they corrected no longer exists).
    pub fn set_tables(&mut self, tables: Vec<PerfTable>) {
        assert_eq!(tables.len(), self.rails.len(), "one table per rail");
        if self.calibrator.is_some() {
            self.calibrator = Some(OnlineCalibrator::new(tables.clone(), default_ladder()));
        }
        self.tables = tables;
    }

    /// The live per-rail performance tables the split strategy consults.
    pub fn tables(&self) -> &[PerfTable] {
        &self.tables
    }

    /// The online calibrator, when [`EngineConfig::calibrate`] is set.
    pub fn calibrator(&self) -> Option<&OnlineCalibrator> {
        self.calibrator.as_ref()
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Rail models.
    pub fn rails(&self) -> &[NicModel] {
        &self.rails
    }

    /// Behavioural counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Whether `rail` currently has an injection in flight.
    pub fn rail_busy(&self, rail: RailId) -> bool {
        self.in_flight[rail.0].is_some()
    }

    /// Mirror the rails' kernel-crossing counters into the stats (the
    /// counting happens under the rails lock, outside the engine's; this
    /// stores a snapshot).
    pub fn note_syscalls(&mut self, syscalls: crate::stats::SyscallStats) {
        self.stats.syscalls = syscalls;
    }

    /// True when the engine has transmit work queued (control or backlog).
    /// Segments awaiting a rendezvous grant don't count: they cannot be
    /// scheduled until the peer answers.
    pub fn has_tx_work(&self) -> bool {
        !self.control_q.is_empty() || self.backlog.has_schedulable()
    }

    /// True when nothing queued loses by waiting for what is submitted
    /// next: no control packet, no granted segment, no eager segment of
    /// [`EngineConfig::min_chunk`] bytes or more, and of smaller ones not
    /// yet the [`EngineConfig::agg_max_bytes`] one aggregate carries. A
    /// runtime whose rail has just taken a small frame may then leave a
    /// submission in the backlog for the strategy to find company for
    /// (DESIGN.md "The window"). In acked mode nothing schedulable can
    /// wait: a send's retransmission timer and its round-trip sample run
    /// from the submission, and the wait would be taken for the
    /// network's.
    pub fn tx_can_wait(&self) -> bool {
        self.control_q.is_empty()
            && !self.backlog.has_urgent()
            && self.backlog.small_eager_bytes() < self.config.agg_max_bytes as u64
            && !(self.config.acked && self.backlog.has_schedulable())
    }

    /// True when any request (send or rendezvous handshake) is unfinished.
    pub fn is_quiescent(&self) -> bool {
        self.control_q.is_empty()
            && self.backlog.is_empty()
            && self.in_flight.iter().all(Option::is_none)
            && self.send_slots().all(|s| s.done)
    }

    /// Slots the per-message tables hold right now, all of them together:
    /// what "bounded memory" bounds (`tests/bounded_state.rs`).
    #[doc(hidden)]
    pub fn state_len(&self) -> usize {
        let tx: usize = self.conn_tx.iter().map(IdWindow::len).sum();
        let rx: usize = self
            .conn_rx
            .iter()
            .map(|rx| rx.msgs.span() + rx.pending_rdv.len())
            .sum();
        tx + rx
            + self.send_ids.len()
            + self.recv_ids.len()
            + self.in_flight.iter().flatten().count()
            + self.probe_sent.len()
    }

    /// The sends in progress, every connection's.
    fn send_slots(&self) -> impl Iterator<Item = &SendSlot> + '_ {
        self.conn_tx.iter().flat_map(|w| w.iter().map(|(_, s)| s))
    }

    /// The slot of a send in progress.
    fn send_slot(&mut self, conn: ConnId, msg_id: MsgId) -> Option<&mut SendSlot> {
        self.conn_tx.get_mut(conn as usize)?.live_mut(msg_id)
    }

    /// Let go of a send's slot and handle once they are settled
    /// ([`SendSlot::settled`]).
    fn retire_if_settled(&mut self, conn: ConnId, msg_id: MsgId) {
        let acked_mode = self.config.acked;
        let Some(sends) = self.conn_tx.get_mut(conn as usize) else {
            return;
        };
        if sends.live(msg_id).is_some_and(|s| s.settled(acked_mode)) {
            retire_send(sends, &mut self.send_ids, msg_id);
        }
    }

    // ------------------------------------------------------------------
    // Collect layer
    // ------------------------------------------------------------------

    /// Submit a non-blocking send of a multi-segment message. Segments are
    /// exactly the units the optimizing scheduler may aggregate or split.
    pub fn submit_send(&mut self, conn: ConnId, segments: Vec<Bytes>) -> SendId {
        let send_id = SendId(self.send_ids.end());
        assert!(!segments.is_empty(), "a message needs at least one segment");
        assert!(segments.len() <= u16::MAX as usize, "too many segments");
        let total_segs = segments.len() as u16;
        let total_bytes: u64 = segments.iter().map(|s| s.len() as u64).sum();
        let attempt = self.config.acked.then(|| {
            let rto = self.health.rto_hint_ns();
            self.stats.obs.rto_ns.record(rto);
            Attempt {
                started_ns: self.now_ns,
                deadline_ns: self.now_ns.saturating_add(rto),
                rto_ns: rto,
                retransmitted: false,
                rails_used: 0,
            }
        });
        let sends = self
            .conn_tx
            .get_mut(conn as usize)
            .unwrap_or_else(|| panic!("unknown connection {conn}"));
        let msg_id = sends.push(SendSlot {
            id: send_id,
            data: segments,
            segs_unconsumed: total_segs as usize,
            items_outstanding: 0,
            done: false,
            acked: false,
            attempt,
        });
        self.send_ids.push((conn, msg_id));
        let segments = sends.live(msg_id).map_or(&[][..], |s| &s.data);

        self.stats.msgs_submitted += 1;
        self.obs.record(
            Event::new(self.now_ns, EventKind::Submit)
                .seq(msg_id)
                .size(total_bytes)
                .aux(total_segs as u64),
        );
        for seg in segments {
            self.stats.obs.seg_size.record(seg.len() as u64);
            let rdv = seg.len() >= self.config.rdv_threshold;
            self.stats.rdv_handshakes += rdv as u64;
            self.obs.record(
                Event::new(self.now_ns, EventKind::BacklogPush)
                    .seq(msg_id)
                    .size(seg.len() as u64)
                    .aux(rdv as u64),
            );
        }
        enqueue_segments(
            &mut self.backlog,
            &mut self.control_q,
            self.config.rdv_threshold,
            (conn, msg_id),
            segments.iter().map(Bytes::len),
        );
        self.stats
            .obs
            .backlog_depth
            .record(self.backlog.len() as u64);
        send_id
    }

    /// [`Engine::submit_send`] under the overload policy: refused, counted
    /// and nothing queued while `conn` has
    /// [`EngineConfig::max_tenant_inflight`] sends admitted and not yet
    /// locally complete. The caller decides whether to retry, shed or
    /// slow down; every pass it makes meanwhile is progress towards being
    /// admitted again. `submit_send` itself does not check the limit.
    pub fn try_submit_send(
        &mut self,
        conn: ConnId,
        segments: Vec<Bytes>,
    ) -> Result<SendId, SubmitError> {
        let quota = self.config.max_tenant_inflight;
        // (An unknown connection is `submit_send`'s to refuse.)
        let at_quota = |sends: &IdWindow<SendSlot>| {
            let mut open = sends.iter().filter(|(_, s)| !s.done);
            open.nth(quota - 1).is_some()
        };
        if quota != 0 && self.conn_tx.get(conn as usize).is_some_and(at_quota) {
            self.stats.overload.admission_rejections += 1;
            return Err(SubmitError::WouldBlock);
        }
        Ok(self.submit_send(conn, segments))
    }

    /// The runtime around this engine has shut down and turns a
    /// submission away: counted with the other refusals.
    pub fn refuse_shutdown(&mut self) -> SubmitError {
        self.stats.overload.shutdown_rejections += 1;
        SubmitError::Shutdown
    }

    /// Queue a sampling probe (`SamplePing`) of `size` zero bytes on
    /// `conn`. The peer engine echoes it back as a pong; the runtime
    /// measures the round trip (init-time sampling, paper §3.4).
    pub fn send_sample(&mut self, conn: ConnId, probe_id: u64, size: usize) {
        self.control_q.push_back((
            conn,
            Packet::SamplePing(SamplePacket {
                probe_id,
                data: Bytes::from(vec![0u8; size]),
            }),
            None,
        ));
    }

    /// Post a non-blocking receive on `conn`. Receives match incoming
    /// messages in order (the paper's benchmark model; there is no tag
    /// matching).
    pub fn post_recv(&mut self, conn: ConnId) -> RecvId {
        let rx = self
            .conn_rx
            .get_mut(conn as usize)
            .unwrap_or_else(|| panic!("unknown connection {conn}"));
        let msg_id = rx.next_match;
        let recv_id = RecvId(self.recv_ids.push((conn, msg_id)));
        rx.next_match += 1;
        if let Some(posted) = rx.msgs.tag_mut(msg_id) {
            *posted = Some(recv_id);
        }
        // Release any rendezvous parked on this receive (flow control).
        let control_q = &mut self.control_q;
        rx.pending_rdv.retain(|&(m, seg_index, rail)| {
            if m == msg_id {
                let grant = Packet::RdvAck(RdvAck { msg_id, seg_index });
                control_q.push_back((conn, grant, Some(rail)));
            }
            m != msg_id
        });
        recv_id
    }

    /// True when the send has been fully injected (local completion).
    pub fn send_complete(&self, id: SendId) -> bool {
        match self.send_ids.get(id.0) {
            Lookup::Past => true,
            Lookup::Live(&(conn, msg)) => self.conn_tx[conn as usize]
                .live(msg)
                .is_some_and(|s| s.done),
            Lookup::Never => false,
        }
    }

    /// True when the peer confirmed full delivery of the message (only
    /// meaningful with [`EngineConfig::acked`] set on *both* endpoints).
    pub fn send_acked(&self, id: SendId) -> bool {
        match self.send_ids.get(id.0) {
            // (Without acks a send is retired unacknowledged.)
            Lookup::Past => self.config.acked,
            Lookup::Live(&(conn, msg)) => self.conn_tx[conn as usize]
                .live(msg)
                .is_some_and(|s| s.acked),
            Lookup::Never => false,
        }
    }

    /// Take the reassembled message for a completed receive, if ready.
    pub fn try_recv(&mut self, id: RecvId) -> Option<MessageAssembly> {
        let &(conn, msg_id) = self.recv_ids.live(id.0)?;
        let assembly = self.conn_rx.get_mut(conn as usize)?.msgs.take(msg_id)?;
        self.recv_ids.retire(id.0);
        Some(assembly)
    }

    // ------------------------------------------------------------------
    // Transmit layer: NIC-activity-driven scheduling
    // ------------------------------------------------------------------

    /// Offer idle `rail` to the engine. Control packets are served first;
    /// otherwise the optimizing scheduler picks from the backlog. Returns
    /// `None` when the rail should stay idle. On `Some`, the rail is
    /// marked busy until [`Engine::on_tx_done`].
    pub fn next_tx(&mut self, rail: RailId) -> Result<Option<TxDecision>, EngineError> {
        if self.in_flight[rail.0].is_some() {
            return Ok(None);
        }
        let usable = self.health.usable(rail);
        // Control plane jumps the queue: rendezvous latency directly gates
        // large-message throughput. A control packet pinned to a rail only
        // goes out on that rail (health probes must travel the rail under
        // test); unpinned control avoids unusable rails unless no rail is
        // usable at all (an ack is better sent on a dying rail than never).
        let unpinned_ok = usable || self.health.none_usable();
        let served = self.control_q.iter().position(|(_, _, pin)| match pin {
            Some(p) => *p == rail,
            None => unpinned_ok,
        });
        if let Some((conn, pkt, _)) = served.and_then(|pos| self.control_q.remove(pos)) {
            // A rendezvous request travels on behalf of an acked send: tie
            // it to the attempt so a lost request blames this rail too.
            if let Packet::RdvRequest(ref rr) = pkt {
                if let Some(att) = self
                    .send_slot(conn, rr.msg_id)
                    .and_then(|s| s.attempt.as_mut())
                {
                    att.rails_used |= 1 << rail.0;
                }
            }
            let decision = self.finish_decision(rail, conn, pkt, KeyList::new(), 0, false);
            return Ok(Some(decision));
        }
        if !usable {
            // Down/Probing rails carry nothing but their own probes.
            return Ok(None);
        }
        // Every op names an eager or a granted segment: with neither in
        // the backlog no strategy has anything to say, and the query
        // costs no context build.
        if !self.backlog.has_schedulable() {
            self.stats.idle_queries += 1;
            return Ok(None);
        }
        // One eager segment and nothing else to pick from: the strategy
        // answers from the rails, and no context is built (DESIGN.md §13
        // "The lone eager segment").
        let Some(op) = self.lone_eager(rail).unwrap_or_else(|| self.pipeline(rail)) else {
            self.stats.idle_queries += 1;
            return Ok(None);
        };
        self.execute_op(rail, op).map(Some)
    }

    /// [`Strategy::lone_eager`] for idle `rail`, when the backlog's only
    /// schedulable work is one eager segment.
    fn lone_eager(&self, rail: RailId) -> Option<Option<TxOp>> {
        let seg = self.backlog.lone_eager()?;
        let rails = EngineRails {
            in_flight: &self.in_flight,
            health: &self.health,
            stats: &self.stats,
            ewma_service_ns: &self.ewma_service_ns,
        };
        self.strategy
            .lone_eager(rail, seg, &rails, &self.latency, &self.config)
    }

    /// What the strategy's pipeline picks for idle `rail`.
    fn pipeline(&mut self, rail: RailId) -> Option<TxOp> {
        let rails = EngineRails {
            in_flight: &self.in_flight,
            health: &self.health,
            stats: &self.stats,
            ewma_service_ns: &self.ewma_service_ns,
        };
        let mut ctx = StrategyCtx {
            backlog: &mut self.backlog,
            rails: &self.rails,
            view: &rails,
            tables: &self.tables,
            latency: &self.latency,
            batch: &mut self.scratch.keys[rail.0],
            config: &self.config,
            obs: &mut self.obs,
            now_ns: self.now_ns,
        };
        self.strategy.next_tx(rail, &mut ctx)
    }

    /// A frame on `rail` takes pieces of the segments `keys`, all of one
    /// message — the whole of what was left of each in the backlog when
    /// `exhausted`. Returns the message's send slot, looked up once, and
    /// whether the pieces are a retransmission.
    fn take_pieces(
        conn_tx: &mut [IdWindow<SendSlot>],
        now_ns: u64,
        rail: RailId,
        mut keys: impl ExactSizeIterator<Item = SegKey> + Clone,
        exhausted: bool,
    ) -> Result<(&SendSlot, bool), EngineError> {
        const UNKNOWN: EngineError = EngineError::InvalidStrategyOp("unknown segment payload");
        let (n, first) = (keys.len(), keys.clone().next().ok_or(UNKNOWN)?);
        let sends = conn_tx.get_mut(first.conn as usize).ok_or(UNKNOWN)?;
        let slot = sends.live_mut(first.msg_id).ok_or(UNKNOWN)?;
        if keys.any(|k| slot.data.len() <= k.seg_index as usize) {
            return Err(UNKNOWN);
        }
        if exhausted {
            debug_assert!(slot.segs_unconsumed >= n);
            slot.segs_unconsumed -= n;
        }
        let retransmitted = slot.charge(rail, now_ns, n);
        Ok((slot, retransmitted))
    }

    /// [`Self::take_pieces`] of one segment: its payload where it lies in
    /// its send slot, how many segments its message has, and whether the
    /// piece is a retransmission.
    fn take_piece(
        conn_tx: &mut [IdWindow<SendSlot>],
        now_ns: u64,
        rail: RailId,
        key: SegKey,
        exhausted: bool,
    ) -> Result<(&Bytes, u16, bool), EngineError> {
        let one = std::iter::once(key);
        let (slot, retransmitted) = Self::take_pieces(conn_tx, now_ns, rail, one, exhausted)?;
        let data = &slot.data[key.seg_index as usize];
        Ok((data, slot.data.len() as u16, retransmitted))
    }

    fn execute_op(&mut self, rail: RailId, op: TxOp) -> Result<TxDecision, EngineError> {
        match op {
            TxOp::Eager(key) => {
                let item = self
                    .backlog
                    .take_eager(key)
                    .ok_or(EngineError::InvalidStrategyOp("eager segment not takeable"))?;
                let (data, _, retransmitted) =
                    Self::take_piece(&mut self.conn_tx, self.now_ns, rail, key, true)?;
                let payload = data.len();
                let pkt = Packet::Eager(EagerPacket {
                    msg_id: key.msg_id,
                    seg_index: key.seg_index,
                    total_segs: item.total_segs,
                    data: data.clone(),
                });
                self.stats.datapath.tx_zero_copy_bytes += payload as u64;
                self.obs.record(
                    Event::new(self.now_ns, EventKind::DecideEager)
                        .rail(rail.0)
                        .seq(key.msg_id)
                        .size(payload as u64),
                );
                let keys = KeyList::one(key);
                let mut d = self.finish_decision(rail, key.conn, pkt, keys, payload, retransmitted);
                d.small_eager = payload < self.config.min_chunk;
                Ok(d)
            }
            TxOp::Aggregate(keys) => {
                let Some(first) = keys.get(0) else {
                    return Err(EngineError::InvalidStrategyOp("empty aggregate"));
                };
                let first_conn = first.conn;
                let payload = self.backlog.take_eager_run(keys.iter().copied()).ok_or(
                    EngineError::InvalidStrategyOp("aggregate segment not takeable"),
                )? as usize;
                // Entries below the PIO threshold are memcpy'd into one
                // pooled staging slab (the only copy the tx hot path is
                // allowed), straight from the segment in its send slot;
                // larger entries ride as refcounted slices.
                let container_len = CONTAINER_OVERHEAD + keys.len() * ENTRY_OVERHEAD + payload;
                let slab = self.pool.take(container_len, &mut self.stats.datapath);
                self.agg.begin(self.rails[rail.0].pio_threshold, slab);
                let (now_ns, min_chunk) = (self.now_ns, self.config.min_chunk);
                let staged = message_runs(&keys).try_fold((false, true), |(again, small), run| {
                    let run = run.map(|i| keys[i]);
                    let (slot, retransmitted) =
                        Self::take_pieces(&mut self.conn_tx, now_ns, rail, run.clone(), true)?;
                    let total_segs = slot.data.len() as u16;
                    let mut small = small;
                    for key in run {
                        let data = &slot.data[key.seg_index as usize];
                        self.agg
                            .push(key.conn, key.msg_id, key.seg_index, total_segs, data);
                        small &= data.len() < min_chunk;
                    }
                    Ok((again | retransmitted, small))
                });
                let (retransmitted, small_eager) = match staged {
                    Ok(flags) => flags,
                    Err(e) => {
                        // (What an aggregate that failed half-way took.)
                        let slab = self.agg.begin(usize::MAX, Default::default());
                        self.pool.reclaim(slab.freeze(), &mut self.stats.datapath);
                        return Err(e);
                    }
                };
                self.stats.aggregates_built += 1;
                self.stats.segments_aggregated += keys.len() as u64;
                let agg = self.agg.finish_parts();
                debug_assert_eq!(agg.container_len, container_len);
                self.stats.datapath.tx_staged_copy_bytes += agg.staged_bytes as u64;
                self.stats.datapath.tx_zero_copy_bytes += agg.zero_copy_bytes as u64;
                self.obs.record(
                    Event::new(self.now_ns, EventKind::DecideAggregate)
                        .rail(rail.0)
                        .size(payload as u64)
                        .aux(keys.len() as u64),
                );
                let mut d =
                    self.finish_agg_decision(rail, first_conn, agg, keys, payload, retransmitted);
                d.small_eager = small_eager;
                Ok(d)
            }
            TxOp::Chunk { key, max_len } => {
                let max_len = max_len.min(self.rails[rail.0].mtu as u64);
                let tc = self
                    .backlog
                    .take_chunk(key, max_len)
                    .ok_or(EngineError::InvalidStrategyOp("chunk not takeable"))?;
                self.emit_chunk(rail, tc, false)
            }
            TxOp::PlannedChunk => {
                let tc = self
                    .backlog
                    .take_planned(rail.0)
                    .ok_or(EngineError::InvalidStrategyOp("no planned chunk for rail"))?;
                self.emit_chunk(rail, tc, true)
            }
        }
    }

    fn emit_chunk(
        &mut self,
        rail: RailId,
        tc: crate::request::TakenChunk,
        planned: bool,
    ) -> Result<TxDecision, EngineError> {
        let key = tc.key;
        let (segment, _, retransmitted) =
            Self::take_piece(&mut self.conn_tx, self.now_ns, rail, key, tc.seg_exhausted)?;
        let pkt = Packet::Chunk(ChunkPacket {
            msg_id: key.msg_id,
            seg_index: key.seg_index,
            total_segs: tc.total_segs,
            offset: tc.offset,
            total_len: segment.len() as u64,
            chunk_index: tc.chunk_index,
            data: segment.slice(tc.offset as usize..(tc.offset + tc.len) as usize),
        });
        self.stats.chunks_sent += 1;
        self.stats.datapath.tx_zero_copy_bytes += tc.len;
        // Planned chunks got their DecideSplit event (with the split
        // ratio) when the strategy computed the plan; a bounded chunk
        // outside any plan is a decision of its own.
        if !planned {
            self.obs.record(
                Event::new(self.now_ns, EventKind::DecideChunk)
                    .rail(rail.0)
                    .seq(key.msg_id)
                    .size(tc.len),
            );
        }
        let keys = KeyList::one(key);
        Ok(self.finish_decision(rail, key.conn, pkt, keys, tc.len as usize, retransmitted))
    }

    fn alloc_seq(&mut self, rail: RailId) -> u32 {
        let seq = self.tx_seq[rail.0];
        self.tx_seq[rail.0] = seq.wrapping_add(1);
        seq
    }

    /// Pool buffers outside anyone's custody: taken from the pool but
    /// neither reclaimed nor accounted to an in-flight frame. Zero on a
    /// healthy engine at all times; asserted at drop.
    pub fn pool_leaks(&self) -> u64 {
        let in_custody: u64 = self
            .in_flight
            .iter()
            .flatten()
            .map(|t| t.head.is_some() as u64 + t.slab.is_some() as u64)
            .sum();
        self.stats
            .datapath
            .pool_outstanding
            .saturating_sub(in_custody)
    }

    fn finish_decision(
        &mut self,
        rail: RailId,
        conn: ConnId,
        pkt: Packet,
        keys: KeyList,
        app_payload: usize,
        retransmitted: bool,
    ) -> TxDecision {
        let seq = self.alloc_seq(rail);
        let head = self.pool.take(HEAD_CAPACITY, &mut self.stats.datapath);
        let control = pkt.is_control();
        let frame = pkt.encode_frame_into(conn, seq, self.config.crc, head);
        self.seal_decision(
            rail,
            frame,
            control,
            keys,
            0,
            app_payload,
            None,
            retransmitted,
        )
    }

    /// Aggregate counterpart of [`Self::finish_decision`]: the body parts
    /// are already encoded (staged runs + zero-copy slices); only the
    /// envelope is written here.
    fn finish_agg_decision(
        &mut self,
        rail: RailId,
        conn: ConnId,
        agg: AggregateParts,
        keys: KeyList,
        app_payload: usize,
        retransmitted: bool,
    ) -> TxDecision {
        let seq = self.alloc_seq(rail);
        let head = self.pool.take(HEAD_CAPACITY, &mut self.stats.datapath);
        let copied = agg.staged_bytes;
        // Keep a handle on the staging slab: the frame's staged runs are
        // slices of it, and on_tx_done hands the allocation back to the
        // pool once the frame retires (without this, every aggregate
        // leaked its slab).
        let slab = Some(agg.slab);
        let frame = encode_parts_frame(
            PacketKind::Aggregate,
            conn,
            seq,
            self.config.crc,
            agg.parts,
            head,
        );
        self.seal_decision(
            rail,
            frame,
            false,
            keys,
            copied,
            app_payload,
            slab,
            retransmitted,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn seal_decision(
        &mut self,
        rail: RailId,
        frame: PacketFrame,
        control: bool,
        keys: KeyList,
        copied_bytes: usize,
        app_payload: usize,
        slab: Option<Bytes>,
        retransmitted: bool,
    ) -> TxDecision {
        let nic = &self.rails[rail.0];
        let wire_len = frame.wire_len();
        let mode = if wire_len < nic.pio_threshold {
            TxMode::Pio
        } else {
            TxMode::EagerDma
        };
        let rs = &mut self.stats.rails[rail.0];
        if control {
            rs.control_packets += 1;
        } else {
            rs.packets += 1;
            rs.payload_bytes += app_payload as u64;
            match mode {
                TxMode::Pio => rs.pio_packets += 1,
                _ => rs.dma_packets += 1,
            }
        }
        rs.wire_bytes += wire_len as u64;
        rs.retransmit_packets += retransmitted as u64;

        // Keep a reference to the pooled head so on_tx_done can reclaim
        // the allocation once the runtime drops its copy of the frame.
        let token = TxToken(self.next_token);
        self.next_token += 1;
        let slot = &mut self.in_flight[rail.0];
        debug_assert!(
            slot.is_none(),
            "rail {} carries one frame at a time",
            rail.0
        );
        *slot = Some(InFlightTx {
            token,
            keys,
            head: frame.head().cloned(),
            slab,
            wire_len,
            posted_ns: self.now_ns,
            control,
        });
        self.obs.record(
            Event::new(self.now_ns, EventKind::TxPost)
                .rail(rail.0)
                .seq(token.0)
                .size(wire_len as u64)
                .aux(control as u64),
        );
        let rs = &mut self.stats.rails[rail.0];
        rs.in_flight_bytes += wire_len as u64;
        rs.note_busy(self.now_ns);
        TxDecision {
            token,
            frame,
            mode,
            copied_bytes,
            control,
            small_eager: false,
        }
    }

    /// Report that the injection for `token` finished on `rail`. Returns
    /// the sends that reached local completion, each with the connection
    /// it was submitted on (a list the engine keeps: the next call
    /// overwrites it). A token that is not the one `rail` carries — done
    /// already, never given, or posted on another rail — is
    /// [`EngineError::BadToken`], and changes nothing.
    pub fn on_tx_done(
        &mut self,
        rail: RailId,
        token: TxToken,
    ) -> Result<&[(SendId, ConnId)], EngineError> {
        let InFlightTx {
            mut keys,
            head,
            slab,
            wire_len,
            posted_ns,
            control,
            ..
        } = self
            .in_flight
            .get_mut(rail.0)
            .and_then(|slot| slot.take_if(|tx| tx.token == token))
            .ok_or(EngineError::BadToken(token.0))?;
        self.obs.record(
            Event::new(self.now_ns, EventKind::TxDone)
                .rail(rail.0)
                .seq(token.0)
                .size(wire_len as u64),
        );
        let rs = &mut self.stats.rails[rail.0];
        rs.in_flight_bytes = rs.in_flight_bytes.saturating_sub(wire_len as u64);
        rs.note_idle(self.now_ns);
        // Recycled at once when the runtime has dropped its frame
        // (threaded transports at completion); the in-process fabric's
        // receiver may still hold a reference, and the pool parks the
        // buffer until it has let go. Same for the aggregation slab.
        for buf in [head, slab].into_iter().flatten() {
            self.pool.reclaim(buf, &mut self.stats.datapath);
        }
        // Per-rail service-time EWMA: SRPT's straggler predictor. First
        // sample seeds; after that a 3/4-old, 1/4-new blend tracks drift
        // without chasing noise. Control frames excluded, same as below.
        let elapsed_ns = self.now_ns.saturating_sub(posted_ns);
        if !control && elapsed_ns > 0 {
            let ewma = &mut self.ewma_service_ns[rail.0];
            *ewma = if *ewma == 0 {
                elapsed_ns
            } else {
                (*ewma * 3 + elapsed_ns) / 4
            };
            // Online calibration: a completed data injection is a live
            // transfer-time sample for this rail (control frames are
            // excluded — latency-bound, not representative of the split's
            // regime). The sample is down-weighted while the rail is
            // under suspicion.
            if let Some(cal) = self.calibrator.as_mut() {
                let weight = self.health.calibration_weight(rail);
                cal.observe(rail.0, wire_len as u64, elapsed_ns as f64 / 1_000.0, weight);
                self.maybe_recalibrate();
            }
        }
        let completed = &mut self.scratch.completed;
        completed.clear();
        for run in message_runs(&keys) {
            let key = keys[run.start];
            let Some(sends) = self.conn_tx.get_mut(key.conn as usize) else {
                continue;
            };
            let Some(s) = sends.live_mut(key.msg_id) else {
                continue;
            };
            debug_assert!(s.items_outstanding >= run.len());
            s.items_outstanding -= run.len();
            if s.done || s.items_outstanding > 0 || s.segs_unconsumed > 0 {
                continue;
            }
            s.done = true;
            completed.push((s.id, key.conn));
            self.stats.msgs_sent += 1;
            // The payload goes with the slot now — unless we may have to
            // retransmit it (acked mode keeps both until the delivery
            // confirmation arrives).
            if s.settled(self.config.acked) {
                retire_send(sends, &mut self.send_ids, key.msg_id);
            }
        }
        // The rail's list for the next aggregate, if this one is longer.
        let spare = &mut self.scratch.keys[rail.0];
        if keys.capacity() > spare.capacity() {
            keys.clear();
            *spare = keys;
        }
        Ok(&self.scratch.completed)
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Process one incoming scatter-gather frame from `rail` without
    /// flattening it: payload slices flow into reassembly refcounted.
    /// What the frame did is lent out of the engine: the next call
    /// overwrites it.
    pub fn on_frame(
        &mut self,
        rail: RailId,
        frame: &PacketFrame,
    ) -> Result<&OnPacketOutcome, EngineError> {
        // The entry list and the outcome are the engine's, lent to this
        // frame and kept, cleared, for the next.
        let mut entries = std::mem::take(&mut self.scratch.entries);
        let mut out = std::mem::take(&mut self.scratch.received);
        out.clear();
        let taken = self.take_apart(rail, frame, &mut entries, &mut out);
        entries.clear();
        self.scratch.entries = entries;
        self.scratch.received = out;
        taken.map(|()| &self.scratch.received)
    }

    /// [`Self::on_frame`] with the lists it lends.
    fn take_apart(
        &mut self,
        rail: RailId,
        frame: &PacketFrame,
        entries: &mut Vec<AggregateEntry>,
        out: &mut OnPacketOutcome,
    ) -> Result<(), EngineError> {
        let (env, packet, straddle_copied) = frame.decode_with(entries)?;
        let rs = &mut self.stats.rails[rail.0];
        rs.rx_packets += 1;
        rs.rx_wire_bytes += frame.wire_len() as u64;
        self.obs.record(
            Event::new(self.now_ns, EventKind::Rx)
                .rail(rail.0)
                .size(frame.wire_len() as u64),
        );
        // (A chunk's bytes are booked when its segment is whole: only
        // then is it known whether they were ever copied.)
        let data_len: usize = match &packet {
            Some(Packet::Eager(e)) => e.data.len(),
            Some(Packet::SamplePing(s) | Packet::SamplePong(s)) => s.data.len(),
            Some(_) => 0,
            None => entries.iter().map(|e| e.data.len()).sum(),
        };
        self.stats.datapath.rx_copy_bytes += straddle_copied as u64;
        self.stats.datapath.rx_zero_copy_bytes += data_len.saturating_sub(straddle_copied) as u64;
        match packet {
            None => self.handle_aggregate_entries(rail, entries, out),
            Some(pkt) => self.handle_packet(rail, env, pkt, out),
        }
    }

    /// The entries of an aggregate, a run of one message's at a time: the
    /// connection and the message are looked up once per run.
    fn handle_aggregate_entries(
        &mut self,
        rail: RailId,
        entries: &mut [AggregateEntry],
        out: &mut OnPacketOutcome,
    ) -> Result<(), EngineError> {
        let mut at = 0;
        while let Some(first) = entries.get(at) {
            let (conn, msg_id) = (first.conn_id, first.msg_id);
            if self.drop_duplicate(conn, rail, msg_id, out)? {
                at += 1;
                continue;
            }
            let (taken, done) = self.insert_eager_tolerant(conn, &mut entries[at..])?;
            at += taken;
            self.settle_completion(conn, rail, msg_id, done, out);
        }
        Ok(())
    }

    fn handle_packet(
        &mut self,
        rail: RailId,
        env: Envelope,
        pkt: Packet,
        out: &mut OnPacketOutcome,
    ) -> Result<(), EngineError> {
        match pkt {
            Packet::Eager(p) => {
                if self.drop_duplicate(env.conn_id, rail, p.msg_id, out)? {
                    return Ok(());
                }
                let mut one = [AggregateEntry {
                    conn_id: env.conn_id,
                    msg_id: p.msg_id,
                    seg_index: p.seg_index,
                    total_segs: p.total_segs,
                    data: p.data,
                }];
                let (_, done) = self.insert_eager_tolerant(env.conn_id, &mut one)?;
                self.settle_completion(env.conn_id, rail, p.msg_id, done, out);
            }
            Packet::Aggregate(body) => {
                // Frames decode aggregates straight to entries; this arm
                // only serves packets built in memory.
                let mut entries = parse_aggregate(&body)?;
                self.handle_aggregate_entries(rail, &mut entries, out)?;
            }
            Packet::Chunk(p) => {
                if self.drop_duplicate(env.conn_id, rail, p.msg_id, out)? {
                    return Ok(());
                }
                let msg_id = p.msg_id;
                let done = self.insert_chunk_tolerant(env.conn_id, p)?;
                self.settle_completion(env.conn_id, rail, msg_id, done, out);
            }
            Packet::RdvRequest(p) => {
                // A rendezvous for a message we already delivered means the
                // sender lost our ack: answer with the ack, not a grant.
                if self.drop_duplicate(env.conn_id, rail, p.msg_id, out)? {
                    return Ok(());
                }
                // Flow control: the whole point of the rendezvous track is
                // that large data only moves once the receiver is ready.
                // Grant immediately when the matching receive is already
                // posted (its msg_id is below the in-order match counter);
                // otherwise park the request until `post_recv` matches it.
                let rx = self.rx_conn(env.conn_id)?;
                if p.msg_id < rx.next_match {
                    // Answer over the rail the request arrived on: it
                    // demonstrably works, which matters mid-outage.
                    self.control_q.push_back((
                        env.conn_id,
                        Packet::RdvAck(RdvAck {
                            msg_id: p.msg_id,
                            seg_index: p.seg_index,
                        }),
                        Some(rail),
                    ));
                    out.control_enqueued = true;
                } else {
                    rx.pending_rdv.push((p.msg_id, p.seg_index, rail));
                }
            }
            Packet::RdvAck(p) => {
                let key = SegKey {
                    conn: env.conn_id,
                    msg_id: p.msg_id,
                    seg_index: p.seg_index,
                };
                if self.backlog.grant(key) {
                    out.granted = true;
                } else if self.config.acked {
                    // A duplicated or stale grant: a retransmitted request
                    // can be answered twice, or the answer can outlive the
                    // message it granted. Carries no work.
                    self.stats.duplicates_dropped += 1;
                } else {
                    return Err(EngineError::UnknownRendezvous {
                        msg_id: p.msg_id,
                        seg_index: p.seg_index,
                    });
                }
            }
            Packet::Ack(p) => self.handle_ack(rail, env.conn_id, p.msg_id),
            Packet::SamplePing(p) => {
                // Echo back for RTT sampling. Health probes (high bit set)
                // must return on the rail under test, so their pong is
                // pinned to the arrival rail.
                let pin = (p.probe_id & PROBE_BIT != 0).then_some(rail);
                self.control_q.push_back((
                    env.conn_id,
                    Packet::SamplePong(SamplePacket {
                        probe_id: p.probe_id,
                        data: p.data,
                    }),
                    pin,
                ));
                out.control_enqueued = true;
            }
            Packet::SamplePong(p) => {
                if p.probe_id & PROBE_BIT != 0 {
                    // A health probe came home: the probed rail is alive.
                    if let Some((r, sent_ns)) = self.probe_sent.retire(p.probe_id & !PROBE_BIT) {
                        let rtt = self.now_ns.saturating_sub(sent_ns);
                        self.health.note_ok(RailId(r), self.now_ns);
                        self.stats.rails[r].rtt_ns.record(rtt);
                        self.obs.record(
                            Event::new(self.now_ns, EventKind::ProbeOk)
                                .rail(r)
                                .seq(p.probe_id & !PROBE_BIT)
                                .aux(rtt),
                        );
                        let t = self.health.on_probe_ok(RailId(r), rtt, self.now_ns);
                        self.note_transition(t);
                    }
                } else {
                    out.sample_pongs.push((p.probe_id, p.data.len()));
                }
            }
        }
        Ok(())
    }

    /// The peer confirmed delivery of `msg_id` (acked mode).
    fn handle_ack(&mut self, rail: RailId, conn: ConnId, msg_id: MsgId) {
        self.stats.acks_received += 1;
        // The rail the ack itself rode is alive right now.
        self.health.note_ok(rail, self.now_ns);
        let now = self.now_ns;
        let Some(slot) = self.send_slot(conn, msg_id) else {
            // Long confirmed (a retransmission's second ack) or never sent.
            return;
        };
        let attempt = slot.attempt.take();
        let bytes: u64 = slot.data.iter().map(|b| b.len() as u64).sum();
        // Feed the health tracker: the ack proves every rail the current
        // attempt used is alive. Karn's rule: only a never-retransmitted
        // attempt yields an RTT sample.
        if let Some(att) = attempt {
            let rtt = now.saturating_sub(att.started_ns);
            self.stats.ack_rtt_ns.record(rtt);
            self.obs.record(
                Event::new(now, EventKind::AckReceived)
                    .rail(rail.0)
                    .seq(msg_id)
                    .aux(rtt),
            );
            for r in rails_of(att.rails_used) {
                // A per-message ack is coarse evidence: it cannot say
                // WHICH rail delivered. Enough to exonerate a rail still
                // in service, not to reinstate a Down one — the attempt
                // may have succeeded entirely over the survivors.
                // Reinstatement requires a rail-pinned probe pong.
                if !self.health.usable(RailId(r)) {
                    continue;
                }
                self.health.note_ok(RailId(r), now);
                let t = if att.retransmitted {
                    self.health.on_success(RailId(r), now)
                } else {
                    self.stats.rails[r].rtt_ns.record(rtt);
                    self.obs.record(
                        Event::new(now, EventKind::RttSample)
                            .rail(r)
                            .seq(msg_id)
                            .aux(rtt),
                    );
                    self.health.on_rtt_sample(RailId(r), rtt, now)
                };
                self.note_transition(t);
            }
            // A single-rail attempt doubles as a calibration sample: rtt/2
            // approximates the one-way time of the whole message on that
            // rail. Multi-rail attempts are skipped — a per-message ack
            // cannot apportion the time between rails.
            if !att.retransmitted && att.rails_used.count_ones() == 1 && bytes > 0 {
                let r = att.rails_used.trailing_zeros() as usize;
                if let Some(cal) = self.calibrator.as_mut() {
                    let w = self.health.calibration_weight(RailId(r));
                    cal.observe(r, bytes, rtt as f64 / 2_000.0, w);
                    self.maybe_recalibrate();
                }
            }
        }
        let Some(slot) = self.send_slot(conn, msg_id).filter(|s| !s.acked) else {
            return;
        };
        // Confirmed: the retransmission copy can go, and any queued
        // re-send of this message is now pointless (a lost ack may have
        // triggered a retransmission that the receiver already answered).
        slot.acked = true;
        slot.data = Vec::new();
        slot.segs_unconsumed = 0;
        if !slot.done && slot.items_outstanding == 0 {
            slot.done = true;
            self.stats.msgs_sent += 1;
        }
        self.backlog.remove_msg(conn, msg_id);
        self.retire_if_settled(conn, msg_id);
    }

    /// Acked-mode duplicate tolerance: a payload packet for an
    /// already-delivered message is dropped and re-acknowledged (the
    /// original ack may have been lost). Returns true when the packet was
    /// consumed here.
    fn drop_duplicate(
        &mut self,
        conn: ConnId,
        rail: RailId,
        msg_id: MsgId,
        out: &mut OnPacketOutcome,
    ) -> Result<bool, EngineError> {
        if !self.config.acked || !self.rx_conn(conn)?.msgs.delivered(msg_id) {
            return Ok(false);
        }
        self.stats.duplicates_dropped += 1;
        self.control_q
            .push_back((conn, Packet::Ack(AckPacket { msg_id }), Some(rail)));
        self.stats.acks_sent += 1;
        out.control_enqueued = true;
        Ok(true)
    }

    /// Re-enqueue an unacknowledged message for transmission (acked mode).
    ///
    /// Callers (a runtime's retransmission timer, or a recovery loop)
    /// should invoke this only after a timeout. Returns false when the
    /// message is already acknowledged, still has injections in flight,
    /// or its payload is gone.
    pub fn retransmit(&mut self, id: SendId) -> bool {
        assert!(self.config.acked, "retransmission requires acked mode");
        let Some(&(conn, msg_id)) = self.send_ids.live(id.0) else {
            return false;
        };
        let Some(st) = self.conn_tx[conn as usize].live_mut(msg_id) else {
            return false;
        };
        // Acknowledged (its payload is gone with the ack), or injections
        // still in flight: wait for them.
        if st.acked || st.items_outstanding > 0 || st.data.is_empty() {
            return false;
        }
        // Drop any stale waiting pieces (e.g. a rendezvous stuck without a
        // grant because the request was lost) and start over. Only the
        // segment lengths matter here: the payload handles stay where
        // they are until the segments are actually scheduled.
        self.backlog.remove_msg(conn, msg_id);
        st.done = false;
        st.segs_unconsumed = st.data.len();
        enqueue_segments(
            &mut self.backlog,
            &mut self.control_q,
            self.config.rdv_threshold,
            (conn, msg_id),
            st.data.iter().map(Bytes::len),
        );
        self.stats.retransmits += 1;
        // Blame the rails that plausibly lost the expired attempt, each
        // in its `retransmits_blamed`, so telemetry can attribute the
        // storm per rail (a drop storm on the second rail of a split
        // attempt must show up in *that* rail's window, not the first
        // rail's). Rails with positive evidence
        // newer than the attempt are exonerated, mirroring the timeout
        // path; when everything was exonerated (or nothing was used yet,
        // e.g. a lost rendezvous request before any data went out), fall
        // back to all used rails. The event carries the full blame set as
        // a bitmask in `size` (unused for Retransmit) plus the first
        // blamed rail in `rail` for single-rail consumers.
        let mut ev = Event::new(self.now_ns, EventKind::Retransmit).seq(msg_id);
        if let Some(att) = &mut st.attempt {
            ev = ev.aux(att.rto_ns);
            let blamed = match att.suspects(&self.health) {
                0 => att.rails_used,
                suspects => suspects,
            };
            if blamed != 0 {
                ev = ev.rail(blamed.trailing_zeros() as usize).size(blamed);
            }
            for r in rails_of(blamed) {
                self.stats.rails[r].retransmits_blamed += 1;
            }
            // Restart the attempt: Karn's rule forbids RTT samples from
            // now on, and the timer re-arms from scratch.
            att.retransmitted = true;
            att.started_ns = self.now_ns;
            att.deadline_ns = self.now_ns.saturating_add(att.rto_ns);
            att.rails_used = 0;
        }
        self.obs.record(ev);
        true
    }

    // ------------------------------------------------------------------
    // Fault tolerance: timers, health, probes
    // ------------------------------------------------------------------

    /// Advance the engine clock and run everything time-based: fire
    /// retransmission timeouts (adaptive RTO with exponential backoff),
    /// blame the rails an expired attempt used, take failed rails out of
    /// service, and issue/expire reinstatement probes.
    ///
    /// Runtimes should call this whenever they drive the engine, passing a
    /// monotonic clock in nanoseconds (wall clock for threads, virtual
    /// time for the simulator). Without `progress` the engine behaves
    /// exactly as before: no timers, no probes, caller-driven recovery.
    pub fn progress(&mut self, now_ns: u64) -> ProgressOutcome {
        self.now_ns = self.now_ns.max(now_ns);
        let now = self.now_ns;
        let mut out = ProgressOutcome::default();
        // Expired attempts, in the order their sends were submitted
        // (nothing is collected while none is due, and without acks no
        // send has a timer to look at).
        let handles = self.config.acked.then(|| self.send_ids.iter());
        let due: Vec<(SendId, ConnId, MsgId)> = handles
            .into_iter()
            .flatten()
            .filter(|&(_, &(conn, msg))| {
                let slot = self.conn_tx[conn as usize].live(msg);
                slot.and_then(|s| s.attempt.as_ref())
                    .is_some_and(|a| now >= a.deadline_ns)
            })
            .map(|(id, &(conn, msg))| (SendId(id), conn, msg))
            .collect();
        // Several attempts expiring in the same pass are correlated
        // evidence, not independent failures: blame each rail at most
        // once per pass, or a burst of in-flight messages lost to one
        // dead rail would condemn the healthy survivors alongside it.
        let mut blamed_this_pass = 0u64;
        for (id, conn, msg_id) in due {
            // Injections still in flight, or schedulable segments
            // still queued behind other traffic: the attempt is
            // waiting on the local scheduler, not the network — push
            // the deadline out without blame or backoff. A message
            // parked in the rendezvous handshake (RdvRequested, not
            // yet granted) does NOT defer: a lost request or grant is
            // exactly what the timer must catch.
            let mine = |k: &SegKey| k.conn == conn && k.msg_id == msg_id;
            let queued = self.backlog.eager_items().any(|i| mine(&i.key))
                || self.backlog.granted_items().any(|i| mine(&i.key));
            let max_rto_ns = self.config.health.max_rto_ns;
            let Some(slot) = self.conn_tx[conn as usize].live_mut(msg_id) else {
                continue;
            };
            let outstanding = slot.items_outstanding > 0;
            let Some(att) = &mut slot.attempt else {
                continue;
            };
            if outstanding || queued {
                att.deadline_ns = now.saturating_add(att.rto_ns);
                continue;
            }
            // Blame every rail the attempt used (with per-message acks
            // we cannot tell which rail lost the packet) — except
            // rails with positive evidence newer than the attempt: a
            // rail that delivered an ack since this attempt started is
            // almost certainly not the one that lost its packets.
            // Probes sort out any remaining innocents quickly.
            let blamed = att.suspects(&self.health);
            att.rto_ns = (att.rto_ns * 2).min(max_rto_ns);
            self.stats.obs.rto_ns.record(att.rto_ns);
            for r in rails_of(blamed) {
                self.stats.rails[r].timeouts += 1;
                self.obs
                    .record(Event::new(now, EventKind::TimeoutBlame).rail(r).seq(msg_id));
                if blamed_this_pass >> r & 1 == 0 {
                    blamed_this_pass |= 1 << r;
                    let t = self.health.on_timeout(RailId(r), now);
                    self.note_transition(t);
                }
            }
            if self.retransmit(id) {
                out.retransmitted.push(id);
            } else if let Some(att) = self
                .send_slot(conn, msg_id)
                .and_then(|s| s.attempt.as_mut())
            {
                // Not retransmittable right now (e.g. already acked
                // but not yet reaped): re-arm quietly.
                att.deadline_ns = now.saturating_add(att.rto_ns);
            }
        }
        // Probe management is independent of acked mode: any engine with a
        // connection can check its rails (on its first one).
        if !self.conn_tx.is_empty() {
            let conn: ConnId = 0;
            for r in 0..self.rails.len() {
                if self.health.probe_due(RailId(r), now) {
                    let probe = self.probe_sent.push((r, now));
                    self.control_q.push_back((
                        conn,
                        Packet::SamplePing(SamplePacket {
                            probe_id: PROBE_BIT | probe,
                            data: Bytes::new(),
                        }),
                        Some(RailId(r)),
                    ));
                    self.stats.rails[r].probes_sent += 1;
                    self.obs
                        .record(Event::new(now, EventKind::ProbeSent).rail(r).seq(probe));
                    let t = self.health.on_probe_sent(RailId(r), now);
                    self.note_transition(t);
                    out.control_enqueued = true;
                } else if self.health.probe_expired(RailId(r), now) {
                    self.stats.rails[r].timeouts += 1;
                    self.obs
                        .record(Event::new(now, EventKind::ProbeTimeout).rail(r));
                    let t = self.health.on_probe_timeout(RailId(r), now);
                    self.note_transition(t);
                }
            }
        }
        self.fold_telemetry();
        out
    }

    /// Earliest future instant at which [`Engine::progress`] has work to
    /// do (a retransmission deadline or a probe timer), if any. Runtimes
    /// use this to size their idle sleeps.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        // (Without acks no send has a timer.)
        let timed = self.config.acked.then(|| self.send_slots());
        let attempts = timed
            .into_iter()
            .flatten()
            .filter_map(|s| s.attempt.as_ref().map(|a| a.deadline_ns));
        let probes = (0..self.rails.len()).filter_map(|r| self.health.next_event_ns(RailId(r)));
        attempts.chain(probes).min()
    }

    /// Rebuild the live split tables when the calibrator's cadence is due.
    /// Records one `Calibrate` event per rail carrying the rail's
    /// reference-size split share before (`size`) and after (`aux`) the
    /// rebuild, in permille. The next `next_tx` strategy call sees the new
    /// tables — `StrategyCtx` borrows them per decision.
    fn maybe_recalibrate(&mut self) {
        let Some(cal) = self.calibrator.as_mut().filter(|cal| cal.due()) else {
            return;
        };
        let share = |tables: &[PerfTable]| {
            let refs: Vec<&PerfTable> = tables.iter().collect();
            split_ratio_permille(&refs, REFERENCE_SIZE)
        };
        let old = share(&self.tables);
        let tables = cal.rebuild();
        let ordinal = cal.rebuilds();
        let new = share(&tables);
        for r in 0..tables.len() {
            self.obs.record(
                Event::new(self.now_ns, EventKind::Calibrate)
                    .rail(r)
                    .seq(ordinal)
                    .size(u64::from(old[r]))
                    .aux(u64::from(new[r])),
            );
        }
        self.tables = tables;
    }

    /// Record a health transition in the stats and, when a rail went
    /// down, move its pending planned chunks to the surviving rails.
    fn note_transition(&mut self, t: Option<Transition>) {
        let Some(t) = t else { return };
        self.stats.rails[t.rail.0].state_transitions += 1;
        self.obs.record(
            Event::new(self.now_ns, EventKind::HealthTransition)
                .rail(t.rail.0)
                .aux(t.to.index() as u64),
        );
        if t.to == RailState::Down {
            if let Some(cal) = self.calibrator.as_mut() {
                // Decay the failed rail's table toward "slow": on
                // reinstatement it re-earns its byte share through fresh
                // samples instead of instantly reclaiming its pre-failure
                // split.
                cal.penalize(t.rail.0);
            }
            let survivors: Vec<usize> = (0..self.rails.len())
                .filter(|&r| self.health.usable(RailId(r)))
                .collect();
            if !survivors.is_empty() {
                self.backlog.reassign_rail(t.rail.0, &survivors);
                self.stats.rails[t.rail.0].failovers += 1;
                self.obs.record(
                    Event::new(self.now_ns, EventKind::Failover)
                        .rail(t.rail.0)
                        .aux(survivors.len() as u64),
                );
            }
        }
    }

    /// Per-rail health records.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// Current state of every rail.
    pub fn rail_states(&self) -> Vec<RailState> {
        self.health.states()
    }

    /// Errors a retransmission attempt can legitimately provoke against
    /// leftover partial state from a lost earlier attempt.
    fn is_retry_conflict(e: &ReasmError) -> bool {
        matches!(
            e,
            ReasmError::DuplicateSegment { .. }
                | ReasmError::OverlappingChunk { .. }
                | ReasmError::MixedDelivery { .. }
                | ReasmError::LengthMismatch { .. }
        )
    }

    /// Insert the whole segments at the front of `entries` that are one
    /// message's (see [`Reassembler::insert_eager_run`]; at least one is
    /// taken), tolerating conflicts with a previous delivery attempt in
    /// acked mode: the stale partial message state is aborted and the
    /// insert retried once on fresh state. Nothing is cloned for the
    /// retry: a segment that is refused stays in its entry. When the
    /// message completed, says which receive (if any) it was matched to.
    fn insert_eager_tolerant(
        &mut self,
        conn: ConnId,
        entries: &mut [AggregateEntry],
    ) -> Result<(usize, Option<Option<RecvId>>), EngineError> {
        let acked = self.config.acked;
        let rx = self.conn_rx.get_mut(conn as usize);
        let reasm = &mut rx.ok_or(EngineError::UnknownConnection(conn))?.msgs;
        let (mut at, mut retried) = (0, None);
        loop {
            let (taken, done) = reasm.insert_eager_run(&mut entries[at..]);
            at += taken;
            match done {
                Ok(done) => return Ok((at, done)),
                Err(e) if acked && Self::is_retry_conflict(&e) && retried != Some(at) => {
                    reasm.abort(entries[at].msg_id);
                    self.stats.duplicates_dropped += 1;
                    retried = Some(at);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Chunk counterpart of [`Self::insert_eager_tolerant`]. Unlike the
    /// eager case, a conflicting chunk must NOT abort the partial message:
    /// retransmissions re-chunk the whole message, so their chunk
    /// boundaries routinely straddle data that survived the earlier
    /// attempt. The lenient insert trims the overlap and keeps everything
    /// already received.
    ///
    /// The chunk goes in as the `Bytes` it arrived in (reassembly is by
    /// reference); a segment this one makes whole is booked as zero-copy
    /// when its chunks re-joined into one allocation and as copied when
    /// they had to be gathered.
    fn insert_chunk_tolerant(
        &mut self,
        conn: ConnId,
        p: ChunkPacket,
    ) -> Result<Option<Option<RecvId>>, EngineError> {
        let acked = self.config.acked;
        let reasm = &mut self.rx_conn(conn)?.msgs;
        let (joined, gathered) = (reasm.joined_bytes(), reasm.gathered_bytes());
        let mut duplicate = false;
        let done = if acked {
            let (done, new_bytes) = reasm.insert_chunk_lenient(
                p.msg_id,
                p.seg_index,
                p.total_segs,
                p.offset,
                p.total_len,
                p.data,
            )?;
            duplicate = new_bytes == 0;
            done
        } else {
            reasm.insert_chunk(
                p.msg_id,
                p.seg_index,
                p.total_segs,
                p.offset,
                p.total_len,
                p.data,
            )?
        };
        let (joined, gathered) = (
            reasm.joined_bytes() - joined,
            reasm.gathered_bytes() - gathered,
        );
        self.stats.datapath.rx_zero_copy_bytes += joined;
        self.stats.datapath.rx_copy_bytes += gathered;
        self.stats.duplicates_dropped += u64::from(duplicate);
        Ok(done)
    }

    fn rx_conn(&mut self, conn: ConnId) -> Result<&mut ConnRx, EngineError> {
        self.conn_rx
            .get_mut(conn as usize)
            .ok_or(EngineError::UnknownConnection(conn))
    }

    /// Message `msg_id` of `conn` completed when `done` says so, matched
    /// to the receive in it (if one is posted yet); the message waits in
    /// its slot until `try_recv` takes it.
    fn settle_completion(
        &mut self,
        conn: ConnId,
        rail: RailId,
        msg_id: MsgId,
        done: Option<Option<RecvId>>,
        out: &mut OnPacketOutcome,
    ) {
        let Some(posted) = done else { return };
        self.stats.msgs_received += 1;
        if self.config.acked {
            // The ack rides the rail the completing packet arrived on — a
            // path the sender is actively using and watching.
            self.control_q
                .push_back((conn, Packet::Ack(AckPacket { msg_id }), Some(rail)));
            self.stats.acks_sent += 1;
            self.obs.record(
                Event::new(self.now_ns, EventKind::AckSent)
                    .rail(rail.0)
                    .seq(msg_id),
            );
            out.control_enqueued = true;
        }
        out.completed_recvs.extend(posted);
    }
}

/// The engine's rails as a decision reads them: each rail's slot, its
/// health, its wire counter and its service-time EWMA, read where they
/// live when asked.
struct EngineRails<'a> {
    in_flight: &'a [Option<InFlightTx>],
    health: &'a HealthTracker,
    stats: &'a EngineStats,
    ewma_service_ns: &'a [u64],
}

impl RailView for EngineRails<'_> {
    fn ok(&self, rail: RailId) -> bool {
        self.health.usable(rail)
    }

    fn busy(&self, rail: RailId) -> bool {
        self.in_flight[rail.0].is_some()
    }

    fn flight(&self, rail: RailId) -> RailFlight {
        // Control frames are excluded: strategies reason about where
        // payload bytes are.
        let data = self.in_flight[rail.0].as_ref().filter(|tx| !tx.control);
        RailFlight {
            inflight: data.is_some() as u32,
            inflight_bytes: data.map_or(0, |tx| tx.wire_len as u64),
            oldest_post_ns: data.map_or(0, |tx| tx.posted_ns),
            sent_bytes: self.stats.rails[rail.0].wire_bytes,
            ewma_service_ns: self.ewma_service_ns[rail.0],
        }
    }
}

/// The keys of a frame a message at a time: the positions of each run of
/// consecutive keys of one message, so that its send slot is looked up
/// once per run, not once per key.
fn message_runs(keys: &KeyList) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        let first = keys.get(at)?;
        let end = (at + 1..keys.len())
            .find(|&i| (keys[i].conn, keys[i].msg_id) != (first.conn, first.msg_id))
            .unwrap_or(keys.len());
        Some(std::mem::replace(&mut at, end)..end)
    })
}

/// Put the segments of message `(conn, msg_id)`, given by their lengths in
/// order, into the backlog: eager ones ready to go, large ones behind a
/// rendezvous request.
fn enqueue_segments(
    backlog: &mut Backlog,
    control_q: &mut VecDeque<(ConnId, Packet, Option<RailId>)>,
    rdv_threshold: usize,
    (conn, msg_id): (ConnId, MsgId),
    seg_lens: impl ExactSizeIterator<Item = usize>,
) {
    let total_segs = seg_lens.len() as u16;
    for (i, len) in seg_lens.enumerate() {
        let seg_index = i as u16;
        let key = SegKey {
            conn,
            msg_id,
            seg_index,
        };
        let total_len = len as u64;
        if len >= rdv_threshold {
            // Rendezvous track: announce and wait for the grant.
            backlog.push(key, total_segs, total_len, SegPhase::RdvRequested);
            let request = RdvRequest {
                msg_id,
                seg_index,
                total_segs,
                total_len,
            };
            control_q.push_back((conn, Packet::RdvRequest(request), None));
        } else {
            backlog.push(key, total_segs, total_len, SegPhase::EagerReady);
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Leak ledger: every pooled buffer taken must be either reclaimed
        // or in the custody of an in-flight frame. Anything else is a
        // buffer the engine lost track of — fail loudly in debug builds
        // (release builds keep drop infallible). Skipped when the thread
        // is already panicking: a second panic would abort.
        if std::thread::panicking() {
            return;
        }
        debug_assert_eq!(
            self.pool_leaks(),
            0,
            "pool leak at engine drop: {} buffer(s) outstanding beyond in-flight custody \
             (outstanding={}, in_flight={})",
            self.pool_leaks(),
            self.stats.datapath.pool_outstanding,
            self.in_flight.iter().flatten().count(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;
    use nmad_model::platform;

    fn engine(kind: StrategyKind) -> Engine {
        let p = platform::paper_platform();
        Engine::new(EngineConfig::with_strategy(kind), p.rails, vec![])
    }

    /// Drive a sender/receiver engine pair until quiescent, with no timing:
    /// round-robin rails, deliver instantly. Returns wire packets seen.
    fn pump(tx: &mut Engine, rx: &mut Engine) -> usize {
        pump_as(tx, rx, |frame| frame)
    }

    /// [`pump`] with every frame delivered as `wire` makes it arrive.
    fn pump_as(
        tx: &mut Engine,
        rx: &mut Engine,
        wire: impl Fn(PacketFrame) -> PacketFrame,
    ) -> usize {
        let mut delivered = 0;
        for _ in 0..10_000 {
            let mut progressed = false;
            for dir in 0..2 {
                let (a, b) = if dir == 0 {
                    (&mut *tx, &mut *rx)
                } else {
                    (&mut *rx, &mut *tx)
                };
                for r in 0..a.rails().len() {
                    let rail = RailId(r);
                    if let Some(d) = a.next_tx(rail).unwrap() {
                        progressed = true;
                        delivered += 1;
                        a.on_tx_done(rail, d.token).unwrap();
                        b.on_frame(rail, &wire(d.frame)).unwrap();
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        delivered
    }

    fn payload(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    use proptest::prelude::{any, prop_assert_eq, proptest, ProptestConfig};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The answer for a lone eager segment, given without a context,
        /// is the one the pipeline gives with one: every preset, rails
        /// of tied and of distinct latency, earlier frames sent and still
        /// in flight on some of them.
        #[test]
        fn the_lone_eager_answer_is_the_pipelines(
            tied in any::<bool>(),
            count in 2usize..4,
            earlier in proptest::collection::vec((0usize..3, 1usize..12_000, any::<bool>()), 0..6),
            size in 0usize..12_000,
        ) {
            let nics = [platform::myri_10g(), platform::quadrics_qm500(), platform::gige()];
            let rails: Vec<NicModel> = (0..count)
                .map(|i| if tied { platform::quadrics_qm500() } else { nics[i].clone() })
                .collect();
            for kind in StrategyKind::zoo() {
                let mut e = Engine::new(EngineConfig::with_strategy(kind), rails.clone(), vec![]);
                let conn = e.conn_open();
                // Earlier frames: each sent on the rail it names, and
                // either done or left in flight there.
                let mut in_flight = Vec::new();
                for &(rail, len, done) in &earlier {
                    let rail = RailId(rail % count);
                    e.submit_send(conn, vec![payload(len, 1)]);
                    if let Some(d) = e.next_tx(rail).expect("next_tx") {
                        match done {
                            true => drop(e.on_tx_done(rail, d.token).expect("token")),
                            false => in_flight.push(d),
                        }
                    }
                }
                e.submit_send(conn, vec![payload(size, 2)]);
                if e.backlog.lone_eager().is_none() {
                    continue;
                }
                let idle: Vec<RailId> =
                    (0..count).map(RailId).filter(|&r| !e.rail_busy(r)).collect();
                for rail in idle {
                    let fast = e.lone_eager(rail);
                    match kind {
                        StrategyKind::StaticRoundRobin => prop_assert_eq!(fast, None),
                        _ => prop_assert_eq!(fast, Some(e.pipeline(rail)), "{}", kind.label()),
                    }
                }
            }
        }
    }

    #[test]
    fn eager_message_end_to_end() {
        let mut tx = engine(StrategyKind::Greedy);
        let mut rx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        assert_eq!(c, rx.conn_open());
        let send = tx.submit_send(c, vec![payload(100, 0xAB)]);
        let recv = rx.post_recv(c);
        pump(&mut tx, &mut rx);
        assert!(tx.send_complete(send));
        let msg = rx.try_recv(recv).expect("message delivered");
        assert_eq!(msg.segments.len(), 1);
        assert_eq!(msg.segments[0], payload(100, 0xAB));
        assert!(tx.is_quiescent());
    }

    /// What may stay in the backlog while the rails count as busy, and
    /// which decisions make them so (DESIGN.md "The window").
    #[test]
    fn only_small_eager_work_can_wait_and_only_small_eager_frames_say_so() {
        let mut tx = engine(StrategyKind::AdaptiveSplit);
        let mut rx = engine(StrategyKind::AdaptiveSplit);
        let c = tx.conn_open();
        rx.conn_open();
        assert!(tx.tx_can_wait(), "nothing queued");

        // Small eager segments wait, until there is a frame's worth.
        let kib = || vec![payload(256, 1); 4];
        for _ in 0..15 {
            tx.submit_send(c, kib());
            assert!(tx.tx_can_wait());
        }
        tx.submit_send(c, kib());
        assert!(!tx.tx_can_wait(), "16 KiB make an aggregate");
        let fast = tx.next_tx(RailId(1)).unwrap().expect("an aggregate");
        assert!(fast.small_eager && !fast.control);
        tx.on_tx_done(RailId(1), fast.token).unwrap();
        assert!(tx.tx_can_wait(), "all sixteen left in it");

        // A medium eager segment does not wait, nor what shares the
        // backlog with it; its frame is not a small one.
        tx.submit_send(c, vec![payload(100, 2), payload(8 * 1024, 3)]);
        assert!(!tx.tx_can_wait());
        let medium = tx.next_tx(RailId(0)).unwrap().expect("the 8 KiB segment");
        assert!(!medium.small_eager);
        tx.on_tx_done(RailId(0), medium.token).unwrap();
        assert!(tx.tx_can_wait(), "the 100 B one is left");
        pump(&mut tx, &mut rx);

        // A rendezvous: its request is control, its granted segment
        // urgent, its chunks are not small eager frames.
        tx.submit_send(c, vec![payload(64 * 1024, 4)]);
        assert!(!tx.tx_can_wait(), "a request is queued");
        let request = tx.next_tx(RailId(0)).unwrap().expect("the request");
        assert!(request.control && !request.small_eager);
        tx.on_tx_done(RailId(0), request.token).unwrap();
        assert!(tx.tx_can_wait(), "waiting for the grant is not tx work");
        rx.on_frame(RailId(0), &request.frame).unwrap();
        // (The grant waits for the receive that matches the eighteenth
        // message.)
        for _ in 0..18 {
            rx.post_recv(c);
        }
        let grant = rx.next_tx(RailId(0)).unwrap().expect("the grant");
        tx.on_frame(RailId(0), &grant.frame).unwrap();
        assert!(!tx.tx_can_wait(), "a granted segment");
        let chunk = tx.next_tx(RailId(0)).unwrap().expect("a chunk");
        assert!(!chunk.small_eager && !chunk.control);

        // With acks a send's timer runs from its submission.
        let mut cfg = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
        cfg.acked = true;
        let mut acked = Engine::new(cfg, platform::paper_platform().rails, vec![]);
        let c = acked.conn_open();
        assert!(acked.tx_can_wait());
        acked.submit_send(c, kib());
        assert!(!acked.tx_can_wait());
    }

    #[test]
    fn large_message_rendezvous_end_to_end() {
        let mut tx = engine(StrategyKind::Greedy);
        let mut rx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        rx.conn_open();
        let data = payload(256 * 1024, 0x5A);
        let send = tx.submit_send(c, vec![data.clone()]);
        let recv = rx.post_recv(c);
        assert!(!tx.send_complete(send), "nothing sent before pumping");
        pump(&mut tx, &mut rx);
        assert!(tx.send_complete(send));
        let msg = rx.try_recv(recv).unwrap();
        assert_eq!(msg.segments[0], data);
        assert_eq!(tx.stats().rdv_handshakes, 1);
        assert!(tx.stats().chunks_sent >= 1);
    }

    #[test]
    fn adaptive_split_uses_both_rails_for_large() {
        let mut tx = engine(StrategyKind::AdaptiveSplit);
        let mut rx = engine(StrategyKind::AdaptiveSplit);
        let c = tx.conn_open();
        rx.conn_open();
        let data = payload(8 << 20, 0x77);
        let send = tx.submit_send(c, vec![data.clone()]);
        let recv = rx.post_recv(c);
        pump(&mut tx, &mut rx);
        assert!(tx.send_complete(send));
        assert_eq!(rx.try_recv(recv).unwrap().segments[0], data);
        let s = tx.stats();
        assert!(s.split_plans <= 1 || s.chunks_sent >= 2);
        assert!(
            s.rails[0].payload_bytes > 0 && s.rails[1].payload_bytes > 0,
            "both rails must carry payload: {:?}",
            s.rails
        );
        // Myri carries the major part (paper §3.4).
        assert!(s.rails[0].payload_bytes > s.rails[1].payload_bytes);
    }

    fn engine_with(max_tenant_inflight: usize, observe: Observe) -> Engine {
        let cfg = EngineConfig {
            max_tenant_inflight,
            observe,
            ..EngineConfig::with_strategy(StrategyKind::Greedy)
        };
        Engine::new(cfg, platform::paper_platform().rails, vec![])
    }

    /// Per-tenant admission: a tenant at its in-flight quota is refused,
    /// another is not, and local completion of its send returns the
    /// credit. `submit_send` asks nobody.
    #[test]
    fn tenant_admission_credits_on_completion() {
        let mut tx = engine_with(1, Observe::Off);
        let (c0, c1) = (tx.conn_open(), tx.conn_open());
        let one = tx.try_submit_send(c0, vec![payload(100, 1)]).unwrap();
        assert_eq!(
            tx.try_submit_send(c0, vec![payload(100, 2)]),
            Err(SubmitError::WouldBlock),
            "tenant 0 is at quota"
        );
        assert_eq!(tx.stats().overload.admission_rejections, 1);
        let backlog = tx.backlog.len();
        tx.try_submit_send(c1, vec![payload(100, 3)])
            .expect("tenant 1 has its own quota");
        assert_eq!(tx.backlog.len(), backlog + 1, "a refusal queues nothing");
        // Unacked: a send completes locally with its last `on_tx_done`.
        for r in [RailId(0), RailId(1)] {
            let d = tx.next_tx(r).unwrap().expect("one message a rail");
            tx.on_tx_done(r, d.token).unwrap();
        }
        assert!(tx.send_complete(one));
        tx.try_submit_send(c0, vec![payload(100, 4)])
            .expect("completion returns the credit");
        tx.submit_send(c0, vec![payload(100, 5)]);
        assert_eq!(tx.stats().overload.admission_rejections, 1);
    }

    /// Refusals reach the telemetry windows as the difference of the
    /// overload counters: what the watchdog's shed-onset rule counts.
    #[test]
    fn refusals_reach_the_window_as_counter_deltas() {
        let mut tx = engine_with(1, Observe::Watch { window_ns: 1_000 });
        let c = tx.conn_open();
        tx.progress(500);
        tx.try_submit_send(c, vec![payload(100, 1)]).unwrap();
        for _ in 0..1000 {
            assert!(tx.try_submit_send(c, vec![payload(100, 2)]).is_err());
        }
        assert_eq!(tx.refuse_shutdown(), SubmitError::Shutdown);
        tx.progress(1_500);
        let w = tx
            .telemetry()
            .and_then(|t| t.latest())
            .expect("a window closed");
        let ov = w.stats.overload;
        assert_eq!((ov.admission_rejections, ov.shutdown_rejections), (1000, 1));
        assert_eq!(w.stats.msgs_submitted, 1);
        tx.progress(2_500);
        let w = tx.telemetry().and_then(|t| t.latest()).unwrap();
        assert_eq!(w.stats.overload, Default::default(), "counted once");
    }

    #[test]
    fn aggregation_merges_small_messages() {
        let mut tx = engine(StrategyKind::AggregateEager);
        let mut rx = engine(StrategyKind::AggregateEager);
        let c = tx.conn_open();
        rx.conn_open();
        // Multi-segment message: 4 small segments submitted at once.
        let segs: Vec<Bytes> = (0..4u8).map(|i| payload(256, i)).collect();
        let send = tx.submit_send(c, segs.clone());
        let recv = rx.post_recv(c);
        pump(&mut tx, &mut rx);
        assert!(tx.send_complete(send));
        let msg = rx.try_recv(recv).unwrap();
        assert_eq!(msg.segments, segs);
        let s = tx.stats();
        assert_eq!(s.aggregates_built, 1, "all four segments in one packet");
        assert_eq!(s.segments_aggregated, 4);
        // Aggregate goes out on the lowest-latency rail: Quadrics (rail 1).
        assert_eq!(s.rails[1].packets, 1);
        assert_eq!(s.rails[0].packets, 0);
    }

    #[test]
    fn rendezvous_waits_for_posted_recv() {
        // Flow control: a large message submitted with no matching recv
        // must not move its payload; posting the recv releases the grant.
        let mut tx = engine(StrategyKind::Greedy);
        let mut rx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        rx.conn_open();
        let data = payload(256 * 1024, 0x42);
        let send = tx.submit_send(c, vec![data.clone()]);
        pump(&mut tx, &mut rx);
        assert!(
            !tx.send_complete(send),
            "payload must not move before the recv is posted"
        );
        assert_eq!(rx.stats().msgs_received, 0);
        // Posting the receive releases the parked grant.
        let recv = rx.post_recv(c);
        pump(&mut tx, &mut rx);
        assert!(tx.send_complete(send));
        assert_eq!(rx.try_recv(recv).unwrap().segments[0], data);
    }

    #[test]
    fn unexpected_message_then_recv() {
        let mut tx = engine(StrategyKind::Greedy);
        let mut rx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        rx.conn_open();
        tx.submit_send(c, vec![payload(64, 1)]);
        pump(&mut tx, &mut rx);
        // Message arrived before any recv was posted.
        let recv = rx.post_recv(c);
        let msg = rx.try_recv(recv).expect("matched from unexpected queue");
        assert_eq!(msg.segments[0], payload(64, 1));
    }

    #[test]
    fn in_order_matching_across_messages() {
        let mut tx = engine(StrategyKind::Greedy);
        let mut rx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        rx.conn_open();
        tx.submit_send(c, vec![payload(16, 1)]);
        tx.submit_send(c, vec![payload(16, 2)]);
        let r0 = rx.post_recv(c);
        let r1 = rx.post_recv(c);
        pump(&mut tx, &mut rx);
        assert_eq!(rx.try_recv(r0).unwrap().segments[0], payload(16, 1));
        assert_eq!(rx.try_recv(r1).unwrap().segments[0], payload(16, 2));
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_message_rejected() {
        let mut tx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        tx.submit_send(c, vec![]);
    }

    #[test]
    fn multiple_connections_are_isolated() {
        let mut tx = engine(StrategyKind::AggregateEager);
        let mut rx = engine(StrategyKind::AggregateEager);
        let c0 = tx.conn_open();
        let c1 = tx.conn_open();
        rx.conn_open();
        rx.conn_open();
        // Two small messages on different logical channels — aggregation
        // may merge them into one physical packet (paper §4).
        tx.submit_send(c0, vec![payload(32, 0xC0)]);
        tx.submit_send(c1, vec![payload(32, 0xC1)]);
        let r0 = rx.post_recv(c0);
        let r1 = rx.post_recv(c1);
        pump(&mut tx, &mut rx);
        assert_eq!(rx.try_recv(r0).unwrap().segments[0], payload(32, 0xC0));
        assert_eq!(rx.try_recv(r1).unwrap().segments[0], payload(32, 0xC1));
        assert_eq!(
            tx.stats().aggregates_built,
            1,
            "cross-channel aggregation must kick in"
        );
    }

    #[test]
    fn next_tx_on_busy_rail_returns_none() {
        let mut tx = engine(StrategyKind::Greedy);
        let mut rx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        rx.conn_open();
        tx.submit_send(c, vec![payload(64, 1), payload(64, 2)]);
        let d = tx.next_tx(RailId(0)).unwrap().expect("work available");
        assert!(tx.rail_busy(RailId(0)));
        assert!(tx.next_tx(RailId(0)).unwrap().is_none(), "rail is busy");
        // Other rail can still pull the second segment.
        assert!(tx.next_tx(RailId(1)).unwrap().is_some());
        tx.on_tx_done(RailId(0), d.token).unwrap();
        assert!(!tx.rail_busy(RailId(0)));
        let _ = rx;
    }

    #[test]
    fn bad_token_rejected() {
        let mut tx = engine(StrategyKind::Greedy);
        assert_eq!(
            tx.on_tx_done(RailId(0), TxToken(99)),
            Err(EngineError::BadToken(99))
        );
    }

    /// A completion reported on a rail other than the one the frame was
    /// posted on is refused, and neither rail changes: the posting rail
    /// still carries the frame, the told one stays as it was.
    #[test]
    fn completion_on_the_wrong_rail_rejected() {
        let mut tx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        let send = tx.submit_send(c, vec![payload(100, 1)]);
        let d = tx.next_tx(RailId(0)).unwrap().expect("a frame on rail 0");
        assert_eq!(
            tx.on_tx_done(RailId(1), d.token),
            Err(EngineError::BadToken(d.token.0))
        );
        assert!(tx.rail_busy(RailId(0)) && !tx.rail_busy(RailId(1)));
        assert!(!tx.send_complete(send), "the frame is not retired");
        // A frame on rail 1 too: its token is no good on rail 0 either.
        tx.submit_send(c, vec![payload(100, 2)]);
        let other = tx.next_tx(RailId(1)).unwrap().expect("a frame on rail 1");
        assert_eq!(
            tx.on_tx_done(RailId(0), other.token),
            Err(EngineError::BadToken(other.token.0))
        );
        assert!(tx.rail_busy(RailId(0)) && tx.rail_busy(RailId(1)));
        // Told on the right rails, both complete.
        tx.on_tx_done(RailId(0), d.token).unwrap();
        tx.on_tx_done(RailId(1), other.token).unwrap();
        assert!(tx.send_complete(send));
        assert!(!tx.rail_busy(RailId(0)) && !tx.rail_busy(RailId(1)));
    }

    #[test]
    fn corrupt_packet_surfaces_wire_error() {
        let mut rx = engine(StrategyKind::Greedy);
        rx.conn_open();
        let junk = PacketFrame::from_wire(Bytes::from_static(&[0xFF; 10]));
        let err = rx.on_frame(RailId(0), &junk).unwrap_err();
        assert!(matches!(err, EngineError::Wire(_)));
    }

    #[test]
    fn rdv_ack_for_unknown_segment_rejected() {
        let mut rx = engine(StrategyKind::Greedy);
        rx.conn_open();
        let ack = Packet::RdvAck(RdvAck {
            msg_id: 7,
            seg_index: 0,
        })
        .encode(0, 0, false);
        let err = rx
            .on_frame(RailId(0), &PacketFrame::from_wire(ack))
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownRendezvous { .. }));
    }

    #[test]
    fn sample_ping_echoes_pong() {
        let mut a = engine(StrategyKind::Greedy);
        let mut b = engine(StrategyKind::Greedy);
        let c = a.conn_open();
        b.conn_open();
        let ping = Packet::SamplePing(SamplePacket {
            probe_id: 42,
            data: payload(128, 0),
        })
        .encode(c, 0, false);
        let out = b
            .on_frame(RailId(0), &PacketFrame::from_wire(ping))
            .unwrap();
        assert!(out.control_enqueued);
        // B answers with a pong.
        let d = b.next_tx(RailId(0)).unwrap().expect("pong queued");
        b.on_tx_done(RailId(0), d.token).unwrap();
        let out = a.on_frame(RailId(0), &d.frame).unwrap();
        assert_eq!(out.sample_pongs, vec![(42, 128)]);
    }

    #[test]
    fn zero_byte_segment_delivered() {
        let mut tx = engine(StrategyKind::Greedy);
        let mut rx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        rx.conn_open();
        let send = tx.submit_send(c, vec![Bytes::new(), payload(8, 3)]);
        let recv = rx.post_recv(c);
        pump(&mut tx, &mut rx);
        assert!(tx.send_complete(send));
        let msg = rx.try_recv(recv).unwrap();
        assert_eq!(msg.segments[0].len(), 0);
        assert_eq!(msg.segments[1], payload(8, 3));
    }

    #[test]
    fn retransmit_recovers_a_lost_eager_packet() {
        let p = platform::paper_platform();
        let mut cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
        cfg.acked = true;
        let mut tx = Engine::new(cfg.clone(), p.rails.clone(), vec![]);
        let mut rx = Engine::new(cfg, p.rails, vec![]);
        let c = tx.conn_open();
        rx.conn_open();
        let send = tx.submit_send(c, vec![payload(2000, 7)]);
        let recv = rx.post_recv(c);

        // "Lose" the data packet: take the decision but never deliver it.
        let d = tx.next_tx(RailId(0)).unwrap().expect("data packet");
        tx.on_tx_done(RailId(0), d.token).unwrap();
        assert!(tx.send_complete(send));
        assert!(!tx.send_acked(send));

        // Timeout path: retransmit, then deliver normally.
        assert!(tx.retransmit(send), "retransmit must be accepted");
        assert!(!tx.send_complete(send), "completion reset until re-sent");
        pump(&mut tx, &mut rx);
        assert!(tx.send_acked(send), "second attempt must be confirmed");
        assert_eq!(tx.stats().retransmits, 1);
        let msg = rx.try_recv(recv).expect("delivered");
        assert_eq!(msg.segments[0], payload(2000, 7));
    }

    #[test]
    fn retransmit_blames_the_lossy_rail_of_a_split_attempt() {
        // A two-rail attempt where rail 0 demonstrably delivered (a later
        // ack rode it) and rail 1 dropped its packet: the Retransmit event
        // must blame rail 1 — not rail 0 just because it was used first.
        let p = platform::paper_platform();
        let mut cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
        cfg.acked = true;
        cfg.observe = Observe::Record { capacity: 256 };
        let mut tx = Engine::new(cfg.clone(), p.rails.clone(), vec![]);
        let mut rx = Engine::new(cfg, p.rails, vec![]);
        let c = tx.conn_open();
        rx.conn_open();
        tx.progress(1_000);
        rx.progress(1_000);

        // Message B: two eager segments, one per rail. Rail 0's frame is
        // delivered; rail 1's frame is lost.
        let send_b = tx.submit_send(c, vec![payload(2000, 1), payload(2000, 2)]);
        let recv_b = rx.post_recv(c);
        let d0 = tx.next_tx(RailId(0)).unwrap().expect("seg on rail 0");
        tx.on_tx_done(RailId(0), d0.token).unwrap();
        rx.on_frame(RailId(0), &d0.frame).unwrap();
        let d1 = tx.next_tx(RailId(1)).unwrap().expect("seg on rail 1");
        tx.on_tx_done(RailId(1), d1.token).unwrap();
        // (d1.frame dropped on the floor)
        assert!(tx.send_complete(send_b));
        assert!(!tx.send_acked(send_b));

        // Message A: delivered over rail 0 after B's attempt started, so
        // its ack is positive evidence exonerating rail 0.
        tx.progress(2_000);
        rx.progress(2_000);
        let send_a = tx.submit_send(c, vec![payload(64, 9)]);
        rx.post_recv(c);
        let da = tx.next_tx(RailId(0)).unwrap().expect("small on rail 0");
        tx.on_tx_done(RailId(0), da.token).unwrap();
        rx.on_frame(RailId(0), &da.frame).unwrap();
        let ack = rx.next_tx(RailId(0)).unwrap().expect("ack for A");
        rx.on_tx_done(RailId(0), ack.token).unwrap();
        tx.on_frame(RailId(0), &ack.frame).unwrap();
        assert!(tx.send_acked(send_a));

        // B's timer fires: the blame must land on rail 1 alone.
        tx.progress(3_000);
        assert!(tx.retransmit(send_b));
        let retx: Vec<Event> = tx
            .recorder()
            .iter()
            .filter(|e| e.kind == EventKind::Retransmit)
            .copied()
            .collect();
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].rail, 1, "blame the rail that lost the packet");
        assert_eq!(retx[0].size, 0b10, "mask holds only rail 1");
        let blamed: Vec<u64> = tx
            .stats()
            .rails
            .iter()
            .map(|r| r.retransmits_blamed)
            .collect();
        assert_eq!(blamed, [0, 1], "and so does its counter");

        // And the message still recovers.
        pump(&mut tx, &mut rx);
        assert!(tx.send_acked(send_b));
        assert!(rx.try_recv(recv_b).is_some());
    }

    #[test]
    fn retransmit_after_lost_ack_is_deduplicated() {
        let p = platform::paper_platform();
        let mut cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
        cfg.acked = true;
        let mut tx = Engine::new(cfg.clone(), p.rails.clone(), vec![]);
        let mut rx = Engine::new(cfg, p.rails, vec![]);
        let c = tx.conn_open();
        rx.conn_open();
        let send = tx.submit_send(c, vec![payload(128, 3)]);
        let recv = rx.post_recv(c);

        // Deliver the data packet but "lose" the ack.
        let d = tx.next_tx(RailId(0)).unwrap().unwrap();
        tx.on_tx_done(RailId(0), d.token).unwrap();
        rx.on_frame(RailId(0), &d.frame).unwrap();
        let ack = rx.next_tx(RailId(0)).unwrap().expect("ack queued");
        rx.on_tx_done(RailId(0), ack.token).unwrap();
        // (ack.wire dropped on the floor)
        assert!(!tx.send_acked(send));
        assert!(rx.try_recv(recv).is_some(), "receiver has the message");

        // Sender retransmits; receiver must drop the duplicate and re-ack.
        assert!(tx.retransmit(send));
        pump(&mut tx, &mut rx);
        assert!(tx.send_acked(send));
        assert_eq!(rx.stats().duplicates_dropped, 1);
        assert_eq!(rx.stats().msgs_received, 1, "no double delivery");
    }

    #[test]
    fn retransmit_rejected_when_already_acked_or_in_flight() {
        let p = platform::paper_platform();
        let mut cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
        cfg.acked = true;
        let mut tx = Engine::new(cfg.clone(), p.rails.clone(), vec![]);
        let mut rx = Engine::new(cfg, p.rails, vec![]);
        let c = tx.conn_open();
        rx.conn_open();
        let send = tx.submit_send(c, vec![payload(64, 1)]);
        rx.post_recv(c);

        // In flight: decision taken but not yet tx-done.
        let d = tx.next_tx(RailId(1)).unwrap().unwrap();
        assert!(!tx.retransmit(send), "in-flight send must not retransmit");
        tx.on_tx_done(RailId(1), d.token).unwrap();
        rx.on_frame(RailId(1), &d.frame).unwrap();
        pump(&mut tx, &mut rx);
        assert!(tx.send_acked(send));
        assert!(!tx.retransmit(send), "acked send must not retransmit");
        assert_eq!(tx.stats().retransmits, 0);
    }

    #[test]
    fn retransmit_recovers_a_lost_rendezvous_request() {
        let p = platform::paper_platform();
        let mut cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
        cfg.acked = true;
        let mut tx = Engine::new(cfg.clone(), p.rails.clone(), vec![]);
        let mut rx = Engine::new(cfg, p.rails, vec![]);
        let c = tx.conn_open();
        rx.conn_open();
        let data = payload(100 * 1024, 9);
        let send = tx.submit_send(c, vec![data.clone()]);
        let recv = rx.post_recv(c);

        // Lose the rendezvous request (control packet).
        let d = tx.next_tx(RailId(0)).unwrap().expect("rdv request");
        assert!(d.control);
        tx.on_tx_done(RailId(0), d.token).unwrap();
        // Nothing further can happen: the grant never comes.
        assert!(tx.next_tx(RailId(0)).unwrap().is_none());
        assert!(!tx.send_complete(send));

        // Recovery: re-enqueue the whole message.
        assert!(tx.retransmit(send));
        pump(&mut tx, &mut rx);
        assert!(tx.send_acked(send));
        assert_eq!(rx.try_recv(recv).unwrap().segments[0], data);
    }

    #[test]
    fn acked_mode_confirms_delivery() {
        let p = platform::paper_platform();
        let mut cfg = EngineConfig::with_strategy(StrategyKind::Greedy);
        cfg.acked = true;
        let mut tx = Engine::new(cfg.clone(), p.rails.clone(), vec![]);
        let mut rx = Engine::new(cfg, p.rails, vec![]);
        let c = tx.conn_open();
        rx.conn_open();
        let send = tx.submit_send(c, vec![payload(5000, 1)]);
        rx.post_recv(c);
        assert!(!tx.send_acked(send));
        pump(&mut tx, &mut rx);
        assert!(tx.send_complete(send));
        assert!(tx.send_acked(send), "peer must have confirmed delivery");
        assert_eq!(rx.stats().acks_sent, 1);
        assert_eq!(tx.stats().acks_received, 1);
    }

    #[test]
    fn unacked_mode_never_acks() {
        let mut tx = engine(StrategyKind::Greedy);
        let mut rx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        rx.conn_open();
        let send = tx.submit_send(c, vec![payload(100, 1)]);
        rx.post_recv(c);
        pump(&mut tx, &mut rx);
        assert!(tx.send_complete(send));
        assert!(!tx.send_acked(send), "no acks without acked mode");
        assert_eq!(rx.stats().acks_sent, 0);
    }

    #[test]
    fn datapath_eager_payload_is_zero_copy() {
        let mut tx = engine(StrategyKind::Greedy);
        let mut rx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        rx.conn_open();
        tx.submit_send(c, vec![payload(1000, 0x11)]);
        let recv = rx.post_recv(c);
        pump(&mut tx, &mut rx);
        assert!(rx.try_recv(recv).is_some());
        let d = &tx.stats().datapath;
        assert_eq!(d.tx_staged_copy_bytes, 0, "eager path must not stage");
        assert!(d.tx_zero_copy_bytes >= 1000);
        // Frame delivery keeps the receive side copy-free too.
        let r = &rx.stats().datapath;
        assert_eq!(r.rx_copy_bytes, 0);
        assert!(r.rx_zero_copy_bytes >= 1000);
    }

    #[test]
    fn datapath_large_split_path_stages_nothing() {
        let mut tx = engine(StrategyKind::AdaptiveSplit);
        let mut rx = engine(StrategyKind::AdaptiveSplit);
        let c = tx.conn_open();
        rx.conn_open();
        let data = payload(1 << 20, 0x3C);
        tx.submit_send(c, vec![data.clone()]);
        let recv = rx.post_recv(c);
        pump(&mut tx, &mut rx);
        let got = rx.try_recv(recv).unwrap();
        assert_eq!(got.segments[0], data);
        let d = &tx.stats().datapath;
        assert_eq!(
            d.tx_staged_copy_bytes, 0,
            "chunked rendezvous transfers must not copy on tx"
        );
        assert!(d.tx_zero_copy_bytes >= (1 << 20));
        // Nor on rx: the chunks are slices of the sender's segment, they
        // re-join, and the delivery is that segment.
        assert_eq!(got.segments[0].as_ptr(), data.as_ptr());
        let r = &rx.stats().datapath;
        assert_eq!((r.rx_copy_bytes, r.rx_zero_copy_bytes), (0, 1 << 20));
    }

    #[test]
    fn datapath_chunks_in_their_own_allocations_are_gathered_once() {
        let mut tx = engine(StrategyKind::AdaptiveSplit);
        let mut rx = engine(StrategyKind::AdaptiveSplit);
        let c = tx.conn_open();
        rx.conn_open();
        let data = payload(1 << 20, 0x3C);
        tx.submit_send(c, vec![data.clone()]);
        let recv = rx.post_recv(c);
        // As a byte-stream transport delivers: every frame in a buffer
        // of its own.
        pump_as(&mut tx, &mut rx, |frame| {
            PacketFrame::from_wire(frame.to_bytes())
        });
        assert!(tx.stats().chunks_sent >= 2, "split over both rails");
        assert_eq!(rx.try_recv(recv).unwrap().segments[0], data);
        let r = &rx.stats().datapath;
        assert_eq!((r.rx_copy_bytes, r.rx_zero_copy_bytes), (1 << 20, 0));
    }

    #[test]
    fn datapath_aggregate_stages_only_sub_pio_entries() {
        let mut tx = engine(StrategyKind::AggregateEager);
        let mut rx = engine(StrategyKind::AggregateEager);
        let c = tx.conn_open();
        rx.conn_open();
        let segs: Vec<Bytes> = (0..4u8).map(|i| payload(256, i)).collect();
        tx.submit_send(c, segs);
        let recv = rx.post_recv(c);
        pump(&mut tx, &mut rx);
        assert!(rx.try_recv(recv).is_some());
        let s = tx.stats();
        assert_eq!(s.aggregates_built, 1);
        // All four entries sit below the PIO threshold: staged in full.
        assert_eq!(s.datapath.tx_staged_copy_bytes, 4 * 256);
    }

    #[test]
    fn head_buffers_are_pooled_and_reclaimed() {
        let mut tx = engine(StrategyKind::Greedy);
        let mut rx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        rx.conn_open();
        tx.submit_send(c, vec![payload(64, 1)]);
        tx.submit_send(c, vec![payload(64, 2)]);
        // First decision: the runtime consumes and drops the frame before
        // reporting completion, so the head can be recycled.
        let d = tx.next_tx(RailId(0)).unwrap().expect("first packet");
        let token = d.token;
        drop(d);
        tx.on_tx_done(RailId(0), token).unwrap();
        let s = &tx.stats().datapath;
        assert!(s.pool_reclaims >= 1, "head must return to the pool");
        // Second decision reuses the reclaimed buffer.
        let d2 = tx.next_tx(RailId(0)).unwrap().expect("second packet");
        assert!(tx.stats().datapath.pool_hits >= 1, "pool must be hit");
        let token2 = d2.token;
        drop(d2);
        tx.on_tx_done(RailId(0), token2).unwrap();
        let _ = rx;
    }

    #[test]
    fn aggregate_slab_reclaimed_at_tx_done() {
        let mut tx = engine(StrategyKind::AggregateEager);
        let mut rx = engine(StrategyKind::AggregateEager);
        let c = tx.conn_open();
        rx.conn_open();
        let segs: Vec<Bytes> = (0..4u8).map(|i| payload(256, i)).collect();
        tx.submit_send(c, segs);
        let recv = rx.post_recv(c);
        pump(&mut tx, &mut rx);
        assert!(rx.try_recv(recv).is_some());
        assert_eq!(tx.stats().aggregates_built, 1);
        // The staging slab and the head both went back: nothing is
        // outstanding once the engine quiesces.
        assert!(tx.is_quiescent());
        assert_eq!(tx.pool_leaks(), 0, "slab must be reclaimed, not leaked");
        assert_eq!(tx.stats().datapath.pool_outstanding, 0);
    }

    #[test]
    fn leak_ledger_flags_a_held_buffer() {
        // A quiesced engine carries zero outstanding pool buffers...
        let mut tx = engine(StrategyKind::Greedy);
        let mut rx = engine(StrategyKind::Greedy);
        let c = tx.conn_open();
        rx.conn_open();
        tx.submit_send(c, vec![payload(64, 1)]);
        rx.post_recv(c);
        pump(&mut tx, &mut rx);
        assert!(tx.is_quiescent());
        assert_eq!(tx.pool_leaks(), 0);
        assert_eq!(tx.stats().datapath.pool_outstanding, 0);
        // ...and a deliberately-held frame shows up in the ledger, the
        // stats counter, and the drop assertion.
        let _held = tx.pool.take(64, &mut tx.stats.datapath);
        assert_eq!(tx.pool_leaks(), 1, "held buffer must be flagged");
        assert_eq!(tx.stats().datapath.pool_outstanding, 1);
        if cfg!(debug_assertions) {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(tx)))
                .expect_err("drop must assert on a leaked buffer");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("pool leak"), "unexpected panic: {msg}");
        }
    }

    #[test]
    fn stats_account_pio_vs_dma() {
        let mut tx = engine(StrategyKind::SingleRail(0));
        let mut rx = engine(StrategyKind::SingleRail(0));
        let c = tx.conn_open();
        rx.conn_open();
        tx.submit_send(c, vec![payload(64, 1)]); // PIO-sized
        tx.submit_send(c, vec![payload(16 * 1024, 2)]); // DMA-sized eager
        rx.post_recv(c);
        rx.post_recv(c);
        pump(&mut tx, &mut rx);
        let s = &tx.stats().rails[0];
        assert_eq!(s.pio_packets, 1);
        assert_eq!(s.dma_packets, 1);
    }
}
