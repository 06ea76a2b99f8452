//! The flight recorder: a bounded, single-writer ring of fixed-size
//! packet-lifecycle events.
//!
//! Lock-freedom here is by construction, not by atomics: the recorder is
//! owned by exactly one engine (itself single-threaded behind the
//! runtime's progression lock), so `record` is a plain indexed store
//! into a buffer preallocated at enable time. Overflow overwrites the
//! oldest record; `dropped()` says how many were lost.

/// Rail field value for events that are not tied to a rail.
pub const NO_RAIL: u16 = u16::MAX;

/// What happened. Variants follow a packet through its whole life plus
/// the reliability/health machinery and the simulator's hardware model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Application submitted a message (`seq` = send id, `size` = total
    /// bytes, `aux` = segment count).
    Submit,
    /// A segment entered the backlog (`seq` = send id, `size` = segment
    /// bytes, `aux` = 1 for rendezvous, 0 for eager).
    BacklogPush,
    /// Strategy sent a whole segment eagerly (`seq` = send id).
    DecideEager,
    /// Strategy aggregated small segments into one container
    /// (`size` = container payload bytes, `aux` = segments packed).
    DecideAggregate,
    /// Strategy split a segment across rails; one event per planned
    /// chunk (`seq` = send id, `size` = chunk bytes, `aux` = chunk share
    /// of the split in permille).
    DecideSplit,
    /// Strategy emitted a bounded chunk outside a full split plan
    /// (`seq` = send id, `size` = chunk bytes).
    DecideChunk,
    /// Strategy re-striped a straggling/unhealthy rail's remaining
    /// planned chunks onto the surviving rails (`rail` = the rail that
    /// lost its plan, `aux` = chunks moved).
    Restripe,
    /// A frame was handed to the NIC (`seq` = tx token, `size` = wire
    /// bytes, `aux` = 1 for control traffic).
    TxPost,
    /// The NIC finished sending a frame (`seq` = tx token, `size` = wire
    /// bytes).
    TxDone,
    /// A frame arrived (`size` = wire bytes).
    Rx,
    /// Receiver acknowledged a message (`seq` = send id).
    AckSent,
    /// Sender saw the ack (`seq` = send id, `aux` = measured RTT in ns).
    AckReceived,
    /// A per-rail RTT sample was fed to the health tracker
    /// (`aux` = RTT in ns).
    RttSample,
    /// A message was re-queued for retransmission (`seq` = send id,
    /// `aux` = the RTO that fired in ns, `rail` = first blamed rail,
    /// `size` = bitmask of every blamed rail — a split attempt can
    /// blame several).
    Retransmit,
    /// A retransmission timer blamed this rail (`seq` = send id).
    TimeoutBlame,
    /// A health probe went out (`seq` = probe id).
    ProbeSent,
    /// A probe pong came back (`seq` = probe id, `aux` = RTT ns).
    ProbeOk,
    /// A probe expired unanswered (`seq` = probe id).
    ProbeTimeout,
    /// Rail health state changed (`aux` = new state code: 0 Up,
    /// 1 Suspect, 2 Down, 3 Probing).
    HealthTransition,
    /// A Down transition reassigned this rail's planned chunks
    /// (`aux` = surviving rail count).
    Failover,
    /// The online calibrator rebuilt the split tables; one event per rail
    /// (`seq` = rebuild ordinal, `size` = this rail's reference-size split
    /// share *before* the rebuild in permille, `aux` = the share after).
    Calibrate,
    /// Simulator: a CPU grant — a PIO injection, a DMA descriptor setup
    /// or a receive overhead. An interval, like every `sim_*` kind but
    /// `sim_app` and a lost frame: stamped at its start, `seq` = its end
    /// in ns (`rail` = the frame's rail, `size` = its wire bytes, `aux` =
    /// bytes copied at injection). [`super::gantt`] draws them.
    SimCpu,
    /// Simulator: a PIO injection occupying a rail (`aux` = 0; an
    /// interval, `seq` = its end, `size` = wire bytes), or a frame lost
    /// on arrival (`aux` = 1; an instant, `seq` = 0).
    SimNic,
    /// Simulator: a DMA transfer occupying a rail while it drains through
    /// the I/O bus (an interval, `seq` = its end; `size` = transfer
    /// bytes). Recorded when the drain completes.
    SimBus,
    /// Simulator: application-level completion (`seq` = the send or
    /// receive id, `aux` = 0 send done, 1 recv done).
    SimApp,
    /// The SLO watchdog fired a rule over a closed telemetry window
    /// (`seq` = window ordinal, `aux` = alert code: 0 latency
    /// regression, 1 rail share imbalance, 2 retransmit storm, 3 shed
    /// onset; `size` = the measured value that tripped the rule,
    /// `rail` = the offending rail or [`NO_RAIL`]).
    Alert,
}

impl EventKind {
    /// Short stable name, used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Submit => "submit",
            EventKind::BacklogPush => "backlog_push",
            EventKind::DecideEager => "decide_eager",
            EventKind::DecideAggregate => "decide_aggregate",
            EventKind::DecideSplit => "decide_split",
            EventKind::DecideChunk => "decide_chunk",
            EventKind::Restripe => "restripe",
            EventKind::TxPost => "tx_post",
            EventKind::TxDone => "tx_done",
            EventKind::Rx => "rx",
            EventKind::AckSent => "ack_sent",
            EventKind::AckReceived => "ack_received",
            EventKind::RttSample => "rtt_sample",
            EventKind::Retransmit => "retransmit",
            EventKind::TimeoutBlame => "timeout_blame",
            EventKind::ProbeSent => "probe_sent",
            EventKind::ProbeOk => "probe_ok",
            EventKind::ProbeTimeout => "probe_timeout",
            EventKind::HealthTransition => "health_transition",
            EventKind::Failover => "failover",
            EventKind::Calibrate => "calibrate",
            EventKind::SimCpu => "sim_cpu",
            EventKind::SimNic => "sim_nic",
            EventKind::SimBus => "sim_bus",
            EventKind::SimApp => "sim_app",
            EventKind::Alert => "alert",
        }
    }

    /// Coarse grouping, used as the Chrome-trace category.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::Submit | EventKind::BacklogPush => "lifecycle",
            EventKind::DecideEager
            | EventKind::DecideAggregate
            | EventKind::DecideSplit
            | EventKind::DecideChunk
            | EventKind::Restripe
            | EventKind::Calibrate => "decision",
            EventKind::TxPost | EventKind::TxDone => "tx",
            EventKind::Rx => "rx",
            EventKind::AckSent
            | EventKind::AckReceived
            | EventKind::RttSample
            | EventKind::Retransmit
            | EventKind::TimeoutBlame => "reliability",
            EventKind::ProbeSent
            | EventKind::ProbeOk
            | EventKind::ProbeTimeout
            | EventKind::HealthTransition
            | EventKind::Failover => "health",
            EventKind::SimCpu | EventKind::SimNic | EventKind::SimBus | EventKind::SimApp => "sim",
            EventKind::Alert => "watchdog",
        }
    }
}

/// One fixed-size record. Field meaning per variant is documented on
/// [`EventKind`]; unused fields are zero. `Copy` and `String`-free so
/// recording is a plain store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic timestamp (engine clock), nanoseconds.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Who observed it (node index in multi-node runtimes; 0 otherwise).
    pub actor: u16,
    /// Rail involved, or [`NO_RAIL`].
    pub rail: u16,
    /// Sequence-like identity (send id, tx token, probe id — per kind),
    /// or an interval's end in ns (the `sim_*` intervals).
    pub seq: u64,
    /// Byte count (per kind).
    pub size: u64,
    /// Extra detail (per kind).
    pub aux: u64,
}

impl Event {
    /// A bare event; fill the rest with the builder-style setters.
    pub fn new(ts_ns: u64, kind: EventKind) -> Self {
        Event {
            ts_ns,
            kind,
            actor: 0,
            rail: NO_RAIL,
            seq: 0,
            size: 0,
            aux: 0,
        }
    }

    /// Set the rail.
    pub fn rail(mut self, rail: usize) -> Self {
        self.rail = rail as u16;
        self
    }

    /// Set the sequence identity.
    pub fn seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Set the byte count.
    pub fn size(mut self, size: u64) -> Self {
        self.size = size;
        self
    }

    /// Set the extra-detail word.
    pub fn aux(mut self, aux: u64) -> Self {
        self.aux = aux;
        self
    }

    /// Set the observing actor.
    pub fn actor(mut self, actor: u16) -> Self {
        self.actor = actor;
        self
    }
}

/// Bounded ring of [`Event`]s. Disabled (capacity 0) it is a no-op with
/// a single branch on the record path.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    buf: Vec<Event>,
    capacity: usize,
    /// Backing-store capacity right after construction; any later growth
    /// would mean the record path allocated.
    initial_buf_capacity: usize,
    /// Total events ever recorded (including overwritten ones).
    total: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::disabled()
    }
}

impl FlightRecorder {
    /// A recorder that drops everything (the production default).
    pub fn disabled() -> Self {
        FlightRecorder {
            buf: Vec::new(),
            capacity: 0,
            initial_buf_capacity: 0,
            total: 0,
        }
    }

    /// A recorder keeping the newest `capacity` events. The ring is
    /// allocated here, once; `record` never allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        let buf = Vec::with_capacity(capacity);
        let initial_buf_capacity = buf.capacity();
        FlightRecorder {
            buf,
            capacity,
            initial_buf_capacity,
            total: 0,
        }
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one event. On overflow the oldest event is overwritten.
    #[inline]
    pub fn record(&mut self, ev: Event) {
        if self.capacity == 0 {
            return;
        }
        let idx = (self.total % self.capacity as u64) as usize;
        if idx < self.buf.len() {
            self.buf[idx] = ev;
        } else {
            self.buf.push(ev);
        }
        self.total += 1;
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or kept).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events lost to overflow.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Allocations attributable to the record path since construction
    /// (ring growth). Zero by design; measured, not assumed — the
    /// `ablate_obs` bench gates on it.
    pub fn hot_path_allocs(&self) -> u64 {
        u64::from(self.buf.capacity() != self.initial_buf_capacity)
    }

    /// Iterate oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> + '_ {
        let split = if self.total > self.capacity as u64 {
            (self.total % self.capacity as u64) as usize
        } else {
            0
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Snapshot oldest-first.
    pub fn events(&self) -> Vec<Event> {
        self.iter().copied().collect()
    }

    /// Forget everything recorded so far (the ring stays allocated).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(i: u64) -> Event {
        Event::new(i, EventKind::TxPost).seq(i)
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let mut r = FlightRecorder::disabled();
        r.record(ev(1));
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert_eq!(r.total_recorded(), 0);
        assert_eq!(r.hot_path_allocs(), 0);
    }

    #[test]
    fn fills_then_wraps() {
        let mut r = FlightRecorder::with_capacity(4);
        for i in 0..6 {
            r.record(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_recorded(), 6);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        assert_eq!(r.hot_path_allocs(), 0);
    }

    proptest! {
        /// Under any overflow the ring keeps exactly the newest
        /// min(n, capacity) events, oldest-first, without allocating.
        #[test]
        fn overflow_keeps_newest_in_order(cap in 1usize..64, n in 0u64..512) {
            let mut r = FlightRecorder::with_capacity(cap);
            for i in 0..n {
                r.record(ev(i));
            }
            let kept = (cap as u64).min(n);
            let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
            let want: Vec<u64> = (n - kept..n).collect();
            prop_assert_eq!(seqs, want);
            prop_assert_eq!(r.dropped(), n - kept);
            prop_assert_eq!(r.hot_path_allocs(), 0);
        }
    }
}
