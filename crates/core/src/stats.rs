//! Behavioural counters.
//!
//! Timing alone cannot distinguish "the strategy aggregated" from "the
//! strategy got lucky"; these counters record what the engine actually did
//! so tests and EXPERIMENTS.md can assert on mechanism, not just effect.

use crate::obs::Log2Histogram;

/// Everything counted about one rail: what it carried each way, what
/// went wrong on it, how long it was busy and how fast it answered. The
/// engine keeps the running totals; a telemetry window holds what they
/// did between two folds ([`RailStats::since`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RailStats {
    /// Data packets posted on this rail.
    pub packets: u64,
    /// Wire bytes posted (envelope + body), control frames included.
    pub wire_bytes: u64,
    /// Application payload bytes posted.
    pub payload_bytes: u64,
    /// Packets sent in the PIO regime.
    pub pio_packets: u64,
    /// Packets sent in a DMA regime (eager DMA or rendezvous chunk).
    pub dma_packets: u64,
    /// Control packets (rdv request/ack, acks).
    pub control_packets: u64,
    /// Packets received on this rail (before decoding).
    pub rx_packets: u64,
    /// Wire bytes received on this rail.
    pub rx_wire_bytes: u64,
    /// Retransmission timeouts blamed on this rail (drops observed).
    pub timeouts: u64,
    /// Data packets that re-sent payload of a retransmitted message.
    pub retransmit_packets: u64,
    /// Retransmitted messages that blamed this rail. One message can
    /// blame several rails (a split attempt): each of them counts it.
    pub retransmits_blamed: u64,
    /// Times this rail went down with survivors to take its planned
    /// chunks.
    pub failovers: u64,
    /// Health probes issued on this rail.
    pub probes_sent: u64,
    /// Health state transitions (Up/Suspect/Down/Probing changes).
    pub state_transitions: u64,
    /// Wire bytes posted but not yet completed (gauge).
    pub in_flight_bytes: u64,
    /// Time the rail spent busy (a frame posted and not yet completed)
    /// in intervals already banked, nanoseconds.
    pub busy_ns: u64,
    /// When the rail's open busy interval started, if it is busy.
    pub busy_since_ns: Option<u64>,
    /// RTT samples on this rail (ack round trips of attempts never
    /// retransmitted, and probe pongs), nanoseconds.
    pub rtt_ns: Log2Histogram,
}

/// `T { counter: now.counter - prev.counter, .., field: value }`: the
/// counters named are differenced (saturating, so a reset reads as an
/// empty delta), the other fields given. A struct literal, so a counter
/// added to `T` and not named here does not compile.
macro_rules! since {
    ($T:ident, $now:expr, $prev:expr; $($counter:ident),+ $(; $($field:ident $(: $value:expr)?),+)?) => {
        $T {
            $($counter: $now.$counter.saturating_sub($prev.$counter),)+
            $($($field $(: $value)?,)+)?
        }
    };
}

impl RailStats {
    /// Frames posted, data and control.
    pub fn tx_frames(&self) -> u64 {
        self.packets + self.control_packets
    }

    /// Mark the rail busy as of `now_ns` (no-op if already busy).
    pub fn note_busy(&mut self, now_ns: u64) {
        if self.busy_since_ns.is_none() {
            self.busy_since_ns = Some(now_ns);
        }
    }

    /// Mark the rail idle as of `now_ns`, banking the busy interval.
    pub fn note_idle(&mut self, now_ns: u64) {
        if let Some(since) = self.busy_since_ns.take() {
            self.busy_ns += now_ns.saturating_sub(since);
        }
    }

    /// Bank the open busy interval up to `now_ns` and keep the rail busy
    /// from there, so busy time is credited to the window it was spent
    /// in.
    pub(crate) fn bank_busy(&mut self, now_ns: u64) {
        if let Some(since) = &mut self.busy_since_ns {
            self.busy_ns += now_ns.saturating_sub(*since);
            *since = now_ns;
        }
    }

    /// What this rail's counters did since `prev`, an earlier snapshot
    /// of them; the gauges are this snapshot's.
    pub fn since(&self, prev: &RailStats) -> RailStats {
        since!(RailStats, self, prev;
            packets, wire_bytes, payload_bytes, pio_packets, dma_packets, control_packets,
            rx_packets, rx_wire_bytes, timeouts, retransmit_packets, retransmits_blamed,
            failovers, probes_sent, state_transitions, busy_ns;
            in_flight_bytes: self.in_flight_bytes,
            busy_since_ns: self.busy_since_ns,
            rtt_ns: self.rtt_ns.since(&prev.rtt_ns))
    }
}

/// Copy and allocation accounting for the scatter-gather datapath.
///
/// The zero-copy refactor makes every copy on the hot path *explicit*:
/// the only tx-side payload copy allowed is sub-PIO aggregation staging,
/// the only rx-side ones are a part-straddling read and the gather of a
/// rendezvous segment whose chunks arrived in different allocations (see
/// DESIGN.md "Datapath and copy discipline"), and these counters prove
/// it: the engine's `datapath_*` tests, the simulator's
/// `payload_integrity_through_split_transfer` and
/// `conformance::large_message_striped_over_two_rails` assert them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataPathStats {
    /// Payload bytes memcpy'd into staging slabs on transmit (sub-PIO
    /// aggregation entries only — everything else must be zero).
    pub tx_staged_copy_bytes: u64,
    /// Payload bytes transmitted as refcounted slices (no copy).
    pub tx_zero_copy_bytes: u64,
    /// Payload bytes copied on receive: part-straddling reads and
    /// rendezvous segments gathered into one buffer because their chunks
    /// arrived in different allocations (TCP: one per frame — every
    /// chunked byte, once, when its segment is whole). Zero on the mem
    /// fabric and in the sim.
    pub rx_copy_bytes: u64,
    /// Payload bytes delivered as the slices of received frames they
    /// arrived as: eager data booked at decode, a rendezvous segment when
    /// it completes with its chunks re-joined into one allocation.
    pub rx_zero_copy_bytes: u64,
    /// Fresh allocations taken on the hot path (head buffers or staging
    /// slabs the pool could not satisfy).
    pub hot_path_allocs: u64,
    /// Buffer requests served from the pool free list.
    pub pool_hits: u64,
    /// Transmit buffers reclaimed into the pool at tx completion.
    pub pool_reclaims: u64,
    /// Reclaim attempts that failed because the buffer was still shared
    /// (e.g. the in-process fabric's receiver holds a reference).
    pub pool_reclaim_misses: u64,
    /// Pool buffers taken and not yet reclaimed (gauge, not a counter):
    /// the leak ledger. After the engine quiesces this must equal the
    /// buffers still legitimately in custody (in-flight heads and slabs);
    /// at engine drop it must be zero (see `Engine::pool_leaks`).
    pub pool_outstanding: u64,
}

impl DataPathStats {
    /// Fraction of buffer takes the pool served from its free list
    /// (0.0 when nothing was taken yet).
    pub fn pool_reuse_rate(&self) -> f64 {
        let takes = self.pool_hits + self.hot_path_allocs;
        self.pool_hits as f64 / takes.max(1) as f64
    }
}

/// Kernel crossings of the live transports: how many the rails spent
/// per frame moved. A frame leaves in one `write_vectored` (more after a
/// partial write) and one `read` carves every frame it brought, so the
/// receive ratio drops below 1 under load; what amortizes the transmit
/// side is that a burst of messages is one frame (asserted by
/// `conformance::burst_aggregates_and_echo_does_not`). Counted by the
/// transport under its rails lock and mirrored here via
/// `Engine::note_syscalls`; all zero where bytes move in memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyscallStats {
    /// `write_vectored` calls that moved bytes.
    pub tx_calls: u64,
    /// Frames those TX calls moved onto the wire.
    pub tx_frames: u64,
    /// `read` calls that brought bytes (excluding would-block polls).
    pub rx_calls: u64,
    /// `read` calls that found nothing: would-block, no byte. A pass
    /// reads every rail, so a wait polls the rails that got nothing.
    pub rx_empty: u64,
    /// Frames decoded out of those reads.
    pub rx_frames: u64,
}

/// Engine-wide histograms maintained alongside the counters. Recording
/// into these is allocation-free (fixed bucket arrays), so they are
/// always on — unlike the flight recorder, which must be enabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObsStats {
    /// Submitted segment sizes, bytes.
    pub seg_size: Log2Histogram,
    /// Backlog depth sampled at each submit, segments.
    pub backlog_depth: Log2Histogram,
    /// Retransmission timeouts armed (initial and backed-off), ns.
    pub rto_ns: Log2Histogram,
}

/// Overload-protection counters: how often
/// [`crate::Engine::try_submit_send`] said no, and why. All zero unless
/// [`crate::EngineConfig::max_tenant_inflight`] is set (except
/// `shutdown_rejections`, which counts `try_send`s on an endpoint that
/// has shut down regardless of configuration).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Submissions refused by per-tenant admission control: the one
    /// overload reason.
    pub admission_rejections: u64,
    /// Submissions refused because shutdown had already begun
    /// (lifecycle, not load).
    pub shutdown_rejections: u64,
}

/// Engine-wide counters.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Per-rail transmit counters.
    pub rails: Vec<RailStats>,
    /// Aggregate containers built.
    pub aggregates_built: u64,
    /// Segments carried inside aggregate containers.
    pub segments_aggregated: u64,
    /// Chunks emitted for split segments.
    pub chunks_sent: u64,
    /// Segments that went through the rendezvous handshake.
    pub rdv_handshakes: u64,
    /// Split plans computed (adaptive or iso).
    pub split_plans: u64,
    /// Messages submitted.
    pub msgs_submitted: u64,
    /// Messages fully sent (local completion).
    pub msgs_sent: u64,
    /// Messages fully received and reassembled.
    pub msgs_received: u64,
    /// Strategy invocations that returned no work.
    pub idle_queries: u64,
    /// Delivery acknowledgements emitted (receiver side, acked mode).
    pub acks_sent: u64,
    /// Delivery acknowledgements received (sender side, acked mode).
    pub acks_received: u64,
    /// Round trips of the attempts an ack closed, nanoseconds. Its count
    /// is the acks that closed an attempt (`acks_received` also counts
    /// the ones that found it closed).
    pub ack_rtt_ns: Log2Histogram,
    /// Messages re-enqueued by [`crate::Engine::retransmit`].
    pub retransmits: u64,
    /// Duplicate packets tolerated on the receive side (acked mode).
    pub duplicates_dropped: u64,
    /// Copy/allocation accounting for the scatter-gather datapath.
    pub datapath: DataPathStats,
    /// Kernel crossings per frame on the live transports.
    pub syscalls: SyscallStats,
    /// Overload-protection rejections (backpressure and shedding).
    pub overload: OverloadStats,
    /// Engine-wide histograms (always on, allocation-free).
    pub obs: ObsStats,
}

impl EngineStats {
    /// Stats for an engine with `n_rails` rails.
    pub fn new(n_rails: usize) -> Self {
        EngineStats {
            rails: vec![RailStats::default(); n_rails],
            ..Default::default()
        }
    }

    /// Write into `out` what the counters did since `prev`, an earlier
    /// snapshot of them (gauges: this snapshot's). `out` keeps its
    /// allocation: this is how a telemetry window is made, without
    /// allocating, from the counters at its close and at the one before.
    pub fn since(&self, prev: &EngineStats, out: &mut EngineStats) {
        let mut rails = std::mem::take(&mut out.rails);
        rails.clear();
        let per_rail = self.rails.iter().zip(&prev.rails);
        rails.extend(per_rail.map(|(now, prev)| now.since(prev)));
        let (dp, obs) = (&self.datapath, &self.obs);
        *out = since!(EngineStats, self, prev;
        aggregates_built, segments_aggregated, chunks_sent, rdv_handshakes, split_plans,
        msgs_submitted, msgs_sent, msgs_received, idle_queries, acks_sent, acks_received,
        retransmits, duplicates_dropped;
        rails,
        ack_rtt_ns: self.ack_rtt_ns.since(&prev.ack_rtt_ns),
        datapath: since!(DataPathStats, dp, prev.datapath;
            tx_staged_copy_bytes, tx_zero_copy_bytes, rx_copy_bytes, rx_zero_copy_bytes,
            hot_path_allocs, pool_hits, pool_reclaims, pool_reclaim_misses;
            pool_outstanding: dp.pool_outstanding),
        syscalls: since!(SyscallStats, self.syscalls, prev.syscalls;
            tx_calls, tx_frames, rx_calls, rx_empty, rx_frames),
        overload: since!(OverloadStats, self.overload, prev.overload;
            admission_rejections, shutdown_rejections),
        obs: ObsStats {
            seg_size: obs.seg_size.since(&prev.obs.seg_size),
            backlog_depth: obs.backlog_depth.since(&prev.obs.backlog_depth),
            rto_ns: obs.rto_ns.since(&prev.obs.rto_ns),
        });
    }

    /// Overwrite `self` with `src`, keeping `self.rails`' allocation.
    pub(crate) fn copy_from(&mut self, src: &EngineStats) {
        let mut rails = std::mem::take(&mut self.rails);
        rails.clone_from(&src.rails);
        *self = EngineStats { rails, ..*src };
    }

    /// Total data packets across rails.
    pub fn total_packets(&self) -> u64 {
        self.rails.iter().map(|r| r.packets).sum()
    }

    /// Total payload bytes across rails.
    pub fn total_payload_bytes(&self) -> u64 {
        self.rails.iter().map(|r| r.payload_bytes).sum()
    }

    /// Fraction of payload bytes that travelled on `rail`, in `[0, 1]`.
    /// Returns 0 when nothing was sent.
    pub fn rail_share(&self, rail: usize) -> f64 {
        let total = self.total_payload_bytes();
        if total == 0 {
            return 0.0;
        }
        self.rails[rail].payload_bytes as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let mut s = EngineStats::new(2);
        s.rails[0].payload_bytes = 600;
        s.rails[1].payload_bytes = 400;
        assert!((s.rail_share(0) - 0.6).abs() < 1e-12);
        assert!((s.rail_share(0) + s.rail_share(1) - 1.0).abs() < 1e-12);
        assert_eq!(s.total_payload_bytes(), 1000);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = EngineStats::new(3);
        assert_eq!(s.total_packets(), 0);
        assert_eq!(s.rail_share(1), 0.0);
        assert_eq!(s.rails.len(), 3);
        assert_eq!(s.datapath, DataPathStats::default());
    }

    #[test]
    fn since_differences_counters_in_place_and_keeps_gauges() {
        let mut then = EngineStats::new(2);
        then.msgs_submitted = 3;
        then.rails[1].wire_bytes = 100;
        then.datapath.pool_outstanding = 5;
        then.ack_rtt_ns.record(10);
        let mut now = EngineStats::new(2);
        let rails_at = now.rails.as_ptr();
        now.copy_from(&then);
        assert_eq!(now.rails.as_ptr(), rails_at, "copied in place");
        now.msgs_submitted = 7;
        now.rails[1].wire_bytes = 160;
        now.rails[1].in_flight_bytes = 40;
        now.datapath.pool_outstanding = 2;
        now.ack_rtt_ns.record(1_000);
        let mut d = EngineStats::new(2);
        let rails_at = d.rails.as_ptr();
        now.since(&then, &mut d);
        assert_eq!(d.rails.as_ptr(), rails_at, "written in place");
        assert_eq!(d.msgs_submitted, 4);
        assert_eq!(d.rails[1].wire_bytes, 60);
        assert_eq!(d.rails[1].in_flight_bytes, 40, "a gauge reads as it is now");
        assert_eq!(d.datapath.pool_outstanding, 2);
        assert_eq!((d.ack_rtt_ns.count(), d.ack_rtt_ns.sum()), (1, 1_000));
        now.since(&now, &mut d);
        assert_eq!((d.msgs_submitted, d.rails[1].wire_bytes), (0, 0));
        assert!(d.ack_rtt_ns.is_empty());
    }
}
