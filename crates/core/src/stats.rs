//! Behavioural counters.
//!
//! Timing alone cannot distinguish "the strategy aggregated" from "the
//! strategy got lucky"; these counters record what the engine actually did
//! so tests and EXPERIMENTS.md can assert on mechanism, not just effect.

use crate::obs::Log2Histogram;

/// Per-rail transmit counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RailStats {
    /// Data packets posted on this rail.
    pub packets: u64,
    /// Wire bytes posted (envelope + body).
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
    /// Retransmission timeouts blamed on this rail (drops observed).
    pub timeouts: u64,
    /// Data packets that re-sent payload of a retransmitted message.
    pub retransmit_packets: u64,
    /// Health probes issued on this rail.
    pub probes_sent: u64,
    /// Health state transitions (Up/Suspect/Down/Probing changes).
    pub state_transitions: u64,
}

/// Copy and allocation accounting for the scatter-gather datapath.
///
/// The zero-copy refactor makes every copy on the hot path *explicit*:
/// the only tx-side payload copy allowed is sub-PIO aggregation staging,
/// the only rx-side ones are a part-straddling read and the gather of a
/// rendezvous segment whose chunks arrived in different allocations (see
/// DESIGN.md "Datapath and copy discipline"), and these counters prove
/// it. `nmad-bench`'s `ablate_zero_copy` target and the
/// `scripts/verify.sh` smoke gate read them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
    /// Total payload bytes copied on the hot path (tx staging + rx).
    pub fn total_copied_bytes(&self) -> u64 {
        self.tx_staged_copy_bytes + self.rx_copy_bytes
    }

    /// Total payload bytes moved without copying.
    pub fn total_zero_copy_bytes(&self) -> u64 {
        self.tx_zero_copy_bytes + self.rx_zero_copy_bytes
    }

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
/// side is that a burst of messages is one frame (see the `ablate_cycles`
/// gate). Counted by the transport under its rails lock and mirrored
/// here via `Engine::note_syscalls`; all zero where bytes move in
/// memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyscallStats {
    /// `write_vectored` calls that moved bytes.
    pub tx_calls: u64,
    /// Frames those TX calls moved onto the wire.
    pub tx_frames: u64,
    /// `read` calls that brought bytes (excluding would-block polls).
    pub rx_calls: u64,
    /// Frames decoded out of those reads.
    pub rx_frames: u64,
}

impl SyscallStats {
    /// TX syscalls per transmitted frame (0 when nothing was sent).
    pub fn tx_per_packet(&self) -> f64 {
        if self.tx_frames == 0 {
            0.0
        } else {
            self.tx_calls as f64 / self.tx_frames as f64
        }
    }

    /// RX syscalls per received frame (0 when nothing arrived).
    pub fn rx_per_packet(&self) -> f64 {
        if self.rx_frames == 0 {
            0.0
        } else {
            self.rx_calls as f64 / self.rx_frames as f64
        }
    }

    /// Overall syscalls per frame moved in either direction.
    pub fn per_packet(&self) -> f64 {
        let frames = self.tx_frames + self.rx_frames;
        if frames == 0 {
            0.0
        } else {
            (self.tx_calls + self.rx_calls) as f64 / frames as f64
        }
    }

    /// Counter growth since an earlier snapshot, saturating at zero so a
    /// counter reset yields an empty delta rather than a wrapped one. This is how the telemetry
    /// aggregator turns the cumulative totals into per-window rates.
    pub fn delta_since(&self, prev: &SyscallStats) -> SyscallStats {
        SyscallStats {
            tx_calls: self.tx_calls.saturating_sub(prev.tx_calls),
            tx_frames: self.tx_frames.saturating_sub(prev.tx_frames),
            rx_calls: self.rx_calls.saturating_sub(prev.rx_calls),
            rx_frames: self.rx_frames.saturating_sub(prev.rx_frames),
        }
    }
}

/// Per-rail observability gauges and histograms.
#[derive(Clone, Debug, Default)]
pub struct RailObs {
    /// Measured RTT samples on this rail (ack round trips and probe
    /// pongs), nanoseconds.
    pub latency_ns: Log2Histogram,
    /// Wire bytes posted but not yet completed (gauge).
    pub in_flight_bytes: u64,
    /// Accumulated time the rail spent busy (a frame posted and not yet
    /// completed), nanoseconds.
    pub busy_ns: u64,
    /// When the rail last went busy, if it currently is.
    pub busy_since_ns: Option<u64>,
}

impl RailObs {
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

    /// Fraction of `[0, now_ns]` the rail spent busy, in `[0, 1]`.
    pub fn utilization(&self, now_ns: u64) -> f64 {
        if now_ns == 0 {
            return 0.0;
        }
        let busy = self.busy_ns
            + self
                .busy_since_ns
                .map_or(0, |since| now_ns.saturating_sub(since));
        (busy as f64 / now_ns as f64).min(1.0)
    }
}

/// Histograms and gauges maintained alongside the counters. Recording
/// into these is allocation-free (fixed bucket arrays), so they are
/// always on — unlike the flight recorder, which must be enabled.
#[derive(Clone, Debug, Default)]
pub struct ObsStats {
    /// Per-rail gauges and latency histograms.
    pub rails: Vec<RailObs>,
    /// Submitted segment sizes, bytes.
    pub seg_size: Log2Histogram,
    /// Backlog depth sampled at each submit, segments.
    pub backlog_depth: Log2Histogram,
    /// Retransmission timeouts armed (initial and backed-off), ns.
    pub rto_ns: Log2Histogram,
}

impl ObsStats {
    /// Obs stats for an engine with `n_rails` rails.
    pub fn new(n_rails: usize) -> Self {
        ObsStats {
            rails: vec![RailObs::default(); n_rails],
            ..Default::default()
        }
    }
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
    /// Bytes memcpy'd into staging buffers for aggregation.
    pub aggregation_copy_bytes: u64,
    /// Chunks emitted for split segments.
    pub chunks_sent: u64,
    /// Segments that went through the rendezvous handshake.
    pub rdv_handshakes: u64,
    /// Split plans computed (adaptive or iso).
    pub split_plans: u64,
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
    /// Histograms and per-rail gauges (always on, allocation-free).
    pub obs: ObsStats,
}

impl EngineStats {
    /// Stats for an engine with `n_rails` rails.
    pub fn new(n_rails: usize) -> Self {
        EngineStats {
            rails: vec![RailStats::default(); n_rails],
            obs: ObsStats::new(n_rails),
            ..Default::default()
        }
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
    fn datapath_totals() {
        let d = DataPathStats {
            tx_staged_copy_bytes: 100,
            tx_zero_copy_bytes: 1000,
            rx_copy_bytes: 7,
            rx_zero_copy_bytes: 2000,
            ..Default::default()
        };
        assert_eq!(d.total_copied_bytes(), 107);
        assert_eq!(d.total_zero_copy_bytes(), 3000);
    }
}
