//! Continuous telemetry: fixed-interval windowed time series folded
//! from the flight recorder.
//!
//! The recorder (PR 3) is post-mortem: a ring you dump after the run.
//! This module makes the same event stream *live*: a
//! [`TelemetryAggregator`] tails the ring with a cursor
//! ([`super::FlightRecorder::events_since`]) and folds events into
//! fixed-interval [`Window`]s — per-rail throughput and utilization,
//! latency percentiles, retransmit/failover/probe rates, queue depths —
//! plus counter deltas sampled from [`EngineStats`] at each window close
//! (syscalls per packet, pool reuse rate, pool buffers outstanding).
//!
//! The discipline matches the recorder's: every window, rail slot and
//! histogram is preallocated at construction, window roll is a swap into
//! a ring of reused slots, and the fold runs inside `Engine::progress`
//! — once per pass, under the engine lock, never while bytes move.
//! `hot_path_allocs()` measures the claim and the `ablate_obs` bench
//! gates on it.

use crate::stats::{EngineStats, SyscallStats};

use super::hist::Log2Histogram;
use super::recorder::{Event, EventKind, FlightRecorder, NO_RAIL};

/// Closed windows retained in the ring (oldest overwritten first).
const WINDOW_RING: usize = 512;

/// Per-rail slice of one window.
#[derive(Clone, Debug, Default)]
pub struct RailWindow {
    /// Frames posted to the NIC (`TxPost`), control included.
    pub tx_frames: u64,
    /// Wire bytes posted.
    pub tx_bytes: u64,
    /// Frames received.
    pub rx_frames: u64,
    /// Wire bytes received.
    pub rx_bytes: u64,
    /// Messages re-queued blaming this rail.
    pub retransmits: u64,
    /// Failovers triggered by this rail going down.
    pub failovers: u64,
    /// Health probes issued.
    pub probes: u64,
    /// Nanoseconds this window during which the rail had at least one
    /// frame in flight (integrated from `TxPost`/`TxDone` pairs).
    pub busy_ns: u64,
    /// Per-rail RTT samples (`RttSample` events), nanoseconds.
    pub latency: Log2Histogram,
}

impl RailWindow {
    fn reset(&mut self) {
        *self = RailWindow {
            latency: Log2Histogram::new(),
            ..RailWindow::default()
        };
    }

    /// Fraction of the window the rail spent busy, in `[0, 1]`.
    pub fn utilization(&self, window_ns: u64) -> f64 {
        if window_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / window_ns as f64).min(1.0)
        }
    }

    /// Posted throughput over the window, bytes per second.
    pub fn throughput_bps(&self, window_ns: u64) -> f64 {
        if window_ns == 0 {
            0.0
        } else {
            self.tx_bytes as f64 * 1e9 / window_ns as f64
        }
    }
}

/// One closed (or currently filling) telemetry window.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Which window this is since the aggregator started (0-based).
    pub ordinal: u64,
    /// Window start, engine-clock nanoseconds (aligned to the interval).
    pub start_ns: u64,
    /// Window end (`start_ns + window_ns`).
    pub end_ns: u64,
    /// Per-rail slices.
    pub rails: Vec<RailWindow>,
    /// End-to-end ack round trips observed this window (`AckReceived`
    /// aux), nanoseconds.
    pub latency: Log2Histogram,
    /// Messages submitted.
    pub submits: u64,
    /// Acks received (sender side).
    pub acks: u64,
    /// Retransmissions across all rails.
    pub retransmits: u64,
    /// Submissions shed by overload protection.
    pub sheds: u64,
    /// Submissions refused with an explicit backpressure error.
    pub backpressure: u64,
    /// Watchdog alerts folded back out of the ring.
    pub alerts: u64,
    /// Recorder events folded into this window.
    pub events: u64,
    /// Events overwritten in the ring before the fold caught up —
    /// nonzero means the time series has a gap here.
    pub events_missed: u64,
    /// Syscall counters accumulated during this window (delta of the
    /// transport's totals between the two window closes).
    pub syscalls: SyscallStats,
    /// Fraction of this window's buffer takes the pool served from its
    /// free list (`pool_hits / takes`).
    pub pool_reuse_rate: f64,
    /// Pool buffers outstanding at window close (gauge).
    pub pool_outstanding: u64,
}

impl Window {
    fn new(n_rails: usize) -> Self {
        Window {
            rails: vec![RailWindow::default(); n_rails],
            ..Window::default()
        }
    }

    fn reset(&mut self, ordinal: u64, start_ns: u64) {
        let rails = std::mem::take(&mut self.rails);
        *self = Window {
            ordinal,
            start_ns,
            rails,
            ..Window::default()
        };
        for r in &mut self.rails {
            r.reset();
        }
    }

    /// Window length in nanoseconds (0 for a window not yet closed).
    pub fn span_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Folds recorder events into a ring of fixed-interval windows.
///
/// Owned by an [`crate::config::Observe::Watch`] engine and driven from
/// `Engine::fold_telemetry`; all methods are allocation-free after
/// construction.
#[derive(Clone, Debug)]
pub struct TelemetryAggregator {
    window_ns: u64,
    ring: Vec<Window>,
    /// Next ring slot a closing window swaps into.
    head: usize,
    /// Total windows closed since start.
    closed: u64,
    /// The window currently filling.
    current: Window,
    started: bool,
    /// Recorder-ordinal cursor: everything before it has been folded.
    cursor: u64,
    missed_total: u64,
    /// Frames in flight per rail (for busy-time integration).
    inflight: Vec<u32>,
    /// When each rail's current busy interval started (valid while
    /// `inflight > 0`; re-anchored to the window start at each roll).
    busy_since: Vec<u64>,
    prev_syscalls: SyscallStats,
    /// Pool hits and fresh allocations as of the last window close.
    prev_pool: (u64, u64),
    initial_ring_cap: usize,
    initial_rails_cap: usize,
}

impl TelemetryAggregator {
    /// Aggregator for `n_rails` rails over `window_ns`-long windows.
    /// Allocates the whole window ring here, once.
    pub fn new(n_rails: usize, window_ns: u64) -> Self {
        assert!(window_ns > 0, "telemetry aggregator needs a window interval");
        let ring: Vec<Window> = (0..WINDOW_RING).map(|_| Window::new(n_rails)).collect();
        let current = Window::new(n_rails);
        let initial_ring_cap = ring.capacity();
        let initial_rails_cap = current.rails.capacity();
        TelemetryAggregator {
            window_ns,
            ring,
            head: 0,
            closed: 0,
            current,
            started: false,
            cursor: 0,
            missed_total: 0,
            inflight: vec![0; n_rails],
            busy_since: vec![0; n_rails],
            prev_syscalls: SyscallStats::default(),
            prev_pool: (0, 0),
            initial_ring_cap,
            initial_rails_cap,
        }
    }

    /// The configured window interval, nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Windows closed since start (the next window's ordinal).
    pub fn windows_closed(&self) -> u64 {
        self.closed
    }

    /// Recorder events lost to ring overwrite before the fold caught up.
    pub fn events_missed(&self) -> u64 {
        self.missed_total
    }

    /// Allocations attributable to the fold path since construction.
    /// Zero by design (swap-and-reset ring, fixed histograms); measured
    /// like the recorder's and gated by `ablate_obs`.
    pub fn hot_path_allocs(&self) -> u64 {
        u64::from(self.ring.capacity() != self.initial_ring_cap)
            + u64::from(self.current.rails.capacity() != self.initial_rails_cap)
    }

    /// The window currently filling.
    pub fn current(&self) -> &Window {
        &self.current
    }

    /// The most recently closed window, if any.
    pub fn latest(&self) -> Option<&Window> {
        if self.closed == 0 {
            return None;
        }
        let idx = (self.head + self.ring.len() - 1) % self.ring.len();
        Some(&self.ring[idx])
    }

    /// Closed windows oldest-first (at most the configured ring depth).
    pub fn windows(&self) -> impl Iterator<Item = &Window> + '_ {
        let kept = (self.closed as usize).min(self.ring.len());
        let len = self.ring.len();
        // Oldest surviving window: head - kept (mod len).
        let start = (self.head + len - kept) % len;
        (0..kept).map(move |i| &self.ring[(start + i) % len])
    }

    /// Tail the recorder from the fold cursor, fold every new event into
    /// the window grid, and close any windows `now_ns` has moved past
    /// (sampling stats deltas at each close). Returns how many windows
    /// closed during this fold, so the caller can run watchdog rules on
    /// exactly the newly closed windows.
    pub fn fold(&mut self, rec: &FlightRecorder, now_ns: u64, stats: &EngineStats) -> u64 {
        let before = self.closed;
        let (missed, it) = rec.events_since(self.cursor);
        self.current.events_missed += missed;
        self.missed_total += missed;
        for ev in it {
            self.roll_to(ev.ts_ns, stats);
            self.ingest(ev);
        }
        self.cursor = rec.total_recorded();
        self.roll_to(now_ns, stats);
        self.closed - before
    }

    /// Advance the window grid so `ts_ns` falls inside the current
    /// window, closing windows along the way.
    fn roll_to(&mut self, ts_ns: u64, stats: &EngineStats) {
        if !self.started {
            self.started = true;
            self.current.start_ns = ts_ns - ts_ns % self.window_ns;
        }
        while ts_ns >= self.current.start_ns + self.window_ns {
            self.close_current(stats);
        }
    }

    fn close_current(&mut self, stats: &EngineStats) {
        let end_ns = self.current.start_ns + self.window_ns;
        // Bank open busy intervals up to the boundary and re-anchor.
        for r in 0..self.inflight.len() {
            if self.inflight[r] > 0 {
                let since = self.busy_since[r].max(self.current.start_ns);
                self.current.rails[r].busy_ns += end_ns.saturating_sub(since);
                self.busy_since[r] = end_ns;
            }
        }
        self.current.ordinal = self.closed;
        self.current.end_ns = end_ns;
        self.sample_stats(stats);
        std::mem::swap(&mut self.ring[self.head], &mut self.current);
        self.head = (self.head + 1) % self.ring.len();
        self.closed += 1;
        self.current.reset(self.closed, end_ns);
    }

    /// Sample cumulative-stat deltas and gauges into the closing window.
    fn sample_stats(&mut self, stats: &EngineStats) {
        let sc = stats.syscalls;
        self.current.syscalls = sc.delta_since(&self.prev_syscalls);
        self.prev_syscalls = sc;
        let pool = (stats.datapath.pool_hits, stats.datapath.hot_path_allocs);
        let dh = pool.0.saturating_sub(self.prev_pool.0);
        let da = pool.1.saturating_sub(self.prev_pool.1);
        self.current.pool_reuse_rate = dh as f64 / (dh + da).max(1) as f64;
        self.prev_pool = pool;
        self.current.pool_outstanding = stats.datapath.pool_outstanding;
    }

    /// Fold one event into the current window. Unknown rails count only
    /// into window-level totals.
    fn ingest(&mut self, ev: &Event) {
        self.current.events += 1;
        let rail = (ev.rail != NO_RAIL && (ev.rail as usize) < self.inflight.len())
            .then_some(ev.rail as usize);
        match ev.kind {
            EventKind::TxPost => {
                if let Some(r) = rail {
                    if self.inflight[r] == 0 {
                        self.busy_since[r] = ev.ts_ns;
                    }
                    self.inflight[r] += 1;
                    self.current.rails[r].tx_frames += 1;
                    self.current.rails[r].tx_bytes += ev.size;
                }
            }
            EventKind::TxDone => {
                if let Some(r) = rail {
                    if self.inflight[r] > 0 {
                        self.inflight[r] -= 1;
                        if self.inflight[r] == 0 {
                            let since = self.busy_since[r].max(self.current.start_ns);
                            self.current.rails[r].busy_ns += ev.ts_ns.saturating_sub(since);
                        }
                    }
                }
            }
            EventKind::Rx => {
                if let Some(r) = rail {
                    self.current.rails[r].rx_frames += 1;
                    self.current.rails[r].rx_bytes += ev.size;
                }
            }
            EventKind::RttSample => {
                if let Some(r) = rail {
                    self.current.rails[r].latency.record(ev.aux);
                }
            }
            EventKind::AckReceived => {
                self.current.acks += 1;
                self.current.latency.record(ev.aux);
            }
            EventKind::Retransmit => {
                self.current.retransmits += 1;
                // `size` carries the blamed-rails bitmask (a split attempt
                // can blame several rails); credit each blamed rail's
                // window. Events without a mask (hand-built, or no rail
                // was used yet) fall back to the single `rail` field.
                if ev.size != 0 {
                    for r in 0..self.current.rails.len().min(64) {
                        if ev.size & (1 << r) != 0 {
                            self.current.rails[r].retransmits += 1;
                        }
                    }
                } else if let Some(r) = rail {
                    self.current.rails[r].retransmits += 1;
                }
            }
            EventKind::Failover => {
                if let Some(r) = rail {
                    self.current.rails[r].failovers += 1;
                }
            }
            EventKind::ProbeSent => {
                if let Some(r) = rail {
                    self.current.rails[r].probes += 1;
                }
            }
            EventKind::Submit => self.current.submits += 1,
            EventKind::Shed => self.current.sheds += ev.size,
            EventKind::Backpressure => self.current.backpressure += ev.size,
            EventKind::Alert => self.current.alerts += 1,
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Streaming exporters (cold path: allocate freely)
// ---------------------------------------------------------------------

/// Prometheus text exposition: cumulative counters from [`EngineStats`]
/// plus gauges from the latest closed window. Hand-written like the
/// other exporters — every label is static, so the obs subsystem stays
/// dependency-free.
pub fn to_prometheus(agg: &TelemetryAggregator, stats: &EngineStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let w_s = agg.window_ns() as f64 / 1e9;
    let _ = writeln!(out, "# TYPE nmad_window_seconds gauge");
    let _ = writeln!(out, "nmad_window_seconds {w_s}");
    let _ = writeln!(out, "# TYPE nmad_windows_closed_total counter");
    let _ = writeln!(out, "nmad_windows_closed_total {}", agg.windows_closed());
    let _ = writeln!(out, "# TYPE nmad_telemetry_events_missed_total counter");
    let _ = writeln!(
        out,
        "nmad_telemetry_events_missed_total {}",
        agg.events_missed()
    );

    let _ = writeln!(out, "# TYPE nmad_rail_tx_packets_total counter");
    for (r, rs) in stats.rails.iter().enumerate() {
        let _ = writeln!(
            out,
            "nmad_rail_tx_packets_total{{rail=\"{r}\"}} {}",
            rs.packets
        );
    }
    let _ = writeln!(out, "# TYPE nmad_rail_wire_bytes_total counter");
    for (r, rs) in stats.rails.iter().enumerate() {
        let _ = writeln!(
            out,
            "nmad_rail_wire_bytes_total{{rail=\"{r}\"}} {}",
            rs.wire_bytes
        );
    }
    let _ = writeln!(out, "# TYPE nmad_rail_retransmits_total counter");
    for (r, rs) in stats.rails.iter().enumerate() {
        let _ = writeln!(
            out,
            "nmad_rail_retransmits_total{{rail=\"{r}\"}} {}",
            rs.retransmit_packets
        );
    }
    let _ = writeln!(out, "# TYPE nmad_shed_total counter");
    let shed = stats.overload.admission_rejections;
    let _ = writeln!(out, "nmad_shed_total {shed}");

    if let Some(w) = agg.latest() {
        let span = w.span_ns().max(1);
        let _ = writeln!(out, "# TYPE nmad_rail_throughput_bytes_per_second gauge");
        for (r, rw) in w.rails.iter().enumerate() {
            let _ = writeln!(
                out,
                "nmad_rail_throughput_bytes_per_second{{rail=\"{r}\"}} {:.1}",
                rw.throughput_bps(span)
            );
        }
        let _ = writeln!(out, "# TYPE nmad_rail_utilization gauge");
        for (r, rw) in w.rails.iter().enumerate() {
            let _ = writeln!(
                out,
                "nmad_rail_utilization{{rail=\"{r}\"}} {:.4}",
                rw.utilization(span)
            );
        }
        let _ = writeln!(out, "# TYPE nmad_latency_ns gauge");
        for (q, label) in [(0.50, "0.5"), (0.99, "0.99")] {
            let _ = writeln!(
                out,
                "nmad_latency_ns{{quantile=\"{label}\"}} {}",
                w.latency.approx_quantile(q).unwrap_or(0)
            );
        }
        let _ = writeln!(out, "# TYPE nmad_window_retransmits gauge");
        let _ = writeln!(out, "nmad_window_retransmits {}", w.retransmits);
        let _ = writeln!(out, "# TYPE nmad_window_sheds gauge");
        let _ = writeln!(out, "nmad_window_sheds {}", w.sheds);
        let _ = writeln!(out, "# TYPE nmad_syscalls_per_packet gauge");
        let _ = writeln!(
            out,
            "nmad_syscalls_per_packet {:.4}",
            w.syscalls.per_packet()
        );
        let _ = writeln!(out, "# TYPE nmad_pool_reuse_rate gauge");
        let _ = writeln!(out, "nmad_pool_reuse_rate {:.4}", w.pool_reuse_rate);
        let _ = writeln!(out, "# TYPE nmad_pool_outstanding gauge");
        let _ = writeln!(out, "nmad_pool_outstanding {}", w.pool_outstanding);
    }
    out
}

/// JSONL time series: one object per closed window, oldest-first. The
/// interchange format for `nmad top --jsonl`, the soak artifact and CI.
pub fn windows_jsonl(agg: &TelemetryAggregator) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for w in agg.windows() {
        let span = w.span_ns().max(1);
        let _ = write!(
            out,
            "{{\"ordinal\":{},\"start_ns\":{},\"end_ns\":{},\"submits\":{},\"acks\":{},\
             \"retransmits\":{},\"sheds\":{},\"backpressure\":{},\"alerts\":{},\
             \"events\":{},\"events_missed\":{},\"p50_ns\":{},\"p99_ns\":{},\
             \"syscalls_per_packet\":{:.4},\"pool_reuse_rate\":{:.4},\
             \"pool_outstanding\":{},\"rails\":[",
            w.ordinal,
            w.start_ns,
            w.end_ns,
            w.submits,
            w.acks,
            w.retransmits,
            w.sheds,
            w.backpressure,
            w.alerts,
            w.events,
            w.events_missed,
            w.latency.approx_quantile(0.50).unwrap_or(0),
            w.latency.approx_quantile(0.99).unwrap_or(0),
            w.syscalls.per_packet(),
            w.pool_reuse_rate,
            w.pool_outstanding,
        );
        for (i, rw) in w.rails.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"tx_frames\":{},\"tx_bytes\":{},\"rx_frames\":{},\"rx_bytes\":{},\
                 \"retransmits\":{},\"failovers\":{},\"probes\":{},\"utilization\":{:.4},\
                 \"p99_ns\":{}}}",
                rw.tx_frames,
                rw.tx_bytes,
                rw.rx_frames,
                rw.rx_bytes,
                rw.retransmits,
                rw.failovers,
                rw.probes,
                rw.utilization(span),
                rw.latency.approx_quantile(0.99).unwrap_or(0),
            );
        }
        out.push_str("]}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 1_000; // 1 µs windows keep the numbers readable

    fn agg(n_rails: usize) -> TelemetryAggregator {
        TelemetryAggregator::new(n_rails, W)
    }

    fn stats() -> EngineStats {
        EngineStats::new(2)
    }

    #[test]
    fn windows_roll_on_the_grid() {
        let mut a = agg(2);
        let mut rec = FlightRecorder::with_capacity(64);
        rec.record(Event::new(150, EventKind::Submit).seq(1));
        rec.record(Event::new(2_600, EventKind::Submit).seq(2));
        let closed = a.fold(&rec, 3_100, &stats());
        // Grid starts at 0 (150 aligned down); 3.1 µs closes 3 windows.
        assert_eq!(closed, 3);
        let ws: Vec<&Window> = a.windows().collect();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].start_ns, 0);
        assert_eq!(ws[0].submits, 1);
        assert_eq!(ws[1].submits, 0, "empty windows still close");
        assert_eq!(ws[2].submits, 1);
        assert_eq!(a.current().start_ns, 3_000);
    }

    #[test]
    fn busy_time_integrates_across_window_boundaries() {
        let mut a = agg(2);
        let mut rec = FlightRecorder::with_capacity(64);
        // One frame in flight on rail 0 from 500 to 2 500: busy 500 ns in
        // window 0, the full 1 000 ns in window 1, 500 ns in window 2.
        rec.record(Event::new(500, EventKind::TxPost).rail(0).seq(1).size(100));
        rec.record(
            Event::new(2_500, EventKind::TxDone)
                .rail(0)
                .seq(1)
                .size(100),
        );
        a.fold(&rec, 3_000, &stats());
        let ws: Vec<&Window> = a.windows().collect();
        assert_eq!(ws[0].rails[0].busy_ns, 500);
        assert_eq!(ws[1].rails[0].busy_ns, 1_000);
        assert_eq!(ws[2].rails[0].busy_ns, 500);
        assert_eq!(ws[0].rails[0].tx_bytes, 100);
        assert!(ws[1].rails[0].utilization(W) > 0.99);
        assert_eq!(ws[0].rails[1].busy_ns, 0);
    }

    #[test]
    fn stats_deltas_sampled_per_window() {
        let mut a = agg(2);
        let mut rec = FlightRecorder::with_capacity(64);
        let mut st = stats();
        st.syscalls = SyscallStats {
            tx_calls: 10,
            tx_frames: 40,
            rx_calls: 0,
            rx_frames: 0,
        };
        st.datapath.pool_hits = 90;
        st.datapath.hot_path_allocs = 10;
        st.datapath.pool_outstanding = 7;
        rec.record(Event::new(100, EventKind::Submit));
        a.fold(&rec, 1_500, &st);
        let w0 = a.latest().unwrap().clone();
        assert_eq!(w0.syscalls.tx_calls, 10);
        assert!((w0.pool_reuse_rate - 0.9).abs() < 1e-9);
        assert_eq!(w0.pool_outstanding, 7);
        // Second window sees only the delta.
        st.syscalls.tx_calls = 15;
        st.syscalls.tx_frames = 50;
        st.datapath.pool_hits = 92;
        st.datapath.hot_path_allocs = 28;
        a.fold(&rec, 2_500, &st);
        let w1 = a.latest().unwrap();
        assert_eq!(w1.syscalls.tx_calls, 5);
        assert_eq!(w1.syscalls.tx_frames, 10);
        assert!(
            (w1.pool_reuse_rate - 0.1).abs() < 1e-9,
            "{}",
            w1.pool_reuse_rate
        );
    }

    #[test]
    fn ring_overwrite_reports_missed_events() {
        let mut a = agg(2);
        let mut rec = FlightRecorder::with_capacity(4);
        for i in 0..12u64 {
            rec.record(Event::new(100 + i, EventKind::Submit).seq(i));
        }
        a.fold(&rec, 900, &stats());
        assert_eq!(a.events_missed(), 8);
        assert_eq!(a.current().events, 4);
        assert_eq!(a.current().events_missed, 8);
    }

    #[test]
    fn window_ring_keeps_newest_and_never_allocates() {
        let mut a = agg(2);
        let mut rec = FlightRecorder::with_capacity(1024);
        let n = WINDOW_RING as u64 + 8;
        for i in 0..n {
            rec.record(Event::new(i * W + 10, EventKind::Submit).seq(i));
        }
        a.fold(&rec, (n + 1) * W, &stats());
        assert_eq!(a.windows_closed(), n + 1);
        let ws: Vec<u64> = a.windows().map(|w| w.ordinal).collect();
        assert_eq!(
            ws,
            (9..=n).collect::<Vec<u64>>(),
            "ring keeps the newest WINDOW_RING"
        );
        assert_eq!(a.hot_path_allocs(), 0);
        assert_eq!(a.latest().unwrap().ordinal, n);
    }

    #[test]
    fn per_rail_counters_fold() {
        let mut a = agg(2);
        let mut rec = FlightRecorder::with_capacity(64);
        rec.record(Event::new(10, EventKind::Rx).rail(1).size(64));
        rec.record(Event::new(20, EventKind::RttSample).rail(1).aux(5_000));
        rec.record(Event::new(30, EventKind::AckReceived).seq(1).aux(9_000));
        rec.record(
            Event::new(40, EventKind::Retransmit)
                .rail(0)
                .seq(2)
                .aux(1_000),
        );
        rec.record(Event::new(50, EventKind::Failover).rail(0).aux(1));
        rec.record(Event::new(60, EventKind::ProbeSent).rail(0).seq(3));
        rec.record(Event::new(70, EventKind::Shed).size(3).aux(0));
        a.fold(&rec, 1_100, &stats());
        let w = a.latest().unwrap();
        assert_eq!(w.rails[1].rx_frames, 1);
        assert_eq!(w.rails[1].rx_bytes, 64);
        assert_eq!(w.rails[1].latency.count(), 1);
        assert_eq!(w.acks, 1);
        assert_eq!(w.latency.max(), Some(9_000));
        assert_eq!(w.retransmits, 1);
        assert_eq!(w.rails[0].retransmits, 1);
        assert_eq!(w.rails[0].failovers, 1);
        assert_eq!(w.rails[0].probes, 1);
        assert_eq!(w.sheds, 3);
    }

    #[test]
    fn retransmit_blame_mask_credits_every_rail() {
        let mut a = agg(2);
        let mut rec = FlightRecorder::with_capacity(64);
        // A split attempt expired: both rails are blamed. The engine
        // emits ONE Retransmit event whose `size` is the blame bitmask
        // and whose `rail` is the first blamed rail; each blamed rail's
        // window must be credited, but the fabric total counts messages,
        // not blames.
        rec.record(
            Event::new(40, EventKind::Retransmit)
                .rail(0)
                .seq(2)
                .size(0b11)
                .aux(1_000),
        );
        // And a single-rail attempt blaming only rail 1: the mask and the
        // `rail` field agree, counted once.
        rec.record(
            Event::new(50, EventKind::Retransmit)
                .rail(1)
                .seq(3)
                .size(0b10)
                .aux(1_000),
        );
        a.fold(&rec, 1_100, &stats());
        let w = a.latest().unwrap();
        assert_eq!(w.retransmits, 2, "two retransmitted messages");
        assert_eq!(w.rails[0].retransmits, 1);
        assert_eq!(w.rails[1].retransmits, 2, "rail 1 blamed by both");
    }

    #[test]
    fn exporters_render_the_series() {
        let mut a = agg(2);
        let mut rec = FlightRecorder::with_capacity(64);
        rec.record(Event::new(100, EventKind::TxPost).rail(0).seq(1).size(4096));
        rec.record(Event::new(600, EventKind::TxDone).rail(0).seq(1).size(4096));
        rec.record(Event::new(700, EventKind::AckReceived).seq(1).aux(600));
        a.fold(&rec, 2_100, &stats());
        let prom = to_prometheus(&a, &stats());
        assert!(prom.contains("nmad_rail_utilization{rail=\"0\"}"), "{prom}");
        assert!(prom.contains("nmad_windows_closed_total 2"), "{prom}");
        assert!(prom.contains("nmad_pool_reuse_rate"), "{prom}");
        let jsonl = windows_jsonl(&a);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(
            jsonl.lines().next().unwrap().contains("\"tx_bytes\":4096"),
            "{jsonl}"
        );
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
