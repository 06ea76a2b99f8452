//! Continuous telemetry: fixed-interval windowed time series of the
//! engine's counters.
//!
//! A [`TelemetryAggregator`] keeps a snapshot of [`EngineStats`] as of
//! the last window close. A fold that finds the engine clock past the
//! current window's end closes it with what the counters did since that
//! snapshot ([`EngineStats::since`]): per-rail frames, bytes, busy time,
//! retransmits, failovers, probes and RTTs, submissions, ack latencies,
//! refusals, syscalls and pool reuse. The counters are the one source of
//! every total and every window: exact, and counted in every
//! [`crate::config::Observe`] mode. The flight recorder's events feed
//! traces and spans; its ring keeps only the newest events, so a window
//! folded from it would undercount whenever the ring lapped the fold.
//!
//! Folds run once per progress pass, so a window holds what the
//! counters did between the two folds that bracket its boundaries, exact
//! to one pass. When one fold crosses several boundaries (an idle gap)
//! the first window it closes holds the whole delta and the others are
//! empty.
//!
//! The discipline matches the recorder's: every window slot and the
//! snapshot are preallocated at construction, a close writes the delta
//! into the next slot of a ring, and the fold runs inside
//! `Engine::progress` — once per pass, under the engine lock, never
//! while bytes move. `hot_path_allocs()` measures the claim and the
//! `ablate_obs` bench gates on it.

use crate::stats::EngineStats;

/// Closed windows retained in the ring (oldest overwritten first).
const WINDOW_RING: usize = 512;

/// One closed telemetry window.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Which window this is since the aggregator started (0-based).
    pub ordinal: u64,
    /// Window start, engine-clock nanoseconds (aligned to the interval).
    pub start_ns: u64,
    /// Window end (`start_ns + window_ns`).
    pub end_ns: u64,
    /// What the engine's counters did over the window (gauges as of its
    /// close): the difference of the snapshots at its close and at the
    /// previous one. Acks that closed an attempt are
    /// `stats.ack_rtt_ns.count()`, sheds and shutdown refusals are in
    /// `stats.overload`.
    pub stats: EngineStats,
    /// Watchdog alerts fired since the previous close. The watchdog
    /// judges a window once it has closed, so what it fires over one
    /// window is counted in the next.
    pub alerts: u64,
}

impl Window {
    fn new(n_rails: usize) -> Self {
        Window {
            stats: EngineStats::new(n_rails),
            ..Window::default()
        }
    }

    /// Window length in nanoseconds.
    pub fn span_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Cuts the engine's counters into a ring of fixed-interval windows.
///
/// Owned by an [`crate::config::Observe::Watch`] engine and driven from
/// `Engine::fold_telemetry`; all methods are allocation-free after
/// construction.
#[derive(Clone, Debug)]
pub struct TelemetryAggregator {
    window_ns: u64,
    ring: Vec<Window>,
    /// Next ring slot a closing window is written into.
    head: usize,
    /// Total windows closed since start.
    closed: u64,
    /// Start of the window currently filling; `None` before the first
    /// fold, which places the grid.
    start_ns: Option<u64>,
    /// The engine's counters as of the last close.
    prev: EngineStats,
    /// The watchdog's alert count as of the last close.
    prev_alerts: u64,
    initial_ring_cap: usize,
    initial_rails_cap: usize,
}

impl TelemetryAggregator {
    /// Aggregator for `n_rails` rails over `window_ns`-long windows.
    /// Allocates the whole window ring and the snapshot here, once.
    pub fn new(n_rails: usize, window_ns: u64) -> Self {
        assert!(
            window_ns > 0,
            "telemetry aggregator needs a window interval"
        );
        let ring: Vec<Window> = (0..WINDOW_RING).map(|_| Window::new(n_rails)).collect();
        let prev = EngineStats::new(n_rails);
        TelemetryAggregator {
            window_ns,
            initial_ring_cap: ring.capacity(),
            initial_rails_cap: prev.rails.capacity(),
            ring,
            head: 0,
            closed: 0,
            start_ns: None,
            prev,
            prev_alerts: 0,
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

    /// Allocations attributable to the fold path since construction.
    /// Zero by design (a fixed ring, deltas written into its slots, the
    /// snapshot copied in place); measured like the recorder's and gated
    /// by `ablate_obs`.
    pub fn hot_path_allocs(&self) -> u64 {
        let grown = |s: &EngineStats| s.rails.capacity() != self.initial_rails_cap;
        u64::from(self.ring.capacity() != self.initial_ring_cap)
            + self.ring.iter().filter(|w| grown(&w.stats)).count() as u64
            + u64::from(grown(&self.prev))
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

    /// Close every window `now_ns` has moved past, each with what the
    /// counters in `stats` did since the last close and how many alerts
    /// the watchdog fired meanwhile (`alerts_fired` is its running
    /// count). Busy rails have their open interval banked at `now_ns`
    /// first. Returns how many windows closed, so the caller can run the
    /// watchdog on exactly those.
    pub fn fold(&mut self, now_ns: u64, stats: &mut EngineStats, alerts_fired: u64) -> u64 {
        let window_ns = self.window_ns;
        let mut start_ns = *self.start_ns.get_or_insert(now_ns - now_ns % window_ns);
        if now_ns < start_ns + window_ns {
            return 0;
        }
        for rail in &mut stats.rails {
            rail.bank_busy(now_ns);
        }
        let before = self.closed;
        while now_ns >= start_ns + window_ns {
            self.close(start_ns, stats, alerts_fired);
            start_ns += window_ns;
        }
        self.start_ns = Some(start_ns);
        self.closed - before
    }

    /// Write the window starting at `start_ns` into the next ring slot.
    fn close(&mut self, start_ns: u64, stats: &EngineStats, alerts_fired: u64) {
        let w = &mut self.ring[self.head];
        w.ordinal = self.closed;
        w.start_ns = start_ns;
        w.end_ns = start_ns + self.window_ns;
        stats.since(&self.prev, &mut w.stats);
        w.alerts = alerts_fired - self.prev_alerts;
        self.prev.copy_from(stats);
        self.prev_alerts = alerts_fired;
        self.head = (self.head + 1) % self.ring.len();
        self.closed += 1;
    }
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
    fn windows_close_on_the_grid_with_what_the_counters_did_between_folds() {
        let mut a = agg(2);
        let mut st = stats();
        st.msgs_submitted = 1;
        // The first fold places the grid (150 aligned down to 0).
        assert_eq!(a.fold(150, &mut st, 0), 0);
        assert_eq!(a.fold(1_100, &mut st, 0), 1);
        // A submission at 2 600, counted by the fold that crosses 2 000:
        // boundaries are exact to one fold.
        st.msgs_submitted = 2;
        assert_eq!(a.fold(2_600, &mut st, 0), 1);
        assert_eq!(a.fold(3_100, &mut st, 0), 1);
        let ws: Vec<&Window> = a.windows().collect();
        assert_eq!(ws.len(), 3);
        assert_eq!((ws[0].start_ns, ws[0].end_ns), (0, 1_000));
        assert_eq!(ws[0].stats.msgs_submitted, 1);
        assert_eq!(ws[1].stats.msgs_submitted, 1);
        assert_eq!(ws[2].stats.msgs_submitted, 0, "empty windows still close");
        assert_eq!(a.latest().unwrap().ordinal, 2);
    }

    #[test]
    fn one_fold_across_an_idle_gap_puts_the_delta_in_the_first_window() {
        let mut a = agg(2);
        let mut st = stats();
        a.fold(0, &mut st, 0);
        st.rails[1].packets = 3;
        assert_eq!(a.fold(4_500, &mut st, 0), 4);
        let sent: Vec<u64> = a.windows().map(|w| w.stats.rails[1].packets).collect();
        assert_eq!(sent, [3, 0, 0, 0]);
    }

    #[test]
    fn busy_time_lands_in_the_window_it_was_spent_in() {
        let mut a = agg(2);
        let mut st = stats();
        a.fold(0, &mut st, 0);
        // One frame in flight on rail 0 from 500 to 2 500: busy 500 ns in
        // window 0, the full 1 000 ns in window 1, 500 ns in window 2.
        st.rails[0].note_busy(500);
        st.rails[0].wire_bytes = 100;
        a.fold(1_000, &mut st, 0);
        a.fold(2_000, &mut st, 0);
        st.rails[0].note_idle(2_500);
        a.fold(3_000, &mut st, 0);
        let ws: Vec<&Window> = a.windows().collect();
        let busy: Vec<u64> = ws.iter().map(|w| w.stats.rails[0].busy_ns).collect();
        assert_eq!(busy, [500, 1_000, 500]);
        assert_eq!(ws[0].stats.rails[0].wire_bytes, 100);
        assert_eq!(ws[1].stats.rails[0].wire_bytes, 0);
        assert_eq!(ws[0].stats.rails[1].busy_ns, 0);
        assert_eq!(st.rails[0].busy_ns, 2_000, "the running total is whole");
    }

    #[test]
    fn a_window_is_the_difference_of_two_snapshots() {
        let mut a = agg(2);
        let mut st = stats();
        a.fold(0, &mut st, 0);
        st.syscalls.tx_calls = 10;
        st.syscalls.tx_frames = 40;
        st.datapath.pool_hits = 90;
        st.datapath.hot_path_allocs = 10;
        st.datapath.pool_outstanding = 7;
        st.rails[1].rx_packets = 1;
        st.rails[1].rx_wire_bytes = 64;
        st.rails[1].rtt_ns.record(5_000);
        st.ack_rtt_ns.record(9_000);
        st.retransmits = 1;
        st.rails[0].retransmits_blamed = 1;
        st.rails[0].failovers = 1;
        st.rails[0].probes_sent = 1;
        st.overload.admission_rejections = 3;
        a.fold(1_500, &mut st, 2);
        let w0 = a.latest().unwrap().clone();
        assert_eq!(w0.stats.syscalls.tx_calls, 10);
        assert!((w0.stats.datapath.pool_reuse_rate() - 0.9).abs() < 1e-9);
        assert_eq!(w0.stats.datapath.pool_outstanding, 7);
        assert_eq!(w0.stats.rails[1].rx_wire_bytes, 64);
        assert_eq!(w0.stats.rails[1].rtt_ns.count(), 1);
        assert_eq!(w0.stats.ack_rtt_ns.count(), 1);
        assert!(w0.stats.ack_rtt_ns.max().unwrap() >= 9_000);
        assert_eq!(w0.stats.rails[0].failovers, 1);
        assert_eq!(w0.stats.overload.admission_rejections, 3);
        assert_eq!(w0.alerts, 2);
        // The next window sees only what changed, gauges as they are.
        st.syscalls.tx_calls = 15;
        st.syscalls.tx_frames = 50;
        st.datapath.pool_hits = 92;
        st.datapath.hot_path_allocs = 28;
        st.datapath.pool_outstanding = 4;
        a.fold(2_500, &mut st, 3);
        let w1 = &a.latest().unwrap().stats;
        assert_eq!((w1.syscalls.tx_calls, w1.syscalls.tx_frames), (5, 10));
        let rate = w1.datapath.pool_reuse_rate();
        assert!((rate - 0.1).abs() < 1e-9, "{rate}");
        assert_eq!(w1.datapath.pool_outstanding, 4);
        assert_eq!(w1.rails[1].rtt_ns.count(), 0);
        assert!(w1.ack_rtt_ns.is_empty());
        assert_eq!(w1.overload.admission_rejections, 0);
        assert_eq!(a.latest().unwrap().alerts, 1);
    }

    #[test]
    fn window_ring_keeps_newest_and_never_allocates() {
        let mut a = agg(2);
        let mut st = stats();
        let n = WINDOW_RING as u64 + 8;
        for i in 0..=n {
            a.fold(i * W + 10, &mut st, 0);
            st.msgs_submitted += 1;
        }
        assert_eq!(a.windows_closed(), n);
        let ws: Vec<u64> = a.windows().map(|w| w.ordinal).collect();
        assert_eq!(
            ws,
            (8..n).collect::<Vec<u64>>(),
            "ring keeps the newest WINDOW_RING"
        );
        assert!(a.windows().all(|w| w.stats.msgs_submitted == 1));
        assert_eq!(a.hot_path_allocs(), 0);
        assert_eq!(a.latest().unwrap().ordinal, n - 1);
    }
}
