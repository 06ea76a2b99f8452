//! Online SLO watchdog: EWMA-baseline rules over telemetry windows.
//!
//! The watchdog runs right where the windows close — inside the
//! scheduler's amortized section — so a sick rail is *reported* while
//! the run is still going, not discovered in a post-mortem dump. Four
//! rules cover the regressions the multi-rail literature targets:
//!
//! * **latency regression** — window p99 ack RTT blows past its EWMA
//!   baseline by a fixed factor;
//! * **rail share imbalance** — a rail that used to carry an
//!   established share of the traffic collapses (the RailS/FlexLink
//!   failure mode: one rail silently idle while the others saturate);
//! * **retransmit storm** — the per-window retransmission count jumps
//!   over `max(baseline × factor, floor)`;
//! * **shed onset** — overload shedding surges relative to its own
//!   baseline (absolute shedding is routine under open-loop load, so
//!   only the *onset* is anomalous).
//!
//! Every rule warms up for a fixed number of windows before it may
//! fire, carries a per-rule cooldown so a sustained incident produces
//! one alert rather than a storm of them, and appends to a bounded,
//! preallocated alert log (the fold path stays allocation-free). Fired
//! alerts are also recorded as [`crate::obs::EventKind::Alert`] events into the
//! flight-recorder ring by the engine, so they travel with every
//! existing exporter.

use std::fmt::Write as _;

use super::telemetry::Window;

/// Which rule fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlertKind {
    /// Window p99 latency regressed vs. its EWMA baseline.
    LatencyRegression,
    /// A rail's traffic share collapsed vs. its established baseline.
    RailImbalance,
    /// Retransmissions per window jumped over the storm threshold.
    RetransmitStorm,
    /// Overload shedding surged vs. its baseline.
    ShedOnset,
}

impl AlertKind {
    /// Stable numeric code, used as the `aux` word of the
    /// [`crate::obs::EventKind::Alert`] event.
    pub fn code(self) -> u64 {
        match self {
            AlertKind::LatencyRegression => 0,
            AlertKind::RailImbalance => 1,
            AlertKind::RetransmitStorm => 2,
            AlertKind::ShedOnset => 3,
        }
    }

    /// Short stable name for exporters and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::LatencyRegression => "latency_regression",
            AlertKind::RailImbalance => "rail_imbalance",
            AlertKind::RetransmitStorm => "retransmit_storm",
            AlertKind::ShedOnset => "shed_onset",
        }
    }
}

/// One fired rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Alert {
    /// Which rule.
    pub kind: AlertKind,
    /// Ordinal of the window that tripped it.
    pub window: u64,
    /// Engine-clock timestamp (the window's end).
    pub ts_ns: u64,
    /// Offending rail, when the rule is rail-scoped.
    pub rail: Option<usize>,
    /// The measured value that tripped the rule.
    pub value: f64,
    /// The EWMA baseline at fire time.
    pub baseline: f64,
}

// The thresholds. Every factor errs far to the quiet side: the
// watchdog's false-positive contract (a clean soak fires nothing) is a
// gated test. DESIGN.md §8 has the table.

/// Windows each rule observes before it may fire (baselines still learn
/// during warmup).
const WARMUP_WINDOWS: u64 = 3;
/// EWMA smoothing factor (weight of the newest window).
const ALPHA: f64 = 0.25;
/// Latency fires when window p99 > baseline × this factor...
const LATENCY_FACTOR: f64 = 4.0;
/// ...and above this absolute floor, ns (suppresses regressions on
/// sub-millisecond noise).
const LATENCY_FLOOR_NS: u64 = 5_000_000;
/// Minimum RTT samples in a window for the latency rule to judge it.
const LATENCY_MIN_SAMPLES: u64 = 8;
/// Retransmit storm fires when window retransmits >
/// `max(baseline × factor, floor)`.
const RETRANSMIT_FACTOR: f64 = 4.0;
/// Absolute retransmit floor per window (spurious RTO noise margin):
/// low enough that a drop storm trips it on sub-second windows, which
/// the clean soak's false-positive gate checks from the other side.
const RETRANSMIT_FLOOR: u64 = 6;
/// A rail's window share below this is a collapse...
const SHARE_COLLAPSE: f64 = 0.05;
/// ...but only if its baseline share was at least this established.
const SHARE_BASELINE_MIN: f64 = 0.25;
/// Total frames a window needs before the share rule judges it (idle
/// windows have no meaningful shares).
const SHARE_MIN_FRAMES: u64 = 32;
/// Shed onset fires when window sheds > `max(baseline × factor, floor)`.
const SHED_FACTOR: f64 = 8.0;
/// Absolute shed floor per window.
const SHED_FLOOR: u64 = 512;
/// Windows a rule stays quiet after firing (per kind, per rail for the
/// share rule).
const COOLDOWN_WINDOWS: u64 = 4;
/// Bounded alert log capacity (preallocated; overflow is counted).
const MAX_ALERTS: usize = 256;

const NEVER: u64 = u64::MAX;

/// The watchdog state machine. One per engine; fed every closed window.
#[derive(Clone, Debug)]
pub struct Watchdog {
    observed: u64,
    lat_ewma: f64,
    lat_windows: u64,
    retx_ewma: f64,
    shed_ewma: f64,
    share_ewma: Vec<f64>,
    share_windows: u64,
    alerts: Vec<Alert>,
    dropped: u64,
    /// Window ordinal each kind last fired at ([`NEVER`] = never).
    last_kind: [u64; 4],
    /// Per-rail cooldown for the share rule.
    last_share: Vec<u64>,
}

impl Watchdog {
    /// Watchdog for `n_rails` rails. The alert log is allocated here,
    /// once.
    pub fn new(n_rails: usize) -> Self {
        Watchdog {
            observed: 0,
            lat_ewma: 0.0,
            lat_windows: 0,
            retx_ewma: 0.0,
            shed_ewma: 0.0,
            share_ewma: vec![0.0; n_rails],
            share_windows: 0,
            alerts: Vec::with_capacity(MAX_ALERTS),
            dropped: 0,
            last_kind: [NEVER; 4],
            last_share: vec![NEVER; n_rails],
        }
    }

    /// Alerts fired so far (bounded log, oldest first).
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Alerts fired so far, the ones the log dropped included.
    pub(crate) fn alerts_fired(&self) -> u64 {
        self.alerts.len() as u64 + self.dropped
    }

    /// Windows observed so far.
    pub fn windows_observed(&self) -> u64 {
        self.observed
    }

    /// True when no rule has fired.
    pub fn is_clean(&self) -> bool {
        self.alerts.is_empty() && self.dropped == 0
    }

    fn cooled(&self, slot: u64, ordinal: u64) -> bool {
        slot == NEVER || ordinal >= slot + COOLDOWN_WINDOWS
    }

    fn fire(&mut self, a: Alert) {
        let idx = a.kind.code() as usize;
        self.last_kind[idx] = a.window;
        if let (AlertKind::RailImbalance, Some(r)) = (a.kind, a.rail) {
            self.last_share[r] = a.window;
        }
        if self.alerts.len() < MAX_ALERTS {
            self.alerts.push(a);
        } else {
            self.dropped += 1;
        }
    }

    /// Run every rule over one newly closed window. Returns how many
    /// alerts were appended to the log (the engine records that many
    /// [`crate::obs::EventKind::Alert`] events). Allocation-free.
    ///
    /// Baselines are *anomaly-gated*: a window that trips a rule (or
    /// would, were the rule not cooling down) does not feed that rule's
    /// EWMA. Otherwise a long incident — say a rail-0 outage spanning
    /// several windows — teaches the baseline that storms are normal,
    /// and a genuinely new incident minutes later (the rail-1 drop
    /// storm) slips under the inflated threshold. The cost is that a
    /// *permanent* regime change keeps re-alerting every cooldown
    /// until an operator adjusts the thresholds, which is the right
    /// default for an SLO watchdog.
    pub fn observe(&mut self, w: &Window) -> usize {
        let before = self.alerts.len();
        let armed = self.observed >= WARMUP_WINDOWS;
        let a = ALPHA;

        // Latency regression: judged only on windows with enough samples.
        let ws = &w.stats;
        if ws.ack_rtt_ns.count() >= LATENCY_MIN_SAMPLES {
            if let Some(p99) = ws.ack_rtt_ns.approx_quantile(0.99) {
                let p99f = p99 as f64;
                let regressed = self.lat_windows >= WARMUP_WINDOWS
                    && p99 > LATENCY_FLOOR_NS
                    && p99f > self.lat_ewma * LATENCY_FACTOR;
                if armed
                    && regressed
                    && self.cooled(
                        self.last_kind[AlertKind::LatencyRegression.code() as usize],
                        w.ordinal,
                    )
                {
                    self.fire(Alert {
                        kind: AlertKind::LatencyRegression,
                        window: w.ordinal,
                        ts_ns: w.end_ns,
                        rail: None,
                        value: p99f,
                        baseline: self.lat_ewma,
                    });
                }
                if self.lat_windows == 0 {
                    self.lat_ewma = p99f;
                } else if !(armed && regressed) {
                    self.lat_ewma = a * p99f + (1.0 - a) * self.lat_ewma;
                }
                self.lat_windows += 1;
            }
        }

        // Retransmit storm.
        let retx = ws.retransmits as f64;
        let storm_threshold = (self.retx_ewma * RETRANSMIT_FACTOR).max(RETRANSMIT_FLOOR as f64);
        let storming = retx > storm_threshold;
        if armed
            && storming
            && self.cooled(
                self.last_kind[AlertKind::RetransmitStorm.code() as usize],
                w.ordinal,
            )
        {
            // Blame the rail carrying most of the storm, if any stands out.
            let rail = ws
                .rails
                .iter()
                .enumerate()
                .max_by_key(|(_, r)| r.retransmits_blamed)
                .filter(|(_, r)| r.retransmits_blamed > 0)
                .map(|(i, _)| i);
            self.fire(Alert {
                kind: AlertKind::RetransmitStorm,
                window: w.ordinal,
                ts_ns: w.end_ns,
                rail,
                value: retx,
                baseline: self.retx_ewma,
            });
        }
        if !(armed && storming) {
            self.retx_ewma = a * retx + (1.0 - a) * self.retx_ewma;
        }

        // Rail share imbalance: judged only on windows with real traffic.
        // Collapse alone is not enough — bursty workloads legitimately
        // leave a rail idle for a window. A *dead* rail also shows
        // distress (failover reroutes, retransmits of its lost frames),
        // so the rule demands both.
        let total_frames: u64 = ws.rails.iter().map(|r| r.tx_frames()).sum();
        let total_bytes: u64 = ws.rails.iter().map(|r| r.wire_bytes).sum();
        if total_frames >= SHARE_MIN_FRAMES && total_bytes > 0 {
            for (i, rw) in ws.rails.iter().enumerate() {
                let share = rw.wire_bytes as f64 / total_bytes as f64;
                let distressed = rw.failovers > 0 || rw.retransmits_blamed > 0;
                let collapsed = self.share_windows >= WARMUP_WINDOWS
                    && self.share_ewma[i] >= SHARE_BASELINE_MIN
                    && share < SHARE_COLLAPSE
                    && distressed;
                if armed && collapsed && self.cooled(self.last_share[i], w.ordinal) {
                    self.fire(Alert {
                        kind: AlertKind::RailImbalance,
                        window: w.ordinal,
                        ts_ns: w.end_ns,
                        rail: Some(i),
                        value: share,
                        baseline: self.share_ewma[i],
                    });
                }
                if self.share_windows == 0 {
                    self.share_ewma[i] = share;
                } else if !(armed && collapsed) {
                    self.share_ewma[i] = a * share + (1.0 - a) * self.share_ewma[i];
                }
            }
            self.share_windows += 1;
        }

        // Shed onset.
        let sheds = ws.overload.admission_rejections as f64;
        let shed_threshold = (self.shed_ewma * SHED_FACTOR).max(SHED_FLOOR as f64);
        let shedding = sheds > shed_threshold;
        if armed
            && shedding
            && self.cooled(
                self.last_kind[AlertKind::ShedOnset.code() as usize],
                w.ordinal,
            )
        {
            self.fire(Alert {
                kind: AlertKind::ShedOnset,
                window: w.ordinal,
                ts_ns: w.end_ns,
                rail: None,
                value: sheds,
                baseline: self.shed_ewma,
            });
        }
        if !(armed && shedding) {
            self.shed_ewma = a * sheds + (1.0 - a) * self.shed_ewma;
        }

        self.observed += 1;
        self.alerts.len() - before
    }

    /// Machine-readable verdict: the contract `nmad soak` and
    /// `verify.sh` check. Hand-written JSON (static labels only), same
    /// discipline as the other exporters.
    pub fn verdict_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"clean\":{},\"windows_observed\":{},\"alerts_fired\":{},\"alerts_dropped\":{},\"alerts\":[",
            self.is_clean(),
            self.observed,
            self.alerts_fired(),
            self.dropped
        );
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":\"{}\",\"window\":{},\"ts_ns\":{},\"rail\":",
                a.kind.label(),
                a.window,
                a.ts_ns
            );
            match a.rail {
                Some(r) => {
                    let _ = write!(out, "{r}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ",\"value\":{:.3},\"baseline\":{:.3}}}",
                a.value, a.baseline
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::telemetry::Window;
    use crate::stats::EngineStats;

    fn window(ordinal: u64, n_rails: usize) -> Window {
        Window {
            ordinal,
            start_ns: ordinal * 1_000,
            end_ns: (ordinal + 1) * 1_000,
            stats: EngineStats::new(n_rails),
            ..Window::default()
        }
    }

    fn balanced(ordinal: u64) -> Window {
        let mut w = window(ordinal, 2);
        for r in &mut w.stats.rails {
            r.packets = SHARE_MIN_FRAMES;
            r.wire_bytes = 1 << 20;
        }
        w
    }

    /// A balanced window whose ack RTTs are `samples` samples of `ns`.
    fn with_latency(ordinal: u64, samples: u64, ns: u64) -> Window {
        let mut w = balanced(ordinal);
        for _ in 0..samples {
            w.stats.ack_rtt_ns.record(ns);
        }
        w
    }

    /// A watchdog past its warmup on balanced, calm windows.
    fn warmed() -> Watchdog {
        let mut d = Watchdog::new(2);
        for i in 0..WARMUP_WINDOWS {
            assert_eq!(d.observe(&balanced(i)), 0);
        }
        d
    }

    #[test]
    fn retransmit_storm_fires_after_warmup_with_cooldown() {
        let mut d = Watchdog::new(2);
        // A storm during warmup only feeds the baseline.
        let mut w0 = balanced(0);
        w0.stats.retransmits = 100;
        assert_eq!(d.observe(&w0), 0, "still warming up");
        for i in 1..WARMUP_WINDOWS {
            let mut w = balanced(i);
            w.stats.retransmits = 1;
            assert_eq!(d.observe(&w), 0);
        }
        // Storm.
        let mut w = balanced(WARMUP_WINDOWS);
        w.stats.retransmits = 500;
        w.stats.rails[1].retransmits_blamed = 400;
        assert_eq!(d.observe(&w), 1);
        let a = d.alerts()[0];
        assert_eq!(a.kind, AlertKind::RetransmitStorm);
        assert_eq!(a.rail, Some(1));
        assert_eq!(a.window, WARMUP_WINDOWS);
        // A sustained storm stays quiet through the cooldown...
        for i in 1..COOLDOWN_WINDOWS {
            let mut w = balanced(WARMUP_WINDOWS + i);
            w.stats.retransmits = 600;
            assert_eq!(d.observe(&w), 0, "cooling down");
        }
        // ...and is reported again once it is over.
        let mut w = balanced(WARMUP_WINDOWS + COOLDOWN_WINDOWS);
        w.stats.retransmits = 600;
        assert_eq!(d.observe(&w), 1);
    }

    #[test]
    fn storm_floor_sits_at_six_retransmits() {
        // From a zero baseline only the floor stands between a few
        // spurious RTOs and an alert.
        let mut d = warmed();
        for i in 0..20 {
            let mut w = balanced(WARMUP_WINDOWS + i);
            w.stats.retransmits = RETRANSMIT_FLOOR;
            assert_eq!(d.observe(&w), 0, "at the floor is not above it");
        }
        let mut d = warmed();
        let mut w = balanced(WARMUP_WINDOWS);
        w.stats.retransmits = RETRANSMIT_FLOOR + 1;
        assert_eq!(d.observe(&w), 1);
    }

    #[test]
    fn rail_share_collapse_fires_for_the_dead_rail() {
        let mut d = warmed();
        // Rail 0 dies: all traffic shifts to rail 1, and the failover
        // shows up as distress on the dead rail.
        let mut w = window(WARMUP_WINDOWS, 2);
        w.stats.rails[0].failovers = 1;
        w.stats.rails[1].packets = 2 * SHARE_MIN_FRAMES;
        w.stats.rails[1].wire_bytes = 2 << 20;
        assert_eq!(d.observe(&w), 1);
        let a = d.alerts()[0];
        assert_eq!(a.kind, AlertKind::RailImbalance);
        assert_eq!(a.rail, Some(0));
        assert!(a.baseline > 0.4, "baseline share was ~0.5: {}", a.baseline);
    }

    #[test]
    fn quiet_rail_without_distress_is_not_a_collapse() {
        let mut d = warmed();
        // A bursty workload leaves rail 0 idle for one window — no
        // failovers, no retransmits. That is traffic shape, not death.
        let mut w = window(WARMUP_WINDOWS, 2);
        w.stats.rails[1].packets = 2 * SHARE_MIN_FRAMES;
        w.stats.rails[1].wire_bytes = 2 << 20;
        assert_eq!(d.observe(&w), 0);
        assert!(d.is_clean());
    }

    #[test]
    fn idle_windows_do_not_trip_the_share_rule() {
        let mut d = warmed();
        // A window below SHARE_MIN_FRAMES must not look like a collapse
        // of both rails, distress or not.
        let mut w = window(WARMUP_WINDOWS, 2);
        w.stats.rails[0].packets = SHARE_MIN_FRAMES - 1;
        w.stats.rails[0].wire_bytes = 1;
        w.stats.rails[1].failovers = 1;
        assert_eq!(d.observe(&w), 0);
        assert!(d.is_clean());
    }

    #[test]
    fn latency_regression_needs_samples_and_floor() {
        let n = LATENCY_MIN_SAMPLES;
        let baseline = |base_ns: u64| {
            let mut d = Watchdog::new(2);
            for i in 0..=WARMUP_WINDOWS {
                assert_eq!(d.observe(&with_latency(i, n, base_ns)), 0);
            }
            d
        };
        let next = WARMUP_WINDOWS + 1;
        // A 10x p99 jump above the floor fires.
        let mut d = baseline(2_000_000);
        assert_eq!(d.observe(&with_latency(next, n, 20_000_000)), 1);
        assert_eq!(d.alerts()[0].kind, AlertKind::LatencyRegression);
        // The same jump below the 5 ms floor is noise.
        let mut d = baseline(100_000);
        assert_eq!(d.observe(&with_latency(next, n, 1_000_000)), 0);
        // A jump on too few samples is ignored.
        let mut d = baseline(2_000_000);
        assert_eq!(d.observe(&with_latency(next, n - 1, 1_000_000_000)), 0);
    }

    #[test]
    fn shed_onset_is_relative_to_baseline() {
        let mut d = Watchdog::new(2);
        // Routine shedding well above the floor establishes a baseline
        // without firing.
        for i in 0..6 {
            let mut w = balanced(i);
            w.stats.overload.admission_rejections = 2 * SHED_FLOOR;
            assert_eq!(d.observe(&w), 0, "steady shedding is not an onset");
        }
        // A surge fires.
        let mut w = balanced(6);
        w.stats.overload.admission_rejections = 40 * SHED_FLOOR;
        assert_eq!(d.observe(&w), 1);
        assert_eq!(d.alerts()[0].kind, AlertKind::ShedOnset);
    }

    #[test]
    fn verdict_json_is_machine_readable() {
        let mut d = warmed();
        let mut w = balanced(WARMUP_WINDOWS);
        w.stats.retransmits = 500;
        d.observe(&w);
        let v = d.verdict_json();
        assert!(v.contains("\"clean\":false"), "{v}");
        assert!(v.contains("\"kind\":\"retransmit_storm\""), "{v}");
        assert!(v.contains("\"windows_observed\":4"), "{v}");
        let clean = Watchdog::new(2).verdict_json();
        assert!(clean.contains("\"clean\":true"), "{clean}");
        assert!(clean.ends_with("\"alerts\":[]}"), "{clean}");
    }

    #[test]
    fn alert_log_is_bounded() {
        // A storm that never ends keeps a zero baseline (anomalous
        // windows do not feed it) and fires once per cooldown: two more
        // times than the log holds.
        let mut d = warmed();
        let fires = MAX_ALERTS as u64 + 2;
        for i in 0..fires * COOLDOWN_WINDOWS {
            let mut w = balanced(WARMUP_WINDOWS + i);
            w.stats.retransmits = RETRANSMIT_FLOOR + 1;
            d.observe(&w);
        }
        assert_eq!(d.alerts().len(), MAX_ALERTS);
        assert_eq!(d.alerts_fired(), fires, "the dropped ones are counted");
        assert_eq!(
            d.alerts()[1].window - d.alerts()[0].window,
            COOLDOWN_WINDOWS
        );
        assert!(!d.is_clean());
    }

    #[test]
    fn incident_windows_do_not_poison_the_baseline() {
        let mut d = Watchdog::new(2);
        for i in 0..WARMUP_WINDOWS {
            let mut w = balanced(i);
            w.stats.retransmits = 2;
            d.observe(&w);
        }
        // A storm as long as the cooldown (one alert) must not teach the
        // EWMA that storms are normal...
        let storm_end = WARMUP_WINDOWS + COOLDOWN_WINDOWS;
        for i in WARMUP_WINDOWS..storm_end {
            let mut w = balanced(i);
            w.stats.retransmits = 1_000;
            d.observe(&w);
        }
        assert_eq!(d.alerts().len(), 1);
        // ...so after a calm window, a much smaller fresh storm still
        // reads as one, against the pre-incident baseline.
        let mut calm = balanced(storm_end);
        calm.stats.retransmits = 2;
        assert_eq!(d.observe(&calm), 0);
        let mut w = balanced(storm_end + 1);
        w.stats.retransmits = 300;
        assert_eq!(d.observe(&w), 1, "baseline inflated by the incident");
        assert!(d.alerts()[1].baseline < 10.0, "{}", d.alerts()[1].baseline);
    }
}
