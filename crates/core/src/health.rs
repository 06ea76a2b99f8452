//! Per-rail link health: RTT estimation, failure detection and probing.
//!
//! The transmit layer feeds this tracker with acknowledgement round-trip
//! samples and retransmission timeouts; the engine consults it to steer
//! the strategies away from failing rails and to decide when a rail that
//! went dark should be probed and reinstated.
//!
//! Each rail moves through a small state machine:
//!
//! ```text
//!           consecutive timeouts                 more timeouts
//!   Up ───────────────────────────► Suspect ───────────────────► Down
//!    ▲                                 │                           │
//!    │ probe answered / ack arrived    │                           │ probe
//!    └─────────────────────────────────┘                           │ timer
//!    ▲                                                             ▼
//!    └──────────────── probe answered ────────────────────── Probing
//! ```
//!
//! `Up` and `Suspect` rails remain schedulable; `Down` and `Probing`
//! rails carry only probe traffic until a probe comes back.
//!
//! Retransmission timing follows the classic TCP estimator: Jacobson
//! SRTT/RTTVAR smoothing for the round-trip estimate, Karn's rule (no
//! samples from retransmitted attempts) and exponential backoff on
//! timeout, clamped to a configurable window.

use nmad_model::RailId;

use crate::obs::{Event, EventKind};

/// Reachability state of one rail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RailState {
    /// Healthy: scheduled normally.
    Up,
    /// Recent timeouts observed; still scheduled, but being probed.
    Suspect,
    /// Declared unreachable: data traffic avoids it, probes are sent
    /// periodically to detect recovery.
    Down,
    /// A reinstatement probe is outstanding on a down rail.
    Probing,
}

impl RailState {
    /// Every state, by [`RailState::index`].
    const ALL: [RailState; 4] = [
        RailState::Up,
        RailState::Suspect,
        RailState::Down,
        RailState::Probing,
    ];

    /// Dense index (0 Up, 1 Suspect, 2 Down, 3 Probing), used for dwell
    /// arrays and event encoding.
    pub fn index(self) -> usize {
        match self {
            RailState::Up => 0,
            RailState::Suspect => 1,
            RailState::Down => 2,
            RailState::Probing => 3,
        }
    }

    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            RailState::Up => "Up",
            RailState::Suspect => "Suspect",
            RailState::Down => "Down",
            RailState::Probing => "Probing",
        }
    }
}

/// Consecutive timeouts that move a rail `Up -> Suspect`.
const SUSPECT_AFTER: u32 = 1;
/// Consecutive timeouts that move a rail to `Down`.
const DOWN_AFTER: u32 = 3;

/// Timers for [`HealthTracker`]. All times are in nanoseconds of the
/// runtime's clock (wall clock for the threaded transports, virtual time
/// for the simulator), which is why callers set them differently.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthConfig {
    /// Retransmission timeout used before any RTT sample exists.
    pub initial_rto_ns: u64,
    /// Lower clamp for the adaptive RTO.
    pub min_rto_ns: u64,
    /// Upper clamp for the adaptive RTO (and its exponential backoff).
    pub max_rto_ns: u64,
    /// Delay between reinstatement probes while a rail is `Down`.
    pub probe_interval_ns: u64,
    /// How long to wait for a probe's pong before counting a timeout.
    pub probe_timeout_ns: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            initial_rto_ns: 50_000_000, // 50 ms: generous for threaded runs
            min_rto_ns: 1_000_000,
            max_rto_ns: 2_000_000_000,
            probe_interval_ns: 100_000_000,
            probe_timeout_ns: 50_000_000,
        }
    }
}

impl HealthConfig {
    /// Panic on nonsensical settings.
    pub fn validate(&self) {
        assert!(self.min_rto_ns > 0, "min RTO must be positive");
        assert!(
            self.min_rto_ns <= self.max_rto_ns,
            "min RTO must not exceed max RTO"
        );
        assert!(
            (self.min_rto_ns..=self.max_rto_ns).contains(&self.initial_rto_ns),
            "initial RTO must lie within [min, max]"
        );
        assert!(
            self.probe_interval_ns > 0,
            "probe interval must be positive"
        );
        assert!(self.probe_timeout_ns > 0, "probe timeout must be positive");
    }
}

/// Health record of a single rail.
#[derive(Clone, Debug)]
pub struct RailHealth {
    state: RailState,
    /// Smoothed RTT (Jacobson), `None` until the first sample.
    srtt_ns: Option<u64>,
    /// RTT variance estimate (Jacobson).
    rttvar_ns: u64,
    /// Timeouts since the last success on this rail.
    consecutive_timeouts: u32,
    /// Earliest time the next reinstatement probe may go out (`Down`).
    next_probe_ns: u64,
    /// When the outstanding probe was issued (`Suspect`/`Probing`).
    probe_sent_ns: u64,
    /// A probe is outstanding (suppresses duplicates).
    probe_outstanding: bool,
    /// Last time positive evidence (ack, pong) arrived for this rail.
    last_ok_ns: Option<u64>,
    /// Time spent in each state before the current one, indexed by
    /// [`RailState::index`].
    dwell: [u64; 4],
    /// When the current state was entered.
    entered_ns: u64,
}

impl RailHealth {
    fn new() -> Self {
        RailHealth {
            state: RailState::Up,
            srtt_ns: None,
            rttvar_ns: 0,
            consecutive_timeouts: 0,
            next_probe_ns: 0,
            probe_sent_ns: 0,
            probe_outstanding: false,
            last_ok_ns: None,
            dwell: [0; 4],
            entered_ns: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> RailState {
        self.state
    }

    /// Smoothed round-trip estimate, if any sample arrived yet.
    pub fn srtt_ns(&self) -> Option<u64> {
        self.srtt_ns
    }

    /// RTT variance estimate (Jacobson), zero until the first sample.
    pub fn rttvar_ns(&self) -> u64 {
        self.rttvar_ns
    }

    /// Total time spent in each state up to `now_ns`, indexed by
    /// [`RailState::index`].
    pub fn dwell_ns(&self, now_ns: u64) -> [u64; 4] {
        let mut dwell = self.dwell;
        dwell[self.state.index()] += now_ns.saturating_sub(self.entered_ns);
        dwell
    }

    fn transition(&mut self, to: RailState, now_ns: u64) -> bool {
        if self.state == to {
            return false;
        }
        self.dwell = self.dwell_ns(now_ns);
        self.state = to;
        self.entered_ns = now_ns;
        true
    }
}

/// A state change reported back to the engine for accounting/failover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transition {
    /// The rail that changed state.
    pub rail: RailId,
    /// Its new state.
    pub to: RailState,
}

/// A point-in-time snapshot of one rail's health estimators, for CLI
/// display (`nmad faults`) and the observability exporters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RailTelemetry {
    /// Current reachability state.
    pub state: RailState,
    /// Smoothed RTT estimate, if any sample arrived.
    pub srtt_ns: Option<u64>,
    /// RTT variance estimate.
    pub rttvar_ns: u64,
    /// Current adaptive retransmission timeout.
    pub rto_ns: u64,
    /// Time spent in each state so far, indexed by [`RailState::index`].
    pub dwell_ns: [u64; 4],
}

/// The states `rail` went through, read from the recorder's
/// `health_transition` events: [`RailState::Up`], where every rail
/// starts, then each state it entered, in order. Whole only when the
/// ring that held `events` dropped none.
pub fn recorded_path<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    rail: usize,
) -> Vec<RailState> {
    let entered = events
        .into_iter()
        .filter(|e| e.kind == EventKind::HealthTransition && usize::from(e.rail) == rail)
        .map(|e| RailState::ALL[e.aux as usize]);
    std::iter::once(RailState::Up).chain(entered).collect()
}

/// Tracks the health of every rail of an engine.
#[derive(Clone, Debug)]
pub struct HealthTracker {
    cfg: HealthConfig,
    rails: Vec<RailHealth>,
}

impl HealthTracker {
    /// A tracker with all `n` rails starting `Up`.
    pub fn new(cfg: HealthConfig, n: usize) -> Self {
        cfg.validate();
        HealthTracker {
            cfg,
            rails: (0..n).map(|_| RailHealth::new()).collect(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Per-rail record.
    pub fn rail(&self, rail: RailId) -> &RailHealth {
        &self.rails[rail.0]
    }

    /// Current state of every rail.
    pub fn states(&self) -> Vec<RailState> {
        self.rails.iter().map(|r| r.state).collect()
    }

    /// True when `rail` may carry data traffic (`Up` or `Suspect`).
    pub fn usable(&self, rail: RailId) -> bool {
        matches!(self.rails[rail.0].state, RailState::Up | RailState::Suspect)
    }

    /// True when no rail at all is usable (the engine then falls back to
    /// sending control packets on whatever rail is offered).
    pub fn none_usable(&self) -> bool {
        (0..self.rails.len()).all(|r| !self.usable(RailId(r)))
    }

    /// EWMA weight the online calibrator applies to a transfer-time sample
    /// from `rail`. A rail under suspicion (or still proving itself after
    /// an outage) yields quarter-weight samples — its timings are tainted
    /// by whatever got it suspected — and a `Down` rail yields none, so a
    /// dying rail cannot poison the split tables on its way out.
    pub fn calibration_weight(&self, rail: RailId) -> f64 {
        match self.rails[rail.0].state {
            RailState::Up => 1.0,
            RailState::Suspect | RailState::Probing => 0.25,
            RailState::Down => 0.0,
        }
    }

    /// Record positive evidence (an ack or pong touching `rail`) at
    /// `now_ns`. Used to exonerate rails from collective blame: a rail
    /// that demonstrably delivered since an attempt started is almost
    /// certainly not the one that lost that attempt's packets.
    pub fn note_ok(&mut self, rail: RailId, now_ns: u64) {
        let r = &mut self.rails[rail.0];
        r.last_ok_ns = Some(r.last_ok_ns.map_or(now_ns, |t| t.max(now_ns)));
    }

    /// True when positive evidence arrived for `rail` at or after `t_ns`.
    pub fn ok_since(&self, rail: RailId, t_ns: u64) -> bool {
        self.rails[rail.0].last_ok_ns.is_some_and(|t| t >= t_ns)
    }

    /// Adaptive retransmission timeout for `rail`:
    /// `SRTT + 4·RTTVAR`, clamped, or the configured initial RTO before
    /// the first sample.
    pub fn rto_ns(&self, rail: RailId) -> u64 {
        let r = &self.rails[rail.0];
        match r.srtt_ns {
            Some(srtt) => (srtt + 4 * r.rttvar_ns).clamp(self.cfg.min_rto_ns, self.cfg.max_rto_ns),
            None => self.cfg.initial_rto_ns,
        }
    }

    /// A conservative RTO covering every currently-usable rail (used to
    /// arm per-message retransmission timers that may span rails).
    pub fn rto_hint_ns(&self) -> u64 {
        (0..self.rails.len())
            .filter(|&r| self.usable(RailId(r)))
            .map(|r| self.rto_ns(RailId(r)))
            .max()
            .unwrap_or(self.cfg.initial_rto_ns)
    }

    /// Snapshot of `rail`'s estimators and dwell times as of `now_ns`.
    pub fn telemetry(&self, rail: RailId, now_ns: u64) -> RailTelemetry {
        let r = &self.rails[rail.0];
        RailTelemetry {
            state: r.state,
            srtt_ns: r.srtt_ns,
            rttvar_ns: r.rttvar_ns,
            rto_ns: self.rto_ns(rail),
            dwell_ns: r.dwell_ns(now_ns),
        }
    }

    /// Feed one round-trip sample (Jacobson/Karn: callers must not sample
    /// retransmitted attempts). Also counts as a success.
    pub fn on_rtt_sample(&mut self, rail: RailId, rtt_ns: u64, now_ns: u64) -> Option<Transition> {
        let r = &mut self.rails[rail.0];
        match r.srtt_ns {
            None => {
                r.srtt_ns = Some(rtt_ns);
                r.rttvar_ns = rtt_ns / 2;
            }
            Some(srtt) => {
                // RFC 6298 with alpha = 1/8, beta = 1/4.
                let err = srtt.abs_diff(rtt_ns);
                r.rttvar_ns = (3 * r.rttvar_ns + err) / 4;
                r.srtt_ns = Some((7 * srtt + rtt_ns) / 8);
            }
        }
        self.on_success(rail, now_ns)
    }

    /// A transmission involving `rail` was acknowledged (no RTT sample
    /// available, e.g. a retransmitted attempt under Karn's rule).
    pub fn on_success(&mut self, rail: RailId, now_ns: u64) -> Option<Transition> {
        let r = &mut self.rails[rail.0];
        r.consecutive_timeouts = 0;
        r.probe_outstanding = false;
        match r.state {
            RailState::Up => None,
            // Any ack on the rail proves liveness; recover immediately.
            RailState::Suspect | RailState::Down | RailState::Probing => {
                r.transition(RailState::Up, now_ns);
                Some(Transition {
                    rail,
                    to: RailState::Up,
                })
            }
        }
    }

    /// A retransmission timeout is blamed on `rail`.
    pub fn on_timeout(&mut self, rail: RailId, now_ns: u64) -> Option<Transition> {
        let cfg = self.cfg;
        let r = &mut self.rails[rail.0];
        if matches!(r.state, RailState::Down | RailState::Probing) {
            return None; // already out of service
        }
        r.consecutive_timeouts = r.consecutive_timeouts.saturating_add(1);
        let to = if r.consecutive_timeouts >= DOWN_AFTER {
            RailState::Down
        } else if r.consecutive_timeouts >= SUSPECT_AFTER {
            RailState::Suspect
        } else {
            return None;
        };
        if to == RailState::Down {
            r.next_probe_ns = now_ns.saturating_add(cfg.probe_interval_ns);
            r.probe_outstanding = false;
        }
        r.transition(to, now_ns).then_some(Transition { rail, to })
    }

    /// Rails that should get a probe now: `Down` rails whose probe timer
    /// expired, and `Suspect` rails with no probe outstanding (probing a
    /// suspect rail quickly separates "rail dead" from "message stalled
    /// for another reason").
    pub fn probe_due(&self, rail: RailId, now_ns: u64) -> bool {
        let r = &self.rails[rail.0];
        match r.state {
            RailState::Down => now_ns >= r.next_probe_ns,
            RailState::Suspect => !r.probe_outstanding,
            _ => false,
        }
    }

    /// Record that a probe was queued on `rail`. A `Down` rail moves to
    /// `Probing`; a `Suspect` rail stays schedulable while its probe is
    /// out.
    pub fn on_probe_sent(&mut self, rail: RailId, now_ns: u64) -> Option<Transition> {
        let r = &mut self.rails[rail.0];
        r.probe_sent_ns = now_ns;
        r.probe_outstanding = true;
        if r.state == RailState::Down && r.transition(RailState::Probing, now_ns) {
            return Some(Transition {
                rail,
                to: RailState::Probing,
            });
        }
        None
    }

    /// True when the outstanding probe on `rail` went unanswered past the
    /// probe timeout.
    pub fn probe_expired(&self, rail: RailId, now_ns: u64) -> bool {
        let r = &self.rails[rail.0];
        r.probe_outstanding && now_ns >= r.probe_sent_ns.saturating_add(self.cfg.probe_timeout_ns)
    }

    /// The outstanding probe on `rail` timed out. A `Probing` rail drops
    /// back to `Down` (and re-arms the probe timer); a `Suspect` rail
    /// counts the lost probe as one more timeout.
    pub fn on_probe_timeout(&mut self, rail: RailId, now_ns: u64) -> Option<Transition> {
        let interval = self.cfg.probe_interval_ns;
        let r = &mut self.rails[rail.0];
        r.probe_outstanding = false;
        match r.state {
            RailState::Probing => {
                r.next_probe_ns = now_ns.saturating_add(interval);
                r.transition(RailState::Down, now_ns);
                Some(Transition {
                    rail,
                    to: RailState::Down,
                })
            }
            RailState::Suspect => self.on_timeout(rail, now_ns),
            _ => None,
        }
    }

    /// A probe pong came back on `rail`: the rail is alive.
    pub fn on_probe_ok(&mut self, rail: RailId, rtt_ns: u64, now_ns: u64) -> Option<Transition> {
        self.on_rtt_sample(rail, rtt_ns, now_ns)
    }

    /// The next instant at which this rail needs attention (a probe to
    /// send or an outstanding probe to expire), if any. Lets runtimes
    /// size their idle sleeps.
    pub fn next_event_ns(&self, rail: RailId) -> Option<u64> {
        let r = &self.rails[rail.0];
        match r.state {
            RailState::Down => Some(r.next_probe_ns),
            RailState::Probing => Some(r.probe_sent_ns.saturating_add(self.cfg.probe_timeout_ns)),
            RailState::Suspect => Some(if r.probe_outstanding {
                r.probe_sent_ns.saturating_add(self.cfg.probe_timeout_ns)
            } else {
                0 // probe due immediately
            }),
            RailState::Up => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig {
            initial_rto_ns: 100,
            min_rto_ns: 10,
            max_rto_ns: 10_000,
            probe_interval_ns: 500,
            probe_timeout_ns: 200,
        }
    }

    #[test]
    fn rto_starts_at_initial_and_tracks_samples() {
        let mut h = HealthTracker::new(cfg(), 2);
        assert_eq!(h.rto_ns(RailId(0)), 100);
        h.on_rtt_sample(RailId(0), 80, 0);
        // First sample: srtt = 80, rttvar = 40 -> rto = 80 + 160 = 240.
        assert_eq!(h.rto_ns(RailId(0)), 240);
        for _ in 0..50 {
            h.on_rtt_sample(RailId(0), 80, 0);
        }
        // Stable samples shrink the variance towards the clamp floor.
        assert!(h.rto_ns(RailId(0)) < 240);
        assert!(h.rto_ns(RailId(0)) >= 80);
        // Other rail untouched.
        assert_eq!(h.rto_ns(RailId(1)), 100);
    }

    #[test]
    fn timeouts_walk_up_suspect_down() {
        let mut h = HealthTracker::new(cfg(), 1);
        let r = RailId(0);
        assert_eq!(
            h.on_timeout(r, 0),
            Some(Transition {
                rail: r,
                to: RailState::Suspect
            })
        );
        assert!(h.usable(r), "suspect rails stay schedulable");
        assert_eq!(h.on_timeout(r, 10), None, "still suspect");
        assert_eq!(
            h.on_timeout(r, 20),
            Some(Transition {
                rail: r,
                to: RailState::Down
            })
        );
        assert!(!h.usable(r));
        assert!(h.none_usable());
    }

    #[test]
    fn success_resets_and_recovers() {
        let mut h = HealthTracker::new(cfg(), 1);
        let r = RailId(0);
        h.on_timeout(r, 0);
        assert_eq!(h.rail(r).state(), RailState::Suspect);
        let t = h.on_success(r, 0).expect("recovery transition");
        assert_eq!(t.to, RailState::Up);
        // Counter reset: one timeout only re-suspects, doesn't go down.
        h.on_timeout(r, 0);
        assert_eq!(h.rail(r).state(), RailState::Suspect);
    }

    #[test]
    fn probe_cycle_reinstates_a_down_rail() {
        let mut h = HealthTracker::new(cfg(), 1);
        let r = RailId(0);
        // Every state change the calls report, in order.
        let mut path = Vec::new();
        for t in 0..3 {
            path.extend(h.on_timeout(r, t));
        }
        assert_eq!(h.rail(r).state(), RailState::Down);
        assert!(!h.probe_due(r, 0), "probe timer not yet expired");
        // Rail went down at t=2 -> next probe due at 502.
        assert!(h.probe_due(r, 502));
        path.extend(h.on_probe_sent(r, 502));
        assert_eq!(h.rail(r).state(), RailState::Probing);
        // Unanswered: back to Down, timer re-armed.
        assert!(h.probe_expired(r, 702));
        path.extend(h.on_probe_timeout(r, 702));
        assert_eq!(h.rail(r).state(), RailState::Down);
        assert!(!h.probe_due(r, 900));
        assert!(h.probe_due(r, 1202));
        // Answered this time: Up again.
        path.extend(h.on_probe_sent(r, 1200));
        path.extend(h.on_probe_ok(r, 50, 1250));
        assert_eq!(h.rail(r).state(), RailState::Up);
        let to = |to| Transition { rail: r, to };
        assert_eq!(
            path,
            [
                to(RailState::Suspect),
                to(RailState::Down),
                to(RailState::Probing),
                to(RailState::Down),
                to(RailState::Probing),
                to(RailState::Up),
            ]
        );
    }

    #[test]
    fn suspect_probe_timeout_counts_towards_down() {
        let mut h = HealthTracker::new(cfg(), 1);
        let r = RailId(0);
        h.on_timeout(r, 0); // 1: Suspect
        assert!(h.probe_due(r, 0), "suspect rails probe immediately");
        h.on_probe_sent(r, 0);
        assert_eq!(h.rail(r).state(), RailState::Suspect, "still schedulable");
        assert!(!h.probe_due(r, 10), "one probe at a time");
        h.on_probe_timeout(r, 200); // 2: still Suspect
        assert_eq!(h.rail(r).state(), RailState::Suspect);
        h.on_probe_sent(r, 200);
        h.on_probe_timeout(r, 400); // 3: Down
        assert_eq!(h.rail(r).state(), RailState::Down);
    }

    #[test]
    fn dwell_times_follow_the_timestamped_history() {
        let mut h = HealthTracker::new(cfg(), 1);
        let r = RailId(0);
        h.on_timeout(r, 100); // Up [0,100), Suspect from 100
        h.on_timeout(r, 150);
        h.on_timeout(r, 300); // Down from 300
        h.on_probe_sent(r, 800); // Probing from 800
        h.on_probe_ok(r, 50, 850); // Up again from 850
        let t = h.telemetry(r, 1000);
        assert_eq!(t.state, RailState::Up);
        assert_eq!(t.dwell_ns[RailState::Up.index()], 100 + (1000 - 850));
        assert_eq!(t.dwell_ns[RailState::Suspect.index()], 200);
        assert_eq!(t.dwell_ns[RailState::Down.index()], 500);
        assert_eq!(t.dwell_ns[RailState::Probing.index()], 50);
        assert_eq!(t.srtt_ns, Some(50));
        assert_eq!(t.rttvar_ns, 25);
    }

    /// The path read back from `health_transition` events is the one the
    /// tracker walked: what the engine records is `aux` = the new state.
    #[test]
    fn recorded_path_reads_the_transition_events() {
        let ev = |rail: usize, to: RailState| {
            Event::new(0, EventKind::HealthTransition)
                .rail(rail)
                .aux(to.index() as u64)
        };
        let events = [
            ev(0, RailState::Suspect),
            ev(1, RailState::Suspect),
            Event::new(0, EventKind::ProbeSent).rail(0),
            ev(0, RailState::Down),
            ev(0, RailState::Probing),
            ev(0, RailState::Up),
        ];
        use RailState::*;
        assert_eq!(recorded_path(&events, 0), [Up, Suspect, Down, Probing, Up]);
        assert_eq!(recorded_path(&events, 1), [Up, Suspect]);
        assert_eq!(recorded_path(&events, 2), [Up]);
    }

    #[test]
    fn calibration_weight_tracks_state() {
        let mut h = HealthTracker::new(cfg(), 1);
        let r = RailId(0);
        assert_eq!(h.calibration_weight(r), 1.0);
        h.on_timeout(r, 100); // Suspect
        assert_eq!(h.calibration_weight(r), 0.25);
        h.on_timeout(r, 150);
        h.on_timeout(r, 300); // Down
        assert_eq!(h.calibration_weight(r), 0.0);
        h.on_probe_sent(r, 800); // Probing
        assert_eq!(h.calibration_weight(r), 0.25);
        h.on_probe_ok(r, 50, 850); // Up again
        assert_eq!(h.calibration_weight(r), 1.0);
    }

    #[test]
    #[should_panic(expected = "initial RTO")]
    fn config_validation_rejects_out_of_window_initial() {
        HealthConfig {
            initial_rto_ns: 5,
            ..cfg()
        }
        .validate();
    }
}
