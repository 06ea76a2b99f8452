//! Engine configuration.

use crate::health::HealthConfig;
use crate::strategy::StrategyKind;

/// Recorder ring of a [`Observe::Watch`] engine, in events: the newest
/// events of a live run, for traces and spans (the telemetry windows are
/// cut from the counters and never read it).
const WATCH_RECORD_CAPACITY: usize = 1 << 15;

/// What the engine observes about itself. One mode, not three switches:
/// each mode keeps the layers of the one before and adds its own — the
/// recorder's events, then the telemetry windows with the watchdog that
/// reads them. The counters ([`crate::EngineStats`]) are kept in every
/// mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Observe {
    /// Nothing is recorded (the recorder is a no-op).
    #[default]
    Off,
    /// The post-mortem flight recorder: a ring of `capacity` fixed-size
    /// events preallocated at engine construction (see
    /// [`crate::obs::FlightRecorder`]).
    Record {
        /// Ring size in events.
        capacity: usize,
    },
    /// Live observation: a recorder ring of 32 Ki events, the counters
    /// cut into `window_ns`-long telemetry windows (see
    /// [`crate::obs::TelemetryAggregator`]), and the SLO watchdog run over
    /// every window that closes (see [`crate::obs::Watchdog`]).
    Watch {
        /// Telemetry window length, engine-clock nanoseconds.
        window_ns: u64,
    },
}

impl Observe {
    /// Flight-recorder ring size in events (0: no recorder).
    pub fn recorder_capacity(self) -> usize {
        match self {
            Observe::Off => 0,
            Observe::Record { capacity } => capacity,
            Observe::Watch { .. } => WATCH_RECORD_CAPACITY,
        }
    }
}

/// Tunable knobs of the engine, with defaults matching the paper's setup.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Which optimizing scheduler to plug in.
    pub strategy: StrategyKind,
    /// Segments at or above this many bytes go through the rendezvous
    /// track; below, the eager track. The paper's drivers switch at 32 KiB.
    pub rdv_threshold: usize,
    /// Opportunistic aggregation only copies while the container stays
    /// under this size — the paper finds copy-and-send wins below 16 KiB
    /// (§3.1: "for small messages ... the best solution is to copy the
    /// segments into a contiguous memory area").
    pub agg_max_bytes: usize,
    /// Minimum chunk size when splitting a segment across rails, so no
    /// chunk falls back into the PIO regime (§3.4: "packs large enough in
    /// order to avoid the transfer of the different chunks with a PIO
    /// operation"). Matches the 8 KiB PIO threshold.
    pub min_chunk: usize,
    /// Whether to embed payload CRCs in packets. Both live transports,
    /// mem and TCP, force it on; the simulator does not need it.
    pub crc: bool,
    /// Delivery acknowledgements: when set, the receiver answers every
    /// completed message with an `Ack` control packet and the sender
    /// exposes [`crate::Engine::send_acked`]; an attempt no ack closes in
    /// time is retransmitted, and the rails it went out on are blamed. Off
    /// by default — the paper's networks are reliable; fault plans need it.
    pub acked: bool,
    /// Rail health timers (only active in acked mode and when the runtime
    /// drives [`crate::Engine::progress`]).
    pub health: HealthConfig,
    /// Flight recorder, telemetry windows and watchdog. Off by default.
    pub observe: Observe,
    /// Online recalibration of the split tables from observed transfer
    /// times (see [`crate::OnlineCalibrator`]). Off by default: the
    /// engine then splits on its init-time tables forever.
    pub calibrate: bool,
    /// Per-tenant admission, enforced by
    /// [`crate::Engine::try_submit_send`] (`Endpoint::try_send`; the
    /// plain `send` does not check it): the most sends one connection may
    /// have admitted and not yet locally completed. Excess submissions are
    /// refused with [`crate::SubmitError::WouldBlock`], so one
    /// misbehaving tenant cannot starve the rest. 0 (the default)
    /// disables admission control (see DESIGN.md §11).
    pub max_tenant_inflight: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            strategy: StrategyKind::AdaptiveSplit,
            rdv_threshold: 32 * 1024,
            agg_max_bytes: 16 * 1024,
            min_chunk: 8 * 1024,
            crc: false,
            acked: false,
            health: HealthConfig::default(),
            observe: Observe::Off,
            calibrate: false,
            max_tenant_inflight: 0,
        }
    }
}

impl EngineConfig {
    /// Config with the given strategy and paper-default thresholds.
    pub fn with_strategy(strategy: StrategyKind) -> Self {
        EngineConfig {
            strategy,
            ..Default::default()
        }
    }

    /// Sanity-check threshold ordering.
    pub fn validate(&self) {
        assert!(self.min_chunk > 0, "min_chunk must be positive");
        assert!(
            self.min_chunk <= self.rdv_threshold,
            "min_chunk {} must not exceed rdv_threshold {}",
            self.min_chunk,
            self.rdv_threshold
        );
        self.health.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use nmad_model::platform;

    #[test]
    fn defaults_match_paper() {
        let c = EngineConfig::default();
        c.validate();
        assert_eq!(c.rdv_threshold, 32 * 1024);
        assert_eq!(c.agg_max_bytes, 16 * 1024);
        assert_eq!(c.min_chunk, 8 * 1024);
        assert_eq!(c.max_tenant_inflight, 0, "the quota defaults off");
        assert_eq!(c.observe, Observe::Off);
        assert!(!c.calibrate);
    }

    #[test]
    fn with_strategy_keeps_thresholds() {
        let c = EngineConfig::with_strategy(StrategyKind::Greedy);
        assert_eq!(c.strategy, StrategyKind::Greedy);
        assert_eq!(c.rdv_threshold, 32 * 1024);
    }

    /// Each mode builds its layer and every layer below it, nothing
    /// above: (recorder ring, telemetry windows, watchdog).
    #[test]
    fn each_observe_mode_builds_its_layers() {
        for (observe, want) in [
            (Observe::Off, (0, false, false)),
            (Observe::Record { capacity: 256 }, (256, false, false)),
            (
                Observe::Watch {
                    window_ns: 1_000_000,
                },
                (WATCH_RECORD_CAPACITY, true, true),
            ),
        ] {
            let cfg = EngineConfig {
                observe,
                ..Default::default()
            };
            let eng = Engine::new(cfg, platform::paper_platform().rails, vec![]);
            let built = (
                eng.recorder().capacity(),
                eng.telemetry().is_some(),
                eng.watchdog().is_some(),
            );
            assert_eq!(built, want, "{observe:?}");
        }
    }

    #[test]
    #[should_panic(expected = "min_chunk")]
    fn bad_thresholds_rejected() {
        let c = EngineConfig {
            min_chunk: 64 * 1024,
            rdv_threshold: 32 * 1024,
            ..Default::default()
        };
        c.validate();
    }
}
