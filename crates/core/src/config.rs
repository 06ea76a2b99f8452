//! Engine configuration.

use crate::health::HealthConfig;
use crate::obs::{TelemetryConfig, WatchdogConfig};
use crate::sampling::CalibrationConfig;
use crate::strategy::StrategyKind;

/// Overload-protection knobs: per-tenant admission control, enforced by
/// [`crate::Engine::try_submit_send`] (`Endpoint::try_send`; the plain
/// `send` does not check it). Defaults to 0 = unlimited; the soak
/// harness turns it on (see DESIGN.md §11).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Maximum sends a single tenant (connection) may have admitted but
    /// not yet locally completed. Excess submissions are refused with
    /// [`crate::SubmitError::WouldBlock`], so one misbehaving tenant
    /// cannot starve the rest. 0 disables admission control.
    pub max_tenant_inflight: usize,
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
    /// Whether to embed payload CRCs in packets (the threaded transport
    /// enables this; the simulator does not need it).
    pub crc: bool,
    /// Delivery acknowledgements: when set, the receiver answers every
    /// completed message with an `Ack` control packet and the sender
    /// exposes [`crate::Engine::send_acked`]. Off by default — the paper's
    /// networks are reliable; this is the hook the failure-injection tests
    /// and a future retransmission layer build on.
    pub acked: bool,
    /// Rail health tracking and adaptive retransmission timers (only
    /// active in acked mode and when the runtime drives
    /// [`crate::Engine::progress`]).
    pub health: HealthConfig,
    /// Flight-recorder capacity in events. 0 (the default) disables
    /// recording entirely; nonzero preallocates a ring of that many
    /// fixed-size records at engine construction (see
    /// [`crate::obs::FlightRecorder`]).
    pub record_capacity: usize,
    /// Online recalibration of the split tables from observed transfer
    /// times (see [`crate::OnlineCalibrator`]). Disabled by default: the
    /// engine then splits on its init-time tables forever, exactly as
    /// before.
    pub calibration: CalibrationConfig,
    /// Overload protection: per-tenant admission.
    /// All-zero (off) by default.
    pub overload: OverloadConfig,
    /// Continuous telemetry: fold the flight recorder into
    /// fixed-interval windowed time series (see
    /// [`crate::obs::TelemetryAggregator`]). Off by default; enabling it
    /// requires a nonzero `record_capacity`, since the aggregator tails
    /// the recorder ring.
    pub telemetry: TelemetryConfig,
    /// Online SLO watchdog over the telemetry windows (see
    /// [`crate::obs::Watchdog`]). Off by default; enabling it requires
    /// telemetry.
    pub watchdog: WatchdogConfig,
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
            record_capacity: 0,
            calibration: CalibrationConfig::default(),
            overload: OverloadConfig::default(),
            telemetry: TelemetryConfig::default(),
            watchdog: WatchdogConfig::default(),
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
        self.calibration.validate();
        self.telemetry.validate();
        self.watchdog.validate();
        if self.telemetry.enabled() {
            assert!(
                self.record_capacity > 0,
                "telemetry folds the flight recorder: record_capacity must be nonzero"
            );
        }
        if self.watchdog.enabled {
            assert!(
                self.telemetry.enabled(),
                "the watchdog consumes telemetry windows: telemetry must be enabled"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EngineConfig::default();
        c.validate();
        assert_eq!(c.rdv_threshold, 32 * 1024);
        assert_eq!(c.agg_max_bytes, 16 * 1024);
        assert_eq!(c.min_chunk, 8 * 1024);
        assert_eq!(c.overload.max_tenant_inflight, 0, "the quota defaults off");
    }

    #[test]
    fn with_strategy_keeps_thresholds() {
        let c = EngineConfig::with_strategy(StrategyKind::Greedy);
        assert_eq!(c.strategy, StrategyKind::Greedy);
        assert_eq!(c.rdv_threshold, 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "record_capacity")]
    fn telemetry_without_recorder_rejected() {
        let c = EngineConfig {
            telemetry: TelemetryConfig {
                window_ns: 1_000_000,
                windows: 8,
            },
            record_capacity: 0,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "watchdog")]
    fn watchdog_without_telemetry_rejected() {
        let c = EngineConfig {
            watchdog: WatchdogConfig {
                enabled: true,
                ..Default::default()
            },
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn telemetry_with_recorder_validates() {
        let c = EngineConfig {
            telemetry: TelemetryConfig {
                window_ns: 1_000_000,
                windows: 8,
            },
            watchdog: WatchdogConfig {
                enabled: true,
                ..Default::default()
            },
            record_capacity: 1024,
            ..Default::default()
        };
        c.validate();
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
