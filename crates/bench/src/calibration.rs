//! Online-recalibration ablation (the `ablate_calibration` experiment).
//!
//! The scenario DESIGN.md's "Online recalibration" section is built
//! around: a pipelined transfer loses half of one rail's bandwidth
//! mid-run. With frozen init-time tables the adaptive split keeps
//! shipping the seed byte share down the degraded rail and the pipeline
//! drags; with the [`nmad_core::OnlineCalibrator`] enabled the
//! completion-path samples rebuild the tables and the split converges to
//! the new equal-time ratio.
//!
//! Both legs run the *same* deterministic simulation (same platform,
//! same fault plan) — the only difference is `EngineConfig::calibrate`. The run doubles as a regression
//! gate (used by `scripts/verify.sh`): [`check`] fails unless the
//! calibrated leg strictly beats the frozen leg on pipeline completion
//! time AND the split ratio leaves the seed band within a bounded number
//! of rebuilds after drift onset. The result is written to
//! `BENCH_calibration.json` at the repo root; being deterministic, the
//! smoke run must leave the committed file as it is (`scripts/verify.sh`
//! diffs it).

use std::time::Duration;

use bytes::Bytes;
use nmad_core::{Effect, EngineConfig, Fault, FaultPlan, StrategyKind};
use nmad_model::platform;
use nmad_runtime_sim::{Script, SimWorld, Step};
use nmad_sim::{SimDuration, SimTime};
use serde::{ser, Serialize, Value};

/// Bandwidth multiplier applied to the degraded rail mid-run.
pub const DRIFT_FACTOR: f64 = 0.5;

/// Virtual time at which the degradation begins, µs.
pub const DRIFT_ONSET_US: u64 = 2_000;

/// Rebuild budget: the calibrated split must fall below half (the seed
/// band gives the degraded Myri rail ~58%) within this many rebuilds.
pub const CONVERGENCE_BUDGET_REBUILDS: u64 = 12;

/// One calibrator history entry, serialized for the JSON report.
#[derive(Clone, Debug)]
pub struct RatioPoint {
    /// Rebuild ordinal (1-based).
    pub rebuild: u64,
    /// Accepted samples ingested up to this rebuild.
    pub samples: u64,
    /// Per-rail permille share of the reference-size split.
    pub permille: Vec<u16>,
}

impl Serialize for RatioPoint {
    fn to_value(&self) -> Value {
        ser::object([
            ("rebuild", ser::v(&self.rebuild)),
            ("samples", ser::v(&self.samples)),
            ("permille", ser::v(&self.permille)),
        ])
    }
}

/// The full ablation result.
#[derive(Clone, Debug)]
pub struct CalibrationReport {
    /// Messages in the pipeline.
    pub messages: usize,
    /// Bytes per message.
    pub message_size: usize,
    /// Bandwidth factor applied to rail 0 from [`DRIFT_ONSET_US`] on.
    pub drift_factor: f64,
    /// Pipeline completion virtual time with frozen seed tables, ns.
    pub frozen_ns: u64,
    /// Pipeline completion virtual time with online calibration, ns.
    pub calibrated_ns: u64,
    /// Rebuilds the calibrator performed.
    pub rebuilds: u64,
    /// First rebuild ordinal whose degraded-rail share fell below 500‰
    /// (0 = never converged).
    pub converged_rebuild: u64,
    /// Per-rail permille split after the final rebuild.
    pub final_permille: Vec<u16>,
    /// The whole ratio trajectory, one point per rebuild.
    pub history: Vec<RatioPoint>,
    /// The gate applied by [`check`].
    pub budget_rebuilds: u64,
}

impl CalibrationReport {
    /// Completion-time gain of calibrating, percent (positive = faster).
    pub fn improvement_pct(&self) -> f64 {
        if self.frozen_ns == 0 {
            return 0.0;
        }
        (self.frozen_ns as f64 - self.calibrated_ns as f64) * 100.0 / self.frozen_ns as f64
    }
}

impl Serialize for CalibrationReport {
    fn to_value(&self) -> Value {
        ser::object([
            ("messages", ser::v(&self.messages)),
            ("message_size", ser::v(&self.message_size)),
            ("drift_factor", ser::v(&self.drift_factor)),
            ("drift_onset_us", ser::v(&DRIFT_ONSET_US)),
            ("frozen_ns", ser::v(&self.frozen_ns)),
            ("calibrated_ns", ser::v(&self.calibrated_ns)),
            ("improvement_pct", ser::v(&self.improvement_pct())),
            ("rebuilds", ser::v(&self.rebuilds)),
            ("converged_rebuild", ser::v(&self.converged_rebuild)),
            ("final_permille", ser::v(&self.final_permille)),
            ("history", ser::v(&self.history)),
            ("budget_rebuilds", ser::v(&self.budget_rebuilds)),
        ])
    }
}

/// Run one leg of the scenario: `messages` of `size` bytes in a serial
/// chain, rail 0 at [`DRIFT_FACTOR`] of its bandwidth from
/// [`DRIFT_ONSET_US`], the calibrator on if `calibrated`. Returns the
/// world after completion (`nmad calibrate` prints its calibrator).
///
/// The chain is a window of one send: message `i+1` is submitted only
/// once message `i`'s injection completes. Serialization is what makes
/// the split ratio visible in completion time: each message finishes when
/// its *slowest* rail finishes, so a stale ratio leaves the healthy rail
/// idle while the degraded rail drags (a saturated backlog would hide
/// this — both rails stay busy no matter how badly each message is
/// split).
pub fn run_leg(messages: usize, size: usize, calibrated: bool) -> SimWorld {
    let p = platform::paper_platform();
    let mut cfg = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
    cfg.calibrate = calibrated;
    let chain = (0..messages).map(|i| Step::Send(vec![Bytes::from(vec![i as u8; size])]));
    let sender = Script::new(chain.collect()).window(1);
    let mut w = SimWorld::new(&p, cfg, sender, Script::receiver(messages));
    let span = Duration::from_micros(DRIFT_ONSET_US)..Duration::from_secs(10);
    let drift = Fault::during(0, span, Effect::Bandwidth(DRIFT_FACTOR));
    w.enable_faults(
        &FaultPlan::new(0, vec![drift]),
        SimDuration::from_us(50),
        SimTime::from_us(400_000),
    );
    w.run(500_000_000);
    assert_eq!(
        w.app1().deliveries().len(),
        messages,
        "drift pipeline must complete (calibrated={calibrated})"
    );
    w
}

/// Execute the ablation. `smoke` shrinks the pipeline for CI.
pub fn run(smoke: bool) -> CalibrationReport {
    let messages = if smoke { 24 } else { 64 };
    let size = 1 << 20;

    let frozen = run_leg(messages, size, false);
    let calibrated = run_leg(messages, size, true);

    let cal = calibrated
        .node(0)
        .engine
        .calibrator()
        .expect("calibration enabled on this leg");
    let history: Vec<RatioPoint> = cal
        .history()
        .iter()
        .map(|s| RatioPoint {
            rebuild: s.rebuild,
            samples: s.samples,
            permille: s.permille.clone(),
        })
        .collect();
    let converged_rebuild = history
        .iter()
        .find(|p| p.permille.first().copied().unwrap_or(1000) < 500)
        .map_or(0, |p| p.rebuild);
    let final_permille = history
        .last()
        .map(|p| p.permille.clone())
        .unwrap_or_default();

    CalibrationReport {
        messages,
        message_size: size,
        drift_factor: DRIFT_FACTOR,
        frozen_ns: frozen.app1().last_delivery_at().0 / 1_000,
        calibrated_ns: calibrated.app1().last_delivery_at().0 / 1_000,
        rebuilds: cal.rebuilds(),
        converged_rebuild,
        final_permille,
        history,
        budget_rebuilds: CONVERGENCE_BUDGET_REBUILDS,
    }
}

/// Regression gate: returns human-readable violations (empty = pass).
pub fn check(r: &CalibrationReport) -> Vec<String> {
    let mut v = Vec::new();
    if r.calibrated_ns == 0 || r.frozen_ns == 0 {
        v.push("a leg did not record a completion time".to_string());
        return v;
    }
    if r.calibrated_ns >= r.frozen_ns {
        v.push(format!(
            "calibrated leg must strictly beat frozen tables under drift: \
             {} ns vs {} ns",
            r.calibrated_ns, r.frozen_ns
        ));
    }
    if r.converged_rebuild == 0 {
        v.push(format!(
            "split never left the seed band (final {:?})",
            r.final_permille
        ));
    } else if r.converged_rebuild > r.budget_rebuilds {
        v.push(format!(
            "convergence took {} rebuilds (budget {})",
            r.converged_rebuild, r.budget_rebuilds
        ));
    }
    if r.final_permille.first().copied().unwrap_or(1000) >= 500 {
        v.push(format!(
            "degraded rail must end below half share: {:?}",
            r.final_permille
        ));
    }
    v
}

/// Text table for the bench output.
pub fn render(r: &CalibrationReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "ablate_calibration — {} x {} KiB pipeline, rail 0 at {:.0}% bandwidth from {} µs\n",
        r.messages,
        r.message_size >> 10,
        r.drift_factor * 100.0,
        DRIFT_ONSET_US
    ));
    out.push_str(&format!(
        "  frozen tables : {:>12} ns\n  calibrated    : {:>12} ns  ({:+.2}%)\n",
        r.frozen_ns,
        r.calibrated_ns,
        -r.improvement_pct()
    ));
    out.push_str(&format!(
        "  rebuilds: {}   converged at rebuild {} (budget {})   final split {:?}\n",
        r.rebuilds, r.converged_rebuild, r.budget_rebuilds, r.final_permille
    ));
    out.push_str("  rebuild  samples  permille\n");
    for p in &r.history {
        out.push_str(&format!(
            "  {:>7}  {:>7}  {:?}\n",
            p.rebuild, p.samples, p.permille
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_gate() {
        let r = run(true);
        let v = check(&r);
        assert!(v.is_empty(), "violations: {v:?}");
    }
}
