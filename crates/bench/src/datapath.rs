//! Copy accounting across the datapath (the `ablate_zero_copy` target).
//!
//! Runs the Fig. 7 workload (single-segment adaptive splitting over the
//! paper platform) plus an aggregation-heavy workload, reads the engine's
//! [`DataPathStats`], and compares against a model of the pre-
//! scatter-gather pipeline, where *every* payload byte was copied once at
//! encode (`Bytes::copy_from_slice` into the wire buffer) and once more at
//! the receive-side flatten. The result is written to
//! `target/figures/BENCH_datapath.json` so the copy trajectory is tracked
//! across PRs.
//!
//! The run doubles as a regression gate (used by `scripts/verify.sh`):
//! [`check`] fails if the large-message split path stages any bytes or
//! gathers any on receive, if a workload's packet heads and slabs are
//! never recycled by the pool, or if the pipeline no longer beats the
//! legacy model by at least 2x.

use nmad_core::{DataPathStats, EngineConfig, EngineStats, StrategyKind};
use nmad_model::platform;
use nmad_runtime_sim::{bandwidth_sizes, run_pingpong, PingPongSpec};
use serde::{ser, Serialize, Value};

/// Copy accounting for one workload point.
#[derive(Clone, Debug)]
pub struct DataPathPoint {
    /// Workload label.
    pub label: String,
    /// Total message size in bytes.
    pub size: u64,
    /// Segments per message.
    pub segments: usize,
    /// Bytes actually copied on the hot path (aggregation staging +
    /// receive-side copies).
    pub copied_bytes: u64,
    /// Bytes staged for sub-PIO aggregation specifically.
    pub staged_copy_bytes: u64,
    /// Bytes moved as refcounted slices without copying.
    pub zero_copy_bytes: u64,
    /// What the pre-scatter-gather pipeline would have copied: every tx
    /// payload byte once at encode, every rx payload byte once at flatten.
    pub legacy_copied_bytes: u64,
    /// Allocations the buffer pool could not serve from its free list.
    pub hot_path_allocs: u64,
    /// Allocations served from the pool.
    pub pool_hits: u64,
}

impl DataPathPoint {
    fn from_stats(label: String, size: u64, segments: usize, stats: &EngineStats) -> Self {
        let d: &DataPathStats = &stats.datapath;
        let tx_total = d.tx_staged_copy_bytes + d.tx_zero_copy_bytes;
        let rx_total = d.rx_copy_bytes + d.rx_zero_copy_bytes;
        DataPathPoint {
            label,
            size,
            segments,
            copied_bytes: d.total_copied_bytes(),
            staged_copy_bytes: d.tx_staged_copy_bytes,
            zero_copy_bytes: d.tx_zero_copy_bytes + d.rx_zero_copy_bytes,
            legacy_copied_bytes: tx_total + rx_total,
            hot_path_allocs: d.hot_path_allocs,
            pool_hits: d.pool_hits,
        }
    }
}

impl Serialize for DataPathPoint {
    fn to_value(&self) -> Value {
        ser::object([
            ("label", ser::v(&self.label)),
            ("size", ser::v(&self.size)),
            ("segments", ser::v(&self.segments)),
            ("copied_bytes", ser::v(&self.copied_bytes)),
            ("staged_copy_bytes", ser::v(&self.staged_copy_bytes)),
            ("zero_copy_bytes", ser::v(&self.zero_copy_bytes)),
            ("legacy_copied_bytes", ser::v(&self.legacy_copied_bytes)),
            ("hot_path_allocs", ser::v(&self.hot_path_allocs)),
            ("pool_hits", ser::v(&self.pool_hits)),
        ])
    }
}

/// The full ablation result.
#[derive(Clone, Debug)]
pub struct DataPathReport {
    /// One point per workload.
    pub points: Vec<DataPathPoint>,
    /// Sum of `copied_bytes` over all points.
    pub total_copied_bytes: u64,
    /// Sum of `legacy_copied_bytes` over all points.
    pub total_legacy_copied_bytes: u64,
    /// `total_legacy_copied_bytes / total_copied_bytes` (capped when the
    /// denominator is zero).
    pub reduction_factor: f64,
}

impl Serialize for DataPathReport {
    fn to_value(&self) -> Value {
        ser::object([
            ("points", ser::v(&self.points)),
            ("total_copied_bytes", ser::v(&self.total_copied_bytes)),
            (
                "total_legacy_copied_bytes",
                ser::v(&self.total_legacy_copied_bytes),
            ),
            ("reduction_factor", ser::v(&self.reduction_factor)),
        ])
    }
}

fn split_point(size: u64) -> DataPathPoint {
    let spec = PingPongSpec::new(
        platform::paper_platform(),
        EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
        size as usize,
    );
    let r = run_pingpong(&spec);
    DataPathPoint::from_stats(
        format!("adaptive split, 1 segment, {size} B"),
        size,
        1,
        &r.sender_stats,
    )
}

fn aggregate_point(size: u64, segments: usize) -> DataPathPoint {
    let spec = PingPongSpec::new(
        platform::paper_platform(),
        EngineConfig::with_strategy(StrategyKind::AggregateEager),
        size as usize,
    )
    .with_segments(segments);
    let r = run_pingpong(&spec);
    DataPathPoint::from_stats(
        format!("aggregate eager, {segments} segments, {size} B"),
        size,
        segments,
        &r.sender_stats,
    )
}

/// Run the ablation. `smoke` shrinks the sweep for CI.
pub fn run(smoke: bool) -> DataPathReport {
    let split_sizes: Vec<u64> = if smoke {
        vec![64 << 10, 1 << 20]
    } else {
        bandwidth_sizes()
    };
    let mut points: Vec<DataPathPoint> = split_sizes.into_iter().map(split_point).collect();
    // Aggregation workload: sub-PIO segments are the one place staging
    // copies are allowed (see DESIGN.md "Datapath and copy discipline").
    points.push(aggregate_point(1 << 10, 4));
    if !smoke {
        points.push(aggregate_point(4 << 10, 8));
    }
    let total_copied_bytes: u64 = points.iter().map(|p| p.copied_bytes).sum();
    let total_legacy_copied_bytes: u64 = points.iter().map(|p| p.legacy_copied_bytes).sum();
    let reduction_factor = if total_copied_bytes == 0 {
        f64::INFINITY
    } else {
        total_legacy_copied_bytes as f64 / total_copied_bytes as f64
    };
    DataPathReport {
        points,
        total_copied_bytes,
        total_legacy_copied_bytes,
        reduction_factor,
    }
}

/// The regression gate: returns every violated budget, empty when clean.
pub fn check(report: &DataPathReport) -> Vec<String> {
    let mut violations = Vec::new();
    for p in &report.points {
        // Messages above the PIO threshold ride the split path; chunk
        // payloads are refcounted slices and must stage nothing.
        let split = p.segments == 1 && p.size > 8 << 10;
        if split && p.staged_copy_bytes != 0 {
            violations.push(format!(
                "{}: split path staged {} bytes (budget: 0)",
                p.label, p.staged_copy_bytes
            ));
        }
        // Nor is anything copied on receive: the sim's chunks are slices
        // of the sender's segment, so reassembly re-joins them and never
        // has to gather (DESIGN.md "Receive: reassembly by reference").
        let rx_copied = p.copied_bytes - p.staged_copy_bytes;
        if split && rx_copied != 0 {
            violations.push(format!(
                "{}: split path copied {rx_copied} bytes on receive (budget: 0)",
                p.label
            ));
        }
        // The simulated receiver shares every frame with its sender, so
        // a head is still shared when its injection completes: the pool
        // has to park it, not give it up (the pool's limbo).
        if p.pool_hits == 0 {
            violations.push(format!(
                "{}: no buffer came back from the pool ({} allocated on the hot path)",
                p.label, p.hot_path_allocs
            ));
        }
    }
    if report.reduction_factor < 2.0 {
        violations.push(format!(
            "copied-bytes reduction vs legacy pipeline is {:.2}x (budget: >= 2x): {} copied, {} legacy",
            report.reduction_factor, report.total_copied_bytes, report.total_legacy_copied_bytes
        ));
    }
    violations
}

/// Render the report as an aligned text table.
pub fn render(report: &DataPathReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "=== ablate_zero_copy — datapath copy accounting ===");
    let _ = writeln!(
        out,
        "{:>44} {:>12} {:>12} {:>14} {:>12}",
        "workload", "copied", "staged", "zero-copy", "legacy"
    );
    for p in &report.points {
        let _ = writeln!(
            out,
            "{:>44} {:>12} {:>12} {:>14} {:>12}",
            p.label, p.copied_bytes, p.staged_copy_bytes, p.zero_copy_bytes, p.legacy_copied_bytes
        );
    }
    let _ = writeln!(
        out,
        "total: {} copied vs {} legacy — {:.1}x reduction",
        report.total_copied_bytes, report.total_legacy_copied_bytes, report.reduction_factor
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_the_gate() {
        let report = run(true);
        let violations = check(&report);
        assert!(violations.is_empty(), "budget violations: {violations:?}");
        assert!(report.reduction_factor >= 2.0);
    }

    #[test]
    fn split_path_stages_nothing_and_moves_payload_zero_copy() {
        let p = split_point(1 << 20);
        assert_eq!(p.staged_copy_bytes, 0, "large split must not stage");
        assert_eq!(p.copied_bytes, 0, "nor gather on receive");
        assert!(
            p.zero_copy_bytes >= 1 << 20,
            "payload must ride zero-copy: {p:?}"
        );
        assert!(p.legacy_copied_bytes > p.copied_bytes);
    }

    #[test]
    fn aggregation_stays_within_container_budget() {
        let p = aggregate_point(1 << 10, 4);
        // Staging is allowed for sub-PIO entries only; it is bounded by
        // the payload that actually flowed (warmup + iters round trips).
        assert!(p.staged_copy_bytes > 0, "sub-PIO entries must stage: {p:?}");
        assert!(p.copied_bytes < p.legacy_copied_bytes);
    }
}
