//! Size sweeps: the latency/bandwidth series behind every figure.

use nmad_core::{EngineConfig, PerfTable};
use nmad_model::Platform;
use serde::{ser, Serialize, Value};

use crate::pingpong::{run_pingpong, PingPongSpec};

/// One measured point of a series.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    /// Total message size in bytes.
    pub size: u64,
    /// One-way transfer time in microseconds.
    pub one_way_us: f64,
    /// Effective bandwidth in decimal MB/s.
    pub bandwidth_mbs: f64,
}

impl Serialize for SeriesPoint {
    fn to_value(&self) -> Value {
        ser::object([
            ("size", ser::v(&self.size)),
            ("one_way_us", ser::v(&self.one_way_us)),
            ("bandwidth_mbs", ser::v(&self.bandwidth_mbs)),
        ])
    }
}

/// A labelled series (one curve of a figure).
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Curve label as it appears in the figure legend.
    pub label: String,
    /// Measured points, in size order.
    pub points: Vec<SeriesPoint>,
}

impl Serialize for Sweep {
    fn to_value(&self) -> Value {
        ser::object([
            ("label", ser::v(&self.label)),
            ("points", ser::v(&self.points)),
        ])
    }
}

impl Sweep {
    /// Run a ping-pong at every size and collect the series.
    pub fn run(
        label: impl Into<String>,
        platform: &Platform,
        config: &EngineConfig,
        sizes: &[u64],
        segments: usize,
        tables: Option<&[PerfTable]>,
    ) -> Sweep {
        let points = sizes
            .iter()
            .map(|&size| {
                let mut spec = PingPongSpec::new(platform.clone(), config.clone(), size as usize)
                    .with_segments(segments);
                if let Some(t) = tables {
                    spec = spec.with_tables(t.to_vec());
                }
                let r = run_pingpong(&spec);
                SeriesPoint {
                    size,
                    one_way_us: r.one_way.as_us_f64(),
                    bandwidth_mbs: r.bandwidth_mbs,
                }
            })
            .collect();
        Sweep {
            label: label.into(),
            points,
        }
    }

    /// Point at exactly `size`, if present.
    pub fn at(&self, size: u64) -> Option<&SeriesPoint> {
        self.points.iter().find(|p| p.size == size)
    }
}

/// The latency-plot abscissa of Figures 2–6: powers of two, 4 B – 32 KiB.
pub fn latency_sizes() -> Vec<u64> {
    sizes_pow2(4, 32 << 10)
}

/// The bandwidth-plot abscissa of Figures 2–5 and 7: 32 KiB – 8 MiB.
pub fn bandwidth_sizes() -> Vec<u64> {
    sizes_pow2(32 << 10, 8 << 20)
}

/// Powers of two from `lo` to `hi` inclusive.
pub fn sizes_pow2(lo: u64, hi: u64) -> Vec<u64> {
    assert!(lo > 0 && lo <= hi);
    let mut v = Vec::new();
    let mut s = lo;
    while s <= hi {
        v.push(s);
        s *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmad_core::StrategyKind;
    use nmad_model::platform;

    #[test]
    fn size_ladders_match_figures() {
        let lat = latency_sizes();
        assert_eq!(lat.first(), Some(&4));
        assert_eq!(lat.last(), Some(&(32 << 10)));
        let bw = bandwidth_sizes();
        assert_eq!(bw.first(), Some(&(32 << 10)));
        assert_eq!(bw.last(), Some(&(8 << 20)));
    }

    #[test]
    fn sweep_is_monotone_in_time() {
        let sweep = Sweep::run(
            "test",
            &platform::single_rail_platform(platform::quadrics_qm500()),
            &EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
            &[64, 1024, 16 << 10, 256 << 10],
            1,
            None,
        );
        assert_eq!(sweep.points.len(), 4);
        for w in sweep.points.windows(2) {
            assert!(
                w[1].one_way_us > w[0].one_way_us,
                "transfer time must grow with size: {w:?}"
            );
        }
        assert!(sweep.at(1024).is_some());
        assert!(sweep.at(999).is_none());
    }
}
