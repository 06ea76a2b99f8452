//! Property-based tests for the sampling tables and the adaptive-split
//! solver (paper §3.4): whatever (valid) performance curves the rails
//! report, `split_weights` must hand every byte to exactly one rail,
//! never go negative, and — when the curves are genuinely invertible —
//! equalize the per-rail transfer times. Plus: the online calibrator is
//! a pure function of its sample sequence (determinism).

use nmad_core::sampling::{default_ladder, split_weights};
use nmad_core::{OnlineCalibrator, PerfTable};
use proptest::prelude::*;

/// An arbitrary *valid* table: strictly increasing sizes, arbitrary
/// positive times (PerfTable clamps non-monotone times into plateaus).
fn arb_table() -> impl Strategy<Value = PerfTable> {
    (
        prop::collection::vec((1u64..4_000_000, 1u64..2_000_000), 1..12),
        1u64..64,
    )
        .prop_map(|(raw, stride)| {
            let mut size = 0u64;
            let points: Vec<(u64, f64)> = raw
                .iter()
                .map(|&(ds, t10)| {
                    size += ds % (1 + stride * 16_384);
                    size += 1;
                    (size, t10 as f64 / 10.0)
                })
                .collect();
            PerfTable::new(points)
        })
}

/// A latency + bandwidth model table: `time = lat + size/bw`, strictly
/// increasing, so equal-time splitting has an exact solution.
fn arb_linear_table() -> impl Strategy<Value = PerfTable> {
    (1u64..500, 50u64..20_000).prop_map(|(lat_us, bytes_per_us)| {
        let points: Vec<(u64, f64)> = default_ladder()
            .iter()
            .map(|&s| (s, lat_us as f64 + s as f64 / bytes_per_us as f64))
            .collect();
        PerfTable::new(points)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants that must hold for ANY valid tables, including flat
    /// plateaus and single-point curves: weights are non-negative, finite,
    /// and sum to exactly the requested total.
    #[test]
    fn split_weights_conserve_bytes(
        tables in prop::collection::vec(arb_table(), 1..5),
        total in 0u64..(64 << 20),
    ) {
        let refs: Vec<&PerfTable> = tables.iter().collect();
        let w = split_weights(refs.iter().copied(), total);
        prop_assert_eq!(w.len(), tables.len());
        for &x in &w {
            prop_assert!(x.is_finite() && x >= 0.0, "weight {} out of range", x);
        }
        let sum: f64 = w.iter().sum();
        let tol = 1e-6 * total as f64 + 1e-9;
        prop_assert!(
            (sum - total as f64).abs() <= tol,
            "weights sum {} != total {}", sum, total
        );
    }

    /// With strictly increasing latency+bandwidth curves the split must
    /// equalize per-rail times: every rail that gets bytes finishes within
    /// a small tolerance of every other.
    #[test]
    fn split_weights_equalize_times(
        tables in prop::collection::vec(arb_linear_table(), 2..5),
        total in 1u64..(32 << 20),
    ) {
        let refs: Vec<&PerfTable> = tables.iter().collect();
        let w = split_weights(refs.iter().copied(), total);
        let times: Vec<f64> = w
            .iter()
            .zip(&refs)
            .filter(|&(&bytes, _)| bytes >= 1.0)
            .map(|(&bytes, t)| t.time_for(bytes.round() as u64))
            .collect();
        prop_assert!(!times.is_empty(), "someone must carry the bytes");
        let lo = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = times.iter().cloned().fold(0.0, f64::max);
        // Tolerance: rounding weights to whole bytes plus the bisection
        // epsilon; a byte is worth at most 1/50 µs on the slowest curve.
        let tol = 1.0 + 0.02 * hi.max(1.0);
        prop_assert!(
            hi - lo <= tol,
            "rail times diverge: {:?} (weights {:?})", times, w
        );
    }

    /// The calibrator is deterministic: two instances fed the identical
    /// sample sequence produce identical histories and identical tables.
    #[test]
    fn calibrator_is_deterministic(
        samples in prop::collection::vec(
            (0usize..2, 1u64..(8 << 20), 1u64..5_000_000, 1u64..4),
            1..200,
        ),
    ) {
        let seed = vec![
            PerfTable::new(vec![(1, 2.0), (1 << 20, 900.0)]),
            PerfTable::new(vec![(1, 4.0), (1 << 20, 1300.0)]),
        ];
        let mk = || OnlineCalibrator::new(seed.clone(), default_ladder());
        let (mut a, mut b) = (mk(), mk());
        let mut tables_a = Vec::new();
        let mut tables_b = Vec::new();
        for &(rail, size, t10, w4) in &samples {
            let t = t10 as f64 / 10.0;
            let w = w4 as f64 / 4.0;
            a.observe(rail, size, t, w);
            b.observe(rail, size, t, w);
            if a.due() {
                tables_a = a.rebuild();
            }
            if b.due() {
                tables_b = b.rebuild();
            }
        }
        prop_assert_eq!(a.samples(), b.samples());
        prop_assert_eq!(a.rebuilds(), b.rebuilds());
        prop_assert_eq!(a.history().len(), b.history().len());
        for (x, y) in a.history().iter().zip(b.history()) {
            prop_assert_eq!(&x.permille, &y.permille);
            prop_assert_eq!(x.samples, y.samples);
        }
        prop_assert_eq!(tables_a.len(), tables_b.len());
        for (x, y) in tables_a.iter().zip(&tables_b) {
            prop_assert_eq!(x.sizes(), y.sizes());
            for &s in x.sizes() {
                prop_assert_eq!(x.time_for(s).to_bits(), y.time_for(s).to_bits());
            }
        }
    }
}
