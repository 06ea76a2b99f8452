//! Network sampling and online recalibration (paper §3.4).
//!
//! "According to samplings performed on the different available NICs (this
//! step is done at the NewMadeleine initialization time), an adaptive
//! stripping ratio can be determined." A [`PerfTable`] is the outcome of
//! sampling one rail: a monotone size → one-way-time curve. The adaptive
//! splitting strategy asks [`split_weights`] for per-rail byte shares such
//! that every rail's chunk takes (approximately) the same time — the
//! paper's "fragments for which transfer times are equivalent on their
//! respective networks".
//!
//! The paper's authors flag init-time sampling as fragile under changing
//! conditions. The [`OnlineCalibrator`] closes that loop: it ingests
//! per-chunk `(rail, size, observed time)` samples from the engine's
//! completion path, maintains per-rail per-size-bucket EWMA corrections
//! over the seeded ladder, and periodically rebuilds monotone
//! [`PerfTable`]s that the adaptive split consults live.

#![deny(clippy::unnecessary_to_owned, clippy::redundant_clone)]

use nmad_model::NicModel;

/// A sampled size → one-way time curve for one rail.
///
/// Times are in microseconds; interpolation is piecewise linear in size,
/// with slope-extrapolation past the largest sample (the slope *is* the
/// inverse asymptotic bandwidth).
#[derive(Clone, Debug)]
pub struct PerfTable {
    sizes: Vec<u64>,
    times_us: Vec<f64>,
}

/// The default sampling ladder: powers of two from 4 B to 16 MiB, the
/// range covered by the paper's plots plus one octave of headroom.
pub fn default_ladder() -> Vec<u64> {
    let mut v = Vec::new();
    let mut s: u64 = 4;
    while s <= 16 << 20 {
        v.push(s);
        s *= 2;
    }
    v
}

impl PerfTable {
    /// Build from `(size, one-way time in us)` samples. Points are sorted
    /// by size; duplicate sizes keep the *last* measurement.
    pub fn new(mut points: Vec<(u64, f64)>) -> Self {
        assert!(!points.is_empty(), "a PerfTable needs at least one sample");
        // Stable sort keeps equal-size samples in input order, so the last
        // element of each run is the freshest measurement; `dedup_by` keeps
        // the *first* of a run, hence the overwrite-in-place pass.
        points.sort_by_key(|p| p.0);
        let mut deduped: Vec<(u64, f64)> = Vec::with_capacity(points.len());
        for p in points {
            match deduped.last_mut() {
                Some(last) if last.0 == p.0 => *last = p,
                _ => deduped.push(p),
            }
        }
        let points = deduped;
        assert!(
            points.iter().all(|p| p.1.is_finite() && p.1 > 0.0),
            "sample times must be positive and finite"
        );
        // Enforce monotonicity: a larger transfer can never be faster.
        // Measured jitter can produce tiny inversions; flatten them.
        let mut times: Vec<f64> = points.iter().map(|p| p.1).collect();
        for i in 1..times.len() {
            if times[i] < times[i - 1] {
                times[i] = times[i - 1];
            }
        }
        PerfTable {
            sizes: points.iter().map(|p| p.0).collect(),
            times_us: times,
        }
    }

    /// Seed a table from the analytic NIC model (used before real sampling
    /// has run, and by unit tests).
    pub fn from_analytic(nic: &NicModel, ladder: &[u64]) -> Self {
        let points = ladder
            .iter()
            .map(|&s| (s, nic.analytic_oneway(s as usize).as_us_f64()))
            .collect();
        PerfTable::new(points)
    }

    /// Sampled sizes, ascending.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Interpolated one-way time (µs) for a transfer of `size` bytes.
    pub fn time_for(&self, size: u64) -> f64 {
        let n = self.sizes.len();
        if size <= self.sizes[0] {
            return self.times_us[0];
        }
        if size >= self.sizes[n - 1] {
            if n == 1 {
                return self.times_us[0];
            }
            // Extrapolate with the last slope (inverse asymptotic bw).
            let ds = (self.sizes[n - 1] - self.sizes[n - 2]) as f64;
            let dt = self.times_us[n - 1] - self.times_us[n - 2];
            let slope = (dt / ds).max(0.0);
            return self.times_us[n - 1] + slope * (size - self.sizes[n - 1]) as f64;
        }
        let idx = self.sizes.partition_point(|&s| s <= size) - 1;
        let (s0, s1) = (self.sizes[idx] as f64, self.sizes[idx + 1] as f64);
        let (t0, t1) = (self.times_us[idx], self.times_us[idx + 1]);
        t0 + (t1 - t0) * ((size as f64 - s0) / (s1 - s0))
    }

    /// Largest size this rail can move within `time_us` microseconds
    /// (inverse of [`Self::time_for`]); zero when even the smallest sample
    /// takes longer.
    pub fn size_for(&self, time_us: f64) -> f64 {
        let n = self.sizes.len();
        if time_us <= self.times_us[0] {
            return 0.0;
        }
        // First index with times[up] >= time_us (times ascend non-strictly).
        // An exact hit lands on the *leftmost* point of a clamp-flattened
        // plateau: the clamp means sizes further right were never actually
        // measured faster, so crediting them to a stalled rail would hand
        // it bytes it cannot move.
        let up = self.times_us.partition_point(|&t| t < time_us);
        if up < n && self.times_us[up] <= time_us {
            return self.sizes[up] as f64;
        }
        if up == n {
            if n == 1 {
                return self.sizes[0] as f64;
            }
            // Strictly past the last sample: extrapolate with the last
            // slope; a flat tail caps capacity at the largest size measured.
            let ds = (self.sizes[n - 1] - self.sizes[n - 2]) as f64;
            let dt = self.times_us[n - 1] - self.times_us[n - 2];
            if dt <= 0.0 {
                return self.sizes[n - 1] as f64;
            }
            return self.sizes[n - 1] as f64 + ds / dt * (time_us - self.times_us[n - 1]);
        }
        // Strict bracket: times[up-1] < time_us < times[up].
        let (s0, s1) = (self.sizes[up - 1] as f64, self.sizes[up] as f64);
        let (t0, t1) = (self.times_us[up - 1], self.times_us[up]);
        s0 + (s1 - s0) * ((time_us - t0) / (t1 - t0))
    }
}

/// Per-rail split weights; up to four rails stay inline.
pub type Weights = nmad_wire::SmallList<f64, 4>;

/// Compute per-rail byte weights for splitting `total` bytes across the
/// given rails so all chunks finish at (approximately) the same time:
/// solve `t*` with `Σ size_i(t*) = total` by bisection, then weight rail i
/// by `size_i(t*)`. Rails too slow to contribute get weight 0.
pub fn split_weights<'a, T>(tables: T, total: u64) -> Weights
where
    T: IntoIterator<Item = &'a PerfTable>,
    T::IntoIter: Clone,
{
    let tables = tables.into_iter();
    let n = tables.clone().count();
    assert!(n > 0, "need at least one rail table");
    if total == 0 {
        return std::iter::repeat_n(0.0, n).collect();
    }
    // Upper bound: the fastest single rail carries everything.
    let hi0 = tables
        .clone()
        .map(|t| t.time_for(total))
        .fold(f64::INFINITY, f64::min);
    let (mut lo, mut hi) = (0.0f64, hi0);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        let cap: f64 = tables.clone().map(|t| t.size_for(mid)).sum();
        if cap >= total as f64 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let mut weights: Weights = tables.map(|t| t.size_for(hi)).collect();
    // Renormalize to exactly `total`: at the bisection's final `hi` the
    // capacities can over- or undershoot (flat table tails make size_for
    // jump), and the caller divides these into byte counts — shares that
    // don't sum to the message size would silently drop or invent bytes.
    let sum: f64 = weights.iter().sum();
    if sum > 0.0 {
        let scale = total as f64 / sum;
        for w in weights.iter_mut() {
            *w *= scale;
        }
    } else {
        // Degenerate tables (all-flat plateaus) can yield zero capacity at
        // every probed time; fall back to an even split rather than NaN.
        let even = total as f64 / n as f64;
        weights.iter_mut().for_each(|w| *w = even);
    }
    debug_assert!(
        weights.iter().all(|w| *w >= 0.0),
        "split weights must be non-negative: {weights:?}"
    );
    debug_assert!(
        (weights.iter().sum::<f64>() - total as f64).abs() <= 1e-6 * total as f64,
        "split weights must sum to total {total}: {weights:?}"
    );
    weights
}

/// Per-rail share of splitting `reference` bytes, in permille (sums to
/// 1000). This is the one-number-per-rail summary the calibrator snapshots
/// after every rebuild and the `calibrate` obs event carries.
pub fn split_ratio_permille(tables: &[&PerfTable], reference: u64) -> Vec<u16> {
    let w = split_weights(tables.iter().copied(), reference.max(1));
    let sum: f64 = w.iter().sum();
    let mut out: Vec<u16> = w
        .iter()
        .map(|x| ((x / sum) * 1000.0).round() as u16)
        .collect();
    // Push any rounding residue onto the largest share so Σ == 1000.
    let total: i32 = out.iter().map(|&p| i32::from(p)).sum();
    if let Some(max) = out.iter_mut().max() {
        *max = (i32::from(*max) + (1000 - total)).clamp(0, 1000) as u16;
    }
    out
}

// The calibrator's constants (DESIGN.md §9). Only whether it runs is
// configurable (`EngineConfig::calibrate`).

/// EWMA smoothing factor applied to per-bucket corrections. Effective
/// step is `ALPHA * sample_weight`, so down-weighted samples (rails under
/// suspicion) move the estimate proportionally less.
pub const ALPHA: f64 = 0.25;
/// Recalibration cadence: rebuild the live tables after this many
/// accepted samples. The first rebuild waits as long as every other, so
/// a couple of noisy early chunks cannot skew the split on their own.
pub const REBUILD_EVERY: u32 = 8;
/// Clamp on the per-bucket correction ratio (and its inverse): a single
/// wild measurement can claim at most this slowdown/speedup.
const MAX_CORRECTION: f64 = 16.0;
/// Correction floor applied to every bucket of a rail when it fails over
/// (transitions to `Down`): its table immediately reads this many times
/// slower, and the rail re-earns traffic gradually as fresh samples pull
/// the EWMA back down.
const FAILOVER_PENALTY: f64 = 4.0;
/// Message size whose split ratio the history snapshots (diagnostics and
/// the `calibrate` obs event).
pub const REFERENCE_SIZE: u64 = 1 << 20;
/// Per-rebuild multiplicative decay applied to bucket sample weights. A
/// bucket that stops receiving samples decays below the staleness floor
/// after a few rebuilds and is treated as unsampled again, so fresher
/// neighbouring buckets interpolate over it. Without this, one pre-drift
/// measurement in a large-size bucket would pin the split ratio forever
/// once the traffic mix shifts to smaller chunks.
const STALE_DECAY: f64 = 0.5;

/// One history entry: the split ratio right after a rebuild.
#[derive(Clone, Debug)]
pub struct CalibrationSnapshot {
    /// Rebuild ordinal (1-based).
    pub rebuild: u64,
    /// Accepted samples ingested up to this rebuild.
    pub samples: u64,
    /// Per-rail permille share of a [`REFERENCE_SIZE`]
    /// split under the freshly rebuilt tables.
    pub permille: Vec<u16>,
}

/// Per-(rail, ladder-bucket) EWMA state.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    /// EWMA of `observed / predicted` time. 1.0 = the seed table is right.
    corr: f64,
    /// Accumulated sample weight, decayed by
    /// [`STALE_DECAY`] on every rebuild; below
    /// [`MIN_BUCKET_WEIGHT`] the bucket counts as unmeasured again.
    weight: f64,
}

/// Staleness floor: buckets whose decayed weight falls below this are
/// treated as unsampled by [`OnlineCalibrator::rebuild`] and re-derived
/// from their fresher neighbours. With a [`STALE_DECAY`] of 0.5 a
/// single full-weight sample stays authoritative for two rebuilds.
const MIN_BUCKET_WEIGHT: f64 = 0.2;

/// Closes the sampling loop: turns live per-chunk transfer times back into
/// the [`PerfTable`]s the adaptive split consults (see module docs).
///
/// The calibrator never mutates its seed tables. Each accepted sample
/// updates an EWMA *correction ratio* (`observed / seed-predicted`) in the
/// ladder bucket nearest the chunk size; [`Self::rebuild`] multiplies the
/// seed curve by the corrections (unsampled buckets interpolate between
/// their sampled neighbours in log-size space, boundary buckets carry
/// flat) and re-runs the monotonicity clamp. Keeping the analytic seed as
/// the prior means a half-empty sample set degrades to "what init-time
/// sampling believed", not to garbage.
#[derive(Clone, Debug)]
pub struct OnlineCalibrator {
    ladder: Vec<u64>,
    base: Vec<PerfTable>,
    buckets: Vec<Vec<Bucket>>,
    /// Per-rail failover multiplier applied *outside* the EWMA and its
    /// [`MAX_CORRECTION`] clamp (see [`Self::penalize`]). 1.0 = no penalty.
    penalty: Vec<f64>,
    since_rebuild: u32,
    samples: u64,
    rebuilds: u64,
    history: Vec<CalibrationSnapshot>,
}

impl OnlineCalibrator {
    /// Build over seed tables (one per rail) and a sampling ladder.
    pub fn new(base: Vec<PerfTable>, ladder: Vec<u64>) -> Self {
        assert!(!base.is_empty(), "calibrator needs at least one rail table");
        assert!(!ladder.is_empty(), "calibrator needs a non-empty ladder");
        let mut ladder = ladder;
        ladder.sort_unstable();
        ladder.dedup();
        let buckets = vec![
            vec![
                Bucket {
                    corr: 1.0,
                    weight: 0.0
                };
                ladder.len()
            ];
            base.len()
        ];
        let penalty = vec![1.0; base.len()];
        OnlineCalibrator {
            ladder,
            base,
            buckets,
            penalty,
            since_rebuild: 0,
            samples: 0,
            rebuilds: 0,
            history: Vec::new(),
        }
    }

    /// The ladder bucket nearest `size` in log space.
    fn bucket_for(&self, size: u64) -> usize {
        let idx = self.ladder.partition_point(|&s| s < size);
        if idx == 0 {
            return 0;
        }
        if idx == self.ladder.len() {
            return self.ladder.len() - 1;
        }
        // Compare geometric distance: size/lo vs hi/size.
        let (lo, hi) = (self.ladder[idx - 1] as f64, self.ladder[idx] as f64);
        let s = size as f64;
        if s / lo <= hi / s {
            idx - 1
        } else {
            idx
        }
    }

    /// Ingest one completed-chunk measurement. `weight` in (0, 1] scales
    /// the EWMA step (health down-weighting); non-positive weights and
    /// non-finite times are rejected so a sick rail cannot poison state.
    pub fn observe(&mut self, rail: usize, size: u64, observed_us: f64, weight: f64) {
        if rail >= self.base.len()
            || size == 0
            || !observed_us.is_finite()
            || observed_us <= 0.0
            || !weight.is_finite()
            || weight <= 0.0
        {
            return;
        }
        let predicted = self.base[rail].time_for(size);
        if !predicted.is_finite() || predicted <= 0.0 {
            return;
        }
        let ratio = (observed_us / predicted).clamp(1.0 / MAX_CORRECTION, MAX_CORRECTION);
        let bucket = self.bucket_for(size);
        let step = (ALPHA * weight.min(1.0)).clamp(0.0, 1.0);
        let b = &mut self.buckets[rail][bucket];
        b.corr += step * (ratio - b.corr);
        b.weight += weight.min(1.0);
        // Re-earning: every accepted sample on a penalized rail is fresh
        // evidence the rail moves bytes again, so the failover multiplier
        // decays toward neutral at the EWMA's own pace.
        let p = &mut self.penalty[rail];
        if *p > 1.0 {
            *p = 1.0 + (1.0 - step) * (*p - 1.0);
            if *p < 1.0 + 1e-6 {
                *p = 1.0;
            }
        }
        self.samples += 1;
        self.since_rebuild = self.since_rebuild.saturating_add(1);
    }

    /// Whether enough samples accrued for the next [`Self::rebuild`].
    pub fn due(&self) -> bool {
        self.since_rebuild >= REBUILD_EVERY
    }

    /// Failover decay: mark `rail` as `FAILOVER_PENALTY` (4) times slower
    /// than its EWMA currently reads, so the rebuilt table strips its byte
    /// share and the rail re-earns it through fresh measurements.
    ///
    /// The penalty is a separate multiplier, deliberately outside the
    /// per-bucket EWMA and its `MAX_CORRECTION` (16×) clamp: under saturation
    /// every rail's EWMA can sit pinned at `MAX_CORRECTION` (queueing
    /// delay reads as "slow" everywhere), and raising the dead rail's
    /// buckets to an absolute level would be a relative no-op — the split
    /// would keep feeding a black hole. A multiplier guarantees the strip
    /// is relative to wherever the siblings are.
    pub fn penalize(&mut self, rail: usize) {
        if rail >= self.penalty.len() {
            return;
        }
        self.penalty[rail] = self.penalty[rail].max(FAILOVER_PENALTY);
    }

    /// Effective correction per ladder bucket: sampled buckets use their
    /// EWMA, gaps interpolate linearly in ladder-index (≈ log-size) space,
    /// and buckets outside the sampled range carry the boundary value flat
    /// (a rail measured 2× slow at 1 MiB is presumed 2× slow at 4 MiB —
    /// the bandwidth regime is what drifts).
    fn effective_corr(&self, rail: usize) -> Vec<f64> {
        let bs = &self.buckets[rail];
        let penalty = self.penalty[rail];
        let sampled: Vec<usize> = (0..bs.len())
            .filter(|&i| bs[i].weight >= MIN_BUCKET_WEIGHT)
            .collect();
        if sampled.is_empty() {
            return vec![penalty; bs.len()];
        }
        let mut out = Vec::with_capacity(bs.len());
        let mut next = 0usize; // index into `sampled`, first entry >= i
        for i in 0..bs.len() {
            while next < sampled.len() && sampled[next] < i {
                next += 1;
            }
            if next < sampled.len() && sampled[next] == i {
                out.push(bs[i].corr);
                continue;
            }
            let right = sampled.get(next).copied();
            let left = next.checked_sub(1).map(|j| sampled[j]);
            out.push(match (left, right) {
                (Some(l), Some(r)) => {
                    let f = (i - l) as f64 / (r - l) as f64;
                    bs[l].corr + (bs[r].corr - bs[l].corr) * f
                }
                (Some(l), None) => bs[l].corr,
                (None, Some(r)) => bs[r].corr,
                (None, None) => 1.0,
            });
        }
        // The failover multiplier rides on top of the EWMA, unclamped:
        // it must strip share even when every bucket is pinned at
        // `MAX_CORRECTION` (see `penalize`).
        if penalty > 1.0 {
            for c in &mut out {
                *c *= penalty;
            }
        }
        out
    }

    /// Rebuild live tables from the seed curves and current corrections,
    /// snapshot the resulting reference-size split ratio into the history,
    /// and reset the cadence counter. Returns one monotone table per rail.
    pub fn rebuild(&mut self) -> Vec<PerfTable> {
        let tables: Vec<PerfTable> = (0..self.base.len())
            .map(|rail| {
                let corr = self.effective_corr(rail);
                let points: Vec<(u64, f64)> = self
                    .ladder
                    .iter()
                    .zip(&corr)
                    .map(|(&s, &c)| (s, self.base[rail].time_for(s) * c))
                    .collect();
                PerfTable::new(points)
            })
            .collect();
        self.rebuilds += 1;
        self.since_rebuild = 0;
        // Age every bucket: a bucket the traffic mix no longer exercises
        // decays below the staleness floor within a few rebuilds and stops
        // pinning its size regime (fresher neighbours take over via
        // interpolation). Buckets that keep receiving samples keep their
        // authority — `observe` replenishes the weight.
        for rail in &mut self.buckets {
            for b in rail.iter_mut() {
                b.weight *= STALE_DECAY;
                if b.weight < MIN_BUCKET_WEIGHT {
                    b.weight = 0.0;
                }
            }
        }
        let refs: Vec<&PerfTable> = tables.iter().collect();
        self.history.push(CalibrationSnapshot {
            rebuild: self.rebuilds,
            samples: self.samples,
            permille: split_ratio_permille(&refs, REFERENCE_SIZE),
        });
        tables
    }

    /// Split-ratio snapshots, one per rebuild (oldest first).
    pub fn history(&self) -> &[CalibrationSnapshot] {
        &self.history
    }

    /// Rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Accepted samples ingested so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Effective correction ratio the next rebuild would apply to `rail`
    /// at `size` (diagnostics: `nmad calibrate` prints these).
    pub fn correction_at(&self, rail: usize, size: u64) -> f64 {
        if rail >= self.buckets.len() {
            return 1.0;
        }
        self.effective_corr(rail)[self.bucket_for(size)]
    }

    /// The sampling ladder the corrections are bucketed over.
    pub fn ladder(&self) -> &[u64] {
        &self.ladder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmad_model::platform;

    fn myri_table() -> PerfTable {
        PerfTable::from_analytic(&platform::myri_10g(), &default_ladder())
    }

    fn quad_table() -> PerfTable {
        PerfTable::from_analytic(&platform::quadrics_qm500(), &default_ladder())
    }

    #[test]
    fn ladder_covers_paper_range() {
        let l = default_ladder();
        assert_eq!(l[0], 4);
        assert_eq!(*l.last().unwrap(), 16 << 20);
        assert!(l.contains(&(8 << 20)), "8 MB point of the plots");
    }

    #[test]
    fn interpolation_between_samples() {
        let t = PerfTable::new(vec![(100, 10.0), (200, 20.0)]);
        assert!((t.time_for(150) - 15.0).abs() < 1e-9);
        assert_eq!(t.time_for(50), 10.0, "clamp below first sample");
        // Extrapolation continues the last slope: 0.1 us/byte.
        assert!((t.time_for(300) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn inverse_roundtrips() {
        let t = myri_table();
        for &s in &[64u64, 4096, 1 << 20, 8 << 20] {
            let time = t.time_for(s);
            let back = t.size_for(time);
            let rel = (back - s as f64).abs() / s as f64;
            assert!(rel < 0.01, "size {s}: roundtrip {back} (rel err {rel})");
        }
    }

    #[test]
    fn size_for_below_latency_floor_is_zero() {
        let t = quad_table();
        assert_eq!(t.size_for(0.1), 0.0, "nothing fits in 0.1 us");
    }

    #[test]
    fn monotonicity_enforced_on_noisy_input() {
        let t = PerfTable::new(vec![(100, 10.0), (200, 9.0), (300, 30.0)]);
        assert!(t.time_for(200) >= t.time_for(100));
    }

    #[test]
    fn analytic_tables_match_paper_anchors() {
        let myri = myri_table();
        let quad = quad_table();
        assert!((myri.time_for(4) - 2.8).abs() < 0.15);
        assert!((quad.time_for(4) - 1.7).abs() < 0.15);
        let bw = (8 << 20) as f64 / myri.time_for(8 << 20);
        assert!((bw - 1200.0).abs() < 40.0, "myri bw {bw}");
    }

    #[test]
    fn split_weights_equalize_times() {
        let myri = myri_table();
        let quad = quad_table();
        let total = 8u64 << 20;
        let w = split_weights([&myri, &quad], total);
        assert_eq!(w.len(), 2);
        let sum: f64 = w.iter().sum();
        assert!((sum - total as f64).abs() / (total as f64) < 0.01);
        // Times on each rail for its share must be within 2% of each other.
        let t0 = myri.time_for(w[0] as u64);
        let t1 = quad.time_for(w[1] as u64);
        assert!(
            (t0 - t1).abs() / t0.max(t1) < 0.02,
            "unbalanced: {t0} vs {t1} us"
        );
        // Myri (faster) must carry the larger share — the paper: "the major
        // part of the initial segment must be sent through Myri-10G".
        assert!(w[0] > w[1]);
        let frac = w[0] / sum;
        assert!(
            (0.52..0.68).contains(&frac),
            "myri fraction {frac} out of plausible band"
        );
    }

    #[test]
    fn split_weights_zero_total() {
        let myri = myri_table();
        let quad = quad_table();
        assert_eq!(split_weights([&myri, &quad], 0), vec![0.0, 0.0].into());
    }

    #[test]
    fn split_weights_small_message_starves_slow_rail() {
        // For a very small transfer the fast-latency rail should take all
        // of it: the other rail cannot finish anything within t*.
        let myri = myri_table();
        let quad = quad_table();
        let w = split_weights([&myri, &quad], 64);
        // Quadrics has the lower latency, so it carries the message.
        assert!(w[1] > 0.0);
        assert!(
            w[0] < 1.0,
            "Myri should carry (almost) nothing of a 64B message, got {}",
            w[0]
        );
    }

    #[test]
    fn split_weights_three_rails() {
        let myri = myri_table();
        let quad = quad_table();
        let sci = PerfTable::from_analytic(&platform::sci_dolphin(), &default_ladder());
        let total = 4u64 << 20;
        let w = split_weights([&myri, &quad, &sci], total);
        let sum: f64 = w.iter().sum();
        assert!((sum - total as f64).abs() / (total as f64) < 0.01);
        // Ordering by asymptotic bandwidth: myri > quad > sci.
        assert!(w[0] > w[1] && w[1] > w[2], "weights {w:?}");
    }

    #[test]
    fn dedup_keeps_last_measurement() {
        // Regression: dedup_by_key kept the *first* sample of a size run,
        // contradicting the doc (and starving the calibrator of fresh data).
        let t = PerfTable::new(vec![(100, 10.0), (100, 20.0), (200, 30.0)]);
        assert_eq!(t.time_for(100), 20.0, "freshest sample must win");
        let t = PerfTable::new(vec![(100, 20.0), (100, 10.0)]);
        assert_eq!(t.time_for(100), 10.0);
    }

    #[test]
    fn size_for_returns_leftmost_plateau_size() {
        // Monotonicity clamp flattens 300/400 up to 10.0; the inverse must
        // not credit the stalled region (sizes 300/400) as movable in 10us.
        let t = PerfTable::new(vec![
            (100, 5.0),
            (200, 10.0),
            (300, 9.0),
            (400, 9.5),
            (500, 20.0),
        ]);
        assert_eq!(t.size_for(10.0), 200.0, "leftmost plateau size");
        // Strictly above the plateau interpolation resumes from its right
        // edge toward the next measured point.
        assert!((t.size_for(15.0) - 450.0).abs() < 1e-9);
        // A plateau at the table's end: an exact hit still answers with
        // the plateau's left edge, not the flat-tail capacity cap.
        let t = PerfTable::new(vec![(100, 5.0), (200, 10.0), (300, 10.0)]);
        assert_eq!(t.size_for(10.0), 200.0);
        assert_eq!(t.size_for(12.0), 300.0, "past a flat tail: capped");
    }

    #[test]
    fn split_weights_renormalize_with_flat_tails() {
        // Flat tails make Σ size_i(t*) miss `total` at the bisection's
        // final bracket; the weights must still sum to the message size.
        let a = PerfTable::new(vec![(100, 10.0), (200, 20.0), (300, 20.0), (400, 20.0)]);
        let b = PerfTable::new(vec![(100, 10.0), (400, 40.0)]);
        let total = 600u64;
        let w = split_weights([&a, &b], total);
        assert!(w.iter().all(|&x| x >= 0.0), "weights {w:?}");
        let sum: f64 = w.iter().sum();
        assert!(
            (sum - total as f64).abs() <= 1e-6 * total as f64,
            "sum {sum} != total {total}"
        );
    }

    #[test]
    fn split_weights_all_flat_tables_fall_back_to_even() {
        let a = PerfTable::new(vec![(100, 10.0), (200, 10.0)]);
        let b = PerfTable::new(vec![(100, 10.0), (200, 10.0)]);
        let w = split_weights([&a, &b], 1000);
        assert_eq!(w, vec![500.0, 500.0].into());
    }

    #[test]
    fn ratio_permille_sums_to_1000() {
        let myri = myri_table();
        let quad = quad_table();
        let p = split_ratio_permille(&[&myri, &quad], 1 << 20);
        assert_eq!(p.iter().map(|&x| u32::from(x)).sum::<u32>(), 1000);
        assert!(p[0] > p[1], "myri carries the larger share");
    }

    fn test_calibrator() -> OnlineCalibrator {
        let ladder = default_ladder();
        let base = vec![
            PerfTable::from_analytic(&platform::myri_10g(), &ladder),
            PerfTable::from_analytic(&platform::quadrics_qm500(), &ladder),
        ];
        OnlineCalibrator::new(base, ladder)
    }

    #[test]
    fn calibrator_shifts_share_away_from_degraded_rail() {
        let mut c = test_calibrator();
        let before = {
            let t = c.rebuild();
            let refs: Vec<&PerfTable> = t.iter().collect();
            split_ratio_permille(&refs, 1 << 20)
        };
        // Rail 0 reports 2x the predicted time at 1 MiB, repeatedly.
        let pred = c.base[0].time_for(1 << 20);
        for _ in 0..32 {
            c.observe(0, 1 << 20, pred * 2.0, 1.0);
        }
        assert!(c.due());
        let t = c.rebuild();
        let refs: Vec<&PerfTable> = t.iter().collect();
        let after = split_ratio_permille(&refs, 1 << 20);
        assert!(
            after[0] < before[0],
            "degraded rail share must drop: {before:?} -> {after:?}"
        );
        assert_eq!(c.history().len(), 2);
    }

    #[test]
    fn calibrator_rebuilds_every_eight_samples() {
        let mut c = test_calibrator();
        let pred = c.base[0].time_for(1 << 20);
        let mut rebuilt_at = Vec::new();
        for i in 1..=3 * REBUILD_EVERY {
            c.observe(0, 1 << 20, pred, 1.0);
            if c.due() {
                c.rebuild();
                rebuilt_at.push(i);
            }
        }
        assert_eq!(rebuilt_at, [8, 16, 24]);
        let samples: Vec<u64> = c.history().iter().map(|s| s.samples).collect();
        assert_eq!(samples, [8, 16, 24]);
    }

    #[test]
    fn calibrator_down_weights_suspect_samples() {
        let mut a = test_calibrator();
        let mut b = test_calibrator();
        let pred = a.base[0].time_for(1 << 20);
        for _ in 0..8 {
            a.observe(0, 1 << 20, pred * 4.0, 1.0);
            b.observe(0, 1 << 20, pred * 4.0, 0.25);
        }
        let full = a.correction_at(0, 1 << 20);
        let light = b.correction_at(0, 1 << 20);
        assert!(
            light < full,
            "down-weighted samples must move the EWMA less: {light} vs {full}"
        );
    }

    #[test]
    fn calibrator_penalize_reads_slow_until_reearned() {
        let mut c = test_calibrator();
        c.penalize(0);
        let corr = c.correction_at(0, 1 << 20);
        assert!((corr - FAILOVER_PENALTY).abs() < 1e-9);
        let t = c.rebuild();
        // Penalized rail's table is slower than its seed across the ladder.
        assert!(t[0].time_for(1 << 20) > c.base[0].time_for(1 << 20) * 2.0);
        // Fresh on-prediction samples pull the correction back down.
        let pred = c.base[0].time_for(1 << 20);
        for _ in 0..64 {
            c.observe(0, 1 << 20, pred, 1.0);
        }
        assert!(c.correction_at(0, 1 << 20) < corr * 0.5);
    }

    #[test]
    fn calibrator_penalty_strips_share_even_at_saturation() {
        let mut c = test_calibrator();
        // Sustained queueing delay reads "slow" on every rail: both EWMAs
        // pin at MAX_CORRECTION and carry no relative signal. An absolute
        // penalty would be a no-op here — the regression this guards.
        let sat = MAX_CORRECTION * 4.0;
        for _ in 0..64 {
            for rail in 0..2 {
                let pred = c.base[rail].time_for(1 << 20);
                c.observe(rail, 1 << 20, pred * sat, 1.0);
            }
        }
        let t = c.rebuild();
        let refs: Vec<&PerfTable> = t.iter().collect();
        let before = split_ratio_permille(&refs, 1 << 20);
        c.penalize(0);
        let t = c.rebuild();
        let refs: Vec<&PerfTable> = t.iter().collect();
        let after = split_ratio_permille(&refs, 1 << 20);
        assert!(
            after[0] < before[0],
            "penalty must stay relative under saturation: {before:?} -> {after:?}"
        );
        // Fresh on-prediction samples both decay the multiplier and pull
        // the EWMA back: the rail re-earns its share.
        let pred = c.base[0].time_for(1 << 20);
        for _ in 0..64 {
            c.observe(0, 1 << 20, pred, 1.0);
        }
        let t = c.rebuild();
        let refs: Vec<&PerfTable> = t.iter().collect();
        let healed = split_ratio_permille(&refs, 1 << 20);
        assert!(
            healed[0] > after[0],
            "share must be re-earnable: {after:?} -> {healed:?}"
        );
    }

    #[test]
    fn calibrator_interpolates_unsampled_buckets() {
        let mut c = test_calibrator();
        let p64k = c.base[0].time_for(64 << 10);
        let p1m = c.base[0].time_for(1 << 20);
        for _ in 0..32 {
            c.observe(0, 64 << 10, p64k * 2.0, 1.0);
            c.observe(0, 1 << 20, p1m * 2.0, 1.0);
        }
        // 256 KiB sits between the two sampled buckets: its correction
        // must interpolate to ~2x, not stay at the neutral 1.0.
        let mid = c.correction_at(0, 256 << 10);
        assert!(mid > 1.5, "interpolated correction {mid}");
        // Beyond the sampled range the boundary carries flat.
        let high = c.correction_at(0, 8 << 20);
        assert!(high > 1.5, "carried correction {high}");
        // The other rail is untouched.
        assert!((c.correction_at(1, 1 << 20) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn calibrator_stale_bucket_decays_to_fresher_neighbour() {
        let mut c = test_calibrator();
        // One early on-prediction sample at 1 MiB, then the traffic mix
        // shifts: only 64 KiB chunks, all reading 2x slow.
        let p1m = c.base[0].time_for(1 << 20);
        c.observe(0, 1 << 20, p1m, 1.0);
        let p64k = c.base[0].time_for(64 << 10);
        for _ in 0..4 {
            for _ in 0..16 {
                c.observe(0, 64 << 10, p64k * 2.0, 1.0);
            }
            let _ = c.rebuild();
        }
        // The lone stale 1 MiB sample must not pin the large-size regime:
        // after a few rebuilds the 64 KiB correction carries up.
        let high = c.correction_at(0, 1 << 20);
        assert!(
            high > 1.5,
            "stale bucket must yield to fresher neighbour: corr {high}"
        );
    }

    #[test]
    fn calibrator_rejects_garbage_samples() {
        let mut c = test_calibrator();
        c.observe(0, 1 << 20, f64::NAN, 1.0);
        c.observe(0, 1 << 20, -5.0, 1.0);
        c.observe(0, 1 << 20, 10.0, 0.0);
        c.observe(9, 1 << 20, 10.0, 1.0);
        c.observe(0, 0, 10.0, 1.0);
        assert_eq!(c.samples(), 0);
        assert!((c.correction_at(0, 1 << 20) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_table_rejected() {
        PerfTable::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn bad_time_rejected() {
        PerfTable::new(vec![(10, -1.0)]);
    }
}
