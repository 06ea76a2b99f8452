//! One fixed rule for turning per-trial values into a reported number.
//!
//! Host steal and scheduler noise only ever make a trial slower, so the
//! quiet quartile of trials, the quarter with the lowest median latency,
//! estimates the undisturbed program, and every metric of a run is its
//! mean over those same trials. One ranking serves all metrics because
//! three threads on two vCPUs settle into states that trade latency for
//! CPU time: the lowest quarter of each metric on its own would report a
//! latency from one state next to a CPU cost from another, and which of
//! the two a run saw more of would decide the second. The rule never
//! switches on a disturbance detector. A change that only adds stalls is
//! invisible to it by design; `bench.lat_p99_us` and `bench.trial_cv`
//! show those.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Indices of the quiet quartile: the quarter (rounded up) of trials
/// with the lowest `keys`.
pub fn quiet_quartile(keys: &[f64]) -> Vec<usize> {
    assert!(!keys.is_empty(), "no trials to estimate from");
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
    order.truncate(keys.len().div_ceil(4));
    order
}

/// Mean of `values` over the trials `picked`.
pub fn mean_over(values: &[f64], picked: &[usize]) -> f64 {
    picked.iter().map(|&i| values[i]).sum::<f64>() / picked.len() as f64
}

/// The `p`-quantile (0..=1) of an ascending slice, nearest rank.
pub fn quantile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let i = ((sorted.len() - 1) as f64 * p).round() as usize;
    Some(sorted[i])
}

/// Median of unsorted nanosecond samples, in microseconds.
pub fn median_us(samples: &mut [u32]) -> Option<f64> {
    samples.sort_unstable();
    quantile(samples, 0.5).map(|ns| ns as f64 / 1e3)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}
