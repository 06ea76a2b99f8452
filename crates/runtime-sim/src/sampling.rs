//! Initialization-time network sampling, for real (paper §3.4).
//!
//! "According to samplings performed on the different available NICs (this
//! step is done at the NewMadeleine initialization time), an adaptive
//! stripping ratio can be determined."
//!
//! Each rail is measured in isolation with the library's own ping-pong
//! machinery (single-rail strategy on a single-rail platform) across a
//! size ladder; the resulting [`PerfTable`]s are installed into the
//! engines and drive [`nmad_core::sampling::split_weights`].

use nmad_core::sampling::default_ladder;
use nmad_core::{EngineConfig, PerfTable, StrategyKind};
use nmad_model::{NicModel, Platform};

use crate::pingpong::{run_pingpong, PingPongSpec};

/// Sample one rail: measured one-way times over `ladder`.
pub fn sample_rail(nic: &NicModel, ladder: &[u64]) -> PerfTable {
    let platform = nmad_model::platform::single_rail_platform(nic.clone());
    let points: Vec<(u64, f64)> = ladder
        .iter()
        .map(|&size| {
            let spec = PingPongSpec {
                warmup: 1,
                iters: 2,
                ..PingPongSpec::new(
                    platform.clone(),
                    EngineConfig::with_strategy(StrategyKind::SingleRail(0)),
                    size as usize,
                )
            };
            (size, run_pingpong(&spec).one_way.as_us_f64())
        })
        .collect();
    PerfTable::new(points)
}

/// Sample every rail of `platform` over the default ladder.
pub fn sample_platform(platform: &Platform) -> Vec<PerfTable> {
    let ladder = default_ladder();
    platform
        .rails
        .iter()
        .map(|nic| sample_rail(nic, &ladder))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmad_model::platform;

    #[test]
    fn sampled_tables_track_analytic_models() {
        // The measured tables include engine overheads, so they sit at or
        // above the analytic curves but within a small factor.
        let ladder: Vec<u64> = vec![4, 4096, 1 << 20, 8 << 20];
        let nic = platform::quadrics_qm500();
        let sampled = sample_rail(&nic, &ladder);
        for &s in &ladder {
            let measured = sampled.time_for(s);
            let analytic = nic.analytic_oneway(s as usize).as_us_f64();
            assert!(
                measured >= analytic * 0.95,
                "size {s}: measured {measured} below analytic {analytic}"
            );
            assert!(
                measured <= analytic * 1.5 + 1.0,
                "size {s}: measured {measured} implausibly above analytic {analytic}"
            );
        }
    }

    #[test]
    fn sampled_ratio_favours_myri() {
        let ladder: Vec<u64> = vec![32 << 10, 256 << 10, 1 << 20, 8 << 20];
        let p = platform::paper_platform();
        let myri = sample_rail(&p.rails[0], &ladder);
        let quad = sample_rail(&p.rails[1], &ladder);
        let w = nmad_core::sampling::split_weights([&myri, &quad], 8 << 20);
        let frac = w[0] / (w[0] + w[1]);
        assert!(
            (0.52..0.68).contains(&frac),
            "sampled Myri fraction {frac} out of band"
        );
    }
}
