//! Every experiment of the harness, by name: the one table that
//! `benches/paper.rs` runs.
//!
//! ```text
//! cargo bench -p nmad-bench --bench paper                      # every experiment
//! cargo bench -p nmad-bench --bench paper -- fig2_myri         # one, by name
//! cargo bench -p nmad-bench --bench paper -- ablate_strategies --smoke --seed 2024
//! ```
//!
//! `--smoke` runs the three gates (`ablate_obs`, `ablate_calibration`,
//! `ablate_strategies`) at the small CI size; `--seed N` replays a
//! recorded `ablate_strategies` run (default 2024). The other
//! experiments are deterministic simulations and take neither. The soak
//! gate is `nmad soak --check`.

use nmad_core::StrategyKind;

use crate::figures::FigureResult;
use crate::report::{finish_gate, retry_once_on_timing, run_figure_bench, write_report};
use crate::workload::{
    burst_comparison, render_burst_table, run_compute_window, BurstPattern, BurstSpec,
};
use crate::{calibration, figures, obs_bench, tournament};
use Run::{Custom, Figure};

/// What the command line set for the experiments it names.
#[derive(Debug, Default, PartialEq)]
pub struct Opts {
    /// The small CI size of a gate (`--smoke`).
    pub smoke: bool,
    /// The seed of a seeded gate (`--seed N`); `None` keeps its default.
    pub seed: Option<u64>,
}

/// How an experiment runs.
pub enum Run {
    /// A figure or series of the simulator: run it, print its table and
    /// dump it under `target/figures/`.
    Figure(fn() -> FigureResult),
    /// Anything else, given the command line's options; a gate exits 1
    /// on a violation.
    Custom(fn(&Opts)),
}

/// One experiment: the name it runs by (also its `target/figures/` id
/// or its `BENCH_*.json` gate) and how.
pub type Experiment = (&'static str, Run);

/// Every experiment, in the order a run without a name takes them.
const EXPERIMENTS: &[Experiment] = &[
    ("fig2_myri", Figure(figures::fig2_myri)),
    ("fig3_quadrics", Figure(figures::fig3_quadrics)),
    ("fig4_greedy2", Figure(figures::fig4_greedy2)),
    ("fig5_greedy4", Figure(figures::fig5_greedy4)),
    ("fig6_aggregate", Figure(figures::fig6_aggregate)),
    ("fig7_split", Figure(figures::fig7_split)),
    ("ablate_poll", Figure(figures::ablate_poll)),
    ("ablate_ratio", Figure(figures::ablate_ratio)),
    ("ablate_threshold", Figure(figures::ablate_threshold)),
    ("ablate_cores", Figure(figures::ablate_cores)),
    ("three_rail", Figure(figures::three_rail)),
    ("workload_mix", Custom(workload_mix)),
    ("ablate_jit", Custom(ablate_jit)),
    ("ablate_window", Custom(ablate_window)),
    ("ablate_obs", Custom(ablate_obs)),
    ("ablate_calibration", Custom(ablate_calibration)),
    ("ablate_strategies", Custom(ablate_strategies)),
];

/// Run one experiment with `opts`.
pub fn run((name, run): &Experiment, opts: &Opts) {
    match run {
        Figure(f) => run_figure_bench(name, f),
        Custom(f) => f(opts),
    }
}

/// The experiments and options `args` (the bench binary's arguments)
/// ask for: no name means every experiment. The `--bench` that cargo
/// appends is skipped; an unknown name is an error that lists the known
/// ones.
pub fn parse(
    args: impl IntoIterator<Item = String>,
) -> Result<(Vec<&'static Experiment>, Opts), String> {
    let mut opts = Opts::default();
    let mut picked = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => {}
            "--smoke" => opts.smoke = true,
            "--seed" => {
                let n = args.next().and_then(|v| v.parse().ok());
                opts.seed = Some(n.ok_or("--seed takes a number")?);
            }
            name => match EXPERIMENTS.iter().find(|e| e.0 == name) {
                Some(e) => picked.push(e),
                None => {
                    let known: Vec<_> = EXPERIMENTS.iter().map(|e| e.0).collect();
                    return Err(format!(
                        "unknown experiment '{name}'; known: {}",
                        known.join(" ")
                    ));
                }
            },
        }
    }
    if picked.is_empty() {
        picked = EXPERIMENTS.iter().collect();
    }
    Ok((picked, opts))
}

fn sweep(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

/// Beyond-paper experiment: bursty mixed-size workload makespan per
/// strategy.
fn workload_mix(_: &Opts) {
    for (msgs, small_frac) in [(64usize, 0.6f64), (64, 0.9), (128, 0.3)] {
        let spec = BurstSpec {
            messages: msgs,
            seed: 2007,
            small_fraction: small_frac,
            ..Default::default()
        };
        let rows = burst_comparison(&spec);
        println!("{}", render_burst_table(&spec, &rows));
    }
}

/// Just-in-time (NIC-idle-driven) scheduling vs static round-robin rail
/// binding, on bursty mixed-size workloads (§3.5: "we take our
/// scheduling decisions just-in-time").
fn ablate_jit(_: &Opts) {
    println!("=== ablate_jit — just-in-time vs static rail binding ===");
    for (pattern, messages, label) in [
        (
            BurstPattern::UniformLarge,
            3usize,
            "3 x 2MiB, slow rail listed first",
        ),
        (
            BurstPattern::AlternatingLargeSmall,
            24,
            "alternating 2MiB/4KiB",
        ),
        (BurstPattern::Mixed, 24, "random mix"),
    ] {
        println!("--- {label} ---");
        let spec = BurstSpec {
            messages,
            seed: 2007,
            small_fraction: 0.5,
            pattern,
            slow_rail_first: pattern == BurstPattern::UniformLarge,
        };
        let rows = burst_comparison(&spec);
        println!("{}", render_burst_table(&spec, &rows));
    }
    println!(
        "static-round-robin binds work at submission and regularly parks\n\
         bytes on the slow rail while the fast one idles; the just-in-time\n\
         strategies (greedy and later) decide at NIC-idle instants instead."
    );
}

/// The §2 "optimization window" experiment: requests accumulate while
/// the application computes; the optimizer processes the backlog at
/// once.
fn ablate_window(_: &Opts) {
    println!("=== ablate_window — backlog accumulation during compute phases ===");
    println!(
        "{:>12} {:>18} {:>14} {:>10} {:>10}",
        "compute (us)", "strategy", "makespan us", "packets", "aggregates"
    );
    for compute_us in [0u64, 1, 3, 10] {
        for kind in [StrategyKind::Greedy, StrategyKind::AggregateEager] {
            let (t, pkts, aggs) = run_compute_window(kind, 8, compute_us);
            println!(
                "{compute_us:>12} {:>18} {t:>14.2} {pkts:>10} {aggs:>10}",
                kind.label()
            );
        }
    }
    println!(
        "\nLonger compute phases -> deeper backlog when the scheduler finally\n\
         runs -> bigger aggregates and fewer physical packets (paper 2: the\n\
         engine builds a packet optimization window while execution is\n\
         CPU-bounded, at constant submit cost)."
    );
}

/// Observability overhead gate: the bandwidth ladder with the recorder
/// off, on, and the full telemetry stack; fails if instrumentation costs
/// more than the budget or allocates on the hot path. Only the timing
/// gates are retried (allocs and event counts are deterministic), and
/// the quieter run is kept.
fn ablate_obs(o: &Opts) {
    eprintln!(
        "running ablate_obs ({} sweep, wall-clock engine pump)...",
        sweep(o.smoke)
    );
    let worst =
        |r: &obs_bench::ObsReport| r.aggregate_overhead_pct.max(r.aggregate_full_overhead_pct);
    let report = retry_once_on_timing(
        "ablate_obs",
        obs_bench::run(o.smoke),
        |r| {
            let v = obs_bench::check(r);
            !v.is_empty() && v.iter().all(|s| s.contains("overhead"))
        },
        || obs_bench::run(o.smoke),
        |second, first| worst(second) < worst(first),
    );
    // The full-stack leg's windowed time series rides alongside the
    // gate JSON as a CI artifact.
    write_report(
        "BENCH_obs_timeseries.jsonl",
        report.timeseries_jsonl.as_bytes(),
    );
    finish_gate("obs", &report, obs_bench::render, obs_bench::check, |r| {
        format!(
            "observability overhead OK: recorder {:.2}%, full stack {:.2}% (budget {:.0}%), 0 hot-path allocs",
            r.aggregate_overhead_pct, r.aggregate_full_overhead_pct, r.budget_pct
        )
    });
}

/// Online-recalibration gate: the mid-run bandwidth-degradation pipeline
/// with frozen seed tables and with the online calibrator; fails unless
/// calibrating strictly wins and the split converges within the rebuild
/// budget. Deterministic, so never retried.
fn ablate_calibration(o: &Opts) {
    eprintln!(
        "running ablate_calibration ({} sweep, deterministic drift sim)...",
        sweep(o.smoke)
    );
    let report = calibration::run(o.smoke);
    finish_gate(
        "calibration",
        &report,
        calibration::render,
        calibration::check,
        |r| {
            format!(
                "calibration OK: {:+.2}% vs frozen, converged at rebuild {} (budget {})",
                r.improvement_pct(),
                r.converged_rebuild,
                r.budget_rebuilds
            )
        },
    );
}

/// Strategy-zoo tournament: every [`StrategyKind`] across the six load
/// regimes, gated on the zoo's three claims (SRPT holds the heavy tail,
/// harvesting recovers idle bandwidth, adaptive-split cuts greedy's
/// small-message p99). A deterministic simulation, so never retried.
fn ablate_strategies(o: &Opts) {
    let seed = o.seed.unwrap_or(2024);
    eprintln!(
        "running ablate_strategies ({} grid, seed {seed})...",
        sweep(o.smoke)
    );
    let report = tournament::run(seed, o.smoke);
    finish_gate(
        "strategies",
        &report,
        tournament::render,
        tournament::check,
        |r| {
            format!(
                "strategy tournament OK: {} cells, {} winners (seed {} in BENCH_strategies.json)",
                r.cells.len(),
                r.winners.len(),
                r.seed
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    fn names(picked: &[&Experiment]) -> Vec<&'static str> {
        picked.iter().map(|e| e.0).collect()
    }

    #[test]
    fn every_experiment_has_one_unique_name() {
        let all = names(&EXPERIMENTS.iter().collect::<Vec<_>>());
        for (i, n) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(n), "{n} is in the table twice");
        }
        let kept = "fig2_myri fig3_quadrics fig4_greedy2 fig5_greedy4 fig6_aggregate \
            fig7_split ablate_poll ablate_ratio ablate_threshold ablate_cores workload_mix \
            ablate_jit three_rail ablate_window ablate_obs ablate_calibration \
            ablate_strategies";
        for n in kept.split_whitespace() {
            assert!(all.contains(&n), "{n} is missing");
        }
        assert_eq!(all.len(), 17);
    }

    #[test]
    fn no_name_runs_everything_and_cargos_bench_flag_is_skipped() {
        let (picked, opts) = parse(args(&["--bench"])).unwrap();
        assert_eq!(picked.len(), EXPERIMENTS.len());
        assert_eq!(opts, Opts::default());
        let (picked, _) = parse(args(&["fig2_myri", "--bench"])).unwrap();
        assert_eq!(names(&picked), ["fig2_myri"]);
    }

    #[test]
    fn smoke_and_seed_parse() {
        let (picked, opts) = parse(args(&[
            "ablate_strategies",
            "--smoke",
            "--seed",
            "11",
            "--bench",
        ]))
        .unwrap();
        assert_eq!(names(&picked), ["ablate_strategies"]);
        assert_eq!(
            opts,
            Opts {
                smoke: true,
                seed: Some(11)
            }
        );
        assert!(parse(args(&["--seed", "x"])).is_err());
        assert!(parse(args(&["--seed"])).is_err());
    }

    #[test]
    fn an_unknown_name_is_an_error_that_lists_the_names() {
        let err = parse(args(&["fig9", "--bench"])).err().unwrap();
        assert!(err.contains("fig9"), "{err}");
        for e in EXPERIMENTS {
            assert!(err.contains(e.0), "{err} does not list {}", e.0);
        }
    }
}
