//! Strategy-zoo tournament: every [`nmad_core::StrategyKind`] across the
//! six load regimes (uniform bulk, bounded-Pareto heavy tail, MMPP
//! bursts, bandwidth drift, hard outage, asymmetric small flood), gated
//! on the zoo's three claims — SRPT holds the heavy tail, harvesting
//! recovers idle bandwidth, adaptive-split cuts greedy's small-message
//! p99.
//! Run with `cargo bench -p nmad-bench --bench ablate_strategies`.
//! Set `NMAD_STRATEGIES_SMOKE=1` for the quick CI grid;
//! `NMAD_STRATEGIES_SEED=<n>` replays a recorded run.

fn main() {
    let smoke = std::env::var("NMAD_STRATEGIES_SMOKE").is_ok_and(|v| v != "0");
    let seed = std::env::var("NMAD_STRATEGIES_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(2024);
    eprintln!(
        "running ablate_strategies ({} grid, seed {seed})...",
        if smoke { "smoke" } else { "full" },
    );
    let report = nmad_bench::tournament::run(seed, smoke);
    println!("{}", nmad_bench::tournament::render(&report));

    let bytes = serde_json::to_vec_pretty(&report).expect("serializable");
    nmad_bench::report::write_gate_json("strategies", &bytes);

    let violations = nmad_bench::tournament::check(&report);
    if !violations.is_empty() {
        eprintln!("strategy tournament gate violated:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "strategy tournament OK: {} cells, {} winners (seed {} in BENCH_strategies.json)",
        report.cells.len(),
        report.winners.len(),
        report.seed
    );
}
