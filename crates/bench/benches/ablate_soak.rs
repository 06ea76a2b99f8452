//! Chaos-soak SLO gate: multi-tenant load over the mem fabric
//! while a seeded schedule drives outages, corruption, drop storms and
//! bandwidth drift, gated on p99/p999 latency, head->tail throughput
//! decay, pool-ledger leaks and stuck requests. Run with
//! `cargo bench -p nmad-bench --bench ablate_soak`.
//! Set `NMAD_SOAK_SMOKE=1` for the ~10 s CI run; the full run soaks for
//! minutes. `NMAD_SOAK_SEED=<n>` replays a recorded run.

use std::time::Duration;

fn main() {
    let smoke = std::env::var("NMAD_SOAK_SMOKE").is_ok_and(|v| v != "0");
    let seed = std::env::var("NMAD_SOAK_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(20);
    let spec = if smoke {
        nmad_bench::soak::SoakSpec::smoke(seed)
    } else {
        nmad_bench::soak::SoakSpec::full(seed)
    };
    eprintln!(
        "running ablate_soak ({} soak, {:.0}s load, seed {seed})...",
        if smoke { "smoke" } else { "full" },
        spec.duration.as_secs_f64()
    );
    let mut report = nmad_bench::soak::run(&spec);
    // Latency percentiles and window throughput ride the wall clock, so
    // a loaded CI box can trip them without any engine regression. If
    // ONLY timing gates fail (the ledger gates — leaks, stuck, progress
    // — are deterministic), soak once more before concluding. A real
    // regression fails both attempts.
    let timing_only = |r: &nmad_bench::soak::SoakReport| {
        let v = nmad_bench::soak::check(r);
        !v.is_empty() && v.iter().all(|s| s.starts_with("timing:"))
    };
    if timing_only(&report) {
        eprintln!(
            "timing gate tripped (p99 {} us, decay {:.1}%); retrying once to rule out background load",
            report.p99_us, report.decay_pct
        );
        // Let transient load drain before the second attempt.
        std::thread::sleep(Duration::from_secs(2));
        let second = nmad_bench::soak::run(&spec);
        if !timing_only(&second) {
            report = second;
        }
    }
    println!("{}", nmad_bench::soak::render(&report));

    let bytes = serde_json::to_vec_pretty(&report).expect("serializable");
    nmad_bench::report::write_gate_json("soak", &bytes);

    let violations = nmad_bench::soak::check(&report);
    if !violations.is_empty() {
        eprintln!("soak SLO gate violated:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "soak SLO gate OK: p99 {} us, {:+.1}% decay, 0 stuck, 0 leaks (seed {} in BENCH_soak.json)",
        report.p99_us, report.decay_pct, report.seed
    );
}
