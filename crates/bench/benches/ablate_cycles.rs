//! Per-packet CPU-cycles gate: checksum kernel throughput, syscalls per
//! message of a burst over loopback TCP, pool reuse rate, and the
//! end-to-end scalar-vs-SIMD per-message cost. Run with
//! `cargo bench -p nmad-bench --bench ablate_cycles`.
//! Set `NMAD_CYCLES_SMOKE=1` for the small CI sweep.

fn main() {
    let smoke = std::env::var("NMAD_CYCLES_SMOKE").is_ok_and(|v| v != "0");
    eprintln!(
        "running ablate_cycles ({} sweep, wall-clock hot path)...",
        if smoke { "smoke" } else { "full" }
    );
    // Shared noise policy (see nmad_bench::report): if ONLY the
    // load-sensitive gates trip (kernel speedups, syscall ratio,
    // per-packet CPU), measure once more and keep the run with fewer
    // violations. Coverage gates (completion, pool traffic) are
    // deterministic and never retried.
    let report = nmad_bench::report::retry_once_on_timing(
        "ablate_cycles",
        nmad_bench::cycles::run(smoke),
        |r| {
            let v = nmad_bench::cycles::check(r);
            !v.is_empty()
                && v.iter().all(|s| {
                    s.contains("speedup") || s.contains("syscalls") || s.contains("per-packet")
                })
        },
        || nmad_bench::cycles::run(smoke),
        |second, first| {
            nmad_bench::cycles::check(second).len() < nmad_bench::cycles::check(first).len()
        },
    );
    println!("{}", nmad_bench::cycles::render(&report));

    let bytes = serde_json::to_vec_pretty(&report).expect("serializable");
    nmad_bench::report::write_gate_json("cycles", &bytes);

    let violations = nmad_bench::cycles::check(&report);
    if !violations.is_empty() {
        eprintln!("per-packet cycles gate violated:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "per-packet cycles gate OK: {:.3} tx syscalls/msg, {:.1}% pool reuse, \
         {} {:.1}x faster than scalar end to end",
        report.tx_calls_per_message(),
        report.pool.reuse_rate * 100.0,
        report.per_packet.fast_kernel,
        report.per_packet.scalar_ns as f64 / report.per_packet.fast_ns.max(1) as f64
    );
}
