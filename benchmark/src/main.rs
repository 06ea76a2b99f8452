//! `nmad-benchmark`: four closed-loop workloads on the real transports, a
//! raw-socket baseline and an outside-in layer ledger. See `README.md`.

mod adapter;
mod affinity;
mod alloc;
mod contract;
mod drive;
mod estimator;
mod loop_rt;
mod payload;
mod procfs;
mod raw;
mod run;
mod trace;
mod workload;

use std::process::{Command, ExitCode};

use contract::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use estimator::median;
use run::{Options, Report};
use workload::WORKLOADS;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  nmad-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
  nmad-benchmark all      [--seed <n>] [--seconds <s>] [--trace <0|1>]
  nmad-benchmark repeat   [--runs <n>] [--seconds <s>]
  nmad-benchmark selftest
  nmad-benchmark contract
workloads: tcp_pingpong_small tcp_stream_large tcp_burst_multiseg mem_mixed_bidir
--seed defaults to 1 (seed 2 is the hold-out for later claims), --seconds to 30, --trace to 0";

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        runs: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        let number = |v: String, what: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{what}: not a whole number: {v}"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number(value("--seed")?, "--seed")?,
            "--seconds" => args.seconds = number(value("--seconds")?, "--seconds")?.clamp(1, 60),
            "--runs" => args.runs = number(value("--runs")?, "--runs")?.clamp(2, 100) as usize,
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "all" | "repeat" | "selftest" | "contract" if args.command.is_none() => {
                args.command = Some(a)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn find_metric(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the contract"))
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit measured.
pub fn metrics_json(metrics: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                find_metric(name).unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `v` with four significant digits, for the tables people read.
fn four_digits(v: f64) -> String {
    let decimals = (3.0 - v.abs().max(1e-9).log10().floor()).clamp(0.0, 9.0);
    format!("{v:.*}", decimals as usize)
}

fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    )
}

/// Run one workload in this process and print its table and result line.
fn run_one(o: &Options) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let placement = affinity::init();
    println!(
        "workload {} seed {} {} s {} | {cores} CPUs, {placement}; one generator thread, closed \
         loop; traffic crosses loopback or process memory, never a real link",
        o.workload.name,
        o.seed,
        o.seconds,
        if o.trace { "traced" } else { "untraced" }
    );
    let report = if o.trace {
        run::traced(o)
    } else {
        run::end_to_end(o)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((name, v)) = report.metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("error: metric {name} is not a number ({v})");
        return ExitCode::from(2);
    }
    for (name, v) in &report.metrics {
        let m = find_metric(name);
        println!(
            "  {name:<34} {:>14} {:<6} ({} is better)",
            four_digits(*v),
            m.unit,
            m.better.as_str()
        );
    }
    for note in &report.notes {
        println!("  {note}");
    }
    println!(
        "  verified {} of {} messages, {} failed",
        report.attempted - report.failed,
        report.attempted,
        report.failed
    );
    println!("{}", result_line(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run `workload` in a fresh process (so `VmHWM` and the allocator start
/// clean, exactly as under the pipeline) and return its result line.
fn spawn_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    echo: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    stdout
        .lines()
        .last()
        .map(str::to_owned)
        .ok_or("run printed nothing".into())
}

/// Pick one metric's value out of a result line this program printed.
fn extract(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn all(a: &Args) -> ExitCode {
    for w in &WORKLOADS {
        if let Err(e) = spawn_run(w.name, a.seed, a.seconds, a.trace, true) {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

/// Full runs back to back, then one row per workload x end-to-end metric.
fn repeat(a: &Args) -> ExitCode {
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for r in 0..a.runs {
        // Seeds 1 and 2 are left to development and to hold-out claims.
        let seed = 10 + r as u64;
        for (wi, w) in WORKLOADS.iter().enumerate() {
            let line = match spawn_run(w.name, seed, a.seconds, false, false) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(1);
                }
            };
            for (mi, m) in END_TO_END.iter().enumerate() {
                match extract(&line, m.name) {
                    Some(v) => values[wi][mi].push(v),
                    None => {
                        eprintln!("error: {} missing from: {line}", m.name);
                        return ExitCode::from(1);
                    }
                }
            }
            eprintln!("run {}/{} {} done", r + 1, a.runs, w.name);
        }
    }
    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    let mut steady = true;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let med = median(v);
            let spread = (max - min) / med;
            // Like the pipeline, which judges `setup_s` by how its median
            // moves between sets, not by its spread within one.
            let judged = m.name != "setup_s";
            let ok = spread <= m.bound || !judged;
            steady &= ok;
            println!(
                "{:<20} {:<18} {:>12} {:>12} {:>12} {spread:>8.3} {:>6.2}{}",
                w.name,
                m.name,
                four_digits(min),
                four_digits(med),
                four_digits(max),
                m.bound,
                match (judged, ok) {
                    (false, _) => "  (not judged)",
                    (true, true) => "",
                    (true, false) => "  EXCEEDS",
                }
            );
        }
    }
    if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Prove the verifier can fail: a clean exchange must pass, then a
/// delivered copy is damaged (a flipped byte, then two swapped words) and
/// the run must come out incorrect, which makes this command exit non-zero
/// by the same rule as any run.
fn selftest() -> ExitCode {
    let report = match run::selftest() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("  {note}");
    }
    println!("{}", result_line(&report));
    if report.correct() {
        eprintln!("selftest: the verifier let a damaged delivery through");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "selftest: the verifier caught every damaged delivery (this non-zero exit is the proof)"
        );
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_deref() {
        Some("all") => all(&args),
        Some("repeat") => repeat(&args),
        Some("selftest") => selftest(),
        Some("contract") => {
            print!("{}", contract::benchmark_json());
            ExitCode::SUCCESS
        }
        _ => {
            let Some(w) = args.workload.as_deref().and_then(workload::find) else {
                eprintln!("error: --workload must name one of the four workloads\n{USAGE}");
                return ExitCode::from(2);
            };
            run_one(&Options {
                workload: w,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                corrupt: None,
            })
        }
    }
}
