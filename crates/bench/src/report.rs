//! Rendering figure results as text tables and JSON.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use nmad_runtime_sim::Sweep;
use serde::Serialize;

use crate::figures::FigureResult;

fn fmt_size(size: u64) -> String {
    if size >= 1 << 20 {
        format!("{}M", size >> 20)
    } else if size >= 1024 {
        format!("{}K", size >> 10)
    } else {
        format!("{size}")
    }
}

/// Render one panel (latency or bandwidth) as an aligned text table:
/// sizes down the rows, one column per series.
pub fn render_panel(title: &str, series: &[Sweep], bandwidth: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    if series.is_empty() {
        let _ = writeln!(out, "(no panel)");
        return out;
    }
    let width = 14usize;
    let _ = write!(out, "{:>10}", "size");
    for s in series {
        // Head column label: compress long legend names.
        let label: String = s.label.chars().take(width - 1).collect();
        let _ = write!(out, " {label:>width$}");
    }
    let _ = writeln!(out);
    for (i, p) in series[0].points.iter().enumerate() {
        let _ = write!(out, "{:>10}", fmt_size(p.size));
        for s in series {
            let q = &s.points[i];
            debug_assert_eq!(q.size, p.size);
            let v = if bandwidth {
                q.bandwidth_mbs
            } else {
                q.one_way_us
            };
            let _ = write!(out, " {v:>width$.2}");
        }
        let _ = writeln!(out);
    }
    // Legend with full labels.
    for (i, s) in series.iter().enumerate() {
        let _ = writeln!(out, "  [{i}] {}", s.label);
    }
    out
}

/// Render a full figure result: caption, latency panel (µs), bandwidth
/// panel (MB/s).
pub fn render_table(fig: &FigureResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== {} — {} ===", fig.id, fig.caption);
    if !fig.latency.is_empty() {
        out.push_str(&render_panel(
            &format!("{}a: transfer time (us)", fig.id),
            &fig.latency,
            false,
        ));
    }
    if !fig.bandwidth.is_empty() {
        out.push_str(&render_panel(
            &format!("{}b: bandwidth (MB/s)", fig.id),
            &fig.bandwidth,
            true,
        ));
    }
    out
}

/// Directory where figure JSON dumps land.
pub fn figures_dir() -> PathBuf {
    // target/ lives at the workspace root; CARGO_MANIFEST_DIR is
    // crates/bench.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/figures")
}

/// The workspace root — where the `ablate_*` gates write their
/// `BENCH_*.json` snapshots so regression baselines live in version
/// control next to the code they measure (unlike the figure dumps,
/// which are scratch output under `target/`).
pub fn repo_root_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    dir.canonicalize().unwrap_or(dir)
}

/// Write `bytes` to `file` at the repo root; failures are reported to
/// stderr, not fatal (a gate's exit code comes from its violations, not
/// from filesystem luck).
pub fn write_at_root(file: &str, bytes: &[u8]) {
    let path = repo_root_dir().join(file);
    match fs::write(&path, bytes) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The one ending of every gate: print `report` as `render` lays it out,
/// write it as pretty JSON to `BENCH_<name>.json` at the repo root, then
/// either list `check`'s violations and exit 1, or print `ok`'s line.
/// A gate's retry policy, if it has one, is applied to `report` before
/// it gets here.
pub fn finish_gate<R: Serialize>(
    name: &str,
    report: &R,
    render: fn(&R) -> String,
    check: fn(&R) -> Vec<String>,
    ok: impl FnOnce(&R) -> String,
) {
    println!("{}", render(report));
    let json = serde_json::to_vec_pretty(report).expect("serializable");
    write_at_root(&format!("BENCH_{name}.json"), &json);
    let violations = check(report);
    if !violations.is_empty() {
        eprintln!("{name} gate violated:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    eprintln!("{}", ok(report));
}

/// Write the figure as JSON under `target/figures/<id>.json`; returns the
/// path. Failures are reported, not fatal (benches still print tables).
pub fn write_json(fig: &FigureResult) -> std::io::Result<PathBuf> {
    let dir = figures_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.json", fig.id));
    fs::write(&path, serde_json::to_vec_pretty(fig).expect("serializable"))?;
    Ok(path)
}

// ---------------------------------------------------------------------
// Shared wall-clock noise policy
//
// Every wall-clock gate in this crate fights the same enemy: transient
// background load on the measuring box. The defense is the same three
// moves everywhere, so they live here once (obs_bench and cycles use
// all three, the soak gate the third):
//
// 1. warm up, then take MANY short samples rather than few long windows;
// 2. estimate with the lowest-quartile mean — noise is strictly
//    additive, so the cleanest 25% of samples is the signal;
// 3. if (and only if) a load-sensitive gate trips, re-measure once and
//    keep the better run. Deterministic gates (ledgers, counts,
//    coverage) are never retried.
// ---------------------------------------------------------------------

/// SplitMix64 finalizer: a deterministic bit mixer (no RNG state, no
/// seed from the clock) used to derandomize per-sample decisions such
/// as leg order, so periodic system noise (scheduler ticks, frequency
/// scaling) cannot phase-lock onto one leg of a fixed alternation.
pub fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mean of the lowest quartile of `samples` (sorted in place). A single
/// minimum is itself an extreme-value statistic and jitters; averaging
/// the cleanest 25% of samples converges much faster while still
/// rejecting every noise burst in the upper tail.
pub fn lower_quartile_mean(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    let keep = (samples.len() / 4).max(1);
    samples[..keep].iter().sum::<u64>() / keep as u64
}

/// The shared one-retry policy for wall-clock gates: if
/// `is_timing_flake` classifies `first`'s violations as timing-only,
/// run the measurement once more and keep the run `better` prefers
/// (`better(second, first)`). A real regression fails both attempts;
/// deterministic gate failures must return `false` from
/// `is_timing_flake` so they are never masked by a lucky rerun.
pub fn retry_once_on_timing<R>(
    name: &str,
    first: R,
    is_timing_flake: impl FnOnce(&R) -> bool,
    rerun: impl FnOnce() -> R,
    better: impl FnOnce(&R, &R) -> bool,
) -> R {
    if is_timing_flake(&first) {
        eprintln!("{name}: timing gate tripped; retrying once to rule out background load");
        let second = rerun();
        if better(&second, &first) {
            return second;
        }
    }
    first
}

/// Render one panel as CSV: `size,<series...>` — ready for gnuplot or a
/// spreadsheet.
pub fn render_csv(series: &[Sweep], bandwidth: bool) -> String {
    let mut out = String::new();
    if series.is_empty() {
        return out;
    }
    let _ = write!(out, "size");
    for s in series {
        let _ = write!(out, ",{}", s.label.replace(',', ";"));
    }
    let _ = writeln!(out);
    for (i, p) in series[0].points.iter().enumerate() {
        let _ = write!(out, "{}", p.size);
        for s in series {
            let q = &s.points[i];
            let v = if bandwidth {
                q.bandwidth_mbs
            } else {
                q.one_way_us
            };
            let _ = write!(out, ",{v:.4}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Write CSV dumps for a figure's panels under `target/figures/`.
pub fn write_csv(fig: &FigureResult) -> std::io::Result<Vec<PathBuf>> {
    let dir = figures_dir();
    fs::create_dir_all(&dir)?;
    let mut written = Vec::new();
    if !fig.latency.is_empty() {
        let path = dir.join(format!("{}_latency.csv", fig.id));
        fs::write(&path, render_csv(&fig.latency, false))?;
        written.push(path);
    }
    if !fig.bandwidth.is_empty() {
        let path = dir.join(format!("{}_bandwidth.csv", fig.id));
        fs::write(&path, render_csv(&fig.bandwidth, true))?;
        written.push(path);
    }
    Ok(written)
}

/// The body of every figure experiment: run, print, dump.
pub fn run_figure_bench(name: &str, run: impl FnOnce() -> FigureResult) {
    eprintln!("running {name} (deterministic simulation)...");
    let fig = run();
    println!("{}", render_table(&fig));
    match write_json(&fig) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write JSON dump: {e}"),
    }
    match write_csv(&fig) {
        Ok(paths) => {
            for p in paths {
                eprintln!("wrote {}", p.display());
            }
        }
        Err(e) => eprintln!("could not write CSV dump: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmad_runtime_sim::SeriesPoint;

    fn sweep(label: &str) -> Sweep {
        Sweep {
            label: label.into(),
            points: vec![
                SeriesPoint {
                    size: 4,
                    one_way_us: 1.7,
                    bandwidth_mbs: 2.3,
                },
                SeriesPoint {
                    size: 8 << 20,
                    one_way_us: 9000.0,
                    bandwidth_mbs: 930.0,
                },
            ],
        }
    }

    #[test]
    fn table_contains_values_and_legend() {
        let fig = FigureResult {
            id: "figX".into(),
            caption: "test".into(),
            latency: vec![sweep("series one")],
            bandwidth: vec![sweep("series two")],
        };
        let t = render_table(&fig);
        assert!(t.contains("figX"));
        assert!(t.contains("1.70"), "latency value present: {t}");
        assert!(t.contains("930.00"), "bandwidth value present: {t}");
        assert!(t.contains("series one") && t.contains("series two"));
        assert!(t.contains("8M"), "sizes formatted: {t}");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = render_csv(&[sweep("a"), sweep("b, with comma")], true);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("size,a,b; with comma"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("4,2.3000,"), "{row}");
        assert_eq!(lines.count(), 1);
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(4), "4");
        assert_eq!(fmt_size(2048), "2K");
        assert_eq!(fmt_size(8 << 20), "8M");
    }

    #[test]
    fn lower_quartile_mean_rejects_upper_tail() {
        // 12 clean samples around 100 plus 4 noise bursts: the estimate
        // must come from the clean floor, not the bursts.
        let mut s = vec![
            100, 101, 99, 100, 102, 100, 98, 101, 100, 99, 100, 101, 900, 1500, 700, 2000,
        ];
        let est = lower_quartile_mean(&mut s);
        assert!(
            (98..=101).contains(&est),
            "estimate {est} polluted by noise tail"
        );
        let mut one = vec![42];
        assert_eq!(lower_quartile_mean(&mut one), 42);
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(7), mix(7));
        // Parity of consecutive mixes must not be constant (that would
        // re-introduce the fixed alternation it exists to break).
        let parities: Vec<u64> = (0..16).map(|i| mix(i) & 1).collect();
        assert!(parities.contains(&0) && parities.contains(&1));
    }

    #[test]
    fn retry_policy_keeps_better_run_only_on_timing_flakes() {
        // Timing flake: rerun happens, better run wins.
        let r = retry_once_on_timing("t", 10u64, |&r| r > 5, || 3u64, |&s, &f| s < f);
        assert_eq!(r, 3);
        // Rerun worse: first kept.
        let r = retry_once_on_timing("t", 10u64, |&r| r > 5, || 20u64, |&s, &f| s < f);
        assert_eq!(r, 10);
        // Deterministic failure (not a timing flake): no rerun.
        let r = retry_once_on_timing("t", 10u64, |_| false, || unreachable!(), |&s, &f| s < f);
        assert_eq!(r, 10);
    }
}
