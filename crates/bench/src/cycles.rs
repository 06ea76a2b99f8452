//! Per-packet CPU-cycles gate (the `ablate_cycles` experiment).
//!
//! The paper's engine lives or dies on raw per-packet cost: a scheduler
//! that picks the perfect rail is worthless if checksumming eats the
//! budget first. This ablation measures the checksum's cost twice and
//! gates each:
//!
//! * **Checksum kernels** — GiB/s of every available CRC-32 kernel
//!   (scalar, slicing-by-16, PCLMUL folding). Gate: slice16 at least
//!   [`SLICE16_SPEEDUP_GATE`]× scalar, SIMD at least
//!   [`SIMD_SPEEDUP_GATE`]× scalar where the CPU supports it.
//! * **Per-packet CPU** — a message through a CRC-on engine pair, timed
//!   with the checksum kernel forced to scalar vs. the best available kernel,
//!   interleaved like `ablate_obs`. Gate: the fast kernel's per-message
//!   cost strictly below the scalar baseline (the SIMD work must be
//!   visible end to end, not just in a microbenchmark).
//!
//! The result is written to `BENCH_cycles.json` at the repo root; the
//! smoke variant (`--bench paper -- ablate_cycles --smoke`) runs in
//! `scripts/verify.sh`.
//! Syscalls per message and pool reuse are not measured here: the
//! burst's frames and `write_vectored` calls per message are asserted by
//! `conformance::burst_aggregates_and_echo_does_not`, the pool's reuse
//! by `crates/core/tests/alloc_budget.rs` and the engine's pool tests.

use std::time::Instant;

use bytes::Bytes;
use nmad_core::{EngineConfig, StrategyKind};
use nmad_wire::checksum::{self, Kernel};
use serde::{ser, Serialize, Value};

use crate::pair::{engines, timed_send};
use crate::report::{lower_quartile_mean, mix};

/// Minimum slicing-by-16 throughput, as a multiple of the scalar kernel.
pub const SLICE16_SPEEDUP_GATE: f64 = 3.0;

/// Minimum PCLMUL-folding throughput, as a multiple of the scalar
/// kernel (applied only where the CPU reports the features).
pub const SIMD_SPEEDUP_GATE: f64 = 8.0;

/// One checksum kernel's measured throughput.
#[derive(Clone, Debug)]
pub struct KernelPoint {
    /// Kernel name (`scalar`, `slice16`, `simd`).
    pub kernel: &'static str,
    /// Lowest-quartile-mean throughput, GiB/s.
    pub gib_s: f64,
    /// Throughput relative to the scalar kernel in the same run.
    pub speedup: f64,
}

impl Serialize for KernelPoint {
    fn to_value(&self) -> Value {
        ser::object([
            ("kernel", ser::v(&self.kernel.to_string())),
            ("gib_s", ser::v(&self.gib_s)),
            ("speedup", ser::v(&self.speedup)),
        ])
    }
}

/// Per-message CPU cost of the CRC-on workload, scalar vs. best kernel.
#[derive(Clone, Debug)]
pub struct PerPacketPoint {
    /// Message size, bytes.
    pub size: u64,
    /// Interleaved samples per leg.
    pub samples: usize,
    /// Lowest-quartile-mean per-message wall-clock, kernel forced
    /// scalar, ns.
    pub scalar_ns: u64,
    /// Same with the best available kernel, ns.
    pub fast_ns: u64,
    /// Which kernel the fast leg used.
    pub fast_kernel: &'static str,
}

impl Serialize for PerPacketPoint {
    fn to_value(&self) -> Value {
        ser::object([
            ("size", ser::v(&self.size)),
            ("samples", ser::v(&self.samples)),
            ("scalar_ns", ser::v(&self.scalar_ns)),
            ("fast_ns", ser::v(&self.fast_ns)),
            ("fast_kernel", ser::v(&self.fast_kernel.to_string())),
        ])
    }
}

/// The full ablation result.
#[derive(Clone, Debug)]
pub struct CyclesReport {
    /// One point per available checksum kernel.
    pub kernels: Vec<KernelPoint>,
    /// Bits per fold lane the `simd` kernel ran with on this CPU: 512
    /// (VPCLMULQDQ), 128 (PCLMULQDQ), 0 when it is unavailable. Its
    /// GiB/s from two hosts compare only at the same width.
    pub simd_fold_width: u32,
    /// Scalar-vs-fast per-message CPU comparison.
    pub per_packet: PerPacketPoint,
    /// Gates applied by [`check`].
    pub slice16_gate: f64,
    /// See [`SIMD_SPEEDUP_GATE`].
    pub simd_gate: f64,
}

impl Serialize for CyclesReport {
    fn to_value(&self) -> Value {
        ser::object([
            ("kernels", ser::v(&self.kernels)),
            ("simd_available", ser::v(&(self.simd_fold_width != 0))),
            ("simd_fold_width", ser::v(&self.simd_fold_width)),
            ("per_packet", ser::v(&self.per_packet)),
            ("slice16_gate", ser::v(&self.slice16_gate)),
            ("simd_gate", ser::v(&self.simd_gate)),
        ])
    }
}

/// Deterministic pseudo-random buffer (no clock, no RNG state): CRC
/// tables are data-independent, but a patterned buffer would let the
/// prefetcher flatter the slower kernels.
fn noise_buf(len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    let mut i = 0u64;
    while v.len() < len {
        v.extend_from_slice(&mix(i).to_le_bytes());
        i += 1;
    }
    v.truncate(len);
    v
}

/// Throughput of every available kernel over `len` bytes,
/// `samples` passes each, interleaved round-robin so a noise burst
/// taxes all kernels alike.
fn measure_kernels(len: usize, samples: usize) -> Vec<KernelPoint> {
    let buf = noise_buf(len);
    let kernels = checksum::available_kernels();
    // All kernels must agree before we time anything (the proptests
    // prove this exhaustively; this is the cheap in-run sanity check).
    let want = checksum::update_with(Kernel::Scalar, checksum::crc32_init(), &buf);
    for &k in &kernels {
        assert_eq!(
            checksum::update_with(k, checksum::crc32_init(), &buf),
            want,
            "kernel {} disagrees with scalar",
            k.name()
        );
    }
    let mut times: Vec<Vec<u64>> = vec![Vec::with_capacity(samples); kernels.len()];
    for s in 0..samples {
        // Rotate the starting kernel per round so cache state at round
        // boundaries does not systematically favour one kernel.
        let rot = (mix(s as u64) % kernels.len() as u64) as usize;
        for j in 0..kernels.len() {
            let ki = (j + rot) % kernels.len();
            let t0 = Instant::now();
            let crc = checksum::update_with(kernels[ki], checksum::crc32_init(), &buf);
            let ns = t0.elapsed().as_nanos() as u64;
            assert_eq!(crc, want); // keeps the compute from being optimized out
            times[ki].push(ns);
        }
    }
    let ns: Vec<u64> = times.iter_mut().map(|t| lower_quartile_mean(t)).collect();
    let gib = |ns: u64| {
        if ns == 0 {
            0.0
        } else {
            len as f64 / (ns as f64 / 1e9) / (1u64 << 30) as f64
        }
    };
    let scalar_ns = ns[0].max(1);
    kernels
        .iter()
        .zip(&ns)
        .map(|(&k, &t)| KernelPoint {
            kernel: k.name(),
            gib_s: gib(t),
            speedup: scalar_ns as f64 / t.max(1) as f64,
        })
        .collect()
}

/// The CRC-on workload timed with the checksum kernel forced to scalar
/// vs. the best available kernel, finely interleaved (`ablate_obs`
/// noise discipline). Restores the best kernel before returning.
fn measure_per_packet(size: usize, samples: usize) -> PerPacketPoint {
    let fast = *checksum::available_kernels()
        .last()
        .expect("scalar always available");
    let mut cfg = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
    cfg.crc = true;
    let (mut a_s, mut b_s) = engines(&cfg);
    let (mut a_f, mut b_f) = engines(&cfg);
    let payload = Bytes::from(noise_buf(size));
    // Warm both pairs (allocator, page faults, split tables).
    checksum::set_kernel(Kernel::Scalar);
    timed_send(&mut a_s, &mut b_s, &payload);
    checksum::set_kernel(fast);
    timed_send(&mut a_f, &mut b_f, &payload);
    let mut scalar = Vec::with_capacity(samples);
    let mut fastv = Vec::with_capacity(samples);
    for i in 0..samples {
        let scalar_first = mix(i as u64) & 1 == 0;
        for leg in 0..2 {
            if (leg == 0) == scalar_first {
                checksum::set_kernel(Kernel::Scalar);
                scalar.push(timed_send(&mut a_s, &mut b_s, &payload));
            } else {
                checksum::set_kernel(fast);
                fastv.push(timed_send(&mut a_f, &mut b_f, &payload));
            }
        }
    }
    checksum::set_kernel(fast);
    PerPacketPoint {
        size: size as u64,
        samples,
        scalar_ns: lower_quartile_mean(&mut scalar),
        fast_ns: lower_quartile_mean(&mut fastv),
        fast_kernel: fast.name(),
    }
}

/// Run the ablation. `smoke` shrinks buffer sizes and repetition counts
/// for the CI gate.
pub fn run(smoke: bool) -> CyclesReport {
    let kernels = if smoke {
        measure_kernels(1 << 20, 24)
    } else {
        measure_kernels(4 << 20, 64)
    };
    let per_packet = if smoke {
        measure_per_packet(64 << 10, 48)
    } else {
        measure_per_packet(64 << 10, 256)
    };
    CyclesReport {
        kernels,
        simd_fold_width: checksum::simd_fold_width(),
        per_packet,
        slice16_gate: SLICE16_SPEEDUP_GATE,
        simd_gate: SIMD_SPEEDUP_GATE,
    }
}

/// Gate violations (empty = the hot path holds its claims). Every gate
/// is timing-sensitive, so the bench main retries any of them once
/// (the shared retry-once policy).
pub fn check(report: &CyclesReport) -> Vec<String> {
    let mut v = Vec::new();
    for p in &report.kernels {
        let gate = match p.kernel {
            "slice16" => report.slice16_gate,
            "simd" => report.simd_gate,
            _ => continue,
        };
        if p.speedup < gate {
            v.push(format!(
                "{} speedup {:.2}x below the {:.1}x gate",
                p.kernel, p.speedup, gate
            ));
        }
    }
    if report.per_packet.fast_ns >= report.per_packet.scalar_ns {
        v.push(format!(
            "per-packet CPU with {} ({} ns) not below the scalar baseline ({} ns)",
            report.per_packet.fast_kernel, report.per_packet.fast_ns, report.per_packet.scalar_ns
        ));
    }
    v
}

/// Human-readable table.
pub fn render(report: &CyclesReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:>8} {:>10} {:>9}", "kernel", "GiB/s", "speedup");
    for p in &report.kernels {
        let _ = writeln!(out, "{:>8} {:>10.2} {:>8.1}x", p.kernel, p.gib_s, p.speedup);
    }
    let _ = match report.simd_fold_width {
        0 => writeln!(out, "(simd kernel unavailable on this CPU)"),
        bits => writeln!(out, "(simd folds {bits} bits per lane on this CPU)"),
    };
    let pp = &report.per_packet;
    let _ = writeln!(
        out,
        "per-packet CPU ({} B, crc on): scalar {:.1} us, {} {:.1} us ({:.2}x)",
        pp.size,
        pp.scalar_ns as f64 / 1e3,
        pp.fast_kernel,
        pp.fast_ns as f64 / 1e3,
        pp.scalar_ns as f64 / pp.fast_ns.max(1) as f64
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_report() -> CyclesReport {
        CyclesReport {
            kernels: vec![
                KernelPoint {
                    kernel: "scalar",
                    gib_s: 0.3,
                    speedup: 1.0,
                },
                KernelPoint {
                    kernel: "slice16",
                    gib_s: 1.5,
                    speedup: 5.0,
                },
                KernelPoint {
                    kernel: "simd",
                    gib_s: 12.0,
                    speedup: 40.0,
                },
            ],
            simd_fold_width: 128,
            per_packet: PerPacketPoint {
                size: 64 << 10,
                samples: 48,
                scalar_ns: 400_000,
                fast_ns: 60_000,
                fast_kernel: "simd",
            },
            slice16_gate: SLICE16_SPEEDUP_GATE,
            simd_gate: SIMD_SPEEDUP_GATE,
        }
    }

    #[test]
    fn check_passes_clean_and_flags_each_gate() {
        let clean = clean_report();
        assert!(check(&clean).is_empty(), "{:?}", check(&clean));

        let mut r = clean.clone();
        r.kernels[1].speedup = 2.0; // slice16 under 3x
        r.kernels[2].speedup = 5.0; // simd under 8x
        r.per_packet.fast_ns = r.per_packet.scalar_ns; // not strictly below
        assert_eq!(check(&r).len(), 3, "{:?}", check(&r));
    }

    #[test]
    fn kernel_measurement_orders_kernels_sanely() {
        // Tiny run: the point is agreement + plumbing, not stable timing.
        let points = measure_kernels(64 << 10, 8);
        assert_eq!(points[0].kernel, "scalar");
        assert!((points[0].speedup - 1.0).abs() < 1e-9);
        assert!(points.len() >= 2, "slice16 must always be available");
    }

    #[test]
    fn render_mentions_every_section() {
        let s = render(&clean_report());
        assert!(s.contains("slice16") && s.contains("per-packet CPU"));
    }
}
