//! The benchmark's contract: metric names, units, directions and bounds.
//! `BENCHMARK.json` at the repository root is `nmad-benchmark contract`'s
//! output, so the file and the program cannot drift apart.

use crate::estimator::Better::{self, Higher, Lower};
use crate::workload::WORKLOADS;

/// Seconds of measurement per run. The pipeline passes it as `--seconds`.
pub const RUN_SECONDS: u64 = 30;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; 0 for layer metrics.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// What a user of the library sees. Every workload reports all six.
///
/// The bounds are what the two-vCPU virtual machine this was written on
/// allows, not what the issue asked for (0.10 throughout). The host's own
/// speed drifts by a tenth to a fifth within twenty minutes, and a metric
/// cannot be bounded more tightly than a do-nothing baseline repeats: ten
/// 30 s runs of the raw socket baselines alone spread (quartile distance
/// over median) by 0.03-0.11 in a good hour and 0.15-0.24 in a bad one.
/// The pipeline refuses a benchmark whose spread exceeds its bound, so
/// every timed metric takes the 0.25 it allows; `peak_rss_mib`, which
/// stayed within 0.09, takes 0.20. See the README's steadiness tables.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    e2e("goodput_mbs", "MB/s", Higher, 0.25),
    e2e("overhead_vs_raw_x", "x", Lower, 0.25),
    e2e("cpu_us_per_msg", "us", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.20),
];

/// Single layers, by the repository's module names. The traced run of
/// every workload reports all of them, so the five metrics of the real
/// transport's runtime have one name: `transport.*` is `transport-tcp` on
/// the three `tcp_` workloads and `transport-mem` on `mem_mixed_bidir`
/// (the issue's `tcp.*` and `mem.*`).
pub const PER_LAYER: [Metric; 31] = [
    layer("core.submit_us_per_msg", "us", Lower),
    layer("core.next_tx_us_per_msg", "us", Lower),
    layer("core.on_tx_done_us_per_msg", "us", Lower),
    layer("core.on_frame_us_per_msg", "us", Lower),
    layer("core.try_recv_us_per_msg", "us", Lower),
    layer("core.loop_goodput_mbs", "MB/s", Higher),
    layer("core.frames_per_msg", "count", Lower),
    layer("core.wire_bytes_per_payload_byte", "B/B", Lower),
    layer("core.rail_share_max", "share", Lower),
    layer("wire.crc32_gbs", "GB/s", Higher),
    layer("wire.decode_us_per_frame", "us", Lower),
    layer("wire.crc_share_of_core", "share", Lower),
    layer("transport.send_call_us_p50", "us", Lower),
    layer("transport.recv_wait_us_p50", "us", Lower),
    layer("transport.send_wait_us_p50", "us", Lower),
    layer("transport.residual_us_per_msg", "us", Lower),
    layer("transport.residual_share", "share", Lower),
    layer("raw.lat_p50_us", "us", Lower),
    layer("raw.goodput_mbs", "MB/s", Higher),
    layer("alloc.count_per_msg", "count", Lower),
    layer("alloc.bytes_per_payload_byte", "B/B", Lower),
    layer("sched.ctx_switches_per_msg", "count", Lower),
    layer("sched.app_cpu_us_per_msg", "us", Lower),
    layer("sched.worker_cpu_us_per_msg", "us", Lower),
    layer("sched.runq_wait_share", "share", Lower),
    layer("sched.threads", "count", Lower),
    layer("bench.lat_p99_us", "us", Lower),
    layer("bench.msg_rate_kps", "k/s", Higher),
    layer("bench.trial_cv", "share", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.tw_sockets", "count", Lower),
];

fn metric_json(m: &Metric, with_bound: bool) -> String {
    let mut s = format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        m.name,
        m.unit,
        m.better.as_str()
    );
    if with_bound {
        s.push_str(&format!(", \"bound\": {}", m.bound));
    }
    s.push('}');
    s
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, why)
        })
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(|m| metric_json(m, true)).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|m| metric_json(m, false)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
