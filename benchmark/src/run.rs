//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ledger.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::adapter::{self, Transport};
use crate::drive::{Corrupt, Damage, Rig, Stop, Trial, TIMEOUT};
use crate::estimator::{cv, mean_over, median, median_us, quantile, quiet_quartile};
use crate::payload::{Fail, Rng, Template};
use crate::procfs::{self, Sched};
use crate::raw::Raw;
use crate::trace::{Kind, Tracer};
use crate::workload::{Shape, Source, Workload, CLASS_NAMES};
use crate::{affinity, alloc, loop_rt, trace};

/// Pair constructions per run for `setup_s`: few enough that the
/// TIME_WAIT sockets they leave do not slow the next run's `connect`.
const SETUPS: u32 = 32;
/// Trials of the untraced run, each on one of those constructions.
const TRIALS: u32 = 30;
/// Above this many TIME_WAIT sockets `connect`/`bind` get measurably
/// slower on this class of machine (0.25 ms at ~400, 2-4 ms at ~15,000).
const TW_WARN: u64 = 2_000;
/// How a trial's share of `--seconds` is spent: the engine, the raw
/// baseline, and what is left (50 ms of a 30 s run's one-second trial)
/// for the fresh pair and its warm-up.
const ENGINE_SHARE: f64 = 0.70;
const RAW_SHARE: f64 = 0.25;
/// Spans kept per tracer for the trace file.
const SPAN_CAP: usize = 20_000;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub corrupt: Corrupt,
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Contract metrics in contract order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra lines for the human-readable output only.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn count(&mut self, t: &Trial) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        if let Some(f) = t.first_fail {
            self.notes.push(format!("failure: {f:?}"));
        }
    }
}

/// Per-trial values of one side (engine or raw) and their estimates:
/// each is the mean over the quiet quartile of trials, ranked by latency.
#[derive(Default)]
struct Series {
    lat_p50: Vec<f64>,
    goodput: Vec<f64>,
    msg_rate: Vec<f64>,
    /// Not a number where the trial's CPU time was not sampled.
    cpu_us_per_msg: Vec<f64>,
}

impl Series {
    fn push(&mut self, t: &Trial, cpu: Option<Sched>) {
        if t.msgs == 0 {
            return;
        }
        self.lat_p50.push(t.lat_p50_us());
        self.goodput.push(t.goodput_mbs());
        self.msg_rate.push(t.msgs as f64 / t.elapsed.as_secs_f64());
        self.cpu_us_per_msg
            .push(cpu.map_or(f64::NAN, |cpu| cpu.run_ns as f64 / 1e3 / t.msgs as f64));
    }

    fn quiet(&self, values: &[f64]) -> f64 {
        mean_over(values, &quiet_quartile(&self.lat_p50))
    }

    fn lat_p50_us(&self) -> f64 {
        self.quiet(&self.lat_p50)
    }

    fn goodput_mbs(&self) -> f64 {
        self.quiet(&self.goodput)
    }
}

struct Bench {
    w: &'static Workload,
    template: Arc<Template>,
    sources: [Source; 2],
    corrupt: Corrupt,
}

impl Bench {
    fn new(o: &Options) -> Self {
        let template = Arc::new(Template::new(o.seed, o.workload.max_size()));
        let sources = [0, 1].map(|d| Source::new(o.workload, template.clone(), o.seed, d));
        Bench {
            w: o.workload,
            template,
            sources,
            corrupt: o.corrupt,
        }
    }

    fn engine_trial(&mut self, pair: &Pair, stop: Stop, tr: &mut Tracer) -> Trial {
        Rig {
            workload: self.w,
            template: &self.template,
            a: &pair.0,
            b: &pair.1,
            sources: &mut self.sources,
            corrupt: self.corrupt,
        }
        .trial(stop, tr)
    }

    fn raw_trial(&mut self, raw: &mut Raw, stop: Stop) -> Result<Trial, String> {
        raw.trial(self.w, &self.template, &mut self.sources, stop)
            .map_err(|e| format!("raw baseline: {e}"))
    }
}

type Pair = (adapter::End, adapter::End);

fn build_pair(t: Transport) -> Result<Pair, String> {
    adapter::pair(t).map_err(|e| format!("building the {} pair: {e}", t.layer()))
}

/// A pair whose threads run on the library's CPU (see `affinity.rs`).
fn new_pair(t: Transport) -> Result<Pair, String> {
    affinity::spawning_library_threads(|| build_pair(t))
}

/// Nothing to first verified delivery: construct the pair (bind, connect
/// each rail, spawn runtime threads, sampling tables, pool), send and
/// verify one 64 B message. Returns the pair and the seconds it took.
fn timed_pair(
    t: Transport,
    template: &Template,
    nth: u64,
    report: &mut Report,
) -> Result<(Pair, f64), String> {
    // Set-up messages number themselves apart from both directions.
    let seq = (0xFF << 56) | nth;
    let expect = template.expect(seq, 64, 1);
    let mut buf = Vec::new();
    template.fill(&mut buf, seq, 64);
    // The application thread's moves to the library's CPU and back are
    // the benchmark's doing and stay outside the timed stretch.
    let (pair, tx, got, dt) = affinity::spawning_library_threads(|| {
        let t0 = Instant::now();
        let pair = build_pair(t)?;
        let rx = pair.1.recv();
        let tx = pair.0.send(vec![buf.into()]);
        let got = rx.wait(TIMEOUT);
        Ok::<_, String>((pair, tx, got, t0.elapsed()))
    })?;
    report.attempted += 1;
    let ok = got.is_some_and(|segs| template.verify_segments(&segs, &expect).is_ok());
    if !(ok && tx.wait(TIMEOUT)) {
        report.failed += 1;
        report
            .notes
            .push(format!("failure: set-up {nth} did not deliver"));
    }
    Ok((pair, dt.as_secs_f64()))
}

fn tw_check(report: &mut Report) -> u64 {
    let tw = procfs::tw_sockets();
    if tw > TW_WARN {
        report.notes.push(format!(
            "warning: {tw} TIME_WAIT sockets on the host (> {TW_WARN}): setup_s will read high; \
             wait a minute for them to expire"
        ));
    }
    tw
}

/// `overhead_vs_raw_x`: the same schedule on the do-nothing baseline
/// divided into the engine, raw/engine goodput on the streaming workloads
/// and engine/raw `lat_p50_us` on the ping-pong. Each side is estimated on
/// its own, then divided.
fn overhead(w: &Workload, engine: &Series, raw: &Series) -> f64 {
    match w.shape {
        Shape::PingPong => engine.lat_p50_us() / raw.lat_p50_us(),
        Shape::Stream | Shape::Bidir => raw.goodput_mbs() / engine.goodput_mbs(),
    }
}

/// The untraced run: the six end-to-end metrics.
pub fn end_to_end(o: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let mut bench = Bench::new(o);
    let w = o.workload;
    let tw = tw_check(&mut report);
    // `--seconds` sets how long a trial is, never how many there are, so
    // the number of pair constructions is the same for any run length.
    let budget = Duration::from_secs(o.seconds.max(1)) / TRIALS;
    let (engine_for, raw_for) = (budget.mul_f64(ENGINE_SHARE), budget.mul_f64(RAW_SHARE));
    let mut raw = Raw::new(w).map_err(|e| format!("raw baseline: {e}"))?;
    let mut off = Tracer::off();
    let mut setups = Vec::new();
    // The constructions no trial uses: the first ones of the process, cold.
    for nth in 0..SETUPS - TRIALS {
        setups.push(timed_pair(w.transport, &bench.template, nth.into(), &mut report)?.1);
    }

    let (mut engine, mut base) = (Series::default(), Series::default());
    let mut order = Rng::new(o.seed ^ 0x7472_6961_6C73);
    let mut peak_rss_mib = 0.0;
    for trial in 0..TRIALS {
        // The baseline runs with no engine thread alive, before the
        // trial's pair exists or after it is gone, as the seed decides. It
        // gets no warm-up of its own: sockets are warm within
        // milliseconds. The first trial puts the engine first, because
        // `peak_rss_mib` is read after its warm-up and must not depend on
        // the seed's coin.
        let raw_first = order.next_u64() & 1 == 0 && trial > 0;
        if raw_first {
            let t = bench.raw_trial(&mut raw, Stop::After(raw_for))?;
            base.push(&t, None);
            report.count(&t);
        }
        // Every trial gets a pair of its own: the baseline then never
        // competes with an engine thread's idle poll, whatever a
        // connection settles into is drawn afresh thirty times a run
        // instead of once, and the construction is a set-up sample.
        let nth = 1_000 + u64::from(trial);
        let (pair, setup) = timed_pair(w.transport, &bench.template, nth, &mut report)?;
        setups.push(setup);
        let warm = bench.engine_trial(&pair, Stop::Messages(w.warmup_msgs), &mut off);
        report.count(&warm);
        if trial == 0 {
            peak_rss_mib = procfs::peak_rss_mib();
        }
        let before = Sched::sample(false);
        let t = bench.engine_trial(&pair, Stop::After(engine_for), &mut off);
        engine.push(&t, Some(Sched::sample(false).since(&before)));
        report.count(&t);
        drop(pair);
        if !raw_first {
            let t = bench.raw_trial(&mut raw, Stop::After(raw_for))?;
            base.push(&t, None);
            report.count(&t);
        }
        if report.failed > 0 {
            break;
        }
    }
    if engine.goodput.is_empty() || base.goodput.is_empty() {
        return Err("no trial delivered a message".into());
    }
    report.metrics = vec![
        ("setup_s", median(&setups)),
        ("lat_p50_us", engine.lat_p50_us()),
        ("goodput_mbs", engine.goodput_mbs()),
        ("overhead_vs_raw_x", overhead(w, &engine, &base)),
        ("cpu_us_per_msg", engine.quiet(&engine.cpu_us_per_msg)),
        ("peak_rss_mib", peak_rss_mib),
    ];
    report.notes.push(format!(
        "{} trials of {} ms engine + {} ms raw; quiet quartile of each; raw goodput {:.1} MB/s, \
         raw lat_p50 {:.2} us; engine trial cv {:.3}; {tw} TIME_WAIT sockets before set-up",
        engine.goodput.len(),
        engine_for.as_millis(),
        raw_for.as_millis(),
        base.goodput_mbs(),
        base.lat_p50_us(),
        cv(&engine.goodput),
    ));
    Ok(report)
}

/// What the traced drive of the real transport measured.
struct Ledger {
    tracer: Tracer,
    traced: Series,
    untraced: Series,
    raw: Series,
    /// Over the untraced engine trials only.
    sched: Sched,
    allocs: (u64, u64),
    msgs: u64,
    bytes: u64,
    lats: [Vec<u32>; 3],
}

/// Drive the schedule over the workload's transport for `rounds` rounds
/// of (untraced trial, traced trial, raw trial). Counters and allocations
/// are taken over the untraced trials, so the tracer's own bookkeeping is
/// not in them.
fn ledger(
    bench: &mut Bench,
    rounds: u64,
    epoch: Instant,
    report: &mut Report,
) -> Result<Ledger, String> {
    const TRIAL: Duration = Duration::from_millis(500);
    const RAW: Duration = Duration::from_millis(150);
    let w = bench.w;
    let t = w.transport;
    let mut raw = Raw::new(w).map_err(|e| format!("raw baseline: {e}"))?;
    let mut off = Tracer::off();
    let mut l = Ledger {
        tracer: Tracer::new(t.layer(), epoch, SPAN_CAP, true),
        traced: Series::default(),
        untraced: Series::default(),
        raw: Series::default(),
        sched: Sched::default(),
        allocs: (0, 0),
        msgs: 0,
        bytes: 0,
        lats: Default::default(),
    };
    for round in 0..rounds {
        // A fresh pair per round and the baseline with no engine thread
        // alive, as in the untraced run.
        let pair = new_pair(t)?;
        let warm = bench.engine_trial(&pair, Stop::Messages(w.warmup_msgs), &mut off);
        report.count(&warm);
        // Which of the two goes first on the pair alternates, so that
        // neither side of `bench.trace_overhead_share` always gets the
        // fresher pair.
        for traced in [round % 2 == 1, round % 2 == 0] {
            if traced {
                let trial = bench.engine_trial(&pair, Stop::After(TRIAL), &mut l.tracer);
                l.traced.push(&trial, None);
                report.count(&trial);
            } else {
                let (s0, a0) = (Sched::sample(true), alloc::snapshot());
                let trial = bench.engine_trial(&pair, Stop::After(TRIAL), &mut off);
                l.sched.add(&Sched::sample(true).since(&s0));
                let a1 = alloc::snapshot();
                l.allocs.0 += a1.0 - a0.0;
                l.allocs.1 += a1.1 - a0.1;
                l.msgs += trial.msgs;
                l.bytes += trial.bytes;
                for (all, lats) in l.lats.iter_mut().zip(&trial.lats) {
                    all.extend_from_slice(lats);
                }
                l.untraced.push(&trial, None);
                report.count(&trial);
            }
        }
        drop(pair);
        let trial = bench.raw_trial(&mut raw, Stop::After(RAW))?;
        l.raw.push(&trial, None);
        report.count(&trial);
        if report.failed > 0 {
            return Err("a message failed verification in the traced run".into());
        }
    }
    Ok(l)
}

/// CRC-32 rate in GB/s over the workload's own payload sizes.
fn crc_rate(w: &Workload, template: &Template) -> f64 {
    let sizes = w.sizes();
    let (t0, mut bytes, mut acc) = (Instant::now(), 0u64, 0u32);
    while t0.elapsed() < Duration::from_millis(200) {
        for &s in &sizes {
            acc ^= adapter::crc32(std::hint::black_box(template.body(s)));
            bytes += s as u64;
        }
    }
    std::hint::black_box(acc);
    bytes as f64 / 1e9 / t0.elapsed().as_secs_f64()
}

/// Mean microseconds of `PacketFrame::decode` over the captured frames.
fn decode_time(frames: &[adapter::Frame]) -> Result<f64, String> {
    if frames.is_empty() {
        return Err("the loop runtime captured no frame".into());
    }
    let (t0, mut n) = (Instant::now(), 0u64);
    while t0.elapsed() < Duration::from_millis(200) {
        for f in frames {
            if !std::hint::black_box(f).decode_ok() {
                return Err("a captured frame failed to decode".into());
            }
            n += 1;
        }
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / n as f64)
}

/// The traced run: the per-layer ledger, measured from outside.
pub fn traced(o: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let epoch = Instant::now();
    let mut bench = Bench::new(o);
    let w = o.workload;
    let secs = o.seconds.max(1) as f64;
    let tw = tw_check(&mut report);

    // (a) The loop runtime over two bare engines.
    let mut core = Tracer::new("core", epoch, SPAN_CAP, true);
    let loop_for = Duration::from_secs_f64(secs * 0.15);
    let counts = loop_rt::run(w, &bench.template, &mut bench.sources, loop_for, &mut core)?;
    if counts.failed > 0 || counts.msgs == 0 {
        return Err(format!(
            "loop runtime: {} failed of {}",
            counts.failed, counts.msgs
        ));
    }
    report.attempted += counts.msgs;
    let per_msg = |us: f64| us / counts.msgs as f64;
    let core_us: Vec<f64> = [
        Kind::Submit,
        Kind::NextTx,
        Kind::OnTxDone,
        Kind::OnFrame,
        Kind::TryRecv,
    ]
    .iter()
    .map(|&k| per_msg(core.total_us(k)))
    .collect();
    let core_sum: f64 = core_us.iter().sum();
    let crc_gbs = crc_rate(w, &bench.template);
    let decode_us = decode_time(&counts.captured)?;
    let rail_max = *counts
        .rail_wire_bytes
        .iter()
        .max()
        .expect("at least one rail");
    // Both sides checksum every payload byte once.
    let crc_us_per_msg = 2.0 * counts.payload_bytes as f64 / counts.msgs as f64 / (crc_gbs * 1e3);

    // (b) Spans around the real transport's calls, plus process counters.
    let rounds = (secs * 0.6 / 1.15).round().max(1.0) as u64;
    let mut main = ledger(&mut bench, rounds, epoch, &mut report)?;

    let mut m: Vec<(&'static str, f64)> = vec![
        ("core.submit_us_per_msg", core_us[0]),
        ("core.next_tx_us_per_msg", core_us[1]),
        ("core.on_tx_done_us_per_msg", core_us[2]),
        ("core.on_frame_us_per_msg", core_us[3]),
        ("core.try_recv_us_per_msg", core_us[4]),
        (
            "core.loop_goodput_mbs",
            counts.payload_bytes as f64 / 1e6 / counts.elapsed.as_secs_f64(),
        ),
        (
            "core.frames_per_msg",
            counts.frames as f64 / counts.msgs as f64,
        ),
        (
            "core.wire_bytes_per_payload_byte",
            counts.wire_bytes as f64 / counts.payload_bytes as f64,
        ),
        (
            "core.rail_share_max",
            rail_max as f64 / counts.wire_bytes as f64,
        ),
        ("wire.crc32_gbs", crc_gbs),
        ("wire.decode_us_per_frame", decode_us),
        (
            "wire.crc_share_of_core",
            crc_us_per_msg / (core_us[1] + core_us[3]),
        ),
    ];
    // What the transport's runtime adds: its latency minus the loop
    // runtime's core time minus its own do-nothing baseline.
    let lat = main.traced.lat_p50_us();
    let raw_lat = main.raw.lat_p50_us();
    let residual = lat - core_sum - raw_lat;
    m.extend([
        (
            "transport.send_call_us_p50",
            main.tracer.median_us(Kind::SendCall),
        ),
        (
            "transport.recv_wait_us_p50",
            main.tracer.median_us(Kind::RecvWait),
        ),
        (
            "transport.send_wait_us_p50",
            main.tracer.median_us(Kind::SendWait),
        ),
        ("transport.residual_us_per_msg", residual),
        ("transport.residual_share", residual / lat),
    ]);
    let msgs = main.msgs.max(1) as f64;
    let all_run = (main.sched.run_ns + main.sched.wait_ns).max(1) as f64;
    let mut all_lats: Vec<u32> = main.lats.iter().flatten().copied().collect();
    all_lats.sort_unstable();
    let overhead = 1.0 - main.traced.goodput_mbs() / main.untraced.goodput_mbs();
    m.extend([
        ("raw.lat_p50_us", raw_lat),
        ("raw.goodput_mbs", main.raw.goodput_mbs()),
        ("alloc.count_per_msg", main.allocs.0 as f64 / msgs),
        (
            "alloc.bytes_per_payload_byte",
            main.allocs.1 as f64 / main.bytes.max(1) as f64,
        ),
        (
            "sched.ctx_switches_per_msg",
            main.sched.ctx_switches as f64 / msgs,
        ),
        (
            "sched.app_cpu_us_per_msg",
            main.sched.app_run_ns as f64 / 1e3 / msgs,
        ),
        (
            "sched.worker_cpu_us_per_msg",
            main.sched.run_ns.saturating_sub(main.sched.app_run_ns) as f64 / 1e3 / msgs,
        ),
        ("sched.runq_wait_share", main.sched.wait_ns as f64 / all_run),
        ("sched.threads", main.sched.threads as f64),
        (
            "bench.lat_p99_us",
            quantile(&all_lats, 0.99).map_or(0.0, |ns| ns as f64 / 1e3),
        ),
        (
            "bench.msg_rate_kps",
            main.untraced.quiet(&main.untraced.msg_rate) / 1e3,
        ),
        ("bench.trial_cv", cv(&main.untraced.goodput)),
        ("bench.trace_overhead_share", overhead),
        ("bench.tw_sockets", tw as f64),
    ]);
    report.metrics = m;

    // The ledger: lat_p50 = core + raw + what the transport's runtime adds.
    let layer = w.transport.layer();
    let mut terms = [
        ("core (loop runtime)", core_sum),
        ("raw baseline", raw_lat),
        (layer, residual),
    ];
    terms.sort_by(|a, b| b.1.total_cmp(&a.1));
    report.notes.push(format!(
        "ledger over {layer}: lat_p50 {lat:.2} us = core {core_sum:.2} + raw {raw_lat:.2} + {layer} runtime \
         residual {residual:.2}; largest share: {} ({:.0} %)",
        terms[0].0,
        100.0 * terms[0].1 / lat
    ));
    for (class, lats) in CLASS_NAMES.iter().zip(main.lats.iter_mut()) {
        if let Some(p50) = median_us(lats) {
            report.notes.push(format!(
                "bench.lat_p50_us.{class} = {p50:.2} us ({} messages)",
                lats.len()
            ));
        }
    }
    report.notes.push(
        "traffic crossed the host's loopback interface or process memory, never a real link".into(),
    );
    write_trace(o, &report, &[core, main.tracer]);
    Ok(report)
}

/// A clean exchange that must verify, then the same exchange with one
/// delivered copy damaged: once a flipped byte, once two intact words that
/// change places. Each damage the verifier rejects counts as one failed
/// message; if it lets any through, the report comes out correct, which
/// is this command's failure.
pub fn selftest() -> Result<Report, String> {
    let mut report = Report::default();
    let mut o = Options {
        workload: crate::workload::find("mem_mixed_bidir").expect("a workload of that name"),
        seed: 1,
        seconds: 1,
        trace: false,
        corrupt: None,
    };
    let messages = 64;
    let mut missed = Vec::new();
    for damage in [None, Some(Damage::FlipByte), Some(Damage::SwapWords)] {
        o.corrupt = damage.map(|d| (messages / 2, d));
        let mut bench = Bench::new(&o);
        let pair = new_pair(o.workload.transport)?;
        let trial = bench.engine_trial(&pair, Stop::Messages(messages), &mut Tracer::off());
        match damage {
            None if trial.failed > 0 || trial.msgs == 0 => {
                return Err(format!("the clean exchange failed: {:?}", trial.first_fail));
            }
            Some(d) if trial.first_fail != Some(Fail::Checksum) => missed.push(d),
            _ => {}
        }
        report.count(&trial);
    }
    if !missed.is_empty() {
        report.failed = 0;
        report
            .notes
            .push(format!("the verifier did NOT notice: {missed:?}"));
    }
    Ok(report)
}

/// Write `benchmark/out/trace-<workload>.json`; a failure to write is
/// reported but does not fail the run.
fn write_trace(o: &Options, report: &Report, tracers: &[Tracer]) {
    let built = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = if built.is_dir() {
        built.join("out")
    } else {
        std::path::PathBuf::from("benchmark/out")
    };
    let path = dir.join(format!("trace-{}.json", o.workload.name));
    let json = trace::to_json(
        o.workload.name,
        o.seed,
        &crate::metrics_json(&report.metrics),
        tracers,
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("trace written to {}", path.display());
    }
}
