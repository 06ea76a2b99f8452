//! `nmad` — command-line interface to the newmadeleine-rs reproduction.
//!
//! ```text
//! nmad platform                         # show the modelled platforms
//! nmad pingpong --strategy adaptive --segments 2 [--size 8M]
//! nmad sample                           # init-time sampling tables + ratios
//! nmad timeline --size 4K               # ASCII Gantt of one transfer
//! nmad tcp-serve [--conns 1]            # real-socket demo, prints addrs
//! nmad tcp-send <addr0> <addr1> [--size 4M]
//! ```

mod args;

use args::Args;
use bytes::Bytes;
use nmad_core::{obs, EngineConfig, StrategyKind};
use nmad_model::platform;
use nmad_runtime_sim::sweep::{bandwidth_sizes, latency_sizes};
use nmad_runtime_sim::{run_pingpong, sample_platform, PingPongSpec, Script, SimWorld, Step};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}

fn usage() -> &'static str {
    "usage: nmad <command> [flags]\n\
     commands:\n\
       platform                         show modelled rails and hosts\n\
       pingpong [--strategy S] [--segments N] [--size BYTES] [--platform FILE]\n\
                                        paper ping-pong (omit --size for the full sweep;\n\
                                        --platform loads a JSON rail description)\n\
       sample                           init-time sampling tables and split ratios\n\
       timeline [--strategy S] [--size BYTES] [--segments N]\n\
                                        ASCII Gantt of one transfer\n\
       tcp-serve [--conns N]            real-socket receiver (prints addresses)\n\
       tcp-send <addr0> <addr1> [--size BYTES]\n\
                                        real-socket sender\n\
       faults [--strategy S] [--size BYTES] [--messages N] [--drop P] [--dup P]\n\
              [--reorder P] [--seed N] [--kill-rail R] [--down-at MS] [--up-at MS]\n\
                                        threaded transfer under fault injection;\n\
                                        prints both ends' metrics and per-rail\n\
                                        health, timers and dwell times (a killed\n\
                                        rail's once it is Up again)\n\
       trace [--strategy S] [--size BYTES] [--format chrome|jsonl|summary]\n\
             [--out FILE] [--capacity N] [--validate FILE]\n\
                                        flight-record a workload (default: the\n\
                                        bandwidth ladder) and export the packet\n\
                                        lifecycle; chrome output loads in\n\
                                        chrome://tracing / Perfetto\n\
       metrics [--strategy S] [--size BYTES] [--messages N]\n\
                                        size/backlog/rto/rtt histograms, every\n\
                                        metric and per-rail health of both\n\
                                        nodes of an acked pipeline run\n\
       spans [--strategy S] [--size BYTES] [--messages N]\n\
                                        per-request critical-path breakdown\n\
                                        (queue -> decide -> xfer -> ack) per\n\
                                        strategy with per-rail injection\n\
                                        occupancy (omit --strategy to compare)\n\
       top [--duration S] [--window MS] [--size BYTES]\n\
                                        live telemetry: drive the mem fabric\n\
                                        and refresh every metric of each\n\
                                        closed window and watchdog alerts in place\n\
       calibrate [--messages N] [--size BYTES]\n\
                                        online recalibration under mid-run\n\
                                        bandwidth drift (rail 0 at half its\n\
                                        bandwidth from 2 ms): live tables,\n\
                                        per-size corrections and the\n\
                                        split-ratio history\n\
       loadgen [--seed N] [--events N] [--replay FILE]\n\
                                        preview the soak traffic mix: per-tenant\n\
                                        heavy-tailed sizes and Poisson/MMPP\n\
                                        arrival schedules (dry run, no engine);\n\
                                        --replay turns a flight-recorder JSONL\n\
                                        trace into a deterministic schedule\n\
       soak [--seed N] [--duration S] [--full] [--check] [--no-chaos]\n\
            [--window MS] [--out-timeseries FILE] [--out-verdict FILE]\n\
                                        chaos soak: multi-tenant load over the\n\
                                        mem fabric under a seeded fault\n\
                                        plan (outage, drop storms, drift);\n\
                                        --check applies the SLO gates including\n\
                                        the watchdog detection contract (once\n\
                                        more if only timing gates trip);\n\
                                        --no-chaos runs clean (watchdog must\n\
                                        then stay silent); --out-* save the\n\
                                        telemetry series and machine verdict\n\
     strategies: single-myri single-quadrics greedy aggregate adaptive iso static"
}

fn parse_strategy(name: &str) -> Result<StrategyKind, String> {
    Ok(match name {
        "single-myri" => StrategyKind::SingleRail(0),
        "single-quadrics" => StrategyKind::SingleRail(1),
        "greedy" => StrategyKind::Greedy,
        "aggregate" => StrategyKind::AggregateEager,
        "adaptive" => StrategyKind::AdaptiveSplit,
        "iso" => StrategyKind::IsoSplit,
        "static" => StrategyKind::StaticRoundRobin,
        other => return Err(format!("unknown strategy '{other}'")),
    })
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    match args.pos(0) {
        Some("platform") => cmd_platform(),
        Some("pingpong") => cmd_pingpong(&args),
        Some("sample") => cmd_sample(),
        Some("timeline") => cmd_timeline(&args),
        Some("tcp-serve") => cmd_tcp_serve(&args),
        Some("tcp-send") => cmd_tcp_send(&args),
        Some("faults") => cmd_faults(&args),
        Some("trace") => cmd_trace(&args),
        Some("metrics") => cmd_metrics(&args),
        Some("spans") => cmd_spans(&args),
        Some("top") => cmd_top(&args),
        Some("calibrate") => cmd_calibrate(&args),
        Some("loadgen") => cmd_loadgen(&args),
        Some("soak") => cmd_soak(&args),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("missing command".into()),
    }
}

fn cmd_platform() -> Result<(), String> {
    let p = platform::paper_platform();
    println!("paper platform (HCW 2007 testbed):");
    println!(
        "  host {}: memcpy {:.1} GB/s, I/O bus {:.0} MB/s, {} core(s)",
        p.host.name,
        p.host.memcpy_bandwidth / 1e9,
        p.host.bus_capacity / 1e6,
        p.host.cores
    );
    for (i, r) in p.rails.iter().enumerate() {
        println!(
            "  rail{i} {:<16} lat {:>5.2} us  link {:>6.0} MB/s  pio<{:>3}KiB rdv>={:>3}KiB",
            r.name,
            r.analytic_pio_oneway(0).as_us_f64(),
            r.link_bandwidth / 1e6,
            r.pio_threshold >> 10,
            r.rdv_threshold >> 10,
        );
    }
    println!("\nother presets: gige-tcp, sci-dolphin, myrinet2000-gm2, infiniband-4xsdr");
    for nic in [
        platform::gige(),
        platform::sci_dolphin(),
        platform::myrinet_2000_gm(),
        platform::infiniband_sdr4x(),
    ] {
        println!(
            "  {:<18} lat {:>6.2} us  link {:>6.0} MB/s",
            nic.name,
            nic.analytic_pio_oneway(0).as_us_f64(),
            nic.link_bandwidth / 1e6
        );
    }
    Ok(())
}

fn load_platform_flag(args: &Args) -> Result<nmad_model::Platform, String> {
    match args.flag("platform") {
        None => Ok(platform::paper_platform()),
        Some(path) => nmad_model::load_platform(std::path::Path::new(path)),
    }
}

fn cmd_pingpong(args: &Args) -> Result<(), String> {
    let kind = parse_strategy(args.flag("strategy").unwrap_or("adaptive"))?;
    let segments: usize = args.num("segments", 1)?;
    let plat = load_platform_flag(args)?;
    let config = EngineConfig::with_strategy(kind);
    let tables = if kind == StrategyKind::AdaptiveSplit {
        eprintln!("sampling rails (init-time, paper 3.4)...");
        Some(sample_platform(&plat))
    } else {
        None
    };
    let run_one = |size: usize| {
        let mut spec =
            PingPongSpec::new(plat.clone(), config.clone(), size).with_segments(segments);
        if let Some(t) = &tables {
            spec = spec.with_tables(t.clone());
        }
        run_pingpong(&spec)
    };
    println!("strategy {} / {} segment(s)", kind.label(), segments);
    println!("{:>10} {:>14} {:>14}", "size", "one-way (us)", "MB/s");
    if args.flag("size").is_some() {
        let size = args.size("size", 0)?;
        let r = run_one(size);
        println!(
            "{:>10} {:>14.2} {:>14.2}",
            size,
            r.one_way.as_us_f64(),
            r.bandwidth_mbs
        );
    } else {
        for &s in latency_sizes().iter().filter(|&&s| s as usize >= segments) {
            let r = run_one(s as usize);
            println!(
                "{:>10} {:>14.2} {:>14.2}",
                s,
                r.one_way.as_us_f64(),
                r.bandwidth_mbs
            );
        }
        for &s in bandwidth_sizes().iter().skip(1) {
            let r = run_one(s as usize);
            println!(
                "{:>10} {:>14.2} {:>14.2}",
                s,
                r.one_way.as_us_f64(),
                r.bandwidth_mbs
            );
        }
    }
    Ok(())
}

fn cmd_sample() -> Result<(), String> {
    let p = platform::paper_platform();
    eprintln!("running init-time sampling (per-rail ping-pong ladders)...");
    let tables = sample_platform(&p);
    println!("{:>10} {:>14} {:>14}", "size", "myri (us)", "quadrics (us)");
    for &s in tables[0].sizes() {
        println!(
            "{:>10} {:>14.2} {:>14.2}",
            s,
            tables[0].time_for(s),
            tables[1].time_for(s)
        );
    }
    println!("\nadaptive split ratios (share of bytes on Myri-10G):");
    for size in [64u64 << 10, 256 << 10, 1 << 20, 8 << 20] {
        let w = nmad_core::sampling::split_weights([&tables[0], &tables[1]], size);
        let frac = w[0] / (w[0] + w[1]);
        println!("  {:>8} KiB: {:>5.1}%", size >> 10, frac * 100.0);
    }
    Ok(())
}

fn cmd_timeline(args: &Args) -> Result<(), String> {
    let kind = parse_strategy(args.flag("strategy").unwrap_or("greedy"))?;
    let size = args.size("size", 4 << 10)?;
    let segments: usize = args.num("segments", 2)?;
    let seg = (size / segments.max(1)).max(1);
    let payloads: Vec<Bytes> = (0..segments)
        .map(|i| Bytes::from(vec![i as u8; seg]))
        .collect();
    let plat = load_platform_flag(args)?;
    let tx = Script::new(vec![Step::Send(payloads)]);
    let config = EngineConfig::with_strategy(kind);
    let mut w = SimWorld::new(&plat, config, tx, Script::receiver(1));
    w.enable_recording(1 << 16);
    w.run(5_000_000);
    let chart = obs::gantt::render(&w.merged_events(), w.events_dropped(), 72);
    println!(
        "{} / {segments} segment(s) x {seg} B:\n{chart}",
        kind.label()
    );
    Ok(())
}

fn cmd_tcp_serve(args: &Args) -> Result<(), String> {
    use nmad_transport_tcp::{listen, TcpConfig};
    let mut cfg = TcpConfig::new(
        platform::paper_platform(),
        EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
    );
    cfg.conns = args.num("conns", 1)?;
    let pending = listen(cfg).map_err(|e| e.to_string())?;
    let addrs: Vec<String> = pending.addrs().iter().map(|a| a.to_string()).collect();
    println!("listening; run on the other side:");
    println!("  nmad tcp-send {} [--size 4M]", addrs.join(" "));
    let ep = pending.accept().map_err(|e| e.to_string())?;
    let start = std::time::Instant::now();
    let conn = ep.conns()[0];
    let msg = ep
        .recv(conn)
        .wait(std::time::Duration::from_secs(600))
        .ok_or("receive timed out")?;
    println!(
        "received {} bytes in {} segment(s); rx errors: {}",
        msg.total_len(),
        msg.segments.len(),
        ep.rx_errors()
    );
    let span_ns = start.elapsed().as_nanos() as u64;
    print!("{}", obs::text_table(&ep.stats(), span_ns));
    Ok(())
}

fn cmd_tcp_send(args: &Args) -> Result<(), String> {
    use nmad_transport_tcp::{connect, TcpConfig};
    let addr_strs = args.rest(1);
    if addr_strs.is_empty() {
        return Err("tcp-send: need the addresses printed by tcp-serve".into());
    }
    let addrs: Vec<std::net::SocketAddr> = addr_strs
        .iter()
        .map(|a| a.parse().map_err(|e| format!("bad address '{a}': {e}")))
        .collect::<Result<_, String>>()?;
    let cfg = TcpConfig::new(
        platform::paper_platform(),
        EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
    );
    let ep = connect(cfg, &addrs).map_err(|e| e.to_string())?;
    let start = std::time::Instant::now();
    let size = args.size("size", 4 << 20)?;
    let payload = vec![0xABu8; size];
    let conn = ep.conns()[0];
    let ok = ep
        .send(conn, vec![Bytes::from(payload)])
        .wait(std::time::Duration::from_secs(600));
    if !ok {
        return Err("send timed out".into());
    }
    println!("sent {size} bytes");
    let span_ns = start.elapsed().as_nanos() as u64;
    print!("{}", obs::text_table(&ep.stats(), span_ns));
    Ok(())
}

fn cmd_faults(args: &Args) -> Result<(), String> {
    print!("{}", faults(args)?);
    Ok(())
}

/// What `nmad faults` prints. With `--kill-rail R` it returns only once
/// rail R is `Up` again, so that the printed path shows the whole
/// outage; an error names the state the rail is stuck in when that has
/// not happened 2 s after `--up-at`.
fn faults(args: &Args) -> Result<String, String> {
    use nmad_core::{Effect, Fault, FaultPlan, RailState};
    use nmad_transport_mem::{pair, FabricConfig};
    use std::fmt::Write;
    use std::time::{Duration, Instant};

    let kind = parse_strategy(args.flag("strategy").unwrap_or("adaptive"))?;
    let size = args.size("size", 1 << 20)?;
    let messages: usize = args.num("messages", 8)?;
    let drop_prob: f64 = args.num("drop", 0.0)?;
    let dup_prob: f64 = args.num("dup", 0.0)?;
    let reorder_prob: f64 = args.num("reorder", 0.0)?;
    let seed: u64 = args.num("seed", 42)?;
    let mut out = String::new();

    let plat = platform::paper_platform();
    let mut engine = EngineConfig::with_strategy(kind);
    engine.acked = true;
    // Recovery timers faster than the wall-clock defaults (a 50 ms
    // initial RTO, sized for real links). The mem fabric delivers
    // instantly, but the receiver still checksums and reassembles every
    // byte, so the first ack of a large message arrives only after real
    // CPU time, and all messages are pipelined, so the last ack waits
    // behind the whole batch; scale the initial guess with the batch
    // size (~50 MB/s floor) so clean runs don't retransmit before the
    // estimator has its first sample.
    let rto0 = 10_000_000
        + (size as u64)
            .saturating_mul(messages as u64)
            .saturating_mul(20);
    engine.health.initial_rto_ns = rto0;
    engine.health.min_rto_ns = 2_000_000;
    engine.health.max_rto_ns = rto0.saturating_mul(20).max(200_000_000);
    engine.health.probe_interval_ns = 20_000_000;
    engine.health.probe_timeout_ns = 10_000_000;
    // The rails' health paths are read from the recorded transitions.
    engine.observe = nmad_core::Observe::Record { capacity: 1 << 16 };

    // Every rail lossy, duplicating and reordering for good, plus the
    // outage asked for.
    let noise = [
        Effect::Loss(drop_prob),
        Effect::Duplicate(dup_prob),
        Effect::Reorder(reorder_prob),
    ];
    let mut plan = FaultPlan::everywhere(seed, plat.rails.len(), &noise);
    let mut killed = None;
    if args.has("kill-rail") {
        let rail: usize = args.num("kill-rail", 0)?;
        if rail >= plat.rails.len() {
            return Err(format!("--kill-rail: no rail {rail}"));
        }
        let down_ms: u64 = args.num("down-at", 5)?;
        let up_ms: u64 = args.num("up-at", 500)?;
        let span = Duration::from_millis(down_ms)..Duration::from_millis(up_ms);
        plan.faults
            .push(Fault::during(rail, span, Effect::Loss(1.0)));
        killed = Some((rail, Duration::from_millis(up_ms)));
        writeln!(
            out,
            "killing rail {rail} ({}) at {down_ms} ms, reviving at {up_ms} ms",
            plat.rails[rail].name
        )
        .unwrap();
    }

    let mut cfg = FabricConfig::new(plat.clone(), engine);
    cfg.faults = Some(plan);

    // (The plan's windows count from the pair's construction.)
    let built = Instant::now();
    let (a, b) = pair(cfg);
    let conn = a.conns()[0];
    writeln!(
        out,
        "sending {messages} x {size} B over {} with drop {:.0}% dup {:.0}% reorder {:.0}%",
        kind.label(),
        drop_prob * 100.0,
        dup_prob * 100.0,
        reorder_prob * 100.0
    )
    .unwrap();
    let start = Instant::now();
    let recvs: Vec<_> = (0..messages).map(|_| b.recv(conn)).collect();
    let sends: Vec<_> = (0..messages)
        .map(|i| a.send(conn, vec![Bytes::from(vec![i as u8; size])]))
        .collect();
    for (i, s) in sends.iter().enumerate() {
        if !s.wait_acked(Duration::from_secs(120)) {
            return Err(format!("message {i} not acked within 120 s"));
        }
    }
    for (i, r) in recvs.iter().enumerate() {
        let msg = r
            .wait(Duration::from_secs(120))
            .ok_or_else(|| format!("message {i} not delivered"))?;
        if msg.total_len() != size {
            return Err(format!(
                "message {i}: {} bytes, want {size}",
                msg.total_len()
            ));
        }
    }
    let elapsed = start.elapsed();
    // Both ends stay up until the killed rail is back: its probes need
    // them.
    if let Some((rail, up_at)) = killed {
        let deadline = built + up_at + Duration::from_secs(2);
        loop {
            let state = a.rail_states()[rail];
            if state == RailState::Up {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "rail {rail} still {} 2 s after --up-at",
                    state.label()
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    writeln!(
        out,
        "\nall {messages} messages acked in {:.2} s",
        elapsed.as_secs_f64()
    )
    .unwrap();
    for (side, ep) in [("sender", &a), ("receiver", &b)] {
        let table = obs::text_table(&ep.stats(), elapsed.as_nanos() as u64);
        write!(out, "\n{side}:\n{table}").unwrap();
    }
    let events = a.events();
    for i in 0..plat.rails.len() {
        let path = nmad_core::health::recorded_path(&events, i);
        if path.len() > 1 {
            writeln!(out, "rail {i} health path: {}", health_path(&path)).unwrap();
        }
    }
    let dropped = a.fabric().engine().lock().recorder().dropped();
    if dropped > 0 {
        writeln!(
            out,
            "(the recorder dropped {dropped} events: the paths above start late)"
        )
        .unwrap();
    }
    // Adaptive-timer telemetry and per-state dwell times (how long each
    // rail spent Up / Suspect / Down / Probing over the run).
    let health: Vec<_> = (0..plat.rails.len()).map(|i| a.rail_telemetry(i)).collect();
    write!(out, "\n{}", obs::metrics::health_table(&health)).unwrap();
    Ok(out)
}

/// A rail's health path as `nmad faults` prints it: `Up -> Suspect -> …`.
/// A pair of states that repeats back to back — `Down -> Probing`, once
/// per failed probe of an outage — is printed once, after its count, so
/// the path is as long for a 2 s outage as for a 200 ms one: `Up ->
/// Suspect -> (14 times) Down -> Probing -> Up`.
fn health_path(path: &[nmad_core::RailState]) -> String {
    let mut steps = Vec::new();
    let mut i = 0;
    while i < path.len() {
        let pair = &path[i..(i + 2).min(path.len())];
        let mut times = 1;
        while pair.len() == 2 && path[i + 2 * times..].starts_with(pair) {
            times += 1;
        }
        if times == 1 {
            steps.push(path[i].label().to_string());
            i += 1;
        } else {
            steps.push(format!(
                "({times} times) {} -> {}",
                pair[0].label(),
                pair[1].label()
            ));
            i += 2 * times;
        }
    }
    steps.join(" -> ")
}

/// Simulated workload shared by `trace` and `metrics`: a pipelined batch
/// of one-segment messages (node 0 -> node 1), flight-recorded.
fn record_workload(
    kind: StrategyKind,
    sizes: Vec<usize>,
    acked: bool,
    capacity: usize,
) -> SimWorld {
    let plat = platform::paper_platform();
    let mut config = EngineConfig::with_strategy(kind);
    config.acked = acked;
    let batch = (sizes.iter().enumerate())
        .map(|(i, &size)| Step::Send(vec![Bytes::from(vec![i as u8; size])]));
    let mut w = SimWorld::new(
        &plat,
        config,
        Script::new(batch.collect()),
        Script::receiver(sizes.len()),
    );
    if matches!(kind, StrategyKind::AdaptiveSplit) {
        w.set_tables(nmad_runtime_sim::sample_platform(&plat));
    }
    w.enable_recording(capacity);
    w.run(20_000_000);
    w
}

fn trace_sizes(args: &Args) -> Result<Vec<usize>, String> {
    Ok(if args.flag("size").is_some() {
        vec![args.size("size", 0)?]
    } else {
        // The bandwidth ladder: every size from 32 KiB to 8 MiB, so the
        // trace shows the rendezvous track, chunking and hetero-splits.
        bandwidth_sizes().iter().map(|&s| s as usize).collect()
    })
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    if let Some(path) = args.flag("validate") {
        return validate_trace_file(std::path::Path::new(path));
    }

    let kind = parse_strategy(args.flag("strategy").unwrap_or("adaptive"))?;
    let sizes = trace_sizes(args)?;
    let capacity: usize = args.num("capacity", 65_536)?;
    let w = record_workload(kind, sizes, false, capacity);
    let events = w.merged_events();
    let dropped = w.events_dropped();

    let format = args.flag("format").unwrap_or("chrome");
    let rendered = match format {
        "chrome" => obs::to_chrome_trace(&events, dropped),
        "jsonl" => obs::to_jsonl(&events, dropped),
        // The sender's engine stats carry the syscall and pool counters
        // the plain event stream cannot show.
        "summary" => obs::summary(&events, Some(w.node(0).engine.stats())),
        other => return Err(format!("unknown format '{other}'")),
    };
    match args.flag("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {} events ({dropped} dropped by the ring) to {path}",
                events.len()
            );
        }
        None => println!("{rendered}"),
    }
    Ok(())
}

/// Check that a file holds structurally valid Chrome `trace_event` JSON:
/// it parses, has a `traceEvents` array, every event carries the required
/// keys for its phase, and duration phases are balanced (`B` matches `E`;
/// our exporter only emits complete `X` spans).
fn validate_trace_file(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("missing traceEvents array")?;
    let (mut begins, mut ends, mut spans, mut instants, mut meta) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for e in events {
        let ph = e
            .get("ph")
            .and_then(|p| p.as_str())
            .ok_or("event without ph")?;
        for key in ["name", "pid", "tid"] {
            if e.get(key).is_none() {
                return Err(format!("'{ph}' event missing {key}"));
            }
        }
        if ph != "M" && e.get("ts").is_none() {
            return Err(format!("'{ph}' event missing ts"));
        }
        match ph {
            "X" => {
                if e.get("dur").is_none() {
                    return Err("X event missing dur".into());
                }
                spans += 1;
            }
            "B" => begins += 1,
            "E" => ends += 1,
            "i" => instants += 1,
            "M" => meta += 1,
            other => return Err(format!("unexpected phase '{other}'")),
        }
    }
    if begins != ends {
        return Err(format!("unbalanced spans: {begins} B vs {ends} E"));
    }
    if spans + instants == 0 {
        return Err("trace holds no spans or instants".into());
    }
    println!(
        "valid Chrome trace: {spans} complete spans, {instants} instants, \
         {meta} metadata, {begins} balanced B/E pairs"
    );
    Ok(())
}

fn cmd_metrics(args: &Args) -> Result<(), String> {
    let kind = parse_strategy(args.flag("strategy").unwrap_or("adaptive"))?;
    let size = args.size("size", 1 << 20)?;
    let messages: usize = args.num("messages", 8)?;
    let w = record_workload(kind, vec![size; messages], true, 4096);
    let now_ns = w.now().0 / 1_000;

    println!(
        "{} / {messages} x {size} B acked pipeline ({:.2} ms simulated)\n",
        kind.label(),
        now_ns as f64 / 1e6
    );
    for (i, node) in [(0, "sender"), (1, "receiver")] {
        let engine = &w.node(i).engine;
        let s = engine.stats();
        println!("node {i} ({node}):");
        println!("  seg size  B  {}", s.obs.seg_size.render());
        println!("  backlog  seg {}", s.obs.backlog_depth.render());
        println!("  rto      ns  {}", s.obs.rto_ns.render());
        for (r, rs) in s.rails.iter().enumerate() {
            println!("  rail{r} rtt ns {}", rs.rtt_ns.render());
        }
        print!("{}", obs::text_table(s, now_ns));
        let health: Vec<_> = (0..s.rails.len())
            .map(|r| engine.rail_telemetry(r))
            .collect();
        print!("{}", obs::metrics::health_table(&health));
    }
    let rec: u64 = (0..2)
        .map(|i| w.node(i).engine.recorder().total_recorded())
        .sum::<u64>()
        + w.recorder.total_recorded();
    println!("\nflight recorder: {rec} events recorded across both nodes + fabric");
    Ok(())
}

/// `nmad spans`: run the acked simulated workload per strategy and print
/// the per-request critical-path decomposition (queue -> decide -> xfer
/// -> ack) with per-rail injection occupancy. The simulated world gives
/// both nodes the same virtual clock, so the cross-actor legs (xfer,
/// ack) are exact rather than skewed by per-process epochs.
fn cmd_spans(args: &Args) -> Result<(), String> {
    let size = args.size("size", 1 << 20)?;
    let messages: usize = args.num("messages", 4)?;
    let kinds = match args.flag("strategy") {
        Some(name) => vec![parse_strategy(name)?],
        None => vec![
            StrategyKind::Greedy,
            StrategyKind::AggregateEager,
            StrategyKind::AdaptiveSplit,
        ],
    };
    println!("{messages} x {size} B acked pipeline, per-request critical paths:\n");
    for kind in kinds {
        let w = record_workload(kind, vec![size; messages], true, 65_536);
        let events = w.merged_events();
        let b = nmad_core::obs::spans::decompose(&events);
        println!("{}", nmad_core::obs::spans::render(kind.label(), &b));
    }
    Ok(())
}

/// `nmad top`: drive the in-process fabric with a closed loop
/// of acked traffic and show each telemetry window as it closes —
/// per-rail rates, busy fraction, ack-latency percentiles and any
/// watchdog alerts. On a terminal the display redraws in place; piped,
/// it appends one block per window.
fn cmd_top(args: &Args) -> Result<(), String> {
    use nmad_transport_mem::{pair, FabricConfig};
    use std::io::IsTerminal;
    use std::time::{Duration, Instant};

    let duration_s: u64 = args.num("duration", 5)?;
    if duration_s == 0 {
        return Err("--duration must be at least 1 second".into());
    }
    let window_ms: u64 = args.num("window", 100)?;
    if window_ms == 0 {
        return Err("--window must be at least 1 ms".into());
    }
    let size = args.size("size", 256 << 10)?;

    let mut engine = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
    engine.acked = true;
    // The soak harness's recovery timers. `HealthConfig`'s defaults are
    // wall-clock sized too (a 50 ms initial RTO), but for real links;
    // the soak's fail over faster.
    nmad_bench::soak::soak_health(&mut engine);
    engine.observe = nmad_core::Observe::Watch {
        window_ns: window_ms.saturating_mul(1_000_000),
    };

    let (a, b) = pair(FabricConfig::new(platform::paper_platform(), engine));
    let conn = a.conns()[0];
    let live = std::io::stdout().is_terminal();
    let header =
        format!("nmad top: {window_ms} ms windows, {size} B acked messages, adaptive split");
    println!("{header}");
    let deadline = Instant::now() + Duration::from_secs(duration_s);
    let mut last_shown: Option<u64> = None;
    let mut alerts_shown = 0usize;
    while Instant::now() < deadline {
        // One closed-loop burst keeps the fabric busy without ever
        // outrunning the receiver.
        let recvs: Vec<_> = (0..8).map(|_| b.recv(conn)).collect();
        let sends: Vec<_> = (0..8)
            .map(|i| a.send(conn, vec![Bytes::from(vec![i as u8; size])]))
            .collect();
        for s in &sends {
            if !s.wait(Duration::from_secs(30)) {
                return Err("send stalled for 30 s".into());
            }
        }
        for r in &recvs {
            if r.wait(Duration::from_secs(30)).is_none() {
                return Err("receive stalled for 30 s".into());
            }
        }
        let Some(w) = a.telemetry_latest() else {
            continue;
        };
        if last_shown == Some(w.ordinal) {
            continue;
        }
        last_shown = Some(w.ordinal);
        if live {
            // Redraw in place: clear the screen, home the cursor.
            println!("\x1b[2J\x1b[H{header}");
        }
        println!(
            "window {} @ {:.3} s, {} alerts",
            w.ordinal,
            w.end_ns as f64 / 1e9,
            w.alerts
        );
        print!("{}", obs::text_table(&w.stats, w.span_ns()));
        let alerts = a.alerts();
        for alert in &alerts[alerts_shown.min(alerts.len())..] {
            println!(
                "  ALERT {} window {} rail {} value {:.1} baseline {:.1}",
                alert.kind.label(),
                alert.window,
                alert.rail.map_or("-".to_string(), |r| r.to_string()),
                alert.value,
                alert.baseline
            );
        }
        if !live {
            // Piped output appends, so only print each alert once; a
            // live redraw starts from a blank screen and wants them all.
            alerts_shown = alerts.len();
        }
    }
    match a.watchdog_verdict() {
        Some(v) => println!("\nwatchdog verdict: {v}"),
        None => println!("\nwatchdog verdict: (watchdog off)"),
    }
    Ok(())
}

fn cmd_calibrate(args: &Args) -> Result<(), String> {
    use nmad_bench::calibration::{run_leg, DRIFT_FACTOR, DRIFT_ONSET_US};

    let messages: usize = args.num("messages", 24)?;
    let size = args.size("size", 1 << 20)?;
    let w = run_leg(messages, size, true);
    let engine = &w.node(0).engine;
    let cal = engine
        .calibrator()
        .ok_or_else(|| "calibration disabled".to_string())?;
    println!(
        "{} x {} B serial chain, rail 0 at {:.0}% bandwidth from {} µs ({:.2} ms simulated)",
        messages,
        size,
        DRIFT_FACTOR * 100.0,
        DRIFT_ONSET_US,
        (w.now().0 / 1_000) as f64 / 1e6
    );
    println!(
        "samples {}  rebuilds {}  (cadence {}, alpha {})\n",
        cal.samples(),
        cal.rebuilds(),
        nmad_core::sampling::REBUILD_EVERY,
        nmad_core::sampling::ALPHA
    );

    println!(
        "split-ratio history ({} B reference, permille):",
        nmad_core::sampling::REFERENCE_SIZE
    );
    for s in cal.history() {
        println!(
            "  rebuild {:>3}  samples {:>5}  {:?}",
            s.rebuild, s.samples, s.permille
        );
    }

    println!("\nlive tables (one-way µs; correction vs seed):");
    let tables = engine.tables();
    for (r, t) in tables.iter().enumerate() {
        println!("  rail {r}:");
        for &s in cal.ladder() {
            println!(
                "    {:>9} B  {:>10.1} µs  x{:.3}",
                s,
                t.time_for(s),
                cal.correction_at(r, s)
            );
        }
    }
    Ok(())
}

fn cmd_loadgen(args: &Args) -> Result<(), String> {
    use nmad_bench::loadgen::{preview, render_preview, ReplayTrace, TrafficSpec};
    if let Some(path) = args.flag("replay") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let trace = ReplayTrace::parse(&text)?;
        println!(
            "replaying {path}: {} submits / {} B over {:.3} s, {} tenant(s), {} non-submit line(s) skipped",
            trace.events.len(),
            trace.total_bytes(),
            trace.duration().as_secs_f64(),
            trace.tenants.len(),
            trace.skipped,
        );
        if trace.truncated_by > 0 {
            println!(
                "note: the recorder ring overflowed; {} events before the trace start are lost",
                trace.truncated_by
            );
        }
        print!("{}", render_preview(&trace.preview()));
        println!("\n(sizes and inter-arrival gaps come verbatim from the trace; replays are deterministic)");
        return Ok(());
    }
    let seed: u64 = args.num("seed", 20)?;
    let events: usize = args.num("events", 2_000)?;
    let spec = TrafficSpec::standard(seed);
    println!("soak traffic mix, seed {seed}, {events} events previewed per tenant:");
    print!("{}", render_preview(&preview(&spec, events)));
    println!("\n(replay any soak by passing its recorded seed: nmad soak --seed {seed})");
    Ok(())
}

fn cmd_soak(args: &Args) -> Result<(), String> {
    use nmad_bench::soak::{check, render, run, run_checked, SoakSpec};
    let seed: u64 = args.num("seed", 20)?;
    let mut spec = if args.has("full") {
        SoakSpec::full(seed)
    } else {
        SoakSpec::smoke(seed)
    };
    if args.flag("duration").is_some() {
        let secs: u64 = args.num("duration", 0)?;
        if secs == 0 {
            return Err("--duration must be at least 1 second".into());
        }
        spec.duration = std::time::Duration::from_secs(secs);
    }
    if args.has("no-chaos") {
        spec.chaos = false;
    }
    if args.flag("window").is_some() {
        let ms: u64 = args.num("window", 0)?;
        if ms == 0 {
            return Err("--window must be at least 1 ms".into());
        }
        spec.telemetry_window = std::time::Duration::from_millis(ms);
    }
    eprintln!(
        "soaking for {:.0} s (seed {seed}; {})...",
        spec.duration.as_secs_f64(),
        if spec.chaos {
            "outages + drop storms + bandwidth drift mid-run"
        } else {
            "clean run, no fault injection"
        }
    );
    let report = if args.has("check") {
        run_checked(&spec)
    } else {
        run(&spec)
    };
    println!("{}", render(&report));
    if let Some(path) = args.flag("out-timeseries") {
        let series = report
            .telemetry_jsonl
            .as_deref()
            .ok_or("--out-timeseries: the soak ran without telemetry windows")?;
        std::fs::write(path, series).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "wrote {} telemetry windows to {path}",
            report.telemetry_windows
        );
    }
    if let Some(path) = args.flag("out-verdict") {
        let verdict = report
            .verdict_json
            .as_deref()
            .ok_or("--out-verdict: the soak ran without a watchdog")?;
        std::fs::write(path, verdict).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote watchdog verdict to {path}");
    }
    if args.has("check") {
        let violations = check(&report);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("soak SLO violated: {v}");
            }
            return Err("soak SLO gate violated".into());
        }
        println!(
            "soak SLO gate OK: p99 {} us, {:+.1}% decay, 0 stuck, 0 leaks (seed {})",
            report.p99_us, report.decay_pct, report.seed
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_roundtrip() {
        for name in [
            "single-myri",
            "single-quadrics",
            "greedy",
            "aggregate",
            "adaptive",
            "iso",
            "static",
        ] {
            assert!(parse_strategy(name).is_ok(), "{name}");
        }
        assert!(parse_strategy("bogus").is_err());
    }

    /// A rail killed at once and revived at 300 ms: the command waits for
    /// it, and its printed path walks the whole outage.
    #[test]
    fn faults_prints_a_killed_rails_recovery() {
        use nmad_core::RailState::{Down, Probing, Up};
        let argv: Vec<String> =
            "faults --size 4K --messages 4 --kill-rail 1 --down-at 0 --up-at 300"
                .split(' ')
                .map(String::from)
                .collect();
        let out = faults(&Args::parse(&argv).unwrap()).unwrap();
        let path = out
            .lines()
            .find_map(|l| l.strip_prefix("rail 1 health path: "))
            .unwrap_or_else(|| panic!("no path for rail 1:\n{out}"));
        assert!(path.ends_with(&health_path(&[Down, Probing, Up])), "{path}");
    }

    /// A 2 s outage is ~100 failed probes: the printed path counts the
    /// `Down -> Probing` cycle instead of printing it each time.
    #[test]
    fn a_long_outage_prints_a_path_of_fixed_length() {
        let argv: Vec<String> =
            "faults --size 4K --messages 4 --kill-rail 1 --down-at 0 --up-at 2000"
                .split(' ')
                .map(String::from)
                .collect();
        let out = faults(&Args::parse(&argv).unwrap()).unwrap();
        let path = out
            .lines()
            .find_map(|l| l.strip_prefix("rail 1 health path: "))
            .unwrap_or_else(|| panic!("no path for rail 1:\n{out}"));
        assert!(path.contains(" times) Down -> Probing -> "), "{path}");
        assert!(path.split(" -> ").count() <= 6, "{path}");
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn platform_command_runs() {
        run(&["platform".to_string()]).unwrap();
    }

    #[test]
    fn single_point_pingpong_runs() {
        run(&[
            "pingpong".to_string(),
            "--strategy".into(),
            "greedy".into(),
            "--size".into(),
            "16K".into(),
        ])
        .unwrap();
    }

    #[test]
    fn timeline_command_runs() {
        run(&[
            "timeline".to_string(),
            "--strategy".into(),
            "greedy".into(),
            "--size".into(),
            "64K".into(),
        ])
        .unwrap();
    }

    #[test]
    fn faults_command_recovers_from_loss() {
        run(&[
            "faults".to_string(),
            "--strategy".into(),
            "greedy".into(),
            "--messages".into(),
            "4".into(),
            "--size".into(),
            "64K".into(),
            "--drop".into(),
            "0.05".into(),
            "--seed".into(),
            "7".into(),
        ])
        .unwrap();
    }

    #[test]
    fn trace_command_writes_a_valid_chrome_trace() {
        let path = std::env::temp_dir().join("nmad_cli_test_trace.json");
        let path_s = path.to_str().unwrap().to_string();
        run(&[
            "trace".to_string(),
            "--size".into(),
            "256K".into(),
            "--out".into(),
            path_s.clone(),
        ])
        .unwrap();
        run(&["trace".to_string(), "--validate".into(), path_s]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"traceEvents\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_summary_shows_split_ratios() {
        // A large transfer over two idle rails must produce hetero-split
        // decision events whose summary carries the chunk ratios.
        // (Printing goes to stdout; here we regenerate the summary from
        // the same deterministic workload.)
        let w = record_workload(StrategyKind::AdaptiveSplit, vec![4 << 20], false, 65_536);
        let events = w.merged_events();
        let s = nmad_core::obs::summary(&events, None);
        assert!(s.contains("decide_split"), "summary:\n{s}");
        assert!(s.contains("% of split"), "summary:\n{s}");
    }

    #[test]
    fn trace_validate_rejects_garbage() {
        let path = std::env::temp_dir().join("nmad_cli_test_garbage.json");
        std::fs::write(&path, "{\"traceEvents\": 7}").unwrap();
        let err = run(&[
            "trace".to_string(),
            "--validate".into(),
            path.to_str().unwrap().into(),
        ]);
        assert!(err.is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_command_runs() {
        run(&[
            "metrics".to_string(),
            "--messages".into(),
            "2".into(),
            "--size".into(),
            "128K".into(),
        ])
        .unwrap();
    }

    #[test]
    fn calibrate_command_runs() {
        run(&["calibrate".to_string(), "--messages".into(), "12".into()]).unwrap();
    }

    #[test]
    fn loadgen_command_previews_the_mix() {
        run(&[
            "loadgen".to_string(),
            "--seed".into(),
            "9".into(),
            "--events".into(),
            "200".into(),
        ])
        .unwrap();
    }

    #[test]
    fn soak_command_runs_a_short_soak() {
        // One second of load end to end: traffic, fault plan, outage,
        // heal and drain all execute. The SLO gates (--check) run in
        // scripts/verify.sh at a statistically meaningful duration, as a
        // release build; a 1 s run's windows are too small to gate on.
        run(&[
            "soak".to_string(),
            "--seed".into(),
            "3".into(),
            "--duration".into(),
            "1".into(),
        ])
        .unwrap();
        assert!(run(&["soak".to_string(), "--duration".into(), "0".into()]).is_err());
    }

    #[test]
    fn spans_command_runs_one_strategy() {
        run(&[
            "spans".to_string(),
            "--strategy".into(),
            "greedy".into(),
            "--size".into(),
            "256K".into(),
            "--messages".into(),
            "2".into(),
        ])
        .unwrap();
    }

    #[test]
    fn top_command_runs_briefly() {
        // One second with small messages and fast windows: several
        // windows close and the final verdict prints. Tests run piped,
        // so this exercises the append path, not the ANSI redraw.
        run(&[
            "top".to_string(),
            "--duration".into(),
            "1".into(),
            "--window".into(),
            "25".into(),
            "--size".into(),
            "64K".into(),
        ])
        .unwrap();
        assert!(run(&["top".to_string(), "--duration".into(), "0".into()]).is_err());
        assert!(run(&["top".to_string(), "--window".into(), "0".into()]).is_err());
    }

    #[test]
    fn loadgen_replays_a_recorded_trace() {
        let path = std::env::temp_dir().join("nmad_cli_test_replay.jsonl");
        let trace = "\
            {\"ts_ns\":1000,\"kind\":\"submit\",\"cat\":\"api\",\"actor\":0,\"rail\":null,\"seq\":1,\"size\":4096,\"aux\":1}\n\
            {\"ts_ns\":2000,\"kind\":\"tx_post\",\"cat\":\"tx\",\"actor\":0,\"rail\":0,\"seq\":1,\"size\":4096,\"aux\":0}\n\
            {\"ts_ns\":5000,\"kind\":\"submit\",\"cat\":\"api\",\"actor\":1,\"rail\":null,\"seq\":2,\"size\":8192,\"aux\":1}\n";
        std::fs::write(&path, trace).unwrap();
        run(&[
            "loadgen".to_string(),
            "--replay".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap();
        // A trace with no submits is a usage error, not a silent no-op.
        std::fs::write(&path, "{\"ts_ns\":1,\"kind\":\"tx_post\",\"actor\":0}\n").unwrap();
        assert!(run(&[
            "loadgen".to_string(),
            "--replay".into(),
            path.to_str().unwrap().into(),
        ])
        .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn soak_clean_run_writes_series_and_verdict() {
        let dir = std::env::temp_dir();
        let series = dir.join("nmad_cli_test_series.jsonl");
        let verdict = dir.join("nmad_cli_test_verdict.json");
        run(&[
            "soak".to_string(),
            "--seed".into(),
            "5".into(),
            "--duration".into(),
            "1".into(),
            "--no-chaos".into(),
            "--window".into(),
            "125".into(),
            "--out-timeseries".into(),
            series.to_str().unwrap().into(),
            "--out-verdict".into(),
            verdict.to_str().unwrap().into(),
        ])
        .unwrap();
        let s = std::fs::read_to_string(&series).unwrap();
        assert!(s.lines().count() > 0, "series:\n{s}");
        assert!(s.lines().all(|l| l.starts_with('{')), "series:\n{s}");
        let v = std::fs::read_to_string(&verdict).unwrap();
        assert!(v.contains("\"clean\":true"), "verdict:\n{v}");
        std::fs::remove_file(&series).ok();
        std::fs::remove_file(&verdict).ok();
    }
}
