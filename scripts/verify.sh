#!/usr/bin/env bash
# Tier-1 verification: what CI runs and what a PR must keep green.
#
#   scripts/verify.sh          # build + tests + lints
#   scripts/verify.sh --quick  # skip the release build
#
# Everything runs offline against the vendored registry (see README).
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

# The run leaves the checkout as it found it (checked at the end): on a
# clean checkout, as in CI, that is `git diff --exit-code` and no
# untracked file outside the ignored paths. `benchmark/Cargo.lock` is
# left out: every benchmark build without `--locked` rewrites it until
# it is regenerated (ROADMAP 2(e)).
tree_state() {
    git status --porcelain --untracked-files=all -- . ':(exclude)benchmark/Cargo.lock'
    git diff -- . ':(exclude)benchmark/Cargo.lock' | cksum
}
tree_before="$(tree_state)"

# One-surface gate: the application surface (Endpoint, its handles, the
# wait loop) lives in crates/core/src/endpoint.rs only, the runtime's
# driver (offer/drive/step/pump, the pollers/skipped hand-off, the
# backstop loop) in crates/core/src/endpoint/serial.rs only — there is
# one runtime and nothing picks it — and TCP frames are carved by
# transport-tcp's FrameReader only. A transport that grows its own copy
# of any of these fails here, and so does any trace of the two runtimes
# deleted in PR 17 and PR 24 (DESIGN.md §14), the zero-filled landing
# window (a window is written before it is frozen, DESIGN.md §4 "TCP: the
# landing table") and read buffer (a read fills its spare capacity, §12
# "Syscalls per frame"), and any `unsafe` in nmad-core or the mem fabric
# (both `forbid` it; the workspace's is wire::checksum, transport-tcp::sys
# and vendor/bytes::window).
echo "==> one endpoint, one driver, one runtime, one frame reader, one strategy, no unsafe in core or mem"
if grep -rnE 'struct (Endpoint|SendHandle|RecvHandle)\b|fn wait_on\b' crates/transport-*/src; then
    echo "a transport crate defines its own endpoint surface (see above)"; exit 1
fi
if grep -rnE 'fn (run_backstop|drive|pump)\b|\bpollers:' crates/transport-*/src; then
    echo "a transport crate has its own serial driver (see above)"; exit 1
fi
if grep -rnE 'struct Worker\b' crates/transport-mem/src; then
    echo "the mem fabric's progress thread is back (see above)"; exit 1
fi
# Which waits hold the rails is one rule in the serial driver (a wait
# for something the peer sent does, one for local completion never:
# WaitFor, DESIGN.md §15), not a question each transport's rails answer.
if grep -rnE 'HOLDS_EVERY_WAIT|wait_holds|in_bulk_frame' crates; then
    echo "a per-transport lease rule is back beside the one rule (see above)"; exit 1
fi
if grep -rnE 'carve_frames|\.parallel =|\.reactor =|reactor_threads|Runtime::Reactor|ReactorPool|ReactorStats|ablate_reactor|NMAD_REACTOR|Runtime::Threads|ParallelHub|spawn_hub|TxWorker|OutboxReceiver|\.runtime =|rail_pipeline|max_submission_depth|Window::zeroed|vec!\[0; READ_CHUNK\]' \
    crates src tests examples .github vendor/bytes; then
    echo "a deleted runtime, runtime switch or carve path is back (see above)"; exit 1
fi
# One pool, owned by the engine and counted where it is used (DESIGN.md
# §12 "One pool"): the shared pool and its per-worker magazines were the
# deleted hub's, the per-frame counter mirror copied what the pool now
# writes itself, the pool watermark never bound on one frame per rail
# (DESIGN.md §11), and the recorder-shard merge had no shards left.
if grep -rnE 'SharedPool|Magazine|BufferPool|pool_magazine|sync_pool_counters|pool_watermark|merge_events' \
    crates src tests examples .github; then
    echo "the shared pool, its magazines, the pool watermark or merge_events is back (see above)"; exit 1
fi
# One strategy: a pipeline of stages with a preset per StrategyKind
# (DESIGN.md §13), not a trait object per kind or a knob per preset.
if grep -rnE 'dyn Strategy\b|impl Strategy for|LatencyRouter|ZooConfig' crates src tests examples; then
    echo "a strategy trait object, the latency router or ZooConfig is back (see above)"; exit 1
fi
# The engine runs in modes, not in products of switches (DESIGN.md §8
# "One mode, not three switches"): what it observes is one `Observe`
# value, and a threshold no caller sets differently is a constant where
# it is used (the watchdog's, the calibrator's, the health tracker's
# timeout counts). The flat receive entry point that copied its input and
# the CLI subcommands that only replayed a bench target are gone too.
if grep -rnE 'WatchdogConfig|TelemetryConfig|CalibrationConfig|OverloadConfig|record_capacity|fn on_packet\b' \
    crates src tests examples \
    || grep -rnE 'cmd_(datapath|cycles|burst|window|figure|tournament)\b' crates/cli; then
    echo "a per-layer switch, a one-field config struct, on_packet or a CLI bench replay is back (see above)"; exit 1
fi
# Telemetry counts nothing twice (DESIGN.md §8 "Continuous telemetry"):
# a window is the difference of two snapshots of the engine's counters,
# not a second tally folded from the recorder's events, and one type
# carries every per-rail number.
if grep -rnE 'RailWindow|RailObs|fn ingest\b|record_refusals|refusals_recorded|events_missed|aggregation_copy_bytes' \
    crates src tests examples; then
    echo "a second tally of the telemetry counters is back (see above)"; exit 1
fi
# Every exported number is named once (DESIGN.md §8 "Exporters"): in
# the metric table of obs/metrics.rs, rendered by its three renderers.
# The second exporter per format for the overflow marker, the
# hand-written cost lines and `nmad top` block, the CLI's copy of the
# calibration chain and the Prometheus name that counted data packets
# beside a JSONL `tx_frames` of data and control must not come back.
if grep -rnE 'to_jsonl_with_overflow|to_chrome_trace_with_overflow|summary_with_stats|cost_lines|render_top_window|ChainSender|nmad_rail_tx_packets_total' \
    crates src tests examples; then
    echo "a hand-written metric view or a second exporter per format is back (see above)"; exit 1
fi
# One fault plan for every fabric (DESIGN.md §4 "Fault model and
# recovery"): nmad-core's `FaultPlan`, a seeded list of per-rail windows
# that the sim, the mem fabric and TCP all take. The live dials, the mem
# fabric's spec and outages, the sim's own plan and drift rider, TCP's
# drop draw and the soak's dial timeline it replaced must not come back.
if grep -rnE 'ChaosState|FaultSpec|RailOutage|BandwidthDrift|drift_only|DialEvent|DialKind|ChaosSchedule|chaos_drops|set_drop_boost|set_bandwidth_mult' \
    crates src tests examples; then
    echo "a second fault description is back beside the one fault plan (see above)"; exit 1
fi
# One simulated application (DESIGN.md §5 "The simulated application"):
# every experiment, the ping-pong included, is a runtime-sim `Script`, a
# list of steps on conn 0, which `SimWorld::new` opens. The application
# trait and its hook dispatch, the hand-written ping and pong, the world's
# type parameters and `open_conn`, the hand-written senders and receivers
# and the sim's unused sampling hook must not come back.
if grep -rnE 'AppLogic|AppHook|PingApp|PongApp|open_conn|SimWorld<' crates src tests examples; then
    echo "a second kind of sim application is back beside Script (see above): write it as a Script"; exit 1
fi
if grep -rnE 'BurstSender|WaveSender|RecordingReceiver|PipeSender|PipeReceiver|MixedApp|OneShotSender|IdleApp|on_sample_pong' \
    crates src tests examples; then
    echo "a hand-written sim application or the sampling hook is back (see above)"; exit 1
fi
# One way to send a message (DESIGN.md §3, the collect layer):
# `send(conn, Vec<Bytes>)`, a message being a list of segments. The
# pack/unpack veneer beside it and the MPI-like crate over it, which no
# bench, figure or gate read, must not come back.
if grep -rnE 'nmad_mpi|nmad-mpi|mini_mpi|MessageBuilder|MessageReader' crates src tests examples \
    || grep -rnE --include=Cargo.toml --exclude-dir=benchmark --exclude-dir=target \
        'nmad_mpi|nmad-mpi|mini_mpi' .; then
    echo "the MPI-like layer or the pack/unpack message builder is back (see above)"; exit 1
fi
if grep -rnw 'unsafe' crates/core/src crates/transport-mem/src; then
    echo "unsafe in nmad-core or nmad-transport-mem (see above)"; exit 1
fi
for lib in crates/core/src/lib.rs crates/transport-mem/src/lib.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]' "$lib" || { echo "$lib does not forbid unsafe code"; exit 1; }
done
# One clock for the serial runtime (DESIGN.md §15 "The clock"): the
# endpoint and its driver read time only through the `Clock` a transport
# hands `Serial`, once per pass, and a transport's rails take that pass's
# `now` instead of keeping an epoch of their own. `Instant` in their
# non-test code (before the first `#[cfg(test)]`, comments aside) is
# refused outside the production clock's one-line impl.
echo "==> one clock for the serial runtime"
for f in crates/core/src/endpoint.rs crates/core/src/endpoint/serial.rs; do
    if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// || /^impl Clock for std::time::Instant \{$/ { next }
            /(^|[^A-Za-z0-9_])Instant([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0; hit = 1 }
            END { exit !hit }' "$f"; then
        echo "the serial runtime reads Instant beside the clock it is handed (see above)"; exit 1
    fi
done
if grep -rnE '\bstart: Instant\b' crates/transport-*/src; then
    echo "a transport's rails keep an epoch of their own (see above): take the pass's now"; exit 1
fi
# The backstop's turn is a function (DESIGN.md §15 "The backstop's
# turn"): `serial.rs`'s tests build the endpoint with no thread, take the
# backstop's turns themselves and step the clock, so its test module
# (from its `#[cfg(test)]` on, comments aside) starts no thread, sleeps
# on none and reads no wall time.
if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        !test || /^[[:space:]]*\/\// { next }
        /thread::(spawn|sleep|scope)|(^|[^A-Za-z0-9_])Instant([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/core/src/endpoint/serial.rs; then
    echo "serial.rs's tests start a thread or read wall time (see above): take the backstop's turns on the stepped clock"; exit 1
fi
# The optimisation window on live rails is one rule in the serial driver
# (a rail that took a small eager frame counts as busy for CALLER_LEASE,
# and a submitter holding no lease leaves what can wait in the backlog:
# DESIGN.md §15 "The window"), not a setting: no cork, hold time or
# window length among the engine's or a transport's configuration.
echo "==> the window is a rule, not a knob; the flight recorder is the only history"
if grep -nE 'pub [a-z_]*(cork|flush_hold|hold_us|window_ns)[a-z_]*:' \
    crates/*/src/config.rs crates/transport-*/src/lib.rs; then
    echo "the optimisation window grew a configuration field (see above)"; exit 1
fi
if grep -rnE '\bTracer\b' crates/sim; then
    echo "nmad-sim's unused Tracer is back (see above): the flight recorder is the trace"; exit 1
fi
# What the simulator and the health tracker did is read from the
# recorder's events (DESIGN.md §8 "Each number has one source"): the
# sim's string-labelled Timeline beside them and the per-rail state log
# that grew with every transition must not come back, nor nmad-sim's
# BusyResource, which no simulated CPU used.
if grep -rnE 'struct Timeline|enable_timeline|history_ns|history_stamped|rail_history|BusyResource' \
    crates src tests examples; then
    echo "a second history beside the flight recorder, or BusyResource, is back (see above): draw it from the events"; exit 1
fi
# Per-message engine state lives in id-indexed windows (nmad-wire's
# IdWindow; DESIGN.md §12 "Engine state tables"): message ids, send and
# receive handles, tx tokens and probe numbers are dense counters, so a
# hash table keyed by one of them — which only ever grows — has no
# business in the engine or the reassembler.
echo "==> no hash table in the engine's per-message state"
if grep -nE 'Hash(Map|Set)\b' crates/core/src/engine/mod.rs crates/wire/src/reassembly.rs; then
    echo "per-message state keyed through a hash table (see above): use an IdWindow"; exit 1
fi
# A rail carries one frame at a time, so what it carries is one slot per
# rail, and a decision reads the rails where they are kept, through one
# RailView (DESIGN.md §12 "Engine state tables", §13 "Decision inputs").
# The token-keyed in-flight window, the busy flags that mirrored it, the
# per-decision health and load lists and the context's snapshot slices
# must not come back.
echo "==> one in-flight slot per rail; a decision copies no rail state"
if grep -rnE 'in_flight: IdWindow|rail_busy: Vec<bool>|impl RailView for StrategyCtx' crates/core/src \
    || grep -nE '\b(rail_ok|flight): Vec<' crates/core/src/engine/mod.rs \
    || grep -nE 'pub (rail_busy|rail_ok|flight): &' crates/core/src/strategy/mod.rs; then
    echo "a second copy of what the rails carry is back (see above): read the slot through RailView"; exit 1
fi

# Reassembly is by reference (DESIGN.md "Receive: reassembly by
# reference"): a chunk is kept as the slice of its frame that it is and
# gathered at most once, when its segment is whole. The copy-per-arrival
# path and a buffer sized from a `total_len` off the wire must not come
# back beside it.
echo "==> no copy per arrival, nothing sized from a wire total_len in reassembly"
if grep -nE 'with_capacity\(total_len|fn store\b' crates/wire/src/reassembly.rs; then
    echo "reassembly copies per arrival or sizes a buffer from the wire again (see above)"; exit 1
fi
# One slot per message (DESIGN.md §12 "Engine state tables"): what
# arrived of a message lives in the reassembler's window beside the
# receive matched to it, and the engine keeps the lists a frame fills
# between frames. The reassembler's separate window, the engine's second
# per-message table and the per-frame entry and completion lists must
# not come back.
echo "==> one receive slot per message; no per-frame entry or completion list"
if grep -rnE 'PartialMessage|RecvSlot|CompletedSends|enum SegState|partial: IdWindow|reassembler: Reassembler' crates \
    || grep -nE '\.decode\(\)|FrameBody' crates/core/src/engine/mod.rs; then
    echo "a second per-message table or a per-frame list is back (see above)"; exit 1
fi

# A TCP chunk is read where its segment will be delivered from
# (DESIGN.md "Receive: reassembly by reference", the landing table). The
# chunk head's layout is nmad-wire's (`ChunkHead::peek`, `::LEN`): the
# transport hard-codes no offset into it and names no envelope constant.
# And the windows the payload is written through are the vendored
# `bytes`' one module with `unsafe` in it (vendor/bytes/src/window.rs,
# SAFETY argument in its docs): none anywhere else in that crate.
echo "==> chunk head layout is nmad-wire's; unsafe in vendor/bytes is window.rs only, in transport-tcp sys.rs only"
if grep -nE 'ENVELOPE_LEN|\b(24|58)\b|PacketKind' crates/transport-tcp/src/*.rs; then
    echo "transport-tcp knows the chunk head's layout (see above): ask nmad_wire::ChunkHead"; exit 1
fi
if grep -rnw 'unsafe' vendor/bytes/src | grep -v '^vendor/bytes/src/window\.rs:'; then
    echo "unsafe in vendor/bytes outside window.rs (see above)"; exit 1
fi
# A landing window is written only through its cursor (`put_slice`, or
# `read_into`'s raw `read(2)` into its unwritten bytes): the syscall and
# the cursor move it makes are transport-tcp's only `unsafe` besides
# epoll and eventfd, all in sys.rs. The reader's tests, with their
# allocator, are a test binary of their own (tests/frame_reader.rs).
if grep -rnw 'unsafe' crates/transport-tcp/src | grep -v '^crates/transport-tcp/src/sys\.rs:'; then
    echo "unsafe in transport-tcp outside sys.rs (see above)"; exit 1
fi

# A committed BENCH file is one this script diffs (ROADMAP 10(d)):
# `BENCH_calibration.json` and `BENCH_strategies.json`, deterministic
# simulations (`DIFFED` in crates/bench/src/report.rs names the same
# two; edit both lists together). A timed report is a CI artifact under `target/bench/`
# (`report::write_report`), never a baseline at the root. The kernel
# gate and its process-global kernel override are gone (the dispatched
# kernel is asserted exactly in nmad-wire's tests, its speed is
# `benchmark/`'s `wire.crc32_gbs`), and the soak gate has one front-end,
# `nmad soak --check`.
echo "==> only diffed BENCH files at the root; one soak gate; no kernel override"
if grep -rnE 'set_kernel|forced_kernel_round_trip|ablate_cycles|ablate_soak' crates \
    || ls crates/bench/src/cycles.rs 2>/dev/null; then
    echo "a deleted timed gate or the kernel override is back (see above)"; exit 1
fi
if compgen -G 'BENCH_cycles*' || compgen -G 'BENCH_soak*' || compgen -G 'BENCH_obs*'; then
    echo "a timed report sits at the repo root (see above): it belongs under target/bench/"; exit 1
fi

# Each datapath property has one gate, and it runs in `cargo test`
# (DESIGN.md §12): copies by the engine's datapath_* tests and the
# simulator's split transfer, the pool by alloc_budget and the engine's
# pool tests, syscalls per message by the conformance burst. The bench
# report that copied them (ablate_zero_copy and its legacy copy model)
# and ablate_cycles' syscall and pool legs must not come back.
echo "==> one gate per datapath property"
if grep -rnE 'ablate_zero_copy|NMAD_DATAPATH_SMOKE|DataPathReport|legacy_copied_bytes|measure_fabric_syscalls|measure_pool|POOL_REUSE_RATE_GATE' \
    crates src tests examples .github; then
    echo "a second gate of a datapath property is back beside its tier-1 test (see above)"; exit 1
fi

# One bench binary (DESIGN.md §12 "The build"): every experiment runs by
# name through `--bench paper`, and `--smoke`/`--seed` are its arguments.
# Each further `[[bench]]` target is one more whole-program link of its
# own, and the per-gate environment variables were seven settings for
# what two arguments say.
echo "==> one bench binary, and its arguments instead of environment variables"
if [[ "$(grep -c '^\[\[bench\]\]' crates/bench/Cargo.toml)" != 1 ]]; then
    grep -n '^\[\[bench\]\]' crates/bench/Cargo.toml
    echo "a second [[bench]] target is back in crates/bench/Cargo.toml (see above): add an experiment to nmad_bench::paper"; exit 1
fi
if grep -rnE 'NMAD_(OBS|CYCLES|CALIBRATION|SOAK|STRATEGIES)_SMOKE|NMAD_(SOAK|STRATEGIES)_SEED' \
    crates src tests examples .github; then
    echo "a per-gate smoke or seed environment variable is back (see above): pass --smoke or --seed"; exit 1
fi

# Every wire header is one fixed layout (nmad-wire's `layout!`: the
# envelope, the aggregate entry head, the eager, chunk, rendezvous, ack
# and probe heads; DESIGN.md §4 has the table): written as one array with
# one `put_slice`, read from one array. A header spelled out field by
# field in the frame or aggregate encoders is the per-field cost back
# (41 libc `memcpy` calls of 2-8 bytes per 1 KiB burst message before
# PR 23).
echo "==> wire headers are written as arrays, not field by field"
if grep -nE 'put_u16_le|put_u32_le|put_u64_le' crates/wire/src/frame.rs crates/wire/src/agg.rs; then
    echo "a wire header is encoded field by field again (see above): give it a layout"; exit 1
fi

# One build profile, and it reaches every release binary (DESIGN.md §12
# "The build"): the root `.cargo/config.toml` holds it, because cargo
# reads that file from where it is run, for `benchmark/`'s workspace too,
# while a `[profile.*]` table in a manifest reaches its own workspace
# only. So no manifest of the root workspace has one, and the config
# keeps the keys that make each binary one optimisation unit.
echo "==> one build profile, in .cargo/config.toml: fat LTO, one codegen unit"
if grep -nE '^\[profile\.' Cargo.toml crates/*/Cargo.toml; then
    echo "a [profile.*] table in a manifest (see above): the one profile lives in .cargo/config.toml"; exit 1
fi
for key in 'lto = "fat"' 'codegen-units = 1'; do
    grep -qxF "$key" .cargo/config.toml \
        || { echo ".cargo/config.toml lacks '$key': release binaries are no longer one optimisation unit"; exit 1; }
done

# Non-test code lines per transport source file (before `#[cfg(test)]`,
# neither blank nor `//`): printed so that the next PR's log shows the
# trend.
total=0
for f in crates/transport-*/src/*.rs; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/{exit} !/^[[:space:]]*$/ && !/^[[:space:]]*\/\//{c++} END{print c+0}' "$f")
    printf '    %5d %s\n' "$n" "$f"
    total=$((total + n))
done
printf '    %5d non-test code lines under crates/transport-*/src\n' "$total"
# The simulator's, by the same rule.
total=0
for f in crates/runtime-sim/src/*.rs; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/{exit} !/^[[:space:]]*$/ && !/^[[:space:]]*\/\//{c++} END{print c+0}' "$f")
    total=$((total + n))
done
printf '    %5d non-test code lines under crates/runtime-sim/src\n' "$total"
# And the bench harness's size (all lines), for the same trend.
printf '    %5d lines under crates/bench/src\n' "$(cat crates/bench/src/*.rs | wc -l)"

# Non-test `unwrap()`/`expect(` sites per crate (ROADMAP 12(c)): each is
# a panic the program can reach, on its way to a typed error or one
# stated invariant, so a crate's count may only go down — lower its
# ceiling with the PR that removes a site. Counted before each file's
# first `#[cfg(test)]` or `#[cfg(all(test, ...` (written across lines
# too); a test module in a file of its own, `tests.rs`, is not counted.
echo "==> non-test unwrap()/expect( sites stay under their ceilings"
declare -A unwrap_ceiling=([core]=9 [wire]=6 [transport-mem]=1 [transport-tcp]=0 [runtime-sim]=7 [model]=0 [sim]=10)
for crate in core wire transport-mem transport-tcp runtime-sim model sim; do
    n=0
    while IFS= read -r f; do
        k=$(awk '/^[[:space:]]*#\[cfg\((test\)|all\(test)/ \
                 || (prev ~ /^[[:space:]]*#\[cfg\(all\($/ && /^[[:space:]]*test,/) { exit }
                 { c += gsub(/unwrap\(\)|expect\(/, "&"); prev = $0 }
                 END { print c + 0 }' "$f")
        n=$((n + k))
    done < <(find "crates/$crate/src" -name '*.rs' ! -name tests.rs | sort)
    printf '    %3d (ceiling %d) crates/%s/src\n' "$n" "${unwrap_ceiling[$crate]}" "$crate"
    if ((n > unwrap_ceiling[$crate])); then
        echo "crates/$crate/src has $n non-test unwrap()/expect( sites, above its ceiling of ${unwrap_ceiling[$crate]}: return a typed error or state the invariant"
        exit 1
    fi
done

if [[ $quick -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> cargo test -q (tier-1)"
cargo test -q

# (Includes crates/core/tests/alloc_budget.rs: heap allocations per engine
# call in steady state, counted by a global allocator in the test's own
# process — an idle query, a tx completion and every decision 0 but the
# one that plans a split (1, its plan), a message's arrival 1 (its
# segment list), ...: each budget is the count itself; `-- --nocapture`
# on that test prints the counts.)
echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The optimisation window, by name: a burst (window of 32 messages of
# 4 x 256 B, sender never waits for an arrival) on both transports
# must leave as aggregates (<= 0.25 data frames and, on TCP,
# `write_vectored` calls per message by the transport's own counts;
# 1.0 before PR 21) and an echo as exactly one frame per message.
# Printed so that every later log shows the trend (a debug build reads
# 0.08-0.10; a release one 0.0625-0.07).
echo "==> live optimisation window (conformance burst_aggregates_and_echo_does_not)"
cargo test -q --test conformance burst_aggregates_and_echo_does_not -- --nocapture \
    | grep 'frames_per_msg' | sed 's/^/    /'

# No byte nobody wrote reaches the engine: the frame reader's test binary
# fills every fresh allocation with a sentinel and drives two rails'
# chunk streams through one landing table in every way a window can be
# left unwritten (DESIGN.md §4 "TCP: the landing table"). By name, so
# that the log shows it ran.
echo "==> landing windows are written before they are frozen (frame_reader the_sentinel_never_surfaces)"
cargo test -q -p nmad-transport-tcp --test frame_reader the_sentinel_never_surfaces

# vendor/ is outside the workspace, and `Bytes::try_unsplit` and `Window`
# are what upstream `bytes` does not have in this form (vendor/README.md):
# their tests run here.
echo "==> cargo test -q -p bytes (vendored: try_unsplit, Window)"
cargo test -q -p bytes
# Same for the channel stand-in's one rule of its own: a send notifies
# the condvar only when a receiver is parked on it.
echo "==> cargo test -q -p crossbeam-channel (vendored: parked receivers are woken, others cost no futex)"
cargo test -q -p crossbeam-channel

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Public docs that link a private item, or a link that resolves to
# nothing, fail the build of the docs (~6 s).
echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Recorder-overhead gate: the ablate_obs smoke sweep exits nonzero if
# recording costs > 5% aggregate wall-clock or takes any hot-path
# allocation (see DESIGN.md §8). Its report and time series are timed,
# so they land under target/bench/ as CI artifacts, not at the root.
echo "==> flight-recorder overhead (ablate_obs smoke sweep)"
cargo bench -q -p nmad-bench --bench paper -- ablate_obs --smoke

# Calibration gate: the ablate_calibration smoke sweep replays the
# mid-run bandwidth-degradation scenario and exits nonzero if online
# calibration ever loses to frozen tables or convergence blows the
# rebuild budget (see DESIGN.md §9). The scenario is a deterministic
# simulation, so the BENCH_calibration.json it writes must be the one
# committed: a changed decision shows up here, not as a silently
# rewritten snapshot.
echo "==> online recalibration under drift (ablate_calibration smoke sweep)"
cargo bench -q -p nmad-bench --bench paper -- ablate_calibration --smoke
git diff --exit-code -- BENCH_calibration.json \
    || { echo "the calibration scenario moved (see above): a decision changed"; exit 1; }

# Chaos-soak gate: ~10 s of multi-tenant load over the mem fabric
# under a seeded fault plan (an outage, drop storms and bandwidth
# drift); exits nonzero on the SLO gates (p99/p999 ceilings, head->tail
# throughput decay, pool-ledger leaks, stuck requests after the heal,
# the watchdog's detection contract — see DESIGN.md §11), soaking once
# more when only timing gates trip. A release build: a debug soak's
# slower passes raise false retransmit storms. The full minutes-long soak
# is the same command with --full, in the scheduled CI job; the seed it
# prints replays either.
echo "==> chaos soak SLOs (nmad soak --check, ~30 s)"
cargo run --release -q -p nmad-cli -- soak --check

# Strategy-tournament gate: every StrategyKind across the six load
# regimes (uniform, heavy tail, MMPP bursts, drift, outage, small
# flood); exits nonzero if any cell drops a message or a zoo claim
# fails — SRPT holds the heavy tail, idle harvesting recovers measurable
# bandwidth on the asymmetric flood, adaptive-split (smalls aggregated
# onto the low-latency rail) at least halves greedy's small-message p99
# (see DESIGN.md "Strategy zoo"). Writes BENCH_strategies.json; the full
# grid is the same experiment without --smoke.
# The sim grid is deterministic, so the file it writes must be the one
# committed: a changed decision shows up here, not as a silently
# rewritten snapshot.
echo "==> strategy tournament (ablate_strategies smoke grid)"
cargo bench -q -p nmad-bench --bench paper -- ablate_strategies --smoke >/dev/null
git diff --exit-code -- BENCH_strategies.json \
    || { echo "the tournament grid moved (see above): a decision changed"; exit 1; }

# Calibrate round-trip: the CLI must run the drift scenario and report a
# converged split history (the degraded rail's share leaves the seed band).
echo "==> nmad calibrate round-trip"
cal_out="$(cargo run -q -p nmad-cli -- calibrate --messages 12)"
echo "$cal_out" | grep -q "split-ratio history" \
    || { echo "nmad calibrate printed no history"; exit 1; }
echo "$cal_out" | grep -q "live tables" \
    || { echo "nmad calibrate printed no tables"; exit 1; }

# Trace round-trip: `nmad trace` must emit a Chrome trace that its own
# validator accepts (parses, phase fields present, B/E balanced).
echo "==> nmad trace emit + validate"
trace_tmp="$(mktemp /tmp/nmad_trace.XXXXXX.json)"
wd_tmp="$(mktemp /tmp/nmad_verdict.XXXXXX.json)"
trap 'rm -f "$trace_tmp" "$wd_tmp"' EXIT
cargo run -q -p nmad-cli -- trace --size 1048576 --out "$trace_tmp"
cargo run -q -p nmad-cli -- trace --validate "$trace_tmp"

# Watchdog smoke: the detection contract from DESIGN.md §8. A seeded
# chaos soak (drop storm on rail 1 mid-run) must report a
# retransmit-storm alert in its machine verdict, and the same pipeline
# run clean must stay silent (the false-positive contract).
echo "==> watchdog smoke (chaos fires retransmit-storm, clean run stays silent)"
cargo run -q -p nmad-cli -- soak --seed 11 --duration 3 --window 125 \
    --out-verdict "$wd_tmp" >/dev/null
grep -q '"kind":"retransmit_storm"' "$wd_tmp" \
    || { echo "chaos soak verdict has no retransmit-storm alert:"; cat "$wd_tmp"; exit 1; }
cargo run -q -p nmad-cli -- soak --seed 11 --duration 2 --no-chaos --window 125 \
    --out-verdict "$wd_tmp" >/dev/null
grep -q '"clean":true' "$wd_tmp" \
    || { echo "clean soak verdict is not clean:"; cat "$wd_tmp"; exit 1; }

# End-to-end benchmark smoke: `benchmark/` is a package of its own, so
# nothing above compiles benchmark/src/adapter.rs against the facade —
# without this an API change there is first seen by the pipeline. The
# verifier must reject damaged deliveries (selftest exits non-zero) and
# a short ping-pong over the default TCP runtime must verify every
# message, and so must a short run of the mixed sizes over the mem
# fabric's (the two transports share the driver, not the rails).
# The mem run is traced for its allocator ledger: on that fabric every
# rendezvous chunk is a slice of the sender's segment, so a delivery
# allocates no payload — bytes allocated per payload byte read 0.01, an
# allocator count that repeats to three digits, against 0.92 when
# reassembly copied every chunk into a buffer of its own. The TCP run is
# traced for its scheduler ledger: both ends hold their sockets under a
# lease and both backstops sleep on their eventfds (DESIGN.md §15), so
# voluntary context switches per message read 0.011 — and 1.000, one
# per message exactly, when every `write` wakes the peer's backstop out
# of `epoll_wait` to be declined: a count 90x apart on any host. The
# large stream over TCP is traced for the allocator ledger too: its
# chunks are read into one allocation per segment (the landing table), so
# bytes allocated per payload byte read 1.04 — and 2.02 when every chunk
# lands in its frame's allocation and the segment is gathered into a
# second one. Its per-thread CPU is printed as trend lines, not gated:
# the application thread's share fell when the landing allocation
# stopped being zero-filled before it is read into (DESIGN.md §4).
# The burst is traced for the eager track's per-message ledger: the
# engine's `next_tx` and `on_frame` time per message, the decode time of
# a 64-entry aggregate and the allocations per message. Times depend on
# the host, so they are printed as trend lines for the next PR's log
# (0.28 / 0.23 / 2.4 us on a 2-vCPU host since one receive slot holds
# each message and the per-frame lists are kept, PR 28; 0.35 / 0.37 /
# 2.5 us before it; 0.55 / 0.70 / 5-7 us before PR 23), not gated.
# Allocation counts repeat to three digits on any host, so they are
# gates: the burst's `alloc.count_per_msg` reads 3.04 since its
# aggregate frames are read into frame buffers the TCP reader takes back
# (3.15 before, when each cost a `Vec` and an `Arc`; 3.30 before a
# frame's head and slab went back to the pool with their `Arc`s; 4.9
# when a list per frame or a second list per delivered message was
# back), gated at 3.09; the ping-pong's reads 2.001 since small frames
# are carved into the TCP reader's slab as well (5.001 before), gated at
# 3.0. The benchmark's text size is printed after its build: about 1.05
# MB when the root .cargo/config.toml's profile reached it, 1.38 MB
# without fat LTO.
echo "==> nmad-benchmark (offline build, selftest, 3 s each traced: tcp_pingpong_small, mem_mixed_bidir, tcp_stream_large, tcp_burst_multiseg)"
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
# The value of per-layer metric $2 in the benchmark's result line $1.
ledger() { echo "$1" | sed -n 's/.*"'"${2//./\\.}"'": {"value": \([0-9.eE+-]*\).*/\1/p'; }
selftest_out="$("${bench[@]}" selftest 2>/dev/null)" \
    && { echo "nmad-benchmark selftest exited 0: the verifier let damage through"; exit 1; }
echo "$selftest_out" | tail -n 1 | grep -q '"correct": false' \
    || { echo "nmad-benchmark selftest failed without reporting damage (build error?)"; exit 1; }
echo "    nmad-benchmark text bytes: $(size benchmark/target/release/nmad-benchmark | awk 'NR == 2 { print $1 }')"
tcp_out="$("${bench[@]}" --workload tcp_pingpong_small --seconds 3 --trace 1 | tail -n 1)"
echo "$tcp_out" | grep -q '"correct": true' \
    || { echo "nmad-benchmark tcp_pingpong_small smoke did not verify"; exit 1; }
ctx_switches="$(ledger "$tcp_out" sched.ctx_switches_per_msg)"
echo "    sched.ctx_switches_per_msg on tcp_pingpong_small: ${ctx_switches:-missing}"
awk -v r="${ctx_switches:-1}" 'BEGIN { exit !(r <= 0.1) }' \
    || { echo "tcp_pingpong_small switches context ${ctx_switches:-?} times per message (budget 0.1): arrivals wake a leased-out backstop again"; exit 1; }
pp_allocs="$(ledger "$tcp_out" alloc.count_per_msg)"
echo "    alloc.count_per_msg on tcp_pingpong_small: ${pp_allocs:-missing}"
awk -v r="${pp_allocs:-9}" 'BEGIN { exit !(r <= 3.0) }' \
    || { echo "tcp_pingpong_small allocates ${pp_allocs:-?} times per message (budget 3.0): a frame costs an allocation again (a head's Arc, or a small frame outside the reader's slab)"; exit 1; }
mem_out="$("${bench[@]}" --workload mem_mixed_bidir --seconds 3 --trace 1 | tail -n 1)"
echo "$mem_out" | grep -q '"correct": true' \
    || { echo "nmad-benchmark mem_mixed_bidir smoke did not verify"; exit 1; }
alloc_ratio="$(ledger "$mem_out" alloc.bytes_per_payload_byte)"
echo "    alloc.bytes_per_payload_byte on mem_mixed_bidir: ${alloc_ratio:-missing}"
awk -v r="${alloc_ratio:-1}" 'BEGIN { exit !(r <= 0.1) }' \
    || { echo "mem_mixed_bidir allocates ${alloc_ratio:-?} bytes per payload byte (budget 0.1): a rendezvous byte is copied on receive again"; exit 1; }
stream_out="$("${bench[@]}" --workload tcp_stream_large --seconds 3 --trace 1 | tail -n 1)"
echo "$stream_out" | grep -q '"correct": true' \
    || { echo "nmad-benchmark tcp_stream_large smoke did not verify"; exit 1; }
alloc_ratio="$(ledger "$stream_out" alloc.bytes_per_payload_byte)"
echo "    alloc.bytes_per_payload_byte on tcp_stream_large: ${alloc_ratio:-missing}"
awk -v r="${alloc_ratio:-2}" 'BEGIN { exit !(r <= 1.2) }' \
    || { echo "tcp_stream_large allocates ${alloc_ratio:-?} bytes per payload byte (budget 1.2): chunks miss the landing table and segments are gathered again"; exit 1; }
for metric in sched.app_cpu_us_per_msg sched.worker_cpu_us_per_msg; do
    value="$(ledger "$stream_out" "$metric")"
    echo "    $metric on tcp_stream_large: ${value:-missing}"
done

burst_out="$("${bench[@]}" --workload tcp_burst_multiseg --seconds 3 --trace 1 | tail -n 1)"
echo "$burst_out" | grep -q '"correct": true' \
    || { echo "nmad-benchmark tcp_burst_multiseg smoke did not verify"; exit 1; }
for metric in core.next_tx_us_per_msg core.on_frame_us_per_msg wire.decode_us_per_frame; do
    value="$(ledger "$burst_out" "$metric")"
    echo "    $metric on tcp_burst_multiseg: ${value:-missing}"
done
burst_allocs="$(ledger "$burst_out" alloc.count_per_msg)"
echo "    alloc.count_per_msg on tcp_burst_multiseg: ${burst_allocs:-missing}"
awk -v r="${burst_allocs:-9}" 'BEGIN { exit !(r <= 3.09) }' \
    || { echo "tcp_burst_multiseg allocates ${burst_allocs:-?} times per message (budget 3.09): a frame's head or slab costs an Arc again, an aggregate frame an allocation of its own, or a list per frame is back"; exit 1; }

echo "==> cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --check || { echo "unformatted code (see above): run cargo fmt"; exit 1; }
else
    echo "    (rustfmt unavailable: skipped; CI installs it)"
fi

echo "==> the run left the checkout as it found it"
if [[ "$(tree_state)" != "$tree_before" ]]; then
    git status --short -- . ':(exclude)benchmark/Cargo.lock'
    echo "the run changed or left files in the checkout (see above): write what a run makes under target/"; exit 1
fi

echo "verify: OK"
