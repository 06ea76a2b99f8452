//! Cold-path exporters for recorded events: JSONL, Chrome `trace_event`
//! JSON (opens in `chrome://tracing` / Perfetto), and a human summary.
//!
//! Everything here allocates freely — exporters run after the workload,
//! never on the record path. JSON is emitted by hand: every string is a
//! static label from [`EventKind`], so no escaping machinery is needed
//! and the obs subsystem stays dependency-free.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::stats::EngineStats;

use super::metrics::text_table;
use super::recorder::{Event, EventKind, NO_RAIL};

/// One JSON object per event, one per line — easy to grep and stream.
///
/// Overflow is never silent: when the ring overwrote `dropped` events
/// before the snapshot was taken ([`super::FlightRecorder::dropped`]),
/// the first line is a marker object naming the gap, so a consumer
/// replaying the stream knows the series is truncated rather than
/// silently starting late.
pub fn to_jsonl(events: &[Event], dropped: u64) -> String {
    let mut out = String::new();
    if dropped > 0 {
        let resume = events.first().map_or(0, |e| e.ts_ns);
        let _ = writeln!(
            out,
            "{{\"overflow\":true,\"dropped\":{dropped},\"resume_ts_ns\":{resume}}}"
        );
    }
    for e in events {
        let _ = write!(
            out,
            "{{\"ts_ns\":{},\"kind\":\"{}\",\"cat\":\"{}\",\"actor\":{},\"rail\":",
            e.ts_ns,
            e.kind.label(),
            e.kind.category(),
            e.actor
        );
        if e.rail == NO_RAIL {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", e.rail);
        }
        let _ = writeln!(
            out,
            ",\"seq\":{},\"size\":{},\"aux\":{}}}",
            e.seq, e.size, e.aux
        );
    }
    out
}

/// Chrome-trace thread id: 0 for engine-wide events, rail + 1 otherwise.
fn tid(e: &Event) -> u64 {
    if e.rail == NO_RAIL {
        0
    } else {
        u64::from(e.rail) + 1
    }
}

fn push_args(out: &mut String, e: &Event) {
    let _ = write!(
        out,
        "\"args\":{{\"seq\":{},\"size\":{},\"aux\":{}",
        e.seq, e.size, e.aux
    );
    if e.kind == EventKind::DecideSplit {
        let _ = write!(out, ",\"ratio_permille\":{}", e.aux);
    }
    out.push('}');
}

/// Microseconds with nanosecond precision, as Chrome expects for `ts`.
fn us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1_000, ts_ns % 1_000)
}

/// Render events as Chrome `trace_event` JSON.
///
/// `TxPost`/`TxDone` pairs (matched on actor, rail, and tx token) become
/// complete `"X"` spans so rail occupancy is visible as bars; everything
/// else is a thread-scoped instant `"i"`. Metadata events name each
/// actor's process `node<N>` and each thread after its rail, so a
/// multi-node merge reads naturally in Perfetto. When the ring dropped
/// `dropped` events, a global `ring_overflow` instant carrying the count
/// sits at the first surviving timestamp; the trace stays structurally
/// valid either way — a `TxDone` whose post was overwritten still renders
/// as an instant, never as a dangling span.
pub fn to_chrome_trace(events: &[Event], dropped: u64) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };

    // Metadata: name processes and threads once per (actor, tid).
    let mut named: Vec<(u16, u64)> = Vec::new();
    for e in events {
        if !named.iter().any(|&(a, _)| a == e.actor) {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"node{}\"}}}}",
                e.actor, e.actor
            );
        }
        if !named.contains(&(e.actor, tid(e))) {
            sep(&mut out);
            let tname = if e.rail == NO_RAIL {
                "engine".to_string()
            } else {
                format!("rail{}", e.rail)
            };
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                e.actor,
                tid(e),
                tname
            );
            named.push((e.actor, tid(e)));
        }
    }

    // Pair tx posts with completions: (actor, rail, token) -> post index.
    // A TxDone folded into a span is skipped; an unmatched one (its post
    // was overwritten in the ring) still shows up as an instant.
    let mut open: HashMap<(u16, u16, u64), usize> = HashMap::new();
    let mut span_end_ns: HashMap<usize, u64> = HashMap::new();
    let mut folded_done: Vec<bool> = vec![false; events.len()];
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::TxPost => {
                open.insert((e.actor, e.rail, e.seq), i);
            }
            EventKind::TxDone => {
                if let Some(post) = open.remove(&(e.actor, e.rail, e.seq)) {
                    span_end_ns.insert(post, e.ts_ns);
                    folded_done[i] = true;
                }
            }
            _ => {}
        }
    }

    for (i, e) in events.iter().enumerate() {
        if folded_done[i] {
            continue;
        }
        sep(&mut out);
        if e.kind == EventKind::TxPost {
            if let Some(&end_ns) = span_end_ns.get(&i) {
                let dur_ns = end_ns.saturating_sub(e.ts_ns);
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"{}\",",
                    e.actor,
                    tid(e),
                    us(e.ts_ns),
                    us(dur_ns),
                    if e.aux == 1 { "tx_control" } else { "tx" },
                    e.kind.category()
                );
                push_args(&mut out, e);
                out.push('}');
                continue;
            }
        }
        emit_instant(&mut out, e);
    }
    if dropped > 0 {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":{},\"name\":\"ring_overflow\",\"cat\":\"obs\",\"args\":{{\"dropped\":{dropped}}}}}",
            us(events.first().map_or(0, |e| e.ts_ns)),
        );
    }
    out.push_str("]}");
    out
}

fn emit_instant(out: &mut String, e: &Event) {
    let _ = write!(
        out,
        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":\"{}\",\"cat\":\"{}\",",
        e.actor,
        tid(e),
        us(e.ts_ns),
        e.kind.label(),
        e.kind.category()
    );
    push_args(out, e);
    out.push('}');
}

/// Human-readable digest: span, per-kind counts, per-rail tx volume, and
/// the split decisions that explain a hetero-split trace; with `stats`,
/// then every metric of [`super::metrics::METRICS`] over the trace's
/// span — the syscall and pool costs a trace alone cannot show.
pub fn summary(events: &[Event], stats: Option<&EngineStats>) -> String {
    let mut out = String::new();
    if events.is_empty() {
        out.push_str("no events recorded\n");
        return out;
    }
    let t0 = events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    let t1 = events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
    let _ = writeln!(
        out,
        "{} events spanning {:.3} ms",
        events.len(),
        (t1 - t0) as f64 / 1e6
    );

    let mut counts: Vec<(EventKind, u64)> = Vec::new();
    for e in events {
        match counts.iter_mut().find(|(k, _)| *k == e.kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((e.kind, 1)),
        }
    }
    counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (k, n) in &counts {
        let _ = writeln!(out, "  {:>18} {}", k.label(), n);
    }

    let mut rail_bytes: HashMap<u16, u64> = HashMap::new();
    for e in events {
        if e.kind == EventKind::TxPost && e.rail != NO_RAIL {
            *rail_bytes.entry(e.rail).or_default() += e.size;
        }
    }
    let mut rails: Vec<(u16, u64)> = rail_bytes.into_iter().collect();
    rails.sort_unstable();
    for (r, b) in &rails {
        let _ = writeln!(out, "  rail {r}: {b} bytes posted");
    }

    let splits: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::DecideSplit)
        .collect();
    if !splits.is_empty() {
        let _ = writeln!(out, "split decisions ({} chunks):", splits.len());
        for e in splits.iter().take(12) {
            let _ = writeln!(
                out,
                "  t={:>12}ns send={} rail={} {} B ({:.1}% of split)",
                e.ts_ns,
                e.seq,
                e.rail,
                e.size,
                e.aux as f64 / 10.0
            );
        }
        if splits.len() > 12 {
            let _ = writeln!(out, "  ... {} more", splits.len() - 12);
        }
    }
    if let Some(stats) = stats {
        out.push_str(&text_table(stats, t1 - t0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::new(100, EventKind::Submit).seq(1).size(4096).aux(1),
            Event::new(150, EventKind::DecideSplit)
                .rail(0)
                .seq(1)
                .size(2048)
                .aux(500),
            Event::new(150, EventKind::DecideSplit)
                .rail(1)
                .seq(1)
                .size(2048)
                .aux(500),
            Event::new(200, EventKind::TxPost).rail(0).seq(7).size(2100),
            Event::new(900, EventKind::TxDone).rail(0).seq(7).size(2100),
            Event::new(950, EventKind::Rx).rail(0).size(2100).actor(1),
        ]
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let s = to_jsonl(&sample_events(), 0);
        assert_eq!(s.lines().count(), 6);
        assert!(s.contains("\"kind\":\"decide_split\""));
        assert!(s.contains("\"rail\":null"));
        assert!(!s.contains("overflow"), "no drops, no marker: {s}");
    }

    #[test]
    fn summary_mentions_split_ratios() {
        let s = summary(&sample_events(), None);
        assert!(s.contains("split decisions"), "{s}");
        assert!(s.contains("50.0% of split"), "{s}");
    }

    #[test]
    fn jsonl_overflow_marker_leads_the_stream() {
        let evs = sample_events();
        let s = to_jsonl(&evs, 17);
        let (marker, rest) = s.split_once('\n').unwrap();
        assert!(marker.contains("\"overflow\":true"), "{marker}");
        assert!(marker.contains("\"dropped\":17"), "{marker}");
        assert!(marker.contains("\"resume_ts_ns\":100"), "{marker}");
        assert_eq!(rest, to_jsonl(&evs, 0), "the marker is all that is added");
    }

    #[test]
    fn chrome_overflow_marker_keeps_the_trace_balanced() {
        let evs = sample_events();
        let s = to_chrome_trace(&evs, 5);
        assert!(s.ends_with("]}"), "{s}");
        assert!(s.contains("\"name\":\"ring_overflow\""), "{s}");
        assert!(s.contains("\"dropped\":5"), "{s}");
        assert!(!to_chrome_trace(&evs, 0).contains("ring_overflow"));
        // Empty snapshot with drops still renders a valid trace.
        let empty = to_chrome_trace(&[], 3);
        assert!(empty.contains("ring_overflow"), "{empty}");
        assert!(empty.ends_with("]}"), "{empty}");
        assert!(
            !empty.contains("[,"),
            "no leading comma corruption: {empty}"
        );
    }

    #[test]
    fn orphaned_tx_done_renders_as_instant_not_dangling_span() {
        // The TxPost was overwritten in the ring; its TxDone must still
        // export cleanly as an instant.
        let evs = vec![Event::new(900, EventKind::TxDone).rail(0).seq(7).size(2100)];
        let s = to_chrome_trace(&evs, 1);
        assert!(s.contains("\"ph\":\"i\""), "{s}");
        assert!(s.contains("tx_done"), "{s}");
        assert!(!s.contains("\"ph\":\"X\""), "{s}");
    }

    #[test]
    fn summary_given_stats_appends_every_metric() {
        let mut stats = EngineStats::new(2);
        stats.syscalls.tx_calls = 10;
        stats.syscalls.tx_frames = 40;
        stats.datapath.pool_hits = 98;
        stats.datapath.hot_path_allocs = 2;
        let s = summary(&sample_events(), Some(&stats));
        let row = |name: &str| {
            s.lines()
                .find(|l| l.split_whitespace().next() == Some(name))
        };
        assert!(
            row("tx_syscalls_per_packet").unwrap().contains("0.2500"),
            "{s}"
        );
        assert!(row("pool_reuse_rate").unwrap().contains("0.9800"), "{s}");
        assert!(
            s.contains("split decisions"),
            "still contains the base summary: {s}"
        );
    }

    // Chrome-trace structural validity (parse + matched spans) is tested
    // in `tests/chrome_trace.rs` with a real JSON parser.
}
