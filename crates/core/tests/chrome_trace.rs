//! Structural validation of the Chrome `trace_event` exporter: the output
//! must parse as JSON, every event must carry the phase-appropriate
//! fields, and begin/end phases must balance (this exporter emits complete
//! `"X"` spans instead of `B`/`E` pairs, so both counts are zero — the
//! invariant still holds and would catch a future exporter emitting an
//! unmatched `B`).

use bytes::Bytes;
use nmad_core::engine::Engine;
use nmad_core::obs::{to_chrome_trace, Event, EventKind};
use nmad_core::{EngineConfig, Observe, StrategyKind};
use nmad_model::{platform, RailId};
use serde_json::Value;

/// Drive a recorder-enabled engine pair through one sizeable transfer so
/// the trace contains real lifecycle events (submit, split decisions,
/// tx spans, acks).
fn recorded_events() -> Vec<Event> {
    let mut cfg = EngineConfig::with_strategy(StrategyKind::AdaptiveSplit);
    cfg.acked = true;
    cfg.observe = Observe::Record { capacity: 8192 };
    let mk = || Engine::new(cfg.clone(), platform::paper_platform().rails, vec![]);
    let (mut a, mut b) = (mk(), mk());
    a.conn_open();
    b.conn_open();
    b.post_recv(0);
    a.submit_send(0, vec![Bytes::from(vec![0xA5u8; 4 << 20])]);
    for _ in 0..1_000_000 {
        let mut progressed = false;
        for dir in 0..2 {
            let (tx, rx) = if dir == 0 {
                (&mut a, &mut b)
            } else {
                (&mut b, &mut a)
            };
            for r in 0..2 {
                let rail = RailId(r);
                if let Some(d) = tx.next_tx(rail).expect("next_tx") {
                    progressed = true;
                    tx.on_tx_done(rail, d.token).expect("tx_done");
                    rx.on_frame(rail, &d.frame).expect("on_frame");
                }
            }
        }
        if !progressed {
            break;
        }
    }
    // Merge both sides, receiver re-stamped as actor 1 so pids differ.
    let mut all = a.recorder().events();
    all.extend(b.recorder().events().into_iter().map(|e| e.actor(1)));
    all.sort_by_key(|e| e.ts_ns);
    all
}

/// Parse a trace and return (spans, instants, begins, ends, metas).
fn audit(trace: &str) -> (usize, usize, usize, usize, usize) {
    let v: Value = serde_json::from_str(trace).expect("exporter must emit valid JSON");
    let events = v
        .get("traceEvents")
        .expect("top-level traceEvents")
        .as_array()
        .expect("traceEvents must be an array");
    let (mut x, mut i, mut b, mut e, mut m) = (0, 0, 0, 0, 0);
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|p| p.as_str())
            .expect("every event carries ph");
        assert!(ev.get("pid").is_some(), "every event carries pid: {ev:?}");
        assert!(ev.get("tid").is_some(), "every event carries tid: {ev:?}");
        if ph != "M" {
            assert!(ev.get("ts").is_some(), "timed event missing ts: {ev:?}");
            assert!(ev.get("name").is_some(), "timed event missing name");
        }
        match ph {
            "X" => {
                assert!(ev.get("dur").is_some(), "complete span missing dur");
                x += 1;
            }
            "i" => i += 1,
            "B" => b += 1,
            "E" => e += 1,
            "M" => m += 1,
            other => panic!("unexpected phase {other:?}"),
        }
    }
    (x, i, b, e, m)
}

#[test]
fn engine_trace_is_valid_and_balanced() {
    let events = recorded_events();
    assert!(!events.is_empty(), "workload must record events");
    let (spans, instants, begins, ends, metas) = audit(&to_chrome_trace(&events, 0));
    assert_eq!(begins, ends, "unbalanced B/E phases");
    assert!(spans > 0, "tx post/done pairs must fold into X spans");
    assert!(instants > 0, "lifecycle instants must survive export");
    assert!(metas >= 2, "process/thread names for both actors");
    assert!(
        events.iter().any(|e| e.kind == EventKind::DecideSplit),
        "a 4 MiB adaptive-split transfer must record split decisions"
    );
}

#[test]
fn unmatched_tx_events_degrade_to_instants() {
    // A TxDone whose TxPost was overwritten in the ring, and a TxPost that
    // never completed: neither may break pairing or produce invalid JSON.
    let events = vec![
        Event::new(100, EventKind::TxDone).rail(0).seq(42),
        Event::new(200, EventKind::TxPost).rail(1).seq(7).size(1024),
        Event::new(300, EventKind::Retransmit).rail(1).seq(7),
    ];
    let (spans, instants, begins, ends, _) = audit(&to_chrome_trace(&events, 0));
    assert_eq!(spans, 0);
    assert_eq!(instants, 3, "all three must fall back to instants");
    assert_eq!((begins, ends), (0, 0));
}

#[test]
fn jsonl_lines_each_parse() {
    let events = recorded_events();
    let jsonl = nmad_core::obs::to_jsonl(&events, 0);
    let mut kinds_seen = 0;
    for line in jsonl.lines() {
        let v: Value = serde_json::from_str(line).expect("each JSONL line is a JSON object");
        assert!(v.get("ts_ns").is_some() && v.get("kind").is_some());
        kinds_seen += 1;
    }
    assert_eq!(kinds_seen, events.len());
}
