//! Per-request critical-path spans decomposed from lifecycle events.
//!
//! A bandwidth number says a message took 400 µs; it does not say
//! *where*. This module folds a merged event stream into per-message
//! legs:
//!
//! ```text
//! submit ──queue──▶ decide ──xfer──▶ ack_sent ──ack──▶ ack_received
//!   └──────────────────────total──────────────────────────┘
//! ```
//!
//! * **queue** — submit → the strategy's first decision for this send
//!   (backlog wait: how long the scheduler sat on the request);
//! * **xfer** — decision → the receiver's ack (injection + wire + rx +
//!   reassembly, the paper's transfer-time quantity);
//! * **ack** — the receiver's ack → the sender observing it;
//! * plus per-rail **injection** occupancy from `TxPost`/`TxDone` pairs.
//!
//! Cross-actor legs (`xfer`, `ack`) compare timestamps from two engines,
//! so they are only meaningful where both actors share a clock: the
//! simulator's virtual time or the in-process mem fabric's shared
//! wall-clock epoch. `nmad spans` drives exactly those. Aggregated
//! messages have no per-send decision event; they are attributed to the
//! first `DecideAggregate` at or after their submit (the engine is
//! single-threaded, so that is the decision that drained them or a
//! conservative overestimate of their wait).

use std::collections::HashMap;

use super::hist::Log2Histogram;
use super::recorder::{Event, EventKind, NO_RAIL};

/// Leg histograms over every attributable message in a trace.
#[derive(Clone, Debug, Default)]
pub struct SpanBreakdown {
    /// Messages with at least a submit→decide attribution.
    pub messages: u64,
    /// Submits with no attributable decision (e.g. overwritten in the
    /// ring) — excluded from the histograms rather than guessed at.
    pub unattributed: u64,
    /// Submit → first strategy decision, ns.
    pub queue_ns: Log2Histogram,
    /// Decision → receiver ack, ns (needs acked mode + shared clock).
    pub xfer_ns: Log2Histogram,
    /// Receiver ack → sender observing it, ns.
    pub ack_ns: Log2Histogram,
    /// Submit → sender observing the ack, ns.
    pub total_ns: Log2Histogram,
    /// Per-rail `TxPost`→`TxDone` injection occupancy, ns.
    pub rail_inject_ns: Vec<Log2Histogram>,
}

/// Decompose a merged, timestamp-ordered event stream (every node's
/// events on one clock, as the simulator records them) into span legs.
pub fn decompose(events: &[Event]) -> SpanBreakdown {
    let mut out = SpanBreakdown::default();

    // Submit and first-decision times per (sender actor, send id).
    let mut submit: HashMap<(u16, u64), u64> = HashMap::new();
    let mut decide: HashMap<(u16, u64), u64> = HashMap::new();
    // Aggregate decisions per actor, in ts order, for the fallback.
    let mut aggregates: HashMap<u16, Vec<u64>> = HashMap::new();
    // Receiver acks: (receiver actor, send id) -> ts. The sender's send
    // ids are unique per engine; the matching ack is the one recorded by
    // a different actor.
    let mut ack_sent: HashMap<(u16, u64), u64> = HashMap::new();
    let mut ack_received: HashMap<(u16, u64), u64> = HashMap::new();
    // Open tx injections: (actor, rail, token) -> post ts.
    let mut open_tx: HashMap<(u16, u16, u64), u64> = HashMap::new();
    let mut max_rail = 0usize;

    for e in events {
        match e.kind {
            EventKind::Submit => {
                submit.entry((e.actor, e.seq)).or_insert(e.ts_ns);
            }
            EventKind::DecideEager | EventKind::DecideSplit | EventKind::DecideChunk => {
                decide.entry((e.actor, e.seq)).or_insert(e.ts_ns);
            }
            EventKind::DecideAggregate => {
                aggregates.entry(e.actor).or_default().push(e.ts_ns);
            }
            EventKind::AckSent => {
                ack_sent.entry((e.actor, e.seq)).or_insert(e.ts_ns);
            }
            EventKind::AckReceived => {
                ack_received.entry((e.actor, e.seq)).or_insert(e.ts_ns);
            }
            EventKind::TxPost if e.rail != NO_RAIL => {
                max_rail = max_rail.max(e.rail as usize);
                open_tx.insert((e.actor, e.rail, e.seq), e.ts_ns);
            }
            EventKind::TxDone if e.rail != NO_RAIL => {
                max_rail = max_rail.max(e.rail as usize);
                if let Some(post) = open_tx.remove(&(e.actor, e.rail, e.seq)) {
                    while out.rail_inject_ns.len() <= e.rail as usize {
                        out.rail_inject_ns.push(Log2Histogram::new());
                    }
                    out.rail_inject_ns[e.rail as usize].record(e.ts_ns.saturating_sub(post));
                }
            }
            _ => {}
        }
    }
    while out.rail_inject_ns.len() <= max_rail {
        out.rail_inject_ns.push(Log2Histogram::new());
    }

    for ts_list in aggregates.values_mut() {
        ts_list.sort_unstable();
    }

    for (&(actor, seq), &t_submit) in &submit {
        // Direct decision, else the first aggregate at or after submit.
        let t_decide = decide.get(&(actor, seq)).copied().or_else(|| {
            aggregates.get(&actor).and_then(|ts| {
                let i = ts.partition_point(|&t| t < t_submit);
                ts.get(i).copied()
            })
        });
        let Some(t_decide) = t_decide else {
            out.unattributed += 1;
            continue;
        };
        out.messages += 1;
        out.queue_ns.record(t_decide.saturating_sub(t_submit));

        // The receiver's ack is the one recorded by another actor.
        let t_ack_sent = ack_sent
            .iter()
            .find(|(&(a, s), _)| s == seq && a != actor)
            .map(|(_, &t)| t);
        if let Some(t_ack_sent) = t_ack_sent {
            out.xfer_ns.record(t_ack_sent.saturating_sub(t_decide));
            if let Some(&t_ack_rx) = ack_received.get(&(actor, seq)) {
                out.ack_ns.record(t_ack_rx.saturating_sub(t_ack_sent));
                out.total_ns.record(t_ack_rx.saturating_sub(t_submit));
            }
        }
    }
    out
}

/// Render a breakdown as an aligned table: one row per leg with
/// p50/p99/max, plus per-rail injection occupancy.
pub fn render(label: &str, b: &SpanBreakdown) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== spans: {label} ({} messages, {} unattributed) ==",
        b.messages, b.unattributed
    );
    let _ = writeln!(
        out,
        "{:>8} {:>6} {:>12} {:>12} {:>12}",
        "leg", "n", "p50_us", "p99_us", "max_us"
    );
    let us = |v: u64| v as f64 / 1_000.0;
    for (name, h) in [
        ("queue", &b.queue_ns),
        ("xfer", &b.xfer_ns),
        ("ack", &b.ack_ns),
        ("total", &b.total_ns),
    ] {
        let _ = writeln!(
            out,
            "{:>8} {:>6} {:>12.1} {:>12.1} {:>12.1}",
            name,
            h.count(),
            us(h.approx_quantile(0.50).unwrap_or(0)),
            us(h.approx_quantile(0.99).unwrap_or(0)),
            us(h.max().unwrap_or(0)),
        );
    }
    for (r, h) in b.rail_inject_ns.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>8} {:>6} {:>12.1} {:>12.1} {:>12.1}",
            format!("inject{r}"),
            h.count(),
            us(h.approx_quantile(0.50).unwrap_or(0)),
            us(h.approx_quantile(0.99).unwrap_or(0)),
            us(h.max().unwrap_or(0)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lifecycle(seq: u64, t0: u64) -> Vec<Event> {
        vec![
            Event::new(t0, EventKind::Submit).seq(seq).size(4096),
            Event::new(t0 + 100, EventKind::DecideEager)
                .rail(0)
                .seq(seq),
            Event::new(t0 + 120, EventKind::TxPost)
                .rail(0)
                .seq(seq + 1000)
                .size(4200),
            Event::new(t0 + 500, EventKind::TxDone)
                .rail(0)
                .seq(seq + 1000)
                .size(4200),
            Event::new(t0 + 900, EventKind::AckSent).seq(seq).actor(1),
            Event::new(t0 + 1_300, EventKind::AckReceived)
                .seq(seq)
                .aux(1_300),
        ]
    }

    #[test]
    fn legs_decompose_a_full_lifecycle() {
        let mut evs = lifecycle(0, 1_000);
        evs.extend(lifecycle(1, 50_000));
        let b = decompose(&evs);
        assert_eq!(b.messages, 2);
        assert_eq!(b.unattributed, 0);
        assert_eq!(b.queue_ns.count(), 2);
        assert_eq!(b.queue_ns.max(), Some(100));
        assert_eq!(b.xfer_ns.max(), Some(800));
        assert_eq!(b.ack_ns.max(), Some(400));
        assert_eq!(b.total_ns.max(), Some(1_300));
        assert_eq!(b.rail_inject_ns[0].count(), 2);
        assert_eq!(b.rail_inject_ns[0].max(), Some(380));
    }

    #[test]
    fn aggregated_sends_fall_back_to_the_next_aggregate_decision() {
        let evs = vec![
            Event::new(100, EventKind::Submit).seq(7).size(64),
            // An earlier aggregate (someone else's) must not match.
            Event::new(50, EventKind::DecideAggregate).size(256).aux(4),
            Event::new(400, EventKind::DecideAggregate).size(512).aux(8),
            Event::new(900, EventKind::AckSent).seq(7).actor(1),
            Event::new(1_000, EventKind::AckReceived).seq(7),
        ];
        let b = decompose(&evs);
        assert_eq!(b.messages, 1);
        assert_eq!(b.queue_ns.max(), Some(300), "matched the 400 ns aggregate");
        assert_eq!(b.total_ns.max(), Some(900));
    }

    #[test]
    fn unattributable_submits_are_counted_not_guessed() {
        let evs = vec![Event::new(100, EventKind::Submit).seq(9).size(64)];
        let b = decompose(&evs);
        assert_eq!(b.messages, 0);
        assert_eq!(b.unattributed, 1);
        assert!(b.queue_ns.is_empty());
    }

    #[test]
    fn two_directions_do_not_cross_match() {
        // Actor 0 and actor 1 both run send id 0 towards each other; the
        // ack for each send is the one the *other* actor recorded.
        let evs = vec![
            Event::new(100, EventKind::Submit).seq(0), // actor 0
            Event::new(110, EventKind::DecideEager).seq(0),
            Event::new(200, EventKind::Submit).seq(0).actor(1),
            Event::new(210, EventKind::DecideEager).seq(0).actor(1),
            Event::new(500, EventKind::AckSent).seq(0).actor(1), // acks actor 0's send
            Event::new(600, EventKind::AckSent).seq(0),          // actor 0 acks actor 1's send
            Event::new(700, EventKind::AckReceived).seq(0),      // actor 0 sees its ack
            Event::new(800, EventKind::AckReceived).seq(0).actor(1),
        ];
        let b = decompose(&evs);
        assert_eq!(b.messages, 2);
        assert_eq!(b.total_ns.count(), 2);
        // Actor 0: 700-100 = 600; actor 1: 800-200 = 600.
        assert_eq!(b.total_ns.max(), Some(600));
        assert_eq!(b.total_ns.min(), Some(600));
    }

    #[test]
    fn render_prints_every_leg() {
        let b = decompose(&lifecycle(0, 1_000));
        let s = render("greedy", &b);
        for leg in ["queue", "xfer", "ack", "total", "inject0"] {
            assert!(s.contains(leg), "{s}");
        }
    }
}
