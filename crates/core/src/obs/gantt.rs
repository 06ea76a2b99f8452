//! The simulator's activity as an ASCII Gantt chart, drawn from the
//! recorder's `sim_cpu` / `sim_nic` / `sim_bus` interval events.
//!
//! The paper's argument is about *overlap* — PIO injections that
//! serialize on the one CPU (§3.2), DMA transfers that overlap on both
//! rails (§3.4). Each interval event is stamped at its start and carries
//! its end in `seq` (see [`EventKind::SimCpu`]); a lane is one node's CPU
//! or one of its rails. The chart is a view of the recorded events, so it
//! is drawn only from a whole record: a ring that dropped events would
//! show a partial chart as if it were whole.

use std::fmt::Write as _;

use super::recorder::{Event, EventKind};

/// One row of the chart: a node's CPU or one of its rails, and the
/// intervals it was busy, `[start, end)` in ns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lane {
    /// Node index (the events' `actor`).
    pub node: u16,
    /// The rail, or `None` for the node's CPU.
    pub rail: Option<u16>,
    /// Busy intervals, in event order.
    pub busy: Vec<(u64, u64)>,
}

impl Lane {
    /// `n0.cpu`, `n0.rail1`, ...
    pub fn name(&self) -> String {
        match self.rail {
            None => format!("n{}.cpu", self.node),
            Some(r) => format!("n{}.rail{r}", self.node),
        }
    }

    /// Busy time summed over the lane, ns.
    pub fn busy_ns(&self) -> u64 {
        self.busy.iter().map(|&(s, e)| e.saturating_sub(s)).sum()
    }
}

/// The lane an event occupies and its `[start, end)`, or `None` for an
/// event that is no interval (a lost frame is an instant).
fn interval(e: &Event) -> Option<((u16, Option<u16>), u64, u64)> {
    let rail = match e.kind {
        EventKind::SimCpu => None,
        EventKind::SimNic if e.aux == 0 => Some(e.rail),
        EventKind::SimBus => Some(e.rail),
        _ => return None,
    };
    Some(((e.actor, rail), e.ts_ns, e.seq))
}

/// The lanes `events` draw, by node, each node's CPU first and then its
/// rails in index order.
pub fn lanes(events: &[Event]) -> Vec<Lane> {
    let mut out: Vec<Lane> = Vec::new();
    for ((node, rail), start, end) in events.iter().filter_map(interval) {
        match out.iter_mut().find(|l| (l.node, l.rail) == (node, rail)) {
            Some(l) => l.busy.push((start, end)),
            None => out.push(Lane {
                node,
                rail,
                busy: vec![(start, end)],
            }),
        }
    }
    out.sort_by_key(|l| (l.node, l.rail));
    out
}

/// Render the chart `width` characters wide. `dropped` is what the
/// recording rings lost: when it is not zero, the count is printed
/// instead of a chart.
///
/// ```text
///          0 -------time------- 7.86us
///   n0.cpu |--############----| 6.48us busy
/// n0.rail0 |--#######---------| 3.61us busy
/// ```
pub fn render(events: &[Event], dropped: u64, width: usize) -> String {
    if dropped > 0 {
        return format!(
            "(the recorder dropped {dropped} events: no timeline is drawn from a partial record)\n"
        );
    }
    let lanes = lanes(events);
    let width = width.max(10);
    let us = |ns: u64| ns as f64 / 1e3;
    let end = lanes.iter().flat_map(|l| &l.busy).map(|&(_, e)| e).max();
    let total = us(end.unwrap_or(0));
    if total <= 0.0 {
        return "(empty timeline)\n".into();
    }
    let names: Vec<String> = lanes.iter().map(Lane::name).collect();
    let name_w = names.iter().map(String::len).max().unwrap_or(4).max(4);
    let mut out = String::new();
    let _ = writeln!(out, "{:>name_w$} 0 {:-^width$} {:.2}us", "", "time", total);
    for (lane, name) in lanes.iter().zip(&names) {
        let mut row = vec!['-'; width];
        for &(s, e) in &lane.busy {
            let a = ((us(s) / total) * width as f64).floor() as usize;
            let b = ((us(e) / total) * width as f64).ceil() as usize;
            for c in row.iter_mut().take(b.min(width)).skip(a.min(width - 1)) {
                *c = '#';
            }
        }
        let bar: String = row.into_iter().collect();
        let busy = us(lane.busy_ns());
        let _ = writeln!(out, "{name:>name_w$} |{bar}| {busy:.2}us busy");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An interval event of `kind` on node 0, `[start, end)` in µs.
    fn span(kind: EventKind, rail: usize, start: u64, end: u64) -> Event {
        Event::new(start * 1_000, kind).rail(rail).seq(end * 1_000)
    }

    #[test]
    fn records_and_sums() {
        let events = [
            span(EventKind::SimCpu, 0, 0, 2),
            span(EventKind::SimCpu, 1, 5, 6),
            span(EventKind::SimBus, 0, 1, 4),
            // A frame lost on arrival is an instant, on no lane.
            Event::new(3_000, EventKind::SimNic).rail(1).aux(1),
        ];
        let lanes = lanes(&events);
        let names: Vec<String> = lanes.iter().map(Lane::name).collect();
        assert_eq!(names, ["n0.cpu", "n0.rail0"]);
        assert_eq!(lanes[0].busy_ns(), 3_000);
        assert_eq!(lanes[1].busy, [(1_000, 4_000)]);
        assert!(render(&events, 0, 20).contains(" 6.00us\n"));
    }

    #[test]
    fn render_marks_busy_regions() {
        let s = render(&[span(EventKind::SimCpu, 0, 0, 5)], 0, 20);
        // A lane busy over the whole 0..5us span: every mark is busy.
        let bar: String = s
            .lines()
            .find(|l| l.contains("n0.cpu"))
            .unwrap()
            .chars()
            .skip_while(|&c| c != '|')
            .take_while(|&c| c != ' ')
            .collect();
        assert_eq!(bar, format!("|{}|", "#".repeat(20)));
    }

    #[test]
    fn empty_timeline_renders_placeholder() {
        assert!(render(&[], 0, 40).contains("empty"));
        // Events that are no interval draw nothing either.
        let instants = [
            Event::new(7, EventKind::SimApp),
            Event::new(9, EventKind::TxPost),
        ];
        assert!(lanes(&instants).is_empty());
        assert!(render(&instants, 0, 40).contains("empty"));
    }

    #[test]
    fn zero_length_intervals_are_fine() {
        let events = [span(EventKind::SimNic, 0, 1, 1)];
        assert_eq!(lanes(&events)[0].busy_ns(), 0);
        let _ = render(&events, 0, 30);
    }

    #[test]
    fn a_partial_record_draws_no_chart() {
        let s = render(&[span(EventKind::SimCpu, 0, 0, 5)], 3, 20);
        assert!(s.contains("dropped 3 events"), "{s}");
        assert!(!s.contains('#'), "{s}");
    }
}
