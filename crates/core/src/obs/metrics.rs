//! Every number the engine exports, named once.
//!
//! [`METRICS`] is the schema: one line per metric with its name, unit,
//! help and how it is read from [`EngineStats`] (a counter, a gauge, a
//! ratio of two counters, a histogram quantile, a busy share or a rate
//! over a span). The three renderers below loop over it and nothing else
//! names a field: [`to_prometheus`] (cumulative counters as
//! `nmad_[rail_]<name>_total`, the latest window as
//! `nmad_window_[rail_]<name>`), [`windows_jsonl`] (one object per
//! closed window; a name is its key) and [`text_table`] (the CLI's
//! views). A name is unique within its scope, so one name is one number
//! in every view. See DESIGN.md §8 "Exporters".

use std::fmt::Write as _;
use std::ops::Range;

use crate::health::RailTelemetry;
use crate::stats::EngineStats;

use super::hist::Log2Histogram;
use super::telemetry::TelemetryAggregator;
use Kind::{Busy, Counter, Gauge, Quantile, Rate, Ratio};
use Scope::{Engine, Rail};

/// Whose counters a metric reads: the engine's, or each rail's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// One value per engine.
    Engine,
    /// One value per rail, labelled with its index.
    Rail,
}

/// Reads a number from the stats; the `usize` is the rail of a
/// [`Scope::Rail`] metric (an engine metric ignores it).
pub type Read = fn(&EngineStats, usize) -> u64;

/// How a metric's value is made from the stats.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Only grows: the running total, or what it did over a window.
    Counter(Read),
    /// A level as it is now (a window's: as it was at the close).
    Gauge(Read),
    /// The first counter over the second; 0 while the second is 0.
    Ratio(Read, Read),
    /// The histogram's quantile `q`, as its bucket's upper bound.
    Quantile(fn(&EngineStats, usize) -> &Log2Histogram, f64),
    /// Busy nanoseconds as a share of the span, at most 1.
    Busy(Read),
    /// A counter per second of the span.
    Rate(Read),
}

/// One exported number.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// JSONL key; `nmad_[rail_]<name>` in Prometheus.
    pub name: &'static str,
    /// What one unit of the value is.
    pub unit: &'static str,
    /// One line of help (Prometheus `# HELP`).
    pub help: &'static str,
    /// Engine-wide or per rail.
    pub scope: Scope,
    /// How the value is read.
    pub kind: Kind,
}

const fn metric(
    scope: Scope,
    name: &'static str,
    unit: &'static str,
    help: &'static str,
    kind: Kind,
) -> Metric {
    Metric {
        name,
        unit,
        help,
        scope,
        kind,
    }
}

/// Every number the engine exports, engine-wide first, then per rail.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    metric(Engine, "submits", "msgs", "messages submitted", Counter(|s, _| s.msgs_submitted)),
    metric(Engine, "acks", "acks", "acks that closed an attempt (the ack round-trip samples)", Counter(|s, _| s.ack_rtt_ns.count())),
    metric(Engine, "retransmits", "msgs", "messages re-enqueued after a retransmission timeout", Counter(|s, _| s.retransmits)),
    metric(Engine, "duplicates_dropped", "pkts", "duplicate packets dropped on receive (acked mode)", Counter(|s, _| s.duplicates_dropped)),
    metric(Engine, "sheds", "msgs", "submissions refused by per-tenant admission control", Counter(|s, _| s.overload.admission_rejections)),
    metric(Engine, "backpressure", "msgs", "submissions refused because shutdown had begun", Counter(|s, _| s.overload.shutdown_rejections)),
    metric(Engine, "rdv_handshakes", "segs", "segments sent through the rendezvous handshake", Counter(|s, _| s.rdv_handshakes)),
    metric(Engine, "chunks_sent", "chunks", "chunks emitted for split segments", Counter(|s, _| s.chunks_sent)),
    metric(Engine, "p50_ns", "ns", "ack round trip, median (bucket upper bound)", Quantile(|s, _| &s.ack_rtt_ns, 0.50)),
    metric(Engine, "p99_ns", "ns", "ack round trip, 99th percentile (bucket upper bound)", Quantile(|s, _| &s.ack_rtt_ns, 0.99)),
    metric(Engine, "tx_syscalls", "calls", "write calls that moved bytes", Counter(|s, _| s.syscalls.tx_calls)),
    metric(Engine, "tx_syscall_frames", "frames", "frames those write calls moved", Counter(|s, _| s.syscalls.tx_frames)),
    metric(Engine, "rx_syscalls", "calls", "read calls that brought bytes", Counter(|s, _| s.syscalls.rx_calls)),
    metric(Engine, "rx_syscall_frames", "frames", "frames decoded out of those reads", Counter(|s, _| s.syscalls.rx_frames)),
    metric(Engine, "rx_empty_syscalls", "calls", "read calls that found nothing (would-block)", Counter(|s, _| s.syscalls.rx_empty)),
    metric(Engine, "syscalls_per_packet", "calls/frame", "syscalls per frame moved either way", Ratio(|s, _| s.syscalls.tx_calls + s.syscalls.rx_calls, |s, _| s.syscalls.tx_frames + s.syscalls.rx_frames)),
    metric(Engine, "tx_syscalls_per_packet", "calls/frame", "write calls per frame sent", Ratio(|s, _| s.syscalls.tx_calls, |s, _| s.syscalls.tx_frames)),
    metric(Engine, "rx_syscalls_per_packet", "calls/frame", "read calls per frame received", Ratio(|s, _| s.syscalls.rx_calls, |s, _| s.syscalls.rx_frames)),
    metric(Engine, "pool_hits", "bufs", "buffer takes served from the pool's free list", Counter(|s, _| s.datapath.pool_hits)),
    metric(Engine, "pool_takes", "bufs", "buffer takes, from the free list or freshly allocated", Counter(|s, _| s.datapath.pool_hits + s.datapath.hot_path_allocs)),
    metric(Engine, "pool_reuse_rate", "share", "pool_hits over pool_takes", Ratio(|s, _| s.datapath.pool_hits, |s, _| s.datapath.pool_hits + s.datapath.hot_path_allocs)),
    metric(Engine, "pool_outstanding", "bufs", "pool buffers taken and not yet reclaimed", Gauge(|s, _| s.datapath.pool_outstanding)),
    metric(Rail, "tx_frames", "frames", "frames posted, data and control", Counter(|s, r| s.rails[r].tx_frames())),
    metric(Rail, "data_packets", "pkts", "data packets posted", Counter(|s, r| s.rails[r].packets)),
    metric(Rail, "control_packets", "pkts", "control packets posted (rendezvous and acks)", Counter(|s, r| s.rails[r].control_packets)),
    metric(Rail, "tx_bytes", "B", "wire bytes posted, control frames included", Counter(|s, r| s.rails[r].wire_bytes)),
    metric(Rail, "payload_bytes", "B", "application payload bytes posted", Counter(|s, r| s.rails[r].payload_bytes)),
    metric(Rail, "payload_share", "share", "the rail's share of the payload bytes posted", Ratio(|s, r| s.rails[r].payload_bytes, |s, _| s.total_payload_bytes())),
    metric(Rail, "tx_bytes_per_second", "B/s", "wire bytes posted per second", Rate(|s, r| s.rails[r].wire_bytes)),
    metric(Rail, "rx_frames", "frames", "frames received", Counter(|s, r| s.rails[r].rx_packets)),
    metric(Rail, "rx_bytes", "B", "wire bytes received", Counter(|s, r| s.rails[r].rx_wire_bytes)),
    metric(Rail, "rx_bytes_per_second", "B/s", "wire bytes received per second", Rate(|s, r| s.rails[r].rx_wire_bytes)),
    metric(Rail, "utilization", "share", "share of the span the rail was busy", Busy(|s, r| s.rails[r].busy_ns)),
    metric(Rail, "in_flight_bytes", "B", "wire bytes posted and not yet completed", Gauge(|s, r| s.rails[r].in_flight_bytes)),
    metric(Rail, "p99_ns", "ns", "round trip (acks and probe pongs), 99th percentile (bucket upper bound)", Quantile(|s, r| &s.rails[r].rtt_ns, 0.99)),
    metric(Rail, "timeouts", "timeouts", "retransmission timeouts blamed on the rail", Counter(|s, r| s.rails[r].timeouts)),
    metric(Rail, "retransmits", "msgs", "retransmitted messages that blamed the rail", Counter(|s, r| s.rails[r].retransmits_blamed)),
    metric(Rail, "retransmit_packets", "pkts", "data packets that re-sent payload of a retransmitted message", Counter(|s, r| s.rails[r].retransmit_packets)),
    metric(Rail, "failovers", "events", "times the rail went down with survivors to take its chunks", Counter(|s, r| s.rails[r].failovers)),
    metric(Rail, "probes", "probes", "health probes sent", Counter(|s, r| s.rails[r].probes_sent)),
    metric(Rail, "transitions", "events", "health state changes", Counter(|s, r| s.rails[r].state_transitions)),
];

impl Metric {
    /// Its value in `stats` (for `rail`, if per rail), as every exporter
    /// prints it: a count, or a fraction to four places. Busy shares and
    /// rates are over `span_ns`.
    pub fn value(&self, stats: &EngineStats, rail: usize, span_ns: u64) -> String {
        let per_span = |v: u64| v as f64 / span_ns.max(1) as f64;
        match self.kind {
            Counter(read) | Gauge(read) => read(stats, rail).to_string(),
            Ratio(num, den) => match den(stats, rail) {
                0 => "0.0000".to_string(),
                d => format!("{:.4}", num(stats, rail) as f64 / d as f64),
            },
            Quantile(hist, q) => hist(stats, rail)
                .approx_quantile(q)
                .unwrap_or(0)
                .to_string(),
            Busy(read) => format!("{:.4}", per_span(read(stats, rail)).min(1.0)),
            Rate(read) => format!("{:.0}", per_span(read(stats, rail)) * 1e9),
        }
    }

    /// Whether it only grows (and so has a cumulative `_total`).
    pub fn is_counter(&self) -> bool {
        matches!(self.kind, Counter(_))
    }

    /// Its Prometheus name: `nmad_`, then `window_` for a window's
    /// value, `rail_` for a per-rail metric, the name, and `_total` for a
    /// running counter.
    pub fn prometheus_name(&self, window: bool) -> String {
        let rail = if self.scope == Rail { "rail_" } else { "" };
        match window {
            true => format!("nmad_window_{rail}{}", self.name),
            false => format!("nmad_{rail}{}_total", self.name),
        }
    }

    /// The rails to read: one pass for an engine metric.
    fn rails(&self, stats: &EngineStats) -> Range<usize> {
        match self.scope {
            Engine => 0..1,
            Rail => 0..stats.rails.len(),
        }
    }

    /// `# HELP`, `# TYPE` and one sample per rail.
    fn write_prometheus(&self, out: &mut String, window: bool, stats: &EngineStats, span_ns: u64) {
        let name = self.prometheus_name(window);
        let kind = if window { "gauge" } else { "counter" };
        let _ = writeln!(out, "# HELP {name} {} ({})", self.help, self.unit);
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for r in self.rails(stats) {
            let v = self.value(stats, r, span_ns);
            let _ = match self.scope {
                Engine => writeln!(out, "{name} {v}"),
                Rail => writeln!(out, "{name}{{rail=\"{r}\"}} {v}"),
            };
        }
    }
}

/// Prometheus text exposition: every counter's running total from
/// `stats`, then every metric of the latest closed window. Every label
/// is static, so no escaping is needed and the obs subsystem stays
/// dependency-free.
pub fn to_prometheus(agg: &TelemetryAggregator, stats: &EngineStats) -> String {
    let mut out = format!(
        "# TYPE nmad_window_seconds gauge\nnmad_window_seconds {}\n\
         # TYPE nmad_windows_closed_total counter\nnmad_windows_closed_total {}\n",
        agg.window_ns() as f64 / 1e9,
        agg.windows_closed()
    );
    for m in METRICS.iter().filter(|m| m.is_counter()) {
        m.write_prometheus(&mut out, false, stats, 0);
    }
    if let Some(w) = agg.latest() {
        for m in METRICS {
            m.write_prometheus(&mut out, true, &w.stats, w.span_ns());
        }
    }
    out
}

/// `"name":value` of every metric of `scope`, comma-separated.
fn json_fields(out: &mut String, scope: Scope, stats: &EngineStats, rail: usize, span_ns: u64) {
    for (i, m) in METRICS.iter().filter(|m| m.scope == scope).enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{}\":{}", m.name, m.value(stats, rail, span_ns));
    }
}

/// JSONL time series: one object per closed window, oldest-first — the
/// window's place (`ordinal`, `start_ns`, `end_ns`), the watchdog alerts
/// counted in it, every engine metric, and `rails`, one object of every
/// rail metric per rail. The interchange format of the soak's
/// `--out-timeseries` artifact and of `ablate_obs`'
/// `BENCH_obs_timeseries.jsonl`.
pub fn windows_jsonl(agg: &TelemetryAggregator) -> String {
    let mut out = String::new();
    for w in agg.windows() {
        let (s, span) = (&w.stats, w.span_ns());
        let _ = write!(
            out,
            "{{\"ordinal\":{},\"start_ns\":{},\"end_ns\":{},\"alerts\":{},",
            w.ordinal, w.start_ns, w.end_ns, w.alerts
        );
        json_fields(&mut out, Scope::Engine, s, 0, span);
        out.push_str(",\"rails\":[");
        for r in 0..s.rails.len() {
            out.push_str(if r > 0 { ",{" } else { "{" });
            json_fields(&mut out, Scope::Rail, s, r, span);
            out.push('}');
        }
        out.push_str("]}\n");
    }
    out
}

/// Every metric of `stats` as an aligned table, one row each: the
/// engine's value, or one column per rail. Busy shares and rates are
/// over `span_ns` (a window's length, or the engine clock for running
/// totals).
pub fn text_table(stats: &EngineStats, span_ns: u64) -> String {
    let mut out = format!("  {:<24} {:<12} {:>12}", "metric", "unit", "engine");
    for r in 0..stats.rails.len() {
        let _ = write!(out, " {:>12}", format!("rail{r}"));
    }
    for m in METRICS {
        let skip = if m.scope == Rail { 13 } else { 0 };
        let _ = write!(out, "\n  {:<24} {:<12}{:skip$}", m.name, m.unit, "");
        for r in m.rails(stats) {
            let _ = write!(out, " {:>12}", m.value(stats, r, span_ns));
        }
    }
    out.push('\n');
    out
}

/// The rails' health estimators, one row per rail: state, SRTT, RTTVAR,
/// RTO and the time spent in each state.
pub fn health_table(rails: &[RailTelemetry]) -> String {
    let mut out = String::from(
        "  rail      state    srtt us  rttvar us    rto ms     up ms  suspect ms   down ms  probing ms\n",
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    for (r, t) in rails.iter().enumerate() {
        let srtt = t
            .srtt_ns
            .map_or("-".into(), |v| format!("{:.1}", v as f64 / 1e3));
        let [up, suspect, down, probing] = t.dwell_ns.map(ms);
        let _ = writeln!(
            out,
            "  rail{r:<2} {:>8} {srtt:>10} {:>10.1} {:>9.1} {up:>9.1} {suspect:>11.1} {down:>9.1} {probing:>11.1}",
            format!("{:?}", t.state),
            t.rttvar_ns as f64 / 1e3,
            ms(t.rto_ns),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_legal_prometheus_names() {
        for m in METRICS {
            let legal = |s: &str| {
                s.starts_with(|c: char| c.is_ascii_lowercase())
                    && s.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            };
            assert!(legal(m.name), "{}", m.name);
            assert!(!m.unit.is_empty() && !m.help.is_empty(), "{}", m.name);
            for window in [false, true] {
                assert!(legal(&m.prometheus_name(window)));
            }
        }
        let mut prom: Vec<String> = METRICS
            .iter()
            .flat_map(|m| [m.prometheus_name(false), m.prometheus_name(true)])
            .collect();
        let n = prom.len();
        prom.sort();
        prom.dedup();
        assert_eq!(prom.len(), n, "two metrics share a Prometheus name");
    }

    fn find(scope: Scope, name: &str) -> &'static Metric {
        METRICS
            .iter()
            .find(|m| m.scope == scope && m.name == name)
            .unwrap()
    }

    #[test]
    fn each_kind_reads_its_value() {
        let mut s = EngineStats::new(2);
        let ratio = find(Scope::Engine, "pool_reuse_rate");
        assert_eq!(ratio.value(&s, 0, 1), "0.0000", "no takes: 0");
        s.datapath.pool_hits = 3;
        s.datapath.hot_path_allocs = 1;
        assert_eq!(ratio.value(&s, 0, 1), "0.7500");
        s.rails[1].busy_ns = 1_500;
        s.rails[1].wire_bytes = 4_000;
        let busy = find(Scope::Rail, "utilization");
        assert_eq!(busy.value(&s, 1, 3_000), "0.5000");
        assert_eq!(busy.value(&s, 1, 1_000), "1.0000", "at most 1");
        let rate = find(Scope::Rail, "tx_bytes_per_second");
        assert_eq!(rate.value(&s, 1, 2_000_000), "2000000");
        assert_eq!(rate.value(&s, 0, 2_000_000), "0");
        s.ack_rtt_ns.record(600);
        let p99 = find(Scope::Engine, "p99_ns");
        assert_eq!(p99.value(&s, 0, 1), "600");
        assert_eq!(find(Scope::Engine, "acks").value(&s, 0, 1), "1");
        assert_eq!("0.5000".to_string(), "0.5000");
    }

    #[test]
    fn renderers_name_every_metric() {
        let mut a = TelemetryAggregator::new(2, 1_000);
        let mut st = EngineStats::new(2);
        a.fold(100, &mut st, 0);
        st.rails[0].packets = 1;
        st.rails[0].wire_bytes = 4096;
        st.ack_rtt_ns.record(600);
        a.fold(2_100, &mut st, 0);
        let prom = to_prometheus(&a, &st);
        assert!(prom.contains("nmad_windows_closed_total 2"), "{prom}");
        assert!(
            prom.contains("nmad_rail_tx_bytes_total{rail=\"0\"} 4096"),
            "{prom}"
        );
        assert!(
            prom.contains("nmad_window_rail_utilization{rail=\"1\"} 0.0000"),
            "{prom}"
        );
        let jsonl = windows_jsonl(&a);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(
            jsonl.lines().next().unwrap().contains("\"tx_bytes\":4096"),
            "{jsonl}"
        );
        let table = text_table(&st, 2_100);
        for m in METRICS {
            assert!(prom.contains(&m.prometheus_name(true)), "{}", m.name);
            assert!(jsonl.contains(&format!("\"{}\":", m.name)), "{}", m.name);
            assert!(table.contains(m.name), "{}", m.name);
        }
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with("]}")));
    }
}
