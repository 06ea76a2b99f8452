//! Spans recorded from the benchmark's own files, around the calls into
//! each layer's public functions. Spans stay in memory and are written to
//! `benchmark/out/trace-<workload>.json` when the run ends. Per-kind
//! durations are kept for every span; the span list itself is capped so a
//! 55 kmsg/s workload does not write a gigabyte.

use std::fmt::Write as _;
use std::time::Instant;

/// What a span covers. The layer prefix (`tcp`, `mem`, `core`) is the
/// tracer's, so one kind names the same call on either transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Submit to verified delivery of one message; parent of the rest.
    Msg,
    SendCall,
    RecvPost,
    RecvWait,
    SendWait,
    Verify,
    Submit,
    NextTx,
    OnTxDone,
    OnFrame,
    TryRecv,
}

const KINDS: usize = Kind::TryRecv as usize + 1;

impl Kind {
    /// The kinds reported as medians; the rest only need their totals.
    fn has_median(self) -> bool {
        matches!(self, Kind::SendCall | Kind::RecvWait | Kind::SendWait)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Msg => "msg",
            Kind::SendCall => "send_call",
            Kind::RecvPost => "recv_post",
            Kind::RecvWait => "recv_wait",
            Kind::SendWait => "send_wait",
            Kind::Verify => "verify",
            Kind::Submit => "submit",
            Kind::NextTx => "next_tx",
            Kind::OnTxDone => "on_tx_done",
            Kind::OnFrame => "on_frame",
            Kind::TryRecv => "try_recv",
        }
    }
}

/// No parent / no message.
pub const NONE: u32 = u32::MAX;
const NO_MSG: u64 = u64::MAX;

struct Span {
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    msg: u64,
}

pub struct Tracer {
    /// Off: every call below returns at once and the drivers skip their
    /// extra timestamps, which is the untraced code path.
    pub on: bool,
    layer: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    /// Total nanoseconds per kind, over every span.
    totals: [u64; KINDS],
    /// Per-span durations of the kinds reported as medians.
    samples: [Vec<u32>; KINDS],
}

impl Tracer {
    pub fn off() -> Self {
        Tracer::new("", Instant::now(), 0, false)
    }

    pub fn new(layer: &'static str, epoch: Instant, cap: usize, on: bool) -> Self {
        Tracer {
            on,
            layer,
            epoch,
            spans: Vec::new(),
            cap,
            dropped: 0,
            totals: [0; KINDS],
            samples: Default::default(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id for children to point at.
    pub fn span(
        &mut self,
        kind: Kind,
        msg: Option<u64>,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return NONE;
        }
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        let k = kind as usize;
        self.totals[k] += dur;
        if kind.has_median() {
            self.samples[k].push(dur.min(u32::MAX as u64) as u32);
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NONE;
        }
        self.spans.push(Span {
            kind,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            msg: msg.unwrap_or(NO_MSG),
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a parent span whose end is not known yet.
    pub fn open(&mut self, kind: Kind, msg: u64, start: Instant) -> u32 {
        if !self.on || self.spans.len() >= self.cap {
            return NONE;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            kind,
            start_ns,
            end_ns: start_ns,
            parent: NONE,
            msg,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span from [`Tracer::open`] (a no-op for `NONE`).
    pub fn close(&mut self, id: u32, end: Instant) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
    }

    /// Total microseconds spent in spans of `kind`.
    pub fn total_us(&self, kind: Kind) -> f64 {
        self.totals[kind as usize] as f64 / 1e3
    }

    /// Median duration of `kind` in microseconds (0 when none was seen).
    pub fn median_us(&mut self, kind: Kind) -> f64 {
        crate::estimator::median_us(&mut self.samples[kind as usize]).unwrap_or(0.0)
    }
}

/// Render tracers and the run's metrics as one JSON document.
pub fn to_json(workload: &str, seed: u64, metrics_json: &str, tracers: &[Tracer]) -> String {
    let mut out = String::new();
    let dropped: u64 = tracers.iter().map(|t| t.dropped).sum();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since run start\",\
         \"spans_dropped\":{dropped},\"metrics\":{metrics_json},\"spans\":["
    );
    let mut base = 0u32;
    let mut first = true;
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"id\":{},\"name\":\"{}.{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                base + i as u32,
                t.layer,
                s.kind.name(),
                s.start_ns,
                s.end_ns
            );
            match s.parent {
                NONE => out.push_str("null"),
                p => {
                    let _ = write!(out, "{}", base + p);
                }
            }
            out.push_str(",\"msg\":");
            match s.msg {
                NO_MSG => out.push_str("null"),
                m => {
                    let _ = write!(out, "{m}");
                }
            }
            out.push('}');
        }
        base += t.spans.len() as u32;
    }
    out.push_str("\n]}\n");
    out
}
