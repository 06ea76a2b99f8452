//! Instrument (a) of the layer ledger: the benchmark's own single-threaded
//! loop runtime. It drives two bare `Engine`s through the workload's
//! exact message schedule the way the `nmad-core` crate doc-test does
//! (offer idle rails, complete the injection, hand the frame to the
//! peer), timing every public call and counting decisions. No thread, no
//! lock and no socket is involved, so what it measures is `core` + `wire`
//! alone; a real transport's latency minus this is what the transport's
//! runtime adds.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::adapter::{Bytes, CoreEngine, Frame, RecvTicket, SendTicket};
use crate::payload::{Expect, Template};
use crate::trace::{Kind, Tracer, NONE};
use crate::workload::{Shape, Source, Workload};

/// What the loop counted besides the per-call times kept in the tracer.
#[derive(Default)]
pub struct LoopCounts {
    pub msgs: u64,
    pub payload_bytes: u64,
    pub failed: u64,
    pub frames: u64,
    pub wire_bytes: u64,
    pub rail_wire_bytes: Vec<u64>,
    pub elapsed: Duration,
    /// A sample of the frames `next_tx` produced, for the decode timing.
    pub captured: Vec<Frame>,
}

/// Frames kept for `wire.decode_us_per_frame`, bounded by count and bytes.
const CAPTURE_FRAMES: usize = 512;
const CAPTURE_BYTES: usize = 64 << 20;

struct Pending {
    send: SendTicket,
    recv: RecvTicket,
    expect: Expect,
}

/// Time one call into the engine as a span of `kind`.
fn timed<T>(tr: &mut Tracer, kind: Kind, msg: Option<u64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    tr.span(kind, msg, NONE, t0, Instant::now());
    out
}

struct Loop<'a> {
    engines: [CoreEngine; 2],
    /// `pending[d]`: messages in flight from engine `d` to engine `1 - d`.
    pending: [VecDeque<Pending>; 2],
    template: &'a Template,
    counts: LoopCounts,
    captured_bytes: usize,
}

impl Loop<'_> {
    /// Post the receive on the peer, then submit on engine `dir`.
    fn submit(&mut self, dir: usize, segments: Vec<Bytes>, expect: Expect, tr: &mut Tracer) {
        let seq = Some(expect.seq);
        let recv = timed(tr, Kind::TryRecv, seq, || self.engines[1 - dir].post_recv());
        let send = timed(tr, Kind::Submit, seq, || self.engines[dir].submit(segments));
        self.pending[dir].push_back(Pending { send, recv, expect });
    }

    /// Offer every rail of both engines until nothing moves.
    fn pump(&mut self, tr: &mut Tracer) -> Result<(), String> {
        loop {
            let mut progressed = false;
            for dir in 0..2 {
                for rail in 0..self.engines[dir].rails() {
                    let Some(d) =
                        timed(tr, Kind::NextTx, None, || self.engines[dir].next_tx(rail))?
                    else {
                        continue;
                    };
                    progressed = true;
                    let len = d.frame.wire_len();
                    self.counts.frames += 1;
                    self.counts.wire_bytes += len as u64;
                    self.counts.rail_wire_bytes[rail] += len as u64;
                    if self.counts.captured.len() < CAPTURE_FRAMES
                        && self.captured_bytes + len <= CAPTURE_BYTES
                    {
                        self.captured_bytes += len;
                        self.counts.captured.push(d.frame.clone());
                    }
                    timed(tr, Kind::OnTxDone, None, || {
                        self.engines[dir].on_tx_done(rail, &d)
                    })?;
                    timed(tr, Kind::OnFrame, None, || {
                        self.engines[1 - dir].on_frame(rail, &d.frame)
                    })?;
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// Take every delivered message of direction `dir`, oldest first.
    fn harvest(&mut self, dir: usize, tr: &mut Tracer) -> Vec<(Vec<Bytes>, Expect)> {
        let mut out = Vec::new();
        while let Some(p) = self.pending[dir].front() {
            let seq = Some(p.expect.seq);
            let (recv, send) = (p.recv, p.send);
            let Some(segments) = timed(tr, Kind::TryRecv, seq, || {
                self.engines[1 - dir].try_recv(recv)
            }) else {
                break;
            };
            let sent = timed(tr, Kind::Submit, seq, || {
                self.engines[dir].send_complete(send)
            });
            let p = self.pending[dir].pop_front().expect("front exists");
            if sent && self.template.verify_segments(&segments, &p.expect).is_ok() {
                self.counts.msgs += 1;
                self.counts.payload_bytes += p.expect.size as u64;
            } else {
                self.counts.failed += 1;
            }
            out.push((segments, p.expect));
        }
        out
    }
}

/// Run the workload's schedule through the loop runtime for `duration`.
/// Per-call times land in `tr` under the `core` layer: `Submit` covers
/// `submit_send` + `send_complete`, `TryRecv` covers `post_recv` +
/// `try_recv`, the other three are the calls of their name.
pub fn run(
    w: &Workload,
    template: &Template,
    sources: &mut [Source; 2],
    duration: Duration,
    tr: &mut Tracer,
) -> Result<LoopCounts, String> {
    let engines = [CoreEngine::new(), CoreEngine::new()];
    let rails = engines[0].rails();
    let mut lp = Loop {
        engines,
        pending: [VecDeque::new(), VecDeque::new()],
        template,
        counts: LoopCounts {
            rail_wire_bytes: vec![0; rails],
            ..Default::default()
        },
        captured_bytes: 0,
    };
    let dirs = if w.shape == Shape::Bidir { 2 } else { 1 };
    let t0 = Instant::now();
    loop {
        let more = t0.elapsed() < duration && lp.counts.failed == 0;
        if more {
            for (dir, source) in sources.iter_mut().enumerate().take(dirs) {
                while lp.pending[dir].len() < w.window {
                    let (segments, expect) = source.next();
                    lp.submit(dir, segments, expect, tr);
                }
            }
        }
        lp.pump(tr)?;
        let mut settled = 0;
        for dir in 0..dirs {
            for (segments, expect) in lp.harvest(dir, tr) {
                settled += 1;
                if w.shape == Shape::PingPong {
                    // The far engine echoes the delivered bytes themselves.
                    lp.submit(1, segments, expect, tr);
                    lp.pump(tr)?;
                    settled += lp.harvest(1, tr).len();
                }
            }
        }
        if settled == 0 {
            if lp.pending.iter().any(|p| !p.is_empty()) {
                return Err("loop runtime stalled with messages in flight".into());
            }
            if !more {
                break;
            }
        }
    }
    lp.counts.elapsed = t0.elapsed();
    Ok(lp.counts)
}
