//! The closed-loop drivers: one application thread drives both endpoints
//! of a pair through `Endpoint::{send, recv}` and the handles' `wait`,
//! because the library's callers are MPI-style peers that wait for a
//! reply. No second generator thread exists anywhere in the benchmark.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::adapter::{Bytes, End, Rx, Tx};
use crate::payload::{Expect, Fail, Template, HEADER};
use crate::trace::{Kind, Tracer};
use crate::workload::{size_class, Shape, Source, Workload};

/// A message that has not arrived after this long has failed.
pub const TIMEOUT: Duration = Duration::from_secs(20);

/// When a trial stops submitting new messages.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    /// Messages per direction (round trips on the ping-pong).
    Messages(u64),
}

impl Stop {
    /// Whether a trial that began at `t0` and has submitted `done` messages
    /// (or round trips) should submit another.
    pub fn more(self, t0: Instant, done: u64) -> bool {
        match self {
            Stop::After(d) => t0.elapsed() < d,
            Stop::Messages(n) => done < n,
        }
    }
}

/// What one trial measured.
#[derive(Default)]
pub struct Trial {
    /// Verified messages and their payload bytes.
    pub msgs: u64,
    pub bytes: u64,
    pub elapsed: Duration,
    /// Submit to delivery per verified message in ns, by size class.
    pub lats: [Vec<u32>; 3],
    pub attempted: u64,
    pub failed: u64,
    pub first_fail: Option<Fail>,
}

impl Trial {
    pub fn goodput_mbs(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// Median latency over all classes in microseconds.
    pub fn lat_p50_us(&self) -> f64 {
        let mut all: Vec<u32> = self.lats.iter().flatten().copied().collect();
        crate::estimator::median_us(&mut all).unwrap_or(f64::NAN)
    }

    /// Count one delivered (or missing) message.
    pub fn settle(&mut self, outcome: Result<(), Fail>, e: &Expect, lat: Duration) {
        match outcome {
            Ok(()) => {
                self.msgs += 1;
                self.bytes += e.size as u64;
                self.lats[size_class(e.size / e.segs)]
                    .push(lat.as_nanos().min(u32::MAX as u128) as u32);
            }
            Err(f) => {
                self.failed += 1;
                self.first_fail.get_or_insert(f);
            }
        }
    }
}

/// How `selftest` damages a delivered copy.
#[derive(Clone, Copy, Debug)]
pub enum Damage {
    /// One bit of the last byte changes.
    FlipByte,
    /// The first two words after the header change places, both intact:
    /// what a reassembly that puts chunks at the wrong offsets does.
    SwapWords,
}

/// Hook for `selftest`: damage the copy delivered for this sequence number
/// before it is verified.
pub type Corrupt = Option<(u64, Damage)>;

fn corrupted(segments: &[Bytes], e: &Expect, corrupt: Corrupt) -> Option<Vec<Bytes>> {
    let (_, damage) = corrupt.filter(|&(seq, _)| seq == e.seq)?;
    let mut copy: Vec<Vec<u8>> = segments.iter().map(|s| s.to_vec()).collect();
    match damage {
        Damage::FlipByte => *copy.last_mut()?.last_mut()? ^= 0x01,
        Damage::SwapWords => {
            let (a, b) = copy
                .first_mut()?
                .get_mut(HEADER..HEADER + 16)?
                .split_at_mut(8);
            a.swap_with_slice(b);
        }
    }
    Some(copy.into_iter().map(Bytes::from).collect())
}

struct InFlight {
    tx: Tx,
    rx: Rx,
    expect: Expect,
    submitted: Instant,
    root: u32,
}

/// One direction of traffic with its sliding window.
struct Flow<'a> {
    from: &'a End,
    to: &'a End,
    source: &'a mut Source,
    template: &'a Template,
    window: usize,
    inflight: VecDeque<InFlight>,
    sent: u64,
    corrupt: Corrupt,
}

impl<'a> Flow<'a> {
    fn new(
        from: &'a End,
        to: &'a End,
        source: &'a mut Source,
        template: &'a Template,
        window: usize,
        corrupt: Corrupt,
    ) -> Self {
        Flow {
            from,
            to,
            source,
            template,
            window,
            inflight: VecDeque::new(),
            sent: 0,
            corrupt,
        }
    }

    /// Post the receive, then submit the send (a pre-posted receive is
    /// what lets a rendezvous be granted at once).
    fn submit(&mut self, trial: &mut Trial, tr: &mut Tracer) {
        let (segments, expect) = self.source.next();
        let t0 = Instant::now();
        let root = tr.open(Kind::Msg, expect.seq, t0);
        let rx = self.to.recv();
        let t1 = if tr.on { Instant::now() } else { t0 };
        tr.span(Kind::RecvPost, Some(expect.seq), root, t0, t1);
        let tx = self.from.send(segments);
        if tr.on {
            tr.span(Kind::SendCall, Some(expect.seq), root, t1, Instant::now());
        }
        trial.attempted += 1;
        self.sent += 1;
        self.inflight.push_back(InFlight {
            tx,
            rx,
            expect,
            submitted: t1,
            root,
        });
    }

    fn refill(&mut self, stop: Stop, t0: Instant, trial: &mut Trial, tr: &mut Tracer) {
        while self.inflight.len() < self.window {
            if !stop.more(t0, self.sent) || trial.failed > 0 {
                return;
            }
            self.submit(trial, tr);
        }
    }

    /// The oldest message arrived at `at`: verify it, reap its send.
    fn complete(&mut self, segments: Vec<Bytes>, at: Instant, trial: &mut Trial, tr: &mut Tracer) {
        let m = self.inflight.pop_front().expect("a message in flight");
        let seq = Some(m.expect.seq);
        let flipped = corrupted(&segments, &m.expect, self.corrupt);
        let outcome = self
            .template
            .verify_segments(flipped.as_deref().unwrap_or(&segments), &m.expect);
        let t1 = if tr.on { Instant::now() } else { at };
        tr.span(Kind::Verify, seq, m.root, at, t1);
        let sent = m.tx.wait(TIMEOUT);
        if tr.on {
            tr.span(Kind::SendWait, seq, m.root, t1, Instant::now());
        }
        tr.close(m.root, at);
        let outcome = outcome.and(if sent { Ok(()) } else { Err(Fail::Timeout) });
        trial.settle(outcome, &m.expect, at.duration_since(m.submitted));
    }

    /// Wait up to `timeout` for the oldest message; true if it was settled.
    fn await_front(&mut self, timeout: Duration, trial: &mut Trial, tr: &mut Tracer) -> bool {
        let Some(front) = self.inflight.front() else {
            return false;
        };
        let t0 = if tr.on {
            Instant::now()
        } else {
            front.submitted
        };
        let got = front.rx.wait(timeout);
        let at = Instant::now();
        match got {
            Some(segments) => {
                if tr.on && !timeout.is_zero() {
                    let (seq, root) = (front.expect.seq, front.root);
                    tr.span(Kind::RecvWait, Some(seq), root, t0, at);
                }
                self.complete(segments, at, trial, tr);
                true
            }
            None if timeout.is_zero() => false,
            None => {
                let m = self.inflight.pop_front().expect("front exists");
                trial.settle(Err(Fail::Timeout), &m.expect, TIMEOUT);
                true
            }
        }
    }
}

/// Everything a trial needs besides its stop condition.
pub struct Rig<'a> {
    pub workload: &'a Workload,
    pub template: &'a Template,
    pub a: &'a End,
    pub b: &'a End,
    /// Message sources, one per direction (the second only on `Bidir`).
    pub sources: &'a mut [Source; 2],
    pub corrupt: Corrupt,
}

impl Rig<'_> {
    /// Run one trial of the workload's shape over the pair.
    pub fn trial(&mut self, stop: Stop, tr: &mut Tracer) -> Trial {
        let mut trial = Trial::default();
        let t0 = Instant::now();
        match self.workload.shape {
            Shape::PingPong => self.pingpong(stop, t0, &mut trial, tr),
            Shape::Stream | Shape::Bidir => self.windows(stop, t0, &mut trial, tr),
        }
        trial.elapsed = t0.elapsed();
        trial
    }

    fn windows(&mut self, stop: Stop, t0: Instant, trial: &mut Trial, tr: &mut Tracer) {
        let [fwd, back] = &mut *self.sources;
        let mut flows = vec![Flow::new(
            self.a,
            self.b,
            fwd,
            self.template,
            self.workload.window,
            self.corrupt,
        )];
        if self.workload.shape == Shape::Bidir {
            flows.push(Flow::new(
                self.b,
                self.a,
                back,
                self.template,
                self.workload.window,
                self.corrupt,
            ));
        }
        while trial.first_fail != Some(Fail::Timeout) {
            let mut progressed = false;
            for f in &mut flows {
                f.refill(stop, t0, trial, tr);
                // With traffic both ways, settle whatever has already
                // arrived on either side before blocking on one of them.
                while self.workload.shape == Shape::Bidir
                    && f.await_front(Duration::ZERO, trial, tr)
                {
                    f.refill(stop, t0, trial, tr);
                    progressed = true;
                }
            }
            if progressed {
                continue;
            }
            // Nothing ready: block on the message that has waited longest.
            let oldest = flows
                .iter_mut()
                .filter(|f| !f.inflight.is_empty())
                .min_by_key(|f| f.inflight.front().map(|m| m.submitted));
            match oldest {
                Some(f) => f.await_front(TIMEOUT, trial, tr),
                None => return,
            };
        }
    }

    fn pingpong(&mut self, stop: Stop, t0: Instant, trial: &mut Trial, tr: &mut Tracer) {
        let (a, b, template) = (self.a, self.b, self.template);
        let mut rounds = 0u64;
        loop {
            if !stop.more(t0, rounds) || trial.failed > 0 {
                return;
            }
            rounds += 1;
            let (segments, e) = self.sources[0].next();
            let seq = Some(e.seq);
            // Both receives are posted before the ping leaves, as a peer
            // that expects a reply would.
            let ts = Instant::now();
            let root = tr.open(Kind::Msg, e.seq, ts);
            let (ra, rb) = (a.recv(), b.recv());
            let t_ping = Instant::now();
            tr.span(Kind::RecvPost, seq, root, ts, t_ping);
            let sa = a.send(segments);
            let t_sent = if tr.on { Instant::now() } else { t_ping };
            tr.span(Kind::SendCall, seq, root, t_ping, t_sent);
            trial.attempted += 2;

            let Some(ping) = rb.wait(TIMEOUT) else {
                trial.settle(Err(Fail::Timeout), &e, TIMEOUT);
                trial.settle(Err(Fail::Timeout), &e, TIMEOUT);
                return;
            };
            let t_got = Instant::now();
            tr.span(Kind::RecvWait, seq, root, t_sent, t_got);
            let flipped = corrupted(&ping, &e, self.corrupt);
            let ping_ok = template.verify_segments(flipped.as_deref().unwrap_or(&ping), &e);
            trial.settle(ping_ok, &e, t_got.duration_since(t_ping));

            // The echo is the delivered bytes themselves.
            let t_pong = Instant::now();
            tr.span(Kind::Verify, seq, root, t_got, t_pong);
            let sb = b.send(ping);
            let t_sent = if tr.on { Instant::now() } else { t_pong };
            tr.span(Kind::SendCall, seq, root, t_pong, t_sent);
            let Some(pong) = ra.wait(TIMEOUT) else {
                trial.settle(Err(Fail::Timeout), &e, TIMEOUT);
                return;
            };
            let t_back = Instant::now();
            tr.span(Kind::RecvWait, seq, root, t_sent, t_back);
            let pong_ok = template.verify_segments(&pong, &e);
            let t_ver = if tr.on { Instant::now() } else { t_back };
            tr.span(Kind::Verify, seq, root, t_back, t_ver);
            let sent = sa.wait(TIMEOUT) && sb.wait(TIMEOUT);
            if tr.on {
                tr.span(Kind::SendWait, seq, root, t_ver, Instant::now());
            }
            tr.close(root, t_back);
            let pong_ok = pong_ok.and(if sent { Ok(()) } else { Err(Fail::Timeout) });
            trial.settle(pong_ok, &e, t_back.duration_since(t_pong));
        }
    }
}
