//! Do-nothing baselines: the same message schedule with no engine at all.
//!
//! TCP workloads are measured against raw `TcpStream`s (an echo for the
//! ping-pong, `write_vectored` over two sockets for the streams), the mem
//! workload against a bare `memcpy`. The baseline runs on the application
//! thread, like everything else, and its deliveries go through the same
//! verifier. A window is moved as one batch: all of it is written, then
//! all of it is read, so a raw latency is relative to the batch start.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use crate::adapter::{Bytes, Transport};
use crate::drive::{Stop, Trial};
use crate::payload::Template;
use crate::workload::{Shape, Source, Workload, RDV_THRESHOLD};

/// Two connected loopback socket pairs, one per rail of the real run.
pub struct RawTcp {
    near: [TcpStream; 2],
    far: [TcpStream; 2],
}

fn socket_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let near = TcpStream::connect(listener.local_addr()?)?;
    let (far, _) = listener.accept()?;
    for s in [&near, &far] {
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
    }
    Ok((near, far))
}

impl RawTcp {
    fn new() -> io::Result<Self> {
        let (n0, f0) = socket_pair()?;
        let (n1, f1) = socket_pair()?;
        Ok(RawTcp {
            near: [n0, n1],
            far: [f0, f1],
        })
    }

    /// One small message over socket 0, there (`back` false) or back:
    /// write it, spin until it is read.
    fn one(&self, back: bool, src: &[u8], dest: &mut [u8]) -> io::Result<()> {
        let (mut tx, mut rx) = if back {
            (&self.far[0], &self.near[0])
        } else {
            (&self.near[0], &self.far[0])
        };
        let mut sent = 0;
        while sent < src.len() {
            sent += nb(tx.write(&src[sent..]))?;
        }
        let mut got = 0;
        while got < dest.len() {
            got += nb(rx.read(&mut dest[got..]))?;
        }
        Ok(())
    }

    /// Move a batch from the near end to the far end: messages of
    /// rendezvous size are split in halves over both sockets, smaller ones
    /// alternate between them.
    fn batch(
        &self,
        msgs: &[Vec<Bytes>],
        dests: &mut [Vec<u8>],
        done: &mut [Instant],
    ) -> io::Result<()> {
        let (tx, rx) = (&self.near, &self.far);
        let mut writes: [Vec<IoSlice<'_>>; 2] = [Vec::new(), Vec::new()];
        // Per socket: (message, next byte, end byte) still to be read.
        let mut reads: [VecDeque<(usize, usize, usize)>; 2] = [VecDeque::new(), VecDeque::new()];
        let mut parts_left = vec![0u8; msgs.len()];
        for (i, msg) in msgs.iter().enumerate() {
            let total: usize = msg.iter().map(|s| s.len()).sum();
            let cut = if total >= RDV_THRESHOLD {
                total / 2
            } else if i % 2 == 0 {
                total
            } else {
                0
            };
            let mut at = 0;
            for seg in msg {
                let head = cut.saturating_sub(at).min(seg.len());
                if head > 0 {
                    writes[0].push(IoSlice::new(&seg[..head]));
                }
                if head < seg.len() {
                    writes[1].push(IoSlice::new(&seg[head..]));
                }
                at += seg.len();
            }
            for (s, (from, to)) in [(0, cut), (cut, total)].into_iter().enumerate() {
                if from < to {
                    reads[s].push_back((i, from, to));
                    parts_left[i] += 1;
                }
            }
        }
        let mut wrote = [0usize; 2];
        while reads.iter().any(|r| !r.is_empty()) {
            for s in 0..2 {
                if wrote[s] < writes[s].len() {
                    let total = writes[s].len();
                    let mut rest = &mut writes[s][wrote[s]..];
                    // IOV_MAX bounds one gather list.
                    let take = rest.len().min(1024);
                    let n = nb((&tx[s]).write_vectored(&rest[..take]))?;
                    IoSlice::advance_slices(&mut rest, n);
                    wrote[s] = total - rest.len();
                }
                if let Some(&(i, at, end)) = reads[s].front() {
                    let n = nb((&rx[s]).read(&mut dests[i][at..end]))?;
                    if at + n == end {
                        reads[s].pop_front();
                        parts_left[i] -= 1;
                        if parts_left[i] == 0 {
                            done[i] = Instant::now();
                        }
                    } else if let Some(front) = reads[s].front_mut() {
                        front.1 = at + n;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Result of a non-blocking transfer: a call that would block moved
/// nothing, and one that moved nothing without blocking means the peer
/// closed (callers never pass an empty buffer).
fn nb(r: io::Result<usize>) -> io::Result<usize> {
    match r {
        Ok(0) => Err(ErrorKind::ConnectionAborted.into()),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(0),
        other => other,
    }
}

/// The baseline for a workload, with its receive buffers.
pub struct Raw {
    tcp: Option<RawTcp>,
    dests: Vec<Vec<u8>>,
}

impl Raw {
    pub fn new(w: &Workload) -> io::Result<Self> {
        let tcp = match w.transport {
            Transport::Tcp => Some(RawTcp::new()?),
            Transport::Mem => None,
        };
        Ok(Raw {
            tcp,
            // The ping-pong needs a second buffer for the echo.
            dests: vec![vec![0u8; w.max_size()]; w.window.max(2)],
        })
    }

    /// Move one batch and verify every message.
    fn batch(
        &mut self,
        template: &Template,
        source: &mut Source,
        count: usize,
        trial: &mut Trial,
    ) -> io::Result<()> {
        let (msgs, expects): (Vec<_>, Vec<_>) = (0..count).map(|_| source.next()).unzip();
        let t0 = Instant::now();
        let mut done = vec![t0; count];
        match &self.tcp {
            Some(tcp) => tcp.batch(&msgs, &mut self.dests, &mut done)?,
            None => {
                for (i, msg) in msgs.iter().enumerate() {
                    let mut at = 0;
                    for seg in msg {
                        self.dests[i][at..at + seg.len()].copy_from_slice(seg);
                        at += seg.len();
                    }
                    done[i] = Instant::now();
                }
            }
        }
        for (i, e) in expects.iter().enumerate() {
            trial.attempted += 1;
            let got = std::hint::black_box(&self.dests[i][..e.size]);
            trial.settle(
                template.verify(std::iter::once(got), e),
                e,
                done[i].duration_since(t0),
            );
        }
        Ok(())
    }

    /// One round trip of the ping-pong: the far end echoes what it read.
    fn round_trip(
        &mut self,
        template: &Template,
        source: &mut Source,
        trial: &mut Trial,
    ) -> io::Result<()> {
        let tcp = self.tcp.as_ref().expect("the ping-pong is a TCP workload");
        let (msg, e) = source.next();
        let (there, back) = self.dests.split_at_mut(1);
        let (there, back) = (&mut there[0][..e.size], &mut back[0][..e.size]);
        trial.attempted += 2;
        let t0 = Instant::now();
        tcp.one(false, &msg[0], there)?;
        let t1 = Instant::now();
        trial.settle(template.verify(std::iter::once(&*there), &e), &e, t1 - t0);
        let t2 = Instant::now();
        tcp.one(true, there, back)?;
        let t3 = Instant::now();
        trial.settle(template.verify(std::iter::once(&*back), &e), &e, t3 - t2);
        Ok(())
    }

    /// One baseline trial of the workload's schedule.
    pub fn trial(
        &mut self,
        w: &Workload,
        template: &Template,
        sources: &mut [Source; 2],
        stop: Stop,
    ) -> io::Result<Trial> {
        let mut trial = Trial::default();
        let t0 = Instant::now();
        let mut rounds = 0u64;
        while stop.more(t0, rounds * w.window as u64) && trial.failed == 0 {
            rounds += 1;
            match w.shape {
                Shape::PingPong => self.round_trip(template, &mut sources[0], &mut trial)?,
                Shape::Stream => self.batch(template, &mut sources[0], w.window, &mut trial)?,
                Shape::Bidir => {
                    for source in sources.iter_mut() {
                        self.batch(template, source, w.window, &mut trial)?;
                    }
                }
            }
        }
        trial.elapsed = t0.elapsed();
        Ok(trial)
    }
}
