//! The four workloads and the seeded message sources that feed them.

use std::sync::Arc;

use crate::adapter::{Bytes, Transport};
use crate::payload::{Expect, Rng, Template, HEADER};

/// How the single application thread drives the pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One message in flight, echoed back by the peer.
    PingPong,
    /// A sliding window of messages one way.
    Stream,
    /// A sliding window each way at once.
    Bidir,
}

/// Size classes of the engine's tracks, by segment size.
pub const PIO_THRESHOLD: usize = 8 << 10;
pub const RDV_THRESHOLD: usize = 32 << 10;
pub const CLASS_NAMES: [&str; 3] = ["small", "medium", "large"];

pub fn size_class(size: usize) -> usize {
    if size < PIO_THRESHOLD {
        0
    } else if size < RDV_THRESHOLD {
        1
    } else {
        2
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub transport: Transport,
    pub shape: Shape,
    /// Messages outstanding per direction.
    pub window: usize,
    /// Segments per message (equal parts of the message size).
    pub segs: usize,
    /// `Some(n)`: every message is `n` bytes; `None`: the bounded-Pareto mix.
    pub fixed_size: Option<usize>,
    /// Messages per direction on every fresh pair before anything is
    /// timed: about 50 ms of traffic.
    pub warmup_msgs: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tcp_pingpong_small",
        why: "one 64 B message in flight, echoed, over loopback TCP: per-message fixed cost \
              (wake-ups, idle poll, lock hand-offs, syscalls) is all there is",
        transport: Transport::Tcp,
        shape: Shape::PingPong,
        window: 1,
        segs: 1,
        fixed_size: Some(64),
        warmup_msgs: 300,
    },
    Workload {
        name: "tcp_stream_large",
        why: "window of 4 x 1 MiB single-segment messages one way over loopback TCP: per-byte \
              cost dominates (rendezvous, split over both sockets, CRC, copies, reassembly)",
        transport: Transport::Tcp,
        shape: Shape::Stream,
        window: 4,
        segs: 1,
        fixed_size: Some(1 << 20),
        warmup_msgs: 64,
    },
    Workload {
        name: "tcp_burst_multiseg",
        why: "window of 32 messages of 4 x 256 B segments one way over loopback TCP: the eager \
              track at rate, where aggregation, the pool and gather-write batching must win",
        transport: Transport::Tcp,
        shape: Shape::Stream,
        window: 32,
        segs: 4,
        fixed_size: Some(1024),
        warmup_msgs: 4_000,
    },
    Workload {
        name: "mem_mixed_bidir",
        why: "both ends send bounded-Pareto 64 B - 4 MiB sizes, 8 outstanding each way, on the \
              mem fabric: no syscalls, both directions share each engine, small queue behind large",
        transport: Transport::Mem,
        shape: Shape::Bidir,
        window: 8,
        segs: 1,
        fixed_size: None,
        warmup_msgs: MIX_LEN as u64,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The mixed workload's size multiset: `MIX_LEN` sizes at evenly spaced
/// quantiles of a bounded Pareto (shape 0.5) over 64 B - 4 MiB. The
/// multiset is the same for every seed, so no run draws a luckier tail
/// than another; the seed only decides the order within each cycle.
pub const MIX_LEN: usize = 512;
const MIX_MIN: f64 = 64.0;
const MIX_MAX: f64 = (4 << 20) as f64;
const MIX_ALPHA: f64 = 0.5;

fn mixed_sizes() -> Vec<usize> {
    let ratio = (MIX_MIN / MIX_MAX).powf(MIX_ALPHA);
    (0..MIX_LEN)
        .map(|i| {
            let u = (i as f64 + 0.5) / MIX_LEN as f64;
            let x = MIX_MIN / (1.0 - u * (1.0 - ratio)).powf(1.0 / MIX_ALPHA);
            (x as usize).clamp(MIX_MIN as usize, MIX_MAX as usize)
        })
        .collect()
}

impl Workload {
    /// The multiset of message sizes one cycle of a source goes through.
    /// Fixed-size workloads get enough identical slots that a buffer is
    /// free again by the time its slot comes round.
    pub fn sizes(&self) -> Vec<usize> {
        match self.fixed_size {
            Some(n) => vec![n; 2 * self.window + 2],
            None => mixed_sizes(),
        }
    }

    pub fn max_size(&self) -> usize {
        self.sizes().into_iter().max().expect("non-empty multiset")
    }
}

/// One direction's message source: sizes in seeded order, payload buffers
/// recycled per slot, and the expectation the receiver checks against.
pub struct Source {
    template: Arc<Template>,
    sizes: Vec<usize>,
    order: Vec<u32>,
    pos: usize,
    rng: Rng,
    /// The last message sent from each slot; its buffer is reclaimed
    /// without a copy once the engine and the receiver have let go of it.
    slots: Vec<Option<Bytes>>,
    segs: usize,
    next_seq: u64,
}

impl Source {
    pub fn new(w: &Workload, template: Arc<Template>, seed: u64, direction: u64) -> Self {
        let sizes = w.sizes();
        assert!(sizes
            .iter()
            .all(|&s| s >= HEADER && s <= template.max_size()));
        let n = sizes.len();
        // The first cycle, which is the first pair's warm-up, runs in one
        // fixed order so that `peak_rss_mib` does not depend on the seed;
        // every later cycle is shuffled by the seed.
        let mut order: Vec<u32> = (0..n as u32).collect();
        Rng::new(0x6669_7273_7420_6379).shuffle(&mut order);
        Source {
            template,
            sizes,
            order,
            pos: 0,
            rng: Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ direction),
            slots: vec![None; n],
            segs: w.segs,
            // Directions number their messages apart, so a message that
            // crossed over would fail the sequence check.
            next_seq: direction << 56,
        }
    }

    /// The next message and what its receiver must find.
    pub fn next(&mut self) -> (Vec<Bytes>, Expect) {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        let slot = self.order[self.pos] as usize;
        self.pos += 1;
        let size = self.sizes[slot];
        let seq = self.next_seq;
        self.next_seq += 1;

        // `Vec::from(Bytes)` hands the allocation back when this is the
        // last handle to it and copies otherwise, which is still correct.
        let mut buf: Vec<u8> = self.slots[slot].take().map(Vec::from).unwrap_or_default();
        self.template.fill(&mut buf, seq, size);
        let whole = Bytes::from(buf);
        let segments = if self.segs == 1 {
            vec![whole.clone()]
        } else {
            let part = size / self.segs;
            (0..self.segs)
                .map(|i| {
                    let end = if i + 1 == self.segs {
                        size
                    } else {
                        (i + 1) * part
                    };
                    whole.slice(i * part..end)
                })
                .collect()
        };
        self.slots[slot] = Some(whole);
        (segments, self.template.expect(seq, size, self.segs))
    }
}
