//! The reassembler's one slot per message, driven against a reference
//! model: arbitrary interleavings of eager runs, chunks over two rails
//! (each rail's in order), duplicates, ids beyond the window, aborts,
//! tags set before and after arrival, takes at any time and zero-length
//! segments. Every answer is the model's, and at the end every message
//! was completed exactly once and is handed over byte for byte, its
//! segments in order.

use std::collections::VecDeque;

use bytes::Bytes;
use proptest::prelude::*;

use nmad_sim::Xoshiro256StarStar as Rng;
use nmad_wire::agg::AggregateEntry;
use nmad_wire::reassembly::{ReasmError, Reassembler, MAX_SPAN};
use nmad_wire::MsgId;

/// One segment as generated: length, sent chunked, cut points, chunks
/// sliced out of the segment (as on the mem fabric) or copied (as TCP
/// frames bring them).
type SegSpec = (usize, bool, Vec<usize>, bool);

#[derive(Clone, Debug)]
enum Piece {
    Eager(MsgId, u16),
    Chunk(MsgId, u16, u64, Bytes),
}

/// What the model knows of one message.
#[derive(Clone, Debug, Default)]
struct Model {
    /// Something arrived since it was made or aborted.
    arrived: bool,
    whole: Vec<bool>,
    /// Per chunked segment, which bytes are held.
    covered: Vec<Vec<bool>>,
    complete: bool,
    taken: bool,
    tag: Option<u32>,
    completions: u32,
}

impl Model {
    fn new(segs: usize) -> Self {
        Model {
            whole: vec![false; segs],
            covered: vec![Vec::new(); segs],
            ..Model::default()
        }
    }

    fn reset(&mut self) {
        *self = Model {
            tag: self.tag,
            ..Model::new(self.whole.len())
        };
    }

    fn finished(&self) -> bool {
        self.complete || self.taken
    }

    /// The segment is whole now: the tag if that completed the message.
    fn land(&mut self, seg: usize) -> Option<Option<u32>> {
        self.whole[seg] = true;
        self.complete = self.whole.iter().all(|&w| w);
        self.completions += u32::from(self.complete);
        self.complete.then_some(self.tag)
    }
}

fn segment_bytes(msg: usize, seg: usize, len: usize) -> Bytes {
    (0..len)
        .map(|i| (msg * 31 + seg * 7 + i) as u8)
        .collect::<Vec<_>>()
        .into()
}

struct Run {
    r: Reassembler<Option<u32>>,
    sources: Vec<Vec<Bytes>>,
    model: Vec<Model>,
    /// Every piece handed in so far, for duplicates.
    seen: Vec<Piece>,
    rng: Rng,
}

impl Run {
    fn total_segs(&self, msg: MsgId) -> u16 {
        self.sources[msg as usize].len() as u16
    }

    /// A run of eager segments of one message, as an aggregate brings
    /// them: checked against the model one by one. The ones not taken go
    /// back to the front of `stream`.
    fn eager_run(&mut self, pieces: Vec<(MsgId, u16)>, stream: &mut VecDeque<Piece>) {
        let msg = pieces[0].0;
        let total_segs = self.total_segs(msg);
        let mut entries: Vec<AggregateEntry> = pieces
            .iter()
            .map(|&(msg_id, seg_index)| AggregateEntry {
                conn_id: 0,
                msg_id,
                seg_index,
                total_segs,
                data: self.sources[msg as usize][seg_index as usize].clone(),
            })
            .collect();
        // The model's answer, entry by entry, up to the first error or
        // the completion.
        let m = &mut self.model[msg as usize];
        let (mut want_taken, mut want) = (0, Ok(None));
        for &(_, seg) in &pieces {
            if m.finished() || m.whole[seg as usize] {
                m.arrived |= !m.finished();
                want = Err(ReasmError::DuplicateSegment {
                    msg_id: msg,
                    seg_index: seg,
                });
                break;
            }
            m.arrived = true;
            want_taken += 1;
            if let Some(tag) = m.land(seg as usize) {
                want = Ok(Some(tag));
                break;
            }
        }
        let (taken, got) = self.r.insert_eager_run(&mut entries);
        assert_eq!((taken, &got), (want_taken, &want), "eager run {pieces:?}");
        let refused = usize::from(got.is_err());
        for &(msg, seg) in pieces[taken + refused..].iter().rev() {
            stream.push_front(Piece::Eager(msg, seg));
        }
        for &(msg, seg) in &pieces[..taken + refused] {
            self.seen.push(Piece::Eager(msg, seg));
        }
    }

    fn chunk(&mut self, msg: MsgId, seg: u16, offset: u64, data: Bytes) {
        let total_segs = self.total_segs(msg);
        let total_len = self.sources[msg as usize][seg as usize].len();
        let m = &mut self.model[msg as usize];
        let want = if m.finished() {
            (None, 0)
        } else {
            m.arrived = true;
            let covered = &mut m.covered[seg as usize];
            covered.resize(total_len, false);
            let range = offset as usize..offset as usize + data.len();
            let new = covered[range.clone()].iter().filter(|&&c| !c).count() as u64;
            covered[range].iter_mut().for_each(|c| *c = true);
            let whole = new > 0 && covered.iter().all(|&c| c);
            (whole.then(|| m.land(seg as usize)).flatten(), new)
        };
        let got = self
            .r
            .insert_chunk_lenient(msg, seg, total_segs, offset, total_len as u64, data.clone())
            .expect("a chunk of a known segment");
        assert_eq!(got, want, "chunk {msg}/{seg} at {offset}");
        self.seen.push(Piece::Chunk(msg, seg, offset, data));
    }

    fn deliver(&mut self, piece: Piece, stream: &mut VecDeque<Piece>) {
        match piece {
            Piece::Eager(msg, seg) => {
                // Up to two more of the same message's eager segments
                // from the same stream ride along, as in an aggregate.
                let mut run = vec![(msg, seg)];
                while run.len() < 3 && self.rng.chance(0.5) {
                    match stream.front() {
                        Some(&Piece::Eager(m, s)) if m == msg => {
                            stream.pop_front();
                            run.push((m, s));
                        }
                        _ => break,
                    }
                }
                self.eager_run(run, stream);
            }
            Piece::Chunk(msg, seg, offset, data) => self.chunk(msg, seg, offset, data),
        }
    }

    fn take(&mut self, msg: MsgId) {
        let m = &mut self.model[msg as usize];
        let got = self.r.take(msg);
        if m.complete && !m.taken {
            m.taken = true;
            let got = got.expect("complete and not taken");
            assert_eq!(got.msg_id, msg);
            assert_eq!(got.segments, self.sources[msg as usize], "message {msg}");
        } else {
            assert!(got.is_none(), "message {msg} handed over twice or early");
        }
    }

    fn check(&self) {
        for (msg, m) in self.model.iter().enumerate() {
            assert_eq!(self.r.delivered(msg as MsgId), m.finished(), "{msg}");
        }
        let in_flight = self.model.iter().filter(|m| m.arrived && !m.finished());
        assert_eq!(self.r.in_flight(), in_flight.count());
    }
}

/// Every message of `msgs` through one reassembler in the order `seed`
/// makes up.
fn drive(msgs: &[Vec<SegSpec>], seed: u64) {
    let mut rng = Rng::new(seed);
    let sources: Vec<Vec<Bytes>> = msgs
        .iter()
        .enumerate()
        .map(|(m, segs)| {
            let segs = segs.iter().enumerate();
            segs.map(|(s, &(len, ..))| segment_bytes(m, s, len))
                .collect()
        })
        .collect();
    // The streams that arrive interleaved: one per message for its eager
    // segments (in an order of their own) and one per rail per chunked
    // segment, in order.
    let streams_of = |msg: usize, rng: &mut Rng| {
        let mut eager = Vec::new();
        let mut rails = vec![VecDeque::new(), VecDeque::new()];
        for (seg, (len, chunked, cuts, aliased)) in msgs[msg].iter().enumerate() {
            let (id, seg_index) = (msg as MsgId, seg as u16);
            if !chunked || *len == 0 {
                eager.push(Piece::Eager(id, seg_index));
                continue;
            }
            let mut at: Vec<usize> = cuts.iter().map(|c| c % len).collect();
            at.extend([0, *len]);
            at.sort_unstable();
            at.dedup();
            let source = &sources[msg][seg];
            for w in at.windows(2) {
                let data = match aliased {
                    true => source.slice(w[0]..w[1]),
                    false => Bytes::copy_from_slice(&source[w[0]..w[1]]),
                };
                let rail = rng.range_usize(0, 2);
                rails[rail].push_back(Piece::Chunk(id, seg_index, w[0] as u64, data));
            }
        }
        rng.shuffle(&mut eager);
        let mut streams = vec![VecDeque::from(eager)];
        streams.extend(rails);
        streams
    };
    let mut streams: Vec<VecDeque<Piece>> = Vec::new();
    for msg in 0..msgs.len() {
        streams.extend(streams_of(msg, &mut rng));
    }
    let mut run = Run {
        r: Reassembler::default(),
        model: sources.iter().map(|s| Model::new(s.len())).collect(),
        sources: sources.clone(),
        seen: Vec::new(),
        rng: Rng::new(seed ^ 0x5eed),
    };
    let n = msgs.len() as MsgId;
    let mut aborts = 3;
    loop {
        streams.retain(|s| !s.is_empty());
        if streams.is_empty() {
            break;
        }
        let msg = rng.range_u64(0, n);
        match rng.range_usize(0, 20) {
            0 if aborts > 0 => {
                aborts -= 1;
                let m = &mut run.model[msg as usize];
                let want = m.arrived && !m.finished();
                assert_eq!(run.r.abort(msg), want, "abort {msg}");
                if want {
                    // Everything it had must come again.
                    m.reset();
                    streams.extend(streams_of(msg as usize, &mut rng));
                }
            }
            1 => run.take(msg),
            2 => {
                let m = &mut run.model[msg as usize];
                let tag = run.r.tag_mut(msg);
                assert_eq!(tag.is_some(), !m.taken, "tag {msg}");
                if let Some(tag) = tag {
                    *tag = Some(100 + msg as u32);
                    m.tag = *tag;
                }
            }
            3 => {
                let far = MAX_SPAN + n + rng.range_u64(0, 1 << 20);
                let span = run.r.span();
                let err = run.r.insert_eager(far, 0, 1, Bytes::new());
                assert_eq!(err, Err(ReasmError::OutOfWindow { msg_id: far }));
                assert_eq!(run.r.span(), span, "nothing made for it");
            }
            4 if !run.seen.is_empty() => {
                let again = run.seen[rng.range_usize(0, run.seen.len())].clone();
                run.deliver(again, &mut VecDeque::new());
            }
            _ => {
                let at = rng.range_usize(0, streams.len());
                let piece = streams[at].pop_front().expect("non-empty");
                run.deliver(piece, &mut streams[at]);
            }
        }
        run.check();
    }
    for msg in 0..n {
        run.take(msg);
    }
    run.check();
    for (msg, m) in run.model.iter().enumerate() {
        assert_eq!(m.completions, 1, "message {msg} completed once");
    }
    assert_eq!(run.r.completed_count(), n);
    assert_eq!(run.r.span(), 0, "every slot retired");
}

fn arb_message() -> impl Strategy<Value = Vec<SegSpec>> {
    let seg = (
        0usize..300,
        any::<bool>(),
        prop::collection::vec(any::<usize>(), 0..4),
        any::<bool>(),
    );
    prop::collection::vec(seg, 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_merged_slot_answers_as_the_model_and_delivers_each_message_once(
        msgs in prop::collection::vec(arb_message(), 1..10),
        seed in any::<u64>(),
    ) {
        drive(&msgs, seed);
    }
}

#[test]
fn a_fixed_mix_with_every_kind_of_segment() {
    // Eager, empty, chunked and aliased, chunked and copied, 70 segments
    // (past the inline bits).
    let mut msgs = vec![
        vec![(5, false, vec![], false), (0, false, vec![], false)],
        vec![(200, true, vec![50, 120], true), (64, false, vec![], false)],
        vec![(300, true, vec![1, 2, 299], false)],
    ];
    msgs.push(
        (0..70)
            .map(|i| (i % 5, i % 3 == 0, vec![i], i % 2 == 0))
            .collect(),
    );
    for seed in 0..64 {
        drive(&msgs, seed);
    }
}
