//! `FrameReader` and its `LandingTable` (`src/frame.rs`), compiled into a
//! test binary of their own: a global allocator is per binary, and this
//! one fills every fresh allocation with [`SENTINEL`] and counts, per
//! thread, the bytes asked for and the bytes live.
//!
//! The sentinel is what a byte nobody wrote reads as here. A landing
//! allocation is capacity nobody wrote (`bytes::Window::uninit`), which
//! in a receiver that has run a while holds an earlier message's bytes,
//! possibly another connection's. A frame that handed one of them to the
//! engine would hand over a run of sentinels here, so every delivery is
//! checked against what was sent and for that run.
//!
//! `cargo test -p nmad-transport-tcp --test frame_reader`.

#[path = "../src/frame.rs"]
mod frame;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{ErrorKind, Read};

use bytes::{Bytes, Window};
use frame::{
    FrameReader, LandingTable, Source, LANDING_BYTES, LANDING_ENTRIES, LANDING_FRAGMENTS,
    LANDING_OPEN_SHARE, LEN_PREFIX, MAX_FRAME, READ_CHUNK, SLABS, SLAB_FRAME_MAX, SLAB_LEN,
};
use nmad_core::SyscallStats;
use nmad_wire::{
    ChunkHead, ChunkPacket, ConnId, EagerPacket, FrameBody, MsgId, Packet, PacketFrame, Reassembler,
};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// The allocator
// ----------------------------------------------------------------------

/// Fills every fresh allocation (and the new tail of a grown one) with
/// [`SENTINEL`] — a defined read, unlike the uninitialised bytes it
/// stands for — and counts the calling thread's bytes (tests run on
/// threads of their own).
struct Sentinel;

/// What every byte of a fresh allocation holds until someone writes it.
const SENTINEL: u8 = 0xA5;
/// A run of this many sentinels in a frame is a byte nobody wrote: no
/// stream of these tests carries one.
const SENTINEL_RUN: usize = 8;

thread_local! {
    /// Bytes asked for, ever.
    static ASKED: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated and not freed, and the most there were since
    /// [`live_peak`] last looked.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(asked: usize, live: isize) {
    let _ = ASKED.try_with(|n| n.set(n.get() + asked));
    let _ = LIVE.try_with(|n| {
        n.set(n.get() + live);
        let _ = PEAK.try_with(|p| p.set(p.get().max(n.get())));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator, and
// the sentinel is written only over bytes the system allocator just
// handed out; the counters are plain thread-local integers with no
// destructor.
unsafe impl GlobalAlloc for Sentinel {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as isize);
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            // SAFETY: `ptr` is a fresh allocation of `layout.size()` bytes.
            unsafe { ptr.write_bytes(SENTINEL, layout.size()) };
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as isize);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let old = layout.size();
        note(
            new_size.saturating_sub(old),
            new_size as isize - old as isize,
        );
        // SAFETY: the caller's obligations are passed on as they are.
        let ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !ptr.is_null() && new_size > old {
            // SAFETY: `[old, new_size)` is the grown block's fresh tail.
            unsafe { ptr.add(old).write_bytes(SENTINEL, new_size - old) };
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as isize));
        // SAFETY: `ptr` came from `System` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Sentinel = Sentinel;

/// Bytes the allocator was asked for while `call` ran.
fn allocated<T>(call: impl FnOnce() -> T) -> (usize, T) {
    let before = ASKED.with(Cell::get);
    let out = call();
    (ASKED.with(Cell::get) - before, out)
}

/// The most bytes live at once while `call` ran, beyond those live when
/// it started.
fn live_peak<T>(call: impl FnOnce() -> T) -> (isize, T) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = call();
    (PEAK.with(Cell::get) - base, out)
}

fn has_sentinel_run(bytes: &[u8]) -> bool {
    bytes
        .windows(SENTINEL_RUN)
        .any(|w| w == [SENTINEL; SENTINEL_RUN])
}

// ----------------------------------------------------------------------
// Sources and streams
// ----------------------------------------------------------------------

/// A nonblocking source: hands out `data` in the given piece sizes,
/// `WouldBlock` between pieces, end of stream after the last.
struct Pieces<'a> {
    data: &'a [u8],
    cuts: Vec<usize>,
    blocked: bool,
}

impl<'a> Pieces<'a> {
    /// The next at most `room` bytes of the current piece.
    fn next(&mut self, room: usize) -> std::io::Result<&'a [u8]> {
        let Some(piece) = self.cuts.first_mut() else {
            return Ok(&[]);
        };
        if std::mem::take(&mut self.blocked) {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = room.min(*piece);
        let (out, rest) = self.data.split_at(n);
        self.data = rest;
        *piece -= n;
        if *piece == 0 {
            self.cuts.remove(0);
            self.blocked = true;
        }
        Ok(out)
    }
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let got = self.next(buf.len())?;
        buf[..got.len()].copy_from_slice(got);
        Ok(got.len())
    }
}

/// Both reads into bytes nobody wrote write the bytes delivered and
/// nothing else, as `read(2)` does: the rest keeps its sentinels.
impl Source for Pieces<'_> {
    fn read_into(&mut self, window: &mut Window) -> std::io::Result<usize> {
        let got = self.next(window.remaining())?;
        window.put_slice(got);
        Ok(got.len())
    }

    fn read_spare(&mut self, buf: &mut Vec<u8>) -> std::io::Result<usize> {
        let got = self.next(buf.capacity() - buf.len())?;
        // (Within the capacity: no reallocation, no fill.)
        buf.extend_from_slice(got);
        Ok(got.len())
    }
}

/// `data` handed out in pieces of the given sizes, as far as it
/// goes, and what is left of it in a last one.
fn pieces<'a>(data: &'a [u8], cuts: &[usize]) -> Pieces<'a> {
    let mut left = data.len();
    let mut cuts: Vec<usize> = cuts
        .iter()
        .map(|&n| {
            let n = n.min(left);
            left -= n;
            n
        })
        .collect();
    cuts.push(left);
    cuts.retain(|&n| n > 0);
    Pieces {
        data,
        cuts,
        blocked: false,
    }
}

/// `stream` read to its end in two pieces; the frames' bodies in
/// arrival order.
fn drain(stream: &[u8], cut: usize) -> std::io::Result<Vec<Vec<u8>>> {
    let mut src = pieces(stream, &[cut]);
    let (mut reader, mut out) = (FrameReader::new(), Vec::new());
    let mut table = LandingTable::new();
    let mut tally = SyscallStats::default();
    while !reader.closed() {
        reader.read_some(&mut src, 7, &mut table, &mut out, &mut tally)?;
    }
    assert_eq!(tally.rx_frames, out.len() as u64);
    assert!(out.iter().all(|(rail, _)| *rail == 7));
    Ok(out
        .into_iter()
        .map(|(_, f)| f.to_bytes().to_vec())
        .collect())
}

fn stream_of(sizes: &[usize]) -> (Vec<Vec<u8>>, Vec<u8>) {
    let bodies: Vec<Vec<u8>> = sizes
        .iter()
        .map(|&n| (0..n).map(|i| (i * 31 + n) as u8).collect())
        .collect();
    let mut stream = Vec::new();
    for body in &bodies {
        stream.extend_from_slice(&(body.len() as u32).to_le_bytes());
        stream.extend_from_slice(body);
    }
    (bodies, stream)
}

const CONN: ConnId = 3;

/// Consecutive bytes differ by ~16: no run of a sentinel, ever.
fn byte_of(at: u64) -> u8 {
    (at.wrapping_mul(131) >> 3) as u8
}

fn segment(total: u64) -> Vec<u8> {
    (0..total).map(byte_of).collect()
}

/// The chunk `[offset, offset + len)` of message `msg`'s one
/// segment, which it says is `total_len` long.
fn chunk_of(msg: MsgId, offset: u64, len: usize, total_len: u64) -> Packet {
    let data = (0..len as u64).map(|i| byte_of(offset.wrapping_add(i)));
    Packet::Chunk(ChunkPacket {
        msg_id: msg,
        seg_index: 0,
        total_segs: 1,
        offset,
        total_len,
        chunk_index: 0,
        data: Bytes::from(data.collect::<Vec<_>>()),
    })
}

fn eager_of(msg: MsgId) -> Packet {
    eager_sized(msg, vec![9u8; 200])
}

fn eager_sized(msg: MsgId, data: Vec<u8>) -> Packet {
    Packet::Eager(EagerPacket {
        msg_id: msg,
        seg_index: 0,
        total_segs: 1,
        data: Bytes::from(data),
    })
}

/// `packets` as they go over one rail: each encoded (with its CRC)
/// behind its length prefix.
fn wire_of(packets: &[Packet]) -> Vec<u8> {
    let mut stream = Vec::new();
    for (seq, packet) in packets.iter().enumerate() {
        let frame = packet.encode_frame(CONN, seq as u32, true);
        stream.extend_from_slice(&(frame.wire_len() as u32).to_le_bytes());
        stream.extend_from_slice(&frame.to_bytes());
    }
    stream
}

/// One rail's stream, handed out in pieces of the given sizes, read
/// to its end (which closes `reader`) through `table`.
fn drain_one(
    table: &mut LandingTable,
    reader: &mut FrameReader,
    stream: &[u8],
    cuts: &[usize],
) -> Vec<(usize, PacketFrame)> {
    let mut src = pieces(stream, cuts);
    let mut out = Vec::new();
    while !reader.closed() {
        reader
            .read_some(&mut src, 0, table, &mut out, &mut SyscallStats::default())
            .expect("well-formed");
    }
    out
}

/// Two rails' streams through one table, rail `r`'s handed out in the
/// pieces `cuts[r]`, one `read_some` per rail in turn until both ended:
/// the frames in arrival order, tagged with their rail. Each rail's
/// frames are checked to be what its stream carried ([`carried`]).
fn drain_rails(
    table: &mut LandingTable,
    streams: [&[u8]; 2],
    cuts: [&[usize]; 2],
) -> Vec<(usize, PacketFrame)> {
    let mut rails = [0, 1].map(|r| (pieces(streams[r], cuts[r]), FrameReader::new()));
    let (mut out, mut tally) = (Vec::new(), SyscallStats::default());
    while rails.iter().any(|(_, reader)| !reader.closed()) {
        for (rail, (src, reader)) in rails.iter_mut().enumerate() {
            reader
                .read_some(src, rail, table, &mut out, &mut tally)
                .expect("well-formed");
        }
    }
    assert_eq!(tally.rx_frames, out.len() as u64);
    let mut at = [0, 0];
    for (rail, frame) in &out {
        carried(streams[*rail], &mut at[*rail], frame).expect("carried");
    }
    out
}

/// `frame` is the frame that starts at `at` in `stream` — the bytes
/// behind its length prefix, nothing else — and holds no run of
/// sentinels; `at` moves past it.
fn carried(stream: &[u8], at: &mut usize, frame: &PacketFrame) -> Result<(), String> {
    let prefix = stream
        .get(*at..*at + LEN_PREFIX)
        .ok_or(format!("a frame past the stream's end at {at}"))?;
    let len = u32::from_le_bytes(prefix.try_into().expect("a prefix")) as usize;
    let body = *at + LEN_PREFIX..*at + LEN_PREFIX + len;
    let want = stream.get(body.clone()).ok_or(format!(
        "a frame of {len} bytes past the stream's end at {at}"
    ))?;
    let got = frame.to_bytes();
    if got[..] != *want {
        return Err(format!(
            "the frame at {at} is not the {len} bytes the stream carried"
        ));
    }
    if frame.parts().any(|part| has_sentinel_run(part)) {
        return Err(format!("the frame at {at} holds bytes nobody wrote"));
    }
    *at = body.end;
    Ok(())
}

/// What `frames` decode to, every CRC checked. The chunks among them
/// go into `reasm` — leniently when `lenient`: a duplicate is not an
/// error — and the segment one of them makes whole comes back.
fn deliver(
    frames: &[(usize, PacketFrame)],
    reasm: &mut Reassembler,
    lenient: bool,
) -> (Vec<Packet>, Option<Bytes>) {
    let mut whole = None;
    let packets = frames.iter().map(|(_, frame)| {
        let (env, body, copied) = frame.decode().expect("decodes");
        assert!(env.crc_checked && env.conn_id == CONN && copied == 0);
        let FrameBody::Packet(packet) = body else {
            panic!("no aggregate was sent");
        };
        if let Packet::Chunk(p) = packet.clone() {
            let (id, at, total) = (p.msg_id, p.offset, p.total_len);
            let done = if lenient {
                reasm
                    .insert_chunk_lenient(id, 0, 1, at, total, p.data)
                    .map(|(done, _)| done)
            } else {
                reasm.insert_chunk(id, 0, 1, at, total, p.data)
            };
            if done.expect("accepted").is_some() {
                let mut message = reasm.take(id).expect("complete");
                whole = message.segments.pop();
            }
        }
        packet
    });
    (packets.collect(), whole)
}

/// The number of parts of each frame: 2 for a landed chunk (head and
/// window), 1 for a frame in an allocation of its own.
fn parts(out: &[(usize, PacketFrame)]) -> Vec<usize> {
    out.iter().map(|(_, f)| f.num_parts()).collect()
}

// ----------------------------------------------------------------------
// Framing
// ----------------------------------------------------------------------

/// Frames come out whole wherever the stream is cut in two — inside
/// a length prefix, inside a body, on a boundary — and so does a
/// frame larger than the read buffer, which takes the
/// straight-into-the-frame path whatever the cut.
#[test]
fn stream_split_at_every_byte_offset() {
    let (bodies, stream) = stream_of(&[0, 300, 1, 2000]);
    for cut in 0..=stream.len() {
        assert_eq!(
            drain(&stream, cut).expect("well-formed"),
            bodies,
            "at {cut}"
        );
    }
    let (bodies, stream) = stream_of(&[5, READ_CHUNK + 1000, 7]);
    for cut in [2, 9, 13, READ_CHUNK, READ_CHUNK + 1013, READ_CHUNK + 1016] {
        assert_eq!(
            drain(&stream, cut).expect("well-formed"),
            bodies,
            "at {cut}"
        );
    }
}

/// A prefix beyond `MAX_FRAME` is refused before anything is
/// allocated for it, the frames ahead of it are still delivered, and
/// the reader reads no more.
#[test]
fn oversized_prefix_is_refused_and_closes_the_reader() {
    let mut stream = 3u32.to_le_bytes().to_vec();
    stream.extend_from_slice(b"abc");
    stream.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    let mut src = pieces(&stream, &[]);
    let (mut reader, mut out) = (FrameReader::new(), Vec::new());
    let (asked, err) = allocated(|| {
        reader.read_some(
            &mut src,
            0,
            &mut LandingTable::new(),
            &mut out,
            &mut SyscallStats::default(),
        )
    });
    let err = err.expect_err("oversized prefix");
    assert!(asked < 4096, "{asked} bytes for a refused prefix");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert_eq!(out.len(), 1);
    assert_eq!(&out[0].1.to_bytes()[..], b"abc");
    assert!(reader.closed());
}

// ----------------------------------------------------------------------
// Landing
// ----------------------------------------------------------------------

/// The chunks of one segment arrive on two rails whose reads
/// interleave, each stream cut in two at every byte offset — inside a
/// prefix, inside a chunk head (which must then be waited for, not
/// missed), inside a payload, on a boundary — with another kind's
/// frame between them. Every frame decodes to what was encoded, every
/// chunk payload sits at its offset in one allocation, and the
/// reassembler re-joins them: nothing is gathered. None of these
/// frames is as large as the read buffer: what arrives whole in it
/// lands too, copied once. The landing allocation is capacity nobody
/// wrote, so the delivered segment equal to what was sent is also the
/// proof that no sentinel surfaced, wherever a window was cut.
#[test]
fn chunks_of_two_rails_land_in_one_allocation_wherever_the_streams_are_cut() {
    const SMALL: u64 = 3000;
    const LARGE: u64 = 6000;
    let inputs = [
        (
            SMALL,
            [
                vec![
                    chunk_of(40, 0, 700, SMALL),
                    eager_of(41),
                    chunk_of(40, 700, 100, SMALL),
                ],
                vec![
                    chunk_of(40, 2000, 1000, SMALL),
                    chunk_of(40, 800, 1200, SMALL),
                ],
            ],
        ),
        (
            LARGE,
            [
                vec![chunk_of(60, 0, 2500, LARGE), eager_of(61)],
                vec![
                    chunk_of(60, 3500, 2500, LARGE),
                    chunk_of(60, 2500, 1000, LARGE),
                ],
            ],
        ),
    ];
    for (total, sent) in &inputs {
        let streams = [wire_of(&sent[0]), wire_of(&sent[1])];
        assert!(streams.iter().all(|s| s.len() < READ_CHUNK));
        for cut in 0..=streams[0].len().max(streams[1].len()) {
            let cuts = [0, 1].map(|r| [cut.min(streams[r].len())]);
            let mut table = LandingTable::new();
            let out = drain_rails(&mut table, [&streams[0], &streams[1]], [&cuts[0], &cuts[1]]);
            assert_eq!(out.len(), sent[0].len() + sent[1].len(), "at {cut}");

            let mut reasm = Reassembler::new();
            let (packets, whole) = deliver(&out, &mut reasm, false);
            for (rail, sent) in sent.iter().enumerate() {
                let of_rail = std::iter::zip(&out, &packets).filter(|((r, _), _)| *r == rail);
                let got: Vec<&Packet> = of_rail.map(|(_, packet)| packet).collect();
                assert_eq!(got, sent.iter().collect::<Vec<_>>(), "at {cut}");
            }
            let whole = whole.expect("every chunk arrived");
            assert_eq!(whole, segment(*total), "at {cut}");
            assert_eq!(
                (reasm.joined_bytes(), reasm.gathered_bytes()),
                (*total, 0),
                "at {cut}"
            );
            for (packet, (_, frame)) in std::iter::zip(&packets, &out) {
                if let Packet::Chunk(p) = packet {
                    let payload = frame.part(1).expect("head and payload apart");
                    assert_eq!(
                        payload.as_ptr(),
                        whole[p.offset as usize..].as_ptr(),
                        "at {cut}"
                    );
                }
            }
        }
    }
}

/// A chunk larger than the read buffer is read straight into its
/// window, however the stream stalls, and one that ends the segment
/// re-joins the rest.
#[test]
fn a_chunk_larger_than_the_read_buffer_is_read_into_place() {
    let total = (3 * READ_CHUNK + 500) as u64;
    let sent = [
        chunk_of(40, 0, 2 * READ_CHUNK + 100, total),
        chunk_of(40, (2 * READ_CHUNK + 100) as u64, READ_CHUNK + 400, total),
    ];
    let stream = wire_of(&sent);
    for cuts in [
        vec![],
        vec![1, 30, 40, READ_CHUNK, 7, 2 * READ_CHUNK],
        vec![LEN_PREFIX + ChunkHead::LEN, READ_CHUNK + 1],
    ] {
        let (mut table, mut reader) = (LandingTable::new(), FrameReader::new());
        let (asked, out) = allocated(|| drain_one(&mut table, &mut reader, &stream, &cuts));
        // The segment once, not once more per frame.
        assert!(asked < total as usize + 4096, "{asked} bytes for {total}");
        let mut reasm = Reassembler::new();
        let (packets, whole) = deliver(&out, &mut reasm, false);
        assert_eq!(packets, sent);
        assert_eq!(whole.expect("whole"), segment(total));
        assert_eq!((reasm.joined_bytes(), reasm.gathered_bytes()), (total, 0));
    }
}

/// A head that cannot be served exactly is a miss: the frame comes
/// out as every frame did before landing — one part, in an
/// allocation of its own — and nothing else is allocated for it,
/// whether it arrives whole or stalls inside its payload. The table
/// is left as it was: what the misses named is placed once it is
/// asked for properly.
#[test]
fn odd_and_hostile_heads_take_the_miss_path_and_allocate_nothing_more() {
    const MIB: u64 = 1 << 20;
    // One chunk of a 1 MiB segment is in place.
    let mut table = LandingTable::new();
    const OPENED: usize = (MIB / LANDING_OPEN_SHARE) as usize;
    let first = wire_of(&[chunk_of(40, 100, OPENED, MIB)]);
    let (asked, out) = allocated(|| drain_one(&mut table, &mut FrameReader::new(), &first, &[]));
    assert!(asked >= MIB as usize, "the segment's allocation");
    assert_eq!(parts(&out), [2]);

    // A frame that is longer than its head says.
    let mut longer = wire_of(&[chunk_of(40, MIB / 2, 100, MIB)]);
    let len = longer.len() - LEN_PREFIX + 10;
    longer[..LEN_PREFIX].copy_from_slice(&(len as u32).to_le_bytes());
    longer.extend_from_slice(&[0; 10]);
    let misses = [
        (
            "a segment nobody could hold",
            wire_of(&[chunk_of(41, 0, 100, 1 << 40)]),
        ),
        ("frame length and head disagree", longer),
        (
            "extent overflows",
            wire_of(&[chunk_of(42, u64::MAX - 10, 100, u64::MAX)]),
        ),
        (
            "range claimed already",
            wire_of(&[chunk_of(40, 100, OPENED, MIB)]),
        ),
        (
            "range claimed in part",
            wire_of(&[chunk_of(40, 50 + OPENED as u64, 100, MIB)]),
        ),
        (
            "another total_len for the key",
            wire_of(&[chunk_of(40, MIB / 2, 100, 2 * MIB)]),
        ),
        ("no payload", wire_of(&[chunk_of(40, MIB / 2, 0, MIB)])),
        (
            "a sliver of a segment not opened yet",
            wire_of(&[chunk_of(43, 0, OPENED - 1, MIB)]),
        ),
    ];
    for (what, stream) in &misses {
        for cuts in [vec![], vec![stream.len().saturating_sub(40)]] {
            let mut reader = FrameReader::new();
            let (asked, out) = allocated(|| drain_one(&mut table, &mut reader, stream, &cuts));
            // The frame; an `Arc`, `out` and the like.
            let budget = stream.len() + 1024;
            assert!(asked <= budget, "{what}: {asked} bytes allocated");
            assert_eq!(parts(&out), [1], "{what}");
            assert_eq!(out[0].1.to_bytes()[..], stream[LEN_PREFIX..], "{what}");
        }
    }
    // What did not open the segment is placed in it once it is open,
    // and what the misses named was not claimed by them.
    let after = wire_of(&[
        chunk_of(40, MIB / 2, 100, MIB),
        chunk_of(40, 100 + OPENED as u64, 100, MIB),
    ]);
    let mut reader = FrameReader::new();
    let (asked, out) = allocated(|| drain_one(&mut table, &mut reader, &after, &[]));
    assert_eq!(parts(&out), [2, 2]);
    assert!(asked < 4096, "{asked} bytes for two landed chunks");
}

/// A reader that closes inside a window takes the window with it:
/// the range was claimed, is never delivered and is not handed out
/// again, so its retransmission misses, arrives in a frame of its
/// own and the segment is gathered — late, not wrong. Wherever the
/// window was left part written, none of its unwritten bytes (the
/// sentinel here) is ever delivered.
#[test]
fn a_window_lost_with_its_reader_is_not_handed_out_again() {
    const TOTAL: u64 = 4000;
    let lost = wire_of(&[chunk_of(40, 1000, 2000, TOTAL)]);
    let rest = wire_of(&[
        chunk_of(40, 0, 1000, TOTAL),
        chunk_of(40, 1000, 2000, TOTAL),
        chunk_of(40, 3000, 1000, TOTAL),
    ]);
    for short in [1, 500, 1999] {
        let mut table = LandingTable::new();
        let mut dying = FrameReader::new();
        let out = drain_one(
            &mut table,
            &mut dying,
            &lost[..lost.len() - short],
            &[900, 600],
        );
        assert!(out.is_empty() && dying.closed(), "{short} short");
        drop(dying);

        let out = drain_one(&mut table, &mut FrameReader::new(), &rest, &[]);
        assert_eq!(
            parts(&out),
            [2, 1, 2],
            "{short} short: the retransmission alone misses"
        );
        let mut reasm = Reassembler::new();
        let (_, whole) = deliver(&out, &mut reasm, true);
        assert_eq!(whole.expect("whole"), segment(TOTAL), "{short} short");
        assert_eq!(
            (reasm.joined_bytes(), reasm.gathered_bytes()),
            (0, TOTAL),
            "{short} short"
        );
    }
}

/// The table holds at most `LANDING_ENTRIES` segments and
/// `LANDING_BYTES` unclaimed, whatever arrives — in bytes live, by the
/// allocator's count. For room in bytes the oldest segments' unclaimed
/// ranges are given up and their later chunks miss; past the entry
/// count the oldest segment is forgotten and a later chunk of it starts
/// over in an allocation of its own. Either way the segment is gathered
/// when whole. A segment's free space is cut in at most
/// `LANDING_FRAGMENTS` pieces.
#[test]
fn the_table_is_bounded_in_segments_and_in_unclaimed_bytes() {
    let head = |msg, offset, len, total_len| ChunkHead {
        conn_id: CONN,
        msg_id: msg,
        seg_index: 0,
        offset,
        total_len,
        len,
    };
    /// The table's own bookkeeping beside its allocations.
    const BOOKS: isize = 64 << 10;

    let big = (LANDING_BYTES / 8 * 3) as u64;
    let part = (big / LANDING_OPEN_SHARE) as usize;
    let mut table = LandingTable::new();
    let (peak, ()) = live_peak(|| {
        for msg in 0..2 {
            assert!(table.claim(&head(msg, 0, part, big)).is_some());
        }
    });
    assert!(
        peak <= 2 * big as isize + BOOKS,
        "{peak} bytes for two segments"
    );
    // The third gives up the first's unclaimed ranges — freeing its
    // allocation, since nothing else holds it — before it allocates.
    let (peak, ()) = live_peak(|| {
        assert!(table.claim(&head(2, 0, part, big)).is_some());
        assert!(table.claim(&head(0, part as u64, 4096, big)).is_none());
        assert!(table.claim(&head(1, part as u64, 4096, big)).is_some());
        // The largest segment there is fits once everything else went.
        let (most, part) = (LANDING_BYTES as u64, LANDING_BYTES / 8);
        assert!(table.claim(&head(9, 0, part, most)).is_some());
        assert!(table.claim(&head(10, 0, part + 1, most + 1)).is_none());
    });
    assert!(peak <= LANDING_BYTES as isize + BOOKS, "{peak} bytes live");

    let written = |mut w: Window| {
        w.put_slice(&vec![7; w.remaining()]);
        w.freeze()
    };
    let mut table = LandingTable::new();
    let first = table.claim(&head(0, 0, 100, 800)).expect("room");
    for msg in 1..=LANDING_ENTRIES as u64 {
        assert!(table.claim(&head(msg, 0, 100, 800)).is_some());
    }
    let again = table.claim(&head(0, 100, 700, 800)).expect("a new segment");
    let mut reasm = Reassembler::new();
    let placed = [(0, written(first)), (100, written(again))];
    let done = placed.map(|(at, data)| reasm.insert_chunk(0, 0, 1, at, 800, data));
    assert!(matches!(done, [Ok(None), Ok(Some(_))]));
    assert_eq!(reasm.gathered_bytes(), 800);

    // Claims in the middle of what is free cut it in pieces, up to a
    // bound; claims at an end of a piece do not.
    let mut table = LandingTable::new();
    assert!(table.claim(&head(0, 0, 200, 1000)).is_some());
    let claims = (0..2 * LANDING_FRAGMENTS as u64)
        .filter(|i| table.claim(&head(0, 210 + 20 * i, 10, 1000)).is_some());
    assert_eq!(claims.count(), LANDING_FRAGMENTS - 1);
    assert!(
        table.claim(&head(0, 200, 10, 1000)).is_some(),
        "a whole piece"
    );
    assert!(
        table.claim(&head(0, 600, 10, 1000)).is_some(),
        "one piece freed"
    );
    assert!(table.claim(&head(0, 700, 10, 1000)).is_none(), "none left");
}

// ----------------------------------------------------------------------
// No byte nobody wrote
// ----------------------------------------------------------------------

/// Landing allocations are capacity nobody wrote, which the allocator
/// here fills with the sentinel. Two rails' chunk streams go through
/// one table in the ways a window can be left unwritten that the
/// landing tests above do not already cut at every offset — duplicates
/// and retransmissions over claimed ranges, a segment given up for room,
/// hostile `total_len`s — and every frame is what its stream carried
/// with no sentinel run in it ([`drain_rails`]), and every segment
/// delivered is what was sent.
#[test]
fn the_sentinel_never_surfaces() {
    // Duplicates and a retransmission re-chunked over claimed ranges:
    // each misses and is delivered from a frame of its own.
    const DUP: u64 = 4000;
    let sent = [
        vec![
            chunk_of(62, 0, 1000, DUP),
            chunk_of(62, 0, 1000, DUP),
            chunk_of(62, 1000, 1500, DUP),
        ],
        vec![
            chunk_of(62, 2500, 1500, DUP),
            chunk_of(62, 500, 1000, DUP),
            chunk_of(62, 2500, 1500, DUP),
        ],
    ];
    let streams = sent.each_ref().map(|s| wire_of(s));
    for cut in (0..=streams[0].len()).step_by(7) {
        let mut table = LandingTable::new();
        let out = drain_rails(&mut table, [&streams[0], &streams[1]], [&[cut], &[cut]]);
        assert_eq!(
            parts(&out).iter().filter(|&&n| n == 2).count(),
            3,
            "at {cut}"
        );
        let (_, whole) = deliver(&out, &mut Reassembler::new(), true);
        let whole = whole.expect("every byte arrived");
        assert_eq!(whole, segment(DUP), "at {cut}");
    }

    // A segment given up for room: segment 64 lands its first chunk,
    // then rail 1 opens a segment of `LANDING_BYTES` (its stream ends
    // after the head: the window is never written), for which the first
    // segment's unclaimed range is given up and its next chunk misses.
    const ROOM: u64 = 16 << 10;
    let first = wire_of(&[
        chunk_of(64, 0, 4096, ROOM),
        chunk_of(64, 4096, 12 << 10, ROOM),
    ]);
    let opener = wire_of(&[chunk_of(65, 0, LANDING_BYTES / 8, LANDING_BYTES as u64)]);
    let opener = &opener[..LEN_PREFIX + ChunkHead::LEN + 1000];
    let mut table = LandingTable::new();
    let first_frame = LEN_PREFIX + ChunkHead::LEN + 4096;
    let out = drain_rails(&mut table, [&first, opener], [&[first_frame], &[]]);
    assert_eq!(parts(&out), [2, 1], "the second chunk misses");
    let (_, whole) = deliver(&out, &mut Reassembler::new(), false);
    assert_eq!(whole.expect("whole"), segment(ROOM));

    // Hostile `total_len`s beside a segment that completes: one nobody
    // could hold, one other than the segment was opened with, one whose
    // extent overflows (the engine refuses it), and a segment opened by a
    // chunk whose rest never comes.
    const GOOD: u64 = 8000;
    let hostile = [
        chunk_of(66, 0, 1000, GOOD),
        chunk_of(67, 0, 100, 1 << 40),
        chunk_of(66, 1000, 500, 2 * GOOD),
        chunk_of(68, u64::MAX - 10, 100, u64::MAX),
        chunk_of(69, 0, 1000, GOOD),
    ];
    let streams = [
        wire_of(&hostile),
        wire_of(&[chunk_of(66, 1000, 7000, GOOD)]),
    ];
    for cut in (0..=streams[0].len()).step_by(13) {
        let mut table = LandingTable::new();
        let out = drain_rails(&mut table, [&streams[0], &streams[1]], [&[cut], &[cut]]);
        assert_eq!(
            parts(&out).iter().filter(|&&n| n == 2).count(),
            3,
            "at {cut}"
        );
        let of_66: Vec<_> = out
            .into_iter()
            .filter(|(_, frame)| match frame.decode() {
                Ok((_, FrameBody::Packet(Packet::Chunk(p)), _)) => {
                    (p.msg_id, p.total_len) == (66, GOOD)
                }
                _ => false,
            })
            .collect();
        let (_, whole) = deliver(&of_66, &mut Reassembler::new(), true);
        assert_eq!(whole.expect("the good segment"), segment(GOOD), "at {cut}");
    }
}

// ----------------------------------------------------------------------
// The slab
// ----------------------------------------------------------------------

/// Bytes one slab costs: its buffer and the `Arc` around it (two
/// allocations), whatever number of frames it carries.
const SLAB_COST: usize = SLAB_LEN + 64;

/// `count` small frames, read off one rail in pieces of `piece` bytes:
/// each read's frames handed to `take`, which keeps what it keeps.
fn read_small_frames(
    count: u64,
    piece: usize,
    mut take: impl FnMut(&mut Vec<(usize, PacketFrame)>),
) -> (usize, FrameReader) {
    let packets: Vec<Packet> = (0..count).map(eager_of).collect();
    let stream = wire_of(&packets);
    let frame_len = stream.len() / count as usize;
    assert!(frame_len <= SLAB_FRAME_MAX && stream.len() > 8 * SLAB_LEN);
    let cuts = vec![piece; stream.len() / piece];
    let mut src = pieces(&stream, &cuts);
    let (mut reader, mut table) = (FrameReader::new(), LandingTable::new());
    let mut out = Vec::with_capacity(stream.len() / frame_len + 1);
    let (asked, ()) = allocated(|| {
        while !reader.closed() {
            reader
                .read_some(
                    &mut src,
                    0,
                    &mut table,
                    &mut out,
                    &mut SyscallStats::default(),
                )
                .expect("well-formed");
            take(&mut out);
        }
    });
    (asked, reader)
}

/// Small frames are carved one after the other into a slab, and a slab
/// whose frames were all let go is started over: however many frames a
/// rail reads, it costs the slabs that one read fills, and one more —
/// two while a read brings less than a slab — as long as each delivery
/// is dropped after its read. Every frame decodes, its CRC checked, to
/// the packet that was sent.
#[test]
fn small_frames_cost_the_slabs_of_one_read_however_many_there_are() {
    let sent: Vec<Packet> = (0..400).map(eager_of).collect();
    for piece in [1, 100, 333, 2 * SLAB_LEN] {
        let mut next = 0;
        let (asked, _) = read_small_frames(400, piece, |out| {
            for (_, frame) in out.drain(..) {
                let (_, FrameBody::Packet(got), _) = frame.decode().expect("decodes") else {
                    panic!("no aggregate was sent");
                };
                assert!(got == sent[next] && !frame.parts().any(|p| has_sentinel_run(p)));
                next += 1;
            }
        });
        assert_eq!(next, 400);
        let slabs = (piece / SLAB_LEN + 2).min(SLABS);
        assert!(
            asked <= slabs * SLAB_COST,
            "piece {piece}: {asked} bytes for 400 frames"
        );
    }
}

/// A delivery held across reads keeps its own slab and no other: the
/// slabs carved after it are started over as before, and once it is let
/// go, its slab is too — the reader allocates nothing more.
#[test]
fn a_held_delivery_pins_its_own_slab_only() {
    let stream = wire_of(&(0..800).map(eager_of).collect::<Vec<_>>());
    let cuts = vec![333; stream.len() / 333];
    let mut src = pieces(&stream, &cuts);
    let (mut reader, mut table) = (FrameReader::new(), LandingTable::new());
    let mut out = Vec::with_capacity(800);
    let (mut held, mut read) = (None, 0);
    let mut read_until = |frames: usize, held: &mut Option<PacketFrame>| {
        allocated(|| {
            while read < frames && !reader.closed() {
                reader
                    .read_some(
                        &mut src,
                        0,
                        &mut table,
                        &mut out,
                        &mut SyscallStats::default(),
                    )
                    .expect("well-formed");
                read += out.len();
                for (_, frame) in out.drain(..) {
                    held.get_or_insert(frame);
                }
            }
        })
        .0
    };
    // The held frame's slab and the two every later frame was cut from.
    let asked = read_until(400, &mut held);
    assert!(
        asked <= 3 * SLAB_COST,
        "{asked} bytes with one delivery held"
    );
    let held = held.take().expect("a frame");
    assert_eq!(
        held.decode().expect("decodes").1,
        FrameBody::Packet(eager_of(0))
    );
    drop(held);
    let mut none = None;
    let asked = read_until(800, &mut none);
    assert!(none.is_some(), "frames past the first 400");
    assert_eq!(asked, 0, "{asked} bytes once the held delivery was let go");
}

// ----------------------------------------------------------------------
// Adversarial reads
// ----------------------------------------------------------------------

/// Two rails of well-formed chunk streams to mutate, and where their
/// frames start.
fn base_streams() -> [(Vec<u8>, Vec<usize>); 2] {
    const TOTAL: u64 = 3000;
    let sent = [
        vec![
            chunk_of(40, 0, 700, TOTAL),
            eager_of(41),
            chunk_of(40, 700, 100, TOTAL),
        ],
        vec![
            chunk_of(40, 2000, 1000, TOTAL),
            chunk_of(40, 800, 1200, TOTAL),
        ],
    ];
    sent.map(|packets| {
        let stream = wire_of(&packets);
        let mut starts = vec![0];
        for p in &packets {
            let last = *starts.last().expect("one");
            starts.push(last + LEN_PREFIX + p.encode_frame(CONN, 0, true).wire_len());
        }
        starts.pop();
        (stream, starts)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Small frames and frames about a slab's limit (`SLAB_FRAME_MAX`:
    /// either side of it), read in pieces far shorter than the read
    /// buffer, so that most reads leave its capacity past them as the
    /// allocator left it, full of sentinels: every frame is carved out of
    /// bytes a read wrote — none past the buffer's length — and decodes,
    /// its CRC checked, to the packet that was sent.
    #[test]
    fn small_reads_carve_only_the_bytes_they_wrote(
        sizes in prop::collection::vec(
            prop_oneof![0usize..64, SLAB_FRAME_MAX - 100..SLAB_FRAME_MAX + 100],
            1..48,
        ),
        cuts in prop::collection::vec(1usize..READ_CHUNK / 16, 1..24),
    ) {
        let sent: Vec<Packet> = sizes
            .iter()
            .enumerate()
            .map(|(msg, &len)| eager_sized(msg as MsgId, segment(len as u64)))
            .collect();
        let stream = wire_of(&sent);
        let mut src = pieces(&stream, &cuts);
        let (mut reader, mut table) = (FrameReader::new(), LandingTable::new());
        let (mut out, mut at) = (Vec::new(), 0);
        while !reader.closed() {
            reader
                .read_some(&mut src, 0, &mut table, &mut out, &mut SyscallStats::default())
                .map_err(|e| e.to_string())?;
        }
        prop_assert_eq!(out.len(), sent.len());
        for ((_, frame), packet) in out.iter().zip(&sent) {
            carried(&stream, &mut at, frame)?;
            let (_, body, _) = frame.decode().map_err(|e| format!("{e:?}"))?;
            prop_assert!(body == FrameBody::Packet(packet.clone()));
        }
        prop_assert_eq!(at, stream.len());
    }

    /// Arbitrary bytes, and well-formed streams with bytes overwritten
    /// (anywhere, or inside a frame's prefix and head), inserted, deleted
    /// or cut off, read at arbitrary cuts by two rails' readers through
    /// one live table: no panic; what is live at once stays within one
    /// frame in progress (`MAX_FRAME`) and the table's bound
    /// (`LANDING_BYTES`), beside the readers' buffers and what a segment
    /// opened by the bytes actually carried may pin (`LANDING_OPEN_SHARE`
    /// times them); and every frame handed out is made only of bytes the
    /// stream carried, where it carried them.
    #[test]
    fn adversarial_streams_stay_bounded_and_carry_only_their_bytes(
        noise in prop::collection::vec(any::<u8>(), 0..600),
        layout in 0u8..4,
        edits in prop::collection::vec((0usize..2, 0u8..5, any::<u64>(), any::<u8>()), 0..8),
        cuts in prop::collection::vec(1usize..500, 0..16),
    ) {
        let [mut a, mut b] = base_streams();
        match layout {
            0 => {}
            1 => a.0 = noise.clone(),
            2 => b.0.extend_from_slice(&noise),
            _ => {
                let at = a.1[1];
                a.0.splice(at..at, noise.iter().copied());
            }
        }
        let mut streams = [a, b];
        for &(rail, kind, at, byte) in &edits {
            let (stream, starts) = &mut streams[rail];
            if stream.is_empty() {
                continue;
            }
            let anywhere = at as usize % stream.len();
            match kind {
                0 => stream[anywhere] = byte,
                1 => {
                    let frame = starts[at as usize % starts.len()];
                    let into = (at >> 32) as usize % (LEN_PREFIX + ChunkHead::LEN);
                    if let Some(b) = stream.get_mut(frame + into) {
                        *b = byte;
                    }
                }
                2 => stream.insert(anywhere, byte),
                3 => {
                    stream.remove(anywhere);
                }
                _ => stream.truncate(anywhere),
            }
        }
        let streams = streams.map(|(stream, _)| stream);
        let carried_bytes = streams[0].len() + streams[1].len();

        let (peak, checked) = live_peak(|| -> Result<(), String> {
            let mut table = LandingTable::new();
            let mut rails = [0, 1].map(|r| (pieces(&streams[r], &cuts), FrameReader::new(), 0));
            let mut out = Vec::new();
            for _ in 0..100_000 {
                if rails.iter().all(|(_, reader, _)| reader.closed()) {
                    return Ok(());
                }
                for (rail, (src, reader, at)) in rails.iter_mut().enumerate() {
                    // An error closes the reader; it is not a failure.
                    let _ = reader.read_some(src, rail, &mut table, &mut out, &mut SyscallStats::default());
                    for (_, frame) in out.drain(..) {
                        carried(&streams[rail], at, &frame)?;
                    }
                }
            }
            Err("the readers never ended".into())
        });
        checked?;
        let bound = MAX_FRAME
            + LANDING_BYTES
            + 2 * READ_CHUNK
            + LANDING_OPEN_SHARE as usize * carried_bytes
            + (64 << 10);
        prop_assert!(peak <= bound as isize, "{} bytes live at once, bound {}", peak, bound);
    }
}
