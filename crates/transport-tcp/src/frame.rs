//! Length-prefixed framing off a byte stream: the reader every rail
//! carves its arrivals with, and the landing table through which the
//! rails' readers put a rendezvous chunk where its segment will be
//! delivered from.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};

use bytes::{Bytes, Window};
use nmad_core::SyscallStats;
use nmad_wire::{ChunkHead, ConnId, MsgId, PacketFrame, PartList};

/// Frame length prefix size.
pub(crate) const LEN_PREFIX: usize = 4;
/// Largest accepted frame (sanity bound against corrupt prefixes).
const MAX_FRAME: usize = 64 << 20;
/// Bytes asked of the socket per `read` call while no frame larger than
/// this is in progress (such a frame is read straight into its own
/// allocation, or into its segment's, however large).
pub(crate) const READ_CHUNK: usize = 64 * 1024;
/// Segments a [`LandingTable`] remembers, finished ones included.
pub(crate) const LANDING_ENTRIES: usize = 64;
/// Bytes a [`LandingTable`] holds allocated and not yet claimed by a
/// frame: what one frame alone may make the reader reserve.
pub(crate) const LANDING_BYTES: usize = MAX_FRAME;
/// A segment's allocation is opened only by a chunk that fills at least
/// one part in this many of it. A frozen window pins its whole
/// allocation for as long as the engine keeps the chunk, as any slice
/// does, so this is what bounds the memory a peer can make the receiver
/// reserve by the bytes that peer actually sent: without it a 1-byte
/// chunk per message would pin a [`LANDING_BYTES`] allocation each. Rails
/// split a segment by bandwidth share, far above this.
const LANDING_OPEN_SHARE: u64 = 8;
/// Unclaimed ranges one segment may be in. Chunks arrive in order per
/// rail, so two rails leave two; a claim that would leave more misses.
const LANDING_FRAGMENTS: usize = 8;

/// Length of the frame whose length prefix starts `buf`; `None` while
/// the prefix itself is incomplete.
fn frame_len(buf: &[u8]) -> std::io::Result<Option<usize>> {
    let Some(prefix) = buf.first_chunk::<LEN_PREFIX>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} exceeds bound"),
        ));
    }
    Ok(Some(len))
}

/// One segment some chunk frame has announced.
struct Landing {
    key: (ConnId, MsgId, u16),
    total_len: u64,
    /// The ranges of the segment's allocation no frame has claimed, as
    /// `(offset in the segment, window)`. Empty once all are claimed, or
    /// given up for room: the segment stays known so that a late chunk
    /// of it (a duplicate, a retransmission) misses instead of opening
    /// an allocation of its own.
    free: Vec<(usize, Window)>,
}

impl Landing {
    fn unclaimed(&self) -> usize {
        self.free.iter().map(|(_, w)| w.len()).sum()
    }
}

/// Where the chunks of the segments in progress go: one zero-filled
/// allocation per segment, of the `total_len` its chunk heads state, out
/// of which each chunk frame claims the window `[offset, offset + len)`
/// to be read into — on whichever rail it arrives, in whatever order —
/// so that the chunks reach the engine as slices of one allocation,
/// re-join there (`Bytes::try_unsplit`) and the segment is delivered
/// without being gathered.
///
/// A placement hint, never a correctness dependency: a chunk head is
/// read before its frame's CRC can be checked and is trusted as the
/// length prefix is — for where to put the bytes, up to a bound. Any
/// claim the table cannot serve exactly (see [`LandingTable::claim`]) is
/// a miss, and the frame goes into an allocation of its own as every
/// frame did before, to be gathered when its segment is whole. A range
/// is claimed before its first byte is written, by one frame, and never
/// again: a frame that is then dropped (its reader closed, its CRC
/// failed) leaves its range lost to landing, not reusable.
///
/// Bounded by two constants: [`LANDING_ENTRIES`] segments, oldest
/// forgotten first, and [`LANDING_BYTES`] allocated and unclaimed, the
/// oldest segments' unclaimed ranges given up first.
pub(crate) struct LandingTable {
    /// Oldest first.
    segments: VecDeque<Landing>,
    /// Total length of every `free` window.
    unclaimed: usize,
}

impl LandingTable {
    pub(crate) fn new() -> Self {
        LandingTable {
            segments: VecDeque::new(),
            unclaimed: 0,
        }
    }

    /// The window a chunk frame's payload is to be read into, or `None`
    /// — a miss — when `head` asks for nothing (`len` 0), for a segment
    /// beyond [`LANDING_BYTES`], for one not opened yet of which it is
    /// too small a part to open it ([`LANDING_OPEN_SHARE`]), for a
    /// `total_len` other than the one the segment was opened with, or
    /// for a range that is not, whole, in one unclaimed piece: claimed
    /// already (a duplicate or a retransmission), given up, or a piece
    /// too many ([`LANDING_FRAGMENTS`]). Nothing is allocated on a miss.
    fn claim(&mut self, head: &ChunkHead) -> Option<Window> {
        if head.len == 0 || head.total_len > LANDING_BYTES as u64 {
            return None;
        }
        let key = (head.conn_id, head.msg_id, head.seg_index);
        let at = match self.segments.iter().position(|l| l.key == key) {
            Some(at) => at,
            None if (head.len as u64).saturating_mul(LANDING_OPEN_SHARE) < head.total_len => {
                return None
            }
            None => self.open(key, head.total_len as usize),
        };
        let landing = &mut self.segments[at];
        if landing.total_len != head.total_len {
            return None;
        }
        // (`ChunkHead::peek` checked `offset + len <= total_len`.)
        let (start, end) = (head.offset as usize, head.offset as usize + head.len);
        let free = &mut landing.free;
        let i = free
            .iter()
            .position(|(at, w)| *at <= start && end <= at + w.len())?;
        let inside = free[i].0 < start && end < free[i].0 + free[i].1.len();
        if inside && free.len() == LANDING_FRAGMENTS {
            return None;
        }
        let (at, mut front) = free.swap_remove(i);
        let mut claimed = front.split_off(start - at);
        let back = claimed.split_off(end - start);
        free.extend(
            [(at, front), (end, back)]
                .into_iter()
                .filter(|(_, w)| !w.is_empty()),
        );
        self.unclaimed -= claimed.len();
        Some(claimed)
    }

    /// Make room for, allocate and remember a segment of `total_len`
    /// bytes (at most [`LANDING_BYTES`]); its index.
    fn open(&mut self, key: (ConnId, MsgId, u16), total_len: usize) -> usize {
        let mut give_up = self.segments.iter_mut();
        while self.unclaimed + total_len > LANDING_BYTES {
            let oldest = give_up.next().expect("unclaimed bytes are some segment's");
            self.unclaimed -= oldest.unclaimed();
            oldest.free.clear();
        }
        if self.segments.len() == LANDING_ENTRIES {
            let forgotten = self.segments.pop_front().expect("full");
            self.unclaimed -= forgotten.unclaimed();
        }
        self.segments.push_back(Landing {
            key,
            total_len: total_len as u64,
            free: vec![(0, Window::zeroed(total_len))],
        });
        self.unclaimed += total_len;
        self.segments.len() - 1
    }
}

/// A frame that was not all there in `rx_buf` continues outside it.
enum Partial {
    /// In its own allocation: the source is read straight into `frame`
    /// until it holds `want` bytes.
    Own { frame: Vec<u8>, want: usize },
    /// A chunk whose payload has a place in its segment: the source is
    /// read straight into `window`, `filled` bytes of which are there.
    Landed {
        head: Vec<u8>,
        window: Window,
        filled: usize,
    },
}

impl Partial {
    /// The frame, complete: as one part, or — landed — the head in a
    /// part of its own and the frozen window for the payload.
    fn into_frame(self) -> PacketFrame {
        match self {
            Partial::Own { frame, .. } => PacketFrame::from_wire(Bytes::from(frame)),
            Partial::Landed { head, window, .. } => {
                let mut payload = PartList::new();
                payload.push(window.freeze());
                PacketFrame::from_parts(Bytes::from(head), payload)
            }
        }
    }
}

/// The read half of one rail: partial reads in, whole frames out.
pub(crate) struct FrameReader {
    /// Read buffer, allocated and zeroed once. `rx_buf[..rx_len]` is
    /// unframed input, carved after each read ([`FrameReader::carve`]);
    /// only a partial length prefix ever stays behind, or a prefix and
    /// less than the head of what may be a chunk frame.
    rx_buf: Vec<u8>,
    rx_len: usize,
    /// The frame in progress, if it is not all in `rx_buf`.
    partial: Option<Partial>,
    /// Peer closed, or the stream failed or lost framing: no more reads.
    closed: bool,
}

/// `read` into `buf` until it is full, the source would block or ends,
/// as `read_to_end` does into a `Vec`: the bytes read, and the error that
/// stopped it short if one did (a source that ended is no error).
fn read_until_blocked(mut src: impl Read, buf: &mut [u8]) -> (usize, std::io::Result<()>) {
    let mut got = 0;
    while got < buf.len() {
        match src.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return (got, Err(e)),
        }
    }
    (got, Ok(()))
}

impl FrameReader {
    pub(crate) fn new() -> Self {
        FrameReader {
            rx_buf: vec![0; READ_CHUNK],
            rx_len: 0,
            partial: None,
            closed: false,
        }
    }

    /// True once the stream ended or failed: nothing more will be read.
    pub(crate) fn closed(&self) -> bool {
        self.closed
    }

    /// One `read` off `src`: append the complete frames it brought to
    /// `out`, tagged with `rail` (they stay there on an error). True
    /// when the read came back full, that is when the socket may hold
    /// more — edge-triggered readiness will not say so again. A serial
    /// pass takes one read per rail so that what arrived is digested,
    /// and whoever waits for it released, before more is read.
    ///
    /// Chunk payloads are read into their segments' allocations where
    /// `landing` has the place; every other frame gets an allocation of
    /// its own.
    pub(crate) fn read_some(
        &mut self,
        mut src: impl Read,
        rail: usize,
        landing: &mut LandingTable,
        out: &mut Vec<(usize, PacketFrame)>,
        tally: &mut SyscallStats,
    ) -> std::io::Result<bool> {
        if self.closed {
            return Ok(false);
        }
        let before = out.len();
        // A frame in progress is read where it will stay (no bounce, and
        // for `Own` no zero-fill), as far as the socket has it. The
        // reads that takes are tallied as one call.
        let (framed, asked, got, read) = match &mut self.partial {
            None => {
                let space = &mut self.rx_buf[self.rx_len..];
                match src.read(space) {
                    Ok(n) => (false, space.len(), n, Ok(())),
                    Err(e) => (false, space.len(), 0, Err(e)),
                }
            }
            Some(Partial::Own { frame, want }) => {
                let (asked, had) = (*want - frame.len(), frame.len());
                let read = src.take(asked as u64).read_to_end(frame);
                (true, asked, frame.len() - had, read.map(drop))
            }
            Some(Partial::Landed { window, filled, .. }) => {
                let space = &mut window[*filled..];
                let (got, read) = read_until_blocked(&mut src, space);
                *filled += got;
                (true, space.len(), got, read)
            }
        };
        tally.rx_calls += u64::from(got > 0);
        let carved = if framed {
            if got == asked {
                let whole = self.partial.take().expect("framed");
                out.push((rail, whole.into_frame()));
            }
            Ok(())
        } else {
            self.rx_len += got;
            self.carve(rail, landing, out)
        };
        tally.rx_frames += (out.len() - before) as u64;
        match read.and(carved) {
            Ok(()) => {
                // `read` tells the end of the stream with 0, the other
                // two by stopping short. Frames already carved still count.
                self.closed = got == 0 || (framed && got < asked);
                Ok(got == asked)
            }
            // (`TimedOut`: a blocking socket's receive timeout, which
            // some platforms report under this name.)
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(true),
            Err(e) => {
                self.closed = true;
                Err(e)
            }
        }
    }

    /// Carve the frames in `rx_buf[..rx_len]` by offset, each copied out
    /// — a chunk's payload into the window `landing` has for it, anything
    /// else whole into an allocation of exactly its size — so that a
    /// delivered payload never pins this buffer. A trailing incomplete
    /// frame moves to `partial`, once enough of it is there to tell
    /// where it goes.
    fn carve(
        &mut self,
        rail: usize,
        landing: &mut LandingTable,
        out: &mut Vec<(usize, PacketFrame)>,
    ) -> std::io::Result<()> {
        let mut off = 0;
        while let Some(len) = frame_len(&self.rx_buf[off..self.rx_len])? {
            let body = off + LEN_PREFIX;
            let have = &self.rx_buf[body..self.rx_len.min(body + len)];
            let whole = have.len() == len;
            let window = if len >= ChunkHead::LEN {
                if have.len() < ChunkHead::LEN && ChunkHead::possible(have) {
                    // Where this frame goes is in bytes yet to come.
                    break;
                }
                ChunkHead::peek(have)
                    .ok()
                    .flatten()
                    .filter(|head| head.len == len - ChunkHead::LEN)
                    .and_then(|head| landing.claim(&head))
            } else {
                None
            };
            off = body + have.len();
            let frame = match window {
                Some(mut window) => {
                    let (head, payload) = have.split_at(ChunkHead::LEN);
                    window[..payload.len()].copy_from_slice(payload);
                    Partial::Landed {
                        head: head.to_vec(),
                        window,
                        filled: payload.len(),
                    }
                }
                None => {
                    let mut frame = Vec::with_capacity(len);
                    frame.extend_from_slice(have);
                    Partial::Own { frame, want: len }
                }
            };
            if !whole {
                self.partial = Some(frame);
                break;
            }
            out.push((rail, frame.into_frame()));
        }
        self.rx_buf.copy_within(off..self.rx_len, 0);
        self.rx_len -= off;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A nonblocking source: hands out `data` in the given piece sizes,
    /// `WouldBlock` between pieces, end of stream after the last.
    struct Pieces<'a> {
        data: &'a [u8],
        cuts: Vec<usize>,
        blocked: bool,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(piece) = self.cuts.first_mut() else {
                return Ok(0);
            };
            if std::mem::take(&mut self.blocked) {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(*piece);
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            *piece -= n;
            if *piece == 0 {
                self.cuts.remove(0);
                self.blocked = true;
            }
            Ok(n)
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
        let mut src = Pieces {
            data: &stream,
            cuts: vec![stream.len()],
            blocked: false,
        };
        let (mut reader, mut out) = (FrameReader::new(), Vec::new());
        let err = reader
            .read_some(
                &mut src,
                0,
                &mut LandingTable::new(),
                &mut out,
                &mut SyscallStats::default(),
            )
            .expect_err("oversized prefix");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0].1.to_bytes()[..], b"abc");
        assert!(reader.closed());
    }

    // ------------------------------------------------------------------
    // Landing
    // ------------------------------------------------------------------

    use nmad_wire::{ChunkPacket, EagerPacket, FrameBody, Packet, Reassembler};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Adds up the bytes the calling thread asks the allocator for
    /// (tests run on threads of their own).
    struct Counting;

    thread_local! {
        static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    }

    fn note(bytes: usize) {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes));
    }

    // SAFETY: every call is forwarded unchanged to the system allocator;
    // the counter is a plain thread-local integer with no destructor.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller's obligations are passed on as they are.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller's obligations are passed on as they are.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size.saturating_sub(layout.size()));
            // SAFETY: the caller's obligations are passed on as they are.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` above with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    const CONN: ConnId = 3;

    fn byte_of(at: u64) -> u8 {
        (at.wrapping_mul(131) >> 3) as u8
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
        let blocked = false;
        Pieces {
            data,
            cuts,
            blocked,
        }
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
                if let Some(mut message) = done.expect("accepted") {
                    whole = message.segments.pop();
                }
            }
            packet
        });
        (packets.collect(), whole)
    }

    /// Bytes the allocator was asked for while `call` ran.
    fn allocated<T>(call: impl FnOnce() -> T) -> (usize, T) {
        let before = ALLOCATED.with(Cell::get);
        let out = call();
        (ALLOCATED.with(Cell::get) - before, out)
    }

    fn segment(total: u64) -> Vec<u8> {
        (0..total).map(byte_of).collect()
    }

    /// The chunks of one segment arrive on two rails whose reads
    /// interleave, each stream cut in two at every byte offset — inside a
    /// prefix, inside a chunk head (which must then be waited for, not
    /// missed), inside a payload, on a boundary — with another kind's
    /// frame between them. Every frame decodes to what was encoded, every
    /// chunk payload sits at its offset in one allocation, and the
    /// reassembler re-joins them: nothing is gathered. None of these
    /// frames is as large as the read buffer: what arrives whole in it
    /// lands too, copied once.
    #[test]
    fn chunks_of_two_rails_land_in_one_allocation_wherever_the_streams_are_cut() {
        const TOTAL: u64 = 3000;
        let eager = Packet::Eager(EagerPacket {
            msg_id: 41,
            seg_index: 0,
            total_segs: 1,
            data: Bytes::from(vec![9u8; 200]),
        });
        let sent = [
            vec![
                chunk_of(40, 0, 700, TOTAL),
                eager,
                chunk_of(40, 700, 100, TOTAL),
            ],
            vec![
                chunk_of(40, 2000, 1000, TOTAL),
                chunk_of(40, 800, 1200, TOTAL),
            ],
        ];
        let streams = [wire_of(&sent[0]), wire_of(&sent[1])];
        assert!(streams.iter().all(|s| s.len() < READ_CHUNK));
        for cut in 0..=streams[0].len().max(streams[1].len()) {
            let mut table = LandingTable::new();
            let mut rails: Vec<_> = streams
                .iter()
                .map(|stream| {
                    let cut = cut.min(stream.len());
                    let src = pieces(stream, &[cut]);
                    (src, FrameReader::new())
                })
                .collect();
            let (mut out, mut tally) = (Vec::new(), SyscallStats::default());
            while rails.iter().any(|(_, reader)| !reader.closed()) {
                for (rail, (src, reader)) in rails.iter_mut().enumerate() {
                    reader
                        .read_some(src, rail, &mut table, &mut out, &mut tally)
                        .expect("well-formed");
                }
            }
            assert_eq!(tally.rx_frames, 5, "at {cut}");
            assert_eq!(table.unclaimed, 0, "at {cut}");

            let mut reasm = Reassembler::new();
            let (packets, whole) = deliver(&out, &mut reasm, false);
            for (rail, sent) in sent.iter().enumerate() {
                let of_rail = std::iter::zip(&out, &packets).filter(|((r, _), _)| *r == rail);
                let got: Vec<&Packet> = of_rail.map(|(_, packet)| packet).collect();
                assert_eq!(got, sent.iter().collect::<Vec<_>>(), "at {cut}");
            }
            let whole = whole.expect("every chunk arrived");
            assert_eq!(whole, segment(TOTAL), "at {cut}");
            assert_eq!(
                (reasm.joined_bytes(), reasm.gathered_bytes()),
                (TOTAL, 0),
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
    /// whether it arrives whole or stalls inside its payload.
    #[test]
    fn odd_and_hostile_heads_take_the_miss_path_and_allocate_nothing_more() {
        const MIB: u64 = 1 << 20;
        // One chunk of a 1 MiB segment is in place.
        let mut table = LandingTable::new();
        const OPENED: usize = (MIB / LANDING_OPEN_SHARE) as usize;
        let first = wire_of(&[chunk_of(40, 100, OPENED, MIB)]);
        let (asked, out) =
            allocated(|| drain_one(&mut table, &mut FrameReader::new(), &first, &[]));
        assert!(asked >= MIB as usize, "the segment's allocation");
        assert_eq!(out[0].1.num_parts(), 2);
        assert_eq!(table.unclaimed, MIB as usize - OPENED);

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
                assert_eq!(out.len(), 1, "{what}");
                assert_eq!(out[0].1.num_parts(), 1, "{what}");
                assert_eq!(out[0].1.to_bytes()[..], stream[LEN_PREFIX..], "{what}");
                assert_eq!(table.unclaimed, MIB as usize - OPENED, "{what}");
                assert_eq!(table.segments.len(), 1, "{what}");
            }
        }
        // What did not open the segment is placed in it once it is open.
        let after = wire_of(&[chunk_of(40, MIB / 2, 100, MIB)]);
        let out = drain_one(&mut table, &mut FrameReader::new(), &after, &[]);
        assert_eq!(out[0].1.num_parts(), 2);
    }

    /// A reader that closes inside a window takes the window with it:
    /// the range was claimed, is never delivered and is not handed out
    /// again, so its retransmission misses, arrives in a frame of its
    /// own and the segment is gathered — late, not wrong.
    #[test]
    fn a_window_lost_with_its_reader_is_not_handed_out_again() {
        const TOTAL: u64 = 4000;
        let mut table = LandingTable::new();
        let lost = wire_of(&[chunk_of(40, 1000, 2000, TOTAL)]);
        let mut dying = FrameReader::new();
        let out = drain_one(
            &mut table,
            &mut dying,
            &lost[..lost.len() - 500],
            &[900, 600],
        );
        assert!(out.is_empty() && dying.closed());
        assert_eq!(table.unclaimed, 2000, "claimed before its first byte");
        drop(dying);

        let rest = wire_of(&[
            chunk_of(40, 0, 1000, TOTAL),
            chunk_of(40, 1000, 2000, TOTAL),
            chunk_of(40, 3000, 1000, TOTAL),
        ]);
        let out = drain_one(&mut table, &mut FrameReader::new(), &rest, &[]);
        let parts: Vec<usize> = out.iter().map(|(_, f)| f.num_parts()).collect();
        assert_eq!(parts, [2, 1, 2], "the retransmission alone misses");
        let mut reasm = Reassembler::new();
        let (_, whole) = deliver(&out, &mut reasm, true);
        assert_eq!(whole.expect("whole"), segment(TOTAL));
        assert_eq!((reasm.joined_bytes(), reasm.gathered_bytes()), (0, TOTAL));
    }

    /// The table holds at most `LANDING_ENTRIES` segments and
    /// `LANDING_BYTES` unclaimed, whatever arrives. For room in bytes the
    /// oldest segments' unclaimed ranges are given up and their later
    /// chunks miss; past the entry count the oldest segment is forgotten
    /// and a later chunk of it starts over in an allocation of its own.
    /// Either way the segment is gathered when whole.
    #[test]
    fn the_table_is_bounded_in_segments_and_in_unclaimed_bytes() {
        fn bounded(table: &LandingTable) {
            let unclaimed = table.segments.iter().map(Landing::unclaimed);
            assert_eq!(unclaimed.sum::<usize>(), table.unclaimed);
            assert!(table.unclaimed <= LANDING_BYTES);
            assert!(table.segments.len() <= LANDING_ENTRIES);
        }
        let head = |msg, offset, len, total_len| ChunkHead {
            conn_id: CONN,
            msg_id: msg,
            seg_index: 0,
            offset,
            total_len,
            len,
        };

        // (Zero pages nobody writes: reserved, never resident.)
        let big = (LANDING_BYTES / 8 * 3) as u64;
        let part = (big / LANDING_OPEN_SHARE) as usize;
        let mut table = LandingTable::new();
        for msg in 0..3 {
            assert!(table.claim(&head(msg, 0, part, big)).is_some());
            bounded(&table);
        }
        assert!(table.segments[0].free.is_empty(), "given up for the third");
        assert_eq!(table.unclaimed, 2 * (big as usize - part));
        assert!(table.claim(&head(0, part as u64, 4096, big)).is_none());
        assert!(table.claim(&head(1, part as u64, 4096, big)).is_some());
        // The largest segment there is fits once everything else went.
        let (most, part) = (LANDING_BYTES as u64, LANDING_BYTES / 8);
        assert!(table.claim(&head(9, 0, part, most)).is_some());
        assert_eq!(table.unclaimed, LANDING_BYTES - part);
        bounded(&table);
        assert!(table.claim(&head(10, 0, part + 1, most + 1)).is_none());

        let mut table = LandingTable::new();
        let first = table.claim(&head(0, 0, 100, 800)).expect("room");
        for msg in 1..=LANDING_ENTRIES as u64 {
            assert!(table.claim(&head(msg, 0, 100, 800)).is_some());
            bounded(&table);
        }
        assert_eq!(table.segments.len(), LANDING_ENTRIES);
        assert_eq!(table.unclaimed, LANDING_ENTRIES * 700);
        let again = table.claim(&head(0, 100, 700, 800)).expect("a new segment");
        bounded(&table);
        let mut reasm = Reassembler::new();
        let placed = [(0, first.freeze()), (100, again.freeze())];
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
        assert_eq!(table.segments[0].free.len(), LANDING_FRAGMENTS);
        assert!(table.claim(&head(0, 200, 10, 1000)).is_some());
        assert_eq!(table.segments[0].free.len(), LANDING_FRAGMENTS - 1);
        bounded(&table);
    }
}
