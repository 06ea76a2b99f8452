//! Length-prefixed framing off a byte stream: the reader every rail
//! carves its arrivals with, and the landing table through which the
//! rails' readers put a rendezvous chunk where its segment will be
//! delivered from.
//!
//! Its tests are `tests/frame_reader.rs`, which compiles this file into
//! a binary whose allocator fills every fresh allocation with a sentinel.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};

use bytes::{Bytes, Window};
use nmad_core::SyscallStats;
use nmad_wire::{ChunkHead, ConnId, MsgId, PacketFrame, PartList};

/// Frame length prefix size.
pub(crate) const LEN_PREFIX: usize = 4;
/// Largest accepted frame (sanity bound against corrupt prefixes).
pub(crate) const MAX_FRAME: usize = 64 << 20;
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
pub(crate) const LANDING_OPEN_SHARE: u64 = 8;
/// Unclaimed ranges one segment may be in. Chunks arrive in order per
/// rail, so two rails leave two; a claim that would leave more misses.
pub(crate) const LANDING_FRAGMENTS: usize = 8;
/// Bytes of one slab: the allocation small frames are carved into, one
/// after the other, so that they cost no allocation each. A delivery
/// made of one of them pins its slab, and only that one.
pub(crate) const SLAB_LEN: usize = 2 * 1024;
/// Slabs a reader keeps, to start over once nobody holds a frame of one
/// any more: the frames of one read are handed on together, so a read of
/// many small frames fills several before any of them is let go.
pub(crate) const SLABS: usize = 8;
/// Frames of at most this many bytes, chunks aside, are carved into the
/// slab; a larger one gets an allocation of its own.
pub(crate) const SLAB_FRAME_MAX: usize = SLAB_LEN / 4;

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

/// Where the chunks of the segments in progress go: one allocation per
/// segment, of the `total_len` its chunk heads state and written by
/// nobody yet ([`Window::uninit`]: no zero-fill for bytes a `read` will
/// overwrite), out of which each chunk frame claims the window
/// `[offset, offset + len)` to be read into — on whichever rail it
/// arrives, in whatever order — so that the chunks reach the engine as
/// slices of one allocation, re-join there (`Bytes::try_unsplit`) and the
/// segment is delivered without being gathered.
///
/// What the allocation held before (an earlier message's bytes, another
/// connection's) cannot reach the engine: a window is written only at its
/// cursor, from the stream, and frozen only once written to its end, so a
/// frame's payload is made of bytes this reader read, and a window whose
/// frame never completed (a reader closed mid-window, a range given up
/// for room) is dropped unread.
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
    pub(crate) fn claim(&mut self, head: &ChunkHead) -> Option<Window> {
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
            free: vec![(0, Window::uninit(total_len))],
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
    /// A small frame in its window of the slab: the source is read
    /// straight into it, at its cursor, until it is full.
    Slab(Window),
    /// A chunk whose payload has a place in its segment: the source is
    /// read straight into `window`, at its cursor, until it is full.
    Landed { head: Vec<u8>, window: Window },
}

impl Partial {
    /// The frame, complete: as one part, or — landed — the head in a
    /// part of its own and the frozen window for the payload.
    fn into_frame(self) -> PacketFrame {
        match self {
            Partial::Own { frame, .. } => PacketFrame::from_wire(Bytes::from(frame)),
            Partial::Slab(window) => PacketFrame::from_wire(window.freeze()),
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
    /// Read buffer: [`READ_CHUNK`] bytes of capacity, allocated once and
    /// written by nobody but the socket ([`Source::read_spare`]), so its
    /// length is the bytes read. They are unframed input, carved after
    /// each read ([`FrameReader::carve`]); only a partial length prefix
    /// ever stays behind, or a prefix and less than the head of what may
    /// be a chunk frame.
    rx_buf: Vec<u8>,
    /// The frame in progress, if it is not all in `rx_buf`.
    partial: Option<Partial>,
    /// What is left of the slabs small frames are carved into, oldest
    /// first: the last is the one being carved.
    slabs: Vec<Window>,
    /// Peer closed, or the stream failed or lost framing: no more reads.
    closed: bool,
}

/// Where a rail's bytes come from: a `Read` that can also read straight
/// into bytes nobody has written — a [`Window`]'s unwritten part, a
/// `Vec`'s spare capacity — over which no `&mut [u8]` for `Read::read`
/// may be made.
pub(crate) trait Source: Read {
    /// One read into `window` at its cursor, which moves over the bytes
    /// read: their count, 0 at the end of the stream.
    fn read_into(&mut self, window: &mut Window) -> std::io::Result<usize>;

    /// One read into `buf`'s spare capacity, whose length moves over the
    /// bytes read: their count, 0 at the end of the stream. The capacity
    /// past them is left as it was.
    fn read_spare(&mut self, buf: &mut Vec<u8>) -> std::io::Result<usize>;
}

impl<S: Source + ?Sized> Source for &mut S {
    fn read_into(&mut self, window: &mut Window) -> std::io::Result<usize> {
        (**self).read_into(window)
    }

    fn read_spare(&mut self, buf: &mut Vec<u8>) -> std::io::Result<usize> {
        (**self).read_spare(buf)
    }
}

/// Read into `window` until it is full, the source would block or ends,
/// as `read_to_end` does into a `Vec`: the bytes read, and the error that
/// stopped it short if one did (a source that ended is no error).
fn read_until_blocked(mut src: impl Source, window: &mut Window) -> (usize, std::io::Result<()>) {
    let mut got = 0;
    while window.remaining() > 0 {
        match src.read_into(window) {
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
            rx_buf: Vec::with_capacity(READ_CHUNK),
            partial: None,
            slabs: Vec::with_capacity(SLABS),
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
        mut src: impl Source,
        rail: usize,
        landing: &mut LandingTable,
        out: &mut Vec<(usize, PacketFrame)>,
        tally: &mut SyscallStats,
    ) -> std::io::Result<bool> {
        if self.closed {
            return Ok(false);
        }
        let before = out.len();
        // Nothing is zero-filled to be read into: the read buffer's spare
        // capacity takes one read, and a frame in progress is read where
        // it will stay (no bounce), as far as the socket has it. The
        // reads that takes are tallied as one call.
        let (framed, asked, got, read) = match &mut self.partial {
            None => {
                let asked = self.rx_buf.capacity() - self.rx_buf.len();
                match src.read_spare(&mut self.rx_buf) {
                    Ok(n) => (false, asked, n, Ok(())),
                    Err(e) => (false, asked, 0, Err(e)),
                }
            }
            Some(Partial::Own { frame, want }) => {
                let (asked, had) = (*want - frame.len(), frame.len());
                let read = src.take(asked as u64).read_to_end(frame);
                (true, asked, frame.len() - had, read.map(drop))
            }
            Some(Partial::Landed { window, .. } | Partial::Slab(window)) => {
                let asked = window.remaining();
                let (got, read) = read_until_blocked(&mut src, window);
                (true, asked, got, read)
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

    /// Carve the frames in `rx_buf` by offset, each copied out
    /// — a chunk's payload into the window `landing` has for it, a small
    /// frame into the slab, anything else whole into an allocation of
    /// exactly its size — so that a delivered payload never pins this
    /// buffer. A trailing incomplete frame moves to `partial`, once
    /// enough of it is there to tell where it goes.
    fn carve(
        &mut self,
        rail: usize,
        landing: &mut LandingTable,
        out: &mut Vec<(usize, PacketFrame)>,
    ) -> std::io::Result<()> {
        let mut off = 0;
        while let Some(len) = frame_len(&self.rx_buf[off..])? {
            let body = off + LEN_PREFIX;
            let have = &self.rx_buf[body..self.rx_buf.len().min(body + len)];
            let whole = have.len() == len;
            // (A frame shorter than a chunk head is no chunk of anything.)
            let chunk = len >= ChunkHead::LEN && ChunkHead::possible(have);
            let window = if chunk {
                if have.len() < ChunkHead::LEN {
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
                    window.put_slice(payload);
                    Partial::Landed {
                        head: head.to_vec(),
                        window,
                    }
                }
                // (A chunk that missed is gathered with its segment's
                // others: it does not pin a slab meanwhile.)
                None if len <= SLAB_FRAME_MAX && !chunk => {
                    let mut window = slab_window(&mut self.slabs, len);
                    window.put_slice(have);
                    Partial::Slab(window)
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
        self.rx_buf.drain(..off);
        Ok(())
    }
}

/// A window of `len` bytes, at most [`SLAB_FRAME_MAX`], off the front of
/// the last of `slabs`. When that one has run out, the oldest slab nobody
/// holds a frame of any more is started over ([`Window::reclaim`]) and
/// carved next; only when none is free is a new one made, the oldest
/// given up beyond [`SLABS`] — it is freed with the last frame carved
/// from it.
fn slab_window(slabs: &mut Vec<Window>, len: usize) -> Window {
    if slabs.last().is_none_or(|slab| slab.len() < len) {
        match slabs.iter_mut().position(Window::reclaim) {
            Some(free) => {
                let slab = slabs.remove(free);
                slabs.push(slab);
            }
            None => {
                if slabs.len() == SLABS {
                    slabs.remove(0);
                }
                slabs.push(Window::uninit(SLAB_LEN));
            }
        }
    }
    let slab = slabs.last_mut().expect("a slab with room");
    let rest = slab.split_off(len);
    std::mem::replace(slab, rest)
}
