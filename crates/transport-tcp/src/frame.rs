//! Length-prefixed framing off a byte stream: the one reader both
//! runtimes carve arrivals with.

use std::io::{ErrorKind, Read};

use bytes::Bytes;
use nmad_core::SyscallStats;
use nmad_wire::PacketFrame;

/// Frame length prefix size.
pub(crate) const LEN_PREFIX: usize = 4;
/// Largest accepted frame (sanity bound against corrupt prefixes).
const MAX_FRAME: usize = 64 << 20;
/// Bytes asked of the socket per `read` call while no frame larger than
/// this is in progress (such a frame is read straight into its own
/// allocation, however large).
pub(crate) const READ_CHUNK: usize = 64 * 1024;

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

/// The read half of one rail: partial reads in, whole frames out.
pub(crate) struct FrameReader {
    /// Read buffer, allocated and zeroed once. `rx_buf[..rx_len]` is
    /// unframed input, carved after each read ([`FrameReader::carve`]);
    /// only a partial length prefix ever stays behind.
    rx_buf: Vec<u8>,
    rx_len: usize,
    /// A frame that was not all there in `rx_buf` continues in its own
    /// allocation: the source is read straight into `rx_frame` until it
    /// holds `rx_want` bytes (0 = no such frame in progress).
    rx_frame: Vec<u8>,
    rx_want: usize,
    /// Peer closed, or the stream failed or lost framing: no more reads.
    closed: bool,
}

impl FrameReader {
    pub(crate) fn new() -> Self {
        FrameReader {
            rx_buf: vec![0; READ_CHUNK],
            rx_len: 0,
            rx_frame: Vec::new(),
            rx_want: 0,
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
    pub(crate) fn read_some(
        &mut self,
        mut src: impl Read,
        rail: usize,
        out: &mut Vec<(usize, PacketFrame)>,
        tally: &mut SyscallStats,
    ) -> std::io::Result<bool> {
        if self.closed {
            return Ok(false);
        }
        let (before, framed) = (out.len(), self.rx_want > 0);
        let (asked, got, read) = if framed {
            // `read_to_end` fills the spare capacity reserved for exactly
            // this frame (no zero-fill, no bounce) and keeps what it got
            // when the socket would block. Its internal reads are tallied
            // as one call.
            let had = self.rx_frame.len();
            let read = src
                .take((self.rx_want - had) as u64)
                .read_to_end(&mut self.rx_frame);
            (
                self.rx_want - had,
                self.rx_frame.len() - had,
                read.map(drop),
            )
        } else {
            let space = &mut self.rx_buf[self.rx_len..];
            match src.read(space) {
                Ok(n) => (space.len(), n, Ok(())),
                Err(e) => (space.len(), 0, Err(e)),
            }
        };
        tally.rx_calls += u64::from(got > 0);
        let carved = if !framed {
            self.rx_len += got;
            self.carve(rail, out)
        } else {
            if self.rx_frame.len() == self.rx_want {
                let wire = Bytes::from(std::mem::take(&mut self.rx_frame));
                out.push((rail, PacketFrame::from_wire(wire)));
                self.rx_want = 0;
            }
            Ok(())
        };
        tally.rx_frames += (out.len() - before) as u64;
        match read.and(carved) {
            Ok(()) => {
                // `read` tells the end of the stream with 0, `read_to_end`
                // by stopping short. Frames already carved still count.
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

    /// Carve the frames in `rx_buf[..rx_len]` by offset, each copied into
    /// an allocation of exactly its size so that a delivered payload
    /// never pins this buffer. A trailing incomplete frame moves to
    /// `rx_frame`.
    fn carve(&mut self, rail: usize, out: &mut Vec<(usize, PacketFrame)>) -> std::io::Result<()> {
        let mut off = 0;
        while let Some(len) = frame_len(&self.rx_buf[off..self.rx_len])? {
            let body = off + LEN_PREFIX;
            if self.rx_len - body < len {
                self.rx_frame = Vec::with_capacity(len);
                self.rx_frame
                    .extend_from_slice(&self.rx_buf[body..self.rx_len]);
                self.rx_want = len;
                off = self.rx_len;
                break;
            }
            let wire = Bytes::copy_from_slice(&self.rx_buf[body..body + len]);
            out.push((rail, PacketFrame::from_wire(wire)));
            off = body + len;
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
        let mut src = Pieces {
            data: stream,
            cuts: [cut, stream.len() - cut]
                .into_iter()
                .filter(|&n| n > 0)
                .collect(),
            blocked: false,
        };
        let (mut reader, mut out) = (FrameReader::new(), Vec::new());
        let mut tally = SyscallStats::default();
        while !reader.closed() {
            reader.read_some(&mut src, 7, &mut out, &mut tally)?;
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
            .read_some(&mut src, 0, &mut out, &mut SyscallStats::default())
            .expect_err("oversized prefix");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0].1.to_bytes()[..], b"abc");
        assert!(reader.closed());
    }
}
