//! Minimal safe reader for the wire format.
//!
//! All integers are little-endian. The reader returns
//! [`WireError::Truncated`] instead of panicking on short input, which the
//! failure-injection tests rely on. What the decoders need of a reader is
//! [`Source`]: a header comes out whole, as the array its layout reads
//! itself from (`header::layout!`), and a payload as [`Bytes`].

use bytes::Bytes;

use crate::error::WireError;

/// Where a decoder reads from: a flat buffer ([`Reader`]) or the parts of
/// a frame ([`crate::frame::SgReader`]).
pub trait Source {
    /// Bytes not yet consumed.
    fn remaining(&self) -> usize;

    /// The next `N` bytes: one header, whole.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError>;

    /// The next `n` bytes, as a payload.
    fn bytes(&mut self, n: usize) -> Result<Bytes, WireError>;

    /// Fail if any bytes remain.
    fn expect_end(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(WireError::TrailingBytes(left)),
        }
    }
}

/// A bounds-checked reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Name of the structure being decoded, for error messages.
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Create a reader labelled `what` for diagnostics.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                what: self.what,
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

impl Source for Reader<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(*self.take(N)?.first_chunk().expect("take(N) is N bytes"))
    }

    /// The bytes are copied: a flat buffer is borrowed, not refcounted.
    fn bytes(&mut self, n: usize) -> Result<Bytes, WireError> {
        Ok(Bytes::copy_from_slice(self.take(n)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_arrays_and_payloads_in_order() {
        let mut r = Reader::new(&[0xAB, 0xEF, 0xBE, b't', b'a', b'i', b'l'], "test");
        assert_eq!(r.array::<1>().unwrap(), [0xAB]);
        assert_eq!(r.array().map(u16::from_le_bytes), Ok(0xBEEF));
        assert_eq!(&r.bytes(4).unwrap()[..], b"tail");
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncation_reports_context() {
        let mut r = Reader::new(&[1, 2], "short thing");
        assert_eq!(r.array::<1>().unwrap(), [1]);
        let err = r.array::<4>().unwrap_err();
        match err {
            WireError::Truncated {
                what,
                needed,
                available,
            } => {
                assert_eq!(what, "short thing");
                assert_eq!(needed, 4);
                assert_eq!(available, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = Reader::new(&[0; 3], "x");
        assert_eq!(r.expect_end(), Err(WireError::TrailingBytes(3)));
    }

    #[test]
    fn bytes_reads_exact() {
        let mut r = Reader::new(b"abcdef", "x");
        assert_eq!(&r.bytes(3).unwrap()[..], b"abc");
        assert_eq!(r.remaining(), 3);
        assert!(r.bytes(4).is_err());
    }
}
