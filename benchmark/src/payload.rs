//! Seeded payloads and the verifier that checks them from outside.
//!
//! Every message carries its sequence number and length in its first 16
//! bytes; the body is a prefix of one seeded master buffer. A delivered
//! message is checked by length, sequence number and two 64-bit word-sums
//! whose expected values come from prefix tables computed from the seed,
//! never by comparing against the buffer that was sent: the zero-copy mem
//! fabric may hand that very buffer back. The plain sum notices any changed
//! word; the second weights every word by its position, so chunks that
//! arrive intact at the wrong offsets (two rail halves swapped by
//! reassembly) do not verify either.

use crate::adapter::Bytes;

/// Bytes of header at the start of every message: sequence number, then
/// length xor a seeded salt, both little-endian `u64`.
pub const HEADER: usize = 16;

/// SplitMix64: small, seedable, good enough to fill buffers and shuffle.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// What the receiver must find in one message.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    pub seq: u64,
    pub size: usize,
    pub segs: usize,
    sums: Sums,
}

/// Why a delivered message was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fail {
    Timeout,
    Length,
    Sequence,
    Checksum,
}

/// Wrapping sums over the little-endian 64-bit words of a message: the
/// words themselves, and each word times its one-based position.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Sums {
    plain: u64,
    weighted: u64,
    words: u64,
}

impl Sums {
    fn add(&mut self, word: u64) {
        self.words += 1;
        self.plain = self.plain.wrapping_add(word);
        self.weighted = self.weighted.wrapping_add(word.wrapping_mul(self.words));
    }

    fn add_bytes(&mut self, words: &[u8]) {
        for w in words.chunks_exact(8) {
            self.add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
    }
}

/// Words between two entries of the prefix table: an expectation costs a
/// table look-up plus at most this many words summed from the master.
const STRIDE: usize = 64;

/// The seeded master buffer and its word-sum prefix table.
pub struct Template {
    master: Vec<u8>,
    /// `prefix[k]` = the sums over the first `k * STRIDE` words.
    prefix: Vec<Sums>,
    salt: u64,
}

impl Template {
    /// A master buffer of `max_size` seeded bytes whose header is zero.
    pub fn new(seed: u64, max_size: usize) -> Self {
        assert!(max_size >= HEADER);
        let mut rng = Rng::new(seed ^ 0x6E6D_6164_2D62_656E);
        let salt = rng.next_u64();
        let mut master = vec![0u8; max_size];
        for chunk in master[HEADER..].chunks_mut(8) {
            let w = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
        let mut acc = Sums::default();
        let mut prefix = vec![acc];
        for block in master.chunks_exact(8 * STRIDE) {
            acc.add_bytes(block);
            prefix.push(acc);
        }
        Template {
            master,
            prefix,
            salt,
        }
    }

    pub fn max_size(&self) -> usize {
        self.master.len()
    }

    pub fn body(&self, size: usize) -> &[u8] {
        &self.master[..size]
    }

    /// The expectation for message `seq` of `size` bytes in `segs` segments.
    pub fn expect(&self, seq: u64, size: usize, segs: usize) -> Expect {
        let whole = size / 8;
        let mut sums = self.prefix[whole / STRIDE];
        sums.add_bytes(&self.master[(sums.words as usize) * 8..whole * 8]);
        let tail_len = size - whole * 8;
        if tail_len > 0 {
            let mut tail = [0u8; 8];
            tail[..tail_len].copy_from_slice(&self.master[whole * 8..size]);
            sums.add(u64::from_le_bytes(tail));
        }
        // The master's header is zero; a message's first two words are
        // its sequence number and its salted length.
        let tag = size as u64 ^ self.salt;
        sums.plain = sums.plain.wrapping_add(seq).wrapping_add(tag);
        sums.weighted = sums
            .weighted
            .wrapping_add(seq)
            .wrapping_add(tag.wrapping_mul(2));
        Expect {
            seq,
            size,
            segs,
            sums,
        }
    }

    /// Make `buf` the payload of message `seq`: a recycled buffer of the
    /// right length only gets its header rewritten.
    pub fn fill(&self, buf: &mut Vec<u8>, seq: u64, size: usize) {
        if buf.len() != size {
            buf.clear();
            buf.extend_from_slice(&self.master[..size]);
        }
        buf[..8].copy_from_slice(&seq.to_le_bytes());
        buf[8..HEADER].copy_from_slice(&(size as u64 ^ self.salt).to_le_bytes());
    }

    /// Check a delivered message given as its parts in order.
    pub fn verify<'a>(
        &self,
        parts: impl Iterator<Item = &'a [u8]>,
        e: &Expect,
    ) -> Result<(), Fail> {
        let mut sum = WordSum::default();
        let mut head = [0u8; HEADER];
        let mut len = 0usize;
        for p in parts {
            if len < HEADER {
                let n = (HEADER - len).min(p.len());
                head[len..len + n].copy_from_slice(&p[..n]);
            }
            len += p.len();
            sum.push(p);
        }
        if len != e.size {
            return Err(Fail::Length);
        }
        let seq = u64::from_le_bytes(head[..8].try_into().expect("8 bytes"));
        let tag = u64::from_le_bytes(head[8..].try_into().expect("8 bytes"));
        if seq != e.seq || tag != e.size as u64 ^ self.salt {
            return Err(Fail::Sequence);
        }
        if sum.finish() != e.sums {
            return Err(Fail::Checksum);
        }
        Ok(())
    }

    /// [`Template::verify`] on engine-delivered segments, which must also
    /// arrive as the segments that were packed.
    pub fn verify_segments(&self, segments: &[Bytes], e: &Expect) -> Result<(), Fail> {
        if segments.len() != e.segs {
            return Err(Fail::Length);
        }
        self.verify(segments.iter().map(|s| &s[..]), e)
    }
}

/// [`Sums`] over a byte stream given in pieces; the last partial word is
/// zero-padded.
#[derive(Default)]
struct WordSum {
    sums: Sums,
    carry: [u8; 8],
    carry_len: usize,
}

impl WordSum {
    fn push(&mut self, mut p: &[u8]) {
        if self.carry_len > 0 {
            let n = (8 - self.carry_len).min(p.len());
            self.carry[self.carry_len..self.carry_len + n].copy_from_slice(&p[..n]);
            self.carry_len += n;
            p = &p[n..];
            if self.carry_len < 8 {
                return;
            }
            self.sums.add(u64::from_le_bytes(self.carry));
            self.carry_len = 0;
        }
        let rest = &p[p.len() - p.len() % 8..];
        // The multiply is off the loop's dependency chain, so this runs
        // at about a word per cycle, well above memory speed.
        self.sums.add_bytes(&p[..p.len() - rest.len()]);
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carry_len = rest.len();
    }

    fn finish(mut self) -> Sums {
        if self.carry_len > 0 {
            self.carry[self.carry_len..].fill(0);
            self.sums.add(u64::from_le_bytes(self.carry));
        }
        self.sums
    }
}
