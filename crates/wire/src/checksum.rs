//! CRC-32 (IEEE 802.3 polynomial), three kernels behind one streaming API.
//!
//! Used to protect packet payloads on the real threaded transport and to
//! let failure-injection tests corrupt packets detectably. Implemented
//! locally (the polynomial is public domain) to stay within the allowed
//! dependency set.
//!
//! Kernels, selected once at first use and cached as a function pointer:
//!
//! * [`Kernel::Scalar`] — classic one-byte-at-a-time table loop. Kept as
//!   the portable reference every other kernel must match bit for bit.
//! * [`Kernel::Slice16`] — slicing-by-16: 16 interleaved 256-entry
//!   tables built at compile time, consuming 16 bytes per iteration with
//!   no data dependency between the table lookups.
//! * [`Kernel::Simd`] — x86_64 carry-less-multiply folding (the Intel
//!   "Fast CRC Computation Using PCLMULQDQ" scheme), as wide as the CPU
//!   has it: four 512-bit lanes with VPCLMULQDQ (AVX-512) for inputs of
//!   256 bytes and more, four 128-bit lanes with PCLMULQDQ otherwise —
//!   one kernel, the width detected once ([`simd_fold_width`]). All
//!   `unsafe` is confined to the private `simd` submodule; everywhere else is
//!   safe Rust.
//!
//! The streaming `update`/`crc32_init`/`crc32_finish` surface is
//! unchanged from the scalar-only version, so the vectored encoders in
//! `frame.rs` (CRC streamed across `PacketFrame` parts) are untouched.
#![deny(clippy::missing_inline_in_public_items)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// 16 interleaved 256-entry lookup tables, built at compile time.
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k]` advances
/// a byte that sits `k` positions deeper in the 16-byte block.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

// ----------------------------------------------------------------------
// Kernel selection
// ----------------------------------------------------------------------

/// Which CRC kernel computes [`update`]. All kernels produce
/// bit-identical output (proptest-enforced); they differ only in speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Byte-at-a-time table loop (portable reference).
    Scalar,
    /// Slicing-by-16, 16 bytes per iteration (portable).
    Slice16,
    /// Carry-less-multiply folding at the widest width the CPU has
    /// (x86_64 with sse4.1+pclmulqdq at least).
    Simd,
}

impl Kernel {
    /// Stable lowercase name.
    #[inline]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Slice16 => "slice16",
            Kernel::Simd => "simd",
        }
    }

    /// Whether this kernel can run on the current CPU.
    #[inline]
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Scalar | Kernel::Slice16 => true,
            Kernel::Simd => simd::width() != 0,
        }
    }
}

/// Bits per fold lane of [`Kernel::Simd`] on this CPU: 512 (VPCLMULQDQ),
/// 128 (PCLMULQDQ), or 0 where the kernel is unavailable. Reports print
/// it so that throughputs from different hosts can be read.
#[inline]
pub fn simd_fold_width() -> u32 {
    simd::width()
}

/// Every kernel the current CPU supports, fastest last.
#[inline]
pub fn available_kernels() -> Vec<Kernel> {
    let mut v = vec![Kernel::Scalar, Kernel::Slice16];
    if Kernel::Simd.is_available() {
        v.push(Kernel::Simd);
    }
    v
}

type UpdateFn = fn(u32, &[u8]) -> u32;

/// Kernel entry points, indexed by `Kernel as usize`. `update_simd` is
/// only ever activated after feature detection succeeds.
const KERNEL_FNS: [UpdateFn; 3] = [update_scalar, update_slice16, update_simd];

/// Active kernel index + 1; 0 means "not resolved yet". Resolution (CPU
/// feature detection) happens exactly once; after that [`update`] costs
/// one relaxed load and an indirect call through the resolved function
/// pointer — never a per-call feature probe.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

#[cold]
fn resolve() -> usize {
    let best = if Kernel::Simd.is_available() {
        Kernel::Simd
    } else {
        Kernel::Slice16
    };
    // Racing resolvers pick the same answer; first store wins is fine.
    let idx = best as usize + 1;
    let _ = ACTIVE.compare_exchange(0, idx, Ordering::Relaxed, Ordering::Relaxed);
    ACTIVE.load(Ordering::Relaxed)
}

#[inline]
fn dispatch() -> UpdateFn {
    let mut idx = ACTIVE.load(Ordering::Relaxed);
    if idx == 0 {
        idx = resolve();
    }
    KERNEL_FNS[idx - 1]
}

/// The kernel [`update`] dispatches to (resolving it if this is the
/// first checksum touch of the process).
#[inline]
pub fn active_kernel() -> Kernel {
    let mut idx = ACTIVE.load(Ordering::Relaxed);
    if idx == 0 {
        idx = resolve();
    }
    match idx - 1 {
        0 => Kernel::Scalar,
        1 => Kernel::Slice16,
        _ => Kernel::Simd,
    }
}

// ----------------------------------------------------------------------
// Streaming API (kernel-dispatched)
// ----------------------------------------------------------------------

/// CRC-32 of `data`.
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update: feed chunks through `state` (start from
/// [`crc32_init`], finish with [`crc32_finish`]).
#[inline]
pub fn update(state: u32, data: &[u8]) -> u32 {
    dispatch()(state, data)
}

/// [`update`] through an explicitly chosen kernel (the kernel-agreement
/// tests; normal callers use [`update`]). Falls back to slicing-by-16 when the
/// requested kernel is unavailable on this CPU.
#[inline]
pub fn update_with(kernel: Kernel, state: u32, data: &[u8]) -> u32 {
    match kernel {
        Kernel::Scalar => update_scalar(state, data),
        Kernel::Slice16 => update_slice16(state, data),
        Kernel::Simd => update_simd(state, data),
    }
}

/// Initial streaming state.
#[inline]
pub fn crc32_init() -> u32 {
    0xFFFF_FFFF
}

/// Finalize a streaming state.
#[inline]
pub fn crc32_finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

// ----------------------------------------------------------------------
// Kernels
// ----------------------------------------------------------------------

fn update_scalar(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

fn update_slice16(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        let c: &[u8; 16] = c.try_into().expect("chunks_exact(16)");
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        crc = TABLES[15][(lo & 0xFF) as usize]
            ^ TABLES[14][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[13][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[12][(lo >> 24) as usize]
            ^ TABLES[11][c[4] as usize]
            ^ TABLES[10][c[5] as usize]
            ^ TABLES[9][c[6] as usize]
            ^ TABLES[8][c[7] as usize]
            ^ TABLES[7][c[8] as usize]
            ^ TABLES[6][c[9] as usize]
            ^ TABLES[5][c[10] as usize]
            ^ TABLES[4][c[11] as usize]
            ^ TABLES[3][c[12] as usize]
            ^ TABLES[2][c[13] as usize]
            ^ TABLES[1][c[14] as usize]
            ^ TABLES[0][c[15] as usize];
    }
    update_scalar(crc, chunks.remainder())
}

/// The SIMD kernel at the width this CPU has.
fn update_simd(state: u32, data: &[u8]) -> u32 {
    update_fold(simd::width(), state, data)
}

/// Carry-less folding `width` bits wide (a width the CPU has: see
/// [`simd::width`]) over the largest 16-byte-aligned prefix; the tail
/// continues through slicing-by-16 from the folded state. The 512-bit
/// fold needs 256 bytes to fill its four lanes and the 128-bit one 64;
/// shorter inputs go to the next narrower one, and to slicing-by-16
/// entirely below that or when the CPU has no fold at all.
fn update_fold(width: u32, state: u32, data: &[u8]) -> u32 {
    if data.len() < 64 || width == 0 {
        return update_slice16(state, data);
    }
    let (prefix, tail) = data.split_at(data.len() & !15);
    let folded = if width == 512 && prefix.len() >= 256 {
        // SAFETY: width 512 means `simd::width` detected avx512f,
        // avx512vl and vpclmulqdq beside the 128-bit features; the prefix
        // is a multiple of 16 bytes of at least 256 bytes.
        unsafe { simd::fold_vpclmul(state, prefix) }
    } else {
        // SAFETY: a nonzero width means sse4.1+pclmulqdq were detected;
        // the prefix is a multiple of 16 bytes of at least 64 bytes.
        unsafe { simd::fold_pclmul(state, prefix) }
    };
    update_slice16(folded, tail)
}

/// The one `unsafe` corner: carry-less-multiply folding for the
/// reflected IEEE polynomial, after Intel's white paper (V. Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction") and the widely used folding constants for 0x04C11DB7.
///
/// Every fold constant is `x^n mod P`, bit-reflected to 32 bits and
/// shifted left by one, for a fold distance of `d` bits as the pair
/// `n = d + 32`, `n = d - 32`.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_broadcast_i32x4, _mm512_clmulepi64_epi128,
        _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512,
        _mm512_zextsi128_si512, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128,
        _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128,
        _mm_xor_si128,
    };
    use std::sync::atomic::{AtomicU32, Ordering};

    // x^(4·512+32) mod P, x^(4·512-32) mod P — fold 2048 bits at a time.
    const K2080: i64 = 0x1_1542_778a;
    const K2016: i64 = 0x1_322d_1430;
    // x^(4·128+32) mod P, x^(4·128-32) mod P — fold 512 bits at a time.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    // x^(128+32) mod P, x^(128-32) mod P — fold 128 bits at a time.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    // x^64 mod P — reduce 64 bits to 32.
    const K5: i64 = 0x1_63cd_6124;
    // Barrett reduction constants: P(x) and µ = floor(x^64 / P(x)).
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// The widest fold this CPU has, in bits per lane: 512, 128 or 0.
    /// Detected on the first call and cached.
    pub fn width() -> u32 {
        const UNRESOLVED: u32 = u32::MAX;
        static WIDTH: AtomicU32 = AtomicU32::new(UNRESOLVED);
        let cached = WIDTH.load(Ordering::Relaxed);
        if cached != UNRESOLVED {
            return cached;
        }
        let narrow = is_x86_feature_detected!("sse4.1") && is_x86_feature_detected!("pclmulqdq");
        let wide = narrow
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("vpclmulqdq");
        let width = if wide {
            512
        } else if narrow {
            128
        } else {
            0
        };
        // Racing resolvers store the same answer.
        WIDTH.store(width, Ordering::Relaxed);
        width
    }

    /// Fold `a` down by 128 bits and absorb `b`:
    /// `a·x^shift mod P ⊕ b`, with the two halves of `a` multiplied by
    /// the two keys packed in `keys`.
    ///
    /// # Safety
    /// Caller guarantees pclmulqdq is present.
    #[inline]
    unsafe fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Take the next 16 bytes off `data`.
    ///
    /// # Safety
    /// Caller guarantees `data` holds at least 16 bytes: they are read
    /// before the slice index checks.
    #[inline]
    unsafe fn load(data: &mut &[u8]) -> __m128i {
        let v = _mm_loadu_si128(data.as_ptr() as *const __m128i);
        *data = &data[16..];
        v
    }

    /// [`fold`] on the four 128-bit lanes of a 512-bit register at once
    /// (`keys` holds the same pair in every lane); the two XORs are one
    /// three-way `vpternlogq`.
    ///
    /// # Safety
    /// Caller guarantees avx512f and vpclmulqdq are present.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "vpclmulqdq")]
    unsafe fn fold512(a: __m512i, b: __m512i, keys: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128(a, keys, 0x00);
        let hi = _mm512_clmulepi64_epi128(a, keys, 0x11);
        _mm512_ternarylogic_epi64(b, lo, hi, 0x96)
    }

    /// Take the next 64 bytes off `data`.
    ///
    /// # Safety
    /// Caller guarantees avx512f is present and `data` holds at least 64
    /// bytes: they are read before the slice index checks.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load512(data: &mut &[u8]) -> __m512i {
        let v = _mm512_loadu_si512(data.as_ptr() as *const __m512i);
        *data = &data[64..];
        v
    }

    /// Streaming-state-in, streaming-state-out PCLMUL fold.
    ///
    /// # Safety
    /// Caller guarantees sse4.1+pclmulqdq are present, `data.len()` is a
    /// multiple of 16 and at least 64.
    #[target_feature(enable = "sse4.1", enable = "pclmulqdq")]
    pub unsafe fn fold_pclmul(state: u32, mut data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        // Four independent 128-bit fold lanes hide the PCLMUL latency.
        let mut x3 = load(&mut data);
        let mut x2 = load(&mut data);
        let mut x1 = load(&mut data);
        let mut x0 = load(&mut data);
        // The streaming state is the raw (pre-conditioned) CRC register:
        // XOR it straight into the first lane's low 32 bits.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold(x3, load(&mut data), k1k2);
            x2 = fold(x2, load(&mut data), k1k2);
            x1 = fold(x1, load(&mut data), k1k2);
            x0 = fold(x0, load(&mut data), k1k2);
        }
        reduce([x3, x2, x1, x0], data)
    }

    /// The same fold on four 512-bit lanes: 256 bytes per iteration.
    ///
    /// # Safety
    /// Caller guarantees avx512f, avx512vl and vpclmulqdq are present
    /// beside sse4.1+pclmulqdq, `data.len()` is a multiple of 16 and at
    /// least 256.
    #[target_feature(
        enable = "sse4.1",
        enable = "pclmulqdq",
        enable = "avx512f",
        enable = "avx512vl",
        enable = "vpclmulqdq"
    )]
    pub unsafe fn fold_vpclmul(state: u32, mut data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 256 && data.len().is_multiple_of(16));
        // Lane 0 of a register is the lowest address: the earliest bytes.
        let mut z3 = load512(&mut data);
        let mut z2 = load512(&mut data);
        let mut z1 = load512(&mut data);
        let mut z0 = load512(&mut data);
        let state = _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32));
        z3 = _mm512_xor_si512(z3, state);

        let k2048 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2016, K2080));
        while data.len() >= 256 {
            z3 = fold512(z3, load512(&mut data), k2048);
            z2 = fold512(z2, load512(&mut data), k2048);
            z1 = fold512(z1, load512(&mut data), k2048);
            z0 = fold512(z0, load512(&mut data), k2048);
        }

        // Four registers to one, then the remaining 64-byte blocks: each
        // fold is 512 bits forward, lane onto the same lane.
        let k1k2 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2, K1));
        let mut z = fold512(z3, z2, k1k2);
        z = fold512(z, z1, k1k2);
        z = fold512(z, z0, k1k2);
        while data.len() >= 64 {
            z = fold512(z, load512(&mut data), k1k2);
        }
        let lanes = [
            _mm512_extracti32x4_epi32::<0>(z),
            _mm512_extracti32x4_epi32::<1>(z),
            _mm512_extracti32x4_epi32::<2>(z),
            _mm512_extracti32x4_epi32::<3>(z),
        ];
        reduce(lanes, data)
    }

    /// What both folds end with: four 128-bit lanes (earliest bytes
    /// first) to one, the remaining 16-byte blocks of `data`, then 128
    /// bits down to the 32-bit register value.
    ///
    /// # Safety
    /// Caller guarantees sse4.1+pclmulqdq are present.
    #[inline]
    #[target_feature(enable = "sse4.1", enable = "pclmulqdq")]
    unsafe fn reduce(lanes: [__m128i; 4], mut data: &[u8]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(lanes[0], lanes[1], k3k4);
        x = fold(x, lanes[2], k3k4);
        x = fold(x, lanes[3], k3k4);
        while data.len() >= 16 {
            x = fold(x, load(&mut data), k3k4);
        }

        // 128 -> 64 bits.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 64 -> 32 bits.
        let mask32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction back into a 32-bit register value.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, mask32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod simd {
    pub fn width() -> u32 {
        0
    }

    /// Unreachable on non-x86_64 (`width()` is 0); present so
    /// `update_fold` compiles unconditionally.
    ///
    /// # Safety
    /// Never called.
    pub unsafe fn fold_pclmul(_state: u32, _data: &[u8]) -> u32 {
        unreachable!("SIMD CRC kernel is x86_64-only")
    }

    /// As [`fold_pclmul`].
    ///
    /// # Safety
    /// Never called.
    pub unsafe fn fold_vpclmul(_state: u32, _data: &[u8]) -> u32 {
        unreachable!("SIMD CRC kernel is x86_64-only")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let oneshot = crc32(data);
        let mut st = crc32_init();
        for chunk in data.chunks(7) {
            st = update(st, chunk);
        }
        assert_eq!(crc32_finish(st), oneshot);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let clean = crc32(&data);
        data[17] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }

    /// Deterministic pseudo-random bytes (SplitMix64 stream).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut i = 0u64;
        while out.len() < len {
            let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            out.extend_from_slice(&z.to_le_bytes());
            i += 1;
        }
        out.truncate(len);
        out
    }

    #[test]
    fn kernels_agree_on_awkward_lengths() {
        // Straddle every alignment regime: empty, sub-block, exactly the
        // SIMD minimum, off-by-one around fold boundaries, large.
        for &len in &[
            0usize, 1, 3, 15, 16, 17, 31, 48, 63, 64, 65, 79, 80, 127, 128, 129, 255, 1024, 4096,
            65537,
        ] {
            let data = noise(len, 0xDEAD_BEEF ^ len as u64);
            let want = update_with(Kernel::Scalar, crc32_init(), &data);
            assert_eq!(
                update_with(Kernel::Slice16, crc32_init(), &data),
                want,
                "slice16 diverges at len {len}"
            );
            assert_eq!(
                update_with(Kernel::Simd, crc32_init(), &data),
                want,
                "simd diverges at len {len}"
            );
        }
    }

    #[test]
    fn kernels_agree_streaming_from_nonzero_state() {
        let data = noise(1000, 42);
        for &split in &[0usize, 1, 13, 64, 999, 1000] {
            let (a, b) = data.split_at(split);
            let want = update_scalar(update_scalar(crc32_init(), a), b);
            for k in [Kernel::Slice16, Kernel::Simd] {
                let st = update_with(k, crc32_init(), a);
                assert_eq!(update_with(k, st, b), want, "{} split {split}", k.name());
            }
        }
    }

    /// The fold widths this CPU has.
    fn fold_widths() -> impl Iterator<Item = u32> {
        [128, 512].into_iter().filter(|&w| w <= simd::width())
    }

    #[test]
    fn each_fold_width_agrees_with_scalar_on_every_length() {
        // Every length up to past four 256-byte blocks, both sides of
        // every multiple of 256 up to 4 KiB, and one large odd one.
        let mut lens: Vec<usize> = (0..=1100).collect();
        for block in (256..=4096).step_by(256) {
            lens.extend([block - 17, block - 16, block - 1, block]);
            lens.extend([block + 1, block + 15, block + 16, block + 17, block + 65]);
        }
        lens.push((1 << 20) + 17);
        let noise = noise((1 << 20) + 17 + 7, 0xC0FF_EE00);
        for len in lens {
            // (Whatever the alignment of the first byte.)
            let data = &noise[len % 8..][..len];
            let want = update_with(Kernel::Scalar, crc32_init(), data);
            for width in fold_widths() {
                let got = update_fold(width, crc32_init(), data);
                assert_eq!(got, want, "{width}-bit fold diverges at len {len}");
            }
        }
    }

    #[test]
    fn each_fold_width_streams_from_a_non_initial_state() {
        let data = noise(5000, 43);
        for split in [
            0usize, 1, 13, 64, 255, 256, 257, 271, 1000, 4095, 4744, 4999, 5000,
        ] {
            let (a, b) = data.split_at(split);
            let want = update_scalar(update_scalar(crc32_init(), a), b);
            for width in fold_widths() {
                let st = update_fold(width, crc32_init(), a);
                let got = update_fold(width, st, b);
                assert_eq!(got, want, "{width}-bit fold, split {split}");
            }
        }
    }

    #[test]
    fn simd_kernel_is_available_exactly_when_a_fold_width_is() {
        assert_eq!(Kernel::Simd.is_available(), simd_fold_width() != 0);
        assert!([0, 128, 512].contains(&simd_fold_width()));
    }

    /// `update` runs the widest kernel this CPU has: the SIMD fold
    /// wherever it is available, slicing-by-16 elsewhere, and the fold
    /// at 512 bits exactly where AVX-512 carries VPCLMULQDQ. What the
    /// kernels cost is `benchmark/`'s `wire.crc32_gbs`.
    #[test]
    fn the_dispatched_kernel_is_the_widest_this_cpu_has() {
        let want = if Kernel::Simd.is_available() {
            Kernel::Simd
        } else {
            Kernel::Slice16
        };
        assert_eq!(active_kernel(), want);
        let data = noise(300, 7);
        assert_eq!(
            update(crc32_init(), &data),
            update_scalar(crc32_init(), &data)
        );
        #[cfg(target_arch = "x86_64")]
        {
            let narrow =
                is_x86_feature_detected!("sse4.1") && is_x86_feature_detected!("pclmulqdq");
            let wide = is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512vl")
                && is_x86_feature_detected!("vpclmulqdq");
            let width = match (narrow, wide) {
                (true, true) => 512,
                (true, false) => 128,
                (false, _) => 0,
            };
            assert_eq!(simd_fold_width(), width);
        }
    }
}
