//! Software IEEE 754 binary16 ("FP16").
//!
//! The paper treats FP16 as an approximation with *hardware-independent
//! semantics*: its effect on output quality is fixed even though the
//! performance benefit requires hardware support. We therefore implement the
//! exact binary16 quantisation in software (round-to-nearest-even, with
//! subnormal and infinity handling) and use it to model the QoS impact of
//! FP16 execution; the speed/energy benefit is modelled by `at-hw`.
//!
//! [`F16::from_f32`] is the readable reference conversion. [`quantize`],
//! which every FP16 operand, output and activation goes through, computes
//! the same round trip with branch-free bit arithmetic so slice loops over
//! it vectorise. The contract is bit identity: `quantize(x)` equals
//! `F16::from_f32(x).to_f32()` for every `f32` pattern, NaNs included,
//! which the tests check on all 2^32 patterns (`--ignored`) and on a 2^24
//! sample in every run.

use serde::{Deserialize, Serialize};

/// A 16-bit IEEE 754 binary16 value stored as its raw bit pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct F16(pub u16);

impl F16 {
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// Largest finite value (65504.0).
    pub const MAX: F16 = F16(0x7BFF);

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    pub fn from_f32(x: f32) -> F16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // NaN or infinity.
            let payload = if mant != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7C00 | payload);
        }

        // Unbiased exponent.
        let e = exp - 127;
        if e > 15 {
            // Overflow: round to infinity.
            return F16(sign | 0x7C00);
        }
        if e >= -14 {
            // Normal range. 10-bit mantissa; round to nearest even on the
            // 13 truncated bits.
            let mut m = mant >> 13;
            let rem = mant & 0x1FFF;
            if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
                m += 1;
            }
            let mut he = (e + 15) as u32;
            if m == 0x400 {
                // Mantissa rounding overflowed into the exponent.
                m = 0;
                he += 1;
                if he >= 31 {
                    return F16(sign | 0x7C00);
                }
            }
            return F16(sign | ((he as u16) << 10) | (m as u16));
        }
        if e >= -25 {
            // Subnormal range: shift the implicit leading 1 into the mantissa.
            // e in [-25, -15]; value = full * 2^(e-23); the fp16 subnormal ulp
            // is 2^-24, so the mantissa is full >> (13 + (-14 - e)). At
            // e = -25 every bit is dropped: exactly 2^-25 is a tie that
            // rounds to even (zero), anything above it rounds up to 2^-24.
            let full = mant | 0x0080_0000;
            let drop = (13 + (-14 - e)) as u32;
            let mut m = full >> drop;
            let rem = full & ((1u32 << drop) - 1);
            let half = 1u32 << (drop - 1);
            if rem > half || (rem == half && (m & 1) == 1) {
                m += 1;
            }
            if m == 0x400 {
                // Rounded up into the smallest normal.
                return F16(sign | (1 << 10));
            }
            return F16(sign | m as u16);
        }
        // Below 2^-25: underflow to signed zero.
        F16(sign)
    }

    /// Converts this binary16 value to `f32` exactly.
    pub fn to_f32(self) -> f32 {
        let h = self.0 as u32;
        let sign = (h & 0x8000) << 16;
        let exp = (h >> 10) & 0x1F;
        let mant = h & 0x3FF;
        let bits = match (exp, mant) {
            (0, 0) => sign,
            (0, m) => {
                // Subnormal: value = m * 2^-24 = 0.m * 2^-14; normalise by
                // shifting the leading 1 up to bit 10.
                let mut e = -14i32;
                let mut m = m;
                while m & 0x400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x3FF;
                sign | (((e + 127) as u32) << 23) | (m << 13)
            }
            (0x1F, 0) => sign | 0x7F80_0000,
            (0x1F, m) => sign | 0x7F80_0000 | (m << 13),
            (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
        };
        f32::from_bits(bits)
    }
}

/// `|x|` bit pattern of the smallest normal binary16 value, 2^-14.
const MIN_NORMAL_BITS: u32 = 0x3880_0000;
/// `|x|` bit pattern of 2^16, the first value past binary16's range once
/// rounded (65520 and above round to it).
const OVERFLOW_BITS: u32 = 0x4780_0000;
/// Positive infinity, and the canonical quiet NaN [`F16::to_f32`] returns
/// for every binary16 NaN.
const INF_BITS: u32 = 0x7F80_0000;
const QNAN_BITS: u32 = 0x7FC0_0000;

/// Quantises a single `f32` through binary16 and back ("fp16 semantics").
///
/// Bit-identical to `F16::from_f32(x).to_f32()` for every `f32` pattern,
/// but computed with lane-wise integer and float arithmetic and selects
/// instead of branches, so slice loops over it vectorise:
///
/// * normal range: round-to-nearest-even on the 13 dropped mantissa bits,
///   by adding `0xFFF` plus the lowest kept bit and masking; a mantissa
///   carry moves into the exponent on its own;
/// * rounded magnitudes of 2^16 and above overflow to infinity;
/// * below 2^-14 the binary16 spacing is a fixed 2^-24, so `(|x| + 0.5) −
///   0.5` rounds to it: the sum lies in `[0.5, 1)`, whose f32 spacing is
///   exactly 2^-24, and the subtraction is exact (magnitudes up to 2^-25
///   become zero, the tie at 2^-25 included);
/// * NaN becomes the canonical quiet NaN; the sign is kept throughout.
#[inline]
pub fn quantize(x: f32) -> f32 {
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    let abs = bits & 0x7FFF_FFFF;
    let normal = (abs + 0x0FFF + ((abs >> 13) & 1)) & !0x1FFF;
    let normal = if normal >= OVERFLOW_BITS {
        INF_BITS
    } else {
        normal
    };
    let subnormal = ((f32::from_bits(abs) + 0.5) - 0.5).to_bits();
    let mag = if abs > INF_BITS {
        QNAN_BITS
    } else if abs < MIN_NORMAL_BITS {
        subnormal
    } else {
        normal
    };
    f32::from_bits(sign | mag)
}

/// Length at which slice quantisation switches to rayon (elementwise, so
/// partitioning cannot change results).
const PAR_THRESHOLD: usize = 1 << 14;

/// Quantises a slice in place through binary16.
pub fn quantize_slice(xs: &mut [f32]) {
    use rayon::prelude::*;
    if xs.len() >= PAR_THRESHOLD {
        xs.par_chunks_mut(PAR_THRESHOLD).for_each(|chunk| {
            for x in chunk.iter_mut() {
                *x = quantize(*x);
            }
        });
    } else {
        for x in xs.iter_mut() {
            *x = quantize(*x);
        }
    }
}

/// Returns a quantised copy of the slice.
pub fn quantized(xs: &[f32]) -> Vec<f32> {
    use rayon::prelude::*;
    if xs.len() >= PAR_THRESHOLD {
        xs.par_iter().map(|&x| quantize(x)).collect()
    } else {
        xs.iter().map(|&x| quantize(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(quantize(x), x, "integer {i} should be exact in fp16");
        }
    }

    #[test]
    fn known_values() {
        assert_eq!(F16::from_f32(1.0).0, 0x3C00);
        assert_eq!(F16::from_f32(-2.0).0, 0xC000);
        assert_eq!(F16::from_f32(0.5).0, 0x3800);
        assert_eq!(F16::from_f32(65504.0).0, 0x7BFF);
        assert_eq!(F16::from_f32(0.0).0, 0x0000);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
        // 2^-25 is halfway between 0 and the smallest subnormal 2^-24: a
        // tie that rounds to even (zero); one ulp above it rounds up.
        let half_tiny = 2.0_f32.powi(-25);
        let above = f32::from_bits(half_tiny.to_bits() + 1);
        assert_eq!(F16::from_f32(half_tiny).0, 0x0000);
        assert_eq!(F16::from_f32(above).0, 0x0001);
        assert_eq!(F16::from_f32(-half_tiny).0, 0x8000);
        assert_eq!(F16::from_f32(-above).0, 0x8001);
        assert_eq!(quantize(1.5 * half_tiny), 2.0_f32.powi(-24));
        assert_eq!(quantize(-1.5 * half_tiny), -(2.0_f32.powi(-24)));
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(F16::from_f32(1e6), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e6), F16::NEG_INFINITY);
        assert!(F16::INFINITY.to_f32().is_infinite());
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn subnormals() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).0, 0x0001);
        assert_eq!(F16(0x0001).to_f32(), tiny);
        // Below half of the smallest subnormal flushes to zero.
        assert_eq!(F16::from_f32(tiny / 4.0).0, 0x0000);
        // Largest subnormal.
        let largest_sub = 2.0_f32.powi(-14) - 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(largest_sub).0, 0x03FF);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next fp16
        // (1 + 2^-10); round-to-even keeps 1.0.
        let halfway = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(quantize(halfway), 1.0);
        // Slightly above the halfway point rounds up.
        let above = 1.0 + 2.0_f32.powi(-11) + 2.0_f32.powi(-18);
        assert_eq!(quantize(above), 1.0 + 2.0_f32.powi(-10));
    }

    #[test]
    fn quantisation_is_idempotent() {
        let mut xs: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 0.137).collect();
        quantize_slice(&mut xs);
        let once = xs.clone();
        quantize_slice(&mut xs);
        assert_eq!(once, xs);
    }

    /// Asserts the fast quantiser matches the reference conversion on one
    /// `f32` bit pattern.
    fn assert_matches_reference(bits: u32) {
        let x = f32::from_bits(bits);
        let want = F16::from_f32(x).to_f32().to_bits();
        let got = quantize(x).to_bits();
        assert_eq!(got, want, "x = {x:e} ({bits:#010x})");
    }

    #[test]
    fn fast_path_matches_reference_on_every_f16_and_its_neighbours() {
        for h in 0..=u16::MAX {
            let bits = F16(h).to_f32().to_bits();
            for b in [bits.wrapping_sub(1), bits, bits.wrapping_add(1)] {
                assert_matches_reference(b);
            }
        }
    }

    #[test]
    fn fast_path_matches_reference_on_a_strided_sweep() {
        // An odd stride is coprime with 2^32, so the 2^24 visited patterns
        // are distinct and spread over every exponent and sign.
        const STRIDE: u32 = 0x0000_0101;
        let mut bits = 0x1234_5677u32;
        for _ in 0..1u32 << 24 {
            assert_matches_reference(bits);
            bits = bits.wrapping_add(STRIDE);
        }
    }

    #[test]
    fn fast_path_matches_reference_at_named_boundaries() {
        let values = [
            2.0_f32.powi(-14),
            2.0_f32.powi(-24),
            2.0_f32.powi(-25),
            1.5 * 2.0_f32.powi(-25),
            65504.0,
            65519.996,
            65520.0,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            f32::INFINITY,
            0.0,
        ];
        for v in values {
            let bits = v.to_bits();
            for b in [bits.wrapping_sub(1), bits, bits.wrapping_add(1)] {
                assert_matches_reference(b);
                assert_matches_reference(b | 0x8000_0000);
            }
        }
        // Signalling and quiet NaNs of both signs, with and without payload.
        for nan in [0x7F80_0001u32, 0x7FA0_0000, 0x7FC0_0000, 0x7FFF_FFFF] {
            assert_matches_reference(nan);
            assert_matches_reference(nan | 0x8000_0000);
        }
    }

    /// Every `f32` bit pattern. About 20 s in release mode; run with
    /// `cargo test --release -p at-tensor -- --ignored`.
    #[test]
    #[ignore]
    fn fast_path_matches_reference_on_all_f32_patterns() {
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            if quantize(x).to_bits() != F16::from_f32(x).to_f32().to_bits() {
                assert_matches_reference(bits);
            }
        }
    }

    #[test]
    fn relative_error_bound_in_normal_range() {
        // binary16 has 11 bits of significand: rel. error <= 2^-11.
        for i in 1..10_000 {
            let x = i as f32 * 0.01 + 0.003;
            let q = quantize(x);
            let rel = ((q - x) / x).abs();
            assert!(rel <= 2.0_f32.powi(-11), "x={x} q={q} rel={rel}");
        }
    }
}
