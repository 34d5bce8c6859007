//! Elementwise `tanh` for the f32 path, bit-identical to glibc 2.36's
//! `tanhf` for every `f32` input.
//!
//! [`tanhf`] is a line-for-line port of glibc's fdlibm `s_tanhf.c` and
//! `s_expm1f.c` (the five-coefficient `expm1f`; musl and the `libm` crate
//! ship a two-term `expm1f` that rounds differently). It is the reference
//! and the portable fallback. [`tanh_in_place`] is the kernel every f32
//! tanh goes through (`Matrix::tanh_assign`, `Tape::tanh`): on AVX2 hosts
//! every lane runs the scalar op sequence — same operations, same operand
//! order, no FMA — with the branches turned into per-lane selects, so it
//! returns the port's bits. A vector group holding a NaN or an infinity
//! falls back to the port, as does the tail.
//!
//! Bit-exactness is proven exhaustively: `tests/tanh_kernel.rs` has
//! release-mode tests over all 2³² inputs (kernel ≡ port, port ≡ the
//! host's `f32::tanh`). Because the port owns the arithmetic, f32 tanh
//! results no longer depend on the host's libm.

const ONE: f32 = 1.0;
const TWO: f32 = 2.0;
const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// Add `k` to the exponent field of `y` (fdlibm's `SET_FLOAT_WORD(y,
/// i + (k << 23))`).
#[inline]
fn scale_exp(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// `exp(x) - 1`, ported from glibc's `s_expm1f.c`.
fn expm1f(x: f32) -> f32 {
    let bits = x.to_bits();
    let neg = bits >> 31 != 0;
    let hx = bits & 0x7fff_ffff;

    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        // |x| >= 27 ln2
        if hx >= 0x42b1_7218 {
            // |x| >= 88.721...
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if neg { -1.0 } else { x };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE; // overflow
            }
        }
        if neg {
            return TINY - ONE;
        }
    }

    // Argument reduction: x = k ln2 + r, with r = hi - lo and `c` the
    // rounding error of that subtraction.
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5 ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // and |x| < 1.5 ln2
            if neg {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INV_LN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25: return x
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        (x, 0.0, 0)
    };

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = ONE + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            ONE + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        let y = ONE - (e - x);
        return scale_exp(y, k) - ONE;
    }
    if k < 23 {
        let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32); // 1 - 2^-k
        scale_exp(t - (e - x), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
        let y = (x - (e + t)) + ONE;
        scale_exp(y, k)
    }
}

/// Hyperbolic tangent, ported from glibc 2.36's `s_tanhf.c`: the exact
/// bits of the x86-64 `tanhf` for every input. The reference for
/// [`tanh_in_place`].
pub fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;

    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN
        return if jx >= 0 {
            ONE / x + ONE
        } else {
            ONE / x - ONE
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2^-55
            return x * (ONE + x);
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1f(TWO * x.abs());
            ONE - TWO / (t + TWO)
        } else {
            let t = expm1f(-TWO * x.abs());
            -t / (t + TWO)
        }
    } else {
        ONE - TINY // |x| >= 22: ±1
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// In-place elementwise tanh, bitwise equal to mapping [`tanhf`]. Uses
/// the AVX2 kernel when the cached CPU probe reports it.
pub fn tanh_in_place(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::matrix::x86::level() >= crate::matrix::x86::LVL_AVX2 {
        // SAFETY: AVX2 verified by `x86::level`.
        unsafe { avx2::tanh_in_place(xs) };
        return;
    }
    tanh_scalar(xs);
}

/// [`tanhf`] over a slice: the portable path, plus the AVX2 kernel's tail
/// and its fallback for vector groups holding a NaN or an infinity. Out of line
/// so the kernel's unrolled body does not inline the port once per lane.
#[inline(never)]
fn tanh_scalar(xs: &mut [f32]) {
    for x in xs {
        *x = tanhf(*x);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// 8-lane vectors evaluated side by side. One tanh is a ~200-cycle
    /// dependency chain, so a single vector leaves the core waiting on
    /// latency; interleaving independent vectors in program order keeps
    /// its scheduler fed. Measured on a 2 GHz Xeon: 1 vector 4.4 ns per
    /// element, 4 vectors ~3.3 ns; 6 or more spill registers and slow
    /// down.
    const WIDTH: usize = 4;

    /// `v!(op, a, b)` applies `op` to each vector of a group of `N` (the
    /// caller's const parameter): `[op(a[0], b[0]), op(a[1], b[1]), ...]`.
    macro_rules! v {
        ($op:ident $(::<$imm:literal>)?, $($arg:expr),+) => {
            std::array::from_fn::<_, N, _>(|j| $op $(::<$imm>)? ($($arg[j]),+))
        };
    }

    /// # Safety
    /// Caller must verify AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tanh_in_place(xs: &mut [f32]) {
        let mut groups = xs.chunks_exact_mut(8 * WIDTH);
        for group in &mut groups {
            run::<WIDTH>(group);
        }
        let mut chunks = groups.into_remainder().chunks_exact_mut(8);
        for chunk in &mut chunks {
            run::<1>(chunk);
        }
        tanh_scalar(chunks.into_remainder());
    }

    /// tanh over exactly `8 * N` elements.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn run<const N: usize>(xs: &mut [f32]) {
        assert_eq!(xs.len(), 8 * N);
        let p = xs.as_mut_ptr();
        // SAFETY: `xs` holds exactly 8 * N f32s, so each of the N
        // unaligned 256-bit loads and stores at `p + 8j` is in bounds.
        let x = std::array::from_fn::<_, N, _>(|j| unsafe { _mm256_loadu_ps(p.add(8 * j)) });
        match tanh_lanes(x) {
            Some(y) => {
                for (j, y) in y.into_iter().enumerate() {
                    // SAFETY: as for the loads above.
                    unsafe { _mm256_storeu_ps(p.add(8 * j), y) };
                }
            }
            None => tanh_scalar(xs),
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn f<const N: usize>(c: f32) -> [__m256; N] {
        [_mm256_set1_ps(c); N]
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn i<const N: usize>(bits: i32) -> [__m256i; N] {
        [_mm256_set1_epi32(bits); N]
    }

    /// `mask ? a : b` per lane (`mask` lanes all-ones or all-zeros).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn select<const N: usize>(mask: [__m256i; N], a: [__m256; N], b: [__m256; N]) -> [__m256; N] {
        let mask = v!(_mm256_castsi256_ps, mask);
        v!(_mm256_blendv_ps, b, a, mask)
    }

    /// [`tanhf`] on every lane of finite inputs; `None` if any lane is
    /// NaN or infinite.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tanh_lanes<const N: usize>(x: [__m256; N]) -> Option<[__m256; N]> {
        let xi = v!(_mm256_castps_si256, x);
        let ix = v!(_mm256_and_si256, xi, i::<N>(0x7fff_ffff));
        let nonfinite = v!(_mm256_cmpgt_epi32, ix, i::<N>(0x7f7f_ffff));
        if nonfinite
            .iter()
            .any(|&m| _mm256_movemask_ps(_mm256_castsi256_ps(m)) != 0)
        {
            return None;
        }
        let ax = v!(_mm256_castsi256_ps, ix);
        let big = v!(_mm256_cmpgt_epi32, ix, i::<N>(0x3f7f_ffff)); // |x| >= 1
        let arg = select(
            big,
            v!(_mm256_mul_ps, f::<N>(TWO), ax),
            v!(_mm256_mul_ps, f::<N>(-TWO), ax),
        );
        let t = expm1f_lanes(arg);

        // |x| >= 1: 1 - 2/(t+2); otherwise -t/(t+2). One shared divide.
        let den = v!(_mm256_add_ps, t, f::<N>(TWO));
        let neg_t = v!(_mm256_xor_ps, t, f::<N>(-0.0));
        let num = select(big, f::<N>(TWO), neg_t);
        let q = v!(_mm256_div_ps, num, den);
        let z = select(big, v!(_mm256_sub_ps, f::<N>(ONE), q), q);
        let huge = v!(_mm256_cmpgt_epi32, ix, i::<N>(0x41af_ffff)); // |x| >= 22
        let z = select(huge, f::<N>(ONE - TINY), z);
        let sign = v!(_mm256_and_ps, x, f::<N>(-0.0));
        let z = v!(_mm256_xor_ps, z, sign);
        // |x| < 2^-55, zeros included: x * (1 + x) is x itself, ±0 too.
        let tiny = v!(_mm256_cmpgt_epi32, i::<N>(0x2400_0000), ix);
        let one_plus_x = v!(_mm256_add_ps, f::<N>(ONE), x);
        Some(select(tiny, v!(_mm256_mul_ps, x, one_plus_x), z))
    }

    /// `expm1f` on every lane, over the arguments `tanhf` passes: 2|x| in
    /// [2, 44) or -2|x| in (-2, 0). Lanes outside that domain belong to
    /// the tiny/huge tanh branches, whose results are selected away. In
    /// this domain the reduction yields k in {-3..0} or {3..63}, so the
    /// huge/overflow guards and the k == 1 branch of the scalar code
    /// never run and are not vectorized.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn expm1f_lanes<const N: usize>(x: [__m256; N]) -> [__m256; N] {
        let one = f::<N>(ONE);
        let bits = v!(_mm256_castps_si256, x);
        let hx = v!(_mm256_and_si256, bits, i::<N>(0x7fff_ffff));

        // Argument reduction: k = 0 below 0.5 ln2, ±1 below 1.5 ln2,
        // otherwise the truncated (cvttps) invln2*x ± 0.5. With t = k the
        // uniform hi/lo formulas give the scalar branches' exact values
        // (t*ln2_hi is ±ln2_hi or 0, both exact).
        let reduce = v!(_mm256_cmpgt_epi32, hx, i::<N>(0x3eb1_7218));
        let near = v!(_mm256_cmpgt_epi32, i::<N>(0x3f85_1592), hx);
        let sign = v!(_mm256_and_ps, x, f::<N>(-0.0));
        let half = v!(_mm256_or_ps, f::<N>(0.5), sign); // ±0.5
        let scaled = v!(_mm256_mul_ps, f::<N>(INV_LN2), x);
        let k_far = v!(_mm256_cvttps_epi32, v!(_mm256_add_ps, scaled, half));
        let neg = v!(_mm256_srai_epi32::<31>, bits);
        let k_near = v!(_mm256_or_si256, neg, i::<N>(1)); // ±1
        let k = v!(_mm256_blendv_epi8, k_far, k_near, near);
        let k = v!(_mm256_and_si256, reduce, k);
        let t = v!(_mm256_cvtepi32_ps, k);
        let hi = v!(_mm256_sub_ps, x, v!(_mm256_mul_ps, t, f::<N>(LN2_HI)));
        let lo = v!(_mm256_mul_ps, t, f::<N>(LN2_LO));
        let r = v!(_mm256_sub_ps, hi, lo);
        let c = v!(_mm256_sub_ps, v!(_mm256_sub_ps, hi, r), lo);

        // Primary range.
        let hfx = v!(_mm256_mul_ps, f::<N>(0.5), r);
        let hxs = v!(_mm256_mul_ps, r, hfx);
        let mut p = v!(_mm256_mul_ps, hxs, f::<N>(Q5));
        for q in [Q4, Q3, Q2, Q1] {
            p = v!(_mm256_mul_ps, hxs, v!(_mm256_add_ps, f::<N>(q), p));
        }
        let r1 = v!(_mm256_add_ps, one, p);
        let tt = v!(_mm256_sub_ps, f::<N>(3.0), v!(_mm256_mul_ps, r1, hfx));
        let num = v!(_mm256_sub_ps, r1, tt);
        let den = v!(_mm256_sub_ps, f::<N>(6.0), v!(_mm256_mul_ps, r, tt));
        let e = v!(_mm256_mul_ps, hxs, v!(_mm256_div_ps, num, den));
        let res_k0 = v!(
            _mm256_sub_ps,
            r,
            v!(_mm256_sub_ps, v!(_mm256_mul_ps, r, e), hxs)
        );

        let e_c = v!(_mm256_mul_ps, r, v!(_mm256_sub_ps, e, c));
        let e = v!(_mm256_sub_ps, v!(_mm256_sub_ps, e_c, c), hxs);
        let half_r_e = v!(_mm256_mul_ps, f::<N>(0.5), v!(_mm256_sub_ps, r, e));
        let res_m1 = v!(_mm256_sub_ps, half_r_e, f::<N>(0.5));
        let e_minus_r = v!(_mm256_sub_ps, e, r);
        // fdlibm's SET_FLOAT_WORD(y, i + (k << 23)): add k to the exponent.
        let k_exp = v!(_mm256_slli_epi32::<23>, k);
        let scale = |y: [__m256; N]| -> [__m256; N] {
            let y = v!(_mm256_castps_si256, y);
            v!(_mm256_castsi256_ps, v!(_mm256_add_epi32, y, k_exp))
        };
        // k <= -2 or k > 56
        let res_far = v!(_mm256_sub_ps, scale(v!(_mm256_sub_ps, one, e_minus_r)), one);
        // 2 <= k <= 22: t = 1 - 2^-k
        let t_mid = v!(
            _mm256_sub_epi32,
            i::<N>(0x3f80_0000),
            v!(_mm256_srav_epi32, i::<N>(0x0100_0000), k)
        );
        let t_mid = v!(_mm256_castsi256_ps, t_mid);
        let res_mid = scale(v!(_mm256_sub_ps, t_mid, e_minus_r));
        // 23 <= k <= 56: t = 2^-k
        let t_hi = v!(
            _mm256_slli_epi32::<23>,
            v!(_mm256_sub_epi32, i::<N>(0x7f), k)
        );
        let t_hi = v!(_mm256_castsi256_ps, t_hi);
        let y_hi = v!(_mm256_sub_ps, r, v!(_mm256_add_ps, e, t_hi));
        let res_hi = scale(v!(_mm256_add_ps, y_hi, one));

        let in_mid = v!(
            _mm256_and_si256,
            v!(_mm256_cmpgt_epi32, k, i::<N>(1)),
            v!(_mm256_cmpgt_epi32, i::<N>(23), k)
        );
        let in_hi = v!(
            _mm256_and_si256,
            v!(_mm256_cmpgt_epi32, k, i::<N>(22)),
            v!(_mm256_cmpgt_epi32, i::<N>(57), k)
        );
        let mut res = select(in_mid, res_mid, res_far);
        res = select(in_hi, res_hi, res);
        res = select(v!(_mm256_cmpeq_epi32, k, i::<N>(-1)), res_m1, res);
        res = select(v!(_mm256_cmpeq_epi32, k, i::<N>(0)), res_k0, res);
        // |x| < 2^-25: expm1f(x) = x.
        select(v!(_mm256_cmpgt_epi32, i::<N>(0x3300_0000), hx), x, res)
    }
}
