//! The f32 tanh kernel (`spg::nn::tanh::tanh_in_place`, AVX2 where the
//! CPU has it) must return the bits of the scalar glibc port
//! (`spg::nn::tanh::tanhf`) for every input. The fast tests sweep a
//! strided sample of bit patterns, every branch threshold of `tanhf` and
//! `expm1f` at ±2 ulp, the special values and every tail length.
//!
//! The two `#[ignore]`d tests cover all 2³² inputs and need a release
//! build (~40 s each on 2 cores):
//!
//! ```sh
//! cargo test --release --test tanh_kernel -- --ignored
//! ```
//!
//! `port_matches_host_libm_on_every_f32` compares the port with the
//! host's `f32::tanh`, so it only passes where libm's `tanhf` is glibc
//! 2.36's fdlibm code (Debian 12 x86-64); other hosts ship other libms.

use spg::nn::tanh::{tanh_in_place, tanhf};

/// Run the kernel over `inputs` and assert every lane equals the port.
fn assert_kernel_matches_port(inputs: &[f32]) {
    let mut out = inputs.to_vec();
    tanh_in_place(&mut out);
    for (&x, &y) in inputs.iter().zip(&out) {
        assert_eq!(
            y.to_bits(),
            tanhf(x).to_bits(),
            "tanh({x:e}) [bits {:#010x}]: kernel {y:e}, port {:e}",
            x.to_bits(),
            tanhf(x)
        );
    }
}

/// Both signs of every bit pattern in `bits ± 2`.
fn around(bits: u32) -> impl Iterator<Item = f32> {
    (bits.saturating_sub(2)..=bits.saturating_add(2))
        .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
}

/// The smallest |argument| (as bits) whose expm1f reduction index has
/// magnitude `k`, for negative or positive arguments; found by bisection
/// over the same float expression `expm1f` evaluates.
fn first_arg_bits_with_k(k: i32, neg: bool) -> u32 {
    const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
    let k_of = |bits: u32| {
        let a = f32::from_bits(bits);
        if neg {
            -((INV_LN2 * -a - 0.5) as i32)
        } else {
            (INV_LN2 * a + 0.5) as i32
        }
    };
    // Bisect over [0.5, 64): k_of is monotone in the bits of |arg|.
    let (mut lo, mut hi) = (0.5f32.to_bits(), 64.0f32.to_bits());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if k_of(mid) >= k {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    assert!(k_of(lo) == k && k_of(lo - 1) == k - 1, "k {k} boundary");
    lo
}

#[test]
fn kernel_matches_port_on_a_strided_sweep() {
    // A prime stride visits ~1M patterns spread over every exponent.
    let inputs: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
    assert_kernel_matches_port(&inputs);
}

#[test]
fn kernel_matches_port_at_every_branch_threshold() {
    let mut inputs = Vec::new();
    // tanhf: 2^-55, 1, 22.
    for bits in [0x2400_0000, 0x3f80_0000, 0x41b0_0000] {
        inputs.extend(around(bits));
    }
    // expm1f thresholds seen through its tanh argument ±2|x|: 2^-25,
    // 0.5 ln2, 1.5 ln2, 27 ln2.
    for arg_bits in [0x3300_0000u32, 0x3eb1_7218, 0x3f85_1592, 0x4195_b844] {
        inputs.extend(around(arg_bits).map(|a| a / 2.0));
    }
    // Reduction boundaries: the first |argument| at which expm1f's
    // k = trunc(invln2 * arg ± 0.5) reaches each value tanh produces,
    // k = -3..-2 for negative arguments (-1 and 0 come from the 0.5 ln2
    // and 1.5 ln2 thresholds above) and k = 4..63 for positive ones (k = 3
    // starts at the smallest positive argument, 2).
    for (k, neg) in (2..=3)
        .map(|k| (k, true))
        .chain((4..=63).map(|k| (k, false)))
    {
        let first = first_arg_bits_with_k(k, neg);
        inputs.extend(around(first).map(|a| a / 2.0));
    }
    // Shift the inputs through several alignments so each value runs in
    // several lanes of the vector body, not just the scalar tail.
    for shift in 0..8 {
        let mut v = vec![0.5f32; shift];
        v.extend(&inputs);
        assert_kernel_matches_port(&v);
    }
}

#[test]
fn kernel_matches_port_on_special_values() {
    let specials = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        -f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7f80_0001), // signalling NaN
    ];
    assert_kernel_matches_port(&specials);
    assert_eq!(tanhf(f32::INFINITY), 1.0);
    assert_eq!(tanhf(f32::NEG_INFINITY), -1.0);
    assert!(tanhf(f32::NAN).is_nan());
    assert_eq!(tanhf(-0.0).to_bits(), (-0.0f32).to_bits());
    // A NaN or infinite lane sends its vector group to the port; its
    // finite neighbours must come out the same either way. 40 elements
    // span a 32-lane group, an 8-lane chunk and no tail.
    let mut chunk: Vec<f32> = (0..40).map(|i| i as f32 * 0.2 - 4.0).collect();
    chunk[5] = f32::NAN;
    chunk[37] = f32::NEG_INFINITY;
    assert_kernel_matches_port(&chunk);
}

#[test]
fn kernel_matches_port_on_every_tail_length() {
    // Every split into 32-lane groups, 8-lane chunks and a scalar tail.
    for len in 0..=72 {
        let inputs: Vec<f32> = (0..len).map(|i| (i as f32 - 8.0) * 0.37).collect();
        assert_kernel_matches_port(&inputs);
    }
}

/// Check `check(first_bits, chunk)` over all 2³² inputs, split across
/// the available cores.
fn sweep_all_f32(check: impl Fn(u32, &[f32]) + Sync) {
    const CHUNK: u64 = 1 << 16;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let per_thread = (1u64 << 32).div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let check = &check;
            s.spawn(move || {
                let end = ((t + 1) * per_thread).min(1 << 32);
                let mut buf = Vec::with_capacity(CHUNK as usize);
                let mut start = t * per_thread;
                while start < end {
                    let stop = (start + CHUNK).min(end);
                    buf.clear();
                    buf.extend((start..stop).map(|b| f32::from_bits(b as u32)));
                    check(start as u32, &buf);
                    start = stop;
                }
            });
        }
    });
}

#[test]
#[ignore = "all 2^32 inputs; run in release"]
fn kernel_matches_port_on_every_f32() {
    sweep_all_f32(|first, xs| {
        let mut out = xs.to_vec();
        tanh_in_place(&mut out);
        for (i, (&x, &y)) in xs.iter().zip(&out).enumerate() {
            assert_eq!(
                y.to_bits(),
                tanhf(x).to_bits(),
                "input bits {:#010x}",
                first + i as u32
            );
        }
    });
}

#[test]
#[ignore = "all 2^32 inputs; needs glibc 2.36 libm; run in release"]
fn port_matches_host_libm_on_every_f32() {
    sweep_all_f32(|first, xs| {
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(
                tanhf(x).to_bits(),
                x.tanh().to_bits(),
                "input bits {:#010x}",
                first + i as u32
            );
        }
    });
}
