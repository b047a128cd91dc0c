//! Property-based tests for the fixed-point arithmetic substrate.
//!
//! These check the algebraic invariants the tone-mapping datapath relies on:
//! quantisation error bounds, saturation correctness, ordering consistency
//! and agreement between the const-generic and dynamic representations.

use apfixed::{DynFix, Fix, QFormat, RoundingMode, SaturationMode};
use proptest::prelude::*;

type F16 = Fix<16, 12>;
type F32 = Fix<32, 24>;

/// Strategy producing f64 values well inside the representable range of
/// `Fix<16,12>` ([-8, 8)), so arithmetic results stay in range too.
fn small_real() -> impl Strategy<Value = f64> {
    -3.5f64..3.5f64
}

/// Strategy producing values in the normalised pixel range used by the
/// tone-mapping pipeline.
fn pixel_real() -> impl Strategy<Value = f64> {
    0.0f64..1.0f64
}

proptest! {
    #[test]
    fn conversion_round_trip_error_bounded(x in -7.9f64..7.9f64) {
        let v = F16::from_f64(x);
        prop_assert!((v.to_f64() - x).abs() <= F16::FORMAT.epsilon());
    }

    #[test]
    fn raw_round_trip_is_identity(raw in -32768i64..=32767i64) {
        let v = F16::from_raw(raw);
        prop_assert_eq!(v.raw(), raw);
        prop_assert_eq!(F16::from_f64(v.to_f64()).raw(), raw);
    }

    #[test]
    fn addition_is_commutative(a in small_real(), b in small_real()) {
        let (fa, fb) = (F16::from_f64(a), F16::from_f64(b));
        prop_assert_eq!(fa + fb, fb + fa);
    }

    #[test]
    fn multiplication_is_commutative(a in small_real(), b in small_real()) {
        let (fa, fb) = (F16::from_f64(a), F16::from_f64(b));
        prop_assert_eq!(fa * fb, fb * fa);
    }

    #[test]
    fn addition_error_bounded(a in small_real(), b in small_real()) {
        let sum = F16::from_f64(a) + F16::from_f64(b);
        // Each operand carries at most eps/2 of representation error
        // (round-to-nearest) and the addition itself is exact.
        prop_assert!((sum.to_f64() - (a + b)).abs() <= F16::FORMAT.epsilon());
    }

    #[test]
    fn multiplication_error_bounded(a in pixel_real(), b in pixel_real()) {
        let prod = F16::from_f64(a) * F16::from_f64(b);
        // Operand quantisation (<= eps/2 each, values < 1) plus one final
        // rounding (<= eps/2).
        prop_assert!((prod.to_f64() - a * b).abs() <= 2.0 * F16::FORMAT.epsilon());
    }

    #[test]
    fn subtraction_is_inverse_of_addition(a in small_real(), b in small_real()) {
        let (fa, fb) = (F16::from_f64(a), F16::from_f64(b));
        prop_assert_eq!((fa + fb) - fb, fa);
    }

    #[test]
    fn negation_is_involutive_except_min(a in small_real()) {
        let fa = F16::from_f64(a);
        prop_assert_eq!(-(-fa), fa);
    }

    #[test]
    fn ordering_matches_f64_ordering(a in small_real(), b in small_real()) {
        let (fa, fb) = (F16::from_f64(a), F16::from_f64(b));
        if (a - b).abs() > 2.0 * F16::FORMAT.epsilon() {
            prop_assert_eq!(fa < fb, a < b);
        }
    }

    #[test]
    fn saturation_never_exceeds_bounds(a in -1000.0f64..1000.0f64, b in -1000.0f64..1000.0f64) {
        let v = F16::from_f64(a) + F16::from_f64(b);
        prop_assert!(v.raw() >= F16::MIN.raw() && v.raw() <= F16::MAX.raw());
        let w = F16::from_f64(a) * F16::from_f64(b);
        prop_assert!(w.raw() >= F16::MIN.raw() && w.raw() <= F16::MAX.raw());
    }

    #[test]
    fn mul_add_at_least_as_accurate_as_separate_ops(
        a in pixel_real(), b in pixel_real(), c in pixel_real()
    ) {
        let (fa, fb, fc) = (F16::from_f64(a), F16::from_f64(b), F16::from_f64(c));
        let fused = fa.mul_add(fb, fc).to_f64();
        let exact = a * b + c;
        prop_assert!((fused - exact).abs() <= 2.5 * F16::FORMAT.epsilon());
    }

    #[test]
    fn widening_then_narrowing_preserves_value(a in small_real()) {
        let narrow = F16::from_f64(a);
        let wide: F32 = narrow.convert();
        let back: F16 = wide.convert();
        prop_assert_eq!(back, narrow);
    }

    #[test]
    fn dynfix_agrees_with_const_generic(a in small_real(), b in small_real()) {
        let q = QFormat::new(16, 12).unwrap().with_rounding(RoundingMode::Nearest);
        let (fa, fb) = (F16::from_f64(a), F16::from_f64(b));
        let (da, db) = (DynFix::from_f64(a, q), DynFix::from_f64(b, q));
        prop_assert_eq!(da.add(db).raw(), (fa + fb).raw());
        prop_assert_eq!(da.sub(db).raw(), (fa - fb).raw());
        prop_assert_eq!(da.mul(db).raw(), (fa * fb).raw());
    }

    #[test]
    fn wrap_mode_stays_in_range(a in -100.0f64..100.0f64) {
        let q = QFormat::new(12, 6).unwrap().with_saturation(SaturationMode::Wrap);
        let v = DynFix::from_f64(a, q);
        prop_assert!(v.raw() >= q.min_raw() && v.raw() <= q.max_raw());
    }

    #[test]
    fn coarser_formats_have_larger_error(x in pixel_real()) {
        let q8 = QFormat::new(8, 6).unwrap().with_rounding(RoundingMode::Nearest);
        let q16 = QFormat::new(16, 14).unwrap().with_rounding(RoundingMode::Nearest);
        let e8 = DynFix::from_f64(x, q8).error_vs(x);
        let e16 = DynFix::from_f64(x, q16).error_vs(x);
        prop_assert!(e8 <= q8.epsilon() / 2.0 + 1e-15);
        prop_assert!(e16 <= q16.epsilon() / 2.0 + 1e-15);
    }

    #[test]
    fn sum_of_gaussian_weights_close_to_one(radius in 1usize..20) {
        // The blur kernel normalisation invariant the accelerator relies on:
        // quantised kernel taps still sum to ~1 within radius * eps.
        let sigma = radius as f64 / 3.0;
        let taps: Vec<f64> = (-(radius as i64)..=radius as i64)
            .map(|i| (-((i * i) as f64) / (2.0 * sigma * sigma)).exp())
            .collect();
        let norm: f64 = taps.iter().sum();
        let quantised: F16 = taps.iter().map(|&t| F16::from_f64(t / norm)).sum();
        prop_assert!((quantised.to_f64() - 1.0).abs() <= (2 * radius + 1) as f64 * F16::FORMAT.epsilon());
    }
}

// Differential suite: every `Fix` operation must equal the `i128` reference
// (`QFormat::round_shift` + `QFormat::saturate_raw`, the composition
// `DynFix` computes with), whatever native width the format computes in.
// Operands cover the whole raw range, including MIN/MAX, saturating
// results and exact rounding ties.

/// The reference multiply-accumulate: the exact integer `x·y + z·2^F`,
/// rounded back to `F` fractional bits and saturated.
fn reference_mul_add(q: QFormat, x: i64, y: i64, z: i64) -> i64 {
    let frac = q.frac_bits();
    let exact = x as i128 * y as i128 + ((z as i128) << frac);
    q.saturate_raw(q.round_shift(exact, frac))
}

fn assert_mul_add_matches<const W: u32, const F: u32>(x: i64, y: i64, z: i64) {
    let (fx, fy, fz) = (
        Fix::<W, F>::from_raw(x),
        Fix::<W, F>::from_raw(y),
        Fix::<W, F>::from_raw(z),
    );
    assert_eq!(
        fx.mul_add(fy, fz).raw(),
        reference_mul_add(Fix::<W, F>::FORMAT, x, y, z),
        "mul_add on Fix<{W},{F}> raws ({x}, {y}, {z})"
    );
}

fn assert_binary_ops_match<const W: u32, const F: u32>(x: i64, y: i64) {
    let q = Fix::<W, F>::FORMAT;
    let (fx, fy) = (Fix::<W, F>::from_raw(x), Fix::<W, F>::from_raw(y));
    let (dx, dy) = (DynFix::from_raw(x, q), DynFix::from_raw(y, q));
    assert_eq!(
        (fx * fy).raw(),
        dx.mul(dy).raw(),
        "* on Fix<{W},{F}> raws ({x}, {y})"
    );
    assert_eq!(
        (fx + fy).raw(),
        dx.add(dy).raw(),
        "+ on Fix<{W},{F}> raws ({x}, {y})"
    );
    assert_eq!(
        (fx - fy).raw(),
        dx.sub(dy).raw(),
        "- on Fix<{W},{F}> raws ({x}, {y})"
    );
    assert_eq!(
        (fx / fy).raw(),
        dx.div(dy).raw(),
        "/ on Fix<{W},{F}> raws ({x}, {y})"
    );
    assert_eq!((-fx).raw(), dx.neg().raw(), "neg on Fix<{W},{F}> raw {x}");
}

fn assert_matches_reference<const W: u32, const F: u32>(x: i64, y: i64, z: i64) {
    assert_mul_add_matches::<W, F>(x, y, z);
    assert_binary_ops_match::<W, F>(x, y);
}

fn assert_from_f64_matches<const W: u32, const F: u32>(value: f64) {
    assert_eq!(
        Fix::<W, F>::from_f64(value).raw(),
        Fix::<W, F>::FORMAT.raw_from_f64(value),
        "from_f64 on Fix<{W},{F}> of {value:e}"
    );
}

/// `Fix16::from_f32` is the quantiser at the blur's accelerator boundary.
fn assert_fix16_from_f32_matches(value: f32) {
    assert_eq!(
        apfixed::Fix16::from_f32(value).raw(),
        apfixed::Fix16::FORMAT.raw_from_f64(value as f64),
        "from_f32 of {value:e}"
    );
}

fn assert_convert_matches<const W: u32, const F: u32, const W2: u32, const F2: u32>(x: i64) {
    assert_eq!(
        Fix::<W, F>::from_raw(x).convert::<W2, F2>().raw(),
        Fix::<W2, F2>::FORMAT.requantize(x, &Fix::<W, F>::FORMAT),
        "convert Fix<{W},{F}> -> Fix<{W2},{F2}> of raw {x}"
    );
}

fn assert_converts_match<const W: u32, const F: u32>(x: i64) {
    assert_convert_matches::<W, F, 16, 12>(x);
    assert_convert_matches::<W, F, 8, 6>(x);
    assert_convert_matches::<W, F, 8, 8>(x);
    assert_convert_matches::<W, F, 32, 24>(x);
}

/// Raw operands over the whole `width`-bit range, drawing the range ends
/// and the values around zero often.
fn raw_operand(width: u32) -> impl Strategy<Value = i64> {
    let max = (1i64 << (width - 1)) - 1;
    let min = -max - 1;
    prop_oneof![
        min..=max,
        min..=max,
        min..=max,
        Just(min),
        Just(max),
        min..=min + 2,
        max - 2..=max,
        -2i64..=2,
    ]
}

/// Operand pairs whose product lies exactly on a rounding tie: `y = ±2^j`
/// and `x` an odd multiple of `2^(F-1-j)`, so `x·y` is an odd multiple of
/// half an LSB — with either sign, `-½` LSB included.
fn tie_operands(width: u32, frac: u32) -> impl Strategy<Value = (i64, i64)> {
    let j = (frac - 1).min(width - 2);
    let step = 1i64 << (frac - 1 - j);
    let odd_max = ((1i64 << (width - 1)) - 1) / step;
    (0..=(odd_max - 1) / 2, any::<bool>(), any::<bool>()).prop_map(move |(k, neg_x, neg_y)| {
        let x = (2 * k + 1) * step;
        let y = 1i64 << j;
        (if neg_x { -x } else { x }, if neg_y { -y } else { y })
    })
}

/// Reals across and beyond the format's range: uniform values, exact
/// half-LSB ties, non-finite values and arbitrary `f64` bit patterns.
fn real_operand(width: u32, frac: u32) -> impl Strategy<Value = f64> {
    let lsb = 0.5f64.powi(frac as i32);
    let max = (1i64 << (width - 1)) - 1;
    let span = (max + 1) as f64 * lsb;
    prop_oneof![
        -1.5 * span..1.5 * span,
        (-max - 1..=max).prop_map(move |k| (k as f64 + 0.5) * lsb),
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MAX),
            Just(-0.0),
            Just(0.5 * lsb),
            Just(-0.5 * lsb),
        ],
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// The raw values where fixed-point arithmetic breaks first: the range
/// ends, zero and its neighbours, and ±½, ±1 in value with their
/// neighbours.
fn edge_values(width: u32, frac: u32) -> Vec<i64> {
    let max = (1i64 << (width - 1)) - 1;
    let min = -max - 1;
    let one = 1i64 << frac;
    let half = one / 2;
    let mut values = vec![
        min,
        min + 1,
        max - 1,
        max,
        -2,
        -1,
        0,
        1,
        2,
        half - 1,
        half,
        half + 1,
        -half - 1,
        -half,
        -half + 1,
        one - 1,
        one,
        one + 1,
        -one - 1,
        -one,
        -one + 1,
    ];
    values.retain(|v| (min..=max).contains(v));
    values.sort_unstable();
    values.dedup();
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn q4_12_arithmetic_equals_the_i128_reference(
        x in raw_operand(16), y in raw_operand(16), z in raw_operand(16)
    ) {
        assert_matches_reference::<16, 12>(x, y, z);
    }

    #[test]
    fn q2_6_arithmetic_equals_the_i128_reference(
        x in raw_operand(8), y in raw_operand(8), z in raw_operand(8)
    ) {
        assert_matches_reference::<8, 6>(x, y, z);
    }

    #[test]
    fn q0_8_arithmetic_equals_the_i128_reference(
        x in raw_operand(8), y in raw_operand(8), z in raw_operand(8)
    ) {
        assert_matches_reference::<8, 8>(x, y, z);
    }

    #[test]
    fn q8_24_arithmetic_equals_the_i128_reference(
        x in raw_operand(32), y in raw_operand(32), z in raw_operand(32)
    ) {
        assert_matches_reference::<32, 24>(x, y, z);
    }

    #[test]
    fn rounding_ties_equal_the_i128_reference(
        (x16, y16) in tie_operands(16, 12), z16 in raw_operand(16),
        (x8, y8) in tie_operands(8, 6), z8 in raw_operand(8),
        (x0, y0) in tie_operands(8, 8), z0 in raw_operand(8),
        (x32, y32) in tie_operands(32, 24), z32 in raw_operand(32),
    ) {
        assert_matches_reference::<16, 12>(x16, y16, z16);
        assert_matches_reference::<8, 6>(x8, y8, z8);
        assert_matches_reference::<8, 8>(x0, y0, z0);
        assert_matches_reference::<32, 24>(x32, y32, z32);
        // With no addend the product alone sits on the tie.
        assert_mul_add_matches::<16, 12>(x16, y16, 0);
        assert_mul_add_matches::<32, 24>(x32, y32, 0);
    }

    #[test]
    fn from_f64_equals_the_reference(
        a in real_operand(16, 12),
        b in real_operand(8, 6),
        c in real_operand(8, 8),
        d in real_operand(32, 24),
        bits in any::<u32>(),
    ) {
        assert_from_f64_matches::<16, 12>(a);
        assert_from_f64_matches::<8, 6>(b);
        assert_from_f64_matches::<8, 8>(c);
        assert_from_f64_matches::<32, 24>(d);
        assert_fix16_from_f32_matches(f32::from_bits(bits));
    }

    #[test]
    fn conversions_equal_the_reference(
        x16 in raw_operand(16), x8 in raw_operand(8), x32 in raw_operand(32)
    ) {
        assert_converts_match::<16, 12>(x16);
        assert_converts_match::<8, 6>(x8);
        assert_converts_match::<8, 8>(x8);
        assert_converts_match::<32, 24>(x32);
    }
}

#[test]
fn edge_cube_equals_the_i128_reference() {
    fn cube<const W: u32, const F: u32>() {
        let edges = edge_values(W, F);
        for &x in &edges {
            for &y in &edges {
                for &z in &edges {
                    assert_matches_reference::<W, F>(x, y, z);
                }
            }
            assert_converts_match::<W, F>(x);
            assert_from_f64_matches::<W, F>(Fix::<W, F>::from_raw(x).to_f64());
        }
    }
    cube::<16, 12>();
    cube::<8, 6>();
    cube::<8, 8>();
    cube::<32, 24>();
}

#[test]
fn eight_bit_formats_equal_the_reference_on_every_operand_pair() {
    fn all_pairs<const W: u32, const F: u32>() {
        let (min, max) = (Fix::<W, F>::MIN.raw(), Fix::<W, F>::MAX.raw());
        let addends = edge_values(W, F);
        for x in min..=max {
            for y in min..=max {
                assert_binary_ops_match::<W, F>(x, y);
                for &z in &addends {
                    assert_mul_add_matches::<W, F>(x, y, z);
                }
            }
        }
    }
    all_pairs::<8, 6>();
    all_pairs::<8, 8>();
}

#[test]
fn q4_12_quantises_every_f32_on_the_raw_lattice_and_its_ties() {
    // Every Q4.12 value and every midpoint between neighbours, plus the
    // out-of-range ends — the inputs the blur's accelerator boundary sees.
    for raw in -32769i64..=32768 {
        for offset in [0.0, 0.5, -0.5] {
            let value = (raw as f64 + offset) / 4096.0;
            assert_from_f64_matches::<16, 12>(value);
            assert_fix16_from_f32_matches(value as f32);
        }
    }
}

/// `from_f32` against the `i128` reference on `value`, for one format.
fn assert_from_f32_matches<const W: u32, const F: u32>(value: f32) {
    assert_eq!(
        Fix::<W, F>::from_f32(value).raw(),
        Fix::<W, F>::FORMAT.raw_from_f64(value as f64),
        "from_f32 on Fix<{W},{F}> of {value:e} ({:#010x})",
        value.to_bits()
    );
}

/// The `f32` inputs where quantizing breaks first, for a format: NaNs,
/// infinities, zeros, subnormals, and the ½-LSB ties around zero, one and
/// both saturation edges.
fn quantizer_edges<const W: u32, const F: u32>() -> Vec<f32> {
    let lsb = 0.5f64.powi(F as i32);
    let max = Fix::<W, F>::MAX.raw() as f64;
    let min = Fix::<W, F>::MIN.raw() as f64;
    let one = (1i64 << F) as f64;
    let mut values = vec![
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_0001),
        f32::from_bits(0xff80_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN,
        0.0,
        -0.0,
        f32::from_bits(1),
        f32::from_bits(0x8000_0001),
        f32::from_bits(0x007f_ffff),
        f32::from_bits(0x807f_ffff),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
    ];
    for raw in [0.0, 1.0, -1.0, one, -one, max, max - 1.0, min, min + 1.0] {
        for offset in [-0.5, 0.5, -0.25, 0.25, 1.0, -1.0] {
            let exact = ((raw + offset) * lsb) as f32;
            values.extend([exact, f32::from_bits(exact.to_bits().wrapping_add(1))]);
            values.push(f32::from_bits(exact.to_bits().wrapping_sub(1)));
        }
    }
    values
}

#[test]
fn from_f32_equals_the_reference_on_sampled_bit_patterns() {
    // Every 2^12-th bit pattern, and each format's edges: the f32 path
    // (W <= 23) and the f64 one (W > 23) against the `i128` reference.
    fn check<const W: u32, const F: u32>(step: usize) {
        for bits in (0..=u32::MAX).step_by(step) {
            assert_from_f32_matches::<W, F>(f32::from_bits(bits));
        }
        for value in quantizer_edges::<W, F>() {
            assert_from_f32_matches::<W, F>(value);
        }
    }
    check::<16, 12>(1 << 12);
    check::<8, 6>(1 << 16);
    check::<8, 8>(1 << 16);
    check::<23, 20>(1 << 16);
    check::<24, 18>(1 << 16);
    check::<32, 24>(1 << 16);
}

/// Run in release by CI: about 4.3·10⁹ conversions.
#[test]
#[ignore = "exhaustive: every f32 bit pattern"]
fn fix16_from_f32_equals_from_f64_on_every_f32() {
    for bits in 0..=u32::MAX {
        let value = f32::from_bits(bits);
        let (got, reference) = (F16::from_f32(value), F16::from_f64(value as f64));
        assert!(
            got == reference,
            "from_f32 of {value:e} ({bits:#010x}): {got:?}, from_f64 {reference:?}"
        );
    }
}

/// The `mul_add` chain from zero over `weights` and `samples`, and the
/// `nonneg_tap` chain saturated once by `from_raw`, for one format.
fn assert_nonneg_taps_match<const W: u32, const F: u32>(weights: &[i64], samples: &[i64]) {
    let pairs = weights.iter().zip(samples);
    let pairs = pairs.map(|(&w, &x)| (Fix::<W, F>::from_raw(w), Fix::<W, F>::from_raw(x)));
    let reference = pairs
        .clone()
        .fold(Fix::<W, F>::ZERO, |acc, (w, x)| w.mul_add(x, acc));
    let exact = pairs.fold(0, |sum, (w, x)| w.nonneg_tap(x, sum));
    assert_eq!(
        Fix::<W, F>::from_raw(exact.into()),
        reference,
        "Fix<{W},{F}> over {} taps",
        weights.len()
    );
}

/// Non-negative raws of a `width`-bit format, drawing zero, one LSB and
/// `MAX` often.
fn nonneg_raw(width: u32) -> impl Strategy<Value = i64> {
    let max = (1i64 << (width - 1)) - 1;
    prop_oneof![0..=max, 0..=max, Just(0), Just(1), Just(max), max - 2..=max]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn nonneg_taps_equal_the_mul_add_chain(
        taps16 in prop::collection::vec((nonneg_raw(16), nonneg_raw(16)), 1..512),
        taps8 in prop::collection::vec((nonneg_raw(8), nonneg_raw(8)), 1..512),
        taps12 in prop::collection::vec((nonneg_raw(12), nonneg_raw(12)), 1..512),
    ) {
        let split = |taps: &[(i64, i64)]| -> (Vec<i64>, Vec<i64>) { taps.iter().copied().unzip() };
        let (w, x) = split(&taps16);
        assert_nonneg_taps_match::<16, 12>(&w, &x);
        let (w, x) = split(&taps8);
        assert_nonneg_taps_match::<8, 6>(&w, &x);
        assert_nonneg_taps_match::<8, 8>(&w, &x);
        let (w, x) = split(&taps12);
        assert_nonneg_taps_match::<12, 9>(&w, &x);
    }
}

#[test]
fn nonneg_taps_hold_their_longest_chain_of_max_products() {
    // `NONNEG_TAPS` products of MAX by MAX fit the `i32` sum; the chain
    // saturates at MAX like the `mul_add` chain.
    assert_eq!(F16::NONNEG_TAPS, 8192);
    assert_eq!(F32::NONNEG_TAPS, 0);
    let max = F16::MAX.raw();
    let all_max = vec![max; F16::NONNEG_TAPS];
    assert_nonneg_taps_match::<16, 12>(&all_max, &all_max);
}
