//! Per-sample colour science shared by every planner.
//!
//! The register-file redesign lets a [`crate::plan::PipelinePlan`] carry
//! colour registers (see [`crate::plan::ChannelLayout`]); this module holds
//! the per-pixel arithmetic those registers flow through: the RGB ↔ HSV
//! conversion pair the HSV tone-mapping presets pivot on, the SMPTE ST-2084
//! (PQ) and BT.2100 (HLG) transfer curves for HDR-display output, and the
//! filmic tone-curve catalogue (Hable, ACES, Drago) that joins the global
//! Reinhard operator.
//!
//! Every function here is a pure `f32 → f32` (or pixel → pixel) map used by
//! *both* the two-pass and the streaming planner, so the planners stay
//! bit-identical on colour-managed plans for the same reason they do on
//! luminance plans: same arithmetic, same order, different schedule.
//!
//! Conventions, pinned by the regression tests:
//!
//! * Hue lives in `[0, 1)` (not degrees). Grey pixels (`max == min`) and
//!   black pixels (`v == 0`) have **hue 0 and saturation 0** — the
//!   degenerate cases where hue is mathematically undefined collapse to a
//!   deterministic, NaN-free representative, so grey/black round-trips are
//!   exact.
//! * The PQ curves work in display-referred `[0, 1]` with a configurable
//!   `peak_nits` (the mastering peak mapped to code value 1.0); the full
//!   ST-2084 range is 10 000 cd/m².
//! * Every curve clamps its output into `[0, 1]` and maps non-finite or
//!   negative input to a finite value, matching the sanitizing behaviour of
//!   [`crate::normalize::normalize_sample`].

use hdr_image::rgb::Rgb;

/// SMPTE ST-2084 constant `m1 = 2610 / 16384`.
const PQ_M1: f32 = 0.159_301_76;
/// SMPTE ST-2084 constant `m2 = 2523 / 4096 × 128`.
const PQ_M2: f32 = 78.84375;
/// SMPTE ST-2084 constant `c1 = 3424 / 4096`.
const PQ_C1: f32 = 0.8359375;
/// SMPTE ST-2084 constant `c2 = 2413 / 4096 × 32`.
const PQ_C2: f32 = 18.851_562;
/// SMPTE ST-2084 constant `c3 = 2392 / 4096 × 32`.
const PQ_C3: f32 = 18.6875;
/// The absolute luminance (cd/m²) ST-2084 maps to code value 1.0.
pub const PQ_FULL_SCALE_NITS: f32 = 10_000.0;

/// BT.2100 HLG constant `a`.
const HLG_A: f32 = 0.178_832_77;
/// BT.2100 HLG constant `b = 1 − 4a`.
const HLG_B: f32 = 0.284_668_92;
/// BT.2100 HLG constant `c = 0.5 − a·ln(4a)`.
const HLG_C: f32 = 0.559_910_7;

/// The Uncharted-2 shoulder's linear white point: `hable_partial(W)` is the
/// curve's normalizer, so an input of `W` maps exactly to display white.
pub const HABLE_WHITE: f32 = 11.2;

/// Where the filmic curves saturate their exposed input. Hable clamps to 1
/// from [`HABLE_WHITE`] on and ACES from about 7.3, so past this point both
/// already return exactly 1; without the cap their squares overflow from
/// about 10¹⁹ on, and ∞/∞ is NaN.
const FILMIC_INPUT_MAX: f32 = 1.0e6;

#[inline]
fn sanitized(value: f32) -> f32 {
    if value.is_finite() {
        value.max(0.0)
    } else {
        0.0
    }
}

/// Converts one linear RGB pixel to HSV, packing `(h, s, v)` into the
/// `(r, g, b)` fields of the returned pixel.
///
/// Hue is in `[0, 1)`; grey and black pixels get the pinned degenerate
/// representation `h = 0, s = 0` (see the module docs), so the round trip
/// through [`hsv_to_rgb`] is exact there.
///
/// Every case is a select over values computed for all pixels, so a row
/// of conversions vectorizes.
#[inline]
pub fn rgb_to_hsv(pixel: Rgb<f32>) -> Rgb<f32> {
    let r = sanitized(pixel.r);
    let g = sanitized(pixel.g);
    let b = sanitized(pixel.b);
    let max = r.max(g).max(b);
    let min = r.min(g).min(b);
    let delta = max - min;
    // The maximal channel selects the numerator and the sextant offset, so
    // one division serves all three cases. The red case adds no offset:
    // `0.0 + (−0.0)` would turn a −0 hue into +0.
    let (numerator, offset) = if max == r {
        (g - b, 0.0)
    } else if max == g {
        (b - r, 2.0)
    } else {
        (r - g, 4.0)
    };
    let quotient = numerator / delta;
    let hue_sextant = if max == r {
        quotient
    } else {
        offset + quotient
    };
    let hue = hue_sextant / 6.0;
    let hue = if hue < 0.0 { hue + 1.0 } else { hue };
    // Guard the h == 1.0 wrap (hue_sextant == −0ε rounding) so hue stays in
    // [0, 1).
    let hue = if hue >= 1.0 { 0.0 } else { hue };
    // Grey (or black): hue is undefined, collapse to the pinned
    // representative so the round trip is exact and NaN-free.
    let grey = delta <= 0.0 || max <= 0.0;
    Rgb::new(
        if grey { 0.0 } else { hue },
        if grey { 0.0 } else { delta / max },
        max,
    )
}

/// Converts one HSV pixel (packed `(h, s, v)` in the `(r, g, b)` fields, as
/// produced by [`rgb_to_hsv`]) back to linear RGB.
///
/// Like [`rgb_to_hsv`], every case is a select, so a row of conversions
/// vectorizes.
#[inline]
pub fn hsv_to_rgb(pixel: Rgb<f32>) -> Rgb<f32> {
    let h = sanitized(pixel.r);
    let s = sanitized(pixel.g).min(1.0);
    let v = sanitized(pixel.b);
    let sextant = (h - h.floor()) * 6.0;
    let index = sextant.floor().min(5.0);
    let fraction = sextant - index;
    let p = v * (1.0 - s);
    let q = v * (1.0 - s * fraction);
    let t = v * (1.0 - s * (1.0 - fraction));
    // Sextants 0–5 are (v,t,p), (q,v,p), (p,v,t), (p,q,v), (t,p,v), (v,p,q).
    let red = if index == 0.0 || index == 5.0 {
        v
    } else if index == 1.0 {
        q
    } else if index == 4.0 {
        t
    } else {
        p
    };
    let green = if index == 1.0 || index == 2.0 {
        v
    } else if index == 3.0 {
        q
    } else if index == 0.0 {
        t
    } else {
        p
    };
    let blue = if index == 3.0 || index == 4.0 {
        v
    } else if index == 5.0 {
        q
    } else if index == 2.0 {
        t
    } else {
        p
    };
    // Zero saturation: achromatic, exactly `v` in every channel.
    if s <= 0.0 {
        Rgb::splat(v)
    } else {
        Rgb::new(red, green, blue)
    }
}

/// The SMPTE ST-2084 (PQ) OETF: encodes a display-referred linear sample in
/// `[0, 1]` (1.0 ≙ `peak_nits` cd/m²) into a PQ signal in `[0, 1]`.
#[inline]
pub fn pq_oetf(value: f32, peak_nits: f32) -> f32 {
    let y = (sanitized(value).min(1.0) * peak_nits / PQ_FULL_SCALE_NITS).clamp(0.0, 1.0);
    let ym1 = y.powf(PQ_M1);
    ((PQ_C1 + PQ_C2 * ym1) / (1.0 + PQ_C3 * ym1)).powf(PQ_M2)
}

/// The SMPTE ST-2084 (PQ) EOTF: decodes a PQ signal in `[0, 1]` back to a
/// display-referred linear sample in `[0, 1]` (1.0 ≙ `peak_nits` cd/m²).
/// Inverse of [`pq_oetf`].
#[inline]
pub fn pq_eotf(signal: f32, peak_nits: f32) -> f32 {
    let e = sanitized(signal).min(1.0);
    let em = e.powf(1.0 / PQ_M2);
    let y = ((em - PQ_C1).max(0.0) / (PQ_C2 - PQ_C3 * em)).powf(1.0 / PQ_M1);
    (y * PQ_FULL_SCALE_NITS / peak_nits).clamp(0.0, 1.0)
}

/// The BT.2100 HLG OETF: encodes a scene-referred linear sample in `[0, 1]`
/// into an HLG signal in `[0, 1]` (square root below 1/12, logarithmic
/// above).
#[inline]
pub fn hlg_oetf(value: f32) -> f32 {
    let x = sanitized(value).min(1.0);
    if x <= 1.0 / 12.0 {
        (3.0 * x).sqrt()
    } else {
        (HLG_A * (12.0 * x - HLG_B).ln() + HLG_C).clamp(0.0, 1.0)
    }
}

/// The BT.2100 HLG inverse OETF: decodes an HLG signal in `[0, 1]` back to
/// a scene-referred linear sample in `[0, 1]`. Inverse of [`hlg_oetf`].
#[inline]
pub fn hlg_eotf(signal: f32) -> f32 {
    let e = sanitized(signal).min(1.0);
    if e <= 0.5 {
        (e * e / 3.0).clamp(0.0, 1.0)
    } else {
        ((((e - HLG_C) / HLG_A).exp() + HLG_B) / 12.0).clamp(0.0, 1.0)
    }
}

/// The Uncharted-2 (Hable) shoulder polynomial — the un-normalized filmic
/// segment `((x(Ax + CB) + DE) / (x(Ax + B) + DF)) − E/F`.
#[inline]
fn hable_partial(x: f32) -> f32 {
    const A: f32 = 0.15;
    const B: f32 = 0.50;
    const C: f32 = 0.10;
    const D: f32 = 0.20;
    const E: f32 = 0.02;
    const F: f32 = 0.30;
    ((x * (A * x + C * B) + D * E) / (x * (A * x + B) + D * F)) - E / F
}

/// The Hable (Uncharted 2) filmic curve on a normalized sample: the input is
/// scaled by `exposure`, pushed through the shoulder polynomial and
/// normalized by the curve's value at [`HABLE_WHITE`]. With
/// `exposure = HABLE_WHITE` the normalized maximum maps exactly to 1.
#[inline]
pub fn hable_sample(value: f32, exposure: f32) -> f32 {
    // `hable_partial(0)` is zero in exact arithmetic but an ulp off in f32;
    // anchoring both ends keeps black at exactly 0 and white at exactly 1.
    let black = hable_partial(0.0);
    let white = hable_partial(HABLE_WHITE) - black;
    let x = (sanitized(value) * exposure).min(FILMIC_INPUT_MAX);
    ((hable_partial(x) - black) / white).clamp(0.0, 1.0)
}

/// The ACES filmic approximation (Narkowicz 2015) on a normalized sample,
/// with an exposure multiplier applied before the rational fit.
#[inline]
pub fn aces_sample(value: f32, exposure: f32) -> f32 {
    let x = (sanitized(value) * exposure).min(FILMIC_INPUT_MAX);
    ((x * (2.51 * x + 0.03)) / (x * (2.43 * x + 0.59) + 0.14)).clamp(0.0, 1.0)
}

/// The Drago (2003) adaptive logarithmic curve on a normalized sample
/// (`L_wmax = 1`): bias `b ∈ (0, 1]` steers the base interpolation —
/// smaller bias compresses highlights harder. The normalized maximum maps
/// exactly to 1 for every bias.
#[inline]
pub fn drago_sample(value: f32, bias: f32) -> f32 {
    let x = sanitized(value).min(1.0);
    let bias_power = bias.ln() / 0.5f32.ln();
    // Drago'03 with L_wmax = 1: log10(1 + x) / (log10(2) · log10(2 + 8·x^p)),
    // where p interpolates the logarithm base between 2 and 10.
    let denom = 2.0f32.log10() * (2.0 + 8.0 * x.powf(bias_power)).log10();
    ((1.0 + x).log10() / denom).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, eps: f32, what: &str) {
        assert!((a - b).abs() <= eps, "{what}: {a} vs {b}");
    }

    /// The branchy `rgb_to_hsv` body the select-based one replaced, kept as
    /// its bit-identity reference.
    fn reference_rgb_to_hsv(pixel: Rgb<f32>) -> Rgb<f32> {
        let r = sanitized(pixel.r);
        let g = sanitized(pixel.g);
        let b = sanitized(pixel.b);
        let max = r.max(g).max(b);
        let min = r.min(g).min(b);
        let delta = max - min;
        if delta <= 0.0 || max <= 0.0 {
            return Rgb::new(0.0, 0.0, max);
        }
        let hue_sextant = if max == r {
            (g - b) / delta
        } else if max == g {
            2.0 + (b - r) / delta
        } else {
            4.0 + (r - g) / delta
        };
        let mut hue = hue_sextant / 6.0;
        if hue < 0.0 {
            hue += 1.0;
        }
        if hue >= 1.0 {
            hue = 0.0;
        }
        Rgb::new(hue, delta / max, max)
    }

    /// The branchy `hsv_to_rgb` body (a `match` on the sextant) the
    /// select-based one replaced, kept as its bit-identity reference.
    fn reference_hsv_to_rgb(pixel: Rgb<f32>) -> Rgb<f32> {
        let h = sanitized(pixel.r);
        let s = sanitized(pixel.g).min(1.0);
        let v = sanitized(pixel.b);
        if s <= 0.0 {
            return Rgb::splat(v);
        }
        let sextant = (h - h.floor()) * 6.0;
        let index = (sextant as usize).min(5);
        let fraction = sextant - index as f32;
        let p = v * (1.0 - s);
        let q = v * (1.0 - s * fraction);
        let t = v * (1.0 - s * (1.0 - fraction));
        match index {
            0 => Rgb::new(v, t, p),
            1 => Rgb::new(q, v, p),
            2 => Rgb::new(p, v, t),
            3 => Rgb::new(p, q, v),
            4 => Rgb::new(t, p, v),
            _ => Rgb::new(v, p, q),
        }
    }

    fn bits(p: Rgb<f32>) -> [u32; 3] {
        [p.r.to_bits(), p.g.to_bits(), p.b.to_bits()]
    }

    /// Every triple of special values (NaN, ±∞, ±0, subnormals, the unit
    /// interval's ends, huge values), then random bit patterns, random
    /// unit-interval pixels and pixels with tied channels.
    fn hsv_probe_pixels() -> Vec<Rgb<f32>> {
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::MIN_POSITIVE / 3.0,
            f32::MIN_POSITIVE,
            0.5,
            1.0 - f32::EPSILON / 2.0,
            1.0,
            -1.0,
            f32::MAX,
        ];
        let mut pixels = Vec::new();
        for &r in &specials {
            for &g in &specials {
                for &b in &specials {
                    pixels.push(Rgb::new(r, g, b));
                }
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200_000 {
            let word = next();
            let (lo, hi) = (word as u32, (word >> 32) as u32);
            pixels.push(Rgb::new(
                f32::from_bits(lo),
                f32::from_bits(hi),
                f32::from_bits(next() as u32),
            ));
            let unit = |w: u64| (w >> 40) as f32 / (1u64 << 24) as f32;
            let (a, b, c) = (unit(next()), unit(next()), unit(next()));
            pixels.push(Rgb::new(a, b, c));
            pixels.push(Rgb::new(a, a, c));
            pixels.push(Rgb::new(a, b, a));
            pixels.push(Rgb::new(a, b, b));
        }
        pixels
    }

    #[test]
    fn hsv_conversions_are_bit_identical_to_the_branchy_reference() {
        for p in hsv_probe_pixels() {
            assert_eq!(
                bits(rgb_to_hsv(p)),
                bits(reference_rgb_to_hsv(p)),
                "rgb_to_hsv({p:?})"
            );
            assert_eq!(
                bits(hsv_to_rgb(p)),
                bits(reference_hsv_to_rgb(p)),
                "hsv_to_rgb({p:?})"
            );
            let hsv = reference_rgb_to_hsv(p);
            assert_eq!(
                bits(hsv_to_rgb(hsv)),
                bits(reference_hsv_to_rgb(hsv)),
                "hsv_to_rgb({hsv:?})"
            );
        }
    }

    /// The filmic bodies before their input cap, kept as the reference for
    /// every input at which they stayed finite.
    fn uncapped_hable(value: f32, exposure: f32) -> f32 {
        let black = hable_partial(0.0);
        let white = hable_partial(HABLE_WHITE) - black;
        ((hable_partial(sanitized(value) * exposure) - black) / white).clamp(0.0, 1.0)
    }

    fn uncapped_aces(value: f32, exposure: f32) -> f32 {
        let x = sanitized(value) * exposure;
        ((x * (2.51 * x + 0.03)) / (x * (2.43 * x + 0.59) + 0.14)).clamp(0.0, 1.0)
    }

    #[test]
    fn filmic_curves_stay_finite_at_any_exposure_and_keep_every_finite_output() {
        type Pair = (fn(f32, f32) -> f32, fn(f32, f32) -> f32);
        let curves: [(&str, Pair); 2] = [
            ("hable", (hable_sample, uncapped_hable)),
            ("aces", (aces_sample, uncapped_aces)),
        ];
        // Exposures in half octaves from 2⁻²⁰ up to f32::MAX, over every
        // 262139th value of [0, 2].
        let exposures =
            (-40..=255)
                .map(|k| (k as f32 / 2.0).exp2())
                .chain([5e19, 1e25, 3.4e38, f32::MAX]);
        let values: Vec<f32> = (0..2.0f32.to_bits())
            .step_by(262_139)
            .map(f32::from_bits)
            .collect();
        let mut overflowed = 0;
        for exposure in exposures {
            for &value in &values {
                for (name, (curve, uncapped)) in &curves {
                    let (got, old) = (curve(value, exposure), uncapped(value, exposure));
                    assert!(
                        (0.0..=1.0).contains(&got),
                        "{name}({value}, {exposure}) = {got}"
                    );
                    if old.is_finite() {
                        assert_eq!(got.to_bits(), old.to_bits(), "{name}({value}, {exposure})");
                    } else {
                        overflowed += 1;
                    }
                }
            }
        }
        assert!(overflowed > 0, "the sweep must reach the old overflow");
    }

    #[test]
    fn hsv_round_trips_primaries_and_mixtures() {
        let pixels = [
            Rgb::new(1.0, 0.0, 0.0),
            Rgb::new(0.0, 1.0, 0.0),
            Rgb::new(0.0, 0.0, 1.0),
            Rgb::new(1.0, 1.0, 0.0),
            Rgb::new(0.0, 1.0, 1.0),
            Rgb::new(1.0, 0.0, 1.0),
            Rgb::new(0.7, 0.3, 0.1),
            Rgb::new(0.01, 0.5, 0.99),
        ];
        for p in pixels {
            let hsv = rgb_to_hsv(p);
            assert!((0.0..1.0).contains(&hsv.r), "hue {} out of [0,1)", hsv.r);
            let back = hsv_to_rgb(hsv);
            assert_close(back.r, p.r, 1e-6, "r");
            assert_close(back.g, p.g, 1e-6, "g");
            assert_close(back.b, p.b, 1e-6, "b");
        }
    }

    #[test]
    fn grey_and_black_hsv_round_trips_are_exact_and_nan_free() {
        // The satellite-bugfix convention: hue undefined ⇒ h = 0, s = 0,
        // and the round trip is *exact*, not merely close.
        for v in [0.0f32, 1e-30, 0.25, 0.5, 1.0] {
            let grey = Rgb::splat(v);
            let hsv = rgb_to_hsv(grey);
            assert_eq!((hsv.r, hsv.g), (0.0, 0.0), "grey v={v}");
            assert_eq!(hsv.b, v);
            let back = hsv_to_rgb(hsv);
            assert_eq!((back.r, back.g, back.b), (v, v, v), "round trip v={v}");
        }
        // V = 0 with garbage hue/saturation still decodes to exact black.
        assert_eq!(hsv_to_rgb(Rgb::new(0.37, 0.9, 0.0)), Rgb::splat(0.0));
        // NaN input collapses to black, never propagates.
        let poisoned = rgb_to_hsv(Rgb::new(f32::NAN, f32::INFINITY, -1.0));
        assert!(poisoned.r.is_finite() && poisoned.g.is_finite() && poisoned.b.is_finite());
        let decoded = hsv_to_rgb(Rgb::new(f32::NAN, 0.5, f32::NAN));
        assert!(decoded.r.is_finite() && decoded.g.is_finite() && decoded.b.is_finite());
    }

    #[test]
    fn hue_is_always_in_unit_interval() {
        for i in 0..200 {
            let t = i as f32 / 199.0;
            let p = Rgb::new(1.0 - t, t, (t * 7.0).fract());
            let h = rgb_to_hsv(p).r;
            assert!((0.0..1.0).contains(&h), "hue {h} for t={t}");
        }
    }

    #[test]
    fn pq_oetf_eotf_round_trip_and_anchors() {
        for peak in [100.0f32, 1000.0, PQ_FULL_SCALE_NITS] {
            assert_eq!(pq_eotf(pq_oetf(0.0, peak), peak), 0.0);
            assert_close(pq_eotf(pq_oetf(1.0, peak), peak), 1.0, 1e-4, "white");
            for i in 1..=20 {
                let x = i as f32 / 20.0;
                let rt = pq_eotf(pq_oetf(x, peak), peak);
                assert_close(rt, x, 1e-4, "pq round trip");
            }
        }
        // ST-2084 anchor: at full scale, Y = 1 encodes to signal 1.
        assert_close(pq_oetf(1.0, PQ_FULL_SCALE_NITS), 1.0, 1e-5, "pq peak");
        // Monotone.
        let mut last = -1.0;
        for i in 0..=50 {
            let y = pq_oetf(i as f32 / 50.0, 1000.0);
            assert!(y >= last);
            last = y;
        }
    }

    #[test]
    fn hlg_oetf_eotf_round_trip_and_anchors() {
        assert_eq!(hlg_eotf(hlg_oetf(0.0)), 0.0);
        assert_close(hlg_oetf(1.0), 1.0, 1e-5, "hlg white");
        assert_close(hlg_oetf(1.0 / 12.0), 0.5, 1e-6, "hlg knee");
        for i in 0..=40 {
            let x = i as f32 / 40.0;
            assert_close(hlg_eotf(hlg_oetf(x)), x, 1e-5, "hlg round trip");
        }
    }

    #[test]
    fn filmic_curves_are_monotone_normalized_and_nan_free() {
        type Curve = Box<dyn Fn(f32) -> f32>;
        let curves: [(&str, Curve); 3] = [
            ("hable", Box::new(|x| hable_sample(x, HABLE_WHITE))),
            ("aces", Box::new(|x| aces_sample(x, 8.0))),
            ("drago", Box::new(|x| drago_sample(x, 0.85))),
        ];
        for (name, curve) in &curves {
            assert_eq!(curve(0.0), 0.0, "{name} black");
            let mut last = -1.0;
            for i in 0..=100 {
                let x = i as f32 / 100.0;
                let y = curve(x);
                assert!((0.0..=1.0).contains(&y), "{name}({x}) = {y}");
                assert!(y >= last, "{name} not monotone at {x}");
                last = y;
            }
            assert!(curve(f32::NAN).is_finite(), "{name} NaN input");
            assert!(curve(-1.0).is_finite(), "{name} negative input");
        }
        // Pinned normalizations: Hable maps W-scaled white exactly to 1,
        // Drago maps the normalized maximum exactly to 1 for every bias.
        assert_close(hable_sample(1.0, HABLE_WHITE), 1.0, 1e-6, "hable white");
        for bias in [0.5f32, 0.85, 1.0] {
            assert_close(drago_sample(1.0, bias), 1.0, 1e-6, "drago white");
        }
        // Filmic curves lift shadows like tone mappers should.
        assert!(hable_sample(0.05, HABLE_WHITE) > 0.05);
        assert!(aces_sample(0.05, 8.0) > 0.2);
        assert!(drago_sample(0.05, 0.85) > 0.08);
    }
}
