//! Integration tests of the `TonemapRequest` → `TonemapResponse` job
//! contract: every way a user can hand the engine layer bad input must
//! come back as a typed `TonemapError` (never a panic), and the RGB
//! request path must stay in parity with the f32 reference on every
//! engine.

use tonemap_zynq_repro::prelude::*;

fn scene() -> LuminanceImage {
    SceneKind::WindowInDarkRoom.generate(48, 48, 21)
}

// --- error paths --------------------------------------------------------

#[test]
fn unknown_backend_spec_is_a_typed_error() {
    let registry = BackendRegistry::standard();
    let hdr = scene();
    let err = registry
        .execute(&TonemapRequest::luminance(&hdr).on_backend("gpu-cuda"))
        .expect_err("unknown backend must not execute");
    match err {
        TonemapError::UnknownBackend(inner) => {
            assert_eq!(inner.name, "gpu-cuda");
            assert!(inner.to_string().contains("sw-f32"));
        }
        other => panic!("expected UnknownBackend, got {other}"),
    }
}

#[test]
fn malformed_spec_strings_are_typed_errors() {
    let registry = BackendRegistry::standard();
    let hdr = scene();
    for spec in ["", "sw-f32?sigma", "sw-f32?sigma=abc", "sw-f32?warp=9"] {
        let err = registry
            .execute(&TonemapRequest::luminance(&hdr).on_backend(spec))
            .err()
            .unwrap_or_else(|| panic!("spec `{spec}` must not execute"));
        assert!(
            matches!(err, TonemapError::InvalidSpec { .. }),
            "spec `{spec}` produced {err}"
        );
    }
}

#[test]
fn invalid_request_params_are_typed_errors() {
    let registry = BackendRegistry::standard();
    let hdr = scene();
    let mut params = ToneMapParams::paper_default();
    params.blur.sigma = -3.0;
    let err = registry
        .execute(&TonemapRequest::luminance(&hdr).with_params(params))
        .expect_err("invalid params must not execute");
    assert!(matches!(
        err,
        TonemapError::InvalidParams(ParamError::NonPositiveSigma(_))
    ));

    // The same validation guards spec-level overrides.
    let err = registry
        .execute(&TonemapRequest::luminance(&hdr).on_backend("hw-fix16?radius=0"))
        .expect_err("invalid spec override must not execute");
    assert!(matches!(
        err,
        TonemapError::InvalidParams(ParamError::ZeroBlurRadius)
    ));
}

#[test]
fn zero_dimension_raw_input_is_a_typed_error() {
    let registry = BackendRegistry::standard();
    let err = registry
        .execute(&TonemapRequest::raw_luminance(0, 0, &[]))
        .expect_err("zero-dimension input must not execute");
    assert!(matches!(err, TonemapError::Image(_)), "got {err}");

    // A mis-sized payload fails the same way.
    let pixels = vec![0.5f32; 5];
    let err = registry
        .execute(&TonemapRequest::raw_luminance(4, 4, &pixels))
        .expect_err("mis-sized input must not execute");
    assert!(matches!(err, TonemapError::Image(_)), "got {err}");
}

#[test]
fn valid_raw_input_round_trips_through_the_typed_path() {
    let registry = BackendRegistry::standard();
    let hdr = scene();
    let raw = registry
        .execute(&TonemapRequest::raw_luminance(48, 48, hdr.pixels()))
        .expect("valid raw payload executes");
    let typed = registry
        .execute(&TonemapRequest::luminance(&hdr))
        .expect("typed image executes");
    assert_eq!(raw.luminance().unwrap(), typed.luminance().unwrap());
}

// --- RGB parity across every engine -------------------------------------

/// Minimum acceptable PSNR (dB) of each engine's RGB output against the
/// `sw-f32` RGB output, mirroring the luminance parity bounds.
fn min_rgb_psnr_db(name: &str) -> f64 {
    match name {
        // The streaming engines re-schedule the same arithmetic, so they
        // are bit-identical to the engines they stream.
        "sw-f32" | "sw-f32-stream" => f64::INFINITY,
        "hw-marked" | "hw-sequential" | "hw-pragmas" => 60.0,
        "hw-fix16" | "hw-fix16-stream" => 30.0,
        "sw-fix16" => 12.0,
        other => panic!("no RGB parity tolerance defined for backend `{other}`"),
    }
}

/// Per-channel planes of an RGB image, so parity is asserted on the full
/// colour signal: chrominance corruption that happens to preserve the
/// weighted luminance cannot slip past a luminance-only comparison.
fn channel_planes(image: &RgbImage) -> [LuminanceImage; 3] {
    [image.map(|p| p.r), image.map(|p| p.g), image.map(|p| p.b)]
}

#[test]
fn rgb_requests_stay_in_parity_with_the_reference_on_every_engine() {
    let registry = BackendRegistry::standard();
    let hdr = SceneKind::SunAndShadow.generate_rgb(48, 48, 13);
    let reference = registry
        .execute(&TonemapRequest::rgb(&hdr).on_backend("sw-f32"))
        .expect("reference RGB request executes");
    let reference_planes = channel_planes(reference.rgb().unwrap());

    for backend in registry.iter() {
        let response = backend
            .execute(&TonemapRequest::rgb(&hdr))
            .expect("valid RGB request executes");
        let out = response.rgb().expect("display-referred RGB payload");
        assert_eq!(out.dimensions(), hdr.dimensions(), "{}", backend.name());
        for p in out.pixels() {
            assert!(
                (0.0..=1.0).contains(&p.r)
                    && (0.0..=1.0).contains(&p.g)
                    && (0.0..=1.0).contains(&p.b),
                "backend `{}` produced out-of-range colour",
                backend.name()
            );
        }

        let required = min_rgb_psnr_db(backend.name());
        if required.is_infinite() {
            assert_eq!(out, reference.rgb().unwrap());
            continue;
        }
        let out_planes = channel_planes(out);
        for ((label, reference_plane), out_plane) in ["r", "g", "b"]
            .iter()
            .zip(&reference_planes)
            .zip(&out_planes)
        {
            let p = psnr(reference_plane, out_plane, 1.0);
            assert!(
                p >= required,
                "backend `{}`: {label}-channel PSNR {p:.1} dB below the required {required:.0} dB",
                backend.name()
            );
        }
    }
}

// --- output kinds and telemetry -----------------------------------------

#[test]
fn ldr_output_kind_quantises_the_payload() {
    let registry = BackendRegistry::standard();
    let hdr = scene();
    let display = registry.execute(&TonemapRequest::luminance(&hdr)).unwrap();
    let ldr = registry
        .execute(&TonemapRequest::luminance(&hdr).with_output(OutputKind::Ldr8))
        .unwrap();
    let quantised = ldr.ldr_luminance().expect("8-bit payload requested");
    assert_eq!(
        quantised,
        &display.luminance().unwrap().to_ldr(),
        "Ldr8 must equal quantising the display-referred output"
    );
    assert!(ldr.luminance().is_none());

    let rgb = SceneKind::GradientRamp.generate_rgb(16, 16, 3);
    let rgb_ldr = registry
        .execute(
            &TonemapRequest::rgb(&rgb)
                .on_backend("hw-fix16")
                .with_output(OutputKind::Ldr8),
        )
        .unwrap();
    assert!(rgb_ldr.ldr_rgb().is_some());
}

#[test]
fn telemetry_is_opt_in_and_carries_the_model_prediction() {
    let registry = BackendRegistry::standard();
    let hdr = scene();
    let silent = registry
        .execute(&TonemapRequest::luminance(&hdr).on_backend("hw-fix16"))
        .unwrap();
    assert!(silent.telemetry().is_none());

    let telemetered = registry
        .execute(
            &TonemapRequest::luminance(&hdr)
                .on_backend("hw-fix16")
                .with_telemetry(),
        )
        .unwrap();
    let telemetry = telemetered.telemetry().expect("telemetry requested");
    assert_eq!(telemetry.backend, "hw-fix16");
    assert!(telemetry.ops.total() > 0);
    let modeled = telemetry.modeled.as_ref().expect("Table II design");
    assert!(modeled.total_seconds > 0.0);
    assert!(modeled.energy_j > 0.0);
}

#[test]
fn spec_overrides_produce_a_different_image_than_the_defaults() {
    let registry = BackendRegistry::standard();
    let hdr = scene();
    let default = registry.execute(&TonemapRequest::luminance(&hdr)).unwrap();
    let narrow = registry
        .execute(&TonemapRequest::luminance(&hdr).on_backend("sw-f32?sigma=1.5&radius=4"))
        .unwrap();
    assert_ne!(default.luminance().unwrap(), narrow.luminance().unwrap());
}

#[test]
fn registry_introspection_lists_all_engines() {
    let registry = BackendRegistry::standard();
    let infos = registry.infos();
    assert_eq!(infos.len(), 8);
    assert!(infos
        .iter()
        .any(|i| i.name == "hw-fix16" && i.is_accelerated()));
    assert!(infos
        .iter()
        .any(|i| i.name == "sw-f32" && !i.is_accelerated()));
    // The streaming shapes are execution schedules, not Table II designs.
    assert!(infos
        .iter()
        .any(|i| i.name == "sw-f32-stream" && !i.has_platform_model()));
}

// --- non-finite input handling -------------------------------------------

#[test]
fn scattered_nan_pixels_are_sanitized_not_propagated() {
    // Regression: NaN pixels used to survive normalization (`clamp` on NaN
    // returns NaN) and poison the blurred mask, the masking stage and the
    // adjustment downstream.
    let registry = BackendRegistry::standard();
    let mut hdr = scene();
    hdr.set(0, 0, f32::NAN);
    hdr.set(20, 31, f32::INFINITY);
    hdr.set(31, 20, f32::NEG_INFINITY);
    for backend in registry.iter() {
        let response = backend
            .execute(&TonemapRequest::luminance(&hdr))
            .expect("scattered non-finite pixels must not fail the request");
        assert!(
            response
                .luminance()
                .unwrap()
                .pixels()
                .iter()
                .all(|v| v.is_finite() && (0.0..=1.0).contains(v)),
            "backend `{}` let non-finite input poison its output",
            backend.name()
        );
    }
}

#[test]
fn nan_channels_in_rgb_inputs_do_not_poison_the_colour_path() {
    // Regression: a single non-finite channel used to survive into
    // `reapply_color`, where the NaN luminance ratio poisoned all three
    // output channels of the pixel.
    let registry = BackendRegistry::standard();
    let mut hdr = SceneKind::SunAndShadow.generate_rgb(24, 24, 17);
    let poisoned = hdr_image::Rgb {
        r: f32::NAN,
        g: 0.4,
        b: 0.6,
    };
    hdr.set(5, 5, poisoned);
    hdr.set(10, 10, hdr_image::Rgb::splat(f32::INFINITY));
    let response = registry
        .execute(&TonemapRequest::rgb(&hdr))
        .expect("scattered non-finite channels must not fail the request");
    for (x, y, p) in response.rgb().unwrap().enumerate_pixels() {
        assert!(
            p.r.is_finite() && p.g.is_finite() && p.b.is_finite(),
            "non-finite output channel at ({x}, {y}): {p:?}"
        );
    }
}

#[test]
fn extreme_curve_parameters_give_finite_in_range_pixels() {
    // `strength=3e38` drives the masking exponent to 0 or +∞ (and `1^∞`
    // must stay 1); an unsaturated filmic curve squared `x·3.4e38` into
    // ∞/∞ = NaN. Below 2⁻²⁴ `1 + log_scale` rounds to 1, and a tiny
    // Reinhard white squares to 0, so both curves met 0/0.
    let registry = BackendRegistry::standard();
    let hdr = SceneKind::WindowInDarkRoom.generate(64, 48, 21);
    let hdr_rgb = SceneKind::WindowInDarkRoom.generate_rgb(64, 48, 21);
    // The same frame with one exactly-black pixel, where `L = 0`.
    let mut dark = hdr.clone();
    dark.set(9, 5, 0.0);
    let mut dark_rgb = hdr_rgb.clone();
    dark_rgb.set(9, 5, hdr_image::Rgb::splat(0.0));
    let specs = [
        "sw-f32-stream?strength=0",
        "sw-f32-stream?strength=3e38",
        "sw-f32?strength=3e38",
        "hw-fix16-stream?strength=3e38",
        "sw-f32-stream?pipeline=filmic&exposure=3.4e38",
        "sw-f32?pipeline=aces&exposure=3.4e38",
        "hw-fix16-stream?pipeline=aces&exposure=3.4e38",
        "sw-f32-stream?pipeline=log&log_scale=1e-8",
        "sw-fix16?pipeline=log&log_scale=1e-8",
        "sw-f32?pipeline=reinhard&reinhard_key=1e-45",
        "hw-fix16?pipeline=reinhard&reinhard_key=1e-45",
        "hw-fix16-stream?pipeline=reinhard&reinhard_key=1e-45",
        "sw-fix16?pipeline=reinhard&reinhard_key=1e-45",
        "sw-f32-stream?pipeline=reinhard&reinhard_white=1e-30",
    ];
    let in_range = |v: f32| v.is_finite() && (0.0..=1.0).contains(&v);
    for (frame, (hdr, hdr_rgb)) in [(&hdr, &hdr_rgb), (&dark, &dark_rgb)]
        .into_iter()
        .enumerate()
    {
        for spec in specs {
            let luminance = registry
                .execute(&TonemapRequest::luminance(hdr).on_backend(spec))
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            let pixels = luminance.luminance().unwrap().pixels();
            assert!(
                pixels.iter().all(|&v| in_range(v)),
                "{spec} luminance, frame {frame}"
            );
            if spec.contains("log_scale") || spec.contains("reinhard_key") {
                // The curves' limits, not a saturated frame.
                assert!(
                    pixels.iter().any(|&v| v < 1.0),
                    "{spec} saturated, frame {frame}"
                );
            }
            let rgb = registry
                .execute(&TonemapRequest::rgb(hdr_rgb).on_backend(spec))
                .unwrap_or_else(|e| panic!("{spec} rgb: {e}"));
            let channels = rgb
                .rgb()
                .unwrap()
                .pixels()
                .iter()
                .flat_map(|p| [p.r, p.g, p.b]);
            assert!(
                channels.into_iter().all(in_range),
                "{spec} rgb, frame {frame}"
            );
        }
    }
}

#[test]
fn all_non_finite_inputs_are_rejected_with_a_typed_error() {
    let registry = BackendRegistry::standard();
    let all_nan = LuminanceImage::filled(8, 8, f32::NAN);
    let err = registry
        .execute(&TonemapRequest::luminance(&all_nan))
        .expect_err("an all-NaN frame has nothing to tone-map");
    assert!(
        matches!(err, TonemapError::Image(_)),
        "expected a typed image error, got {err}"
    );
    assert!(err.to_string().contains("finite"), "got {err}");

    // The same validation covers raw wire payloads and RGB inputs.
    let raw = vec![f32::INFINITY; 16];
    assert!(matches!(
        registry.execute(&TonemapRequest::raw_luminance(4, 4, &raw)),
        Err(TonemapError::Image(_))
    ));
    let all_nan_rgb = RgbImage::filled(4, 4, hdr_image::Rgb::splat(f32::NAN));
    assert!(matches!(
        registry.execute(&TonemapRequest::rgb(&all_nan_rgb)),
        Err(TonemapError::Image(_))
    ));

    // A single systematically dead channel is *not* all-non-finite: the
    // finite channels still carry the scene, so the request succeeds.
    let dead_red = RgbImage::from_fn(4, 4, |x, y| hdr_image::Rgb {
        r: f32::NAN,
        g: 0.1 + 0.05 * x as f32,
        b: 0.1 + 0.05 * y as f32,
    });
    let recovered = registry
        .execute(&TonemapRequest::rgb(&dead_red))
        .expect("two live channels are recoverable");
    assert!(recovered
        .rgb()
        .unwrap()
        .pixels()
        .iter()
        .all(|p| p.r.is_finite() && p.g.is_finite() && p.b.is_finite()));
}
