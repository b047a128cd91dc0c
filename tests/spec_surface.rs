//! The spec surface's declarations agree with what reads them, and its
//! length is bounded.
//!
//! Each preset declares the tuning keys it reads in its row of the preset
//! table (`PipelinePlan::preset_keys`). Here every preset is built with each
//! tuning key set alone: the key must change the plan exactly when the row
//! declares it, and a spec naming the key must parse exactly then. A spec
//! longer than `BackendSpec::MAX_SPEC_LEN` is a typed error with a short
//! text at every entry point that parses one.

use tonemap_backend::{BackendRegistry, BackendSpec, TonemapError};
use tonemap_core::plan::{PipelinePlan, PlanTuning};
use tonemap_core::ToneMapParams;
use tonemap_video::{VideoError, VideoSession};

/// Every tuning key with a value that differs from each preset's default.
const TUNING: [(&str, f32); 8] = [
    ("reinhard_key", 4.0),
    ("reinhard_white", 2.0),
    ("bins", 64.0),
    ("gamma", 0.45),
    ("log_scale", 50.0),
    ("exposure", 4.0),
    ("peak", 600.0),
    ("bias", 0.5),
];

/// The tuning with only `key` set to `value`, spelled out field by field
/// so the check does not go through the spec's own key table.
fn tuning(key: &str, value: f32) -> PlanTuning {
    let mut tuning = PlanTuning::default();
    match key {
        "reinhard_key" => tuning.reinhard_key = Some(value),
        "reinhard_white" => tuning.reinhard_white = Some(value),
        "bins" => tuning.bins = Some(value as usize),
        "gamma" => tuning.gamma = Some(value),
        "log_scale" => tuning.log_scale = Some(value),
        "exposure" => tuning.exposure = Some(value),
        "peak" => tuning.peak_nits = Some(value),
        "bias" => tuning.drago_bias = Some(value),
        _ => unreachable!("`{key}` is not a tuning key"),
    }
    tuning
}

#[test]
fn every_preset_reads_exactly_its_declared_keys() {
    let params = ToneMapParams::paper_default();
    for preset in PipelinePlan::PRESETS {
        let declared = PipelinePlan::preset_keys(preset).expect("a catalogued preset");
        let untuned = PipelinePlan::preset(preset, &params, &PlanTuning::default())
            .unwrap()
            .unwrap();
        for (key, value) in TUNING {
            let tuned = PipelinePlan::preset(preset, &params, &tuning(key, value))
                .unwrap()
                .unwrap();
            let reads = declared.contains(&key);
            assert_eq!(tuned != untuned, reads, "`{preset}` with `{key}={value}`");
            let spec = format!("sw-f32?pipeline={preset}&{key}={value}");
            match BackendSpec::parse(&spec) {
                Ok(parsed) => {
                    assert!(
                        reads,
                        "`{spec}` parses, but `{preset}` does not declare `{key}`"
                    );
                    assert_eq!(
                        parsed.resolved_plan(&params).unwrap(),
                        Some(tuned),
                        "{spec}"
                    );
                }
                Err(error) => assert!(!reads, "`{spec}` must parse: {error}"),
            }
        }
    }
    assert_eq!(PipelinePlan::preset_keys("vaporwave"), None);
}

/// A spec of `sw-f32?sigma=` followed by `value` (one mebibyte and more).
fn mebibyte_spec(value: &str) -> String {
    format!("sw-f32?sigma={}{value}", "0".repeat(1 << 20))
}

#[test]
fn over_long_specs_are_typed_errors_with_short_texts() {
    let registry = BackendRegistry::standard();
    // A valid sigma padded with zeros, an unparsable value, and a cut that
    // would fall inside a two-byte character.
    for spec in [
        mebibyte_spec("1.5"),
        mebibyte_spec("x"),
        format!("sw-f32?sigma={}", "é".repeat(1 << 19)),
    ] {
        let error = registry.resolve_spec(&spec).map(drop).unwrap_err();
        assert!(matches!(error, TonemapError::InvalidSpec { .. }), "{error}");
        assert!(
            error.to_string().len() < 2048,
            "{} bytes",
            error.to_string().len()
        );
        let error = VideoSession::from_spec(&spec).map(drop).unwrap_err();
        assert!(
            matches!(error, VideoError::Spec(TonemapError::InvalidSpec { .. })),
            "{error}"
        );
        assert!(
            error.to_string().len() < 2048,
            "{} bytes",
            error.to_string().len()
        );
    }
    // The bound is inclusive: a spec of exactly the limit still parses.
    let limit = BackendSpec::MAX_SPEC_LEN;
    let padded = format!(
        "sw-f32?sigma={}1.5",
        "0".repeat(limit - "sw-f32?sigma=1.5".len())
    );
    assert_eq!(padded.len(), limit);
    assert_eq!(
        BackendSpec::parse(&padded).unwrap().to_string(),
        "sw-f32?sigma=1.5"
    );
    assert!(BackendSpec::parse(&format!("{padded}0")).is_err());
}
