//! Property tests for the spec-string grammar: `parse → Display → parse`
//! is the identity over generated specs — including the `pipeline=` plan
//! dimension — and malformed inputs always fail with a typed
//! `InvalidSpec`, never a panic or a silently-wrong accept. Well-formed
//! specs whose `radius=`/`channels=` exceed the parameter bounds fail with
//! a typed `InvalidParams` when their overrides are merged.

use proptest::prelude::*;
use tonemap_backend::{BackendSpec, TonemapError};
use tonemap_core::{BlurParams, ParamError, PipelinePlan, ToneMapParams};

/// A valid engine name: no whitespace, no `?`/`&`/`=`.
fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("sw-f32".to_string()),
        Just("hw-fix16".to_string()),
        Just("sw-f32-stream".to_string()),
        Just("x".to_string()),
        (0u32..26, 0u32..26, 1usize..4).prop_map(|(a, b, n)| {
            let a = (b'a' + a as u8) as char;
            let b = (b'a' + b as u8) as char;
            format!("eng-{a}{b}{n}")
        }),
    ]
}

/// One optional `key=value` pair with a value that round-trips through
/// `Display` (Rust float formatting is shortest-round-trip, so re-parsing
/// reproduces the bits).
fn maybe<S: Strategy + 'static>(
    key: &'static str,
    value: S,
) -> BoxedStrategy<Option<(&'static str, String)>>
where
    S::Value: ToString,
{
    prop_oneof![
        Just(None),
        value.prop_map(move |v| Some((key, v.to_string()))),
    ]
    .boxed()
}

/// The parameter-override pairs (KNOWN_KEYS values in valid ranges).
fn param_pairs() -> impl Strategy<Value = Vec<(&'static str, String)>> {
    (
        maybe("sigma", 0.1f32..9.0),
        maybe("radius", 1usize..30),
        maybe("strength", 0.0f32..5.0),
        prop_oneof![
            Just(None),
            any::<bool>().prop_map(|b| Some(("invert_mask", b.to_string()))),
        ],
        maybe("brightness", -0.4f32..0.4),
        maybe("contrast", 0.1f32..3.0),
        maybe("channels", 1usize..4),
    )
        .prop_map(|(a, b, c, d, e, f, g)| [a, b, c, d, e, f, g].into_iter().flatten().collect())
}

/// The plan-selection pairs: tuning keys only ever appear together with
/// the `pipeline=` preset that reads them (the grammar rejects orphaned
/// and unused tuning keys alike).
fn plan_pairs() -> impl Strategy<Value = Vec<(&'static str, String)>> {
    fn with_preset(
        preset: &'static str,
        tail: Vec<Option<(&'static str, String)>>,
    ) -> Vec<(&'static str, String)> {
        let mut pairs = vec![("pipeline", preset.to_string())];
        pairs.extend(tail.into_iter().flatten());
        pairs
    }
    prop_oneof![
        Just(Vec::new()),
        Just(vec![("pipeline", "paper".to_string())]),
        (
            maybe("reinhard_key", 0.5f32..16.0),
            maybe("reinhard_white", 0.5f32..16.0),
        )
            .prop_map(move |(a, b)| with_preset("reinhard", vec![a, b])),
        maybe("bins", 2usize..1024).prop_map(move |a| with_preset("histeq", vec![a])),
        maybe("gamma", 0.1f32..4.0).prop_map(move |a| with_preset("gamma", vec![a])),
        maybe("log_scale", 1.0f32..500.0).prop_map(move |a| with_preset("log", vec![a])),
        // The colour-managed catalogue and its tuning keys.
        (
            maybe("reinhard_key", 0.5f32..16.0),
            maybe("reinhard_white", 0.5f32..16.0),
        )
            .prop_map(move |(a, b)| with_preset("hsv-reinhard", vec![a, b])),
        maybe("exposure", 0.5f32..32.0).prop_map(move |a| with_preset("filmic", vec![a])),
        maybe("exposure", 0.5f32..32.0).prop_map(move |a| with_preset("aces", vec![a])),
        maybe("bias", 0.05f32..1.0).prop_map(move |a| with_preset("drago", vec![a])),
        maybe("peak", 100.0f32..10_000.0).prop_map(move |a| with_preset("pq-out", vec![a])),
        Just(vec![("pipeline", "hlg-out".to_string())]),
    ]
}

/// The schedule-selection pairs: `threads=` only ever appears together
/// with the `schedule=stream` request that licenses it (the grammar
/// rejects a pinned worker count on any other mode), and within the
/// streaming executor's cap of `HostModel::MAX_WORKERS` (8) workers.
fn schedule_pairs() -> impl Strategy<Value = Vec<(&'static str, String)>> {
    prop_oneof![
        Just(Vec::new()),
        Just(vec![("schedule", "auto".to_string())]),
        Just(vec![("schedule", "two-pass".to_string())]),
        maybe("threads", 1usize..9).prop_map(|threads| {
            let mut pairs = vec![("schedule", "stream".to_string())];
            pairs.extend(threads);
            pairs
        }),
    ]
}

/// The temporal-selection pairs: `tau=`/`cutthresh=` only ever appear
/// together with the `temporal=leaky` request that licenses them (the
/// grammar rejects integrator tuning on an independent or absent mode).
fn temporal_pairs() -> impl Strategy<Value = Vec<(&'static str, String)>> {
    prop_oneof![
        Just(Vec::new()),
        Just(vec![("temporal", "independent".to_string())]),
        (maybe("tau", 0.0f32..16.0), maybe("cutthresh", 0.05f32..8.0)).prop_map(
            |(tau, cutthresh)| {
                let mut pairs = vec![("temporal", "leaky".to_string())];
                pairs.extend(tau);
                pairs.extend(cutthresh);
                pairs
            }
        ),
    ]
}

/// Renders a spec string with the pairs rotated out of canonical order, so
/// the round-trip property covers arbitrary key orderings.
fn render(name: &str, mut pairs: Vec<(&'static str, String)>, rotation: usize) -> String {
    if !pairs.is_empty() {
        let r = rotation % pairs.len();
        pairs.rotate_left(r);
    }
    let mut spec = name.to_string();
    for (i, (k, v)) in pairs.iter().enumerate() {
        spec.push(if i == 0 { '?' } else { '&' });
        spec.push_str(k);
        spec.push('=');
        spec.push_str(v);
    }
    spec
}

proptest! {
    #[test]
    fn parse_display_parse_is_identity(
        name in name_strategy(),
        params in param_pairs(),
        plan in plan_pairs(),
        schedule in schedule_pairs(),
        temporal in temporal_pairs(),
        rotation in 0usize..16,
        padding in 0usize..3,
    ) {
        let mut pairs = params;
        pairs.extend(plan);
        pairs.extend(schedule);
        pairs.extend(temporal);
        let raw = render(&name, pairs, rotation);
        // Leading/trailing name whitespace must be absorbed, not leaked.
        let raw = format!("{}{raw}", " ".repeat(padding));
        let parsed = BackendSpec::parse(&raw).expect("generated specs are valid");
        prop_assert_eq!(parsed.name(), name.trim());

        let canonical = parsed.to_string();
        let reparsed = BackendSpec::parse(&canonical).expect("canonical form re-parses");
        prop_assert_eq!(&reparsed, &parsed);
        // The canonical form is a fixed point of Display.
        prop_assert_eq!(reparsed.to_string(), canonical);

        // Resolution surfaces stay panic-free over the generated space:
        // merged parameters and plans either validate or fail typed.
        match parsed.merged_params(ToneMapParams::paper_default()) {
            Ok(Some(merged)) => {
                prop_assert!(merged.validate().is_ok());
                if let Ok(Some(plan)) = parsed.resolved_plan(&merged) {
                    prop_assert!(PipelinePlan::with_input(plan.input_layout(), plan.ops().to_vec()).is_ok());
                }
            }
            Ok(None) => {
                if let Ok(Some(plan)) = parsed.resolved_plan(&ToneMapParams::paper_default()) {
                    prop_assert!(PipelinePlan::with_input(plan.input_layout(), plan.ops().to_vec()).is_ok());
                }
            }
            Err(TonemapError::InvalidParams(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    #[test]
    fn duplicate_keys_always_fail_typed(
        name in name_strategy(),
        params in param_pairs(),
        plan in plan_pairs(),
        schedule in schedule_pairs(),
        temporal in temporal_pairs(),
        dup_index in 0usize..32,
    ) {
        let mut pairs = params;
        pairs.extend(plan);
        pairs.extend(schedule);
        pairs.extend(temporal);
        if !pairs.is_empty() {
            let dup = pairs[dup_index % pairs.len()].clone();
            pairs.push(dup);
            let raw = render(&name, pairs, 0);
            match BackendSpec::parse(&raw) {
                Err(TonemapError::InvalidSpec { reason, .. }) => {
                    prop_assert!(reason.contains("duplicate key"), "{}", reason);
                }
                other => prop_assert!(false, "`{}` must fail on duplicates, got {:?}", raw, other),
            }
        }
    }

    #[test]
    fn malformed_specs_always_fail_typed(
        name in name_strategy(),
        junk in prop_oneof![
            Just("??".to_string()),
            Just("&&".to_string()),
            Just("key=".to_string()),
            Just("sigma".to_string()),
            Just("sigma=abc".to_string()),
            Just("=3".to_string()),
            Just("warp=9".to_string()),
            Just("pipeline=vaporwave".to_string()),
            Just("bins=64".to_string()),
            Just("sigma=2&sigma=3".to_string()),
            Just("schedule=fastest".to_string()),
            Just("schedule=AUTO".to_string()),
            Just("schedule=".to_string()),
            Just("threads=0".to_string()),
            Just("threads=two".to_string()),
            Just("threads=4".to_string()),
            Just("schedule=auto&threads=4".to_string()),
            Just("schedule=two-pass&threads=2".to_string()),
            Just("schedule=stream&threads=0".to_string()),
            Just("schedule=stream&threads=9".to_string()),
            // Colour tuning keys orphaned, misdirected, or malformed.
            Just("exposure=4".to_string()),
            Just("peak=600".to_string()),
            Just("bias=0.5".to_string()),
            Just("pipeline=filmic&bias=0.5".to_string()),
            Just("pipeline=drago&exposure=4".to_string()),
            Just("pipeline=pq-out&exposure=4".to_string()),
            Just("pipeline=hlg-out&peak=600".to_string()),
            Just("pipeline=aces&peak=600".to_string()),
            Just("pipeline=hsv-reinhard&gamma=0.5".to_string()),
            Just("pipeline=pq-out&peak=bright".to_string()),
            Just("pipeline=filmic&exposure=".to_string()),
            Just("pipeline=drago&bias=yes".to_string()),
            // Temporal keys: unknown modes, orphaned or misdirected
            // integrator tuning, and malformed values.
            Just("temporal=smooth".to_string()),
            Just("temporal=Leaky".to_string()),
            Just("temporal=".to_string()),
            Just("tau=0.5".to_string()),
            Just("cutthresh=1".to_string()),
            Just("temporal=independent&tau=0.5".to_string()),
            Just("temporal=independent&cutthresh=1".to_string()),
            Just("temporal=leaky&tau=abc".to_string()),
            Just("temporal=leaky&tau=-1".to_string()),
            Just("temporal=leaky&tau=inf".to_string()),
            Just("temporal=leaky&cutthresh=0".to_string()),
            Just("temporal=leaky&cutthresh=-2".to_string()),
            Just("temporal=leaky&cutthresh=nan".to_string()),
            Just("temporal=leaky&temporal=leaky".to_string()),
        ],
    ) {
        let raw = format!("{name}?{junk}");
        match BackendSpec::parse(&raw) {
            Err(TonemapError::InvalidSpec { spec, reason }) => {
                prop_assert_eq!(spec, raw);
                prop_assert!(!reason.is_empty());
            }
            other => prop_assert!(false, "`{}` must fail, got {:?}", raw, other),
        }
    }
}

proptest! {
    #[test]
    fn out_of_bound_radius_and_channels_fail_typed(
        name in name_strategy(),
        (junk, expected) in prop_oneof![
            Just((
                "radius=18446744073709551615".to_string(),
                ParamError::BlurRadiusTooLarge(usize::MAX),
            )),
            Just((
                "radius=9223372036854775807".to_string(),
                ParamError::BlurRadiusTooLarge(9_223_372_036_854_775_807),
            )),
            Just((
                "radius=4611686018427387904".to_string(),
                ParamError::BlurRadiusTooLarge(4_611_686_018_427_387_904),
            )),
            Just(("radius=200000".to_string(), ParamError::BlurRadiusTooLarge(200_000))),
            Just((
                format!("radius={}", BlurParams::MAX_RADIUS + 1),
                ParamError::BlurRadiusTooLarge(BlurParams::MAX_RADIUS + 1),
            )),
            Just((
                "channels=1000000000000".to_string(),
                ParamError::TooManyChannels(1_000_000_000_000),
            )),
            Just((
                "channels=18446744073709551615".to_string(),
                ParamError::TooManyChannels(usize::MAX),
            )),
            Just(("channels=5".to_string(), ParamError::TooManyChannels(5))),
        ],
    ) {
        let raw = format!("{name}?{junk}");
        let spec = BackendSpec::parse(&raw).expect("in-range integers parse");
        match spec.merged_params(ToneMapParams::paper_default()) {
            Err(TonemapError::InvalidParams(err)) => prop_assert_eq!(err, expected),
            other => prop_assert!(false, "`{}` must fail validation, got {:?}", raw, other),
        }
    }
}
