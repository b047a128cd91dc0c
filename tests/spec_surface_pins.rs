//! The spec surface, pinned as literal text.
//!
//! For about seventy spec strings: the exact canonical `Display` of the
//! parsed `BackendSpec`, or the exact `Display` of the `TonemapError` that
//! rejects it. They cover every parameter key and every tuning key written
//! out of canonical order, every error branch of `BackendSpec::parse` with
//! the full known-keys and preset lists, one misdirected tuning key per
//! preset, and the errors `merged_params` and `resolved_plan` report for
//! values that parse but fail validation. The texts were recorded before the
//! keys and presets were each declared in one table, so moving a declaration
//! cannot change what a client sees.

use tonemap_backend::BackendSpec;
use tonemap_core::ToneMapParams;

/// The canonical text of `spec`, or the text of the error rejecting it.
fn parsed(spec: &str) -> String {
    match BackendSpec::parse(spec) {
        Ok(spec) => spec.to_string(),
        Err(e) => e.to_string(),
    }
}

/// `(spec, parsed(spec))`.
const PARSE_PINS: [(&str, &str); 71] = [
    // Every parameter key, out of canonical order, and the value spellings
    // `Display` normalises.
    ("sw-f32?channels=3&contrast=1.3&brightness=0.05&invert_mask=false&strength=2.5&radius=12&sigma=3.5", "sw-f32?sigma=3.5&radius=12&strength=2.5&invert_mask=false&brightness=0.05&contrast=1.3&channels=3"),
    ("hw-fix16?radius=010&sigma=3.50", "hw-fix16?sigma=3.5&radius=10"),
    ("sw-f32?sigma=1e1&brightness=-0&contrast=NaN", "sw-f32?sigma=10&brightness=-0&contrast=NaN"),
    ("sw-f32?invert_mask=true&channels=1", "sw-f32?invert_mask=true&channels=1"),
    // Every tuning key behind each preset that reads it, out of canonical order,
    // and the presets that read none.
    ("sw-f32?reinhard_white=2&reinhard_key=4&pipeline=reinhard", "sw-f32?pipeline=reinhard&reinhard_key=4&reinhard_white=2"),
    ("sw-f32-stream?reinhard_white=8&pipeline=hsv-reinhard&reinhard_key=4", "sw-f32-stream?pipeline=hsv-reinhard&reinhard_key=4&reinhard_white=8"),
    ("sw-f32?bins=64&pipeline=histeq", "sw-f32?pipeline=histeq&bins=64"),
    ("sw-f32?gamma=0.45&pipeline=gamma", "sw-f32?pipeline=gamma&gamma=0.45"),
    ("sw-f32?log_scale=50&pipeline=log", "sw-f32?pipeline=log&log_scale=50"),
    ("hw-fix16?exposure=4&pipeline=filmic", "hw-fix16?pipeline=filmic&exposure=4"),
    ("sw-f32?exposure=2.5&pipeline=aces", "sw-f32?pipeline=aces&exposure=2.5"),
    ("sw-f32?bias=0.5&pipeline=drago", "sw-f32?pipeline=drago&bias=0.5"),
    ("sw-f32?peak=600&pipeline=pq-out", "sw-f32?pipeline=pq-out&peak=600"),
    ("sw-f32?pipeline=paper", "sw-f32?pipeline=paper"),
    ("sw-f32?pipeline=basedetail", "sw-f32?pipeline=basedetail"),
    ("sw-f32?pipeline=hlg-out", "sw-f32?pipeline=hlg-out"),
    // Every kind of key at once, and the padded name.
    ("hw-fix16?cutthresh=1.5&tau=0.5&temporal=leaky&threads=4&schedule=stream&peak=600&pipeline=pq-out&channels=1&contrast=1.2&brightness=-0.01&invert_mask=true&strength=2&radius=9&sigma=2.25", "hw-fix16?sigma=2.25&radius=9&strength=2&invert_mask=true&brightness=-0.01&contrast=1.2&channels=1&pipeline=pq-out&peak=600&schedule=stream&threads=4&temporal=leaky&tau=0.5&cutthresh=1.5"),
    ("sw-f32?schedule=auto&pipeline=basedetail", "sw-f32?pipeline=basedetail&schedule=auto"),
    ("sw-f32?temporal=independent&schedule=two-pass", "sw-f32?schedule=two-pass&temporal=independent"),
    (" sw-f32 ?sigma=2", "sw-f32?sigma=2"),
    // Shape errors, and the full known-keys list.
    ("", "invalid backend spec ``: missing backend name"),
    ("?sigma=1", "invalid backend spec `?sigma=1`: missing backend name"),
    ("   ", "invalid backend spec `   `: missing backend name"),
    ("sw f32", "invalid backend spec `sw f32`: backend name `sw f32` contains whitespace"),
    ("sw-f32?", "invalid backend spec `sw-f32?`: empty `key=value` segment (stray `&` or trailing `?`)"),
    ("sw-f32?sigma=1&", "invalid backend spec `sw-f32?sigma=1&`: empty `key=value` segment (stray `&` or trailing `?`)"),
    ("sw-f32?sigma=1&&radius=2", "invalid backend spec `sw-f32?sigma=1&&radius=2`: empty `key=value` segment (stray `&` or trailing `?`)"),
    ("sw-f32?sigma", "invalid backend spec `sw-f32?sigma`: override `sigma` is not `key=value`"),
    ("sw-f32?sigma=1&sigma=2", "invalid backend spec `sw-f32?sigma=1&sigma=2`: duplicate key `sigma`; each key may appear at most once"),
    ("sw-f32?pipeline=paper&pipeline=reinhard", "invalid backend spec `sw-f32?pipeline=paper&pipeline=reinhard`: duplicate key `pipeline`; each key may appear at most once"),
    ("sw-f32?warp=9", "invalid backend spec `sw-f32?warp=9`: unknown key `warp`; known keys: sigma, radius, strength, invert_mask, brightness, contrast, channels, pipeline, reinhard_key, reinhard_white, bins, gamma, log_scale, exposure, peak, bias, schedule, threads, temporal, tau, cutthresh"),
    ("sw-f32?Sigma=2", "invalid backend spec `sw-f32?Sigma=2`: unknown key `Sigma`; known keys: sigma, radius, strength, invert_mask, brightness, contrast, channels, pipeline, reinhard_key, reinhard_white, bins, gamma, log_scale, exposure, peak, bias, schedule, threads, temporal, tau, cutthresh"),
    // Unparsable values.
    ("sw-f32?sigma=abc", "invalid backend spec `sw-f32?sigma=abc`: cannot parse `abc` as a value for `sigma`"),
    ("sw-f32?sigma=", "invalid backend spec `sw-f32?sigma=`: cannot parse `` as a value for `sigma`"),
    ("sw-f32?radius=-2", "invalid backend spec `sw-f32?radius=-2`: cannot parse `-2` as a value for `radius`"),
    ("sw-f32?channels=1.5", "invalid backend spec `sw-f32?channels=1.5`: cannot parse `1.5` as a value for `channels`"),
    ("sw-f32?invert_mask=yes", "invalid backend spec `sw-f32?invert_mask=yes`: cannot parse `yes` as a value for `invert_mask`"),
    ("sw-f32?pipeline=histeq&bins=nope", "invalid backend spec `sw-f32?pipeline=histeq&bins=nope`: cannot parse `nope` as a value for `bins`"),
    ("sw-f32?pipeline=pq-out&peak=bright", "invalid backend spec `sw-f32?pipeline=pq-out&peak=bright`: cannot parse `bright` as a value for `peak`"),
    // Plan selection: the full preset list, tuning without a preset, and one
    // misdirected key per preset in both message forms.
    ("sw-f32?pipeline=vaporwave", "invalid backend spec `sw-f32?pipeline=vaporwave`: unknown pipeline preset `vaporwave`; known presets: paper, basedetail, reinhard, histeq, gamma, log, hsv-reinhard, filmic, aces, drago, pq-out, hlg-out"),
    ("sw-f32?bins=64", "invalid backend spec `sw-f32?bins=64`: plan-tuning key `bins` requires a `pipeline=` preset selection"),
    ("sw-f32?peak=600&bins=64", "invalid backend spec `sw-f32?peak=600&bins=64`: plan-tuning key `bins` requires a `pipeline=` preset selection"),
    ("sw-f32?pipeline=paper&bins=64", "invalid backend spec `sw-f32?pipeline=paper&bins=64`: tuning key `bins` is not used by pipeline preset `paper` (it takes no tuning keys)"),
    ("sw-f32?pipeline=basedetail&gamma=0.45", "invalid backend spec `sw-f32?pipeline=basedetail&gamma=0.45`: tuning key `gamma` is not used by pipeline preset `basedetail` (it takes no tuning keys)"),
    ("sw-f32?pipeline=hlg-out&peak=600", "invalid backend spec `sw-f32?pipeline=hlg-out&peak=600`: tuning key `peak` is not used by pipeline preset `hlg-out` (it takes no tuning keys)"),
    ("sw-f32?pipeline=reinhard&log_scale=9", "invalid backend spec `sw-f32?pipeline=reinhard&log_scale=9`: tuning key `log_scale` is not used by pipeline preset `reinhard`; its keys: reinhard_key, reinhard_white"),
    ("sw-f32?pipeline=hsv-reinhard&bins=64", "invalid backend spec `sw-f32?pipeline=hsv-reinhard&bins=64`: tuning key `bins` is not used by pipeline preset `hsv-reinhard`; its keys: reinhard_key, reinhard_white"),
    ("sw-f32?pipeline=histeq&gamma=0.45", "invalid backend spec `sw-f32?pipeline=histeq&gamma=0.45`: tuning key `gamma` is not used by pipeline preset `histeq`; its keys: bins"),
    ("sw-f32?pipeline=gamma&bins=64", "invalid backend spec `sw-f32?pipeline=gamma&bins=64`: tuning key `bins` is not used by pipeline preset `gamma`; its keys: gamma"),
    ("sw-f32?pipeline=log&peak=600&gamma=0.45", "invalid backend spec `sw-f32?pipeline=log&peak=600&gamma=0.45`: tuning key `gamma` is not used by pipeline preset `log`; its keys: log_scale"),
    ("sw-f32?pipeline=filmic&bias=0.5", "invalid backend spec `sw-f32?pipeline=filmic&bias=0.5`: tuning key `bias` is not used by pipeline preset `filmic`; its keys: exposure"),
    ("sw-f32?pipeline=aces&peak=600", "invalid backend spec `sw-f32?pipeline=aces&peak=600`: tuning key `peak` is not used by pipeline preset `aces`; its keys: exposure"),
    ("sw-f32?pipeline=drago&exposure=4", "invalid backend spec `sw-f32?pipeline=drago&exposure=4`: tuning key `exposure` is not used by pipeline preset `drago`; its keys: bias"),
    ("sw-f32?pipeline=pq-out&reinhard_key=4", "invalid backend spec `sw-f32?pipeline=pq-out&reinhard_key=4`: tuning key `reinhard_key` is not used by pipeline preset `pq-out`; its keys: peak"),
    // Schedule keys.
    ("sw-f32?schedule=fastest", "invalid backend spec `sw-f32?schedule=fastest`: unknown schedule `fastest`; accepted values: auto, two-pass, stream"),
    ("sw-f32?schedule=stream&threads=0", "invalid backend spec `sw-f32?schedule=stream&threads=0`: `threads=0` is meaningless; the streaming executor needs at least one worker"),
    ("sw-f32?schedule=stream&threads=9", "invalid backend spec `sw-f32?schedule=stream&threads=9`: `threads=9` exceeds the streaming executor's cap of 8 workers"),
    ("sw-f32?threads=nope&schedule=stream", "invalid backend spec `sw-f32?threads=nope&schedule=stream`: cannot parse `nope` as a value for `threads`"),
    ("sw-f32?threads=4", "invalid backend spec `sw-f32?threads=4`: `threads=` requires `schedule=stream` (it pins the streaming executor's worker count)"),
    ("sw-f32?schedule=auto&threads=4", "invalid backend spec `sw-f32?schedule=auto&threads=4`: `threads=` pins a streaming worker count, which `schedule=auto` never uses (auto picks its own worker count); use `schedule=stream`"),
    ("sw-f32?schedule=two-pass&threads=2", "invalid backend spec `sw-f32?schedule=two-pass&threads=2`: `threads=` pins a streaming worker count, which `schedule=two-pass` never uses (the two-pass executor is single-threaded); use `schedule=stream`"),
    // Temporal keys.
    ("sw-f32?temporal=smooth", "invalid backend spec `sw-f32?temporal=smooth`: unknown temporal mode `smooth`; accepted values: independent, leaky"),
    ("sw-f32?temporal=leaky&tau=abc", "invalid backend spec `sw-f32?temporal=leaky&tau=abc`: cannot parse `abc` as a value for `tau`"),
    ("sw-f32?temporal=leaky&tau=-1", "invalid backend spec `sw-f32?temporal=leaky&tau=-1`: `tau=-1` is not a valid time-constant; the leaky integrator needs a finite value >= 0 (in frames)"),
    ("sw-f32?temporal=leaky&tau=inf", "invalid backend spec `sw-f32?temporal=leaky&tau=inf`: `tau=inf` is not a valid time-constant; the leaky integrator needs a finite value >= 0 (in frames)"),
    ("sw-f32?temporal=leaky&cutthresh=0", "invalid backend spec `sw-f32?temporal=leaky&cutthresh=0`: `cutthresh=0` is not a valid scene-cut threshold; the detector needs a finite value > 0"),
    ("sw-f32?temporal=leaky&cutthresh=x", "invalid backend spec `sw-f32?temporal=leaky&cutthresh=x`: cannot parse `x` as a value for `cutthresh`"),
    ("sw-f32?tau=0.5", "invalid backend spec `sw-f32?tau=0.5`: `tau=` requires `temporal=leaky` (it tunes the leaky adaptation integrator)"),
    ("sw-f32?cutthresh=1", "invalid backend spec `sw-f32?cutthresh=1`: `cutthresh=` requires `temporal=leaky` (it tunes the leaky adaptation integrator)"),
    ("sw-f32?temporal=independent&tau=0.5", "invalid backend spec `sw-f32?temporal=independent&tau=0.5`: `tau=` configures the leaky integrator, which `temporal=independent` never runs; use `temporal=leaky`"),
    ("sw-f32?temporal=independent&cutthresh=1", "invalid backend spec `sw-f32?temporal=independent&cutthresh=1`: `cutthresh=` configures the leaky integrator, which `temporal=independent` never runs; use `temporal=leaky`"),
];

#[test]
fn every_spec_keeps_its_canonical_or_error_text() {
    for (spec, text) in PARSE_PINS {
        assert_eq!(parsed(spec), text, "{spec:?}");
    }
}

/// `(spec, text)`: the spec parses, and merging its overrides onto the paper
/// defaults fails with `text`.
const MERGE_PINS: [(&str, &str); 2] = [
    (
        "sw-f32?radius=256",
        "invalid tone-mapping parameters: blur radius must be at most 255, got 256",
    ),
    (
        "sw-f32?channels=5",
        "invalid tone-mapping parameters: channel count must be at most 4, got 5",
    ),
];

/// `(spec, text)`: the spec parses, and resolving its plan on the paper
/// defaults fails with `text`.
const PLAN_PINS: [(&str, &str); 3] = [
    (
        "sw-f32?pipeline=histeq&bins=1",
        "invalid pipeline plan: histogram bin count must be in 2..=65536, got 1",
    ),
    (
        "sw-f32?pipeline=pq-out&peak=20000",
        "invalid pipeline plan: PQ mastering peak must be in (0, 10000] cd/m², got 20000",
    ),
    (
        "sw-f32?pipeline=gamma&gamma=0",
        "invalid pipeline plan: gamma exponent must be positive and finite, got 0",
    ),
];

#[test]
fn values_that_parse_but_fail_validation_keep_their_error_text() {
    let base = ToneMapParams::paper_default();
    for (spec, text) in MERGE_PINS {
        let parsed = BackendSpec::parse(spec).expect("the pinned spec parses");
        let error = parsed
            .merged_params(base)
            .expect_err("the merged parameters fail");
        assert_eq!(error.to_string(), text, "{spec:?}");
    }
    for (spec, text) in PLAN_PINS {
        let parsed = BackendSpec::parse(spec).expect("the pinned spec parses");
        let error = parsed.resolved_plan(&base).expect_err("the plan fails");
        assert_eq!(error.to_string(), text, "{spec:?}");
    }
}
