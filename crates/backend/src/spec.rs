//! Backend spec strings: `"name"` or `"name?key=value&key=value"`.
//!
//! A spec is how configuration (CLI flags, job queues, config files) names
//! an engine *and* tweaks its tone-mapping parameters without touching
//! code — the registry resolves `"sw-f32?sigma=3.5&radius=10"` into the
//! `sw-f32` engine plus a validated parameter override.
//!
//! Since the pipeline became data ([`tonemap_core::plan`]), a spec also
//! selects *which operator chain* the engine compiles: `pipeline=<preset>`
//! picks a named [`PipelinePlan`] preset (`paper`, `basedetail`,
//! `reinhard`, `histeq`, `gamma`, `log` — plus the colour-managed
//! `hsv-reinhard`, `filmic`, `aces`, `drago`, `pq-out`, `hlg-out`), and the
//! plan-tuning keys (`reinhard_key`, `reinhard_white`, `bins`, `gamma`,
//! `log_scale`, `exposure`, `peak`, `bias`) override that preset's stage
//! parameters — so `"sw-f32-stream?pipeline=reinhard&reinhard_key=4"`
//! serves a global Reinhard operator through the streaming engine, and
//! `"hw-fix16?pipeline=filmic&exposure=4"` a Hable filmic curve, without
//! touching code.
//!
//! Since the schedule became data too ([`tonemap_scheduler`]), a spec can
//! finally say *how* to execute the chain: `schedule=auto` lets the
//! cost-model scheduler pick the executor and worker count,
//! `schedule=two-pass` / `schedule=stream` force one, and
//! `schedule=stream&threads=N` pins the streaming worker count —
//! `"sw-f32?pipeline=basedetail&schedule=auto"` serves the two-stencil
//! chain at whatever strategy the platform model prices cheapest.
//!
//! For *frame sequences* a spec can finally say how statistics evolve over
//! time: `temporal=leaky&tau=0.5&cutthresh=1.0` runs the video session's
//! leaky integrator over the per-frame reduction statistics (time constant
//! `tau` in frames, scene-cut reset above signature distance `cutthresh`),
//! while `temporal=independent` recomputes them per frame. Temporal keys
//! describe cross-frame state, so single-frame registry resolution rejects
//! them with a typed error — they are consumed by the video layer, which
//! strips them (`BackendSpec::without_temporal`) before resolving the
//! engine.

use crate::error::TonemapError;
use std::fmt;
use std::str::FromStr;
use tonemap_core::{PipelinePlan, PlanTuning, ToneMapParams};
use tonemap_scheduler::{HostModel, ScheduleMode};

/// A parsed value of a table-driven key, typed by the field it sets.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    F32(f32),
    Usize(usize),
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::F32(v) => write!(f, "{v}"),
            Value::Usize(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// The field a key sets, borrowed from its structure: a plain field of
/// [`ToneMapParams`] or an optional one of [`PlanTuning`].
enum Field<'a> {
    F32(&'a mut f32),
    Usize(&'a mut usize),
    Bool(&'a mut bool),
    OptionF32(&'a mut Option<f32>),
    OptionUsize(&'a mut Option<usize>),
}

impl Field<'_> {
    /// Parses `text` as a value of this field's type.
    fn parse(&self, text: &str) -> Option<Value> {
        match self {
            Field::F32(_) | Field::OptionF32(_) => text.parse().ok().map(Value::F32),
            Field::Usize(_) | Field::OptionUsize(_) => text.parse().ok().map(Value::Usize),
            Field::Bool(_) => text.parse().ok().map(Value::Bool),
        }
    }

    /// Stores `value`, which [`Field::parse`] produced for this field.
    fn assign(self, value: Value) {
        match (self, value) {
            (Field::F32(slot), Value::F32(v)) => *slot = v,
            (Field::Usize(slot), Value::Usize(v)) => *slot = v,
            (Field::Bool(slot), Value::Bool(v)) => *slot = v,
            (Field::OptionF32(slot), Value::F32(v)) => *slot = Some(v),
            (Field::OptionUsize(slot), Value::Usize(v)) => *slot = Some(v),
            _ => unreachable!("a key's value is parsed by its own field"),
        }
    }
}

/// One table-driven key: its name and the field of `T` it sets.
type Key<T> = (&'static str, fn(&mut T) -> Field<'_>);

/// The parameter keys, in canonical order: each overrides one
/// [`ToneMapParams`] field.
const PARAM_KEYS: [Key<ToneMapParams>; 7] = [
    ("sigma", |p| Field::F32(&mut p.blur.sigma)),
    ("radius", |p| Field::Usize(&mut p.blur.radius)),
    ("strength", |p| Field::F32(&mut p.masking.strength)),
    ("invert_mask", |p| Field::Bool(&mut p.masking.invert_mask)),
    ("brightness", |p| Field::F32(&mut p.adjust.brightness)),
    ("contrast", |p| Field::F32(&mut p.adjust.contrast)),
    ("channels", |p| Field::Usize(&mut p.channels)),
];

/// The plan-tuning keys, in canonical order: each sets one [`PlanTuning`]
/// field. Which preset reads which key is its row in core
/// ([`PipelinePlan::preset_keys`]).
const TUNING_KEYS: [Key<PlanTuning>; 8] = [
    ("reinhard_key", |t| Field::OptionF32(&mut t.reinhard_key)),
    ("reinhard_white", |t| {
        Field::OptionF32(&mut t.reinhard_white)
    }),
    ("bins", |t| Field::OptionUsize(&mut t.bins)),
    ("gamma", |t| Field::OptionF32(&mut t.gamma)),
    ("log_scale", |t| Field::OptionF32(&mut t.log_scale)),
    ("exposure", |t| Field::OptionF32(&mut t.exposure)),
    ("peak", |t| Field::OptionF32(&mut t.peak_nits)),
    ("bias", |t| Field::OptionF32(&mut t.drago_bias)),
];

/// `key`'s row in `table` with `text` parsed as that row's field type
/// (`None` inside when it does not parse); `None` when `table` has no such
/// key. The field is borrowed from a default `T` only to learn its type.
fn parse_key<T: Default>(
    table: &[Key<T>],
    key: &str,
    text: &str,
) -> Option<Option<(usize, Value)>> {
    let row = table.iter().position(|(known, _)| *known == key)?;
    Some(
        (table[row].1)(&mut T::default())
            .parse(text)
            .map(|value| (row, value)),
    )
}

/// Stores each `(row, value)` setting into the field its `table` row names.
fn assign<T>(table: &[Key<T>], settings: &[(usize, Value)], target: &mut T) {
    for &(row, value) in settings {
        (table[row].1)(target).assign(value);
    }
}

/// `(key, value)` text pairs of `settings`, in their (table) order.
fn rendered<T>(table: &[Key<T>], settings: &[(usize, Value)]) -> Vec<(&'static str, String)> {
    settings
        .iter()
        .map(|&(row, value)| (table[row].0, value.to_string()))
        .collect()
}

/// The `temporal=` adaptation mode of a spec that will serve a frame
/// sequence: how the per-frame reduction statistics (normalization
/// maximum, Reinhard log-average, histogram CDF) evolve across frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemporalMode {
    /// Recompute every statistic per frame, exactly as single-frame
    /// execution would — the flickering baseline.
    Independent,
    /// Leaky-integrate the statistics with time constant `tau=` (frames),
    /// resetting on scene cuts above `cutthresh=`.
    Leaky,
}

impl TemporalMode {
    /// Every accepted `temporal=` value, for error messages.
    pub const KEYWORDS: [&'static str; 2] = ["independent", "leaky"];

    /// Parses a `temporal=` value; `None` for anything not in
    /// [`TemporalMode::KEYWORDS`].
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "independent" => Some(TemporalMode::Independent),
            "leaky" => Some(TemporalMode::Leaky),
            _ => None,
        }
    }

    /// The canonical spelling, round-tripping through
    /// [`TemporalMode::parse`].
    pub const fn as_str(&self) -> &'static str {
        match self {
            TemporalMode::Independent => "independent",
            TemporalMode::Leaky => "leaky",
        }
    }
}

impl fmt::Display for TemporalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed backend spec: an engine name plus optional parameter overrides.
///
/// # Example
///
/// ```
/// use tonemap_backend::BackendSpec;
///
/// let spec: BackendSpec = "hw-fix16?sigma=3.5&radius=10".parse()?;
/// assert_eq!(spec.name(), "hw-fix16");
/// assert!(spec.has_overrides());
///
/// let plain: BackendSpec = "sw-f32".parse()?;
/// assert!(!plain.has_overrides());
/// # Ok::<(), tonemap_backend::TonemapError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSpec {
    name: String,
    /// Parameter overrides as `(PARAM_KEYS row, value)`, in table order.
    params: Vec<(usize, Value)>,
    preset: Option<String>,
    /// Plan tuning as `(TUNING_KEYS row, value)`, in table order.
    tuning: Vec<(usize, Value)>,
    schedule: Option<ScheduleMode>,
    threads: Option<usize>,
    temporal: Option<TemporalMode>,
    tau: Option<f32>,
    cutthresh: Option<f32>,
}

impl BackendSpec {
    /// The longest spec string [`BackendSpec::parse`] reads, in bytes. Like
    /// [`tonemap_core::BlurParams::MAX_RADIUS`], nobody can set it: it keeps
    /// one client string from holding megabytes in the registry's per-spec
    /// memo or in an error text.
    pub const MAX_SPEC_LEN: usize = 1024;

    /// Parses a spec string.
    ///
    /// The engine name is trimmed of surrounding whitespace (so a config
    /// file's `" sw-f32"` resolves instead of failing registry lookup as a
    /// confusing `UnknownBackend`); a name with *embedded* whitespace is
    /// rejected here, where the problem is visible.
    ///
    /// # Errors
    ///
    /// Returns [`TonemapError::InvalidSpec`] when the string is longer than
    /// [`BackendSpec::MAX_SPEC_LEN`] bytes, is empty, has
    /// an empty or whitespace-embedding name, an unknown override key, a
    /// duplicate key, an unknown `pipeline=` preset, a tuning key without a
    /// `pipeline=` selection, an unknown `schedule=` value, `threads=0` or
    /// above [`HostModel::MAX_WORKERS`], a `threads=` without
    /// `schedule=stream`, an unknown `temporal=` value,
    /// a negative or non-finite `tau=`, a non-positive `cutthresh=`, a
    /// `tau=`/`cutthresh=` without `temporal=leaky`, or an unparsable value.
    /// Whether a `schedule=` is *servable by the named engine* is checked
    /// at registry resolution, where the engine's capabilities are known
    /// (the all-fixed `sw-fix16` has no schedule space). Whether the *applied*
    /// parameters are valid is checked separately by
    /// [`BackendSpec::merged_params`] / [`BackendSpec::resolved_plan`].
    pub fn parse(spec: &str) -> Result<Self, TonemapError> {
        if spec.len() > BackendSpec::MAX_SPEC_LEN {
            // Quote a prefix cut on a char boundary, not the whole spec.
            let end = (0..=32).rev().find(|&i| spec.is_char_boundary(i));
            return Err(TonemapError::InvalidSpec {
                spec: format!("{}…", &spec[..end.unwrap_or(0)]),
                reason: format!(
                    "the spec is {} bytes long; specs are at most {} bytes",
                    spec.len(),
                    BackendSpec::MAX_SPEC_LEN
                ),
            });
        }
        let invalid = |reason: String| TonemapError::InvalidSpec {
            spec: spec.to_string(),
            reason,
        };
        let (name, query) = match spec.split_once('?') {
            Some((name, query)) => (name, Some(query)),
            None => (spec, None),
        };
        let name = name.trim();
        if name.is_empty() {
            return Err(invalid("missing backend name".to_string()));
        }
        if name.contains(char::is_whitespace) {
            return Err(invalid(format!(
                "backend name `{name}` contains whitespace"
            )));
        }
        let mut params = Vec::new();
        let mut preset: Option<String> = None;
        let mut tuning = Vec::new();
        let mut schedule: Option<ScheduleMode> = None;
        let mut threads: Option<usize> = None;
        let mut temporal: Option<TemporalMode> = None;
        let mut tau: Option<f32> = None;
        let mut cutthresh: Option<f32> = None;
        let mut seen: Vec<&str> = Vec::new();
        if let Some(query) = query {
            for pair in query.split('&') {
                if pair.is_empty() {
                    return Err(invalid(
                        "empty `key=value` segment (stray `&` or trailing `?`)".to_string(),
                    ));
                }
                let (key, value) = pair
                    .split_once('=')
                    .ok_or_else(|| invalid(format!("override `{pair}` is not `key=value`")))?;
                if seen.contains(&key) {
                    return Err(invalid(format!(
                        "duplicate key `{key}`; each key may appear at most once"
                    )));
                }
                let cannot_parse =
                    || invalid(format!("cannot parse `{value}` as a value for `{key}`"));
                if key == "pipeline" {
                    if !PipelinePlan::PRESETS.contains(&value) {
                        return Err(invalid(format!(
                            "unknown pipeline preset `{value}`; known presets: {}",
                            PipelinePlan::PRESETS.join(", ")
                        )));
                    }
                    preset = Some(value.to_string());
                } else if key == "schedule" {
                    schedule = Some(ScheduleMode::parse(value).ok_or_else(|| {
                        invalid(format!(
                            "unknown schedule `{value}`; accepted values: {}",
                            ScheduleMode::KEYWORDS.join(", ")
                        ))
                    })?);
                } else if key == "threads" {
                    let count: usize = value.parse().map_err(|_| cannot_parse())?;
                    if count == 0 {
                        return Err(invalid(
                            "`threads=0` is meaningless; the streaming executor needs at \
                             least one worker"
                                .to_string(),
                        ));
                    }
                    // `threads=` is the most row slices a job may run (each
                    // slice past the first takes a core nobody holds), and
                    // one client string must not be able to ask for thousands.
                    if count > HostModel::MAX_WORKERS {
                        return Err(invalid(format!(
                            "`threads={count}` exceeds the streaming executor's cap of {} \
                             workers",
                            HostModel::MAX_WORKERS
                        )));
                    }
                    threads = Some(count);
                } else if key == "temporal" {
                    temporal = Some(TemporalMode::parse(value).ok_or_else(|| {
                        invalid(format!(
                            "unknown temporal mode `{value}`; accepted values: {}",
                            TemporalMode::KEYWORDS.join(", ")
                        ))
                    })?);
                } else if key == "tau" {
                    let seconds: f32 = value.parse().map_err(|_| cannot_parse())?;
                    if !seconds.is_finite() || seconds < 0.0 {
                        return Err(invalid(format!(
                            "`tau={value}` is not a valid time-constant; the leaky \
                             integrator needs a finite value >= 0 (in frames)"
                        )));
                    }
                    tau = Some(seconds);
                } else if key == "cutthresh" {
                    let threshold: f32 = value.parse().map_err(|_| cannot_parse())?;
                    if !threshold.is_finite() || threshold <= 0.0 {
                        return Err(invalid(format!(
                            "`cutthresh={value}` is not a valid scene-cut threshold; \
                             the detector needs a finite value > 0"
                        )));
                    }
                    cutthresh = Some(threshold);
                } else if let Some(setting) = parse_key(&PARAM_KEYS, key, value) {
                    params.push(setting.ok_or_else(cannot_parse)?);
                } else if let Some(setting) = parse_key(&TUNING_KEYS, key, value) {
                    tuning.push(setting.ok_or_else(cannot_parse)?);
                } else {
                    return Err(invalid(format!(
                        "unknown key `{key}`; known keys: {}",
                        PARAM_KEYS
                            .iter()
                            .map(|(known, _)| *known)
                            .chain(std::iter::once("pipeline"))
                            .chain(TUNING_KEYS.iter().map(|(known, _)| *known))
                            .chain(["schedule", "threads", "temporal", "tau", "cutthresh"])
                            .collect::<Vec<_>>()
                            .join(", ")
                    )));
                }
                seen.push(key);
            }
        }
        params.sort_by_key(|&(row, _)| row);
        tuning.sort_by_key(|&(row, _)| row);
        // A tuning key the preset never reads would be silently ignored —
        // the same misconfiguration class as duplicate keys, so it is
        // rejected the same way.
        let allowed = preset.as_deref().and_then(PipelinePlan::preset_keys);
        let read = |row: usize| allowed.is_some_and(|keys| keys.contains(&TUNING_KEYS[row].0));
        if let Some(&(row, _)) = tuning.iter().find(|&&(row, _)| !read(row)) {
            let key = TUNING_KEYS[row].0;
            return Err(invalid(match (preset, allowed) {
                (Some(preset), Some([])) => format!(
                    "tuning key `{key}` is not used by pipeline preset `{preset}` \
                     (it takes no tuning keys)"
                ),
                (Some(preset), Some(keys)) => format!(
                    "tuning key `{key}` is not used by pipeline preset `{preset}`; \
                     its keys: {}",
                    keys.join(", ")
                ),
                _ => format!("plan-tuning key `{key}` requires a `pipeline=` preset selection"),
            }));
        }
        if threads.is_some() {
            match schedule {
                Some(ScheduleMode::Stream) => {}
                Some(mode) => {
                    return Err(invalid(format!(
                        "`threads=` pins a streaming worker count, which `schedule={mode}` \
                         never uses ({}); use `schedule=stream`",
                        match mode {
                            ScheduleMode::Auto => "auto picks its own worker count",
                            ScheduleMode::TwoPass | ScheduleMode::Stream =>
                                "the two-pass executor is single-threaded",
                        }
                    )));
                }
                None => {
                    return Err(invalid(
                        "`threads=` requires `schedule=stream` (it pins the streaming \
                         executor's worker count)"
                            .to_string(),
                    ));
                }
            }
        }
        for (key, present) in [("tau", tau.is_some()), ("cutthresh", cutthresh.is_some())] {
            if !present {
                continue;
            }
            match temporal {
                Some(TemporalMode::Leaky) => {}
                Some(TemporalMode::Independent) => {
                    return Err(invalid(format!(
                        "`{key}=` configures the leaky integrator, which \
                         `temporal=independent` never runs; use `temporal=leaky`"
                    )));
                }
                None => {
                    return Err(invalid(format!(
                        "`{key}=` requires `temporal=leaky` (it tunes the leaky \
                         adaptation integrator)"
                    )));
                }
            }
        }
        Ok(BackendSpec {
            name: name.to_string(),
            params,
            preset,
            tuning,
            schedule,
            threads,
            temporal,
            tau,
            cutthresh,
        })
    }

    /// The engine name part of the spec.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `true` when the spec carries at least one parameter override.
    pub fn has_overrides(&self) -> bool {
        !self.params.is_empty()
    }

    /// The `pipeline=` preset name, if the spec selects one.
    pub fn pipeline_preset(&self) -> Option<&str> {
        self.preset.as_deref()
    }

    /// `true` when the spec selects a pipeline plan (tuning keys are only
    /// accepted with a `pipeline=` preset).
    pub fn has_plan(&self) -> bool {
        self.preset.is_some()
    }

    /// The `schedule=` request, if the spec carries one.
    pub fn schedule(&self) -> Option<ScheduleMode> {
        self.schedule
    }

    /// The pinned `threads=` worker count (only present with
    /// `schedule=stream`; enforced at parse time).
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The `temporal=` adaptation request, if the spec carries one.
    pub fn temporal(&self) -> Option<TemporalMode> {
        self.temporal
    }

    /// The `tau=` leaky time-constant in frames (only present with
    /// `temporal=leaky`; enforced at parse time).
    pub fn tau(&self) -> Option<f32> {
        self.tau
    }

    /// The `cutthresh=` scene-cut distance threshold (only present with
    /// `temporal=leaky`; enforced at parse time).
    pub fn cut_threshold(&self) -> Option<f32> {
        self.cutthresh
    }

    /// A copy of this spec with the video-session keys (`temporal=`, `tau=`,
    /// `cutthresh=`) removed. The video layer consumes those keys itself and
    /// hands the rest of the spec to single-frame registry resolution, which
    /// rejects temporal keys as unservable.
    pub fn without_temporal(&self) -> BackendSpec {
        BackendSpec {
            temporal: None,
            tau: None,
            cutthresh: None,
            ..self.clone()
        }
    }

    /// Builds the [`PipelinePlan`] this spec selects, seeding the preset's
    /// classic stages (blur/masking/adjust) from `base` — normally the
    /// merged parameters, so `"sw-f32?sigma=2&pipeline=paper"` blurs with
    /// σ = 2.
    ///
    /// Returns `None` when the spec selects no plan (the engine's compiled
    /// chain stands).
    ///
    /// # Errors
    ///
    /// Returns [`TonemapError::InvalidPlan`] when the tuning values fail
    /// plan validation (e.g. `bins=1`).
    pub fn resolved_plan(
        &self,
        base: &ToneMapParams,
    ) -> Result<Option<PipelinePlan>, TonemapError> {
        let Some(preset) = &self.preset else {
            return Ok(None);
        };
        let mut tuning = PlanTuning::default();
        assign(&TUNING_KEYS, &self.tuning, &mut tuning);
        let plan = PipelinePlan::preset(preset, base, &tuning)?
            .expect("preset names are validated at parse time");
        Ok(Some(plan))
    }

    /// Applies the spec's overrides on top of `base` and validates the
    /// result. Returns `None` when the spec has no overrides (the engine's
    /// own parameters stand).
    ///
    /// # Errors
    ///
    /// Returns [`TonemapError::InvalidParams`] when the merged parameters
    /// fail validation.
    pub fn merged_params(
        &self,
        mut base: ToneMapParams,
    ) -> Result<Option<ToneMapParams>, TonemapError> {
        if !self.has_overrides() {
            return Ok(None);
        }
        assign(&PARAM_KEYS, &self.params, &mut base);
        base.validate()?;
        Ok(Some(base))
    }
}

/// Renders the spec in canonical form: the engine name, then any parameter
/// overrides in known-keys order, then the plan selection (`pipeline=`
/// first, tuning keys after), then the schedule request (`schedule=` before
/// `threads=`), then the temporal request (`temporal=`, `tau=`,
/// `cutthresh=`) —
/// `"hw-fix16?sigma=3.5&radius=10&pipeline=reinhard&reinhard_key=4&schedule=auto"`.
/// Useful wherever a resolved job must be logged or keyed by a stable
/// string — e.g. the service layer's telemetry — independent of the order
/// the caller wrote the query part in. Parsing the rendered string yields
/// an equal spec.
impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        let mut pairs = rendered(&PARAM_KEYS, &self.params);
        if let Some(preset) = &self.preset {
            pairs.push(("pipeline", preset.clone()));
        }
        pairs.extend(rendered(&TUNING_KEYS, &self.tuning));
        if let Some(schedule) = self.schedule {
            pairs.push(("schedule", schedule.to_string()));
        }
        if let Some(threads) = self.threads {
            pairs.push(("threads", threads.to_string()));
        }
        if let Some(temporal) = self.temporal {
            pairs.push(("temporal", temporal.to_string()));
        }
        if let Some(tau) = self.tau {
            pairs.push(("tau", tau.to_string()));
        }
        if let Some(cutthresh) = self.cutthresh {
            pairs.push(("cutthresh", cutthresh.to_string()));
        }
        for (index, (key, value)) in pairs.iter().enumerate() {
            let separator = if index == 0 { '?' } else { '&' };
            write!(f, "{separator}{key}={value}")?;
        }
        Ok(())
    }
}

impl FromStr for BackendSpec {
    type Err = TonemapError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BackendSpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_name_has_no_overrides() {
        let spec = BackendSpec::parse("hw-fix16").unwrap();
        assert_eq!(spec.name(), "hw-fix16");
        assert!(!spec.has_overrides());
        assert_eq!(
            spec.merged_params(ToneMapParams::paper_default()).unwrap(),
            None
        );
    }

    #[test]
    fn overrides_merge_onto_the_base() {
        let spec = BackendSpec::parse(
            "sw-f32?sigma=3.5&radius=10&strength=1.5&invert_mask=false&brightness=0.0&contrast=1.0&channels=1",
        )
        .unwrap();
        assert!(spec.has_overrides());
        let merged = spec
            .merged_params(ToneMapParams::paper_default())
            .unwrap()
            .expect("overrides present");
        assert_eq!(merged.blur.sigma, 3.5);
        assert_eq!(merged.blur.radius, 10);
        assert_eq!(merged.masking.strength, 1.5);
        assert!(!merged.masking.invert_mask);
        assert_eq!(merged.adjust.brightness, 0.0);
        assert_eq!(merged.adjust.contrast, 1.0);
        assert_eq!(merged.channels, 1);
    }

    #[test]
    fn partial_overrides_keep_the_rest_of_the_base() {
        let spec = BackendSpec::parse("sw-f32?sigma=2.0").unwrap();
        let merged = spec
            .merged_params(ToneMapParams::paper_default())
            .unwrap()
            .unwrap();
        assert_eq!(merged.blur.sigma, 2.0);
        assert_eq!(
            merged.blur.radius,
            ToneMapParams::paper_default().blur.radius
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_reasons() {
        for (spec, needle) in [
            ("", "missing backend name"),
            ("?sigma=1", "missing backend name"),
            ("sw-f32?sigma", "not `key=value`"),
            ("sw-f32?sigma=abc", "cannot parse"),
            ("sw-f32?warp=9", "unknown key"),
            ("sw-f32?radius=-2", "cannot parse"),
        ] {
            let err = BackendSpec::parse(spec).err().unwrap_or_else(|| {
                panic!("spec `{spec}` should fail to parse");
            });
            match err {
                TonemapError::InvalidSpec { reason, .. } => {
                    assert!(reason.contains(needle), "`{reason}` lacks `{needle}`")
                }
                other => panic!("unexpected error for `{spec}`: {other}"),
            }
        }
    }

    #[test]
    fn merged_params_validate_the_result() {
        let spec = BackendSpec::parse("sw-f32?radius=0").unwrap();
        assert!(matches!(
            spec.merged_params(ToneMapParams::paper_default()),
            Err(TonemapError::InvalidParams(_))
        ));
    }

    #[test]
    fn duplicate_keys_are_rejected_with_a_typed_error() {
        // Regression: last-wins used to silently accept contradictory specs
        // like `sigma=2&sigma=9`, serving whichever the parser saw last.
        for spec in [
            "sw-f32?sigma=2&sigma=9",
            "hw-fix16?radius=3&sigma=1&radius=4",
            "sw-f32?pipeline=paper&pipeline=reinhard",
            "sw-f32?pipeline=histeq&bins=64&bins=128",
        ] {
            match BackendSpec::parse(spec) {
                Err(TonemapError::InvalidSpec { reason, .. }) => {
                    assert!(reason.contains("duplicate key"), "`{reason}` for `{spec}`")
                }
                other => panic!("`{spec}` must fail with InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn names_are_trimmed_and_embedded_whitespace_is_rejected() {
        // Regression: `" sw-f32"` used to pass the empty-name check and then
        // fail registry lookup as a confusing UnknownBackend.
        for spec in [" sw-f32", "sw-f32 ", "  hw-fix16?sigma=2", "\tsw-f32\n"] {
            let parsed = BackendSpec::parse(spec).expect("padded names parse");
            assert_eq!(parsed.name(), parsed.name().trim());
            assert!(!parsed.name().is_empty());
        }
        assert_eq!(BackendSpec::parse(" sw-f32").unwrap().name(), "sw-f32");
        match BackendSpec::parse("sw f32") {
            Err(TonemapError::InvalidSpec { reason, .. }) => {
                assert!(reason.contains("whitespace"), "{reason}")
            }
            other => panic!("embedded whitespace must fail, got {other:?}"),
        }
        assert!(matches!(
            BackendSpec::parse("   "),
            Err(TonemapError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn pipeline_presets_parse_and_resolve_plans() {
        use tonemap_core::plan::{Curve, PipelineOp};
        let spec = BackendSpec::parse("sw-f32?pipeline=reinhard&reinhard_key=4").unwrap();
        assert_eq!(spec.pipeline_preset(), Some("reinhard"));
        assert!(spec.has_plan());
        assert!(!spec.has_overrides());
        let plan = spec
            .resolved_plan(&ToneMapParams::paper_default())
            .unwrap()
            .expect("pipeline selected");
        assert_eq!(
            plan.ops()[1],
            PipelineOp::Curve(Curve::Reinhard {
                key: 4.0,
                white: 4.0
            })
        );

        // Classic overrides seed the preset's stages.
        let spec = BackendSpec::parse("sw-f32?sigma=2&radius=3&pipeline=paper").unwrap();
        let plan = spec
            .resolved_plan(
                &spec
                    .merged_params(ToneMapParams::paper_default())
                    .unwrap()
                    .unwrap(),
            )
            .unwrap()
            .unwrap();
        let (_, blur, _) = plan.stencil_stages().next().unwrap();
        assert_eq!(blur.sigma, 2.0);
        assert_eq!(blur.radius, 3);

        // No pipeline key: no plan.
        let plain = BackendSpec::parse("sw-f32?sigma=2").unwrap();
        assert!(!plain.has_plan());
        assert_eq!(
            plain
                .resolved_plan(&ToneMapParams::paper_default())
                .unwrap(),
            None
        );
    }

    #[test]
    fn colour_preset_tuning_keys_parse_and_resolve() {
        use tonemap_core::plan::{Curve, PipelineOp};
        // Each new tuning key lands in the matching stage of its preset.
        let filmic = BackendSpec::parse("hw-fix16?pipeline=filmic&exposure=4").unwrap();
        let plan = filmic
            .resolved_plan(&ToneMapParams::paper_default())
            .unwrap()
            .expect("pipeline selected");
        assert!(plan.ops().iter().any(
            |op| matches!(op, PipelineOp::Curve(Curve::Hable { exposure }) if *exposure == 4.0)
        ));

        let aces = BackendSpec::parse("sw-f32?pipeline=aces&exposure=2.5").unwrap();
        let plan = aces
            .resolved_plan(&ToneMapParams::paper_default())
            .unwrap()
            .unwrap();
        assert!(plan.ops().iter().any(
            |op| matches!(op, PipelineOp::Curve(Curve::Aces { exposure }) if *exposure == 2.5)
        ));

        let pq = BackendSpec::parse("sw-f32?pipeline=pq-out&peak=600").unwrap();
        let plan = pq
            .resolved_plan(&ToneMapParams::paper_default())
            .unwrap()
            .unwrap();
        assert!(matches!(
            plan.ops().last(),
            Some(PipelineOp::Curve(Curve::PqOetf { peak_nits })) if *peak_nits == 600.0
        ));

        let drago = BackendSpec::parse("sw-f32?pipeline=drago&bias=0.5").unwrap();
        let plan = drago
            .resolved_plan(&ToneMapParams::paper_default())
            .unwrap()
            .unwrap();
        assert!(plan
            .ops()
            .iter()
            .any(|op| matches!(op, PipelineOp::Curve(Curve::Drago { bias }) if *bias == 0.5)));

        // `hsv-reinhard` reuses the classic Reinhard keys but compiles an
        // `Rgb`-input plan.
        let hsv = BackendSpec::parse("sw-f32?pipeline=hsv-reinhard&reinhard_key=4").unwrap();
        let plan = hsv
            .resolved_plan(&ToneMapParams::paper_default())
            .unwrap()
            .unwrap();
        assert_eq!(plan.input_layout(), tonemap_core::ChannelLayout::Rgb);
        assert!(plan
            .ops()
            .iter()
            .any(|op| matches!(op, PipelineOp::Curve(Curve::Reinhard { key, .. }) if *key == 4.0)));
    }

    #[test]
    fn colour_tuning_keys_round_trip_through_display() {
        for spec in [
            "hw-fix16?pipeline=filmic&exposure=4",
            "sw-f32?pipeline=pq-out&peak=600",
            "sw-f32?pipeline=drago&bias=0.5",
            "sw-f32-stream?pipeline=hsv-reinhard&reinhard_key=4&reinhard_white=8",
        ] {
            let parsed = BackendSpec::parse(spec).unwrap();
            assert_eq!(parsed.to_string(), spec, "canonical form");
            let reparsed = BackendSpec::parse(&parsed.to_string()).unwrap();
            assert_eq!(reparsed.to_string(), parsed.to_string());
        }
    }

    #[test]
    fn misdirected_colour_tuning_keys_are_typed_spec_errors() {
        for (spec, needle) in [
            (
                "sw-f32?pipeline=filmic&bias=0.5",
                "not used by pipeline preset `filmic`",
            ),
            (
                "sw-f32?pipeline=drago&exposure=4",
                "not used by pipeline preset `drago`",
            ),
            ("sw-f32?pipeline=hlg-out&peak=600", "takes no tuning keys"),
            ("sw-f32?exposure=4", "requires a `pipeline=`"),
            ("sw-f32?pipeline=pq-out&peak=bright", "cannot parse"),
        ] {
            match BackendSpec::parse(spec) {
                Err(TonemapError::InvalidSpec { reason, .. }) => {
                    assert!(reason.contains(needle), "`{reason}` lacks `{needle}`")
                }
                other => panic!("`{spec}` must fail, got {other:?}"),
            }
        }
        // A peak beyond the ST-2084 ceiling parses as a key but fails plan
        // validation with a typed plan error.
        let spec = BackendSpec::parse("sw-f32?pipeline=pq-out&peak=20000").unwrap();
        assert!(matches!(
            spec.resolved_plan(&ToneMapParams::paper_default()),
            Err(TonemapError::InvalidPlan(_))
        ));
    }

    #[test]
    fn plan_key_errors_are_typed() {
        match BackendSpec::parse("sw-f32?pipeline=vaporwave") {
            Err(TonemapError::InvalidSpec { reason, .. }) => {
                assert!(reason.contains("unknown pipeline preset"), "{reason}");
                assert!(reason.contains("reinhard"), "{reason}");
            }
            other => panic!("unknown preset must fail, got {other:?}"),
        }
        match BackendSpec::parse("sw-f32?bins=64") {
            Err(TonemapError::InvalidSpec { reason, .. }) => {
                assert!(reason.contains("requires a `pipeline=`"), "{reason}")
            }
            other => panic!("tuning without pipeline must fail, got {other:?}"),
        }
        // A tuning key the selected preset never reads would be silently
        // ignored — rejected like a duplicate key instead.
        for (spec, needle) in [
            (
                "sw-f32?pipeline=log&gamma=0.45",
                "not used by pipeline preset `log`",
            ),
            ("sw-f32?pipeline=paper&bins=64", "takes no tuning keys"),
            ("sw-f32?pipeline=reinhard&log_scale=9", "reinhard_key"),
        ] {
            match BackendSpec::parse(spec) {
                Err(TonemapError::InvalidSpec { reason, .. }) => {
                    assert!(reason.contains(needle), "`{reason}` lacks `{needle}`")
                }
                other => panic!("`{spec}` must fail, got {other:?}"),
            }
        }
        assert!(matches!(
            BackendSpec::parse("sw-f32?pipeline=histeq&bins=nope"),
            Err(TonemapError::InvalidSpec { .. })
        ));
        // Tuning that parses but fails plan validation is an InvalidPlan at
        // resolution time.
        let spec = BackendSpec::parse("sw-f32?pipeline=histeq&bins=1").unwrap();
        assert!(matches!(
            spec.resolved_plan(&ToneMapParams::paper_default()),
            Err(TonemapError::InvalidPlan(_))
        ));
    }

    #[test]
    fn canonical_display_includes_plan_keys_and_round_trips() {
        let spec =
            BackendSpec::parse("hw-fix16?reinhard_key=4&pipeline=reinhard&sigma=3.5").unwrap();
        assert_eq!(
            spec.to_string(),
            "hw-fix16?sigma=3.5&pipeline=reinhard&reinhard_key=4"
        );
        let reparsed: BackendSpec = spec.to_string().parse().unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn schedule_keys_parse_with_typed_errors() {
        let auto = BackendSpec::parse("sw-f32?pipeline=basedetail&schedule=auto").unwrap();
        assert_eq!(auto.schedule(), Some(ScheduleMode::Auto));
        assert_eq!(auto.threads(), None);
        let pinned = BackendSpec::parse("sw-f32?schedule=stream&threads=4").unwrap();
        assert_eq!(pinned.schedule(), Some(ScheduleMode::Stream));
        assert_eq!(pinned.threads(), Some(4));
        let widest = BackendSpec::parse("sw-f32?schedule=stream&threads=8").unwrap();
        assert_eq!(widest.threads(), Some(HostModel::MAX_WORKERS));
        let two_pass = BackendSpec::parse("hw-fix16?schedule=two-pass").unwrap();
        assert_eq!(two_pass.schedule(), Some(ScheduleMode::TwoPass));

        for (spec, needle) in [
            ("sw-f32?schedule=fastest", "unknown schedule"),
            ("sw-f32?schedule=Auto", "unknown schedule"),
            ("sw-f32?schedule=", "unknown schedule"),
            ("sw-f32?schedule=stream&threads=0", "`threads=0`"),
            ("sw-f32?schedule=stream&threads=9", "cap of 8 workers"),
            ("sw-f32?schedule=stream&threads=100000", "cap of 8 workers"),
            ("sw-f32?threads=nope&schedule=stream", "cannot parse"),
            ("sw-f32?threads=4", "requires `schedule=stream`"),
            (
                "sw-f32?schedule=auto&threads=4",
                "picks its own worker count",
            ),
            ("sw-f32?schedule=two-pass&threads=2", "single-threaded"),
            ("sw-f32?schedule=auto&schedule=auto", "duplicate key"),
            (
                "sw-f32?schedule=stream&threads=2&threads=2",
                "duplicate key",
            ),
        ] {
            match BackendSpec::parse(spec) {
                Err(TonemapError::InvalidSpec { reason, .. }) => {
                    assert!(
                        reason.contains(needle),
                        "`{reason}` lacks `{needle}` for `{spec}`"
                    )
                }
                other => panic!("`{spec}` must fail with InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn schedule_keys_render_canonically_and_round_trip() {
        let spec =
            BackendSpec::parse("sw-f32?schedule=stream&pipeline=basedetail&threads=8&sigma=2")
                .unwrap();
        assert_eq!(
            spec.to_string(),
            "sw-f32?sigma=2&pipeline=basedetail&schedule=stream&threads=8"
        );
        let reparsed: BackendSpec = spec.to_string().parse().unwrap();
        assert_eq!(reparsed, spec);

        let auto = BackendSpec::parse("sw-f32?schedule=auto").unwrap();
        assert_eq!(auto.to_string(), "sw-f32?schedule=auto");
        assert_eq!(auto.to_string().parse::<BackendSpec>().unwrap(), auto);
    }

    #[test]
    fn temporal_keys_parse_with_typed_errors() {
        let leaky = BackendSpec::parse("sw-f32?temporal=leaky&tau=0.5&cutthresh=1.5").unwrap();
        assert_eq!(leaky.temporal(), Some(TemporalMode::Leaky));
        assert_eq!(leaky.tau(), Some(0.5));
        assert_eq!(leaky.cut_threshold(), Some(1.5));
        let independent = BackendSpec::parse("sw-f32?temporal=independent").unwrap();
        assert_eq!(independent.temporal(), Some(TemporalMode::Independent));
        assert_eq!(independent.tau(), None);
        assert_eq!(independent.cut_threshold(), None);
        // tau=0 is valid: it degenerates leaky adaptation to per-frame
        // independence (the bit-identity anchor for the property suite).
        let frozen = BackendSpec::parse("sw-f32?temporal=leaky&tau=0").unwrap();
        assert_eq!(frozen.tau(), Some(0.0));

        for (spec, needle) in [
            ("sw-f32?temporal=smooth", "unknown temporal mode"),
            ("sw-f32?temporal=Leaky", "unknown temporal mode"),
            ("sw-f32?temporal=", "unknown temporal mode"),
            ("sw-f32?temporal=leaky&tau=abc", "cannot parse"),
            ("sw-f32?temporal=leaky&tau=-1", "finite value >= 0"),
            ("sw-f32?temporal=leaky&tau=inf", "finite value >= 0"),
            ("sw-f32?temporal=leaky&cutthresh=0", "finite value > 0"),
            ("sw-f32?temporal=leaky&cutthresh=nan", "finite value > 0"),
            ("sw-f32?temporal=leaky&cutthresh=x", "cannot parse"),
            ("sw-f32?tau=0.5", "requires `temporal=leaky`"),
            ("sw-f32?cutthresh=1", "requires `temporal=leaky`"),
            (
                "sw-f32?temporal=independent&tau=0.5",
                "`temporal=independent` never runs",
            ),
            (
                "sw-f32?temporal=independent&cutthresh=1",
                "`temporal=independent` never runs",
            ),
            ("sw-f32?temporal=leaky&temporal=leaky", "duplicate key"),
            ("sw-f32?temporal=leaky&tau=1&tau=1", "duplicate key"),
        ] {
            match BackendSpec::parse(spec) {
                Err(TonemapError::InvalidSpec { reason, .. }) => {
                    assert!(
                        reason.contains(needle),
                        "`{reason}` lacks `{needle}` for `{spec}`"
                    )
                }
                other => panic!("`{spec}` must fail with InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn temporal_keys_render_canonically_and_round_trip() {
        let spec = BackendSpec::parse(
            "sw-f32?cutthresh=1.5&schedule=stream&tau=0.5&pipeline=basedetail&temporal=leaky",
        )
        .unwrap();
        assert_eq!(
            spec.to_string(),
            "sw-f32?pipeline=basedetail&schedule=stream&temporal=leaky&tau=0.5&cutthresh=1.5"
        );
        let reparsed: BackendSpec = spec.to_string().parse().unwrap();
        assert_eq!(reparsed, spec);

        let bare = BackendSpec::parse("hw-fix16?temporal=independent").unwrap();
        assert_eq!(bare.to_string(), "hw-fix16?temporal=independent");
        assert_eq!(bare.to_string().parse::<BackendSpec>().unwrap(), bare);
    }

    #[test]
    fn without_temporal_strips_only_the_video_keys() {
        let spec =
            BackendSpec::parse("sw-f32?sigma=2&temporal=leaky&tau=0.25&cutthresh=2").unwrap();
        let stripped = spec.without_temporal();
        assert_eq!(stripped.temporal(), None);
        assert_eq!(stripped.tau(), None);
        assert_eq!(stripped.cut_threshold(), None);
        assert_eq!(stripped.to_string(), "sw-f32?sigma=2");
        // A spec with no temporal keys is unchanged.
        let plain = BackendSpec::parse("sw-f32?sigma=2").unwrap();
        assert_eq!(plain.without_temporal(), plain);
    }

    #[test]
    fn from_str_round_trips() {
        let spec: BackendSpec = "hw-pragmas?contrast=1.3".parse().unwrap();
        assert_eq!(spec.name(), "hw-pragmas");
        assert!(spec.has_overrides());
    }

    #[test]
    fn display_renders_the_canonical_form() {
        // Keys are re-ordered into KNOWN_KEYS order and the result
        // re-parses to an equal spec.
        let spec = BackendSpec::parse("hw-fix16?radius=10&sigma=3.5").unwrap();
        assert_eq!(spec.to_string(), "hw-fix16?sigma=3.5&radius=10");
        let reparsed: BackendSpec = spec.to_string().parse().unwrap();
        assert_eq!(reparsed, spec);

        let plain = BackendSpec::parse("sw-f32").unwrap();
        assert_eq!(plain.to_string(), "sw-f32");
    }
}
