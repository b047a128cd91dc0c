//! Name-based backend lookup, spec resolution and whole-registry operations.

use crate::backend::{BackendInfo, TonemapBackend};
use crate::engine::{Engine, EngineRow, Executor, Numerics};
use crate::error::TonemapError;
use crate::memo::BoundedMemo;
use crate::request::{TonemapRequest, TonemapResponse};
use crate::spec::BackendSpec;
use codesign::flow::{DesignImplementation, FlowReport};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use tonemap_core::{PipelinePlan, ToneMapParams};

/// Error returned when a backend name does not resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackendError {
    /// The name that failed to resolve.
    pub name: String,
    /// Every name the registry knows, for the error message.
    pub known: Vec<String>,
}

impl fmt::Display for UnknownBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown tonemap backend `{}`; known backends: {}",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownBackendError {}

/// A spec string resolved against a registry: a shared handle to the
/// engine that serves it, ready to execute requests.
///
/// When the spec carries parameter overrides or a `pipeline=` selection
/// (`"hw-fix16?sigma=3"`, `"sw-f32?pipeline=reinhard"`), the handle is a
/// *reconfigured* instance of the named engine
/// ([`TonemapBackend::reconfigured`]) with the merged parameters — and the
/// compiled plan — baked in; so holding a `ResolvedBackend` across many
/// [`ResolvedBackend::execute`] calls amortises both the plan compilation
/// and its per-resolution platform-model cache exactly like the registry's
/// shared engines do. The registry's batch API does exactly that.
#[derive(Clone)]
pub struct ResolvedBackend {
    backend: Arc<dyn TonemapBackend>,
    params_override: Option<ToneMapParams>,
    plan: Option<PipelinePlan>,
}

impl ResolvedBackend {
    /// The engine serving this spec (the registry's shared instance, or a
    /// reconfigured one when the spec overrides parameters).
    pub fn backend(&self) -> &dyn TonemapBackend {
        self.backend.as_ref()
    }

    /// A clonable handle to the engine, for callers that outlive the
    /// registry borrow (worker threads, async tasks).
    pub fn backend_shared(&self) -> Arc<dyn TonemapBackend> {
        Arc::clone(&self.backend)
    }

    /// The parameters the spec's query part merged onto the named engine's
    /// configured parameters, if any — already baked into
    /// [`ResolvedBackend::backend`].
    pub fn params_override(&self) -> Option<&ToneMapParams> {
        self.params_override.as_ref()
    }

    /// The pipeline plan the spec's `pipeline=` selection resolved to, if
    /// any — already compiled into [`ResolvedBackend::backend`].
    pub fn pipeline_plan(&self) -> Option<&PipelinePlan> {
        self.plan.as_ref()
    }

    /// Executes a request on the resolved engine.
    ///
    /// Precedence: a request-level [`TonemapRequest::with_params`] wins
    /// over the spec's query overrides (the request is the more specific
    /// description of the job).
    pub fn execute(&self, request: &TonemapRequest<'_>) -> Result<TonemapResponse, TonemapError> {
        self.backend.execute(request)
    }
}

impl fmt::Debug for ResolvedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResolvedBackend")
            .field("backend", &self.backend.name())
            .field("params_override", &self.params_override)
            .finish()
    }
}

/// A named collection of [`TonemapBackend`] engines and the resolution
/// layer of the request/response API: spec strings in, executed
/// [`TonemapResponse`]s out.
///
/// Backends are stored behind `Arc` so callers (worker threads, batch
/// drivers) can hold onto an engine independently of the registry's
/// lifetime. Iteration order is name order (deterministic).
///
/// Specs with parameter overrides resolve to reconfigured engines; those
/// are memoized (shared across clones of the registry until one of them
/// registers a backend), so repeated
/// [`BackendRegistry::execute`] calls with the same override spec reuse
/// one engine and its per-resolution platform-model cache instead of
/// rebuilding both per request. A client can name endless distinct specs
/// (every `sigma=` value is one), so the memo holds at most 256; a new
/// spec on a full memo evicts the least recently resolved one.
#[derive(Clone, Default)]
pub struct BackendRegistry {
    backends: BTreeMap<&'static str, Arc<dyn TonemapBackend>>,
    resolved_overrides: Arc<Mutex<BoundedMemo<String, ResolvedBackend, MAX_OVERRIDE_SPECS>>>,
}

/// Reconfigured engines one registry keeps, one per spec string.
const MAX_OVERRIDE_SPECS: usize = 256;

impl BackendRegistry {
    /// The engine a request without [`TonemapRequest::on_backend`] runs on:
    /// the software float reference.
    pub const DEFAULT_BACKEND: &'static str = "sw-f32";

    /// An empty registry.
    pub fn new() -> Self {
        BackendRegistry::default()
    }

    /// The standard engine table, one row per engine: every execution path
    /// of the reproduction. [`BackendRegistry::standard`] registers each
    /// row; `tonemap-video` sessions take their numerics, executor and
    /// schedule class from the same rows.
    pub const STANDARD_ENGINES: [EngineRow; 8] = [
        EngineRow {
            name: "sw-f32",
            description: "software reference: all four stages in 32-bit floating point (Table II `SW source code`)",
            numerics: Numerics::F32,
            design: Some(DesignImplementation::SwSourceCode),
            executor: Executor::TwoPass,
        },
        EngineRow {
            name: "sw-fix16",
            description: "all-fixed-point ablation: every stage in 16-bit fixed point (no Table II row)",
            numerics: Numerics::Fix16All,
            design: None,
            executor: Executor::TwoPass,
        },
        EngineRow {
            name: "hw-marked",
            description: "blur naively marked for hardware: random DDR accesses from the PL (Table II `Marked HW function`)",
            numerics: Numerics::F32,
            design: Some(DesignImplementation::MarkedHwFunction),
            executor: Executor::TwoPass,
        },
        EngineRow {
            name: "hw-sequential",
            description: "streaming blur accelerator with BRAM line buffers (Table II `Sequential memory accesses`)",
            numerics: Numerics::F32,
            design: Some(DesignImplementation::SequentialMemoryAccesses),
            executor: Executor::TwoPass,
        },
        EngineRow {
            name: "hw-pragmas",
            description: "pipelined 32-bit floating-point blur accelerator (Table II `HLS pragmas`)",
            numerics: Numerics::F32,
            design: Some(DesignImplementation::HlsPragmas),
            executor: Executor::TwoPass,
        },
        EngineRow {
            name: "hw-fix16",
            description: "the paper's final design: pipelined 16-bit fixed-point blur accelerator (Table II `FlP to FxP conversion`)",
            numerics: Numerics::Fix16Blur,
            design: Some(DesignImplementation::FixedPointConversion),
            executor: Executor::TwoPass,
        },
        // The stream rows stay single-threaded so their schedule points
        // and pins stay as they are. Slicing would no longer oversubscribe
        // a worker pool: a job's extra row slices take only cores no
        // worker holds (`tonemap_core::cores`). `schedule=` specs and
        // engines built from a row with more threads do slice.
        EngineRow {
            name: "sw-f32-stream",
            description: "streaming software reference: fused single pass over a row ring buffer (the Fig. 4 line buffer in software), bit-identical to sw-f32",
            numerics: Numerics::F32,
            design: None,
            executor: Executor::Stream { threads: 1 },
        },
        EngineRow {
            name: "hw-fix16-stream",
            description: "streaming fixed-point engine: fused single pass with the 16-bit blur datapath behind the row ring buffer, bit-identical to hw-fix16",
            numerics: Numerics::Fix16Blur,
            design: None,
            executor: Executor::Stream { threads: 1 },
        },
    ];

    /// The standard registry: every row of
    /// [`BackendRegistry::STANDARD_ENGINES`], configured with the paper's
    /// tone-mapping parameters.
    ///
    /// | Name | Path | Table II design |
    /// |---|---|---|
    /// | `sw-f32` | software float reference | SW source code |
    /// | `sw-fix16` | all-stages fixed-point ablation | — |
    /// | `hw-marked` | naive PL blur, random DDR accesses | Marked HW function |
    /// | `hw-sequential` | streaming PL blur, line buffers | Sequential memory accesses |
    /// | `hw-pragmas` | + `PIPELINE` / `ARRAY_PARTITION` | HLS pragmas |
    /// | `hw-fix16` | + 16-bit fixed-point datapath | FlP to FxP conversion |
    /// | `sw-f32-stream` | fused streaming pass, row ring buffer | — |
    /// | `hw-fix16-stream` | streaming pass, fixed-point blur | — |
    pub fn standard() -> Self {
        BackendRegistry::standard_with_params(ToneMapParams::paper_default())
            .expect("paper-default parameters are valid")
    }

    /// The standard registry with custom tone-mapping parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TonemapError::InvalidParams`] if `params` fail validation.
    pub fn standard_with_params(params: ToneMapParams) -> Result<Self, TonemapError> {
        let mut registry = BackendRegistry::new();
        for row in BackendRegistry::STANDARD_ENGINES {
            registry.register(Arc::new(Engine::new(row, params)?));
        }
        Ok(registry)
    }

    /// Adds (or replaces) a backend under its own name.
    ///
    /// Gives this registry a fresh memo of override-spec resolutions, since
    /// a memoized engine may have been reconfigured from a name this call
    /// rebinds. Clones of the registry keep the memo they shared, which
    /// still matches their own engines.
    pub fn register(&mut self, backend: Arc<dyn TonemapBackend>) {
        self.backends.insert(backend.name(), backend);
        self.resolved_overrides = Arc::default();
    }

    /// Looks a backend up by name.
    pub fn get(&self, name: &str) -> Option<&dyn TonemapBackend> {
        self.backends.get(name).map(Arc::as_ref)
    }

    /// Looks a backend up by name, returning a descriptive error listing
    /// the known names when it does not resolve.
    pub fn resolve(&self, name: &str) -> Result<&dyn TonemapBackend, UnknownBackendError> {
        self.get(name).ok_or_else(|| self.unknown(name))
    }

    /// A clonable handle to a backend, for callers that outlive the
    /// registry borrow (worker threads, async tasks).
    pub fn get_shared(&self, name: &str) -> Option<Arc<dyn TonemapBackend>> {
        self.backends.get(name).cloned()
    }

    /// Resolves a full spec string (`"hw-fix16"`,
    /// `"sw-f32?sigma=3.5&radius=10"`,
    /// `"sw-f32-stream?pipeline=reinhard&reinhard_key=4"`) into an engine
    /// ready to execute requests. A spec without overrides resolves to the
    /// registry's shared instance; a spec with parameter overrides and/or a
    /// `pipeline=` selection resolves to a reconfigured instance with the
    /// merged, validated parameters — and the compiled plan — baked in (and
    /// its own platform-model cache).
    ///
    /// # Errors
    ///
    /// [`TonemapError::InvalidSpec`] for a malformed spec or one carrying
    /// video-only temporal keys (`temporal=`/`tau=`/`cutthresh=` configure a
    /// `tonemap-video` session, not a single-frame engine),
    /// [`TonemapError::UnknownBackend`] for an unregistered name,
    /// [`TonemapError::InvalidParams`] when the merged parameters fail
    /// validation, and [`TonemapError::InvalidPlan`] when the plan tuning
    /// fails plan validation.
    pub fn resolve_spec(&self, spec: &str) -> Result<ResolvedBackend, TonemapError> {
        let parsed = BackendSpec::parse(spec)?;
        if parsed.temporal().is_some() {
            return Err(TonemapError::InvalidSpec {
                spec: spec.to_string(),
                reason: "temporal keys (`temporal=`, `tau=`, `cutthresh=`) select \
                         video-session adaptation; single-frame resolution cannot \
                         serve them — open a `tonemap-video` session (or a service \
                         frame stream) with this spec instead"
                    .to_string(),
            });
        }
        let backend = self
            .get_shared(parsed.name())
            .ok_or_else(|| self.unknown(parsed.name()))?;
        let params_override = parsed.merged_params(backend.params())?;
        let effective = params_override.unwrap_or_else(|| backend.params());
        let plan = parsed.resolved_plan(&effective)?;
        if params_override.is_none() && plan.is_none() && parsed.schedule().is_none() {
            return Ok(ResolvedBackend {
                backend,
                params_override: None,
                plan: None,
            });
        }
        // Memoize reconfigured engines per canonical spec text so every
        // spelling of a spec reuses one compiled plan, one platform-model
        // cache — and, for `schedule=` specs, one per-resolution schedule
        // cache. The memo holds canonical texts only, so a spec written in
        // canonical form hits before its canonical text is rendered.
        let memo_get = |key: &str| {
            self.resolved_overrides
                .lock()
                .expect("override-spec cache poisoned")
                .get(key)
        };
        if let Some(resolved) = memo_get(spec) {
            return Ok(resolved);
        }
        let key = parsed.to_string();
        if let Some(resolved) = memo_get(&key) {
            return Ok(resolved);
        }
        let engine = if params_override.is_some() || plan.is_some() {
            backend.reconfigured(effective, plan.clone())?
        } else {
            backend
        };
        let engine = match parsed.schedule() {
            None => engine,
            Some(mode) => engine.scheduled(mode, parsed.threads(), spec)?,
        };
        let resolved = ResolvedBackend {
            backend: engine,
            params_override,
            plan,
        };
        Ok(self
            .resolved_overrides
            .lock()
            .expect("override-spec cache poisoned")
            .insert(key, resolved))
    }

    /// The backend covering one Table II design.
    ///
    /// # Errors
    ///
    /// Returns [`TonemapError::MissingDesign`] when no registered backend
    /// covers `design`.
    pub fn backend_for_design(
        &self,
        design: DesignImplementation,
    ) -> Result<Arc<dyn TonemapBackend>, TonemapError> {
        self.backends
            .values()
            .find(|b| b.design() == Some(design))
            .cloned()
            .ok_or(TonemapError::MissingDesign(design))
    }

    /// Executes one request: the request's spec string (or
    /// [`BackendRegistry::DEFAULT_BACKEND`] when none was set) is resolved
    /// and the job runs on that engine.
    ///
    /// # Errors
    ///
    /// Everything [`BackendRegistry::resolve_spec`] and
    /// [`TonemapBackend::execute`] can return.
    pub fn execute(&self, request: &TonemapRequest<'_>) -> Result<TonemapResponse, TonemapError> {
        let spec = request.backend_spec().unwrap_or(Self::DEFAULT_BACKEND);
        self.resolve_spec(spec)?.execute(request)
    }

    /// Executes a batch of heterogeneous requests, in order, failing fast
    /// on the first error.
    ///
    /// Each distinct spec string is resolved once per batch, so requests
    /// sharing an engine share its per-resolution platform-model cache —
    /// the amortisation the roadmap's serving work builds on.
    pub fn execute_batch(
        &self,
        requests: &[TonemapRequest<'_>],
    ) -> Result<Vec<TonemapResponse>, TonemapError> {
        let mut resolved: BTreeMap<&str, ResolvedBackend> = BTreeMap::new();
        requests
            .iter()
            .map(|request| {
                let spec = request.backend_spec().unwrap_or(Self::DEFAULT_BACKEND);
                let engine = match resolved.get(spec) {
                    Some(engine) => engine,
                    None => {
                        let engine = self.resolve_spec(spec)?;
                        resolved.entry(spec).or_insert(engine)
                    }
                };
                engine.execute(request)
            })
            .collect()
    }

    /// Every registered name, in deterministic (sorted) order.
    pub fn names(&self) -> Vec<&'static str> {
        self.backends.keys().copied().collect()
    }

    /// Introspection data for every registered engine, in name order.
    pub fn infos(&self) -> Vec<BackendInfo> {
        self.iter().map(|b| b.info()).collect()
    }

    /// Number of registered backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// `true` when no backend is registered.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Iterates over the backends in name order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn TonemapBackend> {
        self.backends.values().map(Arc::as_ref)
    }

    /// Assembles the paper's Table II evaluation ([`FlowReport`]) from the
    /// registered backends' platform-model reports, in Table II order.
    ///
    /// This is the engine-layer replacement for calling
    /// `CoDesignFlow::run_all` directly: the figure/table binaries ask the
    /// *registry* for the flow report, so adding or swapping a backend
    /// automatically changes what they evaluate.
    ///
    /// # Errors
    ///
    /// Returns [`TonemapError::MissingDesign`] when a Table II design has
    /// no registered backend (cannot happen for
    /// [`BackendRegistry::standard`]).
    pub fn flow_report(&self, width: usize, height: usize) -> Result<FlowReport, TonemapError> {
        let designs = DesignImplementation::ALL
            .iter()
            .map(|&design| {
                self.backend_for_design(design)?
                    .design_report(width, height)
                    .ok_or(TonemapError::MissingDesign(design))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FlowReport {
            designs,
            width,
            height,
        })
    }

    fn unknown(&self, name: &str) -> UnknownBackendError {
        UnknownBackendError {
            name: name.to_string(),
            known: self.names().iter().map(|n| n.to_string()).collect(),
        }
    }
}

impl fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("backends", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdr_image::synth::SceneKind;

    /// A fresh paper-default `sw-f32` engine.
    fn sw_f32() -> Arc<dyn TonemapBackend> {
        let row = BackendRegistry::STANDARD_ENGINES[0];
        Arc::new(Engine::new(row, ToneMapParams::paper_default()).unwrap())
    }

    #[test]
    fn standard_registry_resolves_every_documented_name() {
        let registry = BackendRegistry::standard();
        for name in [
            "sw-f32",
            "sw-fix16",
            "sw-f32-stream",
            "hw-marked",
            "hw-sequential",
            "hw-pragmas",
            "hw-fix16",
            "hw-fix16-stream",
        ] {
            let backend = registry.resolve(name).expect("standard backend resolves");
            assert_eq!(backend.name(), name);
            assert!(!backend.description().is_empty());
        }
        assert_eq!(registry.len(), 8);
        assert!(!registry.is_empty());
    }

    #[test]
    fn standard_with_params_rejects_invalid_parameters() {
        let mut params = ToneMapParams::paper_default();
        params.blur.radius = 0;
        assert!(matches!(
            BackendRegistry::standard_with_params(params),
            Err(TonemapError::InvalidParams(_))
        ));
    }

    #[test]
    fn temporal_specs_are_rejected_at_single_frame_resolution() {
        let registry = BackendRegistry::standard();
        for spec in [
            "sw-f32?temporal=leaky&tau=0.5",
            "hw-fix16?temporal=independent",
        ] {
            match registry.resolve_spec(spec) {
                Err(TonemapError::InvalidSpec { reason, .. }) => {
                    assert!(
                        reason.contains("video-session adaptation"),
                        "`{reason}` must explain the video-only keys for `{spec}`"
                    )
                }
                other => panic!("`{spec}` must fail with InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_name_lists_known_backends() {
        let registry = BackendRegistry::standard();
        let err = registry
            .resolve("gpu-cuda")
            .err()
            .expect("unknown name must not resolve");
        assert_eq!(err.name, "gpu-cuda");
        assert!(err.to_string().contains("sw-f32"));
        assert!(err.to_string().contains("hw-fix16"));
    }

    #[test]
    fn every_backend_produces_display_referred_output() {
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::WindowInDarkRoom.generate(32, 32, 3);
        for backend in registry.iter() {
            let response = backend
                .execute(&TonemapRequest::luminance(&hdr).with_telemetry())
                .expect("valid request executes");
            let image = response.luminance().expect("display-referred payload");
            assert_eq!(image.dimensions(), hdr.dimensions(), "{}", backend.name());
            assert!(
                image.pixels().iter().all(|v| (0.0..=1.0).contains(v)),
                "{} produced out-of-range pixels",
                backend.name()
            );
            let telemetry = response.telemetry().expect("telemetry requested");
            assert_eq!(telemetry.backend, backend.name());
            assert!(telemetry.ops.total() > 0);
        }
    }

    #[test]
    fn accelerated_backends_carry_modeled_cost_and_ablation_does_not() {
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::SunAndShadow.generate(32, 32, 5);
        let fixed = registry
            .execute(
                &TonemapRequest::luminance(&hdr)
                    .on_backend("hw-fix16")
                    .with_telemetry(),
            )
            .expect("hw-fix16 registered");
        let modeled = fixed
            .telemetry()
            .expect("telemetry requested")
            .modeled
            .as_ref()
            .expect("hw-fix16 has a Table II row")
            .clone();
        assert_eq!(modeled.design, DesignImplementation::FixedPointConversion);
        assert!(modeled.pl_seconds > 0.0);
        assert!(modeled.energy_j > 0.0);
        assert!(modeled.pl_utilization > 0.0);

        let ablation = registry
            .execute(
                &TonemapRequest::luminance(&hdr)
                    .on_backend("sw-fix16")
                    .with_telemetry(),
            )
            .expect("sw-fix16 registered");
        assert!(ablation.telemetry().unwrap().modeled.is_none());
    }

    #[test]
    fn telemetry_is_opt_in() {
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::WindowInDarkRoom.generate(16, 16, 4);
        let silent = registry
            .execute(&TonemapRequest::luminance(&hdr).on_backend("hw-fix16"))
            .unwrap();
        assert!(silent.telemetry().is_none());
    }

    #[test]
    fn execute_batch_amortises_spec_resolution_and_preserves_order() {
        let registry = BackendRegistry::standard();
        let scenes: Vec<_> = [1u64, 2, 3]
            .iter()
            .map(|&seed| SceneKind::WindowInDarkRoom.generate(24, 24, seed))
            .collect();
        let requests: Vec<TonemapRequest<'_>> = scenes
            .iter()
            .enumerate()
            .map(|(i, scene)| {
                // Heterogeneous batch: alternate engines per request.
                let spec = if i % 2 == 0 { "sw-f32" } else { "hw-fix16" };
                TonemapRequest::luminance(scene).on_backend(spec)
            })
            .collect();
        let responses = registry.execute_batch(&requests).expect("batch executes");
        assert_eq!(responses.len(), 3);
        for (scene, response) in scenes.iter().zip(&responses) {
            assert_eq!(response.dimensions(), scene.dimensions());
        }

        let bad: Vec<TonemapRequest<'_>> = scenes
            .iter()
            .map(|scene| TonemapRequest::luminance(scene).on_backend("no-such"))
            .collect();
        assert!(matches!(
            registry.execute_batch(&bad),
            Err(TonemapError::UnknownBackend(_))
        ));
    }

    #[test]
    fn spec_overrides_change_the_effective_parameters() {
        let registry = BackendRegistry::standard();
        let resolved = registry
            .resolve_spec("sw-f32?sigma=2.5&radius=6")
            .expect("valid spec resolves");
        let params = resolved.params_override().expect("overrides present");
        assert_eq!(params.blur.sigma, 2.5);
        assert_eq!(params.blur.radius, 6);
        // The merged parameters are baked into a reconfigured engine, so
        // its per-resolution platform-model cache serves every request the
        // handle executes (no per-request override path involved).
        assert_eq!(resolved.backend().params(), *params);
        assert_ne!(
            registry.resolve("sw-f32").unwrap().params(),
            *params,
            "the registry's shared engine must stay untouched"
        );

        let hdr = SceneKind::WindowInDarkRoom.generate(32, 32, 9);
        let narrow = resolved.execute(&TonemapRequest::luminance(&hdr)).unwrap();
        let default = registry.execute(&TonemapRequest::luminance(&hdr)).unwrap();
        assert_ne!(
            narrow.luminance().unwrap(),
            default.luminance().unwrap(),
            "a narrower blur must change the output"
        );
    }

    #[test]
    fn override_spec_resolution_is_memoized_until_registration() {
        let registry = BackendRegistry::standard();
        let first = registry.resolve_spec("hw-fix16?sigma=3.0").unwrap();
        let second = registry.resolve_spec("hw-fix16?sigma=3.0").unwrap();
        assert!(
            Arc::ptr_eq(&first.backend_shared(), &second.backend_shared()),
            "repeated resolution must reuse the reconfigured engine (and its model cache)"
        );

        let mut registry = registry;
        registry.register(sw_f32());
        let third = registry.resolve_spec("hw-fix16?sigma=3.0").unwrap();
        assert!(
            !Arc::ptr_eq(&first.backend_shared(), &third.backend_shared()),
            "registering a backend must invalidate memoized resolutions"
        );
    }

    #[test]
    fn every_spelling_of_a_spec_shares_one_memoized_engine() {
        let registry = BackendRegistry::standard();
        let spellings = ["sw-f32?sigma=2", "sw-f32?sigma=2.0", " sw-f32?sigma=2"];
        let engines: Vec<_> = spellings
            .iter()
            .map(|spec| registry.resolve_spec(spec).unwrap().backend_shared())
            .collect();
        for (spec, engine) in spellings.iter().zip(&engines) {
            assert!(
                Arc::ptr_eq(&engines[0], engine),
                "`{spec}` built its own engine"
            );
        }
        assert_eq!(registry.resolved_overrides.lock().unwrap().len(), 1);
    }

    #[test]
    fn the_override_memo_stays_within_its_cap() {
        // Every distinct `sigma=` value is a distinct spec string.
        let registry = BackendRegistry::standard();
        let specs: Vec<String> = (0..300)
            .map(|index| format!("sw-f32?sigma={}", 1.0 + index as f32 / 100.0))
            .collect();
        for spec in &specs {
            registry.resolve_spec(spec).expect("every sigma is valid");
        }
        let memo = registry.resolved_overrides.lock().unwrap();
        assert_eq!(memo.len(), MAX_OVERRIDE_SPECS);
        // The least recently resolved specs went first.
        assert!(memo.contains_key(&specs[299]));
        assert!(!memo.contains_key(&specs[0]));
    }

    #[test]
    fn an_over_long_spec_never_enters_the_override_memo() {
        // A valid sigma padded to a mebibyte with leading zeros.
        let registry = BackendRegistry::standard();
        let spec = format!("sw-f32?sigma={}1.5", "0".repeat(1 << 20));
        let error = registry.resolve_spec(&spec).map(drop).unwrap_err();
        assert!(matches!(error, TonemapError::InvalidSpec { .. }), "{error}");
        assert!(error.to_string().len() < 2048);
        assert_eq!(registry.resolved_overrides.lock().unwrap().len(), 0);
    }

    #[test]
    fn a_registration_in_one_clone_never_serves_the_other_clones() {
        let original = BackendRegistry::standard();
        let mut clone = original.clone();
        // The all-fixed ablation's numerics, registered under `sw-f32`.
        let imposter = EngineRow {
            name: "sw-f32",
            ..BackendRegistry::STANDARD_ENGINES[1]
        };
        clone.register(Arc::new(
            Engine::new(imposter, ToneMapParams::paper_default()).unwrap(),
        ));
        let hdr = SceneKind::WindowInDarkRoom.generate(32, 24, 4);
        let request = TonemapRequest::luminance(&hdr).on_backend("sw-f32?sigma=3");
        let from_clone = clone.execute(&request).unwrap();
        let from_original = original.execute(&request).unwrap();
        let fresh = BackendRegistry::standard().execute(&request).unwrap();
        assert_eq!(
            from_original.luminance().unwrap(),
            fresh.luminance().unwrap(),
            "the original must serve its own `sw-f32`"
        );
        assert_ne!(
            from_original.luminance().unwrap(),
            from_clone.luminance().unwrap(),
            "the clone serves the engine it registered"
        );
    }

    #[test]
    fn request_params_take_precedence_over_spec_overrides() {
        let registry = BackendRegistry::standard();
        let resolved = registry.resolve_spec("sw-f32?sigma=2.5").unwrap();
        let hdr = SceneKind::WindowInDarkRoom.generate(24, 24, 8);
        let explicit = resolved
            .execute(&TonemapRequest::luminance(&hdr).with_params(ToneMapParams::paper_default()))
            .unwrap();
        let default = registry.execute(&TonemapRequest::luminance(&hdr)).unwrap();
        assert_eq!(explicit.luminance().unwrap(), default.luminance().unwrap());
    }

    #[test]
    fn pipeline_specs_resolve_compile_and_serve_new_operators() {
        use tonemap_core::plan::{PipelinePlan, PlanTuning};
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::WindowInDarkRoom.generate(40, 30, 13);
        let paper = registry
            .execute(&TonemapRequest::luminance(&hdr))
            .unwrap()
            .luminance()
            .unwrap()
            .clone();
        for preset in ["reinhard", "histeq", "gamma", "log"] {
            let spec = format!("sw-f32?pipeline={preset}");
            let resolved = registry.resolve_spec(&spec).expect("plan spec resolves");
            let plan = resolved.pipeline_plan().expect("plan recorded");
            assert_eq!(
                *plan,
                PipelinePlan::preset(
                    preset,
                    &ToneMapParams::paper_default(),
                    &PlanTuning::default()
                )
                .unwrap()
                .unwrap()
            );
            let out = registry
                .execute(&TonemapRequest::luminance(&hdr).on_backend(&spec))
                .unwrap();
            let image = out.luminance().unwrap();
            assert!(image.pixels().iter().all(|v| (0.0..=1.0).contains(v)));
            assert_ne!(image, &paper, "{preset} must differ from the paper chain");
            // The engine serves the plan, not the Fig. 1 chain: direct
            // compilation agrees exactly.
            let direct =
                tonemap_core::ToneMapper::compile(plan.clone(), ToneMapParams::paper_default())
                    .unwrap()
                    .map_luminance_f32(&hdr);
            assert_eq!(image, &direct, "{preset}");
        }

        // `pipeline=paper` is the identity of the default chain.
        let explicit = registry
            .execute(&TonemapRequest::luminance(&hdr).on_backend("sw-f32?pipeline=paper"))
            .unwrap();
        assert_eq!(explicit.luminance().unwrap(), &paper);

        // Streaming engines serve plans too (fused or via their reported
        // fallback), identically to the two-pass engines.
        for preset in ["reinhard", "histeq"] {
            let streamed = registry
                .execute(
                    &TonemapRequest::luminance(&hdr)
                        .on_backend(format!("sw-f32-stream?pipeline={preset}")),
                )
                .unwrap();
            let classic = registry
                .execute(
                    &TonemapRequest::luminance(&hdr)
                        .on_backend(format!("sw-f32?pipeline={preset}")),
                )
                .unwrap();
            assert_eq!(
                streamed.luminance().unwrap(),
                classic.luminance().unwrap(),
                "{preset} diverged between planners"
            );
        }
    }

    #[test]
    fn pipeline_spec_resolution_is_memoized_and_modeled_costs_follow_the_plan() {
        let registry = BackendRegistry::standard();
        let first = registry.resolve_spec("hw-fix16?pipeline=reinhard").unwrap();
        let second = registry.resolve_spec("hw-fix16?pipeline=reinhard").unwrap();
        assert!(
            Arc::ptr_eq(&first.backend_shared(), &second.backend_shared()),
            "repeated resolution must reuse the compiled plan engine"
        );
        // A stencil-free plan has nothing to accelerate: the plan-aware
        // platform model reports zero PL time.
        let hdr = SceneKind::SunAndShadow.generate(32, 32, 3);
        let response = registry
            .execute(
                &TonemapRequest::luminance(&hdr)
                    .on_backend("hw-fix16?pipeline=reinhard")
                    .with_telemetry(),
            )
            .unwrap();
        let modeled = response.telemetry().unwrap().modeled.clone().unwrap();
        assert_eq!(modeled.pl_seconds, 0.0);
        let classic = registry
            .execute(
                &TonemapRequest::luminance(&hdr)
                    .on_backend("hw-fix16")
                    .with_telemetry(),
            )
            .unwrap();
        assert!(
            classic
                .telemetry()
                .unwrap()
                .modeled
                .clone()
                .unwrap()
                .pl_seconds
                > 0.0
        );
    }

    #[test]
    fn params_overrides_do_not_discard_a_plan_engine_compiled_chain() {
        // Regression: a `pipeline=reinhard` engine receiving a
        // request-level params override used to silently rebuild the Fig. 1
        // chain — serving a different tone-mapping operator than the spec
        // selected.
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::WindowInDarkRoom.generate(28, 28, 21);
        for engine in ["sw-f32", "sw-f32-stream"] {
            let spec = format!("{engine}?pipeline=reinhard");
            let with_override = registry
                .execute(
                    &TonemapRequest::luminance(&hdr)
                        .on_backend(&*spec)
                        .with_params(ToneMapParams::paper_default()),
                )
                .unwrap();
            let plain = registry
                .execute(&TonemapRequest::luminance(&hdr).on_backend(&*spec))
                .unwrap();
            assert_eq!(
                with_override.luminance().unwrap(),
                plain.luminance().unwrap(),
                "{engine}: params override must keep serving the Reinhard plan"
            );
            let paper = registry
                .execute(&TonemapRequest::luminance(&hdr).on_backend(engine))
                .unwrap();
            assert_ne!(
                with_override.luminance().unwrap(),
                paper.luminance().unwrap(),
                "{engine}: override must not fall back to the Fig. 1 chain"
            );
        }
    }

    #[test]
    fn request_level_plans_override_the_engine_chain() {
        use tonemap_core::plan::{PipelinePlan, PlanTuning};
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::GradientRamp.generate(24, 24, 5);
        let plan = PipelinePlan::preset(
            "reinhard",
            &ToneMapParams::paper_default(),
            &PlanTuning::default(),
        )
        .unwrap()
        .unwrap();
        let via_request = registry
            .execute(&TonemapRequest::luminance(&hdr).with_pipeline(plan.clone()))
            .unwrap();
        let via_spec = registry
            .execute(&TonemapRequest::luminance(&hdr).on_backend("sw-f32?pipeline=reinhard"))
            .unwrap();
        assert_eq!(
            via_request.luminance().unwrap(),
            via_spec.luminance().unwrap()
        );
    }

    #[test]
    fn backend_for_design_reports_missing_designs() {
        let registry = BackendRegistry::standard();
        let backend = registry
            .backend_for_design(DesignImplementation::HlsPragmas)
            .expect("standard registry covers Table II");
        assert_eq!(backend.name(), "hw-pragmas");

        let empty = BackendRegistry::new();
        assert!(matches!(
            empty.backend_for_design(DesignImplementation::HlsPragmas),
            Err(TonemapError::MissingDesign(
                DesignImplementation::HlsPragmas
            ))
        ));
    }

    #[test]
    fn infos_describe_every_engine() {
        let registry = BackendRegistry::standard();
        let infos = registry.infos();
        assert_eq!(infos.len(), registry.len());
        let fixed = infos.iter().find(|i| i.name == "hw-fix16").unwrap();
        assert!(fixed.is_accelerated());
        assert!(fixed.has_platform_model());
        assert_eq!(fixed.params, ToneMapParams::paper_default());
        assert!(fixed.to_string().contains("FlP to FxP conversion"));
        let ablation = infos.iter().find(|i| i.name == "sw-fix16").unwrap();
        assert!(!ablation.is_accelerated());
        assert!(!ablation.has_platform_model());
    }

    #[test]
    fn flow_report_covers_every_table_two_design_in_order() {
        let registry = BackendRegistry::standard();
        let report = registry
            .flow_report(64, 64)
            .expect("standard registry covers Table II");
        assert_eq!(report.designs.len(), DesignImplementation::ALL.len());
        for (expected, actual) in DesignImplementation::ALL.iter().zip(&report.designs) {
            assert_eq!(*expected, actual.design);
        }
        assert_eq!((report.width, report.height), (64, 64));
    }

    #[test]
    fn flow_report_on_an_incomplete_registry_is_a_typed_error() {
        let mut registry = BackendRegistry::new();
        registry.register(sw_f32());
        assert!(matches!(
            registry.flow_report(32, 32),
            Err(TonemapError::MissingDesign(_))
        ));
    }

    #[test]
    fn colour_presets_serve_rgb_requests_on_every_engine_family() {
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::SunAndShadow.generate_rgb(36, 28, 17);
        for preset in [
            "hsv-reinhard",
            "filmic",
            "aces",
            "drago",
            "pq-out",
            "hlg-out",
        ] {
            for engine in ["sw-f32", "sw-fix16", "hw-marked", "hw-fix16"] {
                let spec = format!("{engine}?pipeline={preset}");
                let response = registry
                    .execute(
                        &TonemapRequest::rgb(&hdr)
                            .on_backend(&*spec)
                            .with_telemetry(),
                    )
                    .unwrap_or_else(|e| panic!("`{spec}` must serve RGB requests: {e}"));
                let out = response.rgb().expect("display-referred RGB payload");
                assert_eq!(out.dimensions(), hdr.dimensions(), "{spec}");
                assert!(
                    out.pixels()
                        .iter()
                        .all(|p| [p.r, p.g, p.b].iter().all(|c| (0.0..=1.0).contains(c))),
                    "{spec} produced out-of-range pixels"
                );
                assert!(response.telemetry().unwrap().ops.total() > 0, "{spec}");
            }
            // The streaming engines serve the same pixels, bit for bit.
            for (streamed, classic) in
                [("sw-f32-stream", "sw-f32"), ("hw-fix16-stream", "hw-fix16")]
            {
                let a = registry
                    .execute(
                        &TonemapRequest::rgb(&hdr)
                            .on_backend(format!("{streamed}?pipeline={preset}")),
                    )
                    .unwrap();
                let b = registry
                    .execute(
                        &TonemapRequest::rgb(&hdr)
                            .on_backend(format!("{classic}?pipeline={preset}")),
                    )
                    .unwrap();
                assert_eq!(
                    a.rgb().unwrap(),
                    b.rgb().unwrap(),
                    "{streamed} diverged from {classic} on {preset}"
                );
            }
        }
    }

    #[test]
    fn luminance_requests_on_colour_plan_engines_are_typed_errors() {
        // `pipeline=hsv-reinhard` compiles an `Rgb`-input plan: a luminance
        // request has no colour register to feed it, and the mismatch must
        // surface as a typed plan error on every engine family (including
        // the scheduler-resolved ones), never as a panic.
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::GradientRamp.generate(16, 12, 3);
        for spec in [
            "sw-f32?pipeline=hsv-reinhard".to_string(),
            "sw-fix16?pipeline=hsv-reinhard".to_string(),
            "hw-fix16?pipeline=hsv-reinhard".to_string(),
            "sw-f32-stream?pipeline=hsv-reinhard".to_string(),
            "sw-f32?pipeline=hsv-reinhard&schedule=auto".to_string(),
        ] {
            let err = registry
                .execute(&TonemapRequest::luminance(&hdr).on_backend(&*spec))
                .expect_err("a colour-input plan cannot serve a luminance request");
            match err {
                TonemapError::InvalidPlan(e) => {
                    assert!(e.to_string().contains("scalar-input"), "{spec}: {e}")
                }
                other => panic!("{spec}: expected InvalidPlan, got {other:?}"),
            }
        }
        // The scalar colour-catalogue presets (filmic & co) stay servable as
        // luminance jobs — only `Rgb`-input plans are gated.
        let ok = registry
            .execute(&TonemapRequest::luminance(&hdr).on_backend("sw-f32?pipeline=filmic"))
            .expect("a scalar filmic plan serves luminance requests");
        assert_eq!(ok.luminance().unwrap().dimensions(), hdr.dimensions());
    }

    #[test]
    fn rgb_requests_still_match_the_classic_wrapper_bit_for_bit() {
        // The RGB arm is now plan composition (`run_color_plan`): on a
        // scalar-input plan it must reproduce the old hard-coded
        // extract/run/reapply wrapper exactly.
        use hdr_image::rgb::{luminance_plane, reapply_color};
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::MemorialComposite.generate_rgb(32, 24, 9);
        for engine in ["sw-f32", "hw-fix16"] {
            let via_plan = registry
                .execute(&TonemapRequest::rgb(&hdr).on_backend(engine))
                .unwrap();
            let luminance = luminance_plane(&hdr);
            let mapped = registry
                .execute(&TonemapRequest::luminance(&luminance).on_backend(engine))
                .unwrap();
            let manual = reapply_color(&hdr, mapped.luminance().unwrap()).unwrap();
            assert_eq!(via_plan.rgb().unwrap(), &manual, "{engine}");
        }
    }

    #[test]
    fn rgb_requests_preserve_dimensions_and_range_for_every_backend() {
        let hdr = SceneKind::SunAndShadow.generate_rgb(24, 24, 3);
        let registry = BackendRegistry::standard();
        for backend in registry.iter() {
            let response = backend
                .execute(&TonemapRequest::rgb(&hdr).with_telemetry())
                .expect("valid RGB request executes");
            let out = response.rgb().expect("display-referred RGB payload");
            assert_eq!(out.dimensions(), hdr.dimensions(), "{}", backend.name());
            assert_eq!(response.telemetry().unwrap().backend, backend.name());
            for p in out.pixels() {
                assert!(p.r >= 0.0 && p.r <= 1.0);
                assert!(p.g >= 0.0 && p.g <= 1.0);
                assert!(p.b >= 0.0 && p.b <= 1.0);
            }
        }
    }
}
