//! Deterministic concurrency fixtures for the service test suites.
//!
//! Concurrency bugs hide in interleavings, and interleavings driven by
//! `thread::sleep` are both slow and flaky. This module scripts exact
//! schedules instead: a [`Gate`] parks a worker *inside* an executing job
//! until the test releases it, so tests can hold chosen workers busy,
//! trigger shutdown mid-drain, or fill the queue to a known depth — all
//! without a single sleep. [`GatedBackend`] is the standard
//! `sw-f32` engine with a gate bolted onto its entry, and
//! [`PanickingBackend`] injects a worker-side panic for the
//! fault-isolation suite.

#![allow(dead_code)]

use std::sync::{Arc, Condvar, Mutex};
use tonemap_backend::{BackendOutput, BackendRegistry, TonemapBackend, TonemapError};
use tonemap_core::{PipelinePlan, ToneMapParams};

/// A counting rendezvous: threads [`Gate::arrive_and_wait`], the test
/// observes arrivals with [`Gate::wait_for_arrivals`] and lets a chosen
/// number of waiters through with [`Gate::release`].
///
/// Releases are counted, not broadcast-once: a release issued before the
/// matching arrival is banked, so tests never race the worker to the gate.
#[derive(Debug, Default)]
pub struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    arrived: u64,
    releases: u64,
}

impl Gate {
    /// Creates a gate with no arrivals and no banked releases.
    pub fn new() -> Arc<Gate> {
        Arc::new(Gate::default())
    }

    /// Called by the gated thread: records the arrival and blocks until a
    /// release is available, consuming it.
    pub fn arrive_and_wait(&self) {
        let mut state = self.state.lock().expect("gate lock poisoned");
        state.arrived += 1;
        self.changed.notify_all();
        while state.releases == 0 {
            state = self.changed.wait(state).expect("gate lock poisoned");
        }
        state.releases -= 1;
    }

    /// Blocks the test thread until at least `n` threads (cumulatively)
    /// have arrived at the gate.
    pub fn wait_for_arrivals(&self, n: u64) {
        let mut state = self.state.lock().expect("gate lock poisoned");
        while state.arrived < n {
            state = self.changed.wait(state).expect("gate lock poisoned");
        }
    }

    /// Banks `n` releases, each letting one waiter (present or future)
    /// through the gate.
    pub fn release(&self, n: u64) {
        let mut state = self.state.lock().expect("gate lock poisoned");
        state.releases += n;
        self.changed.notify_all();
    }

    /// How many threads have ever arrived at the gate.
    pub fn arrivals(&self) -> u64 {
        self.state.lock().expect("gate lock poisoned").arrived
    }
}

/// The standard `sw-f32` engine behind a [`Gate`]: every
/// `run_luminance` call first parks at the gate, then delegates, so its
/// output is bit-identical to the reference while its *timing* is under
/// test control.
pub struct GatedBackend {
    inner: Arc<dyn TonemapBackend>,
    gate: Arc<Gate>,
    name: &'static str,
}

impl std::fmt::Debug for GatedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatedBackend")
            .field("name", &self.name)
            .field("inner", &self.inner.name())
            .field("gate", &self.gate)
            .finish()
    }
}

impl GatedBackend {
    /// Wraps a fresh paper-default `sw-f32` engine with `gate`, registered
    /// as `"gated"`.
    pub fn new(gate: Arc<Gate>) -> GatedBackend {
        GatedBackend::with_name(gate, "gated")
    }

    /// Same, under a caller-chosen registry name — tests that must release
    /// a *specific* worker register two gated engines with separate gates.
    pub fn with_name(gate: Arc<Gate>, name: &'static str) -> GatedBackend {
        GatedBackend {
            inner: BackendRegistry::standard()
                .get_shared("sw-f32")
                .expect("the standard registry serves sw-f32"),
            gate,
            name,
        }
    }
}

impl TonemapBackend for GatedBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        "test harness: sw-f32 behind a rendezvous gate"
    }

    fn params(&self) -> ToneMapParams {
        self.inner.params()
    }

    fn reconfigured(
        &self,
        params: ToneMapParams,
        plan: Option<PipelinePlan>,
    ) -> Result<Arc<dyn TonemapBackend>, TonemapError> {
        Ok(Arc::new(GatedBackend {
            inner: self.inner.reconfigured(params, plan)?,
            gate: Arc::clone(&self.gate),
            name: self.name,
        }))
    }

    fn run_luminance(
        &self,
        input: &hdr_image::LuminanceImage,
        params: Option<&ToneMapParams>,
        plan: Option<&PipelinePlan>,
        with_model: bool,
    ) -> Result<BackendOutput, TonemapError> {
        self.gate.arrive_and_wait();
        self.inner.run_luminance(input, params, plan, with_model)
    }

    fn design_report(&self, width: usize, height: usize) -> Option<codesign::flow::DesignReport> {
        self.inner.design_report(width, height)
    }
}

/// A backend whose `run_luminance` always panics — the fault-injection
/// suite uses it to prove a worker panic is contained to the one job.
#[derive(Debug, Default)]
pub struct PanickingBackend;

impl TonemapBackend for PanickingBackend {
    fn name(&self) -> &'static str {
        "panicking"
    }

    fn description(&self) -> &'static str {
        "test harness: panics on every job"
    }

    fn params(&self) -> ToneMapParams {
        ToneMapParams::paper_default()
    }

    fn reconfigured(
        &self,
        _params: ToneMapParams,
        _plan: Option<PipelinePlan>,
    ) -> Result<Arc<dyn TonemapBackend>, TonemapError> {
        Ok(Arc::new(PanickingBackend))
    }

    fn run_luminance(
        &self,
        _input: &hdr_image::LuminanceImage,
        _params: Option<&ToneMapParams>,
        _plan: Option<&PipelinePlan>,
        _with_model: bool,
    ) -> Result<BackendOutput, TonemapError> {
        panic!("injected fault: PanickingBackend::run_luminance");
    }

    fn design_report(&self, _width: usize, _height: usize) -> Option<codesign::flow::DesignReport> {
        None
    }
}

/// The standard registry plus the harness backends, sharing `gate`.
pub fn harness_registry(gate: &Arc<Gate>) -> BackendRegistry {
    let mut registry = BackendRegistry::standard();
    registry.register(Arc::new(GatedBackend::new(Arc::clone(gate))));
    registry.register(Arc::new(PanickingBackend));
    registry
}
