//! Scripted-interleaving regressions for the service's concurrency
//! machinery.
//!
//! Each test drives the scheduler into one specific race window using the
//! gate fixtures from `harness` — workers are parked *inside* executing
//! jobs and released one at a time, so the interleaving under test is the
//! only one that can occur. There are no sleeps anywhere: every ordering
//! is enforced by a rendezvous, and every assertion is
//! interleaving-invariant (it holds in all schedules the script permits).

mod harness;

use harness::{Gate, GatedBackend, PanickingBackend};
use hdr_image::synth::SceneKind;
use std::sync::Arc;
use std::time::Duration;
use tonemap_backend::{BackendRegistry, TonemapError, TonemapRequest};
use tonemap_service::{JobRequest, ServiceConfig, ServiceError, TonemapService};

/// A registry with two independently gated engines (`gated`, `gated-b`),
/// so a test can park two workers and release a chosen one.
fn dual_gate_registry() -> (BackendRegistry, Arc<Gate>, Arc<Gate>) {
    let gate_a = Gate::new();
    let gate_b = Gate::new();
    let mut registry = BackendRegistry::standard();
    registry.register(Arc::new(GatedBackend::with_name(
        Arc::clone(&gate_a),
        "gated",
    )));
    registry.register(Arc::new(GatedBackend::with_name(
        Arc::clone(&gate_b),
        "gated-b",
    )));
    registry.register(Arc::new(PanickingBackend));
    (registry, gate_a, gate_b)
}

#[test]
fn a_parked_worker_does_not_strand_the_queue() {
    // Park both workers inside gated jobs, queue a plain job, then free
    // only the worker holding the `gated-b` job. The plain job must
    // complete while the other worker is still parked.
    let (registry, gate_a, gate_b) = dual_gate_registry();
    let service = TonemapService::new(registry, ServiceConfig::with_workers(2));
    let scene = SceneKind::WindowInDarkRoom.generate(24, 24, 31);

    let parked_a = service
        .submit(JobRequest::luminance(scene.clone()).on_backend("gated"))
        .unwrap();
    let parked_b = service
        .submit(JobRequest::luminance(scene.clone()).on_backend("gated-b"))
        .unwrap();
    gate_a.wait_for_arrivals(1);
    gate_b.wait_for_arrivals(1); // both workers are now parked mid-job

    let pending = service
        .submit(JobRequest::luminance(scene.clone()))
        .unwrap();
    gate_b.release(1); // free only the worker inside the gated-b job

    let response = pending.wait().expect("the plain job must still run");
    let direct = BackendRegistry::standard()
        .execute(&TonemapRequest::luminance(&scene))
        .unwrap();
    assert_eq!(response.payload(), direct.payload());
    let parked_a = parked_a
        .wait_timeout(Duration::ZERO)
        .expect_err("the gated job's worker is still parked");

    // Attribution is by job spec, not by the worker that ran it.
    let stats = service.stats();
    let sw = stats
        .per_engine
        .iter()
        .find(|e| e.engine == "sw-f32")
        .expect("the plain job attributes to the engine it named");
    assert_eq!(sw.jobs, 1);

    gate_a.release(1);
    assert!(parked_a.wait().is_ok());
    assert!(parked_b.wait().is_ok());
    let stats = service.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn shutdown_during_parked_workers_completes_every_queued_job() {
    // Shutdown mid-drain: raise the shutdown flag while both workers are
    // parked and four jobs sit queued, then release the gates. Every
    // queued job must complete, and no submission sneaks in after the flag.
    let (registry, gate_a, gate_b) = dual_gate_registry();
    let service = TonemapService::new(registry, ServiceConfig::with_workers(2));
    let scene = SceneKind::MemorialComposite.generate(24, 24, 32);

    let parked_a = service
        .submit(JobRequest::luminance(scene.clone()).on_backend("gated"))
        .unwrap();
    let parked_b = service
        .submit(JobRequest::luminance(scene.clone()).on_backend("gated-b"))
        .unwrap();
    gate_a.wait_for_arrivals(1);
    gate_b.wait_for_arrivals(1);

    let queued: Vec<_> = (0..4)
        .map(|_| {
            service
                .submit(JobRequest::luminance(scene.clone()))
                .unwrap()
        })
        .collect();

    std::thread::scope(|scope| {
        let shutdown = scope.spawn(|| service.shutdown());
        // The flag goes up before shutdown blocks on the drain; once it is
        // visible, new submissions must be refused even though six jobs
        // are still in the system.
        while !service.is_shut_down() {
            std::thread::yield_now();
        }
        assert!(matches!(
            service.submit(JobRequest::luminance(scene.clone())),
            Err(ServiceError::ShutDown)
        ));
        gate_a.release(1);
        gate_b.release(1);
        shutdown.join().expect("shutdown thread does not panic");
    });

    assert!(parked_a.wait().is_ok());
    assert!(parked_b.wait().is_ok());
    for handle in queued {
        assert!(
            handle.wait().is_ok(),
            "queued jobs complete across shutdown"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn a_deadline_expires_behind_a_parked_worker() {
    // Deadline expiry at dequeue: with the only worker parked, a
    // zero-budget job is admitted (no admission evidence yet), waits in
    // the queue past its deadline, and must be cancelled — not executed —
    // when the worker frees.
    let (registry, gate_a, _gate_b) = dual_gate_registry();
    let service = TonemapService::new(registry, ServiceConfig::with_workers(1));
    let scene = SceneKind::GradientRamp.generate(16, 16, 33);

    let parked = service
        .submit(JobRequest::luminance(scene.clone()).on_backend("gated"))
        .unwrap();
    gate_a.wait_for_arrivals(1);

    let doomed = service
        .submit(JobRequest::luminance(scene.clone()).with_deadline(Duration::ZERO))
        .unwrap();
    gate_a.release(1);

    match doomed.wait() {
        Err(ServiceError::Tonemap(TonemapError::DeadlineExceeded { .. })) => {}
        other => panic!("expected a dequeue-time cancellation, got {other:?}"),
    }
    assert!(parked.wait().is_ok());
    let stats = service.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn backpressure_holds_at_capacity_then_releases() {
    // Pool-exhaustion backpressure: with the single worker parked and the
    // one-slot queue full, `try_submit` must refuse deterministically, and
    // a blocking `submit` must park the submitter until the gate opens —
    // then every job (including the one submitted under backpressure)
    // completes.
    let (registry, gate_a, _gate_b) = dual_gate_registry();
    let service = TonemapService::new(registry, ServiceConfig::with_workers(1).queue_capacity(1));
    let scene = SceneKind::WindowInDarkRoom.generate(16, 16, 34);

    let parked = service
        .submit(JobRequest::luminance(scene.clone()).on_backend("gated"))
        .unwrap();
    gate_a.wait_for_arrivals(1); // worker busy, queue empty

    let queued = service
        .try_submit(JobRequest::luminance(scene.clone()))
        .expect("the single queue slot is free");
    let refused = service.try_submit(JobRequest::luminance(scene.clone()));
    assert!(matches!(refused, Err(ServiceError::QueueFull)));
    assert_eq!(service.stats().rejected, 1);

    std::thread::scope(|scope| {
        let blocked = scope.spawn(|| service.submit(JobRequest::luminance(scene.clone())));
        gate_a.release(1); // parked job finishes → slot frees → submit unblocks
        let late = blocked.join().expect("submitter thread does not panic");
        assert!(late
            .expect("the blocked submission is admitted")
            .wait()
            .is_ok());
    });

    assert!(parked.wait().is_ok());
    assert!(queued.wait().is_ok());
    let stats = service.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.queue_depth, 0);
}
