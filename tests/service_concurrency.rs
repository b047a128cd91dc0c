//! Concurrency contract of the `tonemap-service` layer: determinism at any
//! worker count, backpressure on the bounded queue, and graceful shutdown
//! with jobs in flight.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tonemap_zynq_repro::prelude::*;

/// Every registered engine name — the registry is the source of truth, so
/// a newly registered engine is covered by these tests automatically.
fn engine_specs() -> Vec<&'static str> {
    BackendRegistry::standard().names()
}

/// Two scenes per engine spec, so every engine executes on every
/// worker-count configuration.
fn job_set(side: usize) -> (Vec<Arc<LuminanceImage>>, Vec<&'static str>) {
    let specs = engine_specs();
    let count = specs.len() * 2;
    let scenes = (0..count)
        .map(|i| Arc::new(SceneKind::WindowInDarkRoom.generate(side, side, 40 + i as u64)))
        .collect();
    let specs = (0..count).map(|i| specs[i % specs.len()]).collect();
    (scenes, specs)
}

#[test]
fn outputs_are_bit_identical_at_1_2_and_8_workers() {
    let (scenes, specs) = job_set(32);
    let registry = BackendRegistry::standard();
    let baseline: Vec<TonemapResponse> = scenes
        .iter()
        .zip(&specs)
        .map(|(scene, spec)| {
            registry
                .execute(&TonemapRequest::luminance(scene).on_backend(*spec))
                .expect("standard specs execute")
        })
        .collect();

    for workers in [1, 2, 8] {
        let service = TonemapService::standard(ServiceConfig::with_workers(workers));
        let jobs = scenes
            .iter()
            .zip(&specs)
            .map(|(scene, spec)| JobRequest::luminance(Arc::clone(scene)).on_backend(*spec))
            .collect();
        let responses = service.execute_batch(jobs).expect("batch executes");
        assert_eq!(responses.len(), baseline.len());
        for (index, (pooled, single)) in responses.iter().zip(&baseline).enumerate() {
            assert_eq!(
                pooled.payload(),
                single.payload(),
                "job {index} ({}) diverged at {workers} workers",
                specs[index]
            );
        }
    }
}

#[test]
fn rgb_and_override_jobs_are_deterministic_across_worker_counts() {
    let rgb = Arc::new(SceneKind::SunAndShadow.generate_rgb(24, 24, 9));
    let registry = BackendRegistry::standard();
    let direct = registry
        .execute(
            &TonemapRequest::rgb(&rgb)
                .on_backend("hw-fix16?sigma=3.0")
                .with_output(OutputKind::Ldr8),
        )
        .expect("override spec executes");
    for workers in [1, 8] {
        let service = TonemapService::standard(ServiceConfig::with_workers(workers));
        let handle = service
            .submit(
                JobRequest::rgb(Arc::clone(&rgb))
                    .on_backend("hw-fix16?sigma=3.0")
                    .with_output(OutputKind::Ldr8),
            )
            .expect("service admits the job");
        let response = handle.wait().expect("job completes");
        assert_eq!(response.payload(), direct.payload());
    }
}

// The deterministic gated-worker backpressure scenario lives with the pool
// itself (`crates/service/src/pool.rs` unit tests); here the queue bound is
// exercised through the full service surface instead.
#[test]
fn service_backpressure_rejects_and_counts_when_the_queue_fills() {
    // One worker, one queue slot: a burst of non-blocking submissions must
    // hit QueueFull long before the worker drains 128x128 jobs.
    let service = TonemapService::standard(ServiceConfig::with_workers(1).queue_capacity(1));
    let scene = Arc::new(SceneKind::WindowInDarkRoom.generate(128, 128, 3));
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..32 {
        match service.try_submit(JobRequest::luminance(Arc::clone(&scene))) {
            Ok(handle) => accepted.push(handle),
            Err(ServiceError::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected admission failure: {other}"),
        }
    }
    assert!(
        rejected > 0,
        "a 32-job burst into a 1-slot queue must shed load"
    );
    assert!(!accepted.is_empty(), "some jobs must be admitted");
    for handle in accepted {
        handle.wait().expect("admitted jobs complete");
    }
    let stats = service.stats();
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.submitted + stats.rejected, 32);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn graceful_shutdown_completes_in_flight_and_queued_jobs() {
    let service = TonemapService::standard(ServiceConfig::with_workers(2).queue_capacity(16));
    let scene = Arc::new(SceneKind::WindowInDarkRoom.generate(64, 64, 11));
    let specs = engine_specs();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            service
                .submit(
                    JobRequest::luminance(Arc::clone(&scene)).on_backend(specs[i % specs.len()]),
                )
                .expect("service admits the job")
        })
        .collect();
    // Shut down immediately: jobs are still queued and in flight.
    service.shutdown();
    assert!(service.is_shut_down());
    for handle in handles {
        let response = handle
            .wait()
            .expect("in-flight jobs complete across shutdown");
        assert_eq!(response.dimensions(), (64, 64));
    }
    let stats = service.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.queue_depth, 0);
    assert!(matches!(
        service.submit(JobRequest::luminance(Arc::clone(&scene))),
        Err(ServiceError::ShutDown)
    ));
}

#[test]
fn per_engine_attribution_follows_the_job_spec() {
    // The per-engine split must follow each job's resolved spec exactly —
    // per-spec job counts, never per-worker ones — with eight workers
    // racing for the queue.
    let service = TonemapService::standard(ServiceConfig::with_workers(8).queue_capacity(64));
    let specs = engine_specs();
    let scene = Arc::new(SceneKind::WindowInDarkRoom.generate(32, 32, 77));
    let per_spec = 3usize;
    let jobs = (0..specs.len() * per_spec)
        .map(|i| JobRequest::luminance(Arc::clone(&scene)).on_backend(specs[i % specs.len()]))
        .collect();
    service.execute_batch(jobs).expect("batch executes");

    let stats = service.stats();
    assert_eq!(stats.completed, (specs.len() * per_spec) as u64);
    for spec in &specs {
        let engine = stats
            .per_engine
            .iter()
            .find(|e| e.engine == *spec)
            .unwrap_or_else(|| panic!("engine {spec} missing from the per-engine split"));
        assert_eq!(
            engine.jobs, per_spec as u64,
            "{spec} must be credited exactly its own jobs"
        );
    }
    assert_eq!(
        stats.per_engine.iter().map(|e| e.jobs).sum::<u64>(),
        stats.completed
    );
}

#[test]
fn priority_and_deadline_jobs_flow_through_the_public_surface() {
    // The v2 serving policies through the facade: an interactive job and a
    // batch job produce identical pixels (priority is a scheduling hint,
    // never a numeric path), per-class latency histograms see one job
    // each, and an over-calibrated admission model sheds a tight deadline.
    let service = TonemapService::standard(ServiceConfig::with_workers(2));
    let scene = Arc::new(SceneKind::WindowInDarkRoom.generate(32, 32, 78));
    let interactive = service
        .submit(JobRequest::luminance(Arc::clone(&scene)).with_priority(Priority::Interactive))
        .expect("interactive job admitted")
        .wait()
        .expect("interactive job completes");
    let batch = service
        .submit(JobRequest::luminance(Arc::clone(&scene)))
        .expect("batch job admitted")
        .wait()
        .expect("batch job completes");
    assert_eq!(interactive.payload(), batch.payload());

    let stats = service.stats();
    assert_eq!(stats.latency(Priority::Interactive).count(), 1);
    assert_eq!(stats.latency(Priority::Batch).count(), 1);

    service.calibrate_admission(1.0); // pretend every job takes a second
    match service.submit(
        JobRequest::luminance(Arc::clone(&scene))
            .with_deadline(std::time::Duration::from_millis(1)),
    ) {
        Err(ServiceError::DeadlineUnmeetable { .. }) => {}
        other => panic!("expected admission to shed the 1 ms budget, got {other:?}"),
    }
    assert_eq!(service.stats().shed, 1);
}

#[test]
fn batch_failures_surface_the_first_job_error() {
    let service = TonemapService::standard(ServiceConfig::default());
    let scene = Arc::new(SceneKind::GradientRamp.generate(16, 16, 5));
    let jobs = vec![
        JobRequest::luminance(Arc::clone(&scene)),
        JobRequest::luminance(Arc::clone(&scene)).on_backend("gpu-cuda"),
        JobRequest::luminance(Arc::clone(&scene)),
    ];
    match service.execute_batch(jobs) {
        Err(ServiceError::Tonemap(TonemapError::UnknownBackend(e))) => {
            assert_eq!(e.name, "gpu-cuda");
        }
        other => panic!("expected the unknown-backend job to fail the batch, got {other:?}"),
    }
}

#[test]
fn concurrent_submitters_share_one_service() {
    // The service handle is Sync: several OS threads submit through one
    // instance and every job completes exactly once.
    let service = Arc::new(TonemapService::standard(
        ServiceConfig::with_workers(4).queue_capacity(64),
    ));
    let scene = Arc::new(SceneKind::WindowInDarkRoom.generate(24, 24, 21));
    let completed = Arc::new(AtomicUsize::new(0));
    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let service = Arc::clone(&service);
            let scene = Arc::clone(&scene);
            let completed = Arc::clone(&completed);
            let specs = engine_specs();
            std::thread::spawn(move || {
                for i in 0..5 {
                    let handle = service
                        .submit(
                            JobRequest::luminance(Arc::clone(&scene))
                                .on_backend(specs[(t + i) % specs.len()]),
                        )
                        .expect("service admits concurrent submissions");
                    handle.wait().expect("job completes");
                    completed.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for submitter in submitters {
        submitter.join().expect("submitter thread finishes");
    }
    assert_eq!(completed.load(Ordering::SeqCst), 20);
    let stats = service.stats();
    assert_eq!(stats.completed, 20);
    assert_eq!(stats.failed, 0);
    assert!(stats.per_engine.iter().map(|e| e.jobs).sum::<u64>() == 20);
}
