//! Video streams through the service, end to end: per-stream FIFO order
//! with more streams than workers, bit-identical agreement with a locally-driven
//! session, frame-pool staging reuse, and the typed error surface.

use hdr_image::sequence::{FrameSequence, SequenceKind};
use hdr_image::synth::SceneKind;
use hdr_image::LuminanceImage;
use tonemap_service::{
    FrameSequenceRequest, JobRequest, ServiceConfig, ServiceError, TonemapService,
};
use tonemap_video::VideoSession;

/// More streams than workers, racing for them: every stream's frames
/// still process in submission order, and the whole stream is
/// bit-identical to driving the same spec's session locally — the
/// strongest order witness, since leaky adaptation makes any reordering
/// change the pixels.
#[test]
fn concurrent_streams_match_locally_driven_sessions_bitwise() {
    let spec = "sw-f32?pipeline=reinhard&temporal=leaky&tau=3&cutthresh=1.0";
    let service = TonemapService::standard(ServiceConfig::with_workers(4).queue_capacity(64));
    let sequences: Vec<FrameSequence> = [
        (SequenceKind::ExposureRamp { decades: 1.0 }, 11),
        (
            SequenceKind::RampWithCut {
                decades: 1.0,
                cut_at: 6,
            },
            23,
        ),
        (
            SequenceKind::Pan {
                pixels_per_frame: 3,
            },
            37,
        ),
        (SequenceKind::Static, 41),
    ]
    .into_iter()
    .map(|(kind, seed)| FrameSequence::new(kind, SceneKind::WindowInDarkRoom, 40, 32, 12, seed))
    .collect();

    let mut streams = Vec::new();
    for _ in &sequences {
        streams.push(
            service
                .open_stream(FrameSequenceRequest::on_backend(spec))
                .unwrap(),
        );
    }
    // Interleave submissions across streams so the streams race.
    let mut handles: Vec<Vec<_>> = streams.iter().map(|_| Vec::new()).collect();
    for index in 0..12 {
        for (stream, sequence) in streams.iter_mut().zip(&sequences) {
            handles[stream.stream_id() as usize].push(
                stream
                    .submit_frame(&sequence.frame(index))
                    .expect("submission while running cannot fail"),
            );
        }
    }

    for ((sequence, per_stream), stream) in sequences.iter().zip(handles).zip(&streams) {
        let mut reference = VideoSession::from_spec(spec).unwrap();
        let mut last_seq = None;
        for (index, handle) in per_stream.into_iter().enumerate() {
            let outcome = handle.wait().unwrap();
            // Processing order == submission order…
            assert_eq!(outcome.metrics.index, index);
            // …dequeue order too (one mailbox per stream ⇒ ascending seq)…
            assert!(last_seq < Some(outcome.dequeue_seq));
            last_seq = Some(outcome.dequeue_seq);
            // …and the pixels prove it: any reordering would change the
            // adapted state every later frame sees.
            let (expected, expected_metrics) = reference.process(&sequence.frame(index));
            assert_eq!(outcome.output.pixels(), expected.pixels());
            assert_eq!(outcome.metrics, expected_metrics);
        }
        // Scene cuts surface through the stream handle.
        assert_eq!(
            stream.cuts(),
            sequence.cut_frame().into_iter().collect::<Vec<_>>()
        );
        assert_eq!(stream.summary().frames, 12);
    }

    let stats = service.stats();
    assert_eq!(stats.frames_completed, 48);
    assert_eq!(stats.streams_active, 4);
    assert_eq!(stats.submitted, 0, "frames are not jobs");
    drop(streams);
    assert_eq!(service.stats().streams_active, 0);
}

/// Satellite: a 100-frame stream stages every frame through the service's
/// frame pool, and steady state reuses recycled buffers instead of
/// allocating.
#[test]
fn a_hundred_frame_stream_reuses_pooled_staging_frames() {
    let service = TonemapService::standard(ServiceConfig::with_workers(1));
    let sequence = FrameSequence::new(
        SequenceKind::ExposureRamp { decades: 1.5 },
        SceneKind::SunAndShadow,
        32,
        24,
        100,
        5,
    );
    let mut stream = service
        .open_stream(FrameSequenceRequest::on_backend("sw-f32?temporal=leaky"))
        .unwrap();
    for frame in sequence.frames() {
        let outcome = stream.submit_frame(&frame).unwrap().wait().unwrap();
        // Hand the delivered output back too: the pool sees both sides.
        stream.recycle(outcome.output);
    }
    let pool = service.frame_pool_stats();
    assert_eq!(pool.acquired, 100, "every frame staged through the pool");
    assert!(
        pool.reused >= 98,
        "steady-state staging must reuse recycled frames, stats: {pool:?}"
    );
    assert!(pool.allocated <= 2);
    assert_eq!(pool.dropped_poisoned, 0);
    assert_eq!(service.stats().frames_completed, 100);
}

/// The typed error surface: stream opening fails typed, and single-frame
/// jobs carrying temporal keys are refused by the registry with a pointer
/// at the stream API.
#[test]
fn stream_errors_are_typed_and_temporal_jobs_are_refused() {
    let service = TonemapService::standard(ServiceConfig::with_workers(1));
    // Unknown engine in the stream spec.
    match service.open_stream(FrameSequenceRequest::on_backend("gpu-cuda?temporal=leaky")) {
        Err(ServiceError::Video(e)) => assert!(e.to_string().contains("gpu-cuda"), "{e}"),
        other => panic!("expected a typed video error, got {other:?}"),
    }
    // Malformed temporal keys in the stream spec.
    match service.open_stream(FrameSequenceRequest::on_backend("sw-f32?tau=0.5")) {
        Err(ServiceError::Video(e)) => {
            assert!(e.to_string().contains("temporal=leaky"), "{e}")
        }
        other => panic!("expected a typed video error, got {other:?}"),
    }
    assert_eq!(service.stats().streams_active, 0);
    // A single-frame job naming temporal keys is refused at resolution
    // and points the caller at the stream API.
    let scene = SceneKind::GradientRamp.generate(8, 8, 1);
    let outcome = service
        .submit(JobRequest::luminance(scene).on_backend("sw-f32?temporal=leaky&tau=2"))
        .unwrap()
        .wait();
    match outcome {
        Err(ServiceError::Tonemap(e)) => {
            assert!(e.to_string().contains("video-session adaptation"), "{e}")
        }
        other => panic!("expected the registry's temporal rejection, got {other:?}"),
    }
}

/// A frame whose samples are all negative leaves a Reinhard stream
/// serving: the session floors the log-average at 0 instead of taking the
/// logarithm of a negative sample, so neither that frame nor any later one
/// comes back `Lost`, and every frame still equals a local session's.
#[test]
fn a_non_positive_frame_does_not_stop_a_served_reinhard_stream() {
    let spec = "sw-f32?pipeline=reinhard&temporal=leaky&tau=4";
    let service = TonemapService::standard(ServiceConfig::with_workers(2));
    let room = FrameSequence::new(
        SequenceKind::ExposureRamp { decades: 1.0 },
        SceneKind::WindowInDarkRoom,
        32,
        24,
        4,
        3,
    );
    let negative = LuminanceImage::filled(32, 24, -0.5);
    let frames = [
        room.frame(0),
        room.frame(1),
        negative,
        room.frame(2),
        room.frame(3),
    ];
    let mut stream = service
        .open_stream(FrameSequenceRequest::on_backend(spec))
        .unwrap();
    let mut local = VideoSession::from_spec(spec).unwrap();
    for (index, frame) in frames.iter().enumerate() {
        let outcome = stream
            .submit_frame(frame)
            .unwrap()
            .wait()
            .unwrap_or_else(|e| panic!("frame {index} was not served: {e}"));
        let (expected, expected_metrics) = local.process(frame);
        assert_eq!(outcome.output.pixels(), expected.pixels(), "frame {index}");
        assert_eq!(outcome.metrics, expected_metrics, "frame {index}");
        assert!(outcome.output.pixels().iter().all(|v| v.is_finite()));
    }
    assert_eq!(service.stats().frames_completed, frames.len() as u64);
}

/// A Reinhard key near `f32::MAX` on a darkening ramp: the adapted key
/// (the spec's key times the adaptation ratio) would overflow to ∞. It
/// saturates instead, so every frame is served, finite and equal to a
/// local session's; no worker panics and no later frame comes back `Lost`.
#[test]
fn a_large_reinhard_key_does_not_stop_a_served_leaky_stream() {
    let spec = "sw-f32?pipeline=reinhard&reinhard_key=3e38&temporal=leaky&tau=2";
    let service = TonemapService::standard(ServiceConfig::with_workers(2));
    let frames = FrameSequence::new(
        SequenceKind::ExposureRamp { decades: -1.0 },
        SceneKind::WindowInDarkRoom,
        32,
        24,
        8,
        0,
    );
    let mut stream = service
        .open_stream(FrameSequenceRequest::on_backend(spec))
        .unwrap();
    let mut local = VideoSession::from_spec(spec).unwrap();
    for (index, frame) in frames.frames().enumerate() {
        let outcome = stream
            .submit_frame(&frame)
            .unwrap()
            .wait()
            .unwrap_or_else(|e| panic!("frame {index} was not served: {e}"));
        let (expected, expected_metrics) = local.process(&frame);
        assert_eq!(outcome.output.pixels(), expected.pixels(), "frame {index}");
        assert_eq!(outcome.metrics, expected_metrics, "frame {index}");
        assert!(outcome.output.pixels().iter().all(|v| v.is_finite()));
    }
    assert_eq!(service.stats().frames_completed, frames.len() as u64);
}

/// Streams honour the scheduler surface: a `schedule=auto` stream prices
/// the plan once per resolution and still matches the local session.
#[test]
fn auto_scheduled_streams_serve_through_the_pool() {
    let spec = "sw-f32?pipeline=basedetail&schedule=auto&temporal=leaky&tau=2";
    let service = TonemapService::standard(ServiceConfig::with_workers(2));
    let sequence = FrameSequence::new(
        SequenceKind::ExposureRamp { decades: 1.0 },
        SceneKind::MemorialComposite,
        48,
        36,
        4,
        13,
    );
    let mut stream = service
        .open_stream(FrameSequenceRequest::on_backend(spec))
        .unwrap();
    let mut reference = VideoSession::from_spec(spec).unwrap();
    for frame in sequence.frames() {
        let outcome = stream.submit_frame(&frame).unwrap().wait().unwrap();
        let (expected, _) = reference.process(&frame);
        assert_eq!(outcome.output.pixels(), expected.pixels());
    }
    assert_eq!(service.stats().frames_completed, 4);
}
