//! How a `schedule=` engine picks its point: per image size, by the
//! scheduler.
//!
//! At the first request of each image size the
//! [`tonemap_scheduler::Scheduler`] enumerates the plan's legal
//! [`SchedulePoint`]s and prices them on the platform model; the spec's
//! mode picks one, and the engine compiles its executor for it and
//! memoizes the result, so every later same-sized request reuses it. The
//! numerics stay the engine row's — the scheduler changes *how* pixels are
//! computed, never their values — so `schedule=auto` output is
//! bit-identical to `schedule=two-pass`.

use crate::engine::Engine;
use crate::error::TonemapError;
use codesign::flow::DesignReport;
use tonemap_scheduler::{PricedPoint, ScheduleMode, SchedulePoint, Scheduler};

impl Engine {
    /// Schedules the engine's plan at one image size: the point the
    /// `schedule=` mode picks, how many points it was chosen from, and the
    /// platform-model evaluation they were priced on.
    pub(crate) fn schedule(
        &self,
        mode: ScheduleMode,
        threads: Option<usize>,
        width: usize,
        height: usize,
    ) -> Result<(PricedPoint, usize, DesignReport), TonemapError> {
        let class = self.row.schedule_class_for(&self.spec)?;
        let scheduler = Scheduler::new(self.params, class)?;
        let report = scheduler.schedule(&self.plan, width, height);
        let enumerated = report.ranked.len();
        let (priced, considered) = match (mode, threads) {
            (ScheduleMode::Auto, _) => (report.winner().clone(), enumerated),
            (ScheduleMode::TwoPass, _) => (report.two_pass().clone(), enumerated),
            (ScheduleMode::Stream, None) => (report.best_streaming().clone(), enumerated),
            (ScheduleMode::Stream, Some(threads)) => {
                let pinned = report
                    .ranked
                    .iter()
                    .find(|p| p.point.executor.is_streaming() && p.point.threads == threads);
                match pinned {
                    Some(priced) => (priced.clone(), enumerated),
                    // Pinned worker counts outside the pruned space (an odd
                    // count, or beyond the host cap) still get an honest
                    // price.
                    None => {
                        let point = SchedulePoint::streaming(
                            &report.decision,
                            threads,
                            class.format,
                            height,
                        );
                        (scheduler.price_point(&self.plan, width, height, &point), 1)
                    }
                }
            }
        };
        Ok((priced, considered, report.base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::BackendRegistry;
    use crate::request::TonemapRequest;
    use hdr_image::synth::SceneKind;
    use std::sync::Arc;
    use tonemap_core::cores;
    use tonemap_core::plan::{PipelineOp, PipelinePlan};
    use tonemap_core::{ToneMapParams, ToneMapper};

    #[test]
    fn schedule_auto_is_bit_identical_to_forced_two_pass() {
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::MemorialComposite.generate(96, 72, 11);
        for engine in ["sw-f32", "hw-fix16"] {
            let auto = registry
                .execute(
                    &TonemapRequest::luminance(&hdr)
                        .on_backend(format!("{engine}?pipeline=basedetail&schedule=auto")),
                )
                .expect("schedule=auto resolves");
            let two_pass = registry
                .execute(
                    &TonemapRequest::luminance(&hdr)
                        .on_backend(format!("{engine}?pipeline=basedetail&schedule=two-pass")),
                )
                .expect("schedule=two-pass resolves");
            assert_eq!(
                auto.luminance().unwrap(),
                two_pass.luminance().unwrap(),
                "{engine}: the scheduler changed pixels, not just the strategy"
            );
        }
    }

    #[test]
    fn schedule_auto_prices_and_serves_colour_plans() {
        // The scheduler enumerates its strategies over colour-managed plans
        // too: `schedule=auto` on an RGB request resolves, records its
        // schedule telemetry, and stays bit-identical to the forced
        // two-pass strategy.
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::SunAndShadow.generate_rgb(64, 48, 19);
        for preset in ["hsv-reinhard", "pq-out", "filmic"] {
            let auto = registry
                .execute(
                    &TonemapRequest::rgb(&hdr)
                        .on_backend(format!("hw-fix16?pipeline={preset}&schedule=auto"))
                        .with_telemetry(),
                )
                .unwrap_or_else(|e| panic!("schedule=auto on `{preset}` must resolve: {e}"));
            let two_pass = registry
                .execute(
                    &TonemapRequest::rgb(&hdr)
                        .on_backend(format!("hw-fix16?pipeline={preset}&schedule=two-pass")),
                )
                .expect("schedule=two-pass resolves");
            assert_eq!(
                auto.rgb().unwrap(),
                two_pass.rgb().unwrap(),
                "{preset}: the scheduler changed pixels, not just the strategy"
            );
            let telemetry = auto.telemetry().expect("telemetry requested");
            let schedule = telemetry
                .schedule
                .as_ref()
                .expect("scheduled colour runs record their resolution");
            assert!(schedule.considered >= 1, "{preset}");
            assert!(
                schedule.predicted_seconds.is_finite() && schedule.predicted_seconds > 0.0,
                "{preset}"
            );
        }
    }

    #[test]
    fn scheduled_runs_carry_schedule_telemetry() {
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::WindowInDarkRoom.generate(64, 48, 3);
        let response = registry
            .execute(
                &TonemapRequest::luminance(&hdr)
                    .on_backend("sw-f32?schedule=auto")
                    .with_telemetry(),
            )
            .expect("schedule=auto on the Fig. 1 chain resolves");
        let telemetry = response.telemetry().expect("telemetry requested");
        let schedule = telemetry
            .schedule
            .as_ref()
            .expect("scheduled runs record their resolution");
        assert!(schedule.considered >= 1);
        assert!(schedule.predicted_seconds.is_finite() && schedule.predicted_seconds > 0.0);
        assert!(schedule.verdict.contains("chosen") || schedule.verdict.contains("forced"));
        // The unscheduled engine stays schedule-free.
        let plain = registry
            .execute(
                &TonemapRequest::luminance(&hdr)
                    .on_backend("sw-f32")
                    .with_telemetry(),
            )
            .unwrap();
        assert!(plain.telemetry().unwrap().schedule.is_none());
    }

    #[test]
    fn schedule_stream_matches_the_streaming_engine_bit_for_bit() {
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::SunAndShadow.generate(80, 60, 7);
        let scheduled = registry
            .execute(
                &TonemapRequest::luminance(&hdr).on_backend("sw-f32?schedule=stream&threads=3"),
            )
            .expect("pinned stream resolves");
        let reference = registry
            .execute(&TonemapRequest::luminance(&hdr).on_backend("sw-f32"))
            .unwrap();
        assert_eq!(
            scheduled.luminance().unwrap(),
            reference.luminance().unwrap(),
            "row slicing must never change pixels"
        );
    }

    #[test]
    fn unschedulable_engines_reject_schedule_specs() {
        let registry = BackendRegistry::standard();
        let err = registry
            .resolve_spec("sw-fix16?schedule=auto")
            .expect_err("the all-fixed ablation has no schedule space");
        match err {
            TonemapError::InvalidSpec { spec, reason } => {
                assert_eq!(spec, "sw-fix16?schedule=auto");
                assert!(reason.contains("no schedule space"), "{reason}");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn schedule_stream_on_a_mask_across_a_barrier_serves_the_reference() {
        let params = ToneMapParams::paper_default();
        // A mask consuming its producer across a histogram barrier: the
        // mask crosses the barrier as a materialized plane.
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur: params.blur,
                invert_input: false,
            },
            PipelineOp::HistogramEq { bins: 64 },
            PipelineOp::Mask(params.masking),
        ])
        .expect("plan validates");
        let reference = ToneMapper::compile(plan.clone(), params).unwrap();
        let registry = BackendRegistry::standard();
        for (spec, slices) in [
            ("sw-f32?schedule=stream", None),
            ("sw-f32?schedule=stream&threads=2", Some(2)),
            ("sw-f32?schedule=stream&threads=8", Some(8)),
        ] {
            let engine = registry
                .resolve_spec(spec)
                .unwrap()
                .backend()
                .reconfigured(params, Some(plan.clone()))
                .unwrap_or_else(|e| panic!("{spec} serves the plan: {e}"));
            // Free cores, then every core held, as by a busy worker pool.
            for hold in [false, true] {
                let held: Vec<cores::Held> = (0..cores::host_cores())
                    .filter(|_| hold)
                    .map(|_| cores::hold())
                    .collect();
                for (w, h) in [(96, 72), (33, 17)] {
                    let hdr = SceneKind::WindowInDarkRoom.generate(w, h, 6);
                    let response = engine
                        .execute(&TonemapRequest::luminance(&hdr).with_telemetry())
                        .expect("the stream serves the plan");
                    let point = response.telemetry().unwrap().point;
                    assert!(point.executor.is_streaming(), "{spec}: {point}");
                    if let Some(slices) = slices {
                        assert_eq!(point.threads, slices, "{spec}");
                    }
                    assert_eq!(
                        response.luminance().unwrap(),
                        &reference.map_luminance_hw_blur::<f32>(&hdr),
                        "{spec} at {w}x{h}, cores held: {hold}"
                    );
                }
                drop(held);
            }
        }
    }

    #[test]
    fn schedule_specs_are_memoized_per_spec_string() {
        let registry = BackendRegistry::standard();
        let first = registry
            .resolve_spec("sw-f32?pipeline=basedetail&schedule=auto")
            .unwrap();
        let second = registry
            .resolve_spec("sw-f32?pipeline=basedetail&schedule=auto")
            .unwrap();
        assert!(
            Arc::ptr_eq(&first.backend_shared(), &second.backend_shared()),
            "repeated resolution must reuse the scheduled engine and its per-resolution cache"
        );
    }

    #[test]
    fn scheduled_infos_describe_the_schedule_request() {
        let registry = BackendRegistry::standard();
        let resolved = registry
            .resolve_spec("hw-fix16?schedule=stream&threads=2")
            .unwrap();
        let info = resolved.backend().info();
        assert!(info.is_scheduled());
        let schedule = info.schedule.as_ref().unwrap();
        assert!(schedule.contains("schedule=stream"), "{schedule}");
        assert!(schedule.contains("threads=2"), "{schedule}");
        assert!(info.to_string().contains("schedule=stream"));
    }

    #[test]
    fn pinned_thread_counts_outside_the_space_still_execute() {
        let registry = BackendRegistry::standard();
        let hdr = SceneKind::GradientRamp.generate(40, 30, 5);
        // 7 workers on a 30-row image: never enumerated, still honest.
        let response = registry
            .execute(
                &TonemapRequest::luminance(&hdr)
                    .on_backend("sw-f32?schedule=stream&threads=7")
                    .with_telemetry(),
            )
            .expect("forced odd thread count executes");
        let telemetry = response.telemetry().unwrap();
        assert_eq!(telemetry.point.threads, 7);
        let schedule = telemetry.schedule.clone().unwrap();
        assert_eq!(schedule.considered, 1);
        assert_eq!(schedule.verdict, "forced by the caller");
        let reference = registry
            .execute(&TonemapRequest::luminance(&hdr).on_backend("sw-f32"))
            .unwrap();
        assert_eq!(
            response.luminance().unwrap(),
            reference.luminance().unwrap()
        );
    }
}
