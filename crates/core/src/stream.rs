//! The streaming pipeline planner — the Fig. 4 line buffer in software,
//! cascaded — and the one executor every engine runs.
//!
//! [`crate::ToneMapper`] materialises a full-size intermediate image after
//! every stage of its plan and blurs pixel by pixel — one DDR round trip
//! per stage, exactly the memory traffic the paper's restructured
//! accelerator eliminates with its BRAM line buffer. It stays as the
//! independent reference. [`StreamingToneMapper`] is the software analogue
//! of that restructuring, generalised to any [`PipelinePlan`]: it
//! *compiles* the plan into fused raster-order segments, stage class by
//! stage class:
//!
//! * **point ops** (normalize, mask and every [`crate::plan::Curve`]) fuse
//!   freely into the chains of whichever fused region consumes them,
//!   applied as row kernels: each op matched once per row, then run
//!   op-major over the row;
//! * **each stencil op** (a separable Gaussian blur) becomes its own
//!   rolling ring of `2·radius + 4` horizontally-blurred rows — one line
//!   buffer per stencil, cascaded back-to-back so stage *k*'s ring is fed
//!   on demand by stage *k − 1*'s rows (staggered row latency = sum of the
//!   upstream radii), the way HWTool and the Halide-to-hardware flows
//!   compose line-buffered stages. Both passes of a stencil are
//!   output-stationary, like the pipelined datapath of Fig. 4: a block of
//!   output samples accumulates in registers over all taps and is stored
//!   once. The vertical pass computes a band of four output rows per sweep
//!   of its ring, so each ring-row block it loads feeds four rows'
//!   accumulators, and the ring holds one band's window. Fixed-point taps
//!   whose weights and samples are all non-negative sum exactly in integer
//!   lanes ([`Sample::nonneg_tap`]), bit-identical to the per-tap
//!   [`Sample::mul_add`] that every other pass takes;
//! * **reductions over an intermediate** (histogram equalization) are
//!   *materialization barriers*: the histogram/CDF must see the whole
//!   intermediate before the first output pixel, so the plan splits at the
//!   barrier into fused segments ([`PipelinePlan::segmentation`]) — one
//!   cascade per segment — instead of abandoning fusion;
//! * a segment may also **end at a stencil**: it writes its value plane and
//!   its mask plane, and the next segment's first chain reads the mask
//!   rows from that plane. A mask produced before a barrier and consumed
//!   after it travels the same way, so every plan streams. The two-pass
//!   schedule point is the stream with such a boundary after every stencil
//!   ([`StreamingToneMapper::with_materialized_stencils`]).
//!
//! The fused shape — [`StreamingDecision::FullyFused`], or `Segmented` with
//! its barriers — is read off the plan's segmentation
//! ([`StreamingDecision::of`]).
//!
//! Whatever the schedule, the arithmetic is *bit-identical* to the two-pass
//! reference: every sample goes through the same operations in the same
//! order ([`crate::normalize::normalize_sample`],
//! [`crate::blur::quantize_kernel`]'s taps applied in ascending tap order,
//! [`crate::masking::masked_sample`], and each curve's one definition,
//! [`crate::plan::Curve::apply`]), only the schedule changes. That makes
//! every schedule point a drop-in replacement for the reference — the
//! property the paper relies on when it swaps the software blur for the
//! line-buffered accelerator.
//!
//! The registers compute in one of two datapaths. The default, [`Split`],
//! is the paper's hardware/software split, like
//! [`crate::ToneMapper::map_luminance_hw_blur`]: the point-wise stages
//! compute in `f32` (the processing system) while each stencil computes in
//! the sample type `S` (the programmable logic), with quantisation at the
//! accelerator boundary. `S = f32` therefore reproduces the pure software
//! reference and `S = apfixed::Fix16` the paper's final fixed-point
//! accelerator. [`AllStages`] computes every stage in `S`, like
//! [`crate::ToneMapper::map_luminance`]: for `S = Fix16`, the all-fixed
//! ablation.
//!
//! Rows are an embarrassingly parallel unit: [`StreamingToneMapper`] can
//! slice each fused segment's output rows across up to
//! [`StreamingToneMapper::with_threads`] threads, each slice re-deriving the
//! few cascade rows it shares with its neighbour. The calling thread runs
//! one slice, and each further slice runs on a scoped thread only if it can
//! claim a host core that nobody holds ([`crate::cores`]). So a segment run
//! inside a busy worker pool stays on its worker's thread, and an idle
//! process slices as wide as asked. Outputs stay bit-identical at any slice
//! count because every output row's computation is self-contained.
//!
//! # Example
//!
//! ```
//! use hdr_image::synth::SceneKind;
//! use tonemap_core::{StreamingToneMapper, ToneMapParams, ToneMapper};
//!
//! let hdr = SceneKind::WindowInDarkRoom.generate(48, 48, 3);
//! let classic = ToneMapper::new(ToneMapParams::paper_default());
//! let streaming = StreamingToneMapper::<f32>::new(ToneMapParams::paper_default());
//! // Same pixels, one pass, no full-size intermediates.
//! assert_eq!(streaming.map_luminance(&hdr), classic.map_luminance_f32(&hdr));
//! assert!(streaming.decision().is_fused());
//! ```

use crate::blur::{gaussian_kernel, quantize_kernel};
use crate::cores;
use crate::normalize::normalize_sample;
use crate::params::{ParamError, ToneMapParams};
use crate::plan::{
    histogram_barrier, run_color_plan, ChannelLayout, ColorStage, PipelineOp, PipelinePlan,
};
use crate::point::apply_chain;
use crate::reductions::{FrameReductions, Reductions};
use crate::sample::Sample;
use hdr_image::{ImageBuffer, LuminanceImage, RgbImage};
use sealed::Datapath;
use std::fmt;
use std::marker::PhantomData;

/// One materialization barrier of a segmented streaming plan: a reduction
/// stage (a histogram equalization) that must see the whole intermediate
/// image before the first output pixel of the next fused segment can
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamBarrier {
    /// Index of the barrier stage in the plan.
    pub index: usize,
}

impl fmt::Display for StreamBarrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage {} (histogram-eq)", self.index)
    }
}

/// The streaming planner's verdict on a plan: the shape of its fused
/// schedule points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamingDecision {
    /// The whole plan runs as one fused raster-order pass — every stencil a
    /// line-buffer region in one cascade, no full-size intermediates.
    FullyFused,
    /// The plan streams as `barriers.len() + 1` fused cascades, each
    /// materializing one intermediate at the listed reduction barriers.
    Segmented {
        /// Every materialization barrier, in stage order.
        barriers: Vec<StreamBarrier>,
    },
}

impl StreamingDecision {
    /// The verdict on `plan`, read off its segmentation
    /// ([`PipelinePlan::segmentation`]): barrier indices are the outer
    /// plan's, colour plans included.
    pub fn of(plan: &PipelinePlan) -> Self {
        let barriers: Vec<StreamBarrier> = plan
            .segmentation()
            .barriers
            .into_iter()
            .map(|index| StreamBarrier { index })
            .collect();
        if barriers.is_empty() {
            StreamingDecision::FullyFused
        } else {
            StreamingDecision::Segmented { barriers }
        }
    }

    /// `true` when the plan streams as one fused pass.
    pub fn is_fused(&self) -> bool {
        matches!(self, StreamingDecision::FullyFused)
    }

    /// The materialization barriers (empty unless the plan is segmented).
    pub fn barriers(&self) -> &[StreamBarrier] {
        match self {
            StreamingDecision::Segmented { barriers } => barriers,
            StreamingDecision::FullyFused => &[],
        }
    }
}

impl fmt::Display for StreamingDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamingDecision::FullyFused => f.write_str("fused into one raster-order pass"),
            StreamingDecision::Segmented { barriers } => {
                write!(
                    f,
                    "segmented into {} fused passes at {} materialization barrier{}: ",
                    barriers.len() + 1,
                    barriers.len(),
                    if barriers.len() == 1 { "" } else { "s" },
                )?;
                for (i, barrier) in barriers.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{barrier}")?;
                }
                Ok(())
            }
        }
    }
}

/// The paper's hardware/software split, the default datapath of a
/// [`StreamingToneMapper`]: the registers and every point stage compute in
/// `f32`, and each stencil quantises its input into `S`, blurs in `S` and
/// dequantises its mask — the pixels of
/// [`crate::ToneMapper::map_luminance_hw_blur`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Split;

/// Every stage in `S`: the registers hold `S`, each stencil inverts its
/// input in `S`, and the output converts to `f32` at the end — the pixels
/// of [`crate::ToneMapper::map_luminance`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllStages;

mod sealed {
    use super::*;

    /// The arithmetic of a stream's registers: their type, and the steps
    /// that move samples between them, the raw input, the stencil's sample
    /// type `S` and the `f32` output.
    pub trait Datapath<S: Sample> {
        /// The type of the value and mask registers.
        type R: Sample;

        /// Ingests one raw input row into `row`: sanitized, and scaled by
        /// `scale` when the plan starts with normalize.
        fn ingest(raw: &[f32], row: &mut [Self::R], scale: Option<f32>);

        /// One register sample as the stencil's input, inverted first when
        /// the stencil asks for it.
        fn to_stencil(value: Self::R, invert: bool) -> S;

        /// One blurred mask sample as a register.
        fn from_stencil(mask: S) -> Self::R;

        /// Runs `body` on the buffer the last step writes its plane into,
        /// and returns the output in `frame`.
        fn output(
            frame: Vec<f32>,
            body: impl FnOnce(Vec<Self::R>) -> ImageBuffer<Self::R>,
        ) -> LuminanceImage;
    }

    impl<S: Sample> Datapath<S> for Split {
        type R = f32;

        /// A copy, then the scale matched once for the row.
        #[inline(always)]
        fn ingest(raw: &[f32], row: &mut [f32], scale: Option<f32>) {
            row.copy_from_slice(raw);
            match scale {
                Some(scale) => row
                    .iter_mut()
                    .for_each(|v| *v = normalize_sample(*v, Some(scale))),
                None => row.iter_mut().for_each(|v| *v = normalize_sample(*v, None)),
            }
        }

        #[inline]
        fn to_stencil(value: f32, invert: bool) -> S {
            S::from_f32(if invert { 1.0 - value } else { value })
        }

        #[inline]
        fn from_stencil(mask: S) -> f32 {
            mask.to_f32()
        }

        /// The last step writes straight into `frame`.
        fn output(
            frame: Vec<f32>,
            body: impl FnOnce(Vec<f32>) -> LuminanceImage,
        ) -> LuminanceImage {
            body(frame)
        }
    }

    impl<S: Sample> Datapath<S> for AllStages {
        type R = S;

        fn ingest(raw: &[f32], row: &mut [S], scale: Option<f32>) {
            for (sample, &value) in row.iter_mut().zip(raw) {
                *sample = S::from_f32(normalize_sample(value, scale));
            }
        }

        #[inline]
        fn to_stencil(value: S, invert: bool) -> S {
            if invert {
                S::one().sub(value)
            } else {
                value
            }
        }

        #[inline]
        fn from_stencil(mask: S) -> S {
            mask
        }

        /// The last step writes a plane of its own, converted into `frame`.
        fn output(frame: Vec<f32>, body: impl FnOnce(Vec<S>) -> ImageBuffer<S>) -> LuminanceImage {
            body(Vec::new()).map_into(|&v| v.to_f32(), frame)
        }
    }
}

/// One fused line-buffer region of a cascade: the point ops feeding this
/// region's value stream (consuming the *previous* region's mask, if any),
/// then the stencil — the quantised kernel plus the Moroney input inversion
/// at the accelerator boundary.
#[derive(Debug, Clone, PartialEq)]
struct Region<S: Sample> {
    /// Point ops (masks and curves) applied to the upstream value stream
    /// before this stencil.
    chain: Vec<PipelineOp>,
    kernel: Vec<S>,
    invert_input: bool,
    /// Every weight is non-negative and `S` sums this many taps exactly in
    /// integers ([`Sample::nonneg_tap`]), so a pass whose samples are all
    /// non-negative may take the [`NonNeg`] taps.
    exact: bool,
}

impl<S: Sample> Region<S> {
    fn new(chain: Vec<PipelineOp>, kernel: Vec<S>, invert_input: bool) -> Self {
        let exact =
            kernel.len() <= S::NONNEG_TAPS && kernel.iter().all(|&weight| weight >= S::zero());
        Region {
            chain,
            kernel,
            invert_input,
            exact,
        }
    }
}

/// One fused segment of a compiled plan: a cascade of line-buffer regions
/// followed by the point-op epilog (which consumes the last region's mask).
#[derive(Debug, Clone, PartialEq)]
struct FusedSegment<S: Sample> {
    regions: Vec<Region<S>>,
    epilog: Vec<PipelineOp>,
    /// The first chain (the first region's, or the epilog of a segment
    /// without one) consumes the mask plane an earlier segment wrote.
    reads_mask: bool,
    /// The segment ends with its last stencil's mask still pending, so it
    /// writes the mask plane for a later segment to consume.
    writes_mask: bool,
}

impl<S: Sample> Default for FusedSegment<S> {
    fn default() -> Self {
        FusedSegment {
            regions: Vec::new(),
            epilog: Vec::new(),
            reads_mask: false,
            writes_mask: false,
        }
    }
}

impl<S: Sample> FusedSegment<S> {
    fn is_identity(&self) -> bool {
        self.regions.is_empty() && self.epilog.is_empty()
    }

    /// A copy of the segment whose chains carry every Reinhard key scaled
    /// by `scale` ([`PipelineOp::with_key_scale`]).
    fn with_key_scale(&self, scale: f32) -> Self {
        let mut scaled = self.clone();
        let chains = scaled.regions.iter_mut().map(|region| &mut region.chain);
        for op in chains.chain([&mut scaled.epilog]).flatten() {
            *op = op.with_key_scale(scale);
        }
        scaled
    }
}

/// One step of a compiled streaming plan: a fused raster-order cascade, or
/// a materialization barrier. The first step is always a fused segment
/// (possibly empty: it ingests the raw input); every later fused segment
/// has work to do.
#[derive(Debug, Clone, PartialEq)]
enum SegmentProgram<S: Sample> {
    Fused(FusedSegment<S>),
    Barrier { index: usize, bins: usize },
}

/// A scalar plan compiled for streaming execution.
#[derive(Debug, Clone, PartialEq)]
struct StreamProgram<S: Sample> {
    /// Whether the plan starts with normalization (resolved by the scale
    /// pre-scan over the raw input).
    normalize: bool,
    segments: Vec<SegmentProgram<S>>,
}

/// A compiled plan: one stream for a scalar-input plan, or for a
/// colour-managed (`Rgb`-input) plan one stream per embedded scalar
/// sub-plan, keyed by the index of its first op in the outer plan. The
/// colour point stages (conversions, transfer curves, HSV tone curves) are
/// pure per-pixel work executed straight from the plan's colour walk.
#[derive(Debug, Clone, PartialEq)]
enum Program<S: Sample> {
    Stream(StreamProgram<S>),
    Color(Vec<(usize, StreamProgram<S>)>),
}

fn compile_program<S: Sample>(plan: &PipelinePlan, materialize: bool) -> Program<S> {
    if plan.input_layout() == ChannelLayout::Rgb {
        let subs = plan
            .color_stages()
            .into_iter()
            .filter_map(|stage| match stage {
                ColorStage::Scalar { plan, start } => {
                    Some((start, compile_stream(&plan, materialize)))
                }
                _ => None,
            })
            .collect();
        return Program::Color(subs);
    }
    Program::Stream(compile_stream(plan, materialize))
}

/// Compiles a scalar plan into fused segments: one per run of its
/// segmentation ([`PipelinePlan::segmentation`]), with a barrier step
/// between runs. With `materialize`, every stencil ends its segment too.
fn compile_stream<S: Sample>(plan: &PipelinePlan, materialize: bool) -> StreamProgram<S> {
    let normalize = plan.starts_with_normalize();
    let segmentation = plan.segmentation();
    let mut steps = Vec::new();
    // The first step always runs, as the ingest; a later empty segment has
    // nothing to compute.
    let close = |steps: &mut Vec<SegmentProgram<S>>, segment: FusedSegment<S>| {
        if steps.is_empty() || !segment.is_identity() {
            steps.push(SegmentProgram::Fused(segment));
        }
    };
    // Whether a blurred mask awaits the mask op that consumes it.
    let mut pending = false;
    for (run, span) in segmentation.segments.iter().enumerate() {
        let mut segment = FusedSegment::default();
        for op in &plan.ops()[span.start.max(usize::from(normalize))..span.end] {
            match *op {
                PipelineOp::BlurMask { blur, invert_input } => {
                    segment.regions.push(Region::new(
                        std::mem::take(&mut segment.epilog),
                        quantize_kernel::<S>(&gaussian_kernel(&blur)),
                        invert_input,
                    ));
                    pending = true;
                    if materialize {
                        segment.writes_mask = true;
                        close(&mut steps, std::mem::take(&mut segment));
                    }
                }
                PipelineOp::Mask(_) => {
                    // Before the segment's first stencil, the pending mask
                    // was blurred by an earlier segment.
                    segment.reads_mask |= segment.regions.is_empty();
                    pending = false;
                    segment.epilog.push(*op);
                }
                _ => segment.epilog.push(*op),
            }
        }
        segment.writes_mask = pending && !segment.regions.is_empty();
        close(&mut steps, segment);
        if let Some(&index) = segmentation.barriers.get(run) {
            let PipelineOp::HistogramEq { bins } = plan.ops()[index] else {
                unreachable!("a plan segments only at its histogram barriers");
            };
            steps.push(SegmentProgram::Barrier { index, bins });
        }
    }
    StreamProgram {
        normalize,
        segments: steps,
    }
}

/// The streaming tone mapper: a [`PipelinePlan`] compiled into fused
/// raster-order cascades of rolling row rings — one line buffer per stencil
/// stage — with full-size intermediates only at materialization barriers
/// (and, at the two-pass point, after every stencil). `D` is the datapath
/// its registers compute in: the hardware/software [`Split`] by default,
/// or [`AllStages`].
///
/// Unlike [`crate::ToneMapper`], every blur kernel is quantised into `S`
/// **once at construction** and reused for every image this mapper
/// processes — the reference re-derives and re-quantises it on every call.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingToneMapper<S: Sample, D = Split> {
    params: ToneMapParams,
    plan: PipelinePlan,
    program: Program<S>,
    /// Whether `program` ends a segment after every stencil.
    materialized: bool,
    threads: usize,
    datapath: PhantomData<D>,
}

impl<S: Sample, D: Datapath<S>> StreamingToneMapper<S, D> {
    /// Creates a streaming mapper compiling the paper's Fig. 1 chain from
    /// the given parameters, single-threaded by default.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid; use
    /// [`StreamingToneMapper::try_new`] to handle invalid parameters
    /// gracefully.
    pub fn new(params: ToneMapParams) -> Self {
        StreamingToneMapper::try_new(params)
            .unwrap_or_else(|e| panic!("invalid tone-mapping parameters: {e}"))
    }

    /// Creates a streaming mapper compiling the paper's Fig. 1 chain,
    /// returning a typed [`ParamError`] if the parameters are invalid. The
    /// blur kernel is quantised into `S` here, once.
    pub fn try_new(params: ToneMapParams) -> Result<Self, ParamError> {
        StreamingToneMapper::compile(PipelinePlan::from_params(&params), params)
    }

    /// Compiles an arbitrary validated [`PipelinePlan`] for streaming
    /// execution. Multi-stencil plans fuse into one cascade; reductions
    /// split the plan into fused segments, and a mask whose lifetime
    /// crosses one travels to its consumer as a materialized plane.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ParamError`] if `params` fail validation (the plan
    /// itself was validated when it was built).
    pub fn compile(plan: PipelinePlan, params: ToneMapParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(StreamingToneMapper {
            params,
            program: compile_program::<S>(&plan, false),
            plan,
            materialized: false,
            threads: 1,
            datapath: PhantomData,
        })
    }

    /// Sets the most row slices each fused segment runs concurrently
    /// (clamped to at least 1). The calling thread runs one slice; each
    /// further slice needs a host core that nobody holds
    /// ([`crate::cores`]), so a busy process runs fewer. Outputs are
    /// bit-identical at any slice count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets whether every stencil ends its fused segment: `true` is the
    /// two-pass schedule point, where each stencil writes its value and
    /// mask planes and the next segment reads them; `false`, the default,
    /// cascades the stencils through row rings. Outputs are bit-identical
    /// either way.
    pub fn with_materialized_stencils(mut self, materialize: bool) -> Self {
        if materialize != self.materialized {
            self.program = compile_program(&self.plan, materialize);
            self.materialized = materialize;
        }
        self
    }

    /// The parameters this mapper was built with.
    pub const fn params(&self) -> &ToneMapParams {
        &self.params
    }

    /// The pipeline plan this mapper compiled.
    pub const fn plan(&self) -> &PipelinePlan {
        &self.plan
    }

    /// The planner's verdict on the compiled plan — one fused pass or a
    /// barrier-segmented stream ([`StreamingDecision::of`]).
    pub fn decision(&self) -> StreamingDecision {
        StreamingDecision::of(&self.plan)
    }

    /// The most row slices a fused segment runs concurrently
    /// ([`StreamingToneMapper::with_threads`]).
    pub const fn threads(&self) -> usize {
        self.threads
    }

    /// Tone-maps an HDR luminance image through the compiled plan,
    /// returning the display-referred result — the same pixels
    /// [`crate::ToneMapper::map_luminance_hw_blur`] produces for the same
    /// plan on the [`Split`] datapath, and [`crate::ToneMapper::map_luminance`]
    /// on [`AllStages`].
    ///
    /// # Panics
    ///
    /// Panics if the compiled plan takes a colour register as input
    /// ([`ChannelLayout::Rgb`]): a colour-managed plan has no scalar entry
    /// point — stream it through [`StreamingToneMapper::map_rgb`].
    pub fn map_luminance(&self, hdr: &LuminanceImage) -> LuminanceImage {
        self.map_luminance_with(hdr, &mut FrameReductions)
    }

    /// [`StreamingToneMapper::map_luminance`], with the plan's reductions
    /// bound by `reductions` instead of the frame's own statistics.
    pub fn map_luminance_with(
        &self,
        hdr: &LuminanceImage,
        reductions: &mut dyn Reductions,
    ) -> LuminanceImage {
        self.map_luminance_into(hdr, reductions, Vec::new())
    }

    /// [`StreamingToneMapper::map_luminance_with`], with the output written
    /// into `frame` by the last step: the last fused segment or a trailing
    /// barrier on the [`Split`] datapath, the final conversion to `f32` on
    /// [`AllStages`]. A frame of the image's length is overwritten without
    /// a fill and returned as the output's buffer; any other is resized.
    /// Intermediates allocate their own planes.
    pub fn map_luminance_into(
        &self,
        hdr: &LuminanceImage,
        reductions: &mut dyn Reductions,
        frame: Vec<f32>,
    ) -> LuminanceImage {
        let Program::Stream(program) = &self.program else {
            panic!(
                "map_luminance requires a scalar-input plan; this plan takes a `{}` register — \
                 stream it through map_rgb",
                self.plan.input_layout()
            );
        };
        run_stream_program::<S, D>(program, hdr, self.threads, reductions, frame)
    }

    /// Tone-maps an HDR RGB image through the compiled plan.
    ///
    /// The colour point stages (conversions, transfer curves, HSV tone
    /// curves, chroma split/merge) run through the shared register walk of
    /// [`run_color_plan`] in `f32`, while every scalar plan streams through
    /// its compiled line-buffer cascade, row-sliced across the configured
    /// threads. A **scalar-input plan** is that walk's auto-composed ratio
    /// wrapper — extract the luminance plane, stream it, re-apply the colour
    /// by clamped ratio — exactly as [`crate::ToneMapper::map_rgb`] runs it.
    /// Either way the result is bit-identical to the two-pass reference's.
    ///
    /// # Errors
    ///
    /// Propagates [`hdr_image::ImageError`] from the chroma re-apply step
    /// (dimension mismatches cannot occur for plans built by this type, so
    /// in practice this is infallible).
    pub fn map_rgb(&self, hdr: &RgbImage) -> Result<RgbImage, hdr_image::ImageError> {
        run_color_plan(&self.plan, hdr, |start, _, lum| {
            let program = match &self.program {
                Program::Color(subs) => subs
                    .iter()
                    .find_map(|(s, program)| (*s == start).then_some(program))
                    .expect("compilation visits every scalar stage of the plan"),
                Program::Stream(program) => program,
            };
            Ok(run_stream_program::<S, D>(
                program,
                lum,
                self.threads,
                &mut FrameReductions,
                Vec::new(),
            ))
        })
    }
}

/// What a fused segment reads: the raw input, ingested on the way with the
/// normalize scale, or the plane the previous step materialized.
#[derive(Clone, Copy)]
enum Input<'a, R> {
    Source(&'a LuminanceImage, Option<f32>),
    Plane(&'a ImageBuffer<R>),
}

impl<R: Sample> Input<'_, R> {
    fn dimensions(&self) -> (usize, usize) {
        match self {
            Input::Source(image, _) => image.dimensions(),
            Input::Plane(image) => image.dimensions(),
        }
    }

    /// Reads source row `y` into `row`, inlined into the row loops as the
    /// copy and the ingest were before they took this branch.
    #[inline(always)]
    fn read_row<S: Sample, D: Datapath<S, R = R>>(&self, y: usize, row: &mut [R]) {
        let width = row.len();
        match self {
            Input::Source(image, scale) => {
                D::ingest(&image.pixels()[y * width..][..width], row, *scale)
            }
            Input::Plane(image) => row.copy_from_slice(&image.pixels()[y * width..][..width]),
        }
    }
}

/// Row `y` of a materialized mask plane, when there is one.
fn mask_row<R: Sample>(mask: Option<&ImageBuffer<R>>, y: usize, width: usize) -> Option<&[R]> {
    mask.map(|plane| &plane.pixels()[y * width..][..width])
}

/// Runs one compiled scalar stream over a luminance image: fused segments
/// execute as line-buffer cascades (or pure point passes), barriers
/// materialize and reduce exactly as the two-pass reference does, and
/// `reductions` binds the normalize scale, the Reinhard key factor and each
/// barrier's CDF. The output lands in `frame` ([`Datapath::output`]).
fn run_stream_program<S: Sample, D: Datapath<S>>(
    program: &StreamProgram<S>,
    hdr: &LuminanceImage,
    threads: usize,
    reductions: &mut dyn Reductions,
    frame: Vec<f32>,
) -> LuminanceImage {
    let scale = program.normalize.then(|| reductions.normalize_scale(hdr));
    let key_scale = reductions.key_scale();
    D::output(frame, |mut frame| {
        let last = program.segments.len() - 1;
        let mut values: Option<ImageBuffer<D::R>> = None;
        // The pending mask plane a segment that ends at a stencil wrote.
        let mut mask: Option<ImageBuffer<D::R>> = None;
        for (index, segment) in program.segments.iter().enumerate() {
            let out = if index == last {
                std::mem::take(&mut frame)
            } else {
                Vec::new()
            };
            match segment {
                SegmentProgram::Fused(seg) => {
                    let scaled = (key_scale != 1.0).then(|| seg.with_key_scale(key_scale));
                    let seg = scaled.as_ref().unwrap_or(seg);
                    let input = match &values {
                        Some(plane) => Input::Plane(plane),
                        None => Input::Source(hdr, scale.flatten()),
                    };
                    let mask_in = if seg.reads_mask { mask.take() } else { None };
                    let (plane, written) =
                        run_fused_segment::<S, D>(seg, input, mask_in.as_ref(), threads, out);
                    values = Some(plane);
                    mask = written.or(mask);
                }
                SegmentProgram::Barrier { index, bins } => {
                    let input = values
                        .as_ref()
                        .expect("a fused segment precedes every barrier");
                    // The barrier the two-pass reference runs on its
                    // register, so segmented streaming stays bit-identical.
                    values = Some(histogram_barrier(input, *bins, *index, reductions, out));
                }
            }
        }
        values.expect("compiled plans always run at least one fused segment")
    })
}

/// Runs one fused segment over its input into `frame`, slicing the output
/// rows across at most `threads` threads: the caller's own, plus one for
/// each core it can claim that nobody holds ([`crate::cores`]). Returns the
/// value plane and, for a segment that ends at a stencil with its mask
/// pending, the mask plane.
fn run_fused_segment<S: Sample, D: Datapath<S>>(
    segment: &FusedSegment<S>,
    input: Input<'_, D::R>,
    mask: Option<&ImageBuffer<D::R>>,
    threads: usize,
    frame: Vec<D::R>,
) -> (ImageBuffer<D::R>, Option<ImageBuffer<D::R>>) {
    // The claimed cores go back once every slice has joined.
    let extra = cores::claim(threads.min(input.dimensions().1).saturating_sub(1));
    run_slices::<S, D>(segment, input, mask, 1 + extra.cores(), frame)
}

/// `frame` holding `len` samples, for a pass that writes every one of them:
/// a frame of that length as it is, with no fill, any other resized — and a
/// frame without room a fresh zeroed allocation.
fn output_buffer<R: Sample>(mut frame: Vec<R>, len: usize) -> Vec<R> {
    if frame.capacity() < len {
        return vec![R::zero(); len];
    }
    frame.resize(len, R::zero());
    frame
}

/// Runs one fused segment over its input into `frame` — a pure point pass
/// when the segment has no stencil, otherwise the line-buffer cascade — in
/// `slices` row slices: the calling thread runs the last, a scoped thread
/// each other. Every output sample is written, so `frame`'s old contents
/// never show.
fn run_slices<S: Sample, D: Datapath<S>>(
    segment: &FusedSegment<S>,
    input: Input<'_, D::R>,
    mask: Option<&ImageBuffer<D::R>>,
    slices: usize,
    frame: Vec<D::R>,
) -> (ImageBuffer<D::R>, Option<ImageBuffer<D::R>>) {
    let (width, height) = input.dimensions();
    let mut out = output_buffer(frame, width * height);
    let mut mask_out = if segment.writes_mask {
        vec![<D::R as Sample>::zero(); width * height]
    } else {
        Vec::new()
    };
    let rows = |first_row: usize, values: &mut [D::R], masks: &mut [D::R]| {
        if segment.regions.is_empty() {
            // Pure point chain: every pixel is independent, nothing to ring.
            for (index, row) in values.chunks_exact_mut(width).enumerate() {
                let y = first_row + index;
                input.read_row::<S, D>(y, row);
                apply_chain(&segment.epilog, row, mask_row(mask, y, width));
            }
        } else {
            run_rows::<S, D>(segment, &input, mask, first_row, values, masks);
        }
    };
    if slices <= 1 {
        rows(0, &mut out, &mut mask_out);
    } else {
        let rows_per_slice = height.div_ceil(slices);
        let chunk = rows_per_slice * width;
        std::thread::scope(|scope| {
            let mut masks = mask_out.chunks_mut(chunk);
            let chunks = out.chunks_mut(chunk);
            let last = chunks.len() - 1;
            for (slice, values) in chunks.enumerate() {
                let masks = masks.next().unwrap_or_default();
                let first_row = slice * rows_per_slice;
                if slice == last {
                    rows(first_row, values, masks);
                } else {
                    scope.spawn(move || rows(first_row, values, masks));
                }
            }
        });
    }
    let plane = |pixels| {
        ImageBuffer::from_vec(width, height, pixels)
            .expect("output dimensions equal input dimensions")
    };
    let written = segment.writes_mask.then(|| plane(mask_out));
    (plane(out), written)
}

/// The per-slice working state of one cascade region: the Fig. 4 line
/// buffer (`hrows`, horizontally blurred in `S`) plus the region's own
/// chain-output rows (`vrows`, the register stream the next region — or
/// the epilog — reads). Both rings hold `min(2·radius + BAND, height)`
/// rows, the window of one band of [`BAND`] output rows, and are indexed
/// by source row modulo ring length. Nothing here scales with the image
/// height.
struct RegionState<S: Sample, R: Sample> {
    hrows: Vec<Vec<S>>,
    vrows: Vec<Vec<R>>,
    /// Per ring row: every sample of it is non-negative and came through
    /// [`NonNeg`]-eligible taps, so a pass reading only such rows may sum
    /// its taps exactly in integers. Always `false` unless the region is
    /// [`Region::exact`].
    nonneg: Vec<bool>,
    /// Edge-padded scratch row for the horizontal blur.
    padded: Vec<S>,
    /// The ring slot of each source row a band's vertical taps read: row
    /// `t` of the window is tap `t − j` of the band's output row `j`.
    tap_slots: Vec<usize>,
    /// Scratch rows receiving one band of the upstream region's mask stream
    /// (empty for the first region, which has no upstream mask).
    up_mask: Vec<R>,
    /// The next source row this region will produce — rows are produced
    /// lazily, in order, the moment a consumer's vertical window first
    /// reaches them.
    next_row: Option<usize>,
}

impl<S: Sample, R: Sample> RegionState<S, R> {
    fn new(region: &Region<S>, width: usize, height: usize, has_upstream: bool) -> Self {
        let taps = region.kernel.len();
        let radius = taps / 2;
        let len = (taps - 1 + BAND).min(height).max(1);
        let up_mask = if has_upstream {
            vec![R::zero(); BAND * width]
        } else {
            Vec::new()
        };
        RegionState {
            hrows: vec![vec![S::zero(); width]; len],
            vrows: vec![vec![R::zero(); width]; len],
            nonneg: vec![false; len],
            padded: vec![S::zero(); width + 2 * radius],
            tap_slots: vec![0; taps - 1 + BAND],
            up_mask,
            next_row: None,
        }
    }

    /// The value-stream row of source row `y`, while the ring holds it.
    fn value_row(&self, y: usize) -> &[R] {
        &self.vrows[y % self.vrows.len()]
    }
}

/// Processes the output rows `first_row ..` covered by `out` (a
/// whole-row-aligned slice of the output buffer) in raster order through
/// the segment's cascade, a band of [`BAND`] rows at a time (the slice's
/// last band may be shorter), writing the last region's mask rows into
/// `masks` when the segment writes its mask plane (`masks` is empty
/// otherwise). The epilog runs row by row after each band. Each slice owns
/// fresh region states, so slices are fully independent and bit-identical
/// at any thread count.
fn run_rows<S: Sample, D: Datapath<S>>(
    segment: &FusedSegment<S>,
    input: &Input<'_, D::R>,
    mask: Option<&ImageBuffer<D::R>>,
    first_row: usize,
    out: &mut [D::R],
    masks: &mut [D::R],
) {
    let (width, height) = input.dimensions();
    let mut states: Vec<RegionState<S, D::R>> = segment
        .regions
        .iter()
        .enumerate()
        .map(|(i, region)| RegionState::new(region, width, height, i > 0))
        .collect();
    let mut scratch = vec![<D::R as Sample>::zero(); BAND * width];
    for (band, values) in out.chunks_mut(BAND * width).enumerate() {
        let y = first_row + band * BAND;
        let mask_rows = if segment.writes_mask {
            &mut masks[band * BAND * width..][..values.len()]
        } else {
            &mut scratch[..values.len()]
        };
        emit_rows::<S, D>(&segment.regions, &mut states, input, mask, y, mask_rows);
        let last = states.last().expect("a cascade has at least one region");
        let rows = values
            .chunks_exact_mut(width)
            .zip(mask_rows.chunks_exact(width));
        for (row, (out_row, mask_row)) in rows.enumerate() {
            out_row.copy_from_slice(last.value_row(y + row));
            // Fused point-wise tail: the epilog chain runs against the last
            // region's value stream and blurred mask.
            apply_chain(&segment.epilog, out_row, Some(mask_row));
        }
    }
}

/// Produces the band of output rows `y .. y + n` of the *last* region in
/// `regions`, where `mask_out` holds `n ≤ BAND` rows: its blurred mask into
/// `mask_out`, and its chain value stream into its ring, where the caller
/// reads it ([`RegionState::value_row`]) before the next band.
///
/// This is the cascade step. The region pulls the source rows its vertical
/// window needs from the upstream regions (recursively, in bands of up to
/// [`BAND`] rows — `regions` and `states` are parallel slices split from
/// the back), runs its point chain over them, horizontally blurs them into
/// its ring, then applies the vertical taps. Rows are requested in strictly
/// increasing order, so each region's lazy `next_row` cursor advances
/// monotonically, and a ring of `2·radius + BAND` rows holds the whole
/// window of a band (`2·radius + n` rows) while it is read: the newest row
/// written overwrites the row `2·radius + BAND` rows older, which is before
/// the window's first.
fn emit_rows<S: Sample, D: Datapath<S>>(
    regions: &[Region<S>],
    states: &mut [RegionState<S, D::R>],
    input: &Input<'_, D::R>,
    mask: Option<&ImageBuffer<D::R>>,
    y: usize,
    mask_out: &mut [D::R],
) {
    let (region, upstream_regions) = regions
        .split_last()
        .expect("emit_rows requires at least one region");
    let (state, upstream_states) = states
        .split_last_mut()
        .expect("region states parallel the regions");
    let (width, height) = input.dimensions();
    let n = mask_out.len() / width;
    let kernel = &region.kernel;
    let radius = kernel.len() / 2;
    let len = state.hrows.len();

    let newest_needed = (y + n - 1 + radius).min(height - 1);
    let mut next = state.next_row.unwrap_or_else(|| y.saturating_sub(radius));
    while next <= newest_needed {
        let rows = (newest_needed + 1 - next).min(BAND);
        if !upstream_regions.is_empty() {
            // Later region: pull the next upstream band on demand, its mask
            // into `up_mask` and its values left in its ring.
            let up_mask = &mut state.up_mask[..rows * width];
            emit_rows::<S, D>(
                upstream_regions,
                upstream_states,
                input,
                mask,
                next,
                up_mask,
            );
        }
        for row in next..next + rows {
            let slot = row % len;
            let v_row = &mut state.vrows[slot];
            match upstream_states.last() {
                // First region: the value stream is the segment input
                // through this region's point chain, whose mask (if it
                // applies one) is the plane an earlier segment wrote.
                None => {
                    input.read_row::<S, D>(row, v_row);
                    apply_chain(&region.chain, v_row, mask_row(mask, row, width));
                }
                // Later region: this region's chain runs against the
                // upstream value/mask streams.
                Some(upstream) => {
                    v_row.copy_from_slice(upstream.value_row(row));
                    let up_mask = &state.up_mask[(row - next) * width..][..width];
                    apply_chain(&region.chain, v_row, Some(up_mask));
                }
            }
            state.nonneg[slot] = fill_blurred_row::<S, D>(
                &mut state.hrows[slot],
                &mut state.padded,
                &state.vrows[slot],
                region,
            );
        }
        next += rows;
    }
    state.next_row = Some(next);

    // Vertical pass over the ring: row `t` of the band's window is source
    // row `y + t − radius`, edge rows replicated, and output row `j` takes
    // tap `k` from window row `j + k`.
    let window = &mut state.tap_slots[..kernel.len() - 1 + n];
    for (t, slot) in window.iter_mut().enumerate() {
        *slot = (y + t).saturating_sub(radius).min(height - 1) % len;
    }
    let (hrows, window) = (&state.hrows, &*window);
    let tap_row = |t: usize| hrows[window[t]].as_slice();
    if window.iter().all(|&slot| state.nonneg[slot]) {
        vertical::<S, NonNeg, D::R>(mask_out, width, kernel, tap_row, D::from_stencil);
    } else {
        vertical::<S, MulAdd, D::R>(mask_out, width, kernel, tap_row, D::from_stencil);
    }
}

/// The vertical pass of one band into `dst`, rows of `width` samples: a
/// full band through [`fir_band`], a shorter one — a slice's last rows —
/// row by row through [`fir`].
fn vertical<'a, S: Sample, T: Taps<S>, O>(
    dst: &mut [O],
    width: usize,
    kernel: &[S],
    tap_row: impl Fn(usize) -> &'a [S],
    store: impl Fn(S) -> O,
) {
    if dst.len() == BAND * width {
        fir_band::<S, T, O>(dst, kernel, tap_row, store);
    } else {
        for (j, row) in dst.chunks_exact_mut(width).enumerate() {
            fir::<S, T, O>(row, kernel, |k| tap_row(j + k), &store);
        }
    }
}

/// Horizontally blurs one chain-output row into `dst` — the producer side
/// of a region's line buffer — and returns whether `dst`'s samples may
/// feed [`NonNeg`] taps.
///
/// The row is converted into the stencil's sample type
/// ([`Datapath::to_stencil`], with the Moroney inversion applied first
/// when the region asks for it), then edge-padded by `radius` replicated
/// samples so the horizontal window never needs a clamp; tap `k` then
/// reads the padded row shifted by `k`. [`fir`] applies the taps to each
/// output sample in ascending order, matching
/// [`crate::blur::blur_horizontal`] bit-for-bit: through [`NonNeg`] taps
/// when the region is [`Region::exact`] and every converted sample is
/// non-negative, whose blurred row is non-negative too, and through
/// [`MulAdd`] otherwise.
fn fill_blurred_row<S: Sample, D: Datapath<S>>(
    dst: &mut [S],
    padded: &mut [S],
    source: &[D::R],
    region: &Region<S>,
) -> bool {
    let kernel = &region.kernel;
    let radius = kernel.len() / 2;
    let width = source.len();
    let row = &mut padded[radius..radius + width];
    for (slot, &value) in row.iter_mut().zip(source) {
        *slot = D::to_stencil(value, region.invert_input);
    }
    let nonneg = region.exact && row.iter().fold(true, |all, &v| all & (v >= S::zero()));
    let first = padded[radius];
    let last = padded[radius + width - 1];
    padded[..radius].fill(first);
    padded[radius + width..].fill(last);
    let padded: &[S] = padded;
    if nonneg {
        fir::<S, NonNeg, S>(dst, kernel, |k| &padded[k..], |acc| acc);
    } else {
        fir::<S, MulAdd, S>(dst, kernel, |k| &padded[k..], |acc| acc);
    }
    nonneg
}

/// Output samples per block of [`fir`]: eight 256-bit registers of `f32`
/// accumulators, or of the `i32` sums of exact `Fix16` taps.
const BLOCK: usize = 64;

/// Output rows per band of the vertical pass: each ring-row block
/// [`fir_band`] loads feeds this many rows' accumulators.
const BAND: usize = 4;

// `fir_band` is written out for a band of four rows.
const _: () = assert!(BAND == 4);

/// Output columns per block of [`fir_band`]: [`BAND`] rows of them are
/// eight 256-bit registers of `f32` accumulators, or of the `i32` sums of
/// exact `Fix16` taps.
const BAND_BLOCK: usize = 16;

/// How a stencil pass sums the taps of one output: from [`Taps::zero`],
/// one [`Taps::tap`] per weight in ascending tap order, then
/// [`Taps::store`].
trait Taps<S: Sample> {
    type Acc: Copy;
    fn zero() -> Self::Acc;
    fn tap(weight: S, sample: S, acc: Self::Acc) -> Self::Acc;
    fn store(acc: Self::Acc) -> S;
}

/// Every tap through [`Sample::mul_add`]: the reference, and the only taps
/// of the floating-point types.
struct MulAdd;

impl<S: Sample> Taps<S> for MulAdd {
    type Acc = S;
    #[inline(always)]
    fn zero() -> S {
        S::zero()
    }
    #[inline(always)]
    fn tap(weight: S, sample: S, acc: S) -> S {
        weight.mul_add(sample, acc)
    }
    #[inline(always)]
    fn store(acc: S) -> S {
        acc
    }
}

/// Taps whose weights and samples are all non-negative, summed exactly in
/// `i32` lanes ([`Sample::nonneg_tap`]) and saturated once: bit-identical
/// to [`MulAdd`] on them, which for `Fix16` rounds and saturates per tap.
struct NonNeg;

impl<S: Sample> Taps<S> for NonNeg {
    type Acc = i32;
    #[inline(always)]
    fn zero() -> i32 {
        0
    }
    #[inline(always)]
    fn tap(weight: S, sample: S, acc: i32) -> i32 {
        weight.nonneg_tap(sample, acc)
    }
    #[inline(always)]
    fn store(acc: i32) -> S {
        S::from_nonneg_sum(acc)
    }
}

/// The one-row output-stationary FIR:
/// `dst[i] = store(Σ_k kernel[k] · tap_row(k)[i])`, where `tap_row(k)` is
/// the input row tap `k` reads, aligned with the output, and `T` sums the
/// taps. It runs the horizontal pass, and the vertical pass wherever
/// [`fir_band`] does not: a slice's last one to three rows and the columns
/// after a band's last full block.
///
/// A block of outputs accumulates in a local array over all taps and is
/// stored once, so the accumulators stay in registers instead of making an
/// L1 round trip per tap — the software form of the pipelined line-buffer
/// datapath of Fig. 4. Every output starts at zero and takes the taps in
/// ascending order, the order of [`crate::blur::blur_horizontal`] and
/// [`crate::blur::blur_vertical`], so the result is bit-identical to them
/// at every width, the tail after the last full block included.
fn fir<'a, S: Sample, T: Taps<S>, O>(
    dst: &mut [O],
    kernel: &[S],
    tap_row: impl Fn(usize) -> &'a [S],
    store: impl Fn(S) -> O,
) {
    let mut blocks = dst.chunks_exact_mut(BLOCK);
    let mut start = 0;
    for outputs in &mut blocks {
        let mut acc = [T::zero(); BLOCK];
        accumulate::<S, T>(&mut acc, kernel, &tap_row, start);
        for (out, a) in outputs.iter_mut().zip(acc) {
            *out = store(T::store(a));
        }
        start += BLOCK;
    }
    let outputs = blocks.into_remainder();
    let mut acc = [T::zero(); BLOCK];
    let acc = &mut acc[..outputs.len()];
    accumulate::<S, T>(acc, kernel, &tap_row, start);
    for (out, &a) in outputs.iter_mut().zip(acc.iter()) {
        *out = store(T::store(a));
    }
}

/// Adds every tap's contribution to the outputs `start .. start +
/// acc.len()`, tap by tap in ascending order: the one accumulation order of
/// full blocks and of the tail.
#[inline(always)]
fn accumulate<'a, S: Sample, T: Taps<S>>(
    acc: &mut [T::Acc],
    kernel: &[S],
    tap_row: &impl Fn(usize) -> &'a [S],
    start: usize,
) {
    for (k, &weight) in kernel.iter().enumerate() {
        let window = &tap_row(k)[start..start + acc.len()];
        for (a, &sample) in acc.iter_mut().zip(window) {
            *a = T::tap(weight, sample, *a);
        }
    }
}

/// The vertical pass of one full band: `dst` holds [`BAND`] output rows
/// back to back, and output row `j` takes tap `k` from window row
/// `tap_row(j + k)`.
///
/// Each block of [`BAND_BLOCK`] columns keeps the band's accumulators in
/// fixed-size arrays, which stay in registers, and each window-row block it
/// loads feeds every output row that reads it: window row `t` is tap
/// `t − j` of row `j`. Row `j` still starts at zero and takes its taps in
/// ascending order, so every sample equals [`fir`]'s on the same rows. The
/// columns after the last full block run through [`fir`] row by row.
fn fir_band<'a, S: Sample, T: Taps<S>, O>(
    dst: &mut [O],
    kernel: &[S],
    tap_row: impl Fn(usize) -> &'a [S],
    store: impl Fn(S) -> O,
) {
    let width = dst.len() / BAND;
    let taps = kernel.len();
    assert!(taps >= BAND - 1, "a stencil has at least three taps");
    let full = width - width % BAND_BLOCK;
    for start in (0..full).step_by(BAND_BLOCK) {
        let block = |t: usize| -> &'a [S; BAND_BLOCK] {
            tap_row(t)[start..start + BAND_BLOCK]
                .try_into()
                .expect("a block spans BAND_BLOCK columns")
        };
        let [mut a0, mut a1, mut a2, mut a3] = [[T::zero(); BAND_BLOCK]; BAND];
        // Window rows 0, 1 and 2 open output rows 0 ..= t.
        let x = block(0);
        tap_block::<S, T>(&mut a0, kernel[0], x);
        let x = block(1);
        tap_block::<S, T>(&mut a0, kernel[1], x);
        tap_block::<S, T>(&mut a1, kernel[0], x);
        let x = block(2);
        tap_block::<S, T>(&mut a0, kernel[2], x);
        tap_block::<S, T>(&mut a1, kernel[1], x);
        tap_block::<S, T>(&mut a2, kernel[0], x);
        // Window rows 3 .. taps feed every output row.
        for (t, w) in kernel.windows(BAND).enumerate() {
            let x = block(t + BAND - 1);
            tap_block::<S, T>(&mut a0, w[3], x);
            tap_block::<S, T>(&mut a1, w[2], x);
            tap_block::<S, T>(&mut a2, w[1], x);
            tap_block::<S, T>(&mut a3, w[0], x);
        }
        // Window rows taps, taps + 1 and taps + 2 close output rows 1, 2
        // and 3.
        let x = block(taps);
        tap_block::<S, T>(&mut a1, kernel[taps - 1], x);
        tap_block::<S, T>(&mut a2, kernel[taps - 2], x);
        tap_block::<S, T>(&mut a3, kernel[taps - 3], x);
        let x = block(taps + 1);
        tap_block::<S, T>(&mut a2, kernel[taps - 1], x);
        tap_block::<S, T>(&mut a3, kernel[taps - 2], x);
        let x = block(taps + 2);
        tap_block::<S, T>(&mut a3, kernel[taps - 1], x);
        for (row, acc) in dst.chunks_exact_mut(width).zip([a0, a1, a2, a3]) {
            for (out, a) in row[start..start + BAND_BLOCK].iter_mut().zip(acc) {
                *out = store(T::store(a));
            }
        }
    }
    if full < width {
        for (j, row) in dst.chunks_exact_mut(width).enumerate() {
            fir::<S, T, O>(
                &mut row[full..],
                kernel,
                |k| &tap_row(j + k)[full..],
                &store,
            );
        }
    }
}

/// One tap of one [`fir_band`] row over a block of columns.
#[inline(always)]
fn tap_block<S: Sample, T: Taps<S>>(
    acc: &mut [T::Acc; BAND_BLOCK],
    weight: S,
    samples: &[S; BAND_BLOCK],
) {
    for (a, &sample) in acc.iter_mut().zip(samples) {
        *a = T::tap(weight, sample, *a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{AdjustParams, BlurParams, MaskingParams};
    use crate::pipeline::ToneMapper;
    use crate::plan::{Curve, PlanTuning};
    use apfixed::Fix16;
    use hdr_image::synth::SceneKind;

    fn params() -> ToneMapParams {
        let mut p = ToneMapParams::paper_default();
        // A narrower kernel keeps the unit tests quick; the paper-default
        // radius is covered by the integration and property tests.
        p.blur.sigma = 2.0;
        p.blur.radius = 5;
        p
    }

    /// A two-stencil, mask-per-stencil plan with distinct radii, so the
    /// cascade tests exercise staggered row latency.
    fn two_stencil_plan() -> PipelinePlan {
        let base = BlurParams {
            sigma: 1.5,
            radius: 3,
        };
        let detail = BlurParams {
            sigma: 1.0,
            radius: 2,
        };
        let masking = MaskingParams::paper_default();
        PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur: base,
                invert_input: true,
            },
            PipelineOp::Mask(masking),
            PipelineOp::BlurMask {
                blur: detail,
                invert_input: false,
            },
            PipelineOp::Mask(MaskingParams {
                strength: 1.2,
                invert_mask: false,
            }),
            PipelineOp::Curve(Curve::Adjust(AdjustParams::paper_default())),
        ])
        .unwrap()
    }

    /// Every stencil kernel of a compiled program, in stage order.
    fn kernels<S: Sample, D>(mapper: &StreamingToneMapper<S, D>) -> Vec<&[S]> {
        let programs: Vec<&StreamProgram<S>> = match &mapper.program {
            Program::Stream(program) => vec![program],
            Program::Color(subs) => subs.iter().map(|(_, program)| program).collect(),
        };
        let segments = programs.into_iter().flat_map(|program| &program.segments);
        let regions = segments.flat_map(|segment| match segment {
            SegmentProgram::Fused(segment) => segment.regions.as_slice(),
            SegmentProgram::Barrier { .. } => &[],
        });
        regions.map(|region| region.kernel.as_slice()).collect()
    }

    /// A blurred mask consumed after the histogram barrier that follows
    /// its stencil: the mask crosses the barrier as a materialized plane.
    fn mask_across_barrier_plan() -> PipelinePlan {
        PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur: BlurParams {
                    sigma: 1.5,
                    radius: 3,
                },
                invert_input: true,
            },
            PipelineOp::HistogramEq { bins: 64 },
            PipelineOp::Mask(MaskingParams::paper_default()),
        ])
        .unwrap()
    }

    #[test]
    fn f32_streaming_is_bit_identical_to_the_two_pass_reference() {
        for (w, h) in [(48, 48), (33, 17), (64, 9)] {
            let hdr = SceneKind::WindowInDarkRoom.generate(w, h, 7);
            let classic = ToneMapper::new(params()).map_luminance_f32(&hdr);
            let streaming = StreamingToneMapper::<f32>::new(params()).map_luminance(&hdr);
            assert_eq!(streaming, classic, "diverged at {w}x{h}");
        }
    }

    #[test]
    fn fix16_streaming_is_bit_identical_to_the_hw_blur_reference() {
        let hdr = SceneKind::SunAndShadow.generate(40, 31, 5);
        let classic = ToneMapper::new(params()).map_luminance_hw_blur::<Fix16>(&hdr);
        let streaming = StreamingToneMapper::<Fix16>::new(params()).map_luminance(&hdr);
        assert_eq!(streaming, classic);
    }

    #[test]
    fn outputs_are_bit_identical_at_any_thread_count() {
        let hdr = SceneKind::MemorialComposite.generate(37, 29, 9);
        let single = StreamingToneMapper::<f32>::new(params()).map_luminance(&hdr);
        for threads in [2, 3, 5, 8, 64] {
            let sliced = StreamingToneMapper::<f32>::new(params())
                .with_threads(threads)
                .map_luminance(&hdr);
            assert_eq!(sliced, single, "diverged at {threads} threads");
        }
    }

    #[test]
    fn every_slice_count_is_bit_identical() {
        // A run slices only as wide as the host has free cores, so this
        // drives the slicing itself at every count up to one row a slice,
        // on a stencil cascade, a two-stencil cascade, a point chain, and
        // segments that write their mask plane.
        let hdr = SceneKind::MemorialComposite.generate(37, 29, 9);
        let p = ToneMapParams::paper_default();
        let reinhard = PipelinePlan::preset("reinhard", &p, &PlanTuning::default());
        for (plan, materialize) in [
            (PipelinePlan::from_params(&p), false),
            (two_stencil_plan(), false),
            (reinhard.unwrap().unwrap(), false),
            (two_stencil_plan(), true),
            (mask_across_barrier_plan(), false),
        ] {
            let mapper = StreamingToneMapper::<f32>::compile(plan, p)
                .unwrap()
                .with_materialized_stencils(materialize);
            let Program::Stream(program) = &mapper.program else {
                panic!("{} streams", mapper.plan());
            };
            let SegmentProgram::Fused(segment) = &program.segments[0] else {
                panic!("a stream starts with a fused segment");
            };
            let input = Input::Source(&hdr, FrameReductions.normalize_scale(&hdr));
            let run = |slices, frame| run_slices::<f32, Split>(segment, input, None, slices, frame);
            let single = run(1, Vec::new());
            assert_eq!(single.1.is_some(), segment.writes_mask);
            for slices in 2..=30 {
                // Every slice overwrites its rows of a stale frame.
                let stale = vec![f32::NAN; hdr.pixels().len()];
                assert_eq!(
                    run(slices, stale),
                    single,
                    "{} diverged at {slices} slices",
                    mapper.plan()
                );
            }
        }
    }

    #[test]
    fn denied_slices_stay_bit_identical() {
        // Every host core held, as by a busy worker pool: a ×4 run is
        // granted no extra core and runs each segment on its caller's
        // thread, with the same pixels.
        let held: Vec<cores::Held> = (0..cores::host_cores()).map(|_| cores::hold()).collect();
        assert_eq!(cores::claim(3).cores(), 0, "a held host grants no slice");
        let p = ToneMapParams::paper_default();
        let lum = SceneKind::MemorialComposite.generate(37, 29, 9);
        let rgb = SceneKind::SunAndShadow.generate_rgb(41, 27, 9);
        for name in ["paper", "basedetail", "histeq", "pq-out"] {
            let plan = PipelinePlan::preset(name, &p, &PlanTuning::default());
            let single = StreamingToneMapper::<f32>::compile(plan.unwrap().unwrap(), p).unwrap();
            let denied = single.clone().with_threads(4);
            if name == "histeq" {
                assert!(
                    !single.decision().barriers().is_empty(),
                    "histeq is segmented"
                );
            }
            if name == "pq-out" {
                // A colour run streams its luminance through the cascade.
                let expected = single.map_rgb(&rgb).unwrap();
                assert_eq!(denied.map_rgb(&rgb).unwrap(), expected, "{name} diverged");
            } else {
                let expected = single.map_luminance(&lum);
                assert_eq!(denied.map_luminance(&lum), expected, "{name} diverged");
            }
        }
        drop(held);
    }

    #[test]
    fn degenerate_geometries_match_the_reference() {
        // 1×N, N×1 and images smaller than the kernel radius exercise the
        // fully clamped window paths.
        let p = params();
        for (w, h) in [(1, 24), (24, 1), (1, 1), (3, 2), (4, 12), (2, 2)] {
            let hdr = SceneKind::GradientRamp.generate(w, h, 3);
            let classic = ToneMapper::new(p).map_luminance_f32(&hdr);
            let streaming = StreamingToneMapper::<f32>::new(p).map_luminance(&hdr);
            assert_eq!(streaming, classic, "diverged at {w}x{h}");
            let classic_fx = ToneMapper::new(p).map_luminance_hw_blur::<Fix16>(&hdr);
            let streaming_fx = StreamingToneMapper::<Fix16>::new(p).map_luminance(&hdr);
            assert_eq!(streaming_fx, classic_fx, "Fix16 diverged at {w}x{h}");
        }
    }

    #[test]
    fn widths_straddling_the_stencil_block_match_the_reference() {
        // One block minus one, exactly one, one plus one, and two blocks
        // plus a tail as long as the kernel — with radii below the width
        // and above it.
        for radius in [1, 5, BLOCK + 3] {
            let mut p = params();
            p.blur.radius = radius;
            for width in [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 2 * radius + 1] {
                let hdr = SceneKind::MemorialComposite.generate(width, 5, 19);
                let classic = ToneMapper::new(p).map_luminance_f32(&hdr);
                let classic_fx = ToneMapper::new(p).map_luminance_hw_blur::<Fix16>(&hdr);
                for threads in [1, 2, 8] {
                    let streaming = StreamingToneMapper::<f32>::new(p).with_threads(threads);
                    let streaming_fx = StreamingToneMapper::<Fix16>::new(p).with_threads(threads);
                    let at = format!("width {width}, radius {radius}, {threads} threads");
                    assert_eq!(streaming.map_luminance(&hdr), classic, "f32 at {at}");
                    assert_eq!(
                        streaming_fx.map_luminance(&hdr),
                        classic_fx,
                        "Fix16 at {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn nan_pixels_are_sanitized_like_the_reference() {
        let mut hdr = SceneKind::WindowInDarkRoom.generate(24, 24, 4);
        hdr.set(3, 3, f32::NAN);
        hdr.set(10, 20, f32::INFINITY);
        let classic = ToneMapper::new(params()).map_luminance_f32(&hdr);
        let streaming = StreamingToneMapper::<f32>::new(params()).map_luminance(&hdr);
        assert!(streaming.pixels().iter().all(|v| v.is_finite()));
        assert_eq!(streaming, classic);
    }

    #[test]
    fn kernel_is_quantised_once_at_construction() {
        let mapper = StreamingToneMapper::<Fix16>::new(params());
        let kernel = quantize_kernel::<Fix16>(&gaussian_kernel(&params().blur));
        assert_eq!(kernels(&mapper), [kernel.as_slice()]);
        assert_eq!(kernel.len(), params().blur.taps());
    }

    #[test]
    fn try_new_rejects_invalid_parameters() {
        let mut p = ToneMapParams::paper_default();
        p.blur.radius = 0;
        assert_eq!(
            StreamingToneMapper::<f32>::try_new(p),
            Err(ParamError::ZeroBlurRadius)
        );
    }

    #[test]
    fn thread_count_is_clamped_to_at_least_one() {
        let mapper = StreamingToneMapper::<f32>::new(params()).with_threads(0);
        assert_eq!(mapper.threads(), 1);
    }

    #[test]
    fn paper_plan_fuses_and_reports_so() {
        let mapper = StreamingToneMapper::<f32>::new(params());
        assert!(mapper.decision().is_fused());
        assert!(mapper.decision().barriers().is_empty());
        assert!(mapper.decision().to_string().contains("fused"));
    }

    #[test]
    fn point_only_plans_fuse_and_match_the_two_pass_planner() {
        let hdr = SceneKind::SunAndShadow.generate(31, 22, 8);
        for preset in ["reinhard", "gamma", "log"] {
            let plan = PipelinePlan::preset(
                preset,
                &ToneMapParams::paper_default(),
                &PlanTuning::default(),
            )
            .unwrap()
            .unwrap();
            let streaming =
                StreamingToneMapper::<f32>::compile(plan.clone(), ToneMapParams::paper_default())
                    .unwrap();
            assert!(streaming.decision().is_fused(), "{preset} must fuse");
            assert!(kernels(&streaming).is_empty(), "{preset} has no stencil");
            let two_pass = ToneMapper::compile(plan, ToneMapParams::paper_default()).unwrap();
            let expected = two_pass.map_luminance_hw_blur::<f32>(&hdr);
            assert_eq!(streaming.map_luminance(&hdr), expected, "{preset} diverged");
            // Point-only plans slice rows across threads too, identically.
            for threads in [3, 8, 64] {
                let sliced = streaming.clone().with_threads(threads);
                assert_eq!(
                    sliced.map_luminance(&hdr),
                    expected,
                    "{preset} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn two_stencil_plans_fuse_into_one_cascade_bit_identical_to_two_pass() {
        let plan = two_stencil_plan();
        let streaming =
            StreamingToneMapper::<f32>::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap();
        assert_eq!(streaming.decision(), StreamingDecision::FullyFused);
        assert!(streaming.decision().is_fused());
        // The radius-3 region, then the radius-2 one.
        let taps: Vec<usize> = kernels(&streaming).iter().map(|k| k.len()).collect();
        assert_eq!(taps, [7, 5]);
        let two_pass = ToneMapper::compile(plan.clone(), ToneMapParams::paper_default()).unwrap();
        for (w, h) in [(20, 14), (1, 9), (9, 1), (2, 2), (33, 5)] {
            let hdr = SceneKind::GradientRamp.generate(w, h, 2);
            let expected = two_pass.map_luminance_hw_blur::<f32>(&hdr);
            for threads in [1, 2, 8] {
                assert_eq!(
                    streaming.clone().with_threads(threads).map_luminance(&hdr),
                    expected,
                    "diverged at {w}x{h}, {threads} threads"
                );
            }
        }
        // The fixed-point cascade matches the fixed-point two-pass too.
        let hdr = SceneKind::SunAndShadow.generate(27, 19, 13);
        let streaming_fx =
            StreamingToneMapper::<Fix16>::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap();
        let two_pass_fx = ToneMapper::compile(plan, ToneMapParams::paper_default()).unwrap();
        assert_eq!(
            streaming_fx.map_luminance(&hdr),
            two_pass_fx.map_luminance_hw_blur::<Fix16>(&hdr)
        );
    }

    #[test]
    fn basedetail_preset_fuses_fully_and_matches_two_pass() {
        let params = ToneMapParams::paper_default();
        let plan = PipelinePlan::preset("basedetail", &params, &PlanTuning::default())
            .unwrap()
            .unwrap();
        let streaming = StreamingToneMapper::<Fix16>::compile(plan.clone(), params).unwrap();
        assert!(streaming.decision().is_fused());
        assert_eq!(kernels(&streaming)[0].len(), params.blur.taps());
        let hdr = SceneKind::MemorialComposite.generate(32, 24, 17);
        let two_pass = ToneMapper::compile(plan, params).unwrap();
        assert_eq!(
            streaming.map_luminance(&hdr),
            two_pass.map_luminance_hw_blur::<Fix16>(&hdr)
        );
    }

    #[test]
    fn histogram_reduction_segments_the_plan_instead_of_blocking_it() {
        let hdr = SceneKind::WindowInDarkRoom.generate(29, 18, 6);
        let plan = PipelinePlan::preset(
            "histeq",
            &ToneMapParams::paper_default(),
            &PlanTuning::default(),
        )
        .unwrap()
        .unwrap();
        let streaming =
            StreamingToneMapper::<f32>::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap();
        let decision = streaming.decision();
        assert!(!decision.is_fused());
        assert_eq!(decision.barriers(), [StreamBarrier { index: 1 }]);
        assert_eq!(
            decision.to_string(),
            "segmented into 2 fused passes at 1 materialization barrier: stage 1 (histogram-eq)"
        );
        // Segmented streaming executes the plan identically to the
        // two-pass planner.
        let two_pass = ToneMapper::compile(plan, ToneMapParams::paper_default()).unwrap();
        assert_eq!(
            streaming.map_luminance(&hdr),
            two_pass.map_luminance_hw_blur::<f32>(&hdr)
        );
    }

    #[test]
    fn mid_plan_barriers_split_the_cascade_and_stay_bit_identical() {
        // Stencils on *both* sides of the barrier: segment 0 is the paper
        // chain, segment 1 re-blurs and re-masks the equalized register.
        let blur = BlurParams {
            sigma: 1.5,
            radius: 3,
        };
        let masking = MaskingParams::paper_default();
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur,
                invert_input: true,
            },
            PipelineOp::Mask(masking),
            PipelineOp::HistogramEq { bins: 64 },
            PipelineOp::BlurMask {
                blur,
                invert_input: false,
            },
            PipelineOp::Mask(masking),
            PipelineOp::Curve(Curve::Adjust(AdjustParams::paper_default())),
        ])
        .unwrap();
        let streaming =
            StreamingToneMapper::<f32>::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap();
        let decision = streaming.decision();
        assert_eq!(decision.barriers(), [StreamBarrier { index: 3 }]);
        let two_pass = ToneMapper::compile(plan, ToneMapParams::paper_default()).unwrap();
        for (w, h) in [(26, 21), (1, 12), (12, 1), (3, 3)] {
            let hdr = SceneKind::GradientRamp.generate(w, h, 5);
            let expected = two_pass.map_luminance_hw_blur::<f32>(&hdr);
            for threads in [1, 2, 8] {
                assert_eq!(
                    streaming.clone().with_threads(threads).map_luminance(&hdr),
                    expected,
                    "diverged at {w}x{h}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn masks_straddling_a_barrier_stream_through_a_materialized_plane() {
        // The mask blurred at stage 1 is consumed at stage 3, *after* the
        // barrier at stage 2: segment 0 writes its mask plane, the barrier
        // passes it on, and segment 1's mask reads its rows.
        let plan = mask_across_barrier_plan();
        let p = ToneMapParams::paper_default();
        let streaming = StreamingToneMapper::<f32>::compile(plan.clone(), p).unwrap();
        let decision = streaming.decision();
        assert_eq!(decision.barriers(), [StreamBarrier { index: 2 }]);
        assert_eq!(
            decision.to_string(),
            "segmented into 2 fused passes at 1 materialization barrier: stage 2 (histogram-eq)"
        );
        let Program::Stream(program) = &streaming.program else {
            panic!("a scalar plan compiles to one stream");
        };
        let [SegmentProgram::Fused(first), SegmentProgram::Barrier { .. }, SegmentProgram::Fused(second)] =
            program.segments.as_slice()
        else {
            panic!(
                "two fused segments around the barrier: {:?}",
                program.segments
            );
        };
        assert!(first.writes_mask && !first.reads_mask);
        assert!(second.reads_mask && !second.writes_mask);
        let reference = ToneMapper::compile(plan.clone(), p).unwrap();
        for (w, h) in [(22, 17), (1, 9), (9, 1), (2, 2)] {
            let hdr = SceneKind::WindowInDarkRoom.generate(w, h, 6);
            let f32_ref = reference.map_luminance_hw_blur::<f32>(&hdr);
            let fix_ref = reference.map_luminance_hw_blur::<Fix16>(&hdr);
            let all_ref = reference.map_luminance::<Fix16>(&hdr);
            for threads in [1, 2, 8] {
                let at = format!("{w}x{h}, {threads} threads");
                let f32_stream = streaming.clone().with_threads(threads);
                assert_eq!(f32_stream.map_luminance(&hdr), f32_ref, "f32 at {at}");
                let fix = StreamingToneMapper::<Fix16>::compile(plan.clone(), p).unwrap();
                let fix = fix.with_threads(threads);
                assert_eq!(fix.map_luminance(&hdr), fix_ref, "Fix16 at {at}");
                let all =
                    StreamingToneMapper::<Fix16, AllStages>::compile(plan.clone(), p).unwrap();
                let all = all.with_threads(threads);
                assert_eq!(all.map_luminance(&hdr), all_ref, "all-Fix16 at {at}");
            }
        }
    }

    #[test]
    fn materialized_stencils_match_the_reference_on_every_scalar_preset() {
        // The two-pass point: a boundary after every stencil, on both
        // datapaths, at every thread count.
        let p = params();
        let hdr = SceneKind::SunAndShadow.generate(29, 23, 4);
        let mut plans: Vec<PipelinePlan> = PipelinePlan::PRESETS
            .iter()
            .map(|name| PipelinePlan::preset(name, &p, &PlanTuning::default()))
            .map(|plan| plan.unwrap().unwrap())
            .filter(|plan| plan.input_layout() == ChannelLayout::Scalar)
            .collect();
        plans.extend([two_stencil_plan(), mask_across_barrier_plan()]);
        for plan in plans {
            let reference = ToneMapper::compile(plan.clone(), p).unwrap();
            let split_ref = reference.map_luminance_hw_blur::<Fix16>(&hdr);
            let all_ref = reference.map_luminance::<Fix16>(&hdr);
            for threads in [1, 2, 8] {
                let split = StreamingToneMapper::<Fix16>::compile(plan.clone(), p)
                    .unwrap()
                    .with_threads(threads)
                    .with_materialized_stencils(true);
                assert_eq!(split.map_luminance(&hdr), split_ref, "{plan} split");
                let all = StreamingToneMapper::<Fix16, AllStages>::compile(plan.clone(), p)
                    .unwrap()
                    .with_threads(threads)
                    .with_materialized_stencils(true);
                assert_eq!(all.map_luminance(&hdr), all_ref, "{plan} all-Fix16");
            }
        }
    }

    #[test]
    fn every_stage_datapath_matches_the_all_sample_reference() {
        // Registers in `S`: the stencil inverts in `S` and the output
        // converts into the caller's frame at the end.
        let p = params();
        for (w, h) in [(37, 29), (1, 12), (12, 1), (3, 2), (BLOCK + 1, 5)] {
            let hdr = SceneKind::MemorialComposite.generate(w, h, 9);
            for plan in [PipelinePlan::from_params(&p), two_stencil_plan()] {
                let reference = ToneMapper::compile(plan.clone(), p).unwrap();
                let fix_ref = reference.map_luminance::<Fix16>(&hdr);
                let f64_ref = reference.map_luminance::<f64>(&hdr);
                for threads in [1, 2, 8] {
                    let at = format!("{plan} at {w}x{h}, {threads} threads");
                    let fix = StreamingToneMapper::<Fix16, AllStages>::compile(plan.clone(), p)
                        .unwrap()
                        .with_threads(threads);
                    let stale = vec![f32::NAN; hdr.pixels().len()];
                    let into = fix.map_luminance_into(&hdr, &mut FrameReductions, stale);
                    assert_eq!(into, fix_ref, "Fix16 {at}");
                    let f64_stream =
                        StreamingToneMapper::<f64, AllStages>::compile(plan.clone(), p)
                            .unwrap()
                            .with_threads(threads);
                    assert_eq!(f64_stream.map_luminance(&hdr), f64_ref, "f64 {at}");
                }
            }
        }
    }

    #[test]
    fn fused_custom_plans_with_prolog_ops_match_the_two_pass_planner() {
        // A gamma curve *before* the blur exercises the first region's
        // point chain (fused into the producer side of its line buffer).
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::Curve(Curve::Gamma { gamma: 0.8 }),
            PipelineOp::BlurMask {
                blur: BlurParams {
                    sigma: 2.0,
                    radius: 4,
                },
                invert_input: true,
            },
            PipelineOp::Mask(MaskingParams::paper_default()),
            PipelineOp::Curve(Curve::Adjust(AdjustParams::paper_default())),
        ])
        .unwrap();
        let hdr = SceneKind::MemorialComposite.generate(26, 33, 11);
        for threads in [1, 4] {
            let streaming =
                StreamingToneMapper::<Fix16>::compile(plan.clone(), ToneMapParams::paper_default())
                    .unwrap()
                    .with_threads(threads);
            assert!(streaming.decision().is_fused());
            let two_pass = ToneMapper::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap()
                .map_luminance_hw_blur::<Fix16>(&hdr);
            assert_eq!(streaming.map_luminance(&hdr), two_pass);
        }
    }

    #[test]
    fn colour_plans_stream_bit_identical_to_two_pass_at_any_thread_count() {
        let p = params();
        let tuning = PlanTuning::default();
        let hdr = SceneKind::SunAndShadow.generate_rgb(41, 27, 9);
        for name in [
            "hsv-reinhard",
            "filmic",
            "aces",
            "drago",
            "pq-out",
            "hlg-out",
        ] {
            let plan = PipelinePlan::preset(name, &p, &tuning).unwrap().unwrap();
            let reference = ToneMapper::compile(plan.clone(), p)
                .unwrap()
                .map_rgb_hw_blur::<Fix16>(&hdr)
                .unwrap();
            let all_fixed = ToneMapper::compile(plan.clone(), p)
                .unwrap()
                .map_rgb::<Fix16>(&hdr)
                .unwrap();
            for threads in [1, 2, 8] {
                let streaming = StreamingToneMapper::<Fix16>::compile(plan.clone(), p)
                    .unwrap()
                    .with_threads(threads)
                    .map_rgb(&hdr)
                    .unwrap();
                assert_eq!(streaming, reference, "{name} diverged at {threads} threads");
                let all = StreamingToneMapper::<Fix16, AllStages>::compile(plan.clone(), p)
                    .unwrap()
                    .with_threads(threads)
                    .map_rgb(&hdr)
                    .unwrap();
                assert_eq!(
                    all, all_fixed,
                    "all-Fix16 {name} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn composed_wrapper_plans_stream_bit_identical_to_two_pass() {
        // The explicit extract → plan → reapply composition streams its
        // embedded scalar sub-plan through the compiled cascade.
        let p = params();
        let plan = PipelinePlan::from_params(&p).compose_for_rgb();
        let hdr = SceneKind::MemorialComposite.generate_rgb(33, 29, 4);
        let reference = ToneMapper::compile(plan.clone(), p)
            .unwrap()
            .map_rgb_hw_blur::<Fix16>(&hdr)
            .unwrap();
        for threads in [1, 2, 8] {
            let mapper = StreamingToneMapper::<Fix16>::compile(plan.clone(), p).unwrap();
            assert!(mapper.decision().is_fused());
            assert!(!kernels(&mapper).is_empty());
            let streaming = mapper.with_threads(threads).map_rgb(&hdr).unwrap();
            assert_eq!(streaming, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn scalar_plans_take_the_classic_wrapper_path_through_map_rgb() {
        let p = params();
        let hdr = SceneKind::GradientRamp.generate_rgb(24, 18, 6);
        let streaming = StreamingToneMapper::<f32>::new(p).map_rgb(&hdr).unwrap();
        let classic = ToneMapper::new(p).map_rgb_hw_blur::<f32>(&hdr).unwrap();
        assert_eq!(streaming, classic);
    }

    #[test]
    fn colour_barrier_indices_offset_into_the_outer_plan() {
        // histeq composed for rgb: [extract, normalize, histogram-eq,
        // reapply] — the barrier sits at local index 1 of the sub-plan,
        // global index 2 of the outer plan.
        let p = params();
        let plan = PipelinePlan::preset("histeq", &p, &PlanTuning::default())
            .unwrap()
            .unwrap()
            .compose_for_rgb();
        let mapper = StreamingToneMapper::<f32>::compile(plan, p).unwrap();
        match mapper.decision() {
            StreamingDecision::Segmented { barriers } => {
                assert_eq!(barriers.len(), 1);
                assert_eq!(barriers[0].index, 2);
            }
            other => panic!("expected a segmented colour stream, got {other:?}"),
        }
    }

    #[test]
    fn pure_point_colour_plans_fuse_with_no_kernel() {
        let p = params();
        let plan = PipelinePlan::preset("hsv-reinhard", &p, &PlanTuning::default())
            .unwrap()
            .unwrap();
        let mapper = StreamingToneMapper::<f32>::compile(plan, p).unwrap();
        assert!(mapper.decision().is_fused());
        assert!(kernels(&mapper).is_empty());
    }

    #[test]
    #[should_panic(expected = "scalar-input plan")]
    fn map_luminance_panics_on_colour_plans() {
        let p = params();
        let plan = PipelinePlan::preset("hsv-reinhard", &p, &PlanTuning::default())
            .unwrap()
            .unwrap();
        let hdr = SceneKind::GradientRamp.generate(8, 8, 1);
        let _ = StreamingToneMapper::<f32>::compile(plan, p)
            .unwrap()
            .map_luminance(&hdr);
    }

    /// The stream of `plan` on datapath `D` in `S`, at `threads`, fused or
    /// with materialized stencils.
    fn stream<S: Sample, D: Datapath<S>>(
        plan: &PipelinePlan,
        p: ToneMapParams,
        hdr: &LuminanceImage,
        threads: usize,
        materialize: bool,
    ) -> LuminanceImage {
        StreamingToneMapper::<S, D>::compile(plan.clone(), p)
            .unwrap()
            .with_threads(threads)
            .with_materialized_stencils(materialize)
            .map_luminance(hdr)
    }

    /// Every datapath and sample type of a plan's stream against its
    /// reference — `f32` and Fix16 on [`Split`], Fix16 and `f64` on
    /// [`AllStages`] — fused and with materialized stencils, at `threads`.
    fn assert_every_numerics_matches(
        plan: &PipelinePlan,
        p: ToneMapParams,
        hdr: &LuminanceImage,
        threads: usize,
    ) {
        let reference = ToneMapper::compile(plan.clone(), p).unwrap();
        let (w, h) = hdr.dimensions();
        for m in [false, true] {
            let at = format!("{plan} at {w}x{h}, {threads} threads, materialized {m}");
            let f32_ref = reference.map_luminance_hw_blur::<f32>(hdr);
            let fix_ref = reference.map_luminance_hw_blur::<Fix16>(hdr);
            let all_ref = reference.map_luminance::<Fix16>(hdr);
            let f64_ref = reference.map_luminance::<f64>(hdr);
            let f32_stream = stream::<f32, Split>(plan, p, hdr, threads, m);
            assert_eq!(f32_stream, f32_ref, "f32 {at}");
            let fix_stream = stream::<Fix16, Split>(plan, p, hdr, threads, m);
            assert_eq!(fix_stream, fix_ref, "Fix16 {at}");
            let all_stream = stream::<Fix16, AllStages>(plan, p, hdr, threads, m);
            assert_eq!(all_stream, all_ref, "all-Fix16 {at}");
            let f64_stream = stream::<f64, AllStages>(plan, p, hdr, threads, m);
            assert_eq!(f64_stream, f64_ref, "all-f64 {at}");
        }
    }

    #[test]
    fn band_straddling_geometries_match_the_reference() {
        // Heights 1–9 and 4k ± 1 straddle the band of four rows; widths
        // 15, 16, 17, 31 and 33 straddle its block of sixteen columns. The
        // radius-5 kernel meets or exceeds every height up to 5, and the
        // two-stencil cascade's radii (3, then 2) differ.
        let p = params();
        let plans = [PipelinePlan::from_params(&p), two_stencil_plan()];
        let heights = (1..=9).chain([15, 17, 31, 33]);
        let geometries = heights
            .map(|h| (17, h))
            .chain([15, 16, 31, 33].map(|w| (w, 9)))
            .chain([(33, 17), (16, 4), (1, 9), (48, 1)]);
        for (w, h) in geometries {
            let hdr = SceneKind::MemorialComposite.generate(w, h, 23);
            for plan in &plans {
                assert_every_numerics_matches(plan, p, &hdr, 1);
            }
        }
    }

    #[test]
    fn band_slices_match_the_reference_at_every_slice_count() {
        // Slices of 17 and 33 rows at 2, 3 and 8 slices hold row counts
        // that are not multiples of the band (9 + 8, 6 + 6 + 5, 3 × 5 + 2,
        // …); each slice starts its own rings and ends on a short band.
        let p = params();
        for plan in [PipelinePlan::from_params(&p), two_stencil_plan()] {
            for (w, h) in [(33, 17), (17, 33), (31, 9)] {
                let hdr = SceneKind::SunAndShadow.generate(w, h, 29);
                let reference = ToneMapper::compile(plan.clone(), p).unwrap();
                let split_ref = reference.map_luminance_hw_blur::<Fix16>(&hdr);
                let f32_ref = reference.map_luminance_hw_blur::<f32>(&hdr);
                let all_ref = reference.map_luminance::<Fix16>(&hdr);
                let f64_ref = reference.map_luminance::<f64>(&hdr);
                for slices in [1, 2, 3, 8] {
                    let at = format!("{plan} at {w}x{h}, {slices} slices");
                    let f32_run = sliced::<f32, Split>(&plan, p, &hdr, slices);
                    assert_eq!(f32_run, f32_ref.pixels(), "f32 {at}");
                    let fix_run = sliced::<Fix16, Split>(&plan, p, &hdr, slices);
                    assert_eq!(fix_run, split_ref.pixels(), "Fix16 {at}");
                    let all_run = sliced::<Fix16, AllStages>(&plan, p, &hdr, slices);
                    assert_eq!(all_run, all_ref.pixels(), "all-Fix16 {at}");
                    let f64_run = sliced::<f64, AllStages>(&plan, p, &hdr, slices);
                    assert_eq!(f64_run, f64_ref.pixels(), "all-f64 {at}");
                }
            }
        }
        // Every host core held: a ×8 run is granted no slice and runs the
        // whole frame as one slice, bands and all.
        let held: Vec<cores::Held> = (0..cores::host_cores()).map(|_| cores::hold()).collect();
        let hdr = SceneKind::SunAndShadow.generate(33, 17, 29);
        for plan in [PipelinePlan::from_params(&p), two_stencil_plan()] {
            assert_every_numerics_matches(&plan, p, &hdr, 8);
        }
        drop(held);
    }

    /// The pixels `run_slices` gives for the one fused segment of `plan`
    /// in `slices` slices, as `f32`.
    fn sliced<S: Sample, D: Datapath<S>>(
        plan: &PipelinePlan,
        p: ToneMapParams,
        hdr: &LuminanceImage,
        slices: usize,
    ) -> Vec<f32> {
        let mapper = StreamingToneMapper::<S, D>::compile(plan.clone(), p).unwrap();
        let input = Input::Source(hdr, FrameReductions.normalize_scale(hdr));
        let (out, _) = run_slices::<S, D>(first_segment(&mapper), input, None, slices, Vec::new());
        out.pixels().iter().map(|v| v.to_f32()).collect()
    }

    /// The one fused segment of a compiled single-segment scalar plan.
    fn first_segment<S: Sample, D>(mapper: &StreamingToneMapper<S, D>) -> &FusedSegment<S> {
        let Program::Stream(program) = &mapper.program else {
            panic!("{} streams", mapper.plan);
        };
        let [SegmentProgram::Fused(segment)] = program.segments.as_slice() else {
            panic!("{} compiles to one fused segment", mapper.plan);
        };
        segment
    }

    /// A plan with no normalize: its stencils see the raw luminance, signs
    /// and all, and the Fix16 quantizer saturates samples beyond ±8.
    fn raw_plan() -> PipelinePlan {
        PipelinePlan::new(vec![
            PipelineOp::BlurMask {
                blur: BlurParams {
                    sigma: 2.0,
                    radius: 4,
                },
                invert_input: false,
            },
            PipelineOp::Mask(MaskingParams::paper_default()),
            PipelineOp::BlurMask {
                blur: BlurParams {
                    sigma: 1.0,
                    radius: 2,
                },
                invert_input: true,
            },
            PipelineOp::Mask(MaskingParams::paper_default()),
        ])
        .unwrap()
    }

    #[test]
    fn fix16_taps_match_the_reference_on_negative_saturating_and_mixed_blocks() {
        let p = params();
        let plan = raw_plan();
        let scene = |w, h| SceneKind::MemorialComposite.generate(w, h, 31);
        // Negative luminance everywhere: every block falls back to the
        // per-tap `Fix::mul_add`.
        let negative = scene(37, 21).map(|&v| -v - 0.01);
        // Samples at and beyond Fix16's range: sums saturate at MAX.
        let saturating = scene(37, 21).map(|&v| 7.999 + 50.0 * v);
        // Signs mixed by row band, by column block and by pixel: exact
        // blocks sit beside fallback blocks, and the second stencil's
        // inverted input turns the sign of the first's mask.
        let mixed = ImageBuffer::from_fn(41, 27, |x, y| {
            let v = (x * 7 + y * 13) as f32 % 9.0 / 4.0;
            match (y / 6 + x / 16) % 3 {
                0 => v,
                1 => -v,
                _ => {
                    if (x + y) % 5 == 0 {
                        -0.5 * v
                    } else {
                        8.5 * v
                    }
                }
            }
        });
        for hdr in [negative, saturating, mixed] {
            for threads in [1, 2] {
                assert_every_numerics_matches(&plan, p, &hdr, threads);
            }
        }
    }

    #[test]
    fn exact_taps_equal_per_tap_mul_add_on_non_negative_rows() {
        // Both passes' kernels over rows of non-negative Fix16 samples up
        // to MAX, at widths around both blocks: the exact integer sums
        // equal the per-tap reference, saturation included.
        let kernel = quantize_kernel::<Fix16>(&gaussian_kernel(&BlurParams {
            sigma: 3.0,
            radius: 6,
        }));
        let heavy = vec![Fix16::MAX; kernel.len()];
        for weights in [kernel.as_slice(), heavy.as_slice()] {
            for width in [1, 15, 16, 17, 63, 64, 65, 97] {
                let rows: Vec<Vec<Fix16>> = (0..weights.len() + BAND - 1)
                    .map(|r| {
                        (0..width)
                            .map(|c| match (r + c) % 4 {
                                0 => Fix16::MAX,
                                _ => Fix16::from_raw(((r * 977 + c * 131) % 32768) as i64),
                            })
                            .collect()
                    })
                    .collect();
                let tap_row = |t: usize| rows[t].as_slice();
                let mut exact = vec![Fix16::ZERO; BAND * width];
                let mut reference = exact.clone();
                fir_band::<Fix16, NonNeg, Fix16>(&mut exact, weights, tap_row, |v| v);
                fir_band::<Fix16, MulAdd, Fix16>(&mut reference, weights, tap_row, |v| v);
                assert_eq!(exact, reference, "band at width {width}");
                for j in 0..BAND {
                    let mut row = vec![Fix16::ZERO; width];
                    fir::<Fix16, MulAdd, Fix16>(&mut row, weights, |k| tap_row(j + k), |v| v);
                    assert_eq!(
                        row,
                        reference[j * width..][..width],
                        "row {j} at width {width}"
                    );
                }
            }
        }
    }
}
