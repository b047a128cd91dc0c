//! The streaming pipeline planner — the Fig. 4 line buffer in software,
//! cascaded.
//!
//! [`crate::ToneMapper`] materialises a full-size intermediate image after
//! every stage of its plan — one DDR round trip per stage, exactly the
//! memory traffic the paper's restructured accelerator eliminates with its
//! BRAM line buffer. [`StreamingToneMapper`] is the software analogue of
//! that restructuring, generalised to any [`PipelinePlan`]: it *compiles*
//! the plan and decides, stage class by stage class, how much of it can run
//! in fused raster order:
//!
//! * **point ops** (normalize, mask and every [`crate::plan::Curve`]) fuse
//!   freely into the chains of whichever fused region consumes them,
//!   applied as row kernels: each op matched once per row, then run
//!   op-major over the row;
//! * **each stencil op** (a separable Gaussian blur) becomes its own
//!   rolling ring of `2·radius + 1` horizontally-blurred rows — one line
//!   buffer per stencil, cascaded back-to-back so stage *k*'s ring is fed
//!   on demand by stage *k − 1*'s rows (staggered row latency = sum of the
//!   upstream radii), the way HWTool and the Halide-to-hardware flows
//!   compose line-buffered stages. Both passes of a stencil are
//!   output-stationary, like the pipelined datapath of Fig. 4: a block of
//!   output samples accumulates in registers over all taps and is stored
//!   once;
//! * **reductions over an intermediate** (histogram equalization) are
//!   *materialization barriers*: the histogram/CDF must see the whole
//!   intermediate before the first output pixel, so the plan splits at the
//!   barrier into fused segments ([`PipelinePlan::segmentation`]) — one
//!   cascade per segment — instead of abandoning fusion;
//! * only a **mask whose lifetime straddles a barrier** still forces the
//!   two-pass fallback: the consumer's segment would need a ring the
//!   barrier has already drained ([`FusionBlocker::MaskAcrossBarrier`]).
//!
//! The compiled decision — [`StreamingDecision::FullyFused`], `Segmented`
//! with its barriers, or `Fallback` with its reasons — is inspectable
//! through [`StreamingToneMapper::decision`].
//!
//! Whatever the verdict, the arithmetic is *bit-identical* to the two-pass
//! planner: every sample goes through the same operations in the same
//! order ([`crate::normalize::normalize_sample`],
//! [`crate::blur::quantize_kernel`]'s taps applied in ascending tap order,
//! [`crate::masking::masked_sample`], and each curve's one definition,
//! [`crate::plan::Curve::apply`]), only the schedule changes. That makes
//! the streaming engines drop-in replacements whose outputs equal the
//! classic engines' exactly — the property the paper relies on when it
//! swaps the software blur for the line-buffered accelerator.
//!
//! Like [`crate::ToneMapper::map_luminance_hw_blur`], the pipeline uses the
//! paper's hardware/software split: the point-wise stages compute in `f32`
//! (the processing system) while each stencil computes in the sample type
//! `S` (the programmable logic), with quantisation at the accelerator
//! boundary. `S = f32` therefore reproduces the pure software reference and
//! `S = apfixed::Fix16` the paper's final fixed-point accelerator.
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
    accelerated_blur, execute_plan_into, histogram_barrier, run_color_plan, ChannelLayout,
    ColorStage, PipelineOp, PipelinePlan,
};
use crate::point::{apply_chain, Ingest};
use crate::reductions::{FrameReductions, Reductions};
use crate::sample::Sample;
use hdr_image::{LuminanceImage, RgbImage};
use std::fmt;

/// Why a plan could not stream at all (not even segmented).
///
/// Since plan segmentation landed, reductions and extra stencils no longer
/// block streaming — barriers split the plan, stencils cascade. The one
/// remaining blocker is a mask register whose lifetime crosses a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionBlocker {
    /// A blurred mask produced before a materialization barrier is consumed
    /// after it. The consumer's fused segment would need the producer's row
    /// ring, but the barrier has already drained the cascade, so the plan
    /// falls back to two-pass execution.
    MaskAcrossBarrier {
        /// Index of the [`PipelineOp::BlurMask`] stage that produced the mask.
        producer: usize,
        /// Index of the barrier stage the mask's lifetime straddles.
        barrier: usize,
    },
}

impl FusionBlocker {
    /// The plan stage this blocker anchors to, used to order the reasons
    /// list. Every variant reports a real stage index — the old
    /// `usize::MAX` sentinel for index-less variants is gone.
    pub fn stage_index(&self) -> usize {
        match *self {
            FusionBlocker::MaskAcrossBarrier { barrier, .. } => barrier,
        }
    }
}

impl fmt::Display for FusionBlocker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FusionBlocker::MaskAcrossBarrier { producer, barrier } => write!(
                f,
                "the mask blurred at stage {producer} is consumed after the materialization \
                 barrier at stage {barrier}, so its row ring cannot survive the barrier"
            ),
        }
    }
}

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

/// The streaming planner's verdict on a compiled plan.
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
    /// The plan executes through the two-pass (materialized) executor, for
    /// the listed reasons.
    Fallback {
        /// Every blocker the planner found, in stage order.
        reasons: Vec<FusionBlocker>,
    },
}

impl StreamingDecision {
    /// `true` when the plan streams as one fused pass.
    pub fn is_fused(&self) -> bool {
        matches!(self, StreamingDecision::FullyFused)
    }

    /// `true` when the plan executes through the streaming cascade at all
    /// — fully fused or segmented — rather than the two-pass fallback.
    pub fn is_streamed(&self) -> bool {
        !matches!(self, StreamingDecision::Fallback { .. })
    }

    /// The fusion blockers (empty unless the plan fell back).
    pub fn reasons(&self) -> &[FusionBlocker] {
        match self {
            StreamingDecision::Fallback { reasons } => reasons,
            _ => &[],
        }
    }

    /// The materialization barriers (empty unless the plan is segmented).
    pub fn barriers(&self) -> &[StreamBarrier] {
        match self {
            StreamingDecision::Segmented { barriers } => barriers,
            _ => &[],
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
            StreamingDecision::Fallback { reasons } => {
                f.write_str("materialized two-pass fallback: ")?;
                for (i, reason) in reasons.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{reason}")?;
                }
                Ok(())
            }
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
}

/// One fused segment of a compiled plan: a cascade of line-buffer regions
/// followed by the point-op epilog (which consumes the last region's mask).
#[derive(Debug, Clone, PartialEq)]
struct FusedSegment<S: Sample> {
    regions: Vec<Region<S>>,
    epilog: Vec<PipelineOp>,
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
/// the materialization barrier between two of them. Segments always
/// alternate starting (and ending) with a fused segment, possibly empty.
#[derive(Debug, Clone, PartialEq)]
enum SegmentProgram<S: Sample> {
    Fused(FusedSegment<S>),
    Barrier { index: usize, bins: usize },
}

/// A plan compiled for streaming execution.
#[derive(Debug, Clone, PartialEq)]
struct StreamProgram<S: Sample> {
    /// Whether the plan starts with normalization (resolved by the scale
    /// pre-scan over the raw input).
    normalize: bool,
    segments: Vec<SegmentProgram<S>>,
}

/// A colour-managed (`Rgb`-input) plan compiled for streaming: each
/// embedded scalar sub-plan gets its own compiled streaming program, keyed
/// by the index of its first op in the outer plan. The colour point stages
/// (conversions, transfer curves, HSV tone curves) are pure per-pixel work
/// executed straight from the plan's colour walk.
#[derive(Debug, Clone, PartialEq)]
struct ColorProgram<S: Sample> {
    /// `(start, compiled sub-program)` per embedded scalar run.
    subs: Vec<(usize, Program<S>)>,
}

#[derive(Debug, Clone, PartialEq)]
enum Program<S: Sample> {
    Stream(StreamProgram<S>),
    Fallback(Vec<FusionBlocker>),
    Color(ColorProgram<S>),
}

fn compile_program<S: Sample>(plan: &PipelinePlan) -> Program<S> {
    if plan.input_layout() == ChannelLayout::Rgb {
        let subs = plan
            .color_stages()
            .into_iter()
            .filter_map(|stage| match stage {
                ColorStage::Scalar { plan, start } => {
                    Some((start, compile_scalar_program::<S>(&plan)))
                }
                _ => None,
            })
            .collect();
        return Program::Color(ColorProgram { subs });
    }
    compile_scalar_program(plan)
}

fn compile_scalar_program<S: Sample>(plan: &PipelinePlan) -> Program<S> {
    // The one shape that cannot stream: a mask produced before a barrier
    // and consumed after it. Plan validation allows it (reductions do not
    // touch the mask register), but the consumer's segment would need a row
    // ring the barrier has already drained.
    let mut reasons: Vec<FusionBlocker> = Vec::new();
    let mut pending_mask: Option<usize> = None;
    for (index, op) in plan.ops().iter().enumerate() {
        match op {
            PipelineOp::BlurMask { .. } => pending_mask = Some(index),
            PipelineOp::Mask(_) => pending_mask = None,
            PipelineOp::HistogramEq { .. } => {
                if let Some(producer) = pending_mask {
                    reasons.push(FusionBlocker::MaskAcrossBarrier {
                        producer,
                        barrier: index,
                    });
                }
            }
            _ => {}
        }
    }
    if !reasons.is_empty() {
        reasons.sort_by_key(|r| {
            let FusionBlocker::MaskAcrossBarrier { producer, .. } = *r;
            (r.stage_index(), producer)
        });
        return Program::Fallback(reasons);
    }

    let normalize = plan.starts_with_normalize();
    let mut segments = Vec::new();
    let mut regions: Vec<Region<S>> = Vec::new();
    let mut chain: Vec<PipelineOp> = Vec::new();
    for (index, op) in plan.ops().iter().enumerate() {
        if index == 0 && normalize {
            continue;
        }
        match op {
            PipelineOp::BlurMask { blur, invert_input } => regions.push(Region {
                chain: std::mem::take(&mut chain),
                kernel: quantize_kernel::<S>(&gaussian_kernel(blur)),
                invert_input: *invert_input,
            }),
            PipelineOp::HistogramEq { bins } => {
                segments.push(SegmentProgram::Fused(FusedSegment {
                    regions: std::mem::take(&mut regions),
                    epilog: std::mem::take(&mut chain),
                }));
                segments.push(SegmentProgram::Barrier { index, bins: *bins });
            }
            _ => chain.push(*op),
        }
    }
    segments.push(SegmentProgram::Fused(FusedSegment {
        regions,
        epilog: chain,
    }));
    Program::Stream(StreamProgram {
        normalize,
        segments,
    })
}

/// The streaming tone mapper: a [`PipelinePlan`] compiled into fused
/// raster-order cascades of rolling row rings — one line buffer per stencil
/// stage — with full-size intermediates only at materialization barriers.
///
/// Unlike [`crate::ToneMapper`], every blur kernel is quantised into `S`
/// **once at construction** and reused for every image this mapper
/// processes — the classic path re-derives and re-quantises it on every
/// call.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingToneMapper<S: Sample> {
    params: ToneMapParams,
    plan: PipelinePlan,
    program: Program<S>,
    threads: usize,
}

impl<S: Sample> StreamingToneMapper<S> {
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
    /// split the plan into fused segments; the rare plan that cannot stream
    /// at all (a mask straddling a barrier) still executes — through the
    /// two-pass fallback — and [`StreamingToneMapper::decision`] reports
    /// why.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ParamError`] if `params` fail validation (the plan
    /// itself was validated when it was built).
    pub fn compile(plan: PipelinePlan, params: ToneMapParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(StreamingToneMapper {
            params,
            program: compile_program::<S>(&plan),
            plan,
            threads: 1,
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

    /// The parameters this mapper was built with.
    pub const fn params(&self) -> &ToneMapParams {
        &self.params
    }

    /// The pipeline plan this mapper compiled.
    pub const fn plan(&self) -> &PipelinePlan {
        &self.plan
    }

    /// The planner's verdict for the compiled plan — one fused pass, a
    /// barrier-segmented stream, or the two-pass fallback with the reasons
    /// why.
    pub fn decision(&self) -> StreamingDecision {
        match &self.program {
            Program::Fallback(reasons) => StreamingDecision::Fallback {
                reasons: reasons.clone(),
            },
            Program::Stream(program) => {
                let barriers = stream_barriers(program, 0);
                if barriers.is_empty() {
                    StreamingDecision::FullyFused
                } else {
                    StreamingDecision::Segmented { barriers }
                }
            }
            // A colour program aggregates its scalar sub-programs' verdicts,
            // with barrier/blocker indices offset back into the outer plan.
            // The colour point stages themselves always stream (pure
            // per-pixel work), so they never add barriers or blockers.
            Program::Color(color) => {
                let mut reasons: Vec<FusionBlocker> = Vec::new();
                let mut barriers: Vec<StreamBarrier> = Vec::new();
                for (start, program) in &color.subs {
                    match program {
                        Program::Fallback(sub) => reasons.extend(sub.iter().map(|r| {
                            let FusionBlocker::MaskAcrossBarrier { producer, barrier } = *r;
                            FusionBlocker::MaskAcrossBarrier {
                                producer: producer + start,
                                barrier: barrier + start,
                            }
                        })),
                        Program::Stream(sub) => barriers.extend(stream_barriers(sub, *start)),
                        Program::Color(_) => unreachable!("colour programs never nest"),
                    }
                }
                if !reasons.is_empty() {
                    StreamingDecision::Fallback { reasons }
                } else if barriers.is_empty() {
                    StreamingDecision::FullyFused
                } else {
                    StreamingDecision::Segmented { barriers }
                }
            }
        }
    }

    /// The most row slices a fused segment runs concurrently
    /// ([`StreamingToneMapper::with_threads`]).
    pub const fn threads(&self) -> usize {
        self.threads
    }

    /// The first cascade region's blur kernel quantised into the working
    /// sample type at construction (empty for plans without a fused stencil
    /// stage).
    pub fn kernel(&self) -> &[S] {
        first_kernel(&self.program)
    }

    /// Tone-maps an HDR luminance image through the compiled plan,
    /// returning the display-referred result — the same pixels
    /// [`crate::ToneMapper::map_luminance_hw_blur`] produces for the same
    /// plan (and, for `S = f32`, the same pixels as the all-float
    /// reference).
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
    /// into `frame` by the last step that materializes it: the last fused
    /// segment, or a trailing barrier. A frame of the image's length is
    /// overwritten without a fill and returned as the output's buffer; any
    /// other is resized. Intermediates allocate their own planes.
    pub fn map_luminance_into(
        &self,
        hdr: &LuminanceImage,
        reductions: &mut dyn Reductions,
        frame: Vec<f32>,
    ) -> LuminanceImage {
        if let Program::Color(_) = &self.program {
            panic!(
                "map_luminance requires a scalar-input plan; this plan takes a `{}` register — \
                 stream it through map_rgb",
                self.plan.input_layout()
            );
        }
        self.run_scalar(&self.program, &self.plan, hdr, reductions, frame)
    }

    /// Tone-maps an HDR RGB image through the compiled plan.
    ///
    /// The colour point stages (conversions, transfer curves, HSV tone
    /// curves, chroma split/merge) run through the shared register walk of
    /// [`run_color_plan`] while every scalar plan streams through its
    /// compiled line-buffer cascade, row-sliced across the configured
    /// threads. A **scalar-input plan** is that walk's auto-composed ratio
    /// wrapper — extract the luminance plane, stream it, re-apply the colour
    /// by clamped ratio — exactly as [`crate::ToneMapper::map_rgb`] runs it.
    /// Either way the result is bit-identical to the two-pass planner's.
    ///
    /// # Errors
    ///
    /// Propagates [`hdr_image::ImageError`] from the chroma re-apply step
    /// (dimension mismatches cannot occur for plans built by this type, so
    /// in practice this is infallible).
    pub fn map_rgb(&self, hdr: &RgbImage) -> Result<RgbImage, hdr_image::ImageError> {
        run_color_plan(&self.plan, hdr, |start, sub_plan, lum| {
            let program = match &self.program {
                Program::Color(color) => color
                    .subs
                    .iter()
                    .find_map(|(s, program)| (*s == start).then_some(program))
                    .expect("compilation visits every scalar stage of the plan"),
                scalar => scalar,
            };
            Ok(self.run_scalar(program, sub_plan, lum, &mut FrameReductions, Vec::new()))
        })
    }

    /// Runs one scalar plan on its compiled program, writing the output
    /// into `frame`; a fallback program runs through the two-pass executor
    /// with the same hardware/software split.
    fn run_scalar(
        &self,
        program: &Program<S>,
        plan: &PipelinePlan,
        lum: &LuminanceImage,
        reductions: &mut dyn Reductions,
        frame: Vec<f32>,
    ) -> LuminanceImage {
        match program {
            Program::Stream(program) => {
                run_stream_program(program, lum, self.threads, reductions, frame)
            }
            Program::Fallback(_) => {
                execute_plan_into(plan, lum, accelerated_blur::<S>, reductions, frame)
            }
            Program::Color(_) => unreachable!("colour programs never nest"),
        }
    }
}

/// The barriers of one compiled scalar stream, with stage indices offset
/// back into the outer plan (offset 0 for a stand-alone scalar plan).
fn stream_barriers<S: Sample>(program: &StreamProgram<S>, offset: usize) -> Vec<StreamBarrier> {
    program
        .segments
        .iter()
        .filter_map(|segment| match segment {
            SegmentProgram::Barrier { index, .. } => Some(StreamBarrier {
                index: index + offset,
            }),
            SegmentProgram::Fused(_) => None,
        })
        .collect()
}

/// The first fused region's quantised kernel anywhere in the program — for
/// colour programs, the first scalar sub-program that has one.
fn first_kernel<S: Sample>(program: &Program<S>) -> &[S] {
    match program {
        Program::Stream(program) => program
            .segments
            .iter()
            .find_map(|segment| match segment {
                SegmentProgram::Fused(seg) => seg.regions.first().map(|r| r.kernel.as_slice()),
                SegmentProgram::Barrier { .. } => None,
            })
            .unwrap_or(&[]),
        Program::Fallback(_) => &[],
        Program::Color(color) => color
            .subs
            .iter()
            .map(|(_, sub)| first_kernel(sub))
            .find(|kernel| !kernel.is_empty())
            .unwrap_or(&[]),
    }
}

/// Runs one compiled scalar stream over a luminance image: fused segments
/// execute as line-buffer cascades (or pure point passes), barriers
/// materialize and reduce exactly as the two-pass executor would, and
/// `reductions` binds the normalize scale, the Reinhard key factor and
/// each barrier's CDF. The last step that runs writes the output into
/// `frame`.
fn run_stream_program<S: Sample>(
    program: &StreamProgram<S>,
    hdr: &LuminanceImage,
    threads: usize,
    reductions: &mut dyn Reductions,
    mut frame: Vec<f32>,
) -> LuminanceImage {
    // A no-op segment on an already-materialized register (e.g. after a
    // trailing reduction) has nothing to compute. The *first* segment
    // always runs: its ingestion is the sanitize/normalize step of the
    // two-pass executor.
    let runs = |index: usize, segment: &SegmentProgram<S>| {
        index == 0 || !matches!(segment, SegmentProgram::Fused(seg) if seg.is_identity())
    };
    let last = (0..program.segments.len())
        .rev()
        .find(|&index| runs(index, &program.segments[index]));
    let scale = program.normalize.then(|| reductions.normalize_scale(hdr));
    let key_scale = reductions.key_scale();
    let mut ingest = Ingest::Source(scale.flatten());
    let mut current: Option<LuminanceImage> = None;
    for (index, segment) in program.segments.iter().enumerate() {
        if !runs(index, segment) {
            continue;
        }
        let out = if Some(index) == last {
            std::mem::take(&mut frame)
        } else {
            Vec::new()
        };
        match segment {
            SegmentProgram::Fused(seg) => {
                let scaled = (key_scale != 1.0).then(|| seg.with_key_scale(key_scale));
                let seg = scaled.as_ref().unwrap_or(seg);
                let input = current.as_ref().unwrap_or(hdr);
                current = Some(run_fused_segment(seg, input, ingest, threads, out));
                ingest = Ingest::Passthrough;
            }
            SegmentProgram::Barrier { index, bins } => {
                let input = current
                    .as_ref()
                    .expect("a fused segment precedes every barrier");
                // The barrier the two-pass executor runs on its f32
                // register, so segmented streaming stays bit-identical.
                current = Some(histogram_barrier(input, *bins, *index, reductions, out));
            }
        }
    }
    current.expect("compiled plans always run at least one fused segment")
}

/// Runs one fused segment over its input image into `frame`, slicing the
/// output rows across at most `threads` threads: the caller's own, plus one
/// for each core it can claim that nobody holds ([`crate::cores`]).
fn run_fused_segment<S: Sample>(
    segment: &FusedSegment<S>,
    input: &LuminanceImage,
    ingest: Ingest,
    threads: usize,
    frame: Vec<f32>,
) -> LuminanceImage {
    // The claimed cores go back once every slice has joined.
    let extra = cores::claim(threads.min(input.height()).saturating_sub(1));
    run_slices(segment, input, ingest, 1 + extra.cores(), frame)
}

/// `frame` holding `len` samples, for a pass that writes every one of them:
/// a frame of that length as it is, with no fill, any other resized — and a
/// frame without room a fresh zeroed allocation.
fn output_buffer(mut frame: Vec<f32>, len: usize) -> Vec<f32> {
    if frame.capacity() < len {
        return vec![0.0; len];
    }
    frame.resize(len, 0.0);
    frame
}

/// Runs one fused segment over its input image into `frame` — a pure point
/// pass when the segment has no stencil, otherwise the line-buffer cascade
/// — in `slices` row slices: the calling thread runs the last, a scoped
/// thread each other. Every output sample is written, so `frame`'s old
/// contents never show.
fn run_slices<S: Sample>(
    segment: &FusedSegment<S>,
    input: &LuminanceImage,
    ingest: Ingest,
    slices: usize,
    frame: Vec<f32>,
) -> LuminanceImage {
    let (width, height) = input.dimensions();
    let mut out = output_buffer(frame, width * height);
    let rows = |first_row: usize, chunk: &mut [f32]| {
        if segment.regions.is_empty() {
            // Pure point chain: every pixel is independent, nothing to ring.
            let pixels = &input.pixels()[first_row * width..][..chunk.len()];
            for (row, raw) in chunk
                .chunks_exact_mut(width)
                .zip(pixels.chunks_exact(width))
            {
                row.copy_from_slice(raw);
                ingest.apply_row(row, normalize_sample);
                apply_chain(&segment.epilog, row, None);
            }
        } else {
            run_rows(segment, input, ingest, first_row, chunk);
        }
    };
    if slices <= 1 {
        rows(0, &mut out);
    } else {
        let rows_per_slice = height.div_ceil(slices);
        std::thread::scope(|scope| {
            let mut chunks = out.chunks_mut(rows_per_slice * width).enumerate();
            let (last, last_chunk) = chunks.next_back().expect("an image has at least one row");
            for (slice, chunk) in chunks {
                scope.spawn(move || rows(slice * rows_per_slice, chunk));
            }
            rows(last * rows_per_slice, last_chunk);
        });
    }
    LuminanceImage::from_vec(width, height, out).expect("output dimensions equal input dimensions")
}

/// The per-slice working state of one cascade region: the Fig. 4 line
/// buffer (`hrows`, horizontally blurred in `S`) plus the region's own
/// chain-output rows (`vrows`, the `f32` value stream the next region — or
/// the epilog — reads). Both rings hold `min(2·radius + 1, height)` rows
/// and are indexed by source row modulo ring length. Nothing here scales
/// with the image height.
struct RegionState<S: Sample> {
    hrows: Vec<Vec<S>>,
    vrows: Vec<Vec<f32>>,
    /// Edge-padded scratch row for the horizontal blur.
    padded: Vec<S>,
    /// The ring slot each vertical tap reads for the current output row.
    tap_slots: Vec<usize>,
    /// Scratch row receiving the upstream region's mask stream (empty for
    /// the first region, which has no upstream mask).
    up_mask: Vec<f32>,
    /// The next source row this region will produce — rows are produced
    /// lazily, in order, the moment a consumer's vertical window first
    /// reaches them.
    next_row: Option<usize>,
}

impl<S: Sample> RegionState<S> {
    fn new(region: &Region<S>, width: usize, height: usize, has_upstream: bool) -> Self {
        let taps = region.kernel.len();
        let radius = taps / 2;
        let len = taps.min(height).max(1);
        let up_mask = if has_upstream {
            vec![0.0f32; width]
        } else {
            Vec::new()
        };
        RegionState {
            hrows: vec![vec![S::zero(); width]; len],
            vrows: vec![vec![0.0f32; width]; len],
            padded: vec![S::zero(); width + 2 * radius],
            tap_slots: vec![0; taps],
            up_mask,
            next_row: None,
        }
    }
}

/// Processes the output rows `first_row ..` covered by `out` (a
/// whole-row-aligned slice of the output buffer) in raster order through
/// the segment's cascade. Each slice owns fresh region states, so slices
/// are fully independent and bit-identical at any thread count.
fn run_rows<S: Sample>(
    segment: &FusedSegment<S>,
    input: &LuminanceImage,
    ingest: Ingest,
    first_row: usize,
    out: &mut [f32],
) {
    let (width, height) = input.dimensions();
    let mut states: Vec<RegionState<S>> = segment
        .regions
        .iter()
        .enumerate()
        .map(|(i, region)| RegionState::new(region, width, height, i > 0))
        .collect();
    let mut mask_row = vec![0.0f32; width];
    for (row_index, out_row) in out.chunks_exact_mut(width).enumerate() {
        let y = first_row + row_index;
        emit_row(
            &segment.regions,
            &mut states,
            input,
            ingest,
            y,
            out_row,
            &mut mask_row,
        );
        // Fused point-wise tail: the epilog chain runs against the last
        // region's value stream and blurred mask.
        apply_chain(&segment.epilog, out_row, Some(&mask_row));
    }
}

/// Produces output row `y` of the *last* region in `regions`: its chain
/// value stream into `v_out` and its blurred mask into `mask_out`.
///
/// This is the cascade step. The region pulls the source rows its vertical
/// window needs from the upstream regions (recursively — `regions` and
/// `states` are parallel slices split from the back), runs its point chain
/// over them, horizontally blurs them into its ring, then applies the
/// vertical taps. Rows are requested in strictly increasing order, so each
/// region's lazy `next_row` cursor advances monotonically and every ring
/// slot is consumed before it is overwritten (ring length ≥ radius + 1
/// rows beyond the newest consumer row).
fn emit_row<S: Sample>(
    regions: &[Region<S>],
    states: &mut [RegionState<S>],
    input: &LuminanceImage,
    ingest: Ingest,
    y: usize,
    v_out: &mut [f32],
    mask_out: &mut [f32],
) {
    let (region, upstream_regions) = regions
        .split_last()
        .expect("emit_row requires at least one region");
    let (state, upstream_states) = states
        .split_last_mut()
        .expect("region states parallel the regions");
    let (width, height) = input.dimensions();
    let kernel = &region.kernel;
    let radius = kernel.len() / 2;
    let len = state.hrows.len();

    let newest_needed = (y + radius).min(height - 1);
    let mut next = state.next_row.unwrap_or_else(|| y.saturating_sub(radius));
    while next <= newest_needed {
        let slot = next % len;
        let v_row = &mut state.vrows[slot];
        if upstream_regions.is_empty() {
            // First region: the value stream is the ingested segment input
            // through this region's point chain (mask-free by plan
            // validation — no mask exists before the first stencil).
            v_row.copy_from_slice(&input.pixels()[next * width..(next + 1) * width]);
            ingest.apply_row(v_row, normalize_sample);
            apply_chain(&region.chain, v_row, None);
        } else {
            // Later region: pull the upstream row on demand, then run this
            // region's chain against the upstream value/mask streams.
            emit_row(
                upstream_regions,
                upstream_states,
                input,
                ingest,
                next,
                v_row,
                &mut state.up_mask,
            );
            apply_chain(&region.chain, v_row, Some(&state.up_mask));
        }
        fill_blurred_row(
            &mut state.hrows[slot],
            &mut state.padded,
            &state.vrows[slot],
            kernel,
            region.invert_input,
        );
        next += 1;
    }
    state.next_row = Some(next);

    // Vertical pass over the ring: tap `k` reads the ring row of source
    // row `y + k − radius`, edge rows replicated.
    for (k, slot) in state.tap_slots.iter_mut().enumerate() {
        *slot = (y + k).saturating_sub(radius).min(height - 1) % len;
    }
    let (hrows, tap_slots) = (&state.hrows, &state.tap_slots);
    fir(mask_out, kernel, |k| &hrows[tap_slots[k]], S::to_f32);
    v_out.copy_from_slice(&state.vrows[y % len]);
}

/// Horizontally blurs one chain-output row into `dst` — the producer side
/// of a region's line buffer.
///
/// The row is quantised at the accelerator boundary (with the Moroney
/// inversion applied first, in `f32`, when the region asks for it), then
/// edge-padded by `radius` replicated samples so the horizontal window
/// never needs a clamp; tap `k` then reads the padded row shifted by `k`.
/// [`fir`] applies the taps to each output sample in ascending order,
/// matching [`crate::blur::blur_horizontal`] bit-for-bit.
fn fill_blurred_row<S: Sample>(
    dst: &mut [S],
    padded: &mut [S],
    source: &[f32],
    kernel: &[S],
    invert_input: bool,
) {
    let radius = kernel.len() / 2;
    let width = source.len();
    for (slot, &value) in padded[radius..radius + width].iter_mut().zip(source) {
        let mask_input = if invert_input { 1.0 - value } else { value };
        *slot = S::from_f32(mask_input);
    }
    let first = padded[radius];
    let last = padded[radius + width - 1];
    padded[..radius].fill(first);
    padded[radius + width..].fill(last);
    let padded: &[S] = padded;
    fir(dst, kernel, |k| &padded[k..], |acc| acc);
}

/// Output samples per block of [`fir`]: eight 256-bit registers of `f32`
/// accumulators, or of `Fix16`'s `i32` raws.
const BLOCK: usize = 64;

/// The output-stationary FIR of both stencil passes:
/// `dst[i] = store(Σ_k kernel[k] · tap_row(k)[i])`, where `tap_row(k)` is
/// the input row tap `k` reads, aligned with the output.
///
/// A block of outputs accumulates in a local array over all taps and is
/// stored once, so the accumulators stay in registers instead of making an
/// L1 round trip per tap — the software form of the pipelined line-buffer
/// datapath of Fig. 4. Every output starts at zero and takes the taps in
/// ascending order, the order of [`crate::blur::blur_horizontal`] and
/// [`crate::blur::blur_vertical`], so the result is bit-identical to them
/// at every width, the tail after the last full block included.
fn fir<'a, S: Sample, T>(
    dst: &mut [T],
    kernel: &[S],
    tap_row: impl Fn(usize) -> &'a [S],
    store: impl Fn(S) -> T,
) {
    let mut blocks = dst.chunks_exact_mut(BLOCK);
    let mut start = 0;
    for outputs in &mut blocks {
        let mut acc = [S::zero(); BLOCK];
        accumulate(&mut acc, kernel, &tap_row, start);
        for (out, a) in outputs.iter_mut().zip(acc) {
            *out = store(a);
        }
        start += BLOCK;
    }
    let outputs = blocks.into_remainder();
    let mut acc = [S::zero(); BLOCK];
    let acc = &mut acc[..outputs.len()];
    accumulate(acc, kernel, &tap_row, start);
    for (out, &a) in outputs.iter_mut().zip(acc.iter()) {
        *out = store(a);
    }
}

/// Adds every tap's contribution to the outputs `start .. start +
/// acc.len()`, tap by tap in ascending order: the one accumulation order of
/// full blocks and of the tail.
#[inline(always)]
fn accumulate<'a, S: Sample>(
    acc: &mut [S],
    kernel: &[S],
    tap_row: &impl Fn(usize) -> &'a [S],
    start: usize,
) {
    for (k, &weight) in kernel.iter().enumerate() {
        let window = &tap_row(k)[start..start + acc.len()];
        for (a, &sample) in acc.iter_mut().zip(window) {
            *a = weight.mul_add(sample, *a);
        }
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
        // on a stencil cascade, a two-stencil cascade and a point chain.
        let hdr = SceneKind::MemorialComposite.generate(37, 29, 9);
        let p = ToneMapParams::paper_default();
        let reinhard = PipelinePlan::preset("reinhard", &p, &PlanTuning::default());
        for plan in [
            PipelinePlan::from_params(&p),
            two_stencil_plan(),
            reinhard.unwrap().unwrap(),
        ] {
            let mapper = StreamingToneMapper::<f32>::compile(plan, p).unwrap();
            let Program::Stream(program) = &mapper.program else {
                panic!("{} streams", mapper.plan());
            };
            let SegmentProgram::Fused(segment) = &program.segments[0] else {
                panic!("a stream starts with a fused segment");
            };
            let ingest = Ingest::Source(FrameReductions.normalize_scale(&hdr));
            let single = run_slices(segment, &hdr, ingest, 1, Vec::new());
            for slices in 2..=30 {
                // Every slice overwrites its rows of a stale frame.
                let stale = vec![f32::NAN; hdr.pixels().len()];
                let sliced = run_slices(segment, &hdr, ingest, slices, stale);
                assert_eq!(
                    sliced,
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
        assert_eq!(
            mapper.kernel(),
            quantize_kernel::<Fix16>(&gaussian_kernel(&params().blur)).as_slice()
        );
        assert_eq!(mapper.kernel().len(), params().blur.taps());
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
        assert!(mapper.decision().is_streamed());
        assert!(mapper.decision().reasons().is_empty());
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
            assert!(streaming.kernel().is_empty(), "{preset} has no stencil");
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
        // kernel() reports the *first* region's (radius-3) kernel.
        assert_eq!(streaming.kernel().len(), 7);
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
        assert_eq!(streaming.kernel().len(), params.blur.taps());
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
        assert!(decision.is_streamed());
        assert!(decision.reasons().is_empty());
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
        assert!(decision.is_streamed());
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
    fn masks_straddling_a_barrier_fall_back_with_a_reason() {
        // The mask blurred at stage 1 is consumed at stage 3, *after* the
        // barrier at stage 2 — the one remaining non-streamable shape.
        let plan = PipelinePlan::new(vec![
            PipelineOp::Normalize,
            PipelineOp::BlurMask {
                blur: BlurParams {
                    sigma: 1.5,
                    radius: 3,
                },
                invert_input: true,
            },
            PipelineOp::HistogramEq { bins: 32 },
            PipelineOp::Mask(MaskingParams::paper_default()),
        ])
        .unwrap();
        let streaming =
            StreamingToneMapper::<f32>::compile(plan.clone(), ToneMapParams::paper_default())
                .unwrap();
        let decision = streaming.decision();
        assert!(!decision.is_fused());
        assert!(!decision.is_streamed());
        assert_eq!(
            decision.reasons(),
            [FusionBlocker::MaskAcrossBarrier {
                producer: 1,
                barrier: 2,
            }]
        );
        assert_eq!(decision.reasons()[0].stage_index(), 2);
        assert!(decision.to_string().contains("materialized"));
        // The fallback still executes the plan, identically to the
        // two-pass planner.
        let hdr = SceneKind::WindowInDarkRoom.generate(22, 17, 6);
        let two_pass = ToneMapper::compile(plan, ToneMapParams::paper_default()).unwrap();
        assert_eq!(
            streaming.map_luminance(&hdr),
            two_pass.map_luminance_hw_blur::<f32>(&hdr)
        );
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
            for threads in [1, 2, 8] {
                let streaming = StreamingToneMapper::<Fix16>::compile(plan.clone(), p)
                    .unwrap()
                    .with_threads(threads)
                    .map_rgb(&hdr)
                    .unwrap();
                assert_eq!(streaming, reference, "{name} diverged at {threads} threads");
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
            assert!(!mapper.kernel().is_empty());
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
        assert!(mapper.kernel().is_empty());
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
}
