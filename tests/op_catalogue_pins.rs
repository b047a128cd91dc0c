//! The operator catalogue, pinned as literal tables.
//!
//! For one instance of every `PipelineOp`: its output layout on each
//! register layout, its op counts at 64×48 with three channels on each
//! layout it accepts, its stage kind and its `Display` text. For every
//! parameter of every parameterised op: the validation verdict at the edges
//! of its domain. For every preset: its `Display` and its profile totals at
//! 1024×768. The values were recorded before each curve was defined in one
//! place, so moving a definition cannot change what the catalogue reports;
//! only the spelling of the ops may change here.

use tonemap_core::ops::{OpCounts, StageKind};
use tonemap_core::plan::{ChannelLayout, Curve, PipelineOp, PipelinePlan, PlanTuning};
use tonemap_core::{AdjustParams, BlurParams, MaskingParams, ToneMapParams};
use ChannelLayout::{Hsv, Rgb, Scalar};

/// `[adds, muls, divs, pows, compares, loads, stores]`.
fn counts(c: OpCounts) -> [u64; 7] {
    [
        c.adds, c.muls, c.divs, c.pows, c.compares, c.loads, c.stores,
    ]
}

/// One catalogue entry. `layouts` holds, for a `Scalar`, `Rgb` and `Hsv`
/// input in that order, `None` where the op rejects the layout, or its
/// output layout and `op_counts(64, 48, 3, input)`.
struct Pin {
    op: PipelineOp,
    text: &'static str,
    stage: StageKind,
    layouts: [Option<(ChannelLayout, [u64; 7])>; 3],
}

fn catalogue() -> [Pin; 20] {
    let paper = ToneMapParams::paper_default();
    [
        Pin {
            op: PipelineOp::Normalize,
            text: "normalize",
            stage: StageKind::Normalize,
            layouts: [
                Some((Scalar, [0, 9216, 1, 0, 9216, 18432, 9216])),
                Some((Rgb, [0, 9216, 1, 0, 9216, 18432, 9216])),
                None,
            ],
        },
        Pin {
            op: PipelineOp::Curve(Curve::Invert),
            text: "invert",
            stage: StageKind::Invert,
            layouts: [
                Some((Scalar, [9216, 0, 0, 0, 0, 9216, 9216])),
                None,
                Some((Hsv, [3072, 0, 0, 0, 0, 3072, 3072])),
            ],
        },
        Pin {
            op: PipelineOp::BlurMask {
                blur: paper.blur,
                invert_input: true,
            },
            text: "blur-mask(σ=7, r=20, inverted)",
            stage: StageKind::GaussianBlur,
            layouts: [
                Some((Scalar, [251904, 251904, 0, 0, 0, 251904, 6144])),
                None,
                None,
            ],
        },
        Pin {
            op: PipelineOp::Mask(paper.masking),
            text: "mask(strength=3)",
            stage: StageKind::NonlinearMasking,
            layouts: [
                Some((Scalar, [9216, 9216, 0, 18432, 18432, 18432, 9216])),
                None,
                None,
            ],
        },
        Pin {
            op: PipelineOp::Curve(Curve::Adjust(paper.adjust)),
            text: "adjust(b=0.02, c=1.1)",
            stage: StageKind::Adjustment,
            layouts: [
                Some((Scalar, [18432, 9216, 0, 0, 18432, 9216, 9216])),
                None,
                Some((Hsv, [6144, 3072, 0, 0, 6144, 3072, 3072])),
            ],
        },
        Pin {
            op: PipelineOp::Curve(Curve::Gamma { gamma: 0.7 }),
            text: "gamma(0.7)",
            stage: StageKind::GammaCurve,
            layouts: [
                Some((Scalar, [0, 0, 0, 9216, 18432, 9216, 9216])),
                None,
                Some((Hsv, [0, 0, 0, 3072, 6144, 3072, 3072])),
            ],
        },
        Pin {
            op: PipelineOp::Curve(Curve::LogCurve { scale: 50.0 }),
            text: "log-curve(k=50)",
            stage: StageKind::LogCurve,
            layouts: [
                Some((Scalar, [9216, 18432, 0, 9216, 18432, 9216, 9216])),
                None,
                Some((Hsv, [3072, 6144, 0, 3072, 6144, 3072, 3072])),
            ],
        },
        Pin {
            op: PipelineOp::Curve(Curve::Reinhard {
                key: 4.0,
                white: 2.0,
            }),
            text: "reinhard(key=4, white=2)",
            stage: StageKind::Reinhard,
            layouts: [
                Some((Scalar, [18432, 27648, 9216, 0, 18432, 9216, 9216])),
                None,
                Some((Hsv, [6144, 9216, 3072, 0, 6144, 3072, 3072])),
            ],
        },
        Pin {
            op: PipelineOp::HistogramEq { bins: 64 },
            text: "histogram-eq(64)",
            stage: StageKind::HistogramEqualization,
            layouts: [
                Some((Scalar, [3136, 6144, 3072, 0, 6144, 6144, 3072])),
                None,
                None,
            ],
        },
        Pin {
            op: PipelineOp::RgbToHsv,
            text: "rgb-to-hsv",
            stage: StageKind::ColorConversion,
            layouts: [
                None,
                Some((Hsv, [9216, 9216, 6144, 0, 18432, 9216, 9216])),
                None,
            ],
        },
        Pin {
            op: PipelineOp::HsvToRgb,
            text: "hsv-to-rgb",
            stage: StageKind::ColorConversion,
            layouts: [
                None,
                None,
                Some((Rgb, [9216, 9216, 6144, 0, 18432, 9216, 9216])),
            ],
        },
        Pin {
            op: PipelineOp::Curve(Curve::PqOetf { peak_nits: 1000.0 }),
            text: "pq-oetf(peak=1000)",
            stage: StageKind::TransferFunction,
            layouts: [
                Some((Scalar, [18432, 27648, 9216, 18432, 18432, 9216, 9216])),
                Some((Rgb, [18432, 27648, 9216, 18432, 18432, 9216, 9216])),
                None,
            ],
        },
        Pin {
            op: PipelineOp::Curve(Curve::PqEotf { peak_nits: 600.0 }),
            text: "pq-eotf(peak=600)",
            stage: StageKind::TransferFunction,
            layouts: [
                Some((Scalar, [18432, 27648, 9216, 18432, 18432, 9216, 9216])),
                Some((Rgb, [18432, 27648, 9216, 18432, 18432, 9216, 9216])),
                None,
            ],
        },
        Pin {
            op: PipelineOp::Curve(Curve::HlgOetf),
            text: "hlg-oetf",
            stage: StageKind::TransferFunction,
            layouts: [
                Some((Scalar, [18432, 18432, 0, 9216, 18432, 9216, 9216])),
                Some((Rgb, [18432, 18432, 0, 9216, 18432, 9216, 9216])),
                None,
            ],
        },
        Pin {
            op: PipelineOp::Curve(Curve::HlgEotf),
            text: "hlg-eotf",
            stage: StageKind::TransferFunction,
            layouts: [
                Some((Scalar, [18432, 18432, 0, 9216, 18432, 9216, 9216])),
                Some((Rgb, [18432, 18432, 0, 9216, 18432, 9216, 9216])),
                None,
            ],
        },
        Pin {
            op: PipelineOp::ExtractLuminance,
            text: "extract-luminance",
            stage: StageKind::ChromaSplit,
            layouts: [
                None,
                Some((Scalar, [6144, 9216, 0, 0, 0, 9216, 12288])),
                None,
            ],
        },
        Pin {
            op: PipelineOp::ReapplyRatio,
            text: "reapply-ratio",
            stage: StageKind::ChromaSplit,
            layouts: [
                Some((Rgb, [6144, 18432, 3072, 0, 21504, 12288, 9216])),
                None,
                None,
            ],
        },
        Pin {
            op: PipelineOp::Curve(Curve::Hable { exposure: 3.0 }),
            text: "hable(exposure=3)",
            stage: StageKind::FilmicCurve,
            layouts: [
                Some((Scalar, [55296, 73728, 18432, 0, 18432, 9216, 9216])),
                None,
                Some((Hsv, [18432, 24576, 6144, 0, 6144, 3072, 3072])),
            ],
        },
        Pin {
            op: PipelineOp::Curve(Curve::Aces { exposure: 2.0 }),
            text: "aces(exposure=2)",
            stage: StageKind::FilmicCurve,
            layouts: [
                Some((Scalar, [27648, 36864, 9216, 0, 18432, 9216, 9216])),
                None,
                Some((Hsv, [9216, 12288, 3072, 0, 6144, 3072, 3072])),
            ],
        },
        Pin {
            op: PipelineOp::Curve(Curve::Drago { bias: 0.85 }),
            text: "drago(bias=0.85)",
            stage: StageKind::FilmicCurve,
            layouts: [
                Some((Scalar, [18432, 18432, 18432, 27648, 18432, 9216, 9216])),
                None,
                Some((Hsv, [6144, 6144, 6144, 9216, 6144, 3072, 3072])),
            ],
        },
    ]
}

#[test]
fn every_op_keeps_its_layouts_counts_stage_and_text() {
    let pins = catalogue();
    for pin in &pins {
        assert_eq!(pin.op.to_string(), pin.text);
        assert_eq!(pin.op.stage_kind(), pin.stage, "{}", pin.text);
        for (input, expected) in [Scalar, Rgb, Hsv].into_iter().zip(pin.layouts) {
            let got = pin
                .op
                .output_layout(input)
                .map(|output| (output, counts(pin.op.op_counts(64, 48, 3, input))));
            assert_eq!(got, expected, "{} on {input}", pin.text);
        }
    }
    // One entry per op: the texts tell the twenty apart.
    let mut texts: Vec<&str> = pins.iter().map(|pin| pin.text).collect();
    texts.sort_unstable();
    texts.dedup();
    assert_eq!(texts.len(), pins.len());
}

/// Where every float parameter is validated: 0, −0, NaN, ±∞, the smallest
/// subnormal, the smallest normal and the largest finite value. A bounded
/// parameter is also validated at its bound and at the next value above.
const EDGES: [f32; 8] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e-45,
    f32::MIN_POSITIVE,
    f32::MAX,
];

/// `(parameter, the op carrying it, its upper bound and the next value
/// above, its verdicts)`: the `Debug` text of `validate()` at each of
/// [`EDGES`], then at the bound values.
type FloatPin = (
    &'static str,
    fn(f32) -> PipelineOp,
    &'static [f32],
    &'static [&'static str],
);

fn float_parameters() -> [FloatPin; 13] {
    [
        (
            "blur-mask sigma",
            |sigma| PipelineOp::BlurMask {
                blur: BlurParams {
                    sigma,
                    ..BlurParams::paper_default()
                },
                invert_input: true,
            },
            &[],
            &[
                "Err(InvalidStage(NonPositiveSigma(0.0)))",
                "Err(InvalidStage(NonPositiveSigma(-0.0)))",
                "Err(InvalidStage(NonPositiveSigma(NaN)))",
                "Err(InvalidStage(NonPositiveSigma(inf)))",
                "Err(InvalidStage(NonPositiveSigma(-inf)))",
                "Ok(())",
                "Ok(())",
                "Ok(())",
            ],
        ),
        (
            "mask strength",
            |strength| {
                PipelineOp::Mask(MaskingParams {
                    strength,
                    ..MaskingParams::paper_default()
                })
            },
            &[],
            &[
                "Ok(())",
                "Ok(())",
                "Err(InvalidStage(InvalidMaskingStrength(NaN)))",
                "Err(InvalidStage(InvalidMaskingStrength(inf)))",
                "Err(InvalidStage(InvalidMaskingStrength(-inf)))",
                "Ok(())",
                "Ok(())",
                "Ok(())",
            ],
        ),
        (
            "adjust contrast",
            |contrast| {
                PipelineOp::Curve(Curve::Adjust(AdjustParams {
                    contrast,
                    ..AdjustParams::paper_default()
                }))
            },
            &[],
            &[
                "Err(InvalidStage(NonPositiveContrast(0.0)))",
                "Err(InvalidStage(NonPositiveContrast(-0.0)))",
                "Err(InvalidStage(NonPositiveContrast(NaN)))",
                "Err(InvalidStage(NonPositiveContrast(inf)))",
                "Err(InvalidStage(NonPositiveContrast(-inf)))",
                "Ok(())",
                "Ok(())",
                "Ok(())",
            ],
        ),
        (
            "adjust brightness",
            |brightness| {
                PipelineOp::Curve(Curve::Adjust(AdjustParams {
                    brightness,
                    ..AdjustParams::paper_default()
                }))
            },
            &[],
            &[
                "Ok(())",
                "Ok(())",
                "Err(InvalidStage(NonFiniteBrightness(NaN)))",
                "Err(InvalidStage(NonFiniteBrightness(inf)))",
                "Err(InvalidStage(NonFiniteBrightness(-inf)))",
                "Ok(())",
                "Ok(())",
                "Ok(())",
            ],
        ),
        (
            "gamma",
            |gamma| PipelineOp::Curve(Curve::Gamma { gamma }),
            &[],
            &[
                "Err(InvalidGamma(0.0))",
                "Err(InvalidGamma(-0.0))",
                "Err(InvalidGamma(NaN))",
                "Err(InvalidGamma(inf))",
                "Err(InvalidGamma(-inf))",
                "Ok(())",
                "Ok(())",
                "Ok(())",
            ],
        ),
        (
            "log-curve scale",
            |scale| PipelineOp::Curve(Curve::LogCurve { scale }),
            &[],
            &[
                "Err(InvalidLogScale(0.0))",
                "Err(InvalidLogScale(-0.0))",
                "Err(InvalidLogScale(NaN))",
                "Err(InvalidLogScale(inf))",
                "Err(InvalidLogScale(-inf))",
                "Ok(())",
                "Ok(())",
                "Ok(())",
            ],
        ),
        (
            "reinhard key",
            |key| PipelineOp::Curve(Curve::Reinhard { key, white: 1.0 }),
            &[],
            &[
                "Err(InvalidReinhardKey(0.0))",
                "Err(InvalidReinhardKey(-0.0))",
                "Err(InvalidReinhardKey(NaN))",
                "Err(InvalidReinhardKey(inf))",
                "Err(InvalidReinhardKey(-inf))",
                "Ok(())",
                "Ok(())",
                "Ok(())",
            ],
        ),
        (
            "reinhard white",
            |white| PipelineOp::Curve(Curve::Reinhard { key: 1.0, white }),
            &[],
            &[
                "Err(InvalidReinhardWhite(0.0))",
                "Err(InvalidReinhardWhite(-0.0))",
                "Err(InvalidReinhardWhite(NaN))",
                "Err(InvalidReinhardWhite(inf))",
                "Err(InvalidReinhardWhite(-inf))",
                "Ok(())",
                "Ok(())",
                "Ok(())",
            ],
        ),
        (
            "pq-oetf peak",
            |peak_nits| PipelineOp::Curve(Curve::PqOetf { peak_nits }),
            &[10_000.0, 10_000.001],
            &[
                "Err(InvalidPeakNits(0.0))",
                "Err(InvalidPeakNits(-0.0))",
                "Err(InvalidPeakNits(NaN))",
                "Err(InvalidPeakNits(inf))",
                "Err(InvalidPeakNits(-inf))",
                "Ok(())",
                "Ok(())",
                "Err(InvalidPeakNits(3.4028235e38))",
                "Ok(())",
                "Err(InvalidPeakNits(10000.001))",
            ],
        ),
        (
            "pq-eotf peak",
            |peak_nits| PipelineOp::Curve(Curve::PqEotf { peak_nits }),
            &[10_000.0, 10_000.001],
            &[
                "Err(InvalidPeakNits(0.0))",
                "Err(InvalidPeakNits(-0.0))",
                "Err(InvalidPeakNits(NaN))",
                "Err(InvalidPeakNits(inf))",
                "Err(InvalidPeakNits(-inf))",
                "Ok(())",
                "Ok(())",
                "Err(InvalidPeakNits(3.4028235e38))",
                "Ok(())",
                "Err(InvalidPeakNits(10000.001))",
            ],
        ),
        (
            "hable exposure",
            |exposure| PipelineOp::Curve(Curve::Hable { exposure }),
            &[],
            &[
                "Err(InvalidExposure(0.0))",
                "Err(InvalidExposure(-0.0))",
                "Err(InvalidExposure(NaN))",
                "Err(InvalidExposure(inf))",
                "Err(InvalidExposure(-inf))",
                "Ok(())",
                "Ok(())",
                "Ok(())",
            ],
        ),
        (
            "aces exposure",
            |exposure| PipelineOp::Curve(Curve::Aces { exposure }),
            &[],
            &[
                "Err(InvalidExposure(0.0))",
                "Err(InvalidExposure(-0.0))",
                "Err(InvalidExposure(NaN))",
                "Err(InvalidExposure(inf))",
                "Err(InvalidExposure(-inf))",
                "Ok(())",
                "Ok(())",
                "Ok(())",
            ],
        ),
        (
            "drago bias",
            |bias| PipelineOp::Curve(Curve::Drago { bias }),
            &[1.0, 1.000_000_1],
            &[
                "Err(InvalidDragoBias(0.0))",
                "Err(InvalidDragoBias(-0.0))",
                "Err(InvalidDragoBias(NaN))",
                "Err(InvalidDragoBias(inf))",
                "Err(InvalidDragoBias(-inf))",
                "Ok(())",
                "Ok(())",
                "Err(InvalidDragoBias(3.4028235e38))",
                "Ok(())",
                "Err(InvalidDragoBias(1.0000001))",
            ],
        ),
    ]
}

#[test]
fn every_float_parameter_keeps_its_verdicts() {
    for (name, op, bound, verdicts) in float_parameters() {
        let got: Vec<String> = EDGES
            .iter()
            .chain(bound)
            .map(|&value| format!("{:?}", op(value).validate()))
            .collect();
        assert_eq!(got, verdicts, "{name}");
    }
}

#[test]
fn integer_parameters_keep_their_verdicts() {
    let radius = |radius| PipelineOp::BlurMask {
        blur: BlurParams {
            radius,
            ..BlurParams::paper_default()
        },
        invert_input: true,
    };
    let radii = [
        (0, "Err(InvalidStage(ZeroBlurRadius))"),
        (1, "Ok(())"),
        (255, "Ok(())"),
        (256, "Err(InvalidStage(BlurRadiusTooLarge(256)))"),
    ];
    for (value, verdict) in radii {
        assert_eq!(format!("{:?}", radius(value).validate()), verdict);
    }
    let bins = [
        (0, "Err(InvalidBins(0))"),
        (1, "Err(InvalidBins(1))"),
        (2, "Ok(())"),
        (65_536, "Ok(())"),
        (65_537, "Err(InvalidBins(65537))"),
    ];
    for (bins, verdict) in bins {
        let op = PipelineOp::HistogramEq { bins };
        assert_eq!(format!("{:?}", op.validate()), verdict);
    }
}

/// `(preset, Display, profile(1024, 768, 1) totals, profile(1024, 768, 3)
/// totals)`.
const PRESETS: [(&str, &str, [u64; 7], [u64; 7]); 12] = [
    (
        "paper",
        "normalize → blur-mask(σ=7, r=20, inverted) → mask(strength=3) → adjust(b=0.02, c=1.1)",
        [66846720, 66846720, 1, 1572864, 3932160, 68419584, 3932160],
        [71565312, 71565312, 1, 4718592, 11796480, 76283904, 8650752],
    ),
    (
        "basedetail",
        "normalize → blur-mask(σ=7, r=20, inverted) → mask(strength=3) → blur-mask(σ=1.75, r=5) → mask(strength=1.5) → adjust(b=0.02, c=1.1)",
        [84934656, 84934656, 1, 3145728, 5505024, 87293952, 6291456],
        [91226112, 91226112, 1, 9437184, 16515072, 98304000, 12582912],
    ),
    (
        "reinhard",
        "normalize → reinhard(key=8, white=8)",
        [1572864, 3145728, 786433, 0, 2359296, 2359296, 1572864],
        [4718592, 9437184, 2359297, 0, 7077888, 7077888, 4718592],
    ),
    (
        "histeq",
        "normalize → histogram-eq(256)",
        [786688, 2359296, 786433, 0, 2359296, 3145728, 1572864],
        [786688, 3932160, 786433, 0, 3932160, 6291456, 3145728],
    ),
    (
        "gamma",
        "normalize → gamma(0.45454544)",
        [0, 786432, 1, 786432, 2359296, 2359296, 1572864],
        [0, 2359296, 1, 2359296, 7077888, 7077888, 4718592],
    ),
    (
        "log",
        "normalize → log-curve(k=100)",
        [786432, 2359296, 1, 786432, 2359296, 2359296, 1572864],
        [2359296, 7077888, 1, 2359296, 7077888, 7077888, 4718592],
    ),
    (
        "hsv-reinhard",
        "normalize → rgb-to-hsv → reinhard(key=8, white=8) → hsv-to-rgb",
        [6291456, 9437184, 3932161, 0, 13369344, 10223616, 7864320],
        [6291456, 9437184, 3932161, 0, 13369344, 10223616, 7864320],
    ),
    (
        "filmic",
        "normalize → hable(exposure=11.2)",
        [4718592, 7077888, 1572865, 0, 2359296, 2359296, 1572864],
        [14155776, 21233664, 4718593, 0, 7077888, 7077888, 4718592],
    ),
    (
        "aces",
        "normalize → aces(exposure=8)",
        [2359296, 3932160, 786433, 0, 2359296, 2359296, 1572864],
        [7077888, 11796480, 2359297, 0, 7077888, 7077888, 4718592],
    ),
    (
        "drago",
        "normalize → drago(bias=0.85)",
        [1572864, 2359296, 1572865, 2359296, 2359296, 2359296, 1572864],
        [4718592, 7077888, 4718593, 7077888, 7077888, 7077888, 4718592],
    ),
    (
        "pq-out",
        "normalize → blur-mask(σ=7, r=20, inverted) → mask(strength=3) → adjust(b=0.02, c=1.1) → pq-oetf(peak=1000)",
        [68419584, 69206016, 786433, 3145728, 5505024, 69206016, 4718592],
        [76283904, 78643200, 2359297, 9437184, 16515072, 78643200, 11010048],
    ),
    (
        "hlg-out",
        "normalize → blur-mask(σ=7, r=20, inverted) → mask(strength=3) → adjust(b=0.02, c=1.1) → hlg-oetf",
        [68419584, 68419584, 1, 2359296, 5505024, 69206016, 4718592],
        [76283904, 76283904, 1, 7077888, 16515072, 78643200, 11010048],
    ),];

#[test]
fn every_preset_keeps_its_text_and_profile_totals() {
    let params = ToneMapParams::paper_default();
    assert_eq!(PRESETS.map(|(name, ..)| name), PipelinePlan::PRESETS);
    for (name, text, mono, colour) in PRESETS {
        let plan = PipelinePlan::preset(name, &params, &PlanTuning::default())
            .unwrap()
            .unwrap();
        assert_eq!(plan.to_string(), text);
        assert_eq!(counts(plan.profile(1024, 768, 1).total()), mono, "{name}");
        assert_eq!(counts(plan.profile(1024, 768, 3).total()), colour, "{name}");
    }
}
