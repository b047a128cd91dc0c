//! Cross-crate integration test: the full co-design flow reproduces the
//! paper's evaluation shape (Table II and Figs. 6-8) at the paper's
//! resolution, exercised through the workspace facade.

use tonemap_zynq_repro::codesign::flow::DesignReport;
use tonemap_zynq_repro::prelude::*;

fn report() -> FlowReport {
    CoDesignFlow::paper_setup(1024, 1024).run_all()
}

#[test]
fn table2_shape_is_reproduced_end_to_end() {
    let report = report();
    let blur = |d: DesignImplementation| report.design(d).unwrap().accelerated_seconds;
    let total = |d: DesignImplementation| report.design(d).unwrap().total_seconds;

    // Ordering of the accelerated-function times across the five rows.
    assert!(
        blur(DesignImplementation::MarkedHwFunction)
            > blur(DesignImplementation::SequentialMemoryAccesses)
    );
    assert!(
        blur(DesignImplementation::SequentialMemoryAccesses)
            > blur(DesignImplementation::SwSourceCode)
    );
    assert!(blur(DesignImplementation::SwSourceCode) > blur(DesignImplementation::HlsPragmas));
    assert!(
        blur(DesignImplementation::HlsPragmas) > blur(DesignImplementation::FixedPointConversion)
    );

    // The naive offload degrades the *total* by an order of magnitude
    // relative to software (195 s vs 27 s in the paper).
    assert!(
        total(DesignImplementation::MarkedHwFunction)
            > 4.0 * total(DesignImplementation::SwSourceCode)
    );

    // The final design beats software overall, but the total is dominated by
    // the non-accelerated stages, as in the paper (19.27 s vs 26.66 s).
    let sw_total = total(DesignImplementation::SwSourceCode);
    let fxp_total = total(DesignImplementation::FixedPointConversion);
    assert!(fxp_total < sw_total);
    assert!(
        fxp_total > 0.5 * sw_total,
        "total speed-up should be modest, not dramatic"
    );
}

#[test]
fn headline_numbers_are_in_the_paper_band() {
    let report = report();
    let sw = report.software_reference();
    let fxp = report
        .design(DesignImplementation::FixedPointConversion)
        .unwrap();

    // >17x function speed-up claimed in the abstract ("more than 17x").
    let function_speedup = fxp.function_speedup_vs(sw);
    assert!(
        function_speedup > 12.0 && function_speedup < 40.0,
        "function speed-up {function_speedup:.1}x outside the acceptance band"
    );

    // Energy: ~30 J software, 20-30% reduction for the final design.
    assert!(sw.energy.total_j() > 24.0 && sw.energy.total_j() < 36.0);
    let reduction = fxp.energy_reduction_vs(sw);
    assert!(
        reduction > 0.10 && reduction < 0.40,
        "energy reduction {reduction:.2}"
    );
}

#[test]
fn fig6_split_attributes_blur_to_the_pl_only_when_accelerated() {
    let breakdown = ExecutionBreakdown::from_flow(&report());
    for row in &breakdown.rows {
        let expected_pl = row.design != DesignImplementation::SwSourceCode;
        assert_eq!(row.pl_seconds > 0.0, expected_pl, "{}", row.design);
        assert!(
            (row.ps_seconds + row.pl_seconds - row.total_seconds).abs() < 1e-9,
            "{}: PS + PL must equal total",
            row.design
        );
    }
    // Fig. 6 omits the marked-HW row.
    assert_eq!(breakdown.fig6_rows().len(), 4);
}

#[test]
fn fig7_and_fig8_energy_accounting_is_consistent() {
    let report = report();
    let energy = EnergyBreakdown::from_flow(&report);
    for design in DesignImplementation::ALL {
        let row = energy.row(design).unwrap();
        let rails_sum: f64 = row
            .rails
            .iter()
            .map(|r| r.bottomline_j + r.overhead_j)
            .sum();
        assert!((rails_sum - row.total_j).abs() < 1e-9);
        // DDR and BRAM carry no execution overhead (the paper's observation).
        for rail in &row.rails {
            if matches!(
                rail.rail,
                zynq_sim::power::Rail::Ddr | zynq_sim::power::Rail::Bram
            ) {
                assert_eq!(rail.overhead_j, 0.0);
            }
        }
    }

    // PL bottomline energy grows from the software design to the accelerated
    // ones (more programmable logic configured), Fig. 8b's observation.
    let pl_bottom = |d: DesignImplementation| {
        energy
            .row(d)
            .unwrap()
            .rail(zynq_sim::power::Rail::Pl)
            .unwrap()
            .bottomline_j
    };
    let per_second_sw =
        pl_bottom(DesignImplementation::SwSourceCode) / report.software_reference().total_seconds;
    let fxp = report
        .design(DesignImplementation::FixedPointConversion)
        .unwrap();
    let per_second_fxp = pl_bottom(DesignImplementation::FixedPointConversion) / fxp.total_seconds;
    assert!(per_second_fxp > per_second_sw);
}

#[test]
fn profiling_identifies_the_blur_and_its_share_matches_the_paper() {
    let flow = CoDesignFlow::paper_setup(1024, 1024);
    let profile = flow.profile();
    assert_eq!(
        profile.hottest_function().stage,
        tonemap_core::ops::StageKind::GaussianBlur
    );
    // Paper: 7.29 s of 26.66 s ≈ 27 % of the runtime is the blur.
    let fraction = profile.fraction(tonemap_core::ops::StageKind::GaussianBlur);
    assert!(
        fraction > 0.18 && fraction < 0.40,
        "blur fraction {fraction:.2}"
    );
}

/// The six numbers each design's row carries through Table II and
/// Figs. 6–8, in pin order.
const PIN_FIELDS: [&str; 6] = [
    "accelerated_seconds",
    "total_seconds",
    "ps_seconds",
    "pl_seconds",
    "pl_utilization",
    "energy_j",
];

/// `(case, design, PIN_FIELDS as f64 bits)` of every design in two flows:
/// the registry's `flow_report(1024, 1024)`, which `table2` and `fig6`–`fig8`
/// print, and `CoDesignFlow::paper_setup_with_params` at σ = 3.5,
/// radius = 10 on a 512×512 image. Recorded with the hand-written Fig. 1
/// costing that preceded `evaluate` delegating to `evaluate_plan`.
const FLOW_PINS: [(&str, &str, [u64; 6]); 10] = [
    (
        "registry 1024x1024",
        "SW source code",
        [
            0x401ae9fa3ed651b6,
            0x403ac5c1c21c084a,
            0x403ac5c1c21c084a,
            0x0000000000000000,
            0x0000000000000000,
            0x403dfc352b5298a4,
        ],
    ),
    (
        "registry 1024x1024",
        "Marked HW function",
        [
            0x40662f6d044fc5e6,
            0x4068b0d56a9c9462,
            0x40340b43326673dc,
            0x40662f6d044fc5e6,
            0x3fa745d1745d1746,
            0x406ad330a7c2cdb1,
        ],
    ),
    (
        "registry 1024x1024",
        "Sequential memory accesses",
        [
            0x402ebe8d3735a14d,
            0x4041b544e700a241,
            0x40340b43326673dc,
            0x402ebe8d3735a14d,
            0x3fd1249249249249,
            0x4044a27259d2526a,
        ],
    ),
    (
        "registry 1024x1024",
        "HLS pragmas",
        [
            0x3fe5b2507f745466,
            0x4034b8d5b662167f,
            0x40340b43326673dc,
            0x3fe5b2507f745466,
            0x3fd3333333333333,
            0x4038ba9957305031,
        ],
    ),
    (
        "registry 1024x1024",
        "FlP to FxP conversion",
        [
            0x3fd58a193382b958,
            0x4034616b97347ec1,
            0x40340b43326673dc,
            0x3fd58a193382b958,
            0x3fc3a83a83a83a84,
            0x40379783b5ae2a3e,
        ],
    ),
    (
        "sigma 3.5 radius 10 512x512",
        "SW source code",
        [
            0x3febab278ac46724,
            0x401780a828461086,
            0x401780a828461086,
            0x0000000000000000,
            0x0000000000000000,
            0x401a52a7db2fc096,
        ],
    ),
    (
        "sigma 3.5 radius 10 512x512",
        "Marked HW function",
        [
            0x4036fac626956b0c,
            0x403bfd96f450cbf4,
            0x40140b4336ed83a2,
            0x4036fac626956b0c,
            0x3fa745d1745d1746,
            0x403e84bfb68da7e9,
        ],
    ),
    (
        "sigma 3.5 radius 10 512x512",
        "Sequential memory accesses",
        [
            0x40007bdc116354b9,
            0x401c49313f9f2dfe,
            0x40140b4336ed83a2,
            0x40007bdc116354b9,
            0x3fb2492492492492,
            0x401fc5f22b9d6dd3,
        ],
    ),
    (
        "sigma 3.5 radius 10 512x512",
        "HLS pragmas",
        [
            0x3fc5b57b776fa326,
            0x4014b8ef12a900bb,
            0x40140b4336ed83a2,
            0x3fc5b57b776fa326,
            0x3fb5075075075075,
            0x401799c871a7ed8e,
        ],
    ),
    (
        "sigma 3.5 radius 10 512x512",
        "FlP to FxP conversion",
        [
            0x3fb58d6a0b618805,
            0x40146178df1b09c2,
            0x40140b4336ed83a2,
            0x3fb58d6a0b618805,
            0x3fb5075075075075,
            0x40173a6721348fcf,
        ],
    ),
];

/// `(field, f64 bits)` of `CoDesignFlow::paper_setup(1024, 1024)
/// .evaluate_extended()`, recorded with the same costing.
const EXTENDED_PINS: [(&str, u64); 8] = [
    ("blur_seconds", 0x3fd58a193382b958),
    ("masking_seconds", 0x3fc82a3c9485de7c),
    ("ps_seconds", 0x3fe7b1c1b3b25a60),
    ("total_seconds", 0x3ff440aeb94a9756),
    ("energy_j", 0x3ff71bfbe9cc2198),
    ("pl_utilization", 0x3fc567109f959c43),
    ("total_speedup_vs_paper_final", 0x403019dd0c3adba3),
    ("energy_reduction_vs_paper_final", 0x3fee0a78e87e1781),
];

fn pin_row(case: &'static str, d: &DesignReport) -> (&'static str, &'static str, [u64; 6]) {
    let values = [
        d.accelerated_seconds,
        d.total_seconds,
        d.ps_seconds,
        d.pl_seconds,
        d.pl_utilization,
        d.energy.total_j(),
    ];
    (case, d.design.label(), values.map(f64::to_bits))
}

fn measured_flow_pins() -> Vec<(&'static str, &'static str, [u64; 6])> {
    let registry = BackendRegistry::standard()
        .flow_report(1024, 1024)
        .expect("the standard registry covers every Table II design");
    let mut params = ToneMapParams::paper_default();
    params.blur = BlurParams {
        sigma: 3.5,
        radius: 10,
    };
    let narrow = CoDesignFlow::paper_setup_with_params(params, 512, 512).run_all();
    let registry_rows = registry
        .designs
        .iter()
        .map(|d| pin_row("registry 1024x1024", d));
    let narrow_rows = narrow
        .designs
        .iter()
        .map(|d| pin_row("sigma 3.5 radius 10 512x512", d));
    registry_rows.chain(narrow_rows).collect()
}

fn measured_extended_pins() -> Vec<(&'static str, u64)> {
    let e = CoDesignFlow::paper_setup(1024, 1024).evaluate_extended();
    [
        ("blur_seconds", e.blur_seconds),
        ("masking_seconds", e.masking_seconds),
        ("ps_seconds", e.ps_seconds),
        ("total_seconds", e.total_seconds),
        ("energy_j", e.energy.total_j()),
        ("pl_utilization", e.pl_utilization),
        (
            "total_speedup_vs_paper_final",
            e.total_speedup_vs_paper_final,
        ),
        (
            "energy_reduction_vs_paper_final",
            e.energy_reduction_vs_paper_final,
        ),
    ]
    .map(|(field, value)| (field, value.to_bits()))
    .to_vec()
}

#[test]
fn every_design_reproduces_its_pinned_numbers() {
    let actual = measured_flow_pins();
    if actual != FLOW_PINS {
        let mut table = String::new();
        for (case, design, bits) in &actual {
            let bits: Vec<String> = bits.iter().map(|b| format!("{b:#018x}")).collect();
            table.push_str(&format!(
                "    (\"{case}\", \"{design}\", [{}]),\n",
                bits.join(", ")
            ));
        }
        panic!(
            "modeled Table II numbers ({}) changed. If the change is deliberate, replace \
             FLOW_PINS with:\nconst FLOW_PINS: [(&str, &str, [u64; 6]); {}] = [\n{table}];",
            PIN_FIELDS.join(", "),
            actual.len()
        );
    }
}

#[test]
fn the_extended_design_reproduces_its_pinned_numbers() {
    let actual = measured_extended_pins();
    if actual != EXTENDED_PINS {
        let mut table = String::new();
        for (field, bits) in &actual {
            table.push_str(&format!("    (\"{field}\", {bits:#018x}),\n"));
        }
        panic!(
            "modeled extension numbers changed. If the change is deliberate, replace \
             EXTENDED_PINS with:\nconst EXTENDED_PINS: [(&str, u64); {}] = [\n{table}];",
            actual.len()
        );
    }
}
