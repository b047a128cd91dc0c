//! Rendering of the paper's tables and figures from flow results.
//!
//! Each structure here corresponds to one artefact of the evaluation section:
//!
//! * [`optimization_steps`] — Table I.
//! * [`ExecutionBreakdown`] — Table II (execution times) and the PS/PL split
//!   of Fig. 6.
//! * [`EnergyBreakdown`] — the per-rail stacked energies of Fig. 7 and the
//!   bottomline/overhead split of Fig. 8.
//! * [`QualityReport`] (re-exported) — the
//!   PSNR/SSIM comparison of Fig. 5.
//!
//! [`json`] is the one JSON writer: the breakdowns' `to_json` and the bench
//! gates' `BENCH_*.json` records are built on it.

use crate::flow::{DesignImplementation, FlowReport};
use serde::{Deserialize, Serialize};
use std::fmt;
use zynq_sim::power::Rail;

pub use crate::quality::QualityReport;

/// The three optimization steps of Table I, in order.
pub fn optimization_steps() -> Vec<(usize, &'static str)> {
    vec![
        (1, "Algorithm restructuring for sequential memory accesses"),
        (2, "Pipelining and array partitioning through HLS pragmas"),
        (3, "Floating-point to fixed-point conversion"),
    ]
}

/// Hand-rolled JSON emission for the reports and the bench gates: no
/// `serde_json`, so the workspace builds offline — just strings, with
/// non-finite numbers rejected loudly so a NaN can never reach a report or
/// a `BENCH_*.json` artefact.
pub mod json {
    /// Renders an `f64` as a JSON number.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values: a gate that measured a NaN/∞ must fail,
    /// not persist it.
    pub fn num(value: f64) -> String {
        assert!(
            value.is_finite(),
            "JSON numbers must be finite, got {value}"
        );
        format!("{value}")
    }

    /// Renders a string as a JSON string literal (escaping quotes,
    /// backslashes and control characters).
    pub fn string(value: &str) -> String {
        let mut out = String::with_capacity(value.len() + 2);
        out.push('"');
        for c in value.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Renders already-serialised values as a JSON array.
    pub fn arr(items: impl IntoIterator<Item = String>) -> String {
        let items: Vec<String> = items.into_iter().collect();
        format!("[{}]", items.join(", "))
    }

    /// Renders `(key, already-serialised value)` pairs as a JSON object.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
        let fields: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// One row of Table II / one bar group of Fig. 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionRow {
    /// Design implementation (row label).
    pub design: DesignImplementation,
    /// Gaussian-blur execution time in seconds.
    pub blur_seconds: f64,
    /// Total application execution time in seconds.
    pub total_seconds: f64,
    /// Time spent in the processing system (the PS bar segment of Fig. 6).
    pub ps_seconds: f64,
    /// Time spent in the programmable logic (the PL bar segment of Fig. 6).
    pub pl_seconds: f64,
}

/// Table II and Fig. 6: execution times of every design implementation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionBreakdown {
    /// Rows in Table II order.
    pub rows: Vec<ExecutionRow>,
}

impl ExecutionBreakdown {
    /// Builds the breakdown from a flow report.
    pub fn from_flow(report: &FlowReport) -> Self {
        ExecutionBreakdown {
            rows: report
                .designs
                .iter()
                .map(|d| ExecutionRow {
                    design: d.design,
                    blur_seconds: d.accelerated_seconds,
                    total_seconds: d.total_seconds,
                    ps_seconds: d.ps_seconds,
                    pl_seconds: d.pl_seconds,
                })
                .collect(),
        }
    }

    /// The row of one design.
    pub fn row(&self, design: DesignImplementation) -> Option<&ExecutionRow> {
        self.rows.iter().find(|r| r.design == design)
    }

    /// Renders the rows of Fig. 6 (which omits the marked-HW implementation,
    /// "which is not relevant").
    pub fn fig6_rows(&self) -> Vec<&ExecutionRow> {
        self.rows
            .iter()
            .filter(|r| r.design != DesignImplementation::MarkedHwFunction)
            .collect()
    }

    /// Serialises the breakdown to JSON (used by the bench harness to dump
    /// machine-readable results alongside the text tables), through
    /// [`json`]: the shape mirrors what a serde derive would produce, with
    /// designs rendered as their variant names.
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|r| {
            json::obj([
                ("design", json::string(&format!("{:?}", r.design))),
                ("blur_seconds", json::num(r.blur_seconds)),
                ("total_seconds", json::num(r.total_seconds)),
                ("ps_seconds", json::num(r.ps_seconds)),
                ("pl_seconds", json::num(r.pl_seconds)),
            ])
        });
        json::obj([("rows", json::arr(rows))])
    }
}

impl fmt::Display for ExecutionBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TABLE II: Tone mapping execution times.")?;
        writeln!(
            f,
            "{:<30} {:>16} {:>12}",
            "Design implementation", "Gaussian blur", "Total"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<30} {:>14.2} s {:>10.2} s",
                r.design.label(),
                r.blur_seconds,
                r.total_seconds
            )?;
        }
        writeln!(f)?;
        writeln!(f, "Fig. 6 series (PS / PL split, Marked HW omitted):")?;
        writeln!(
            f,
            "{:<30} {:>10} {:>10}",
            "Design implementation", "PS (s)", "PL (s)"
        )?;
        for r in self.fig6_rows() {
            writeln!(
                f,
                "{:<30} {:>10.2} {:>10.2}",
                r.design.label(),
                r.ps_seconds,
                r.pl_seconds
            )?;
        }
        Ok(())
    }
}

/// Energy of one rail for one design, split into bottomline and overhead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RailRow {
    /// The rail.
    pub rail: Rail,
    /// Bottomline (idle) energy in joules.
    pub bottomline_j: f64,
    /// Execution-overhead energy in joules.
    pub overhead_j: f64,
}

impl RailRow {
    /// Total energy of the rail.
    pub fn total_j(&self) -> f64 {
        self.bottomline_j + self.overhead_j
    }
}

/// One design's energy row (Fig. 7 stacked bar + Fig. 8 splits).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyRow {
    /// Design implementation.
    pub design: DesignImplementation,
    /// Per-rail energies.
    pub rails: Vec<RailRow>,
    /// Total energy in joules.
    pub total_j: f64,
}

impl EnergyRow {
    /// The energy of one rail.
    pub fn rail(&self, rail: Rail) -> Option<&RailRow> {
        self.rails.iter().find(|r| r.rail == rail)
    }
}

/// Figs. 7 and 8: average energy consumption per design, by rail and split
/// into bottomline and execution overhead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Rows in Table II order.
    pub rows: Vec<EnergyRow>,
}

impl EnergyBreakdown {
    /// Builds the breakdown from a flow report.
    pub fn from_flow(report: &FlowReport) -> Self {
        EnergyBreakdown {
            rows: report
                .designs
                .iter()
                .map(|d| {
                    let rails = Rail::ALL
                        .iter()
                        .map(|&rail| {
                            let e = d.energy.rail(rail);
                            RailRow {
                                rail,
                                bottomline_j: e.bottomline_j,
                                overhead_j: e.overhead_j,
                            }
                        })
                        .collect();
                    EnergyRow {
                        design: d.design,
                        rails,
                        total_j: d.energy.total_j(),
                    }
                })
                .collect(),
        }
    }

    /// The row of one design.
    pub fn row(&self, design: DesignImplementation) -> Option<&EnergyRow> {
        self.rows.iter().find(|r| r.design == design)
    }

    /// Rows of the figures, which omit the marked-HW implementation.
    pub fn figure_rows(&self) -> Vec<&EnergyRow> {
        self.rows
            .iter()
            .filter(|r| r.design != DesignImplementation::MarkedHwFunction)
            .collect()
    }

    /// Serialises the breakdown to JSON (through [`json`]; see
    /// [`ExecutionBreakdown::to_json`]).
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|r| {
            let rails = r.rails.iter().map(|rail| {
                json::obj([
                    ("rail", json::string(&format!("{:?}", rail.rail))),
                    ("bottomline_j", json::num(rail.bottomline_j)),
                    ("overhead_j", json::num(rail.overhead_j)),
                ])
            });
            json::obj([
                ("design", json::string(&format!("{:?}", r.design))),
                ("rails", json::arr(rails)),
                ("total_j", json::num(r.total_j)),
            ])
        });
        json::obj([("rows", json::arr(rows))])
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 7: Tone mapping average energy consumption (J).")?;
        writeln!(
            f,
            "{:<30} {:>8} {:>8} {:>8} {:>8} {:>9}",
            "Design implementation", "PS", "PL", "DDR", "BRAM", "Total"
        )?;
        for r in self.figure_rows() {
            writeln!(
                f,
                "{:<30} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.2}",
                r.design.label(),
                r.rail(Rail::Ps).map_or(0.0, RailRow::total_j),
                r.rail(Rail::Pl).map_or(0.0, RailRow::total_j),
                r.rail(Rail::Ddr).map_or(0.0, RailRow::total_j),
                r.rail(Rail::Bram).map_or(0.0, RailRow::total_j),
                r.total_j
            )?;
        }
        writeln!(f)?;
        for (rail, label) in [
            (Rail::Ps, "Fig. 8a: Processing System (PS)"),
            (Rail::Pl, "Fig. 8b: Programmable Logic (PL)"),
        ] {
            writeln!(f, "{label} — bottomline vs execution overhead (J).")?;
            writeln!(
                f,
                "{:<30} {:>12} {:>12}",
                "Design implementation", "Bottomline", "Overhead"
            )?;
            for r in self.figure_rows() {
                let e = r.rail(rail).copied().unwrap_or(RailRow {
                    rail,
                    bottomline_j: 0.0,
                    overhead_j: 0.0,
                });
                writeln!(
                    f,
                    "{:<30} {:>12.2} {:>12.2}",
                    r.design.label(),
                    e.bottomline_j,
                    e.overhead_j
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::CoDesignFlow;

    fn flow_report() -> FlowReport {
        CoDesignFlow::paper_setup(1024, 1024).run_all()
    }

    #[test]
    fn table1_lists_three_steps() {
        let steps = optimization_steps();
        assert_eq!(steps.len(), 3);
        assert!(steps[0].1.contains("sequential memory accesses"));
        assert!(steps[2].1.contains("fixed-point"));
    }

    #[test]
    fn execution_breakdown_has_five_rows_and_fig6_has_four() {
        let breakdown = ExecutionBreakdown::from_flow(&flow_report());
        assert_eq!(breakdown.rows.len(), 5);
        assert_eq!(breakdown.fig6_rows().len(), 4);
        let text = breakdown.to_string();
        assert!(text.contains("TABLE II"));
        assert!(text.contains("SW source code"));
        assert!(text.contains("FlP to FxP conversion"));
    }

    #[test]
    fn software_row_has_no_pl_time() {
        let breakdown = ExecutionBreakdown::from_flow(&flow_report());
        let sw = breakdown.row(DesignImplementation::SwSourceCode).unwrap();
        assert_eq!(sw.pl_seconds, 0.0);
        assert!((sw.ps_seconds - sw.total_seconds).abs() < 1e-9);
        let fxp = breakdown
            .row(DesignImplementation::FixedPointConversion)
            .unwrap();
        assert!(fxp.pl_seconds > 0.0);
    }

    #[test]
    fn energy_breakdown_matches_flow_totals() {
        let report = flow_report();
        let breakdown = EnergyBreakdown::from_flow(&report);
        for design in DesignImplementation::ALL {
            let row = breakdown.row(design).unwrap();
            let flow_total = report.design(design).unwrap().energy.total_j();
            assert!((row.total_j - flow_total).abs() < 1e-9);
            let rail_sum: f64 = row.rails.iter().map(RailRow::total_j).sum();
            assert!((rail_sum - row.total_j).abs() < 1e-9);
        }
    }

    #[test]
    fn energy_display_contains_both_figures() {
        let text = EnergyBreakdown::from_flow(&flow_report()).to_string();
        assert!(text.contains("Fig. 7"));
        assert!(text.contains("Fig. 8a"));
        assert!(text.contains("Fig. 8b"));
        assert!(text.contains("Bottomline"));
    }

    /// Minimal structural check on hand-emitted JSON: balanced delimiters
    /// and correctly quoted keys (a full parser round-trip returns once the
    /// real `serde_json` is available; see `crates/vendor/README.md`).
    fn assert_well_formed_json(json: &str) {
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = json.matches(open).count();
            let closes = json.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close} in:\n{json}");
        }
        assert_eq!(json.matches('"').count() % 2, 0, "unbalanced quotes");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn json_serialisation_is_well_formed_and_complete() {
        let breakdown = ExecutionBreakdown::from_flow(&flow_report());
        let json = breakdown.to_json();
        assert_well_formed_json(&json);
        for design in DesignImplementation::ALL {
            assert!(
                json.contains(&format!("\"{design:?}\"")),
                "{design:?} missing"
            );
        }
        for key in [
            "\"rows\"",
            "\"blur_seconds\"",
            "\"total_seconds\"",
            "\"ps_seconds\"",
            "\"pl_seconds\"",
        ] {
            assert!(json.contains(key), "{key} missing from:\n{json}");
        }

        let energy = EnergyBreakdown::from_flow(&flow_report());
        let json = energy.to_json();
        assert_well_formed_json(&json);
        for key in [
            "\"rails\"",
            "\"bottomline_j\"",
            "\"overhead_j\"",
            "\"total_j\"",
        ] {
            assert!(json.contains(key), "{key} missing from:\n{json}");
        }
        for rail in Rail::ALL {
            assert!(json.contains(&format!("\"{rail:?}\"")), "{rail:?} missing");
        }
    }
}
