//! Experiment E4 — ablations of the design choices the paper calls out.
//!
//! * **Reduced vs full completion detection** — the reduced scheme
//!   observes only the primary outputs; the full scheme also observes the
//!   clause and count signals.  The ablation quantifies the area saved
//!   and the `done` latency penalty of full observation (which destroys
//!   the early-`done` property).
//! * **C-element input latches on/off** — how much of the sequential
//!   area comes from the asynchronous input latching that mirrors the
//!   single-rail input registers.

use celllib::Library;
use datapath::{CompletionScheme, DatapathOptions, DualRailDatapath};
use dualrail::ProtocolDriver;
use gatesim::LatencyReport;

use crate::workloads::{standard_config, standard_workload};

/// Measurements for one datapath variant.
#[derive(Clone, Debug, PartialEq)]
pub struct AblationRow {
    /// Variant name.
    pub variant: String,
    /// Total cell area in µm² (UMC LL).
    pub cell_area_um2: f64,
    /// Completion-detection gates added.
    pub cd_gates: usize,
    /// C-elements inside the completion detector.
    pub cd_c_elements: usize,
    /// Average data latency (spacer→valid) in ps.
    pub average_latency_ps: f64,
    /// Average `done` latency in ps.
    pub average_done_ps: f64,
}

/// The ablation study results.
#[derive(Clone, Debug, PartialEq)]
pub struct Ablation {
    /// One row per variant.
    pub rows: Vec<AblationRow>,
}

impl Ablation {
    /// Renders the study as a fixed-width table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34} {:>10} {:>9} {:>8} {:>12} {:>12}\n",
            "Variant", "Area um2", "CD gates", "CD Cs", "AvgLat ps", "AvgDone ps"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<34} {:>10.0} {:>9} {:>8} {:>12.0} {:>12.0}\n",
                row.variant,
                row.cell_area_um2,
                row.cd_gates,
                row.cd_c_elements,
                row.average_latency_ps,
                row.average_done_ps
            ));
        }
        out
    }
}

fn measure(variant: &str, options: DatapathOptions, operands: usize, seed: u64) -> AblationRow {
    let config = standard_config();
    let dp = DualRailDatapath::generate_with(&config, options).expect("generation succeeds");
    let library = Library::umc_ll();
    let standard = standard_workload(operands, seed);
    let bits = standard
        .workload
        .dual_rail_operands(&dp)
        .expect("workload matches");

    let mut driver = ProtocolDriver::new(dp.circuit(), &library).expect("driver initialises");
    let mut data_latency = LatencyReport::default();
    let mut done_latency = LatencyReport::default();
    for operand in &bits {
        let result = driver
            .apply_operand(operand)
            .expect("protocol cycle succeeds");
        data_latency.record(result.s_to_v_latency_ps);
        if let Some(done) = result.done_latency_ps {
            done_latency.record(done);
        }
    }

    AblationRow {
        variant: variant.to_string(),
        cell_area_um2: library.total_area_um2(dp.netlist()),
        cd_gates: dp.completion().gates_added,
        cd_c_elements: dp.completion().c_elements_added,
        average_latency_ps: data_latency.average_ps(),
        average_done_ps: done_latency.average_ps(),
    }
}

/// Runs experiment E4 with `operands` operands per variant.
#[must_use]
pub fn run(operands: usize, seed: u64) -> Ablation {
    let rows = vec![
        measure(
            "reduced CD + input latches (paper)",
            DatapathOptions::paper_defaults(),
            operands,
            seed,
        ),
        measure(
            "full CD + input latches",
            DatapathOptions {
                completion: CompletionScheme::Full,
                input_latches: true,
            },
            operands,
            seed,
        ),
        measure(
            "reduced CD, no input latches",
            DatapathOptions {
                completion: CompletionScheme::Reduced,
                input_latches: false,
            },
            operands,
            seed,
        ),
    ];
    Ablation { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cd_costs_more_area_and_later_done() {
        let ablation = run(6, 11);
        assert_eq!(ablation.rows.len(), 3);
        let reduced = &ablation.rows[0];
        let full = &ablation.rows[1];
        let unlatched = &ablation.rows[2];
        assert!(full.cd_gates > reduced.cd_gates);
        assert!(full.cell_area_um2 > reduced.cell_area_um2);
        assert!(
            full.average_done_ps >= reduced.average_done_ps,
            "observing internal signals cannot make done earlier"
        );
        assert!(unlatched.cell_area_um2 < reduced.cell_area_um2);
        assert!(ablation.render().contains("reduced CD"));
    }
}
