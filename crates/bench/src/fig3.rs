//! Experiment E2 — Figure 3: dual-rail datapath latency versus supply
//! voltage on the FULL DIFFUSION library.
//!
//! The paper sweeps the supply from 1.2 V down to 0.25 V and shows the
//! latency rising exponentially below about 0.6 V while functional
//! correctness is preserved across the whole range.

use celllib::Library;
use datapath::DualRailDatapath;
use dualrail::ProtocolDriver;

use crate::workloads::{standard_config, standard_workload};

/// One point of the voltage sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig3Point {
    /// Supply voltage in volts.
    pub supply_v: f64,
    /// Average spacer→valid latency in picoseconds.
    pub average_latency_ps: f64,
    /// Maximum spacer→valid latency in picoseconds.
    pub max_latency_ps: f64,
    /// Whether every inference at this voltage matched the golden model.
    pub functional: bool,
}

/// The regenerated Figure 3.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig3 {
    /// Sweep points, highest voltage first.
    pub points: Vec<Fig3Point>,
    /// Number of operands simulated per voltage point.
    pub operands: usize,
}

impl Fig3 {
    /// Renders the series as a two-column table (and a crude log-scale
    /// sparkline) suitable for comparison against the paper's plot.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>10} {:>16} {:>16} {:>12}\n",
            "Vdd (V)", "avg latency ps", "max latency ps", "functional"
        ));
        for point in &self.points {
            let bar_len = (point.average_latency_ps.log10() * 8.0).max(1.0) as usize;
            out.push_str(&format!(
                "{:>10.2} {:>16.0} {:>16.0} {:>12} {}\n",
                point.supply_v,
                point.average_latency_ps,
                point.max_latency_ps,
                point.functional,
                "#".repeat(bar_len)
            ));
        }
        out
    }

    /// Ratio between the lowest-voltage and nominal-voltage average
    /// latency (the paper spans roughly three to four orders of
    /// magnitude).
    #[must_use]
    pub fn dynamic_range(&self) -> f64 {
        let averages = self.points.iter().map(|p| p.average_latency_ps).collect();
        let averages = gatesim::LatencyReport::from_latencies(averages);
        if averages.min_ps() > 0.0 {
            averages.max_ps() / averages.min_ps()
        } else {
            0.0
        }
    }
}

/// The default voltage grid: 1.2 V down to 0.25 V.
#[must_use]
pub fn default_voltages() -> Vec<f64> {
    vec![1.2, 1.0, 0.8, 0.7, 0.6, 0.5, 0.4, 0.35, 0.3, 0.25]
}

/// Runs experiment E2 over the given voltages with `operands` operands
/// per point.
#[must_use]
pub fn run(voltages: &[f64], operands: usize, seed: u64) -> Fig3 {
    let standard = standard_workload(operands, seed);
    let config = standard_config();
    let dp = DualRailDatapath::generate(&config).expect("dual-rail generation succeeds");
    let operand_bits = standard
        .workload
        .dual_rail_operands(&dp)
        .expect("workload matches datapath");
    let base_library = Library::full_diffusion();

    let mut points = Vec::with_capacity(voltages.len());
    for &supply_v in voltages {
        let library = base_library
            .with_supply_voltage(supply_v)
            .expect("voltage within the FULL DIFFUSION range");
        let mut driver =
            ProtocolDriver::new(dp.circuit(), &library).expect("protocol driver initialises");
        let mut functional = true;
        let mut stats = gatesim::LatencyReport::default();
        for (operand, expected) in operand_bits.iter().zip(standard.workload.expected()) {
            let result = driver
                .apply_operand(operand)
                .expect("protocol cycle succeeds");
            match dp.decode_decision(&result) {
                Ok(decision) => functional &= decision == expected.decision,
                Err(_) => functional = false,
            }
            stats.record(result.s_to_v_latency_ps);
        }
        points.push(Fig3Point {
            supply_v,
            average_latency_ps: stats.average_ps(),
            max_latency_ps: stats.max_ps(),
            functional,
        });
    }
    Fig3 { points, operands }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_scales_exponentially_and_functionality_is_preserved() {
        let fig = run(&[1.2, 0.6, 0.3], 4, 7);
        assert_eq!(fig.points.len(), 3);
        assert!(
            fig.points.iter().all(|p| p.functional),
            "functional correctness must hold across the voltage range"
        );
        // Monotonically increasing latency as the supply drops.
        assert!(fig.points[1].average_latency_ps > fig.points[0].average_latency_ps);
        assert!(fig.points[2].average_latency_ps > 10.0 * fig.points[1].average_latency_ps);
        assert!(fig.dynamic_range() > 50.0);
        assert!(fig.render().contains("Vdd"));
    }
}
