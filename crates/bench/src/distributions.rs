//! Experiment E3 — operand and delay probability distributions
//! (the paper's second contribution).
//!
//! The average-latency advantage of the early-propagative datapath comes
//! from *where the comparator can stop*: when the two vote counts differ
//! in a high-order bit the 1-of-3 output resolves after a handful of gate
//! delays, and only near-ties exercise the full chain.  This experiment
//! reports, for a realistic (trained-machine) workload and for a
//! uniform-random control:
//!
//! * the distribution of positive/negative vote counts;
//! * the distribution of the most significant differing bit position;
//! * the latency histogram measured on the event-driven simulator.

use celllib::Library;
use datapath::{DualRailDatapath, InferenceWorkload};
use dualrail::ProtocolDriver;
use gatesim::LatencyReport;

use crate::workloads::{standard_config, standard_workload};

/// Distribution summary for one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadDistribution {
    /// Workload name.
    pub name: String,
    /// Histogram of positive vote counts (index = votes).
    pub positive_votes: Vec<usize>,
    /// Histogram of negative vote counts (index = votes).
    pub negative_votes: Vec<usize>,
    /// Histogram of the most significant differing count bit
    /// (index 0 = bit 0, …; the last bucket counts equal operands).
    pub decision_bit: Vec<usize>,
    /// Measured spacer→valid latency statistics.
    pub latency: LatencyReport,
}

/// The complete distribution experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct Distributions {
    /// Per-workload summaries (trained machine first, then the
    /// uniform-random control).
    pub workloads: Vec<WorkloadDistribution>,
}

impl Distributions {
    /// Renders all histograms as fixed-width text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for w in &self.workloads {
            out.push_str(&format!("== workload: {} ==\n", w.name));
            out.push_str(&format!(
                "latency: avg {:.0} ps, max {:.0} ps over {} operands\n",
                w.latency.average_ps(),
                w.latency.max_ps(),
                w.latency.count()
            ));
            out.push_str("positive votes: ");
            for (v, count) in w.positive_votes.iter().enumerate() {
                out.push_str(&format!("{v}:{count} "));
            }
            out.push_str("\nnegative votes: ");
            for (v, count) in w.negative_votes.iter().enumerate() {
                out.push_str(&format!("{v}:{count} "));
            }
            out.push_str("\ndecision bit (MSB-first early termination): ");
            for (bit, count) in w.decision_bit.iter().enumerate() {
                if bit + 1 == w.decision_bit.len() {
                    out.push_str(&format!("equal:{count} "));
                } else {
                    out.push_str(&format!("bit{bit}:{count} "));
                }
            }
            out.push_str("\nlatency histogram (10 bins): ");
            for (edge, count) in w.latency.histogram(10) {
                out.push_str(&format!("<{edge:.0}ps:{count} "));
            }
            out.push_str("\n\n");
        }
        out
    }
}

fn analyse(
    name: &str,
    dp: &DualRailDatapath,
    workload: &InferenceWorkload,
    library: &Library,
) -> WorkloadDistribution {
    let clauses = dp.config().clauses_per_polarity();
    let bits = dp.config().count_bits();
    let mut positive_votes = vec![0usize; clauses + 1];
    let mut negative_votes = vec![0usize; clauses + 1];
    let mut decision_bit = vec![0usize; bits + 1];

    for outcome in workload.expected() {
        positive_votes[outcome.positive_votes] += 1;
        negative_votes[outcome.negative_votes] += 1;
        let diff_bit = (0..bits)
            .rev()
            .find(|&b| (outcome.positive_votes >> b) & 1 != (outcome.negative_votes >> b) & 1);
        match diff_bit {
            Some(bit) => decision_bit[bit] += 1,
            None => decision_bit[bits] += 1,
        }
    }

    let mut driver = ProtocolDriver::new(dp.circuit(), library).expect("driver initialises");
    let operands = workload.dual_rail_operands(dp).expect("workload matches");
    let mut latency = LatencyReport::default();
    for operand in &operands {
        let result = driver
            .apply_operand(operand)
            .expect("protocol cycle succeeds");
        latency.record(result.s_to_v_latency_ps);
    }

    WorkloadDistribution {
        name: name.to_string(),
        positive_votes,
        negative_votes,
        decision_bit,
        latency,
    }
}

/// Runs experiment E3 with `operands` operands per workload.
#[must_use]
pub fn run(operands: usize, seed: u64) -> Distributions {
    let config = standard_config();
    let dp = DualRailDatapath::generate(&config).expect("dual-rail generation succeeds");
    let library = Library::umc_ll();

    let trained = standard_workload(operands, seed);
    let random = InferenceWorkload::random(&config, operands, 0.75, seed ^ 0xABCD)
        .expect("valid configuration");

    Distributions {
        workloads: vec![
            analyse("trained Tsetlin machine", &dp, &trained.workload, &library),
            analyse("uniform random control", &dp, &random, &library),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributions_cover_both_workloads() {
        let result = run(8, 5);
        assert_eq!(result.workloads.len(), 2);
        for w in &result.workloads {
            assert_eq!(w.latency.count(), 8);
            assert_eq!(w.positive_votes.iter().sum::<usize>(), 8);
            assert_eq!(w.negative_votes.iter().sum::<usize>(), 8);
            assert_eq!(w.decision_bit.iter().sum::<usize>(), 8);
            assert!(w.latency.average_ps() > 0.0);
        }
        assert!(result.render().contains("decision bit"));
    }
}
