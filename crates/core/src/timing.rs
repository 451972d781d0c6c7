//! Throughput and latency bookkeeping for dual-rail circuits.
//!
//! Table I reports, per design: average latency, maximum latency, the
//! valid→spacer time `t_V→S`, and average throughput in millions of
//! inferences per second.  For the dual-rail design the paper defines the
//! throughput period as the time until the primary inputs are ready for
//! the next operand — one spacer→valid phase plus one valid→spacer
//! (reset) phase, where `t_V→S` has the same magnitude as the worst-case
//! `t_S→V`.  [`ThroughputReport`] derives all of these from a set of
//! measured [`OperandResult`]s.

use gatesim::LatencyReport;

use crate::OperandResult;

/// Aggregated latency/throughput figures for one dual-rail design under
/// one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct ThroughputReport {
    s_to_v: LatencyReport,
    v_to_s: LatencyReport,
    cycle: LatencyReport,
}

impl ThroughputReport {
    /// Builds a report from per-operand measurements.
    #[must_use]
    pub fn from_results(results: &[OperandResult]) -> Self {
        let mut s_to_v = LatencyReport::default();
        let mut v_to_s = LatencyReport::default();
        let mut cycle = LatencyReport::default();
        for r in results {
            s_to_v.record(r.s_to_v_latency_ps);
            v_to_s.record(r.v_to_s_latency_ps);
            cycle.record(r.cycle_time_ps);
        }
        Self {
            s_to_v,
            v_to_s,
            cycle,
        }
    }

    /// Average spacer→valid latency in picoseconds (Table I "Avg.
    /// Latency").
    #[must_use]
    pub fn average_latency_ps(&self) -> f64 {
        self.s_to_v.average_ps()
    }

    /// Maximum spacer→valid latency in picoseconds (Table I "Max
    /// Latency").
    #[must_use]
    pub fn max_latency_ps(&self) -> f64 {
        self.s_to_v.max_ps()
    }

    /// Worst-case valid→spacer reset time in picoseconds (Table I
    /// `t_V→S`).
    #[must_use]
    pub fn v_to_s_ps(&self) -> f64 {
        self.v_to_s.max_ps()
    }

    /// Average full-cycle time (valid phase plus reset phase) in
    /// picoseconds.
    #[must_use]
    pub fn average_cycle_ps(&self) -> f64 {
        self.cycle.average_ps()
    }

    /// Average throughput in millions of inferences per second, taking
    /// the full four-phase cycle as the repetition period.
    #[must_use]
    pub fn inferences_per_second_millions(&self) -> f64 {
        let cycle = self.average_cycle_ps();
        if cycle <= 0.0 {
            0.0
        } else {
            1.0e6 / cycle
        }
    }

    /// The underlying spacer→valid latency statistics.
    #[must_use]
    pub fn latency_stats(&self) -> &LatencyReport {
        &self.s_to_v
    }

    /// The underlying valid→spacer statistics.
    #[must_use]
    pub fn reset_stats(&self) -> &LatencyReport {
        &self.v_to_s
    }

    /// Number of operands measured.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.s_to_v.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(s_to_v: f64, v_to_s: f64) -> OperandResult {
        OperandResult {
            outputs: vec![true],
            one_of_n: Vec::new(),
            s_to_v_latency_ps: s_to_v,
            done_latency_ps: None,
            v_to_s_latency_ps: v_to_s,
            cycle_time_ps: s_to_v + v_to_s,
            probes: Vec::new(),
        }
    }

    #[test]
    fn report_aggregates_measurements() {
        let results = vec![result(100.0, 400.0), result(300.0, 350.0)];
        let report = ThroughputReport::from_results(&results);
        assert_eq!(report.samples(), 2);
        assert_eq!(report.average_latency_ps(), 200.0);
        assert_eq!(report.max_latency_ps(), 300.0);
        assert_eq!(report.v_to_s_ps(), 400.0);
        assert_eq!(report.average_cycle_ps(), (500.0 + 650.0) / 2.0);
        let mips = report.inferences_per_second_millions();
        assert!((mips - 1.0e6 / 575.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_zero() {
        let report = ThroughputReport::from_results(&[]);
        assert_eq!(report.samples(), 0);
        assert_eq!(report.average_latency_ps(), 0.0);
        assert_eq!(report.inferences_per_second_millions(), 0.0);
    }
}
