//! Early-propagation analysis.
//!
//! Dual-rail logic with early output can produce a valid result as soon
//! as a controlling subset of its inputs is valid, so the *average*
//! latency over a workload is far below the static worst case — the
//! mechanism behind the paper's headline 10× average-latency reduction.
//! [`EarlyPropagationReport`] packages the comparison between measured
//! latency statistics and the static critical path (or the synchronous
//! clock period).

use gatesim::LatencyReport;

/// Comparison between measured (early-propagative) latency and a static
/// worst-case reference.
#[derive(Clone, Debug, PartialEq)]
pub struct EarlyPropagationReport {
    /// Average measured spacer→valid latency in picoseconds.
    pub average_latency_ps: f64,
    /// Maximum measured spacer→valid latency in picoseconds.
    pub max_latency_ps: f64,
    /// The static reference in picoseconds (critical path of the
    /// dual-rail circuit, or the synchronous clock period when comparing
    /// against the single-rail baseline).
    pub reference_ps: f64,
    /// Number of operands measured.
    pub samples: usize,
}

impl EarlyPropagationReport {
    /// Builds a report from measured statistics and a static reference.
    ///
    /// # Panics
    ///
    /// Panics if `reference_ps` is not positive.
    #[must_use]
    pub fn from_stats(stats: &LatencyReport, reference_ps: f64) -> Self {
        assert!(reference_ps > 0.0, "reference delay must be positive");
        Self {
            average_latency_ps: stats.average_ps(),
            max_latency_ps: stats.max_ps(),
            reference_ps,
            samples: stats.count(),
        }
    }

    /// How many times faster the average case is than the reference
    /// (the paper reports roughly 10× against the synchronous clock).
    #[must_use]
    pub fn average_speedup(&self) -> f64 {
        if self.average_latency_ps <= 0.0 {
            0.0
        } else {
            self.reference_ps / self.average_latency_ps
        }
    }

    /// How much earlier the average case completes than the measured
    /// worst case (a measure of how operand-dependent the latency is).
    #[must_use]
    pub fn average_to_max_ratio(&self) -> f64 {
        if self.max_latency_ps <= 0.0 {
            0.0
        } else {
            self.average_latency_ps / self.max_latency_ps
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(values: &[f64]) -> LatencyReport {
        LatencyReport::from_latencies(values.to_vec())
    }

    #[test]
    fn speedup_is_reference_over_average() {
        let report = EarlyPropagationReport::from_stats(&stats(&[100.0, 300.0]), 2000.0);
        assert_eq!(report.average_latency_ps, 200.0);
        assert_eq!(report.max_latency_ps, 300.0);
        assert!((report.average_speedup() - 10.0).abs() < 1e-12);
        assert!((report.average_to_max_ratio() - 200.0 / 300.0).abs() < 1e-12);
        assert_eq!(report.samples, 2);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let report = EarlyPropagationReport::from_stats(&LatencyReport::default(), 1000.0);
        assert_eq!(report.average_speedup(), 0.0);
        assert_eq!(report.average_to_max_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "reference delay must be positive")]
    fn non_positive_reference_panics() {
        let _ = EarlyPropagationReport::from_stats(&stats(&[1.0]), 0.0);
    }
}
