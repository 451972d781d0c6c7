//! Order statistics and failure accounting shared by every workload.

use datapath::InferenceWorkload;
use tm_serve::ServeReport;

/// Percentiles in parts per 100 000, lowest first: the ladder the tail
/// search walks (p50, p90, p99, p99.9, p99.99, p99.999).
const LADDER: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

/// A percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// p99 in parts per 100 000.
pub const P99: u64 = 99_000;

/// p90 in parts per 100 000.
pub const P90: u64 = 90_000;

/// p50 in parts per 100 000.
pub const P50: u64 = 50_000;

/// Nearest rank (1-based) of percentile `pp` (parts per 100 000) among
/// `n` samples: the smallest rank with at least `pp` of the samples at
/// or below it.  Integer arithmetic, so p99 of 1000 samples is exactly
/// rank 990.
fn rank(n: usize, pp: u64) -> usize {
    let n = n as u128;
    let rank = (u128::from(pp) * n).div_ceil(100_000);
    usize::try_from(rank.clamp(1, n)).expect("rank is at most the sample count")
}

/// Samples strictly beyond percentile `pp` of `n` samples.
#[must_use]
pub fn beyond(n: usize, pp: u64) -> usize {
    n - rank(n, pp)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` below 20 samples.
#[must_use]
pub fn highest_supported(n: usize) -> Option<u64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pp| n > 0 && beyond(n, pp) >= MIN_BEYOND)
}

/// Renders parts per 100 000 as a percentile label (`99_900` → `p99.9`).
#[must_use]
pub fn label(pp: u64) -> String {
    let whole = pp / 1_000;
    let frac = pp % 1_000;
    if frac == 0 {
        format!("p{whole}")
    } else {
        format!("p{whole}.{}", format!("{frac:03}").trim_end_matches('0'))
    }
}

/// Sorted samples with nearest-rank percentiles, so every reported
/// value is a sample as measured.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty set with room for `capacity` samples, so that growing
    /// to that size never reallocates and the peak resident memory does
    /// not depend on when a doubling happened.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            values: Vec::with_capacity(capacity),
            sorted: false,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Percentile `pp` (parts per 100 000) by nearest rank.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn at(&mut self, pp: u64) -> f64 {
        assert!(!self.values.is_empty(), "percentile of no samples");
        self.sort();
        self.values[rank(self.values.len(), pp) - 1]
    }

    /// The arithmetic mean (0 for no samples).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len().max(1) as f64
    }

    /// The median.
    pub fn median(&mut self) -> f64 {
        self.at(P50)
    }

    /// The median, the highest supported tail percentile and the sample
    /// count, rendered for the report.
    pub fn describe(&mut self, unit: &str) -> String {
        let n = self.len();
        let median = self.median();
        match highest_supported(n) {
            Some(pp) => format!(
                "p50 {median:.4} {unit}, {} {:.4} {unit} ({n} samples, {} beyond)",
                label(pp),
                self.at(pp),
                beyond(n, pp)
            ),
            None => format!("p50 {median:.4} {unit} ({n} samples, too few for a tail)"),
        }
    }
}

/// Requests or operands attempted and how each failure happened.  A
/// fast wrong answer never counts: every mismatch is a failure and
/// makes the run incorrect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operands or requests issued.
    pub attempted: u64,
    /// Decisions that disagree with the golden model, and bit-identity
    /// contract breaches between engines.
    pub mismatched: u64,
    /// Operands or requests lost to an engine or serving error.
    pub engine_errors: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Requests whose deadline expired while queued.
    pub expired: u64,
}

impl Tally {
    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, other: &Self) {
        self.attempted += other.attempted;
        self.mismatched += other.mismatched;
        self.engine_errors += other.engine_errors;
        self.shed += other.shed;
        self.expired += other.expired;
    }

    /// Every failed operand or request.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.mismatched + self.engine_errors + self.shed + self.expired
    }

    /// Failed over attempted (0 when nothing was attempted).
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// No answer was wrong and no engine failed.  Shed and expired
    /// requests are failures but not wrong answers.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.mismatched == 0 && self.engine_errors == 0
    }

    /// Accounts one serving pass of `issued` requests: shed and expired
    /// requests, and every served outcome that disagrees with its
    /// sample's golden outcome.
    pub fn add_serve(&mut self, issued: usize, report: &ServeReport, workload: &InferenceWorkload) {
        self.attempted += issued as u64;
        self.shed += report.shed_count() as u64;
        self.expired += report.deadline_expired_count() as u64;
        self.mismatched += report
            .served
            .iter()
            .filter(|r| workload.sample(r.sample).expected != &r.outcome)
            .count() as u64;
        let accounted =
            report.served_count() + report.shed_count() + report.deadline_expired_count();
        self.engine_errors += issued.saturating_sub(accounted) as u64;
    }
}

/// Wall time of one `Server::run` not spent inside the backend: the
/// event loop, batcher, queue and channel hand-offs.  Only backend time
/// enters the virtual clock, so this moves no sojourn figure.
#[must_use]
pub fn loop_self_ns(run_wall_ns: u64, report: &ServeReport) -> u64 {
    let service: u64 = report.batches.iter().map(|b| b.service_ns).sum();
    run_wall_ns.saturating_sub(service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datapath::DatapathConfig;
    use tm_serve::{BatchRecord, ServedRecord, ShedRecord};

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50_000));
        assert_eq!(highest_supported(99), Some(50_000));
        assert_eq!(highest_supported(100), Some(90_000));
        assert_eq!(highest_supported(999), Some(90_000));
        assert_eq!(highest_supported(1_000), Some(99_000));
        assert_eq!(beyond(1_000, P99), 10);
        assert_eq!(highest_supported(10_000), Some(99_900));
        assert_eq!(highest_supported(1_000_000), Some(99_999));
        assert_eq!(label(99_900), "p99.9");
        assert_eq!(label(99_990), "p99.99");
        assert_eq!(label(50_000), "p50");
    }

    #[test]
    fn nearest_rank_returns_measured_samples() {
        let mut s = Samples::default();
        for v in (1..=1_000).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.at(P99), 990.0);
        assert_eq!(s.at(100_000), 1_000.0);
        let mut one = Samples::default();
        one.push(7.5);
        assert_eq!(one.at(P99), 7.5);
    }

    fn report_with(
        workload: &InferenceWorkload,
        served: &[(usize, bool)],
        shed: usize,
        expired: usize,
    ) -> ServeReport {
        let record = |&(sample, correct): &(usize, bool)| {
            let mut outcome = *workload.sample(sample).expected;
            if !correct {
                outcome.positive_votes += 1;
            }
            ServedRecord {
                id: sample,
                sample,
                client: 0,
                arrival_ns: 0,
                queue_ns: 0,
                service_ns: 1,
                batch: 0,
                outcome,
            }
        };
        let dropped = |k: usize| ShedRecord {
            id: k,
            sample: k,
            arrival_ns: 0,
        };
        ServeReport {
            served: served.iter().map(record).collect(),
            shed: (0..shed).map(dropped).collect(),
            deadline_expired: (0..expired).map(dropped).collect(),
            batches: vec![
                BatchRecord {
                    flush_ns: 0,
                    size: 1,
                    service_ns: 300,
                },
                BatchRecord {
                    flush_ns: 500,
                    size: 2,
                    service_ns: 200,
                },
            ],
            makespan_ns: 700,
            offered_qps: 1.0,
            backend_faults: None,
        }
    }

    #[test]
    fn error_rate_counts_shed_expired_and_mismatched() {
        let config = DatapathConfig::new(3, 2).unwrap();
        let workload = InferenceWorkload::random(&config, 8, 0.6, 3).unwrap();
        let report = report_with(&workload, &[(0, true), (1, false), (2, true)], 2, 1);
        let mut tally = Tally::default();
        tally.add_serve(8, &report, &workload);
        assert_eq!(tally.attempted, 8);
        assert_eq!(tally.mismatched, 1);
        assert_eq!(tally.shed, 2);
        assert_eq!(tally.expired, 1);
        // Two requests were issued but never accounted for.
        assert_eq!(tally.engine_errors, 2);
        assert_eq!(tally.failed(), 6);
        assert_eq!(tally.error_rate(), 0.75);
        assert!(!tally.correct());

        let clean = report_with(&workload, &[(0, true), (1, true)], 1, 0);
        let mut tally = Tally::default();
        tally.add_serve(3, &clean, &workload);
        assert_eq!(tally.failed(), 1);
        assert!(
            tally.correct(),
            "a shed request is a failure, not a wrong answer"
        );
    }

    #[test]
    fn loop_self_time_is_wall_minus_backend_service() {
        let config = DatapathConfig::new(3, 2).unwrap();
        let workload = InferenceWorkload::random(&config, 4, 0.6, 3).unwrap();
        let report = report_with(&workload, &[(0, true)], 0, 0);
        assert_eq!(loop_self_ns(1_000, &report), 500);
        assert_eq!(loop_self_ns(400, &report), 0);
    }
}
