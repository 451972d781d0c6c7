//! The metrics registry: named atomic counters, gauges and
//! log-bucketed histograms with deterministic snapshot/merge.
//!
//! # Design
//!
//! A [`MetricsRegistry`] is a name → instrument map.  Handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones of
//! the shared cells: registration takes a lock once, recording is a
//! single relaxed atomic operation, and the same name always resolves
//! to the same cells (registration is idempotent), so any number of
//! engine shards on any number of threads may record into one registry.
//!
//! # Determinism contract
//!
//! Every instrument's merge is **commutative and associative**:
//!
//! * counters accumulate with addition;
//! * histograms accumulate per-bucket counts (and `count`/`sum`) with
//!   addition;
//! * gauges merge by `max` on both the level and the high-water mark.
//!
//! A parallel run that performs the same multiset of recordings —
//! which the engines' bit-identical sharding contracts guarantee —
//! therefore produces a [`MetricsSnapshot`] that is **bit-identical at
//! any thread count**, whether the shards shared one registry or each
//! recorded into a private registry later reduced with
//! [`MetricsSnapshot::merge`].
//!
//! # Example
//!
//! ```
//! let registry = tm_obs::MetricsRegistry::new();
//! let popped = registry.counter("sim.events_popped");
//! let headroom = registry.histogram("sim.watchdog_headroom");
//! popped.add(3);
//! headroom.record(1000);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("sim.events_popped"), 3);
//! assert!(snap.to_json().contains("\"sim.events_popped\""));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX` (bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The log₂ bucket a value falls into: `0` for zero, otherwise
/// `floor(log2(value)) + 1`.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// A monotonically increasing count.  Cloning shares the cell.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A level with a high-water mark (e.g. queue depth).  `set` records
/// the level by `max`-merge so concurrent shards and snapshot merges
/// stay order-independent.
#[derive(Clone, Debug)]
pub struct Gauge {
    last: Arc<AtomicU64>,
    max: Arc<AtomicU64>,
}

impl Gauge {
    /// Records a level observation.
    pub fn set(&self, value: u64) {
        self.last.fetch_max(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Largest level recorded so far.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// A log₂-bucketed histogram of `u64` observations.
#[derive(Clone, Debug)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(value, Ordering::Relaxed);
        self.cells.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }
}

#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A thread-safe name → instrument map.  See the [module
/// documentation](self) for the determinism contract.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<BTreeMap<String, Instrument>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn instrument(&self, name: &str, make: impl FnOnce() -> Instrument) -> Instrument {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        let entry = entries.entry(name.to_string()).or_insert_with(make).clone();
        entry
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use.  The same name always yields handles to the same
    /// cell.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different
    /// instrument kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.instrument(name, || {
            Instrument::Counter(Counter {
                cell: Arc::new(AtomicU64::new(0)),
            })
        }) {
            Instrument::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different
    /// instrument kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.instrument(name, || {
            Instrument::Gauge(Gauge {
                last: Arc::new(AtomicU64::new(0)),
                max: Arc::new(AtomicU64::new(0)),
            })
        }) {
            Instrument::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different
    /// instrument kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.instrument(name, || {
            Instrument::Histogram(Histogram {
                cells: Arc::new(HistogramCells {
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                }),
            })
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// A point-in-time copy of every registered instrument, ordered by
    /// name.  Two snapshots of registries that saw the same multiset
    /// of recordings compare equal (`==`) regardless of thread count
    /// or recording order.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let values = entries
            .iter()
            .map(|(name, instrument)| {
                let value = match instrument {
                    Instrument::Counter(c) => MetricValue::Counter { value: c.get() },
                    Instrument::Gauge(g) => MetricValue::Gauge {
                        last: g.last.load(Ordering::Relaxed),
                        max: g.max(),
                    },
                    Instrument::Histogram(h) => {
                        let buckets = h
                            .cells
                            .buckets
                            .iter()
                            .enumerate()
                            .filter_map(|(i, b)| {
                                let n = b.load(Ordering::Relaxed);
                                (n != 0).then_some((i as u8, n))
                            })
                            .collect();
                        MetricValue::Histogram {
                            count: h.count(),
                            sum: h.cells.sum.load(Ordering::Relaxed),
                            buckets,
                        }
                    }
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { entries: values }
    }
}

/// One instrument's state inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A [`Counter`] total.
    Counter {
        /// Accumulated count.
        value: u64,
    },
    /// A [`Gauge`] level and high-water mark.
    Gauge {
        /// Last (max-merged) level observation.
        last: u64,
        /// Largest level ever observed.
        max: u64,
    },
    /// A [`Histogram`]'s totals and sparse nonzero buckets.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of all observed values.
        sum: u64,
        /// `(bucket_index, count)` pairs for nonzero buckets, in
        /// bucket order.  See [`bucket_of`] for the bucket rule.
        buckets: Vec<(u8, u64)>,
    },
}

/// An immutable, order-deterministic copy of a registry's state.
///
/// Snapshots are plain values: comparable with `==` (the bit-identity
/// checks in the test suite), mergeable with
/// [`MetricsSnapshot::merge`], and serialisable with
/// [`MetricsSnapshot::to_json`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no instruments.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The instrument registered under `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// The counter value under `name`, or 0 when absent or not a
    /// counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(MetricValue::Counter { value }) => *value,
            _ => 0,
        }
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Folds `other` into `self` with the commutative/associative
    /// per-instrument merges (counter/histogram addition, gauge max).
    ///
    /// # Panics
    ///
    /// Panics if the same name carries different instrument kinds in
    /// the two snapshots.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.entries {
            match self.entries.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(value.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    match (slot.get_mut(), value) {
                        (MetricValue::Counter { value: a }, MetricValue::Counter { value: b }) => {
                            *a += b;
                        }
                        (
                            MetricValue::Gauge { last: la, max: ma },
                            MetricValue::Gauge { last: lb, max: mb },
                        ) => {
                            *la = (*la).max(*lb);
                            *ma = (*ma).max(*mb);
                        }
                        (
                            MetricValue::Histogram {
                                count: ca,
                                sum: sa,
                                buckets: ba,
                            },
                            MetricValue::Histogram {
                                count: cb,
                                sum: sb,
                                buckets: bb,
                            },
                        ) => {
                            *ca += cb;
                            *sa += sb;
                            let mut dense = [0u64; HISTOGRAM_BUCKETS];
                            for &(i, n) in ba.iter().chain(bb) {
                                dense[i as usize] += n;
                            }
                            *ba = dense
                                .iter()
                                .enumerate()
                                .filter_map(|(i, &n)| (n != 0).then_some((i as u8, n)))
                                .collect();
                        }
                        (mine, _) => panic!("metric `{name}` kind mismatch in merge: {mine:?}"),
                    }
                }
            }
        }
    }

    /// Serialises the snapshot as a JSON object keyed by metric name
    /// (name order, hence byte-deterministic).
    #[must_use]
    pub fn to_json(&self) -> String {
        let metric = |value: &MetricValue| {
            let fields =
                match value {
                    MetricValue::Counter { value } => vec![
                        ("type", Json::from("counter")),
                        ("value", Json::from(*value)),
                    ],
                    MetricValue::Gauge { last, max } => vec![
                        ("type", Json::from("gauge")),
                        ("last", Json::from(*last)),
                        ("max", Json::from(*max)),
                    ],
                    MetricValue::Histogram {
                        count,
                        sum,
                        buckets,
                    } => vec![
                        ("type", Json::from("histogram")),
                        ("count", Json::from(*count)),
                        ("sum", Json::from(*sum)),
                        (
                            "buckets",
                            Json::array(buckets.iter().map(|&(bucket, n)| {
                                Json::array([Json::Int(bucket.into()), n.into()])
                            })),
                        ),
                    ],
                };
            Json::object(fields)
        };
        Json::object(
            self.entries
                .iter()
                .map(|(name, value)| (name.as_str(), metric(value))),
        )
        .to_string()
    }

    /// Renders a short human-readable table (one instrument per line).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter { value } => {
                    let _ = writeln!(out, "{name:<44} {value}");
                }
                MetricValue::Gauge { last, max } => {
                    let _ = writeln!(out, "{name:<44} last={last} max={max}");
                }
                MetricValue::Histogram { count, sum, .. } => {
                    let mean = if *count == 0 {
                        0.0
                    } else {
                        #[allow(clippy::cast_precision_loss)]
                        {
                            *sum as f64 / *count as f64
                        }
                    };
                    let _ = writeln!(out, "{name:<44} n={count} mean={mean:.1}");
                }
            }
        }
        out
    }
}

/// The standard counter set an event-driven simulator flushes into a
/// registry (scalar `gatesim::Simulator` and 64-wide
/// `SlicedSimulator` alike).  Constructing the set registers every
/// instrument under `"<prefix>.<field>"`; clones share cells, so
/// per-shard engines in a parallel run may each hold a copy.
#[derive(Clone, Debug)]
pub struct SimMetrics {
    /// Completed settles (`run_until_quiescent` calls reaching
    /// quiescence).
    pub settles: Counter,
    /// Events popped from the queue and applied.
    pub events_popped: Counter,
    /// Events suppressed before scheduling (ineffective transitions).
    pub events_suppressed: Counter,
    /// Extra lane-events absorbed by equal-time coalescing (bit-sliced
    /// engines only; stays 0 on scalar engines).
    pub events_coalesced: Counter,
    /// Queue pushes appended to the same-timestamp drain FIFO.
    pub queue_drain: Counter,
    /// Queue pushes landing in the near-future bucket ring.
    pub queue_bucket: Counter,
    /// Queue pushes overflowing to the far-future binary heap.
    pub queue_overflow: Counter,
    /// Per-settle watchdog headroom: event-limit budget left when the
    /// settle reached quiescence.
    pub watchdog_headroom: Histogram,
}

impl SimMetrics {
    /// Registers the set under `"<prefix>.*"` in `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> Self {
        Self {
            settles: registry.counter(&format!("{prefix}.settles")),
            events_popped: registry.counter(&format!("{prefix}.events_popped")),
            events_suppressed: registry.counter(&format!("{prefix}.events_suppressed")),
            events_coalesced: registry.counter(&format!("{prefix}.events_coalesced")),
            queue_drain: registry.counter(&format!("{prefix}.queue_drain")),
            queue_bucket: registry.counter(&format!("{prefix}.queue_bucket")),
            queue_overflow: registry.counter(&format!("{prefix}.queue_overflow")),
            watchdog_headroom: registry.histogram(&format!("{prefix}.watchdog_headroom")),
        }
    }
}

/// The standard instrument set a four-phase dual-rail protocol driver
/// flushes into a registry.
#[derive(Clone, Debug)]
pub struct ProtocolMetrics {
    /// Completed four-phase cycles (operands applied).
    pub cycles: Counter,
    /// Successful spacer-state verifications.
    pub spacer_verify_passes: Counter,
    /// Spacer→valid phase duration in whole picoseconds.
    pub spacer_to_valid_ps: Histogram,
    /// Valid→spacer (return-to-zero) phase duration in whole
    /// picoseconds.
    pub valid_to_spacer_ps: Histogram,
    /// Time slices a pipelined train spent parked waiting for the
    /// input stage to acknowledge before the next injection.
    pub stall_slices: Counter,
}

impl ProtocolMetrics {
    /// Registers the set under `"<prefix>.*"` in `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> Self {
        Self {
            cycles: registry.counter(&format!("{prefix}.cycles")),
            spacer_verify_passes: registry.counter(&format!("{prefix}.spacer_verify_passes")),
            spacer_to_valid_ps: registry.histogram(&format!("{prefix}.spacer_to_valid_ps")),
            valid_to_spacer_ps: registry.histogram(&format!("{prefix}.valid_to_spacer_ps")),
            stall_slices: registry.counter(&format!("{prefix}.stall_slices")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_rule_is_log2_with_zero_bucket() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn registration_is_idempotent_and_shares_cells() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(registry.counter("x").get(), 3);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("x");
        let _ = registry.gauge("x");
    }

    #[test]
    fn snapshot_merge_is_commutative_and_matches_shared_recording() {
        // Shared registry: both "shards" record into one set of cells.
        let shared = MetricsRegistry::new();
        let c = shared.counter("n");
        let h = shared.histogram("h");
        let g = shared.gauge("depth");
        for v in [1u64, 5, 9] {
            c.inc();
            h.record(v);
            g.set(v);
        }

        // Private registries, merged afterwards in both orders.
        let (ra, rb) = (MetricsRegistry::new(), MetricsRegistry::new());
        for (reg, values) in [(&ra, &[1u64, 9][..]), (&rb, &[5u64][..])] {
            let c = reg.counter("n");
            let h = reg.histogram("h");
            let g = reg.gauge("depth");
            for &v in values {
                c.inc();
                h.record(v);
                g.set(v);
            }
        }
        let (sa, sb) = (ra.snapshot(), rb.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab, shared.snapshot());
    }

    #[test]
    fn json_is_deterministic_and_sparse() {
        let registry = MetricsRegistry::new();
        registry.counter("b").add(2);
        registry.histogram("a").record(4);
        let json = registry.snapshot().to_json();
        assert_eq!(
            json,
            "{\"a\": {\"type\": \"histogram\", \"count\": 1, \"sum\": 4, \
             \"buckets\": [[3, 1]]}, \"b\": {\"type\": \"counter\", \"value\": 2}}"
        );
    }
}
