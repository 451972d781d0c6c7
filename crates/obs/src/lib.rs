//! `tm-obs` — the unified observability layer for the async
//! Tsetlin-machine reproduction: a metrics registry with deterministic
//! snapshot/merge, VCD waveform capture, and Chrome-trace-format
//! request-lifecycle export.
//!
//! The crate is std-only and sits **below** every engine crate in the
//! dependency graph: it knows nothing about netlists, simulators or
//! servers.  Engines talk to it through plain values — net indices,
//! picosecond floats, virtual-nanosecond integers — and attach its
//! instruments behind `Option`s, so an engine with nothing attached
//! pays **no allocation and at most one branch per settle** (the
//! disabled-overhead property tests pin this down).
//!
//! Three sub-layers, one per module, plus the JSON writer they export
//! through:
//!
//! * [`metrics`] — [`MetricsRegistry`], [`Counter`] / [`Gauge`] /
//!   [`Histogram`], and [`MetricsSnapshot`] whose merge is commutative
//!   and associative, so parallel shards reduce to bit-identical
//!   snapshots at any thread count;
//! * [`vcd`] — [`WaveProbe`], a net-index watch-set recording
//!   transitions in simulated picoseconds and exporting standard VCD
//!   with dual-rail pairs annotated as 2-bit codeword vectors;
//! * [`chrome`] — [`ChromeTrace`], a builder for the Chrome trace
//!   event format used by the serving runtime's
//!   arrival→admit→flush→dispatch→complete request lifecycle export;
//! * [`json`] — [`Json`], the one JSON writer every report and export
//!   in the workspace renders through, and [`json_is_well_formed`].
//!
//! # Example: metrics with deterministic merge
//!
//! ```
//! use tm_obs::{MetricsRegistry, MetricsSnapshot};
//!
//! // Two shards record into private registries...
//! let (a, b) = (MetricsRegistry::new(), MetricsRegistry::new());
//! a.counter("events").add(10);
//! b.counter("events").add(32);
//!
//! // ...and their snapshots merge to the same total in either order.
//! let mut ab = a.snapshot();
//! ab.merge(&b.snapshot());
//! let mut ba = b.snapshot();
//! ba.merge(&a.snapshot());
//! assert_eq!(ab, ba);
//! assert_eq!(ab.counter("events"), 42);
//! ```
//!
//! # Example: a two-signal waveform
//!
//! ```
//! use tm_obs::{vcd_is_well_formed, WaveProbe, Wire};
//!
//! let mut probe = WaveProbe::new();
//! probe.watch_bit("done", 7);
//! probe.watch_pair("y0", 3, 4); // b00 spacer, b10 → 1, b01 → 0
//! probe.set_initial(7, Wire::V0);
//! probe.on_change(3, 96.5, Wire::V1);
//! probe.on_change(7, 110.0, Wire::V1);
//! let dump = probe.to_vcd("datapath");
//! assert!(vcd_is_well_formed(&dump).is_ok());
//! ```

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod vcd;

pub use chrome::ChromeTrace;
pub use json::{json_is_well_formed, Json};
pub use metrics::{
    bucket_of, Counter, Gauge, Histogram, MetricValue, MetricsRegistry, MetricsSnapshot,
    ProtocolMetrics, SimMetrics, HISTOGRAM_BUCKETS,
};
pub use vcd::{vcd_is_well_formed, VcdStats, WaveProbe, Wire};
