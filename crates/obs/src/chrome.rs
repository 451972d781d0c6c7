//! Request-lifecycle tracing: a builder for the Chrome trace event
//! format (the JSON flavour `chrome://tracing` and Perfetto open).
//!
//! The serving runtime emits **span** events (`ph: "X"`, a complete
//! slice with a duration) for each request's queue and service
//! intervals, **instant** events (`ph: "i"`) for point occurrences
//! such as sheds or breaker trips, and **counter** events (`ph: "C"`)
//! for sampled series such as queue depth.  Timestamps are virtual
//! nanoseconds converted to the format's microsecond unit with three
//! exact decimal digits, so the export is byte-deterministic for a
//! deterministic virtual clock.
//!
//! # Example
//!
//! ```
//! let mut trace = tm_obs::ChromeTrace::new("serve");
//! trace.complete("request 0", "queue", 0, 1_500, 1, &[("batch", "0".into())]);
//! trace.instant("shed", "admission", 2_000, 1);
//! trace.counter("queue_depth", 2_000, &[("pending", 3)]);
//! let json = trace.to_json();
//! tm_obs::json_is_well_formed(&json).unwrap();
//! assert!(json.contains("\"ph\": \"X\""));
//! ```

use crate::json::Json;

/// Virtual nanoseconds rendered in the trace format's microsecond
/// unit with exactly three decimals (`1_500` → `1.500`), in integer
/// arithmetic so large timestamps stay exact.
fn us(ts_ns: u64) -> Json {
    Json::Raw(format!("{}.{:03}", ts_ns / 1_000, ts_ns % 1_000))
}

/// A Chrome-trace-format JSON builder.  See the [module
/// documentation](self).
#[derive(Clone, Debug)]
pub struct ChromeTrace {
    process: String,
    events: Vec<Json>,
}

impl ChromeTrace {
    /// Creates an empty trace for a process named `process`.
    #[must_use]
    pub fn new(process: &str) -> Self {
        let metadata = Json::object([
            ("ph", Json::from("M")),
            ("pid", Json::Int(1)),
            ("name", Json::from("process_name")),
            ("args", Json::object([("name", Json::from(process))])),
        ]);
        Self {
            process: process.to_string(),
            events: vec![metadata],
        }
    }

    /// Number of events recorded (excluding metadata).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len() - 1
    }

    /// Whether no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a complete span: `name` in category `cat`, starting at
    /// `ts_ns` with duration `dur_ns`, on lane (thread id) `tid`, with
    /// extra `args` key/value annotations.
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        ts_ns: u64,
        dur_ns: u64,
        tid: u32,
        args: &[(&str, String)],
    ) {
        let mut event = vec![
            ("ph", Json::from("X")),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(tid.into())),
            ("name", Json::from(name)),
            ("cat", Json::from(cat)),
            ("ts", us(ts_ns)),
            ("dur", us(dur_ns)),
        ];
        if !args.is_empty() {
            let args = args
                .iter()
                .map(|(key, value)| (*key, Json::from(value.as_str())));
            event.push(("args", Json::object(args)));
        }
        self.events.push(Json::object(event));
    }

    /// Records an instant event at `ts_ns`.
    pub fn instant(&mut self, name: &str, cat: &str, ts_ns: u64, tid: u32) {
        self.events.push(Json::object([
            ("ph", Json::from("i")),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(tid.into())),
            ("name", Json::from(name)),
            ("cat", Json::from(cat)),
            ("ts", us(ts_ns)),
            ("s", Json::from("t")),
        ]));
    }

    /// Records a counter sample: one stacked series per `(name,
    /// value)` pair under the counter track `name`.
    pub fn counter(&mut self, name: &str, ts_ns: u64, series: &[(&str, u64)]) {
        let series = series.iter().map(|&(key, value)| (key, Json::from(value)));
        self.events.push(Json::object([
            ("ph", Json::from("C")),
            ("pid", Json::Int(1)),
            ("name", Json::from(name)),
            ("ts", us(ts_ns)),
            ("args", Json::object(series)),
        ]));
    }

    /// Serialises the trace as a Chrome trace JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::object([
            ("traceEvents", Json::Array(self.events.clone())),
            ("displayTimeUnit", Json::from("ms")),
            (
                "otherData",
                Json::object([("process", Json::from(self.process.as_str()))]),
            ),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json_is_well_formed;

    #[test]
    fn trace_round_trips_through_the_validator() {
        let mut trace = ChromeTrace::new("serve \"sweep\"");
        trace.complete("req 1", "service", 1_234, 567, 2, &[("batch", "3".into())]);
        trace.instant("breaker open", "faults", 9_999, 1);
        trace.counter("queue_depth", 10_000, &[("pending", 7), ("shed", 1)]);
        let json = trace.to_json();
        json_is_well_formed(&json).unwrap();
        assert_eq!(trace.len(), 3);
        assert!(json.contains("\"ts\": 1.234"));
        assert!(json.contains("\"dur\": 0.567"));
    }
}
