//! Wall-clock spans recorded from outside the program, around calls to
//! each layer's public functions, kept in memory and written out when
//! the run ends.
//!
//! A span's self time is its duration minus the part of it that its
//! child spans cover; summed per layer, self times split the traced
//! wall time across the layers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span.  Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer call, `<layer>.<call>`.
    pub name: &'static str,
    /// Pass or batch the span belongs to.
    pub group: Option<u64>,
    /// Recording thread: 1 for the benchmark's main thread, 2 for the
    /// serving worker.
    pub tid: u32,
    /// Start, ns since the recorder started.
    pub start_ns: u64,
    /// End, ns since the recorder started.
    pub end_ns: u64,
}

/// A shared, thread-safe span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// Starts the recorder's clock.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// so that the spans it opens can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        group: Option<u64>,
        tid: u32,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        // Relaxed: the id only has to be unique, it publishes nothing.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let result = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no thread panics while holding the span store")
            .push(Span {
                id,
                parent,
                name,
                group,
                tid,
                start_ns,
                end_ns,
            });
        result
    }

    /// Every span recorded so far, ordered by start time.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span store")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Runs `f` inside a span when a recorder is present, and bare
/// otherwise: untraced runs pay one branch per layer call.
pub fn traced<R>(
    recorder: Option<&Recorder>,
    name: &'static str,
    parent: Option<u64>,
    group: Option<u64>,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match recorder {
        Some(recorder) => recorder.span(name, parent, group, 1, |id| f(Some(id))),
        None => f(None),
    }
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span, by span id: its duration minus the union
/// of its children's intervals inside it.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    spans
        .iter()
        .map(|span| {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(span.id))
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            let covered = covered_ns(span.start_ns, span.end_ns, &mut children);
            (span.id, (span.end_ns - span.start_ns) - covered)
        })
        .collect()
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of this name.
    pub calls: usize,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Self time summed per span name, largest first.
#[must_use]
pub fn self_time_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut rows: Vec<LayerRow> = Vec::new();
    for (span, (_, self_ns)) in spans.iter().zip(self_times(spans)) {
        match rows.iter_mut().find(|r| r.name == span.name) {
            Some(row) => {
                row.calls += 1;
                row.self_ns += self_ns;
            }
            None => rows.push(LayerRow {
                name: span.name,
                calls: 1,
                self_ns,
            }),
        }
    }
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// The spans as a Chrome trace, with span, parent and group ids in each
/// event's `args`.
#[must_use]
pub fn chrome_trace(process: &str, spans: &[Span]) -> String {
    let mut trace = tm_obs::ChromeTrace::new(process);
    for span in spans {
        let mut args = vec![("span_id", span.id.to_string())];
        if let Some(parent) = span.parent {
            args.push(("parent_id", parent.to_string()));
        }
        if let Some(group) = span.group {
            args.push(("group", group.to_string()));
        }
        let layer = span.name.split('.').next().unwrap_or(span.name);
        trace.complete(
            span.name,
            layer,
            span.start_ns,
            span.end_ns - span.start_ns,
            span.tid,
            &args,
        );
    }
    trace.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            group: None,
            tid: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            // Overlapping children cover [10, 50) once, not twice.
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "b", 30, 50),
            // A child reaching past its parent is clipped to the parent.
            span(4, Some(1), "c", 90, 120),
            // A grandchild counts against its own parent only.
            span(5, Some(2), "d", 15, 25),
        ];
        let times: Vec<u64> = self_times(&spans).into_iter().map(|(_, t)| t).collect();
        assert_eq!(times, vec![100 - 40 - 10, 30 - 10, 20, 30, 10]);

        let table = self_time_table(&spans);
        assert_eq!(table[0].name, "root");
        assert_eq!(table[0].self_ns, 50);
        let total: u64 = table.iter().map(|r| r.self_ns).sum();
        assert_eq!(total, 50 + 20 + 20 + 30 + 10);
    }

    #[test]
    fn recorder_nests_spans_and_exports_ids() {
        let recorder = Recorder::new();
        recorder.span("outer", None, Some(3), 1, |outer| {
            recorder.span("inner", Some(outer), None, 1, |_| ());
        });
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let json = chrome_trace("bench", &spans);
        tm_obs::json_is_well_formed(&json).unwrap();
        assert!(json.contains(&format!("\"parent_id\": \"{}\"", outer.id)));
        assert!(json.contains("\"group\": \"3\""));
    }
}
