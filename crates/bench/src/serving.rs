//! Experiment E6 — serving saturation sweep: offered load vs achieved
//! goodput, queueing/service tail percentiles and shed counts for the
//! micro-batching serving runtime over several inference backends.
//!
//! For each backend the sweep first measures the server's **capacity**
//! (a closed-loop run with enough concurrency to keep 64-lane batches
//! full), then drives open-loop Poisson traces at fixed fractions and
//! multiples of that capacity, plus one bursty and one ramp trace
//! around the knee.  Every run uses [`ServiceModel::Measured`], so the
//! virtual queueing system is coupled to the backend's real speed —
//! the queueing percentiles are genuine tail latencies of this host,
//! and the achieved-QPS curve flattens at the measured capacity while
//! the shed count takes over.
//!
//! Correctness gate: the serving runtime verifies **every served
//! outcome against the workload's golden outcome** before a report is
//! returned (a corrupted pipeline fails the run rather than recording
//! timings).  The deterministic zero-shed-below-saturation guarantee is
//! asserted by the `serve_smoke` CI gate under a fixed service model;
//! the measured-model points here record shed counts without asserting
//! on them (host jitter may legitimately shed near the knee).

use celllib::Library;
use datapath::{BatchGoldenModel, DualRailDatapath, InferenceWorkload};
use tm_serve::{
    AdmissionPolicy, Backend, BatchBackend, DualRailBackend, DualRailKernel, EventDrivenBackend,
    EventKernel, ParallelBatchBackend, ServeConfig, ServeSummary, Server, ServiceModel, Trace,
};

use crate::workloads::{standard_config, standard_workload};

/// One serving measurement: a `(backend, arrival pattern, offered
/// load)` point of the sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRow {
    /// Row name: `serve_<backend>_qps`.
    pub strategy: String,
    /// Arrival pattern (`closed`, `poisson`, `bursty`, `ramp`).
    pub pattern: String,
    /// Offered load relative to the measured capacity (0.0 for the
    /// closed-loop capacity row itself).
    pub load_factor: f64,
    /// The condensed serving figures (offered/achieved QPS, shed count,
    /// queueing and service p50/p95/p99 in ns, batch amortisation).
    pub summary: ServeSummary,
}

/// The full serving sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeSweepReport {
    /// One row per `(backend, load point)`.
    pub rows: Vec<ServeRow>,
    /// Requests per open-loop point.
    pub requests: usize,
    /// Test accuracy of the trained machine backing the workload.
    pub workload_accuracy: f64,
}

impl ServeSweepReport {
    /// Renders a human-readable table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26} {:>8} {:>6} {:>12} {:>12} {:>6} {:>6} {:>10} {:>10} {:>10}\n",
            "strategy",
            "pattern",
            "load",
            "offered/s",
            "achieved/s",
            "served",
            "shed",
            "q_p50 ns",
            "q_p99 ns",
            "s_p50 ns",
        ));
        for row in &self.rows {
            let s = &row.summary;
            out.push_str(&format!(
                "{:<26} {:>8} {:>6.2} {:>12.0} {:>12.0} {:>6} {:>6} {:>10.0} {:>10.0} {:>10.0}\n",
                row.strategy,
                row.pattern,
                row.load_factor,
                s.offered_qps,
                s.achieved_qps,
                s.served,
                s.shed,
                s.queue_p50_ns,
                s.queue_p99_ns,
                s.service_p50_ns,
            ));
        }
        out
    }

    /// Renders the report as a JSON document (hand-rolled; the
    /// workspace has no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out =
            String::from("{\n  \"experiment\": \"serve_saturation_sweep\",\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let s = &row.summary;
            out.push_str(&format!(
                "    {{\"strategy\": \"{}\", \"pattern\": \"{}\", \"load_factor\": {:.2}, \
                 \"offered_qps\": {:.1}, \"achieved_qps\": {:.1}, \"served\": {}, \"shed\": {}, \
                 \"batches\": {}, \"mean_batch\": {:.2}, \
                 \"queue_p50_ns\": {:.0}, \"queue_p95_ns\": {:.0}, \"queue_p99_ns\": {:.0}, \
                 \"service_p50_ns\": {:.0}, \"service_p95_ns\": {:.0}, \"service_p99_ns\": {:.0}}}{}\n",
                row.strategy,
                row.pattern,
                row.load_factor,
                s.offered_qps,
                s.achieved_qps,
                s.served,
                s.shed,
                s.batches,
                s.mean_batch_size,
                s.queue_p50_ns,
                s.queue_p95_ns,
                s.queue_p99_ns,
                s.service_p50_ns,
                s.service_p95_ns,
                s.service_p99_ns,
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"requests_per_point\": {},\n  \"workload_accuracy\": {:.4}\n}}\n",
            self.requests, self.workload_accuracy
        ));
        out
    }

    /// All rows of one backend.
    #[must_use]
    pub fn backend_rows(&self, backend: &str) -> Vec<&ServeRow> {
        let strategy = format!("serve_{backend}_qps");
        self.rows
            .iter()
            .filter(|r| r.strategy == strategy)
            .collect()
    }
}

/// The open-loop load factors each backend is swept across (relative
/// to its measured closed-loop capacity).
pub const LOAD_FACTORS: [f64; 4] = [0.25, 0.5, 1.0, 2.0];

/// Serving configuration used by every sweep point: a 256-deep shed
/// queue, 64-lane batches, a 50 µs batching deadline, measured service
/// times.
#[must_use]
pub fn sweep_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        policy: AdmissionPolicy::Shed,
        max_batch: 64,
        max_wait_ns: 50_000,
        service_model: ServiceModel::Measured,
        deadline_ns: None,
    }
}

/// Sweeps one backend: measures capacity closed-loop, then runs Poisson
/// points at [`LOAD_FACTORS`], one bursty point at capacity, and one
/// ramp point walking 0.25x → 2x capacity.
///
/// # Panics
///
/// Panics if a serving run fails (outcome divergence included) or
/// loses requests.
fn sweep_backend<B: Backend + Send>(
    name: &str,
    mut make_backend: impl FnMut() -> B,
    workload: &InferenceWorkload,
    requests: usize,
    seed: u64,
    rows: &mut Vec<ServeRow>,
) {
    let strategy = format!("serve_{name}_qps");
    let config = sweep_config();

    // Capacity: a closed loop with enough concurrency to keep lanes
    // full; its achieved QPS is the knee the open-loop points bracket.
    let mut server = Server::new(make_backend(), workload, config).expect("server");
    let capacity_run = server
        .run_closed(256, requests, 0)
        .expect("closed-loop capacity run");
    let capacity_qps = capacity_run.achieved_qps().max(1.0);
    rows.push(ServeRow {
        strategy: strategy.clone(),
        pattern: "closed".into(),
        load_factor: 0.0,
        summary: capacity_run.summary(),
    });

    // Open-loop points: Poisson at each load factor, bursts of 32 at the
    // capacity knee (stresses admission control and the lanes-full
    // flush rule), and a deterministic ramp across the knee (0.25x → 2x
    // capacity).
    let mut points: Vec<(&str, f64, Trace)> = LOAD_FACTORS
        .iter()
        .enumerate()
        .map(|(k, &factor)| {
            let trace = Trace::poisson(requests, capacity_qps * factor, seed ^ (k as u64 + 1));
            ("poisson", factor, trace)
        })
        .collect();
    points.push((
        "bursty",
        1.0,
        Trace::bursty(requests, 32, capacity_qps, seed ^ 0xb),
    ));
    let ramp = Trace::ramp(requests, capacity_qps * 0.25, capacity_qps * 2.0);
    points.push(("ramp", 2.0, ramp));
    for (pattern, load_factor, trace) in points {
        let mut server = Server::new(make_backend(), workload, config).expect("server");
        let report = server.run(&trace).expect("open-loop serve run");
        assert_eq!(
            report.served_count() + report.shed_count(),
            requests,
            "{strategy}: every request is either served or counted as shed"
        );
        // No zero-shed assertion here: these points run under the
        // *measured* service model, so a host stall between the
        // capacity calibration and an open-loop run could legitimately
        // shed even far below the calibrated knee.  The deterministic
        // below-saturation zero-shed guarantee is asserted by the
        // `serve_smoke` CI gate under a fixed service model instead.
        rows.push(ServeRow {
            strategy: strategy.clone(),
            pattern: pattern.into(),
            load_factor,
            summary: report.summary(),
        });
    }
}

/// Runs the serving saturation sweep on `requests` requests per
/// open-loop point, replaying the standard keyword-spotting workload.
///
/// The fast lane backends (`batch`, `parallel_batch`) serve `requests`
/// requests per point; the gate-level simulation backends — every
/// kernel of the two simulation adapters (`event_driven`,
/// `event_sliced`, `dual_rail`, `dualrail_sliced`,
/// `dualrail_pipelined`), each row named by its backend — serve
/// `requests / 8` (min 32) so the sweep stays tractable: each of their
/// requests simulates the whole netlist.
///
/// # Panics
///
/// Panics if any serving run fails its golden verification, if a
/// a run loses requests, or if generation fails.
#[must_use]
pub fn run(requests: usize, seed: u64) -> ServeSweepReport {
    assert!(requests >= 64, "sweep needs at least one full lane word");
    let config = standard_config();
    let standard = standard_workload(512, seed);
    let workload = &standard.workload;
    let masks = workload.masks();
    let model = BatchGoldenModel::generate(&config).expect("model generation");
    let datapath = DualRailDatapath::generate(&config).expect("datapath generation");
    let library = Library::umc_ll();
    let sim_requests = (requests / 8).max(32);

    let mut rows = Vec::new();
    sweep_backend(
        "batch",
        || BatchBackend::new(&model, masks.clone()).expect("backend"),
        workload,
        requests,
        seed,
        &mut rows,
    );
    sweep_backend(
        "parallel_batch",
        || ParallelBatchBackend::new(&model, masks.clone(), 2).expect("backend"),
        workload,
        requests,
        seed,
        &mut rows,
    );
    for kernel in [EventKernel::Scalar, EventKernel::Sliced] {
        let make = || {
            EventDrivenBackend::with_kernel(&model, &library, masks.clone(), 1, kernel)
                .expect("backend")
        };
        sweep_backend(kernel.name(), make, workload, sim_requests, seed, &mut rows);
    }
    for kernel in [
        DualRailKernel::Scalar,
        DualRailKernel::Sliced,
        DualRailKernel::Pipelined(dualrail::PipelineConfig::default()),
    ] {
        let make = || {
            DualRailBackend::with_kernel(&datapath, &library, masks.clone(), 1, kernel)
                .expect("backend")
        };
        sweep_backend(kernel.name(), make, workload, sim_requests, seed, &mut rows);
    }

    ServeSweepReport {
        rows,
        requests,
        workload_accuracy: standard.accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small sweep end to end: every backend contributes its closed
    /// capacity row plus the open-loop points, nothing sheds far below
    /// saturation (asserted inside [`run`]), and the reports are
    /// well-formed.
    #[test]
    fn small_sweep_is_well_formed() {
        let report = run(64, 7);
        // 7 backends x (1 closed + LOAD_FACTORS.len() poisson + bursty + ramp).
        let per_backend = 1 + LOAD_FACTORS.len() + 2;
        assert_eq!(report.rows.len(), 7 * per_backend);
        for backend in [
            "batch",
            "parallel_batch",
            "event_driven",
            "dual_rail",
            "event_sliced",
            "dualrail_sliced",
            "dualrail_pipelined",
        ] {
            let rows = report.backend_rows(backend);
            assert_eq!(rows.len(), per_backend, "{backend}");
            assert!(rows.iter().all(|r| r.summary.served > 0));
            // Percentiles are ordered.
            for row in rows {
                let s = &row.summary;
                assert!(s.queue_p50_ns <= s.queue_p95_ns && s.queue_p95_ns <= s.queue_p99_ns);
                assert!(s.service_p50_ns <= s.service_p99_ns);
            }
        }
        let json = report.to_json();
        assert!(json.contains("\"serve_batch_qps\""));
        assert!(json.contains("\"serve_event_driven_qps\""));
        assert!(json.contains("\"serve_event_sliced_qps\""));
        assert!(json.contains("\"serve_dualrail_sliced_qps\""));
        assert!(json.contains("\"serve_dualrail_pipelined_qps\""));
        assert!(json.contains("\"queue_p99_ns\""));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
        assert!(report.render().contains("serve_dual_rail_qps"));
    }
}
