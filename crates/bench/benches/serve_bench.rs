//! Criterion `serve` group: the micro-batching serving runtime end to
//! end — admission, batching, the mpsc service-worker round-trips and
//! telemetry — on a Poisson trace against the batch backend, plus the
//! batcher-free offline path for comparison.
//!
//! Criterion `dualrail_service` group: the service time of the
//! dual-rail engine behind a serving backend, at the small batches of
//! low-load serving — one long-lived single-thread
//! `DualRailInference` answering batches of 1, 2, 4, 8, 16 and 64 on
//! the scalar and the 64-lane sliced kernel.  The sliced rows at and
//! below `dualrail::ARRIVAL_MAX_LANES` run on the arrival engine, the
//! rest on the event engine, so the sweep is where that cut is
//! measured.  The minimum of the 30 samples is the best-of-30 figure of
//! the per-call fixed-cost table in `ROADMAP.md`.
//!
//! Criterion `pipelined_train` group: the wavefront-pipelined
//! dual-rail layer on its own — one long-lived single-thread
//! `DualRailInference` running 16 and 64 operands through
//! `run_features_pipelined` at full occupancy (one train, and four
//! trains of the default 16 tokens).  The minimum of the 30 samples is
//! the best-of-30 train cost.
//!
//! The recorded saturation sweep lives in `BENCH_PR5.json` at the
//! repository root (regenerate with
//! `cargo run -p tm-async-bench --release --bin serve_sweep -- 2048 BENCH_PR5.json`).

use celllib::Library;
use criterion::{criterion_group, criterion_main, Criterion};
use datapath::{BatchGoldenModel, BatchInference, DualRailDatapath, DualRailInference};
use dualrail::{Occupancy, PipelineConfig};
use tm_async_bench::workloads::{standard_config, standard_workload};
use tm_serve::{BatchBackend, ServeConfig, Server, Trace};

fn bench_serving(c: &mut Criterion) {
    let config = standard_config();
    let standard = standard_workload(256, 2021);
    let workload = &standard.workload;
    let model = BatchGoldenModel::generate(&config).expect("model generation");

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    // 1024 Poisson requests at 2M qps through the full serving pipeline
    // (measured service model): what a served request costs end to end.
    group.bench_function("serve_batch_poisson_1024", |b| {
        // Construction (netlist flattening, server setup) is hoisted out
        // of the timed loop: each run() starts a fresh session on the
        // same server, so the row measures per-request serving cost, and
        // the gap to `offline_batch_1024` is pure serving-layer overhead.
        let trace = Trace::poisson(1024, 2e6, 7);
        let backend = BatchBackend::new(&model, workload.masks().clone()).expect("backend");
        let mut server = Server::new(backend, workload, ServeConfig::default()).expect("server");
        b.iter(|| criterion::black_box(server.run(&trace).expect("serve run")))
    });

    // The same 1024 requests straight through the offline batch engine:
    // the serving layer's overhead is the gap between these two rows.
    group.bench_function("offline_batch_1024", |b| {
        let mut batch = BatchInference::new(&model).expect("flattening");
        let replay: Vec<&[bool]> = workload
            .samples()
            .cycle()
            .take(1024)
            .map(|s| s.features)
            .collect();
        b.iter(|| {
            let outcomes: Vec<_> = replay
                .chunks(64)
                .flat_map(|chunk| {
                    batch
                        .infer_batch(workload.masks(), chunk)
                        .expect("batched run")
                })
                .collect();
            criterion::black_box(outcomes)
        })
    });

    group.finish();
}

fn bench_dualrail_service(c: &mut Criterion) {
    let config = standard_config();
    let standard = standard_workload(64, 2021);
    let workload = &standard.workload;
    let datapath = DualRailDatapath::generate(&config).expect("datapath generation");
    let library = Library::umc_ll();
    // Built once: every timed call after the first reuses the workers
    // the previous call left idle, as a serving backend does.
    let inference = DualRailInference::new(&datapath, &library, 1).expect("driver");
    let masks = workload.masks();

    let mut group = c.benchmark_group("dualrail_service");
    group.sample_size(30);
    for batch in [1, 2, 4, 8, 16, 64] {
        let features = &workload.feature_vectors()[..batch];
        group.bench_function(format!("scalar_batch_{batch}"), |b| {
            b.iter(|| inference.run_features(masks, features).expect("scalar run"))
        });
        group.bench_function(format!("sliced_batch_{batch}"), |b| {
            b.iter(|| {
                inference
                    .run_features_sliced(masks, features)
                    .expect("sliced run")
            })
        });
    }
    group.finish();
}

fn bench_pipelined_train(c: &mut Criterion) {
    let config = standard_config();
    let standard = standard_workload(64, 2021);
    let workload = &standard.workload;
    let datapath = DualRailDatapath::generate(&config).expect("datapath generation");
    let library = Library::umc_ll();
    let inference = DualRailInference::new(&datapath, &library, 1).expect("driver");
    let masks = workload.masks();
    let pipeline = PipelineConfig {
        occupancy: Occupancy::Max,
        ..PipelineConfig::default()
    };

    let mut group = c.benchmark_group("pipelined_train");
    group.sample_size(30);
    for operands in [16, 64] {
        let features = &workload.feature_vectors()[..operands];
        group.bench_function(format!("max_occupancy_{operands}"), |b| {
            b.iter(|| {
                inference
                    .run_features_pipelined(masks, features, pipeline)
                    .expect("pipelined run")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_serving,
    bench_dualrail_service,
    bench_pipelined_train
);
criterion_main!(benches);
