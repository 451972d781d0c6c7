//! Criterion `throughput` group: samples/sec of the scalar golden model,
//! the 64-wide bit-parallel batch golden model, the multi-threaded
//! parallel batch runtime, the event-driven gate-level simulation (the
//! streamed synchronous baseline, the sharded per-operand golden model
//! and the sharded dual-rail four-phase protocol), the 64-wide
//! bit-sliced variants of both event engines (one full lane word per
//! iteration), and the two-level event queue, all on the standard
//! keyword-spotting workload.
//!
//! The recorded comparison lives in `BENCH_PR6.json` at the repository
//! root (regenerate with
//! `cargo run -p tm-async-bench --release --bin throughput -- 4096 BENCH_PR6.json`).

use std::collections::HashMap;
use std::hint::black_box;

use celllib::Library;
use criterion::{criterion_group, criterion_main, Criterion};
use datapath::{
    BatchGoldenModel, BatchInference, DualRailDatapath, DualRailInference, EventDrivenInference,
    InferenceWorkload, ParallelBatchInference, SingleRailDatapath,
};
use gatesim::{run_synchronous_vectors, Event, EventQueue, Logic};
use netlist::{EvalState, Evaluator, NetId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sta::ClockPeriod;
use tm_async_bench::workloads::{standard_config, standard_workload};

fn bench_throughput(c: &mut Criterion) {
    let config = standard_config();
    let standard = standard_workload(1024, 2021);
    let workload = &standard.workload;
    let masks = workload.masks();

    let model = BatchGoldenModel::generate(&config).expect("model generation");
    let operand_vectors: Vec<Vec<bool>> = workload
        .feature_vectors()
        .iter()
        .map(|v| {
            let mut bits = v.clone();
            for bank in [masks.positive(), masks.negative()] {
                for mask in bank {
                    bits.extend_from_slice(mask);
                }
            }
            bits
        })
        .collect();

    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);

    group.bench_function("scalar_golden_model_1024", |b| {
        let eval = Evaluator::new(model.netlist()).expect("acyclic");
        let pis = model.netlist().primary_inputs();
        let greater = model.netlist().primary_outputs()[2];
        let mut state = EvalState::for_netlist(model.netlist());
        let mut scratch = Vec::new();
        let mut map: HashMap<NetId, bool> = HashMap::with_capacity(pis.len());
        b.iter(|| {
            let mut decisions = 0usize;
            for bits in &operand_vectors {
                map.clear();
                map.extend(pis.iter().copied().zip(bits.iter().copied()));
                eval.eval_with_state_into(&map, &mut state, &mut scratch);
                decisions += usize::from(scratch[greater.index()]);
            }
            black_box(decisions)
        })
    });

    group.bench_function("batch_golden_model_64x_1024", |b| {
        let mut batch = BatchInference::new(&model).expect("flattening");
        b.iter(|| black_box(batch.run_workload(workload).expect("batched run")))
    });

    group.bench_function("parallel_batch_2x_1024", |b| {
        let parallel = ParallelBatchInference::new(&model, 2).expect("flattening");
        b.iter(|| black_box(parallel.run_workload(workload).expect("parallel run")))
    });

    group.bench_function("event_queue_interleaved_4096", |b| {
        // The queue discipline in isolation: a deterministic storm of
        // pushes (70 % at the drain timestamp, mirroring gate traffic)
        // interleaved with pops.
        b.iter(|| {
            let mut queue = EventQueue::new();
            let mut rng = StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
            let mut time = 0.0f64;
            for i in 0..4096usize {
                let draw = rng.next_u64();
                let offset = match draw % 10 {
                    0..=6 => 0.0,
                    7 | 8 => 22.0,
                    _ => 350.0,
                };
                queue.push(Event {
                    time_ps: time + offset,
                    net: NetId::from_index(i % 64),
                    value: Logic::One,
                });
                if !draw.is_multiple_of(3) {
                    if let Some(event) = queue.pop() {
                        time = event.time_ps;
                    }
                }
            }
            while queue.pop().is_some() {}
            black_box(time)
        })
    });

    // The sharded event-driven and dual-rail engine rows, one per
    // (engine, kernel) cell: name, operand count, and one run.
    let library = Library::umc_ll();
    let dual_datapath = DualRailDatapath::generate(&config).expect("generation");
    let event = |threads| EventDrivenInference::new(&model, &library, threads);
    let dual = |threads| {
        DualRailInference::new(&dual_datapath, &library, threads).expect("driver construction")
    };
    let (event_1, event_2, dual_1, dual_2) = (event(1), event(2), dual(1), dual(2));
    let registry = std::sync::Arc::new(tm_obs::MetricsRegistry::new());
    let mut event_guard = event(1);
    event_guard.set_metrics(&registry, "guard");
    event_guard.clear_metrics();
    let pipeline_config = dualrail::PipelineConfig {
        occupancy: dualrail::Occupancy::Max,
        train_length: 64,
        ..dualrail::PipelineConfig::default()
    };
    type Run<'r> = Box<dyn Fn(&InferenceWorkload) + 'r>;
    let rows: [(&str, usize, Run); 6] = [
        (
            "event_parallel_2x_16",
            16,
            Box::new(|w| {
                black_box(event_2.run_workload(w).expect("event-driven run"));
            }),
        ),
        (
            "dualrail_parallel_2x_8",
            8,
            Box::new(|w| {
                black_box(dual_2.run_workload(w).expect("dual-rail run"));
            }),
        ),
        (
            "event_sliced_64",
            64,
            Box::new(|w| {
                black_box(event_1.run_workload_sliced(w).expect("sliced event run"));
            }),
        ),
        (
            "event_sliced_64_metrics_disabled",
            64,
            Box::new(|w| {
                black_box(
                    event_guard
                        .run_workload_sliced(w)
                        .expect("sliced event run"),
                );
            }),
        ),
        (
            "dualrail_sliced_64",
            64,
            Box::new(|w| {
                black_box(dual_1.run_workload_sliced(w).expect("sliced dual-rail run"));
            }),
        ),
        (
            "dualrail_pipelined_64",
            64,
            Box::new(|w| {
                let run = dual_1.run_workload_pipelined(w, pipeline_config);
                black_box(run.expect("pipelined dual-rail run"));
            }),
        ),
    ];
    for (name, operands, run) in &rows {
        let prefix = workload.feature_vectors()[..*operands].to_vec();
        let prefix = InferenceWorkload::new(&config, masks.clone(), prefix)
            .expect("prefix workload stays well-formed");
        group.bench_function(*name, |b| b.iter(|| run(&prefix)));
    }

    group.bench_function("event_driven_sim_16", |b| {
        let datapath = SingleRailDatapath::generate(&config).expect("generation");
        let library = Library::umc_ll();
        let clock = ClockPeriod::compute(datapath.netlist(), &library).expect("sta");
        let vectors: Vec<Vec<bool>> = workload.feature_vectors()[..16]
            .iter()
            .map(|v| datapath.operand_bits(v, masks).expect("widths"))
            .collect();
        b.iter(|| {
            black_box(run_synchronous_vectors(
                datapath.netlist(),
                &library,
                clock.period_ps(),
                &vectors,
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
