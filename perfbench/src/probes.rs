//! Layer probes of the traced run: direct calls to single layers on the
//! workload's own operands, each inside a span.
//!
//! Every traced run reports every per-layer metric.  A layer the
//! workload's own passes exercise is measured there; the others are
//! measured here, by a short run of the workload that exercises them.

use std::sync::Arc;
use std::time::Instant;

use datapath::DualRailInference;
use dualrail::{OperandResult, ProtocolDriver, SlicedProtocolDriver};
use gatesim::SlicedSimulator;

use crate::spans::Recorder;
use crate::stats::{Samples, Tally};
use crate::workloads::{measure, pipeline_config, Ctx, Measured, Probe, Workload, OFFLINE_THREADS};

/// Passes each thread count runs for the scaling probe.
const SCALING_PASSES: usize = 3;
/// Worker constructions the worker-init probe times.
const WORKER_INITS: usize = 10;
/// One-lane words the word probe times.
const WORD1_CYCLES: usize = 32;
/// Full 64-lane words the word probe times.
const WORD64_CYCLES: usize = 8;
/// Seconds of passes a borrowed-workload probe runs.
const PROBE_SECONDS: f64 = 0.5;

/// Per-layer figures the probes measured.
#[derive(Debug)]
pub struct LayerProbes {
    /// `SlicedSimulator::from_program` plus the word driver's first
    /// spacer settle, ms.
    pub worker_init_ms: Samples,
    /// `apply_word` with one lane, ms.
    pub word1_ms: Samples,
    /// `apply_word` with 64 lanes, ms.
    pub word64_ms: Samples,
    /// `operand_bits`, µs per operand.
    pub encode_us_per_op: f64,
    /// `decode_outcome`, µs per operand.
    pub decode_us_per_op: f64,
    /// Ops/s at 2 threads over twice the ops/s at 1 thread.
    pub scaling_efficiency: f64,
    /// A short run of each workload this one does not cover, for the
    /// layers only that workload exercises.
    pub borrowed: Vec<(Workload, Measured)>,
    /// Golden and contract failures the probes met.
    pub tally: Tally,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs every probe under `root`.
///
/// # Errors
///
/// Returns engine failures; a wrong answer is counted, not returned.
pub fn run(
    ctx: &Ctx,
    workload: Workload,
    probe: &Probe,
    rec: &Arc<Recorder>,
    root: u64,
) -> Result<LayerProbes, String> {
    let span = |name, group, f: &mut dyn FnMut()| rec.span(name, Some(root), group, 1, |_| f());
    let circuit = probe.datapath.circuit();
    let population = &probe.population;
    let mut tally = Tally::default();

    let snapshot = ProtocolDriver::from_program(circuit, Arc::clone(&probe.program))
        .map_err(|e| e.to_string())?
        .quiescent_snapshot();
    let mut worker_init_ms = Samples::default();
    let mut driver = None;
    for _ in 0..WORKER_INITS {
        let mut result = None;
        span("dualrail.worker_init", None, &mut || {
            let start = Instant::now();
            let sim = SlicedSimulator::from_program(Arc::clone(&probe.program));
            result = Some(SlicedProtocolDriver::from_sliced_simulator(
                circuit,
                sim,
                Arc::clone(&snapshot),
                true,
            ));
            worker_init_ms.push(ms_since(start));
        });
        driver = result;
    }
    let mut driver = driver
        .expect("at least one worker init")
        .map_err(|e| e.to_string())?;

    let masks = population.masks();
    let mut operands = Vec::new();
    let mut encode = Ok(());
    let start = Instant::now();
    span("datapath.encode", None, &mut || {
        encode = population
            .feature_vectors()
            .iter()
            .map(|v| probe.datapath.operand_bits(v, masks))
            .collect::<Result<Vec<_>, _>>()
            .map(|bits| operands = bits);
    });
    let encode_us_per_op = ms_since(start) * 1e3 / population.len() as f64;
    encode.map_err(|e| e.to_string())?;

    let mut results: Vec<Result<OperandResult, dualrail::DualRailError>> = Vec::new();
    let mut expected = Vec::new();
    let mut word1_ms = Samples::default();
    for k in 0..WORD1_CYCLES {
        let first = k % operands.len();
        let word = &operands[first..=first];
        expected.push(population.expected()[first]);
        span("dualrail.word1_cycle", Some(k as u64), &mut || {
            let start = Instant::now();
            results.extend(driver.apply_word(word));
            word1_ms.push(ms_since(start));
        });
    }
    let mut word64_ms = Samples::default();
    for k in 0..WORD64_CYCLES {
        let first = (k * 64) % operands.len();
        let lanes = 64.min(operands.len() - first);
        let word = &operands[first..first + lanes];
        expected.extend_from_slice(&population.expected()[first..first + lanes]);
        span("dualrail.word64_cycle", Some(k as u64), &mut || {
            let start = Instant::now();
            results.extend(driver.apply_word(word));
            word64_ms.push(ms_since(start));
        });
    }
    let results = results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut decoded = Vec::new();
    let start = Instant::now();
    span("datapath.decode", None, &mut || {
        decoded = results
            .iter()
            .map(|r| probe.datapath.decode_outcome(r))
            .collect();
    });
    let decode_us_per_op = ms_since(start) * 1e3 / results.len() as f64;
    tally.attempted += results.len() as u64;
    for (outcome, expected) in decoded.into_iter().zip(&expected) {
        match outcome {
            Ok(outcome) if outcome == *expected => {}
            Ok(_) => tally.mismatched += 1,
            Err(_) => tally.engine_errors += 1,
        }
    }

    let scaling_efficiency = scaling(ctx, workload, probe, rec, root, &mut tally)?;

    let mut borrowed = Vec::new();
    for other in [
        Workload::BulkSliced,
        Workload::PipelinedTrain,
        Workload::ServeBusy,
    ] {
        let covered = match other {
            Workload::ServeBusy => workload.is_serve(),
            _ => other == workload,
        };
        if covered {
            continue;
        }
        let seconds = if other == Workload::ServeBusy {
            0.0
        } else {
            PROBE_SECONDS
        };
        let (m, _) = rec.span("bench.probe", Some(root), None, 1, |id| {
            measure(ctx, other, seconds, Some(rec), Some(id))
        })?;
        tally.merge(&m.tally);
        borrowed.push((other, m));
    }

    Ok(LayerProbes {
        worker_init_ms,
        word1_ms,
        word64_ms,
        encode_us_per_op,
        decode_us_per_op,
        scaling_efficiency,
        borrowed,
        tally,
    })
}

/// Ops/s at 2 threads over twice the ops/s at 1 thread, passes
/// alternating between the two, on the workload's engine: the
/// wavefront schedule for `pipelined_train`, the sliced engine
/// otherwise.
fn scaling(
    ctx: &Ctx,
    workload: Workload,
    probe: &Probe,
    rec: &Recorder,
    root: u64,
    tally: &mut Tally,
) -> Result<f64, String> {
    let pipelined = workload == Workload::PipelinedTrain;
    let population = &probe.population;
    let mut engines = Vec::new();
    for threads in [1, OFFLINE_THREADS] {
        let engine = rec.span(
            "dualrail.driver_new",
            Some(root),
            Some(threads as u64),
            1,
            |_| DualRailInference::new(probe.datapath, &ctx.library, threads),
        );
        engines.push(engine.map_err(|e| e.to_string())?);
    }
    let mut rates = [Samples::default(), Samples::default()];
    let name = if pipelined {
        "dualrail.pipelined_run"
    } else {
        "dualrail.run_sliced"
    };
    for _ in 0..SCALING_PASSES {
        for (engine, rate) in engines.iter().zip(&mut rates) {
            let group = Some(engine.threads() as u64);
            let (outcomes, seconds) = rec.span(name, Some(root), group, 1, |_| {
                let start = Instant::now();
                let run = if pipelined {
                    engine
                        .run_workload_pipelined(population, pipeline_config())
                        .map(|(run, _)| run)
                } else {
                    engine.run_workload_sliced(population)
                };
                (run.map(|r| r.outcomes), start.elapsed().as_secs_f64())
            });
            let outcomes = outcomes.map_err(|e| e.to_string())?;
            tally.attempted += population.len() as u64;
            tally.mismatched += outcomes
                .iter()
                .zip(population.expected())
                .filter(|(a, b)| a != b)
                .count() as u64;
            rate.push(population.len() as f64 / seconds);
        }
    }
    let [mut one, mut two] = rates;
    Ok(two.median() / (2.0 * one.median()))
}
