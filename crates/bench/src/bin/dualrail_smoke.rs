//! Verified dual-rail parallel throughput smoke for CI: a small operand
//! stream through the sharded four-phase protocol driver at several
//! thread counts, with every check that guards the `dualrail_parallel_<N>`
//! benchmark rows.
//!
//! Usage: `cargo run -p tm-async-bench --release --bin dualrail_smoke
//! [operands]`
//!
//! Panics (non-zero exit) if any decoded outcome disagrees with the
//! software golden model, if any thread count disagrees with the
//! streamed single contract-mode driver, or if a cycle violates the
//! reset-phase sharding contract.  The 64-wide bit-sliced driver is
//! then run through the same gauntlet: golden-verified outcomes,
//! shard-invariant full runs, and per-lane spacer→valid / `done`
//! latencies bit-identical to the scalar driver.  Last, one long-lived
//! instance answers three rounds of batch-1 and batch-64 calls on both
//! kernels, each bit-identical to the same call on a fresh instance —
//! the check that reusing idle workers across calls changes nothing.

use celllib::Library;
use datapath::{DualRailDatapath, DualRailInference, InferenceWorkload};
use dualrail::ProtocolDriver;
use tm_async_bench::workloads::{standard_config, standard_workload};

fn main() {
    let operands: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
        .max(1);

    println!("Dual-rail parallel smoke ({operands} operands)\n");
    let config = standard_config();
    let standard = standard_workload(operands, 2021);
    let workload = InferenceWorkload::new(
        &config,
        standard.workload.masks().clone(),
        standard.workload.feature_vectors().to_vec(),
    )
    .expect("workload is well-formed");

    let datapath = DualRailDatapath::generate(&config).expect("generation");
    let library = Library::umc_ll();

    // Streamed single contract-mode driver: the sharding reference.
    let mut streamed = ProtocolDriver::new(datapath.circuit(), &library).expect("driver");
    let snapshot = streamed.quiescent_snapshot();
    streamed.enable_reset_contract(snapshot);
    let expected: Vec<_> = workload
        .dual_rail_operands(&datapath)
        .expect("widths")
        .iter()
        .map(|operand| streamed.apply_operand(operand).expect("protocol cycle"))
        .collect();

    // Each thread count runs the scalar driver and then the bit-sliced
    // driver (64 handshake cycles per lane word) on the same workload:
    // both golden-verified, the scalar run bit-identical to the
    // streamed driver, the sliced run bit-identical to the scalar one on
    // every per-lane latency and identical across thread counts.
    let mut sliced_runs = Vec::new();
    for threads in [1, 2] {
        let sim = DualRailInference::new(&datapath, &library, threads).expect("driver");
        let scalar = sim.run_workload(&workload).expect("dual-rail run");
        assert_eq!(
            scalar.outcomes.as_slice(),
            workload.expected(),
            "{threads}-thread outcomes diverged from the golden model"
        );
        assert_eq!(
            scalar.results, expected,
            "{threads}-thread results diverged from the streamed driver"
        );
        let done = scalar
            .done_latency
            .as_ref()
            .expect("completion detection present");
        println!(
            "threads={threads}: {} operands verified; s→v min {:.1} ps, median {:.1} ps, \
             max {:.1} ps; done max {:.1} ps",
            scalar.latency.count(),
            scalar.latency.min_ps(),
            scalar.latency.median_ps(),
            scalar.latency.max_ps(),
            done.max_ps()
        );

        let run = sim
            .run_workload_sliced(&workload)
            .expect("sliced dual-rail run");
        assert_eq!(
            run.outcomes.as_slice(),
            workload.expected(),
            "{threads}-thread sliced outcomes diverged from the golden model"
        );
        assert_eq!(
            run.latency, scalar.latency,
            "{threads}-thread sliced spacer→valid latencies drifted from the scalar driver"
        );
        assert_eq!(
            run.done_latency, scalar.done_latency,
            "{threads}-thread sliced done latencies drifted from the scalar driver"
        );
        println!(
            "sliced threads={threads}: {} operands verified; s→v max {:.1} ps (bit-identical \
             to scalar)",
            run.latency.count(),
            run.latency.max_ps(),
        );
        sliced_runs.push(run);
    }
    assert_eq!(
        sliced_runs[0], sliced_runs[1],
        "sliced runs must be shard-invariant"
    );

    // Repeated calls on one instance reuse the workers earlier calls
    // left idle; every call must equal the same call on a fresh one.
    let masks = workload.masks();
    let features: Vec<Vec<bool>> = workload
        .feature_vectors()
        .iter()
        .cycle()
        .take(64)
        .cloned()
        .collect();
    let session = DualRailInference::new(&datapath, &library, 2).expect("driver");
    for round in 0..3 {
        for batch in [1, 64] {
            let batch = &features[..batch];
            let fresh = DualRailInference::new(&datapath, &library, 2).expect("driver");
            assert_eq!(
                session.run_features(masks, batch).expect("session run"),
                fresh.run_features(masks, batch).expect("fresh run"),
                "round {round}: scalar batch-{} session run drifted from a fresh instance",
                batch.len()
            );
            assert_eq!(
                session
                    .run_features_sliced(masks, batch)
                    .expect("session run"),
                fresh.run_features_sliced(masks, batch).expect("fresh run"),
                "round {round}: sliced batch-{} session run drifted from a fresh instance",
                batch.len()
            );
        }
    }
    println!("repeated calls: 3 rounds of batch-1 and batch-64 bit-identical to fresh instances");

    println!("\nok: outcomes golden-verified, shard-invariant, contract held (scalar + sliced)");
}
