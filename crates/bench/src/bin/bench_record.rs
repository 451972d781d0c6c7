//! Records the combined benchmark file for the 64-wide bit-sliced
//! engines: the bulk-inference throughput comparison (experiment E5,
//! including the `event_sliced_<N>` / `dualrail_sliced_<N>` rows and
//! their speedups over the scalar event rows) and the serving
//! saturation sweep (experiment E6, including the `event_sliced` and
//! `dualrail_sliced` backends) in one JSON document, together with the
//! observability capture (PR 10): an engine metrics snapshot embedded
//! in the report's `meta`, a four-phase handshake VCD and a serving
//! Chrome trace written next to the report.
//!
//! Usage: `cargo run -p tm-async-bench --release --bin bench_record
//! [operands] [requests] [json-path]`
//!
//! The recorded comparison at the repository root is regenerated with
//! `cargo run -p tm-async-bench --release --bin bench_record -- 4096
//! 2048 BENCH_PR10.json` (which also writes `BENCH_PR10.vcd` and
//! `BENCH_PR10.trace.json`).

/// Operands for the (untimed) observability capture pass: enough to
/// put every engine family in steady state and spill the sliced
/// engines into a second 64-lane word, cheap enough not to noticeably
/// extend a recorded run.
const OBS_OPERANDS: usize = 96;

/// Requests for the captured serving trace — a short session whose
/// Chrome trace stays readable in a viewer.
const OBS_REQUESTS: usize = 256;

use tm_obs::Json;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let operands: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4096)
        .max(1);
    let requests: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2048)
        .max(64);
    let json_path = args.next();

    println!("Experiment E5 — bulk-inference throughput ({operands} operands)\n");
    // 64 streamed operands keep the event-driven rows in steady state
    // (one-off simulator construction amortises below 2 % of the row).
    let throughput = tm_async_bench::throughput::run(operands, 64, 2021);
    print!("{}", throughput.render());

    println!(
        "\nExperiment E6 — serving saturation sweep ({requests} requests per open-loop point)\n"
    );
    let serving = tm_async_bench::serving::run(requests, 2021);
    print!("{}", serving.render());

    if let Some(path) = json_path {
        // Run metadata so a recorded comparison is reproducible: the
        // bit-sliced lane width, the host parallelism the sharded rows
        // scaled across, the simulator's per-phase event watchdog, the
        // static-verification verdict for the measured netlist (a
        // recorded run over a netlist that fails the verifier is not
        // comparable with one that passes), and the engine metrics
        // snapshot from a separate instrumented capture pass — the
        // timed rows above run uninstrumented so the recorded numbers
        // stay honest.
        let datapath =
            datapath::DualRailDatapath::generate(&tm_async_bench::workloads::standard_config())?;
        let lint = tm_lint::lint_dual_rail(
            datapath.circuit(),
            &celllib::Library::umc_ll(),
            &tm_lint::LintConfig::default(),
        );
        println!("\ncapturing observability artifacts ({OBS_OPERANDS} operands, {OBS_REQUESTS} requests)");
        let obs = tm_async_bench::obs_capture::capture(OBS_OPERANDS, OBS_REQUESTS, 2021);
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let lint = Json::object([
            ("codes_checked", Json::from(lint.codes_checked.len())),
            ("findings", Json::from(lint.diagnostics.len())),
            ("errors", Json::from(lint.error_count())),
        ]);
        let meta = Json::object([
            ("lanes", Json::from(netlist::LANES)),
            ("available_threads", Json::from(threads)),
            (
                "event_limit",
                gatesim::Simulator::DEFAULT_EVENT_LIMIT.into(),
            ),
            ("lint", lint),
            ("metrics", Json::Raw(obs.snapshot.to_json())),
        ]);
        let combined = Json::object([
            ("meta", meta),
            ("throughput", Json::Raw(throughput.to_json())),
            ("serve_sweep", Json::Raw(serving.to_json())),
        ]);
        std::fs::write(&path, combined.to_string())?;
        println!("wrote {path}");

        let stem = path.strip_suffix(".json").unwrap_or(&path);
        let vcd_path = format!("{stem}.vcd");
        std::fs::write(&vcd_path, &obs.vcd)?;
        println!("wrote {vcd_path}");
        let trace_path = format!("{stem}.trace.json");
        std::fs::write(&trace_path, &obs.serve_trace_json)?;
        println!("wrote {trace_path}");
    }
    Ok(())
}
