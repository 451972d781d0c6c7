//! Runs experiment E5 (bulk-inference throughput) and optionally records
//! the numbers as JSON.
//!
//! Usage: `cargo run -p tm-async-bench --release --bin throughput
//! [operands] [json-path]`
//!
//! The combined records at the repository root (`BENCH_*.json`:
//! throughput rows and serving sweep in one document) are written by
//! the `bench_record` bin; this bin records the throughput report
//! alone.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let operands: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4096)
        .max(1);
    let json_path = args.next();

    println!("Experiment E5 — bulk-inference throughput ({operands} operands)\n");
    // 64 streamed operands keep the event-driven row in steady state
    // (one-off simulator construction amortises below 2 % of the row).
    let report = tm_async_bench::throughput::run(operands, 64, 2021);
    print!("{}", report.render());

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json())?;
        println!("\nwrote {path}");
    }
    Ok(())
}
