//! Runs experiment E6 (serving saturation sweep) and optionally records
//! the numbers as JSON.
//!
//! Usage: `cargo run -p tm-async-bench --release --bin serve_sweep
//! [requests] [json-path]`
//!
//! The combined records at the repository root (`BENCH_*.json`:
//! throughput rows and serving sweep in one document) are written by
//! the `bench_record` bin; this bin records the sweep alone.
//!
//! Every served outcome is verified against the workload's golden
//! outcome inside the serving runtime before its timing is accepted.
//! (The deterministic zero-shed-below-saturation assertion lives in
//! the `serve_smoke` CI gate, which uses a fixed service model.)

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let requests: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2048)
        .max(64);
    let json_path = args.next();

    println!(
        "Experiment E6 — serving saturation sweep ({requests} requests per open-loop point)\n"
    );
    let report = tm_async_bench::serving::run(requests, 2021);
    print!("{}", report.render());

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json())?;
        println!("\nwrote {path}");
    }
    Ok(())
}
