//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk_sliced|serve_trickle|serve_busy|pipelined_train> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Trains the standard Tsetlin machine from `--seed`, sets the paper's
//! dual-rail datapath up [`workloads::SETUPS`] times, then runs the
//! workload's passes for `--seconds` seconds, checking every decision
//! against the golden model off the clock.  The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.  The exit code is non-zero on any wrong
//! answer or engine failure.
//!
//! `--trace 1` first runs half the time untraced, then half traced:
//! spans around every layer call, engine counters attached, then the
//! layer probes.  It writes the Chrome-trace span file, the counter
//! snapshot and the self-time table under `perfbench/out/`.

mod probes;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use celllib::Library;
use tm_obs::MetricsSnapshot;

use crate::probes::LayerProbes;
use crate::spans::{chrome_trace, self_time_table, Recorder};
use crate::stats::{beyond, highest_supported, label, Tally, P90, P99};
use crate::workloads::{measure, Ctx, Measured, Workload, HELD_OUT_SEED, STREAM_OPERANDS};

const USAGE: &str =
    "usage: perfbench --workload <bulk_sliced|serve_trickle|serve_busy|pipelined_train> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Checked command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u32 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=600"));
                }
                seconds = Some(f64::from(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The contract's result line.
fn result_json(tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// Peak resident set size of this process, MiB, from `VmHWM`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Operands (offline) or requests (serving) behind each sojourn sample.
/// An offline pass submits all its operands at once and returns them
/// together, so each operand's sojourn is its pass's wall time.
fn sojourn_weight(workload: Workload) -> usize {
    if workload.is_serve() {
        1
    } else {
        workload.per_pass()
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order, printed with the
/// report.  The sojourn tail is p90, refused with fewer than ten samples
/// beyond it; not p99, because on a 2-core host the offline workloads'
/// p99 is one of their two slowest passes and does not repeat within a
/// tenth from run to run.
fn end_to_end(m: &mut Measured, workload: Workload) -> Result<Vec<Metric>, String> {
    let weight = sojourn_weight(workload);
    let n = m.sojourn_ms.len() * weight;
    if beyond(n, P90) < stats::MIN_BEYOND {
        return Err(format!("{n} sojourn samples are too few for a p90"));
    }
    let (p50, p90) = (m.sojourn_ms.median(), m.sojourn_ms.at(P90));
    let tail = highest_supported(n).expect("p90 is supported");
    println!("host time:");
    println!(
        "  ops_per_s {:.1} 1/s (median of {} passes)",
        m.ops_per_s.median(),
        m.ops_per_s.len()
    );
    println!(
        "  sojourn p50 {p50:.4} ms, p90 {p90:.4} ms, {} {:.4} ms ({n} samples{}, {} beyond {})",
        label(tail),
        m.sojourn_ms.at(tail),
        if weight > 1 {
            format!(" in {} passes of {weight}", m.sojourn_ms.len())
        } else {
            String::new()
        },
        beyond(n, tail),
        label(tail)
    );
    if workload.is_serve() {
        println!(
            "  arrivals follow the trace on the server's virtual clock, so the generator is never late"
        );
    }
    println!(
        "  setup_s {:.6} s (median of {} set-ups)",
        m.setup.total.median(),
        m.setup.total.len()
    );
    let rss = peak_rss_mib()?;
    println!("  peak_rss_mib {rss:.2} MiB");
    println!("simulated time (exact; repeats at one seed):");
    println!(
        "  sim_latency_avg_ps {} ps, sim_done_avg_ps {} ps, sim_cycle_median_ps {} ps",
        m.sim.latency_avg_ps, m.sim.done_avg_ps, m.sim.cycle_median_ps
    );
    println!(
        "  spacer->valid max {} ps (the critical path; the same at every seed, so not a metric)",
        m.sim.latency_max_ps
    );
    Ok(vec![
        metric("ops_per_s", "1/s", m.ops_per_s.median()),
        metric("sojourn_p50_ms", "ms", p50),
        metric("sojourn_p90_ms", "ms", p90),
        metric("sim_latency_avg_ps", "ps", m.sim.latency_avg_ps),
        metric("sim_done_avg_ps", "ps", m.sim.done_avg_ps),
        metric("sim_cycle_median_ps", "ps", m.sim.cycle_median_ps),
        metric("setup_s", "s", m.setup.total.median()),
        metric("peak_rss_mib", "MiB", rss),
    ])
}

fn print_tally(tally: &Tally) {
    println!(
        "accounting: attempted {}, mismatched {}, engine errors {}, shed {}, expired {}, \
         error_rate {}",
        tally.attempted,
        tally.mismatched,
        tally.engine_errors,
        tally.shed,
        tally.expired,
        tally.error_rate()
    );
}

/// Engine counter summed over the scalar and sliced engines.
fn engine_count(snapshot: &MetricsSnapshot, field: &str) -> f64 {
    (snapshot.counter(&format!("dr.scalar.{field}"))
        + snapshot.counter(&format!("dr.sliced.{field}"))) as f64
}

/// The probe run that measured `layer_workload`'s layers, or `None`
/// when the traced workload's own passes did.
fn borrowed(probes: &mut LayerProbes, layer_workload: Workload) -> Option<&mut Measured> {
    probes
        .borrowed
        .iter_mut()
        .find(|(w, _)| *w == layer_workload)
        .map(|(_, m)| m)
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn per_layer(
    fit_ms: f64,
    m: &mut Measured,
    probes: &mut LayerProbes,
    coverage: f64,
    traced_ops_ratio: f64,
) -> Vec<Metric> {
    let run_sliced_ms = borrowed(probes, Workload::BulkSliced)
        .unwrap_or(&mut *m)
        .layer_call_ms
        .median();
    let pipelined_run_ms = borrowed(probes, Workload::PipelinedTrain)
        .unwrap_or(&mut *m)
        .layer_call_ms
        .median();
    let mut serve = borrowed(probes, Workload::ServeBusy)
        .unwrap_or(&mut *m)
        .serve
        .take()
        .expect("serving figures come from the workload or its probe");
    let (snapshot, ops) = m.counts.take().expect("traced passes record counts");
    let ops = ops.max(1) as f64;
    let popped = engine_count(&snapshot, "events_popped");
    let suppressed = engine_count(&snapshot, "events_suppressed");
    let queued = engine_count(&snapshot, "queue_drain")
        + engine_count(&snapshot, "queue_bucket")
        + engine_count(&snapshot, "queue_overflow");
    let setup = &mut m.setup;
    vec![
        metric("tsetlin.fit_ms", "ms", fit_ms),
        metric("datapath.generate_ms", "ms", setup.generate.median()),
        metric("lint.verify_ms", "ms", setup.lint.median()),
        metric("lint.errors", "count", setup.lint_errors as f64),
        metric("gatesim.compile_ms", "ms", setup.compile.median()),
        metric("dualrail.driver_new_ms", "ms", setup.build.median()),
        metric(
            "dualrail.worker_init_ms",
            "ms",
            probes.worker_init_ms.median(),
        ),
        metric("dualrail.word1_cycle_ms", "ms", probes.word1_ms.median()),
        metric("dualrail.word64_cycle_ms", "ms", probes.word64_ms.median()),
        metric("dualrail.run_sliced_ms", "ms", run_sliced_ms),
        metric("datapath.encode_us_per_op", "us", probes.encode_us_per_op),
        metric("datapath.decode_us_per_op", "us", probes.decode_us_per_op),
        metric("dualrail.pipelined_run_ms", "ms", pipelined_run_ms),
        metric("gatesim.events_popped_per_op", "count", popped / ops),
        metric(
            "gatesim.events_suppressed_per_op",
            "count",
            suppressed / ops,
        ),
        metric(
            "gatesim.events_coalesced_per_op",
            "count",
            engine_count(&snapshot, "events_coalesced") / ops,
        ),
        metric(
            "gatesim.useful_event_ratio",
            "ratio",
            popped / (popped + suppressed).max(1.0),
        ),
        metric(
            "gatesim.queue_bucket_share",
            "ratio",
            engine_count(&snapshot, "queue_bucket") / queued.max(1.0),
        ),
        metric(
            "dualrail.stall_slices",
            "count",
            engine_count(&snapshot, "protocol.stall_slices"),
        ),
        metric(
            "dualrail.spacer_verify_passes",
            "count",
            engine_count(&snapshot, "protocol.spacer_verify_passes"),
        ),
        metric(
            "exec.scaling_efficiency",
            "ratio",
            probes.scaling_efficiency,
        ),
        metric("serve.queue_wait_mean_ms", "ms", serve.queue_ms.mean()),
        metric("serve.queue_wait_p99_ms", "ms", serve.queue_ms.at(P99)),
        metric("serve.batch_mean", "count", serve.batch_mean()),
        metric("serve.batches", "count", serve.batches_per_pass()),
        metric("serve.service_p50_ms", "ms", serve.service_ms.median()),
        metric("serve.service_p99_ms", "ms", serve.service_ms.at(P99)),
        metric("serve.loop_self_ms", "ms", serve.loop_self_ms.median()),
        metric("bench.verify_ms", "ms", m.verify_ms.median()),
        metric("bench.layer_coverage", "ratio", coverage),
        metric("bench.traced_ops_ratio", "ratio", traced_ops_ratio),
    ]
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The traced run: half the time untraced for the overhead baseline,
/// then half traced plus the layer probes.
fn traced_run(ctx: &Ctx, args: &Args, fit_ms: f64) -> Result<(Tally, Vec<Metric>), String> {
    let half = args.seconds / 2.0;
    let (mut base, _) = measure(ctx, args.workload, half, None, None)?;
    let rec = Recorder::new();
    let (mut m, mut probes) = rec.span("bench.run", None, None, 1, |root| {
        let (m, probe) = measure(ctx, args.workload, half, Some(&rec), Some(root))?;
        let probes = probes::run(ctx, args.workload, &probe, &rec, root)?;
        Ok::<_, String>((m, probes))
    })?;
    let spans = rec.spans();
    let table = self_time_table(&spans);
    let wall_ns = spans
        .iter()
        .find(|s| s.name == "bench.run")
        .map(|s| s.end_ns - s.start_ns)
        .expect("root span recorded")
        .max(1);
    let unattributed = table
        .iter()
        .find(|r| r.name == "bench.run")
        .map_or(0, |r| r.self_ns);
    let coverage = 1.0 - unattributed as f64 / wall_ns as f64;

    let mut text = format!(
        "self time per layer, {} traced, {:.1} ms wall:\n",
        args.workload.name(),
        wall_ns as f64 / 1e6
    );
    for row in &table {
        let _ = writeln!(
            text,
            "  {:<28} {:>6} calls {:>12.3} ms {:>6.2} %",
            row.name,
            row.calls,
            row.self_ns as f64 / 1e6,
            100.0 * row.self_ns as f64 / wall_ns as f64
        );
    }
    let _ = writeln!(
        text,
        "layers account for {:.2} % of the traced wall time",
        100.0 * coverage
    );
    print!("{text}");

    println!("untraced half:");
    let untraced = report(&mut base, args.workload)?;
    println!("traced half:");
    let traced = report(&mut m, args.workload)?;
    for (u, t) in untraced.iter().zip(&traced) {
        println!(
            "tracing overhead: {} {} traced vs {} untraced {} ({:+.2} %)",
            t.name,
            t.value,
            u.value,
            t.unit,
            100.0 * (t.value / u.value - 1.0)
        );
    }
    let traced_ops_ratio = traced[0].value / untraced[0].value;

    let (snapshot, _) = m.counts.as_ref().expect("traced passes record counts");
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    for (suffix, body) in [
        ("trace.json", chrome_trace(args.workload.name(), &spans)),
        ("metrics.json", snapshot.to_json()),
        ("selftime.txt", text),
    ] {
        let path = dir.join(format!("{stem}.{suffix}"));
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }

    if let Some(serve) = &mut m.serve {
        println!(
            "serving, traced: queue wait {}; service {}",
            serve.queue_ms.describe("ms"),
            serve.service_ms.describe("ms")
        );
    }
    let mut tally = base.tally;
    tally.merge(&m.tally);
    tally.merge(&probes.tally);
    let metrics = per_layer(fit_ms, &mut m, &mut probes, coverage, traced_ops_ratio);
    println!("per-layer metrics:");
    for metric in &metrics {
        println!("  {} {} {}", metric.name, metric.value, metric.unit);
    }
    Ok((tally, metrics))
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let start = Instant::now();
    let standard = tm_async_bench::standard_workload(STREAM_OPERANDS, args.seed);
    let fit_ms = start.elapsed().as_secs_f64() * 1e3;
    let ctx = Ctx {
        seed: args.seed,
        config: tm_async_bench::standard_config(),
        library: Library::umc_ll(),
        stream: standard.workload,
    };
    println!(
        "workload {} seed {} (held-out seed for claim checks: {HELD_OUT_SEED}), nproc {}, \
         threads {}, {} per pass, {} s, trace {}",
        args.workload.name(),
        args.seed,
        exec::available_parallelism(),
        args.workload.threads(),
        args.workload.per_pass(),
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "machine trained in {fit_ms:.1} ms, test accuracy {:.4}",
        standard.accuracy
    );
    if args.trace {
        return traced_run(&ctx, args, fit_ms);
    }
    let (mut m, _) = measure(&ctx, args.workload, args.seconds, None, None)?;
    let metrics = report(&mut m, args.workload)?;
    Ok((m.tally, metrics))
}

/// Prints a measured run's metadata and end-to-end metrics, and returns
/// the metrics.
fn report(m: &mut Measured, workload: Workload) -> Result<Vec<Metric>, String> {
    let (name, cells) = &m.setup.netlist;
    println!(
        "netlist {name}, {cells} cells; {} passes of {} {}",
        m.passes,
        workload.per_pass(),
        if workload.is_serve() {
            "requests"
        } else {
            "operands"
        }
    );
    if let Some(serve) = &m.serve {
        println!(
            "serving: {} served in {} batches (mean {:.2})",
            serve.served,
            serve.batches,
            serve.batch_mean()
        );
    }
    end_to_end(m, workload)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (tally, metrics) = match run(&args) {
        Ok(result) => result,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    print_tally(&tally);
    match result_json(&tally, &metrics) {
        Ok(line) => println!("{line}"),
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    }
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: wrong answers or engine failures; see the accounting line");
        ExitCode::FAILURE
    }
}
