//! Static verification report for the shipped datapath netlists.
//!
//! Runs the full `tm-lint` pass (structural, dual-rail protocol and
//! timing/hazard families) over the dual-rail inference datapath in
//! both completion schemes, plus the structural family over the
//! single-rail golden netlist, and prints each report.
//!
//! Usage: `cargo run -p tm-async-bench --release --bin lint_report
//! [--json <path>]`
//!
//! With `--json`, a machine-readable array of reports is written to
//! `<path>` (CI uploads it as an artifact).  Exits non-zero if any
//! shipped netlist has error-severity findings.

use celllib::Library;
use datapath::{CompletionScheme, DatapathOptions, DualRailDatapath, SingleRailDatapath};
use tm_async_bench::workloads::standard_config;
use tm_lint::{lint_dual_rail, lint_netlist, LintConfig, LintReport};
use tm_obs::Json;

fn main() {
    let mut args = std::env::args().skip(1);
    let json_path = match args.next().as_deref() {
        Some("--json") => Some(args.next().expect("--json takes a path")),
        Some(other) => Some(other.to_string()),
        None => None,
    };

    let config = standard_config();
    let library = Library::umc_ll();
    let lint_config = LintConfig::default();

    println!(
        "Static QDI verification — {} features, {} clauses/polarity\n",
        config.features(),
        config.clauses_per_polarity()
    );

    let mut reports: Vec<LintReport> = Vec::new();

    let reduced = DualRailDatapath::generate(&config).expect("generate datapath");
    reports.push(lint_dual_rail(reduced.circuit(), &library, &lint_config));

    let mut options = DatapathOptions::paper_defaults();
    options.completion = CompletionScheme::Full;
    let full = DualRailDatapath::generate_with(&config, options).expect("generate datapath");
    reports.push(lint_dual_rail(full.circuit(), &library, &lint_config));

    let single = SingleRailDatapath::generate(&config).expect("generate golden netlist");
    reports.push(lint_netlist(single.netlist()));

    for report in &reports {
        println!("{}", report.render_text());
    }

    if let Some(path) = json_path {
        let doc = Json::array(reports.iter().map(|r| Json::Raw(r.to_json())));
        std::fs::write(&path, doc.to_string()).expect("write JSON report");
        println!("wrote {path}");
    }

    let errors: usize = reports.iter().map(LintReport::error_count).sum();
    if errors > 0 {
        eprintln!("{errors} error-severity finding(s) on shipped netlists");
        std::process::exit(1);
    }
}
