//! Static QDI netlist verifier (`tm-lint`).
//!
//! Every correctness guarantee the runtime offers — the reset-phase
//! contract, illegal-codeword detection, the wavefront-hazard checks —
//! fires *dynamically*, per token.  This crate proves the structural
//! properties those checks rest on **once, statically, per netlist**:
//!
//! * **structural** (`S001`–`S005`) — undriven/floating nets, multiple
//!   drivers, unreachable cells, combinational loops outside sanctioned
//!   state-holding cells, plus a fanout histogram;
//! * **dual-rail protocol** (`D101`–`D104`) — rail pairing, completion
//!   coverage of every observed output, probe isolation from the
//!   completion network, and return-to-zero reachability via Kleene
//!   three-valued evaluation of the netlist under all-spacer inputs;
//! * **timing/hazard** (`T201`–`T203`) — unate cells only
//!   (Requirement 2), consistent transition directions at every join,
//!   and a non-degenerate wavefront separation interval cross-checked
//!   against min/max path-skew bounds from [`sta::ArrivalAnalysis`].
//!
//! Diagnostic codes are stable; ARCHITECTURE.md maps each one to the
//! dynamic check it subsumes.
//!
//! # Entry points
//!
//! * [`lint_dual_rail`] — the full pass over a
//!   [`dualrail::DualRailNetlist`];
//! * [`lint_netlist`] — the structural family over any bare
//!   [`netlist::Netlist`] (single-rail netlists legitimately use XOR,
//!   so the dual-rail and timing families do not apply);
//! * [`lint_program`] — the full pass via a compiled
//!   [`gatesim::EngineProgram`], with compilation-consistency checks;
//! * [`verify_static`] — the cached pass/fail form the pre-flight hook
//!   uses ([`preflight::install`] wires it into every
//!   `ProtocolDriver` construction in the process).
//!
//! # Example
//!
//! ```
//! use celllib::Library;
//! use dualrail::{DualRailNetlist, ReducedCompletion};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dr = DualRailNetlist::new("and_gate");
//! let a = dr.add_dual_input("a");
//! let b = dr.add_dual_input("b");
//! let y = dr.and2("y", a, b)?;
//! dr.add_dual_output("y", y);
//! ReducedCompletion::insert(&mut dr)?;
//!
//! let report = tm_lint::lint_dual_rail(&dr, &Library::umc_ll(), &Default::default());
//! assert!(report.is_clean(), "{}", report.render_text());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analyze;
pub mod mutate;
pub mod preflight;
mod protocol;
pub mod report;
mod structural;
mod timing;

use celllib::Library;
use dualrail::DualRailNetlist;
use gatesim::EngineProgram;
use netlist::{NetId, Netlist};

pub use report::{DiagCode, Diagnostic, Family, LintReport, LintStats, Severity};

/// Tunables for the timing family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LintConfig {
    /// Fractional slack widening the settle bound in the `T203` skew
    /// check, as the wavefront pipeline widens its measured separation
    /// gaps (mirrors `dualrail::PipelineConfig::separation_margin`).
    pub separation_margin: f64,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self {
            separation_margin: 0.10,
        }
    }
}

/// Runs the structural family over a bare netlist.
///
/// Use this for single-rail netlists (the synchronous golden model uses
/// XOR, so the dual-rail and timing families do not apply to it).
#[must_use]
pub fn lint_netlist(nl: &Netlist) -> LintReport {
    let mut report = LintReport::new(nl.name());
    structural::run(nl, &[], &mut report);
    report
}

/// Runs all three analysis families over a dual-rail netlist.
#[must_use]
pub fn lint_dual_rail(dr: &DualRailNetlist, library: &Library, config: &LintConfig) -> LintReport {
    let nl = dr.netlist();
    let mut report = LintReport::new(nl.name());
    let mut observed: Vec<NetId> = dr.observed_output_nets();
    if let Some(done) = dr.done() {
        observed.push(done);
    }
    for (_, signal) in dr.probes() {
        observed.push(signal.positive);
        observed.push(signal.negative);
    }
    structural::run(nl, &observed, &mut report);
    let ctx = analyze::Context::compute(dr);
    protocol::run(dr, &ctx, &mut report);
    timing::run(dr, library, config, &ctx, &mut report);
    report
}

/// Runs the full dual-rail pass through a compiled engine program,
/// first checking that the compilation is consistent with the circuit.
///
/// # Panics
///
/// Panics if `program` was not compiled from this circuit's netlist —
/// the same contract as `ProtocolDriver::from_program`.
#[must_use]
pub fn lint_program(
    dr: &DualRailNetlist,
    program: &EngineProgram<'_>,
    library: &Library,
    config: &LintConfig,
) -> LintReport {
    assert!(
        std::ptr::eq(program.netlist(), dr.netlist()),
        "the engine program must be compiled from this circuit's netlist"
    );
    lint_dual_rail(dr, library, config)
}

/// The cached pass/fail form of [`lint_dual_rail`]: `Err` carries the
/// rendered error-severity findings.  Results are cached per netlist
/// identity (drivers replicated from one `Arc<EngineProgram>` share a
/// netlist, so a sharded run verifies once); see [`preflight`].
///
/// # Errors
///
/// Returns the rendered findings if the report contains any
/// error-severity diagnostic.
pub fn verify_static(dr: &DualRailNetlist) -> Result<(), String> {
    preflight::verify_cached(dr)
}
