//! Timing/hazard family (`T201`–`T203`): the static facts behind
//! wavefront pipelining.  Monotonic switching needs unate cells
//! (`T201`) joined consistently (`T202`); separating the wavefronts
//! needs outputs that actually transition, a sane margin, and join
//! skews inside the margin-widened settle bound (`T203`).

use celllib::Library;
use dualrail::unate::check_unate;
use dualrail::DualRailNetlist;
use netlist::{CellKind, NetDriver, Netlist, Unateness};
use sta::ArrivalAnalysis;

use crate::analyze::Context;
use crate::report::{DiagCode, LintReport, Severity};
use crate::LintConfig;

pub(crate) fn run(
    dr: &DualRailNetlist,
    library: &Library,
    config: &LintConfig,
    ctx: &Context,
    report: &mut LintReport,
) {
    report.codes_checked.extend([
        DiagCode::NonUnateCell,
        DiagCode::DirectionConflict,
        DiagCode::SeparationHazard,
    ]);
    non_unate(dr.netlist(), report);
    direction_conflicts(dr.netlist(), ctx, report);
    separation(dr, library, config, ctx, report);
}

fn non_unate(nl: &Netlist, report: &mut LintReport) {
    if let Err(violations) = check_unate(nl) {
        for v in violations {
            report.push(
                DiagCode::NonUnateCell,
                Severity::Error,
                format!(
                    "cell {:?} ({}) is not unate: monotonic spacer→valid switching \
                     (Requirement 2) does not hold through it",
                    v.cell_name, v.kind,
                ),
                vec![],
                vec![v.cell],
            );
        }
    }
}

/// A net whose spacer level is 0 can only rise during spacer→valid; one
/// at 1 can only fall.  Through a positive-unate pin the output moves
/// with the input, through a negative-unate pin against it.  If two
/// pins of one cell imply *opposite* output movements, the output can
/// glitch mid-phase — exactly the hazard the wavefront bounds assume
/// away.  Structurally constant nets never move and are skipped.
fn direction_conflicts(nl: &Netlist, ctx: &Context, report: &mut LintReport) {
    if ctx.topo.is_none() {
        return;
    }
    for (cell_id, cell) in nl.cells() {
        if cell.kind() == CellKind::Dff {
            continue;
        }
        if ctx.constant[cell.output().index()].is_some() {
            continue;
        }
        let mut rise = None;
        let mut fall = None;
        for (pin, &input) in cell.inputs().iter().enumerate() {
            if ctx.constant[input.index()].is_some() {
                continue;
            }
            let Some(level) = ctx.spacer[input.index()] else {
                continue; // D104 reports unprovable spacer values.
            };
            let input_rises = !level;
            let implied_rise = match cell.kind().unateness(pin) {
                Unateness::Positive => input_rises,
                Unateness::Negative => !input_rises,
                Unateness::NonUnate => continue, // T201 reports the cell.
            };
            if implied_rise {
                rise = Some(input);
            } else {
                fall = Some(input);
            }
        }
        if let (Some(r), Some(f)) = (rise, fall) {
            report.push(
                DiagCode::DirectionConflict,
                Severity::Error,
                format!(
                    "cell {:?} ({}) joins conflicting transition directions: net {:?} \
                     drives its output up while net {:?} drives it down in the same \
                     phase — the output can glitch",
                    cell.name(),
                    cell.kind(),
                    nl.net(r).name(),
                    nl.net(f).name(),
                ),
                vec![r, f],
                vec![cell_id],
            );
        }
    }
}

fn separation(
    dr: &DualRailNetlist,
    library: &Library,
    config: &LintConfig,
    ctx: &Context,
    report: &mut LintReport,
) {
    let margin = config.separation_margin;
    if !margin.is_finite() || margin < 0.0 {
        report.push(
            DiagCode::SeparationHazard,
            Severity::Error,
            format!(
                "separation margin {margin} is not a finite non-negative fraction; \
                 the wavefront injection interval is undefined"
            ),
            vec![],
            vec![],
        );
        return;
    }
    if ctx.topo.is_none() {
        return;
    }
    let nl = dr.netlist();

    // Outputs (and `done`) that can never transition give the wavefront
    // schedule a zero-width observation window: completion would never
    // acknowledge a token, and the pipelined drivers' separation bounds
    // are computed over an empty transition set.
    let mut flag_constant = |name: &str, nets: &[netlist::NetId], what: &str| {
        if !nets.is_empty() && nets.iter().all(|n| ctx.constant[n.index()].is_some()) {
            report.push(
                DiagCode::SeparationHazard,
                Severity::Error,
                format!(
                    "{what} {name:?} is structurally constant: it never transitions, \
                     so completion and the wavefront separation interval are undefined"
                ),
                nets.to_vec(),
                vec![],
            );
        }
    };
    for (name, signal) in dr.dual_outputs() {
        flag_constant(name, &[signal.positive, signal.negative], "output");
    }
    for (name, wires) in dr.one_of_n_outputs() {
        flag_constant(name, wires, "1-of-n output");
    }
    if let Some(done) = dr.done() {
        if ctx.constant[done.index()].is_some() {
            report.push(
                DiagCode::SeparationHazard,
                Severity::Error,
                "completion signal `done` is structurally constant and can never \
                 acknowledge a token"
                    .to_string(),
                vec![done],
                vec![],
            );
        }
    }

    // Min/max arrival cross-check: the margin-widened settle bound
    // must cover the worst min/max path
    // skew joining at any cell, or a second token's fastest edge could
    // reach a join before the first token's slowest edge has cleared.
    let Ok(arrival) = ArrivalAnalysis::compute(nl, library) else {
        return; // S004 reported the cycle.
    };
    let mut earliest: Vec<f64> = vec![f64::INFINITY; nl.net_count()];
    for (id, net) in nl.nets() {
        if matches!(net.driver(), NetDriver::None | NetDriver::PrimaryInput) {
            earliest[id.index()] = 0.0;
        }
    }
    if let Some(topo) = &ctx.topo {
        for &cell_id in topo {
            let cell = nl.cell(cell_id);
            if cell.kind() == CellKind::Dff {
                earliest[cell.output().index()] = 0.0;
                continue;
            }
            let delay = library.cell_delay(cell.kind(), nl.net(cell.output()).fanout().max(1));
            let min_in = if cell.inputs().is_empty() {
                0.0
            } else {
                cell.inputs()
                    .iter()
                    .map(|n| earliest[n.index()])
                    .fold(f64::INFINITY, f64::min)
            };
            earliest[cell.output().index()] = min_in + delay;
        }
    }
    let settle_bound = arrival.max_internal_ps();
    let interval = (1.0 + margin) * settle_bound;
    let mut max_skew = 0.0f64;
    for (cell_id, cell) in nl.cells() {
        if cell.inputs().len() < 2 {
            continue;
        }
        let latest_in = cell
            .inputs()
            .iter()
            .map(|n| arrival.arrival_ps(*n))
            .fold(0.0f64, f64::max);
        let earliest_in = cell
            .inputs()
            .iter()
            .map(|n| earliest[n.index()])
            .fold(f64::INFINITY, f64::min);
        if !earliest_in.is_finite() {
            continue;
        }
        let skew = (latest_in - earliest_in).max(0.0);
        max_skew = max_skew.max(skew);
        if skew > interval {
            report.push(
                DiagCode::SeparationHazard,
                Severity::Error,
                format!(
                    "cell {:?} joins paths with {skew:.1} ps min/max skew, beyond the \
                     margin-widened settle bound {interval:.1} ps (margin {margin}): \
                     a pipelined wavefront can overtake the previous token here",
                    cell.name(),
                ),
                vec![],
                vec![cell_id],
            );
        }
    }
    report.stats.settle_bound_ps = settle_bound;
    report.stats.max_join_skew_ps = max_skew;
}
