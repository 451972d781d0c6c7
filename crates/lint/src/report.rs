//! Machine-readable lint findings: diagnostic codes, severities and the
//! [`LintReport`] container with text and JSON renderings.

use gatesim::tm_obs::Json;
use netlist::{CellId, NetId};

/// How serious a finding is.
///
/// The pre-flight verifier and the CI gate reject on [`Severity::Error`]
/// only; shipped netlists are additionally expected to be free of
/// warnings (`lint_smoke` asserts an empty report).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational observation; never gates anything.
    Info,
    /// Suspicious structure that does not break the protocol by itself.
    Warning,
    /// A proven invariant violation.
    Error,
}

impl Severity {
    /// Stable lower-case name used in JSON output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The analysis family a diagnostic code belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Netlist graph structure (any netlist).
    Structural,
    /// Dual-rail / four-phase protocol invariants.
    DualRail,
    /// Timing and hazard invariants behind the wavefront bounds.
    Timing,
}

impl Family {
    /// Stable lower-case name used in JSON output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Family::Structural => "structural",
            Family::DualRail => "dual-rail",
            Family::Timing => "timing",
        }
    }
}

/// Stable diagnostic codes.
///
/// The `Sxxx`/`Dxxx`/`Txxx` strings are part of the tool's contract:
/// the mutation suite, the CI gate and ARCHITECTURE.md all key on them,
/// so codes are never renumbered — retired codes would be left as gaps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// `S001` — a net with loads or an output-port binding has no driver.
    UndrivenNet,
    /// `S002` — a net drives nothing and is not observed by any port,
    /// probe or completion signal.
    FloatingNet,
    /// `S003` — a cell whose output cone reaches no primary output,
    /// probe or completion signal (dead logic).
    UnreachableCell,
    /// `S004` — a combinational feedback loop (state holding is
    /// sanctioned only inside C-elements and flip-flops).
    CombinationalLoop,
    /// `S005` — more than one driver contends for a net.
    MultiplyDrivenNet,
    /// `D101` — a dual-rail signal's rails alias the same net or the
    /// same driving cell, so one cone drives both rails.
    RailPairing,
    /// `D102` — an observed output rail pair (or 1-of-n wire) is not
    /// covered by the completion tree, or there is no `done` at all.
    CompletionCoverage,
    /// `D103` — a declared probe net feeds the completion network.
    ProbeInCompletion,
    /// `D104` — the circuit does not provably return every observed net
    /// to its spacer level when all inputs are at spacer (Kleene
    /// three-valued evaluation).
    SpacerUnreachable,
    /// `T201` — a non-unate cell (XOR/XNOR) breaks monotonic switching
    /// (the paper's Requirement 2).
    NonUnateCell,
    /// `T202` — a cell joins inputs whose spacer→valid transition
    /// directions conflict under its pin unateness, so its output can
    /// glitch and the wavefront timing bounds do not apply.
    DirectionConflict,
    /// `T203` — the static separation interval the wavefront pipeline
    /// relies on is degenerate (constant outputs / `done`, or an
    /// invalid separation margin), or a join's min/max path skew
    /// exceeds the margin-widened settle bound.
    SeparationHazard,
}

impl DiagCode {
    /// Every code, in report order.
    pub const ALL: [DiagCode; 12] = [
        DiagCode::UndrivenNet,
        DiagCode::FloatingNet,
        DiagCode::UnreachableCell,
        DiagCode::CombinationalLoop,
        DiagCode::MultiplyDrivenNet,
        DiagCode::RailPairing,
        DiagCode::CompletionCoverage,
        DiagCode::ProbeInCompletion,
        DiagCode::SpacerUnreachable,
        DiagCode::NonUnateCell,
        DiagCode::DirectionConflict,
        DiagCode::SeparationHazard,
    ];

    /// The stable code string (`S001` … `T203`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::UndrivenNet => "S001",
            DiagCode::FloatingNet => "S002",
            DiagCode::UnreachableCell => "S003",
            DiagCode::CombinationalLoop => "S004",
            DiagCode::MultiplyDrivenNet => "S005",
            DiagCode::RailPairing => "D101",
            DiagCode::CompletionCoverage => "D102",
            DiagCode::ProbeInCompletion => "D103",
            DiagCode::SpacerUnreachable => "D104",
            DiagCode::NonUnateCell => "T201",
            DiagCode::DirectionConflict => "T202",
            DiagCode::SeparationHazard => "T203",
        }
    }

    /// The analysis family the code belongs to.
    #[must_use]
    pub fn family(self) -> Family {
        match self {
            DiagCode::UndrivenNet
            | DiagCode::FloatingNet
            | DiagCode::UnreachableCell
            | DiagCode::CombinationalLoop
            | DiagCode::MultiplyDrivenNet => Family::Structural,
            DiagCode::RailPairing
            | DiagCode::CompletionCoverage
            | DiagCode::ProbeInCompletion
            | DiagCode::SpacerUnreachable => Family::DualRail,
            DiagCode::NonUnateCell | DiagCode::DirectionConflict | DiagCode::SeparationHazard => {
                Family::Timing
            }
        }
    }

    /// One-line description of the invariant the code checks.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            DiagCode::UndrivenNet => "net with loads or an output port has no driver",
            DiagCode::FloatingNet => "net drives nothing and is observed by nothing",
            DiagCode::UnreachableCell => "cell reaches no output, probe or completion signal",
            DiagCode::CombinationalLoop => "combinational feedback outside state-holding cells",
            DiagCode::MultiplyDrivenNet => "net has more than one driver",
            DiagCode::RailPairing => "dual-rail signal's rails share a net or a driving cell",
            DiagCode::CompletionCoverage => "completion tree does not observe every output",
            DiagCode::ProbeInCompletion => "probe net feeds the completion network",
            DiagCode::SpacerUnreachable => "observed net does not provably return to spacer",
            DiagCode::NonUnateCell => "non-unate cell breaks monotonic switching",
            DiagCode::DirectionConflict => "inputs with conflicting transition directions join",
            DiagCode::SeparationHazard => "wavefront separation interval is degenerate",
        }
    }
}

/// One finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable diagnostic code.
    pub code: DiagCode,
    /// Severity of this particular finding.
    pub severity: Severity,
    /// Human-readable message (already names the nets/cells involved).
    pub message: String,
    /// Nets the finding anchors to.
    pub nets: Vec<NetId>,
    /// Cells the finding anchors to.
    pub cells: Vec<CellId>,
}

/// Aggregate statistics collected while linting (always reported, even
/// on a clean netlist).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LintStats {
    /// Cells in the netlist.
    pub cells: usize,
    /// Nets in the netlist.
    pub nets: usize,
    /// State-holding cells (C-elements and flip-flops).
    pub sequential_cells: usize,
    /// `(fanout, net count)` pairs, ascending by fanout.
    pub fanout_histogram: Vec<(usize, usize)>,
    /// Largest fanout of any net.
    pub max_fanout: usize,
    /// Static settle bound `t_int` in picoseconds (0 when timing was
    /// not analysed).
    pub settle_bound_ps: f64,
    /// Largest min/max arrival skew across any cell's input pins in
    /// picoseconds (0 when timing was not analysed).
    pub max_join_skew_ps: f64,
}

/// The result of one lint pass over one netlist.
#[derive(Clone, Debug, PartialEq)]
pub struct LintReport {
    /// Name of the linted netlist.
    pub target: String,
    /// Codes the pass evaluated (a code can only be trusted absent if
    /// it is listed here — the single-rail entry point skips the
    /// dual-rail and timing families, for example).
    pub codes_checked: Vec<DiagCode>,
    /// Findings, in analysis order.
    pub diagnostics: Vec<Diagnostic>,
    /// Aggregate statistics.
    pub stats: LintStats,
}

impl LintReport {
    pub(crate) fn new(target: impl Into<String>) -> Self {
        Self {
            target: target.into(),
            codes_checked: Vec::new(),
            diagnostics: Vec::new(),
            stats: LintStats::default(),
        }
    }

    pub(crate) fn push(
        &mut self,
        code: DiagCode,
        severity: Severity,
        message: String,
        nets: Vec<NetId>,
        cells: Vec<CellId>,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            message,
            nets,
            cells,
        });
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether the report carries no findings at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any finding carries `code`.
    #[must_use]
    pub fn has_code(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders the findings as one human-readable block.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lint {}: {} error(s), {} warning(s) over {} cells / {} nets \
             ({} codes checked)",
            self.target,
            self.error_count(),
            self.warning_count(),
            self.stats.cells,
            self.stats.nets,
            self.codes_checked.len(),
        );
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "  [{}] {}: {}",
                d.code.as_str(),
                d.severity.as_str(),
                d.message
            );
        }
        out
    }

    /// Renders a one-line summary of the error-severity findings (used
    /// by the pre-flight hook's rejection message).
    #[must_use]
    pub fn render_errors(&self) -> String {
        let msgs: Vec<String> = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| format!("[{}] {}", d.code.as_str(), d.message))
            .collect();
        format!("{}: {}", self.target, msgs.join("; "))
    }

    /// Serialises the report as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let diagnostics = self.diagnostics.iter().map(|d| {
            Json::object([
                ("code", Json::from(d.code.as_str())),
                ("family", Json::from(d.code.family().as_str())),
                ("severity", Json::from(d.severity.as_str())),
                ("message", Json::from(d.message.as_str())),
                ("nets", Json::array(d.nets.iter().map(|n| n.index().into()))),
                (
                    "cells",
                    Json::array(d.cells.iter().map(|c| c.index().into())),
                ),
            ])
        });
        let stats = &self.stats;
        let fanout_histogram = stats
            .fanout_histogram
            .iter()
            .map(|&(fanout, count)| Json::array([fanout.into(), count.into()]));
        Json::object([
            ("target", Json::from(self.target.as_str())),
            ("errors", Json::from(self.error_count())),
            ("warnings", Json::from(self.warning_count())),
            (
                "codes_checked",
                Json::array(self.codes_checked.iter().map(|c| c.as_str().into())),
            ),
            ("diagnostics", Json::array(diagnostics)),
            (
                "stats",
                Json::object([
                    ("cells", Json::from(stats.cells)),
                    ("nets", Json::from(stats.nets)),
                    ("sequential_cells", Json::from(stats.sequential_cells)),
                    ("max_fanout", Json::from(stats.max_fanout)),
                    ("fanout_histogram", Json::array(fanout_histogram)),
                    ("settle_bound_ps", Json::Fixed(stats.settle_bound_ps, 3)),
                    ("max_join_skew_ps", Json::Fixed(stats.max_join_skew_ps, 3)),
                ]),
            ),
        ])
        .to_string()
    }
}
