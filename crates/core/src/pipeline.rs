//! Wavefront-pipelined four-phase protocol drivers: the spacer wave of
//! operand `k` chases its data wave through the combinational cloud, and
//! operand `k+1` is injected as soon as the separation bounds and the
//! input-stage acknowledge allow — instead of waiting for the global
//! `done` round-trip.
//!
//! # Why the serial driver leaves throughput on the table
//!
//! The unpipelined [`ProtocolDriver`] serialises completely: inject a
//! valid codeword, wait for `done` to rise, drive the spacer, wait for
//! `done` to fall, repeat.  Its cycle time is two full traversals of
//! the datapath **plus** two traversals of the completion tree.  But
//! four-phase dual-rail signalling only requires that consecutive phase
//! *wavefronts* never interact on any one cell — the cloud itself can
//! hold several wavefronts at different depths concurrently, which is
//! the classic wavefront-pipelining observation.  The injection
//! interval then shrinks from a full round-trip to the sum of two
//! *local* separation gaps.
//!
//! # Profile-guided scheduling (the scalar driver)
//!
//! Static separation bounds must pair the *latest* possible activity
//! of one token against the *earliest* possible activity of the next,
//! over all operand pairs.  On datapaths whose final decision gates
//! have a wide arrival spread (a majority-vote comparator does), that
//! pessimism eats most of the pipelining headroom.  The scalar
//! [`PipelinedProtocolDriver`] therefore runs every train twice:
//!
//! 1. **Profile pass** — each token runs the exact contract-mode
//!    serial cycle while the driver records every net's measured rise
//!    time (relative to the injection edge) and fall time (relative to
//!    the spacer edge).  This pass *is* the serial protocol: it fixes
//!    the decoded outcomes and the serial latency figures, and fails
//!    with the serial driver's own typed errors.
//! 2. **Wavefront replay** — from the measured profiles the driver
//!    computes, per consecutive token pair, the smallest separation
//!    gaps such that at *every cell* the spacer wave of token `k`
//!    arrives only after the cell's token-`k` rise activity ended
//!    (`g₁ₖ`) and token `k+1`'s data wave arrives only after the
//!    latest pending fall activity drained (`g₂ₖ`, tracked per cell
//!    across tokens).  Token `k` is injected at `A_k`, its spacer
//!    driven at `B_k = A_k + g₁ₖ`, and the next token injected at
//!    `A_{k+1} = B_k + g₂ₖ` (each gap widened by the configured margin
//!    plus a fixed slice-separation pad).  The train then replays
//!    overlapped at that schedule.
//!
//! Because the gaps guarantee strict per-cell wave ordering, the
//! replayed trajectory is the *superposition of the profiled serial
//! trajectories*, each shifted to its schedule slot — and the driver
//! **checks** that claim: every watched net's replayed transition
//! stream is matched event-by-event (time and level) against the
//! schedule-shifted profile.  A missing edge, a surplus edge, or an
//! edge at the wrong time or level is a typed
//! [`DualRailError::ProtocolViolation`] — a wavefront hazard can abort
//! a train but never silently alter a decoded outcome, because decoded
//! outcomes come from the serial profile and the replay only
//! corroborates it.  Since the profile constraints cover the
//! completion network too, `done` pulses exactly once per token at
//! every occupancy and per-token `done` latency is always reported.
//! The schedule is a pure function of the train's operands, keeping
//! sharded runs bit-identical at any thread count.  Injection is
//! additionally gated on the dynamic input-stage acknowledge (instant
//! when fault-free; under faults the train parks there until the
//! watchdog trips).
//!
//! # The static wavefront schedule (the sliced driver)
//!
//! The 64-lane word driver cannot profile per-lane first-change times
//! (lanes share one event queue), so it schedules whole words with
//! *static* bounds from [`WavefrontTiming`]:
//!
//! * **settle bound** — the maximum arrival time over every net
//!   ([`sta::ArrivalAnalysis`]);
//! * **per-net first-change times** `er(n)` — an exact subset-
//!   enumeration DP for the earliest time net `n` can first leave its
//!   spacer level after a valid edge at the inputs;
//! * **rise gap** `g₂` — the maximum over cells of
//!   `latest(output) − earliest(any input)`;
//! * **spacer gap** `g₁` — the smallest valid→spacer edge offset
//!   (found by bisection over a fall-propagation DP, with C-elements
//!   modelled as last-input-wins) such that every cell finishes its
//!   rise response before the return-to-zero wave first touches it.
//!
//! At [`Occupancy::Two`] the gaps constrain every cell; at
//! [`Occupancy::Max`] they constrain the **datapath cone** only (the
//! completion network is observer logic, so its `done` pulses may
//! merge between tokens — which is why per-token `done` latency is
//! unavailable there, and why real wavefront-pipelined silicon uses
//! per-stage completion).  Decoding uses the recorded transition
//! stream: each departure from the spacer level is attributed to the
//! unique injection window `[A_k + er(n), A_k + lf(n)]` it falls into,
//! the following return-to-zero belongs to the same token, and any
//! transition outside every window, double activation, or missing or
//! surplus `done` edge is a typed violation.  A train-level
//! transition-count audit (each observed rail switches exactly twice
//! per token that activated it) cross-checks the attribution against
//! the simulator's own activity counters in both drivers.

use std::collections::HashMap;
use std::sync::Arc;

use celllib::Library;
use gatesim::{Logic, Simulator, SlicedSimulator, StepOutcome};
use netlist::{topological_order, CellKind, NetId, NetlistError, LANES};
use sta::ArrivalAnalysis;

use crate::parallel::{per_operand, WorkerDriver};
use crate::protocol::ProtocolDriver;
use crate::sliced::SlicedProtocolDriver;
use crate::{DualRailError, DualRailNetlist, DualRailValue, OneOfNValue, OperandResult};

/// Slack added to window comparisons to absorb float rounding in the
/// event times (delays accumulate in different association orders than
/// the static bounds).
const WINDOW_EPS_PS: f64 = 1e-6;

/// Fixed pad added to every measured separation gap so two wavefronts
/// never share a simulator time slice at any cell: a merged slice would
/// re-associate transitions (a falling and a rising edge meeting at one
/// gate cancel instead of toggling twice) and break the serial-identity
/// argument even when the measured gap is exactly zero.
const GAP_PAD_PS: f64 = 1.0;

/// How many tokens the driver keeps in flight.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Occupancy {
    /// Serial operation: each token runs a complete four-phase cycle
    /// before the next is injected.  The driver delegates to the
    /// contract-mode [`ProtocolDriver::apply_operand`] path, so results
    /// are bit-identical to the unpipelined engines by construction.
    One,
    /// At most two tokens in flight: a data wave and its predecessor's
    /// return-to-zero wave overlap, but each next injection waits for
    /// the token before last to drain completely.  The scalar driver
    /// enforces the cap on its measured schedule; the sliced driver
    /// widens the static injection interval to half the single-token
    /// span `g₁ + settle`.  Completion stays token-resolved in both.
    #[default]
    Two,
    /// As deep as the separation constraints allow.  The scalar driver
    /// injects at the measured per-token-pair gaps, which cover every
    /// cell including the completion network, so `done` stays
    /// token-resolved even here.  The sliced driver injects at the
    /// static interval `g₁ + g₂` computed over the **datapath cone**
    /// only, leaving the completion network's observer cone
    /// unconstrained: a single global `done` cannot token-resolve a
    /// multi-token word train (which is why genuinely
    /// wavefront-pipelined silicon uses per-stage completion), so its
    /// `done` pulses may merge, [`OperandResult::done_latency_ps`] is
    /// `None`, and correctness rests on the injection-window
    /// attribution plus the train-level transition-count audit.
    Max,
}

/// Tuning knobs for the wavefront-pipelined drivers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelineConfig {
    /// Tokens kept in flight (see [`Occupancy`]).
    pub occupancy: Occupancy,
    /// Tokens per train for the scalar driver; **words** per train for
    /// the sliced driver.  A train shares in-flight circuit state, so
    /// it is the unit of sharding and of the transition-count audit.
    pub train_length: usize,
    /// Fractional safety margin applied to the static scheduling
    /// bounds (the settle bound and both separation gaps).
    pub separation_margin: f64,
    /// **Test hook.** When `false`, the driver never drives the spacer
    /// phase and injects each next token directly on top of the
    /// previous data wave — the premature-injection hazard the
    /// injection gating exists to prevent.  The stale rails then hold,
    /// producing forbidden codewords and missing transitions that
    /// surface as typed errors, never as a wrong decoded outcome.
    pub gate_injection: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            occupancy: Occupancy::Two,
            train_length: 16,
            separation_margin: 0.10,
            gate_injection: true,
        }
    }
}

/// The static timing bounds behind the wavefront schedule, computed
/// once per circuit and shared (cheaply cloned) by every worker.
#[derive(Clone, Debug, PartialEq)]
pub struct WavefrontTiming {
    /// Maximum arrival time over every net, in picoseconds (margin not
    /// yet applied).
    max_internal_ps: f64,
    /// Raw spacer→valid separation `g₂` over **every** cell: max of
    /// `latest(output) − earliest(any input)`, clamped at zero.  Used
    /// at [`Occupancy::Two`], where `done` stays token-resolved.
    rise_gap_raw_ps: f64,
    /// Raw valid→spacer separation `g₁` over every cell, from the
    /// fall-propagation bisection.
    fall_gap_raw_ps: f64,
    /// Raw `g₂` over the datapath cone only (cells whose output cone
    /// reaches a decoded output or probe; the completion network's
    /// observer cone is left unconstrained).  Used at
    /// [`Occupancy::Max`], where `done` pulses may merge.
    rise_gap_deep_raw_ps: f64,
    /// Raw `g₁` over the datapath cone only.
    fall_gap_deep_raw_ps: f64,
    /// Earliest first change per net after a phase edge at the primary
    /// inputs (infinity = never changes).
    earliest_ps: Vec<f64>,
    /// Latest change per net (the arrival bound).
    latest_ps: Vec<f64>,
    /// Outputs of the input-stage cells (cells all of whose inputs are
    /// primary inputs — the C-element latch layer on latched circuits),
    /// whose return to the quiescent state is the dynamic injection
    /// acknowledge.
    stage_nets: Vec<NetId>,
}

impl WavefrontTiming {
    /// Runs the static analyses over `circuit` at `library`'s delays:
    /// a max-arrival pass ([`ArrivalAnalysis`]), an exact
    /// earliest-first-change pass over the settled `spacer` state, and
    /// a bisection for the valid→spacer gap.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::Timing`] if timing analysis fails and
    /// [`DualRailError::Netlist`] if the netlist has a combinational
    /// cycle.
    #[allow(clippy::too_many_lines)]
    pub fn compute(
        circuit: &DualRailNetlist,
        library: &Library,
        spacer: &[Logic],
    ) -> Result<Self, DualRailError> {
        let nl = circuit.netlist();
        let analysis = ArrivalAnalysis::compute(nl, library)?;
        let order = topological_order(nl).map_err(|e| NetlistError::CombinationalCycle(e.net))?;
        let latest: Vec<f64> = (0..nl.net_count())
            .map(|i| analysis.arrival_ps(NetId::from_index(i)))
            .collect();

        // Earliest first change after a phase edge at the primary
        // inputs; infinity = "never changes" (tie cells, nets behind
        // flip-flops).
        let mut earliest = vec![f64::INFINITY; nl.net_count()];
        for net in nl.primary_inputs() {
            earliest[net.index()] = 0.0;
        }
        for &cid in &order {
            let cell = nl.cell(cid);
            let kind = cell.kind();
            let inputs = cell.inputs();
            if inputs.is_empty() || kind == CellKind::Dff {
                continue;
            }
            let out = cell.output();
            let delay = library.cell_delay(kind, nl.net(out).fanout().max(1));
            let to_bool = |v: Logic| match v {
                Logic::Zero => Some(false),
                Logic::One => Some(true),
                Logic::Unknown => None,
            };
            let spacer_in: Option<Vec<bool>> =
                inputs.iter().map(|&n| to_bool(spacer[n.index()])).collect();
            let spacer_out = to_bool(spacer[out.index()]);
            let best = match (spacer_in, spacer_out) {
                (Some(base), Some(quiet)) => {
                    // Exact: try every non-empty input subset (<= 5
                    // inputs in the library, so <= 31 subsets).
                    let mut best = f64::INFINITY;
                    for subset in 1u32..(1 << inputs.len()) {
                        let flipped: Vec<bool> = base
                            .iter()
                            .enumerate()
                            .map(|(i, &b)| if subset >> i & 1 == 1 { !b } else { b })
                            .collect();
                        if kind.eval(&flipped, Some(quiet)) == quiet {
                            continue;
                        }
                        let ready = (0..inputs.len())
                            .filter(|&i| subset >> i & 1 == 1)
                            .map(|i| earliest[inputs[i].index()])
                            .fold(f64::NEG_INFINITY, f64::max);
                        best = best.min(ready + delay);
                    }
                    best
                }
                // An X in the settled state: fall back to the
                // conservative single-input bound.
                _ => {
                    inputs
                        .iter()
                        .map(|&n| earliest[n.index()])
                        .fold(f64::INFINITY, f64::min)
                        + delay
                }
            };
            let slot = &mut earliest[out.index()];
            *slot = slot.min(best);
        }

        // The datapath cone: nets that (transitively) feed a decoded
        // output or probe.  Everything else — in practice the
        // per-output OR gates and the C-element completion tree behind
        // `done` — is observer logic: it reads the datapath but feeds
        // nothing the decode depends on, so [`Occupancy::Max`] leaves
        // it unconstrained and lets its pulses merge.
        let mut in_cone = vec![false; nl.net_count()];
        for &net in &circuit.observed_output_nets() {
            in_cone[net.index()] = true;
        }
        for (_, signal) in circuit.probes() {
            in_cone[signal.positive.index()] = true;
            in_cone[signal.negative.index()] = true;
        }
        for &cid in order.iter().rev() {
            let cell = nl.cell(cid);
            if in_cone[cell.output().index()] {
                for &input in cell.inputs() {
                    in_cone[input.index()] = true;
                }
            }
        }

        // Rise gap g₂: the previous (spacer) wave must have drained
        // from a cell's output before the next (valid) wave can reach
        // any of its inputs — over every cell for the strict gap, over
        // the datapath cone for the deep gap.
        let mut rise_gap = 0.0f64;
        let mut rise_gap_deep = 0.0f64;
        for (_, cell) in nl.cells() {
            if cell.inputs().is_empty() || cell.kind() == CellKind::Dff {
                continue;
            }
            let latest_out = latest[cell.output().index()];
            let earliest_in = cell
                .inputs()
                .iter()
                .map(|&n| earliest[n.index()])
                .fold(f64::INFINITY, f64::min);
            if earliest_in.is_finite() {
                rise_gap = rise_gap.max(latest_out - earliest_in);
                if in_cone[cell.output().index()] {
                    rise_gap_deep = rise_gap_deep.max(latest_out - earliest_in);
                }
            }
        }

        // Spacer gap g₁: the smallest valid→spacer offset such that
        // the return-to-zero wave first touches every cell only after
        // the cell's rise response has fully settled.  Falls propagate
        // along the fastest sensitised path (min over inputs) except
        // through C-elements, which fall only once their *last* input
        // has fallen; no net can fall before it first rose.
        let feasible = |gap: f64, deep_only: bool| -> bool {
            let mut fall = vec![f64::INFINITY; nl.net_count()];
            for net in nl.primary_inputs() {
                fall[net.index()] = gap;
            }
            for &cid in &order {
                let cell = nl.cell(cid);
                let inputs = cell.inputs();
                if inputs.is_empty() || cell.kind() == CellKind::Dff {
                    continue;
                }
                let out = cell.output();
                let delay = library.cell_delay(cell.kind(), nl.net(out).fanout().max(1));
                let combine = match cell.kind() {
                    CellKind::CElement2 | CellKind::CElement3 => inputs
                        .iter()
                        .map(|&n| fall[n.index()])
                        .fold(f64::NEG_INFINITY, f64::max),
                    _ => inputs
                        .iter()
                        .map(|&n| fall[n.index()])
                        .fold(f64::INFINITY, f64::min),
                };
                let bound = (combine + delay).max(earliest[out.index()]);
                let slot = &mut fall[out.index()];
                *slot = slot.min(bound);
            }
            nl.cells().all(|(_, cell)| {
                if cell.inputs().is_empty() || cell.kind() == CellKind::Dff {
                    return true;
                }
                if deep_only && !in_cone[cell.output().index()] {
                    return true;
                }
                let need = latest[cell.output().index()];
                let first_fall = cell
                    .inputs()
                    .iter()
                    .map(|&n| fall[n.index()])
                    .fold(f64::INFINITY, f64::min);
                first_fall + 1e-9 >= need
            })
        };
        let bisect = |deep_only: bool| -> f64 {
            if feasible(0.0, deep_only) {
                return 0.0;
            }
            // The settle bound is always feasible; bisect down from it.
            let (mut lo, mut hi) = (0.0f64, analysis.max_internal_ps());
            for _ in 0..60 {
                let mid = f64::midpoint(lo, hi);
                if feasible(mid, deep_only) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        };
        let fall_gap = bisect(false);
        let fall_gap_deep = bisect(true);

        let stage_nets = nl
            .cells()
            .filter(|(_, c)| {
                !c.inputs().is_empty() && c.inputs().iter().all(|&n| nl.is_primary_input(n))
            })
            .map(|(_, c)| c.output())
            .collect();

        Ok(Self {
            max_internal_ps: analysis.max_internal_ps(),
            rise_gap_raw_ps: rise_gap.max(0.0),
            fall_gap_raw_ps: fall_gap,
            rise_gap_deep_raw_ps: rise_gap_deep.max(0.0),
            fall_gap_deep_raw_ps: fall_gap_deep,
            earliest_ps: earliest,
            latest_ps: latest,
            stage_nets,
        })
    }

    /// Upper bound on when a single phase edge stops propagating,
    /// with the safety margin applied.
    #[must_use]
    pub fn settle_bound_ps(&self, margin: f64) -> f64 {
        self.max_internal_ps * (1.0 + margin)
    }

    /// The valid→spacer separation `g₁` at `occupancy`, with the
    /// margin applied: the spacer edge of a token trails its data edge
    /// by this offset.  [`Occupancy::Max`] constrains the datapath
    /// cone only; the other depths constrain every cell.
    #[must_use]
    pub fn spacer_gap_ps(&self, margin: f64, occupancy: Occupancy) -> f64 {
        let raw = match occupancy {
            Occupancy::Max => self.fall_gap_deep_raw_ps,
            _ => self.fall_gap_raw_ps,
        };
        raw * (1.0 + margin)
    }

    /// The spacer→valid separation `g₂` at `occupancy`, with the
    /// margin applied: the next token's data edge trails this token's
    /// spacer edge by at least this offset.
    #[must_use]
    pub fn rise_gap_ps(&self, margin: f64, occupancy: Occupancy) -> f64 {
        let raw = match occupancy {
            Occupancy::Max => self.rise_gap_deep_raw_ps,
            _ => self.rise_gap_raw_ps,
        };
        raw * (1.0 + margin)
    }

    /// The minimum injection-to-injection interval `g₁ + g₂` at full
    /// depth — the pipelined cycle-time bound at [`Occupancy::Max`]
    /// that the benchmarks report against the serial four-phase cycle.
    #[must_use]
    pub fn min_interval_ps(&self, margin: f64) -> f64 {
        self.spacer_gap_ps(margin, Occupancy::Max) + self.rise_gap_ps(margin, Occupancy::Max)
    }

    /// The scheduled injection interval at `occupancy`: the depth's
    /// minimum `g₁ + g₂`, widened as needed so no more than the
    /// configured number of tokens is in flight at once.
    #[must_use]
    pub fn injection_interval_ps(&self, margin: f64, occupancy: Occupancy) -> f64 {
        let span = self.spacer_gap_ps(margin, occupancy) + self.settle_bound_ps(margin);
        match occupancy {
            Occupancy::One => span,
            Occupancy::Two => {
                let min =
                    self.spacer_gap_ps(margin, occupancy) + self.rise_gap_ps(margin, occupancy);
                min.max(span / 2.0)
            }
            Occupancy::Max => self.min_interval_ps(margin),
        }
    }

    /// The number of tokens actually in flight under the scheduled
    /// interval at `occupancy` (a token occupies the circuit from its
    /// injection until its spacer wave has settled).
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn occupancy_cap(&self, margin: f64, occupancy: Occupancy) -> usize {
        let span = self.spacer_gap_ps(margin, occupancy) + self.settle_bound_ps(margin);
        let interval = self.injection_interval_ps(margin, occupancy);
        ((span / interval).ceil() as usize).max(1)
    }

    /// The `[er(n), lf(n)]` first-change window of `net` relative to an
    /// injection edge — the attribution window for transition decode.
    #[must_use]
    pub fn rise_window_ps(&self, net: NetId) -> (f64, f64) {
        (self.earliest_ps[net.index()], self.latest_ps[net.index()])
    }

    /// Outputs of the input-stage cells (the dynamic-acknowledge set).
    #[must_use]
    pub fn stage_nets(&self) -> &[NetId] {
        &self.stage_nets
    }
}

/// The level a watched net holds while activated — the complement of
/// its quiescent spacer level.
fn active_level(quiet: Logic) -> Logic {
    match quiet {
        Logic::Zero => Logic::One,
        Logic::One => Logic::Zero,
        Logic::Unknown => Logic::Unknown,
    }
}

/// One attributed activation of a watched net: when it left its spacer
/// level and (once drained) when it returned.
type Activation = (f64, Option<f64>);

/// One token's measured wave profile from the serial profiling pass:
/// per-net first-change times for the data wave (relative to the
/// injection edge) and for the return-to-zero wave (relative to the
/// spacer edge).  `INFINITY` marks a net the token never moved.
struct TokenProfile {
    rise_rel_ps: Vec<f64>,
    fall_rel_ps: Vec<f64>,
    /// Spacer-phase settle time (the maximum fall): when the token has
    /// fully drained from the circuit.
    drain_rel_ps: f64,
}

/// The serial driver's non-monotonic-switching violation, raised by the
/// profiling pass for *any* net: wavefront scheduling fundamentally
/// rests on monotonic per-phase switching (Requirement 2) on every net,
/// not just the observed ones — a glitching net has no well-defined
/// rise/fall profile to schedule against.
fn non_monotonic(net: NetId, delta: u64) -> DualRailError {
    DualRailError::ProtocolViolation {
        description: format!("net {net} switched {delta} times in one phase (non-monotonic)"),
    }
}

/// Per-slice transition recorder over the watched nets (observed
/// outputs, probes and `done`): the raw material the post-drain
/// attribution decodes tokens from.  Nets whose quiescent level is
/// unknown are unobservable and stay out of the log, mirroring the
/// serial driver reading their settled `X` directly.
struct TransitionLog {
    nets: Vec<(NetId, Logic)>,
    values: Vec<Logic>,
    events: Vec<Vec<(f64, Logic)>>,
}

impl TransitionLog {
    fn new(watched: &[NetId], snapshot: &[Logic], sim: &Simulator<'_>) -> Self {
        let mut seen = std::collections::HashSet::new();
        let mut nets = Vec::new();
        let mut values = Vec::new();
        for &net in watched {
            let quiet = snapshot[net.index()];
            if quiet == Logic::Unknown || !seen.insert(net) {
                continue;
            }
            nets.push((net, quiet));
            values.push(sim.value(net));
        }
        let events = vec![Vec::new(); nets.len()];
        Self {
            nets,
            values,
            events,
        }
    }

    fn sample(&mut self, sim: &Simulator<'_>) {
        let now = sim.now_ps();
        for (i, &(net, _)) in self.nets.iter().enumerate() {
            let v = sim.value(net);
            if v != self.values[i] {
                self.values[i] = v;
                self.events[i].push((now, v));
            }
        }
    }
}

/// Advances `sim` to `time_ps` if it is not already there.
fn catch_up(sim: &mut Simulator<'_>, time_ps: f64) {
    if time_ps > sim.now_ps() {
        sim.advance_to(time_ps);
    }
}

/// Processes every event up to and including `until_ps`, sampling the
/// log after each consistent time slice, then parks the clock at
/// `until_ps`.
fn run_slices_until(
    sim: &mut Simulator<'_>,
    log: &mut TransitionLog,
    until_ps: f64,
    budget: &mut u64,
) -> Result<(), DualRailError> {
    while let Some(next) = sim.next_event_time_ps() {
        if next > until_ps {
            break;
        }
        match sim.step_time_slice(budget) {
            StepOutcome::Advanced { .. } => log.sample(sim),
            StepOutcome::Idle => break,
            StepOutcome::LimitReached => return Err(DualRailError::SimulationDiverged),
        }
    }
    catch_up(sim, until_ps);
    Ok(())
}

/// Attributes one net's transition stream to injection windows: each
/// departure from the spacer level must land inside exactly one token's
/// `[A_k + er, A_k + lf]` window, and the following return-to-zero
/// belongs to the same token.
///
/// Consecutive windows are disjoint by construction (the injection
/// interval exceeds the per-net spread `lf − er`), so the attribution
/// is unambiguous; every transition that defies it is a typed
/// [`DualRailError::ProtocolViolation`].
fn attribute_stream(
    net: NetId,
    quiet: Logic,
    events: &[(f64, Logic)],
    inject_at: &[f64],
    window: (f64, f64),
) -> Result<Vec<Option<Activation>>, DualRailError> {
    let m = inject_at.len();
    let (er, lf) = window;
    let mut activations: Vec<Option<Activation>> = vec![None; m];
    let mut cursor = 0usize;
    let mut pending: Option<usize> = None;
    for &(t, v) in events {
        if v == Logic::Unknown {
            return Err(DualRailError::ProtocolViolation {
                description: format!(
                    "net {} went X at {t:.1} ps during a pipelined train",
                    net.index()
                ),
            });
        }
        if v == quiet {
            let Some(k) = pending.take() else {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "net {} returned to spacer at {t:.1} ps without a preceding departure",
                        net.index()
                    ),
                });
            };
            activations[k]
                .as_mut()
                .expect("departure recorded for pending token")
                .1 = Some(t);
        } else {
            if pending.is_some() {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "net {} left spacer twice at {t:.1} ps without returning — a \
                         wavefront hazard corrupted the handshake",
                        net.index()
                    ),
                });
            }
            while cursor < m && t > inject_at[cursor] + lf + WINDOW_EPS_PS {
                cursor += 1;
            }
            if cursor >= m || t + WINDOW_EPS_PS < inject_at[cursor] + er {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "net {} switched at {t:.1} ps outside every injection window — a \
                         wavefront hazard corrupted the handshake",
                        net.index()
                    ),
                });
            }
            if activations[cursor].is_some() {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "net {} switched twice within one injection window at {t:.1} ps — a \
                         wavefront hazard corrupted the handshake",
                        net.index()
                    ),
                });
            }
            activations[cursor] = Some((t, None));
            pending = Some(cursor);
        }
    }
    Ok(activations)
}

/// One token reconstructed from the attributed transition stream.
struct TokenView {
    outputs: Vec<bool>,
    one_of_n: Vec<(String, usize)>,
    probes: Vec<(String, DualRailValue)>,
    s_to_v_latency_ps: f64,
    done_latency_ps: Option<f64>,
    v_to_s_latency_ps: f64,
}

/// Reconstructs and decodes one token from its per-net activations,
/// replicating the serial driver's codeword rules and latency
/// definitions exactly.
#[allow(clippy::too_many_lines)]
fn assemble_token(
    circuit: &DualRailNetlist,
    snapshot: &[Logic],
    observed: &[NetId],
    done_net: Option<NetId>,
    inject_ps: f64,
    spacer_ps: f64,
    activity: &dyn Fn(NetId) -> Option<Activation>,
) -> Result<TokenView, DualRailError> {
    let level = |net: NetId| -> Logic {
        let quiet = snapshot[net.index()];
        if quiet == Logic::Unknown {
            return Logic::Unknown;
        }
        if activity(net).is_some() {
            active_level(quiet)
        } else {
            quiet
        }
    };

    let mut outputs = Vec::new();
    for (name, signal) in circuit.dual_outputs() {
        let value = DualRailValue::decode(
            level(signal.positive),
            level(signal.negative),
            signal.polarity,
        );
        match value {
            DualRailValue::Valid(bit) => outputs.push(bit),
            DualRailValue::Forbidden => {
                return Err(DualRailError::IllegalCodeword {
                    output: name.clone(),
                    description: "both rails are active when a valid codeword was expected"
                        .to_string(),
                })
            }
            other => {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "output {name:?} is {other:?} when a valid codeword was expected"
                    ),
                })
            }
        }
    }
    let mut one_of_n = Vec::new();
    for (name, wires) in circuit.one_of_n_outputs() {
        let values: Vec<Logic> = wires.iter().map(|&w| level(w)).collect();
        match OneOfNValue::decode(&values) {
            OneOfNValue::Valid(index) => one_of_n.push((name.clone(), index)),
            OneOfNValue::Forbidden => {
                return Err(DualRailError::IllegalCodeword {
                    output: name.clone(),
                    description:
                        "more than one 1-of-n wire is active when a valid codeword was expected"
                            .to_string(),
                })
            }
            other => {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "1-of-n output {name:?} is {other:?} when a valid codeword was expected"
                    ),
                })
            }
        }
    }
    let probes = circuit
        .probes()
        .iter()
        .map(|(name, signal)| {
            let value = DualRailValue::decode(
                level(signal.positive),
                level(signal.negative),
                signal.polarity,
            );
            (name.clone(), value)
        })
        .collect();

    let mut s_to_v = 0.0f64;
    let mut v_to_s = 0.0f64;
    for &net in observed {
        if let Some((rise, fall)) = activity(net) {
            s_to_v = s_to_v.max(rise - inject_ps);
            if let Some(fall) = fall {
                v_to_s = v_to_s.max(fall - spacer_ps);
            }
        }
    }
    let done_latency_ps = match done_net {
        Some(done) => match activity(done) {
            Some((rise, _)) => Some(rise - inject_ps),
            None => {
                return Err(DualRailError::ProtocolViolation {
                    description: "done failed to rise after a valid codeword".to_string(),
                })
            }
        },
        None => None,
    };

    Ok(TokenView {
        outputs,
        one_of_n,
        probes,
        s_to_v_latency_ps: s_to_v,
        done_latency_ps,
        v_to_s_latency_ps: v_to_s,
    })
}

/// Train-level transition-count audit shared by the scalar and sliced
/// drivers: every observed rail must have switched exactly twice per
/// token that activated it, across the whole drained train.
fn audit_transition_counts(
    circuit: &DualRailNetlist,
    snapshot: &[Logic],
    tokens: &[&TokenView],
    transitions: impl Fn(NetId) -> u64,
) -> Result<(), DualRailError> {
    let n = tokens.len();
    for (index, (name, signal)) in circuit.dual_outputs().iter().enumerate() {
        for (rail, net) in [("positive", signal.positive), ("negative", signal.negative)] {
            let quiet = snapshot[net.index()];
            if quiet == Logic::Unknown {
                continue;
            }
            let expected: u64 = tokens
                .iter()
                .map(|t| {
                    let (p, ng) = DualRailValue::encode_valid(t.outputs[index], signal.polarity);
                    let level = if net == signal.positive { p } else { ng };
                    u64::from(Logic::from(level) != quiet) * 2
                })
                .sum();
            let got = transitions(net);
            if got != expected {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "output {name:?} {rail} rail switched {got} times across a train of \
                         {n} tokens (expected {expected}) — a wavefront hazard corrupted the \
                         handshake"
                    ),
                });
            }
        }
    }
    for (group, (name, wires)) in circuit.one_of_n_outputs().iter().enumerate() {
        for (w, &wire) in wires.iter().enumerate() {
            let expected: u64 = tokens
                .iter()
                .map(|t| u64::from(t.one_of_n[group].1 == w) * 2)
                .sum();
            let got = transitions(wire);
            if got != expected {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "1-of-n output {name:?} wire {w} switched {got} times across a train \
                         of {n} tokens (expected {expected}) — a wavefront hazard corrupted \
                         the handshake"
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Checks the `done` edge totals over a drained train: exactly one rise
/// and one fall per token.
fn audit_done_edges(
    activations: &[Option<Activation>],
    tokens: usize,
) -> Result<(), DualRailError> {
    let rises = activations.iter().flatten().count();
    let falls = activations
        .iter()
        .flatten()
        .filter(|(_, fall)| fall.is_some())
        .count();
    if rises != tokens || falls != tokens {
        return Err(DualRailError::ProtocolViolation {
            description: format!(
                "done rose {rises} times and fell {falls} times across a train of {tokens} \
                 tokens — wavefront overlap corrupted the handshake"
            ),
        });
    }
    Ok(())
}

/// The full set of nets the transition log must observe: decoded
/// outputs, probes and — when completion is token-resolved — `done`.
fn watched_nets(circuit: &DualRailNetlist, include_done: bool) -> Vec<NetId> {
    let mut watched = circuit.observed_output_nets();
    for (_, signal) in circuit.probes() {
        watched.push(signal.positive);
        watched.push(signal.negative);
    }
    if include_done {
        if let Some(done) = circuit.done() {
            watched.push(done);
        }
    }
    watched
}

/// The wavefront-pipelined four-phase protocol driver: tokens flow
/// through the datapath separated by the static `g₁`/`g₂` gaps and the
/// dynamic input-stage acknowledge instead of the global `done`
/// round-trip.
///
/// See the [module documentation](self) for the schedule and the
/// checking model, and
/// [`crate::ParallelProtocolDriver::run_workload_pipelined`] for the
/// sharded entry point.
#[derive(Debug)]
pub struct PipelinedProtocolDriver<'a> {
    inner: ProtocolDriver<'a>,
    timing: WavefrontTiming,
    config: PipelineConfig,
    snapshot: Arc<[Logic]>,
    horizon_ps: Option<f64>,
}

impl<'a> PipelinedProtocolDriver<'a> {
    /// Creates a pipelined driver, computing the wavefront timing
    /// bounds from `library`'s delays.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolDriver::new`] initialisation errors and
    /// [`WavefrontTiming::compute`] analysis errors.
    pub fn new(
        circuit: &'a DualRailNetlist,
        library: &Library,
        config: PipelineConfig,
    ) -> Result<Self, DualRailError> {
        let inner = ProtocolDriver::new(circuit, library)?;
        let snapshot = inner.quiescent_snapshot();
        let timing = WavefrontTiming::compute(circuit, library, &snapshot)?;
        Self::from_driver(inner, timing, config)
    }

    /// Creates a pipelined driver around an existing simulator instance
    /// and precomputed timing bounds — the worker-side constructor for
    /// [`crate::ParallelProtocolDriver::run_workload_pipelined`], whose
    /// train runner hands a worker with no pooled driver a fresh
    /// replicated simulator.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolDriver::from_simulator`] initialisation
    /// errors.
    pub fn from_simulator_with_timing(
        circuit: &'a DualRailNetlist,
        sim: Simulator<'a>,
        timing: WavefrontTiming,
        config: PipelineConfig,
    ) -> Result<Self, DualRailError> {
        let inner = ProtocolDriver::from_simulator(circuit, sim)?;
        Self::from_driver(inner, timing, config)
    }

    fn from_driver(
        mut inner: ProtocolDriver<'a>,
        timing: WavefrontTiming,
        config: PipelineConfig,
    ) -> Result<Self, DualRailError> {
        let snapshot = inner.quiescent_snapshot();
        inner.enable_reset_contract(Arc::clone(&snapshot));
        Ok(Self {
            inner,
            timing,
            config,
            snapshot,
            horizon_ps: None,
        })
    }

    /// The wavefront timing bounds this driver schedules against.
    #[must_use]
    pub fn timing(&self) -> &WavefrontTiming {
        &self.timing
    }

    /// The configuration this driver runs under.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Caps the events processed per token (see
    /// [`ProtocolDriver::set_event_limit`]); the budget reseeds at
    /// every injection, so a runaway token cannot starve its train.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.inner.set_event_limit(limit);
    }

    /// Bounds each token by simulated time: the pipelined schedule
    /// slides the absolute horizon to `A_k + horizon_ps` at every
    /// injection, so a faulted token trips the watchdog at the same
    /// per-token bound the serial driver enforces.  The horizon must
    /// exceed the injection interval plus the settle bound, or
    /// fault-free trains will trip it.
    pub fn set_time_horizon_ps(&mut self, horizon_ps: f64) {
        self.horizon_ps = Some(horizon_ps);
        self.inner.set_time_horizon_ps(horizon_ps);
    }

    /// Disables the train-level transition-count audit (and, at
    /// occupancy 1, the delegated per-phase monotonicity check).
    pub fn set_monotonicity_check(&mut self, enabled: bool) {
        self.inner.set_monotonicity_check(enabled);
    }

    /// Attaches the dual-rail instrument set (see
    /// [`ProtocolDriver::attach_metrics`]); the pipelined schedule
    /// additionally counts injection-gate stall slices under
    /// `"<prefix>.protocol.stall_slices"`.
    pub fn attach_metrics(&mut self, registry: &tm_obs::MetricsRegistry, prefix: &str) {
        self.inner.attach_metrics(registry, prefix);
    }

    /// Detaches all instruments after flushing pending engine deltas.
    pub fn detach_metrics(&mut self) {
        self.inner.detach_metrics();
    }

    /// Whether an instrument set is currently attached.
    #[must_use]
    pub fn metrics_attached(&self) -> bool {
        self.inner.metrics_attached()
    }

    /// Installs a [`tm_obs::WaveProbe`] on the underlying simulator
    /// (see [`ProtocolDriver::attach_wave_probe`]).
    pub fn attach_wave_probe(&mut self, probe: tm_obs::WaveProbe) {
        self.inner.attach_wave_probe(probe);
    }

    /// Removes and returns the installed wave probe, if any.
    pub fn take_wave_probe(&mut self) -> Option<tm_obs::WaveProbe> {
        self.inner.take_wave_probe()
    }

    /// Installs a gate-level fault plan on this driver's private
    /// simulator and re-settles (see
    /// [`ProtocolDriver::set_fault_plan`]).  SEU pulse times are
    /// frame-relative: the clock rebases per profiled token and once
    /// per replayed train, and pulses re-arm at each rebase, so a
    /// pulse can fire in several frames — any divergence between the
    /// profile and the replay surfaces as a typed violation, never as
    /// a silently altered outcome.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SimulationDiverged`] if the faulted
    /// circuit cannot settle.
    pub fn set_fault_plan(&mut self, plan: &gatesim::FaultPlan) -> Result<(), DualRailError> {
        self.inner.set_fault_plan(plan)?;
        self.snapshot = self.inner.quiescent_snapshot();
        Ok(())
    }

    /// Runs one **train** of operands through the wavefront schedule
    /// and returns the per-token results in operand order.
    ///
    /// A train shares in-flight circuit state, so it is the sharding
    /// unit: the clock and activity counters rebase per profiled token
    /// and again at the replay boundary, making every train a pure
    /// function of its own operands.  At [`Occupancy::One`] each token
    /// instead runs the contract-mode serial cycle, bit-identical to
    /// [`ProtocolDriver::apply_operand`].
    ///
    /// # Errors
    ///
    /// The first failing check aborts the train: decode errors
    /// ([`DualRailError::IllegalCodeword`]), protocol violations
    /// (missing `done` edges, out-of-window or surplus transitions, an
    /// input stage that never acknowledges), watchdog trips
    /// ([`DualRailError::SimulationDiverged`]) and reset-contract
    /// breaks ([`DualRailError::SpacerStateMismatch`]).
    pub fn run_train(
        &mut self,
        operands: &[Vec<bool>],
    ) -> Result<Vec<OperandResult>, DualRailError> {
        if self.config.occupancy == Occupancy::One {
            return operands
                .iter()
                .map(|operand| self.inner.apply_operand(operand))
                .collect();
        }
        self.run_train_wavefront(operands)
    }

    #[allow(clippy::too_many_lines)]
    fn run_train_wavefront(
        &mut self,
        operands: &[Vec<bool>],
    ) -> Result<Vec<OperandResult>, DualRailError> {
        let expected = self.inner.circuit().input_count();
        for operand in operands {
            if operand.len() != expected {
                return Err(DualRailError::OperandWidthMismatch {
                    expected,
                    got: operand.len(),
                });
            }
        }
        if operands.is_empty() {
            return Ok(Vec::new());
        }
        // Pass 1: serial profiling.  This pass *is* the serial
        // protocol, so it also fixes the decoded outcomes and the
        // serial latencies this train will report.
        let mut profiles = Vec::with_capacity(operands.len());
        for operand in operands {
            profiles.push(self.profile_token(operand)?);
        }
        let (inject_at, spacer_at) = self.wavefront_schedule(&profiles);

        let circuit = self.inner.circuit();
        let observed = circuit.observed_output_nets();
        let done_net = circuit.done();
        let watched = watched_nets(circuit, true);
        let stage: Vec<(NetId, Logic)> = self
            .timing
            .stage_nets
            .iter()
            .map(|&n| (n, self.snapshot[n.index()]))
            .collect();

        // Pass 2: wavefront replay at the profiled schedule.
        {
            let sim = self.inner.sim_mut();
            if sim.has_pending_events() {
                return Err(DualRailError::SimulationDiverged);
            }
            sim.clear_activity();
            sim.reset_time();
        }
        let mut log = TransitionLog::new(&watched, &self.snapshot, self.inner.sim());
        let mut budget = self.inner.sim().event_limit();
        for (k, operand) in operands.iter().enumerate() {
            if let Some(horizon) = self.horizon_ps {
                self.inner
                    .sim_mut()
                    .set_time_horizon_ps(inject_at[k] + horizon);
            }
            budget = self.inner.sim().event_limit();
            run_slices_until(self.inner.sim_mut(), &mut log, inject_at[k], &mut budget)?;
            if self.config.gate_injection && k > 0 {
                // Dynamic acknowledge: the input stage must have
                // drained before the next injection.  Fault-free, the
                // profiled schedule already guarantees this; under
                // faults the train parks here until the watchdog trips.
                loop {
                    if stage
                        .iter()
                        .all(|&(net, quiet)| self.inner.sim().value(net) == quiet)
                    {
                        break;
                    }
                    let sim = self.inner.sim_mut();
                    match sim.step_time_slice(&mut budget) {
                        StepOutcome::Advanced { .. } => {
                            if let Some(metrics) = self.inner.protocol_metrics() {
                                metrics.stall_slices.inc();
                            }
                            log.sample(self.inner.sim());
                        }
                        StepOutcome::Idle => {
                            return Err(DualRailError::ProtocolViolation {
                                description: "input stage failed to acknowledge the spacer \
                                              before the next injection"
                                    .to_string(),
                            })
                        }
                        StepOutcome::LimitReached => return Err(DualRailError::SimulationDiverged),
                    }
                }
            }
            self.inner.drive_valid(operand);
            let until = spacer_at[k].max(self.inner.sim().now_ps());
            run_slices_until(self.inner.sim_mut(), &mut log, until, &mut budget)?;
            if self.config.gate_injection {
                self.inner.drive_spacer();
            }
        }

        // Drain the final wavefronts to quiescence.
        loop {
            let sim = self.inner.sim_mut();
            match sim.step_time_slice(&mut budget) {
                StepOutcome::Advanced { .. } => log.sample(self.inner.sim()),
                StepOutcome::Idle => break,
                StepOutcome::LimitReached => return Err(DualRailError::SimulationDiverged),
            }
        }
        let drain_end = self.inner.sim().now_ps();

        // The replay must reproduce the serial trajectories exactly:
        // every watched net's transition stream is matched
        // event-by-event against the schedule-shifted profile times.
        // Anything else — a missing edge, a surplus edge, an edge at
        // the wrong time or to the wrong level — is a wavefront hazard
        // and surfaces as a typed error, never as a decoded outcome.
        for (i, &(net, quiet)) in log.nets.iter().enumerate() {
            let active = active_level(quiet);
            let mut expected: Vec<(f64, Logic)> = Vec::new();
            for (k, profile) in profiles.iter().enumerate() {
                let rise = profile.rise_rel_ps[net.index()];
                if rise.is_finite() {
                    expected.push((inject_at[k] + rise, active));
                    expected.push((spacer_at[k] + profile.fall_rel_ps[net.index()], quiet));
                }
            }
            let got = &log.events[i];
            if got.len() != expected.len() {
                return Err(DualRailError::ProtocolViolation {
                    description: format!(
                        "net {net} switched {} times during a pipelined train but the \
                         serial profile expects {} transitions — a wavefront hazard \
                         corrupted the handshake",
                        got.len(),
                        expected.len()
                    ),
                });
            }
            for (&(t, v), &(te, ve)) in got.iter().zip(&expected) {
                if v != ve || (t - te).abs() > WINDOW_EPS_PS {
                    return Err(DualRailError::ProtocolViolation {
                        description: format!(
                            "net {net} switched to {v:?} at {t:.3} ps but the serial \
                             profile expects {ve:?} at {te:.3} ps — a wavefront hazard \
                             corrupted the handshake"
                        ),
                    });
                }
            }
        }

        // Train-end state audit: the circuit must be back in the
        // canonical spacer state with `done` low.
        self.inner.check_outputs_at_spacer()?;
        if let Some(done) = done_net {
            if !self.inner.sim().value(done).is_zero() {
                return Err(DualRailError::ProtocolViolation {
                    description: "done failed to fall after the spacer phase".to_string(),
                });
            }
        }
        self.inner.verify_spacer_state()?;

        // Decode from the verified profiles.  Phase-relative activation
        // times (injection and spacer edges at zero) keep every latency
        // figure bit-identical to the serial pass.
        let mut tokens = Vec::with_capacity(profiles.len());
        for profile in &profiles {
            let activity = |net: NetId| -> Option<Activation> {
                let rise = profile.rise_rel_ps[net.index()];
                rise.is_finite()
                    .then(|| (rise, Some(profile.fall_rel_ps[net.index()])))
            };
            tokens.push(assemble_token(
                circuit,
                &self.snapshot,
                &observed,
                done_net,
                0.0,
                0.0,
                &activity,
            )?);
        }
        if self.inner.monotonicity_check() {
            let refs: Vec<&TokenView> = tokens.iter().collect();
            audit_transition_counts(circuit, &self.snapshot, &refs, |net| {
                self.inner.sim().net_transitions(net)
            })?;
        }

        // Slice stepping bypasses the per-settle metrics flush; ship
        // the train's engine deltas (and count its completed cycles)
        // before handing results back.
        if let Some(metrics) = self.inner.protocol_metrics() {
            metrics.cycles.add(tokens.len() as u64);
        }
        self.inner.sim_mut().flush_metrics();

        Ok(tokens
            .into_iter()
            .enumerate()
            .map(|(k, token)| {
                let next = inject_at.get(k + 1).copied().unwrap_or(drain_end);
                OperandResult {
                    outputs: token.outputs,
                    one_of_n: token.one_of_n,
                    s_to_v_latency_ps: token.s_to_v_latency_ps,
                    done_latency_ps: token.done_latency_ps,
                    v_to_s_latency_ps: token.v_to_s_latency_ps,
                    // Pipelined cycle time = injection-to-injection
                    // interval (the throughput figure); the last token
                    // closes on the train drain.
                    cycle_time_ps: next - inject_at[k],
                    probes: token.probes,
                }
            })
            .collect())
    }

    /// Serial profiling pass, one token: runs the exact contract-mode
    /// four-phase cycle (rebased to time zero, like
    /// [`ProtocolDriver::apply_operand`] in contract mode) and records
    /// every net's measured rise and fall time.  The pass *is* the
    /// serial protocol — its checks fail with the serial driver's own
    /// typed errors in the serial driver's order.
    fn profile_token(&mut self, operand: &[bool]) -> Result<TokenProfile, DualRailError> {
        let circuit = self.inner.circuit();
        let net_count = circuit.netlist().net_count();
        {
            let sim = self.inner.sim_mut();
            if sim.has_pending_events() {
                return Err(DualRailError::SimulationDiverged);
            }
            sim.clear_activity();
            sim.reset_time();
            // The replay pass slides the horizon along its absolute
            // schedule; restore the per-token frame bound here.
            if let Some(horizon) = self.horizon_ps {
                sim.set_time_horizon_ps(horizon);
            }
        }

        // Phase 1: spacer -> valid.
        self.inner.drive_valid(operand);
        if !self.inner.sim_mut().run_until_quiescent().is_quiescent() {
            return Err(DualRailError::SimulationDiverged);
        }
        self.inner.decode_outputs()?;
        if let Some(done) = circuit.done() {
            if !self.inner.sim().value(done).is_one() {
                return Err(DualRailError::ProtocolViolation {
                    description: "done failed to rise after a valid codeword".to_string(),
                });
            }
        }
        let mut rise_rel_ps = vec![f64::INFINITY; net_count];
        let mut counts = vec![0u64; net_count];
        {
            let sim = self.inner.sim();
            for (i, (rise, count)) in rise_rel_ps.iter_mut().zip(&mut counts).enumerate() {
                let net = NetId::from_index(i);
                *count = sim.net_transitions(net);
                match *count {
                    0 => {}
                    1 => *rise = sim.last_change_ps(net).unwrap_or(f64::INFINITY),
                    delta => return Err(non_monotonic(net, delta)),
                }
            }
        }

        // Phase 2: valid -> spacer (return-to-zero).
        let t1 = self.inner.sim().now_ps();
        self.inner.drive_spacer();
        if !self.inner.sim_mut().run_until_quiescent().is_quiescent() {
            return Err(DualRailError::SimulationDiverged);
        }
        self.inner.check_outputs_at_spacer()?;
        if let Some(done) = circuit.done() {
            if !self.inner.sim().value(done).is_zero() {
                return Err(DualRailError::ProtocolViolation {
                    description: "done failed to fall after the spacer phase".to_string(),
                });
            }
        }
        let mut fall_rel_ps = vec![f64::INFINITY; net_count];
        let mut drain_rel_ps = 0.0f64;
        {
            let sim = self.inner.sim();
            for (i, (fall, &count)) in fall_rel_ps.iter_mut().zip(&counts).enumerate() {
                let net = NetId::from_index(i);
                match sim.net_transitions(net) - count {
                    0 => {}
                    1 => {
                        let t = sim.last_change_ps(net).unwrap_or(t1) - t1;
                        *fall = t;
                        drain_rel_ps = drain_rel_ps.max(t);
                    }
                    delta => return Err(non_monotonic(net, delta)),
                }
            }
        }
        self.inner.verify_spacer_state()?;
        Ok(TokenProfile {
            rise_rel_ps,
            fall_rel_ps,
            drain_rel_ps,
        })
    }

    /// Computes the wavefront injection schedule from the measured
    /// profiles.  Per cell and consecutive token pair:
    ///
    /// * the spacer wave of token `k` may first touch a cell only after
    ///   the cell's token-`k` rise activity (output *and* inputs — a
    ///   cell whose output never switches still constrains its input
    ///   pair) has ended, giving the valid→spacer offset `g₁ₖ`;
    /// * token `k+1`'s data wave may first touch a cell only after the
    ///   latest *pending* fall activity there has drained, giving the
    ///   injection gap `g₂ₖ`.  Pending falls are tracked per cell
    ///   across tokens, so a wave also clears falls left by earlier
    ///   tokens at cells the intervening tokens never exercised.
    ///
    /// Each gap gets the configured multiplicative safety margin plus
    /// the fixed [`GAP_PAD_PS`] slice-separation pad.  At
    /// [`Occupancy::Two`] the next injection additionally waits for
    /// token `k-1` to drain completely, capping the train at two tokens
    /// in flight.
    fn wavefront_schedule(&self, profiles: &[TokenProfile]) -> (Vec<f64>, Vec<f64>) {
        let nl = self.inner.circuit().netlist();
        let margin = self.config.separation_margin;
        let widen = |raw: f64| raw.max(0.0).mul_add(1.0 + margin, GAP_PAD_PS);
        let mut pending = vec![f64::NEG_INFINITY; nl.cell_count()];
        let mut inject_at = Vec::with_capacity(profiles.len());
        let mut spacer_at = Vec::with_capacity(profiles.len());
        let mut a_k = 0.0f64;
        for (k, profile) in profiles.iter().enumerate() {
            inject_at.push(a_k);
            let mut g1 = 0.0f64;
            for (_, cell) in nl.cells() {
                if cell.inputs().is_empty() || cell.kind() == CellKind::Dff {
                    continue;
                }
                let first_fall = cell
                    .inputs()
                    .iter()
                    .map(|&n| profile.fall_rel_ps[n.index()])
                    .fold(f64::INFINITY, f64::min);
                if !first_fall.is_finite() {
                    continue;
                }
                let late_rise = cell
                    .inputs()
                    .iter()
                    .map(|&n| profile.rise_rel_ps[n.index()])
                    .chain([profile.rise_rel_ps[cell.output().index()]])
                    .filter(|t| t.is_finite())
                    .fold(f64::NEG_INFINITY, f64::max);
                g1 = g1.max(late_rise - first_fall);
            }
            let b_k = a_k + widen(g1);
            spacer_at.push(b_k);

            let Some(next_profile) = profiles.get(k + 1) else {
                break;
            };
            let mut required = f64::NEG_INFINITY;
            for (cid, cell) in nl.cells() {
                if cell.inputs().is_empty() || cell.kind() == CellKind::Dff {
                    continue;
                }
                let late_fall = cell
                    .inputs()
                    .iter()
                    .map(|&n| profile.fall_rel_ps[n.index()])
                    .chain([profile.fall_rel_ps[cell.output().index()]])
                    .filter(|t| t.is_finite())
                    .fold(f64::NEG_INFINITY, f64::max);
                if late_fall.is_finite() {
                    pending[cid.index()] = b_k + late_fall;
                }
                let clear_at = pending[cid.index()];
                if clear_at == f64::NEG_INFINITY {
                    continue;
                }
                let first_rise = cell
                    .inputs()
                    .iter()
                    .map(|&n| next_profile.rise_rel_ps[n.index()])
                    .fold(f64::INFINITY, f64::min);
                if first_rise.is_finite() {
                    required = required.max(clear_at - first_rise);
                }
            }
            let g2 = if required.is_finite() {
                required - b_k
            } else {
                0.0
            };
            a_k = b_k + widen(g2);
            if self.config.occupancy == Occupancy::Two && k >= 1 {
                a_k = a_k.max(spacer_at[k - 1] + profiles[k - 1].drain_rel_ps + GAP_PAD_PS);
            }
        }
        (inject_at, spacer_at)
    }
}

impl<'a> WorkerDriver<'a> for PipelinedProtocolDriver<'a> {
    type Replica = Simulator<'a>;

    fn run_chunk(&mut self, train: &[Vec<bool>]) -> Vec<Result<OperandResult, DualRailError>> {
        per_operand(self.run_train(train), train.len())
    }

    fn attach_protocol_metrics(&mut self, handles: tm_obs::ProtocolMetrics) {
        self.inner.attach_protocol_metrics(handles);
    }

    fn is_idle_at(&self, snapshot: &[Logic]) -> bool {
        self.inner.is_idle_at(snapshot)
    }

    fn pipeline(&self) -> Option<PipelineConfig> {
        Some(self.config)
    }
}

/// 64-lane transition recorder: diffs each watched net's value/unknown
/// bit-planes per time slice and logs per-lane changes.
struct SlicedTransitionLog {
    nets: Vec<(NetId, Logic)>,
    slots: HashMap<NetId, usize>,
    planes: Vec<(u64, u64)>,
    /// `events[slot][lane]`.
    events: Vec<Vec<Vec<(f64, Logic)>>>,
}

impl SlicedTransitionLog {
    fn new(watched: &[NetId], snapshot: &[Logic], sim: &SlicedSimulator<'_>) -> Self {
        let mut nets = Vec::new();
        let mut slots = HashMap::new();
        let mut planes = Vec::new();
        for &net in watched {
            let quiet = snapshot[net.index()];
            if quiet == Logic::Unknown || slots.contains_key(&net) {
                continue;
            }
            slots.insert(net, nets.len());
            nets.push((net, quiet));
            planes.push(sim.plane(net));
        }
        let events = vec![vec![Vec::new(); LANES]; nets.len()];
        Self {
            nets,
            slots,
            planes,
            events,
        }
    }

    fn sample(&mut self, sim: &SlicedSimulator<'_>) {
        let now = sim.now_ps();
        for (i, &(net, _)) in self.nets.iter().enumerate() {
            let plane = sim.plane(net);
            let old = self.planes[i];
            if plane == old {
                continue;
            }
            let mut diff = (plane.0 ^ old.0) | (plane.1 ^ old.1);
            while diff != 0 {
                let lane = diff.trailing_zeros() as usize;
                diff &= diff - 1;
                let bit = 1u64 << lane;
                let value = if plane.1 & bit != 0 {
                    Logic::Unknown
                } else if plane.0 & bit != 0 {
                    Logic::One
                } else {
                    Logic::Zero
                };
                self.events[i][lane].push((now, value));
            }
            self.planes[i] = plane;
        }
    }
}

/// Advances the sliced clock to `time_ps` if it is not already there.
fn catch_up_sliced(sim: &mut SlicedSimulator<'_>, time_ps: f64) {
    if time_ps > sim.now_ps() {
        sim.advance_to(time_ps);
    }
}

/// Sliced counterpart of [`run_slices_until`].
fn run_word_slices_until(
    sim: &mut SlicedSimulator<'_>,
    log: &mut SlicedTransitionLog,
    until_ps: f64,
    budget: &mut u64,
) -> Result<(), DualRailError> {
    while let Some(next) = sim.next_event_time_ps() {
        if next > until_ps {
            break;
        }
        match sim.step_time_slice(budget) {
            StepOutcome::Advanced { .. } => log.sample(sim),
            StepOutcome::Idle => break,
            StepOutcome::LimitReached => return Err(DualRailError::SimulationDiverged),
        }
    }
    catch_up_sliced(sim, until_ps);
    Ok(())
}

/// The wavefront-pipelined driver on the 64-wide bit-sliced event
/// kernel: each **word** of up to [`LANES`] operands is one token, and
/// words flow through the datapath under the same static gap schedule
/// and dynamic input-stage acknowledge as the scalar
/// [`PipelinedProtocolDriver`] — composing the word-level and
/// wavefront-level throughput multipliers.
#[derive(Debug)]
pub struct SlicedPipelinedProtocolDriver<'a> {
    inner: SlicedProtocolDriver<'a>,
    timing: WavefrontTiming,
    config: PipelineConfig,
    horizon_ps: Option<f64>,
}

impl<'a> SlicedPipelinedProtocolDriver<'a> {
    /// Creates a sliced pipelined driver around a fresh sliced
    /// simulator instance, a canonical quiescent `snapshot` and
    /// precomputed `timing` bounds (see
    /// [`SlicedProtocolDriver::from_sliced_simulator`]).
    ///
    /// # Errors
    ///
    /// Propagates initialisation errors from the underlying word
    /// driver.
    ///
    /// # Panics
    ///
    /// Panics if `sim` does not simulate this circuit's netlist.
    pub fn from_sliced_simulator(
        circuit: &'a DualRailNetlist,
        sim: SlicedSimulator<'a>,
        snapshot: Arc<[Logic]>,
        timing: WavefrontTiming,
        config: PipelineConfig,
        check_monotonic: bool,
    ) -> Result<Self, DualRailError> {
        let inner =
            SlicedProtocolDriver::from_sliced_simulator(circuit, sim, snapshot, check_monotonic)?;
        Ok(Self {
            inner,
            timing,
            config,
            horizon_ps: None,
        })
    }

    /// The wavefront timing bounds this driver schedules against.
    #[must_use]
    pub fn timing(&self) -> &WavefrontTiming {
        &self.timing
    }

    /// Caps the merged events processed per word token; the budget
    /// reseeds at every injection.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.inner.set_event_limit(limit);
    }

    /// Attaches the word driver's instrument set (see
    /// [`SlicedProtocolDriver::attach_metrics`]); the pipelined
    /// schedule additionally counts injection-gate stall slices under
    /// `"<prefix>.protocol.stall_slices"`.
    pub fn attach_metrics(&mut self, registry: &tm_obs::MetricsRegistry, prefix: &str) {
        self.inner.attach_metrics(registry, prefix);
    }

    /// Detaches all instruments after flushing pending engine deltas.
    pub fn detach_metrics(&mut self) {
        self.inner.detach_metrics();
    }

    /// Whether an instrument set is currently attached.
    #[must_use]
    pub fn metrics_attached(&self) -> bool {
        self.inner.metrics_attached()
    }

    /// Bounds each word token by simulated time; the schedule slides
    /// the absolute horizon to `A_k + horizon_ps` at every injection.
    pub fn set_time_horizon_ps(&mut self, horizon_ps: f64) {
        self.horizon_ps = Some(horizon_ps);
        self.inner.set_time_horizon_ps(horizon_ps);
    }

    /// Installs a gate-level fault plan on every lane (see
    /// [`SlicedProtocolDriver::set_fault_plan`]).
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SimulationDiverged`] if the faulted
    /// circuit cannot settle.
    pub fn set_fault_plan(&mut self, plan: &gatesim::FaultPlan) -> Result<(), DualRailError> {
        self.inner.set_fault_plan(plan)
    }

    /// Runs one train of operands (cut into words of up to [`LANES`]
    /// lanes at fixed positions) through the wavefront schedule and
    /// returns the per-operand results in operand order.
    ///
    /// At [`Occupancy::One`] each word instead runs the serial
    /// four-phase word cycle, bit-identical to
    /// [`SlicedProtocolDriver::apply_word`].
    ///
    /// # Errors
    ///
    /// The first failing check aborts the train, as in
    /// [`PipelinedProtocolDriver::run_train`]; divergence is word- and
    /// train-global (lanes share one event budget).
    pub fn run_train(
        &mut self,
        operands: &[Vec<bool>],
    ) -> Result<Vec<OperandResult>, DualRailError> {
        if self.config.occupancy == Occupancy::One {
            let mut results = Vec::with_capacity(operands.len());
            for word in operands.chunks(LANES) {
                for result in self.inner.apply_word(word) {
                    results.push(result?);
                }
            }
            return Ok(results);
        }
        self.run_train_wavefront(operands)
    }

    #[allow(clippy::too_many_lines)]
    fn run_train_wavefront(
        &mut self,
        operands: &[Vec<bool>],
    ) -> Result<Vec<OperandResult>, DualRailError> {
        let expected = self.inner.circuit().input_count();
        for operand in operands {
            if operand.len() != expected {
                return Err(DualRailError::OperandWidthMismatch {
                    expected,
                    got: operand.len(),
                });
            }
        }
        if operands.is_empty() {
            return Ok(Vec::new());
        }
        let circuit = self.inner.circuit();
        let observed = circuit.observed_output_nets();
        let done_net = circuit.done();
        let resolve_done = self.config.occupancy == Occupancy::Two;
        let attributed_done = if resolve_done { done_net } else { None };
        let watched = watched_nets(circuit, resolve_done);
        let margin = self.config.separation_margin;
        let spacer_gap = self.timing.spacer_gap_ps(margin, self.config.occupancy);
        let interval = self
            .timing
            .injection_interval_ps(margin, self.config.occupancy);
        let snapshot = Arc::clone(self.inner.snapshot());
        let stage: Vec<(NetId, Logic)> = self
            .timing
            .stage_nets
            .iter()
            .map(|&n| (n, snapshot[n.index()]))
            .collect();

        {
            let sim = self.inner.sim_mut();
            if sim.has_pending_events() {
                return Err(DualRailError::SimulationDiverged);
            }
            sim.clear_watch_activity();
            sim.reset_time();
            sim.reset_lane_events();
        }
        let mut log = SlicedTransitionLog::new(&watched, &snapshot, self.inner.sim());

        let words: Vec<&[Vec<bool>]> = operands.chunks(LANES).collect();
        let m = words.len();
        let lanes_used = words[0].len();
        let mut inject_at: Vec<f64> = Vec::with_capacity(m);
        let mut spacer_at: Vec<f64> = Vec::with_capacity(m);
        let mut scheduled = 0.0f64;
        let mut budget = self.inner.sim().event_limit();
        for word in &words {
            if let Some(horizon) = self.horizon_ps {
                self.inner
                    .sim_mut()
                    .set_time_horizon_ps(scheduled + horizon);
            }
            budget = self.inner.sim().event_limit();
            catch_up_sliced(self.inner.sim_mut(), scheduled);
            let a_k = self.inner.sim().now_ps();
            let run = gatesim::lane_mask(word.len());
            self.inner.drive_valid_planes(word, run);
            inject_at.push(a_k);
            let b_k = a_k + spacer_gap;
            run_word_slices_until(self.inner.sim_mut(), &mut log, b_k, &mut budget)?;
            if self.config.gate_injection {
                self.inner.drive_spacer_planes();
            }
            spacer_at.push(b_k);
            let next = a_k + interval;
            run_word_slices_until(self.inner.sim_mut(), &mut log, next, &mut budget)?;
            if self.config.gate_injection {
                loop {
                    if stage.iter().all(|&(net, quiet)| {
                        (0..LANES).all(|lane| self.inner.sim().value(net, lane) == quiet)
                    }) {
                        break;
                    }
                    let sim = self.inner.sim_mut();
                    match sim.step_time_slice(&mut budget) {
                        StepOutcome::Advanced { .. } => {
                            if let Some(metrics) = self.inner.protocol_metrics() {
                                metrics.stall_slices.inc();
                            }
                            log.sample(self.inner.sim());
                        }
                        StepOutcome::Idle => {
                            return Err(DualRailError::ProtocolViolation {
                                description: "input stage failed to acknowledge the spacer \
                                              before the next injection"
                                    .to_string(),
                            })
                        }
                        StepOutcome::LimitReached => return Err(DualRailError::SimulationDiverged),
                    }
                }
            }
            scheduled = next.max(self.inner.sim().now_ps());
        }

        loop {
            let sim = self.inner.sim_mut();
            match sim.step_time_slice(&mut budget) {
                StepOutcome::Advanced { .. } => log.sample(self.inner.sim()),
                StepOutcome::Idle => break,
                StepOutcome::LimitReached => return Err(DualRailError::SimulationDiverged),
            }
        }
        let drain_end = self.inner.sim().now_ps();

        // Train-end state audit, lane by lane.
        for lane in 0..lanes_used {
            self.inner.check_outputs_at_spacer_lane(lane)?;
            if let Some(done) = done_net {
                if !self.inner.sim().value(done, lane).is_zero() {
                    return Err(DualRailError::ProtocolViolation {
                        description: "done failed to fall after the spacer phase".to_string(),
                    });
                }
            }
        }
        if let Some((lane, net, expected, got)) = self
            .inner
            .sim()
            .lane_state_mismatch(&snapshot, gatesim::lane_mask(LANES))
        {
            return Err(DualRailError::SpacerStateMismatch {
                description: format!(
                    "net {net} settled to {got:?} after the train drained (lane {lane}) but \
                     the quiescent snapshot holds {expected:?}"
                ),
            });
        }

        // Per-lane attribution and decode.  A lane is active in every
        // word except possibly a trailing partial word, so its token
        // list is a prefix of the word list.
        let mut lane_tokens: Vec<Vec<TokenView>> = Vec::with_capacity(lanes_used);
        for lane in 0..lanes_used {
            let active_words = words.iter().filter(|w| lane < w.len()).count();
            let mut matrix: Vec<Vec<Option<Activation>>> = Vec::with_capacity(log.nets.len());
            for (i, &(net, quiet)) in log.nets.iter().enumerate() {
                matrix.push(attribute_stream(
                    net,
                    quiet,
                    &log.events[i][lane],
                    &inject_at[..active_words],
                    self.timing.rise_window_ps(net),
                )?);
            }
            let activity =
                |net: NetId, k: usize| log.slots.get(&net).and_then(|&slot| matrix[slot][k]);
            let mut tokens = Vec::with_capacity(active_words);
            for k in 0..active_words {
                tokens.push(assemble_token(
                    circuit,
                    &snapshot,
                    &observed,
                    attributed_done,
                    inject_at[k],
                    spacer_at[k],
                    &|net| activity(net, k),
                )?);
            }
            if let Some(done) = attributed_done {
                let slot = log.slots.get(&done).copied();
                let empty = Vec::new();
                audit_done_edges(slot.map_or(&empty, |s| &matrix[s]), active_words)?;
            }
            if self.inner.monotonicity_check() {
                let refs: Vec<&TokenView> = tokens.iter().collect();
                audit_transition_counts(circuit, &snapshot, &refs, |net| {
                    self.inner.sim().watch_transitions(net, lane)
                })?;
            }
            lane_tokens.push(tokens);
        }

        // Results in operand order: word-major, lane-minor; the cycle
        // time of a word is shared by all its lanes.
        let mut results = Vec::with_capacity(operands.len());
        for (w, word) in words.iter().enumerate() {
            let next = inject_at.get(w + 1).copied().unwrap_or(drain_end);
            let cycle_time_ps = next - inject_at[w];
            for lane in lane_tokens.iter_mut().take(word.len()) {
                let token = std::mem::replace(
                    &mut lane[w],
                    TokenView {
                        outputs: Vec::new(),
                        one_of_n: Vec::new(),
                        probes: Vec::new(),
                        s_to_v_latency_ps: 0.0,
                        done_latency_ps: None,
                        v_to_s_latency_ps: 0.0,
                    },
                );
                results.push(OperandResult {
                    outputs: token.outputs,
                    one_of_n: token.one_of_n,
                    s_to_v_latency_ps: token.s_to_v_latency_ps,
                    done_latency_ps: token.done_latency_ps,
                    v_to_s_latency_ps: token.v_to_s_latency_ps,
                    cycle_time_ps,
                    probes: token.probes,
                });
            }
        }

        // Slice stepping bypasses the per-settle metrics flush; ship
        // the train's engine deltas (and count its completed cycles)
        // before handing results back.
        if let Some(metrics) = self.inner.protocol_metrics() {
            metrics.cycles.add(results.len() as u64);
        }
        self.inner.sim_mut().flush_metrics();

        Ok(results)
    }
}

impl<'a> WorkerDriver<'a> for SlicedPipelinedProtocolDriver<'a> {
    type Replica = SlicedSimulator<'a>;

    fn run_chunk(&mut self, train: &[Vec<bool>]) -> Vec<Result<OperandResult, DualRailError>> {
        per_operand(self.run_train(train), train.len())
    }

    fn attach_protocol_metrics(&mut self, handles: tm_obs::ProtocolMetrics) {
        self.inner.attach_protocol_metrics(handles);
    }

    fn is_idle_at(&self, snapshot: &[Logic]) -> bool {
        self.inner.is_idle_at(snapshot)
    }

    fn pipeline(&self) -> Option<PipelineConfig> {
        Some(self.config)
    }
}
