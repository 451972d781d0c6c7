//! The wavefront-pipelined four-phase protocol driver: the spacer wave
//! of operand `k` chases its data wave through the combinational cloud,
//! and operand `k+1` is injected as soon as the measured separation
//! gaps and the input-stage acknowledge allow — instead of waiting for
//! the global `done` round-trip.
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
//! # Profile-guided scheduling
//!
//! Static separation bounds must pair the *latest* possible activity
//! of one token against the *earliest* possible activity of the next,
//! over all operand pairs.  On datapaths whose final decision gates
//! have a wide arrival spread (a majority-vote comparator does), that
//! pessimism eats most of the pipelining headroom.  The
//! [`PipelinedProtocolDriver`] therefore runs every train twice:
//!
//! 1. **Profile pass** — each token runs the exact contract-mode
//!    serial cycle while the driver records every net's measured rise
//!    time (relative to the injection edge) and fall time (relative to
//!    the spacer edge), a [`TokenProfile`].  This pass *is* the serial
//!    protocol: it fixes the decoded outcomes and the serial latency
//!    figures, and fails with the serial driver's own typed errors.
//!
//!    The pass runs on the 64-lane sliced engine, one lane per token:
//!    every lane injects at time zero, and each lane's spacer edge is
//!    driven at that lane's own valid-settle time, lanes with equal
//!    times together, so every rise and fall time is the scalar
//!    engine's bit for bit (the lanes' pop sequences are the scalar
//!    ones, computed with the same float sums).  An opt-in change
//!    recorder on [`SlicedSimulator`] supplies the per-lane, all-net
//!    history.  A train with a fault plan installed, or one that fails
//!    any check of the serial pass on any lane, is profiled serially
//!    on the scalar simulator instead — which is where its typed error
//!    comes from.
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
//! watchdog trips).  A train-level transition-count audit (each
//! observed rail switches exactly twice per token that activated it)
//! cross-checks the replay against the simulator's own activity
//! counters.

use std::sync::Arc;

use celllib::Library;
use gatesim::{lane_mask, Logic, Simulator, SlicedSimulator, StepOutcome};
use netlist::{CellKind, NetId};

use crate::parallel::{per_operand, WorkerDriver};
use crate::protocol::ProtocolDriver;
use crate::sliced::SlicedProtocolDriver;
use crate::{decode, DualRailError, DualRailNetlist, DualRailValue, OperandResult};

/// Slack on the replay match: a replayed event lands at `A_k + d₁ + …`
/// while its profile time is `d₁ + …` shifted by `A_k` afterwards, and
/// the two float sums may round differently.
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
    /// return-to-zero wave overlap, but each next injection also waits
    /// for the token before last to drain completely, on top of the
    /// measured gaps.
    #[default]
    Two,
    /// As deep as the measured separation gaps allow: each token is
    /// injected at its per-token-pair gap alone.  The gaps cover every
    /// cell, the completion network included, so `done` stays
    /// token-resolved and per-token `done` latency is reported here
    /// too.
    Max,
}

/// Tuning knobs for the wavefront-pipelined driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelineConfig {
    /// Tokens kept in flight (see [`Occupancy`]).
    pub occupancy: Occupancy,
    /// Tokens per train.  A train shares in-flight circuit state, so it
    /// is the unit of profiling, of sharding and of the
    /// transition-count audit.
    pub train_length: usize,
    /// Fractional safety margin applied to both measured separation
    /// gaps of every token pair (before the fixed slice pad).  Must be
    /// finite and non-negative; [`PipelinedProtocolDriver::run_train`]
    /// rejects any other value before simulating.
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

impl PipelineConfig {
    /// Rejects a separation margin that is not a finite non-negative
    /// fraction (the rule lint `T203` applies statically): the gaps it
    /// widens would be infinite or NaN, and so would every injection
    /// time after the first.
    fn check(&self) -> Result<(), DualRailError> {
        let margin = self.separation_margin;
        if margin.is_finite() && margin >= 0.0 {
            Ok(())
        } else {
            Err(DualRailError::InvalidSeparationMargin(margin))
        }
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

/// One activation of a watched net, phase-relative: when the data wave
/// moved it off its spacer level and when the return-to-zero wave
/// brought it back.
type Activation = (f64, f64);

/// One token's measured wave profile from the profile pass of
/// [`PipelinedProtocolDriver`]: per-net change times for the data wave
/// (relative to the injection edge) and for the return-to-zero wave
/// (relative to the spacer edge), each indexed by [`NetId::index`].
/// `INFINITY` marks a net the token never moved.
#[derive(Clone, Debug, PartialEq)]
pub struct TokenProfile {
    /// Per net: when the valid wave switched it, after injection.
    pub rise_rel_ps: Vec<f64>,
    /// Per net: when the return-to-zero wave switched it back, after
    /// the spacer edge.
    pub fall_rel_ps: Vec<f64>,
    /// Spacer-phase settle time (the maximum fall): when the token has
    /// fully drained from the circuit.
    pub drain_rel_ps: f64,
    /// Valid-phase settle time: when the last event of the data wave
    /// applied, which is where the serial cycle drives the spacer.
    pub settle_ps: f64,
}

/// The wavefront injection schedule of a train, built token by token
/// as the profiles arrive.  Per cell and consecutive token pair:
///
/// * the spacer wave of token `k` may first touch a cell only after
///   the cell's token-`k` rise activity (output *and* inputs — a cell
///   whose output never switches still constrains its input pair) has
///   ended, giving the valid→spacer offset `g₁ₖ`;
/// * token `k+1`'s data wave may first touch a cell only after the
///   latest *pending* fall activity there has drained, giving the
///   injection gap `g₂ₖ`.  Pending falls are tracked per cell across
///   tokens, so a wave also clears falls left by earlier tokens at
///   cells the intervening tokens never exercised.
///
/// Each gap gets the configured multiplicative safety margin plus the
/// fixed [`GAP_PAD_PS`] slice-separation pad.  At [`Occupancy::Two`]
/// the next injection additionally waits for token `k-1` to drain
/// completely, capping the train at two tokens in flight.
struct WavefrontSchedule {
    margin: f64,
    occupancy: Occupancy,
    /// Per scheduled cell: the latest pending fall, absolute.
    pending: Vec<f64>,
    /// Per scheduled cell: the newest token's latest fall, relative to
    /// its spacer edge.
    late_fall: Vec<f64>,
    /// Per token: the injection edge `A_k`.
    inject_at: Vec<f64>,
    /// Per token: the spacer edge `B_k`.
    spacer_at: Vec<f64>,
    /// Per token: the drain time of its spacer wave.
    drain_ps: Vec<f64>,
}

impl WavefrontSchedule {
    fn new(config: &PipelineConfig, cells: usize) -> Self {
        Self {
            margin: config.separation_margin,
            occupancy: config.occupancy,
            pending: vec![f64::NEG_INFINITY; cells],
            late_fall: vec![f64::NEG_INFINITY; cells],
            inject_at: Vec::new(),
            spacer_at: Vec::new(),
            drain_ps: Vec::new(),
        }
    }

    fn widen(&self, raw: f64) -> f64 {
        raw.max(0.0).mul_add(1.0 + self.margin, GAP_PAD_PS)
    }

    /// Schedules the next token from its profile: one pass over the
    /// cells fixes the previous token's injection gap `g₂` (from this
    /// token's first rises) and this token's spacer offset `g₁`.
    fn push(&mut self, cells: &ScheduleCells, profile: &TokenProfile) {
        let (rise, fall) = (&profile.rise_rel_ps, &profile.fall_rel_ps);
        let previous = self.spacer_at.last().copied();
        let mut g1 = 0.0f64;
        let mut required = f64::NEG_INFINITY;
        for (c, &out) in cells.outputs.iter().enumerate() {
            let out = out as usize;
            let mut first_fall = f64::INFINITY;
            let mut late_rise = later(f64::NEG_INFINITY, rise[out]);
            let mut late_fall = later(f64::NEG_INFINITY, fall[out]);
            let mut first_rise = f64::INFINITY;
            for &n in cells.inputs(c) {
                let n = n as usize;
                first_fall = first_fall.min(fall[n]);
                late_rise = later(late_rise, rise[n]);
                late_fall = later(late_fall, fall[n]);
                first_rise = first_rise.min(rise[n]);
            }
            // Unmoved nets are +inf and unset pending falls -inf, so a
            // difference involving either is -inf and leaves the
            // maximum alone: no branch on the data.
            g1 = g1.max(late_rise - first_fall);
            if let Some(b_prev) = previous {
                let moved = self.late_fall[c];
                if moved.is_finite() {
                    self.pending[c] = b_prev + moved;
                }
                required = required.max(self.pending[c] - first_rise);
            }
            self.late_fall[c] = late_fall;
        }
        let a_k = match previous {
            None => 0.0,
            Some(b_prev) => {
                let g2 = if required.is_finite() {
                    required - b_prev
                } else {
                    0.0
                };
                let mut a_k = b_prev + self.widen(g2);
                let k = self.spacer_at.len();
                if self.occupancy == Occupancy::Two && k >= 2 {
                    a_k = a_k.max(self.spacer_at[k - 2] + self.drain_ps[k - 2] + GAP_PAD_PS);
                }
                a_k
            }
        };
        self.inject_at.push(a_k);
        self.spacer_at.push(a_k + self.widen(g1));
        self.drain_ps.push(profile.drain_rel_ps);
    }

    /// The most tokens in flight at once: token `k` occupies the
    /// circuit from its injection `A_k` until its spacer wave has
    /// drained at `B_k + drain_k`, so the count peaks at an injection.
    fn occupancy(&self) -> usize {
        (0..self.inject_at.len())
            .map(|k| {
                (0..=k)
                    .filter(|&j| self.spacer_at[j] + self.drain_ps[j] > self.inject_at[k])
                    .count()
            })
            .max()
            .unwrap_or(0)
    }
}

/// A token's profile restricted to the decode nets, slot by slot.
struct DecodeTimes {
    rise: Vec<f64>,
    fall: Vec<f64>,
}

impl DecodeTimes {
    fn of(profile: &TokenProfile, nets: &[NetId]) -> Self {
        Self {
            rise: nets
                .iter()
                .map(|n| profile.rise_rel_ps[n.index()])
                .collect(),
            fall: nets
                .iter()
                .map(|n| profile.fall_rel_ps[n.index()])
                .collect(),
        }
    }
}

impl TokenProfile {
    /// A profile of `nets` nets that no wave has moved yet.
    fn unmoved(nets: usize) -> Self {
        Self {
            rise_rel_ps: vec![f64::INFINITY; nets],
            fall_rel_ps: vec![f64::INFINITY; nets],
            drain_rel_ps: 0.0,
            settle_ps: 0.0,
        }
    }
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

/// The nets a transition log records: the `watched` nets (see
/// [`watched_nets`]), each with its quiescent level.  Nets whose
/// quiescent level is unknown are unobservable and stay out, mirroring
/// the serial driver reading their settled `X` directly.
fn log_nets(watched: &[NetId], snapshot: &[Logic]) -> Vec<(NetId, Logic)> {
    watched
        .iter()
        .map(|&net| (net, snapshot[net.index()]))
        .filter(|&(_, quiet)| quiet != Logic::Unknown)
        .collect()
}

/// The input-stage acknowledge set: the output of every cell whose
/// inputs are all primary inputs (the C-element latch layer on latched
/// circuits), with its quiescent level.  The stage's return to that
/// level is the dynamic injection acknowledge.
fn stage_levels(nl: &netlist::Netlist, snapshot: &[Logic]) -> Vec<(NetId, Logic)> {
    nl.cells()
        .filter(|(_, c)| {
            !c.inputs().is_empty() && c.inputs().iter().all(|&n| nl.is_primary_input(n))
        })
        .map(|(_, c)| (c.output(), snapshot[c.output().index()]))
        .collect()
}

/// Per-slice transition recorder over the log nets (see [`log_nets`]):
/// the raw material the replay check matches against the profiles.
struct TransitionLog<'n> {
    nets: &'n [(NetId, Logic)],
    values: Vec<Logic>,
    events: Vec<Vec<(f64, Logic)>>,
}

impl<'n> TransitionLog<'n> {
    fn new(nets: &'n [(NetId, Logic)], sim: &Simulator<'_>) -> Self {
        Self {
            nets,
            values: nets.iter().map(|&(net, _)| sim.value(net)).collect(),
            events: vec![Vec::new(); nets.len()],
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

/// One token decoded from its profiled activations.
struct TokenView {
    outputs: Vec<bool>,
    one_of_n: Vec<(String, usize)>,
    probes: Vec<(String, DualRailValue)>,
    s_to_v_latency_ps: f64,
    done_latency_ps: Option<f64>,
    v_to_s_latency_ps: f64,
}

/// Decodes one token from its per-net activations, replicating the
/// serial driver's codeword rules and latency definitions exactly.
fn assemble_token(
    circuit: &DualRailNetlist,
    snapshot: &[Logic],
    observed: &[NetId],
    done_net: Option<NetId>,
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

    let (outputs, one_of_n) = decode::decode_outputs(circuit, level)?;
    let probes = decode::decode_probes(circuit, level);

    let mut s_to_v = 0.0f64;
    let mut v_to_s = 0.0f64;
    for &net in observed {
        if let Some((rise, fall)) = activity(net) {
            s_to_v = s_to_v.max(rise);
            v_to_s = v_to_s.max(fall);
        }
    }
    let done_latency_ps = match done_net {
        Some(done) => match activity(done) {
            Some((rise, _)) => Some(rise),
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

/// Train-level transition-count audit: every observed rail must have
/// switched exactly twice per token that activated it, across the
/// whole drained train.
fn audit_transition_counts(
    circuit: &DualRailNetlist,
    snapshot: &[Logic],
    tokens: &[TokenView],
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

/// The full set of nets the transition log must observe, without
/// duplicates: decoded outputs, probes and `done`.
fn watched_nets(circuit: &DualRailNetlist) -> Vec<NetId> {
    let probes = circuit
        .probes()
        .iter()
        .flat_map(|(_, signal)| [signal.positive, signal.negative]);
    let done = circuit.done();
    let mut watched: Vec<NetId> = Vec::new();
    for net in circuit
        .observed_output_nets()
        .into_iter()
        .chain(probes)
        .chain(done)
    {
        if !watched.contains(&net) {
            watched.push(net);
        }
    }
    watched
}

/// The cells the wavefront schedule folds over — every cell with
/// inputs except flip-flops, in netlist order — as one flat CSR table
/// built once per driver, so the per-token schedule walks three arrays
/// instead of the netlist's per-cell input lists.
#[derive(Debug)]
struct ScheduleCells {
    /// Per scheduled cell: its output net index.
    outputs: Vec<u32>,
    /// Per scheduled cell `c`: its input net indices are
    /// `inputs[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    inputs: Vec<u32>,
}

impl ScheduleCells {
    fn new(nl: &netlist::Netlist) -> Self {
        let mut cells = Self {
            outputs: Vec::new(),
            offsets: vec![0],
            inputs: Vec::new(),
        };
        for (_, cell) in nl.cells() {
            if cell.inputs().is_empty() || cell.kind() == CellKind::Dff {
                continue;
            }
            let index = |net: NetId| u32::try_from(net.index()).expect("nets fit in u32");
            cells.outputs.push(index(cell.output()));
            cells.inputs.extend(cell.inputs().iter().map(|&n| index(n)));
            cells
                .offsets
                .push(u32::try_from(cells.inputs.len()).expect("pins fit in u32"));
        }
        cells
    }

    fn inputs(&self, cell: usize) -> &[u32] {
        &self.inputs[self.offsets[cell] as usize..self.offsets[cell + 1] as usize]
    }
}

/// Which wave a sliced profile pass is recording.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Valid,
    Spacer,
}

/// Tokens per word of the sliced profile pass: one default train.
/// Lanes injected together share their valid-phase events, but a
/// word's lane profiles and valid-phase queue are alive at once, so
/// the word stays at the train size the pipelined runs use.
const PROFILE_LANES: usize = 16;

/// Changes the sliced profile pass lets the recorder hold before it
/// folds them into the profiles, bounding the recorder at a few tens
/// of KiB whatever the word and the netlist.
const CHANGE_BATCH: usize = 512;

/// One lane's profile as the sliced pass records it: the nets each
/// wave moved, in the order they moved, and when.  A token moves about
/// a third of the nets, so a word of these is far smaller than a word
/// of [`TokenProfile`]s.
#[derive(Clone)]
struct LaneProfile {
    rise_nets: Vec<u32>,
    rise_ps: Vec<f64>,
    fall_nets: Vec<u32>,
    fall_ps: Vec<f64>,
    /// One bit per net: moved in the current phase.
    moved: Vec<u64>,
    settle_ps: f64,
    drain_rel_ps: f64,
}

impl LaneProfile {
    fn new(nets: usize) -> Self {
        Self {
            rise_nets: Vec::new(),
            rise_ps: Vec::new(),
            fall_nets: Vec::new(),
            fall_ps: Vec::new(),
            moved: vec![0; nets.div_ceil(64)],
            settle_ps: 0.0,
            drain_rel_ps: 0.0,
        }
    }

    /// Writes this profile into `dense`, an unmoved [`TokenProfile`],
    /// hands it to `f`, and wipes it back to unmoved.
    fn expand<R>(&self, dense: &mut TokenProfile, f: impl FnOnce(&TokenProfile) -> R) -> R {
        for (&net, &t) in self.rise_nets.iter().zip(&self.rise_ps) {
            dense.rise_rel_ps[net as usize] = t;
        }
        for (&net, &t) in self.fall_nets.iter().zip(&self.fall_ps) {
            dense.fall_rel_ps[net as usize] = t;
        }
        dense.settle_ps = self.settle_ps;
        dense.drain_rel_ps = self.drain_rel_ps;
        let result = f(dense);
        for &net in &self.rise_nets {
            dense.rise_rel_ps[net as usize] = f64::INFINITY;
        }
        for &net in &self.fall_nets {
            dense.fall_rel_ps[net as usize] = f64::INFINITY;
        }
        result
    }
}

/// Folds the recorded changes into the lanes' profiles — rise times
/// for the valid wave; fall times, relative to each lane's own spacer
/// edge, and the drain time for the spacer wave — and empties the
/// recorder.  `None` if a net switches twice in one phase, or a lane
/// outside the word moves.
fn take_changes(
    sim: &mut SlicedSimulator<'_>,
    lanes: &mut [LaneProfile],
    phase: Phase,
) -> Option<()> {
    for &(net, mut changed, t) in sim.changes() {
        let (word, bit) = (net.index() / 64, 1u64 << (net.index() % 64));
        let index = u32::try_from(net.index()).expect("nets fit in u32");
        while changed != 0 {
            let lane = changed.trailing_zeros() as usize;
            changed &= changed - 1;
            let profile = lanes.get_mut(lane)?;
            if profile.moved[word] & bit != 0 {
                return None;
            }
            profile.moved[word] |= bit;
            match phase {
                Phase::Valid => {
                    profile.rise_nets.push(index);
                    profile.rise_ps.push(t);
                }
                Phase::Spacer => {
                    let fall = t - profile.settle_ps;
                    profile.fall_nets.push(index);
                    profile.fall_ps.push(fall);
                    profile.drain_rel_ps = profile.drain_rel_ps.max(fall);
                }
            }
        }
    }
    sim.clear_changes();
    Some(())
}

/// Steps one time slice of `phase`, folding the recorder into the
/// profiles once it holds [`CHANGE_BATCH`] changes; `None` on a
/// watchdog trip or a net switching twice.
fn step(
    sim: &mut SlicedSimulator<'_>,
    budget: &mut u64,
    profiles: &mut [LaneProfile],
    phase: Phase,
) -> Option<()> {
    if !matches!(sim.step_time_slice(budget), StepOutcome::Advanced { .. }) {
        return None;
    }
    if sim.changes().len() >= CHANGE_BATCH {
        take_changes(sim, profiles, phase)?;
    }
    Some(())
}

/// `acc` raised to `t`, unless `t` is infinite (a net the wave never
/// moved).
fn later(acc: f64, t: f64) -> f64 {
    acc.max(if t.is_finite() { t } else { f64::NEG_INFINITY })
}

/// Profiles one word of up to [`PROFILE_LANES`] tokens on `profiler`,
/// one lane per token, with every check of the serial pass; `None` if
/// any lane fails one.
///
/// Every lane injects at time zero, so rise times match the scalar
/// pass as they stand.  The scalar pass drives each spacer at its own
/// valid-settle time `t1` (the scalar `now_ps`, which is the lane's
/// [`SlicedSimulator::lane_now_ps`]), so the spacer goes in lane group
/// by lane group in ascending `t1`, each group in a frame rebased so
/// that its edge sits at exactly its `t1`: every fall event is then the
/// same float sum `t1 + d₁ + d₂ …` the scalar engine computes.
fn profile_word(
    profiler: &mut SlicedProtocolDriver<'_>,
    word: &[Vec<bool>],
    snapshot: &[Logic],
) -> Option<Vec<LaneProfile>> {
    let circuit = profiler.circuit();
    let done = circuit.done();
    let run = lane_mask(word.len());

    let nets = circuit.netlist().net_count();
    let mut profiles = vec![LaneProfile::new(nets); word.len()];

    // Phase 1: spacer -> valid, every lane at t = 0.  Each settle steps
    // slice by slice under one event budget, the scalar settle's bound:
    // a lane's pops are a subset of the merged pops.
    let sim = profiler.sim_mut();
    if sim.has_pending_events() {
        return None;
    }
    sim.reset_time();
    sim.clear_changes();
    let mut budget = sim.event_limit();
    profiler.drive_valid_planes(word, run);
    while profiler.sim().has_pending_events() {
        step(profiler.sim_mut(), &mut budget, &mut profiles, Phase::Valid)?;
    }
    take_changes(profiler.sim_mut(), &mut profiles, Phase::Valid)?;
    let sim = profiler.sim();
    for (lane, profile) in profiles.iter_mut().enumerate() {
        decode::decode_outputs(profiler.circuit(), profiler.lane_reader(lane)).ok()?;
        if done.is_some_and(|done| !sim.value(done, lane).is_one()) {
            return None;
        }
        profile.settle_ps = sim.lane_now_ps(lane);
    }

    // Phase 2: valid -> spacer, one group of lanes with equal t1 at a
    // time.  Lanes of different groups never share an event anyway, so
    // each group settles alone; the queue then holds one group's wave
    // instead of every lane's.
    for profile in &mut profiles {
        profile.moved.fill(0);
    }
    let settle: Vec<f64> = profiles.iter().map(|p| p.settle_ps).collect();
    let mut order: Vec<usize> = (0..word.len()).collect();
    order.sort_by(|&a, &b| settle[a].total_cmp(&settle[b]));
    for group in order.chunk_by(|&a, &b| settle[a] == settle[b]) {
        let sim = profiler.sim_mut();
        sim.reset_time();
        sim.advance_to(settle[group[0]]);
        let mut budget = sim.event_limit();
        profiler.drive_spacer_planes(group.iter().fold(0, |mask, &lane| mask | 1 << lane));
        while profiler.sim().has_pending_events() {
            step(
                profiler.sim_mut(),
                &mut budget,
                &mut profiles,
                Phase::Spacer,
            )?;
        }
    }
    take_changes(profiler.sim_mut(), &mut profiles, Phase::Spacer)?;
    let sim = profiler.sim();
    for lane in 0..word.len() {
        decode::check_outputs_at_spacer(profiler.circuit(), profiler.lane_reader(lane)).ok()?;
        if done.is_some_and(|done| !sim.value(done, lane).is_zero()) {
            return None;
        }
    }
    if sim.lane_state_mismatch(snapshot, !0).is_some() {
        return None;
    }
    Some(profiles)
}

/// The wavefront-pipelined four-phase protocol driver: tokens flow
/// through the datapath separated by the measured `g₁`/`g₂` gaps and
/// the dynamic input-stage acknowledge instead of the global `done`
/// round-trip.
///
/// See the [module documentation](self) for the schedule and the
/// checking model, and
/// [`crate::ParallelProtocolDriver::run_workload_pipelined`] for the
/// sharded entry point.
#[derive(Debug)]
pub struct PipelinedProtocolDriver<'a> {
    inner: ProtocolDriver<'a>,
    config: PipelineConfig,
    snapshot: Arc<[Logic]>,
    horizon_ps: Option<f64>,
    /// The decoded output nets, in the serial driver's order.
    observed: Vec<NetId>,
    /// The nets the replay check and the decode read profile times
    /// of (see [`watched_nets`]).
    decode_nets: Vec<NetId>,
    /// Per net: its slot in `decode_nets` (see [`slots_of`]).
    decode_slots: Vec<u32>,
    /// The replay log's nets (see [`log_nets`]), `done` included.
    log_nets: Vec<(NetId, Logic)>,
    /// The input-stage acknowledge set with its quiescent levels.
    stage: Vec<(NetId, Logic)>,
    /// The cells the wavefront schedule folds over.
    cells: ScheduleCells,
    /// The 64-lane profile engine over the same program, built by the
    /// first train that can use it and dropped after any sliced
    /// profile that fails.
    profiler: Option<SlicedProtocolDriver<'a>>,
    /// Whether a non-empty fault plan is installed: faulted trains
    /// profile on the scalar simulator, where the plan lives.
    faulted: bool,
    /// The most tokens any train run since the last
    /// [`WorkerDriver::take_occupancy`] held in flight at once.
    occupancy: usize,
}

impl<'a> PipelinedProtocolDriver<'a> {
    /// Creates a pipelined driver at `library`'s delays.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolDriver::new`] initialisation errors.
    pub fn new(
        circuit: &'a DualRailNetlist,
        library: &Library,
        config: PipelineConfig,
    ) -> Result<Self, DualRailError> {
        let inner = ProtocolDriver::new(circuit, library)?;
        Ok(Self::from_driver(inner, config))
    }

    /// Creates a pipelined driver around an existing simulator
    /// instance — the worker-side constructor for
    /// [`crate::ParallelProtocolDriver::run_workload_pipelined`], whose
    /// train runner hands a worker with no pooled driver a fresh
    /// replicated simulator.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolDriver::from_simulator`] initialisation
    /// errors.
    pub fn from_simulator(
        circuit: &'a DualRailNetlist,
        sim: Simulator<'a>,
        config: PipelineConfig,
    ) -> Result<Self, DualRailError> {
        let inner = ProtocolDriver::from_simulator(circuit, sim)?;
        Ok(Self::from_driver(inner, config))
    }

    fn from_driver(mut inner: ProtocolDriver<'a>, config: PipelineConfig) -> Self {
        let snapshot = inner.quiescent_snapshot();
        inner.enable_reset_contract(Arc::clone(&snapshot));
        let circuit = inner.circuit();
        let observed = circuit.observed_output_nets();
        let decode_nets = watched_nets(circuit);
        let decode_slots = slots_of(decode_nets.iter().copied(), circuit.netlist().net_count());
        let log_nets = log_nets(&decode_nets, &snapshot);
        let stage = stage_levels(circuit.netlist(), &snapshot);
        let cells = ScheduleCells::new(circuit.netlist());
        Self {
            inner,
            config,
            snapshot,
            horizon_ps: None,
            observed,
            decode_nets,
            decode_slots,
            log_nets,
            stage,
            cells,
            profiler: None,
            faulted: false,
            occupancy: 0,
        }
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
    /// exceed a token's injection interval plus its settle time, or
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
    /// (see [`ProtocolDriver::attach_wave_probe`]).  The probe records
    /// the overlapped replay, plus any train profiled serially there.
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
    /// a silently altered outcome.  A faulted driver profiles serially
    /// on the scalar simulator, where the plan lives.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SimulationDiverged`] if the faulted
    /// circuit cannot settle.
    pub fn set_fault_plan(&mut self, plan: &gatesim::FaultPlan) -> Result<(), DualRailError> {
        self.faulted = !plan.is_empty();
        self.inner.set_fault_plan(plan)?;
        self.snapshot = self.inner.quiescent_snapshot();
        self.log_nets = log_nets(&self.decode_nets, &self.snapshot);
        self.stage = stage_levels(self.inner.circuit().netlist(), &self.snapshot);
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
    /// Returns [`DualRailError::InvalidSeparationMargin`] before any
    /// simulation if the configured margin is negative, infinite or
    /// NaN.  Otherwise the first failing check aborts the train: decode
    /// errors ([`DualRailError::IllegalCodeword`]), protocol violations
    /// (missing `done` edges, mistimed or surplus transitions, an input
    /// stage that never acknowledges), watchdog trips
    /// ([`DualRailError::SimulationDiverged`]) and reset-contract
    /// breaks ([`DualRailError::SpacerStateMismatch`]).
    pub fn run_train(
        &mut self,
        operands: &[Vec<bool>],
    ) -> Result<Vec<OperandResult>, DualRailError> {
        self.config.check()?;
        if self.config.occupancy == Occupancy::One {
            let results = operands
                .iter()
                .map(|operand| self.inner.apply_operand(operand))
                .collect::<Result<Vec<_>, _>>()?;
            self.occupancy = self.occupancy.max(usize::from(!results.is_empty()));
            return Ok(results);
        }
        self.run_train_wavefront(operands)
    }

    #[allow(clippy::too_many_lines)]
    fn run_train_wavefront(
        &mut self,
        operands: &[Vec<bool>],
    ) -> Result<Vec<OperandResult>, DualRailError> {
        self.check_widths(operands)?;
        if operands.is_empty() {
            return Ok(Vec::new());
        }
        let (schedule, times) = self.profile_and_schedule(operands)?;
        let occupancy = schedule.occupancy();
        let WavefrontSchedule {
            inject_at,
            spacer_at,
            ..
        } = schedule;
        let slot = |net: NetId| self.decode_slots[net.index()] as usize;

        let circuit = self.inner.circuit();
        let done_net = circuit.done();

        // Pass 2: wavefront replay at the profiled schedule.
        {
            let sim = self.inner.sim_mut();
            if sim.has_pending_events() {
                return Err(DualRailError::SimulationDiverged);
            }
            sim.clear_activity();
            sim.reset_time();
        }
        let mut log = TransitionLog::new(&self.log_nets, self.inner.sim());
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
                    if self
                        .stage
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
            for (k, token) in times.iter().enumerate() {
                let rise = token.rise[slot(net)];
                if rise.is_finite() {
                    expected.push((inject_at[k] + rise, active));
                    expected.push((spacer_at[k] + token.fall[slot(net)], quiet));
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
        decode::check_outputs_at_spacer(self.inner.circuit(), self.inner.reader())?;
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
        let mut tokens = Vec::with_capacity(times.len());
        for token in &times {
            let activity = |net: NetId| -> Option<Activation> {
                let rise = token.rise[slot(net)];
                rise.is_finite().then(|| (rise, token.fall[slot(net)]))
            };
            tokens.push(assemble_token(
                circuit,
                &self.snapshot,
                &self.observed,
                done_net,
                &activity,
            )?);
        }
        if self.inner.monotonicity_check() {
            audit_transition_counts(circuit, &self.snapshot, &tokens, |net| {
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
        // The replay's queue burst would otherwise stay allocated
        // through the next train's profile pass and add to its peak.
        self.inner.sim_mut().shrink_queue();
        self.occupancy = self.occupancy.max(occupancy);

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

    /// Pass 1: profiling, on the 64-lane engine whenever it applies and
    /// serially on the scalar simulator otherwise.  Either way the
    /// profiles are the serial protocol's, bit for bit, so they fix the
    /// decoded outcomes and the serial latencies the train reports; a
    /// train the sliced pass cannot vouch for is re-profiled serially
    /// and fails with the serial driver's own typed errors.
    ///
    /// Each profile feeds the schedule as it arrives and is then cut
    /// down to the decode nets' times, so at most one word of profiles
    /// is alive at a time.
    fn profile_and_schedule(
        &mut self,
        operands: &[Vec<bool>],
    ) -> Result<(WavefrontSchedule, Vec<DecodeTimes>), DualRailError> {
        let mut schedule = WavefrontSchedule::new(&self.config, self.cells.outputs.len());
        let mut times = Vec::with_capacity(operands.len());
        if let Some(mut profiler) = self.take_profiler() {
            let mut dense = TokenProfile::unmoved(self.inner.circuit().netlist().net_count());
            let mut vouched = true;
            for word in operands.chunks(PROFILE_LANES) {
                let Some(lanes) = profile_word(&mut profiler, word, &self.snapshot) else {
                    vouched = false;
                    break;
                };
                for lane in &lanes {
                    lane.expand(&mut dense, |profile| {
                        self.absorb(&mut schedule, &mut times, profile);
                    });
                }
            }
            if vouched {
                // Between trains the profiler's queue capacity would only
                // add to the replay's peak memory; the next word regrows
                // it.
                profiler.sim_mut().shrink_queue();
                self.profiler = Some(profiler);
                return Ok((schedule, times));
            }
            schedule = WavefrontSchedule::new(&self.config, self.cells.outputs.len());
            times.clear();
        }
        for operand in operands {
            let profile = self.profile_token(operand)?;
            self.absorb(&mut schedule, &mut times, &profile);
        }
        Ok((schedule, times))
    }

    /// Feeds one token's profile to the schedule and keeps its
    /// decode-net times.
    fn absorb(
        &self,
        schedule: &mut WavefrontSchedule,
        times: &mut Vec<DecodeTimes>,
        profile: &TokenProfile,
    ) {
        schedule.push(&self.cells, profile);
        times.push(DecodeTimes::of(profile, &self.decode_nets));
    }

    fn check_widths(&self, operands: &[Vec<bool>]) -> Result<(), DualRailError> {
        let expected = self.inner.circuit().input_count();
        match operands.iter().find(|operand| operand.len() != expected) {
            Some(operand) => Err(DualRailError::OperandWidthMismatch {
                expected,
                got: operand.len(),
            }),
            None => Ok(()),
        }
    }

    /// Runs only the profile pass of a train, serially on the scalar
    /// simulator: one exact contract-mode four-phase cycle per token,
    /// recording every net's rise and fall time.  This is the pass
    /// [`PipelinedProtocolDriver::run_train`] falls back to.
    ///
    /// # Errors
    ///
    /// The serial driver's typed errors, for the first failing token.
    pub fn profile_train(
        &mut self,
        operands: &[Vec<bool>],
    ) -> Result<Vec<TokenProfile>, DualRailError> {
        self.check_widths(operands)?;
        operands
            .iter()
            .map(|operand| self.profile_token(operand))
            .collect()
    }

    /// Runs only the profile pass of a train on the 64-lane engine, one
    /// lane per token and one word per 16 tokens — the pass
    /// [`PipelinedProtocolDriver::run_train`] takes whenever it can.
    /// The profiles are bit-identical to
    /// [`PipelinedProtocolDriver::profile_train`]'s.
    ///
    /// Returns `None` where `run_train` would profile serially instead:
    /// with a fault plan installed, with the scalar simulator away from
    /// the quiescent snapshot, with a wrong operand width, or when any
    /// lane fails any check of the serial pass.
    pub fn profile_train_sliced(&mut self, operands: &[Vec<bool>]) -> Option<Vec<TokenProfile>> {
        self.check_widths(operands).ok()?;
        let mut profiler = self.take_profiler()?;
        let mut dense = TokenProfile::unmoved(self.inner.circuit().netlist().net_count());
        let mut profiles = Vec::with_capacity(operands.len());
        for word in operands.chunks(PROFILE_LANES) {
            for lane in profile_word(&mut profiler, word, &self.snapshot)? {
                profiles.push(lane.expand(&mut dense, TokenProfile::clone));
            }
        }
        self.profiler = Some(profiler);
        Some(profiles)
    }

    /// Checks the 64-lane profile engine out for a train, building it
    /// on first use, or `None` where trains profile serially: with a
    /// fault plan installed, or with either simulator away from the
    /// quiescent snapshot.  The caller puts it back only
    /// after a profile that passed, so a failed profiler is rebuilt.
    ///
    /// Both engines start every token from the same verified quiescent
    /// state, and each lane's pop sequence is the scalar engine's for
    /// that token, so every check the serial pass makes holds for a
    /// lane exactly when it holds for the token.
    fn take_profiler(&mut self) -> Option<SlicedProtocolDriver<'a>> {
        if self.faulted || !self.inner.is_idle_at(&self.snapshot) {
            return None;
        }
        let mut profiler = match self.profiler.take() {
            Some(profiler) if profiler.is_idle_at(&self.snapshot) => profiler,
            _ => {
                let sim = SlicedSimulator::from_program(Arc::clone(self.inner.sim().program()));
                let circuit = self.inner.circuit();
                let snapshot = Arc::clone(&self.snapshot);
                let mut profiler =
                    SlicedProtocolDriver::from_sliced_simulator(circuit, sim, snapshot, true)
                        .ok()?;
                profiler.sim_mut().record_changes();
                profiler
            }
        };
        // The scalar watchdog bounds, so a lane that would trip the
        // serial watchdog trips this one: a lane's events are a subset
        // of the word's merged pops, in the same time frame.
        profiler.set_event_limit(self.inner.sim().event_limit());
        if let Some(horizon) = self.horizon_ps {
            profiler.set_time_horizon_ps(horizon);
        }
        Some(profiler)
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
        decode::decode_outputs(self.inner.circuit(), self.inner.reader())?;
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
        decode::check_outputs_at_spacer(self.inner.circuit(), self.inner.reader())?;
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
            settle_ps: t1,
        })
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
            && self
                .profiler
                .as_ref()
                .is_none_or(|profiler| profiler.is_idle_at(snapshot))
    }

    fn pipeline(&self) -> Option<PipelineConfig> {
        Some(self.config)
    }

    fn take_occupancy(&mut self) -> usize {
        std::mem::take(&mut self.occupancy)
    }
}

/// Marker in a per-net log-slot table for nets the log does not record.
const NO_SLOT: u32 = u32::MAX;

/// Per net: its position in `nets`, or [`NO_SLOT`].
fn slots_of(nets: impl Iterator<Item = NetId>, net_count: usize) -> Vec<u32> {
    let mut slots = vec![NO_SLOT; net_count];
    for (slot, net) in nets.enumerate() {
        slots[net.index()] = u32::try_from(slot).expect("nets fit in u32");
    }
    slots
}
