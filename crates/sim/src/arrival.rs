//! The queue-free arrival-time engine: one protocol phase in one
//! topological pass.
//!
//! A dual-rail protocol phase is early-propagative and monotone: from a
//! settled state every net moves at most once.  Under the event
//! engine's transport-delay semantics a net's one transition is then a
//! pure function of when its driver's inputs changed, so the event
//! queue is doing work a levelised pass can do directly.
//! [`ArrivalSim`] visits the cells of a shared [`EngineProgram`] in
//! topological order and, per cell, applies its input changes in time
//! order through a two-valued truth table over (inputs, previous
//! output), scheduling the output at the causing change's time plus the
//! program's `cell_delay_ps` — the same delay and the same float
//! addition [`crate::Simulator`] uses.  For each net it reports the
//! final value, the transition count and the last change; it also
//! reports the phase's `now_ps`, counting the no-op applies the event
//! engine counts.
//!
//! # Exact or declined
//!
//! The pass is bit-exact to [`crate::Simulator`] run from the same
//! state in a zero-based frame, or it refuses with an
//! [`ArrivalDecline`] and the caller reruns the work on the event
//! engine.  It declines on:
//!
//! * a flip-flop or a combinational cycle (at construction);
//! * an `X` in the loaded state or in the stimulus;
//! * any net switching twice in the phase;
//! * an order-dependent same-timestamp tie.
//!
//! A **tie** is a group of same-timestamp input changes to one cell.
//! The event engine evaluates the cell once per change, in queue pop
//! order, and the pass does not track pop order, so it accepts a tie
//! only when every order yields the same output sequence: with no
//! output event in flight, the outputs of every non-empty subset of
//! the group must run monotonically from the old value to the final
//! one; with an output event in flight, every non-empty subset must
//! already give the final value.  A group that coincides with an
//! output event of the same cell is declined outright (whether the
//! output applied first depends on pop order).  Event limits and time
//! horizons are the caller's to compare: [`ArrivalSim::event_bound`]
//! bounds the events the event engine would pop and
//! [`ArrivalSim::now_ps`] is the latest event time.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use netlist::{Netlist, CellKind};
//! use celllib::Library;
//! use gatesim::{ArrivalSim, EngineProgram, Logic, Simulator};
//!
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.add_cell("and", CellKind::And2, &[a, b]).unwrap();
//! nl.add_output("y", y);
//!
//! let lib = Library::umc_ll();
//! let program = Arc::new(EngineProgram::new(&nl, &lib));
//! let mut events = Simulator::from_program(Arc::clone(&program));
//! events.set_input(a, Logic::Zero);
//! events.set_input(b, Logic::Zero);
//! events.run_until_quiescent();
//! events.reset_time();
//!
//! let mut arrival = ArrivalSim::new(program).unwrap();
//! arrival.load_state(events.net_values()).unwrap();
//! arrival.run_phase(&[(a, Logic::One), (b, Logic::One)]).unwrap();
//! events.set_input(a, Logic::One);
//! events.set_input(b, Logic::One);
//! events.run_until_quiescent();
//! assert_eq!(arrival.value(y), events.value(y));
//! assert_eq!(arrival.last_change_ps(y), events.last_change_ps(y));
//! assert_eq!(arrival.now_ps(), events.now_ps());
//! ```

use std::sync::Arc;

use netlist::{topological_order, CellId, CellKind, NetId};

use crate::program::{EngineProgram, NO_DRIVER};
use crate::Logic;

/// Why [`ArrivalSim`] could not run a phase exactly.  The caller reruns
/// the work on the event engine, which stays the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalDecline {
    /// The netlist holds a flip-flop (edge semantics have no arrival
    /// form).
    FlipFlop,
    /// The netlist has a combinational cycle, or a cell drives a
    /// primary input.
    Cycle,
    /// The loaded state or the stimulus holds an `X`, or no state has
    /// been loaded since the last declined phase.
    Unknown,
    /// The stimulus drives one primary input twice.
    RepeatedInput(NetId),
    /// The net switched more than once in the phase.
    DoubleSwitch(NetId),
    /// Same-timestamp input changes to the cell whose outcome depends on
    /// the order the event queue would pop them in.
    TieOrder(CellId),
}

/// One cell in visit order, with everything the pass reads.
#[derive(Clone, Copy, Debug)]
struct ArrivalCell {
    id: u32,
    output: u32,
    pins_start: u32,
    arity: u8,
    sequential: bool,
    delay_ps: f64,
    /// Bit `code` is the output for input bits `code` (input `i` at bit
    /// `i`, the previous output at bit `arity` for C-elements).
    table: u64,
    /// Pins the output is negative unate in.
    negative: u8,
    /// Pins the output is binate in (neither positive nor negative
    /// unate).
    binate: u8,
}

impl ArrivalCell {
    #[inline]
    fn eval(&self, inputs: u32, prev: bool) -> bool {
        let code = if self.sequential {
            inputs | u32::from(prev) << self.arity
        } else {
            inputs
        };
        self.table >> code & 1 == 1
    }
}

/// Runs protocol phases of a compiled netlist as one topological pass
/// with no event queue, bit-exact to [`crate::Simulator`] or declined.
/// See the [module documentation](self) for the rules and an example.
#[derive(Debug)]
pub struct ArrivalSim<'a> {
    program: Arc<EngineProgram<'a>>,
    /// Cells with inputs, in topological order.
    cells: Vec<ArrivalCell>,
    /// Input nets of `cells`, concatenated in visit order.
    pins: Vec<u32>,
    /// Visit positions of every net's loads, in the program's CSR
    /// fanout layout.
    load_pos: Vec<u32>,
    /// One bit per visit position: cells with a changed input not yet
    /// visited this phase.
    dirty: Vec<u64>,
    /// Current two-valued state.
    values: Vec<bool>,
    /// Time of each net's change in the current phase; NaN = unchanged.
    changed_ps: Vec<f64>,
    /// Nets changed in the current phase, in change order.
    moved: Vec<u32>,
    /// Primary inputs the current stimulus drove (repeat detection).
    driven: Vec<bool>,
    now_ps: f64,
    event_bound: u64,
    /// Whether `values` holds a settled state (cleared by a decline).
    loaded: bool,
}

impl<'a> ArrivalSim<'a> {
    /// Compiles the visit order and per-cell two-valued truth tables
    /// from `program`.
    ///
    /// # Errors
    ///
    /// Returns [`ArrivalDecline::FlipFlop`] for a netlist with
    /// flip-flops and [`ArrivalDecline::Cycle`] for one with a
    /// combinational cycle or a cell driving a primary input.
    ///
    /// # Panics
    ///
    /// Panics if a cell has more than five inputs (no library kind
    /// does).
    pub fn new(program: Arc<EngineProgram<'a>>) -> Result<Self, ArrivalDecline> {
        let netlist = program.netlist;
        if program.cell_kind.contains(&CellKind::Dff) {
            return Err(ArrivalDecline::FlipFlop);
        }
        if program
            .primary_inputs
            .iter()
            .any(|n| program.driver_of[n.index()] != NO_DRIVER)
        {
            return Err(ArrivalDecline::Cycle);
        }
        let order = topological_order(netlist).map_err(|_| ArrivalDecline::Cycle)?;
        let mut cells = Vec::with_capacity(order.len());
        let mut pins = Vec::with_capacity(program.cell_input_nets.len());
        for id in order {
            let index = id.index();
            let start = program.cell_input_offsets[index] as usize;
            let end = program.cell_input_offsets[index + 1] as usize;
            if start == end {
                continue;
            }
            let kind = program.cell_kind[index];
            let arity = end - start;
            let sequential = kind.is_sequential();
            let digits = arity + usize::from(sequential);
            // One `u64` table per cell and the subset masks of the tie
            // check hold up to five inputs plus the previous output.
            assert!(
                arity <= HAS_PIN.len() && digits <= 6,
                "cell {index} has {arity} inputs; the arrival pass handles at most {}",
                HAS_PIN.len()
            );
            let lut = &program.lut_data[program.cell_lut[index] as usize..];
            let mut table = 0u64;
            for code in 0..1usize << digits {
                let base3: usize = (0..digits)
                    .map(|bit| (code >> bit & 1) * 3usize.pow(u32::try_from(bit).expect("small")))
                    .sum();
                match lut[base3] {
                    Logic::One => table |= 1 << code,
                    Logic::Zero => {}
                    Logic::Unknown => return Err(ArrivalDecline::Unknown),
                }
            }
            let (mut positive, mut negative) = (0u8, 0u8);
            for pin in 0..arity {
                let (mut rises, mut falls) = (false, false);
                for code in (0..1usize << digits).filter(|c| c >> pin & 1 == 0) {
                    let low = table >> code & 1;
                    let high = table >> (code | 1 << pin) & 1;
                    rises |= high > low;
                    falls |= high < low;
                }
                positive |= u8::from(!falls) << pin;
                negative |= u8::from(!rises && falls) << pin;
            }
            cells.push(ArrivalCell {
                id: u32::try_from(index).expect("cells fit in u32"),
                output: program.cell_output[index],
                pins_start: u32::try_from(pins.len()).expect("pins fit in u32"),
                arity: u8::try_from(arity).expect("small arity"),
                sequential,
                delay_ps: program.cell_delay_ps[index],
                table,
                negative,
                binate: !(positive | negative) & ((1u16 << arity) - 1) as u8,
            });
            pins.extend_from_slice(&program.cell_input_nets[start..end]);
        }
        let mut position = vec![u32::MAX; program.cell_kind.len()];
        for (pos, cell) in cells.iter().enumerate() {
            position[cell.id as usize] = u32::try_from(pos).expect("cells fit in u32");
        }
        let load_pos = program
            .fanout_loads
            .iter()
            .map(|(cell, _)| position[cell.index()])
            .collect();
        let dirty = vec![0; cells.len().div_ceil(64)];
        let nets = netlist.net_count();
        Ok(Self {
            program,
            cells,
            pins,
            load_pos,
            dirty,
            values: vec![false; nets],
            changed_ps: vec![f64::NAN; nets],
            moved: Vec::new(),
            driven: vec![false; nets],
            now_ps: 0.0,
            event_bound: 0,
            loaded: false,
        })
    }

    /// Loads a settled state (one value per net, e.g. a quiescent
    /// snapshot) as the start of the next phase.
    ///
    /// # Errors
    ///
    /// Returns [`ArrivalDecline::Unknown`] if any net is `X`.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one value per net.
    pub fn load_state(&mut self, state: &[Logic]) -> Result<(), ArrivalDecline> {
        assert_eq!(state.len(), self.values.len(), "one value per net");
        self.clear_phase();
        self.loaded = false;
        for (slot, &value) in self.values.iter_mut().zip(state) {
            *slot = value.to_option().ok_or(ArrivalDecline::Unknown)?;
        }
        self.loaded = true;
        Ok(())
    }

    /// Whether the current state equals `snapshot` on every net.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` does not have one value per net.
    #[must_use]
    pub fn state_matches(&self, snapshot: &[Logic]) -> bool {
        assert_eq!(snapshot.len(), self.values.len(), "one value per net");
        self.values
            .iter()
            .zip(snapshot)
            .all(|(&v, &s)| Logic::from(v) == s)
    }

    fn clear_phase(&mut self) {
        for &net in &self.moved {
            self.changed_ps[net as usize] = f64::NAN;
        }
        self.moved.clear();
        self.now_ps = 0.0;
        self.event_bound = 0;
    }

    fn record_change(&mut self, net: u32, value: bool, time_ps: f64) {
        let index = net as usize;
        self.values[index] = value;
        self.changed_ps[index] = time_ps;
        self.moved.push(net);
        let start = self.program.fanout_offsets[index] as usize;
        let end = self.program.fanout_offsets[index + 1] as usize;
        for &pos in &self.load_pos[start..end] {
            self.dirty[pos as usize >> 6] |= 1 << (pos & 63);
        }
        self.event_bound += 1 + (end - start) as u64;
    }

    /// Runs one phase from the current state in a zero-based frame:
    /// every `(input, value)` of `stimulus` is applied at time zero (an
    /// input already at its value is no change, as in
    /// [`crate::Simulator::set_input`]), then the pass settles the
    /// netlist.  On success the state is the settled end of the phase
    /// and the per-net accessors describe it; on a decline the state is
    /// invalid until the next [`ArrivalSim::load_state`].
    ///
    /// # Errors
    ///
    /// Returns the [`ArrivalDecline`] that made the phase inexact.
    ///
    /// # Panics
    ///
    /// Panics if a stimulus net is not a primary input.
    pub fn run_phase(&mut self, stimulus: &[(NetId, Logic)]) -> Result<(), ArrivalDecline> {
        if !self.loaded {
            return Err(ArrivalDecline::Unknown);
        }
        self.clear_phase();
        self.loaded = false;
        let outcome = self.apply_stimulus(stimulus).and_then(|()| self.settle());
        self.loaded = outcome.is_ok();
        if !self.loaded {
            self.dirty.iter_mut().for_each(|w| *w = 0);
        }
        outcome
    }

    fn apply_stimulus(&mut self, stimulus: &[(NetId, Logic)]) -> Result<(), ArrivalDecline> {
        let netlist = self.program.netlist;
        let mut outcome = Ok(());
        for &(net, value) in stimulus {
            assert!(
                netlist.is_primary_input(net),
                "net {net} is not a primary input"
            );
            let index = net.index();
            if std::mem::replace(&mut self.driven[index], true) {
                outcome = Err(ArrivalDecline::RepeatedInput(net));
                break;
            }
            let Some(value) = value.to_option() else {
                outcome = Err(ArrivalDecline::Unknown);
                break;
            };
            if self.values[index] != value {
                let net = u32::try_from(index).expect("nets fit in u32");
                self.record_change(net, value, 0.0);
            }
        }
        for &(net, _) in stimulus {
            self.driven[net.index()] = false;
        }
        outcome
    }

    /// The topological pass proper: visits every cell with a changed
    /// input, in topological order.
    fn settle(&mut self) -> Result<(), ArrivalDecline> {
        let mut word = 0;
        while word < self.dirty.len() {
            let bits = self.dirty[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            // Visiting a cell only marks later positions, possibly in
            // this same word, so the word is re-read every time.
            self.dirty[word] = bits & (bits - 1);
            let pos = word * 64 + bits.trailing_zeros() as usize;
            self.visit(pos)?;
        }
        Ok(())
    }

    /// Applies one cell's input changes in time order and settles its
    /// output.
    fn visit(&mut self, pos: usize) -> Result<(), ArrivalDecline> {
        let cell = self.cells[pos];
        let start = cell.pins_start as usize;
        let pins = &self.pins[start..start + usize::from(cell.arity)];
        let mut changed = 0u32;
        let mut bits = 0u32;
        // Earliest and latest input change (`min`/`max` skip the NaN of
        // unchanged inputs).
        let (mut first, mut latest) = (f64::INFINITY, f64::NEG_INFINITY);
        for (p, &net) in pins.iter().enumerate() {
            let net = net as usize;
            let t = self.changed_ps[net];
            bits |= u32::from(self.values[net]) << p;
            changed |= u32::from(!t.is_nan()) << p;
            first = first.min(t);
            latest = latest.max(t);
        }
        let single = first == latest;
        // Input bits before the phase: every changed pin flipped.
        let before = bits ^ changed;
        let old = self.values[cell.output as usize];
        let tie = |cur, last, in_flight, bits, group| {
            if tie_is_order_free(
                &cell,
                pins,
                Tie {
                    bits,
                    group,
                    cur,
                    last,
                    in_flight,
                },
            ) {
                Ok(())
            } else {
                Err(ArrivalDecline::TieOrder(CellId::from_index(
                    cell.id as usize,
                )))
            }
        };
        if single {
            // The common case: every change at one timestamp, so no
            // output event can be in flight.
            let last = cell.eval(bits, old);
            if changed & (changed - 1) != 0 {
                tie(old, last, false, before, changed)?;
            }
            if last != old {
                let at = first + cell.delay_ps;
                self.now_ps = self.now_ps.max(at);
                self.record_change(cell.output, last, at);
            }
            return Ok(());
        }

        // Output events scheduled so far: at most one block per group,
        // at nondecreasing times.
        let mut sched = [(0.0f64, false); CellKind::MAX_INPUTS];
        let mut scheduled = 0usize;
        let mut bits = before;
        let mut remaining = changed;
        while remaining != 0 {
            let mut t = f64::INFINITY;
            let mut rest = remaining;
            while rest != 0 {
                let p = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                t = t.min(self.changed_ps[pins[p] as usize]);
            }
            let mut group = 0u32;
            let mut rest = remaining;
            while rest != 0 {
                let p = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if self.changed_ps[pins[p] as usize] == t {
                    group |= 1 << p;
                }
            }
            remaining &= !group;

            // The output as the cell sees it at `t`, and whether an
            // output event is still in flight.
            let mut cur = old;
            let mut in_flight = false;
            for &(at, value) in &sched[..scheduled] {
                if at < t {
                    cur = value;
                } else if at == t {
                    return Err(ArrivalDecline::TieOrder(CellId::from_index(
                        cell.id as usize,
                    )));
                } else {
                    in_flight = true;
                }
            }
            let after = bits ^ group;
            let last = cell.eval(after, cur);
            if group & (group - 1) != 0 {
                tie(cur, last, in_flight, bits, group)?;
            }
            if in_flight || last != cur {
                sched[scheduled] = (t + cell.delay_ps, last);
                scheduled += 1;
            }
            bits = after;
        }

        let mut value = old;
        let mut flips = 0u32;
        let mut at = 0.0;
        for &(t, v) in &sched[..scheduled] {
            if v != value {
                value = v;
                flips += 1;
                at = t;
            }
        }
        if flips > 1 {
            return Err(ArrivalDecline::DoubleSwitch(NetId::from_index(
                cell.output as usize,
            )));
        }
        if scheduled > 0 {
            // Every scheduled event pops, no-ops included.
            self.now_ps = self.now_ps.max(sched[scheduled - 1].0);
        }
        if flips == 1 {
            self.record_change(cell.output, value, at);
        }
        Ok(())
    }

    /// Current value of `net`.
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range.
    #[must_use]
    pub fn value(&self, net: NetId) -> Logic {
        Logic::from(self.values[net.index()])
    }

    /// Value changes of `net` in the last phase (0 or 1: a second one
    /// declines the phase).
    #[must_use]
    pub fn transitions(&self, net: NetId) -> u64 {
        u64::from(!self.changed_ps[net.index()].is_nan())
    }

    /// Time of `net`'s change in the last phase, or `None` if it did
    /// not change.
    #[must_use]
    pub fn last_change_ps(&self, net: NetId) -> Option<f64> {
        let t = self.changed_ps[net.index()];
        (!t.is_nan()).then_some(t)
    }

    /// The last phase's clock: the latest time at which the event engine
    /// would have applied an event, no-op applies included (zero if
    /// nothing moved) — [`crate::Simulator::now_ps`] after a rebased
    /// settle.
    #[must_use]
    pub fn now_ps(&self) -> f64 {
        self.now_ps
    }

    /// An upper bound on the events the event engine pops for the last
    /// phase: one per changed net plus one per load of every changed
    /// net (each re-evaluation schedules at most one event).
    #[must_use]
    pub fn event_bound(&self) -> u64 {
        self.event_bound
    }
}

/// One same-timestamp group of input changes to a cell.
#[derive(Clone, Copy, Debug)]
struct Tie {
    /// Input bits before the group applies.
    bits: u32,
    /// The group's pins.
    group: u32,
    /// The output as the cell sees it while the group applies.
    cur: bool,
    /// The output after the whole group.
    last: bool,
    /// Whether an earlier output event is still in flight.
    in_flight: bool,
}

/// Whether `tie` gives the same output sequence in every pop order.
///
/// Coherent groups on unate pins — every change pushing the output the
/// same way — are monotone over the subsets of the group, so one
/// evaluation of the empty subset settles them; every other group is
/// checked subset by subset.
fn tie_is_order_free(cell: &ArrivalCell, pins: &[u32], tie: Tie) -> bool {
    let Tie {
        bits,
        group,
        cur,
        last,
        in_flight,
    } = tie;
    let pushes = ((bits ^ group) ^ u32::from(cell.negative)) & group;
    if u32::from(cell.binate) & group == 0 && (pushes == 0 || pushes == group) {
        let start = cell.eval(bits, cur);
        return if in_flight || last == cur {
            start == last
        } else {
            true
        };
    }
    // The group's nets as pin masks: pins reading one net change
    // together, so only unions of nets are reachable subsets.
    let mut nets = [0u32; CellKind::MAX_INPUTS];
    let mut count = 0usize;
    let mut rest = group;
    while rest != 0 {
        let p = rest.trailing_zeros() as usize;
        let mut net = 1 << p;
        for q in p + 1..pins.len() {
            if group >> q & 1 == 1 && pins[q] == pins[p] {
                net |= 1 << q;
            }
        }
        rest &= !net;
        nets[count] = net;
        count += 1;
    }
    // Bit `s`: pin mask `s` is reachable / evaluates to `last`.
    let (mut reachable, mut gives_last) = (0u32, 0u32);
    for subset in 1u32..1 << count {
        let s = (0..count)
            .filter(|&j| subset >> j & 1 == 1)
            .fold(0, |acc, j| acc | nets[j]);
        reachable |= 1 << s;
        gives_last |= u32::from(cell.eval(bits ^ s, cur) == last) << s;
    }
    if in_flight || last == cur {
        // Every evaluation is scheduled (in flight), or none may be
        // (no change): each reachable subset must give `last`.
        return gives_last == reachable;
    }
    // From the first evaluation that moves the output on, every later
    // one is scheduled: once a subset gives `last`, adding any further
    // net must keep it there.
    nets[..count].iter().all(|&net| {
        let disjoint = (0..5)
            .filter(|&p| net >> p & 1 == 1)
            .fold(!0u32, |acc, p| acc & !HAS_PIN[p]);
        ((gives_last & disjoint) << net) & !gives_last == 0
    })
}

/// Bit `s` of `HAS_PIN[p]` is set when pin mask `s` contains pin `p`.
const HAS_PIN: [u32; 5] = [
    0xAAAA_AAAA,
    0xCCCC_CCCC,
    0xF0F0_F0F0,
    0xFF00_FF00,
    0xFFFF_0000,
];

#[cfg(test)]
mod tests {
    use super::*;
    use celllib::Library;
    use netlist::Netlist;

    use crate::Simulator;

    /// Settles `nl` under `start` on the event engine, then runs one
    /// phase driving `phase` on both engines from that state; returns
    /// the two engines for comparison.
    fn both<'a>(
        program: &Arc<EngineProgram<'a>>,
        start: &[(NetId, Logic)],
        phase: &[(NetId, Logic)],
    ) -> (Simulator<'a>, Result<ArrivalSim<'a>, ArrivalDecline>) {
        let mut events = Simulator::from_program(Arc::clone(program));
        for &(net, value) in start {
            events.set_input(net, value);
        }
        assert!(events.run_until_quiescent().is_quiescent());
        events.clear_activity();
        events.reset_time();
        let arrival = ArrivalSim::new(Arc::clone(program)).and_then(|mut arrival| {
            arrival.load_state(events.net_values())?;
            arrival.run_phase(phase)?;
            Ok(arrival)
        });
        for &(net, value) in phase {
            events.set_input(net, value);
        }
        assert!(events.run_until_quiescent().is_quiescent());
        (events, arrival)
    }

    fn assert_exact(events: &Simulator<'_>, arrival: &ArrivalSim<'_>) {
        for n in 0..events.netlist().net_count() {
            let net = NetId::from_index(n);
            assert_eq!(arrival.value(net), events.value(net), "value of {net}");
            assert_eq!(
                arrival.transitions(net),
                events.net_transitions(net),
                "transitions of {net}"
            );
            if arrival.transitions(net) > 0 {
                assert_eq!(
                    arrival.last_change_ps(net).map(f64::to_bits),
                    events.last_change_ps(net).map(f64::to_bits),
                    "last change of {net}"
                );
            }
        }
        assert_eq!(arrival.now_ps().to_bits(), events.now_ps().to_bits());
    }

    #[test]
    fn monotone_phase_matches_the_event_engine() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_cell("and", CellKind::And2, &[a, b]).unwrap();
        let y = nl.add_cell("or", CellKind::Or2, &[ab, c]).unwrap();
        let q = nl.add_cell("cel", CellKind::CElement2, &[ab, y]).unwrap();
        nl.add_output("y", y);
        nl.add_output("q", q);
        let library = Library::umc_ll();
        let program = Arc::new(EngineProgram::new(&nl, &library));
        let zero = [(a, Logic::Zero), (b, Logic::Zero), (c, Logic::Zero)];
        for pattern in 0..8u32 {
            let phase: Vec<_> = [a, b, c]
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, Logic::from(pattern >> i & 1 == 1)))
                .collect();
            let (events, arrival) = both(&program, &zero, &phase);
            assert_exact(&events, &arrival.expect("monotone phases run"));
        }
    }

    /// Reconvergent paths with unequal delays glitch: the event engine
    /// switches the output twice, and the pass declines instead of
    /// guessing.
    #[test]
    fn a_glitching_netlist_declines_on_the_double_switch() {
        let mut nl = Netlist::new("glitch");
        let a = nl.add_input("a");
        let slow = nl.add_cell("b0", CellKind::Buf, &[a]).unwrap();
        let slow = nl.add_cell("b1", CellKind::Buf, &[slow]).unwrap();
        let inv = nl.add_cell("inv", CellKind::Inv, &[slow]).unwrap();
        let y = nl.add_cell("and", CellKind::And2, &[a, inv]).unwrap();
        nl.add_output("y", y);
        let library = Library::umc_ll();
        let program = Arc::new(EngineProgram::new(&nl, &library));
        let (events, arrival) = both(&program, &[(a, Logic::Zero)], &[(a, Logic::One)]);
        assert_eq!(events.net_transitions(y), 2, "the event engine glitches");
        assert_eq!(arrival.unwrap_err(), ArrivalDecline::DoubleSwitch(y));

        // The same hazard with the falling input landing while the rise
        // is still in flight: the fall is scheduled behind it.
        let mut nl = Netlist::new("fast_glitch");
        let a = nl.add_input("a");
        let inv = nl.add_cell("inv", CellKind::Inv, &[a]).unwrap();
        let y = nl.add_cell("and", CellKind::And2, &[a, inv]).unwrap();
        nl.add_output("y", y);
        let program = Arc::new(EngineProgram::new(&nl, &library));
        assert!(
            program.cell_delay_ps(nl.driver_cell(inv).unwrap())
                < program.cell_delay_ps(nl.driver_cell(y).unwrap()),
            "the fall must land while the rise is in flight"
        );
        let (events, arrival) = both(&program, &[(a, Logic::Zero)], &[(a, Logic::One)]);
        assert_eq!(events.net_transitions(y), 2, "the event engine glitches");
        assert_eq!(arrival.unwrap_err(), ArrivalDecline::DoubleSwitch(y));
    }

    #[test]
    fn an_unknown_state_declines() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_cell("and", CellKind::And2, &[a, b]).unwrap();
        nl.add_output("y", y);
        let library = Library::umc_ll();
        let program = Arc::new(EngineProgram::new(&nl, &library));
        // `b` is never driven, so the settled state holds X.
        let (_, arrival) = both(&program, &[(a, Logic::One)], &[(a, Logic::Zero)]);
        assert_eq!(arrival.unwrap_err(), ArrivalDecline::Unknown);

        let mut arrival = ArrivalSim::new(program).unwrap();
        arrival.load_state(&[Logic::Zero; 3]).unwrap();
        assert_eq!(
            arrival.run_phase(&[(a, Logic::Unknown)]),
            Err(ArrivalDecline::Unknown)
        );
        // A declined phase leaves no state to start the next one from.
        assert_eq!(arrival.run_phase(&[]), Err(ArrivalDecline::Unknown));
    }

    #[test]
    fn flip_flops_and_repeated_inputs_decline() {
        let mut nl = Netlist::new("reg");
        let d = nl.add_input("d");
        let clk = nl.add_input("clk");
        let q = nl.add_cell("ff", CellKind::Dff, &[d, clk]).unwrap();
        nl.add_output("q", q);
        let library = Library::umc_ll();
        let program = Arc::new(EngineProgram::new(&nl, &library));
        assert_eq!(
            ArrivalSim::new(program).unwrap_err(),
            ArrivalDecline::FlipFlop
        );

        let mut nl = Netlist::new("buf");
        let a = nl.add_input("a");
        let y = nl.add_cell("buf", CellKind::Buf, &[a]).unwrap();
        nl.add_output("y", y);
        let program = Arc::new(EngineProgram::new(&nl, &library));
        let mut arrival = ArrivalSim::new(program).unwrap();
        arrival.load_state(&[Logic::Zero; 2]).unwrap();
        assert_eq!(
            arrival.run_phase(&[(a, Logic::One), (a, Logic::One)]),
            Err(ArrivalDecline::RepeatedInput(a))
        );
        // The repeat marker does not leak into the next phase.
        arrival.load_state(&[Logic::Zero; 2]).unwrap();
        arrival.run_phase(&[(a, Logic::One)]).unwrap();
        assert_eq!(arrival.value(y), Logic::One);
        assert_eq!(arrival.last_change_ps(a), Some(0.0));
        assert!(arrival.event_bound() >= 2);
    }

    /// An XOR whose two inputs change at one timestamp glitches in one
    /// pop order and not the other: the pass cannot know which, so it
    /// declines.
    #[test]
    fn an_order_dependent_tie_declines() {
        let mut nl = Netlist::new("xor");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_cell("xor", CellKind::Xor2, &[a, b]).unwrap();
        nl.add_output("y", y);
        let library = Library::umc_ll();
        let program = Arc::new(EngineProgram::new(&nl, &library));
        let (_, arrival) = both(
            &program,
            &[(a, Logic::Zero), (b, Logic::Zero)],
            &[(a, Logic::One), (b, Logic::One)],
        );
        assert!(matches!(arrival, Err(ArrivalDecline::TieOrder(_))));
    }

    /// An input that changes while the cell's output event is still in
    /// flight schedules a second, no-op event: it moves no net but is
    /// the latest event of the phase, so it alone sets `now_ps`.
    #[test]
    fn an_in_flight_no_op_event_sets_the_phase_clock() {
        let mut nl = Netlist::new("late");
        let a = nl.add_input("a");
        let late = nl.add_cell("buf", CellKind::Buf, &[a]).unwrap();
        let y = nl.add_cell("or", CellKind::Or2, &[a, late]).unwrap();
        nl.add_output("y", y);
        let library = Library::umc_ll();
        let program = Arc::new(EngineProgram::new(&nl, &library));
        let buf = program.cell_delay_ps(nl.driver_cell(late).unwrap());
        let or = program.cell_delay_ps(nl.driver_cell(y).unwrap());
        assert!(buf < or, "the late input must land while `y` is in flight");
        let (events, arrival) = both(&program, &[(a, Logic::Zero)], &[(a, Logic::One)]);
        let arrival = arrival.unwrap();
        assert_exact(&events, &arrival);
        assert_eq!(arrival.now_ps(), buf + or);
        assert!(arrival.now_ps() > arrival.last_change_ps(y).unwrap());
    }

    /// An OR whose inputs rise together is order-free: both orders
    /// schedule the rise, the second evaluation as a no-op apply.
    #[test]
    fn an_order_free_tie_runs_and_counts_the_no_op_apply() {
        let mut nl = Netlist::new("or");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_cell("or", CellKind::Or2, &[a, b]).unwrap();
        nl.add_output("y", y);
        let library = Library::umc_ll();
        let program = Arc::new(EngineProgram::new(&nl, &library));
        let (events, arrival) = both(
            &program,
            &[(a, Logic::Zero), (b, Logic::Zero)],
            &[(a, Logic::One), (b, Logic::One)],
        );
        assert_exact(&events, &arrival.unwrap());
    }
}
