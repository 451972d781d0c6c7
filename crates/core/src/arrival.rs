//! Short words on the queue-free arrival engine.
//!
//! A word of at most [`ARRIVAL_MAX_LANES`] operands costs the 64-lane
//! event engine nearly as much as a full one: its queue, bit-planes and
//! per-lane bookkeeping are sized for 64 lanes whatever the word
//! length.  At those lengths the sliced worker's
//! [`crate::ParallelProtocolDriver::run_workload_sliced`] chunk runs
//! each operand, one lane at a time, through a lazily built
//! [`gatesim::ArrivalSim`] instead: one topological pass per protocol
//! phase, bit-exact to the event engine.
//!
//! # Decline and rerun, never diverge
//!
//! The arrival path returns results only when every lane of the word
//! ran exactly and passed every protocol check.  Otherwise the **whole
//! word** reruns on [`crate::SlicedProtocolDriver::apply_word`], so
//! errors and word-global divergence stay the event engine's.  It
//! declines on:
//!
//! * an installed [`gatesim::FaultPlan`], an attached wave probe or
//!   change recorder, or a worker not idle at the canonical snapshot;
//! * an operand of the wrong width;
//! * any [`gatesim::ArrivalDecline`] (an `X`, a flip-flop, a cycle, a
//!   net switching twice, an order-dependent tie);
//! * more events than the word's event limit could pop, or an event
//!   past its time horizon;
//! * any decode, `done` or reset-phase check failure.
//!
//! The word driver's engine counters see only words that ran on the
//! event engine; protocol counters are recorded per operand through
//! the same helper on both paths.

use std::sync::Arc;

use gatesim::{ArrivalSim, Logic};
use netlist::NetId;

use crate::sliced::SlicedProtocolDriver;
use crate::{decode, DualRailValue, OperandResult};

/// Longest word the sliced worker serves on the arrival engine.
///
/// Measured with the criterion `dualrail_service` sweep on the standard
/// 2410-cell datapath (single-thread driver, best of 30 samples, 2-core
/// x86 host), once with every word on the arrival engine and once with
/// every word on the event engine:
///
/// | operands            | 1   | 2   | 4   | 8   | 16   |
/// |---------------------|-----|-----|-----|-----|------|
/// | arrival, µs         | 113 | 281 | 473 | 981 | 1851 |
/// | event-engine word, µs | 452 | 610 | 602 | 719 | 833  |
///
/// The arrival path costs about 118 µs per operand.  Interpolating the
/// event word between 4 and 8 lanes gives 631 µs at 5 lanes and 661 µs
/// at 6, so 5 × 118 = 590 µs is below its word and 6 × 118 = 708 µs is
/// not: 5 is the largest k for which k arrival operands cost less than
/// one k-lane word.
pub const ARRIVAL_MAX_LANES: usize = 5;

/// The worker's arrival engine: built on the first short word, kept
/// with the snapshot it last loaded.
#[derive(Debug, Default)]
pub(crate) enum ArrivalSlot<'a> {
    #[default]
    Unbuilt,
    /// The netlist has no arrival form (flip-flops, cycles, an `X` in
    /// the snapshot): every word runs on the event engine.
    Unavailable,
    Ready {
        sim: Box<ArrivalSim<'a>>,
        /// The snapshot the pass state equals, or `None` when it must
        /// be reloaded (after a decline).
        loaded: Option<Arc<[Logic]>>,
        stimulus: Vec<(NetId, Logic)>,
    },
}

impl<'a> ArrivalSlot<'a> {
    /// Runs `word` on the arrival engine from `driver`'s snapshot, or
    /// returns `None` to send it to the event engine.
    pub(crate) fn run_word(
        &mut self,
        driver: &SlicedProtocolDriver<'a>,
        word: &[Vec<bool>],
    ) -> Option<Vec<OperandResult>> {
        let events = driver.sim();
        let circuit = driver.circuit();
        let snapshot = driver.snapshot();
        if events.has_fault_plan()
            || events.has_observers()
            || word.iter().any(|op| op.len() != circuit.input_count())
            || !crate::parallel::WorkerDriver::is_idle_at(driver, snapshot)
        {
            return None;
        }
        if matches!(self, Self::Unbuilt) {
            *self = match ArrivalSim::new(Arc::clone(events.program())) {
                Ok(sim) => Self::Ready {
                    sim: Box::new(sim),
                    loaded: None,
                    stimulus: Vec::new(),
                },
                Err(_) => Self::Unavailable,
            };
        }
        let Self::Ready {
            sim,
            loaded,
            stimulus,
        } = self
        else {
            return None;
        };
        if !loaded.as_ref().is_some_and(|s| Arc::ptr_eq(s, snapshot)) {
            if sim.load_state(snapshot).is_err() {
                *self = Self::Unavailable;
                return None;
            }
            *loaded = Some(Arc::clone(snapshot));
        }
        let results = run_lanes(sim, stimulus, driver, word);
        if results.is_none() {
            *loaded = None;
        }
        results
    }
}

/// Runs every lane of `word` through both phases; `None` on the first
/// decline or failed check.
fn run_lanes(
    sim: &mut ArrivalSim<'_>,
    stimulus: &mut Vec<(NetId, Logic)>,
    driver: &SlicedProtocolDriver<'_>,
    word: &[Vec<bool>],
) -> Option<Vec<OperandResult>> {
    let circuit = driver.circuit();
    let observed = driver.observed();
    let snapshot = driver.snapshot();
    let horizon_ps = driver.sim().time_horizon_ps();
    // The word's lanes share one event budget per phase.
    let event_limit = driver.sim().event_limit();
    let (mut valid_events, mut spacer_events) = (0u64, 0u64);
    let latest = |sim: &ArrivalSim<'_>| {
        observed
            .iter()
            .filter_map(|&n| sim.last_change_ps(n))
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |best| best.max(t)))
            })
            .unwrap_or(0.0)
    };
    let mut results = Vec::with_capacity(word.len());
    for operand in word {
        // Phase 1: spacer -> valid, from the snapshot.
        stimulus.clear();
        stimulus.extend(driver.request().map(|req| (req, Logic::One)));
        for ((_, signal), &bit) in circuit.dual_inputs().iter().zip(operand) {
            let (p, n) = DualRailValue::encode_valid(bit, signal.polarity);
            stimulus.push((signal.positive, Logic::from(p)));
            stimulus.push((signal.negative, Logic::from(n)));
        }
        sim.run_phase(stimulus).ok()?;
        valid_events += sim.event_bound();
        if sim.now_ps() > horizon_ps || valid_events > event_limit {
            return None;
        }
        let read = |net| sim.value(net);
        let (outputs, one_of_n) = decode::decode_outputs(circuit, read).ok()?;
        let probes = decode::decode_probes(circuit, read);
        let s_to_v_latency_ps = latest(sim);
        let done_latency_ps = match circuit.done() {
            Some(done) if sim.value(done).is_one() => sim.last_change_ps(done),
            Some(_) => return None,
            None => None,
        };
        let t1 = sim.now_ps();

        // Phase 2: valid -> spacer, rebased to zero again.
        stimulus.clear();
        stimulus.extend(driver.request().map(|req| (req, Logic::Zero)));
        for (_, signal) in circuit.dual_inputs() {
            let (p, n) = DualRailValue::encode_spacer(signal.polarity);
            stimulus.push((signal.positive, Logic::from(p)));
            stimulus.push((signal.negative, Logic::from(n)));
        }
        sim.run_phase(stimulus).ok()?;
        spacer_events += sim.event_bound();
        if sim.now_ps() > horizon_ps || spacer_events > event_limit {
            return None;
        }
        let read = |net| sim.value(net);
        decode::check_outputs_at_spacer(circuit, read).ok()?;
        if circuit
            .done()
            .is_some_and(|done| !sim.value(done).is_zero())
            || !sim.state_matches(snapshot)
        {
            return None;
        }
        results.push(OperandResult {
            outputs,
            one_of_n,
            s_to_v_latency_ps,
            done_latency_ps,
            v_to_s_latency_ps: latest(sim),
            cycle_time_ps: t1 + sim.now_ps(),
            probes,
        });
    }
    Some(results)
}

#[cfg(test)]
mod tests {
    use celllib::Library;
    use gatesim::FaultPlan;

    use super::*;
    use crate::parallel::tests::{and_or_circuit, workload};
    use crate::parallel::WorkerDriver;
    use crate::sliced::tests::word_driver;
    use crate::{DualRailError, ParallelProtocolDriver};

    type Results = Vec<Result<OperandResult, DualRailError>>;

    /// Bit-for-bit comparison: `Debug` prints every `f64` in its
    /// shortest round-tripping form, signed zeros included.
    fn assert_bits_eq(got: &Results, expected: &Results) {
        assert_eq!(format!("{got:?}"), format!("{expected:?}"));
    }

    fn served_on_arrival(driver: &SlicedProtocolDriver<'_>) -> bool {
        matches!(
            &driver.arrival,
            ArrivalSlot::Ready {
                loaded: Some(_),
                ..
            }
        )
    }

    #[test]
    fn short_words_match_the_event_engine_bit_for_bit() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let mut arrival = word_driver(&dr, &lib);
        let mut events = word_driver(&dr, &lib);
        for len in 1..=ARRIVAL_MAX_LANES {
            let word = workload(3, 8)[8 - len..].to_vec();
            let got = arrival.run_chunk(&word);
            assert!(served_on_arrival(&arrival), "word of {len}");
            assert!(got.iter().all(Result::is_ok));
            assert_bits_eq(&got, &events.apply_word(&word));
            assert!(arrival.is_idle_at(&arrival.snapshot().clone()));
        }
    }

    /// Words the pass declines rerun whole on the event engine: the
    /// per-operand errors are exactly the event engine's.
    #[test]
    fn declined_words_report_the_event_engines_errors() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let stuck = FaultPlan::new().stuck_at(dr.done().expect("completion"), false);
        let setups: [&dyn Fn(&mut SlicedProtocolDriver<'_>); 3] =
            [&|_| {}, &|d| d.set_fault_plan(&stuck).unwrap(), &|d| {
                d.set_time_horizon_ps(1.0)
            }];
        for (case, setup) in setups.iter().enumerate() {
            let mut word = workload(3, 4);
            if case == 0 {
                word[1] = vec![true];
            }
            let mut arrival = word_driver(&dr, &lib);
            let mut events = word_driver(&dr, &lib);
            setup(&mut arrival);
            setup(&mut events);
            let got = arrival.run_chunk(&word);
            assert!(!served_on_arrival(&arrival), "case {case}");
            assert!(got.iter().any(Result::is_err), "case {case}: {got:?}");
            assert_bits_eq(&got, &events.apply_word(&word));
        }
    }

    /// A pooled worker that served a short word on the arrival engine
    /// is idle at the snapshot and goes back to its pool for reuse.
    #[test]
    fn an_arrival_word_keeps_the_pooled_worker() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let driver = ParallelProtocolDriver::new(&dr, &lib, 1).unwrap();
        let operands = workload(3, 3);
        let first = driver.run_workload_sliced(&operands).unwrap();
        assert_eq!(driver.idle_sliced_workers(), 1);
        assert_eq!(driver.run_workload_sliced(&operands).unwrap(), first);
        assert_eq!(driver.idle_sliced_workers(), 1);
    }
}
