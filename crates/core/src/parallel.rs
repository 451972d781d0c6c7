//! The sharded four-phase protocol driver: dual-rail operand streams
//! replayed on replicated [`ProtocolDriver`]s across worker threads.
//!
//! The paper's headline numbers (Table I) are *dual-rail* figures —
//! average and maximum spacer→valid latency over a workload — yet the
//! single [`ProtocolDriver`] is the slowest runtime in the workspace:
//! every operand costs two full settles of the event-driven simulator
//! plus protocol checking.  Operands are independent, though, because
//! the four-phase protocol itself restores history independence: every
//! cycle ends in the all-spacer quiescent state, where each C-element
//! (input latches and the completion tree alike) has seen all-zero
//! inputs and reset.  That is the **reset-phase sharding contract**, and
//! [`ParallelProtocolDriver`] both relies on it and verifies it on every
//! cycle ([`ProtocolDriver::verify_spacer_state`]).
//!
//! Mechanically this reuses the machinery proven on the combinational
//! path: the engine compilation is built once and shared
//! (`Arc<EngineProgram>`), each worker owns a private driver instance
//! over a replicated simulator, operand ranges are claimed dynamically
//! and merged in operand order
//! ([`gatesim::ParallelEventSim::shard_with`] under
//! [`gatesim::ShardingContract::ResetPhase`]).  Every entry point —
//! scalar or 64-lane sliced, serial or wavefront-pipelined — goes
//! through one generic body over a crate-private worker-driver trait;
//! the public methods only choose the worker driver and its chunking.
//! Because every operand
//! cycle is rebased to time zero and starts from the verified quiescent
//! state, the decoded outputs *and* every per-operand measurement
//! (spacer→valid, valid→spacer and `done` latencies) are bit-identical
//! to a streamed single contract-mode driver at any thread count —
//! property-tested at threads {1, 2, 7} in `tests/property_tests.rs`.
//!
//! # Persistent worker sessions
//!
//! Building a worker driver — replicating the simulator, settling the
//! initial spacer, verifying it — costs about as much as a one-lane
//! word, so at the small batches of low-load serving it would be most
//! of the service time.  The driver therefore keeps its built worker
//! drivers between calls, in one pool per kind (scalar, sliced and
//! pipelined) of at most [`ParallelProtocolDriver::threads`]
//! entries.  A worker is checked out at the start of a call and only
//! built when its pool is empty, which makes construction lazy: the
//! first call pays for the workers it uses.  After the run a worker
//! goes back into its pool only if every chunk it ran succeeded, its
//! event queue is empty and its full net state (every lane, for the
//! sliced kernels) equals the canonical quiescent snapshot — exactly
//! the state a fresh worker starts from, so a reused worker yields
//! bit-identical results.  Any other worker is dropped: a diverged
//! sliced driver stays diverged, and a driver that failed the
//! reset-phase check sits in a state no later cycle may start from.
//! A pipelined driver is reused only for an equal [`PipelineConfig`].
//! Changing the metrics routing or the monotonicity check empties
//! every pool, because the pooled drivers carry the old handles and
//! flags.
//!
//! # Example
//!
//! ```
//! use dualrail::{DualRailNetlist, ParallelProtocolDriver, ReducedCompletion};
//! use celllib::Library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dr = DualRailNetlist::new("and_gate");
//! let a = dr.add_dual_input("a");
//! let b = dr.add_dual_input("b");
//! let y = dr.and2("y", a, b)?;
//! dr.add_dual_output("y", y);
//! ReducedCompletion::insert(&mut dr)?;
//!
//! let lib = Library::umc_ll();
//! let driver = ParallelProtocolDriver::new(&dr, &lib, 2)?;
//! let workload = vec![vec![true, true], vec![true, false]];
//! let run = driver.run_workload(&workload)?;
//! assert_eq!(run.results[0].outputs, vec![true]);
//! assert_eq!(run.results[1].outputs, vec![false]);
//! assert_eq!(run.latency.count(), 2);
//! assert!(run.latency.max_ps() > 0.0);
//! # Ok(())
//! # }
//! ```

use std::sync::{Arc, Mutex, PoisonError};

use celllib::Library;
use exec::Executor;
use gatesim::{EngineProgram, LatencyReport, Logic, ParallelEventSim, PipelineReport, Replica};
use sta::GracePeriod;

use crate::{
    DualRailError, DualRailNetlist, OperandResult, PipelineConfig, PipelinedProtocolDriver,
    ProtocolDriver, SlicedProtocolDriver,
};

/// Results of one sharded workload run: every operand's full
/// [`OperandResult`] in operand order, plus the spacer→valid latency
/// report the paper's Table I summarises.
#[derive(Clone, Debug, PartialEq)]
pub struct ParallelProtocolRun {
    /// Per-operand measurements and decoded outputs, in operand order.
    pub results: Vec<OperandResult>,
    /// Spacer→valid latency of every operand, in operand order, with
    /// min/median/max/histogram summaries.
    pub latency: LatencyReport,
}

impl ParallelProtocolRun {
    /// Aggregates the per-operand results into a report.
    #[must_use]
    pub fn from_results(results: Vec<OperandResult>) -> Self {
        let latency =
            LatencyReport::from_latencies(results.iter().map(|r| r.s_to_v_latency_ps).collect());
        Self { results, latency }
    }

    /// The `done` (completion-detection) latency of every operand, in
    /// operand order, or `None` if any operand lacks a `done`
    /// measurement (no completion detection, or `done` never moved).
    #[must_use]
    pub fn done_latency(&self) -> Option<LatencyReport> {
        self.results
            .iter()
            .map(|r| r.done_latency_ps)
            .collect::<Option<Vec<f64>>>()
            .map(LatencyReport::from_latencies)
    }
}

/// Drives a dual-rail netlist through four-phase cycles with the operand
/// stream sharded across worker threads — outputs and per-operand
/// latency/`done` statistics bit-identical to a streamed single
/// contract-mode [`ProtocolDriver`] at any thread count.  Built worker
/// drivers persist between calls once verified idle.
///
/// See the [module documentation](self) for the contract, the worker
/// sessions and an example.
#[derive(Debug)]
pub struct ParallelProtocolDriver<'a> {
    circuit: &'a DualRailNetlist,
    sim: ParallelEventSim<'a>,
    /// Canonical quiescent state, captured once from a settled reference
    /// driver and verified by every worker after every cycle.
    snapshot: Arc<[Logic]>,
    grace: Option<GracePeriod>,
    check_monotonic: bool,
    /// Shared metrics registry + prefix; when set, every worker driver
    /// attaches protocol- and engine-level instruments under identical
    /// names, so commutative adds make snapshots thread-count
    /// invariant.
    metrics: Option<(Arc<tm_obs::MetricsRegistry>, String)>,
    /// Idle worker drivers kept between calls, verified at `snapshot`.
    pools: Pools<'a>,
}

/// One [`Pool`] per worker-driver kind.
#[derive(Debug, Default)]
struct Pools<'a> {
    scalar: Pool<ProtocolDriver<'a>>,
    sliced: Pool<SlicedProtocolDriver<'a>>,
    pipelined: Pool<PipelinedProtocolDriver<'a>>,
}

impl Pools<'_> {
    fn clear(&mut self) {
        self.scalar.clear();
        self.sliced.clear();
        self.pipelined.clear();
    }
}

/// Idle worker drivers of one kind.  The lock is held only to pop or
/// push, never across a run, so concurrent calls on one driver each
/// check out their own workers.
#[derive(Debug)]
struct Pool<D>(Mutex<Vec<D>>);

impl<D> Default for Pool<D> {
    fn default() -> Self {
        Self(Mutex::new(Vec::new()))
    }
}

impl<D> Pool<D> {
    fn take(&self) -> Option<D> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).pop()
    }

    /// Keeps `driver` unless `capacity` drivers are already idle.
    fn put(&self, driver: D, capacity: usize) {
        let mut idle = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.len() < capacity {
            idle.push(driver);
        }
    }

    fn clear(&mut self) {
        self.0
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

impl<'a> ParallelProtocolDriver<'a> {
    /// Compiles the circuit once, validates that it initialises to a
    /// settled quiescent state (captured as the contract snapshot) and
    /// prepares `threads` workers (clamped to at least 1).  No worker
    /// driver is built here: the first call that needs one builds it,
    /// and later calls reuse it.
    ///
    /// # Errors
    ///
    /// Returns [`DualRailError::SimulationDiverged`] if the circuit
    /// fails to settle during initialisation; timing analysis failures
    /// are tolerated (the grace period is then unavailable).
    pub fn new(
        circuit: &'a DualRailNetlist,
        library: &Library,
        threads: usize,
    ) -> Result<Self, DualRailError> {
        let observed = circuit.observed_output_nets();
        let grace = GracePeriod::compute(circuit.netlist(), library, &observed).ok();
        let program = Arc::new(EngineProgram::new(circuit.netlist(), library));
        // Pre-flight on the calling thread: a reference driver settles
        // the initial spacer (catching divergence as an error rather
        // than a worker panic) and its settled state becomes the
        // canonical snapshot every worker verifies against.  Replicated
        // instances are deterministic, so each worker's own
        // initialisation reaches this exact state — the first cycle's
        // verification proves it.
        let reference = ProtocolDriver::from_program(circuit, Arc::clone(&program))?;
        let snapshot = reference.quiescent_snapshot();
        drop(reference);
        // The C-element latches and completion tree make the netlist
        // sequential; sharding is sound because — and only because — the
        // verified reset-phase contract restores one quiescent state per
        // cycle.
        let sim = ParallelEventSim::assume_reset_phase(program, Executor::new(threads));
        Ok(Self {
            circuit,
            sim,
            snapshot,
            grace,
            check_monotonic: true,
            metrics: None,
            pools: Pools::default(),
        })
    }

    /// Routes every worker's instruments into `registry` under
    /// `prefix`: engine counters as `"<prefix>.scalar.*"` /
    /// `"<prefix>.sliced.*"` (see [`ParallelEventSim::set_metrics`])
    /// and protocol counters as `"<prefix>.scalar.protocol.*"` /
    /// `"<prefix>.sliced.protocol.*"`.  Workers attach to the **same**
    /// instruments, and per-operand work is shard-invariant, so
    /// `registry.snapshot()` is bit-identical at any thread count.
    pub fn set_metrics(&mut self, registry: &Arc<tm_obs::MetricsRegistry>, prefix: &str) {
        self.sim.set_metrics(registry, prefix);
        self.metrics = Some((Arc::clone(registry), prefix.to_string()));
        self.pools.clear();
    }

    /// Stops routing metrics; future runs revert to the zero-overhead
    /// disabled mode.
    pub fn clear_metrics(&mut self) {
        self.sim.clear_metrics();
        self.metrics = None;
        self.pools.clear();
    }

    /// Number of worker threads the operand stream is sharded across.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.sim.threads()
    }

    /// The circuit being driven.
    #[must_use]
    pub fn circuit(&self) -> &'a DualRailNetlist {
        self.circuit
    }

    /// The statically computed grace period, if timing analysis
    /// succeeded (computed once; workers never repeat it).
    #[must_use]
    pub fn grace_period(&self) -> Option<&GracePeriod> {
        self.grace.as_ref()
    }

    /// The canonical quiescent snapshot every cycle is verified against.
    #[must_use]
    pub fn quiescent_snapshot(&self) -> &Arc<[Logic]> {
        &self.snapshot
    }

    /// Idle sliced worker drivers waiting in the pool.
    #[cfg(test)]
    pub(crate) fn idle_sliced_workers(&self) -> usize {
        self.pools
            .sliced
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Disables the per-phase monotonicity check on every worker (for
    /// ablation experiments; see
    /// [`ProtocolDriver::set_monotonicity_check`]).
    pub fn set_monotonicity_check(&mut self, enabled: bool) {
        self.check_monotonic = enabled;
        self.pools.clear();
    }

    /// Runs one full four-phase cycle per operand (one `Vec<bool>` with
    /// one bit per dual-rail input, in declaration order), sharding
    /// disjoint operand ranges across worker threads, and returns every
    /// decoded result in operand order together with the spacer→valid
    /// latency report.
    ///
    /// Takes `&self`: all mutable state is per worker, so one driver can
    /// serve many workloads (and several concurrently), reusing its
    /// verified idle workers from one call to the next (see the
    /// [module documentation](self)).
    ///
    /// # Errors
    ///
    /// Propagates the first per-operand error in operand order — the
    /// same protocol violations, width mismatches and divergence errors
    /// as [`ProtocolDriver::apply_operand`], plus
    /// [`DualRailError::SpacerStateMismatch`] if a cycle breaks the
    /// reset-phase contract.
    pub fn run_workload(
        &self,
        operands: &[Vec<bool>],
    ) -> Result<ParallelProtocolRun, DualRailError> {
        self.run_sharded(operands, None, &self.pools.scalar, |sim| {
            let mut driver = ProtocolDriver::from_simulator(self.circuit, sim)?;
            driver.set_monotonicity_check(self.check_monotonic);
            driver.enable_reset_contract(Arc::clone(&self.snapshot));
            Ok(driver)
        })
        .map(|(results, _)| ParallelProtocolRun::from_results(results))
    }

    /// Like [`ParallelProtocolDriver::run_workload`], but on the
    /// bit-sliced event kernel: the operand stream is cut into words of
    /// up to 64 operands, each word runs all its lanes through one
    /// four-phase cycle on a [`SlicedProtocolDriver`], and words are
    /// sharded across worker threads.
    ///
    /// Word boundaries are fixed by operand position, so results are
    /// bit-identical at any thread count.  The timebase is the
    /// **phase-rebased** frame ([`ProtocolDriver::enable_phase_rebase`]):
    /// decoded outputs, `s_to_v_latency_ps` and `done_latency_ps` match
    /// [`ParallelProtocolDriver::run_workload`] exactly, while
    /// `v_to_s_latency_ps` and `cycle_time_ps` agree up to
    /// floating-point association.
    ///
    /// # Errors
    ///
    /// Propagates the first per-operand error in operand order, as
    /// [`ParallelProtocolDriver::run_workload`] does; a diverging word
    /// reports every one of its lanes as
    /// [`DualRailError::SimulationDiverged`] (the lanes share one event
    /// budget).
    pub fn run_workload_sliced(
        &self,
        operands: &[Vec<bool>],
    ) -> Result<ParallelProtocolRun, DualRailError> {
        self.run_sharded(operands, None, &self.pools.sliced, |sim| {
            SlicedProtocolDriver::from_sliced_simulator(
                self.circuit,
                sim,
                Arc::clone(&self.snapshot),
                self.check_monotonic,
            )
        })
        .map(|(results, _)| ParallelProtocolRun::from_results(results))
    }

    /// Like [`ParallelProtocolDriver::run_workload`], but each worker
    /// drives its claimed operands through the wavefront-pipelined
    /// schedule ([`PipelinedProtocolDriver::run_train`]): trains of
    /// `config.train_length` tokens at fixed operand positions, with
    /// operand *k+1* injected as soon as the input stage acknowledges
    /// operand *k*'s spacer instead of after the global `done`
    /// round-trip.
    ///
    /// A train is a pure function of its own operands (the clock
    /// rebases per train), so position-based chunking keeps decoded
    /// outputs and per-token measurements bit-identical at any thread
    /// count.  At [`crate::Occupancy::One`] every token runs the
    /// serial contract cycle and the run is bit-identical to
    /// [`ParallelProtocolDriver::run_workload`].
    ///
    /// Returns the per-operand results plus a [`PipelineReport`]
    /// separating token latency (spacer→valid, unchanged by
    /// pipelining) from cycle time (injection-to-injection interval,
    /// the pipelined figure of merit), with the most tokens any train's
    /// schedule held in flight at once.
    ///
    /// # Errors
    ///
    /// The first per-token error in operand order — the invalid-margin
    /// rejection and the typed hazard, divergence and contract
    /// violations of [`PipelinedProtocolDriver::run_train`].
    pub fn run_workload_pipelined(
        &self,
        operands: &[Vec<bool>],
        config: PipelineConfig,
    ) -> Result<(ParallelProtocolRun, PipelineReport), DualRailError> {
        let (results, occupancy) =
            self.run_sharded(operands, Some(config), &self.pools.pipelined, |sim| {
                let mut driver =
                    PipelinedProtocolDriver::from_simulator(self.circuit, sim, config)?;
                driver.set_monotonicity_check(self.check_monotonic);
                Ok(driver)
            })?;
        let report = pipeline_report(&results, occupancy);
        Ok((ParallelProtocolRun::from_results(results), report))
    }

    /// The one body every entry point shares: each worker checks a
    /// driver `D` out of `pool`, or on a miss builds one over a fresh
    /// replica (`build`) and attaches the protocol counters under
    /// `"<prefix>.<scope>.protocol.*"`, then drives every chunk it
    /// claims ([`ParallelEventSim::shard_with`] chunking: serial runs
    /// load-balance, a `pipeline` claims fixed trains of
    /// `train_length` settles).  A driver that fails to build reports
    /// its error for every operand it would have run; the first error
    /// in operand order is returned, and otherwise the results with the
    /// most tokens any worker held in flight at once.  Afterwards each
    /// worker whose chunks all succeeded and which sits idle at the
    /// canonical snapshot goes back into `pool`; the rest are dropped.
    fn run_sharded<D: WorkerDriver<'a> + Send>(
        &self,
        operands: &[Vec<bool>],
        pipeline: Option<PipelineConfig>,
        pool: &Pool<D>,
        build: impl Fn(D::Replica) -> Result<D, DualRailError> + Sync,
    ) -> Result<(Vec<OperandResult>, usize), DualRailError> {
        let metrics = self.metrics.as_ref().map(|(registry, prefix)| {
            let scope = <D::Replica as Replica<'a>>::SCOPE;
            tm_obs::ProtocolMetrics::register(registry, &format!("{prefix}.{scope}.protocol"))
        });
        let (results, workers) = self.sim.shard_with(
            operands,
            pipeline.map(|config| config.train_length.max(1)),
            || {
                let driver = pool.take().filter(|d| d.pipeline() == pipeline)?;
                Some(Worker::new(Ok(driver)))
            },
            |sim| {
                Worker::new(build(sim).map(|mut driver| {
                    if let Some(handles) = metrics.clone() {
                        driver.attach_protocol_metrics(handles);
                    }
                    driver
                }))
            },
            Worker::run,
        );
        let mut occupancy = 0;
        for worker in workers {
            if let Ok(mut driver) = worker.driver {
                occupancy = occupancy.max(driver.take_occupancy());
                if worker.clean && driver.is_idle_at(&self.snapshot) {
                    pool.put(driver, self.threads());
                }
            }
        }
        Ok((results.into_iter().collect::<Result<_, _>>()?, occupancy))
    }
}

/// One worker's driver for the length of a call, and whether every
/// chunk it ran so far succeeded.
struct Worker<D> {
    driver: Result<D, DualRailError>,
    clean: bool,
}

impl<'a, D: WorkerDriver<'a>> Worker<D> {
    fn new(driver: Result<D, DualRailError>) -> Self {
        Self {
            driver,
            clean: true,
        }
    }

    fn run(&mut self, chunk: &[Vec<bool>]) -> Vec<Result<OperandResult, DualRailError>> {
        let results = match &mut self.driver {
            Ok(driver) => driver.run_chunk(chunk),
            Err(error) => per_operand(Err(error.clone()), chunk.len()),
        };
        self.clean &= results.iter().all(Result::is_ok);
        results
    }
}

/// A per-worker protocol driver the sharded entry points replicate
/// (implemented by the scalar, sliced and wavefront-pipelined drivers,
/// next to each driver).
pub(crate) trait WorkerDriver<'a> {
    /// The engine instance the driver wraps.
    type Replica: Replica<'a>;

    /// Drives one claimed chunk — operands, a word, or a train — and
    /// returns one result per operand, in operand order.
    fn run_chunk(&mut self, chunk: &[Vec<bool>]) -> Vec<Result<OperandResult, DualRailError>>;

    /// Attaches **only** the protocol-level handles: the engine-level
    /// instruments are already attached by the sharding hook at
    /// replica construction.
    fn attach_protocol_metrics(&mut self, handles: tm_obs::ProtocolMetrics);

    /// Whether the driver may start a later call: no event is pending
    /// and every net — on every lane — holds its `snapshot` value.
    fn is_idle_at(&self, snapshot: &[Logic]) -> bool;

    /// The wavefront schedule the driver runs, `None` for the serial
    /// drivers; a pooled driver is reused only for an equal schedule.
    fn pipeline(&self) -> Option<PipelineConfig> {
        None
    }

    /// The most tokens the driver held in flight at once over the
    /// chunks run since the last call, resetting the count; 0 for the
    /// serial drivers, which report no pipeline.
    fn take_occupancy(&mut self) -> usize {
        0
    }
}

/// Spreads a chunk-level outcome over the chunk's `len` operands: the
/// per-operand results pass through, a chunk-level error (a failed
/// train, a worker that could not build) repeats for every operand.
pub(crate) fn per_operand(
    outcome: Result<Vec<OperandResult>, DualRailError>,
    len: usize,
) -> Vec<Result<OperandResult, DualRailError>> {
    match outcome {
        Ok(results) => results.into_iter().map(Ok).collect(),
        Err(error) => vec![Err(error); len],
    }
}

/// Aggregates per-token results into the pipelined throughput report:
/// token latency from the spacer→valid measurements, cycle time from
/// the per-token injection intervals (each train's last token closes on
/// the train's drain, so the cycle entries sum to the makespan), and the
/// measured `occupancy`.
fn pipeline_report(results: &[OperandResult], occupancy: usize) -> PipelineReport {
    let token_latency =
        LatencyReport::from_latencies(results.iter().map(|r| r.s_to_v_latency_ps).collect());
    let cycles: Vec<f64> = results.iter().map(|r| r.cycle_time_ps).collect();
    let makespan_ps = cycles.iter().sum();
    PipelineReport {
        token_latency,
        cycle: LatencyReport::from_latencies(cycles),
        makespan_ps,
        tokens: results.len(),
        occupancy,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ReducedCompletion;

    /// `y = a·b + c` with reduced completion detection.
    pub(crate) fn and_or_circuit() -> DualRailNetlist {
        let mut dr = DualRailNetlist::new("t");
        let a = dr.add_dual_input("a");
        let b = dr.add_dual_input("b");
        let c = dr.add_dual_input("c");
        let ab = dr.and2("ab", a, b).unwrap();
        let y = dr.or2("y", ab, c).unwrap();
        dr.add_dual_output("y", y);
        ReducedCompletion::insert(&mut dr).unwrap();
        dr
    }

    /// `operands` operands counting up in binary, `width` bits each.
    pub(crate) fn workload(width: usize, operands: usize) -> Vec<Vec<bool>> {
        (0..operands as u32)
            .map(|p| (0..width).map(|i| p & (1 << i) != 0).collect())
            .collect()
    }

    /// Streamed single-driver reference in contract mode: the exact
    /// per-operand code path the workers run, on one instance.
    fn streamed_reference(dr: &DualRailNetlist, operands: &[Vec<bool>]) -> Vec<OperandResult> {
        let lib = Library::umc_ll();
        let mut driver = ProtocolDriver::new(dr, &lib).unwrap();
        let snapshot = driver.quiescent_snapshot();
        driver.enable_reset_contract(snapshot);
        operands
            .iter()
            .map(|operand| driver.apply_operand(operand).unwrap())
            .collect()
    }

    #[test]
    fn sharded_driver_is_bit_identical_to_streamed_contract_driver() {
        let dr = and_or_circuit();
        let operands = workload(3, 14);
        let expected = streamed_reference(&dr, &operands);
        let lib = Library::umc_ll();
        for threads in [1, 2, 7] {
            let driver = ParallelProtocolDriver::new(&dr, &lib, threads).unwrap();
            assert_eq!(driver.threads(), threads);
            let run = driver.run_workload(&operands).unwrap();
            assert_eq!(run.results, expected, "threads = {threads}");
            assert_eq!(
                run.latency,
                LatencyReport::from_latencies(
                    expected.iter().map(|r| r.s_to_v_latency_ps).collect()
                )
            );
            let done = run.done_latency().expect("completion detection present");
            assert_eq!(done.count(), operands.len());
            assert!(done.min_ps() > 0.0);
        }
    }

    #[test]
    fn run_workload_takes_shared_self() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let driver = ParallelProtocolDriver::new(&dr, &lib, 2).unwrap();
        let operands = workload(3, 5);
        let first = driver.run_workload(&operands).unwrap();
        let second = driver.run_workload(&operands).unwrap();
        assert_eq!(first, second, "a driver is reusable across workloads");
        assert!(driver.grace_period().is_some());
        assert!(std::ptr::eq(driver.circuit(), &dr));
        assert_eq!(driver.quiescent_snapshot().len(), dr.netlist().net_count());
    }

    #[test]
    fn operand_errors_propagate_in_operand_order() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let driver = ParallelProtocolDriver::new(&dr, &lib, 2).unwrap();
        // Operand 3 has the wrong width; the run must fail with exactly
        // that operand's error even though later operands are fine.
        let mut operands = workload(3, 6);
        operands[3] = vec![true];
        assert!(matches!(
            driver.run_workload(&operands),
            Err(DualRailError::OperandWidthMismatch {
                expected: 3,
                got: 1
            })
        ));
    }

    /// `and_or_circuit` plus a sticky internal C-element gated by a
    /// tie-high net (the fixture of
    /// `protocol.rs::reset_contract_violations_are_detected`): the
    /// first operand with `a` high latches it for good, which only the
    /// full-state reset-phase verification can see.
    fn sticky_circuit() -> DualRailNetlist {
        let mut dr = and_or_circuit();
        let a_p = dr.dual_input("a").unwrap().positive;
        let tie = dr
            .netlist_mut()
            .add_cell("tie", netlist::CellKind::Tie1, &[])
            .unwrap();
        dr.netlist_mut()
            .add_cell("sticky", netlist::CellKind::CElement2, &[a_p, tie])
            .unwrap();
        dr
    }

    /// A worker left dirty by a failed cycle never serves a later call:
    /// the call after the sticky cell latched runs on a rebuilt worker
    /// and matches a fresh driver, on the scalar and the sliced kernel.
    #[test]
    fn a_worker_that_failed_verification_is_never_reused() {
        let dr = sticky_circuit();
        let lib = Library::umc_ll();
        let latch = [vec![true, true, false]];
        let a_low: Vec<Vec<bool>> = workload(3, 8).into_iter().filter(|op| !op[0]).collect();
        for threads in [1, 2] {
            let session = ParallelProtocolDriver::new(&dr, &lib, threads).unwrap();
            let fresh = || ParallelProtocolDriver::new(&dr, &lib, threads).unwrap();

            let latched = session.run_workload(&latch);
            assert!(
                matches!(latched, Err(DualRailError::SpacerStateMismatch { .. })),
                "got {latched:?}"
            );
            assert_eq!(
                session.run_workload(&a_low).unwrap(),
                fresh().run_workload(&a_low).unwrap(),
                "threads = {threads}"
            );

            let latched = session.run_workload_sliced(&latch);
            assert!(
                matches!(latched, Err(DualRailError::SpacerStateMismatch { .. })),
                "got {latched:?}"
            );
            assert_eq!(
                session.run_workload_sliced(&a_low).unwrap(),
                fresh().run_workload_sliced(&a_low).unwrap(),
                "threads = {threads}"
            );
        }
    }

    /// Concurrent calls on one shared driver each check out their own
    /// workers and return exactly what sequential calls return.
    #[test]
    fn concurrent_calls_share_one_driver_and_match_sequential_calls() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let driver = ParallelProtocolDriver::new(&dr, &lib, 2).unwrap();
        let left = workload(3, 8);
        let right: Vec<Vec<bool>> = (0..70).map(|k| left[(k * 3) % 8].clone()).collect();
        let expected = (
            driver.run_workload_sliced(&left).unwrap(),
            driver.run_workload_sliced(&right).unwrap(),
        );
        for _ in 0..3 {
            let got = std::thread::scope(|scope| {
                let left = scope.spawn(|| driver.run_workload_sliced(&left).unwrap());
                let right = scope.spawn(|| driver.run_workload_sliced(&right).unwrap());
                (left.join().unwrap(), right.join().unwrap())
            });
            assert_eq!(got, expected);
        }
    }

    /// Pooled workers carry the metrics handles they were built with,
    /// so `clear_metrics` must retire them: later runs leave the old
    /// registry untouched.  While routing is unchanged, a session's
    /// snapshot after several calls equals that of one fresh driver per
    /// call (worker construction never reaches the registry).
    #[test]
    fn metrics_routing_changes_retire_pooled_workers() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let operands = workload(3, 8);
        let calls = |driver: &ParallelProtocolDriver<'_>| {
            driver.run_workload(&operands).unwrap();
            driver.run_workload_sliced(&operands).unwrap();
        };

        let pooled = Arc::new(tm_obs::MetricsRegistry::new());
        let mut session = ParallelProtocolDriver::new(&dr, &lib, 2).unwrap();
        session.set_metrics(&pooled, "dr");
        let fresh = Arc::new(tm_obs::MetricsRegistry::new());
        for _ in 0..3 {
            calls(&session);
            let mut driver = ParallelProtocolDriver::new(&dr, &lib, 2).unwrap();
            driver.set_metrics(&fresh, "dr");
            calls(&driver);
        }
        let snapshot = pooled.snapshot();
        assert!(snapshot.counter("dr.sliced.protocol.cycles") > 0);
        assert_eq!(snapshot, fresh.snapshot());

        session.clear_metrics();
        calls(&session);
        assert_eq!(pooled.snapshot(), snapshot);
    }

    #[test]
    fn empty_workload_yields_empty_run() {
        let dr = and_or_circuit();
        let lib = Library::umc_ll();
        let driver = ParallelProtocolDriver::new(&dr, &lib, 3).unwrap();
        let run = driver.run_workload(&[]).unwrap();
        assert!(run.results.is_empty());
        assert_eq!(run.latency.count(), 0);
        assert_eq!(run.done_latency(), Some(LatencyReport::default()));
    }
}
