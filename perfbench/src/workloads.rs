//! The four workloads, their set-up, golden gates and layer probes.
//!
//! Every workload runs the standard keyword-spotting datapath
//! (`standard_config()`: 12 features × 8 clauses per polarity, dual-rail,
//! UMC LL library) with a Tsetlin machine trained from the workload
//! seed.  Operand counts, rates and thread counts are fixed constants,
//! so a faster commit runs the same workload, not a heavier one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use celllib::Library;
use datapath::{
    DatapathConfig, DualRailDatapath, DualRailInference, DualRailRun, InferenceOutcome,
    InferenceWorkload,
};
use dualrail::{Occupancy, OperandResult, PipelineConfig};
use gatesim::EngineProgram;
use tm_async_bench::serving::sweep_config;
use tm_lint::LintConfig;
use tm_obs::{MetricsRegistry, MetricsSnapshot};
use tm_serve::{
    AdmissionPolicy, Backend, DualRailSlicedBackend, ServeConfig, ServeError, Server, Trace,
};

use crate::spans::{traced, Recorder};
use crate::stats::{loop_self_ns, Samples, Tally};

/// Operands in the trained stream; `bulk_sliced` runs all of them per
/// pass (128 words of 64 lanes) and `serve_busy` replays all of them.
pub const STREAM_OPERANDS: usize = 8192;
/// Operands per `pipelined_train` pass.
pub const PIPELINED_OPERANDS: usize = 256;
/// Worker threads of the offline workloads, sized for a 2-core host.
pub const OFFLINE_THREADS: usize = 2;
/// Worker threads of the serving backend.
pub const SERVE_THREADS: usize = 1;
/// `serve_trickle` offered rate, requests per second of virtual time.
pub const TRICKLE_QPS: f64 = 200.0;
/// `serve_trickle` requests per pass (about 5 virtual seconds).
pub const TRICKLE_REQUESTS: usize = 1024;
/// `serve_busy` offered rate, requests per second of virtual time.
pub const BUSY_QPS: f64 = 12_000.0;
/// `serve_busy` requests per pass (about 0.7 virtual seconds).
pub const BUSY_REQUESTS: usize = 8192;
/// Sojourn samples a serving run reserves room for up front (more than
/// a minute of `serve_busy` on a 2-core host).
const SERVE_SAMPLE_CAPACITY: usize = 1 << 21;
/// Set-ups per run, spread across it; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// Operands on which the engines' bit-identity contracts are checked.
pub const CONTRACT_OPERANDS: usize = 64;
/// Seed kept out of every tuning run, for checking a claimed gain.
pub const HELD_OUT_SEED: u64 = 90_210;

/// The wavefront-pipelined schedule at full occupancy.
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        occupancy: Occupancy::Max,
        ..PipelineConfig::default()
    }
}

/// The serving workloads' configuration: `sweep_config()` (256-deep
/// queue, batches of up to 64, 50 µs window, measured service) with
/// blocking admission.  Service time is measured on the host, so a host
/// stall of about 21 ms at 12 000 req/s fills the 256 slots; a shedding
/// queue would then drop requests and make the failure count depend on
/// the host.  A blocked request is kept and its wait shows in its
/// sojourn instead.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        policy: AdmissionPolicy::Block,
        ..sweep_config()
    }
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Offline closed loop over 8192 operands on the sliced engine.
    BulkSliced,
    /// Open-loop Poisson traffic at 200 req/s through the server.
    ServeTrickle,
    /// Open-loop Poisson traffic at 12 000 req/s through the server.
    ServeBusy,
    /// Offline wavefront-pipelined token trains over 256 operands.
    PipelinedTrain,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 4] = [
        Self::BulkSliced,
        Self::ServeTrickle,
        Self::ServeBusy,
        Self::PipelinedTrain,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::BulkSliced => "bulk_sliced",
            Self::ServeTrickle => "serve_trickle",
            Self::ServeBusy => "serve_busy",
            Self::PipelinedTrain => "pipelined_train",
        }
    }

    /// Whether the workload runs through the server.
    #[must_use]
    pub fn is_serve(self) -> bool {
        matches!(self, Self::ServeTrickle | Self::ServeBusy)
    }

    /// Operands (offline) or requests (serving) per pass.
    #[must_use]
    pub fn per_pass(self) -> usize {
        match self {
            Self::BulkSliced | Self::ServeBusy => STREAM_OPERANDS,
            Self::ServeTrickle => TRICKLE_REQUESTS,
            Self::PipelinedTrain => PIPELINED_OPERANDS,
        }
    }

    /// Worker threads of the workload's engine.
    #[must_use]
    pub fn threads(self) -> usize {
        if self.is_serve() {
            SERVE_THREADS
        } else {
            OFFLINE_THREADS
        }
    }
}

/// Inputs shared by every part of a run.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// The datapath dimensions.
    pub config: DatapathConfig,
    /// Cell library for delays.
    pub library: Library,
    /// The trained machine's 8192-operand stream with golden outcomes.
    pub stream: InferenceWorkload,
}

impl Ctx {
    /// The first `n` operands of the stream as a workload of their own.
    fn prefix(&self, n: usize) -> Result<InferenceWorkload, String> {
        InferenceWorkload::new(
            &self.config,
            self.stream.masks().clone(),
            self.stream.feature_vectors()[..n].to_vec(),
        )
        .map_err(|e| e.to_string())
    }
}

/// Milliseconds of a duration.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` inside a span (when tracing) and measures its wall time.
fn timed<R>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: Option<u64>,
    group: Option<u64>,
    f: impl FnOnce(Option<u64>) -> R,
) -> (R, Duration) {
    traced(rec, name, parent, group, |id| {
        let start = Instant::now();
        let result = f(id);
        (result, start.elapsed())
    })
}

/// Per-stage set-up times, one sample per set-up.
#[derive(Debug, Default)]
pub struct SetupStages {
    /// Whole set-up, seconds.
    pub total: Samples,
    /// `DualRailDatapath::generate`, ms.
    pub generate: Samples,
    /// `tm_lint::lint_dual_rail`, uncached, ms.
    pub lint: Samples,
    /// `EngineProgram::new`, ms.
    pub compile: Samples,
    /// Driver (offline) or backend and server (serving) construction, ms.
    pub build: Samples,
    /// Error-severity lint findings of the last set-up.
    pub lint_errors: usize,
    /// Netlist name and cell count.
    pub netlist: (String, usize),
}

/// Builds a workload's engine from a datapath: the last set-up step,
/// timed as `dualrail.driver_new`.
pub trait Build {
    /// The engine, borrowing the datapath.
    type Engine<'d>;

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Returns driver construction failures.
    fn build<'d>(&mut self, datapath: &'d DualRailDatapath) -> Result<Self::Engine<'d>, String>;
}

/// The offline workloads' engine: the sharded dual-rail driver.
struct OfflineBuild<'c> {
    library: &'c Library,
}

impl Build for OfflineBuild<'_> {
    type Engine<'d> = DualRailInference<'d>;

    fn build<'d>(&mut self, datapath: &'d DualRailDatapath) -> Result<Self::Engine<'d>, String> {
        DualRailInference::new(datapath, self.library, OFFLINE_THREADS).map_err(|e| e.to_string())
    }
}

/// The serving workloads' engine: the server over the sliced backend.
struct ServeBuild<'p> {
    library: &'p Library,
    population: &'p InferenceWorkload,
}

impl<'p> Build for ServeBuild<'p> {
    type Engine<'d> = Server<'p, DualRailSlicedBackend<'d>>;

    fn build<'d>(&mut self, datapath: &'d DualRailDatapath) -> Result<Self::Engine<'d>, String> {
        let backend = DualRailSlicedBackend::new(
            datapath,
            self.library,
            self.population.masks().clone(),
            SERVE_THREADS,
        )
        .map_err(|e| e.to_string())?;
        Server::new(backend, self.population, serve_config()).map_err(|e| e.to_string())
    }
}

/// The traced serving engine: the server over [`TracedBackend`].
struct TracedServeBuild<'p> {
    library: &'p Library,
    population: &'p InferenceWorkload,
    recorder: Arc<Recorder>,
    parent: Arc<AtomicU64>,
    registry: Arc<MetricsRegistry>,
}

impl<'p> Build for TracedServeBuild<'p> {
    type Engine<'d> = Server<'p, TracedBackend<'d>>;

    fn build<'d>(&mut self, datapath: &'d DualRailDatapath) -> Result<Self::Engine<'d>, String> {
        let mut inner = DualRailInference::new(datapath, self.library, SERVE_THREADS)
            .map_err(|e| e.to_string())?;
        inner.set_metrics(&self.registry, "dr");
        let backend = TracedBackend {
            inner,
            masks: self.population.masks().clone(),
            recorder: Arc::clone(&self.recorder),
            parent: Arc::clone(&self.parent),
            batch: 0,
        };
        Server::new(backend, self.population, serve_config()).map_err(|e| e.to_string())
    }
}

/// The set-up a run keeps for its passes, plus what the probes reuse.
struct Setup<E> {
    engine: E,
    datapath: &'static DualRailDatapath,
    program: Arc<EngineProgram<'static>>,
}

/// The [`SETUPS`] set-ups of one run, each from trained masks and
/// operands in hand to an engine ready for its first call.  The first
/// is kept for the passes; the others are spread across the run and
/// discarded, so that `setup_s` samples the host over the same stretch
/// of time as the passes do.
struct Setups<'c, B> {
    ctx: &'c Ctx,
    build: B,
    stages: SetupStages,
    /// The boxes that held the discarded set-ups' datapaths, emptied.
    /// The driver's lint pre-flight memoises its verdict by netlist
    /// address; keeping each box allocated means no later datapath can
    /// land on an earlier one's address and skip the lint it paid for.
    /// The boxes are the point: each pins one address.
    #[allow(clippy::vec_box)]
    reserved: Vec<Box<Option<DualRailDatapath>>>,
}

impl<'c, B: Build> Setups<'c, B> {
    fn new(ctx: &'c Ctx, build: B) -> Self {
        Self {
            ctx,
            build,
            stages: SetupStages::default(),
            reserved: Vec::new(),
        }
    }

    /// One timed set-up into `slot`.
    fn one<'d>(
        &mut self,
        rec: Option<&Recorder>,
        parent: Option<u64>,
        slot: &'d mut Option<DualRailDatapath>,
    ) -> Result<(B::Engine<'d>, &'d DualRailDatapath, EngineProgram<'d>), String> {
        let (ctx, stages, build) = (self.ctx, &mut self.stages, &mut self.build);
        let group = Some(stages.total.len() as u64);
        let start = Instant::now();
        let setup = traced(rec, "bench.setup", parent, group, |id| {
            let (datapath, t) = timed(rec, "datapath.generate", id, None, |_| {
                DualRailDatapath::generate(&ctx.config)
            });
            let datapath: &'d DualRailDatapath = slot.insert(datapath.map_err(|e| e.to_string())?);
            stages.generate.push(ms(t));
            let (report, t) = timed(rec, "lint.verify", id, None, |_| {
                tm_lint::lint_dual_rail(datapath.circuit(), &ctx.library, &LintConfig::default())
            });
            stages.lint.push(ms(t));
            stages.lint_errors = report.error_count();
            let (program, t) = timed(rec, "gatesim.compile", id, None, |_| {
                EngineProgram::new(datapath.netlist(), &ctx.library)
            });
            stages.compile.push(ms(t));
            let (engine, t) = timed(rec, "dualrail.driver_new", id, None, |_| {
                build.build(datapath)
            });
            stages.build.push(ms(t));
            Ok::<_, String>((engine?, datapath, program))
        })?;
        stages.total.push(start.elapsed().as_secs_f64());
        let netlist = setup.1.netlist();
        stages.netlist = (netlist.name().to_string(), netlist.cell_count());
        Ok(setup)
    }

    /// The first set-up, kept for the run.
    fn kept(
        &mut self,
        rec: Option<&Recorder>,
        parent: Option<u64>,
    ) -> Result<Setup<B::Engine<'static>>, String> {
        let slot = Box::leak(Box::new(None));
        let (engine, datapath, program) = self.one(rec, parent, slot)?;
        Ok(Setup {
            engine,
            datapath,
            program: Arc::new(program),
        })
    }

    /// Runs the discarded set-ups due once `elapsed` of `seconds` have
    /// passed: set-up `k` is due at `k / SETUPS` of the run.
    fn catch_up(
        &mut self,
        rec: Option<&Recorder>,
        parent: Option<u64>,
        elapsed: f64,
        seconds: f64,
    ) -> Result<(), String> {
        while self.stages.total.len() < SETUPS
            && elapsed >= seconds * self.stages.total.len() as f64 / SETUPS as f64
        {
            let mut slot = Box::new(None);
            let done = self.one(rec, parent, &mut slot).map(drop);
            *slot = None;
            self.reserved.push(slot);
            done?;
        }
        Ok(())
    }

    /// Runs every set-up not yet run and hands back the stage times.
    fn finish(
        mut self,
        rec: Option<&Recorder>,
        parent: Option<u64>,
    ) -> Result<SetupStages, String> {
        self.catch_up(rec, parent, f64::INFINITY, 1.0)?;
        Ok(self.stages)
    }
}

/// Simulated-time results: they repeat exactly at one seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimFigures {
    /// Mean spacer→valid latency, ps.
    pub latency_avg_ps: f64,
    /// Slowest spacer→valid latency, ps: the critical path, which some
    /// operand of every trained machine reaches.
    pub latency_max_ps: f64,
    /// Mean spacer→`done` latency, ps: when the completion detector
    /// tells the environment the result is ready.
    pub done_avg_ps: f64,
    /// Median injection interval, ps: the four-phase cycle time
    /// unpipelined, the wavefront interval pipelined.
    pub cycle_median_ps: f64,
}

/// The same median the `throughput` experiment takes of serial cycle
/// times: the upper middle element.
fn serial_cycle_median(results: &[OperandResult]) -> f64 {
    let mut cycles: Vec<f64> = results.iter().map(|r| r.cycle_time_ps).collect();
    cycles.sort_by(f64::total_cmp);
    cycles[cycles.len() / 2]
}

/// Simulated figures of a run whose injection interval is
/// `cycle_median_ps`.
fn sim_figures(run: &DualRailRun, cycle_median_ps: f64) -> Result<SimFigures, String> {
    let done = run
        .done_latency
        .as_ref()
        .ok_or("the datapath reports no done latency")?;
    Ok(SimFigures {
        latency_avg_ps: run.latency.average_ps(),
        latency_max_ps: run.latency.max_ps(),
        done_avg_ps: done.average_ps(),
        cycle_median_ps,
    })
}

/// Counts decisions that disagree with the golden outcomes.
fn golden_mismatches(outcomes: &[InferenceOutcome], expected: &[InferenceOutcome]) -> u64 {
    let wrong = outcomes
        .iter()
        .zip(expected)
        .filter(|(a, b)| a != b)
        .count();
    (wrong + expected.len().abs_diff(outcomes.len())) as u64
}

fn bits_differ(a: f64, b: f64) -> bool {
    a.to_bits() != b.to_bits()
}

/// Off the clock: on the first [`CONTRACT_OPERANDS`] operands, the
/// sliced engine (or, for `pipelined`, the wavefront schedule) must
/// reproduce the scalar serial driver's outcomes and latencies bit for
/// bit, and the serial outcomes must be golden.
fn check_contract(
    inference: &DualRailInference<'_>,
    workload: &InferenceWorkload,
    pipelined: bool,
    tally: &mut Tally,
) -> Result<(), String> {
    let n = CONTRACT_OPERANDS.min(workload.len());
    let vectors = &workload.feature_vectors()[..n];
    let masks = workload.masks();
    let serial = inference
        .run_features(masks, vectors)
        .map_err(|e| e.to_string())?;
    tally.mismatched += golden_mismatches(&serial.outcomes, &workload.expected()[..n]);
    let other = if pipelined {
        inference
            .run_features_pipelined(masks, vectors, pipeline_config())
            .map_err(|e| e.to_string())?
            .0
    } else {
        inference
            .run_features_sliced(masks, vectors)
            .map_err(|e| e.to_string())?
    };
    let breaches = serial
        .outcomes
        .iter()
        .zip(&other.outcomes)
        .zip(serial.results.iter().zip(&other.results))
        .filter(|((a, b), (ra, rb))| {
            a != b
                || bits_differ(ra.s_to_v_latency_ps, rb.s_to_v_latency_ps)
                || (!pipelined
                    && ra.done_latency_ps.map(f64::to_bits) != rb.done_latency_ps.map(f64::to_bits))
        })
        .count();
    tally.mismatched += breaches as u64 + n.abs_diff(other.outcomes.len()) as u64;
    Ok(())
}

/// Everything one run of a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Failure accounting.
    pub tally: Tally,
    /// Set-up stage times.
    pub setup: SetupStages,
    /// Completed operands or requests per host second, one per pass.
    pub ops_per_s: Samples,
    /// Sojourn per operand or request, ms.
    pub sojourn_ms: Samples,
    /// Passes run.
    pub passes: usize,
    /// Simulated-time figures.
    pub sim: SimFigures,
    /// The workload's own layer call per pass (`run_sliced`,
    /// `pipelined_run` or `Server::run`), ms.
    pub layer_call_ms: Samples,
    /// Golden check per pass, ms.
    pub verify_ms: Samples,
    /// Serving figures (serving workloads only).
    pub serve: Option<ServeFigures>,
    /// Engine counters of exactly one pass, and that pass's operands.
    pub counts: Option<(MetricsSnapshot, usize)>,
}

/// Serving-layer figures over every pass.
#[derive(Debug, Default)]
pub struct ServeFigures {
    /// Arrival → service start, ms of virtual time.
    pub queue_ms: Samples,
    /// Backend call per request, ms.
    pub service_ms: Samples,
    /// `Server::run` wall time minus backend time, ms per pass.
    pub loop_self_ms: Samples,
    /// Batches dispatched.
    pub batches: usize,
    /// Requests served.
    pub served: usize,
    /// Passes.
    pub passes: usize,
}

impl ServeFigures {
    /// Mean requests per batch.
    #[must_use]
    pub fn batch_mean(&self) -> f64 {
        self.served as f64 / self.batches.max(1) as f64
    }

    /// Mean batches per pass.
    #[must_use]
    pub fn batches_per_pass(&self) -> f64 {
        self.batches as f64 / self.passes.max(1) as f64
    }
}

/// Runs `workload` for `seconds` of measured passes, recording spans
/// under `root` when `rec` is present.
///
/// # Errors
///
/// Returns generation or set-up failures; engine failures during the
/// measured passes are counted in the tally instead.
pub fn measure(
    ctx: &Ctx,
    workload: Workload,
    seconds: f64,
    rec: Option<&Arc<Recorder>>,
    root: Option<u64>,
) -> Result<(Measured, Probe), String> {
    if workload.is_serve() {
        measure_serve(ctx, workload, seconds, rec, root)
    } else {
        measure_offline(ctx, workload, seconds, rec.map(AsRef::as_ref), root)
    }
}

/// What the layer probes reuse from a measured run.
pub struct Probe {
    /// The kept set-up's datapath.
    pub datapath: &'static DualRailDatapath,
    /// The kept set-up's compiled program.
    pub program: Arc<EngineProgram<'static>>,
    /// The operands one pass runs or replays.
    pub population: InferenceWorkload,
}

fn measure_offline(
    ctx: &Ctx,
    workload: Workload,
    seconds: f64,
    rec: Option<&Recorder>,
    root: Option<u64>,
) -> Result<(Measured, Probe), String> {
    let pipelined = workload == Workload::PipelinedTrain;
    let population = ctx.prefix(workload.per_pass())?;
    let mut m = Measured::default();
    let mut setups = Setups::new(
        ctx,
        OfflineBuild {
            library: &ctx.library,
        },
    );
    let Setup {
        engine: mut inference,
        datapath,
        program,
    } = setups.kept(rec, root)?;
    traced(rec, "bench.verify", root, None, |_| {
        check_contract(&inference, &population, pipelined, &mut m.tally)
    })?;
    let registry = rec.map(|_| Arc::new(MetricsRegistry::new()));
    if let Some(registry) = &registry {
        inference.set_metrics(registry, "dr");
    }

    let layer = if pipelined {
        "dualrail.pipelined_run"
    } else {
        "dualrail.run_sliced"
    };
    let expected = population.expected();
    let operands = population.len();
    let start = Instant::now();
    // The first pass's latencies, bit for bit: simulated time must
    // repeat exactly, pass after pass.
    let mut first: Option<Vec<u64>> = None;
    while m.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        setups.catch_up(rec, root, start.elapsed().as_secs_f64(), seconds)?;
        let pass = m.passes as u64;
        let ok = traced(rec, "bench.pass", root, Some(pass), |id| {
            let (run, t) = timed(rec, layer, id, None, |_| {
                if pipelined {
                    inference
                        .run_workload_pipelined(&population, pipeline_config())
                        .map(|(run, report)| (run, Some(report)))
                } else {
                    inference
                        .run_workload_sliced(&population)
                        .map(|run| (run, None))
                }
            });
            m.tally.attempted += operands as u64;
            let Ok((run, report)) = run else {
                m.tally.engine_errors += operands as u64;
                return false;
            };
            m.layer_call_ms.push(ms(t));
            m.ops_per_s.push(operands as f64 / t.as_secs_f64());
            m.sojourn_ms.push(ms(t));
            let ((), t) = timed(rec, "bench.verify", id, None, |_| {
                m.tally.mismatched += golden_mismatches(&run.outcomes, expected);
                let bits: Vec<u64> = run
                    .latency
                    .latencies_ps()
                    .iter()
                    .map(|l| l.to_bits())
                    .collect();
                match &first {
                    Some(first) => {
                        m.tally.mismatched +=
                            first.iter().zip(&bits).filter(|(a, b)| a != b).count() as u64;
                    }
                    None => {
                        let cycle = match &report {
                            Some(report) => report.cycle.median_ps(),
                            None => serial_cycle_median(&run.results),
                        };
                        match sim_figures(&run, cycle) {
                            Ok(sim) => m.sim = sim,
                            Err(error) => {
                                eprintln!("{error}");
                                m.tally.engine_errors += 1;
                            }
                        }
                        if let Some(registry) = &registry {
                            m.counts = Some((registry.snapshot(), operands));
                        }
                        first = Some(bits);
                    }
                }
            });
            m.verify_ms.push(ms(t));
            true
        });
        m.passes += 1;
        if !ok {
            break;
        }
    }
    m.setup = setups.finish(rec, root)?;
    Ok((
        m,
        Probe {
            datapath,
            program,
            population,
        },
    ))
}

/// A serving backend that forwards to the same
/// `DualRailInference::run_features_sliced` call as
/// [`DualRailSlicedBackend`], with engine counters attached and a span
/// around each batch.  Traced runs only.
struct TracedBackend<'d> {
    inner: DualRailInference<'d>,
    masks: tsetlin::ExcludeMasks,
    recorder: Arc<Recorder>,
    parent: Arc<AtomicU64>,
    batch: u64,
}

impl Backend for TracedBackend<'_> {
    fn name(&self) -> &'static str {
        "dualrail_sliced"
    }

    fn serve(&mut self, features: &[&[bool]]) -> Result<Vec<InferenceOutcome>, ServeError> {
        // The main thread stores the enclosing `serve.run` span id
        // before handing the batch over the server's channel, which
        // orders the store before this load.
        let parent = self.parent.load(Ordering::Relaxed);
        let batch = self.batch;
        self.batch += 1;
        let (inner, masks) = (&self.inner, &self.masks);
        self.recorder
            .span("serve.backend", Some(parent), Some(batch), 2, |_| {
                Ok(inner.run_features_sliced(masks, features)?.outcomes)
            })
    }
}

/// Seeds pass `pass`'s arrival trace from the workload seed.
fn trace_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (pass as u64 + 1)
}

fn measure_serve(
    ctx: &Ctx,
    workload: Workload,
    seconds: f64,
    rec: Option<&Arc<Recorder>>,
    root: Option<u64>,
) -> Result<(Measured, Probe), String> {
    let population = ctx.prefix(workload.per_pass())?;
    let library = &ctx.library;
    match rec {
        None => {
            let build = ServeBuild {
                library,
                population: &population,
            };
            let setups = Setups::new(ctx, build);
            serve_passes(
                ctx,
                workload,
                seconds,
                None,
                root,
                &population,
                setups,
                None,
            )
        }
        Some(recorder) => {
            let parent = Arc::new(AtomicU64::new(0));
            let registry = Arc::new(MetricsRegistry::new());
            let build = TracedServeBuild {
                library,
                population: &population,
                recorder: Arc::clone(recorder),
                parent: Arc::clone(&parent),
                registry: Arc::clone(&registry),
            };
            serve_passes(
                ctx,
                workload,
                seconds,
                Some(recorder),
                root,
                &population,
                Setups::new(ctx, build),
                Some((&parent, &registry)),
            )
        }
    }
}

/// The serving passes.  `tracing` carries the cell through which the
/// traced backend learns its parent span, and the counters' registry.
#[allow(clippy::too_many_arguments)]
fn serve_passes<'p, Bk, Bl>(
    ctx: &Ctx,
    workload: Workload,
    seconds: f64,
    rec: Option<&Arc<Recorder>>,
    root: Option<u64>,
    population: &'p InferenceWorkload,
    mut setups: Setups<'_, Bl>,
    tracing: Option<(&AtomicU64, &Arc<MetricsRegistry>)>,
) -> Result<(Measured, Probe), String>
where
    Bk: Backend + Send,
    Bl: Build<Engine<'static> = Server<'p, Bk>>,
{
    let rec = rec.map(AsRef::as_ref);
    let mut m = Measured::default();
    let Setup {
        engine: mut server,
        datapath,
        program,
    } = setups.kept(rec, root)?;
    let (qps, requests) = match workload {
        Workload::ServeTrickle => (TRICKLE_QPS, TRICKLE_REQUESTS),
        _ => (BUSY_QPS, BUSY_REQUESTS),
    };

    // Off the clock: golden outcomes and simulated latency of every
    // sample the server replays, and the sliced-vs-scalar contract.
    traced(rec, "bench.verify", root, None, |_| {
        let reference = DualRailInference::new(datapath, &ctx.library, SERVE_THREADS)
            .map_err(|e| e.to_string())?;
        check_contract(&reference, population, false, &mut m.tally)?;
        let run = reference
            .run_workload_sliced(population)
            .map_err(|e| e.to_string())?;
        m.tally.mismatched += golden_mismatches(&run.outcomes, population.expected());
        m.sim = sim_figures(&run, serial_cycle_median(&run.results))?;
        Ok::<_, String>(())
    })?;

    let mut figures = ServeFigures::default();
    m.sojourn_ms = Samples::with_capacity(SERVE_SAMPLE_CAPACITY);
    let start = Instant::now();
    while m.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        setups.catch_up(rec, root, start.elapsed().as_secs_f64(), seconds)?;
        let pass = m.passes;
        let trace = Trace::poisson(requests, qps, trace_seed(ctx.seed, pass));
        let ok = traced(rec, "bench.pass", root, Some(pass as u64), |id| {
            let (report, wall) = timed(rec, "serve.run", id, None, |run_id| {
                if let (Some((parent, _)), Some(id)) = (tracing, run_id) {
                    parent.store(id, Ordering::Relaxed);
                }
                server.run(&trace)
            });
            let report = match report {
                Ok(report) => report,
                Err(error) => {
                    eprintln!("pass {pass}: serving failed: {error}");
                    m.tally.attempted += requests as u64;
                    m.tally.engine_errors += requests as u64;
                    return false;
                }
            };
            let ((), t) = timed(rec, "bench.verify", id, None, |_| {
                m.tally.add_serve(requests, &report, population);
                for record in &report.served {
                    m.sojourn_ms.push(record.sojourn_ns() as f64 / 1e6);
                    // Layer figures are the traced run's business; the
                    // timed runs keep one sample per request.
                    if rec.is_some() {
                        figures.queue_ms.push(record.queue_ns as f64 / 1e6);
                        figures.service_ms.push(record.service_ns as f64 / 1e6);
                    }
                }
            });
            m.verify_ms.push(ms(t));
            let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
            figures
                .loop_self_ms
                .push(loop_self_ns(wall_ns, &report) as f64 / 1e6);
            figures.batches += report.batches.len();
            figures.served += report.served_count();
            figures.passes += 1;
            m.layer_call_ms.push(ms(wall));
            m.ops_per_s
                .push(report.served_count() as f64 / wall.as_secs_f64());
            if let (0, Some((_, registry))) = (pass, tracing) {
                // Set-up runs no operand, so these are one pass's counts.
                m.counts = Some((registry.snapshot(), report.served_count()));
            }
            println!(
                "pass {pass}: poisson trace, {} requests, offered {:.1} req/s, served {}, shed {}, \
                 {} batches, wall {:.1} ms",
                trace.len(),
                trace.offered_qps(),
                report.served_count(),
                report.shed_count(),
                report.batches.len(),
                ms(wall)
            );
            true
        });
        m.passes += 1;
        if !ok {
            break;
        }
    }
    m.serve = Some(figures);
    m.setup = setups.finish(rec, root)?;
    Ok((
        m,
        Probe {
            datapath,
            program,
            population: population.clone(),
        },
    ))
}
