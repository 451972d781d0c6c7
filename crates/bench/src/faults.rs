//! Experiment E7 — gate-level fault-injection campaign: stuck-at, SEU
//! and delay faults swept across fault site × fault type × inference
//! engine.
//!
//! The paper's dual-rail datapath carries a structural safety claim:
//! the encoding has no legal both-rails-active codeword and the
//! completion tree only acknowledges fully valid outputs, so a broad
//! class of gate-level faults is **detected by design** (the handshake
//! either exposes an illegal codeword or never completes) instead of
//! silently corrupting an answer.  The single-rail golden model makes
//! the control comparison: the same faults there can only be caught by
//! the X-propagation decode check or the watchdog.
//!
//! Every injected fault run is classified against the workload's golden
//! outcome:
//!
//! * **masked** — the fault changed nothing observable; the outcome is
//!   bit-identical to the golden outcome.
//! * **detected** — the engine raised a typed error (illegal codeword,
//!   protocol violation, spacer mismatch, decode failure): the fault
//!   was caught before a wrong answer escaped.
//! * **timeout** — the watchdog (event limit or time horizon) tripped:
//!   the circuit never settled, which an asynchronous deployment
//!   observes as a missing completion. Caught, but only by timeout.
//! * **silent** — the run completed, decoded cleanly, and the answer is
//!   **wrong**. The dangerous class.
//!
//! Detection coverage is reported over the *corrupting* runs only
//! (masked runs carry no information about detection):
//! `(detected + timeout) / (detected + timeout + silent)`.
//!
//! The campaign also measures **accuracy under fault**: k simultaneous
//! stuck-at faults (k ∈ {0, 1, 2, 4, 8}) at strided sites, reporting
//! the fraction of operands still answered correctly and the fraction
//! flagged by detection, per engine family.

use std::sync::Arc;

use celllib::Library;
use datapath::{
    decode_operand_run, operand_bit_vectors, BatchGoldenModel, DatapathConfig, DualRailDatapath,
    InferenceOutcome, InferenceWorkload,
};
use dualrail::{DualRailError, OperandResult, ProtocolDriver, SlicedProtocolDriver};
use exec::Executor;
use gatesim::{
    EngineProgram, FaultPlan, Logic, OperandRun, ParallelEventSim, SettleError, Simulator,
    SlicedSimulator,
};
use netlist::{NetId, Netlist};
use tm_obs::Json;

/// Simulated-time watchdog for every faulted settle phase (per rebased
/// phase frame): generous against the healthy sub-nanosecond cycles,
/// tiny against the event limit a delay-free oscillation would burn.
pub const HORIZON_PS: f64 = 1.0e6;

/// When during each rebased phase the SEU pulse flips its net (ps).
pub const SEU_AT_PS: f64 = 60.0;

/// How long the SEU pulse holds the flipped value (ps) — a few gate
/// delays, long enough to propagate.
pub const SEU_DURATION_PS: f64 = 90.0;

/// Delay-fault multiplier applied to the faulted net's driver cell.
pub const DELAY_SCALE: f64 = 25.0;

/// The simultaneous-stuck-at counts of the accuracy-under-fault sweep.
pub const ACCURACY_FAULT_COUNTS: [usize; 5] = [0, 1, 2, 4, 8];

/// One injected fault: what kind, where.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Fault class name (`stuck_at_0`, `stuck_at_1`, `seu`, `delay`).
    pub kind: &'static str,
    /// The faulted net (site), as a netlist index.
    pub net: usize,
    /// The installed plan.
    pub plan: FaultPlan,
}

/// Per-operand classification counts of one (engine, fault) cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Classification {
    /// Outcome bit-identical to golden.
    pub masked: usize,
    /// Typed error raised (illegal codeword, protocol violation,
    /// spacer mismatch, decode failure).
    pub detected: usize,
    /// Watchdog tripped (event limit or time horizon) — no completion.
    pub timeout: usize,
    /// Completed cleanly with a wrong answer.
    pub silent: usize,
}

impl Classification {
    fn total(&self) -> usize {
        self.masked + self.detected + self.timeout + self.silent
    }

    /// Runs where the fault visibly corrupted the computation.
    fn corrupting(&self) -> usize {
        self.detected + self.timeout + self.silent
    }
}

/// One row of the campaign: one engine × one fault, classified over the
/// whole workload.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignRow {
    /// Engine name (`event_scalar`, `event_sliced`, `dualrail_scalar`,
    /// `dualrail_sliced`).
    pub engine: &'static str,
    /// Fault kind.
    pub kind: &'static str,
    /// Faulted net index (site).
    pub net: usize,
    /// Per-operand classification counts.
    pub counts: Classification,
}

/// Detection coverage of one engine over every corrupting run of the
/// sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineCoverage {
    /// Engine name.
    pub engine: &'static str,
    /// Summed classification over all (fault, operand) cells.
    pub totals: Classification,
    /// `(detected + timeout) / (detected + timeout + silent)`, or 1.0
    /// when no run was corrupted.
    pub detection_coverage: f64,
}

/// One accuracy-under-fault measurement: k simultaneous stuck-at
/// faults on one engine.
#[derive(Clone, Debug, PartialEq)]
pub struct AccuracyRow {
    /// Engine name.
    pub engine: &'static str,
    /// Number of simultaneous stuck-at faults installed.
    pub stuck_faults: usize,
    /// Classification over the workload.
    pub counts: Classification,
    /// `masked / total`: the fraction of operands still answered
    /// correctly under the faults.
    pub accuracy: f64,
}

/// Reproducibility metadata embedded in the JSON document.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignMeta {
    /// Bit-sliced lane width of the sliced engines.
    pub lanes: usize,
    /// Worker threads the sharded event engines used.
    pub threads: usize,
    /// Event-count watchdog per settle phase.
    pub event_limit: u64,
    /// Simulated-time watchdog per settle phase (ps).
    pub horizon_ps: f64,
    /// Operands per (engine, fault) cell.
    pub operands: usize,
    /// Fault sites sampled per netlist.
    pub sites: usize,
    /// Workload seed.
    pub seed: u64,
}

/// The complete campaign result.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultCampaignReport {
    /// One row per engine × fault.
    pub rows: Vec<CampaignRow>,
    /// Per-engine detection coverage over the whole sweep.
    pub coverage: Vec<EngineCoverage>,
    /// Accuracy under k simultaneous stuck-at faults.
    pub accuracy: Vec<AccuracyRow>,
    /// Run metadata.
    pub meta: CampaignMeta,
}

impl FaultCampaignReport {
    /// Renders human-readable tables.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>10} {:>6} {:>7} {:>9} {:>8} {:>7}\n",
            "engine", "fault", "net", "masked", "detected", "timeout", "silent"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<18} {:>10} {:>6} {:>7} {:>9} {:>8} {:>7}\n",
                row.engine,
                row.kind,
                row.net,
                row.counts.masked,
                row.counts.detected,
                row.counts.timeout,
                row.counts.silent,
            ));
        }
        out.push_str(&format!(
            "\n{:<18} {:>11} {:>9} {:>8} {:>7} {:>10}\n",
            "engine", "corrupting", "detected", "timeout", "silent", "coverage"
        ));
        for cov in &self.coverage {
            out.push_str(&format!(
                "{:<18} {:>11} {:>9} {:>8} {:>7} {:>9.1}%\n",
                cov.engine,
                cov.totals.corrupting(),
                cov.totals.detected,
                cov.totals.timeout,
                cov.totals.silent,
                cov.detection_coverage * 100.0,
            ));
        }
        out.push_str(&format!(
            "\n{:<18} {:>6} {:>9} {:>9} {:>8} {:>7}\n",
            "engine", "faults", "accuracy", "detected", "timeout", "silent"
        ));
        for row in &self.accuracy {
            out.push_str(&format!(
                "{:<18} {:>6} {:>8.1}% {:>9} {:>8} {:>7}\n",
                row.engine,
                row.stuck_faults,
                row.accuracy * 100.0,
                row.counts.detected,
                row.counts.timeout,
                row.counts.silent,
            ));
        }
        out
    }

    /// Renders the report as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let counts = |c: &Classification| {
            [
                ("masked", Json::from(c.masked)),
                ("detected", Json::from(c.detected)),
                ("timeout", Json::from(c.timeout)),
                ("silent", Json::from(c.silent)),
            ]
        };
        let rows = self.rows.iter().map(|row| {
            let mut fields = vec![
                ("engine", Json::from(row.engine)),
                ("fault", Json::from(row.kind)),
                ("net", Json::from(row.net)),
            ];
            fields.extend(counts(&row.counts));
            Json::object(fields)
        });
        let coverage = self.coverage.iter().map(|cov| {
            Json::object([
                ("engine", Json::from(cov.engine)),
                ("corrupting", Json::from(cov.totals.corrupting())),
                ("detected", Json::from(cov.totals.detected)),
                ("timeout", Json::from(cov.totals.timeout)),
                ("silent", Json::from(cov.totals.silent)),
                ("detection_coverage", Json::Fixed(cov.detection_coverage, 4)),
            ])
        });
        let accuracy = self.accuracy.iter().map(|row| {
            let mut fields = vec![
                ("engine", Json::from(row.engine)),
                ("stuck_faults", Json::from(row.stuck_faults)),
                ("accuracy", Json::Fixed(row.accuracy, 4)),
            ];
            fields.extend(counts(&row.counts));
            Json::object(fields)
        });
        let meta = &self.meta;
        Json::object([
            ("experiment", Json::from("fault_campaign")),
            (
                "meta",
                Json::object([
                    ("lanes", Json::from(meta.lanes)),
                    ("threads", Json::from(meta.threads)),
                    ("event_limit", Json::from(meta.event_limit)),
                    ("horizon_ps", Json::Fixed(meta.horizon_ps, 0)),
                    ("operands", Json::from(meta.operands)),
                    ("sites", Json::from(meta.sites)),
                    ("seed", Json::from(meta.seed)),
                ]),
            ),
            ("rows", Json::array(rows)),
            ("coverage", Json::array(coverage)),
            ("accuracy_under_fault", Json::array(accuracy)),
        ])
        .to_string()
    }

    /// The coverage entry of one engine.
    #[must_use]
    pub fn engine_coverage(&self, engine: &str) -> Option<&EngineCoverage> {
        self.coverage.iter().find(|c| c.engine == engine)
    }
}

/// Picks `count` internal (non-primary-input) fault sites out of
/// `netlist`, deterministically: primary-output nets first (where a
/// fault must be observable), then a stride over the remaining internal
/// nets from the outputs backwards — later nets sit nearer the output
/// cone, where faults are least likely to be logically masked.
#[must_use]
pub fn pick_sites(netlist: &Netlist, count: usize) -> Vec<NetId> {
    let mut sites: Vec<NetId> = netlist
        .primary_outputs()
        .into_iter()
        .filter(|&n| !netlist.is_primary_input(n))
        .take(count)
        .collect();
    let interior: Vec<NetId> = (0..netlist.net_count())
        .rev()
        .map(NetId::from_index)
        .filter(|&n| !netlist.is_primary_input(n) && !sites.contains(&n))
        .collect();
    if count > sites.len() && !interior.is_empty() {
        let remaining = count - sites.len();
        let stride = (interior.len() / remaining.min(interior.len())).max(1);
        sites.extend(interior.iter().step_by(stride).take(remaining));
    }
    sites.truncate(count);
    sites
}

/// Builds the stuck-at-0 / stuck-at-1 / SEU / delay plans for one site.
fn plans_for_site(netlist: &Netlist, net: NetId) -> Vec<FaultSpec> {
    let mut specs = vec![
        FaultSpec {
            kind: "stuck_at_0",
            net: net.index(),
            plan: FaultPlan::new().stuck_at(net, false),
        },
        FaultSpec {
            kind: "stuck_at_1",
            net: net.index(),
            plan: FaultPlan::new().stuck_at(net, true),
        },
        FaultSpec {
            kind: "seu",
            net: net.index(),
            plan: FaultPlan::new().seu(net, SEU_AT_PS, SEU_DURATION_PS),
        },
    ];
    if let Some(cell) = netlist.driver_cell(net) {
        specs.push(FaultSpec {
            kind: "delay",
            net: net.index(),
            plan: FaultPlan::new().scale_delay(cell, DELAY_SCALE),
        });
    }
    specs
}

fn classify_event_results(
    results: &[Result<OperandRun, SettleError>],
    golden: &[InferenceOutcome],
) -> Classification {
    let mut counts = Classification::default();
    for (k, result) in results.iter().enumerate() {
        match result {
            Err(SettleError::Watchdog { .. }) => counts.timeout += 1,
            Err(SettleError::ResetContract { .. }) => counts.detected += 1,
            Ok(run) => match decode_operand_run(run, k) {
                Err(_) => counts.detected += 1,
                Ok(outcome) if outcome == golden[k] => counts.masked += 1,
                Ok(_) => counts.silent += 1,
            },
        }
    }
    counts
}

fn classify_dualrail_error(error: &DualRailError, counts: &mut Classification) {
    match error {
        DualRailError::SimulationDiverged => counts.timeout += 1,
        _ => counts.detected += 1,
    }
}

/// The shared fixtures of one campaign run.
struct Fixture<'a> {
    datapath: &'a DualRailDatapath,
    dual_program: Arc<EngineProgram<'a>>,
    dual_snapshot: Arc<[Logic]>,
    event_sim: ParallelEventSim<'a>,
    event_operands: Vec<Vec<bool>>,
    dual_operands: Vec<Vec<bool>>,
    golden: Vec<InferenceOutcome>,
}

impl Fixture<'_> {
    /// Streams the dual-rail operands through one faulted driver per
    /// plan, `chunk` operands (one operand, or one word) per call:
    /// `fresh` builds a driver with the plan installed (`None` if the
    /// fault makes the idle circuit oscillate, so no operand on it can
    /// ever complete) and `run` drives one chunk.  The driver is rebuilt
    /// after a diverged chunk so one oscillating operand cannot
    /// contaminate the classification of the next.
    fn stream_dualrail<D>(
        &self,
        chunk: usize,
        fresh: impl Fn() -> Option<D>,
        run: impl Fn(&mut D, &[Vec<bool>]) -> Vec<Result<OperandResult, DualRailError>>,
    ) -> Classification {
        let mut counts = Classification::default();
        let mut driver = None;
        for (index, operands) in self.dual_operands.chunks(chunk).enumerate() {
            let first = index * chunk;
            if driver.is_none() {
                driver = fresh();
                if driver.is_none() {
                    counts.timeout += self.dual_operands.len() - first;
                    return counts;
                }
            }
            let active = driver.as_mut().expect("driver was just built");
            let mut diverged = false;
            for (k, result) in (first..).zip(run(active, operands)) {
                match result {
                    Ok(result) => match self.datapath.decode_outcome(&result) {
                        Err(_) => counts.detected += 1,
                        Ok(outcome) if outcome == self.golden[k] => counts.masked += 1,
                        Ok(_) => counts.silent += 1,
                    },
                    Err(error) => {
                        classify_dualrail_error(&error, &mut counts);
                        diverged |= matches!(error, DualRailError::SimulationDiverged);
                    }
                }
            }
            if diverged {
                driver = None;
            }
        }
        counts
    }

    /// Scalar dual-rail: a fresh streamed driver per plan, one operand
    /// per cycle.
    fn run_dualrail_scalar(&self, plan: &FaultPlan) -> Classification {
        self.stream_dualrail(
            1,
            || {
                let circuit = self.datapath.circuit();
                let mut fresh =
                    ProtocolDriver::from_program(circuit, Arc::clone(&self.dual_program))
                        .expect("healthy dual-rail circuit initialises");
                fresh.enable_phase_rebase();
                fresh.set_time_horizon_ps(HORIZON_PS);
                fresh.set_fault_plan(plan).ok().map(|()| fresh)
            },
            |driver, operands| operands.iter().map(|op| driver.apply_operand(op)).collect(),
        )
    }

    /// Bit-sliced dual-rail: one faulted word driver per plan, words of
    /// up to [`netlist::LANES`] operands.
    fn run_dualrail_sliced(&self, plan: &FaultPlan) -> Classification {
        self.stream_dualrail(
            netlist::LANES,
            || {
                let sim = SlicedSimulator::from_program(Arc::clone(&self.dual_program));
                let mut fresh = SlicedProtocolDriver::from_sliced_simulator(
                    self.datapath.circuit(),
                    sim,
                    Arc::clone(&self.dual_snapshot),
                    false,
                )
                .expect("healthy dual-rail circuit initialises");
                fresh.set_time_horizon_ps(HORIZON_PS);
                fresh.set_fault_plan(plan).ok().map(|()| fresh)
            },
            SlicedProtocolDriver::apply_word,
        )
    }

    fn run_event_scalar(&self, plan: &FaultPlan) -> Classification {
        let results =
            self.event_sim
                .run_operands_faulted(&self.event_operands, plan, Some(HORIZON_PS));
        classify_event_results(&results, &self.golden)
    }

    fn run_event_sliced(&self, plan: &FaultPlan) -> Classification {
        let results = self.event_sim.run_operands_sliced_faulted(
            &self.event_operands,
            plan,
            Some(HORIZON_PS),
        );
        classify_event_results(&results, &self.golden)
    }

    fn run_engine(&self, engine: &'static str, plan: &FaultPlan) -> Classification {
        match engine {
            "event_scalar" => self.run_event_scalar(plan),
            "event_sliced" => self.run_event_sliced(plan),
            "dualrail_scalar" => self.run_dualrail_scalar(plan),
            "dualrail_sliced" => self.run_dualrail_sliced(plan),
            other => unreachable!("unknown engine {other}"),
        }
    }
}

/// The engines of the sweep: the single-rail golden-model pair (scalar
/// and bit-sliced event kernels) and the dual-rail four-phase pair.
pub const ENGINES: [&str; 4] = [
    "event_scalar",
    "event_sliced",
    "dualrail_scalar",
    "dualrail_sliced",
];

/// Runs the full campaign: `sites` fault sites per netlist × 4 fault
/// kinds × 4 engines, each cell classified over `operands` golden
/// workload samples, plus the accuracy-under-fault stuck-at sweep.
///
/// Every run terminates: all faulted settle phases are bounded by the
/// event-count watchdog and the [`HORIZON_PS`] time horizon.
///
/// # Panics
///
/// Panics if workload or datapath generation fails (a fixed
/// configuration bug, not a data-dependent condition).
#[must_use]
pub fn run(operands: usize, sites: usize, threads: usize, seed: u64) -> FaultCampaignReport {
    let config = DatapathConfig::new(6, 4).expect("valid fixed configuration");
    let model = BatchGoldenModel::generate(&config).expect("golden model generates");
    let datapath = DualRailDatapath::generate(&config).expect("dual-rail datapath generates");
    let library = Library::umc_ll();
    let workload =
        InferenceWorkload::random(&config, operands, 0.6, seed).expect("workload generates");

    let event_program = Arc::new(EngineProgram::new(model.netlist(), &library));
    let dual_program = Arc::new(EngineProgram::new(datapath.circuit().netlist(), &library));
    let dual_snapshot = ProtocolDriver::from_program(datapath.circuit(), Arc::clone(&dual_program))
        .expect("healthy dual-rail circuit initialises")
        .quiescent_snapshot();
    let fixture = Fixture {
        datapath: &datapath,
        dual_program,
        dual_snapshot,
        event_sim: ParallelEventSim::from_program(
            Arc::clone(&event_program),
            Executor::new(threads),
        ),
        event_operands: operand_bit_vectors(&config, workload.masks(), workload.feature_vectors()),
        dual_operands: workload
            .dual_rail_operands(&datapath)
            .expect("operands match the datapath"),
        golden: workload.expected().to_vec(),
    };

    let event_sites = pick_sites(model.netlist(), sites);
    let dual_sites = pick_sites(datapath.circuit().netlist(), sites);

    let mut rows = Vec::new();
    for engine in ENGINES {
        let (netlist, sites) = if engine.starts_with("event") {
            (model.netlist(), &event_sites)
        } else {
            (datapath.circuit().netlist(), &dual_sites)
        };
        for &site in sites {
            for spec in plans_for_site(netlist, site) {
                let counts = fixture.run_engine(engine, &spec.plan);
                debug_assert_eq!(counts.total(), operands);
                rows.push(CampaignRow {
                    engine,
                    kind: spec.kind,
                    net: spec.net,
                    counts,
                });
            }
        }
    }

    let coverage = ENGINES
        .iter()
        .map(|&engine| {
            let mut totals = Classification::default();
            for row in rows.iter().filter(|r| r.engine == engine) {
                totals.masked += row.counts.masked;
                totals.detected += row.counts.detected;
                totals.timeout += row.counts.timeout;
                totals.silent += row.counts.silent;
            }
            let corrupting = totals.corrupting();
            EngineCoverage {
                engine,
                totals,
                detection_coverage: if corrupting == 0 {
                    1.0
                } else {
                    (totals.detected + totals.timeout) as f64 / corrupting as f64
                },
            }
        })
        .collect();

    // Accuracy under k simultaneous stuck-at faults: alternate stuck
    // values across the first k strided sites of each netlist.
    let mut accuracy = Vec::new();
    for &k in &ACCURACY_FAULT_COUNTS {
        for engine in ["event_sliced", "dualrail_scalar"] {
            let sites = if engine.starts_with("event") {
                &event_sites
            } else {
                &dual_sites
            };
            let mut plan = FaultPlan::new();
            for (i, &site) in sites.iter().take(k).enumerate() {
                plan = plan.stuck_at(site, i % 2 == 1);
            }
            let counts = fixture.run_engine(engine, &plan);
            accuracy.push(AccuracyRow {
                engine,
                stuck_faults: k.min(sites.len()),
                counts,
                accuracy: if counts.total() == 0 {
                    0.0
                } else {
                    counts.masked as f64 / counts.total() as f64
                },
            });
        }
    }

    FaultCampaignReport {
        rows,
        coverage,
        accuracy,
        meta: CampaignMeta {
            lanes: netlist::LANES,
            threads,
            event_limit: Simulator::DEFAULT_EVENT_LIMIT,
            horizon_ps: HORIZON_PS,
            operands,
            sites,
            seed,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_masks_everything_and_the_json_is_well_formed() {
        // sites = 0: the sweep is empty, but the accuracy rows at k = 0
        // run every engine fault-free — everything must be masked.
        let report = run(6, 0, 2, 11);
        assert!(report.rows.is_empty());
        for row in &report.accuracy {
            assert_eq!(row.counts.masked, 6, "{}", row.engine);
            assert_eq!(row.accuracy, 1.0);
        }
        let json = report.to_json();
        tm_obs::json_is_well_formed(&json).unwrap();
        assert!(json.contains("\"experiment\": \"fault_campaign\""));
        assert!(json.contains("\"lanes\": 64"));
        assert!(json.contains("\"event_limit\""));
        assert!(json.contains("\"horizon_ps\""));
    }

    #[test]
    fn campaign_terminates_and_classifies_every_operand() {
        let operands = 4;
        let report = run(operands, 2, 2, 7);
        assert!(!report.rows.is_empty());
        for row in &report.rows {
            assert_eq!(
                row.counts.total(),
                operands,
                "{} {} net {}",
                row.engine,
                row.kind,
                row.net
            );
        }
        // Coverage is defined for every engine.
        for engine in ENGINES {
            let cov = report.engine_coverage(engine).expect("coverage row");
            assert!((0.0..=1.0).contains(&cov.detection_coverage));
        }
        let rendered = report.render();
        assert!(rendered.contains("coverage"));
    }
}
