//! Fault-injection campaigns: inject seeded faults into the *generated
//! netlist itself*, compare against a golden fault-free run, and classify
//! every fault as masked, detected, or silent data corruption.
//!
//! Two campaign shapes share one setup ([`FaultCampaign`]):
//!
//! - [`run_campaign`] drives any generated top level under the fixed
//!   counter-harness protocol (ramp-filled banks, `start` pulsed) and uses
//!   the per-cycle output-port signature as the golden reference.
//! - [`run_gemm_campaign_durable`] runs a real output-stationary GEMM with
//!   real matrices through the top level (banks preloaded with the skewed
//!   systolic schedule), harvests the result banks, cross-checks the golden
//!   run against the reference executor, and additionally applies **ABFT**
//!   row/column checksum verification when the design is hardened with it.
//!   [`FaultCampaign::accumulator_sweep`] sets up the same campaign over an
//!   exhaustive accumulator bit-flip sweep instead of sampled faults.
//!
//! Every campaign runs through the one chunked runner
//! ([`journal::execute`]), journaled or not.
//!
//! Detection comes from the hardened design's own mechanisms: scratchpad
//! parity (sticky per-bank counters), the TMR controller's `tmr_mismatch`
//! output, and ABFT checksum mismatches. Classification follows the standard
//! taxonomy: a fault is **Detected** if any detector fired, else **Sdc** if
//! the harvested outputs differ from golden, else **Masked**.
//!
//! Campaigns parallelize over `tensorlib_linalg::par` with per-fault panic
//! isolation; the outcome list is in fault order and byte-identical for any
//! worker count, so reports are seed-deterministic artifacts.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

use serde::{Deserialize, Serialize};
use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib_hw::batch::{BatchSim, Probe};
use tensorlib_hw::design::{generate, AcceleratorDesign, HwConfig};
use tensorlib_hw::fault::{enumerate_sites, sample_faults, FaultSpec, Hardening};
use tensorlib_hw::interp::{elaborate_design, ElaborateError, Interpreter, Snapshot};
use tensorlib_hw::{ArrayConfig, HwError};
use tensorlib_ir::workloads;

use crate::journal::{self, DurabilityOptions, ItemOutcome, JournalError, RunStats};
use crate::trace::fill_input_banks;

/// Outcome class of one injected fault (standard fault-injection taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultClass {
    /// Outputs matched golden and no detector fired.
    Masked,
    /// A hardening detector (parity, TMR, ABFT) flagged the fault.
    Detected,
    /// Outputs differ from golden with no detection: silent data corruption.
    Sdc,
    /// The injected run was never started: the chunk's watchdog deadline
    /// passed first and the campaign degraded gracefully instead of
    /// stalling. Degraded faults are excluded from `detection_coverage`
    /// (they carry no verdict either way).
    Degraded,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultClass::Masked => write!(f, "masked"),
            FaultClass::Detected => write!(f, "detected"),
            FaultClass::Sdc => write!(f, "sdc"),
            FaultClass::Degraded => write!(f, "degraded"),
        }
    }
}

/// Campaign parameters. `Default` is a small but non-trivial 4x4 campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CampaignConfig {
    /// Array rows (and GEMM `m` extent).
    pub rows: usize,
    /// Array columns (and GEMM `n` extent).
    pub cols: usize,
    /// GEMM reduction extent.
    pub k: u64,
    /// Faults to sample and inject.
    pub faults: usize,
    /// Seed for input data and fault sampling.
    pub seed: u64,
    /// Hardening options the generated design carries.
    pub hardening: Hardening,
    /// Worker threads (`0` = one per core).
    pub workers: usize,
    /// Simulation lanes per bytecode pass: `1` runs the scalar engine; `> 1`
    /// chunks the fault list into lane groups and retires each group in one
    /// batched pass ([`tensorlib_hw::batch::BatchSim`]). Reports are
    /// byte-identical for any lane width, so this field — like `workers` —
    /// is never serialized.
    #[serde(skip)]
    pub lanes: usize,
    /// Run the netlist optimizer over the generated design before
    /// elaborating it. Optimization preserves every port and register
    /// (name, order, width, init), so fault-site enumeration and report
    /// bytes are identical either way — which is exactly what the CI
    /// `--opt=off` vs `--opt=on` byte-compare asserts. Never serialized.
    #[serde(skip)]
    pub opt: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            rows: 4,
            cols: 4,
            k: 4,
            faults: 32,
            seed: 1,
            hardening: Hardening::none(),
            workers: 1,
            lanes: 1,
            opt: true,
        }
    }
}

/// The fate of one injected fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultOutcome {
    /// The injected fault.
    pub fault: FaultSpec,
    /// Classification against the golden run.
    pub class: FaultClass,
    /// Which detectors fired (`parity`, `tmr`, `abft`).
    pub detectors: Vec<String>,
    /// Set when the injected run itself failed (attach error or panic);
    /// such faults are counted separately and classified as `Detected`
    /// only if a detector fired before the failure.
    pub error: Option<String>,
}

/// A full campaign result: per-fault outcomes plus aggregates.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceReport {
    /// Name of the faulted design.
    pub design: String,
    /// Hardening options in force (`none` when unhardened).
    pub hardening: String,
    /// Cycles of the live round during which sampled faults can land.
    pub cycles_per_run: u64,
    /// Faults injected.
    pub faults: usize,
    /// Faults whose outputs matched golden with no detection.
    pub masked: usize,
    /// Faults flagged by a detector.
    pub detected: usize,
    /// Silent data corruptions.
    pub sdc: usize,
    /// Injected runs that failed outright (attach error or panic).
    pub errors: usize,
    /// Faults demoted by the per-chunk watchdog before they could run.
    pub degraded: usize,
    /// `detected / (detected + sdc)` — 1.0 when nothing corrupted outputs.
    pub detection_coverage: f64,
    /// Per-fault outcomes, in sampling order.
    pub outcomes: Vec<FaultOutcome>,
}

/// Campaign failure (setup or golden-run problems; injected-run failures are
/// per-fault [`FaultOutcome::error`]s, not campaign failures).
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The design would not generate or flatten.
    Elaborate(ElaborateError),
    /// Bank preload failed.
    Hw(HwError),
    /// The design would not generate.
    Generate(HwError),
    /// The campaign journal could not be opened, appended, or replayed
    /// (including a `--resume` directory whose journal belongs to a
    /// different config).
    Journal(JournalError),
    /// The fault-free golden run disagrees with the reference executor —
    /// the campaign would classify against a wrong baseline.
    GoldenMismatch {
        /// Row of the first mismatching element.
        row: usize,
        /// Column of the first mismatching element.
        col: usize,
        /// Reference value.
        expected: i64,
        /// Value the golden netlist run produced.
        got: i64,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Elaborate(e) => write!(f, "campaign design failed to flatten: {e}"),
            CampaignError::Hw(e) => write!(f, "campaign setup failed: {e}"),
            CampaignError::Generate(e) => write!(f, "campaign design failed to generate: {e}"),
            CampaignError::Journal(e) => write!(f, "{e}"),
            CampaignError::GoldenMismatch {
                row,
                col,
                expected,
                got,
            } => write!(
                f,
                "golden run disagrees with the reference executor at C[{row}][{col}]: \
                 reference {expected}, netlist {got}"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ElaborateError> for CampaignError {
    fn from(e: ElaborateError) -> CampaignError {
        CampaignError::Elaborate(e)
    }
}

impl From<HwError> for CampaignError {
    fn from(e: HwError) -> CampaignError {
        CampaignError::Hw(e)
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> CampaignError {
        CampaignError::Journal(e)
    }
}

fn as_u16(v: i64) -> u64 {
    (v as u64) & 0xFFFF
}

/// What one (golden or faulted) netlist run produced.
struct RunResult {
    /// Harvested result matrix, row-major `rows x cols`.
    c: Vec<i64>,
    /// `tmr_mismatch` was ever high during the run.
    tmr_seen: bool,
    /// Total sticky parity errors after readback.
    parity_errors: u64,
}

/// The golden run's state after `steps` steps, where a lane group whose
/// faults all fire later starts instead of at cycle 0.
struct Fork {
    steps: u64,
    state: Snapshot,
    /// `tmr_mismatch` was high on some golden step in `1..=steps`.
    tmr_seen: bool,
}

/// A scalar golden run that only moves forward: each chunk's fork pass
/// steps it on from where the last one stopped.
struct GoldenCursor {
    sim: Interpreter,
    steps: u64,
    /// `tmr_mismatch` was high on some golden step in `1..=steps`.
    tmr_seen: bool,
}

/// One controller round as a campaign drives it: step the free-running
/// controller through its round, wait for the ping-pong buffers to swing
/// back, then raise the readback ports and harvest one result row per
/// step.
///
/// Timing: from the preloaded base (banks loaded, `start` high) the
/// controller completes round 1 in `1 + phases.total()` steps, with the
/// drained results written to the double buffer selected by `phase` during
/// drain. Readback ports read the *other* buffer, so the harvest waits one
/// more compute phase for `phase` to toggle back before streaming the
/// results out (readback also fires the parity checks on the result banks).
struct Round {
    /// Steps from the preloaded base to the readback pokes.
    steps: u64,
    rows: usize,
    cols: usize,
    has_tmr: bool,
    /// `readback_{bi}` and `result_{bi}` for each output bank, in column
    /// order. Bottom-up drain order: word `d` of column `j`'s bank holds
    /// `C[rows-1-d][j]`.
    readback: Vec<String>,
    results: Vec<String>,
}

impl Round {
    fn new(design: &AcceleratorDesign, has_tmr: bool) -> Round {
        let phases = design.phases();
        let out_banks: Vec<usize> = (design.bank_bindings().iter().enumerate())
            .filter(|(_, b)| !design.port_group(b).kind.is_input())
            .map(|(bi, _)| bi)
            .collect();
        Round {
            steps: 1 + phases.total() + phases.load_cycles + phases.compute_cycles,
            rows: design.config().array.rows,
            cols: design.config().array.cols,
            has_tmr,
            readback: out_banks.iter().map(|bi| format!("readback_{bi}")).collect(),
            results: out_banks.iter().map(|bi| format!("result_{bi}")).collect(),
        }
    }

    /// Steps run per round, readback included.
    fn total_steps(&self) -> u64 {
        self.steps + self.rows as u64
    }

    /// Runs one round on a scalar interpreter from cycle 0: a fresh clone
    /// of the preloaded base, faults (if any) already attached.
    fn run(&self, sim: &mut Interpreter) -> RunResult {
        let mut tmr_seen = false;
        let mut step = |sim: &mut Interpreter| {
            sim.step();
            tmr_seen |= self.has_tmr && sim.peek("tmr_mismatch") != 0;
        };
        {
            let _span = tensorlib_obs::span("sim.fault.step");
            for _ in 0..self.steps {
                step(sim);
            }
        }
        let _span = tensorlib_obs::span("sim.fault.harvest");
        sim.poke_many(self.readback.iter().map(|p| (p.as_str(), 1)));
        let mut c = vec![0i64; self.rows * self.cols];
        for d in 0..self.rows {
            step(sim);
            let row = self.rows - 1 - d;
            for (j, result) in self.results.iter().enumerate() {
                c[row * self.cols + j] = sim.peek_signed(result);
            }
        }
        RunResult {
            c,
            tmr_seen,
            parity_errors: sim.parity_error_count(),
        }
    }

    /// [`Round::run`] for a lane batch loaded from `fork`: the rest of the
    /// round advanced on every lane at once, harvested per lane. Stimulus
    /// (the readback pokes) is broadcast; divergence comes from the per-lane
    /// faults already attached. Lane `l`'s [`RunResult`] is bit-identical
    /// to a scalar [`Round::run`] from cycle 0 of an interpreter carrying
    /// lane `l`'s (unshifted) faults.
    fn run_batch(&self, sim: &mut BatchSim, fork: &Fork) -> Vec<RunResult> {
        let lanes = sim.lanes();
        let mut tmr_seen = vec![fork.tmr_seen; lanes];
        let tmr = self.has_tmr.then(|| sim.probe("tmr_mismatch"));
        let mut step = |sim: &mut BatchSim| {
            sim.step();
            if let Some(tmr) = tmr {
                for (seen, &v) in tmr_seen.iter_mut().zip(sim.read(tmr)) {
                    *seen |= v != 0;
                }
            }
        };
        {
            let _span = tensorlib_obs::span("sim.fault.step");
            for _ in fork.steps..self.steps {
                step(sim);
            }
        }
        let _span = tensorlib_obs::span("sim.fault.harvest");
        sim.poke_many(self.readback.iter().map(|p| (p.as_str(), 1)));
        let results: Vec<Probe> = self.results.iter().map(|r| sim.probe(r)).collect();
        let mut c = vec![vec![0i64; self.rows * self.cols]; lanes];
        for d in 0..self.rows {
            step(sim);
            let row = self.rows - 1 - d;
            for (j, &result) in results.iter().enumerate() {
                for (l, lane_c) in c.iter_mut().enumerate() {
                    lane_c[row * self.cols + j] = sim.read_signed(result, l);
                }
            }
        }
        (c.into_iter().zip(tmr_seen).enumerate())
            .map(|(l, (c, tmr_seen))| RunResult {
                c,
                tmr_seen,
                parity_errors: sim.parity_error_count_lane(l),
            })
            .collect()
    }
}

/// Preloads the top-level input banks with the skewed systolic schedule for
/// `a` and `b`, so the free-running controller round computes exact GEMM.
fn load_skewed_inputs(
    sim: &mut Interpreter,
    design: &AcceleratorDesign,
    a: &tensorlib_ir::DenseTensor,
    b: &tensorlib_ir::DenseTensor,
    k: i64,
) -> Result<(), HwError> {
    let ports = design.array_ports();
    for (bi, binding) in design.bank_bindings().iter().enumerate() {
        let port = &ports[binding.port];
        if !port.kind.is_input() {
            continue;
        }
        let bank = design.bank(binding);
        let mult = if bank.is_double_buffered() { 2 } else { 1 };
        let cap = (bank.words() * mult) as usize;
        let name = &port.name;
        // Port names are `a_feed{i}` / `b_feed{j}`; word t carries the
        // operand entering that edge at compute cycle t (zero outside the
        // valid diagonal window).
        let feed = (name.strip_prefix("a_feed").map(|i| (a, i)))
            .or_else(|| name.strip_prefix("b_feed").map(|j| (b, j)));
        let words: Vec<u64> = match feed {
            Some((operand, edge)) => {
                let edge: i64 = edge.parse().expect("generated port index");
                (0..cap as i64)
                    .map(|t| match t - edge {
                        kk if (0..k).contains(&kk) => as_u16(operand.get(&[edge, kk])),
                        _ => 0,
                    })
                    .collect()
            }
            None => vec![0; cap],
        };
        sim.load_bank(bi, &words)?;
    }
    Ok(())
}

/// What a campaign's input banks hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stimulus {
    /// Seeded random GEMM operands in the skewed systolic schedule. The
    /// golden run is checked against the reference executor and supplies
    /// the ABFT checksums.
    Gemm,
    /// The counter-harness ramp ([`fill_input_banks`]); no reference check.
    Ramp,
}

/// Which faults a campaign injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultSelection {
    /// `cfg.faults` faults sampled with `cfg.seed` over every register,
    /// bank word, and controller state in the flattened design.
    Sampled,
    /// Every PE accumulator register (`*_acc`) × every bit in `0..bits`,
    /// flipped at `cycle`.
    AccumulatorSweep { bits: u32, cycle: u64 },
}

/// A fault campaign after setup: the design, its fault list, and the golden
/// run every injected run is classified against. Implements
/// [`journal::Campaign`], so it runs through [`journal::execute`] — one
/// chunk without a journal, many with `--resume`.
pub struct FaultCampaign {
    cfg: CampaignConfig,
    /// Journal-key tag for the stimulus and fault selection.
    variant: String,
    design: AcceleratorDesign,
    cycles: u64,
    round: Round,
    faults: Vec<FaultSpec>,
    /// The order faults run in; see [`FaultCampaign::order`].
    order: OnceLock<Vec<usize>>,
    /// The preloaded interpreter (banks loaded, `start` high): every scalar
    /// run clones it, and the golden cursor starts from it.
    base: Interpreter,
    /// Where the fork passes left the golden run (`None` before the first).
    golden_cursor: Mutex<Option<GoldenCursor>>,
    golden: RunResult,
    abft_row_sums: Vec<i64>,
    abft_col_sums: Vec<i64>,
    /// Lane batches between lane groups: each group takes one of its width
    /// (building it on first use), reloads it from its fork and puts it
    /// back, so the design's bytecode is lowered to a lane program about
    /// once per worker.
    batches: Mutex<Vec<BatchSim>>,
}

impl FaultCampaign {
    /// Sets up the real-data GEMM campaign over `cfg.faults` sampled faults.
    ///
    /// # Errors
    ///
    /// [`CampaignError`] if the design fails to generate, flatten, or
    /// preload, or if the golden run disagrees with the reference executor.
    pub fn gemm(cfg: &CampaignConfig) -> Result<FaultCampaign, CampaignError> {
        FaultCampaign::new(cfg, Stimulus::Gemm, FaultSelection::Sampled)
    }

    /// Sets up the GEMM campaign over the exhaustive accumulator sweep:
    /// every `*_acc` register × every bit in `0..bits`, flipped at `cycle`.
    ///
    /// # Errors
    ///
    /// Same as [`FaultCampaign::gemm`].
    pub fn accumulator_sweep(
        cfg: &CampaignConfig,
        bits: u32,
        cycle: u64,
    ) -> Result<FaultCampaign, CampaignError> {
        FaultCampaign::new(
            cfg,
            Stimulus::Gemm,
            FaultSelection::AccumulatorSweep { bits, cycle },
        )
    }

    /// The one campaign setup: design (optionally optimized) → flattened
    /// netlist → fault list → stimulus (for GEMM: `random_inputs` →
    /// reference → `load_skewed_inputs`) → golden run → reference check and
    /// ABFT sums.
    fn new(
        cfg: &CampaignConfig,
        stimulus: Stimulus,
        selection: FaultSelection,
    ) -> Result<FaultCampaign, CampaignError> {
        // The output-stationary GEMM design every campaign faults.
        let gemm = workloads::gemm(cfg.rows as u64, cfg.cols as u64, cfg.k);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).expect("gemm always has m, n, k");
        let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())
            .expect("output-stationary gemm always analyzes");
        let hw = HwConfig {
            array: ArrayConfig {
                rows: cfg.rows,
                cols: cfg.cols,
            },
            hardening: cfg.hardening,
            ..HwConfig::default()
        };
        let mut design = generate(&df, &hw).map_err(CampaignError::Generate)?;
        if cfg.opt {
            design.optimize_without_census(&tensorlib_hw::opt::OptOptions::default());
        }
        let flat = elaborate_design(&design, design.top())?;
        // One idle handshake cycle plus one full load/compute/drain round.
        let cycles = 1 + design.phases().total();
        let round = Round::new(&design, cfg.hardening.tmr_ctrl);
        let (faults, tag) = match selection {
            FaultSelection::Sampled => (
                sample_faults(&enumerate_sites(&flat), cfg.faults, cfg.seed, cycles),
                "sampled".to_string(),
            ),
            FaultSelection::AccumulatorSweep { bits, cycle } => (
                flat.regs()
                    .iter()
                    .map(|r| flat.nets()[r.target].name.as_str())
                    .filter(|n| n.ends_with("_acc"))
                    .flat_map(|net| (0..bits).map(move |b| FaultSpec::flip(net, b, cycle)))
                    .collect(),
                format!("sweep|bits={bits}|cycle={cycle}"),
            ),
        };
        let mut base = Interpreter::new(flat);
        let (variant, reference) = match stimulus {
            Stimulus::Gemm => {
                let inputs = gemm.random_inputs(cfg.seed);
                let reference = gemm
                    .execute_reference(&inputs)
                    .expect("self-generated inputs fit the kernel");
                load_skewed_inputs(&mut base, &design, &inputs[0], &inputs[1], cfg.k as i64)?;
                (tag, Some(reference))
            }
            Stimulus::Ramp => {
                fill_input_banks(&mut base, &design)?;
                (format!("ramp|{tag}"), None)
            }
        };
        base.poke("start", 1);
        let golden = {
            let _golden_span = tensorlib_obs::span("sim.golden_run");
            round.run(&mut base.clone())
        };
        let (rows, cols) = (cfg.rows, cfg.cols);
        let (abft_row_sums, abft_col_sums) = match reference {
            Some(reference) => {
                // The golden harvest must equal the reference execution
                // exactly.
                for i in 0..rows {
                    for j in 0..cols {
                        let expected = reference.get(&[i as i64, j as i64]);
                        let got = golden.c[i * cols + j];
                        if got != expected {
                            return Err(CampaignError::GoldenMismatch {
                                row: i,
                                col: j,
                                expected,
                                got,
                            });
                        }
                    }
                }
                // ABFT checksums from the (verified) golden result.
                (
                    (0..rows)
                        .map(|i| (0..cols).map(|j| golden.c[i * cols + j]).sum())
                        .collect(),
                    (0..cols)
                        .map(|j| (0..rows).map(|i| golden.c[i * cols + j]).sum())
                        .collect(),
                )
            }
            None => (Vec::new(), Vec::new()),
        };
        Ok(FaultCampaign {
            cfg: *cfg,
            variant,
            design,
            cycles,
            round,
            faults,
            order: OnceLock::new(),
            base,
            golden_cursor: Mutex::new(None),
            golden,
            abft_row_sums,
            abft_col_sums,
            batches: Mutex::new(Vec::new()),
        })
    }

    /// Classifies one faulted run against golden.
    fn classify(&self, fault: &FaultSpec, run: &RunResult) -> FaultOutcome {
        let mut detectors = Vec::new();
        if run.parity_errors > 0 {
            detectors.push("parity".to_string());
        }
        if run.tmr_seen {
            detectors.push("tmr".to_string());
        }
        if self.cfg.hardening.abft {
            let (rows, cols) = (self.cfg.rows, self.cfg.cols);
            let row_bad = (self.abft_row_sums.iter().enumerate().take(rows))
                .any(|(i, &want)| (0..cols).map(|j| run.c[i * cols + j]).sum::<i64>() != want);
            let col_bad = (self.abft_col_sums.iter().enumerate().take(cols))
                .any(|(j, &want)| (0..rows).map(|i| run.c[i * cols + j]).sum::<i64>() != want);
            if row_bad || col_bad {
                detectors.push("abft".to_string());
            }
        }
        let class = if !detectors.is_empty() {
            FaultClass::Detected
        } else if run.c != self.golden.c {
            FaultClass::Sdc
        } else {
            FaultClass::Masked
        };
        FaultOutcome {
            fault: fault.clone(),
            class,
            detectors,
            error: None,
        }
    }

    /// Golden steps a lane group can skip for `fault`. A timed fault
    /// changes nothing before its cycle, so its run can fork from the
    /// golden state after `cycle - 1` steps — at most [`Round::steps`],
    /// where the readback stimulus begins. A stuck-at is live from attach.
    fn fork_steps(&self, fault: &FaultSpec) -> u64 {
        fault
            .cycle()
            .map_or(0, |cycle| cycle.saturating_sub(1).min(self.round.steps))
    }

    /// The order faults run in, cut into chunks and then lane groups: with
    /// `lanes > 1` the fault indices sorted by
    /// ([`FaultCampaign::fork_steps`], fault target), with `lanes == 1` the
    /// identity. Built on first use, so a replayed run builds it after the
    /// journal's payloads are decoded and freed, outside that run's memory
    /// peak.
    fn order(&self) -> &[usize] {
        self.order.get_or_init(|| {
            let faults = &self.faults;
            let mut order: Vec<usize> = (0..faults.len()).collect();
            if self.cfg.lanes > 1 {
                order.sort_by_cached_key(|&i| (self.fork_steps(&faults[i]), &faults[i].target));
            }
            order
        })
    }

    /// The golden run's state after each of `starts` (ascending, distinct)
    /// steps, taken from the golden cursor. The cursor restarts from the
    /// preloaded base only when the first start lies behind it; chunks run
    /// in ascending order and their starts never decrease, so a campaign's
    /// fork passes step the golden run through at most one round.
    fn golden_forks(&self, starts: &[u64]) -> Vec<Fork> {
        let mut guard = self
            .golden_cursor
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let cursor = match &mut *guard {
            Some(cursor) if starts.first().is_none_or(|&s| cursor.steps <= s) => cursor,
            slot => slot.insert(GoldenCursor {
                sim: self.base.clone(),
                steps: 0,
                tmr_seen: false,
            }),
        };
        let from = cursor.steps;
        let forks = (starts.iter())
            .map(|&steps| {
                for _ in cursor.steps..steps {
                    cursor.sim.step();
                    cursor.tmr_seen |= self.round.has_tmr && cursor.sim.peek("tmr_mismatch") != 0;
                }
                cursor.steps = steps;
                Fork {
                    steps,
                    state: cursor.sim.snapshot(),
                    tmr_seen: cursor.tmr_seen,
                }
            })
            .collect();
        tensorlib_obs::counter_add("sim.fault.golden_steps", cursor.steps - from);
        forks
    }

    /// A compiled batch of `lanes` lanes from the pool, or a new one.
    fn take_batch(&self, lanes: usize) -> BatchSim {
        let mut pool = self.batches.lock().unwrap_or_else(PoisonError::into_inner);
        match pool.iter().position(|b| b.lanes() == lanes) {
            Some(i) => pool.swap_remove(i),
            None => {
                drop(pool);
                BatchSim::new(self.base.flat().clone(), lanes)
            }
        }
    }

    /// Runs one fault on a clone of the scalar base from cycle 0.
    fn run_scalar(&self, fault: &FaultSpec) -> Result<RunResult, HwError> {
        let mut sim = {
            let _span = tensorlib_obs::span("sim.fault.fork");
            let mut sim = self.base.clone();
            sim.attach_faults(std::slice::from_ref(fault))?;
            sim
        };
        tensorlib_obs::counter_add("sim.fault.lane_steps", self.round.total_steps());
        Ok(self.round.run(&mut sim))
    }

    /// Runs one lane group, one fault per lane, forked from `fork`: each
    /// fault is attached with its cycle shifted by the skipped steps.
    fn run_lanes(&self, group: &[&FaultSpec], fork: &Fork) -> Vec<Result<RunResult, HwError>> {
        let mut sim = self.take_batch(group.len());
        let attach = {
            let _span = tensorlib_obs::span("sim.fault.fork");
            sim.load_state(&fork.state);
            let per_lane: Vec<Vec<FaultSpec>> =
                group.iter().map(|f| vec![f.shifted(fork.steps)]).collect();
            sim.attach_lane_faults(&per_lane)
        };
        tensorlib_obs::counter_add(
            "sim.fault.lane_steps",
            self.round.total_steps() - fork.steps,
        );
        tensorlib_obs::counter_add("sim.fault.steps_skipped", fork.steps);
        let runs = self.round.run_batch(&mut sim, fork);
        let counts = sim.take_op_counts();
        tensorlib_obs::counter_add("hw.batch.uniform_ops", counts.uniform_ops);
        tensorlib_obs::counter_add("hw.batch.lane_ops", counts.lane_ops);
        tensorlib_obs::counter_add("hw.batch.materialized", counts.materialized);
        (self.batches.lock().unwrap_or_else(PoisonError::into_inner)).push(sim);
        attach.into_iter().zip(runs).map(|(att, run)| att.map(|()| run)).collect()
    }

    /// Injects the faults at `indices` (one chunk's slice of the campaign's
    /// execution order) and classifies each against golden, returning the
    /// outcomes in `indices` order.
    ///
    /// The slice is cut into lane groups *before* the worker pool. With
    /// `lanes == 1` each fault runs on a clone of the scalar base from
    /// cycle 0 — the reference every batched run is proved against. Wider
    /// groups are consecutive runs of the campaign-wide order, sorted by
    /// [`FaultCampaign::fork_steps`] and then by fault target, so a group's
    /// lanes fault neighbouring sites and more of its rows stay uniform
    /// across lanes; a chunk whose size is a multiple of the lane width
    /// holds exactly the one-chunk run's groups. Each group starts from the
    /// golden snapshot at its earliest fork step (taken from the golden
    /// cursor, which steps forward across chunks), attaches one fault per
    /// lane with its cycle shifted back by the skipped steps, and is
    /// retired in one batched pass. Every lane is bit-identical to its
    /// scalar run, so the outcomes are byte-identical for any lane width,
    /// worker count and chunk geometry. (The one divergence: a panic
    /// poisons its whole lane group, so *which* faults carry a panic error
    /// can differ. Clean campaigns are unaffected.)
    ///
    /// `durability` supplies the watchdog deadline (groups not started in
    /// time come back [`FaultClass::Degraded`]), the bounded serial retry
    /// before a panicking group is quarantined, and the chaos hook.
    fn drive(&self, indices: &[usize], durability: &DurabilityOptions) -> Vec<FaultOutcome> {
        let _span = tensorlib_obs::span("sim.fault_injection");
        tensorlib_obs::counter_add("sim.faults_injected", indices.len() as u64);
        let lanes = self.cfg.lanes.max(1);
        let groups: Vec<Vec<&FaultSpec>> = (indices.chunks(lanes))
            .map(|idx| idx.iter().map(|&i| &self.faults[i]).collect())
            .collect();
        let forks = if lanes > 1 {
            let mut starts: Vec<u64> = groups.iter().map(|g| self.fork_steps(g[0])).collect();
            starts.dedup();
            self.golden_forks(&starts)
        } else {
            Vec::new()
        };
        let attach_failed = |fault: &FaultSpec, e: &dyn fmt::Display| FaultOutcome {
            fault: fault.clone(),
            class: FaultClass::Masked,
            detectors: Vec::new(),
            error: Some(format!("attach failed: {e}")),
        };
        let run_group = |group: &Vec<&FaultSpec>| -> Vec<FaultOutcome> {
            for fault in group {
                durability.chaos_check(&fault.target);
            }
            let runs = if lanes == 1 {
                vec![self.run_scalar(group[0])]
            } else {
                let start = self.fork_steps(group[0]);
                let fork = &forks[forks.partition_point(|f| f.steps < start)];
                self.run_lanes(group, fork)
            };
            (group.iter().zip(runs))
                .map(|(fault, run)| match run {
                    Ok(run) => self.classify(fault, &run),
                    Err(e) => attach_failed(fault, &e),
                })
                .collect()
        };
        let outcomes = journal::run_items(durability, &groups, self.cfg.workers, 1, run_group);
        let out = (outcomes.into_iter().zip(&groups)).flat_map(|(outcome, group)| match outcome {
            ItemOutcome::Done(outcomes) => outcomes,
            ItemOutcome::Degraded => (group.iter())
                .map(|fault| FaultOutcome {
                    fault: (*fault).clone(),
                    class: FaultClass::Degraded,
                    detectors: Vec::new(),
                    error: None,
                })
                .collect(),
            // The fault spec in the outcome *is* the repro: replaying it
            // with the campaign seed reproduces the panic.
            ItemOutcome::Quarantined { attempts, message } => {
                let error = if attempts <= 1 {
                    format!("injected run panicked: {message}")
                } else {
                    format!(
                        "injected run panicked (quarantined after {attempts} attempts): \
                         {message}"
                    )
                };
                (group.iter())
                    .map(|fault| FaultOutcome {
                        fault: (*fault).clone(),
                        class: FaultClass::Sdc,
                        detectors: Vec::new(),
                        error: Some(error.clone()),
                    })
                    .collect()
            }
        });
        out.collect()
    }
}

impl journal::Campaign for FaultCampaign {
    const KIND: &'static str = "faults";
    type Chunk = Vec<FaultOutcome>;
    type Report = ResilienceReport;

    /// The serialized config with the worker count zeroed (resuming with a
    /// different `--workers` is legal — reports are worker-count
    /// independent), plus the knobs serde skips but which shape the run
    /// (`lanes` sets lane-group and default chunk boundaries; `opt` selects
    /// which netlist is faulted). With `lanes > 1` an `order` tag names the
    /// campaign-wide execution order, which decides the faults each chunk
    /// (and so each journal record) holds; a lane journal written when each
    /// chunk held consecutive faults has no tag and does not resume.
    fn canonical_config(&self) -> String {
        let canon = CampaignConfig {
            workers: 0,
            ..self.cfg
        };
        let lanes = self.cfg.lanes.max(1);
        format!(
            "{}|{}|lanes={lanes}|opt={}{}",
            serde_json::to_string(&canon).expect("campaign config serializes"),
            self.variant,
            self.cfg.opt,
            if lanes > 1 { "|order=fork,target" } else { "" },
        )
    }

    /// Chunk `k` is the slice `order[k * chunk_size..]` of the campaign's
    /// execution order. The journaled default is a multiple of the lane
    /// width, so a chunked run cuts exactly the lane groups (and forks from
    /// exactly the golden steps) of a single-chunk run. Any other size
    /// gives the same bytes too: every lane is bit-identical to its scalar
    /// run.
    fn chunk_plan(&self, durability: &DurabilityOptions) -> journal::ChunkPlan {
        let chunk_size = durability.chunk_size_for(self.faults.len(), 16 * self.cfg.lanes.max(1));
        journal::ChunkPlan {
            chunk_size,
            chunks: self.faults.len().div_ceil(chunk_size),
        }
    }

    /// The outcomes of chunk `index`, in execution order.
    fn run_chunk(
        &self,
        plan: &journal::ChunkPlan,
        index: usize,
        durability: &DurabilityOptions,
    ) -> Vec<FaultOutcome> {
        let lo = index * plan.chunk_size;
        let hi = (lo + plan.chunk_size).min(self.faults.len());
        self.drive(&self.order()[lo..hi], durability)
    }

    /// Puts the outcomes of the completed chunks back in fault order, in
    /// place, and counts them. An interrupted run lists just the faults of
    /// its completed chunks, in fault order.
    fn aggregate(
        &self,
        _plan: &journal::ChunkPlan,
        chunks: Vec<Vec<FaultOutcome>>,
    ) -> ResilienceReport {
        // Appending onto the first chunk keeps a single-chunk run copy-free.
        let mut chunks = chunks.into_iter();
        let mut outcomes = chunks.next().unwrap_or_default();
        outcomes.extend(chunks.flatten());
        restore_fault_order(self.order(), &mut outcomes);
        let count = |class| outcomes.iter().filter(|o| o.class == class).count();
        let (masked, detected, sdc) = (
            count(FaultClass::Masked),
            count(FaultClass::Detected),
            count(FaultClass::Sdc),
        );
        ResilienceReport {
            design: self.design.name().to_string(),
            hardening: self.cfg.hardening.to_string(),
            cycles_per_run: self.cycles,
            faults: outcomes.len(),
            masked,
            detected,
            sdc,
            errors: outcomes.iter().filter(|o| o.error.is_some()).count(),
            degraded: count(FaultClass::Degraded),
            detection_coverage: if detected + sdc == 0 {
                1.0
            } else {
                detected as f64 / (detected + sdc) as f64
            },
            outcomes,
        }
    }

    fn history_metrics(r: &ResilienceReport) -> BTreeMap<String, f64> {
        [
            ("faults", r.faults as f64),
            ("masked", r.masked as f64),
            ("detected", r.detected as f64),
            ("sdc", r.sdc as f64),
            ("errors", r.errors as f64),
            ("degraded", r.degraded as f64),
            ("detection_coverage", r.detection_coverage),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    /// Fault classes by name, plus `errors` for outcomes carrying an error
    /// string and `panicked` for the quarantined-panic subset.
    fn count_outcomes(chunk: &Vec<FaultOutcome>) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        for outcome in chunk {
            *counts.entry(outcome.class.to_string()).or_insert(0) += 1;
            if let Some(error) = &outcome.error {
                *counts.entry("errors".to_string()).or_insert(0) += 1;
                if error.contains("panicked") {
                    *counts.entry("panicked".to_string()).or_insert(0) += 1;
                }
            }
        }
        counts
    }
}

/// Sorts `items`, which ran in the order `order[..items.len()]`, into fault
/// order in place. An item's slot is its fault index, or, when the run was
/// interrupted, the fault's rank among the faults that ran. Each cycle of
/// the permutation is walked once: every swap puts one item in its slot.
fn restore_fault_order<T>(order: &[usize], items: &mut [T]) {
    let ranks: Vec<usize>;
    let slots = if items.len() == order.len() {
        order
    } else {
        let mut ran = order[..items.len()].to_vec();
        ran.sort_unstable();
        ranks = (order[..items.len()].iter())
            .map(|i| ran.binary_search(i).expect("a fault that ran"))
            .collect();
        &ranks
    };
    let mut placed = vec![false; slots.len()];
    for i in 0..slots.len() {
        if placed[i] {
            continue;
        }
        let mut slot = slots[i];
        while slot != i {
            items.swap(i, slot);
            placed[slot] = true;
            slot = slots[slot];
        }
        placed[i] = true;
    }
}

/// Runs a generic ramp-stimulus campaign: banks filled with the counter
/// harness ramp, `count` seeded faults sampled over every register, bank
/// word, and controller state in the flattened design.
///
/// # Errors
///
/// Returns [`CampaignError`] if the design fails to generate, flatten, or
/// preload.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<ResilienceReport, CampaignError> {
    let campaign = FaultCampaign::new(cfg, Stimulus::Ramp, FaultSelection::Sampled)?;
    Ok(journal::execute(&campaign, &DurabilityOptions::default())?.0)
}

/// Runs the real-data GEMM campaign ([`FaultCampaign::gemm`]) with campaign
/// durability: the fault list is split into deterministic chunks (one chunk
/// when there is neither a journal nor a watchdog), completed chunks are
/// journaled to `durability.dir` (when set) and replayed on resume, the
/// per-chunk watchdog demotes late faults to [`FaultClass::Degraded`],
/// panicking faults are retried then quarantined, and an interrupt drains
/// the in-flight chunk before returning a partial (but valid and resumable)
/// report with `stats.interrupted` set. The report bytes do not depend on
/// the chunk geometry.
///
/// # Errors
///
/// Setup failures from [`FaultCampaign::gemm`], plus
/// [`CampaignError::Journal`] for journal open/append/decode failures —
/// including a `--resume` directory whose journal belongs to a different
/// config.
pub fn run_gemm_campaign_durable(
    cfg: &CampaignConfig,
    durability: &DurabilityOptions,
) -> Result<(ResilienceReport, RunStats), CampaignError> {
    Ok(journal::execute(&FaultCampaign::gemm(cfg)?, durability)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The GEMM campaign with default durability: one unjournaled chunk.
    fn run_gemm(cfg: &CampaignConfig) -> Result<ResilienceReport, CampaignError> {
        run_gemm_campaign_durable(cfg, &DurabilityOptions::default()).map(|(report, _)| report)
    }

    /// The accumulator sweep of `bits` bits flipped at `cycle`.
    fn run_sweep(
        cfg: &CampaignConfig,
        bits: u32,
        cycle: u64,
        durability: &DurabilityOptions,
    ) -> Result<(ResilienceReport, RunStats), CampaignError> {
        let campaign = FaultCampaign::accumulator_sweep(cfg, bits, cycle)?;
        Ok(journal::execute(&campaign, durability)?)
    }

    #[test]
    fn golden_gemm_round_matches_reference() {
        // The campaign's own golden cross-check is the assertion: any skew
        // or drain mis-protocol fails here with GoldenMismatch.
        let report = run_gemm(&CampaignConfig {
            faults: 4,
            ..CampaignConfig::default()
        })
        .unwrap();
        assert_eq!(report.faults, 4);
        assert_eq!(report.masked + report.detected + report.sdc, 4);
    }

    #[test]
    fn unhardened_campaign_detects_nothing() {
        let report = run_gemm(&CampaignConfig {
            faults: 24,
            seed: 3,
            ..CampaignConfig::default()
        })
        .unwrap();
        assert_eq!(report.detected, 0, "no detectors on an unhardened design");
        assert_eq!(report.hardening, "none");
    }

    #[test]
    fn campaigns_are_seed_deterministic_across_worker_counts() {
        let mk = |workers| {
            run_gemm(&CampaignConfig {
                faults: 16,
                seed: 11,
                hardening: Hardening::full(),
                workers,
                ..CampaignConfig::default()
            })
            .unwrap()
        };
        let one = mk(1);
        let four = mk(4);
        assert_eq!(one, four, "worker count must not change the report");
        assert_ne!(
            one,
            run_gemm(&CampaignConfig {
                faults: 16,
                seed: 12,
                hardening: Hardening::full(),
                workers: 1,
                ..CampaignConfig::default()
            })
            .unwrap(),
            "different seed, different campaign"
        );
    }

    #[test]
    fn batched_campaign_report_is_byte_identical_to_scalar() {
        let mk = |lanes| {
            run_gemm(&CampaignConfig {
                faults: 20,
                seed: 11,
                hardening: Hardening::full(),
                lanes,
                ..CampaignConfig::default()
            })
            .unwrap()
        };
        let scalar = serde_json::to_string(&mk(1)).unwrap();
        // A lane width that divides the fault count, one that doesn't, and
        // one wider than the whole campaign.
        for lanes in [4, 7, 64] {
            let batched = serde_json::to_string(&mk(lanes)).unwrap();
            assert_eq!(scalar, batched, "lanes={lanes} changed the report bytes");
        }
    }

    #[test]
    fn abft_detects_every_accumulator_flip() {
        let cfg = CampaignConfig {
            hardening: Hardening {
                tmr_ctrl: false,
                parity_banks: false,
                abft: true,
            },
            ..CampaignConfig::default()
        };
        // Every accumulator × bits 0..8, flipped mid-accumulation: the
        // injected delta persists into the swap capture, so ABFT checksums
        // must catch every single one — zero silent corruptions.
        let (report, _) =
            run_sweep(&cfg, 8, 6, &DurabilityOptions::default()).unwrap();
        assert_eq!(report.faults, 16 * 8);
        assert_eq!(report.sdc, 0, "ABFT missed a corrupting accumulator flip");
        assert_eq!(report.masked, 0, "an accumulator flip cannot be masked");
        assert_eq!(report.detected, 16 * 8);
        assert_eq!(report.detection_coverage, 1.0);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tl_resil_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn report_bytes_are_invariant_under_chunk_geometry() {
        type Run = dyn Fn(
            &CampaignConfig,
            &DurabilityOptions,
        ) -> Result<(ResilienceReport, RunStats), CampaignError>;
        let sampled: &Run = &|cfg, d| run_gemm_campaign_durable(cfg, d);
        let sweep: &Run = &|cfg, d| run_sweep(cfg, 4, 6, d);
        for lanes in [1, 8] {
            let cfg = CampaignConfig {
                faults: 19,
                seed: 11,
                hardening: Hardening::full(),
                lanes,
                ..CampaignConfig::default()
            };
            for (name, run) in [("sampled", sampled), ("sweep", sweep)] {
                let (single, stats) = run(&cfg, &DurabilityOptions::default()).unwrap();
                assert_eq!(stats.chunks_total, 1, "{name}: derived single chunk");
                let want = serde_json::to_string(&single).unwrap();
                let items = single.faults;
                // 1, the lane width, a size that is not a multiple of it (so
                // lane groups straddle chunk ends), the journaled default,
                // the derived single chunk, and no override at all.
                let sizes = [
                    Some(1),
                    Some(lanes),
                    Some(lanes + 3),
                    Some(16 * lanes),
                    Some(items),
                    None,
                ];
                for chunk_size in sizes {
                    for journaled in [false, true] {
                        let tag = format!("{name}_{lanes}_{chunk_size:?}_{journaled}");
                        let dir = tmpdir(&format!("geom_{tag}"));
                        let opts = DurabilityOptions {
                            dir: journaled.then(|| dir.clone()),
                            chunk_size,
                            ..DurabilityOptions::default()
                        };
                        let (report, stats) = run(&cfg, &opts).unwrap();
                        assert_eq!(serde_json::to_string(&report).unwrap(), want, "{tag}");
                        assert_eq!(stats.chunks_executed, stats.chunks_total, "{tag}");
                        if journaled {
                            // Replayed whole, then resumed from the first
                            // record alone, as a crash after chunk 0 leaves it.
                            let (report, stats) = run(&cfg, &opts).unwrap();
                            assert_eq!(serde_json::to_string(&report).unwrap(), want, "{tag}");
                            assert_eq!(stats.chunks_replayed, stats.chunks_total, "{tag}");
                            let path = dir.join(journal::JOURNAL_FILE);
                            let bytes = std::fs::read(&path).unwrap();
                            // 24 header bytes, then the record's 16-byte
                            // header: index, payload length, checksum.
                            let len = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
                            std::fs::write(&path, &bytes[..40 + len as usize]).unwrap();
                            let (report, stats) = run(&cfg, &opts).unwrap();
                            assert_eq!(serde_json::to_string(&report).unwrap(), want, "{tag}");
                            assert_eq!(stats.chunks_replayed, 1, "{tag}");
                        }
                        let _ = std::fs::remove_dir_all(&dir);
                    }
                }
            }
        }
    }

    #[test]
    fn restore_fault_order_sorts_whole_and_interrupted_runs_in_place() {
        let order = [3, 0, 4, 1, 2];
        let mut whole = order.to_vec();
        restore_fault_order(&order, &mut whole);
        assert_eq!(whole, [0, 1, 2, 3, 4]);
        // An interrupted run ran a prefix of the order: faults 3, 0 and 4.
        let mut partial = order[..3].to_vec();
        restore_fault_order(&order, &mut partial);
        assert_eq!(partial, [0, 3, 4]);
    }

    #[test]
    fn durable_chunked_report_is_byte_identical_to_single_shot() {
        let cfg = CampaignConfig {
            faults: 19,
            seed: 11,
            hardening: Hardening::full(),
            ..CampaignConfig::default()
        };
        let single = serde_json::to_string(&run_gemm(&cfg).unwrap()).unwrap();
        for chunk_size in [1, 4, 19, 64] {
            let opts = DurabilityOptions {
                chunk_size: Some(chunk_size),
                ..DurabilityOptions::default()
            };
            let (report, stats) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                single,
                "chunk_size={chunk_size}"
            );
            assert_eq!(stats.chunks_total, 19usize.div_ceil(chunk_size));
            assert!(!stats.interrupted);
        }
    }

    #[test]
    fn durable_journaled_resume_is_byte_identical() {
        let dir = tmpdir("resume");
        let cfg = CampaignConfig {
            faults: 12,
            seed: 5,
            ..CampaignConfig::default()
        };
        let clean = serde_json::to_string(&run_gemm(&cfg).unwrap()).unwrap();
        let opts = DurabilityOptions {
            dir: Some(dir.clone()),
            chunk_size: Some(3),
            ..DurabilityOptions::default()
        };
        // Full journaled run: byte-identical to the non-durable run.
        let (full, stats) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
        assert_eq!(serde_json::to_string(&full).unwrap(), clean);
        assert_eq!(stats.chunks_executed, 4);
        // Simulate a crash mid-append: tear 10 bytes off the journal tail
        // (inside the last record). Resume must replay the intact prefix,
        // recompute only the torn chunk, and reproduce the report exactly.
        let path = dir.join(crate::journal::JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let (resumed, stats) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
        assert_eq!(serde_json::to_string(&resumed).unwrap(), clean);
        assert_eq!(stats.chunks_replayed, 3);
        assert_eq!(stats.chunks_executed, 1);
        assert!(!stats.interrupted);
        // An interrupt latched before the run starts yields a valid empty
        // partial report (fresh dir so nothing replays).
        let dir2 = tmpdir("resume2");
        let opts = DurabilityOptions {
            dir: Some(dir2.clone()),
            chunk_size: Some(3),
            interrupt: Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true))),
            ..DurabilityOptions::default()
        };
        let (partial, stats) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
        assert!(stats.interrupted);
        assert_eq!(partial.faults, 0);
        assert_eq!(partial.detection_coverage, 1.0);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn durable_resume_rejects_config_drift() {
        let dir = tmpdir("drift");
        let cfg = CampaignConfig {
            faults: 6,
            seed: 5,
            ..CampaignConfig::default()
        };
        let opts = DurabilityOptions {
            dir: Some(dir.clone()),
            chunk_size: Some(3),
            ..DurabilityOptions::default()
        };
        run_gemm_campaign_durable(&cfg, &opts).unwrap();
        let drifted = CampaignConfig { seed: 6, ..cfg };
        let err = run_gemm_campaign_durable(&drifted, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                CampaignError::Journal(JournalError::ConfigMismatch { .. })
            ),
            "got {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watchdog_degrades_instead_of_stalling() {
        let cfg = CampaignConfig {
            faults: 6,
            seed: 3,
            ..CampaignConfig::default()
        };
        let opts = DurabilityOptions {
            chunk_timeout: Some(std::time::Duration::ZERO),
            chunk_size: Some(3),
            ..DurabilityOptions::default()
        };
        let (report, _) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
        assert_eq!(report.degraded, 6, "zero budget degrades every fault");
        assert_eq!(report.faults, 6);
        assert_eq!(report.masked + report.detected + report.sdc, 0);
        assert_eq!(report.errors, 0, "degraded faults are not errors");
        assert_eq!(report.detection_coverage, 1.0);
    }

    #[test]
    fn panicking_chunk_is_quarantined_and_campaign_completes() {
        let cfg = CampaignConfig {
            faults: 8,
            seed: 3,
            ..CampaignConfig::default()
        };
        // Every sampled fault target lives under the top module; chaos on
        // the full campaign would quarantine everything, so aim at one
        // sampled target by running a clean campaign first.
        let clean = run_gemm(&cfg).unwrap();
        let victim = clean.outcomes[2].fault.target.clone();
        let opts = DurabilityOptions {
            chunk_size: Some(4),
            panic_retries: 1,
            chaos_panic_targets: vec![victim.clone()],
            ..DurabilityOptions::default()
        };
        let (report, _) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
        assert_eq!(report.faults, 8, "campaign completed despite the panic");
        let quarantined: Vec<&FaultOutcome> = report
            .outcomes
            .iter()
            .filter(|o| {
                o.error
                    .as_deref()
                    .is_some_and(|e| e.contains("quarantined after 2 attempts"))
            })
            .collect();
        assert!(!quarantined.is_empty(), "panic captured as typed outcome");
        for o in &quarantined {
            assert!(o.error.as_deref().unwrap().contains("chaos hook tripped"));
        }
        // Non-chaos outcomes match the clean run exactly (substring match,
        // mirroring the chaos hook's own matching).
        for (clean_o, durable_o) in clean.outcomes.iter().zip(&report.outcomes) {
            if !durable_o.fault.target.contains(&victim) {
                assert_eq!(clean_o, durable_o);
            }
        }
    }

    #[test]
    fn generic_ramp_campaign_runs_and_classifies_everything() {
        let report = run_campaign(&CampaignConfig {
            faults: 12,
            seed: 5,
            hardening: Hardening {
                tmr_ctrl: true,
                parity_banks: true,
                abft: false,
            },
            workers: 2,
            ..CampaignConfig::default()
        })
        .unwrap();
        assert_eq!(report.faults, 12);
        assert_eq!(
            report.masked + report.detected + report.sdc,
            12,
            "every fault classified"
        );
        assert!(report.hardening.contains("tmr"));
    }
}
