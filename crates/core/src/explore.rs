//! Design-space exploration: sweep every dataflow, score each design.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use tensorlib_cost::{asic_cost, Activity, AsicReport};
use tensorlib_dataflow::dse::{design_space, DseConfig};
use tensorlib_dataflow::Dataflow;
use tensorlib_hw::design::{plan, DesignPlan, HwConfig};
use tensorlib_hw::fault::Hardening;
use tensorlib_ir::Kernel;
use tensorlib_sim::journal::{self, DurabilityOptions, ItemOutcome, JournalError, RunStats};
use tensorlib_sim::{functional, perf, SimConfig, SimError, SimReport};

/// One scored point of the design space.
#[derive(Debug, Clone, Serialize)]
pub struct DesignPoint {
    /// Paper-style dataflow name (e.g. `KCX-SST`), with the hardening
    /// suffix appended for hardened variants (e.g. `KCX-SST+tmr+par`).
    pub name: String,
    /// Per-tensor letters.
    pub letters: String,
    /// The analyzed dataflow.
    pub dataflow: Dataflow,
    /// Fault-tolerance hardening this variant carries (its area/power
    /// overhead is already priced into [`DesignPoint::asic`]).
    pub hardening: Hardening,
    /// Cycle/throughput estimate.
    pub performance: SimReport,
    /// ASIC area/power at synthesis activity.
    pub asic: AsicReport,
}

/// Options for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Enumeration configuration (selections, coefficient range, caps).
    pub dse: DseConfig,
    /// Hardware configuration for every candidate.
    pub hw: HwConfig,
    /// System configuration for the cycle model.
    pub sim: SimConfig,
    /// Evaluate power at synthesis-style full activity (`true`, the Figure 6
    /// methodology) or at the workload's achieved utilization (`false`).
    pub synthesis_activity: bool,
    /// Worker threads used to score candidates (`0` = one per available
    /// core, `1` = fully serial). Results are identical for every worker
    /// count — see [`explore`].
    pub workers: usize,
    /// Per-design-point simulated-cycle budget. A candidate whose estimated
    /// runtime exceeds this becomes an [`PointError::BudgetExceeded`] in
    /// [`ExploreOutcome::errors`] instead of a scored point; with
    /// [`ExploreOptions::functional_verify`] the same ceiling gates the
    /// functional simulation up front (see
    /// [`tensorlib_sim::simulate_budgeted`]). `None` disables the check.
    pub cycle_budget: Option<u64>,
    /// Additionally run the bit-exact functional simulator on every scored
    /// candidate (budgeted by [`ExploreOptions::cycle_budget`]). Expensive —
    /// off by default; sweeps that want end-to-end confidence opt in.
    pub functional_verify: bool,
    /// Hardening variants to score for every candidate dataflow. Empty (the
    /// default) scores only [`ExploreOptions::hw`]'s own hardening; a
    /// non-empty list expands the design space to candidates × variants, so
    /// resilience shows up as explicit points (with their priced overhead)
    /// in the Figure 6-style scatter.
    pub hardening_variants: Vec<Hardening>,
    /// Test-only chaos hook: candidates whose dataflow name is listed here
    /// panic during scoring, exercising the per-point panic isolation. Leave
    /// empty in real sweeps.
    #[doc(hidden)]
    pub chaos_panic_names: Vec<String>,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            dse: DseConfig::default(),
            hw: HwConfig::default(),
            sim: SimConfig::default(),
            synthesis_activity: true,
            workers: 0,
            cycle_budget: Some(1_000_000_000),
            functional_verify: false,
            hardening_variants: Vec::new(),
            chaos_panic_names: Vec::new(),
        }
    }
}

/// Why one candidate produced no [`DesignPoint`] (enumeration order is
/// preserved in [`ExploreOutcome::errors`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PointError {
    /// Scoring the candidate panicked; the panic was caught and isolated, so
    /// the rest of the sweep is unaffected.
    Panicked {
        /// Dataflow name of the candidate.
        name: String,
        /// The panic message.
        message: String,
    },
    /// The candidate's estimated (or functionally required) cycle count
    /// blew the per-point budget.
    BudgetExceeded {
        /// Dataflow name of the candidate.
        name: String,
        /// The configured ceiling.
        budget: u64,
        /// Cycles the point would need.
        needed: u64,
    },
    /// The functional simulator rejected the candidate (coverage gap or
    /// output mismatch — a generator bug surfaced by verification).
    Functional {
        /// Dataflow name of the candidate.
        name: String,
        /// The simulator's error, rendered.
        message: String,
    },
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Panicked { name, message } => {
                write!(f, "{name}: scoring panicked: {message}")
            }
            PointError::BudgetExceeded {
                name,
                budget,
                needed,
            } => write!(
                f,
                "{name}: needs {needed} cycles, over the {budget}-cycle point budget"
            ),
            PointError::Functional { name, message } => {
                write!(f, "{name}: functional verification failed: {message}")
            }
        }
    }
}

/// Everything a sweep produced: scored points plus typed per-candidate
/// failures. [`explore`] returns just the points; callers that must account
/// for every candidate (CI sweeps, reports) use [`explore_outcome`].
#[derive(Debug, Clone, Serialize)]
pub struct ExploreOutcome {
    /// Scored designs, sorted by total cycles (fastest first).
    pub points: Vec<DesignPoint>,
    /// Candidates that failed to score, in enumeration order.
    pub errors: Vec<PointError>,
    /// Candidates skipped because their reuse pattern is not implementable
    /// by the hardware templates (expected, not an error).
    pub skipped: usize,
}

/// Enumerates the kernel's dataflow design space, plans hardware for every
/// *implementable* candidate (non-neighbour reuse vectors are skipped — the
/// same designs the paper's templates cannot wire), and scores each plan
/// with the cycle model and the ASIC cost model.
///
/// Scoring needs only the [`DesignPlan`] (resource census, port catalog,
/// tiling, controller phases), so no array netlist is built unless
/// [`ExploreOptions::functional_verify`] asks to simulate the candidate.
///
/// Candidates are scored on a scoped worker pool
/// ([`ExploreOptions::workers`] threads; the work is embarrassingly
/// parallel). The parallel map preserves enumeration order before the final
/// stable sort, so the returned points — names, ordering, every field — are
/// identical for any worker count.
///
/// Results are sorted by total cycles, fastest first.
///
/// # Examples
///
/// ```
/// use tensorlib::explore::{explore, ExploreOptions};
/// use tensorlib_ir::workloads;
///
/// let points = explore(&workloads::gemm(32, 32, 32), &ExploreOptions::default());
/// assert!(points.len() > 100);
/// // The fastest design beats the slowest by a wide margin.
/// let best = &points.first().unwrap().performance;
/// let worst = &points.last().unwrap().performance;
/// assert!(best.total_cycles < worst.total_cycles);
/// ```
pub fn explore(kernel: &Kernel, opts: &ExploreOptions) -> Vec<DesignPoint> {
    explore_outcome(kernel, opts).points
}

/// [`explore`], but with full accounting: every enumerated candidate ends up
/// either in `points`, in `errors` (typed — panic, budget, functional), or
/// in the `skipped` count. A panicking or budget-blowing candidate never
/// takes the sweep down and never steals another candidate's slot: scoring
/// runs under per-point panic isolation ([`journal::run_items`]) and both
/// `points` and `errors` are byte-identical for any worker count.
pub fn explore_outcome(kernel: &Kernel, opts: &ExploreOptions) -> ExploreOutcome {
    let _span = tensorlib_obs::span("explore");
    let sweep = ExploreCampaign::new(kernel, opts);
    let jobs = sweep.jobs(0..sweep.job_count());
    let mut points = Vec::new();
    let mut errors = Vec::new();
    let mut skipped = 0usize;
    for result in score_jobs(kernel, opts, &jobs, &DurabilityOptions::default()) {
        match result {
            JobResult::Point(point) => points.push(point),
            JobResult::Error(e) => errors.push(e),
            JobResult::Skipped => skipped += 1,
            // No watchdog deadline, so no job is ever demoted.
            JobResult::Degraded => {}
        }
    }
    // Jobs are scored in enumeration order, so this stable sort reproduces
    // the serial implementation's output exactly, ties and all.
    points.sort_by(|a, b| {
        a.performance
            .total_cycles
            .cmp(&b.performance.total_cycles)
            .then_with(|| a.name.cmp(&b.name))
    });
    ExploreOutcome {
        points,
        errors,
        skipped,
    }
}

/// What scoring one (candidate, hardening) job produced. Points are moved
/// straight into their sweep's output, so boxing the large variant would
/// only add an allocation per point.
#[allow(clippy::large_enum_variant)]
enum JobResult {
    Point(DesignPoint),
    Error(PointError),
    /// Not implementable by the hardware templates (expected).
    Skipped,
    /// Demoted by the chunk watchdog before it started.
    Degraded,
}

/// The scoring and quarantine core of every sweep: scores `jobs` on the
/// worker pool ([`ExploreOptions::workers`] threads, small batches because
/// one job is orders of magnitude heavier than the queue bookkeeping) under
/// the durability policy ([`journal::run_items`]) — late jobs come back
/// [`JobResult::Degraded`], a job that panics on every retry becomes a typed
/// [`PointError::Panicked`], and the chaos hook serves fault-injection
/// tests. Results are in `jobs` order for any worker count. Records the
/// `explore.*` counters, an `explore.point` span per attempt, and the
/// `explore.point_us` histogram.
fn score_jobs(
    kernel: &Kernel,
    opts: &ExploreOptions,
    jobs: &[(&Dataflow, Hardening)],
    durability: &DurabilityOptions,
) -> Vec<JobResult> {
    tensorlib_obs::counter_add("explore.jobs", jobs.len() as u64);
    let outcomes = journal::run_items(durability, jobs, opts.workers, 4, |&(df, h)| {
        let _point_span = tensorlib_obs::span("explore.point");
        let t0 = tensorlib_obs::is_enabled().then(tensorlib_obs::now_micros);
        durability.chaos_check(&point_name(df, h));
        let result = score(kernel, opts, df, h);
        if let Some(t0) = t0 {
            tensorlib_obs::hist_record(
                "explore.point_us",
                tensorlib_obs::now_micros().saturating_sub(t0),
            );
        }
        result
    });
    let results: Vec<JobResult> = (outcomes.into_iter().zip(jobs))
        .map(|(outcome, &(df, h))| match outcome {
            ItemOutcome::Done(Some(Ok(point))) => JobResult::Point(point),
            ItemOutcome::Done(Some(Err(e))) => JobResult::Error(e),
            ItemOutcome::Done(None) => JobResult::Skipped,
            ItemOutcome::Degraded => JobResult::Degraded,
            ItemOutcome::Quarantined { attempts, message } => {
                JobResult::Error(PointError::Panicked {
                    name: point_name(df, h),
                    message: if attempts > 1 {
                        format!("quarantined after {attempts} attempts: {message}")
                    } else {
                        message
                    },
                })
            }
        })
        .collect();
    let count = |pred: fn(&JobResult) -> bool| results.iter().filter(|r| pred(r)).count() as u64;
    tensorlib_obs::counter_add("explore.points", count(|r| matches!(r, JobResult::Point(_))));
    tensorlib_obs::counter_add("explore.errors", count(|r| matches!(r, JobResult::Error(_))));
    tensorlib_obs::counter_add("explore.skipped", count(|r| matches!(r, JobResult::Skipped)));
    results
}

/// The display name of one (dataflow, hardening) design point.
fn point_name(df: &Dataflow, hardening: Hardening) -> String {
    format!("{}{}", df.name(), hardening.suffix())
}

/// Scores one candidate dataflow under one hardening variant: `None` if its
/// reuse pattern is not implementable by the hardware templates (an expected
/// skip), `Some(Err)` for typed per-point failures.
fn score(
    kernel: &Kernel,
    opts: &ExploreOptions,
    df: &Dataflow,
    hardening: Hardening,
) -> Option<Result<DesignPoint, PointError>> {
    if opts.chaos_panic_names.iter().any(|n| *n == df.name()) {
        panic!("chaos hook tripped for {}", df.name());
    }
    let hw = HwConfig {
        hardening,
        ..opts.hw
    };
    let plan = plan(df, &hw).ok()?;
    let performance = perf::estimate(&plan, kernel, &opts.sim);
    if let Some(budget) = opts.cycle_budget {
        if performance.total_cycles > budget {
            return Some(Err(PointError::BudgetExceeded {
                name: point_name(df, hardening),
                budget,
                needed: performance.total_cycles,
            }));
        }
    }
    // Only functional verification needs the netlist.
    let built;
    let scored: &DesignPlan = if opts.functional_verify {
        built = plan.build();
        match functional::simulate_budgeted(&built, kernel, 42, opts.cycle_budget) {
            Ok(_) => {}
            Err(SimError::CycleBudgetExceeded { budget, needed }) => {
                return Some(Err(PointError::BudgetExceeded {
                    name: point_name(df, hardening),
                    budget,
                    needed,
                }))
            }
            Err(e) => {
                return Some(Err(PointError::Functional {
                    name: point_name(df, hardening),
                    message: e.to_string(),
                }))
            }
        }
        &built
    } else {
        &plan
    };
    let activity = if opts.synthesis_activity {
        Activity {
            utilization: 1.0,
            freq_mhz: opts.sim.freq_mhz,
        }
    } else {
        Activity {
            utilization: performance.normalized_perf,
            freq_mhz: opts.sim.freq_mhz,
        }
    };
    let asic = asic_cost(scored, &activity);
    Some(Ok(DesignPoint {
        name: point_name(df, hardening),
        letters: df.letters(),
        dataflow: df.clone(),
        hardening,
        performance,
        asic,
    }))
}

/// Returns the Pareto frontier of `points` in the (power, area) plane —
/// the view Figure 6 plots.
pub fn pareto_power_area(points: &[DesignPoint]) -> Vec<&DesignPoint> {
    let mut frontier: Vec<&DesignPoint> = Vec::new();
    for p in points {
        let dominated = points.iter().any(|q| {
            (q.asic.power_mw < p.asic.power_mw && q.asic.area_mm2 <= p.asic.area_mm2)
                || (q.asic.power_mw <= p.asic.power_mw && q.asic.area_mm2 < p.asic.area_mm2)
        });
        if !dominated {
            frontier.push(p);
        }
    }
    frontier
}

// ---------------------------------------------------------------------------
// Durable (journaled) sweeps
// ---------------------------------------------------------------------------

/// One scored design point, reduced to the fields a sweep report plots.
/// This is what durable sweeps journal per candidate: unlike
/// [`DesignPoint`] it round-trips losslessly through the replay decoder, and
/// it is all the Figure 6-style scatter needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreRow {
    /// Paper-style dataflow name with hardening suffix.
    pub name: String,
    /// Per-tensor letters.
    pub letters: String,
    /// Estimated end-to-end cycles.
    pub total_cycles: u64,
    /// Achieved / peak throughput.
    pub normalized_perf: f64,
    /// ASIC power at the configured activity.
    pub power_mw: f64,
    /// ASIC area.
    pub area_mm2: f64,
}

impl ExploreRow {
    fn from_point(p: &DesignPoint) -> ExploreRow {
        ExploreRow {
            name: p.name.clone(),
            letters: p.letters.clone(),
            total_cycles: p.performance.total_cycles,
            normalized_perf: p.performance.normalized_perf,
            power_mw: p.asic.power_mw,
            area_mm2: p.asic.area_mm2,
        }
    }
}

/// A durable sweep's full accounting: reduced rows plus typed failures,
/// demotions, and skips. Byte-stable for a given kernel and options
/// regardless of worker count, chunking, or crash/resume history.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExploreSweepReport {
    /// Scored candidates, sorted by total cycles (fastest first, ties by
    /// name) — the same order [`explore`] returns points in.
    pub rows: Vec<ExploreRow>,
    /// Candidates that failed to score, in enumeration order.
    pub errors: Vec<PointError>,
    /// Candidates whose reuse pattern the templates cannot wire (expected).
    pub skipped: u64,
    /// Candidates demoted by the per-chunk watchdog before they could run.
    pub degraded: u64,
}

/// A design-space sweep as a chunked campaign for
/// [`tensorlib_sim::journal::execute`]: the enumerated candidates × hardening
/// variants, in enumeration order.
pub struct ExploreCampaign<'a> {
    kernel: &'a Kernel,
    opts: &'a ExploreOptions,
    candidates: Vec<Dataflow>,
    /// Every candidate is scored once per variant. An empty
    /// [`ExploreOptions::hardening_variants`] means "whatever the base
    /// config carries".
    variants: Vec<Hardening>,
}

impl<'a> ExploreCampaign<'a> {
    /// Enumerates the kernel's design space.
    pub fn new(kernel: &'a Kernel, opts: &'a ExploreOptions) -> ExploreCampaign<'a> {
        let variants = if opts.hardening_variants.is_empty() {
            vec![opts.hw.hardening]
        } else {
            opts.hardening_variants.clone()
        };
        ExploreCampaign {
            kernel,
            opts,
            candidates: design_space(kernel, &opts.dse),
            variants,
        }
    }

    fn job_count(&self) -> usize {
        self.candidates.len() * self.variants.len()
    }

    /// The jobs at enumeration indices `range`.
    fn jobs(&self, range: std::ops::Range<usize>) -> Vec<(&Dataflow, Hardening)> {
        let n = self.variants.len();
        range
            .map(|i| (&self.candidates[i / n], self.variants[i % n]))
            .collect()
    }
}

impl journal::Campaign for ExploreCampaign<'_> {
    const KIND: &'static str = "explore";
    /// The chunk's own sweep report, rows in enumeration order.
    type Chunk = ExploreSweepReport;
    type Report = ExploreSweepReport;

    /// The kernel and every option that shapes the result, with the worker
    /// count zeroed (resuming with a different `--workers` is legal —
    /// sweeps are worker-count independent) and the test-only chaos hook
    /// excluded.
    fn canonical_config(&self) -> String {
        let canon = ExploreOptions {
            workers: 0,
            chaos_panic_names: Vec::new(),
            ..self.opts.clone()
        };
        format!("{:?}|{canon:?}|jobs={}", self.kernel, self.job_count())
    }

    fn chunk_plan(&self, durability: &DurabilityOptions) -> journal::ChunkPlan {
        let jobs = self.job_count();
        let chunk_size = durability.chunk_size_for(jobs, 32);
        journal::ChunkPlan {
            chunk_size,
            chunks: jobs.div_ceil(chunk_size),
        }
    }

    fn run_chunk(
        &self,
        plan: &journal::ChunkPlan,
        index: usize,
        durability: &DurabilityOptions,
    ) -> ExploreSweepReport {
        let lo = index * plan.chunk_size;
        let hi = (lo + plan.chunk_size).min(self.job_count());
        let mut chunk = ExploreSweepReport::default();
        for result in score_jobs(self.kernel, self.opts, &self.jobs(lo..hi), durability) {
            match result {
                JobResult::Point(point) => chunk.rows.push(ExploreRow::from_point(&point)),
                JobResult::Error(e) => chunk.errors.push(e),
                JobResult::Skipped => chunk.skipped += 1,
                JobResult::Degraded => chunk.degraded += 1,
            }
        }
        chunk
    }

    fn aggregate(
        &self,
        _plan: &journal::ChunkPlan,
        chunks: Vec<ExploreSweepReport>,
    ) -> ExploreSweepReport {
        let mut report = ExploreSweepReport::default();
        for chunk in chunks {
            report.rows.extend(chunk.rows);
            report.errors.extend(chunk.errors);
            report.skipped += chunk.skipped;
            report.degraded += chunk.degraded;
        }
        // Chunks concatenate in enumeration order; this stable sort gives
        // the same fastest-first ordering as [`explore`], ties and all.
        report
            .rows
            .sort_by(|a, b| a.total_cycles.cmp(&b.total_cycles).then_with(|| a.name.cmp(&b.name)));
        report
    }

    fn history_metrics(r: &ExploreSweepReport) -> BTreeMap<String, f64> {
        let mut metrics: BTreeMap<String, f64> = [
            ("implementable_designs", r.rows.len() as f64),
            ("errors", r.errors.len() as f64),
            ("skipped", r.skipped as f64),
            ("degraded", r.degraded as f64),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        if let Some(best) = r.rows.first() {
            metrics.insert("best_total_cycles".to_string(), best.total_cycles as f64);
        }
        metrics
    }

    /// Scored designs, point errors (with the `panicked` subset), skipped
    /// and degraded candidates.
    fn count_outcomes(chunk: &ExploreSweepReport) -> BTreeMap<String, u64> {
        let panicked = (chunk.errors.iter())
            .filter(|e| matches!(e, PointError::Panicked { .. }))
            .count() as u64;
        [
            ("designs", chunk.rows.len() as u64),
            ("errors", chunk.errors.len() as u64),
            ("panicked", panicked),
            ("skipped", chunk.skipped),
            ("degraded", chunk.degraded),
        ]
        .into_iter()
        .filter(|&(key, n)| key != "panicked" || n > 0)
        .map(|(key, n)| (key.to_string(), n))
        .collect()
    }
}

/// The sweep of [`explore_outcome`] as a chunked campaign
/// ([`ExploreCampaign`]): the enumerated candidate list is split into
/// deterministic chunks (one chunk when there is neither a journal nor a
/// watchdog), completed chunks are journaled to `durability.dir` (when set)
/// and replayed on resume, the per-chunk watchdog demotes late candidates
/// to the `degraded` tally, panicking candidates are retried then
/// quarantined as [`PointError::Panicked`], and an interrupt drains the
/// in-flight chunk before returning a partial (but valid and resumable)
/// report with `stats.interrupted` set. Scoring is shared with
/// [`explore_outcome`], reduced to [`ExploreRow`]s, and the report bytes do
/// not depend on the chunk geometry.
///
/// # Errors
///
/// [`JournalError`] for journal open/append/decode failures — including a
/// `--resume` directory whose journal belongs to a different config.
pub fn explore_durable(
    kernel: &Kernel,
    opts: &ExploreOptions,
    durability: &DurabilityOptions,
) -> Result<(ExploreSweepReport, RunStats), JournalError> {
    journal::execute(&ExploreCampaign::new(kernel, opts), durability)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_ir::workloads;

    #[test]
    fn explore_gemm_covers_classics() {
        let points = explore(&workloads::gemm(32, 32, 32), &ExploreOptions::default());
        assert!(points.len() > 100);
        for want in ["SST", "STS", "MTM"] {
            assert!(
                points.iter().any(|p| p.letters == want),
                "missing {want} in explored space"
            );
        }
        // Sorted fastest-first.
        for w in points.windows(2) {
            assert!(w[0].performance.total_cycles <= w[1].performance.total_cycles);
        }
    }

    #[test]
    fn pareto_frontier_is_nonempty_and_undominated() {
        let points = explore(&workloads::gemm(16, 16, 16), &ExploreOptions::default());
        let frontier = pareto_power_area(&points);
        assert!(!frontier.is_empty());
        assert!(frontier.len() < points.len());
        for f in &frontier {
            for q in &points {
                assert!(
                    !(q.asic.power_mw < f.asic.power_mw && q.asic.area_mm2 < f.asic.area_mm2),
                    "{} dominates frontier point {}",
                    q.name,
                    f.name
                );
            }
        }
    }

    #[test]
    fn hardening_variants_are_explorable_design_points() {
        let k = workloads::gemm(16, 16, 16);
        let opts = ExploreOptions {
            hardening_variants: vec![Hardening::none(), Hardening::full()],
            ..ExploreOptions::default()
        };
        let points = explore(&k, &opts);
        let base = points
            .iter()
            .find(|p| p.letters == "SST" && !p.hardening.is_any())
            .expect("unhardened SST point");
        let hard = points
            .iter()
            .find(|p| p.name == format!("{}+tmr+par+abft", base.name))
            .expect("hardened twin of the SST point");
        // The hardened variant pays real area/power for its protection and
        // is a distinct scatter point with the same schedule.
        assert!(hard.asic.area_mm2 > base.asic.area_mm2);
        assert!(hard.asic.power_mw > base.asic.power_mw);
        assert_eq!(
            hard.performance.total_cycles,
            base.performance.total_cycles
        );
        assert!(hard.hardening.abft);
        // Exactly two variants per implementable candidate.
        assert_eq!(points.len() % 2, 0);
        assert_eq!(
            points.iter().filter(|p| p.hardening.is_any()).count(),
            points.len() / 2
        );
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tl_explore_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// [`explore_outcome`]'s points reduced to the sweep report's rows.
    fn reduced(o: ExploreOutcome) -> ExploreSweepReport {
        ExploreSweepReport {
            rows: o.points.iter().map(ExploreRow::from_point).collect(),
            errors: o.errors,
            skipped: o.skipped as u64,
            degraded: 0,
        }
    }

    #[test]
    fn report_bytes_are_invariant_under_chunk_geometry() {
        let k = workloads::gemm(16, 16, 16);
        let opts = ExploreOptions {
            workers: 2,
            ..ExploreOptions::default()
        };
        let (single, stats) = explore_durable(&k, &opts, &DurabilityOptions::default()).unwrap();
        assert_eq!(stats.chunks_total, 1, "derived single chunk");
        assert!(!single.rows.is_empty());
        // The chunked sweep and the full-point sweep share one scoring core.
        assert_eq!(single, reduced(explore_outcome(&k, &opts)));
        let want = serde_json::to_string(&single).unwrap();
        let jobs = single.rows.len() + single.errors.len() + single.skipped as usize;
        // 1, the pool's own work-stealing chunk, the journaled default, the
        // derived single chunk, and no override at all.
        for chunk_size in [Some(1), Some(4), Some(32), Some(jobs), None] {
            for journaled in [false, true] {
                let dir = tmpdir(&format!("geom_{chunk_size:?}_{journaled}"));
                let durability = DurabilityOptions {
                    dir: journaled.then(|| dir.clone()),
                    chunk_size,
                    ..DurabilityOptions::default()
                };
                let (report, stats) = explore_durable(&k, &opts, &durability).unwrap();
                let tag = format!("chunk={chunk_size:?} journaled={journaled}");
                assert_eq!(serde_json::to_string(&report).unwrap(), want, "{tag}");
                assert_eq!(stats.chunks_executed, stats.chunks_total, "{tag}");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn durable_journaled_resume_is_byte_identical() {
        let k = workloads::gemm(16, 16, 16);
        let opts = ExploreOptions::default();
        let single = serde_json::to_string(&reduced(explore_outcome(&k, &opts))).unwrap();
        let dir = tmpdir("resume");
        let durability = DurabilityOptions {
            chunk_size: Some(25),
            ..DurabilityOptions::with_dir(&dir)
        };
        let (full, stats) = explore_durable(&k, &opts, &durability).unwrap();
        assert_eq!(serde_json::to_string(&full).unwrap(), single);
        assert!(stats.chunks_total >= 2, "sweep should span several chunks");
        assert_eq!(stats.chunks_executed, stats.chunks_total);

        // Simulate a crash mid-append: tear bytes off the journal tail, then
        // resume. The torn record re-executes; everything else replays.
        let journal_path = dir.join(journal::JOURNAL_FILE);
        let bytes = std::fs::read(&journal_path).unwrap();
        std::fs::write(&journal_path, &bytes[..bytes.len() - 7]).unwrap();
        let (resumed, stats) = explore_durable(&k, &opts, &durability).unwrap();
        assert_eq!(serde_json::to_string(&resumed).unwrap(), single);
        assert_eq!(stats.chunks_executed, 1, "only the torn chunk re-runs");
        assert_eq!(stats.chunks_replayed, stats.chunks_total - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_watchdog_degrades_instead_of_stalling() {
        let k = workloads::gemm(16, 16, 16);
        let opts = ExploreOptions::default();
        let durability = DurabilityOptions {
            chunk_timeout: Some(std::time::Duration::ZERO),
            chunk_size: Some(64),
            ..DurabilityOptions::default()
        };
        let (report, _) = explore_durable(&k, &opts, &durability).unwrap();
        assert!(report.rows.is_empty());
        assert!(report.errors.is_empty());
        assert_eq!(report.skipped, 0);
        assert!(report.degraded > 0, "expired deadline degrades every candidate");
    }

    #[test]
    fn durable_panicking_candidate_is_quarantined() {
        let k = workloads::gemm(16, 16, 16);
        let opts = ExploreOptions::default();
        let clean = reduced(explore_outcome(&k, &opts));
        let victim = clean.rows[0].name.clone();
        let durability = DurabilityOptions {
            panic_retries: 1,
            chaos_panic_targets: vec![victim.clone()],
            ..DurabilityOptions::default()
        };
        let (report, _) = explore_durable(&k, &opts, &durability).unwrap();
        let quarantined: Vec<&PointError> = report
            .errors
            .iter()
            .filter(|e| matches!(e, PointError::Panicked { .. }))
            .collect();
        assert!(!quarantined.is_empty());
        let PointError::Panicked { name, message } = quarantined[0] else {
            unreachable!()
        };
        assert!(name.contains(&victim));
        assert!(message.contains("quarantined after 2 attempts"));
        assert!(message.contains("chaos hook tripped"));
        // The sweep completed around the quarantine: every non-chaos row
        // matches the clean run.
        let surviving: Vec<&ExploreRow> = report
            .rows
            .iter()
            .filter(|r| !r.name.contains(&victim))
            .collect();
        let clean_rows: Vec<&ExploreRow> = clean
            .rows
            .iter()
            .filter(|r| !r.name.contains(&victim))
            .collect();
        assert_eq!(surviving, clean_rows);
    }

    #[test]
    fn workload_activity_lowers_power() {
        let k = workloads::batched_gemv(16, 16, 16);
        let synth = explore(&k, &ExploreOptions::default());
        let real = explore(
            &k,
            &ExploreOptions {
                synthesis_activity: false,
                ..ExploreOptions::default()
            },
        );
        // Batched-GEMV stalls on bandwidth, so achieved-utilization power is
        // lower than synthesis-activity power for the same design.
        let s = synth.iter().find(|p| p.letters == "UTS");
        let r = real.iter().find(|p| p.letters == "UTS");
        if let (Some(s), Some(r)) = (s, r) {
            assert!(r.asic.power_mw < s.asic.power_mw);
        }
    }
}
