//! Differential verification campaigns over seeded random inputs.
//!
//! Two fuzzing modes share one report format:
//!
//! - **Netlist mode** drives [`tensorlib_hw::fuzz`]: random-but-valid
//!   netlists through `Module::validate`, Verilog-emission linting,
//!   elaboration, and a lock-step compiled-vs-tree-walking differential run.
//! - **Pipeline mode** samples whole generation pipelines — kernel × tile
//!   sizes × loop selection × STT × hardening variant — and runs each
//!   surviving design through a deeper oracle stack: design-level
//!   validation, elaboration, the reference functional executor, and a full
//!   controller round executed by both interpreter engines with every
//!   output port, detector, and hardware counter compared.
//!
//! Samples the pipeline legitimately cannot build (singular STT, non-
//! neighbour reuse, over-budget runs) count as *rejected*, not findings —
//! a finding always means two parts of the system disagree about an input
//! both accepted.
//!
//! Campaigns parallelize over [`tensorlib_linalg::par`] with per-seed panic
//! isolation. Findings are keyed by seed and reported in seed order, and the
//! report deliberately omits the worker count, so the serialized report is
//! byte-identical for any `workers` setting — a property CI asserts.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib_hw::design::{generate, AcceleratorDesign, HwConfig};
use tensorlib_hw::fault::Hardening;
use tensorlib_linalg::rng::SplitMix64;
use tensorlib_hw::batch::BatchSim;
use tensorlib_hw::fuzz::{gen_netlist, rust_repro, shrink_netlist, NetlistFuzzConfig, Reference};
use tensorlib_hw::interp::{elaborate_design, FlatDesign, Interpreter};
use tensorlib_hw::trace::TraceConfig;
use tensorlib_hw::{ArrayConfig, HwError};
use tensorlib_ir::{workloads, Kernel};

use crate::functional::{simulate_budgeted, SimError};
use crate::journal::{self, DurabilityOptions, ItemOutcome, JournalError, RunStats};
use crate::trace::fill_input_banks;

/// Campaign parameters shared by both fuzzing modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct VerifyConfig {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Number of seeds per enabled mode.
    pub seeds: u64,
    /// Worker threads. Never copied into [`VerifyReport`], so any value
    /// yields the same report bytes.
    pub workers: usize,
    /// Cycles per netlist differential run.
    pub cycles: u64,
    /// Lane width of the batched-engine oracle
    /// ([`tensorlib_hw::fuzz::check_batch_netlist`] in netlist mode, a
    /// batched controller round in pipeline mode). Every lane is compared
    /// against its own scalar reference, so — like `workers` — the value is
    /// never serialized and a clean campaign's report is byte-identical for
    /// any lane width.
    #[serde(skip)]
    pub lanes: usize,
    /// Whether the opt-vs-unoptimized differential oracle
    /// ([`tensorlib_hw::fuzz::check_opt_netlist`]) runs on every netlist
    /// seed. Like `lanes`, an extra oracle on the same seeds: never
    /// serialized, so a clean campaign's report stays byte-identical with
    /// the axis on or off.
    #[serde(skip)]
    pub opt: bool,
}

impl Default for VerifyConfig {
    fn default() -> VerifyConfig {
        VerifyConfig {
            seed_start: 0,
            seeds: 100,
            workers: 1,
            cycles: 16,
            lanes: 1,
            opt: true,
        }
    }
}

/// One surviving disagreement, minimized where a shrinker exists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// `"netlist"` or `"pipeline"`.
    pub mode: String,
    /// The seed that produced it (sufficient to reproduce the run).
    pub seed: u64,
    /// Failing oracle: `validate`, `emission`, `elaborate`, `functional`,
    /// `mismatch`, or `panic`.
    pub kind: String,
    /// Human-readable specifics.
    pub detail: String,
    /// Total nets across the shrunk netlist's modules (netlist mode).
    pub shrunk_nets: Option<usize>,
    /// The shrunk netlist, serialized as JSON (netlist mode).
    pub modules_json: Option<String>,
    /// Paste-ready Rust regression test (netlist mode).
    pub rust_snippet: Option<String>,
    /// The sampled pipeline, for pipeline-mode findings.
    pub pipeline: Option<PipelineSample>,
}

/// Per-mode campaign tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeReport {
    /// Seeds executed.
    pub seeds_run: u64,
    /// Samples the pipeline legitimately rejected (pipeline mode only).
    pub rejected: u64,
    /// Seeds demoted by the per-chunk watchdog (`--chunk-timeout`) before
    /// they could run.
    pub degraded: u64,
    /// Surviving disagreements, in seed order.
    pub findings: Vec<Finding>,
}

/// The full campaign report. Serialization is byte-stable for a given
/// `(seed_start, seeds, cycles)` regardless of worker count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct VerifyReport {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Seeds per enabled mode.
    pub seeds: u64,
    /// Cycles per netlist differential run.
    pub cycles: u64,
    /// Netlist-mode results (absent if the mode was skipped).
    pub netlist: Option<ModeReport>,
    /// Pipeline-mode results (absent if the mode was skipped).
    pub pipeline: Option<ModeReport>,
    /// Finding count across both modes — CI gates on this being zero.
    pub total_findings: usize,
}

// ---------------------------------------------------------------------------
// Netlist mode
// ---------------------------------------------------------------------------

fn netlist_finding(seed: u64, cfg: &VerifyConfig) -> Option<Finding> {
    let gen_cfg = NetlistFuzzConfig {
        cycles: cfg.cycles,
        ..NetlistFuzzConfig::default()
    };
    let (modules, top) = gen_netlist(seed, &gen_cfg);
    // Full scalar oracle stack, then the lane-vs-scalar batched oracle
    // (lane 0 replays the scalar stimulus; extra lanes add fresh streams).
    let lanes = cfg.lanes.max(1);
    let check = |mods: &[tensorlib_hw::netlist::Module], t: &str| {
        Reference::new(mods, t).check_all(seed, cfg.cycles, lanes, cfg.opt)
    };
    let failure = match check(&modules, &top) {
        Ok(()) => return None,
        Err(f) => f,
    };
    // Shrink while the *same* oracle keeps failing, so the minimized repro
    // demonstrates the original bug and not a different one.
    let kind = failure.kind;
    let (shrunk, stop) = shrink_netlist(&modules, &top, |mods, t| {
        matches!(check(mods, t), Err(f) if f.kind == kind)
    });
    let detail = check(&shrunk, &stop)
        .err()
        .map_or(failure.detail, |f| f.detail);
    Some(Finding {
        mode: "netlist".into(),
        seed,
        kind: kind.label().into(),
        detail,
        shrunk_nets: Some(shrunk.iter().map(|m| m.nets().len()).sum()),
        modules_json: serde_json::to_string(&shrunk).ok(),
        rust_snippet: Some(rust_repro(&shrunk, &stop, seed, cfg.cycles)),
        pipeline: None,
    })
}

// ---------------------------------------------------------------------------
// Pipeline mode
// ---------------------------------------------------------------------------

/// A sampled point in the generation pipeline's input space.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineSample {
    /// Workload family.
    pub kernel: String,
    /// Loop extents, in the kernel constructor's argument order.
    pub dims: Vec<u64>,
    /// The `(x1, x2, x3)` loop-name selection.
    pub selection: [String; 3],
    /// STT rows.
    pub stt: [[i64; 3]; 3],
    /// PE-array rows.
    pub rows: usize,
    /// PE-array columns.
    pub cols: usize,
    /// Hardening variant, in [`Hardening::parse`] syntax (empty = none).
    pub hardening: String,
}

fn build_kernel(s: &PipelineSample) -> Kernel {
    let d = &s.dims;
    match s.kernel.as_str() {
        "gemm" => workloads::gemm(d[0], d[1], d[2]),
        "batched_gemv" => workloads::batched_gemv(d[0], d[1], d[2]),
        "conv2d" => workloads::conv2d(d[0], d[1], d[2], d[3], d[4], d[5]),
        "depthwise_conv" => workloads::depthwise_conv(d[0], d[1], d[2], d[3], d[4]),
        "mttkrp" => workloads::mttkrp(d[0], d[1], d[2], d[3]),
        _ => workloads::ttmc(d[0], d[1], d[2], d[3], d[4]),
    }
}

/// Draws a pipeline sample for `seed`. Every field derives from the seed
/// alone, so the sample (and everything downstream of it) is reproducible
/// from the report.
pub fn sample_pipeline(seed: u64) -> PipelineSample {
    fn dim(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
        lo + rng.below(hi - lo + 1)
    }
    let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let r = &mut rng;
    let (kernel, dims): (&str, Vec<u64>) = match r.below(6) {
        0 => ("gemm", vec![dim(r, 2, 4), dim(r, 2, 4), dim(r, 2, 6)]),
        1 => ("batched_gemv", vec![dim(r, 2, 4), dim(r, 2, 4), dim(r, 2, 4)]),
        2 => (
            "conv2d",
            vec![dim(r, 2, 3), dim(r, 2, 3), dim(r, 3, 4), dim(r, 3, 4), 2, 2],
        ),
        3 => (
            "depthwise_conv",
            vec![dim(r, 2, 3), dim(r, 3, 4), dim(r, 3, 4), 2, 2],
        ),
        4 => (
            "mttkrp",
            vec![dim(r, 2, 3), dim(r, 2, 3), dim(r, 2, 3), dim(r, 2, 3)],
        ),
        _ => (
            "ttmc",
            vec![
                dim(r, 2, 3),
                dim(r, 2, 3),
                dim(r, 2, 3),
                dim(r, 2, 3),
                dim(r, 2, 3),
            ],
        ),
    };
    let k = build_kernel(&PipelineSample {
        kernel: kernel.into(),
        dims: dims.clone(),
        selection: [String::new(), String::new(), String::new()],
        stt: [[0; 3]; 3],
        rows: 0,
        cols: 0,
        hardening: String::new(),
    });
    // A random ordered 3-subset of the kernel's loop names.
    let names: Vec<String> = k
        .loop_nest()
        .names()
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let mut pool: Vec<String> = names;
    let mut selection: Vec<String> = Vec::new();
    for _ in 0..3 {
        let i = rng.below(pool.len() as u64) as usize;
        selection.push(pool.remove(i));
    }
    // Known-good STT menu (systolic, stationary, skewed) plus a random
    // small-entry matrix; singular draws are rejected downstream.
    let stt = match rng.below(6) {
        0 => [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
        1 => [[0, 0, 1], [0, 1, 0], [1, 1, 1]],
        2 => [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        3 => [[1, -1, 0], [0, 1, 0], [0, 0, 1]],
        4 => [[1, 1, 0], [0, 0, 1], [0, 1, 0]],
        _ => {
            let mut m = [[0i64; 3]; 3];
            for row in &mut m {
                for v in row.iter_mut() {
                    *v = rng.below(3) as i64 - 1;
                }
            }
            m
        }
    };
    let rows = if rng.below(2) == 0 { 2 } else { 4 };
    let cols = if rng.below(2) == 0 { 2 } else { 4 };
    let hardening = match rng.below(5) {
        0 => "",
        1 => "tmr",
        2 => "parity",
        3 => "abft",
        _ => "tmr,parity,abft",
    };
    PipelineSample {
        kernel: kernel.into(),
        dims,
        selection: [
            selection[0].clone(),
            selection[1].clone(),
            selection[2].clone(),
        ],
        stt,
        rows,
        cols,
        hardening: hardening.into(),
    }
}

enum PipelineOutcome {
    Clean,
    Rejected,
    Failed { kind: String, detail: String },
}

/// Builds the sampled design, or classifies why it can't be built.
fn build_design(s: &PipelineSample) -> Result<(Kernel, AcceleratorDesign), PipelineOutcome> {
    let kernel = build_kernel(s);
    let sel = [
        s.selection[0].as_str(),
        s.selection[1].as_str(),
        s.selection[2].as_str(),
    ];
    // Selection and STT rejections are the sampler's own dice coming up
    // invalid — not findings.
    let Ok(selection) = LoopSelection::by_names(&kernel, sel) else {
        return Err(PipelineOutcome::Rejected);
    };
    let Ok(stt) = Stt::from_rows(s.stt) else {
        return Err(PipelineOutcome::Rejected);
    };
    let Ok(df) = Dataflow::analyze(&kernel, selection, stt) else {
        return Err(PipelineOutcome::Rejected);
    };
    let hardening = Hardening::parse(&s.hardening).expect("menu variants parse");
    let cfg = HwConfig {
        array: ArrayConfig {
            rows: s.rows,
            cols: s.cols,
        },
        hardening,
        ..HwConfig::default()
    };
    match generate(&df, &cfg) {
        Ok(d) => Ok((kernel, d)),
        // The interconnect templates legitimately refuse far-hop reuse;
        // anything else out of `generate` is a generator bug.
        Err(HwError::NonNeighborReuse { .. }) => Err(PipelineOutcome::Rejected),
        Err(e) => Err(PipelineOutcome::Failed {
            kind: "generate".into(),
            detail: e.to_string(),
        }),
    }
}

/// The shape every pipeline-mode round shares: the steps before the
/// readback drain, the drain's length (one step per array row), the result
/// banks drained, and the ports compared every cycle (`done`, the TMR
/// detector when present, and each result port).
struct RoundShape {
    pre: u64,
    rows: u64,
    out_banks: Vec<usize>,
    watched: Vec<String>,
}

impl RoundShape {
    fn of(design: &AcceleratorDesign) -> RoundShape {
        let phases = design.phases();
        let out_banks: Vec<usize> = design
            .bank_bindings()
            .iter()
            .enumerate()
            .filter(|(_, b)| !design.port_group(b).kind.is_input())
            .map(|(bi, _)| bi)
            .collect();
        let mut watched = vec!["done".to_string()];
        if design.config().hardening.tmr_ctrl {
            watched.push("tmr_mismatch".to_string());
        }
        watched.extend(out_banks.iter().map(|bi| format!("result_{bi}")));
        RoundShape {
            pre: 1 + phases.total() + phases.load_cycles + phases.compute_cycles,
            rows: design.config().array.rows as u64,
            out_banks,
            watched,
        }
    }
}

/// Runs one controller round on two scalar engines in lock step: both load
/// the input banks, see `start`, step through the round and the readback
/// drain, and are compared on every watched port every cycle and on their
/// parity counters at the end. A divergence is a `kind` failure naming each
/// engine by its label.
fn lockstep(
    design: &AcceleratorDesign,
    kind: &str,
    (a_is, a): (&str, &mut Interpreter),
    (b_is, b): (&str, &mut Interpreter),
) -> Result<(), (String, String)> {
    for sim in [&mut *a, &mut *b] {
        fill_input_banks(sim, design).map_err(|e| ("load".to_string(), e.to_string()))?;
        sim.poke("start", 1);
    }
    let shape = RoundShape::of(design);
    for cycle in 0..shape.pre + shape.rows {
        if cycle == shape.pre {
            for bi in &shape.out_banks {
                let port = format!("readback_{bi}");
                a.poke(&port, 1);
                b.poke(&port, 1);
            }
        }
        a.step();
        b.step();
        for name in &shape.watched {
            let (x, y) = (a.peek(name), b.peek(name));
            if x != y {
                let detail =
                    format!("port {name:?} diverged at cycle {cycle}: {a_is}={x} {b_is}={y}");
                return Err((kind.to_string(), detail));
            }
        }
    }
    let (x, y) = (a.parity_error_count(), b.parity_error_count());
    if x != y {
        let detail = format!("parity counters diverged: {a_is}={x} {b_is}={y}");
        return Err((kind.to_string(), detail));
    }
    Ok(())
}

/// Runs one controller round on both engines, comparing every output port,
/// detector, and the full hardware-counter block. `flat` is the design's
/// elaboration.
fn differential_round(
    design: &AcceleratorDesign,
    flat: FlatDesign,
) -> Result<(), (String, String)> {
    let _span = tensorlib_obs::span("sim.verify.differential_round");
    let cfg = TraceConfig::counters_only();
    let mut fast = Interpreter::with_trace(flat.clone(), &cfg)
        .map_err(|e| ("trace".to_string(), e.to_string()))?;
    let mut slow = Interpreter::new_tree_walking(flat);
    slow.attach_trace(&cfg)
        .map_err(|e| ("trace".to_string(), e.to_string()))?;
    lockstep(
        design,
        "mismatch",
        ("compiled", &mut fast),
        ("tree", &mut slow),
    )?;
    if fast.stats() != slow.stats() {
        let render = |s: Option<&tensorlib_hw::trace::InterpreterStats>| {
            s.and_then(|s| serde_json::to_string(s).ok())
                .unwrap_or_else(|| "none".to_string())
        };
        return Err((
            "mismatch".to_string(),
            format!(
                "hardware counters diverged: compiled={} tree={}",
                render(fast.stats()),
                render(slow.stats())
            ),
        ));
    }
    Ok(())
}

/// Pipeline-mode lane oracle: runs one controller round on a
/// [`BatchSim`] whose lanes carry *different* bank images (lane-salted
/// ramps) against per-lane scalar references, comparing every watched port
/// on every lane every cycle plus the per-lane parity counters. This is the
/// batched engine's pipeline-sampler integration: real generated designs,
/// per-lane stimulus divergence.
fn batched_round(
    design: &AcceleratorDesign,
    flat: FlatDesign,
    lanes: usize,
) -> Result<(), (String, String)> {
    let load_err = |e: HwError| ("load".to_string(), e.to_string());
    let mut refs: Vec<Interpreter> = (0..lanes).map(|_| Interpreter::new(flat.clone())).collect();
    let mut batch = BatchSim::new(flat, lanes);
    for (bi, binding) in design.bank_bindings().iter().enumerate() {
        if !design.port_group(binding).kind.is_input() {
            continue;
        }
        let bank = design.bank(binding);
        let mult = if bank.is_double_buffered() { 2 } else { 1 };
        let cap = (bank.words() * mult) as usize;
        for (l, r) in refs.iter_mut().enumerate() {
            // Lane-salted ramp: lane 0 is the scalar campaign fill, each
            // further lane a shifted stream, so lanes genuinely diverge.
            let words: Vec<u64> = (0..cap)
                .map(|i| ((i as u64 + 13 * l as u64) % 97) + 1)
                .collect();
            batch.load_bank_lane(bi, l, &words).map_err(load_err)?;
            r.load_bank(bi, &words).map_err(load_err)?;
        }
    }
    batch.poke("start", 1);
    for r in &mut refs {
        r.poke("start", 1);
    }
    let shape = RoundShape::of(design);
    let mismatch = |cycle: u64, name: &str, lane: usize, b: u64, s: u64| {
        (
            "batch_mismatch".to_string(),
            format!("port {name:?} diverged at cycle {cycle} lane {lane}: batch={b} scalar={s}"),
        )
    };
    for cycle in 0..shape.pre + shape.rows {
        if cycle == shape.pre {
            for bi in &shape.out_banks {
                let port = format!("readback_{bi}");
                batch.poke(&port, 1);
                for r in &mut refs {
                    r.poke(&port, 1);
                }
            }
        }
        batch.step();
        for r in &mut refs {
            r.step();
        }
        for name in &shape.watched {
            for (l, r) in refs.iter().enumerate() {
                let (b, s) = (batch.peek_lane(name, l), r.peek(name));
                if b != s {
                    return Err(mismatch(cycle, name, l, b, s));
                }
            }
        }
    }
    for (l, r) in refs.iter().enumerate() {
        let (b, s) = (batch.parity_error_count_lane(l), r.parity_error_count());
        if b != s {
            return Err((
                "batch_mismatch".to_string(),
                format!("parity counters diverged on lane {l}: batch={b} scalar={s}"),
            ));
        }
    }
    Ok(())
}

fn pipeline_outcome(seed: u64, lanes: usize, opt: bool) -> PipelineOutcome {
    let sample = sample_pipeline(seed);
    let (kernel, design) = match build_design(&sample) {
        Ok(x) => x,
        Err(o) => return o,
    };
    if let Err(e) = design.validate() {
        return PipelineOutcome::Failed {
            kind: "validate".into(),
            detail: e.to_string(),
        };
    }
    // Reference functional executor as an end-to-end oracle: the design must
    // reproduce the kernel's reference output exactly.
    match simulate_budgeted(&design, &kernel, seed, Some(1 << 22)) {
        Ok(run) => debug_assert!(run.matches_reference),
        Err(SimError::CycleBudgetExceeded { .. }) => return PipelineOutcome::Rejected,
        Err(e) => {
            return PipelineOutcome::Failed {
                kind: "functional".into(),
                detail: e.to_string(),
            }
        }
    }
    // One elaboration of the unoptimized design serves every round below.
    let flat = match elaborate_design(&design, design.top()) {
        Ok(flat) => flat,
        Err(e) => {
            return PipelineOutcome::Failed {
                kind: "elaborate".into(),
                detail: e.to_string(),
            }
        }
    };
    if let Err((kind, detail)) = differential_round(&design, flat.clone()) {
        return PipelineOutcome::Failed { kind, detail };
    }
    if lanes > 1 {
        if let Err((kind, detail)) = batched_round(&design, flat.clone(), lanes) {
            return PipelineOutcome::Failed { kind, detail };
        }
    }
    if opt {
        if let Err((kind, detail)) = opt_round(&design, flat) {
            return PipelineOutcome::Failed { kind, detail };
        }
    }
    PipelineOutcome::Clean
}

/// Pipeline-mode opt axis: runs the [`tensorlib_hw::opt`] pipeline over the
/// sampled design and proves the result behaviourally identical on a full
/// controller round — the optimized design must validate, and a compiled
/// interpreter running it must match a compiled interpreter running the
/// unoptimized design on every watched output port every cycle (including
/// the readback drain) plus the parity counters. `flat_ref` is the
/// unoptimized design's elaboration.
fn opt_round(design: &AcceleratorDesign, flat_ref: FlatDesign) -> Result<(), (String, String)> {
    let _span = tensorlib_obs::span("sim.verify.opt_round");
    let opt_err = |detail: String| ("opt_mismatch".to_string(), detail);
    let mut opt_design = design.clone();
    opt_design.optimize_without_census(&tensorlib_hw::opt::OptOptions::default());
    opt_design
        .validate()
        .map_err(|e| opt_err(format!("optimized design fails validation: {e}")))?;
    let flat_opt = elaborate_design(&opt_design, opt_design.top())
        .map_err(|e| opt_err(format!("optimized design fails elaboration: {e}")))?;
    let mut reference = Interpreter::new(flat_ref);
    let mut optimized = Interpreter::new(flat_opt);
    lockstep(
        design,
        "opt_mismatch",
        ("unoptimized", &mut reference),
        ("optimized", &mut optimized),
    )
}

/// Runs the pipeline-mode campaign: `cfg.seeds` sampled generation
/// pipelines, each through design validation, the reference functional
/// executor, and a dual-engine controller round. Equivalent to the
/// pipeline half of [`run_verify_durable`] with default durability.
pub fn run_pipeline_campaign(cfg: &VerifyConfig) -> ModeReport {
    let (report, _) = run_verify_durable(cfg, false, true, &DurabilityOptions::default())
        .expect("an unjournaled campaign cannot fail");
    report.pipeline.expect("pipeline mode was enabled")
}

// ---------------------------------------------------------------------------
// Chunked (journaled) campaigns
// ---------------------------------------------------------------------------

/// Runs the seeds `lo..hi` of one mode under the durability policy
/// ([`journal::run_items`]): late seeds demote to `degraded`, a seed that
/// panics on every retry is quarantined as a `kind: "panic"` finding, and
/// the chaos hook serves fault-injection tests.
fn run_seed_chunk(
    cfg: &VerifyConfig,
    netlist_mode: bool,
    lo: u64,
    hi: u64,
    durability: &DurabilityOptions,
) -> ModeReport {
    let mode = if netlist_mode { "netlist" } else { "pipeline" };
    let finding = |seed: u64, kind: String, detail: String| Finding {
        mode: mode.into(),
        seed,
        kind,
        detail,
        shrunk_nets: None,
        modules_json: None,
        rust_snippet: None,
        pipeline: None,
    };
    // `(rejected, finding)`; netlist mode never rejects.
    let run_seed = |&seed: &u64| -> (bool, Option<Finding>) {
        durability.chaos_check(&format!("{mode}:{seed}"));
        if netlist_mode {
            return (false, netlist_finding(seed, cfg));
        }
        match pipeline_outcome(seed, cfg.lanes, cfg.opt) {
            PipelineOutcome::Clean => (false, None),
            PipelineOutcome::Rejected => (true, None),
            PipelineOutcome::Failed { kind, detail } => (
                false,
                Some(Finding {
                    pipeline: Some(sample_pipeline(seed)),
                    ..finding(seed, kind, detail)
                }),
            ),
        }
    };
    let seeds: Vec<u64> = (lo..hi).collect();
    let batch = if netlist_mode { 8 } else { 4 };
    let mut out = ModeReport {
        seeds_run: seeds.len() as u64,
        ..ModeReport::default()
    };
    let outcomes = journal::run_items(durability, &seeds, cfg.workers.max(1), batch, run_seed);
    for (outcome, &seed) in outcomes.into_iter().zip(&seeds) {
        match outcome {
            ItemOutcome::Done((true, _)) => out.rejected += 1,
            ItemOutcome::Done((false, f)) => out.findings.extend(f),
            ItemOutcome::Degraded => out.degraded += 1,
            ItemOutcome::Quarantined { attempts, message } => {
                let detail = if attempts > 1 {
                    format!("quarantined after {attempts} attempts: {message}")
                } else {
                    message
                };
                out.findings.push(finding(seed, "panic".into(), detail));
            }
        }
    }
    out
}

/// The fuzz campaign over the enabled modes, for [`journal::execute`].
/// Each mode's seed range is split into the same chunks; netlist chunks
/// come first, then pipeline chunks, sharing one journal.
pub struct VerifyCampaign {
    cfg: VerifyConfig,
    netlist: bool,
    pipeline: bool,
}

impl VerifyCampaign {
    /// The campaign over the enabled modes.
    pub fn new(cfg: &VerifyConfig, netlist: bool, pipeline: bool) -> VerifyCampaign {
        VerifyCampaign {
            cfg: *cfg,
            netlist,
            pipeline,
        }
    }

    /// Chunks in the netlist mode (0 when the mode is off).
    fn netlist_chunks(&self, plan: &journal::ChunkPlan) -> usize {
        if self.netlist {
            (self.cfg.seeds as usize).div_ceil(plan.chunk_size)
        } else {
            0
        }
    }
}

impl journal::Campaign for VerifyCampaign {
    const KIND: &'static str = "fuzz";
    /// One mode's tallies over the chunk's contiguous seed range.
    type Chunk = ModeReport;
    type Report = VerifyReport;

    /// The serialized config with the worker count zeroed (resuming with a
    /// different `--workers` is legal — reports are worker-count
    /// independent), plus the enabled-mode flags and the knobs serde skips
    /// but which select which oracles run on each seed.
    fn canonical_config(&self) -> String {
        let canon = VerifyConfig {
            workers: 0,
            ..self.cfg
        };
        format!(
            "{}|netlist={}|pipeline={}|lanes={}|opt={}",
            serde_json::to_string(&canon).expect("verify config serializes"),
            self.netlist,
            self.pipeline,
            self.cfg.lanes.max(1),
            self.cfg.opt,
        )
    }

    /// Without a journal or watchdog, one chunk per enabled mode.
    fn chunk_plan(&self, durability: &DurabilityOptions) -> journal::ChunkPlan {
        let seeds = self.cfg.seeds as usize;
        let chunk_size = durability.chunk_size_for(seeds, 16);
        let modes = usize::from(self.netlist) + usize::from(self.pipeline);
        journal::ChunkPlan {
            chunk_size,
            chunks: modes * seeds.div_ceil(chunk_size),
        }
    }

    fn run_chunk(
        &self,
        plan: &journal::ChunkPlan,
        index: usize,
        durability: &DurabilityOptions,
    ) -> ModeReport {
        let netlist_chunks = self.netlist_chunks(plan);
        let (netlist_mode, ci) = if index < netlist_chunks {
            (true, index)
        } else {
            (false, index - netlist_chunks)
        };
        let cfg = &self.cfg;
        let lo = cfg.seed_start + (ci * plan.chunk_size) as u64;
        let hi = (lo + plan.chunk_size as u64).min(cfg.seed_start + cfg.seeds);
        run_seed_chunk(cfg, netlist_mode, lo, hi, durability)
    }

    fn aggregate(&self, plan: &journal::ChunkPlan, chunks: Vec<ModeReport>) -> VerifyReport {
        let mut netlist_report = self.netlist.then(ModeReport::default);
        let mut pipeline_report = self.pipeline.then(ModeReport::default);
        let netlist_chunks = self.netlist_chunks(plan);
        for (i, chunk) in chunks.into_iter().enumerate() {
            let target = if i < netlist_chunks {
                netlist_report.as_mut()
            } else {
                pipeline_report.as_mut()
            };
            let m = target.expect("chunk index maps to an enabled mode");
            m.seeds_run += chunk.seeds_run;
            m.rejected += chunk.rejected;
            m.degraded += chunk.degraded;
            m.findings.extend(chunk.findings);
        }
        let total_findings = netlist_report.as_ref().map_or(0, |m| m.findings.len())
            + pipeline_report.as_ref().map_or(0, |m| m.findings.len());
        VerifyReport {
            seed_start: self.cfg.seed_start,
            seeds: self.cfg.seeds,
            cycles: self.cfg.cycles,
            netlist: netlist_report,
            pipeline: pipeline_report,
            total_findings,
        }
    }

    fn history_metrics(r: &VerifyReport) -> BTreeMap<String, f64> {
        let modes = [r.netlist.as_ref(), r.pipeline.as_ref()];
        let sum =
            |f: fn(&ModeReport) -> u64| modes.iter().flatten().map(|m| f(m)).sum::<u64>() as f64;
        [
            ("seeds_run", sum(|m| m.seeds_run)),
            ("rejected", sum(|m| m.rejected)),
            ("degraded", sum(|m| m.degraded)),
            ("total_findings", r.total_findings as f64),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    /// Seeds run, rejected and degraded seeds, findings, and the `panicked`
    /// subset of findings (quarantined panics surface as `kind: "panic"`).
    fn count_outcomes(chunk: &ModeReport) -> BTreeMap<String, u64> {
        let panicked = chunk.findings.iter().filter(|f| f.kind == "panic").count() as u64;
        [
            ("seeds_run", chunk.seeds_run),
            ("rejected", chunk.rejected),
            ("degraded", chunk.degraded),
            ("findings", chunk.findings.len() as u64),
            ("panicked", panicked),
        ]
        .into_iter()
        .filter(|&(key, n)| key != "panicked" || n > 0)
        .map(|(key, n)| (key.to_string(), n))
        .collect()
    }
}

/// Runs the requested fuzz modes ([`VerifyCampaign`]) with campaign
/// durability: each enabled mode's seed range is split into deterministic
/// chunks (one per mode when there is neither a journal nor a watchdog),
/// completed chunks are journaled to `durability.dir` (when set) and
/// replayed on resume, the per-chunk watchdog demotes late seeds to the
/// `degraded` tally, panicking seeds are retried then quarantined as
/// `kind: "panic"` findings, and an interrupt drains the in-flight chunk
/// before returning a partial (but valid and resumable) report with
/// `stats.interrupted` set. The report bytes do not depend on the chunk
/// geometry or the worker count.
///
/// # Errors
///
/// [`JournalError`] for journal open/append/decode failures — including a
/// `--resume` directory whose journal belongs to a different config.
pub fn run_verify_durable(
    cfg: &VerifyConfig,
    netlist: bool,
    pipeline: bool,
    durability: &DurabilityOptions,
) -> Result<(VerifyReport, RunStats), JournalError> {
    journal::execute(&VerifyCampaign::new(cfg, netlist, pipeline), durability)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both-or-either-mode campaign with default durability: one
    /// unjournaled chunk per mode.
    fn plain(cfg: &VerifyConfig, netlist: bool, pipeline: bool) -> VerifyReport {
        run_verify_durable(cfg, netlist, pipeline, &DurabilityOptions::default())
            .unwrap()
            .0
    }

    #[test]
    fn netlist_campaign_is_clean_on_default_seeds() {
        let cfg = VerifyConfig {
            seeds: 40,
            ..VerifyConfig::default()
        };
        let report = plain(&cfg, true, false).netlist.unwrap();
        assert_eq!(report.seeds_run, 40);
        assert!(
            report.findings.is_empty(),
            "unexpected findings: {:?}",
            report.findings
        );
    }

    #[test]
    fn pipeline_campaign_is_clean_and_not_all_rejected() {
        let cfg = VerifyConfig {
            seeds: 25,
            workers: 2,
            ..VerifyConfig::default()
        };
        let report = run_pipeline_campaign(&cfg);
        assert!(
            report.findings.is_empty(),
            "unexpected findings: {:?}",
            report.findings
        );
        assert!(
            report.rejected < report.seeds_run,
            "every sample was rejected — the sampler menu is broken"
        );
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        assert_eq!(sample_pipeline(9), sample_pipeline(9));
        assert_ne!(sample_pipeline(9), sample_pipeline(10));
    }

    #[test]
    fn reports_are_byte_identical_across_worker_counts() {
        let mut one = VerifyConfig {
            seeds: 12,
            workers: 1,
            ..VerifyConfig::default()
        };
        let a = serde_json::to_string(&plain(&one, true, true)).unwrap();
        one.workers = 4;
        let b = serde_json::to_string(&plain(&one, true, true)).unwrap();
        assert_eq!(a, b);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tl_verify_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn small_cfg() -> VerifyConfig {
        VerifyConfig {
            seeds: 9,
            workers: 2,
            ..VerifyConfig::default()
        }
    }

    #[test]
    fn report_bytes_are_invariant_under_chunk_geometry() {
        let cfg = VerifyConfig {
            seeds: 6,
            workers: 2,
            lanes: 2,
            ..VerifyConfig::default()
        };
        let (single, stats) =
            run_verify_durable(&cfg, true, true, &DurabilityOptions::default()).unwrap();
        assert_eq!(stats.chunks_total, 2, "one derived chunk per mode");
        let want = serde_json::to_string(&single).unwrap();
        // 1, the lane width, the journaled default, the derived single
        // chunk, and no override at all.
        for chunk_size in [Some(1), Some(cfg.lanes), Some(16), Some(6), None] {
            for journaled in [false, true] {
                let dir = tmpdir(&format!("geom_{chunk_size:?}_{journaled}"));
                let durability = DurabilityOptions {
                    dir: journaled.then(|| dir.clone()),
                    chunk_size,
                    ..DurabilityOptions::default()
                };
                let (report, stats) = run_verify_durable(&cfg, true, true, &durability).unwrap();
                let tag = format!("chunk={chunk_size:?} journaled={journaled}");
                assert_eq!(serde_json::to_string(&report).unwrap(), want, "{tag}");
                assert_eq!(stats.chunks_executed, stats.chunks_total, "{tag}");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn durable_chunked_report_is_byte_identical_to_single_shot() {
        let cfg = small_cfg();
        let single = serde_json::to_string(&plain(&cfg, true, true)).unwrap();
        for chunk_size in [1, 4, 16] {
            let durability = DurabilityOptions {
                chunk_size: Some(chunk_size),
                ..DurabilityOptions::default()
            };
            let (report, stats) = run_verify_durable(&cfg, true, true, &durability).unwrap();
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                single,
                "chunk size {chunk_size} changed the report bytes"
            );
            assert_eq!(stats.chunks_executed, stats.chunks_total);
        }
    }

    #[test]
    fn durable_journaled_resume_is_byte_identical() {
        let cfg = small_cfg();
        let single = serde_json::to_string(&plain(&cfg, true, true)).unwrap();
        let dir = tmpdir("resume");
        let durability = DurabilityOptions {
            chunk_size: Some(2),
            ..DurabilityOptions::with_dir(&dir)
        };
        let (full, stats) = run_verify_durable(&cfg, true, true, &durability).unwrap();
        assert_eq!(serde_json::to_string(&full).unwrap(), single);
        assert_eq!(stats.chunks_executed, stats.chunks_total);

        // Simulate a crash mid-append: tear bytes off the journal tail, then
        // resume. The torn record re-executes; everything else replays.
        let journal_path = dir.join(journal::JOURNAL_FILE);
        let bytes = std::fs::read(&journal_path).unwrap();
        std::fs::write(&journal_path, &bytes[..bytes.len() - 10]).unwrap();
        let (resumed, stats) = run_verify_durable(&cfg, true, true, &durability).unwrap();
        assert_eq!(serde_json::to_string(&resumed).unwrap(), single);
        assert_eq!(stats.chunks_executed, 1, "only the torn chunk re-runs");
        assert_eq!(stats.chunks_replayed, stats.chunks_total - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_resume_rejects_config_drift() {
        let dir = tmpdir("drift");
        let durability = DurabilityOptions {
            chunk_size: Some(4),
            ..DurabilityOptions::with_dir(&dir)
        };
        let mut cfg = small_cfg();
        run_verify_durable(&cfg, true, false, &durability).unwrap();
        cfg.seed_start += 1;
        let err = run_verify_durable(&cfg, true, false, &durability).unwrap_err();
        assert!(
            matches!(err, JournalError::ConfigMismatch { .. }),
            "expected ConfigMismatch, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_degrades_instead_of_stalling() {
        let cfg = small_cfg();
        let durability = DurabilityOptions {
            chunk_timeout: Some(std::time::Duration::ZERO),
            chunk_size: Some(4),
            ..DurabilityOptions::default()
        };
        let (report, _) = run_verify_durable(&cfg, true, true, &durability).unwrap();
        for mode in [report.netlist.unwrap(), report.pipeline.unwrap()] {
            assert_eq!(mode.degraded, cfg.seeds, "expired deadline degrades every seed");
            assert_eq!(mode.seeds_run, cfg.seeds);
            assert!(mode.findings.is_empty());
        }
        assert_eq!(report.total_findings, 0);
    }

    #[test]
    fn panicking_seed_is_quarantined_and_campaign_completes() {
        let cfg = small_cfg();
        let clean = plain(&cfg, true, false);
        let durability = DurabilityOptions {
            chunk_size: Some(4),
            panic_retries: 1,
            chaos_panic_targets: vec!["netlist:3".into()],
            ..DurabilityOptions::default()
        };
        let (report, _) = run_verify_durable(&cfg, true, false, &durability).unwrap();
        let mode = report.netlist.unwrap();
        assert_eq!(mode.seeds_run, cfg.seeds);
        let quarantined: Vec<&Finding> =
            mode.findings.iter().filter(|f| f.kind == "panic").collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].seed, 3);
        assert!(quarantined[0].detail.contains("quarantined after 2 attempts"));
        assert!(quarantined[0].detail.contains("chaos hook tripped"));
        // Every non-chaos seed classifies exactly as in the clean run.
        let rest: Vec<&Finding> = mode.findings.iter().filter(|f| f.kind != "panic").collect();
        let clean_findings: Vec<&Finding> =
            clean.netlist.as_ref().unwrap().findings.iter().collect();
        assert_eq!(rest, clean_findings);
    }
}
