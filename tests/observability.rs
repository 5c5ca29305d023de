//! Framework observability (`tensorlib-obs`) end-to-end:
//!
//! - recording spans/metrics must never change what the pipeline computes —
//!   an [`explore`] sweep returns byte-identical results with tracing on or
//!   off, at any worker count;
//! - two identical profiled runs produce byte-identical Chrome traces once
//!   timestamps are scrubbed (stable thread labels, deterministic
//!   round-robin scheduling, sorted emission);
//! - the exported trace is well-formed Chrome Trace Event JSON covering the
//!   pipeline phases, and it round-trips through the crate's own parser.
//!
//! The recording switch is process-global, so every test here serializes on
//! [`OBS_LOCK`].

use std::sync::Mutex;

use tensorlib::explore::{explore_durable, explore_outcome, ExploreOptions};
use tensorlib::ir::workloads;
use tensorlib::sim::DurabilityOptions;
use tensorlib_obs::json;

/// Serializes tests that flip the process-global recording switch.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn opts(workers: usize) -> ExploreOptions {
    ExploreOptions {
        // A small array keeps the per-point functional simulation cheap —
        // these tests run seven full sweeps.
        hw: tensorlib::HwConfig {
            array: tensorlib::ArrayConfig { rows: 4, cols: 4 },
            ..tensorlib::HwConfig::default()
        },
        workers,
        functional_verify: true,
        ..ExploreOptions::default()
    }
}

/// Serializes a sweep's observable result (every scored field) to JSON so
/// "identical results" is a byte comparison, not a field sample.
fn outcome_json(kernel: &tensorlib::Kernel, options: &ExploreOptions) -> String {
    serde_json::to_string(&explore_outcome(kernel, options)).expect("serialize outcome")
}

#[test]
fn explore_results_identical_with_tracing_on_and_off() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    let kernel = workloads::gemm(4, 4, 4);
    for workers in [1, 4] {
        let plain = outcome_json(&kernel, &opts(workers));

        tensorlib_obs::enable();
        let profiled = outcome_json(&kernel, &opts(workers));
        let session = tensorlib_obs::drain();
        tensorlib_obs::disable();

        assert_eq!(
            plain, profiled,
            "recording changed sweep results at {workers} workers"
        );
        assert!(
            !session.spans.is_empty(),
            "profiled sweep recorded no spans at {workers} workers"
        );
    }
}

#[test]
fn profiled_runs_are_byte_identical_modulo_timestamps() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    let kernel = workloads::gemm(4, 4, 4);
    let mut traces = Vec::new();
    for _ in 0..2 {
        tensorlib_obs::enable();
        let outcome = explore_outcome(&kernel, &opts(3));
        let mut session = tensorlib_obs::drain();
        tensorlib_obs::disable();
        assert!(!outcome.points.is_empty());
        session.scrub_timestamps();
        traces.push((session.to_chrome_trace(None), session.to_folded()));
    }
    assert_eq!(
        traces[0].0, traces[1].0,
        "two identical profiled runs diverged in their Chrome trace"
    );
    // Folded stacks aggregate scrubbed (zero) durations — still required to
    // carry the same path set in the same order.
    assert_eq!(traces[0].1, traces[1].1);
}

/// `explore` scores from the netlist-free plan: one `hw.plan` span per job
/// and no netlist build (`hw.elaboration`) unless functional verification
/// needs the netlist, in which case every planned design is built. Span
/// counts are deterministic, so full generation cannot quietly return to
/// the scoring path.
#[test]
fn explore_builds_netlists_only_for_functional_verification() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    let kernel = workloads::gemm(16, 16, 16);
    for functional_verify in [false, true] {
        let options = ExploreOptions {
            functional_verify,
            ..opts(2)
        };
        tensorlib_obs::enable();
        let outcome = explore_outcome(&kernel, &options);
        let session = tensorlib_obs::drain();
        tensorlib_obs::disable();
        let spans = |name: &str| session.spans.iter().filter(|s| s.name == name).count() as u64;
        let jobs = session.metrics.counters["explore.jobs"];
        assert!(jobs > 100, "GEMM-16 sweep has {jobs} jobs");
        assert_eq!(spans("hw.plan"), jobs, "one plan per job");
        let planned = jobs - outcome.skipped as u64;
        let built = if functional_verify { planned } else { 0 };
        assert_eq!(
            spans("hw.elaboration"),
            built,
            "netlist builds with functional_verify = {functional_verify}"
        );
    }
}

#[test]
fn sweep_trace_is_well_formed_and_covers_the_pipeline() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    tensorlib_obs::enable();
    let outcome = explore_outcome(&workloads::gemm(4, 4, 4), &opts(2));
    let session = tensorlib_obs::drain();
    tensorlib_obs::disable();
    assert!(!outcome.points.is_empty());

    let trace = session.to_chrome_trace(None);
    let doc = json::parse(&trace).expect("trace must parse as JSON");
    assert_eq!(
        doc.get("schema_version").and_then(json::Value::as_u64),
        Some(u64::from(tensorlib_obs::SCHEMA_VERSION))
    );
    let events = doc
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array");
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
        .map(|e| e.get("name").and_then(json::Value::as_str).unwrap())
        .collect();
    assert_eq!(span_names.len(), session.spans.len(), "one X event per span");
    for phase in [
        "dse.stt_enumeration",
        "dse.classification",
        "hw.elaboration",
        "sim.functional",
        "sim.cost_model",
        "cost.asic",
        "explore.point",
        "par.pool",
    ] {
        assert!(
            span_names.contains(&phase),
            "trace missing pipeline phase {phase}; got {span_names:?}"
        );
    }
    // Worker threads appear under their stable labels.
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("M"))
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(json::Value::as_str)
                .unwrap()
        })
        .collect();
    assert!(
        thread_names.contains(&"w00") && thread_names.contains(&"w01"),
        "stable worker labels missing: {thread_names:?}"
    );
}

/// The design-space sweep counts every candidate it classifies and every
/// design it keeps. For GEMM's one selection that is all 6,960 unimodular
/// STTs and 870 distinct designs, at any worker count.
#[test]
fn design_space_counts_classified_candidates_and_unique_designs() {
    use tensorlib::dataflow::dse::{design_space, DseConfig};

    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    let kernel = workloads::gemm(16, 16, 16);
    for workers in [1, 2] {
        tensorlib_obs::enable();
        let config = DseConfig {
            workers,
            ..DseConfig::default()
        };
        let designs = design_space(&kernel, &config);
        let session = tensorlib_obs::drain();
        tensorlib_obs::disable();
        let counter = |name: &str| session.metrics.counters.get(name).copied().unwrap_or(0);
        assert_eq!(counter("dse.classified"), 6_960, "{workers} workers");
        assert_eq!(counter("dse.unique_designs"), 870, "{workers} workers");
        assert_eq!(designs.len(), 870);
    }
}

/// A journaled (`explore --resume`) sweep scores through the same core as
/// [`explore_outcome`], so it records the same `explore.*` counters, one
/// `explore.point` span per job, and one `explore.point_us` sample per
/// job, summed over every chunk.
#[test]
fn journaled_sweep_records_explore_telemetry() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    let kernel = workloads::gemm(4, 4, 4);
    let options = ExploreOptions {
        functional_verify: false,
        ..opts(2)
    };
    let dir = std::env::temp_dir().join(format!("tl_obs_journaled_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityOptions {
        chunk_size: Some(16),
        ..DurabilityOptions::with_dir(&dir)
    };
    tensorlib_obs::enable();
    let (sweep, stats) = explore_durable(&kernel, &options, &durability).expect("sweep runs");
    let session = tensorlib_obs::drain();
    tensorlib_obs::disable();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(stats.chunks_total >= 2, "sweep spans several chunks");
    let counter = |name: &str| session.metrics.counters.get(name).copied().unwrap_or(0);
    let jobs = counter("explore.jobs");
    assert_eq!(
        jobs,
        (sweep.rows.len() + sweep.errors.len()) as u64 + sweep.skipped,
        "every job counted once"
    );
    assert_eq!(counter("explore.points"), sweep.rows.len() as u64);
    assert_eq!(counter("explore.errors"), sweep.errors.len() as u64);
    assert_eq!(counter("explore.skipped"), sweep.skipped);
    let point_spans = session
        .spans
        .iter()
        .filter(|s| s.name == "explore.point")
        .count() as u64;
    assert_eq!(point_spans, jobs, "one explore.point span per job");
    assert_eq!(session.metrics.histograms["explore.point_us"].count, jobs);
}

/// A fault campaign's simulation layer is visible: `sim.fault.fork`,
/// `sim.fault.step` and `sim.fault.harvest` spans inside
/// `sim.fault_injection`, and deterministic step counters. Lane groups
/// fork from the golden run, so with lanes > 1 some golden-prefix steps are
/// skipped, and every group still accounts for a whole round; the scalar
/// path runs every fault from cycle 0 and takes no forks. The fork passes
/// step one golden run forward across chunks, so a campaign cut into one
/// chunk per lane group steps it no further than the one-chunk run, at
/// most one round. The counters do not depend on the worker count.
#[test]
fn fault_campaign_counts_forked_and_skipped_steps() {
    use tensorlib::hw::fault::Hardening;
    use tensorlib::sim::resilience::{run_gemm_campaign_durable, CampaignConfig};

    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    const FAULTS: u64 = 48;
    let cfg = CampaignConfig {
        faults: FAULTS as usize,
        seed: 5,
        hardening: Hardening::full(),
        ..CampaignConfig::default()
    };
    let record = |lanes: usize, workers: usize, chunk_size: Option<usize>| {
        let cfg = CampaignConfig {
            lanes,
            workers,
            ..cfg
        };
        let durability = DurabilityOptions {
            chunk_size,
            ..DurabilityOptions::default()
        };
        let _ = tensorlib_obs::drain();
        tensorlib_obs::enable();
        run_gemm_campaign_durable(&cfg, &durability).expect("campaign runs");
        let session = tensorlib_obs::drain();
        tensorlib_obs::disable();
        session
    };
    let counters = |session: &tensorlib_obs::Session| {
        [
            "sim.faults_injected",
            "sim.fault.lane_steps",
            "sim.fault.steps_skipped",
            "sim.fault.golden_steps",
        ]
        .map(|name| session.metrics.counters.get(name).copied().unwrap_or(0))
    };
    let serial = record(1, 1, None);
    for phase in ["sim.fault.fork", "sim.fault.step", "sim.fault.harvest"] {
        assert!(
            (serial.spans.iter())
                .any(|s| s.name == phase && s.path.contains("sim.fault_injection;")),
            "no {phase} span inside sim.fault_injection"
        );
    }
    let [injected, scalar_steps, scalar_skipped, scalar_golden] = counters(&serial);
    assert_eq!(injected, FAULTS);
    assert_eq!(scalar_skipped, 0, "the scalar path never forks");
    assert_eq!(scalar_golden, 0, "the scalar path steps no golden run");
    assert_eq!(scalar_steps % FAULTS, 0, "every scalar run steps a whole round");
    let round = scalar_steps / FAULTS;
    // The readback takes one step per array row after the steps a fork can
    // skip.
    let forkable = round - cfg.rows as u64;
    for lanes in [1, 8] {
        let one = counters(&record(lanes, 1, None));
        assert_eq!(one, counters(&record(lanes, 3, None)), "lanes={lanes}: counters vary with workers");
        let [_, steps, skipped, golden] = one;
        if lanes > 1 {
            assert!(skipped > 0, "lanes={lanes}: no golden prefix was skipped");
            let groups = FAULTS.div_ceil(lanes as u64);
            assert_eq!(steps + skipped, groups * round, "lanes={lanes}: every group is one round");
            assert!(
                golden > 0 && golden <= forkable,
                "lanes={lanes}: the fork passes took {golden} golden steps, over {forkable}"
            );
            assert_eq!(
                counters(&record(lanes, 1, Some(lanes))),
                one,
                "lanes={lanes}: one chunk per lane group changed the counted work"
            );
        }
    }
}

/// The lane engine counts the lane-program ops it ran once (every operand
/// row uniform across lanes) and across lanes, and the uniform rows it had
/// to write out to every lane. The counts are deterministic, so they do not
/// depend on the worker count, and on the 8×8 TMR campaign, where a fault
/// touches one lane of 64, the ops run once dominate and few uniform rows
/// are ever written lane by lane.
#[test]
fn batch_op_counts_are_deterministic_and_mostly_uniform() {
    use tensorlib::hw::fault::Hardening;
    use tensorlib::sim::resilience::{run_gemm_campaign_durable, CampaignConfig};

    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    let record = |workers: usize| {
        let cfg = CampaignConfig {
            rows: 8,
            cols: 8,
            faults: 256,
            seed: 3,
            hardening: Hardening::full(),
            lanes: 64,
            workers,
            ..CampaignConfig::default()
        };
        let _ = tensorlib_obs::drain();
        tensorlib_obs::enable();
        run_gemm_campaign_durable(&cfg, &DurabilityOptions::default()).expect("campaign runs");
        let session = tensorlib_obs::drain();
        tensorlib_obs::disable();
        ["hw.batch.uniform_ops", "hw.batch.lane_ops", "hw.batch.materialized"]
            .map(|name| session.metrics.counters.get(name).copied().unwrap_or(0))
    };
    let [uniform, lane, materialized] = record(1);
    assert_eq!([uniform, lane, materialized], record(2), "op counts vary with workers");
    assert!(lane > 0, "some rows diverge");
    assert!(uniform > 4 * lane, "uniform ops {uniform} vs lane ops {lane}");
    assert!(materialized > 0, "some lane loop reads a uniform row");
    assert!(
        materialized < uniform / 8,
        "materialized rows {materialized} vs uniform ops {uniform}"
    );
}

/// A journaled lane campaign at the default chunk (`16 × lanes` faults)
/// cuts its chunks from the one campaign-wide execution order, so on the
/// 8×8 TMR campaign it runs exactly the lane groups, fork starts and golden
/// steps of the one-chunk run: every deterministic simulation counter
/// agrees.
#[test]
fn journaled_lane_campaign_counts_the_one_chunk_work() {
    use tensorlib::hw::fault::Hardening;
    use tensorlib::sim::resilience::{run_gemm_campaign_durable, CampaignConfig};

    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    let cfg = CampaignConfig {
        rows: 8,
        cols: 8,
        faults: 2500,
        seed: 3,
        hardening: Hardening::full(),
        lanes: 64,
        workers: 2,
        ..CampaignConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("tl_obs_lane_chunks_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = |durability: &DurabilityOptions| {
        let _ = tensorlib_obs::drain();
        tensorlib_obs::enable();
        let (_, stats) = run_gemm_campaign_durable(&cfg, durability).expect("campaign runs");
        let session = tensorlib_obs::drain();
        tensorlib_obs::disable();
        let counters = [
            "hw.batch.uniform_ops",
            "hw.batch.lane_ops",
            "hw.batch.materialized",
            "sim.fault.lane_steps",
            "sim.fault.steps_skipped",
            "sim.fault.golden_steps",
        ]
        .map(|name| (name, session.metrics.counters.get(name).copied().unwrap_or(0)));
        (counters, stats.chunks_total)
    };
    let (one_chunk, chunks) = record(&DurabilityOptions::default());
    assert_eq!(chunks, 1);
    let (journaled, chunks) = record(&DurabilityOptions::with_dir(&dir));
    assert_eq!(chunks, 3, "2,500 faults in chunks of 16 × 64");
    assert_eq!(journaled, one_chunk);
    assert!(one_chunk.iter().all(|&(_, n)| n > 0), "{one_chunk:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The optimizer counts its CSE rounds and hoists. A pipeline campaign
/// optimizes every sampled design, and the counts are deterministic, so
/// they do not depend on the worker count. The `hw.opt.cse` span nests
/// inside `hw.opt`.
#[test]
fn pipeline_campaign_counts_cse_work_independently_of_workers() {
    use tensorlib::sim::verify::{run_pipeline_campaign, VerifyConfig};

    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    let record = |workers: usize| {
        let cfg = VerifyConfig {
            seed_start: 40,
            seeds: 24,
            workers,
            ..VerifyConfig::default()
        };
        let _ = tensorlib_obs::drain();
        tensorlib_obs::enable();
        let report = run_pipeline_campaign(&cfg);
        let session = tensorlib_obs::drain();
        tensorlib_obs::disable();
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        session
    };
    let counters = |session: &tensorlib_obs::Session| {
        ["hw.opt.cse_rounds", "hw.opt.cse_hoists"]
            .map(|name| session.metrics.counters.get(name).copied().unwrap_or(0))
    };
    let serial = record(1);
    assert!(
        (serial.spans.iter()).any(|s| s.name == "hw.opt.cse" && s.path.contains("hw.opt;")),
        "no hw.opt.cse span inside hw.opt"
    );
    let [rounds, hoists] = counters(&serial);
    assert!(hoists > 0, "no subexpression was shared");
    assert!(
        rounds > hoists,
        "every module ends with a round that hoists nothing"
    );
    assert_eq!(
        counters(&serial),
        counters(&record(2)),
        "CSE counts vary with workers"
    );
}

/// Every journal append is one `sim.journal.append` span (write plus sync)
/// and counts its record and bytes. The journal's bytes are deterministic,
/// so the counters match the file and do not depend on the worker count.
#[test]
fn journal_appends_count_records_and_bytes_independently_of_workers() {
    use tensorlib::sim::journal::JOURNAL_FILE;
    use tensorlib::sim::resilience::{run_gemm_campaign_durable, CampaignConfig};

    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    let record = |workers: usize| {
        let dir = std::env::temp_dir().join(format!(
            "tl_obs_journal_append_{workers}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CampaignConfig {
            faults: 64,
            seed: 5,
            workers,
            ..CampaignConfig::default()
        };
        let durability = DurabilityOptions {
            chunk_size: Some(16),
            ..DurabilityOptions::with_dir(&dir)
        };
        let _ = tensorlib_obs::drain();
        tensorlib_obs::enable();
        let (_, stats) = run_gemm_campaign_durable(&cfg, &durability).unwrap();
        let session = tensorlib_obs::drain();
        tensorlib_obs::disable();
        let journal_len = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(stats.chunks_executed, 4);
        let counters = ["sim.journal.records", "sim.journal.bytes_appended"]
            .map(|name| session.metrics.counters.get(name).copied().unwrap_or(0));
        // The 24-byte file header is written at open, not appended.
        assert_eq!(counters, [4, journal_len - 24], "{workers} workers");
        let spans = (session.spans.iter())
            .filter(|s| s.name == "sim.journal.append")
            .count();
        assert_eq!(spans, 4, "one append span per chunk");
        counters
    };
    assert_eq!(record(1), record(2), "journal counters vary with workers");
}

/// A report written to a file counts its bytes in `report.bytes`, whether
/// it fits one drain of the streaming writer (`stats`) or takes several
/// (`faults`), and times its serialization inside its write.
#[test]
fn report_bytes_count_the_file_written() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    let dir = std::env::temp_dir().join(format!("tl_obs_report_bytes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("report.json");
    let out = out.to_str().unwrap();
    for command in [
        "stats gemm:4,4,4 MNK-SST --rows 4 --cols 4",
        "faults --faults 512 --lanes 8 --seed 3",
    ] {
        let mut argv: Vec<String> = command.split(' ').map(String::from).collect();
        argv.extend(["-o".to_string(), out.to_string()]);
        let cmd = tensorlib_cli::parse_args(&argv).unwrap();
        let _ = tensorlib_obs::drain();
        tensorlib_obs::enable();
        tensorlib_cli::run(cmd).unwrap_or_else(|e| panic!("{command}: {e}"));
        let session = tensorlib_obs::drain();
        tensorlib_obs::disable();
        let len = std::fs::metadata(out).unwrap().len();
        assert_eq!(
            session.metrics.counters.get("report.bytes"),
            Some(&len),
            "{command}"
        );
        let paths = |name: &str| {
            (session.spans.iter())
                .filter(|s| s.name == name)
                .map(|s| s.path.as_str())
                .collect::<Vec<_>>()
        };
        assert_eq!(paths("report.write"), ["report.write"], "{command}");
        assert_eq!(
            paths("report.serialize"),
            ["report.write;report.serialize"],
            "{command}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A design compiles its bytecode once, on first use, and every engine over
/// it shares that program: a compiled interpreter, its clone, a lane batch,
/// `flat_op_count` and `bytecode_dump` together record one
/// `hw.bytecode_compile` span, and a tree-walking interpreter alone records
/// none.
#[test]
fn a_design_compiles_its_bytecode_once() {
    use tensorlib::hw::batch::BatchSim;
    use tensorlib::hw::interp::{bytecode_dump, elaborate, flat_op_count, Interpreter};
    use tensorlib::hw::netlist::{Expr, Module};

    let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    tensorlib_obs::disable();
    let mut m = Module::new("mac");
    let a = m.input("a", 8);
    let b = m.input("b", 8);
    let q = m.output("q", 16);
    m.reg(q, Expr::net(q).add(Expr::net(a).mul(Expr::net(b))), None, 0);
    let compiles = |run: &dyn Fn()| {
        let _ = tensorlib_obs::drain();
        tensorlib_obs::enable();
        run();
        let session = tensorlib_obs::drain();
        tensorlib_obs::disable();
        (session.spans.iter())
            .filter(|s| s.name == "hw.bytecode_compile")
            .count()
    };
    let tree_only = compiles(&|| {
        let flat = elaborate(&[m.clone()], &[], "mac").unwrap();
        let mut sim = Interpreter::new_tree_walking(flat);
        sim.poke_many([("a", 3), ("b", 4)]);
        sim.step();
        assert_eq!(sim.peek("q"), 12);
    });
    assert_eq!(tree_only, 0, "a tree-walking interpreter compiled the design");
    let shared = compiles(&|| {
        let flat = elaborate(&[m.clone()], &[], "mac").unwrap();
        let mut sim = Interpreter::new(flat.clone());
        sim.poke_many([("a", 3), ("b", 4)]);
        let mut copy = sim.clone();
        copy.step();
        let mut batch = BatchSim::new(flat.clone(), 4);
        batch.poke_many([("a", 3), ("b", 4)]);
        batch.step();
        assert_eq!((copy.peek("q"), batch.peek_lane("q", 3)), (12, 12));
        assert!(flat_op_count(&flat) > 0);
        assert!(!bytecode_dump(&flat).is_empty());
    });
    assert_eq!(shared, 1, "one design compiled {shared} times");
}
