//! Lane-vs-scalar equivalence for the batched simulation engine.
//!
//! The determinism contract (DESIGN.md §12): lane `l` of a
//! [`tensorlib::hw::batch::BatchSim`] run is bit-identical — every flat net,
//! every cycle — to a scalar interpreter run given the same stimulus and
//! faults. These tests prove the contract over the fuzz netlist generator
//! (hundreds of random netlists × lane widths 1, 8, and 64) and over real
//! fault campaigns (batched resilience reports byte-identical to the scalar
//! baseline at several lane widths and worker counts).

use tensorlib::dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib::hw::batch::BatchSim;
use tensorlib::hw::design::{generate, HwConfig};
use tensorlib::hw::fault::{enumerate_sites, FaultSpec};
use tensorlib::hw::fuzz::{check_batch_netlist, gen_netlist, NetlistFuzzConfig};
use tensorlib::hw::interp::{elaborate_design, Interpreter};
use tensorlib::hw::ArrayConfig;
use tensorlib::ir::workloads;
use tensorlib::sim::journal;
use tensorlib::sim::resilience::{
    run_campaign, run_gemm_campaign_durable, CampaignConfig, CampaignError, FaultCampaign,
    ResilienceReport,
};
use tensorlib::sim::trace::fill_input_banks;
use tensorlib::sim::DurabilityOptions;
use tensorlib_hw::fault::Hardening;

/// The GEMM campaign with default durability: one unjournaled chunk.
fn run_gemm(cfg: &CampaignConfig) -> Result<ResilienceReport, CampaignError> {
    run_gemm_campaign_durable(cfg, &DurabilityOptions::default()).map(|(report, _)| report)
}

/// The tentpole equivalence sweep: ≥200 generator seeds, every flat net
/// compared against a scalar reference on every lane after every cycle, at
/// lane widths 1 (degenerate batch), 8, and 64. `check_batch_netlist` seeds
/// each lane with its own stimulus stream (lane 0 replays the scalar
/// campaign stream), so wider widths genuinely diversify the state space
/// rather than replicating lane 0.
#[test]
fn batched_engine_matches_scalar_on_fuzzed_netlists() {
    let cfg = NetlistFuzzConfig::default();
    for seed in 0..200 {
        let (modules, top) = gen_netlist(seed, &cfg);
        for lanes in [1, 8, 64] {
            check_batch_netlist(&modules, &top, seed, cfg.cycles, lanes).unwrap_or_else(|f| {
                panic!("seed {seed} lanes {lanes}: {}: {}", f.kind.label(), f.detail)
            });
        }
    }
}

/// Batched GEMM fault campaigns must serialize to the very bytes the scalar
/// campaign produces — for lane widths that divide the fault count, ones
/// that don't (ragged final chunk), widths wider than the campaign, and any
/// worker count.
#[test]
fn batched_gemm_campaign_reports_match_scalar_bytes() {
    let mk = |lanes: usize, workers: usize| {
        let report = run_gemm(&CampaignConfig {
            faults: 24,
            seed: 7,
            hardening: Hardening::full(),
            workers,
            lanes,
            ..CampaignConfig::default()
        })
        .expect("campaign runs");
        serde_json::to_string(&report).expect("report serializes")
    };
    let scalar = mk(1, 1);
    for (lanes, workers) in [(8, 1), (8, 4), (5, 2), (64, 3)] {
        assert_eq!(
            scalar,
            mk(lanes, workers),
            "lanes={lanes} workers={workers} changed the report bytes"
        );
    }
}

/// Same byte-identity for the generic ramp-stimulus campaign (different
/// harness protocol, different golden signature).
#[test]
fn batched_ramp_campaign_reports_match_scalar_bytes() {
    let mk = |lanes: usize| {
        let report = run_campaign(&CampaignConfig {
            faults: 12,
            seed: 5,
            hardening: Hardening {
                tmr_ctrl: true,
                parity_banks: true,
                abft: false,
            },
            workers: 2,
            lanes,
            ..CampaignConfig::default()
        })
        .expect("campaign runs");
        serde_json::to_string(&report).expect("report serializes")
    };
    assert_eq!(mk(1), mk(8), "lanes=8 changed the ramp campaign report");
}

/// A fully hardened 4x4 output-stationary GEMM top level with ramp-filled
/// input banks and `start` high: the base state a fault campaign forks from.
fn hardened_base() -> Interpreter {
    let gemm = workloads::gemm(4, 4, 4);
    let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).expect("gemm loops");
    let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).expect("OS gemm");
    let hw = HwConfig {
        array: ArrayConfig { rows: 4, cols: 4 },
        hardening: Hardening::full(),
        ..HwConfig::default()
    };
    let design = generate(&df, &hw).expect("design generates");
    let mut sim = Interpreter::new(elaborate_design(&design, design.top()).expect("flattens"));
    fill_input_banks(&mut sim, &design).expect("banks fill");
    sim.poke("start", 1);
    sim
}

/// Lane `lane` of `batch` equals `scalar`: every flat net, every bank word,
/// and the parity counters.
fn assert_lane_matches(batch: &BatchSim, lane: usize, scalar: &Interpreter, what: &str) {
    for net in scalar.flat().nets() {
        let name = net.name.as_str();
        assert_eq!(batch.peek_lane(name, lane), scalar.peek(name), "{what}: net {name}");
    }
    for bank in 0..scalar.bank_count() {
        assert_eq!(batch.bank_words_lane(bank, lane), scalar.bank_words(bank), "{what}: bank {bank}");
    }
    assert_eq!(
        batch.parity_error_count_lane(lane),
        scalar.parity_error_count(),
        "{what}: parity counters"
    );
}

/// A batch reused across forks — stepped with faults attached, then
/// reloaded — starts every lane from exactly the snapshotted scalar state,
/// as a freshly built `from_scalar` broadcast does, and both keep tracking
/// the scalar golden run afterwards.
#[test]
fn load_state_after_any_golden_prefix_equals_from_scalar() {
    let base = hardened_base();
    let sites = enumerate_sites(base.flat());
    let mut golden = base.clone();
    let mut reused = BatchSim::new(base.flat().clone(), 3);
    for steps in 0..24 {
        reused.load_state(&golden.snapshot());
        let fresh = BatchSim::from_scalar(&golden, 3);
        for lane in 0..3 {
            let what = format!("after {steps} golden steps, lane {lane}");
            assert_lane_matches(&reused, lane, &golden, &format!("reloaded {what}"));
            assert_lane_matches(&fresh, lane, &golden, &format!("broadcast {what}"));
        }
        let mut ahead = golden.clone();
        for _ in 0..3 {
            reused.step();
            ahead.step();
        }
        for lane in 0..3 {
            assert_lane_matches(&reused, lane, &ahead, &format!("3 steps past {steps}, lane {lane}"));
        }
        // Leave the reused batch dirty with faults before the next reload.
        let (reg, _) = &sites.regs[steps % sites.regs.len()];
        reused.attach_lane_faults(&[vec![FaultSpec::stuck_at(reg.clone(), 0, true)]]);
        reused.step();
        golden.step();
    }
}

/// Forking is exact: for one fault of each kind firing at cycle `c`, a
/// lane loaded from the golden snapshot after any `s < c` steps and
/// attached with the fault's cycle shifted by `-s` is bit-identical at
/// every later cycle to the unforked run attached at cycle 0, and its
/// fault-free neighbour lane to the golden run. A stuck-at is live from
/// attach, so it forks only at `s = 0`.
#[test]
fn forked_lanes_match_the_unforked_run_for_every_fault_kind() {
    const CYCLE: u64 = 9;
    const STEPS: u64 = 30;
    let base = hardened_base();
    let sites = enumerate_sites(base.flat());
    let (reg, width) = sites.regs.iter().find(|(n, _)| n.ends_with("_acc")).expect("acc reg");
    let (bank, words, bank_width) = &sites.banks[0];
    let faults = [
        FaultSpec::flip(reg.clone(), width - 1, CYCLE),
        FaultSpec::bank_flip(bank.clone(), words / 3, bank_width / 2, CYCLE),
        FaultSpec::drop_transition(sites.ctrl_states[0].clone(), CYCLE),
        FaultSpec::stuck_at(reg.clone(), 0, true),
    ];
    let trace = |sim: &mut Interpreter| -> Vec<Interpreter> {
        (0..=STEPS)
            .map(|t| {
                if t > 0 {
                    sim.step();
                }
                sim.clone()
            })
            .collect()
    };
    let golden = trace(&mut base.clone());
    let mut batch = BatchSim::new(base.flat().clone(), 2);
    for fault in &faults {
        let mut unforked = base.clone();
        unforked.attach_faults(std::slice::from_ref(fault)).unwrap();
        let reference = trace(&mut unforked);
        let forks = if fault.cycle().is_some() { 0..CYCLE } else { 0..1 };
        for s in forks {
            batch.load_state(&golden[s as usize].snapshot());
            let attach = batch.attach_lane_faults(&[vec![], vec![fault.shifted(s)]]);
            assert!(attach.iter().all(Result::is_ok), "{fault}: {attach:?}");
            for t in s..=STEPS {
                if t > s {
                    batch.step();
                }
                let what = format!("{fault} forked at {s}, cycle {t}");
                assert_lane_matches(&batch, 0, &golden[t as usize], &format!("clean lane, {what}"));
                assert_lane_matches(&batch, 1, &reference[t as usize], &what);
            }
        }
    }
}

/// Fault campaigns fork each lane group from the golden run, so the report
/// bytes of forked batched runs must equal the unforked scalar run's, for
/// both fault selections (the sweep also past the end of the round), with and without hardening and the optimizer, at
/// several lane widths and chunk sizes (one fault per chunk, one group per
/// chunk, and the default geometry).
#[test]
fn forked_campaign_reports_match_scalar_bytes_across_geometry() {
    type Setup = fn(&CampaignConfig) -> Result<FaultCampaign, CampaignError>;
    let sampled: Setup = FaultCampaign::gemm;
    let sweep: Setup = |cfg| FaultCampaign::accumulator_sweep(cfg, 2, 3);
    // Flips scheduled past the end of the round never fire; their groups
    // fork from the last step before readback.
    let late_sweep: Setup = |cfg| FaultCampaign::accumulator_sweep(cfg, 1, 1000);
    let run = |setup: Setup, cfg: &CampaignConfig, chunk_size: Option<usize>| {
        let campaign = setup(cfg).expect("campaign sets up");
        let durability = DurabilityOptions {
            chunk_size,
            ..DurabilityOptions::default()
        };
        let (report, _) = journal::execute(&campaign, &durability).expect("campaign runs");
        serde_json::to_string(&report).expect("report serializes")
    };
    for (name, setup) in [("sampled", sampled), ("sweep", sweep), ("late sweep", late_sweep)] {
        for hardening in [Hardening::none(), Hardening::full()] {
            for opt in [false, true] {
                let cfg = CampaignConfig {
                    faults: 20,
                    seed: 13,
                    hardening,
                    opt,
                    ..CampaignConfig::default()
                };
                let scalar = run(setup, &cfg, None);
                for lanes in [2, 8, 64] {
                    for chunk_size in [Some(1), Some(lanes), None] {
                        assert_eq!(
                            run(setup, &CampaignConfig { lanes, ..cfg }, chunk_size),
                            scalar,
                            "{name} {hardening} opt={opt} lanes={lanes} chunk={chunk_size:?}"
                        );
                    }
                }
            }
        }
    }
}
