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
use tensorlib::hw::interp::{elaborate, elaborate_design, Interpreter};
use tensorlib::hw::netlist::{Expr, Module};
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
/// campaign stream) and per port and cycle either gives lanes their own
/// values or broadcasts one (sometimes with one lane perturbed), so wider
/// widths diversify the state space while rows still go uniform, diverge
/// and reconverge.
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

/// Steps `batch` and `refs` (one scalar reference per lane) `steps` times,
/// checking every lane against its reference after each step.
fn lockstep(batch: &mut BatchSim, refs: &mut [Interpreter], steps: usize, what: &str) {
    for t in 1..=steps {
        batch.step();
        for (lane, r) in refs.iter_mut().enumerate() {
            r.step();
            assert_lane_matches(batch, lane, r, &format!("{what}, step {t}, lane {lane}"));
        }
    }
}

/// One scalar reference per lane of a batch forked from `base`: lane `l`
/// carries `faults[l]` (no fault past the end of `faults`).
fn references(base: &Interpreter, lanes: usize, faults: &[Vec<FaultSpec>]) -> Vec<Interpreter> {
    (0..lanes)
        .map(|l| {
            let mut r = base.clone();
            if let Some(specs) = faults.get(l) {
                r.attach_faults(specs).expect("fault attaches");
            }
            r
        })
        .collect()
}

/// A batch of `lanes` lanes forked from `base` with `faults` attached per
/// lane, and its scalar references.
fn forked(
    base: &Interpreter,
    lanes: usize,
    faults: &[Vec<FaultSpec>],
) -> (BatchSim, Vec<Interpreter>) {
    let mut batch = BatchSim::from_scalar(base, lanes);
    let attach = batch.attach_lane_faults(faults);
    assert!(attach.iter().all(Result::is_ok), "{attach:?}");
    (batch, references(base, lanes, faults))
}

// The lane engine computes and stores rows that agree on every lane once,
// so each writer of a row must keep its state honest, and each reader of
// lanes must see a uniform row's current value. The tests below drive one
// writer each and check every lane against a scalar run at every step.

/// A flip of one TMR replica's controller state on one lane: the replica
/// row diverges, the voter out-votes it, and every accumulator stays equal
/// to the clean lanes' (the lane reconverges at the voter).
#[test]
fn tmr_voter_reconverges_a_one_lane_controller_flip() {
    let base = hardened_base();
    let sites = enumerate_sites(base.flat());
    let state = &sites.ctrl_states[1];
    let flip = FaultSpec::flip(state.clone(), 0, 3);
    let (mut batch, mut refs) = forked(&base, 4, &[vec![], vec![], vec![flip]]);
    let accs: Vec<&String> = (sites.regs.iter())
        .filter(|(n, _)| n.ends_with("_acc"))
        .map(|(n, _)| n)
        .collect();
    let mut diverged = 0;
    for t in 1..=40 {
        lockstep(&mut batch, &mut refs, 1, &format!("controller flip, cycle {t}"));
        if batch.peek_lane(state, 2) != batch.peek_lane(state, 0) {
            diverged += 1;
            for acc in &accs {
                assert_eq!(batch.peek_lane(acc, 2), batch.peek_lane(acc, 0), "{acc} at {t}");
            }
        }
    }
    assert!(diverged > 0, "the flip never reached the replica state");
}

/// A dropped transition on a register whose sample is the same on every
/// lane: the hold must land on its lane only, even though the staged sample
/// was computed once.
#[test]
fn dropped_transition_on_a_uniformly_sampled_register() {
    let base = hardened_base();
    let sites = enumerate_sites(base.flat());
    let (acc, _) = sites.regs.iter().find(|(n, _)| n.ends_with("_acc")).expect("acc reg");
    // The first cycle at which the accumulator changes on the golden run.
    let mut golden = base.clone();
    let cycle = (1..=40)
        .find(|_| {
            let before = golden.peek(acc);
            golden.step();
            golden.peek(acc) != before
        })
        .expect("the accumulator changes");
    let hold = FaultSpec::drop_transition(acc.clone(), cycle);
    let (mut batch, mut refs) = forked(&base, 3, &[vec![], vec![hold]]);
    lockstep(&mut batch, &mut refs, cycle as usize, "dropped transition");
    assert_ne!(batch.peek_lane(acc, 1), batch.peek_lane(acc, 0), "the hold took effect");
    lockstep(&mut batch, &mut refs, 10, "after the dropped transition");
}

/// A stuck-at attached right after `load_state`, when every row is uniform:
/// the force must show on its lane at once and survive every resettle.
#[test]
fn stuck_at_on_a_uniform_net_after_load_state() {
    let base = hardened_base();
    let sites = enumerate_sites(base.flat());
    let (acc, _) = sites.regs.iter().find(|(n, _)| n.ends_with("_acc")).expect("acc reg");
    let mut golden = base.clone();
    for _ in 0..12 {
        golden.step();
    }
    let mut batch = BatchSim::new(base.flat().clone(), 3);
    batch.load_state(&golden.snapshot());
    let forced = golden.peek(acc) & 1 == 0;
    let stuck = vec![vec![], vec![FaultSpec::stuck_at(acc.clone(), 0, forced)]];
    let attach = batch.attach_lane_faults(&stuck);
    assert!(attach.iter().all(Result::is_ok), "{attach:?}");
    let mut refs = references(&golden, 3, &stuck);
    for (lane, r) in refs.iter().enumerate() {
        assert_lane_matches(&batch, lane, r, &format!("on attach, lane {lane}"));
    }
    assert_ne!(batch.peek_lane(acc, 1), batch.peek_lane(acc, 0), "the force shows at once");
    lockstep(&mut batch, &mut refs, 20, "stuck-at");
}

/// A per-lane poke on one lane of a uniform input, then a broadcast poke
/// of the same input: the row diverges, then is uniform again.
#[test]
fn poke_lane_then_broadcast_poke() {
    let mut base = hardened_base();
    base.poke("start", 0);
    let (mut batch, mut refs) = forked(&base, 3, &[]);
    batch.poke_lane("start", 1, 1);
    refs[1].poke("start", 1);
    lockstep(&mut batch, &mut refs, 6, "one lane started");
    batch.poke("start", 1);
    for r in &mut refs {
        r.poke("start", 1);
    }
    lockstep(&mut batch, &mut refs, 20, "every lane started");
    batch.poke("start", 0);
    for r in &mut refs {
        r.poke("start", 0);
    }
    lockstep(&mut batch, &mut refs, 4, "start released");
}

/// One-lane bank-word flips read back through addresses that agree on every
/// lane: the bank commits once per bank, so parity must still be checked,
/// and counted, per lane.
#[test]
fn one_lane_bank_flips_are_caught_by_per_lane_parity() {
    let base = hardened_base();
    let sites = enumerate_sites(base.flat());
    let (bank, words, width) = &sites.banks[0];
    // Lane l > 0 flips one of the first words of either buffer.
    let half = words / 2;
    let faults: Vec<Vec<FaultSpec>> = (0..17)
        .map(|l: usize| match l {
            0 => vec![],
            _ => {
                let word = (l - 1) % 8 + if l > 8 { half } else { 0 };
                vec![FaultSpec::bank_flip(bank.clone(), word, width - 1, 1)]
            }
        })
        .collect();
    let (mut batch, mut refs) = forked(&base, faults.len(), &faults);
    lockstep(&mut batch, &mut refs, 40, "bank flips");
    assert_eq!(batch.parity_error_count_lane(0), 0);
    assert!(
        (1..faults.len()).any(|l| batch.parity_error_count_lane(l) > 0),
        "no flipped word was read back"
    );
}

/// A uniform row whose value changes between two lane loops that read it:
/// a register enable toggled on every lane at once while the register's
/// next value differs per lane. The enable is stored once, so each lane
/// loop that adds it to the diverged register must see its new value on
/// every lane.
#[test]
fn toggled_uniform_enable_under_per_lane_next_values() {
    let mut m = Module::new("toggle");
    let en = m.input("en", 1);
    let d = m.input("d", 8);
    let q = m.output("q", 8);
    let y = m.output("y", 8);
    m.reg(q, Expr::net(d), Some(Expr::net(en)), 0);
    m.assign(y, Expr::net(q).add(Expr::net(en).resize(8)));
    let flat = elaborate(&[m], &[], "toggle").expect("elaborates");
    let lanes = 4;
    let mut batch = BatchSim::new(flat.clone(), lanes);
    let mut refs: Vec<Interpreter> = (0..lanes).map(|_| Interpreter::new(flat.clone())).collect();
    for cycle in 0..12u64 {
        let en = (cycle / 2 + cycle) % 2;
        let d: Vec<u64> = (0..lanes as u64).map(|l| 16 * l + cycle).collect();
        batch.poke("en", en);
        batch.poke_lanes("d", &d);
        for (r, &d) in refs.iter_mut().zip(&d) {
            r.poke_many([("en", en), ("d", d)]);
        }
        for (lane, r) in refs.iter().enumerate() {
            assert_lane_matches(&batch, lane, r, &format!("cycle {cycle} en {en}, poked"));
        }
        batch.step();
        for (lane, r) in refs.iter_mut().enumerate() {
            r.step();
            assert_lane_matches(&batch, lane, r, &format!("cycle {cycle} en {en}, stepped"));
        }
    }
    assert_ne!(
        batch.peek_lane("q", 0),
        batch.peek_lane("q", 1),
        "the lanes diverged"
    );
}

/// A bank word that is uniform across lanes is flipped on one lane, then
/// read back once through addresses that agree on every lane (the bank
/// commits once for all lanes) and once through addresses that diverge
/// (each lane commits on its own, here because one lane never starts).
/// Both paths must read the flipped lane's word, and count its parity
/// error, on that lane only.
#[test]
fn one_lane_flip_of_a_uniform_bank_word_on_both_commit_paths() {
    let mut base = hardened_base();
    base.poke("start", 0);
    let sites = enumerate_sites(base.flat());
    let (bank, words, width) = &sites.banks[0];
    let flips: Vec<Vec<FaultSpec>> = [0, words / 2]
        .iter()
        .map(|&word| vec![FaultSpec::bank_flip(bank.clone(), word, width - 1, 1)])
        .collect();
    let faults = vec![vec![], flips[0].clone(), flips[1].clone()];
    for all_started in [true, false] {
        let (mut batch, mut refs) = forked(&base, 3, &faults);
        if all_started {
            batch.poke("start", 1);
        } else {
            batch.poke_lane("start", 0, 1);
            batch.poke_lane("start", 1, 1);
        }
        for r in &mut refs[..if all_started { 3 } else { 2 }] {
            r.poke("start", 1);
        }
        let what = format!("all lanes started: {all_started}");
        lockstep(&mut batch, &mut refs, 40, &what);
        assert_eq!(batch.parity_error_count_lane(0), 0, "{what}");
        assert!(
            batch.parity_error_count_lane(1) > 0,
            "{what}: the flipped word was never read"
        );
    }
}
