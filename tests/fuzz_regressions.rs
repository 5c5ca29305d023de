//! Regression pins from the differential fuzzing harness.
//!
//! The first tests are shrunk findings: minimal netlists distilled from real
//! generator bugs (the compound-operand part-select emission bug fixed in
//! this harness's PR), written in the exact form `fuzz::rust_repro` emits so
//! future findings can be pasted here verbatim. The rest assert the
//! harness's own guarantees: clean seed windows stay clean, injected
//! mismatches shrink to small repros, and reports are byte-identical for
//! any worker count.

use tensorlib::hw::fuzz::{
    check_netlist, check_opt_netlist, gen_netlist, shrink_netlist, NetlistFailure,
    NetlistFailureKind, NetlistFuzzConfig,
};
use tensorlib::hw::netlist::{Expr, Module};
use tensorlib::hw::opt::{optimize_netlist, OptOptions};
use tensorlib::hw::verilog::emit_module;
use tensorlib::sim::verify::{run_verify_durable, VerifyConfig};
use tensorlib::sim::DurabilityOptions;

/// Shrunk repro of the narrowing-resize emission bug: `(a + b)[3:0]` is not
/// legal Verilog, so the emitter must hoist the sum into a named wire. The
/// buggy emitter produced the illegal part-select; both engines always
/// agreed, making this exactly the class of bug only the emission lint
/// catches.
#[test]
fn fuzz_regression_compound_resize_narrow() {
    let mut m = Module::new("shrunk_resize");
    let a = m.input("a", 8);
    let b = m.input("b", 8);
    let y = m.output("y", 4);
    m.assign(y, Expr::net(a).add(Expr::net(b)).resize(4));
    let v = emit_module(&m);
    assert!(!v.contains(")["), "illegal part-select re-emerged:\n{v}");
    tensorlib_hw::fuzz::assert_engines_agree(&[m], "shrunk_resize", 0, 16);
}

/// Shrunk repro of the sign-extend variant: widening a mux needs the mux
/// result in a named wire before its sign bit can be replicated.
#[test]
fn fuzz_regression_compound_sign_extend_widen() {
    let mut m = Module::new("shrunk_sext");
    let s = m.input("s", 1);
    let a = m.input("a", 4);
    let b = m.input("b", 4);
    let y = m.output("y", 8);
    m.assign(y, Expr::mux(Expr::net(s), Expr::net(a), Expr::net(b)).sext(8));
    let v = emit_module(&m);
    assert!(!v.contains(")["), "illegal part-select re-emerged:\n{v}");
    tensorlib_hw::fuzz::assert_engines_agree(&[m], "shrunk_sext", 0, 16);
}

/// The shrunk part-select repro, pushed through the *full* optimizer
/// pipeline: the optimized form must stay bit-identical to the original
/// under the lock-step oracle, must still emit legal Verilog, and — because
/// `add(…).resize(…)` of two inputs is irreducible — must keep the repro's
/// shape rather than folding it away. Pins the interaction between shrunk
/// findings and the optimizer so a rewrite bug can never "fix" a repro by
/// deleting it.
#[test]
fn shrunk_repro_survives_the_full_opt_pipeline() {
    let mut m = Module::new("shrunk_resize");
    let a = m.input("a", 8);
    let b = m.input("b", 8);
    let y = m.output("y", 4);
    m.assign(y, Expr::net(a).add(Expr::net(b)).resize(4));
    let modules = vec![m];
    check_opt_netlist(&modules, "shrunk_resize", 7, 16, 2)
        .expect("optimizer diverged on the pinned repro");
    let (optimized, stats) =
        optimize_netlist(&modules, "shrunk_resize", &OptOptions::default());
    assert_eq!(stats.post.nets, 3, "repro shape changed: {:?}", optimized[0]);
    let v = emit_module(&optimized[0]);
    assert!(!v.contains(")["), "optimizer re-introduced the part-select:\n{v}");
    tensorlib_hw::fuzz::assert_engines_agree(&optimized, "shrunk_resize", 0, 16);
}

/// The module-level driver census deliberately cannot see instance-output
/// double drives (child port directions live in the child): this module
/// passes `Module::validate`, and the design-level pass is what rejects the
/// pattern (covered by `AcceleratorDesign::validate` unit tests). Pinned
/// here because a dead loop in the module census used to *look* like it
/// handled this case.
#[test]
fn instance_output_double_drive_is_beyond_the_module_census() {
    let mut child = Module::new("dd_child");
    let ci = child.input("ci", 4);
    let co = child.output("co", 4);
    child.assign(co, Expr::net(ci));

    let mut parent = Module::new("dd_parent");
    let x = parent.input("x", 4);
    let y = parent.output("y", 4);
    parent.instance("dd_child", "u0", vec![("ci".into(), x), ("co".into(), y)]);
    parent.assign(y, Expr::lit(0, 4));

    child.validate().unwrap();
    parent
        .validate()
        .expect("module census cannot resolve child port directions");
}

/// A window of generator seeds stays clean through every oracle. Any
/// failure here is a real engine/emitter/validator disagreement: shrink it
/// with `fuzz::shrink_netlist`, render it with `fuzz::rust_repro`, and pin
/// it above.
#[test]
fn netlist_seed_window_is_clean() {
    let cfg = NetlistFuzzConfig::default();
    for seed in 0..150 {
        let (modules, top) = gen_netlist(seed, &cfg);
        check_netlist(&modules, &top, seed, cfg.cycles, None)
            .unwrap_or_else(|f| panic!("seed {seed} found a bug: {f:?}"));
    }
}

/// The acceptance bar for the shrinker: an injected engine mismatch must
/// minimize to a repro of at most 10 nets.
#[test]
fn injected_mismatch_shrinks_to_at_most_ten_nets() {
    let cfg = NetlistFuzzConfig::default();
    let mut shrunk_sizes = Vec::new();
    for seed in 0..64 {
        let (modules, top) = gen_netlist(seed, &cfg);
        if check_netlist(&modules, &top, seed, cfg.cycles, Some(0)).is_err() {
            let (shrunk, _) = shrink_netlist(&modules, &top, |mods, t| {
                matches!(
                    check_netlist(mods, t, seed, cfg.cycles, Some(0)),
                    Err(NetlistFailure {
                        kind: NetlistFailureKind::Mismatch,
                        ..
                    })
                )
            });
            shrunk_sizes.push(shrunk.iter().map(|m| m.nets().len()).sum::<usize>());
            if shrunk_sizes.len() >= 3 {
                break;
            }
        }
    }
    assert!(
        !shrunk_sizes.is_empty(),
        "no seed in the window propagated the injected input flip"
    );
    for size in shrunk_sizes {
        assert!(size <= 10, "shrunk repro kept {size} nets (bar is 10)");
    }
}

/// Same seeds, different worker counts, identical bytes — the property the
/// CI smoke gate relies on when it greps one worker-count's report.
#[test]
fn fuzz_reports_are_byte_identical_across_worker_counts() {
    let mut cfg = VerifyConfig {
        seed_start: 0,
        seeds: 15,
        workers: 1,
        cycles: 8,
        lanes: 1,
        opt: true,
    };
    let report = |cfg: &VerifyConfig| {
        let (report, _) =
            run_verify_durable(cfg, true, true, &DurabilityOptions::default()).unwrap();
        serde_json::to_string_pretty(&report).unwrap()
    };
    let one = report(&cfg);
    cfg.workers = 4;
    let four = report(&cfg);
    assert_eq!(one, four);
    assert!(one.contains("\"total_findings\": 0"), "{one}");
}
