//! The fuzz oracles share one [`Reference`] per netlist, and that sharing
//! must not change which oracle reports a failure or what it says.
//!
//! Two hand-built netlists probe the order: one fails validation, the other
//! validates but does not elaborate (it instantiates a missing child). Each
//! public `check_*` wrapper and the verification chain ([`Reference::check_all`],
//! which `sim::verify` runs per seed and per shrink candidate) must report
//! the kind and detail text pinned below, recorded before the oracles
//! shared a reference. The perturbed-engine shrink repro is pinned by the
//! FNV-1a digest of its `rust_repro` text, recorded the same way.

use tensorlib::hw::fuzz::{
    check_batch_netlist, check_netlist, check_opt_netlist, check_text_roundtrip,
    check_yosys_roundtrip, gen_netlist, rust_repro, shrink_netlist, NetlistFailure,
    NetlistFailureKind, NetlistFuzzConfig, Reference,
};
use tensorlib::hw::netlist::{Expr, Module};
use tensorlib::sim::journal::fnv1a64;

const SEED: u64 = 3;
const CYCLES: u64 = 8;
const LANES: usize = 4;

/// `y` is 8 bits but driven by a 4-bit sum: `Module::validate` rejects it.
fn fails_validation() -> Vec<Module> {
    let mut m = Module::new("t");
    let a = m.input("a", 4);
    let y = m.output("y", 8);
    m.assign(y, Expr::net(a).add(Expr::lit(1, 4)));
    vec![m]
}

/// Valid on its own, but its only instance names a module that is absent.
fn fails_elaboration() -> Vec<Module> {
    let mut m = Module::new("t");
    let a = m.input("a", 4);
    let y = m.output("y", 4);
    m.instance(
        "missing_child",
        "u0",
        vec![("ci".into(), a), ("co".into(), y)],
    );
    vec![m]
}

fn outcome(r: Result<(), NetlistFailure>) -> String {
    match r {
        Ok(()) => "ok".to_string(),
        Err(f) => format!("{}: {}", f.kind.label(), f.detail),
    }
}

/// `(oracle, outcome)` through every public wrapper and the chain, with
/// and without the opt oracle.
fn outcomes(m: &[Module]) -> Vec<(&'static str, String)> {
    vec![
        (
            "check_netlist",
            outcome(check_netlist(m, "t", SEED, CYCLES, None)),
        ),
        (
            "check_batch",
            outcome(check_batch_netlist(m, "t", SEED, CYCLES, LANES)),
        ),
        (
            "check_opt",
            outcome(check_opt_netlist(m, "t", SEED, CYCLES, LANES)),
        ),
        ("text", outcome(check_text_roundtrip(m, "t"))),
        ("yosys", outcome(check_yosys_roundtrip(m, "t"))),
        (
            "chain",
            outcome(Reference::new(m, "t").check_all(SEED, CYCLES, LANES, true)),
        ),
        (
            "chain_no_opt",
            outcome(Reference::new(m, "t").check_all(SEED, CYCLES, LANES, false)),
        ),
    ]
}

#[test]
fn a_netlist_that_fails_validation_reports_as_before() {
    let width = "net \"y\" in module \"t\" is 8 bits but is driven by a 4-bit expression";
    let validate = format!("validate: {width}");
    let want = vec![
        ("check_netlist", validate.clone()),
        ("check_batch", "ok".to_string()),
        (
            "check_opt",
            format!("opt_mismatch: optimized module \"t\" fails validation: {width}"),
        ),
        ("text", "ok".to_string()),
        ("yosys", "ok".to_string()),
        ("chain", validate.clone()),
        ("chain_no_opt", validate),
    ];
    assert_eq!(outcomes(&fails_validation()), want);
}

#[test]
fn a_netlist_that_fails_elaboration_reports_as_before() {
    let elaborate = "elaborate: unknown module \"missing_child\"".to_string();
    let want: Vec<(&str, String)> = [
        "check_netlist",
        "check_batch",
        "check_opt",
        "text",
        "yosys",
        "chain",
        "chain_no_opt",
    ]
    .into_iter()
    .map(|oracle| (oracle, elaborate.clone()))
    .collect();
    assert_eq!(outcomes(&fails_elaboration()), want);
}

#[test]
fn the_chain_equals_the_wrappers_run_in_order() {
    let cfg = NetlistFuzzConfig::default();
    for seed in 0..12 {
        let (m, top) = gen_netlist(seed, &cfg);
        let wrappers = check_netlist(&m, &top, seed, cfg.cycles, None)
            .and_then(|()| check_batch_netlist(&m, &top, seed, cfg.cycles, LANES))
            .and_then(|()| check_opt_netlist(&m, &top, seed, cfg.cycles, LANES))
            .and_then(|()| check_text_roundtrip(&m, &top))
            .and_then(|()| check_yosys_roundtrip(&m, &top));
        let chain = Reference::new(&m, &top).check_all(seed, cfg.cycles, LANES, true);
        assert_eq!(chain, wrappers, "seed {seed}");
    }
}

#[test]
fn the_perturbed_engine_shrink_repro_is_pinned() {
    let cfg = NetlistFuzzConfig::default();
    let (seed, modules, top) = (0..64)
        .map(|seed| {
            let (modules, top) = gen_netlist(seed, &cfg);
            (seed, modules, top)
        })
        .find(|(seed, m, top)| check_netlist(m, top, *seed, cfg.cycles, Some(0)).is_err())
        .expect("some seed exposes the injected fault");
    let (shrunk, stop) = shrink_netlist(&modules, &top, |mods, t| {
        matches!(
            check_netlist(mods, t, seed, cfg.cycles, Some(0)),
            Err(NetlistFailure {
                kind: NetlistFailureKind::Mismatch,
                ..
            })
        )
    });
    let text = rust_repro(&shrunk, &stop, seed, cfg.cycles);
    assert_eq!(seed, 0);
    assert_eq!(fnv1a64(text.as_bytes()), 0x07db_5297_eeec_686a, "{text}");
}
