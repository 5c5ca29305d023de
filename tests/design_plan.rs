//! Generation's two stages agree: `plan` (what the cost and cycle models
//! read) equals what `generate` (plan + netlist build) reports, error for
//! error, and the wired array module exposes exactly the plan's port
//! catalog, in order.

use tensorlib::dataflow::dse::{design_space, DseConfig};
use tensorlib::dataflow::Dataflow;
use tensorlib::hw::design::{generate, plan, HwConfig};
use tensorlib::hw::fault::Hardening;
use tensorlib::hw::netlist::Dir;
use tensorlib::ir::{workloads, Kernel};
use tensorlib::{AcceleratorDesign, ArrayConfig, DesignPlan};

/// The six Fig. 5 kernels at small extents.
fn fig5_kernels() -> Vec<Kernel> {
    vec![
        workloads::gemm(8, 8, 8),
        workloads::batched_gemv(8, 8, 8),
        workloads::conv2d(4, 4, 6, 6, 3, 3),
        workloads::depthwise_conv(4, 6, 6, 3, 3),
        workloads::mttkrp(4, 4, 4, 4),
        workloads::ttmc(4, 4, 4, 4, 4),
    ]
}

fn configs(rows: usize, cols: usize) -> [HwConfig; 2] {
    [Hardening::none(), Hardening::full()].map(|hardening| HwConfig {
        array: ArrayConfig { rows, cols },
        hardening,
        ..HwConfig::default()
    })
}

/// Every field the scorers read, plus the memory plan, must survive `build`.
fn assert_plan_matches(p: &DesignPlan, d: &AcceleratorDesign, what: &str) {
    assert_eq!(p.name(), d.name(), "{what}: name");
    assert_eq!(p.summary(), d.summary(), "{what}: summary");
    assert_eq!(p.array_ports(), d.array_ports(), "{what}: ports");
    assert_eq!(p.tiling(), d.tiling(), "{what}: tiling");
    assert_eq!(p.phases(), d.phases(), "{what}: phases");
    assert_eq!(
        p.bank_bindings(),
        d.bank_bindings(),
        "{what}: bank bindings"
    );
    assert_eq!(p.mem_banks(), d.mem_banks(), "{what}: bank templates");
}

/// The array module's data ports (everything but the control inputs) are
/// the catalog's, in order, with matching widths and directions; the tree
/// modules are the catalog's tree census.
fn assert_array_matches_catalog(d: &AcceleratorDesign, what: &str) {
    let array = d
        .module(&format!("{}_array", d.name()))
        .unwrap_or_else(|| panic!("{what}: no array module"));
    let control = ["en", "load_en", "phase", "swap", "drain_en"];
    let wired: Vec<(&str, u32, Dir)> = array
        .ports()
        .iter()
        .map(|&(id, dir)| (array.nets()[id].name.as_str(), array.nets()[id].width, dir))
        .filter(|(name, _, _)| !control.contains(name))
        .collect();
    let planned: Vec<(&str, u32, Dir)> = d
        .array_ports()
        .iter()
        .map(|p| {
            let dir = if p.kind.is_input() {
                Dir::Input
            } else {
                Dir::Output
            };
            (p.name.as_str(), p.width, dir)
        })
        .collect();
    assert_eq!(
        wired, planned,
        "{what}: array ports differ from the catalog"
    );
    let catalog = d.array_catalog();
    for tree in &catalog.trees {
        assert!(
            d.module(&tree.name).is_some(),
            "{what}: missing {}",
            tree.name
        );
    }
    let tree_instances = array
        .instances()
        .iter()
        .filter(|i| catalog.trees.iter().any(|t| t.name == i.module))
        .count();
    let tree_ports = d
        .array_ports()
        .iter()
        .filter(|p| p.kind == tensorlib::hw::array::PortKind::ReduceSum)
        .count();
    assert_eq!(tree_instances, tree_ports, "{what}: one tree per sum port");
}

fn check(df: &Dataflow, cfg: &HwConfig) {
    let what = format!(
        "{} {} on {}x{} {}",
        df.kernel_name(),
        df.name(),
        cfg.array.rows,
        cfg.array.cols,
        cfg.hardening
    );
    match (plan(df, cfg), generate(df, cfg)) {
        (Ok(p), Ok(d)) => {
            assert_plan_matches(&p, &d, &what);
            assert_array_matches_catalog(&d, &what);
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: errors differ"),
        (p, d) => panic!(
            "{what}: plan {} but generate {}",
            if p.is_ok() { "succeeded" } else { "failed" },
            if d.is_ok() { "succeeded" } else { "failed" }
        ),
    }
}

/// Checks every `stride`-th candidate of each kernel on a `rows × cols`
/// array, unhardened and fully hardened.
fn sweep(rows: usize, cols: usize, stride: usize) {
    for kernel in fig5_kernels() {
        let candidates = design_space(&kernel, &DseConfig::default());
        assert!(!candidates.is_empty(), "{}", kernel.name());
        for cfg in configs(rows, cols) {
            for df in candidates.iter().step_by(stride) {
                check(df, &cfg);
            }
        }
    }
}

#[test]
fn plan_matches_generate_for_every_candidate_on_4x4() {
    sweep(4, 4, 1);
}

#[test]
fn plan_matches_generate_for_every_candidate_on_3x5() {
    sweep(3, 5, 1);
}

/// A 16×16 netlist is 16× a 4×4 one; the default suite samples every
/// 16th candidate.
#[test]
fn plan_matches_generate_on_16x16_sampled() {
    sweep(16, 16, 16);
}

/// The full 16×16 sweep (about two minutes unoptimized):
/// `cargo test --release --test design_plan -- --ignored`.
#[test]
#[ignore]
fn plan_matches_generate_for_every_candidate_on_16x16() {
    sweep(16, 16, 1);
}
