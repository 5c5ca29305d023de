//! Generation's two stages agree: `plan` (what the cost and cycle models
//! read) equals what `generate` (plan + netlist build) reports, error for
//! error, and the wired array module exposes exactly the plan's port
//! catalog, in order.

use tensorlib::cost::{asic_cost, fpga_cost};
use tensorlib::dataflow::dse::{design_space, DseConfig};
use tensorlib::dataflow::Dataflow;
use tensorlib::hw::design::{generate, plan, HwConfig};
use tensorlib::hw::fault::Hardening;
use tensorlib::hw::netlist::Dir;
use tensorlib::ir::{workloads, Kernel};
use tensorlib::sim::journal::fnv1a64;
use tensorlib::{AcceleratorDesign, Activity, ArrayConfig, DesignPlan, FpgaDevice};

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
    let ports = d.array_ports();
    let planned: Vec<(&str, u32, Dir)> = ports
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

/// Everything a plan exposes, one line per fact: the materialized port list
/// in catalog order, the bank templates, each binding's bank and instance
/// name, the tree census, the resource summary, and the bit patterns of
/// both cost models.
fn render_plan(p: &DesignPlan, out: &mut String) {
    use std::fmt::Write;
    let ports = p.array_ports();
    for port in ports.iter() {
        let _ = writeln!(
            out,
            "port {} {} {:?} {} {}",
            port.name, port.tensor, port.kind, port.width, port.fanout
        );
    }
    for bank in p.mem_banks() {
        let _ = writeln!(out, "bank {bank:?}");
    }
    for b in p.bank_bindings() {
        let _ = writeln!(out, "binding {} {}", b.bank, b.instance(&ports[b.port].name));
    }
    for t in &p.array_catalog().trees {
        let _ = writeln!(out, "tree {} {} {}", t.name, t.inputs, t.width);
    }
    let _ = writeln!(out, "summary {:?}", p.summary());
    let a = asic_cost(p, &Activity::default());
    let _ = writeln!(
        out,
        "asic {:x} {:x} {:x} {:x} {:x} {:x} {:x} {:x}",
        a.area_mm2.to_bits(),
        a.power_mw.to_bits(),
        a.compute_mw.to_bits(),
        a.register_mw.to_bits(),
        a.sram_mw.to_bits(),
        a.wire_mw.to_bits(),
        a.control_mw.to_bits(),
        a.leakage_mw.to_bits()
    );
    let f = fpga_cost(p, &FpgaDevice::vu9p(), false);
    let _ = writeln!(
        out,
        "fpga {} {} {} {:x} {:x} {:x} {:x} {:x}",
        f.luts,
        f.dsps,
        f.brams,
        f.lut_util.to_bits(),
        f.dsp_util.to_bits(),
        f.bram_util.to_bits(),
        f.freq_mhz.to_bits(),
        f.peak_gops.to_bits()
    );
}

/// FNV-1a digests of [`render_plan`] over every `stride`-th candidate of
/// each Fig. 5 kernel on a `rows × cols` array, unhardened then fully
/// hardened, one digest per kernel.
fn plan_digests(rows: usize, cols: usize, stride: usize) -> Vec<u64> {
    fig5_kernels()
        .iter()
        .map(|kernel| {
            let candidates = design_space(kernel, &DseConfig::default());
            let mut text = String::new();
            for cfg in configs(rows, cols) {
                for df in candidates.iter().step_by(stride) {
                    match plan(df, &cfg) {
                        Ok(p) => render_plan(&p, &mut text),
                        Err(e) => text.push_str(&format!("error {e:?}\n")),
                    }
                }
            }
            fnv1a64(text.as_bytes())
        })
        .collect()
}

/// Pins every byte a plan exposes to its consumers. The digests were
/// recorded before plans stored their ports per group, so a change to how
/// the catalog, the bank plan, the census or the cost models iterate ports
/// (including the order of the cost models' floating-point sums) that
/// moves any name, count or cost bit fails here.
#[test]
fn plan_bytes_are_pinned() {
    // Kernels in `fig5_kernels` order.
    let pinned: [(usize, usize, usize, [u64; 6]); 3] = [
        (
            4,
            4,
            1,
            [
                0xb9560bbbf4ab0461,
                0xfef302ce4b6b23a3,
                0x65216d72676d7026,
                0xd109b9c577cd9583,
                0x19285a2a3f533cb7,
                0xc10b438f84193859,
            ],
        ),
        (
            3,
            5,
            1,
            [
                0xe686bf5ad5702d55,
                0x53bffc3b887ba0a8,
                0x202ffa5830722f1f,
                0x0e067254cb22436a,
                0x00c3ef8135dc27ab,
                0xaf1abbda098572f5,
            ],
        ),
        (
            16,
            16,
            16,
            [
                0x1e77f86a91cf1094,
                0x2e10f13b8659c8e6,
                0x94a5ef9346185463,
                0x723fcaff0d7bebee,
                0xaaf15ee474b76e5a,
                0x7e50ccda116d9fab,
            ],
        ),
    ];
    for (rows, cols, stride, want) in pinned {
        let got = plan_digests(rows, cols, stride);
        assert_eq!(got, want, "plan digests on {rows}x{cols} (every {stride})");
    }
}
