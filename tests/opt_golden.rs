//! Golden size pins for the optimizer over the committed reference designs.
//!
//! For each of the six Figure 3 PE templates and the 4×4 output-stationary
//! GEMM design, this pins the pre/post net counts, the flat compiled
//! bytecode op counts, and the worst combinational depth. Any optimizer or
//! generator change that moves these numbers must update the table — the
//! diff review then *is* the size/depth regression review.
//!
//! Two byte pins sit beside the size pins: FNV-1a digests of the optimized
//! netlists' text and of the unoptimized Yosys-JSON, over 300 fuzz netlists
//! and the six Fig. 5 designs. A change to the optimizer's or the JSON
//! writer's internals that is meant to be output-neutral must leave both
//! digests where they are.

use tensorlib::hw::fuzz::{gen_netlist, NetlistFuzzConfig};
use tensorlib::hw::interp::{elaborate, elaborate_design, flat_op_count};
use tensorlib::hw::opt::{netlist_stats, optimize_netlist, OptOptions};
use tensorlib::hw::pe::{build_pe, PeIoKind, PeSpec, PeTensorSpec};
use tensorlib::hw::text::{emit_text, NetlistDoc};
use tensorlib::hw::yosys::emit_yosys;
use tensorlib::ir::DataType;
use tensorlib::sim::journal::fnv1a64;
use tensorlib_cli::resolve_workload;
use tensorlib_dataflow::dse::{find_named, DseConfig};
use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib_hw::design::{generate, HwConfig};
use tensorlib_hw::fault::Hardening;
use tensorlib_hw::ArrayConfig;
use tensorlib_ir::workloads;

/// (pre nets, post nets, pre depth, post depth, pre flat ops, post flat ops).
type Pin = (usize, usize, u32, u32, usize, usize);

fn pe_spec(kinds: &[(&str, PeIoKind)]) -> PeSpec {
    PeSpec {
        name: "pe".into(),
        datatype: DataType::Int16,
        tensors: kinds
            .iter()
            .map(|(n, k)| PeTensorSpec {
                tensor: n.to_string(),
                kind: *k,
                delay: 1,
            })
            .collect(),
    }
}

fn measure(modules: Vec<tensorlib::hw::netlist::Module>, top: &str) -> Pin {
    let pre = netlist_stats(&modules);
    let pre_ops = flat_op_count(&elaborate(&modules, &[], top).expect("pre elaborates"));
    let (optimized, stats) = optimize_netlist(&modules, top, &OptOptions::default());
    let post = netlist_stats(&optimized);
    let post_ops = flat_op_count(&elaborate(&optimized, &[], top).expect("post elaborates"));
    assert_eq!(stats.pre, pre, "optimize_netlist pre census disagrees");
    assert_eq!(stats.post, post, "optimize_netlist post census disagrees");
    (
        pre.nets,
        post.nets,
        pre.critical_path_depth,
        post.critical_path_depth,
        pre_ops,
        post_ops,
    )
}

#[test]
fn figure3_pe_templates_pin_their_optimized_sizes() {
    type Template<'a> = (&'a str, &'a [(&'a str, PeIoKind)], Pin);
    let templates: &[Template] = &[
        (
            "systolic_in",
            &[("a", PeIoKind::SystolicIn), ("c", PeIoKind::ReduceOut)],
            (6, 6, 0, 0, 3, 3),
        ),
        (
            "systolic_out",
            &[("a", PeIoKind::DirectIn), ("c", PeIoKind::SystolicOut)],
            (6, 6, 1, 1, 5, 5),
        ),
        (
            "stationary_in",
            &[("a", PeIoKind::StationaryIn), ("c", PeIoKind::ReduceOut)],
            (10, 10, 2, 2, 14, 14),
        ),
        (
            "stationary_out",
            &[
                ("a", PeIoKind::DirectIn),
                ("b", PeIoKind::DirectIn),
                ("c", PeIoKind::StationaryOut),
            ],
            (10, 10, 3, 3, 13, 13),
        ),
        (
            "direct_in",
            &[
                ("a", PeIoKind::DirectIn),
                ("b", PeIoKind::DirectIn),
                ("c", PeIoKind::ReduceOut),
            ],
            (5, 5, 1, 1, 4, 4),
        ),
        (
            "reduce_out",
            &[("a", PeIoKind::DirectIn), ("c", PeIoKind::ReduceOut)],
            (4, 4, 0, 0, 2, 2),
        ),
    ];
    let mut moved = Vec::new();
    for (name, kinds, expected) in templates {
        let m = build_pe(&pe_spec(kinds));
        m.validate().expect("PE validates");
        let got = measure(vec![m], "pe");
        if got != *expected {
            moved.push(format!("{name}: expected {expected:?}, got {got:?}"));
        }
    }
    assert!(moved.is_empty(), "size pins moved:\n{}", moved.join("\n"));
}

#[test]
fn os_gemm_4x4_pins_its_optimized_size() {
    let gemm = workloads::gemm(4, 4, 4);
    let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
    let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
    let design = generate(
        &df,
        &HwConfig {
            array: ArrayConfig::square(4),
            ..HwConfig::default()
        },
    )
    .unwrap();
    let mut opt_design = design.clone();
    let stats = opt_design.optimize(&OptOptions::default());
    let pre = netlist_stats(design.modules());
    let post = netlist_stats(opt_design.modules());
    assert_eq!(stats.pre, pre, "optimize pre census disagrees");
    assert_eq!(stats.post, post, "optimize post census disagrees");
    let pre_ops = flat_op_count(&elaborate_design(&design, design.top()).unwrap());
    let post_ops =
        flat_op_count(&elaborate_design(&opt_design, opt_design.top()).unwrap());
    let got: Pin = (
        pre.nets,
        post.nets,
        pre.critical_path_depth,
        post.critical_path_depth,
        pre_ops,
        post_ops,
    );
    assert_eq!(got, (175, 180, 5, 5, 343, 314), "4x4 OS GEMM size pin moved");
}

/// The TMR-hardened 4×4 GEMM — the fault-campaign reference — is where the
/// pipeline earns its keep: the controller is replicated three times, so the
/// sharing the optimizer finds in one replica lands three times over. This
/// is the design the performance gate's `opt` section holds to the ≥10%
/// op-reduction bar (the plain design above is already tight: the generator
/// emits no redundant PE logic, and 8.5% is all the controller has to give).
#[test]
fn tmr_hardened_gemm_clears_the_ten_percent_bar() {
    let gemm = workloads::gemm(4, 4, 4);
    let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
    let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
    let design = generate(
        &df,
        &HwConfig {
            array: ArrayConfig::square(4),
            hardening: Hardening {
                tmr_ctrl: true,
                ..Hardening::none()
            },
            ..HwConfig::default()
        },
    )
    .unwrap();
    let mut opt_design = design.clone();
    let stats = opt_design.optimize(&OptOptions::default());
    let pre_ops = flat_op_count(&elaborate_design(&design, design.top()).unwrap());
    let post_ops =
        flat_op_count(&elaborate_design(&opt_design, opt_design.top()).unwrap());
    let got: Pin = (
        stats.pre.nets,
        stats.post.nets,
        stats.pre.critical_path_depth,
        stats.post.critical_path_depth,
        pre_ops,
        post_ops,
    );
    assert_eq!(got, (202, 207, 7, 5, 601, 514), "TMR GEMM size pin moved");
    assert!(
        (post_ops as f64) <= 0.9 * pre_ops as f64,
        "op reduction below 10% on the hardened reference: {pre_ops} -> {post_ops}"
    );
}

/// The byte-pin corpus: 300 fuzz netlists (default generator config) and
/// the six Fig. 5 designs on a 4×4 array, unhardened and hardened with
/// TMR, parity and ABFT. Each entry is an interchange document.
fn byte_pin_corpus() -> Vec<NetlistDoc> {
    let cfg = NetlistFuzzConfig::default();
    let mut docs: Vec<NetlistDoc> = (0..300)
        .map(|seed| {
            let (modules, top) = gen_netlist(seed, &cfg);
            NetlistDoc::from_modules(&modules, &top)
        })
        .collect();
    let fig5 = [
        ("gemm", "MNK-SST"),
        ("batched-gemv", "MNK-UTS"),
        ("conv2d", "KCX-SST"),
        ("depthwise", "XYP-MMM"),
        ("mttkrp", "IKL-UBBB"),
        ("ttmc", "IJK-BBBU"),
    ];
    for harden in ["none", "tmr,parity,abft"] {
        for (workload, dataflow) in fig5 {
            let kernel = resolve_workload(workload).expect("Fig. 5 workload");
            let df = find_named(&kernel, dataflow, &DseConfig::default()).expect("Fig. 5 dataflow");
            let cfg = HwConfig {
                array: ArrayConfig::square(4),
                hardening: Hardening::parse(harden).expect("hardening list"),
                ..HwConfig::default()
            };
            let design = generate(&df, &cfg).expect("Fig. 5 design generates");
            docs.push(NetlistDoc::from_design(&design));
        }
    }
    docs
}

/// FNV-1a over the concatenation of `render(doc)` for every document.
fn corpus_digest(docs: &[NetlistDoc], render: impl Fn(&NetlistDoc) -> String) -> u64 {
    let text: String = docs.iter().map(render).collect();
    fnv1a64(text.as_bytes())
}

/// Pins the optimizer's output bytes: the textual emission of every
/// optimized corpus document. The optimizer's candidate order, hoist
/// choices and `cse_<n>` naming all show up in these bytes, so a rewrite of
/// its internals that changes any decision moves the digest.
#[test]
fn optimizer_output_bytes_are_pinned() {
    let docs = byte_pin_corpus();
    let digest = corpus_digest(&docs, |doc| {
        let (modules, _) = optimize_netlist(&doc.modules, &doc.top, &OptOptions::default());
        emit_text(&NetlistDoc {
            modules,
            banks: doc.banks.clone(),
            top: doc.top.clone(),
        })
    });
    assert_eq!(digest, 0x5c01_b58f_5183_6c74, "optimizer output bytes moved: {digest:#018x}");
}

/// Pins the Yosys-JSON writer's output bytes over the same corpus,
/// unoptimized, as the fuzz round-trip oracle emits it.
#[test]
fn yosys_json_bytes_are_pinned() {
    let docs = byte_pin_corpus();
    let digest = corpus_digest(&docs, emit_yosys);
    assert_eq!(digest, 0xf898_377f_f366_1c37, "Yosys-JSON bytes moved: {digest:#018x}");
}
