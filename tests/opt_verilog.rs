//! Verilog emission over *optimized* netlists.
//!
//! The emitter was written against generator output; the optimizer produces
//! shapes the generator never emits (hoisted `cse_*` wires, folded
//! literals, rebalanced trees). These tests hold the emitter to the same
//! two oracles on that new input distribution: the `)[` part-select lint
//! (compound operands must be hoisted into named wires) and a VCD round
//! trip whose transitions must match the unoptimized design exactly —
//! optimization preserves every named port, register, and watched net, so
//! the waveform is the equivalence witness a hardware reviewer actually
//! reads. The last test pins the `--opt=off` escape hatch: it must emit the
//! legacy netlist byte-for-byte.

use tensorlib::dataflow::dse::{find_named, DseConfig};
use tensorlib::dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib::hw::design::{generate, AcceleratorDesign, HwConfig};
use tensorlib::hw::opt::{optimize_netlist, OptOptions};
use tensorlib::hw::pe::{build_pe, PeIoKind, PeSpec, PeTensorSpec};
use tensorlib::hw::verilog::{emit_design, emit_module};
use tensorlib::hw::ArrayConfig;
use tensorlib::ir::{workloads, DataType, Kernel};
use tensorlib::sim::trace::measure;
use tensorlib::sim::TraceConfig;
use tensorlib_cli::{run, Command, DesignArgs, GenerateArgs};

fn gemm_design(n: usize) -> AcceleratorDesign {
    let gemm = workloads::gemm(4, 4, 4);
    build(&gemm, ["m", "n", "k"], Stt::output_stationary(), n)
}

fn build(kernel: &Kernel, sel: [&str; 3], stt: Stt, n: usize) -> AcceleratorDesign {
    let sel = LoopSelection::by_names(kernel, sel).expect("selection resolves");
    let df = Dataflow::analyze(kernel, sel, stt).expect("analyzable");
    generate(
        &df,
        &HwConfig {
            array: ArrayConfig::square(n),
            ..HwConfig::default()
        },
    )
    .expect("wireable")
}

/// Every Figure 3 PE template, optimized and emitted: still validates, and
/// the emission lint that caught the original compound-part-select bug
/// stays clean on the optimizer's output shapes.
#[test]
fn optimized_pe_templates_emit_lint_clean_verilog() {
    let templates: &[(&str, &[(&str, PeIoKind)])] = &[
        ("systolic_in", &[("a", PeIoKind::SystolicIn), ("c", PeIoKind::ReduceOut)]),
        ("systolic_out", &[("a", PeIoKind::DirectIn), ("c", PeIoKind::SystolicOut)]),
        ("stationary_in", &[("a", PeIoKind::StationaryIn), ("c", PeIoKind::ReduceOut)]),
        (
            "stationary_out",
            &[
                ("a", PeIoKind::DirectIn),
                ("b", PeIoKind::DirectIn),
                ("c", PeIoKind::StationaryOut),
            ],
        ),
        (
            "direct_in",
            &[
                ("a", PeIoKind::DirectIn),
                ("b", PeIoKind::DirectIn),
                ("c", PeIoKind::ReduceOut),
            ],
        ),
        ("reduce_out", &[("a", PeIoKind::DirectIn), ("c", PeIoKind::ReduceOut)]),
    ];
    for (name, kinds) in templates {
        let spec = PeSpec {
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
        };
        let (optimized, _) =
            optimize_netlist(&[build_pe(&spec)], "pe", &OptOptions::default());
        optimized[0]
            .validate()
            .unwrap_or_else(|e| panic!("{name}: optimized PE invalid: {e}"));
        let v = emit_module(&optimized[0]);
        assert!(!v.contains(")["), "{name}: illegal part-select:\n{v}");
        assert!(v.contains("endmodule"), "{name}: truncated emission:\n{v}");
    }
}

/// The full optimized GEMM design emits lint-clean Verilog for every module
/// (including the hoisted `cse_*` wires the generator never produces).
#[test]
fn optimized_gemm_design_emits_lint_clean_verilog() {
    let mut design = gemm_design(4);
    design.optimize(&OptOptions::default());
    design.validate().expect("optimized design validates");
    let v = emit_design(&design);
    assert!(!v.contains(")["), "illegal part-select:\n{v}");
    assert!(v.contains("wire cse_"), "expected hoisted cse wires:\n{v}");
}

/// Waveform-level equivalence witness: the same watched nets, traced over
/// the same run, produce transition-identical VCDs before and after
/// optimization. This is stronger than output agreement — it pins the
/// preservation contract (named nets keep their name, width, and behavior)
/// at the observability layer the trace counters depend on.
#[test]
fn optimized_design_vcd_matches_the_unoptimized_waveform() {
    let design = gemm_design(4);
    let mut opt_design = design.clone();
    opt_design.optimize(&OptOptions::default());
    let cfg = TraceConfig::default().with_watch([
        "en",
        "swap",
        "done",
        "array_i.pe_r0c0.product",
        "array_i.pe_r3c3.product",
    ]);
    let base = measure(&design, &cfg, 2).expect("unoptimized run");
    let opt = measure(&opt_design, &cfg, 2).expect("optimized run");
    assert_eq!(base.stats.events_dropped, 0);
    assert_eq!(opt.stats.events_dropped, 0);
    let base_vcd = base.sim.write_vcd().expect("trace attached");
    let opt_vcd = opt.sim.write_vcd().expect("trace attached");
    assert_eq!(base_vcd, opt_vcd, "optimization changed the waveform");
    // And the derived hardware counters agree too.
    assert_eq!(base.stats.cycles, opt.stats.cycles);
    assert_eq!(base.stats.total_mac_cycles(), opt.stats.total_mac_cycles());
}

/// `--opt=off` is a true escape hatch: the generate path with optimization
/// disabled emits the legacy netlist byte-for-byte, and `--opt=on` (the
/// default) actually changes the emission (the cse wires prove the pass
/// ran).
#[test]
fn opt_off_generates_the_legacy_netlist_byte_identically() {
    // Resolve the dataflow exactly as the CLI does — `find_named` picks a
    // different (transposed) MNK-SST interconnect than the textbook
    // output-stationary STT used elsewhere in this file.
    let gemm = workloads::gemm(4, 4, 4);
    let df = find_named(&gemm, "MNK-SST", &DseConfig::default()).expect("named dataflow");
    let design = generate(
        &df,
        &HwConfig {
            array: ArrayConfig::square(4),
            ..HwConfig::default()
        },
    )
    .expect("wireable");
    let legacy = emit_design(&design);
    let gen = |opt: bool| {
        run(Command::Generate(GenerateArgs {
            design: DesignArgs {
                workload: "gemm:4,4,4".into(),
                dataflow: "MNK-SST".into(),
                rows: 4,
                cols: 4,
                opt,
            },
            out: "-".into(),
        }))
        .unwrap()
    };
    assert_eq!(gen(false), legacy, "--opt=off must not touch the netlist");
    let optimized = gen(true);
    assert_ne!(optimized, legacy, "--opt=on must actually optimize");
    assert!(optimized.contains("cse_"), "expected hoisted cse wires");
}
