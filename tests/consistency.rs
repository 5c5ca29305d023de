//! Cross-crate consistency checks: the resource summary must agree with the
//! actual netlist, the memory plan with the array ports, and the simulators
//! with each other.

use tensorlib::dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib::hw::design::{generate, HwConfig};
use tensorlib::hw::ArrayConfig;
use tensorlib::ir::workloads;
use tensorlib::Accelerator;

fn designs_under_test() -> Vec<tensorlib::AcceleratorDesign> {
    let gemm = workloads::gemm(32, 32, 32);
    let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
    let cfg = HwConfig {
        array: ArrayConfig { rows: 4, cols: 6 },
        ..HwConfig::default()
    };
    [
        [[1, 0, 0], [0, 1, 0], [1, 1, 1]], // SST
        [[0, 0, 1], [0, 1, 0], [1, 1, 1]], // STS
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]], // MTM
    ]
    .into_iter()
    .map(|rows| {
        let df = Dataflow::analyze(&gemm, sel.clone(), Stt::from_rows(rows).unwrap()).unwrap();
        generate(&df, &cfg).unwrap()
    })
    .collect()
}

#[test]
fn summary_register_bits_match_netlist() {
    for design in designs_under_test() {
        let s = design.summary();
        let pe = design
            .modules()
            .iter()
            .find(|m| m.name().ends_with("_pe"))
            .expect("PE module exists");
        assert_eq!(
            s.pe_reg_bits,
            pe.reg_bits() * s.pes * s.vectorize as u64,
            "{}",
            design.name()
        );
        let ctrl = design
            .modules()
            .iter()
            .find(|m| m.name().ends_with("_ctrl"))
            .expect("controller exists");
        assert_eq!(s.ctrl_reg_bits, ctrl.reg_bits());
    }
}

#[test]
fn summary_operator_counts_match_netlist() {
    for design in designs_under_test() {
        let s = design.summary();
        let pe = design
            .modules()
            .iter()
            .find(|m| m.name().ends_with("_pe"))
            .unwrap();
        let ops = pe.count_ops();
        assert_eq!(s.multipliers, ops.multipliers * s.pes * s.vectorize as u64);
        assert_eq!(s.pe_adders, ops.adders * s.pes * s.vectorize as u64);
        assert_eq!(s.mux_bits, ops.mux_bits * s.pes * s.vectorize as u64);
        // Tree adders: sum over tree instances in the array module.
        let array = design
            .modules()
            .iter()
            .find(|m| m.name().ends_with("_array"))
            .unwrap();
        let tree_instances = array
            .instances()
            .iter()
            .filter(|i| i.module.contains("_tree"))
            .count() as u64;
        if s.tree_adders > 0 {
            assert!(tree_instances > 0);
        } else {
            assert_eq!(tree_instances, 0);
        }
    }
}

#[test]
fn bank_plan_matches_array_ports_exactly() {
    for design in designs_under_test() {
        assert_eq!(design.bank_bindings().len(), design.array_ports().len());
        for binding in design.bank_bindings() {
            let bank = design.bank(binding);
            assert_eq!(bank.width(), design.port_group(binding).width);
        }
        // The top module instantiates exactly one bank per binding plus the
        // array and the controller.
        let top = design.module(design.top()).unwrap();
        assert_eq!(
            top.instances().len(),
            design.bank_bindings().len() + 2,
            "{}",
            design.name()
        );
    }
}

#[test]
fn functional_traffic_never_exceeds_port_capacity() {
    // The functional simulator's measured peak words/cycle can never exceed
    // the number of input streaming ports the hardware actually has.
    for (rows, sel_names) in [
        ([[1i64, 0, 0], [0, 1, 0], [1, 1, 1]], ["m", "n", "k"]),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], ["m", "n", "k"]),
    ] {
        let gemm = workloads::gemm(12, 12, 12);
        let sel = LoopSelection::by_names(&gemm, sel_names).unwrap();
        let df = Dataflow::analyze(&gemm, sel, Stt::from_rows(rows).unwrap()).unwrap();
        let cfg = HwConfig {
            array: ArrayConfig::square(4),
            ..HwConfig::default()
        };
        let design = generate(&df, &cfg).unwrap();
        let run = tensorlib::sim::functional::simulate(&design, &gemm, 1).unwrap();
        let input_ports = design
            .array_ports()
            .iter()
            .filter(|p| p.kind.is_input())
            .count() as u64;
        // Stationary tensors are pre-loaded during the load phase, but the
        // functional simulator charges first use at the first compute cycle —
        // so the bound is ports plus one resident element per PE per
        // stationary tensor.
        let resident =
            design.summary().pes * design.summary().stationary_tensors as u64;
        assert!(
            run.peak_new_words_per_cycle <= input_ports + resident,
            "{}: peak {} > ports {} + resident {}",
            df.name(),
            run.peak_new_words_per_cycle,
            input_ports,
            resident
        );
    }
}

#[test]
fn perf_report_internal_arithmetic_is_consistent() {
    let acc = Accelerator::builder(workloads::gemm(64, 64, 64))
        .array(8, 8)
        .build()
        .unwrap();
    let r = acc.performance(&Default::default());
    // Cycles and rates agree.
    let macs_rate = r.macs as f64 / r.total_cycles as f64;
    assert!((macs_rate - r.macs_per_cycle).abs() < 1e-9);
    let peak = (acc.design().config().array.pes() as u64 * r.total_cycles) as f64;
    assert!((r.normalized_perf - r.macs as f64 / peak).abs() < 1e-12);
    // Gops consistent with runtime.
    let gops = 2.0 * r.macs as f64 / (r.runtime_us * 1e3);
    assert!((gops - r.gops).abs() / r.gops < 1e-9);
}

#[test]
fn verilog_emission_is_deterministic_across_generations() {
    let make = || {
        let acc = Accelerator::builder(workloads::gemm(16, 16, 16))
            .array(4, 4)
            .build()
            .unwrap();
        acc.verilog()
    };
    assert_eq!(make(), make());
}
