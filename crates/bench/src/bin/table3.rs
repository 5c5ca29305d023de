//! Regenerates **Table III**: FPGA comparison against the Susy and PolySA
//! systolic-array generators on the MM and Conv workloads (FP32).
//!
//! TensorLib's build is the paper's: a 10×16 array with vectorization 8 and a
//! weight-stationary systolic (KCX-STS-style) dataflow on a VU9P. The
//! baselines run their own published configurations (PolySA on the same
//! VU9P; Susy on an Arria-10). The §VI-C placement-optimization experiment
//! (263 → 328 MHz) is appended.

use serde::Serialize;
use tensorlib::cost::{fpga_cost, FpgaDevice};
use tensorlib::dataflow::dse::{find_named, DseConfig};
use tensorlib::hw::design::{generate, HwConfig};
use tensorlib::hw::ArrayConfig;
use tensorlib::ir::{workloads, DataType, Kernel};
use tensorlib_baselines::{BaselineGenerator, BaselineKind};
use tensorlib_bench::{dump_json, TextTable};

#[derive(Serialize)]
struct Table3Row {
    tool: String,
    device: String,
    workload: String,
    lut_pct: f64,
    dsp_pct: f64,
    bram_pct: f64,
    freq_mhz: f64,
    gops: f64,
}

fn tensorlib_design(kernel: &Kernel, dataflow: &str) -> tensorlib::AcceleratorDesign {
    let df = find_named(kernel, dataflow, &DseConfig::default()).expect("dataflow exists");
    generate(
        &df,
        &HwConfig {
            array: ArrayConfig { rows: 10, cols: 16 },
            datatype: DataType::Fp32,
            vectorize: 8,
            ..HwConfig::default()
        },
    )
    .expect("systolic designs are wireable")
}

fn main() {
    println!("Table III — FPGA performance comparison on MM / Conv workloads (FP32)\n");
    let device = FpgaDevice::vu9p();
    let mut rows = Vec::new();
    let mut table = TextTable::new(vec![
        "tool", "device", "workload", "LUT", "DSP", "BRAM", "MHz", "Gop/s",
    ]);
    let push = |tool: &str,
                    dev: &str,
                    wl: &str,
                    r: &tensorlib::FpgaReport,
                    table: &mut TextTable,
                    rows: &mut Vec<Table3Row>| {
        table.row(vec![
            tool.into(),
            dev.into(),
            wl.into(),
            format!("{:.0}%", 100.0 * r.lut_util),
            format!("{:.0}%", 100.0 * r.dsp_util),
            format!("{:.0}%", 100.0 * r.bram_util),
            format!("{:.0}", r.freq_mhz),
            format!("{:.0}", r.peak_gops),
        ]);
        rows.push(Table3Row {
            tool: tool.into(),
            device: dev.into(),
            workload: wl.into(),
            lut_pct: 100.0 * r.lut_util,
            dsp_pct: 100.0 * r.dsp_util,
            bram_pct: 100.0 * r.bram_util,
            freq_mhz: r.freq_mhz,
            gops: r.peak_gops,
        });
    };

    let mm = workloads::gemm(640, 640, 640);
    let conv = workloads::conv2d(64, 64, 28, 28, 3, 3);

    // Baselines first (paper column order: Susy, PolySA, TensorLib).
    for kind in [BaselineKind::Susy, BaselineKind::PolySa] {
        let gen = BaselineGenerator::new(kind);
        for (wl, kernel) in [("MM", &mm), ("Conv", &conv)] {
            match gen.generate(kernel) {
                Ok(design) => {
                    let r = gen.fpga_report(&design);
                    push(
                        &kind.to_string(),
                        gen.profile().device.name,
                        wl,
                        &r,
                        &mut table,
                        &mut rows,
                    );
                }
                Err(e) => println!("{kind} cannot build {wl}: {e}"),
            }
        }
    }

    // TensorLib: weight-stationary systolic, as synthesized in the paper.
    for (wl, kernel, name) in [("MM", &mm, "MNK-STS"), ("Conv", &conv, "KCX-STS")] {
        let design = tensorlib_design(kernel, name);
        let r = fpga_cost(&design, &device, false);
        push("TensorLib", device.name, wl, &r, &mut table, &mut rows);
    }
    println!("{table}");

    // Throughput gain headline.
    let tl_mm = rows
        .iter()
        .find(|r| r.tool == "TensorLib" && r.workload == "MM")
        .expect("TensorLib MM row");
    let best_baseline = rows
        .iter()
        .filter(|r| r.tool != "TensorLib" && r.workload == "MM")
        .map(|r| r.gops)
        .fold(0.0, f64::max);
    println!(
        "\nTensorLib MM throughput gain over best baseline: {:.0}% (paper: 21%)",
        100.0 * (tl_mm.gops / best_baseline - 1.0)
    );

    // §VI-C: manual placement optimization.
    let opt = fpga_cost(&tensorlib_design(&mm, "MNK-STS"), &device, true);
    println!(
        "with placement optimization (SVI-C): MM frequency {:.0} MHz (paper: 328 MHz)",
        opt.freq_mhz
    );

    // Capability comparison (the other §VI-C claim).
    println!("\ncapability check:");
    for kind in [BaselineKind::Susy, BaselineKind::PolySa] {
        let gen = BaselineGenerator::new(kind);
        let dw = gen.find_dataflow(&workloads::depthwise_conv(64, 28, 28, 3, 3));
        println!(
            "  {kind} on Depthwise-Conv: {}",
            match dw {
                Ok(_) => "supported (unexpected)".to_string(),
                Err(e) => format!("unsupported — {e}"),
            }
        );
    }
    println!("  TensorLib on Depthwise-Conv: supported (see fig5/fig6 sweeps)");

    println!("\nwrote {}", dump_json("table3", &rows));
}
