//! Regenerates **Figure 5**: normalized performance of representative
//! dataflows for each tensor algebra on a 16×16 array at 320 MHz with
//! 32 GB/s of scratchpad bandwidth.
//!
//! For every workload the paper's §VI-A named dataflows are resolved by name
//! (when realizable) and the best/worst implementable designs from a full
//! sweep are appended, so the figure's spread is visible even where the paper
//! names only a few points.

use serde::Serialize;
use tensorlib::dataflow::dse::{design_space, find_named, DseConfig};
use tensorlib::explore::{explore, ExploreOptions};
use tensorlib::hw::design::{generate, HwConfig};
use tensorlib::ir::{workloads, Kernel};
use tensorlib::sim::perf;
use tensorlib::SimConfig;
use tensorlib_bench::{dump_json, TextTable};

#[derive(Serialize)]
struct Fig5Point {
    workload: String,
    dataflow: String,
    letters: String,
    total_cycles: u64,
    normalized_perf: f64,
    source: &'static str,
}

fn main() {
    let cases: Vec<(&str, Kernel, Vec<&str>)> = vec![
        (
            "GEMM",
            workloads::gemm(256, 256, 256),
            vec!["MNK-MTM", "MNK-MMT", "MNK-SST", "MNK-STS", "MNK-TSS"],
        ),
        (
            "Batched-GEMV",
            workloads::batched_gemv(256, 256, 256),
            vec!["MNK-UTS", "MNK-UST", "MNK-UTM"],
        ),
        (
            "Conv2D-ResNet-L2",
            workloads::resnet_layer2(),
            vec![
                "KCX-SST", "KCX-STS", "XYP-MMT", "XYP-MST", "XYP-SMM", "KPX-TMM", "KPX-MST",
            ],
        ),
        (
            "Conv2D-ResNet-L5",
            workloads::resnet_layer5(),
            vec!["KCX-SST", "KCX-STS", "XYP-MMT", "XYP-MST", "XYP-SMM"],
        ),
        (
            "Depthwise-Conv",
            workloads::depthwise_conv(64, 56, 56, 3, 3),
            vec!["KPX-MMM", "XYP-MMM", "KYX-MST", "KYX-SST"],
        ),
        (
            "MTTKRP",
            workloads::mttkrp(64, 64, 64, 64),
            vec!["IKL-UBBB", "IJK-SBST", "IJK-TBSS"],
        ),
        (
            "TTMc",
            workloads::ttmc(32, 32, 32, 32, 32),
            vec!["IJK-BBBU", "ILM-SSBT", "ILM-TSBS"],
        ),
    ];

    let hw = HwConfig::default();
    let sim = SimConfig::paper_default();
    let dse = DseConfig {
        max_designs: 3000,
        ..DseConfig::default()
    };
    let mut all_points = Vec::new();

    println!("Figure 5 — normalized performance of dataflows per tensor algebra");
    println!("(16x16 PEs, 320 MHz, 32 GB/s array<->scratchpad)\n");

    for (label, kernel, names) in cases {
        let mut table = TextTable::new(vec!["dataflow", "cycles", "perf vs peak"]);
        for name in names {
            match find_named(&kernel, name, &dse) {
                Ok(df) => match generate(&df, &hw) {
                    Ok(design) => {
                        let r = perf::estimate(&design, &kernel, &sim);
                        table.row(vec![
                            name.to_string(),
                            r.total_cycles.to_string(),
                            format!("{:.3}", r.normalized_perf),
                        ]);
                        all_points.push(Fig5Point {
                            workload: label.to_string(),
                            dataflow: name.to_string(),
                            letters: df.letters(),
                            total_cycles: r.total_cycles,
                            normalized_perf: r.normalized_perf,
                            source: "named",
                        });
                    }
                    Err(e) => table.row(vec![
                        name.to_string(),
                        "-".into(),
                        format!("(unwireable: {e})"),
                    ]),
                },
                Err(_) => table.row(vec![
                    name.to_string(),
                    "-".into(),
                    "(no such dataflow for this kernel)".into(),
                ]),
            }
        }
        // Sweep extremes.
        let sweep = explore(
            &kernel,
            &ExploreOptions {
                dse: dse.clone(),
                hw,
                sim,
                synthesis_activity: true,
                ..ExploreOptions::default()
            },
        );
        if let (Some(best), Some(worst)) = (sweep.first(), sweep.last()) {
            for (point, tag) in [(best, "best of sweep"), (worst, "worst of sweep")] {
                table.row(vec![
                    format!("{} ({tag})", point.name),
                    point.performance.total_cycles.to_string(),
                    format!("{:.3}", point.performance.normalized_perf),
                ]);
                all_points.push(Fig5Point {
                    workload: label.to_string(),
                    dataflow: point.name.clone(),
                    letters: point.letters.clone(),
                    total_cycles: point.performance.total_cycles,
                    normalized_perf: point.performance.normalized_perf,
                    source: "sweep",
                });
            }
        }
        println!("{label} ({} designs in sweep)", sweep.len());
        println!("{table}");
    }

    // Sweep-free design count note for Batched-GEMV's unicast-only claim.
    let bg = workloads::batched_gemv(64, 64, 64);
    let non_unicast_a = design_space(&bg, &DseConfig::default())
        .iter()
        .filter(|d| {
            d.tensor_flow("A")
                .is_some_and(|f| !matches!(f.class, tensorlib::FlowClass::Unicast))
        })
        .count();
    println!(
        "Batched-GEMV dataflows where A is not unicast: {non_unicast_a} (paper: A can never be reused)"
    );

    println!("\nwrote {}", dump_json("fig5", &all_points));
}
