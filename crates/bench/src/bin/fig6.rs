//! Regenerates **Figure 6**: the power/area scatter of the full dataflow
//! design space for GEMM and Depthwise-Conv2D (INT16, 16×16 PEs, 320 MHz).
//!
//! Each implementable design is synthesized by the generator and costed with
//! the 55 nm ASIC model at synthesis activity (the paper reports DC results).
//! The summary statistics reproduce the paper's headline: energy spread far
//! exceeds area spread, with double-multicast dataflows at the high-energy
//! end and stationary tensors paying extra area and energy.

use serde::Serialize;
use tensorlib::explore::{explore, ExploreOptions};
use tensorlib::ir::workloads;
use tensorlib_bench::{dump_json, TextTable};

#[derive(Serialize)]
struct Fig6Point {
    workload: String,
    dataflow: String,
    letters: String,
    area_mm2: f64,
    power_mw: f64,
    wire_mw: f64,
    stationary_tensors: usize,
}

fn main() {
    println!("Figure 6 — power and area of the dataflow design space");
    println!("(INT16, 16x16 PEs, 320 MHz, 55 nm ASIC model)\n");
    let mut all = Vec::new();

    for (label, kernel) in [
        ("GEMM", workloads::gemm(64, 64, 64)),
        ("Depthwise-Conv2D", workloads::depthwise_conv(64, 56, 56, 3, 3)),
    ] {
        let points = explore(&kernel, &ExploreOptions::default());
        let mut pmin = f64::MAX;
        let mut pmax: f64 = 0.0;
        let mut amin = f64::MAX;
        let mut amax: f64 = 0.0;
        for p in &points {
            pmin = pmin.min(p.asic.power_mw);
            pmax = pmax.max(p.asic.power_mw);
            amin = amin.min(p.asic.area_mm2);
            amax = amax.max(p.asic.area_mm2);
            all.push(Fig6Point {
                workload: label.to_string(),
                dataflow: p.name.clone(),
                letters: p.letters.clone(),
                area_mm2: p.asic.area_mm2,
                power_mw: p.asic.power_mw,
                wire_mw: p.asic.wire_mw,
                stationary_tensors: p
                    .dataflow
                    .flows()
                    .iter()
                    .filter(|f| f.class.is_stationary_like())
                    .count(),
            });
        }
        println!(
            "{label}: {} implementable designs; power {:.1}..{:.1} mW ({:.2}x), area {:.3}..{:.3} mm2 ({:.2}x)",
            points.len(),
            pmin,
            pmax,
            pmax / pmin,
            amin,
            amax,
            amax / amin,
        );

        // Extremes table.
        let mut by_power: Vec<_> = points.iter().collect();
        by_power.sort_by(|a, b| a.asic.power_mw.partial_cmp(&b.asic.power_mw).unwrap());
        let mut table = TextTable::new(vec!["dataflow", "letters", "power mW", "area mm2"]);
        for p in by_power.iter().take(3).chain(by_power.iter().rev().take(3)) {
            table.row(vec![
                p.name.clone(),
                p.letters.clone(),
                format!("{:.1}", p.asic.power_mw),
                format!("{:.3}", p.asic.area_mm2),
            ]);
        }
        println!("{table}");

        // The paper's two qualitative claims, checked on the sweep.
        let avg = |pred: &dyn Fn(&&tensorlib::explore::DesignPoint) -> bool| {
            let sel: Vec<f64> = points
                .iter()
                .filter(pred)
                .map(|p| p.asic.power_mw)
                .collect();
            sel.iter().sum::<f64>() / sel.len().max(1) as f64
        };
        let double_multicast = avg(&|p| p.letters.matches('M').count() >= 2);
        let rest = avg(&|p| p.letters.matches('M').count() < 2);
        println!(
            "mean power, >=2 multicast tensors: {double_multicast:.1} mW vs rest: {rest:.1} mW"
        );
        let with_stationary = avg(&|p| p.letters.contains('T'));
        let without = avg(&|p| !p.letters.contains('T'));
        println!(
            "mean power, with stationary tensor: {with_stationary:.1} mW vs without: {without:.1} mW\n"
        );
    }

    println!("wrote {}", dump_json("fig6", &all));
}
