//! ASIC area and power model (55 nm class).

use serde::Serialize;
use tensorlib_hw::design::DesignPlan;

use crate::calibration::asic55 as k;

/// Switching-activity inputs for the power model, typically taken from a
/// `tensorlib-sim` performance report (its `normalized_perf` field).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Activity {
    /// Fraction of (PE × cycle) slots doing real work (`normalized_perf`).
    pub utilization: f64,
    /// Clock frequency in MHz.
    pub freq_mhz: f64,
}

impl Default for Activity {
    fn default() -> Activity {
        Activity {
            utilization: 1.0,
            freq_mhz: 320.0,
        }
    }
}

impl Activity {
    /// Builds the power-model activity from *measured* interpreter counters
    /// (see `tensorlib_hw::trace::InterpreterStats`), closing the loop
    /// between the analytic calibration and what the netlist actually did:
    /// utilization here is the measured fraction of (PE × cycle) slots that
    /// issued a MAC, not the scheduler's prediction.
    pub fn from_measured(stats: &tensorlib_hw::InterpreterStats, freq_mhz: f64) -> Activity {
        Activity {
            utilization: stats.utilization().clamp(0.0, 1.0),
            freq_mhz,
        }
    }
}

/// Area/power breakdown of one design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AsicReport {
    /// Total cell + macro area, mm².
    pub area_mm2: f64,
    /// Total power at the given activity, mW.
    pub power_mw: f64,
    /// Compute (multipliers + adders) share of power, mW.
    pub compute_mw: f64,
    /// Register (PE + tree) share of power, mW.
    pub register_mw: f64,
    /// SRAM access share of power, mW.
    pub sram_mw: f64,
    /// Broadcast/multicast wiring share of power, mW.
    pub wire_mw: f64,
    /// Control distribution share of power, mW.
    pub control_mw: f64,
    /// Leakage, mW.
    pub leakage_mw: f64,
}

/// Evaluates the ASIC cost of `design` at `activity`. It reads only the
/// [`DesignPlan`], so a generated `AcceleratorDesign` scores the same way.
///
/// Area is activity-independent; power is energy-per-cycle × frequency with
/// per-component activity factors (compute scales with utilization,
/// broadcasts pay per endpoint, stationary double-buffers pay for their
/// write muxes and control trees).
///
/// # Examples
///
/// ```
/// use tensorlib_cost::{asic_cost, Activity};
/// use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
/// use tensorlib_hw::design::{generate, HwConfig};
/// use tensorlib_ir::workloads;
///
/// let gemm = workloads::gemm(64, 64, 64);
/// let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"])?;
/// let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())?;
/// let design = generate(&df, &HwConfig::default()).expect("wireable");
/// let report = asic_cost(&design, &Activity::default());
/// assert!(report.area_mm2 > 0.0 && report.power_mw > 0.0);
/// # Ok::<(), tensorlib_dataflow::DataflowError>(())
/// ```
pub fn asic_cost(design: &DesignPlan, activity: &Activity) -> AsicReport {
    let _span = tensorlib_obs::span("cost.asic");
    let s = design.summary();
    let dt = design.config().datatype;
    let mul_scale = k::mul_scale(dt.bits(), dt.is_float());
    let acc_scale = dt.accumulator_bits() as f64 / 32.0;
    let pes = s.pes as f64;

    // ---- Area ----
    let compute_area = s.multipliers as f64 * k::MUL_INT16_AREA_UM2 * mul_scale
        + (s.pe_adders + s.tree_adders) as f64 * k::ADD32_AREA_UM2 * acc_scale;
    let reg_area = (s.pe_reg_bits + s.tree_reg_bits + s.ctrl_reg_bits) as f64
        * k::REG_AREA_UM2_PER_BIT;
    let mux_area = s.mux_bits as f64 * k::MUX_AREA_UM2_PER_BIT;
    let sram_area = s.mem_bits as f64 * k::SRAM_AREA_UM2_PER_BIT;
    let broadcast_endpoints = broadcast_endpoint_count(s);
    let wire_area = broadcast_endpoints * k::BROADCAST_AREA_UM2_PER_ENDPOINT;
    let ctrl_area = s.control_wires as f64 * pes * k::CTRL_AREA_UM2_PER_PE;
    let area_um2 = compute_area + reg_area + mux_area + sram_area + wire_area + ctrl_area;
    let area_mm2 = area_um2 / 1.0e6;

    // ---- Energy per cycle (pJ) ----
    let util = activity.utilization.clamp(0.0, 1.0);
    let compute_pj = s.multipliers as f64 * k::MUL_INT16_PJ * mul_scale * util
        + (s.pe_adders + s.tree_adders) as f64 * k::ADD32_PJ * acc_scale * util;
    // Stationary tensors pay for double-buffer pairs, write muxes, and
    // enable trees (see STATIONARY_REG_ACTIVITY); approximate their share of
    // PE register bits by the stationary tensor fraction.
    let flows = design.dataflow().flows().len().max(1) as f64;
    let stationary_share = (s.stationary_tensors as f64 / flows).clamp(0.0, 1.0);
    let reg_activity =
        (1.0 - stationary_share) + stationary_share * k::STATIONARY_REG_ACTIVITY;
    let register_pj = (s.pe_reg_bits + s.tree_reg_bits) as f64
        * k::REG_PJ_PER_BIT
        * reg_activity
        * util.max(0.05)
        + s.mux_bits as f64 * k::MUX_PJ_PER_BIT * util.max(0.05);
    // SRAM traffic: streamed input + output bytes per cycle.
    let sram_bytes = (s.stream_bits_per_cycle + s.output_bits_per_cycle) as f64 / 8.0;
    let sram_pj = sram_bytes * k::SRAM_PJ_PER_BYTE * util.max(0.05);
    // Broadcast wiring: every multicast port delivers its word to `fanout`
    // endpoints each cycle.
    let wire_pj = broadcast_byte_endpoints(design) * k::BROADCAST_PJ_PER_BYTE_PER_ENDPOINT
        * util.max(0.05);
    let control_pj = s.control_wires as f64 * pes * k::CTRL_PJ_PER_WIRE_PER_PE;

    let dynamic_mw = |pj: f64| pj * activity.freq_mhz * 1e6 * 1e-12 * 1e3;
    let compute_mw = dynamic_mw(compute_pj);
    let register_mw = dynamic_mw(register_pj);
    let sram_mw = dynamic_mw(sram_pj);
    let wire_mw = dynamic_mw(wire_pj);
    let control_mw = dynamic_mw(control_pj);
    let leakage_mw = area_mm2 * k::LEAKAGE_MW_PER_MM2;
    AsicReport {
        area_mm2,
        power_mw: compute_mw + register_mw + sram_mw + wire_mw + control_mw + leakage_mw,
        compute_mw,
        register_mw,
        sram_mw,
        wire_mw,
        control_mw,
        leakage_mw,
    }
}

/// Total broadcast endpoints (ports × fanout) — an area proxy for multicast
/// buffer trees.
fn broadcast_endpoint_count(s: &tensorlib_hw::ResourceSummary) -> f64 {
    // max_fanout is the worst line; multicast_ports counts lines. Their
    // product bounds total endpoints; exact counts come from the port list,
    // but the summary suffices for the area proxy.
    (s.multicast_ports * s.max_fanout.max(1)) as f64
}

/// Bytes × endpoints crossing broadcast wiring per compute cycle. Only
/// streaming input multicasts count: reduction trees are adders (already
/// charged as compute), and stationary load multicasts are active only
/// during the short load phase (charged at load duty cycle ≈ 10%).
fn broadcast_byte_endpoints(design: &DesignPlan) -> f64 {
    use tensorlib_hw::array::PortKind;
    // Summed port by port, in port order: the sum's bits depend on it.
    design
        .array_catalog()
        .port_shapes()
        .filter(|p| p.fanout > 1)
        .map(|p| {
            let duty = match p.kind {
                PortKind::Multicast => 1.0,
                PortKind::StationaryLoad => 0.1,
                _ => 0.0,
            };
            (p.width as f64 / 8.0) * p.fanout as f64 * duty
        })
        .sum::<f64>()
        * design.config().vectorize as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
    use tensorlib_hw::design::{generate, HwConfig};
    use tensorlib_ir::workloads;

    fn gemm_report(rows: [[i64; 3]; 3]) -> AsicReport {
        let gemm = workloads::gemm(64, 64, 64);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&gemm, sel, Stt::from_rows(rows).unwrap()).unwrap();
        let d = generate(&df, &HwConfig::default()).unwrap();
        asic_cost(&d, &Activity::default())
    }

    #[test]
    fn power_breakdown_sums() {
        let r = gemm_report([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let sum = r.compute_mw + r.register_mw + r.sram_mw + r.wire_mw + r.control_mw
            + r.leakage_mw;
        assert!((r.power_mw - sum).abs() < 1e-9);
        assert!(r.area_mm2 > 0.0);
    }

    #[test]
    fn multicast_costs_more_energy_than_systolic() {
        // Figure 6: MMT/MTM-style dataflows are the high-energy cluster.
        let systolic = gemm_report([[1, 0, 0], [0, 1, 0], [1, 1, 1]]); // SST
        let multicast = gemm_report([[0, 1, 0], [0, 0, 1], [1, 0, 0]]); // MTM
        assert!(
            multicast.power_mw > systolic.power_mw,
            "MTM {} !> SST {}",
            multicast.power_mw,
            systolic.power_mw
        );
        assert!(multicast.wire_mw > systolic.wire_mw);
    }

    #[test]
    fn energy_spread_exceeds_area_spread() {
        // Figure 6's headline: dataflow choice moves energy much more than
        // area.
        let reports = [
            gemm_report([[1, 0, 0], [0, 1, 0], [1, 1, 1]]),
            gemm_report([[0, 0, 1], [0, 1, 0], [1, 1, 1]]),
            gemm_report([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        ];
        let pmax = reports.iter().map(|r| r.power_mw).fold(0.0, f64::max);
        let pmin = reports.iter().map(|r| r.power_mw).fold(f64::MAX, f64::min);
        let amax = reports.iter().map(|r| r.area_mm2).fold(0.0, f64::max);
        let amin = reports.iter().map(|r| r.area_mm2).fold(f64::MAX, f64::min);
        assert!(
            pmax / pmin > amax / amin,
            "power spread {} <= area spread {}",
            pmax / pmin,
            amax / amin
        );
    }

    #[test]
    fn bigger_datatype_costs_more() {
        let gemm = workloads::gemm(64, 64, 64);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
        let d16 = generate(&df, &HwConfig::default()).unwrap();
        let d32 = generate(
            &df,
            &HwConfig {
                datatype: tensorlib_ir::DataType::Fp32,
                ..HwConfig::default()
            },
        )
        .unwrap();
        let a = Activity::default();
        assert!(asic_cost(&d32, &a).power_mw > asic_cost(&d16, &a).power_mw);
        assert!(asic_cost(&d32, &a).area_mm2 > asic_cost(&d16, &a).area_mm2);
    }

    #[test]
    fn measured_activity_feeds_the_power_model() {
        use tensorlib_hw::InterpreterStats;
        // Two PEs over 10 cycles, 15 MAC issues total → 75% utilization.
        let mut stats = InterpreterStats {
            cycles: 10,
            ..InterpreterStats::default()
        };
        for (i, macs) in [10u64, 5u64].into_iter().enumerate() {
            stats.pes.push(tensorlib_hw::trace::PeCounters {
                name: format!("array_i.pe_r0c{i}"),
                row: 0,
                col: i,
                mac_cycles: macs,
                enabled_cycles: 10,
            });
        }
        let a = Activity::from_measured(&stats, 320.0);
        assert!((a.utilization - 0.75).abs() < 1e-12);
        assert_eq!(a.freq_mhz, 320.0);

        // Lower measured utilization must mean lower dynamic power.
        let gemm = workloads::gemm(64, 64, 64);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
        let d = generate(&df, &HwConfig::default()).unwrap();
        let busy = asic_cost(&d, &Activity::default());
        let measured = asic_cost(&d, &a);
        assert!(measured.power_mw < busy.power_mw);
        assert!((measured.area_mm2 - busy.area_mm2).abs() < 1e-12);
    }

    #[test]
    fn idle_design_still_leaks() {
        let r_idle = {
            let gemm = workloads::gemm(64, 64, 64);
            let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
            let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
            let d = generate(&df, &HwConfig::default()).unwrap();
            asic_cost(
                &d,
                &Activity {
                    utilization: 0.0,
                    freq_mhz: 320.0,
                },
            )
        };
        assert!(r_idle.leakage_mw > 0.0);
        assert!(r_idle.compute_mw < 1e-9);
    }
}
