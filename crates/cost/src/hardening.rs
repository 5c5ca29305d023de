//! Cost of resilience: what a hardened variant pays over its unhardened
//! baseline.
//!
//! Hardening (TMR controller, scratchpad parity, ABFT checksum lanes — see
//! `tensorlib_hw::fault::Hardening`) shows up in the generated design's
//! [`tensorlib_hw::ResourceSummary`] as extra registers, voter gates, parity
//! bits, and checksum PEs. This module prices that delta through the same
//! ASIC and FPGA models used for everything else, so a resilience report can
//! state not just *coverage* but *cost per unit of coverage*.

use serde::Serialize;
use tensorlib_dataflow::Dataflow;
use tensorlib_hw::design::{plan, HwConfig};
use tensorlib_hw::fault::Hardening;
use tensorlib_hw::HwError;

use crate::asic::{asic_cost, Activity};
use crate::fpga::{fpga_cost, FpgaDevice};

/// Area/power/LUT deltas of one hardened design versus its baseline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HardeningOverhead {
    /// The hardening options priced (display form, e.g. `tmr,par,abft`).
    pub hardening: String,
    /// Baseline (unhardened) ASIC area, mm².
    pub base_area_mm2: f64,
    /// Hardened ASIC area, mm².
    pub hardened_area_mm2: f64,
    /// Area overhead in percent of the baseline.
    pub area_overhead_pct: f64,
    /// Baseline ASIC power at the given activity, mW.
    pub base_power_mw: f64,
    /// Hardened ASIC power at the given activity, mW.
    pub hardened_power_mw: f64,
    /// Power overhead in percent of the baseline.
    pub power_overhead_pct: f64,
    /// Baseline FPGA LUTs (VU9P model).
    pub base_luts: u64,
    /// Hardened FPGA LUTs (VU9P model).
    pub hardened_luts: u64,
    /// LUT overhead in percent of the baseline.
    pub lut_overhead_pct: f64,
}

fn pct(base: f64, hardened: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (hardened - base) / base * 100.0
    }
}

/// Prices `hardening` for `dataflow` under `cfg`: plans the unhardened
/// baseline and the hardened variant from the same dataflow/config, runs
/// both through [`asic_cost`] and [`fpga_cost`], and reports the deltas.
///
/// `cfg.hardening` is ignored — the baseline is always `Hardening::none()`
/// and the variant is the `hardening` argument.
///
/// # Errors
///
/// Returns [`HwError`] if either design fails to plan (both share the
/// same wiring feasibility, so in practice they fail together).
///
/// # Examples
///
/// ```
/// use tensorlib_cost::{hardening_overhead, Activity};
/// use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
/// use tensorlib_hw::design::HwConfig;
/// use tensorlib_hw::fault::Hardening;
/// use tensorlib_ir::workloads;
///
/// let gemm = workloads::gemm(16, 16, 16);
/// let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"])?;
/// let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())?;
/// let o = hardening_overhead(&df, &HwConfig::default(), Hardening::full(), &Activity::default())
///     .expect("wireable");
/// assert!(o.area_overhead_pct > 0.0);
/// # Ok::<(), tensorlib_dataflow::DataflowError>(())
/// ```
pub fn hardening_overhead(
    dataflow: &Dataflow,
    cfg: &HwConfig,
    hardening: Hardening,
    activity: &Activity,
) -> Result<HardeningOverhead, HwError> {
    let base_cfg = HwConfig {
        hardening: Hardening::none(),
        ..*cfg
    };
    let hard_cfg = HwConfig { hardening, ..*cfg };
    let base = plan(dataflow, &base_cfg)?;
    let hard = plan(dataflow, &hard_cfg)?;
    let base_asic = asic_cost(&base, activity);
    let hard_asic = asic_cost(&hard, activity);
    let device = FpgaDevice::vu9p();
    let base_fpga = fpga_cost(&base, &device, false);
    let hard_fpga = fpga_cost(&hard, &device, false);
    Ok(HardeningOverhead {
        hardening: hardening.to_string(),
        base_area_mm2: base_asic.area_mm2,
        hardened_area_mm2: hard_asic.area_mm2,
        area_overhead_pct: pct(base_asic.area_mm2, hard_asic.area_mm2),
        base_power_mw: base_asic.power_mw,
        hardened_power_mw: hard_asic.power_mw,
        power_overhead_pct: pct(base_asic.power_mw, hard_asic.power_mw),
        base_luts: base_fpga.luts,
        hardened_luts: hard_fpga.luts,
        lut_overhead_pct: pct(base_fpga.luts as f64, hard_fpga.luts as f64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_dataflow::{LoopSelection, Stt};
    use tensorlib_ir::workloads;

    fn os_gemm() -> Dataflow {
        let gemm = workloads::gemm(16, 16, 16);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap()
    }

    #[test]
    fn full_hardening_costs_more_than_each_single_option() {
        let df = os_gemm();
        let cfg = HwConfig::default();
        let act = Activity::default();
        let full = hardening_overhead(&df, &cfg, Hardening::full(), &act).unwrap();
        assert!(full.area_overhead_pct > 0.0);
        assert!(full.power_overhead_pct > 0.0);
        assert!(full.lut_overhead_pct > 0.0);
        for single in [
            Hardening {
                tmr_ctrl: true,
                parity_banks: false,
                abft: false,
            },
            Hardening {
                tmr_ctrl: false,
                parity_banks: true,
                abft: false,
            },
            Hardening {
                tmr_ctrl: false,
                parity_banks: false,
                abft: true,
            },
        ] {
            let o = hardening_overhead(&df, &cfg, single, &act).unwrap();
            assert!(
                o.area_overhead_pct <= full.area_overhead_pct,
                "{}: single-option area exceeds full",
                o.hardening
            );
            assert!(o.area_overhead_pct >= 0.0);
        }
    }

    #[test]
    fn abft_dominates_tmr_in_area() {
        // ABFT adds a checksum row + column of real PEs; the TMR controller
        // only triples a tiny FSM. For a 16×16 array the ordering is stark.
        let df = os_gemm();
        let cfg = HwConfig::default();
        let act = Activity::default();
        let abft = hardening_overhead(
            &df,
            &cfg,
            Hardening {
                tmr_ctrl: false,
                parity_banks: false,
                abft: true,
            },
            &act,
        )
        .unwrap();
        let tmr = hardening_overhead(
            &df,
            &cfg,
            Hardening {
                tmr_ctrl: true,
                parity_banks: false,
                abft: false,
            },
            &act,
        )
        .unwrap();
        assert!(abft.area_overhead_pct > tmr.area_overhead_pct);
        assert!(tmr.area_overhead_pct < 1.0, "TMR must stay sub-percent");
    }

    #[test]
    fn none_is_free() {
        let o = hardening_overhead(
            &os_gemm(),
            &HwConfig::default(),
            Hardening::none(),
            &Activity::default(),
        )
        .unwrap();
        assert_eq!(o.area_overhead_pct, 0.0);
        assert_eq!(o.power_overhead_pct, 0.0);
        assert_eq!(o.base_luts, o.hardened_luts);
    }
}
