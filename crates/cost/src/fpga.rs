//! FPGA resource and frequency model (Xilinx VU9P class).

use serde::Serialize;
use tensorlib_hw::design::DesignPlan;
use tensorlib_ir::DataType;

use crate::calibration::vu9p as k;

/// A target FPGA device's capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FpgaDevice {
    /// Device name (reporting only).
    pub name: &'static str,
    /// LUT capacity.
    pub luts: u64,
    /// DSP slice capacity.
    pub dsps: u64,
    /// BRAM36 capacity.
    pub brams: u64,
}

impl FpgaDevice {
    /// The Xilinx VU9P used by the paper's Table III.
    pub fn vu9p() -> FpgaDevice {
        FpgaDevice {
            name: "VU9P",
            luts: k::DEVICE_LUTS,
            dsps: k::DEVICE_DSPS,
            brams: k::DEVICE_BRAMS,
        }
    }

    /// The Intel Arria-10 (GX1150 class) Susy targets in Table III. Its DSPs
    /// are hard floating-point blocks, so one DSP serves a full FP32 MAC.
    pub fn arria10() -> FpgaDevice {
        FpgaDevice {
            name: "Arria-10",
            luts: 427_200,
            dsps: 1518,
            brams: 2713,
        }
    }
}

/// FPGA synthesis estimate for one design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FpgaReport {
    /// LUTs used.
    pub luts: u64,
    /// DSP slices used.
    pub dsps: u64,
    /// BRAM36 blocks used.
    pub brams: u64,
    /// LUT utilization of the device, 0–1.
    pub lut_util: f64,
    /// DSP utilization of the device, 0–1.
    pub dsp_util: f64,
    /// BRAM utilization of the device, 0–1.
    pub bram_util: f64,
    /// Estimated achievable frequency, MHz.
    pub freq_mhz: f64,
    /// Peak throughput at that frequency, Gop/s (2 ops per MAC lane).
    pub peak_gops: f64,
}

/// Estimates FPGA resources and frequency for `design` on `device`.
///
/// Set `placement_optimized` to model the paper's §VI-C manual floorplanning
/// experiment (the MM design improves from 263 to 328 MHz).
///
/// # Examples
///
/// ```
/// use tensorlib_cost::{fpga_cost, FpgaDevice};
/// use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
/// use tensorlib_hw::design::{generate, HwConfig};
/// use tensorlib_hw::ArrayConfig;
/// use tensorlib_ir::{workloads, DataType};
///
/// let gemm = workloads::gemm(640, 640, 640);
/// let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"])?;
/// let df = Dataflow::analyze(&gemm, sel, Stt::from_rows([[0,0,1],[0,1,0],[1,1,1]])?)?;
/// let cfg = HwConfig {
///     array: ArrayConfig { rows: 10, cols: 16 },
///     datatype: DataType::Fp32,
///     vectorize: 8,
///     ..HwConfig::default()
/// };
/// let design = generate(&df, &cfg).expect("wireable");
/// let r = fpga_cost(&design, &FpgaDevice::vu9p(), false);
/// assert!(r.dsp_util > 0.5 && r.dsp_util < 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn fpga_cost(
    design: &DesignPlan,
    device: &FpgaDevice,
    placement_optimized: bool,
) -> FpgaReport {
    let s = design.summary();
    let dt = design.config().datatype;

    // ---- DSPs ----
    let dsp_per_mac = match dt {
        DataType::Fp32 => k::DSP_PER_FP32_MAC,
        DataType::Int32 => 2,
        _ => k::DSP_PER_INT16_MAC,
    };
    let mac_lanes = s.multipliers; // already scaled by vectorization
    let dsps = mac_lanes * dsp_per_mac;

    // ---- LUTs ----
    let lut_per_mac = if dt.is_float() {
        k::LUT_PER_FP32_MAC
    } else {
        k::LUT_PER_INT16_MAC
    };
    let broadcast_endpoints: u64 = design
        .array_catalog()
        .port_shapes()
        .filter(|p| p.fanout > 1)
        .map(|p| p.fanout as u64)
        .sum();
    let luts = mac_lanes * lut_per_mac
        + s.pes * k::LUT_PER_PE
        + ((s.pe_reg_bits + s.tree_reg_bits) as f64 * k::LUT_PER_REG_BIT) as u64
        + (s.mux_bits as f64 * k::LUT_PER_MUX_BIT) as u64
        + broadcast_endpoints * k::LUT_PER_BROADCAST_ENDPOINT
        + k::LUT_TOP_OVERHEAD;

    // ---- BRAMs ----
    // Each bank instance occupies at least one BRAM36 per lane; larger banks
    // take ceil(bits / 36Kb).
    let lanes = design.config().vectorize as u64;
    let mut brams = 0u64;
    for binding in design.bank_bindings() {
        let bank = design.bank(binding);
        brams += lanes * bank.bits().div_ceil(36 * 1024).max(1) * k::BRAM_DEPTH_FACTOR;
    }

    // ---- Frequency ----
    let mut freq = k::BASE_FREQ_MHZ;
    if s.max_fanout > 1 {
        freq *= 1.0 - k::FANOUT_FREQ_DERATE_PER_LOG2 * (s.max_fanout as f64).log2();
    }
    if dt.is_float() {
        freq *= k::FP32_FREQ_FACTOR;
    }
    if design.config().vectorize > 1 {
        freq *= k::VECTOR_FREQ_BONUS;
    }
    if s.unicast_in_ports > 0 || s.unicast_out_ports > 0 {
        freq *= k::UNICAST_FREQ_FACTOR;
    }
    if placement_optimized {
        freq *= k::PLACEMENT_OPT_FACTOR;
    }

    FpgaReport {
        luts,
        dsps,
        brams,
        lut_util: luts as f64 / device.luts as f64,
        dsp_util: dsps as f64 / device.dsps as f64,
        bram_util: brams as f64 / device.brams as f64,
        freq_mhz: freq,
        peak_gops: 2.0 * mac_lanes as f64 * freq * 1e6 / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
    use tensorlib_hw::design::{generate, AcceleratorDesign, HwConfig};
    use tensorlib_hw::ArrayConfig;
    use tensorlib_ir::workloads;

    fn table3_design() -> AcceleratorDesign {
        // The paper's FPGA build: KCX-STS-like weight-stationary systolic MM,
        // 10×16 array, FP32, vectorization 8.
        let gemm = workloads::gemm(640, 640, 640);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(
            &gemm,
            sel,
            Stt::from_rows([[0, 0, 1], [0, 1, 0], [1, 1, 1]]).unwrap(),
        )
        .unwrap();
        assert_eq!(df.letters(), "STS");
        generate(
            &df,
            &HwConfig {
                array: ArrayConfig { rows: 10, cols: 16 },
                datatype: DataType::Fp32,
                vectorize: 8,
                ..HwConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn table3_anchor_dsp_and_throughput() {
        let r = fpga_cost(&table3_design(), &FpgaDevice::vu9p(), false);
        // Paper: DSP 75%, 263 MHz, 673 Gop/s.
        assert!(
            (r.dsp_util - 0.75).abs() < 0.02,
            "dsp_util = {}",
            r.dsp_util
        );
        assert!(
            (r.freq_mhz - 263.0).abs() < 15.0,
            "freq = {} MHz",
            r.freq_mhz
        );
        assert!(
            (r.peak_gops - 673.0).abs() < 45.0,
            "gops = {}",
            r.peak_gops
        );
        // LUT utilization in the reported ballpark (68%).
        assert!(
            r.lut_util > 0.5 && r.lut_util < 0.85,
            "lut_util = {}",
            r.lut_util
        );
        assert!(r.bram_util > 0.2 && r.bram_util < 0.9, "bram = {}", r.bram_util);
    }

    #[test]
    fn placement_optimization_reaches_328() {
        let base = fpga_cost(&table3_design(), &FpgaDevice::vu9p(), false);
        let opt = fpga_cost(&table3_design(), &FpgaDevice::vu9p(), true);
        let gain = opt.freq_mhz / base.freq_mhz;
        assert!((gain - 1.247).abs() < 1e-9);
        assert!(
            (opt.freq_mhz - 328.0).abs() < 20.0,
            "optimized freq = {}",
            opt.freq_mhz
        );
    }

    #[test]
    fn multicast_fanout_hurts_frequency() {
        let gemm = workloads::gemm(64, 64, 64);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let sys = Dataflow::analyze(
            &gemm,
            sel.clone(),
            Stt::output_stationary(),
        )
        .unwrap();
        let mc = Dataflow::analyze(
            &gemm,
            sel,
            Stt::from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).unwrap(),
        )
        .unwrap();
        let cfg = HwConfig::default();
        let dev = FpgaDevice::vu9p();
        let f_sys = fpga_cost(&generate(&sys, &cfg).unwrap(), &dev, false).freq_mhz;
        let f_mc = fpga_cost(&generate(&mc, &cfg).unwrap(), &dev, false).freq_mhz;
        assert!(f_mc < f_sys, "multicast {f_mc} !< systolic {f_sys}");
    }

    #[test]
    fn int16_uses_fewer_resources_than_fp32() {
        let gemm = workloads::gemm(64, 64, 64);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
        let dev = FpgaDevice::vu9p();
        let d16 = generate(&df, &HwConfig::default()).unwrap();
        let d32 = generate(
            &df,
            &HwConfig {
                datatype: DataType::Fp32,
                ..HwConfig::default()
            },
        )
        .unwrap();
        let r16 = fpga_cost(&d16, &dev, false);
        let r32 = fpga_cost(&d32, &dev, false);
        assert!(r16.dsps < r32.dsps);
        assert!(r16.luts < r32.luts);
    }
}
