//! The analytical cycle model: per-tile phase timing with bandwidth stalls.
//!
//! Cycle anatomy of one tile (all quantities derived from the generated
//! design, never guessed):
//!
//! - **compute**: the tiling's time extent — systolic skew is inherent in the
//!   STT's time row, so it is already inside this number.
//! - **pipeline tails**: reduction-tree depth and systolic-output drain hops
//!   extend each tile's occupancy.
//! - **bandwidth stalls**: the array's streaming demand
//!   (`ResourceSummary::stream_bits_per_cycle` + output bits) against the
//!   configured scratchpad bandwidth; demand beyond bandwidth stretches the
//!   compute phase proportionally. This is what sinks unicast dataflows in
//!   the paper's MTTKRP/TTMc results.
//! - **load/drain**: stationary fills and drains overlap neighbouring tiles'
//!   compute thanks to double buffering; only the non-hidden remainder shows
//!   up, plus the first load and last drain.

use serde::Serialize;
use tensorlib_dataflow::FlowClass;
use tensorlib_hw::design::{AcceleratorDesign, DesignPlan};
use tensorlib_ir::Kernel;

use crate::trace::{measure, MeasureError, TraceConfig};
use crate::{SimConfig, SimReport};

/// Estimates execution of `kernel` on `design` under `cfg`. It reads only the
/// [`DesignPlan`], so a generated `AcceleratorDesign` estimates the same way.
///
/// # Panics
///
/// Panics if `kernel` is not the kernel the design's dataflow was analyzed
/// for (name mismatch).
///
/// # Examples
///
/// See the crate-level example in [`crate`].
pub fn estimate(design: &DesignPlan, kernel: &Kernel, cfg: &SimConfig) -> SimReport {
    let _span = tensorlib_obs::span("sim.cost_model");
    assert_eq!(
        design.dataflow().kernel_name(),
        kernel.name(),
        "design was generated for a different kernel"
    );
    let tiling = design.tiling();
    let summary = design.summary();
    let array = design.config().array;

    // Outer sequential loops (never selected for space-time mapping).
    let outer: u64 = design
        .dataflow()
        .selection()
        .outer_indices(kernel)
        .iter()
        .map(|&i| kernel.loop_nest().iters()[i].extent())
        .product();
    let tiles = outer * tiling.total_tiles();

    // Per-tile compute, including pipeline tails. The controller's compute
    // phase is the schedule's t-extent plus the streaming pipeline depth on
    // stationary-output designs (see `STREAM_PIPELINE_LATENCY`), so sourcing
    // it from the design keeps the analytic and measured models in lockstep.
    let mut tile_compute = design.phases().compute_cycles;
    tile_compute += pipeline_tail(design);

    // Bandwidth stall: streaming demand during compute.
    let demand_bytes =
        (summary.stream_bits_per_cycle + summary.output_bits_per_cycle) as f64 / 8.0;
    let stall_factor = (demand_bytes / cfg.bytes_per_cycle).max(1.0);
    let tile_compute_stalled = (tile_compute as f64 * stall_factor).ceil() as u64;

    // Load phase, stalled by its own demand (chain loads stream one word per
    // port per cycle).
    let phases = design.phases();
    let word_bytes = (design.config().datatype.bits() as f64 / 8.0).max(1.0);
    let load_ports = summary.chain_feed_ports.max(1) as f64;
    let load_demand = load_ports * word_bytes;
    let load_stall = (load_demand / cfg.bytes_per_cycle).max(1.0);
    let tile_load = (phases.load_cycles as f64 * load_stall).ceil() as u64;
    let tile_drain = phases.drain_cycles;

    // Steady state: load of tile i+1 and drain of tile i-1 overlap compute of
    // tile i (double buffering); the slowest phase dominates.
    let steady = tile_compute_stalled.max(tile_load).max(tile_drain);
    let total_cycles = tile_load + tiles * steady + tile_drain;

    let compute_cycles = tiles * tile_compute;
    let stall_cycles = tiles * (tile_compute_stalled - tile_compute);
    let exposed_load_cycles =
        tile_load + tiles * steady.saturating_sub(tile_compute_stalled.max(tile_drain));
    let macs = kernel.macs();
    let peak_slots = (array.pes() as u64) * total_cycles;
    let runtime_us = total_cycles as f64 / cfg.freq_mhz;
    SimReport {
        total_cycles,
        compute_cycles,
        stall_cycles,
        exposed_load_cycles,
        drain_cycles: tile_drain,
        tiles,
        macs,
        macs_per_cycle: macs as f64 / total_cycles as f64,
        normalized_perf: macs as f64 / peak_slots as f64,
        runtime_us,
        gops: 2.0 * macs as f64 / (runtime_us * 1e3),
    }
}

/// The analytic model lined up against measured interpreter counters for the
/// same design (see [`cross_check`]).
#[derive(Debug, Clone, Serialize)]
pub struct ModelCrossCheck {
    /// The analytic estimate.
    pub analytic: SimReport,
    /// Controller rounds the measured run executed.
    pub tiles_measured: u64,
    /// Total measured cycles (`1 + tiles × phases.total()`).
    pub measured_cycles: u64,
    /// Measured compute-phase cycles (`en` high).
    pub measured_compute_cycles: u64,
    /// Measured idle (stall) cycles.
    pub measured_stall_cycles: u64,
    /// Measured mean PE utilization over the whole run.
    pub measured_utilization: f64,
    /// Analytic cycles per tile (`total_cycles / tiles`).
    pub analytic_cycles_per_tile: f64,
    /// Measured non-idle cycles per controller round.
    pub measured_cycles_per_tile: f64,
    /// `measured_cycles_per_tile / analytic_cycles_per_tile`. The analytic
    /// model overlaps load/drain with compute (double buffering) while the
    /// generated FSM serializes the phases, so the ratio sits above 1 for
    /// stationary dataflows but must stay within a small constant factor.
    pub tile_cycle_ratio: f64,
}

/// Runs `design` in the netlist interpreter with counters attached
/// ([`crate::trace::measure`], `tiles` controller rounds) and lines the
/// measured cycle counts up against [`estimate`].
///
/// The measured per-tile compute is exact (`phases.compute_cycles`, shared
/// with the analytic model by construction); the interesting signal is
/// `tile_cycle_ratio`, which exposes how much phase serialization the real
/// FSM adds over the analytic steady-state overlap.
///
/// # Errors
///
/// Returns [`MeasureError`] if the design fails to elaborate.
///
/// # Panics
///
/// Panics if `kernel` is not the design's kernel (same contract as
/// [`estimate`]) or `tiles` is zero.
pub fn cross_check(
    design: &AcceleratorDesign,
    kernel: &Kernel,
    cfg: &SimConfig,
    tiles: u64,
) -> Result<ModelCrossCheck, MeasureError> {
    assert!(tiles > 0, "cross-check needs at least one tile");
    let analytic = estimate(design, kernel, cfg);
    let run = measure(design, &TraceConfig::counters_only(), tiles)?;
    let s = &run.stats;
    let measured_per_tile = (s.cycles - s.ctrl.idle_cycles) as f64 / tiles as f64;
    let analytic_per_tile = analytic.total_cycles as f64 / analytic.tiles.max(1) as f64;
    Ok(ModelCrossCheck {
        analytic,
        tiles_measured: tiles,
        measured_cycles: s.cycles,
        measured_compute_cycles: s.ctrl.compute_cycles,
        measured_stall_cycles: s.stall_cycles(),
        measured_utilization: s.utilization(),
        analytic_cycles_per_tile: analytic_per_tile,
        measured_cycles_per_tile: measured_per_tile,
        tile_cycle_ratio: measured_per_tile / analytic_per_tile,
    })
}

/// Extra cycles a tile occupies after its last input: reduction-tree depth
/// plus systolic-output drain hops.
fn pipeline_tail(design: &DesignPlan) -> u64 {
    let array = design.config().array;
    let mut tail = 0u64;
    for f in design.dataflow().flows() {
        match &f.class {
            FlowClass::ReductionTree { dp } => {
                let span = line_span(array.rows, array.cols, *dp);
                tail = tail.max((span as f64).log2().ceil() as u64);
            }
            FlowClass::Systolic { dp, dt } if f.role == tensorlib_ir::TensorRole::Output => {
                let hops = (array.rows as u64 - 1) * dp[0].unsigned_abs()
                    + (array.cols as u64 - 1) * dp[1].unsigned_abs();
                tail = tail.max(hops * dt.unsigned_abs());
            }
            _ => {}
        }
    }
    tail
}

/// Length of the longest PE line in direction `dp` on a `rows × cols` grid.
fn line_span(rows: usize, cols: usize, dp: [i64; 2]) -> usize {
    match (dp[0] != 0, dp[1] != 0) {
        (true, true) => rows.min(cols),
        (true, false) => rows,
        (false, true) => cols,
        (false, false) => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
    use tensorlib_hw::design::{generate, HwConfig};
    use tensorlib_ir::workloads;

    fn design_for(rows: [[i64; 3]; 3]) -> (AcceleratorDesign, Kernel) {
        let gemm = workloads::gemm(64, 64, 64);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&gemm, sel, Stt::from_rows(rows).unwrap()).unwrap();
        (generate(&df, &HwConfig::default()).unwrap(), gemm)
    }

    #[test]
    fn output_stationary_gemm_cycle_anatomy() {
        let (d, k) = design_for([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let r = estimate(&d, &k, &SimConfig::default());
        // 16 tiles of t_extent 94 (+load/drain edges).
        assert_eq!(r.tiles, 16);
        assert_eq!(r.macs, 64 * 64 * 64);
        assert!(r.total_cycles >= 16 * 94);
        assert!(r.normalized_perf > 0.5 && r.normalized_perf < 1.0);
        assert!(r.stall_cycles == 0, "2 feeds * 16 ports * 2B fits 100 B/cyc");
        assert!(r.runtime_us > 0.0 && r.gops > 0.0);
    }

    #[test]
    fn multicast_beats_systolic_on_gemm() {
        // Paper §VI-A: multicast (MTM) outperforms systolic (SST/STS) in
        // cycles because it avoids the skew overhead.
        let (mtm, k) = design_for([[0, 1, 0], [0, 0, 1], [1, 0, 0]]);
        let (sst, _) = design_for([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let cfg = SimConfig::default();
        let r_mtm = estimate(&mtm, &k, &cfg);
        let r_sst = estimate(&sst, &k, &cfg);
        assert!(
            r_mtm.total_cycles < r_sst.total_cycles,
            "MTM {} !< SST {}",
            r_mtm.total_cycles,
            r_sst.total_cycles
        );
    }

    #[test]
    fn unicast_stalls_on_bandwidth() {
        // Batched-GEMV forces unicast A: 256 ports * 2 bytes = 512 B/cycle
        // demanded vs 100 available -> big stall.
        let k = workloads::batched_gemv(64, 64, 64);
        let sel = LoopSelection::by_names(&k, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&k, sel, Stt::output_stationary()).unwrap();
        let d = generate(&df, &HwConfig::default()).unwrap();
        let r = estimate(&d, &k, &SimConfig::default());
        assert!(r.stall_cycles > 0);
        assert!(r.normalized_perf < 0.25, "perf = {}", r.normalized_perf);
    }

    #[test]
    fn small_loops_crater_utilization() {
        // Conv2D with p (extent 3) on a spatial dimension: at most 3/16 of
        // rows busy — the paper's XYP utilization cliff.
        let conv = workloads::conv2d(16, 16, 16, 16, 3, 3);
        let sel = LoopSelection::by_names(&conv, ["p", "x", "y"]).unwrap();
        let df = Dataflow::analyze(&conv, sel, Stt::identity()).unwrap();
        let d = generate(&df, &HwConfig::default()).unwrap();
        let r = estimate(&d, &conv, &SimConfig::default());
        assert!(
            r.normalized_perf <= 3.0 / 16.0 + 1e-9,
            "perf = {}",
            r.normalized_perf
        );
    }

    #[test]
    fn normalized_perf_is_bounded() {
        for rows in [
            [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], [0, 1, 0], [1, 1, 1]],
        ] {
            let (d, k) = design_for(rows);
            let r = estimate(&d, &k, &SimConfig::default());
            assert!(r.normalized_perf > 0.0 && r.normalized_perf <= 1.0);
            assert!(r.total_cycles >= r.compute_cycles / r.tiles.max(1));
        }
    }

    #[test]
    #[should_panic(expected = "different kernel")]
    fn kernel_mismatch_panics() {
        let (d, _) = design_for([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let other = workloads::mttkrp(8, 8, 8, 8);
        let _ = estimate(&d, &other, &SimConfig::default());
    }
}
