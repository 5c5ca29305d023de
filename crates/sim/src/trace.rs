//! Measured-counter harness: runs a generated design's *top level* (banks +
//! controller + array) in the netlist interpreter with the observability
//! layer attached, and returns the hardware counters.
//!
//! This is the measured side of the analytic-vs-measured cross-check in
//! [`crate::perf::cross_check`]. The protocol is fixed so the resulting
//! counters are hand-computable:
//!
//! 1. every *input* bank is preloaded with a nonzero ramp (so a PE's
//!    `product` is nonzero exactly when real operands have reached it);
//! 2. `start` is pulsed and held;
//! 3. the design runs for `1 + tiles × phases.total()` cycles — one idle
//!    handshake cycle plus `tiles` complete load/compute/drain rounds of the
//!    free-running controller FSM.
//!
//! With that schedule the controller breakdown is exact: `compute_cycles =
//! tiles × phases.compute_cycles`, likewise for load/drain, and exactly one
//! idle (stall) cycle — the `start` handshake.

use tensorlib_hw::design::AcceleratorDesign;
use tensorlib_hw::interp::{elaborate_design, ElaborateError, Interpreter};
use tensorlib_hw::HwError;

pub use tensorlib_hw::trace::{
    parse_vcd, BankCounters, CtrlCounters, InterpreterStats, PeCounters, TraceConfig,
    TraceEvent, VcdChange, VcdDocument, VcdParseError, VcdSignal,
};

/// Failure of the measurement harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureError {
    /// The design would not flatten.
    Elaborate(ElaborateError),
    /// Bank preload or trace attachment failed.
    Hw(HwError),
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Elaborate(e) => write!(f, "elaboration failed: {e}"),
            MeasureError::Hw(e) => write!(f, "measurement setup failed: {e}"),
        }
    }
}

impl std::error::Error for MeasureError {}

impl From<ElaborateError> for MeasureError {
    fn from(e: ElaborateError) -> MeasureError {
        MeasureError::Elaborate(e)
    }
}

impl From<HwError> for MeasureError {
    fn from(e: HwError) -> MeasureError {
        MeasureError::Hw(e)
    }
}

/// The result of one measured run.
#[derive(Debug, Clone)]
pub struct MeasuredRun {
    /// The accumulated hardware counters.
    pub stats: InterpreterStats,
    /// Controller rounds executed.
    pub tiles: u64,
    /// Total cycles stepped (`1 + tiles × phases.total()`).
    pub cycles_run: u64,
    /// The interpreter, still live — for VCD export or further inspection.
    pub sim: Interpreter,
}

/// Preloads every input bank of `sim` (bound per `design`) with a nonzero
/// ramp. Word `i` carries `(i mod 97) + 1`, so every streamed operand is
/// nonzero and fits any datatype the generator emits.
///
/// # Errors
///
/// Returns [`HwError`] if a bank index or capacity disagrees with the design
/// (cannot happen for a freshly elaborated top, but the `Result` keeps the
/// panic out of the public API).
pub fn fill_input_banks(
    sim: &mut Interpreter,
    design: &AcceleratorDesign,
) -> Result<(), HwError> {
    for (bi, binding) in design.bank_bindings().iter().enumerate() {
        if !design.port_group(binding).kind.is_input() {
            continue;
        }
        let bank = design.bank(binding);
        let mult = if bank.is_double_buffered() { 2 } else { 1 };
        let cap = (bank.words() * mult) as usize;
        let words: Vec<u64> = (0..cap).map(|i| (i as u64 % 97) + 1).collect();
        sim.load_bank(bi, &words)?;
    }
    Ok(())
}

/// Elaborates `design`'s top module, attaches `cfg`, and runs `tiles`
/// controller rounds under the fixed protocol described at module level.
///
/// # Errors
///
/// Returns [`MeasureError`] if elaboration fails or `cfg` watches an unknown
/// net.
pub fn measure(
    design: &AcceleratorDesign,
    cfg: &TraceConfig,
    tiles: u64,
) -> Result<MeasuredRun, MeasureError> {
    let _span = tensorlib_obs::span("sim.measure");
    let flat = elaborate_design(design, design.top())?;
    let mut sim = Interpreter::with_trace(flat, cfg)?;
    fill_input_banks(&mut sim, design)?;
    sim.poke("start", 1);
    let cycles_run = 1 + tiles * design.phases().total();
    for _ in 0..cycles_run {
        sim.step();
    }
    let stats = sim.stats().cloned().unwrap_or_default();
    Ok(MeasuredRun {
        stats,
        tiles,
        cycles_run,
        sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
    use tensorlib_hw::design::{generate, HwConfig};
    use tensorlib_hw::ArrayConfig;
    use tensorlib_ir::workloads;

    fn os_gemm_design(n: usize) -> AcceleratorDesign {
        let gemm = workloads::gemm(n as u64, n as u64, n as u64);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
        generate(
            &df,
            &HwConfig {
                array: ArrayConfig::square(n),
                ..HwConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn measure_reports_exact_controller_phase_multiples() {
        let design = os_gemm_design(4);
        let phases = design.phases();
        let tiles = 2u64;
        let run = measure(&design, &TraceConfig::counters_only(), tiles).unwrap();
        let s = &run.stats;
        assert_eq!(s.cycles, run.cycles_run);
        assert_eq!(s.ctrl.compute_cycles, tiles * phases.compute_cycles);
        assert_eq!(s.ctrl.load_cycles, tiles * phases.load_cycles);
        assert_eq!(s.ctrl.drain_cycles, tiles * phases.drain_cycles);
        assert_eq!(s.ctrl.idle_cycles, 1, "only the start handshake stalls");
        assert_eq!(s.ctrl.swap_pulses, tiles, "one ping-pong per tile");
        assert_eq!(s.pes.len(), 16);
        assert!(s.utilization() > 0.0);
        assert_eq!(s.total_bank_conflicts(), 0);
    }

    #[test]
    fn measure_surfaces_unknown_watch_nets() {
        let design = os_gemm_design(3);
        let cfg = TraceConfig::counters_only().with_watch(["no_such_net"]);
        assert!(matches!(
            measure(&design, &cfg, 1),
            Err(MeasureError::Hw(HwError::UnknownNet { .. }))
        ));
    }
}
