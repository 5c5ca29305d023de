//! Bit-exact functional simulation of a generated design.
//!
//! The design's space-time schedule (`crate::schedule`) lists, once per
//! design, every loop point of a tile with its (PE, cycle) stamp under the
//! STT. Each outer point and tile replays those slots in cycle order, each
//! slot performs one multiply-accumulate on real data, and the accumulated
//! output is compared against the reference executor. This closes the loop
//! on the whole analysis chain: if the dataflow classification, tiling, or
//! transformation math were wrong, outputs would disagree or coverage would
//! be incomplete (a point stamped off the array never runs).
//!
//! The simulator also measures *true* scratchpad traffic: a tensor element is
//! charged to the cycle of its first use inside a tile (later uses ride the
//! reuse structure — stationary registers, systolic forwarding, or multicast
//! fan-out), which is exactly the paper's premise that reuse saves bandwidth.

use std::fmt;

use serde::Serialize;
use tensorlib_hw::design::AcceleratorDesign;
use tensorlib_ir::{DenseTensor, Kernel};

use crate::schedule::{self, OdometerIter};

/// Functional-simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The design was generated for a different kernel.
    KernelMismatch {
        /// Kernel the design was generated for.
        design_kernel: String,
        /// Kernel passed to the simulator.
        given_kernel: String,
    },
    /// Not every loop point was executed exactly once.
    CoverageGap {
        /// MACs the kernel requires.
        expected: u64,
        /// MACs the simulation executed.
        executed: u64,
    },
    /// The simulated output tensor disagrees with the reference executor.
    OutputMismatch {
        /// First mismatching index.
        index: Vec<i64>,
        /// Reference value.
        expected: i64,
        /// Simulated value.
        got: i64,
    },
    /// The run would exceed the caller's per-design-point cycle budget.
    CycleBudgetExceeded {
        /// The budget the caller set.
        budget: u64,
        /// Cycles the full run would have needed.
        needed: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::KernelMismatch {
                design_kernel,
                given_kernel,
            } => write!(
                f,
                "design was generated for kernel {design_kernel:?}, simulated with {given_kernel:?}"
            ),
            SimError::CoverageGap { expected, executed } => write!(
                f,
                "space-time mapping executed {executed} MACs, kernel requires {expected}"
            ),
            SimError::OutputMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "output mismatch at {index:?}: reference {expected}, simulated {got}"
            ),
            SimError::CycleBudgetExceeded { budget, needed } => write!(
                f,
                "design point needs {needed} simulated cycles, over the {budget}-cycle budget"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Statistics from a successful functional run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FunctionalRun {
    /// `true` — returned only when the output matched the reference.
    pub matches_reference: bool,
    /// Compute cycles simulated (tiles × tile time extent).
    pub cycles_simulated: u64,
    /// Multiply-accumulates executed.
    pub macs_executed: u64,
    /// Mean scratchpad words delivered per compute cycle (first-use
    /// accounting, inputs only).
    pub avg_new_words_per_cycle: f64,
    /// Worst single-cycle scratchpad demand in words.
    pub peak_new_words_per_cycle: u64,
    /// Fraction of (PE × cycle) slots that performed work.
    pub pe_busy_fraction: f64,
}

/// Runs the design on random inputs (deterministic per `seed`) and checks the
/// result against [`Kernel::execute_reference`].
///
/// # Errors
///
/// Returns [`SimError`] if the kernel mismatches the design, the mapping
/// leaves loop points uncovered (or covers them twice), or any output element
/// differs from the reference.
///
/// # Examples
///
/// See the crate-level example in [`crate`].
pub fn simulate(
    design: &AcceleratorDesign,
    kernel: &Kernel,
    seed: u64,
) -> Result<FunctionalRun, SimError> {
    simulate_budgeted(design, kernel, seed, None)
}

/// [`simulate`] with an optional per-run cycle budget. The total simulated
/// cycle count is known before any work happens (outer points × tiles ×
/// tile time extent), so an over-budget run fails fast with
/// [`SimError::CycleBudgetExceeded`] instead of grinding through it.
///
/// # Errors
///
/// Everything [`simulate`] returns, plus [`SimError::CycleBudgetExceeded`].
pub fn simulate_budgeted(
    design: &AcceleratorDesign,
    kernel: &Kernel,
    seed: u64,
    cycle_budget: Option<u64>,
) -> Result<FunctionalRun, SimError> {
    let _span = tensorlib_obs::span("sim.functional");
    tensorlib_obs::counter_add("sim.functional_runs", 1);
    if design.dataflow().kernel_name() != kernel.name() {
        return Err(SimError::KernelMismatch {
            design_kernel: design.dataflow().kernel_name().to_string(),
            given_kernel: kernel.name().to_string(),
        });
    }
    let dataflow = design.dataflow();
    let tiling = design.tiling();
    let sel_idx = dataflow.selection().indices();
    let sel_ext = dataflow.selected_extents();
    let outer_idx = dataflow.selection().outer_indices(kernel);
    let outer_ext: Vec<u64> = outer_idx
        .iter()
        .map(|&i| kernel.loop_nest().iters()[i].extent())
        .collect();
    let cycles_simulated = outer_ext
        .iter()
        .product::<u64>()
        .saturating_mul(tiling.total_tiles())
        .saturating_mul(tiling.t_extent);
    if let Some(budget) = cycle_budget.filter(|&b| cycles_simulated > b) {
        return Err(SimError::CycleBudgetExceeded {
            budget,
            needed: cycles_simulated,
        });
    }
    let inputs = kernel.random_inputs(seed);
    let reference = kernel
        .execute_reference(&inputs)
        .expect("self-generated inputs fit the kernel");

    let array = design.config().array;
    let slots = schedule::tile_slots(dataflow.stt(), tiling, &array);
    let input_decls = kernel.inputs();
    let out_access = kernel.output().access().clone();
    let mut out = DenseTensor::zeros(&kernel.output_dims());

    let mut macs_executed = 0u64;
    let mut total_new_words = 0u64;
    let mut peak_new_words = 0u64;
    // First-use tracking for traffic accounting: an input element is new to
    // a tile when its stamp is not the current (outer point, tile) serial.
    let mut stamps: Vec<Vec<u64>> = inputs.iter().map(|t| vec![0; t.len()]).collect();
    let mut serial = 0u64;
    let mut per_cycle_new: Vec<u64> = vec![0; tiling.t_extent as usize];
    let mut point = vec![0i64; kernel.loop_nest().len()];

    for outer_point in OdometerIter::new(&outer_ext) {
        for (oi, &li) in outer_idx.iter().enumerate() {
            point[li] = outer_point[oi] as i64;
        }
        for tile in OdometerIter::new(&tiling.tile_counts) {
            serial += 1;
            per_cycle_new.fill(0);
            'slots: for slot in &slots {
                for d in 0..3 {
                    let g = (tile[d] * tiling.tile_extents[d]) as i64 + slot.x[d];
                    // Clipped: an edge tile runs past the loop bound.
                    if g >= sel_ext[d] as i64 {
                        continue 'slots;
                    }
                    point[sel_idx[d]] = g;
                }
                // One MAC.
                let mut prod = 1i64;
                for (ti, decl) in input_decls.iter().enumerate() {
                    let off = inputs[ti].offset(&decl.access().eval(&point));
                    prod *= inputs[ti].as_slice()[off];
                    if stamps[ti][off] != serial {
                        stamps[ti][off] = serial;
                        per_cycle_new[slot.t] += 1;
                    }
                }
                out.accumulate(&out_access.eval(&point), prod);
                macs_executed += 1;
            }
            total_new_words += per_cycle_new.iter().sum::<u64>();
            peak_new_words = peak_new_words.max(*per_cycle_new.iter().max().unwrap_or(&0));
        }
    }

    if macs_executed != kernel.macs() {
        return Err(SimError::CoverageGap {
            expected: kernel.macs(),
            executed: macs_executed,
        });
    }
    // Bit-exact comparison.
    for (i, (&got, &want)) in out
        .as_slice()
        .iter()
        .zip(reference.as_slice().iter())
        .enumerate()
    {
        if got != want {
            // Recover the multi-dimensional index for the report.
            let mut rem = i;
            let dims = reference.dims();
            let mut idx = vec![0i64; dims.len()];
            for d in (0..dims.len()).rev() {
                idx[d] = (rem % dims[d]) as i64;
                rem /= dims[d];
            }
            return Err(SimError::OutputMismatch {
                index: idx,
                expected: want,
                got,
            });
        }
    }

    let pe_slots = cycles_simulated * array.pes() as u64;
    Ok(FunctionalRun {
        matches_reference: true,
        cycles_simulated,
        macs_executed,
        avg_new_words_per_cycle: total_new_words as f64 / cycles_simulated.max(1) as f64,
        peak_new_words_per_cycle: peak_new_words,
        pe_busy_fraction: macs_executed as f64 / pe_slots.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
    use tensorlib_hw::design::{generate, HwConfig};
    use tensorlib_hw::ArrayConfig;
    use tensorlib_ir::workloads;

    fn small_cfg() -> HwConfig {
        HwConfig {
            array: ArrayConfig::square(4),
            ..HwConfig::default()
        }
    }

    fn check(kernel: &Kernel, sel: [&str; 3], rows: [[i64; 3]; 3]) -> FunctionalRun {
        let selection = LoopSelection::by_names(kernel, sel).unwrap();
        let df = Dataflow::analyze(kernel, selection, Stt::from_rows(rows).unwrap()).unwrap();
        let design = generate(&df, &small_cfg()).unwrap();
        simulate(&design, kernel, 7).unwrap_or_else(|e| panic!("{}: {e}", df.name()))
    }

    #[test]
    fn gemm_output_stationary_matches() {
        let k = workloads::gemm(8, 8, 8);
        let run = check(&k, ["m", "n", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert!(run.matches_reference);
        assert_eq!(run.macs_executed, 512);
        assert!(run.pe_busy_fraction > 0.0);
    }

    #[test]
    fn gemm_weight_stationary_matches() {
        let k = workloads::gemm(8, 8, 8);
        let run = check(&k, ["m", "n", "k"], [[0, 0, 1], [0, 1, 0], [1, 1, 1]]);
        assert!(run.matches_reference);
    }

    #[test]
    fn gemm_multicast_matches() {
        let k = workloads::gemm(8, 8, 8);
        let run = check(&k, ["m", "n", "k"], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]);
        assert!(run.matches_reference);
    }

    #[test]
    fn conv2d_kcx_matches() {
        let k = workloads::conv2d(4, 4, 6, 6, 3, 3);
        let run = check(&k, ["k", "c", "x"], [[1, 0, 0], [0, 0, 1], [1, 1, 1]]);
        assert!(run.matches_reference);
        assert_eq!(run.macs_executed, k.macs());
    }

    #[test]
    fn mttkrp_matches() {
        let k = workloads::mttkrp(6, 6, 6, 6);
        let run = check(&k, ["i", "j", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert!(run.matches_reference);
    }

    #[test]
    fn ttmc_matches() {
        let k = workloads::ttmc(4, 4, 4, 4, 4);
        let run = check(&k, ["i", "j", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert!(run.matches_reference);
    }

    #[test]
    fn depthwise_matches() {
        let k = workloads::depthwise_conv(4, 6, 6, 3, 3);
        let run = check(&k, ["k", "y", "x"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert!(run.matches_reference);
    }

    #[test]
    fn batched_gemv_unicast_matches_and_is_traffic_heavy() {
        let k = workloads::batched_gemv(6, 6, 6);
        let run = check(&k, ["m", "n", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert!(run.matches_reference);
        // Unicast A: most uses are first uses.
        assert!(run.avg_new_words_per_cycle > 1.0);
    }

    #[test]
    fn reuse_cuts_traffic_versus_unicast() {
        // GEMM (full reuse) must deliver far fewer words per MAC than
        // Batched-GEMV (unicast A) on the same selection and STT.
        let g = workloads::gemm(8, 8, 8);
        let b = workloads::batched_gemv(8, 8, 8);
        let run_g = check(&g, ["m", "n", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let run_b = check(&b, ["m", "n", "k"], [[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let per_mac_g = run_g.avg_new_words_per_cycle * run_g.cycles_simulated as f64
            / run_g.macs_executed as f64;
        let per_mac_b = run_b.avg_new_words_per_cycle * run_b.cycles_simulated as f64
            / run_b.macs_executed as f64;
        assert!(
            per_mac_g < per_mac_b,
            "gemm {per_mac_g} words/MAC !< batched-gemv {per_mac_b}"
        );
    }

    #[test]
    fn kernel_mismatch_is_reported() {
        let k = workloads::gemm(8, 8, 8);
        let sel = LoopSelection::by_names(&k, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&k, sel, Stt::output_stationary()).unwrap();
        let design = generate(&df, &small_cfg()).unwrap();
        let other = workloads::mttkrp(4, 4, 4, 4);
        assert!(matches!(
            simulate(&design, &other, 0).unwrap_err(),
            SimError::KernelMismatch { .. }
        ));
    }

    #[test]
    fn cycle_budget_is_enforced_before_any_work() {
        let k = workloads::gemm(8, 8, 8);
        let sel = LoopSelection::by_names(&k, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&k, sel, Stt::output_stationary()).unwrap();
        let design = generate(&df, &small_cfg()).unwrap();
        // The unbudgeted run reports the true cycle count; a budget one
        // cycle below it must fail with exactly that count.
        let full = simulate_budgeted(&design, &k, 7, None).unwrap();
        let err = simulate_budgeted(&design, &k, 7, Some(full.cycles_simulated - 1)).unwrap_err();
        assert_eq!(
            err,
            SimError::CycleBudgetExceeded {
                budget: full.cycles_simulated - 1,
                needed: full.cycles_simulated
            }
        );
        assert!(err.to_string().contains("cycle budget"));
        // An exactly sufficient budget succeeds.
        let ok = simulate_budgeted(&design, &k, 7, Some(full.cycles_simulated)).unwrap();
        assert_eq!(ok, full);
    }

    #[test]
    fn error_display() {
        let e = SimError::CoverageGap {
            expected: 10,
            executed: 9,
        };
        assert!(e.to_string().contains("9"));
        let o = SimError::OutputMismatch {
            index: vec![1, 2],
            expected: 5,
            got: 6,
        };
        assert!(o.to_string().contains("[1, 2]"));
    }

    #[test]
    fn odometer_counts() {
        let pts: Vec<Vec<u64>> = OdometerIter::new(&[2, 3]).collect();
        assert_eq!(pts.len(), 6);
        // No extents: exactly one empty point.
        let unit: Vec<Vec<u64>> = OdometerIter::new(&[]).collect();
        assert_eq!(unit, vec![Vec::<u64>::new()]);
    }
}
