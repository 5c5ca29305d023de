//! Bit-exact functional simulation of a generated design.
//!
//! Every (tile, cycle, PE) slot recovers its loop point through the inverse
//! STT (`x = T⁻¹·[p; t]`), performs one multiply-accumulate on real data, and
//! the accumulated output is compared against the reference executor. This
//! closes the loop on the whole analysis chain: if the dataflow
//! classification, tiling, or transformation math were wrong, outputs would
//! disagree or coverage would be incomplete.
//!
//! The simulator also measures *true* scratchpad traffic: a tensor element is
//! charged to the cycle of its first use inside a tile (later uses ride the
//! reuse structure — stationary registers, systolic forwarding, or multicast
//! fan-out), which is exactly the paper's premise that reuse saves bandwidth.

use std::collections::HashMap;
use std::fmt;

use serde::Serialize;
use tensorlib_hw::design::AcceleratorDesign;
use tensorlib_ir::{DenseTensor, Kernel};

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
    if let Some(budget) = cycle_budget {
        let outer_idx = design.dataflow().selection().outer_indices(kernel);
        let outer_points: u64 = outer_idx
            .iter()
            .map(|&i| kernel.loop_nest().iters()[i].extent())
            .product();
        let tiles: u64 = design.tiling().tile_counts.iter().product();
        let needed = outer_points
            .saturating_mul(tiles)
            .saturating_mul(design.tiling().t_extent);
        if needed > budget {
            return Err(SimError::CycleBudgetExceeded { budget, needed });
        }
    }
    let inputs = kernel.random_inputs(seed);
    let reference = kernel
        .execute_reference(&inputs)
        .expect("self-generated inputs fit the kernel");

    let dataflow = design.dataflow();
    let stt = dataflow.stt();
    let tiling = *design.tiling();
    let array = design.config().array;
    let sel_idx = dataflow.selection().indices();
    let sel_ext = dataflow.selected_extents();
    let outer_idx = dataflow.selection().outer_indices(kernel);
    let outer_ext: Vec<u64> = outer_idx
        .iter()
        .map(|&i| kernel.loop_nest().iters()[i].extent())
        .collect();
    let n_loops = kernel.loop_nest().len();

    let input_decls = kernel.inputs();
    let out_access = kernel.output().access().clone();
    let mut out = DenseTensor::zeros(&kernel.output_dims());

    let mut macs_executed = 0u64;
    let mut cycles_simulated = 0u64;
    let mut total_new_words = 0u64;
    let mut peak_new_words = 0u64;

    // Enumerate outer loop points.
    let outer_points = OdometerIter::new(&outer_ext);
    for outer_point in outer_points {
        // Enumerate tiles of the selected loops.
        let tile_counts = tiling.tile_counts;
        let tiles = OdometerIter::new(&tile_counts);
        for tile in tiles {
            // First-use tracking for traffic accounting, per tile.
            let mut first_use: HashMap<(usize, Vec<i64>), u64> = HashMap::new();
            let mut per_cycle_new: Vec<u64> = vec![0; tiling.t_extent as usize];
            for t_local in 0..tiling.t_extent as i64 {
                cycles_simulated += 1;
                for pe_r in 0..array.rows as i64 {
                    for pe_c in 0..array.cols as i64 {
                        let st = [
                            pe_r - tiling.space_offset[0],
                            pe_c - tiling.space_offset[1],
                            t_local - tiling.t_offset,
                        ];
                        let Some(x_local) = stt.unapply(&st) else {
                            continue;
                        };
                        // Inside the tile?
                        let mut global_sel = [0i64; 3];
                        let mut ok = true;
                        for d in 0..3 {
                            if x_local[d] < 0 || x_local[d] >= tiling.tile_extents[d] as i64 {
                                ok = false;
                                break;
                            }
                            let g = tile[d] as i64 * tiling.tile_extents[d] as i64 + x_local[d];
                            if g >= sel_ext[d] as i64 {
                                ok = false;
                                break;
                            }
                            global_sel[d] = g;
                        }
                        if !ok {
                            continue;
                        }
                        // Assemble the full loop point.
                        let mut point = vec![0i64; n_loops];
                        for d in 0..3 {
                            point[sel_idx[d]] = global_sel[d];
                        }
                        for (oi, &li) in outer_idx.iter().enumerate() {
                            point[li] = outer_point[oi] as i64;
                        }
                        // One MAC.
                        let mut prod = 1i64;
                        for (ti, decl) in input_decls.iter().enumerate() {
                            let idx = decl.access().eval(&point);
                            prod *= inputs[ti].get(&idx);
                            first_use
                                .entry((ti, idx))
                                .or_insert_with(|| {
                                    per_cycle_new[t_local as usize] += 1;
                                    t_local as u64
                                });
                        }
                        out.accumulate(&out_access.eval(&point), prod);
                        macs_executed += 1;
                    }
                }
            }
            for &n in &per_cycle_new {
                total_new_words += n;
                peak_new_words = peak_new_words.max(n);
            }
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

    let slots = cycles_simulated * array.pes() as u64;
    Ok(FunctionalRun {
        matches_reference: true,
        cycles_simulated,
        macs_executed,
        avg_new_words_per_cycle: total_new_words as f64 / cycles_simulated.max(1) as f64,
        peak_new_words_per_cycle: peak_new_words,
        pe_busy_fraction: macs_executed as f64 / slots.max(1) as f64,
    })
}

/// Odometer over a multi-dimensional extent box (empty extents yield a single
/// empty point — the natural unit for "no outer loops").
struct OdometerIter {
    extents: Vec<u64>,
    current: Vec<u64>,
    done: bool,
}

impl OdometerIter {
    fn new(extents: &[u64]) -> OdometerIter {
        OdometerIter {
            extents: extents.to_vec(),
            current: vec![0; extents.len()],
            done: extents.contains(&0),
        }
    }
}

impl Iterator for OdometerIter {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        if self.done {
            return None;
        }
        let out = self.current.clone();
        for d in (0..self.current.len()).rev() {
            self.current[d] += 1;
            if self.current[d] < self.extents[d] {
                return Some(out);
            }
            self.current[d] = 0;
        }
        self.done = true;
        Some(out)
    }
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
