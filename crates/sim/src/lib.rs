//! Cycle-accurate simulation of generated spatial accelerators.
//!
//! Two complementary engines:
//!
//! - [`functional::simulate`] executes a design **exactly**: it walks the
//!   STT forward once per design into a per-tile schedule of
//!   (loop point, PE, cycle) slots, performs one multiply-accumulate per
//!   slot, and the final output tensor is compared bit-exactly
//!   against the [`tensorlib_ir`] reference executor. It also measures true
//!   per-cycle scratchpad traffic by tracking which tensor elements must be
//!   newly delivered versus reused in place/forwarded.
//! - [`perf::estimate`] is the fast analytical cycle model used for the
//!   paper's Figure 5 sweeps: per-tile compute cycles (with systolic skew),
//!   double-buffered load/drain overlap, reduction-tree fill, and bandwidth
//!   stalls against the configured scratchpad bandwidth.
//!
//! The two agree on compute-cycle counts by construction (both derive them
//! from the tiling's time extent); tests enforce it.
//!
//! A third, measured path closes the loop: [`trace::measure`] runs the
//! generated top level in the netlist interpreter with hardware counters
//! attached (PE activity, bank traffic, controller breakdown — see
//! `tensorlib_hw::trace`), and [`perf::cross_check`] compares those measured
//! counters against the analytic model.
//!
//! # Examples
//!
//! ```
//! use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
//! use tensorlib_hw::design::{generate, HwConfig};
//! use tensorlib_sim::{functional, perf, SimConfig};
//! use tensorlib_ir::workloads;
//!
//! let gemm = workloads::gemm(32, 32, 32);
//! let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"])?;
//! let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())?;
//! let design = generate(&df, &HwConfig::default()).expect("wireable");
//!
//! // Bit-exact functional check.
//! let run = functional::simulate(&design, &gemm, 42).expect("matches reference");
//! assert!(run.matches_reference);
//!
//! // Analytical performance estimate.
//! let report = perf::estimate(&design, &gemm, &SimConfig::default());
//! assert!(report.total_cycles > 0);
//! # Ok::<(), tensorlib_dataflow::DataflowError>(())
//! ```

// `deny` rather than `forbid`: the `interrupt` module carries the single
// `allow(unsafe_code)` in the workspace (a two-line libc `signal` binding
// for SIGINT draining); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod functional;
pub mod interrupt;
pub mod journal;
pub mod perf;
pub mod resilience;
mod schedule;
pub mod trace;
pub mod verify;

pub use config::{SimConfig, SimReport};
pub use functional::{simulate_budgeted, FunctionalRun, SimError};
pub use journal::{DurabilityOptions, Journal, JournalError, RunStats};
pub use resilience::{CampaignConfig, CampaignError, FaultClass, ResilienceReport};
pub use trace::{InterpreterStats, MeasuredRun, MeasureError, TraceConfig};
pub use verify::{run_verify_durable, VerifyConfig, VerifyReport};
