//! TensorLib: a spatial-accelerator generation framework for tensor algebra.
//!
//! A Rust reproduction of *TensorLib: A Spatial Accelerator Generation
//! Framework for Tensor Algebra* (DAC 2021). Given a tensor kernel as a
//! perfect affine loop nest and a Space-Time Transformation matrix, TensorLib:
//!
//! 1. classifies every tensor's hardware dataflow from its reuse subspace
//!    ([`tensorlib_dataflow`]),
//! 2. generates a complete accelerator — PE templates, array interconnect,
//!    banked scratchpad, controller — as a structural netlist with Verilog
//!    emission ([`tensorlib_hw`]),
//! 3. simulates it cycle-accurately and bit-exactly ([`tensorlib_sim`]), and
//! 4. estimates ASIC power/area and FPGA resources/frequency
//!    ([`tensorlib_cost`]).
//!
//! This crate is the facade: [`Accelerator`] for the one-design path and
//! [`explore`](crate::explore::explore) for full design-space sweeps.
//!
//! # Quickstart
//!
//! ```
//! use tensorlib::Accelerator;
//! use tensorlib_ir::workloads;
//!
//! // An output-stationary 8×8 GEMM accelerator, verified bit-exactly
//! // against a software reference, then costed.
//! let acc = Accelerator::builder(workloads::gemm(32, 32, 32))
//!     .dataflow_name("MNK-SST")
//!     .array(8, 8)
//!     .build()?;
//! assert!(acc.verify(42)?.matches_reference);
//! let perf = acc.performance(&Default::default());
//! println!("{} cycles, {:.1}% of peak", perf.total_cycles,
//!          100.0 * perf.normalized_perf);
//! # Ok::<(), tensorlib::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
mod error;
pub mod explore;

pub use accelerator::{Accelerator, AcceleratorBuilder, EnergyReport};
pub use error::Error;

// Re-export the sub-crates so downstream users need a single dependency.
pub use tensorlib_cost as cost;
pub use tensorlib_dataflow as dataflow;
pub use tensorlib_hw as hw;
pub use tensorlib_ir as ir;
pub use tensorlib_linalg as linalg;
pub use tensorlib_sim as sim;

// Convenience re-exports of the most-used types.
pub use tensorlib_cost::{Activity, AsicReport, FpgaDevice, FpgaReport};
pub use tensorlib_dataflow::{Dataflow, FlowClass, LoopSelection, Stt};
pub use tensorlib_hw::{AcceleratorDesign, ArrayConfig, DesignPlan, HwConfig, ResourceSummary};
pub use tensorlib_ir::{DataType, DenseTensor, Kernel, LoopNest};
pub use tensorlib_sim::{FunctionalRun, InterpreterStats, MeasuredRun, SimConfig, SimReport, TraceConfig};
