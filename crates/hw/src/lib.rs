//! Hardware generation for TensorLib dataflows: netlist IR, the paper's
//! Figure 3 PE templates, Figure 4 array interconnect, banked scratchpad,
//! controller, and Verilog emission.
//!
//! The paper implements this layer as parameterized Chisel templates; this
//! crate substitutes a compact structural netlist IR (see `DESIGN.md`). The
//! generation pipeline mirrors the paper's bottom-up flow, in two stages.
//! [`design::plan`] computes everything the cost and cycle models read:
//!
//! 1. [`pe::PeIoKind::for_flow`] selects a per-tensor PE-internal template
//!    from the classified dataflow.
//! 2. [`pe::build_pe`] assembles the PE around the computation cell.
//! 3. [`array::array_catalog`] describes the array's top-level ports, one
//!    group per tensor (systolic feeds and drains, multicast lines,
//!    reduction-tree sums, load chains, unicast ports), and its
//!    reduction-tree census.
//! 4. [`tiling::tile_for_array`] fits the selected loops onto the array.
//! 5. [`ctrl::build_controller`] sequences load / compute / drain.
//! 6. Memory banks ([`mem::MemBank`]) are planned one per array port.
//! 7. The [`design::ResourceSummary`] census prices the plan.
//!
//! [`design::DesignPlan::build`] then builds the netlist around the plan:
//!
//! 8. [`array::build_array`] instantiates the PE grid and wires the
//!    catalog's ports to it; [`array::ArrayCatalog::tree_modules`] builds
//!    the reduction trees.
//! 9. The top level wires the controller, the banks and the array.
//!
//! [`design::generate`] runs both stages; [`verilog::emit_design`] prints
//! RTL. Scoring a candidate needs only the plan, so design-space
//! exploration stops after stage one.
//!
//! # Examples
//!
//! ```
//! use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
//! use tensorlib_hw::design::{generate, HwConfig};
//! use tensorlib_ir::workloads;
//!
//! let gemm = workloads::gemm(64, 64, 64);
//! let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"])?;
//! let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())?;
//! let design = generate(&df, &HwConfig::default()).expect("wireable");
//! design.validate().expect("structurally sound");
//! let verilog = tensorlib_hw::verilog::emit_design(&design);
//! assert!(verilog.contains("module"));
//! # Ok::<(), tensorlib_dataflow::DataflowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod batch;
pub mod ctrl;
pub mod design;
pub mod fault;
pub mod fuzz;
pub mod interp;
pub mod mem;
pub mod netlist;
pub mod opt;
pub mod pe;
pub mod text;
pub mod tiling;
pub mod trace;
pub mod verilog;
pub mod yosys;

pub use array::{ArrayConfig, HwError};
pub use fault::{FaultKind, FaultSpec, Hardening};
pub use trace::{InterpreterStats, TraceConfig, TraceEvent};
pub use design::{generate, plan, AcceleratorDesign, DesignPlan, HwConfig, ResourceSummary};
