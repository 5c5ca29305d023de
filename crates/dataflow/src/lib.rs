//! Space-Time Transformation (STT) dataflow analysis — the core contribution
//! of TensorLib (DAC 2021).
//!
//! A spatial accelerator executes a loop nest by assigning every loop point
//! `x` a place and a time: `[p; t] = T·x`, where `p` is a 2-D PE coordinate
//! and `t` a cycle number. Because a tensor access `I = A·x` is many-to-one,
//! the *same* tensor element is touched by a whole affine subspace of loop
//! points; pushed through `T`, that subspace becomes the **reuse subspace**
//! in space-time, and its rank and orientation determine the hardware
//! dataflow of that tensor (paper Table I):
//!
//! | rank | shape                | dataflow |
//! |------|----------------------|----------|
//! | 0    | point                | unicast |
//! | 1    | `dp = 0, dt ≠ 0`     | stationary |
//! | 1    | `dp ≠ 0, dt ≠ 0`     | systolic |
//! | 1    | `dp ≠ 0, dt = 0`     | multicast (reduction tree for outputs) |
//! | 2    | plane ⊥ t-axis       | broadcast |
//! | 2    | plane ∥ t-axis       | multicast + stationary |
//! | 2    | plane ∦ t-axis       | systolic + multicast |
//!
//! This crate implements that analysis exactly (in integer arithmetic), plus:
//!
//! - [`Stt`]: validated space-time transformation matrices.
//! - [`LoopSelection`]: the choice of three loops mapped to space-time; the
//!   rest run sequentially outside.
//! - [`classify_tensor`] / [`FlowClass`]: the Table I classification.
//! - [`Dataflow`]: the complete per-kernel analysis with paper-style names
//!   such as `KCX-SST`.
//! - [`dse`]: exhaustive enumeration of the dataflow design space.
//!
//! # Examples
//!
//! Reproduce the paper's running example — for GEMM with
//! `T = [[1,0,0],[0,1,0],[1,1,1]]`, tensor `A[m,k]` is systolic with reuse
//! vector `(dp, dt) = (0, 1, 1)`:
//!
//! ```
//! use tensorlib_dataflow::{Dataflow, LoopSelection, Stt, FlowClass};
//! use tensorlib_ir::workloads;
//!
//! let gemm = workloads::gemm(16, 16, 16);
//! let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"])?;
//! let stt = Stt::from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 1]])?;
//! let df = Dataflow::analyze(&gemm, sel, stt)?;
//! assert_eq!(
//!     df.tensor_flow("A").unwrap().class,
//!     FlowClass::Systolic { dp: [0, 1], dt: 1 }
//! );
//! assert_eq!(df.name(), "MNK-SST");
//! # Ok::<(), tensorlib_dataflow::DataflowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod dataflow;
pub mod dse;
mod error;
mod selection;
mod stt;

pub use classify::{classify_tensor, FlowClass, TensorFlow};
pub use dataflow::Dataflow;
pub use error::DataflowError;
pub use selection::LoopSelection;
pub use stt::Stt;
