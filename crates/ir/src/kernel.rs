//! Kernels: einsum-of-products tensor computations over a perfect loop nest.

use std::fmt;

use serde::Serialize;

use crate::{AccessMap, DenseTensor, LoopNest};

/// Whether a tensor is read or accumulated by the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TensorRole {
    /// The tensor is an input operand (read-only).
    Input,
    /// The tensor is the output accumulator (`+=`).
    Output,
}

impl fmt::Display for TensorRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorRole::Input => write!(f, "input"),
            TensorRole::Output => write!(f, "output"),
        }
    }
}

/// One tensor operand of a kernel: a name, a role, and its access matrix.
///
/// # Examples
///
/// ```
/// use tensorlib_ir::{AccessMap, AffineExpr, LoopNest, TensorDecl, TensorRole};
/// let nest = LoopNest::new(vec![("i", 2), ("j", 2), ("k", 2)]);
/// let a = TensorDecl::new(
///     "A",
///     TensorRole::Input,
///     AccessMap::new(vec![AffineExpr::var(&nest, "i"), AffineExpr::var(&nest, "k")]),
/// );
/// assert_eq!(a.name(), "A");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct TensorDecl {
    name: String,
    role: TensorRole,
    access: AccessMap,
}

impl TensorDecl {
    /// Creates a tensor declaration.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(name: impl Into<String>, role: TensorRole, access: AccessMap) -> TensorDecl {
        let name = name.into();
        assert!(!name.is_empty(), "tensor name must be nonempty");
        TensorDecl { name, role, access }
    }

    /// The tensor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tensor's role.
    pub fn role(&self) -> TensorRole {
        self.role
    }

    /// The tensor's access map.
    pub fn access(&self) -> &AccessMap {
        &self.access
    }
}

/// Error produced when constructing or executing a malformed [`Kernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The kernel has no output tensor.
    MissingOutput,
    /// The kernel has more than one output tensor.
    MultipleOutputs,
    /// The kernel has no input tensors.
    MissingInputs,
    /// Two tensors share a name.
    DuplicateTensor(String),
    /// An access map's arity disagrees with the loop nest.
    ArityMismatch {
        /// The offending tensor.
        tensor: String,
        /// Its access-map arity.
        arity: usize,
        /// The nest's iterator count.
        nest: usize,
    },
    /// `execute_reference` was given the wrong number of inputs.
    InputCountMismatch {
        /// Inputs expected by the kernel.
        expected: usize,
        /// Inputs provided.
        got: usize,
    },
    /// An input tensor's dimensions disagree with the kernel's loop bounds.
    InputDimMismatch {
        /// The offending tensor.
        tensor: String,
        /// Dimensions required by the access map and loop extents.
        expected: Vec<usize>,
        /// Dimensions provided.
        got: Vec<usize>,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::MissingOutput => write!(f, "kernel has no output tensor"),
            KernelError::MultipleOutputs => write!(f, "kernel has multiple output tensors"),
            KernelError::MissingInputs => write!(f, "kernel has no input tensors"),
            KernelError::DuplicateTensor(n) => write!(f, "duplicate tensor name {n:?}"),
            KernelError::ArityMismatch { tensor, arity, nest } => write!(
                f,
                "tensor {tensor:?} access map has arity {arity}, loop nest has {nest} iterators"
            ),
            KernelError::InputCountMismatch { expected, got } => {
                write!(f, "expected {expected} input tensors, got {got}")
            }
            KernelError::InputDimMismatch {
                tensor,
                expected,
                got,
            } => write!(
                f,
                "input tensor {tensor:?} has dims {got:?}, kernel requires {expected:?}"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// A tensor-algebra kernel: `Out[A_out·x] += Π_i In_i[A_i·x]` over a perfect
/// loop nest.
///
/// This form covers every workload in the paper's Table II, including the
/// three-input MTTKRP and TTMc kernels.
///
/// # Examples
///
/// ```
/// use tensorlib_ir::workloads;
/// let k = workloads::gemm(2, 2, 2);
/// assert_eq!(k.inputs().len(), 2);
/// assert_eq!(k.output().name(), "C");
/// assert_eq!(k.macs(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Kernel {
    name: String,
    nest: LoopNest,
    tensors: Vec<TensorDecl>,
}

impl Kernel {
    /// Creates and validates a kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] if there is not exactly one output tensor,
    /// there are no inputs, tensor names repeat, or any access map's arity
    /// disagrees with the loop nest.
    pub fn new(
        name: impl Into<String>,
        nest: LoopNest,
        tensors: Vec<TensorDecl>,
    ) -> Result<Kernel, KernelError> {
        let outputs = tensors
            .iter()
            .filter(|t| t.role() == TensorRole::Output)
            .count();
        if outputs == 0 {
            return Err(KernelError::MissingOutput);
        }
        if outputs > 1 {
            return Err(KernelError::MultipleOutputs);
        }
        if tensors.len() == outputs {
            return Err(KernelError::MissingInputs);
        }
        for (i, a) in tensors.iter().enumerate() {
            for b in &tensors[i + 1..] {
                if a.name() == b.name() {
                    return Err(KernelError::DuplicateTensor(a.name().to_string()));
                }
            }
            if a.access().arity() != nest.len() {
                return Err(KernelError::ArityMismatch {
                    tensor: a.name().to_string(),
                    arity: a.access().arity(),
                    nest: nest.len(),
                });
            }
        }
        Ok(Kernel {
            name: name.into(),
            nest,
            tensors,
        })
    }

    /// The kernel's name (e.g. `"GEMM"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The loop nest.
    pub fn loop_nest(&self) -> &LoopNest {
        &self.nest
    }

    /// All tensor operands, inputs and output, in declaration order.
    pub fn tensors(&self) -> &[TensorDecl] {
        &self.tensors
    }

    /// The input tensors in declaration order.
    pub fn inputs(&self) -> Vec<&TensorDecl> {
        self.tensors
            .iter()
            .filter(|t| t.role() == TensorRole::Input)
            .collect()
    }

    /// The unique output tensor.
    pub fn output(&self) -> &TensorDecl {
        self.tensors
            .iter()
            .find(|t| t.role() == TensorRole::Output)
            .expect("validated kernels have exactly one output")
    }

    /// The tensor named `name`, if any.
    pub fn tensor(&self, name: &str) -> Option<&TensorDecl> {
        self.tensors.iter().find(|t| t.name() == name)
    }

    /// Total multiply-accumulate operations (one per loop point).
    pub fn macs(&self) -> u64 {
        self.nest.total_points()
    }

    /// The dimensions each input tensor must have, in input order.
    pub fn input_dims(&self) -> Vec<Vec<usize>> {
        self.inputs()
            .iter()
            .map(|t| t.access().dim_extents(&self.nest))
            .collect()
    }

    /// The dimensions of the output tensor.
    pub fn output_dims(&self) -> Vec<usize> {
        self.output().access().dim_extents(&self.nest)
    }

    /// Generates deterministic random inputs of the right shapes.
    ///
    /// # Examples
    ///
    /// ```
    /// use tensorlib_ir::workloads;
    /// let k = workloads::mttkrp(3, 3, 3, 3);
    /// let ins = k.random_inputs(1);
    /// assert_eq!(ins.len(), 3);
    /// ```
    pub fn random_inputs(&self, seed: u64) -> Vec<DenseTensor> {
        self.input_dims()
            .iter()
            .enumerate()
            .map(|(i, dims)| DenseTensor::random(dims, seed.wrapping_add(i as u64)))
            .collect()
    }

    /// Executes the kernel exactly, walking every loop point in lexicographic
    /// order. This is the ground truth generated accelerators are checked
    /// against.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] if the number or shape of `inputs` does not
    /// match the kernel.
    pub fn execute_reference(&self, inputs: &[DenseTensor]) -> Result<DenseTensor, KernelError> {
        let decls = self.inputs();
        if inputs.len() != decls.len() {
            return Err(KernelError::InputCountMismatch {
                expected: decls.len(),
                got: inputs.len(),
            });
        }
        for (decl, t) in decls.iter().zip(inputs) {
            let expected = decl.access().dim_extents(&self.nest);
            if t.dims() != expected.as_slice() {
                return Err(KernelError::InputDimMismatch {
                    tensor: decl.name().to_string(),
                    expected,
                    got: t.dims().to_vec(),
                });
            }
        }
        let mut out = DenseTensor::zeros(&self.output_dims());
        let out_access = self.output().access().clone();
        for point in self.nest.points() {
            let mut prod = 1i64;
            for (decl, t) in decls.iter().zip(inputs) {
                prod *= t.get(&decl.access().eval(&point));
            }
            out.accumulate(&out_access.eval(&point), prod);
        }
        Ok(out)
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = self.nest.names();
        write!(f, "{}: for ({}) ", self.name, self.nest)?;
        write!(
            f,
            "{}{} += ",
            self.output().name(),
            self.output().access().display_with(&names)
        )?;
        for (i, t) in self.inputs().iter().enumerate() {
            if i > 0 {
                write!(f, " * ")?;
            }
            write!(f, "{}{}", t.name(), t.access().display_with(&names))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AffineExpr;

    fn gemm_tensors(nest: &LoopNest) -> Vec<TensorDecl> {
        vec![
            TensorDecl::new(
                "A",
                TensorRole::Input,
                AccessMap::new(vec![
                    AffineExpr::var(nest, "m"),
                    AffineExpr::var(nest, "k"),
                ]),
            ),
            TensorDecl::new(
                "B",
                TensorRole::Input,
                AccessMap::new(vec![
                    AffineExpr::var(nest, "n"),
                    AffineExpr::var(nest, "k"),
                ]),
            ),
            TensorDecl::new(
                "C",
                TensorRole::Output,
                AccessMap::new(vec![
                    AffineExpr::var(nest, "m"),
                    AffineExpr::var(nest, "n"),
                ]),
            ),
        ]
    }

    #[test]
    fn validation_rules() {
        let nest = LoopNest::new(vec![("m", 2), ("n", 2), ("k", 2)]);
        let ok = Kernel::new("gemm", nest.clone(), gemm_tensors(&nest));
        assert!(ok.is_ok());

        // No output.
        let mut ts = gemm_tensors(&nest);
        ts.pop();
        assert_eq!(
            Kernel::new("x", nest.clone(), ts).unwrap_err(),
            KernelError::MissingOutput
        );

        // Duplicate names.
        let mut ts = gemm_tensors(&nest);
        let dup = ts[0].clone();
        ts.push(dup);
        assert!(matches!(
            Kernel::new("x", nest.clone(), ts).unwrap_err(),
            KernelError::DuplicateTensor(_)
        ));

        // Arity mismatch.
        let small_nest = LoopNest::new(vec![("m", 2), ("n", 2)]);
        assert!(matches!(
            Kernel::new("x", small_nest, gemm_tensors(&nest)).unwrap_err(),
            KernelError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn gemm_reference_matches_naive() {
        let nest = LoopNest::new(vec![("m", 3), ("n", 4), ("k", 5)]);
        let k = Kernel::new("gemm", nest, gemm_tensors(&LoopNest::new(vec![
            ("m", 3),
            ("n", 4),
            ("k", 5),
        ])))
        .unwrap();
        let inputs = k.random_inputs(99);
        let out = k.execute_reference(&inputs).unwrap();
        // Naive check: C[m][n] = sum_k A[m][k] * B[n][k].
        for m in 0..3i64 {
            for n in 0..4i64 {
                let mut acc = 0;
                for kk in 0..5i64 {
                    acc += inputs[0].get(&[m, kk]) * inputs[1].get(&[n, kk]);
                }
                assert_eq!(out.get(&[m, n]), acc);
            }
        }
    }

    #[test]
    fn execute_rejects_bad_inputs() {
        let nest = LoopNest::new(vec![("m", 2), ("n", 2), ("k", 2)]);
        let k = Kernel::new("gemm", nest.clone(), gemm_tensors(&nest)).unwrap();
        assert!(matches!(
            k.execute_reference(&[]).unwrap_err(),
            KernelError::InputCountMismatch { .. }
        ));
        let bad = vec![DenseTensor::zeros(&[3, 3]), DenseTensor::zeros(&[2, 2])];
        assert!(matches!(
            k.execute_reference(&bad).unwrap_err(),
            KernelError::InputDimMismatch { .. }
        ));
    }

    #[test]
    fn accessors_and_display() {
        let nest = LoopNest::new(vec![("m", 2), ("n", 2), ("k", 2)]);
        let k = Kernel::new("gemm", nest.clone(), gemm_tensors(&nest)).unwrap();
        assert_eq!(k.name(), "gemm");
        assert_eq!(k.macs(), 8);
        assert_eq!(k.inputs().len(), 2);
        assert_eq!(k.output().name(), "C");
        assert!(k.tensor("A").is_some());
        assert!(k.tensor("Z").is_none());
        assert_eq!(k.input_dims(), vec![vec![2, 2], vec![2, 2]]);
        assert_eq!(k.output_dims(), vec![2, 2]);
        let s = k.to_string();
        assert!(s.contains("gemm"));
        assert!(s.contains("+="));
    }

    #[test]
    fn error_display_messages() {
        assert!(KernelError::MissingOutput.to_string().contains("output"));
        assert!(KernelError::InputCountMismatch { expected: 2, got: 1 }
            .to_string()
            .contains("expected 2"));
    }
}
