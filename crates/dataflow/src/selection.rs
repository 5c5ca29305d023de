//! Selecting three loops for space-time mapping.

use std::fmt;

use serde::Serialize;
use tensorlib_ir::Kernel;

use crate::DataflowError;

/// The choice of three loop iterators mapped to `(p1, p2, t)`; all remaining
/// loops execute sequentially outside the space-time tile.
///
/// The order matters: the first selected iterator is the first coordinate of
/// the vector `x` the STT matrix multiplies.
///
/// # Examples
///
/// ```
/// use tensorlib_dataflow::LoopSelection;
/// use tensorlib_ir::workloads;
///
/// let conv = workloads::conv2d(8, 8, 8, 8, 3, 3);
/// let sel = LoopSelection::by_names(&conv, ["k", "c", "x"])?;
/// assert_eq!(sel.tag(), "KCX");
/// assert_eq!(sel.outer_indices(&conv).len(), 3); // y, p, q stay sequential
/// # Ok::<(), tensorlib_dataflow::DataflowError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct LoopSelection {
    names: [String; 3],
    indices: [usize; 3],
}

impl LoopSelection {
    /// Selects three loops by name, in `(x1, x2, x3)` order.
    ///
    /// # Errors
    ///
    /// Returns [`DataflowError`] if the kernel has fewer than three loops, a
    /// name is unknown, or a name repeats.
    pub fn by_names(
        kernel: &Kernel,
        names: [&str; 3],
    ) -> Result<LoopSelection, DataflowError> {
        if kernel.loop_nest().len() < 3 {
            return Err(DataflowError::TooFewLoops {
                available: kernel.loop_nest().len(),
            });
        }
        let mut indices = [0usize; 3];
        for (i, name) in names.iter().enumerate() {
            indices[i] = kernel
                .loop_nest()
                .index_of(name)
                .ok_or_else(|| DataflowError::UnknownLoop(name.to_string()))?;
            if names[..i].contains(name) {
                return Err(DataflowError::DuplicateLoop(name.to_string()));
            }
        }
        Ok(LoopSelection {
            names: names.map(str::to_string),
            indices,
        })
    }

    /// Selects three loops by nest position, in `(x1, x2, x3)` order.
    ///
    /// # Errors
    ///
    /// Returns [`DataflowError`] on out-of-range or repeated indices.
    pub fn by_indices(kernel: &Kernel, indices: [usize; 3]) -> Result<LoopSelection, DataflowError> {
        let nest = kernel.loop_nest();
        if nest.len() < 3 {
            return Err(DataflowError::TooFewLoops {
                available: nest.len(),
            });
        }
        let mut names: [String; 3] = Default::default();
        for (i, &idx) in indices.iter().enumerate() {
            let it = nest
                .iters()
                .get(idx)
                .ok_or_else(|| DataflowError::UnknownLoop(format!("#{idx}")))?;
            if indices[..i].contains(&idx) {
                return Err(DataflowError::DuplicateLoop(it.name().to_string()));
            }
            names[i] = it.name().to_string();
        }
        Ok(LoopSelection { names, indices })
    }

    /// The selected iterator names in `(x1, x2, x3)` order.
    pub fn names(&self) -> [&str; 3] {
        [&self.names[0], &self.names[1], &self.names[2]]
    }

    /// The selected nest indices in `(x1, x2, x3)` order.
    pub fn indices(&self) -> [usize; 3] {
        self.indices
    }

    /// The extents of the selected loops.
    pub fn extents(&self, kernel: &Kernel) -> [u64; 3] {
        let e = kernel.loop_nest().extents();
        [
            e[self.indices[0]],
            e[self.indices[1]],
            e[self.indices[2]],
        ]
    }

    /// Nest indices of the loops *not* selected (the sequential outer loops),
    /// in nest order.
    pub fn outer_indices(&self, kernel: &Kernel) -> Vec<usize> {
        (0..kernel.loop_nest().len())
            .filter(|i| !self.indices.contains(i))
            .collect()
    }

    /// The paper-style selection tag: first letter of each selected iterator,
    /// uppercased — e.g. `KCX` for loops `(k, c, x)`.
    pub fn tag(&self) -> String {
        self.names
            .iter()
            .map(|n| {
                n.chars()
                    .next()
                    .expect("nonempty iterator name")
                    .to_ascii_uppercase()
            })
            .collect()
    }
}

impl fmt::Display for LoopSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_ir::workloads;

    #[test]
    fn selection_by_names() {
        let k = workloads::gemm(4, 4, 4);
        let sel = LoopSelection::by_names(&k, ["n", "k", "m"]).unwrap();
        assert_eq!(sel.names(), ["n", "k", "m"]);
        assert_eq!(sel.indices(), [1, 2, 0]);
        assert_eq!(sel.tag(), "NKM");
        assert_eq!(sel.extents(&k), [4, 4, 4]);
        assert!(sel.outer_indices(&k).is_empty());
    }

    #[test]
    fn selection_by_indices() {
        let k = workloads::conv2d(2, 3, 4, 5, 3, 3);
        let sel = LoopSelection::by_indices(&k, [0, 1, 3]).unwrap();
        assert_eq!(sel.names(), ["k", "c", "x"]);
        assert_eq!(sel.outer_indices(&k), vec![2, 4, 5]);
        assert_eq!(sel.extents(&k), [2, 3, 5]);
    }

    #[test]
    fn selection_errors() {
        let k = workloads::gemm(4, 4, 4);
        assert!(matches!(
            LoopSelection::by_names(&k, ["m", "n", "z"]).unwrap_err(),
            DataflowError::UnknownLoop(_)
        ));
        assert!(matches!(
            LoopSelection::by_names(&k, ["m", "m", "k"]).unwrap_err(),
            DataflowError::DuplicateLoop(_)
        ));
        assert!(matches!(
            LoopSelection::by_indices(&k, [0, 1, 9]).unwrap_err(),
            DataflowError::UnknownLoop(_)
        ));
        assert!(matches!(
            LoopSelection::by_indices(&k, [0, 0, 1]).unwrap_err(),
            DataflowError::DuplicateLoop(_)
        ));
    }

    #[test]
    fn display_is_tag() {
        let k = workloads::conv2d(2, 3, 4, 5, 3, 3);
        let sel = LoopSelection::by_names(&k, ["x", "y", "p"]).unwrap();
        assert_eq!(sel.to_string(), "XYP");
    }
}
