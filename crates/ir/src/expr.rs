//! Affine index expressions and access matrices.

use std::fmt;

use serde::Serialize;
use tensorlib_linalg::{Frac, Mat};

use crate::LoopNest;

/// A linear expression over loop iterators: `Σ coeff_i · iter_i`.
///
/// Tensor subscripts in the paper's workloads are linear in the iterators —
/// e.g. `A[c, y + p, x + q]` uses the expressions `c`, `y + p` and `x + q`.
/// Constant offsets are deliberately unsupported; the paper's Table II
/// kernels never need them and forbidding them keeps `I = A·x` exactly a
/// matrix product.
///
/// # Examples
///
/// ```
/// use tensorlib_ir::{AffineExpr, LoopNest};
/// let nest = LoopNest::new(vec![("y", 8), ("p", 3)]);
/// let e = AffineExpr::sum_of(&nest, &["y", "p"]);
/// assert_eq!(e.eval(&[5, 2]), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct AffineExpr {
    coeffs: Vec<i64>,
}

impl AffineExpr {
    /// Creates an expression from explicit coefficients, one per nest
    /// iterator in order.
    pub fn from_coeffs(coeffs: Vec<i64>) -> AffineExpr {
        AffineExpr { coeffs }
    }

    /// The expression that is just the iterator `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the nest.
    pub fn var(nest: &LoopNest, name: &str) -> AffineExpr {
        AffineExpr::sum_of(nest, &[name])
    }

    /// The expression `Σ names` (each with coefficient 1).
    ///
    /// # Panics
    ///
    /// Panics if any name is not in the nest.
    pub fn sum_of(nest: &LoopNest, names: &[&str]) -> AffineExpr {
        let mut coeffs = vec![0i64; nest.len()];
        for name in names {
            let idx = nest
                .index_of(name)
                .unwrap_or_else(|| panic!("unknown iterator {name:?}"));
            coeffs[idx] += 1;
        }
        AffineExpr { coeffs }
    }

    /// The coefficient vector, one entry per nest iterator.
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// Evaluates the expression at a loop point.
    ///
    /// # Panics
    ///
    /// Panics if `point` has the wrong length.
    pub fn eval(&self, point: &[i64]) -> i64 {
        assert_eq!(point.len(), self.coeffs.len(), "point arity mismatch");
        self.coeffs.iter().zip(point).map(|(&c, &x)| c * x).sum()
    }

    /// Returns `true` if the expression involves the iterator at `idx`.
    pub fn uses(&self, idx: usize) -> bool {
        self.coeffs.get(idx).is_some_and(|&c| c != 0)
    }
}

/// The access matrix `A` of one tensor reference: `I = A·x` maps a loop point
/// to a tensor index vector. One [`AffineExpr`] row per tensor dimension.
///
/// # Examples
///
/// ```
/// use tensorlib_ir::{AccessMap, AffineExpr, LoopNest};
/// let nest = LoopNest::new(vec![("i", 4), ("j", 4), ("k", 4)]);
/// // A[i, k]:
/// let a = AccessMap::new(vec![
///     AffineExpr::var(&nest, "i"),
///     AffineExpr::var(&nest, "k"),
/// ]);
/// assert_eq!(a.eval(&[1, 2, 3]), vec![1, 3]);
/// assert_eq!(a.to_mat().rank(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct AccessMap {
    rows: Vec<AffineExpr>,
}

impl AccessMap {
    /// Creates an access map from per-dimension expressions.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have differing arities.
    pub fn new(rows: Vec<AffineExpr>) -> AccessMap {
        assert!(!rows.is_empty(), "access map needs at least one dimension");
        let arity = rows[0].coeffs().len();
        assert!(
            rows.iter().all(|r| r.coeffs().len() == arity),
            "access map rows must agree on iterator count"
        );
        AccessMap { rows }
    }

    /// Number of tensor dimensions (rows of `A`).
    pub fn dims(&self) -> usize {
        self.rows.len()
    }

    /// Number of loop iterators (columns of `A`).
    pub fn arity(&self) -> usize {
        self.rows[0].coeffs().len()
    }

    /// The per-dimension expressions.
    pub fn exprs(&self) -> &[AffineExpr] {
        &self.rows
    }

    /// Evaluates the full index vector at a loop point.
    pub fn eval(&self, point: &[i64]) -> Vec<i64> {
        self.rows.iter().map(|r| r.eval(point)).collect()
    }

    /// The access matrix as an exact rational [`Mat`] (`dims × arity`).
    pub fn to_mat(&self) -> Mat {
        Mat::from_fn(self.dims(), self.arity(), |i, j| {
            Frac::from(self.rows[i].coeffs()[j])
        })
    }

    /// Restricts the access matrix to the given iterator columns (in order),
    /// yielding the `dims × selected` matrix used when three loops are chosen
    /// for space-time mapping.
    pub fn restrict_to(&self, iter_indices: &[usize]) -> Mat {
        self.to_mat().select_cols(iter_indices)
    }

    /// Returns `true` if any dimension uses the iterator at `idx`.
    pub fn uses_iter(&self, idx: usize) -> bool {
        self.rows.iter().any(|r| r.uses(idx))
    }

    /// Renders the access map with real iterator names, e.g. `[c, y+p, x+q]`.
    ///
    /// # Panics
    ///
    /// Panics if `names` has the wrong arity.
    pub fn display_with(&self, names: &[&str]) -> String {
        assert_eq!(names.len(), self.arity(), "iterator name arity mismatch");
        let mut out = String::from("[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let mut first = true;
            for (j, &c) in r.coeffs().iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push('+');
                }
                if c != 1 {
                    out.push_str(&format!("{c}*"));
                }
                out.push_str(names[j]);
                first = false;
            }
            if first {
                out.push('0');
            }
        }
        out.push(']');
        out
    }

    /// The extent of each tensor dimension implied by the loop extents:
    /// `max_x (A·x)[d] + 1`, requiring the minimum to be `0`.
    ///
    /// # Panics
    ///
    /// Panics if the arity disagrees with the nest, or if any dimension can
    /// evaluate negative (which would index out of bounds).
    pub fn dim_extents(&self, nest: &LoopNest) -> Vec<usize> {
        assert_eq!(self.arity(), nest.len(), "access map arity mismatch");
        let exts = nest.extents();
        self.rows
            .iter()
            .map(|r| {
                let mut max = 0i64;
                let mut min = 0i64;
                for (j, &c) in r.coeffs().iter().enumerate() {
                    let hi = exts[j] as i64 - 1;
                    if c >= 0 {
                        max += c * hi;
                    } else {
                        min += c * hi;
                    }
                }
                assert!(min >= 0, "access map can produce a negative index");
                (max + 1) as usize
            })
            .collect()
    }
}

impl fmt::Display for AccessMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let mut first = true;
            for (j, &c) in r.coeffs().iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    write!(f, "+")?;
                }
                if c != 1 {
                    write!(f, "{c}*")?;
                }
                write!(f, "x{j}")?;
                first = false;
            }
            if first {
                write!(f, "0")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nest3() -> LoopNest {
        LoopNest::new(vec![("i", 4), ("j", 5), ("k", 6)])
    }

    #[test]
    fn var_and_sum_expressions() {
        let nest = nest3();
        let i = AffineExpr::var(&nest, "i");
        assert_eq!(i.coeffs(), &[1, 0, 0]);
        let ik = AffineExpr::sum_of(&nest, &["i", "k"]);
        assert_eq!(ik.coeffs(), &[1, 0, 1]);
        assert_eq!(ik.eval(&[2, 9, 3]), 5);
        assert!(ik.uses(0));
        assert!(!ik.uses(1));
    }

    #[test]
    #[should_panic(expected = "unknown iterator")]
    fn unknown_iterator_panics() {
        let _ = AffineExpr::var(&nest3(), "zz");
    }

    #[test]
    fn access_map_eval_and_mat() {
        let nest = nest3();
        let a = AccessMap::new(vec![
            AffineExpr::var(&nest, "i"),
            AffineExpr::var(&nest, "k"),
        ]);
        assert_eq!(a.dims(), 2);
        assert_eq!(a.arity(), 3);
        assert_eq!(a.eval(&[1, 2, 3]), vec![1, 3]);
        let m = a.to_mat();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.rank(), 2);
        assert!(a.uses_iter(0));
        assert!(!a.uses_iter(1));
    }

    #[test]
    fn restriction_selects_columns() {
        let nest = nest3();
        let a = AccessMap::new(vec![AffineExpr::sum_of(&nest, &["i", "k"])]);
        let r = a.restrict_to(&[2, 0]);
        assert_eq!(r.rows(), 1);
        assert_eq!(r.cols(), 2);
        assert_eq!(r[(0, 0)], 1i64.into());
        assert_eq!(r[(0, 1)], 1i64.into());
    }

    #[test]
    fn dim_extents_handles_sums() {
        let nest = LoopNest::new(vec![("y", 8), ("p", 3)]);
        let a = AccessMap::new(vec![AffineExpr::sum_of(&nest, &["y", "p"])]);
        // max = 7 + 2 = 9, so extent 10 (the conv halo).
        assert_eq!(a.dim_extents(&nest), vec![10]);
    }

    #[test]
    fn display_is_readable() {
        let nest = nest3();
        let a = AccessMap::new(vec![AffineExpr::sum_of(&nest, &["i", "k"])]);
        assert_eq!(a.to_string(), "[x0+x2]");
    }
}
