//! Space-Time Transformation matrices.

use std::fmt;

use serde::Serialize;
use tensorlib_linalg::{Frac, Mat};

use crate::DataflowError;

/// A validated 3×3 integer Space-Time Transformation matrix.
///
/// Rows 0 and 1 produce the two PE-array coordinates; row 2 produces the
/// cycle number: `[p1, p2, t]ᵀ = T · [x1, x2, x3]ᵀ` where `x` is the vector
/// of the three *selected* loop iterators.
///
/// Construction rejects singular matrices — the paper requires `T` to be full
/// rank so that each PE performs at most one operation per cycle.
///
/// # Examples
///
/// ```
/// use tensorlib_dataflow::Stt;
///
/// let t = Stt::from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 1]])?;
/// assert_eq!(t.apply(&[1, 2, 3]), [1, 2, 6]);           // the paper's example
/// assert_eq!(t.unapply(&[1, 2, 6]), Some([1, 2, 3]));
/// assert_eq!(t.det().abs(), 1);
/// # Ok::<(), tensorlib_dataflow::DataflowError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Stt {
    rows: [[i64; 3]; 3],
    det: i64,
}

impl Stt {
    /// Creates an STT matrix from integer rows.
    ///
    /// # Errors
    ///
    /// Returns [`DataflowError::SingularStt`] if the matrix has determinant
    /// zero.
    pub fn from_rows(rows: [[i64; 3]; 3]) -> Result<Stt, DataflowError> {
        let det = det3(&rows);
        if det == 0 {
            return Err(DataflowError::SingularStt);
        }
        Ok(Stt { rows, det })
    }

    /// The identity transformation (`p1 = x1`, `p2 = x2`, `t = x3`).
    pub fn identity() -> Stt {
        Stt {
            rows: [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            det: 1,
        }
    }

    /// The classic output-stationary systolic transformation
    /// `p = (x1, x2)`, `t = x1 + x2 + x3`.
    pub fn output_stationary() -> Stt {
        Stt {
            rows: [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
            det: 1,
        }
    }

    /// The raw integer rows.
    pub fn rows(&self) -> &[[i64; 3]; 3] {
        &self.rows
    }

    /// The determinant (never zero).
    pub fn det(&self) -> i64 {
        self.det
    }

    /// `true` if `|det| == 1`, i.e. the mapping is a bijection of the integer
    /// lattice. Non-unimodular transformations leave (PE, cycle) slots unused.
    pub fn is_unimodular(&self) -> bool {
        self.det.abs() == 1
    }

    /// Maps a selected-loop point to `[p1, p2, t]`.
    pub fn apply(&self, x: &[i64; 3]) -> [i64; 3] {
        let mut out = [0i64; 3];
        for (r, row) in self.rows.iter().enumerate() {
            out[r] = row[0] * x[0] + row[1] * x[1] + row[2] * x[2];
        }
        out
    }

    /// Maps a space-time point back to the loop point, if one exists on the
    /// integer lattice.
    ///
    /// For unimodular matrices this always succeeds; otherwise some
    /// space-time slots have no preimage and yield `None`.
    pub fn unapply(&self, st: &[i64; 3]) -> Option<[i64; 3]> {
        // Cramer's rule over integers: x_i = det(T with column i replaced) / det(T).
        let mut x = [0i64; 3];
        for i in 0..3 {
            let mut m = self.rows;
            for (r, row) in m.iter_mut().enumerate() {
                row[i] = st[r];
            }
            let d = det3(&m);
            if d % self.det != 0 {
                return None;
            }
            x[i] = d / self.det;
        }
        Some(x)
    }

    /// The matrix as an exact rational [`Mat`].
    pub fn to_mat(&self) -> Mat {
        Mat::from_fn(3, 3, |i, j| Frac::from(self.rows[i][j]))
    }

    /// The exact inverse `T⁻¹` as a rational matrix.
    pub fn inverse_mat(&self) -> Mat {
        self.to_mat()
            .inverse()
            .expect("validated STT matrices are invertible")
    }

    /// The inclusive range of each space-time coordinate when the selected
    /// loops have the given extents: returns `[(min, max); 3]` for
    /// `(p1, p2, t)`.
    ///
    /// Because the map is linear and the domain is a box, each coordinate's
    /// extrema are attained at box corners, computed per-term.
    pub fn space_time_bounds(&self, extents: &[u64; 3]) -> [(i64, i64); 3] {
        let mut out = [(0i64, 0i64); 3];
        for (r, row) in self.rows.iter().enumerate() {
            let mut lo = 0i64;
            let mut hi = 0i64;
            for (j, &c) in row.iter().enumerate() {
                let e = extents[j] as i64 - 1;
                if c >= 0 {
                    hi += c * e;
                } else {
                    lo += c * e;
                }
            }
            out[r] = (lo, hi);
        }
        out
    }
}

impl fmt::Display for Stt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?}; {:?}; {:?}]",
            self.rows[0], self.rows[1], self.rows[2]
        )
    }
}

fn det3(m: &[[i64; 3]; 3]) -> i64 {
    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_singular() {
        assert_eq!(
            Stt::from_rows([[1, 0, 0], [2, 0, 0], [0, 0, 1]]).unwrap_err(),
            DataflowError::SingularStt
        );
    }

    #[test]
    fn paper_running_example() {
        // Figure 1(b): i=1, j=2, k=3 executes at PE (1,2) at cycle 6.
        let t = Stt::output_stationary();
        assert_eq!(t.apply(&[1, 2, 3]), [1, 2, 6]);
    }

    #[test]
    fn apply_unapply_round_trip() {
        let t = Stt::from_rows([[0, 0, 1], [0, 1, 0], [1, 1, 1]]).unwrap();
        for x in [[0, 0, 0], [1, 2, 3], [5, 0, 7], [3, 3, 3]] {
            let st = t.apply(&x);
            assert_eq!(t.unapply(&st), Some(x));
        }
    }

    #[test]
    fn non_unimodular_has_gaps() {
        let t = Stt::from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]).unwrap();
        assert_eq!(t.det(), 2);
        assert!(!t.is_unimodular());
        // (1, 0, 0) has no integer preimage: x1 = 1/2.
        assert_eq!(t.unapply(&[1, 0, 0]), None);
        assert_eq!(t.unapply(&[2, 0, 0]), Some([1, 0, 0]));
    }

    #[test]
    fn inverse_mat_is_exact() {
        let t = Stt::output_stationary();
        let prod = &t.to_mat() * &t.inverse_mat();
        assert_eq!(prod, Mat::identity(3));
    }

    #[test]
    fn bounds_cover_negative_coefficients() {
        let t = Stt::from_rows([[1, -1, 0], [0, 1, 0], [0, 0, 1]]).unwrap();
        let b = t.space_time_bounds(&[4, 4, 2]);
        assert_eq!(b[0], (-3, 3));
        assert_eq!(b[1], (0, 3));
        assert_eq!(b[2], (0, 1));
    }

    #[test]
    fn display_and_identity() {
        assert_eq!(Stt::identity().apply(&[4, 5, 6]), [4, 5, 6]);
        assert!(Stt::identity().to_string().contains("[1, 0, 0]"));
    }
}
