//! Elimination-based solvers: rank, inverse, null space, pseudo-inverse.

use crate::{Frac, Mat};

/// Greatest common divisor of two non-negative `i128` values.
///
/// `gcd(0, 0) == 0` by convention.
///
/// # Examples
///
/// ```
/// use tensorlib_linalg::gcd_i128;
/// assert_eq!(gcd_i128(12, 18), 6);
/// assert_eq!(gcd_i128(0, 5), 5);
/// ```
pub fn gcd_i128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple of two `i128` values (absolute value).
///
/// # Examples
///
/// ```
/// use tensorlib_linalg::lcm_i128;
/// assert_eq!(lcm_i128(4, 6), 12);
/// assert_eq!(lcm_i128(0, 6), 0);
/// ```
pub fn lcm_i128(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        0
    } else {
        (a / gcd_i128(a, b) * b).abs()
    }
}

/// Scales a rational vector to the shortest integer vector with the same
/// direction, with sign chosen so the first nonzero entry is positive.
///
/// Returns `None` for the zero vector.
///
/// This is how reuse directions are canonicalized: the STT null-space basis
/// comes out rational, but a hardware reuse vector `(dp, dt)` must be the
/// primitive integer step between consecutive reuses of the same element.
///
/// # Examples
///
/// ```
/// use tensorlib_linalg::{primitive_integer_vector, Frac};
/// let v = [Frac::new(-1, 2), Frac::new(1, 4)];
/// assert_eq!(primitive_integer_vector(&v), Some(vec![2, -1]));
/// ```
pub fn primitive_integer_vector(v: &[Frac]) -> Option<Vec<i64>> {
    if v.iter().all(|f| f.is_zero()) {
        return None;
    }
    let denom_lcm = v.iter().fold(1i128, |l, f| lcm_i128(l, f.denom()));
    let ints: Vec<i128> = v.iter().map(|f| f.numer() * (denom_lcm / f.denom())).collect();
    let g = ints.iter().fold(0i128, |g, &x| gcd_i128(g, x));
    let mut out: Vec<i128> = ints.iter().map(|&x| x / g).collect();
    if let Some(first) = out.iter().find(|&&x| x != 0) {
        if *first < 0 {
            for x in &mut out {
                *x = -*x;
            }
        }
    }
    out.into_iter()
        .map(|x| i64::try_from(x).ok())
        .collect::<Option<Vec<i64>>>()
}

impl Mat {
    /// Reduces the matrix to reduced row-echelon form.
    ///
    /// Returns the RREF matrix together with the list of pivot column indices.
    pub fn rref(&self) -> (Mat, Vec<usize>) {
        let mut m = self.clone();
        let mut pivots = Vec::new();
        let mut r = 0;
        for c in 0..m.cols() {
            if r == m.rows() {
                break;
            }
            // Find a pivot row with a nonzero entry in column c.
            let Some(p) = (r..m.rows()).find(|&i| !m[(i, c)].is_zero()) else {
                continue;
            };
            // Swap into place.
            if p != r {
                for j in 0..m.cols() {
                    let tmp = m[(r, j)];
                    m[(r, j)] = m[(p, j)];
                    m[(p, j)] = tmp;
                }
            }
            // Normalize pivot row.
            let inv = m[(r, c)].recip();
            for j in 0..m.cols() {
                m[(r, j)] *= inv;
            }
            // Eliminate the column everywhere else.
            for i in 0..m.rows() {
                if i != r && !m[(i, c)].is_zero() {
                    let f = m[(i, c)];
                    for j in 0..m.cols() {
                        let sub = f * m[(r, j)];
                        m[(i, j)] -= sub;
                    }
                }
            }
            pivots.push(c);
            r += 1;
        }
        (m, pivots)
    }

    /// The rank of the matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use tensorlib_linalg::Mat;
    /// assert_eq!(Mat::from_i64(&[&[1, 2], &[2, 4]]).rank(), 1);
    /// ```
    pub fn rank(&self) -> usize {
        self.rref().1.len()
    }

    /// The determinant of a square matrix, by fraction-free-ish Gaussian
    /// elimination over exact rationals.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn determinant(&self) -> Frac {
        assert!(self.is_square(), "determinant requires a square matrix");
        let n = self.rows();
        let mut m = self.clone();
        let mut det = Frac::ONE;
        for c in 0..n {
            let Some(p) = (c..n).find(|&i| !m[(i, c)].is_zero()) else {
                return Frac::ZERO;
            };
            if p != c {
                det = -det;
                for j in 0..n {
                    let tmp = m[(c, j)];
                    m[(c, j)] = m[(p, j)];
                    m[(p, j)] = tmp;
                }
            }
            det *= m[(c, c)];
            let inv = m[(c, c)].recip();
            for i in (c + 1)..n {
                if !m[(i, c)].is_zero() {
                    let f = m[(i, c)] * inv;
                    for j in c..n {
                        let sub = f * m[(c, j)];
                        m[(i, j)] -= sub;
                    }
                }
            }
        }
        det
    }

    /// The inverse of a square matrix, or `None` if it is singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    ///
    /// # Examples
    ///
    /// ```
    /// use tensorlib_linalg::Mat;
    /// let t = Mat::from_i64(&[&[1, 0, 0], &[0, 1, 0], &[1, 1, 1]]);
    /// let inv = t.inverse().unwrap();
    /// assert_eq!(&t * &inv, Mat::identity(3));
    /// ```
    pub fn inverse(&self) -> Option<Mat> {
        assert!(self.is_square(), "inverse requires a square matrix");
        let n = self.rows();
        let aug = self.hstack(&Mat::identity(n));
        let (r, pivots) = aug.rref();
        if pivots.len() != n || pivots.iter().enumerate().any(|(i, &p)| p != i) {
            return None;
        }
        Some(Mat::from_fn(n, n, |i, j| r[(i, j + n)]))
    }

    /// A basis for the (right) null space `{ x : A·x = 0 }`.
    ///
    /// Each returned column of the result is one basis vector; the matrix has
    /// `cols() × nullity` shape. Returns a `cols() × 0` matrix for full column
    /// rank.
    ///
    /// # Examples
    ///
    /// ```
    /// use tensorlib_linalg::Mat;
    /// // Access matrix of A[i, k] in the (i, j, k) loop nest: reuse along j.
    /// let a = Mat::from_i64(&[&[1, 0, 0], &[0, 0, 1]]);
    /// let ns = a.null_space();
    /// assert_eq!((ns.rows(), ns.cols()), (3, 1));
    /// assert!((&a * &ns).is_zero());
    /// ```
    pub fn null_space(&self) -> Mat {
        let (r, pivots) = self.rref();
        let free: Vec<usize> = (0..self.cols()).filter(|c| !pivots.contains(c)).collect();
        let mut basis = Mat::zeros(self.cols(), free.len());
        for (k, &fc) in free.iter().enumerate() {
            basis[(fc, k)] = Frac::ONE;
            for (row, &pc) in pivots.iter().enumerate() {
                basis[(pc, k)] = -r[(row, fc)];
            }
        }
        basis
    }

    /// The Moore–Penrose pseudo-inverse, computed from a rank factorization
    /// `A = C·F` as `A⁺ = Fᵀ(FFᵀ)⁻¹(CᵀC)⁻¹Cᵀ`.
    ///
    /// For the full-rank matrices STT produces this coincides with the
    /// one-sided inverses; the general form keeps Equation (3) of the paper
    /// (`E − (AT⁻¹)⁻(AT⁻¹)` as the reuse projector) valid for any access
    /// matrix.
    pub fn pseudo_inverse(&self) -> Mat {
        let (r, pivots) = self.rref();
        let rank = pivots.len();
        if rank == 0 {
            return Mat::zeros(self.cols(), self.rows());
        }
        // C: the pivot columns of A (rows x rank); F: first `rank` rows of rref (rank x cols).
        let c = self.select_cols(&pivots);
        let f = Mat::from_fn(rank, self.cols(), |i, j| r[(i, j)]);
        let ctc_inv = (&c.transpose() * &c)
            .inverse()
            .expect("CᵀC is invertible for full column rank C");
        let fft_inv = (&f * &f.transpose())
            .inverse()
            .expect("FFᵀ is invertible for full row rank F");
        &(&(&f.transpose() * &fft_inv) * &ctc_inv) * &c.transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd_i128(0, 0), 0);
        assert_eq!(gcd_i128(-12, 18), 6);
        assert_eq!(lcm_i128(3, 5), 15);
        assert_eq!(lcm_i128(-4, 6), 12);
    }

    #[test]
    fn primitive_vector_normalization() {
        let v = [Frac::new(2, 3), Frac::new(-4, 3)];
        assert_eq!(primitive_integer_vector(&v), Some(vec![1, -2]));
        let zero = [Frac::ZERO, Frac::ZERO];
        assert_eq!(primitive_integer_vector(&zero), None);
        // Leading sign normalization.
        let neg = [Frac::ZERO, Frac::from(-3i64), Frac::from(6i64)];
        assert_eq!(primitive_integer_vector(&neg), Some(vec![0, 1, -2]));
    }

    #[test]
    fn rref_and_rank() {
        let a = Mat::from_i64(&[&[1, 2, 3], &[2, 4, 6], &[1, 1, 1]]);
        assert_eq!(a.rank(), 2);
        let (r, pivots) = a.rref();
        assert_eq!(pivots, vec![0, 1]);
        // Third row must be all zeros in RREF.
        assert!(r.row(2).iter().all(|f| f.is_zero()));
    }

    #[test]
    fn determinant_values() {
        assert_eq!(
            Mat::from_i64(&[&[1, 2], &[3, 4]]).determinant(),
            Frac::from(-2i64)
        );
        assert_eq!(Mat::identity(4).determinant(), Frac::ONE);
        assert_eq!(
            Mat::from_i64(&[&[1, 2], &[2, 4]]).determinant(),
            Frac::ZERO
        );
        // Row swap sign.
        assert_eq!(
            Mat::from_i64(&[&[0, 1], &[1, 0]]).determinant(),
            Frac::from(-1i64)
        );
    }

    #[test]
    fn inverse_round_trip() {
        let t = Mat::from_i64(&[&[1, 0, 0], &[0, 1, 0], &[1, 1, 1]]);
        let inv = t.inverse().unwrap();
        assert_eq!(&t * &inv, Mat::identity(3));
        assert_eq!(&inv * &t, Mat::identity(3));
        assert!(Mat::from_i64(&[&[1, 2], &[2, 4]]).inverse().is_none());
    }

    #[test]
    fn null_space_annihilates() {
        let a = Mat::from_i64(&[&[1, 0, 0], &[0, 0, 1]]);
        let ns = a.null_space();
        assert_eq!(ns.cols(), 1);
        assert!((&a * &ns).is_zero());
        // Full-rank square matrix has empty null space.
        assert_eq!(Mat::identity(3).null_space().cols(), 0);
        // Rank-1 2x3 matrix has nullity 2.
        assert_eq!(Mat::from_i64(&[&[1, 1, 1]]).null_space().cols(), 2);
    }

    #[test]
    fn pseudo_inverse_properties() {
        // Full row rank: A · A⁺ = I.
        let a = Mat::from_i64(&[&[1, 0, 0], &[0, 0, 1]]);
        let p = a.pseudo_inverse();
        assert_eq!(&a * &p, Mat::identity(2));
        // Penrose condition 1: A A⁺ A = A.
        assert_eq!(&(&a * &p) * &a, a);
        // Penrose condition 2: A⁺ A A⁺ = A⁺.
        assert_eq!(&(&p * &a) * &p, p);
        // Rank-deficient case.
        let b = Mat::from_i64(&[&[1, 1], &[1, 1]]);
        let bp = b.pseudo_inverse();
        assert_eq!(&(&b * &bp) * &b, b);
        assert_eq!(&(&bp * &b) * &bp, bp);
        // Zero matrix maps to zero transpose shape.
        let z = Mat::zeros(2, 3);
        assert_eq!(z.pseudo_inverse(), Mat::zeros(3, 2));
    }

    #[test]
    fn reuse_projector_matches_null_space() {
        // Paper Eq. (3): the column space of E − (AT⁻¹)⁺(AT⁻¹) equals the
        // space-time reuse subspace T·null(A).
        let t = Mat::from_i64(&[&[1, 0, 0], &[0, 1, 0], &[0, 0, 1]]);
        let a = Mat::from_i64(&[&[1, 0, 0], &[0, 0, 1]]); // A[i,k]
        let at_inv = &a * &t.inverse().unwrap();
        let proj = &Mat::identity(3) - &(&at_inv.pseudo_inverse() * &at_inv);
        // proj column space must equal T * null(A).
        let expected = &t * &a.null_space();
        assert_eq!(proj.rank(), expected.cols());
        // Every column of `expected` is fixed by proj.
        assert_eq!(&proj * &expected, expected);
    }
}
