//! Property-based tests for the exact linear algebra kernel.
//!
//! These exercise the algebraic laws that the STT analysis relies on: field
//! axioms for `Frac`, rank/null-space duality, inverse round trips, and the
//! Penrose conditions for the pseudo-inverse.

use proptest::prelude::*;
use tensorlib_linalg::{primitive_integer_vector, Frac, Mat};

fn small_frac() -> impl Strategy<Value = Frac> {
    (-20i128..=20, 1i128..=6).prop_map(|(n, d)| Frac::new(n, d))
}

fn small_mat(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(small_frac(), rows * cols).prop_map(move |v| {
        let mut idx = 0;
        Mat::from_fn(rows, cols, |_, _| {
            let f = v[idx];
            idx += 1;
            f
        })
    })
}

fn int_mat(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-3i64..=3, rows * cols).prop_map(move |v| {
        let mut idx = 0;
        Mat::from_fn(rows, cols, |_, _| {
            let f = Frac::from(v[idx]);
            idx += 1;
            f
        })
    })
}

proptest! {
    #[test]
    fn frac_field_axioms(a in small_frac(), b in small_frac(), c in small_frac()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + Frac::ZERO, a);
        prop_assert_eq!(a * Frac::ONE, a);
        prop_assert_eq!(a - a, Frac::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a * a.recip(), Frac::ONE);
        }
    }

    #[test]
    fn frac_ordering_total(a in small_frac(), b in small_frac()) {
        let lt = a < b;
        let gt = a > b;
        let eq = a == b;
        prop_assert_eq!(lt as u8 + gt as u8 + eq as u8, 1);
        prop_assert_eq!(a.min(b) <= a.max(b), true);
    }

    #[test]
    fn matrix_ring_laws(a in small_mat(3, 3), b in small_mat(3, 3), c in small_mat(3, 3)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!((&a * &b).transpose(), &b.transpose() * &a.transpose());
    }

    #[test]
    fn rank_bounds_and_transpose_invariance(a in int_mat(3, 4)) {
        let r = a.rank();
        prop_assert!(r <= 3);
        prop_assert_eq!(r, a.transpose().rank());
        // Rank–nullity.
        prop_assert_eq!(r + a.null_space().cols(), 4);
    }

    #[test]
    fn null_space_is_annihilated(a in int_mat(2, 4)) {
        let ns = a.null_space();
        prop_assert!((&a * &ns).is_zero());
        // Basis is full column rank.
        prop_assert_eq!(ns.rank(), ns.cols());
    }

    #[test]
    fn inverse_round_trip(a in int_mat(3, 3)) {
        if let Some(inv) = a.inverse() {
            prop_assert_eq!(&a * &inv, Mat::identity(3));
            prop_assert_eq!(&inv * &a, Mat::identity(3));
            prop_assert!(!a.determinant().is_zero());
        } else {
            prop_assert!(a.determinant().is_zero());
        }
    }

    #[test]
    fn determinant_is_multiplicative(a in int_mat(3, 3), b in int_mat(3, 3)) {
        prop_assert_eq!((&a * &b).determinant(), a.determinant() * b.determinant());
    }

    #[test]
    fn pseudo_inverse_penrose_conditions(a in int_mat(2, 3)) {
        let p = a.pseudo_inverse();
        prop_assert_eq!(&(&a * &p) * &a, a.clone());
        prop_assert_eq!(&(&p * &a) * &p, p.clone());
        // Symmetry of the projectors (Penrose 3 & 4).
        let ap = &a * &p;
        let pa = &p * &a;
        prop_assert_eq!(ap.transpose(), ap);
        prop_assert_eq!(pa.transpose(), pa);
    }

    #[test]
    fn primitive_vector_is_primitive(v in proptest::collection::vec(small_frac(), 1..5)) {
        match primitive_integer_vector(&v) {
            None => prop_assert!(v.iter().all(|f| f.is_zero())),
            Some(ints) => {
                // Same direction: cross-ratios match.
                let g = ints.iter().fold(0i128, |g, &x| tensorlib_linalg::gcd_i128(g, x as i128));
                prop_assert_eq!(g, 1);
                // First nonzero entry positive.
                let first = ints.iter().find(|&&x| x != 0).copied().unwrap();
                prop_assert!(first > 0);
                // Collinearity with the input.
                for i in 0..v.len() {
                    for j in 0..v.len() {
                        let lhs = v[i] * Frac::from(ints[j]);
                        let rhs = v[j] * Frac::from(ints[i]);
                        prop_assert_eq!(lhs, rhs);
                    }
                }
            }
        }
    }
}
