//! The Table I classification: reuse subspace → hardware dataflow.

use std::fmt;

use serde::Serialize;
use tensorlib_linalg::{primitive_integer_vector, Mat};
use tensorlib_ir::TensorRole;

use crate::Stt;

/// The hardware dataflow of one tensor under one STT, per the paper's
/// Table I.
///
/// Rank-1 shapes carry the primitive space-time reuse vector `(dp, dt)`
/// (oriented so `dt ≥ 0`, then lexicographically positive); rank-2 shapes
/// carry the decomposition into 1-D components that the paper's hardware
/// generator wires up (multicast group + stationary register, or multicast
/// group + systolic chain).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum FlowClass {
    /// Rank 0: every element touched exactly once — each PE streams from
    /// memory independently.
    Unicast,
    /// Rank 1, `dp = 0`: the element stays in one PE for `dt`-cycle steps.
    Stationary {
        /// Temporal stride between consecutive uses (≥ 1).
        dt: i64,
    },
    /// Rank 1, `dp ≠ 0, dt ≠ 0`: the element hops to the neighbouring PE at
    /// offset `dp` every `dt` cycles.
    Systolic {
        /// Spatial step per reuse.
        dp: [i64; 2],
        /// Cycle delay per hop (≥ 1).
        dt: i64,
    },
    /// Rank 1, `dt = 0` on an input: one element feeds a line of PEs in the
    /// same cycle.
    Multicast {
        /// Direction of the multicast group.
        dp: [i64; 2],
    },
    /// Rank 1, `dt = 0` on the output: PEs along `dp` produce partial sums of
    /// the same element simultaneously; a reduction tree combines them.
    ReductionTree {
        /// Direction of the reduction group.
        dp: [i64; 2],
    },
    /// Rank 2, plane perpendicular to the t-axis: the element reaches every
    /// PE of a 2-D group in one cycle.
    Broadcast {
        /// Two independent spatial directions spanning the group.
        dps: [[i64; 2]; 2],
    },
    /// Rank 2, plane containing the t-axis: multicast to a group, then held
    /// stationary inside each PE.
    MulticastStationary {
        /// Direction of the multicast group.
        dp: [i64; 2],
    },
    /// Rank 2, plane crossing the t-axis obliquely: multicast to a group of
    /// boundary registers, then systolic traversal.
    SystolicMulticast {
        /// Spatial step of the systolic component.
        systolic_dp: [i64; 2],
        /// Cycle delay of the systolic component.
        systolic_dt: i64,
        /// Direction of the multicast component.
        multicast_dp: [i64; 2],
    },
    /// Rank 3: the tensor does not depend on any selected loop — a single
    /// element is broadcast once and stays live in every PE for the whole
    /// tile. (Not tabulated in the paper; arises when all of a tensor's
    /// iterators are left sequential.)
    FullReuse,
}

impl FlowClass {
    /// The rank of the reuse subspace this class came from.
    pub fn rank(&self) -> usize {
        match self {
            FlowClass::Unicast => 0,
            FlowClass::Stationary { .. }
            | FlowClass::Systolic { .. }
            | FlowClass::Multicast { .. }
            | FlowClass::ReductionTree { .. } => 1,
            FlowClass::Broadcast { .. }
            | FlowClass::MulticastStationary { .. }
            | FlowClass::SystolicMulticast { .. } => 2,
            FlowClass::FullReuse => 3,
        }
    }

    /// The paper's single-letter code: `U`nicast, `S`ystolic, s`T`ationary,
    /// `M`ulticast/reduction, `B` for 2-D reuse spaces.
    pub fn letter(&self) -> char {
        match self {
            FlowClass::Unicast => 'U',
            FlowClass::Stationary { .. } => 'T',
            FlowClass::Systolic { .. } => 'S',
            FlowClass::Multicast { .. } | FlowClass::ReductionTree { .. } => 'M',
            _ => 'B',
        }
    }

    /// All letters this class can be described by. The paper's §VI names are
    /// loose for rank-2 shapes (e.g. a multicast+stationary tensor may be
    /// written `M` or `T`), so name matching accepts any component letter.
    pub fn letter_aliases(&self) -> Vec<char> {
        match self {
            FlowClass::Unicast => vec!['U'],
            FlowClass::Stationary { .. } => vec!['T'],
            FlowClass::Systolic { .. } => vec!['S'],
            FlowClass::Multicast { .. } | FlowClass::ReductionTree { .. } => vec!['M'],
            FlowClass::Broadcast { .. } => vec!['B', 'M'],
            FlowClass::MulticastStationary { .. } => vec!['B', 'M', 'T'],
            FlowClass::SystolicMulticast { .. } => vec!['B', 'S', 'M'],
            FlowClass::FullReuse => vec!['B', 'T'],
        }
    }

    /// `true` if the tensor element moves between PEs in the same cycle
    /// (needs combinational fan-out or a reduction tree).
    pub fn has_same_cycle_fanout(&self) -> bool {
        matches!(
            self,
            FlowClass::Multicast { .. }
                | FlowClass::ReductionTree { .. }
                | FlowClass::Broadcast { .. }
                | FlowClass::MulticastStationary { .. }
                | FlowClass::SystolicMulticast { .. }
                | FlowClass::FullReuse
        )
    }

    /// `true` if the tensor is held in a PE-local register across cycles.
    pub fn is_stationary_like(&self) -> bool {
        matches!(
            self,
            FlowClass::Stationary { .. }
                | FlowClass::MulticastStationary { .. }
                | FlowClass::FullReuse
        )
    }
}

impl fmt::Display for FlowClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowClass::Unicast => write!(f, "unicast"),
            FlowClass::Stationary { dt } => write!(f, "stationary(dt={dt})"),
            FlowClass::Systolic { dp, dt } => {
                write!(f, "systolic(dp=({},{}), dt={dt})", dp[0], dp[1])
            }
            FlowClass::Multicast { dp } => write!(f, "multicast(dp=({},{}))", dp[0], dp[1]),
            FlowClass::ReductionTree { dp } => {
                write!(f, "reduction-tree(dp=({},{}))", dp[0], dp[1])
            }
            FlowClass::Broadcast { .. } => write!(f, "broadcast"),
            FlowClass::MulticastStationary { dp } => {
                write!(f, "multicast+stationary(dp=({},{}))", dp[0], dp[1])
            }
            FlowClass::SystolicMulticast {
                systolic_dp,
                systolic_dt,
                multicast_dp,
            } => write!(
                f,
                "systolic(dp=({},{}),dt={})+multicast(dp=({},{}))",
                systolic_dp[0], systolic_dp[1], systolic_dt, multicast_dp[0], multicast_dp[1]
            ),
            FlowClass::FullReuse => write!(f, "full-reuse"),
        }
    }
}

/// The analyzed dataflow of one tensor: its name, role, and [`FlowClass`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TensorFlow {
    /// The tensor's name in the kernel.
    pub tensor: String,
    /// Input or output.
    pub role: TensorRole,
    /// The classified dataflow.
    pub class: FlowClass,
}

impl fmt::Display for TensorFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}): {}", self.tensor, self.role, self.class)
    }
}

/// Orients a primitive reuse vector: `dt > 0` preferred (data flows forward
/// in time); for `dt = 0`, the spatial part is made lexicographically
/// positive.
fn orient(v: [i64; 3]) -> [i64; 3] {
    let flip = if v[2] != 0 {
        v[2] < 0
    } else if v[0] != 0 {
        v[0] < 0
    } else {
        v[1] < 0
    };
    if flip {
        [-v[0], -v[1], -v[2]]
    } else {
        v
    }
}

/// Classifies one tensor's dataflow from its *restricted* access matrix (the
/// `dims × 3` matrix over the three selected loops) and the STT matrix.
///
/// This is the paper's Table I decision procedure. The reuse subspace in
/// space-time is `T · null(A_sel)`; its rank and orientation w.r.t. the time
/// axis pick the class. The computation is exact and runs in integers.
///
/// Each null-space basis column is first scaled to its primitive integer
/// vector, which changes no class. Scaling column `i` by a nonzero rational
/// `sᵢ` scales its space-time image `bᵢ = T·colᵢ` by `sᵢ`, and every quantity
/// the Table I rules read is invariant under that:
///
/// - the oriented primitive vector of the line through any `bᵢ` (the rank-1
///   vector, the broadcast directions, the systolic component);
/// - the spatial line `t₁·b₀ − t₀·b₁`, which is scaled by `s₀·s₁`;
/// - the zero tests `tᵢ = 0` (which pick the broadcast case and the
///   systolic column) and `b₀.x·b₁.y − b₀.y·b₁.x = 0` (the t-axis test),
///   whose left-hand sides are scaled by nonzero factors.
///
/// So the classes equal those of the rational reuse matrix `T·null(A_sel)`.
///
/// # Examples
///
/// ```
/// use tensorlib_dataflow::{classify_tensor, FlowClass, Stt};
/// use tensorlib_linalg::Mat;
/// use tensorlib_ir::TensorRole;
///
/// // A[i,k] in an (i,j,k) nest, with the paper's example T.
/// let a_sel = Mat::from_i64(&[&[1, 0, 0], &[0, 0, 1]]);
/// let t = Stt::output_stationary();
/// let class = classify_tensor(&a_sel, &t, TensorRole::Input);
/// assert_eq!(class, FlowClass::Systolic { dp: [0, 1], dt: 1 });
/// ```
pub fn classify_tensor(a_sel: &Mat, stt: &Stt, role: TensorRole) -> FlowClass {
    ReuseBasis::of(a_sel).classify(stt, role)
}

/// One tensor's reuse subspace in loop space over one loop selection: a
/// basis of `null(A_sel)` with every column scaled to its primitive integer
/// vector.
///
/// The design-space sweep builds one per (selection, tensor) and classifies
/// it under thousands of STTs; [`classify_tensor`] builds one per call and
/// documents why the scaling is exact.
#[derive(Debug)]
pub(crate) struct ReuseBasis(Vec<[i64; 3]>);

impl ReuseBasis {
    /// The integer reuse basis of a restricted (`dims × 3`) access matrix.
    pub(crate) fn of(a_sel: &Mat) -> ReuseBasis {
        assert_eq!(
            a_sel.cols(),
            3,
            "restricted access matrix must have 3 columns"
        );
        let null = a_sel.null_space();
        ReuseBasis(
            (0..null.cols())
                .map(|c| {
                    let v = primitive_integer_vector(&null.col(c))
                        .expect("null-space basis vectors are nonzero");
                    [v[0], v[1], v[2]]
                })
                .collect(),
        )
    }

    /// The tensor's Table I class under `stt`.
    pub(crate) fn classify(&self, stt: &Stt, role: TensorRole) -> FlowClass {
        let mut reuse = [[0i128; 3]; 3];
        for (b, col) in reuse.iter_mut().zip(&self.0) {
            *b = stt.rows().map(|row| {
                row.iter().zip(col).fold(0, |acc: i128, (&t, &c)| {
                    acc.checked_add(i128::from(t) * i128::from(c))
                        .expect(OVERFLOW)
                })
            });
        }
        classify_reuse(&reuse[..self.0.len()], role)
    }
}

/// Classifies a tensor from its space-time reuse columns `T · col`, one per
/// basis column of its integer reuse basis (at most three).
///
/// All arithmetic is checked `i128`: `T` and the columns are `i64`, so one
/// product cannot overflow, and a sum or cross term that would panics rather
/// than wrapping.
fn classify_reuse(reuse: &[[i128; 3]], role: TensorRole) -> FlowClass {
    match *reuse {
        [] => FlowClass::Unicast,
        [v] => classify_rank1(primitive(v), role),
        [b0, b1] => classify_rank2(b0, b1),
        _ => FlowClass::FullReuse,
    }
}

const OVERFLOW: &str = "space-time reuse arithmetic overflows i128";

fn mul(a: i128, b: i128) -> i128 {
    a.checked_mul(b).expect(OVERFLOW)
}

/// The oriented primitive integer vector on the line through `v` (nonzero).
fn primitive(v: [i128; 3]) -> [i64; 3] {
    let g = v.iter().fold(0u128, |mut a, x| {
        let mut b = x.unsigned_abs();
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    });
    assert_ne!(g, 0, "reuse vectors are nonzero");
    orient(v.map(|x| {
        let m = i64::try_from(x.unsigned_abs() / g).expect("primitive reuse vectors fit i64");
        if x < 0 {
            -m
        } else {
            m
        }
    }))
}

fn classify_rank1(v: [i64; 3], role: TensorRole) -> FlowClass {
    let dp = [v[0], v[1]];
    let dt = v[2];
    match (dp == [0, 0], dt == 0) {
        (true, false) => FlowClass::Stationary { dt },
        (false, false) => FlowClass::Systolic { dp, dt },
        (false, true) => match role {
            TensorRole::Input => FlowClass::Multicast { dp },
            TensorRole::Output => FlowClass::ReductionTree { dp },
        },
        (true, true) => unreachable!("primitive vectors are nonzero"),
    }
}

/// Rank 2 decides the same way for inputs and outputs.
fn classify_rank2(b0: [i128; 3], b1: [i128; 3]) -> FlowClass {
    // The time components of the two basis vectors.
    let (t0, t1) = (b0[2], b1[2]);
    if t0 == 0 && t1 == 0 {
        // Plane perpendicular to the t-axis: pure 2-D spatial reuse.
        let (d0, d1) = (primitive(b0), primitive(b1));
        return FlowClass::Broadcast {
            dps: [[d0[0], d0[1]], [d1[0], d1[1]]],
        };
    }
    // The plane meets {dt = 0} in a line: combination t1·b0 − t0·b1.
    let sp =
        primitive([0, 1, 2].map(|i| mul(b0[i], t1).checked_sub(mul(b1[i], t0)).expect(OVERFLOW)));
    debug_assert_eq!(sp[2], 0);
    let multicast_dp = [sp[0], sp[1]];

    // The plane contains the t-axis iff det[b0 b1 e3] = b0.x·b1.y − b0.y·b1.x
    // is zero (b0 and b1 are independent).
    if mul(b0[0], b1[1]) == mul(b0[1], b1[0]) {
        // Parallel case: multicast then stationary.
        FlowClass::MulticastStationary { dp: multicast_dp }
    } else {
        // Oblique case: multicast plus systolic traversal. The systolic
        // component is any basis vector with dt ≠ 0, reduced and oriented.
        let sys = primitive(if t0 != 0 { b0 } else { b1 });
        FlowClass::SystolicMulticast {
            systolic_dp: [sys[0], sys[1]],
            systolic_dt: sys[2],
            multicast_dp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_linalg::Mat;

    fn t_os() -> Stt {
        Stt::output_stationary()
    }

    #[test]
    fn table1_rank0_unicast() {
        // Access matrix of full rank over selected loops: no reuse.
        let a = Mat::identity(3);
        assert_eq!(
            classify_tensor(&a, &t_os(), TensorRole::Input),
            FlowClass::Unicast
        );
    }

    #[test]
    fn table1_rank1_stationary() {
        // C[i,j] with T = output-stationary: reuse along k stays put.
        let c = Mat::from_i64(&[&[1, 0, 0], &[0, 1, 0]]);
        assert_eq!(
            classify_tensor(&c, &t_os(), TensorRole::Output),
            FlowClass::Stationary { dt: 1 }
        );
    }

    #[test]
    fn table1_rank1_systolic_both_inputs() {
        let a = Mat::from_i64(&[&[1, 0, 0], &[0, 0, 1]]); // A[i,k]
        let b = Mat::from_i64(&[&[0, 1, 0], &[0, 0, 1]]); // B[j,k]
        assert_eq!(
            classify_tensor(&a, &t_os(), TensorRole::Input),
            FlowClass::Systolic { dp: [0, 1], dt: 1 }
        );
        assert_eq!(
            classify_tensor(&b, &t_os(), TensorRole::Input),
            FlowClass::Systolic { dp: [1, 0], dt: 1 }
        );
    }

    #[test]
    fn table1_rank1_multicast_and_reduction() {
        // T = [[0,1,0],[0,0,1],[1,0,0]]: p=(j,k), t=i.
        let t = Stt::from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).unwrap();
        // A[i,k]: null = j-direction -> T·(0,1,0) = (1,0,0): multicast along p1.
        let a = Mat::from_i64(&[&[1, 0, 0], &[0, 0, 1]]);
        assert_eq!(
            classify_tensor(&a, &t, TensorRole::Input),
            FlowClass::Multicast { dp: [1, 0] }
        );
        // C[i,j]: null = k-direction -> T·(0,0,1) = (0,1,0): reduction tree.
        let c = Mat::from_i64(&[&[1, 0, 0], &[0, 1, 0]]);
        assert_eq!(
            classify_tensor(&c, &t, TensorRole::Output),
            FlowClass::ReductionTree { dp: [0, 1] }
        );
    }

    #[test]
    fn table1_rank2_broadcast() {
        // Tensor depends only on x3 = t (identity T): reuse plane is the
        // whole PE array at fixed time.
        let a = Mat::from_i64(&[&[0, 0, 1]]);
        let got = classify_tensor(&a, &Stt::identity(), TensorRole::Input);
        assert!(matches!(got, FlowClass::Broadcast { .. }), "got {got}");
    }

    #[test]
    fn table1_rank2_multicast_stationary() {
        // Tensor depends only on x1 = p1 (identity T): plane spans p2 and t.
        let a = Mat::from_i64(&[&[1, 0, 0]]);
        assert_eq!(
            classify_tensor(&a, &Stt::identity(), TensorRole::Input),
            FlowClass::MulticastStationary { dp: [0, 1] }
        );
    }

    #[test]
    fn table1_rank2_systolic_multicast() {
        // Tensor depends only on x1; choose T so the reuse plane's basis maps
        // to {(1,0,1), (0,1,0)} — a plane that neither contains nor is
        // perpendicular to the t-axis.
        let t = Stt::from_rows([[1, 1, 0], [0, 0, 1], [0, 1, 0]]).unwrap();
        let a = Mat::from_i64(&[&[1, 0, 0]]);
        let got = classify_tensor(&a, &t, TensorRole::Input);
        match got {
            FlowClass::SystolicMulticast {
                systolic_dt,
                multicast_dp,
                ..
            } => {
                assert!(systolic_dt > 0);
                assert_ne!(multicast_dp, [0, 0]);
            }
            other => panic!("expected systolic+multicast, got {other}"),
        }
    }

    #[test]
    fn rank3_full_reuse() {
        // Tensor independent of all selected loops (zero access matrix row
        // set cannot be built; emulate with a 1-row zero matrix).
        let a = Mat::zeros(1, 3);
        assert_eq!(
            classify_tensor(&a, &t_os(), TensorRole::Input),
            FlowClass::FullReuse
        );
    }

    #[test]
    fn orientation_prefers_positive_dt() {
        // Reuse direction (0,-1,-1) must be flipped to (0,1,1).
        let t = Stt::from_rows([[1, 0, 0], [0, -1, 0], [1, -1, 1]]).unwrap();
        let a = Mat::from_i64(&[&[1, 0, 0], &[0, 0, 1]]);
        match classify_tensor(&a, &t, TensorRole::Input) {
            FlowClass::Systolic { dt, .. } => assert!(dt > 0),
            other => panic!("expected systolic, got {other}"),
        }
    }

    #[test]
    fn letters_and_ranks() {
        assert_eq!(FlowClass::Unicast.letter(), 'U');
        assert_eq!(FlowClass::Stationary { dt: 1 }.letter(), 'T');
        assert_eq!(FlowClass::Systolic { dp: [1, 0], dt: 1 }.letter(), 'S');
        assert_eq!(FlowClass::Multicast { dp: [1, 0] }.letter(), 'M');
        assert_eq!(FlowClass::ReductionTree { dp: [1, 0] }.letter(), 'M');
        assert_eq!(
            FlowClass::MulticastStationary { dp: [1, 0] }.letter(),
            'B'
        );
        assert_eq!(FlowClass::Unicast.rank(), 0);
        assert_eq!(FlowClass::Stationary { dt: 1 }.rank(), 1);
        assert_eq!(FlowClass::FullReuse.rank(), 3);
        assert!(FlowClass::MulticastStationary { dp: [1, 0] }
            .letter_aliases()
            .contains(&'T'));
    }

    #[test]
    fn predicates() {
        assert!(FlowClass::Multicast { dp: [1, 0] }.has_same_cycle_fanout());
        assert!(!FlowClass::Systolic { dp: [1, 0], dt: 1 }.has_same_cycle_fanout());
        assert!(FlowClass::Stationary { dt: 1 }.is_stationary_like());
        assert!(!FlowClass::Unicast.is_stationary_like());
    }

    #[test]
    fn display_strings() {
        assert_eq!(
            FlowClass::Systolic { dp: [0, 1], dt: 1 }.to_string(),
            "systolic(dp=(0,1), dt=1)"
        );
        assert!(FlowClass::FullReuse.to_string().contains("full"));
    }
}
