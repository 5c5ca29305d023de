//! The complete dataflow analysis of a kernel under one (selection, STT).

use std::fmt;

use serde::Serialize;
use tensorlib_ir::Kernel;

use crate::{classify_tensor, DataflowError, FlowClass, LoopSelection, Stt, TensorFlow};

/// The analyzed hardware dataflow of a kernel: a loop selection, an STT
/// matrix, and the per-tensor [`FlowClass`] of every operand.
///
/// A `Dataflow` is the hand-off point between analysis and hardware
/// generation: `tensorlib-hw` reads the per-tensor classes to pick PE-internal
/// modules and interconnect; `tensorlib-sim` reads the STT to schedule.
///
/// # Examples
///
/// ```
/// use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
/// use tensorlib_ir::workloads;
///
/// let gemm = workloads::gemm(16, 16, 16);
/// let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"])?;
/// let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())?;
/// assert_eq!(df.name(), "MNK-SST");
/// assert_eq!(df.letters(), "SST");
/// # Ok::<(), tensorlib_dataflow::DataflowError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Dataflow {
    kernel_name: String,
    selection: LoopSelection,
    stt: Stt,
    flows: Vec<TensorFlow>,
    selected_extents: [u64; 3],
}

impl Dataflow {
    /// Runs the full Table I analysis for every tensor of `kernel`.
    ///
    /// # Errors
    ///
    /// Propagates [`DataflowError`] from selection validation. (The STT is
    /// validated at construction.)
    pub fn analyze(
        kernel: &Kernel,
        selection: LoopSelection,
        stt: Stt,
    ) -> Result<Dataflow, DataflowError> {
        let idx = selection.indices();
        let flows = kernel
            .tensors()
            .iter()
            .map(|t| {
                let a_sel = t.access().restrict_to(&idx);
                TensorFlow {
                    tensor: t.name().to_string(),
                    role: t.role(),
                    class: classify_tensor(&a_sel, &stt, t.role()),
                }
            })
            .collect();
        let selected_extents = selection.extents(kernel);
        Ok(Dataflow {
            kernel_name: kernel.name().to_string(),
            selection,
            stt,
            flows,
            selected_extents,
        })
    }

    /// Assembles a dataflow from already-classified parts. Used by the
    /// design-space sweep, which classifies with reuse bases built once per
    /// selection and assembles only the designs it keeps.
    pub(crate) fn from_parts(
        kernel: &Kernel,
        selection: LoopSelection,
        stt: Stt,
        flows: Vec<TensorFlow>,
    ) -> Dataflow {
        let selected_extents = selection.extents(kernel);
        Dataflow {
            kernel_name: kernel.name().to_string(),
            selection,
            stt,
            flows,
            selected_extents,
        }
    }

    /// The kernel this dataflow was analyzed for.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// The loop selection.
    pub fn selection(&self) -> &LoopSelection {
        &self.selection
    }

    /// The STT matrix.
    pub fn stt(&self) -> &Stt {
        &self.stt
    }

    /// Per-tensor flows, in the kernel's tensor declaration order
    /// (inputs first, then the output, matching Table II formulas).
    pub fn flows(&self) -> &[TensorFlow] {
        &self.flows
    }

    /// The extents of the three selected loops at analysis time.
    pub fn selected_extents(&self) -> [u64; 3] {
        self.selected_extents
    }

    /// The flow of the tensor named `name`, if present.
    pub fn tensor_flow(&self, name: &str) -> Option<&TensorFlow> {
        self.flows.iter().find(|f| f.tensor == name)
    }

    /// The per-tensor letter string, e.g. `"SST"` (tensor declaration order).
    pub fn letters(&self) -> String {
        self.flows.iter().map(|f| f.class.letter()).collect()
    }

    /// The paper-style dataflow name: selection tag + letters, e.g.
    /// `"KCX-SST"`.
    pub fn name(&self) -> String {
        format!("{}-{}", self.selection.tag(), self.letters())
    }

    /// `true` if this dataflow's letters match `pattern`, allowing the
    /// rank-2 aliases (see [`FlowClass::letter_aliases`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
    /// use tensorlib_ir::workloads;
    /// let gemm = workloads::gemm(8, 8, 8);
    /// let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"])?;
    /// let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())?;
    /// assert!(df.matches_letters("SST"));
    /// assert!(!df.matches_letters("UUU"));
    /// # Ok::<(), tensorlib_dataflow::DataflowError>(())
    /// ```
    pub fn matches_letters(&self, pattern: &str) -> bool {
        let chars: Vec<char> = pattern.chars().collect();
        chars.len() == self.flows.len()
            && self
                .flows
                .iter()
                .zip(&chars)
                .all(|(f, &c)| f.class.letter_aliases().contains(&c))
    }

    /// A canonical signature for de-duplicating the design space: two
    /// dataflows with the same signature drive identical hardware even if
    /// their raw STT matrices differ.
    pub fn signature(&self) -> String {
        let mut s = format!("{}|{}", self.kernel_name, self.selection.tag());
        for f in &self.flows {
            s.push('|');
            s.push_str(&f.class.to_string());
        }
        s
    }

    /// `true` if no tensor uses a plain unicast stream (unicast demands
    /// per-PE memory ports, which the paper shows is bandwidth-bound).
    pub fn is_reuse_only(&self) -> bool {
        self.flows
            .iter()
            .all(|f| !matches!(f.class, FlowClass::Unicast))
    }

    /// `true` if every tensor's dataflow is systolic or stationary — the
    /// subset of the space that pure systolic-array generators (PolySA, Susy)
    /// can produce.
    pub fn is_pure_systolic(&self) -> bool {
        self.flows.iter().all(|f| {
            matches!(
                f.class,
                FlowClass::Systolic { .. } | FlowClass::Stationary { .. }
            )
        })
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} dataflow {}:", self.kernel_name, self.name())?;
        for flow in &self.flows {
            writeln!(f, "  {flow}")?;
        }
        write!(f, "  T = {}", self.stt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_ir::workloads;

    fn gemm_df(rows: [[i64; 3]; 3]) -> Dataflow {
        let k = workloads::gemm(16, 16, 16);
        let sel = LoopSelection::by_names(&k, ["m", "n", "k"]).unwrap();
        Dataflow::analyze(&k, sel, Stt::from_rows(rows).unwrap()).unwrap()
    }

    #[test]
    fn gemm_output_stationary_is_sst() {
        let df = gemm_df([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        assert_eq!(df.name(), "MNK-SST");
        assert!(df.is_pure_systolic());
        assert!(df.is_reuse_only());
        assert_eq!(df.selected_extents(), [16, 16, 16]);
    }

    #[test]
    fn gemm_weight_stationary_is_sts() {
        // p1 = k, p2 = n, t = m + n + k: A systolic, B stationary, C systolic.
        let df = gemm_df([[0, 0, 1], [0, 1, 0], [1, 1, 1]]);
        assert_eq!(df.letters(), "STS");
        assert!(df.is_pure_systolic());
    }

    #[test]
    fn gemm_multicast_reduction_is_mtm() {
        // p1 = n, p2 = k, t = m: A multicast, B stationary, C reduction tree.
        let df = gemm_df([[0, 1, 0], [0, 0, 1], [1, 0, 0]]);
        assert_eq!(df.letters(), "MTM");
        assert!(!df.is_pure_systolic());
        match &df.tensor_flow("C").unwrap().class {
            FlowClass::ReductionTree { dp } => assert_eq!(*dp, [0, 1]),
            other => panic!("expected reduction tree, got {other}"),
        }
    }

    #[test]
    fn mttkrp_ikl_selection_is_ubbb() {
        // Paper §VI-A: IKL-UBBB — A unicast, B/C/D 2-D reuse.
        let k = workloads::mttkrp(8, 8, 8, 8);
        let sel = LoopSelection::by_names(&k, ["i", "k", "l"]).unwrap();
        let df = Dataflow::analyze(&k, sel, Stt::output_stationary()).unwrap();
        assert_eq!(df.letters(), "UBBB");
        assert!(df.matches_letters("UBBB"));
        assert!(!df.is_reuse_only());
    }

    #[test]
    fn batched_gemv_tensor_a_is_always_unicast() {
        // Paper §VI-A: A[m,k,n] uses all three loops, so it can never be
        // reused regardless of the STT.
        let k = workloads::batched_gemv(8, 8, 8);
        for rows in [
            [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
            [[0, 0, 1], [0, 1, 0], [1, 1, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        ] {
            let sel = LoopSelection::by_names(&k, ["m", "n", "k"]).unwrap();
            let df = Dataflow::analyze(&k, sel, Stt::from_rows(rows).unwrap()).unwrap();
            assert_eq!(df.tensor_flow("A").unwrap().class, FlowClass::Unicast);
        }
    }

    #[test]
    fn conv2d_kcx_is_gemm_like() {
        // §VI-A: "selecting KCX iterations ... becomes standard GEMM".
        let k = workloads::conv2d(16, 16, 16, 16, 3, 3);
        let sel = LoopSelection::by_names(&k, ["k", "c", "x"]).unwrap();
        // Output stationary: p=(k?, ...). Use T with p1=k, p2=x, t=k? No —
        // reuse the GEMM output-stationary shape on (k, c, x):
        let stt = Stt::from_rows([[1, 0, 0], [0, 0, 1], [1, 1, 1]]).unwrap();
        let df = Dataflow::analyze(&k, sel, stt).unwrap();
        // A[c, y+p, x+q]: restricted to (k,c,x) → rank 2 → nullity 1; C
        // likewise; B[k,c,p,q] → nullity 1. All rank-1 flows, like GEMM.
        for f in df.flows() {
            assert_eq!(f.class.rank(), 1, "{f}");
        }
    }

    #[test]
    fn signature_distinguishes_and_dedupes() {
        let a = gemm_df([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let b = gemm_df([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let c = gemm_df([[0, 1, 0], [0, 0, 1], [1, 0, 0]]);
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature());
    }

    #[test]
    fn display_includes_flows() {
        let df = gemm_df([[1, 0, 0], [0, 1, 0], [1, 1, 1]]);
        let s = df.to_string();
        assert!(s.contains("MNK-SST"));
        assert!(s.contains("systolic"));
        assert!(s.contains("stationary"));
    }
}
