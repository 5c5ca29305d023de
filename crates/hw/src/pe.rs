//! PE generation: the paper's Figure 3 internal-module templates.
//!
//! A PE is a manually-designed computation cell (a multiplier chain and an
//! adder) surrounded by per-tensor I/O modules. Each tensor contributes one
//! of six module templates depending on its dataflow and role:
//!
//! | template | flow | role |
//! |----------|------|------|
//! | (a) systolic-in    | systolic          | input  |
//! | (b) systolic-out   | systolic          | output |
//! | (c) stationary-in  | stationary (double-buffered) | input |
//! | (d) stationary-out | stationary (double-buffered) | output |
//! | (e) direct-in      | multicast / unicast / broadcast | input |
//! | (f) reduce-out     | multicast (reduction tree)      | output |
//!
//! The templates compose freely because they only meet at the computation
//! cell, exactly as the paper observes.

use serde::Serialize;
use tensorlib_dataflow::FlowClass;
use tensorlib_ir::{DataType, TensorRole};

use crate::netlist::{Expr, Module};

/// Which Figure 3 template a tensor uses inside the PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PeIoKind {
    /// (a) Register and forward to the neighbouring PE every cycle.
    SystolicIn,
    /// (b) Accumulate the incoming partial sum with the local product and
    /// forward.
    SystolicOut,
    /// (c) Double-buffered local register: compute from one buffer while the
    /// other is loaded through the chain.
    StationaryIn,
    /// (d) Double-buffered accumulator: accumulate into one register while
    /// the previous stage's result drains through the other.
    StationaryOut,
    /// (e) Use the broadcast/streamed value directly (multicast, unicast,
    /// broadcast).
    DirectIn,
    /// (f) Expose the local product combinationally to an array-level
    /// reduction tree.
    ReduceOut,
    /// A unicast output: register the product and write it straight to the
    /// tensor's memory bank.
    DirectOut,
}

impl PeIoKind {
    /// Maps a classified dataflow to the PE-internal template, per Figure 3.
    ///
    /// Rank-2 flows reduce to the template of their PE-local component: a
    /// multicast+stationary tensor *inside the PE* is stationary (the
    /// multicast happens in the interconnect), a systolic+multicast tensor is
    /// systolic, and a pure broadcast is direct.
    pub fn for_flow(class: &FlowClass, role: TensorRole) -> PeIoKind {
        match (role, class) {
            (TensorRole::Input, FlowClass::Systolic { .. })
            | (TensorRole::Input, FlowClass::SystolicMulticast { .. }) => PeIoKind::SystolicIn,
            (TensorRole::Input, FlowClass::Stationary { .. })
            | (TensorRole::Input, FlowClass::MulticastStationary { .. })
            | (TensorRole::Input, FlowClass::FullReuse) => PeIoKind::StationaryIn,
            (TensorRole::Input, _) => PeIoKind::DirectIn,
            (TensorRole::Output, FlowClass::Systolic { .. })
            | (TensorRole::Output, FlowClass::SystolicMulticast { .. }) => PeIoKind::SystolicOut,
            (TensorRole::Output, FlowClass::Stationary { .. })
            | (TensorRole::Output, FlowClass::MulticastStationary { .. })
            | (TensorRole::Output, FlowClass::FullReuse) => PeIoKind::StationaryOut,
            (TensorRole::Output, FlowClass::ReductionTree { .. })
            | (TensorRole::Output, FlowClass::Broadcast { .. })
            | (TensorRole::Output, FlowClass::Multicast { .. }) => PeIoKind::ReduceOut,
            (TensorRole::Output, FlowClass::Unicast) => PeIoKind::DirectOut,
        }
    }

    /// `true` for input-side templates.
    pub fn is_input(self) -> bool {
        matches!(
            self,
            PeIoKind::SystolicIn | PeIoKind::StationaryIn | PeIoKind::DirectIn
        )
    }
}

/// One tensor's slot in a PE.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PeTensorSpec {
    /// Tensor name (lower-cased into port names).
    pub tensor: String,
    /// The I/O template.
    pub kind: PeIoKind,
    /// Systolic hop delay in cycles (`dt`); 1 for everything non-systolic.
    pub delay: u32,
}

/// A complete PE specification: datatype plus one [`PeTensorSpec`] per
/// kernel tensor (inputs first, output last).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PeSpec {
    /// Module name for the generated PE.
    pub name: String,
    /// Element datatype.
    pub datatype: DataType,
    /// Per-tensor templates.
    pub tensors: Vec<PeTensorSpec>,
}

impl PeSpec {
    /// Control ports this PE needs beyond the always-present `en`.
    pub fn needs_load_phase(&self) -> bool {
        self.tensors
            .iter()
            .any(|t| t.kind == PeIoKind::StationaryIn)
    }

    /// `true` if the PE has a stationary output (needs `swap`/`drain_en`).
    pub fn needs_swap_drain(&self) -> bool {
        self.tensors
            .iter()
            .any(|t| t.kind == PeIoKind::StationaryOut)
    }
}

/// Builds the PE module for `spec`: per-tensor I/O templates around a
/// multiplier-chain computation cell.
///
/// Generated ports:
///
/// - `en`: 1-bit compute enable.
/// - `load_en`, `phase`: present when any tensor is stationary-in.
/// - `swap`, `drain_en`: present when the output is stationary-out.
/// - per tensor `X`: `x_in` and (except direct-in/reduce-out) `x_out`.
///
/// # Panics
///
/// Panics if `spec` has no input templates (a validated kernel always has at
/// least one input).
///
/// # Examples
///
/// ```
/// use tensorlib_hw::pe::{build_pe, PeIoKind, PeSpec, PeTensorSpec};
/// use tensorlib_ir::DataType;
///
/// // Output-stationary GEMM PE: two systolic inputs, stationary output.
/// let spec = PeSpec {
///     name: "pe_os".into(),
///     datatype: DataType::Int16,
///     tensors: vec![
///         PeTensorSpec { tensor: "a".into(), kind: PeIoKind::SystolicIn, delay: 1 },
///         PeTensorSpec { tensor: "b".into(), kind: PeIoKind::SystolicIn, delay: 1 },
///         PeTensorSpec { tensor: "c".into(), kind: PeIoKind::StationaryOut, delay: 1 },
///     ],
/// };
/// let m = build_pe(&spec);
/// m.validate().unwrap();
/// assert!(m.port_dir("a_in").is_some());
/// assert!(m.port_dir("c_out").is_some());
/// ```
pub fn build_pe(spec: &PeSpec) -> Module {
    let w = spec.datatype.bits();
    let acc_w = spec.datatype.accumulator_bits();
    let mut m = Module::new(spec.name.clone());
    let en = m.input("en", 1);
    let load_en = spec.needs_load_phase().then(|| m.input("load_en", 1));
    let phase = spec.needs_load_phase().then(|| m.input("phase", 1));
    let swap = spec.needs_swap_drain().then(|| m.input("swap", 1));
    let drain_en = spec.needs_swap_drain().then(|| m.input("drain_en", 1));

    // Input templates: produce one operand net each.
    let mut operands = Vec::new();
    for t in spec.tensors.iter().filter(|t| t.kind.is_input()) {
        let lo = t.tensor.to_lowercase();
        match t.kind {
            PeIoKind::SystolicIn => {
                let x_in = m.input(format!("{lo}_in"), w);
                let x_out = m.output(format!("{lo}_out"), w);
                // A delay-line of `dt` registers; the operand is the incoming
                // value (used the cycle it arrives, forwarded next cycle).
                let mut prev = x_in;
                for stage in 0..t.delay.max(1) {
                    let r = m.net(format!("{lo}_hop{stage}"), w);
                    m.reg(r, Expr::net(prev), Some(Expr::net(en)), 0);
                    prev = r;
                }
                m.assign(x_out, Expr::net(prev));
                operands.push(x_in);
            }
            PeIoKind::StationaryIn => {
                let x_in = m.input(format!("{lo}_in"), w);
                let x_out = m.output(format!("{lo}_out"), w);
                let buf0 = m.net(format!("{lo}_buf0"), w);
                let buf1 = m.net(format!("{lo}_buf1"), w);
                let (load, ph) = (load_en.unwrap(), phase.unwrap());
                // phase = 0: compute from buf0, load into buf1 (and vice versa).
                let load0 = Expr::Bin(
                    crate::netlist::BinOp::And,
                    Box::new(Expr::net(load)),
                    Box::new(Expr::net(ph)),
                );
                let load1 = Expr::Bin(
                    crate::netlist::BinOp::And,
                    Box::new(Expr::net(load)),
                    Box::new(Expr::Not(Box::new(Expr::net(ph)))),
                );
                m.reg(buf0, Expr::net(x_in), Some(load0), 0);
                m.reg(buf1, Expr::net(x_in), Some(load1), 0);
                let active = m.net(format!("{lo}_active"), w);
                m.assign(
                    active,
                    Expr::mux(Expr::net(ph), Expr::net(buf1), Expr::net(buf0)),
                );
                // The inactive buffer shifts out to the next PE in the chain.
                m.assign(
                    x_out,
                    Expr::mux(Expr::net(ph), Expr::net(buf0), Expr::net(buf1)),
                );
                operands.push(active);
            }
            PeIoKind::DirectIn => {
                let x_in = m.input(format!("{lo}_in"), w);
                operands.push(x_in);
            }
            _ => unreachable!("is_input filtered"),
        }
    }
    assert!(!operands.is_empty(), "PE needs at least one input operand");

    // Computation cell: chained multiplier over all operands, full-width.
    let product = m.net("product", acc_w);
    let mut expr = Expr::net(operands[0]).sext(acc_w);
    for &op in &operands[1..] {
        expr = expr.mul(Expr::net(op).sext(acc_w));
    }
    m.assign(product, expr);

    // Output template.
    for t in spec.tensors.iter().filter(|t| !t.kind.is_input()) {
        let lo = t.tensor.to_lowercase();
        match t.kind {
            PeIoKind::SystolicOut => {
                let y_in = m.input(format!("{lo}_in"), acc_w);
                let y_out = m.output(format!("{lo}_out"), acc_w);
                let r = m.net(format!("{lo}_psum"), acc_w);
                m.reg(
                    r,
                    Expr::net(y_in).add(Expr::net(product)),
                    Some(Expr::net(en)),
                    0,
                );
                m.assign(y_out, Expr::net(r));
            }
            PeIoKind::StationaryOut => {
                let y_in = m.input(format!("{lo}_in"), acc_w);
                let y_out = m.output(format!("{lo}_out"), acc_w);
                let acc = m.net(format!("{lo}_acc"), acc_w);
                let xfer = m.net(format!("{lo}_xfer"), acc_w);
                let (sw, dr) = (swap.unwrap(), drain_en.unwrap());
                // On swap the accumulator restarts from the fresh product;
                // otherwise it keeps accumulating.
                m.reg(
                    acc,
                    Expr::mux(
                        Expr::net(sw),
                        Expr::net(product),
                        Expr::net(acc).add(Expr::net(product)),
                    ),
                    Some(Expr::net(en)),
                    0,
                );
                // The transfer register captures the finished stage on swap
                // and shifts along the drain chain afterwards.
                let xfer_en = Expr::Bin(
                    crate::netlist::BinOp::Or,
                    Box::new(Expr::net(sw)),
                    Box::new(Expr::net(dr)),
                );
                m.reg(
                    xfer,
                    Expr::mux(Expr::net(sw), Expr::net(acc), Expr::net(y_in)),
                    Some(xfer_en),
                    0,
                );
                m.assign(y_out, Expr::net(xfer));
            }
            PeIoKind::ReduceOut => {
                let y_out = m.output(format!("{lo}_out"), acc_w);
                m.assign(y_out, Expr::net(product));
            }
            PeIoKind::DirectOut => {
                let y_out = m.output(format!("{lo}_out"), acc_w);
                let r = m.net(format!("{lo}_res"), acc_w);
                m.reg(r, Expr::net(product), Some(Expr::net(en)), 0);
                m.assign(y_out, Expr::net(r));
            }
            _ => unreachable!("outputs filtered"),
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kinds: &[(&str, PeIoKind)]) -> PeSpec {
        PeSpec {
            name: "pe".into(),
            datatype: DataType::Int16,
            tensors: kinds
                .iter()
                .map(|(n, k)| PeTensorSpec {
                    tensor: n.to_string(),
                    kind: *k,
                    delay: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn output_stationary_pe_validates() {
        let m = build_pe(&spec(&[
            ("a", PeIoKind::SystolicIn),
            ("b", PeIoKind::SystolicIn),
            ("c", PeIoKind::StationaryOut),
        ]));
        m.validate().unwrap();
        // 2 systolic hop regs + acc + xfer.
        assert_eq!(m.regs().len(), 4);
        assert!(m.port_dir("swap").is_some());
        assert!(m.port_dir("load_en").is_none());
    }

    #[test]
    fn weight_stationary_pe_validates() {
        let m = build_pe(&spec(&[
            ("a", PeIoKind::SystolicIn),
            ("b", PeIoKind::StationaryIn),
            ("c", PeIoKind::SystolicOut),
        ]));
        m.validate().unwrap();
        // a hop + b double buffer (2) + c psum.
        assert_eq!(m.regs().len(), 4);
        assert!(m.port_dir("load_en").is_some());
        assert!(m.port_dir("phase").is_some());
        assert!(m.port_dir("swap").is_none());
    }

    #[test]
    fn multicast_reduction_pe_is_register_light() {
        let m = build_pe(&spec(&[
            ("a", PeIoKind::DirectIn),
            ("b", PeIoKind::DirectIn),
            ("c", PeIoKind::ReduceOut),
        ]));
        m.validate().unwrap();
        assert_eq!(m.regs().len(), 0, "pure multicast PE needs no registers");
        assert!(m.port_dir("c_out").is_some());
        assert!(m.port_dir("c_in").is_none(), "reduce-out has no chain input");
    }

    #[test]
    fn three_input_kernel_pe() {
        // MTTKRP-style PE with three input operands.
        let m = build_pe(&spec(&[
            ("a", PeIoKind::DirectIn),
            ("b", PeIoKind::StationaryIn),
            ("c", PeIoKind::SystolicIn),
            ("d", PeIoKind::StationaryOut),
        ]));
        m.validate().unwrap();
        for p in ["a_in", "b_in", "c_in", "d_out", "en", "load_en", "swap"] {
            assert!(m.port_dir(p).is_some(), "missing port {p}");
        }
    }

    #[test]
    fn systolic_delay_chains_registers() {
        let mut s = spec(&[("a", PeIoKind::SystolicIn), ("c", PeIoKind::ReduceOut)]);
        s.tensors[0].delay = 3;
        let m = build_pe(&s);
        m.validate().unwrap();
        assert_eq!(m.regs().len(), 3);
    }

    #[test]
    fn unicast_output_registers_result() {
        let m = build_pe(&spec(&[
            ("a", PeIoKind::DirectIn),
            ("b", PeIoKind::DirectIn),
            ("c", PeIoKind::DirectOut),
        ]));
        m.validate().unwrap();
        assert_eq!(m.regs().len(), 1);
    }

    #[test]
    fn flow_to_kind_mapping() {
        use FlowClass as F;
        use TensorRole::{Input, Output};
        let cases: Vec<(F, TensorRole, PeIoKind)> = vec![
            (F::Systolic { dp: [0, 1], dt: 1 }, Input, PeIoKind::SystolicIn),
            (F::Systolic { dp: [0, 1], dt: 1 }, Output, PeIoKind::SystolicOut),
            (F::Stationary { dt: 1 }, Input, PeIoKind::StationaryIn),
            (F::Stationary { dt: 1 }, Output, PeIoKind::StationaryOut),
            (F::Multicast { dp: [1, 0] }, Input, PeIoKind::DirectIn),
            (F::ReductionTree { dp: [1, 0] }, Output, PeIoKind::ReduceOut),
            (F::Unicast, Input, PeIoKind::DirectIn),
            (F::Unicast, Output, PeIoKind::DirectOut),
            (
                F::MulticastStationary { dp: [1, 0] },
                Input,
                PeIoKind::StationaryIn,
            ),
            (
                F::SystolicMulticast {
                    systolic_dp: [0, 1],
                    systolic_dt: 1,
                    multicast_dp: [1, 0],
                },
                Input,
                PeIoKind::SystolicIn,
            ),
            (
                F::Broadcast { dps: [[1, 0], [0, 1]] },
                Input,
                PeIoKind::DirectIn,
            ),
            (F::FullReuse, Input, PeIoKind::StationaryIn),
        ];
        for (class, role, want) in cases {
            assert_eq!(PeIoKind::for_flow(&class, role), want, "{class} as {role}");
        }
    }
}
