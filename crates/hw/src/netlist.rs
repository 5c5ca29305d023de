//! A structural RTL netlist IR.
//!
//! This is the substrate standing in for the paper's Chisel embedding: a
//! module is a set of typed nets, single-driver combinational assignments,
//! registers, and child instances. It is deliberately small — just rich
//! enough to express the paper's Figure 3 PE templates, interconnect,
//! reduction trees, memory banks and controller — and it emits synthesizable
//! Verilog (see [`crate::verilog`]).

use std::collections::HashMap;
use std::fmt;

use serde::Serialize;

/// Index of a net within its [`Module`].
pub type NetId = usize;

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Dir {
    /// Driven from outside the module.
    Input,
    /// Driven by the module.
    Output,
}

/// A named wire with a bit width.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Net {
    /// Verilog-safe identifier.
    pub name: String,
    /// Width in bits (≥ 1).
    pub width: u32,
}

/// Binary combinational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BinOp {
    /// Two's-complement addition (result width = max operand width).
    Add,
    /// Two's-complement subtraction.
    Sub,
    /// Truncating multiplication (result width = max operand width; size the
    /// target net for the full product via [`Expr::resize`] on the operands).
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Equality (1-bit result).
    Eq,
    /// Unsigned less-than (1-bit result).
    Lt,
}

/// A combinational expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Expr {
    /// A literal.
    Const {
        /// The value (truncated to `width`).
        value: u64,
        /// Width in bits.
        width: u32,
    },
    /// A reference to a net.
    Net(NetId),
    /// Bitwise NOT.
    Not(Box<Expr>),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// A 2-way multiplexer: `sel ? on_true : on_false`.
    Mux {
        /// 1-bit select.
        sel: Box<Expr>,
        /// Value when `sel` is 1.
        on_true: Box<Expr>,
        /// Value when `sel` is 0.
        on_false: Box<Expr>,
    },
    /// Zero-extension or truncation to an explicit width. Any operand is
    /// allowed; Verilog emission hoists compound operands into intermediate
    /// wires where a part-select would otherwise be illegal.
    Resize(Box<Expr>, u32),
    /// Sign-extension (or truncation) to an explicit width. Use this for
    /// signed datapaths — the PE computation cell widens its operands with
    /// it.
    SignExtend(Box<Expr>, u32),
}

impl Expr {
    /// A literal expression.
    pub fn lit(value: u64, width: u32) -> Expr {
        Expr::Const { value, width }
    }

    /// A reference to `net`.
    pub fn net(net: NetId) -> Expr {
        Expr::Net(net)
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // builder sugar, not arithmetic on Expr values
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)] // builder sugar, not arithmetic on Expr values
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// `sel ? self : other`.
    pub fn mux(sel: Expr, on_true: Expr, on_false: Expr) -> Expr {
        Expr::Mux {
            sel: Box::new(sel),
            on_true: Box::new(on_true),
            on_false: Box::new(on_false),
        }
    }

    /// Zero-extends or truncates to `width`.
    pub fn resize(self, width: u32) -> Expr {
        Expr::Resize(Box::new(self), width)
    }

    /// Sign-extends (or truncates) to `width`.
    pub fn sext(self, width: u32) -> Expr {
        Expr::SignExtend(Box::new(self), width)
    }

    /// The width this expression produces, given the module's nets.
    pub fn width(&self, nets: &[Net]) -> u32 {
        match self {
            Expr::Const { width, .. } => *width,
            Expr::Net(id) => nets[*id].width,
            Expr::Not(e) => e.width(nets),
            Expr::Bin(op, a, b) => match op {
                BinOp::Eq | BinOp::Lt => 1,
                _ => a.width(nets).max(b.width(nets)),
            },
            Expr::Mux { on_true, .. } => on_true.width(nets),
            Expr::Resize(_, w) | Expr::SignExtend(_, w) => *w,
        }
    }

    /// Collects every net the expression reads.
    pub fn collect_reads(&self, out: &mut Vec<NetId>) {
        match self {
            Expr::Const { .. } => {}
            Expr::Net(id) => out.push(*id),
            Expr::Not(e) | Expr::Resize(e, _) | Expr::SignExtend(e, _) => {
                e.collect_reads(out)
            }
            Expr::Bin(_, a, b) => {
                a.collect_reads(out);
                b.collect_reads(out);
            }
            Expr::Mux {
                sel,
                on_true,
                on_false,
            } => {
                sel.collect_reads(out);
                on_true.collect_reads(out);
                on_false.collect_reads(out);
            }
        }
    }
}

/// A D-register with optional enable and a reset value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RegDef {
    /// The net holding the register's current value.
    pub target: NetId,
    /// Next-state expression.
    pub next: Expr,
    /// Optional 1-bit clock enable.
    pub enable: Option<Expr>,
    /// Synchronous reset value.
    pub init: u64,
}

/// An instantiation of a child module.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Instance {
    /// Name of the instantiated module.
    pub module: String,
    /// Instance name (unique within the parent).
    pub name: String,
    /// `(child port name, parent net)` connections.
    pub connections: Vec<(String, NetId)>,
}

/// Structural validation failure inside one module (see [`Module::validate`])
/// or across a design (see [`crate::AcceleratorDesign::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net is driven by more than one assignment/register/input.
    MultipleDrivers {
        /// Module name.
        module: String,
        /// Offending net name.
        net: String,
    },
    /// A net has no driver at all.
    NoDriver {
        /// Module name.
        module: String,
        /// Offending net name.
        net: String,
    },
    /// An assignment's expression width disagrees with its target net.
    WidthMismatch {
        /// Module name.
        module: String,
        /// Offending net name.
        net: String,
        /// Target width.
        expected: u32,
        /// Expression width.
        got: u32,
    },
    /// Combinational assignments form a cycle.
    CombinationalCycle {
        /// Module name.
        module: String,
        /// A net on the cycle.
        net: String,
    },
    /// An instance references an unknown module or port, or port direction
    /// conflicts with its use.
    BadInstance {
        /// Parent module name.
        module: String,
        /// Instance name.
        instance: String,
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers { module, net } => {
                write!(f, "net {net:?} in module {module:?} has multiple drivers")
            }
            NetlistError::NoDriver { module, net } => {
                write!(f, "net {net:?} in module {module:?} has no driver")
            }
            NetlistError::WidthMismatch {
                module,
                net,
                expected,
                got,
            } => write!(
                f,
                "net {net:?} in module {module:?} is {expected} bits but is driven by a {got}-bit expression"
            ),
            NetlistError::CombinationalCycle { module, net } => write!(
                f,
                "combinational cycle through net {net:?} in module {module:?}"
            ),
            NetlistError::BadInstance {
                module,
                instance,
                reason,
            } => write!(
                f,
                "instance {instance:?} in module {module:?}: {reason}"
            ),
        }
    }
}

impl std::error::Error for NetlistError {}

/// One hardware module: nets, ports, assignments, registers, and child
/// instances.
///
/// # Examples
///
/// Build a 2-tap accumulator and validate it:
///
/// ```
/// use tensorlib_hw::netlist::{Expr, Module};
///
/// let mut m = Module::new("acc");
/// let din = m.input("din", 16);
/// let acc = m.output("acc", 16);
/// m.reg(acc, Expr::net(acc).add(Expr::net(din)), None, 0);
/// m.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Module {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    /// In net order, each net once: only `input`/`output` add ports, each
    /// with a fresh net, and the optimizer's GC renumbers monotonically.
    pub(crate) ports: Vec<(NetId, Dir)>,
    pub(crate) assigns: Vec<(NetId, Expr)>,
    pub(crate) regs: Vec<RegDef>,
    pub(crate) instances: Vec<Instance>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            nets: Vec::new(),
            ports: Vec::new(),
            assigns: Vec::new(),
            regs: Vec::new(),
            instances: Vec::new(),
        }
    }

    /// The module's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares an internal net.
    pub fn net(&mut self, name: impl Into<String>, width: u32) -> NetId {
        assert!(width > 0, "net width must be positive");
        self.nets.push(Net {
            name: name.into(),
            width,
        });
        self.nets.len() - 1
    }

    /// Declares an input port.
    pub fn input(&mut self, name: impl Into<String>, width: u32) -> NetId {
        let id = self.net(name, width);
        self.ports.push((id, Dir::Input));
        id
    }

    /// Declares an output port.
    pub fn output(&mut self, name: impl Into<String>, width: u32) -> NetId {
        let id = self.net(name, width);
        self.ports.push((id, Dir::Output));
        id
    }

    /// Adds a combinational assignment `target = expr`.
    pub fn assign(&mut self, target: NetId, expr: Expr) {
        self.assigns.push((target, expr));
    }

    /// Adds a register driving `target`.
    pub fn reg(&mut self, target: NetId, next: Expr, enable: Option<Expr>, init: u64) {
        self.regs.push(RegDef {
            target,
            next,
            enable,
            init,
        });
    }

    /// Adds a child instance.
    pub fn instance(
        &mut self,
        module: impl Into<String>,
        name: impl Into<String>,
        connections: Vec<(String, NetId)>,
    ) {
        self.instances.push(Instance {
            module: module.into(),
            name: name.into(),
            connections,
        });
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All ports as `(net, direction)`.
    pub fn ports(&self) -> &[(NetId, Dir)] {
        &self.ports
    }

    /// The direction of the port named `name`, if it exists.
    pub fn port_dir(&self, name: &str) -> Option<Dir> {
        self.ports
            .iter()
            .find(|(id, _)| self.nets[*id].name == name)
            .map(|&(_, d)| d)
    }

    /// All combinational assignments.
    pub fn assigns(&self) -> &[(NetId, Expr)] {
        &self.assigns
    }

    /// All registers.
    pub fn regs(&self) -> &[RegDef] {
        &self.regs
    }

    /// All child instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Counts arithmetic/steering operators in this module's expressions
    /// (excluding children). Used to ground the resource summary in the
    /// actual netlist.
    pub fn count_ops(&self) -> OpCounts {
        let mut counts = OpCounts::default();
        let exprs = self
            .assigns
            .iter()
            .map(|(_, e)| e)
            .chain(self.regs.iter().map(|r| &r.next))
            .chain(self.regs.iter().filter_map(|r| r.enable.as_ref()));
        for e in exprs {
            count_expr(e, &self.nets, &mut counts);
        }
        counts
    }

    /// Total register bits in this module (excluding children).
    pub fn reg_bits(&self) -> u64 {
        self.regs
            .iter()
            .map(|r| self.nets[r.target].width as u64)
            .sum()
    }

    /// Validates single-driver discipline, width agreement, and
    /// combinational acyclicity *within* this module. Cross-module port
    /// checks (including instance-output drivers) live in
    /// [`crate::AcceleratorDesign::validate`].
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let err_net = |net: NetId| self.nets[net].name.clone();
        // Driver census: inputs, assigns, regs, instance connections (the
        // latter counted as potential drivers, verified per-direction at the
        // design level — here we only catch obvious double-drives between
        // assigns/regs/inputs).
        let mut drivers = vec![0u32; self.nets.len()];
        for (id, dir) in &self.ports {
            if *dir == Dir::Input {
                drivers[*id] += 1;
            }
        }
        for (target, expr) in &self.assigns {
            drivers[*target] += 1;
            let got = expr.width(&self.nets);
            let expected = self.nets[*target].width;
            if got != expected {
                return Err(NetlistError::WidthMismatch {
                    module: self.name.clone(),
                    net: err_net(*target),
                    expected,
                    got,
                });
            }
        }
        for r in &self.regs {
            drivers[r.target] += 1;
            let got = r.next.width(&self.nets);
            let expected = self.nets[r.target].width;
            if got != expected {
                return Err(NetlistError::WidthMismatch {
                    module: self.name.clone(),
                    net: err_net(r.target),
                    expected,
                    got,
                });
            }
        }
        // Instance connections are NOT part of this census: direction is a
        // property of the child module's ports, which this module cannot see.
        // The design-level pass ([`crate::AcceleratorDesign::validate`])
        // resolves child port directions and counts instance outputs as
        // drivers, so an assign-vs-instance-output double drive is caught
        // there.
        for (id, count) in drivers.iter().enumerate() {
            if *count > 1 {
                return Err(NetlistError::MultipleDrivers {
                    module: self.name.clone(),
                    net: err_net(id),
                });
            }
        }
        // Combinational cycle check over assigns only (registers break paths).
        let mut graph: HashMap<NetId, Vec<NetId>> = HashMap::new();
        for (target, expr) in &self.assigns {
            let mut reads = Vec::new();
            expr.collect_reads(&mut reads);
            graph.insert(*target, reads);
        }
        let mut state = vec![0u8; self.nets.len()]; // 0 unseen, 1 on stack, 2 done
        for &start in graph.keys() {
            if state[start] == 0 {
                if let Some(bad) = dfs_cycle(start, &graph, &mut state) {
                    return Err(NetlistError::CombinationalCycle {
                        module: self.name.clone(),
                        net: err_net(bad),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Operator census of one module, from [`Module::count_ops`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OpCounts {
    /// `Add`/`Sub` operators.
    pub adders: u64,
    /// `Mul` operators.
    pub multipliers: u64,
    /// Total mux data bits (each mux counted at its output width).
    pub mux_bits: u64,
    /// Comparators (`Eq`/`Lt`).
    pub comparators: u64,
}

fn count_expr(expr: &Expr, nets: &[Net], counts: &mut OpCounts) {
    match expr {
        Expr::Const { .. } | Expr::Net(_) => {}
        Expr::Not(e) | Expr::Resize(e, _) | Expr::SignExtend(e, _) => {
            count_expr(e, nets, counts)
        }
        Expr::Bin(op, a, b) => {
            match op {
                BinOp::Add | BinOp::Sub => counts.adders += 1,
                BinOp::Mul => counts.multipliers += 1,
                BinOp::Eq | BinOp::Lt => counts.comparators += 1,
                _ => {}
            }
            count_expr(a, nets, counts);
            count_expr(b, nets, counts);
        }
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => {
            counts.mux_bits += on_true.width(nets) as u64;
            count_expr(sel, nets, counts);
            count_expr(on_true, nets, counts);
            count_expr(on_false, nets, counts);
        }
    }
}

fn dfs_cycle(
    node: NetId,
    graph: &HashMap<NetId, Vec<NetId>>,
    state: &mut [u8],
) -> Option<NetId> {
    state[node] = 1;
    if let Some(nexts) = graph.get(&node) {
        for &n in nexts {
            match state[n] {
                1 => return Some(n),
                0 => {
                    if let Some(bad) = dfs_cycle(n, graph, state) {
                        return Some(bad);
                    }
                }
                _ => {}
            }
        }
    }
    state[node] = 2;
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate_counter() {
        let mut m = Module::new("counter");
        let en = m.input("en", 1);
        let count = m.output("count", 8);
        m.reg(
            count,
            Expr::net(count).add(Expr::lit(1, 8)),
            Some(Expr::net(en)),
            0,
        );
        m.validate().unwrap();
        assert_eq!(m.reg_bits(), 8);
        assert_eq!(m.port_dir("en"), Some(Dir::Input));
        assert_eq!(m.port_dir("count"), Some(Dir::Output));
        assert_eq!(m.port_dir("zz"), None);
    }

    #[test]
    fn multiple_drivers_detected() {
        let mut m = Module::new("bad");
        let a = m.input("a", 4);
        let b = m.net("b", 4);
        m.assign(b, Expr::net(a));
        m.assign(b, Expr::lit(0, 4));
        assert!(matches!(
            m.validate().unwrap_err(),
            NetlistError::MultipleDrivers { .. }
        ));
    }

    #[test]
    fn width_mismatch_detected() {
        let mut m = Module::new("bad");
        let a = m.input("a", 4);
        let b = m.net("b", 8);
        m.assign(b, Expr::net(a));
        assert!(matches!(
            m.validate().unwrap_err(),
            NetlistError::WidthMismatch { expected: 8, got: 4, .. }
        ));
    }

    #[test]
    fn resize_fixes_widths() {
        let mut m = Module::new("ok");
        let a = m.input("a", 4);
        let b = m.net("b", 8);
        m.assign(b, Expr::net(a).resize(8));
        m.validate().unwrap();
    }

    #[test]
    fn compound_resize_operands_validate() {
        // Historically rejected to keep Verilog emission trivially legal;
        // the emitter now hoists compound part-select operands into named
        // wires, so these are first-class.
        let mut m = Module::new("ok");
        let a = m.input("a", 4);
        let b = m.net("b", 8);
        let c = m.output("c", 2);
        m.assign(b, Expr::net(a).add(Expr::net(a)).resize(8));
        m.assign(c, Expr::net(b).add(Expr::lit(1, 8)).sext(2));
        m.validate().unwrap();
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut m = Module::new("loopy");
        let a = m.net("a", 1);
        let b = m.net("b", 1);
        m.assign(a, Expr::net(b));
        m.assign(b, Expr::net(a));
        assert!(matches!(
            m.validate().unwrap_err(),
            NetlistError::CombinationalCycle { .. }
        ));
    }

    #[test]
    fn register_breaks_cycles() {
        let mut m = Module::new("feedback");
        let a = m.net("a", 8);
        let b = m.net("b", 8);
        m.assign(b, Expr::net(a).add(Expr::lit(1, 8)));
        m.reg(a, Expr::net(b), None, 0);
        m.validate().unwrap();
    }

    #[test]
    fn expr_widths() {
        let nets = vec![
            Net {
                name: "x".into(),
                width: 8,
            },
            Net {
                name: "y".into(),
                width: 16,
            },
        ];
        assert_eq!(Expr::net(0).add(Expr::net(1)).width(&nets), 16);
        assert_eq!(
            Expr::Bin(BinOp::Eq, Box::new(Expr::net(0)), Box::new(Expr::net(0))).width(&nets),
            1
        );
        assert_eq!(Expr::net(1).resize(4).width(&nets), 4);
        assert_eq!(
            Expr::mux(Expr::lit(1, 1), Expr::net(0), Expr::net(0)).width(&nets),
            8
        );
        assert_eq!(Expr::Not(Box::new(Expr::net(0))).width(&nets), 8);
    }

    #[test]
    fn collect_reads_finds_all() {
        let e = Expr::mux(
            Expr::net(0),
            Expr::net(1).mul(Expr::net(2)),
            Expr::Not(Box::new(Expr::net(3))),
        );
        let mut reads = Vec::new();
        e.collect_reads(&mut reads);
        reads.sort();
        assert_eq!(reads, vec![0, 1, 2, 3]);
    }

    #[test]
    fn error_display() {
        let e = NetlistError::NoDriver {
            module: "m".into(),
            net: "n".into(),
        };
        assert!(e.to_string().contains("no driver"));
    }
}
