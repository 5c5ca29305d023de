//! Netlist elaboration and cycle-level interpretation.
//!
//! [`elaborate`] flattens a module hierarchy into a single netlist (child
//! instances inlined, ports spliced onto parent nets, memory banks kept as
//! behavioural primitives). [`Interpreter`] then executes the flat netlist
//! cycle by cycle: combinational settle in topological order, registered
//! state commits on [`Interpreter::step`].
//!
//! This is how the test suite proves the generated RTL itself computes the
//! kernel — e.g. driving an output-stationary GEMM array's feed ports with
//! the skewed schedule and reading the drained results (see
//! `tests/netlist_execution.rs`).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::array::HwError;
use crate::fault::{BankWordFlip, FaultKind, FaultSpec, FaultState, RegHold, SlotFlip, StuckForce};
use crate::mem::{next_addr, MemBank};
use crate::netlist::{BinOp, Dir, Expr, Module, Net, NetId, RegDef};
use crate::trace::{InterpreterStats, TraceConfig, TraceEvent, TraceState};

/// A memory bank instance surviving elaboration as a behavioural primitive.
#[derive(Debug, Clone)]
pub struct FlatBank {
    /// Hierarchical instance path (e.g. `bank_0_a_feed0`).
    pub name: String,
    /// The bank template.
    pub spec: MemBank,
    /// Flat net carrying the stream enable.
    pub en: NetId,
    /// Flat net carrying the write enable.
    pub wen: NetId,
    /// Flat net carrying write data.
    pub wdata: NetId,
    /// Flat net carrying read data (driven by the bank).
    pub rdata: NetId,
    /// Double-buffer select net, if the bank is double-buffered.
    pub buf_sel: Option<NetId>,
}

/// A fully elaborated (flattened) netlist: a shared, immutable handle that
/// dereferences to its [`FlatNetlist`]. A clone copies a pointer, so every
/// engine over the design ([`Interpreter`], [`crate::batch::BatchSim`] and
/// their clones) reads one copy. The name index and the compiled bytecode
/// are built on first use and then shared: a design compiles at most once,
/// and never if only the tree-walking engine runs it.
///
/// Names resolve to their first occurrence: elaboration keeps duplicate and
/// empty names, and every lookup by name (peeks, pokes, probes, trace
/// watches, fault targets) picks the lowest net id carrying the name, or
/// for ports the first such port in [`FlatNetlist::ports`] order.
#[derive(Debug, Clone)]
pub struct FlatDesign(Arc<FlatNetlist>);

impl std::ops::Deref for FlatDesign {
    type Target = FlatNetlist;

    fn deref(&self) -> &FlatNetlist {
        &self.0
    }
}

/// The contents of a [`FlatDesign`].
#[derive(Debug)]
pub struct FlatNetlist {
    pub(crate) nets: Vec<Net>,
    pub(crate) ports: Vec<(NetId, Dir)>,
    pub(crate) assigns: Vec<(NetId, Expr)>,
    pub(crate) regs: Vec<RegDef>,
    pub(crate) banks: Vec<FlatBank>,
    pub(crate) topo: Vec<usize>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    names: OnceLock<NameIndex>,
    compiled: OnceLock<Compiled>,
}

/// First-occurrence name → net id maps over every net and over the
/// top-level ports.
#[derive(Debug)]
struct NameIndex {
    nets: HashMap<String, NetId>,
    ports: HashMap<String, NetId>,
}

impl FlatNetlist {
    /// All flat nets (names are hierarchical, `inst.inst.net`).
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Top-level ports.
    pub fn ports(&self) -> &[(NetId, Dir)] {
        &self.ports
    }

    /// The top-level input ports, in port order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The top-level output ports, in port order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The flat net id of the first net named `name`.
    pub fn net(&self, name: &str) -> Option<NetId> {
        self.names().nets.get(name).copied()
    }

    /// The flat net id of the first top-level port named `name`.
    pub fn port(&self, name: &str) -> Option<NetId> {
        self.names().ports.get(name).copied()
    }

    /// [`FlatNetlist::net`] for the engines, which panic on unknown names.
    pub(crate) fn net_id(&self, name: &str) -> NetId {
        self.net(name).unwrap_or_else(|| panic!("no net {name:?}"))
    }

    /// [`FlatNetlist::port`] for the engines, which panic on unknown names.
    pub(crate) fn port_id(&self, port: &str) -> NetId {
        self.port(port).unwrap_or_else(|| panic!("no port {port:?}"))
    }

    /// Total registers after flattening.
    pub fn reg_count(&self) -> usize {
        self.regs.len()
    }

    /// Total behavioural banks after flattening.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// All registers after flattening (targets index [`FlatNetlist::nets`]).
    pub fn regs(&self) -> &[RegDef] {
        &self.regs
    }

    /// The behavioural bank instances.
    pub fn flat_banks(&self) -> &[FlatBank] {
        &self.banks
    }

    /// The name indexes, built by the first lookup by name.
    fn names(&self) -> &NameIndex {
        self.names.get_or_init(|| NameIndex {
            nets: first_occurrence(&self.nets, 0..self.nets.len()),
            ports: first_occurrence(&self.nets, self.ports.iter().map(|&(id, _)| id)),
        })
    }

    /// The design's compiled bytecode, built by the first caller.
    pub(crate) fn compiled(&self) -> &Compiled {
        self.compiled.get_or_init(|| Compiled::build(self))
    }
}

/// Elaboration failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElaborateError {
    /// An instance references a module that is neither in `modules` nor a
    /// bank template.
    UnknownModule(String),
    /// An instance connection names a port the child does not have.
    UnknownPort {
        /// The child module.
        module: String,
        /// The missing port.
        port: String,
    },
}

impl std::fmt::Display for ElaborateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElaborateError::UnknownModule(m) => write!(f, "unknown module {m:?}"),
            ElaborateError::UnknownPort { module, port } => {
                write!(f, "module {module:?} has no port {port:?}")
            }
        }
    }
}

impl std::error::Error for ElaborateError {}

/// Flattens the hierarchy rooted at `top` into a single netlist.
///
/// # Errors
///
/// Returns [`ElaborateError`] if an instance references an unknown module or
/// port.
///
/// # Examples
///
/// ```
/// use tensorlib_hw::interp::{elaborate, Interpreter};
/// use tensorlib_hw::netlist::{Expr, Module};
///
/// let mut m = Module::new("cnt");
/// let en = m.input("en", 1);
/// let q = m.output("q", 8);
/// m.reg(q, Expr::net(q).add(Expr::lit(1, 8)), Some(Expr::net(en)), 0);
/// let flat = elaborate(&[m], &[], "cnt")?;
/// let mut sim = Interpreter::new(flat);
/// sim.poke("en", 1);
/// sim.step();
/// sim.step();
/// assert_eq!(sim.peek("q"), 2);
/// # Ok::<(), tensorlib_hw::interp::ElaborateError>(())
/// ```
pub fn elaborate(
    modules: &[Module],
    banks: &[MemBank],
    top: &str,
) -> Result<FlatDesign, ElaborateError> {
    let _span = tensorlib_obs::span("hw.flatten");
    let by_name: HashMap<&str, &Module> = modules.iter().map(|m| (m.name(), m)).collect();
    let bank_by_name: HashMap<String, &MemBank> =
        banks.iter().map(|b| (b.module_name(), b)).collect();
    let top_module = by_name
        .get(top)
        .ok_or_else(|| ElaborateError::UnknownModule(top.to_string()))?;

    let mut flat = FlatNetlist {
        nets: Vec::new(),
        ports: Vec::new(),
        assigns: Vec::new(),
        regs: Vec::new(),
        banks: Vec::new(),
        topo: Vec::new(),
        inputs: Vec::new(),
        outputs: Vec::new(),
        names: OnceLock::new(),
        compiled: OnceLock::new(),
    };

    // Top-level ports become flat nets first, so a port's name finds the
    // port before any internal net of that name.
    let mut top_map: Vec<Option<NetId>> = vec![None; top_module.nets().len()];
    for (id, dir) in top_module.ports() {
        let flat_id = flat.nets.len();
        flat.nets.push(top_module.nets()[*id].clone());
        flat.ports.push((flat_id, *dir));
        top_map[*id] = Some(flat_id);
    }
    inline(
        top_module,
        "",
        top_map,
        &by_name,
        &bank_by_name,
        &mut flat,
    )?;

    // Topological order over combinational assigns.
    flat.topo = topo_order(&flat);
    let direction = |dir: Dir| flat.ports.iter().filter(|p| p.1 == dir).map(|p| p.0).collect();
    (flat.inputs, flat.outputs) = (direction(Dir::Input), direction(Dir::Output));
    tensorlib_obs::counter_add("hw.flat_nets", flat.nets.len() as u64);
    tensorlib_obs::counter_add("hw.flat_assigns", flat.assigns.len() as u64);
    tensorlib_obs::hist_record("hw.design_nets", flat.nets.len() as u64);
    Ok(FlatDesign(Arc::new(flat)))
}

/// Convenience: elaborates a complete [`crate::design::AcceleratorDesign`]
/// from the given top module (usually [`crate::design::AcceleratorDesign::top`]
/// or the array module).
pub fn elaborate_design(
    design: &crate::design::AcceleratorDesign,
    top: &str,
) -> Result<FlatDesign, ElaborateError> {
    elaborate(design.modules(), design.mem_banks(), top)
}

/// Maps each name among `ids` to the first of them carrying it.
fn first_occurrence(nets: &[Net], ids: impl ExactSizeIterator<Item = NetId>) -> HashMap<String, NetId> {
    let mut index = HashMap::with_capacity(ids.len());
    for id in ids {
        index.entry(nets[id].name.clone()).or_insert(id);
    }
    index
}

fn inline(
    module: &Module,
    prefix: &str,
    // For each child-local net: the flat id it maps to (ports pre-bound by
    // the parent), or None to allocate fresh.
    mut map: Vec<Option<NetId>>,
    by_name: &HashMap<&str, &Module>,
    bank_by_name: &HashMap<String, &MemBank>,
    flat: &mut FlatNetlist,
) -> Result<(), ElaborateError> {
    // Allocate fresh flat nets for everything unbound.
    for (id, net) in module.nets().iter().enumerate() {
        if map[id].is_none() {
            let flat_id = flat.nets.len();
            flat.nets.push(Net {
                name: format!("{prefix}{}", net.name),
                width: net.width,
            });
            map[id] = Some(flat_id);
        }
    }
    let remap = |id: NetId| map[id].expect("all nets mapped");
    for (target, expr) in module.assigns() {
        flat.assigns.push((remap(*target), rewrite(expr, &map)));
    }
    for r in module.regs() {
        flat.regs.push(RegDef {
            target: remap(r.target),
            next: rewrite(&r.next, &map),
            enable: r.enable.as_ref().map(|e| rewrite(e, &map)),
            init: r.init,
        });
    }
    for inst in module.instances() {
        let child_prefix = format!("{prefix}{}.", inst.name);
        if let Some(bank) = bank_by_name.get(&inst.module) {
            let find = |port: &str| -> Result<Option<NetId>, ElaborateError> {
                Ok(inst
                    .connections
                    .iter()
                    .find(|(p, _)| p == port)
                    .map(|(_, n)| remap(*n)))
            };
            let req = |port: &str| -> Result<NetId, ElaborateError> {
                find(port)?.ok_or_else(|| ElaborateError::UnknownPort {
                    module: inst.module.clone(),
                    port: port.to_string(),
                })
            };
            flat.banks.push(FlatBank {
                name: format!("{prefix}{}", inst.name),
                spec: (*bank).clone(),
                en: req("en")?,
                wen: req("wen")?,
                wdata: req("wdata")?,
                rdata: req("rdata")?,
                buf_sel: find("buf_sel")?,
            });
            continue;
        }
        let child = by_name
            .get(inst.module.as_str())
            .ok_or_else(|| ElaborateError::UnknownModule(inst.module.clone()))?;
        let mut child_map: Vec<Option<NetId>> = vec![None; child.nets().len()];
        for (port, parent_net) in &inst.connections {
            let child_net = child
                .ports()
                .iter()
                .find(|(id, _)| child.nets()[*id].name == *port)
                .map(|&(id, _)| id)
                .ok_or_else(|| ElaborateError::UnknownPort {
                    module: inst.module.clone(),
                    port: port.clone(),
                })?;
            child_map[child_net] = Some(remap(*parent_net));
        }
        inline(child, &child_prefix, child_map, by_name, bank_by_name, flat)?;
    }
    Ok(())
}

fn rewrite(expr: &Expr, map: &[Option<NetId>]) -> Expr {
    match expr {
        Expr::Const { value, width } => Expr::Const {
            value: *value,
            width: *width,
        },
        Expr::Net(id) => Expr::Net(map[*id].expect("net mapped")),
        Expr::Not(e) => Expr::Not(Box::new(rewrite(e, map))),
        Expr::Bin(op, a, b) => {
            Expr::Bin(*op, Box::new(rewrite(a, map)), Box::new(rewrite(b, map)))
        }
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => Expr::Mux {
            sel: Box::new(rewrite(sel, map)),
            on_true: Box::new(rewrite(on_true, map)),
            on_false: Box::new(rewrite(on_false, map)),
        },
        Expr::Resize(e, w) => Expr::Resize(Box::new(rewrite(e, map)), *w),
        Expr::SignExtend(e, w) => Expr::SignExtend(Box::new(rewrite(e, map)), *w),
    }
}

fn topo_order(flat: &FlatNetlist) -> Vec<usize> {
    // Map: net -> assign index driving it.
    let mut driver: HashMap<NetId, usize> = HashMap::new();
    for (i, (target, _)) in flat.assigns.iter().enumerate() {
        driver.insert(*target, i);
    }
    let mut order = Vec::with_capacity(flat.assigns.len());
    let mut state = vec![0u8; flat.assigns.len()];
    fn visit(
        i: usize,
        flat: &FlatNetlist,
        driver: &HashMap<NetId, usize>,
        state: &mut [u8],
        order: &mut Vec<usize>,
    ) {
        if state[i] != 0 {
            assert!(state[i] == 2, "combinational cycle (validated earlier)");
            return;
        }
        state[i] = 1;
        let mut reads = Vec::new();
        flat.assigns[i].1.collect_reads(&mut reads);
        for r in reads {
            if let Some(&j) = driver.get(&r) {
                if state[j] == 0 {
                    visit(j, flat, driver, state, order);
                }
            }
        }
        state[i] = 2;
        order.push(i);
    }
    for i in 0..flat.assigns.len() {
        visit(i, flat, &driver, &mut state, &mut order);
    }
    order
}

pub(crate) fn mask(value: u64, width: u32) -> u64 {
    if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

pub(crate) fn sign_extend(value: u64, from: u32, to: u32) -> u64 {
    let v = mask(value, from);
    if from == 0 || from >= 64 {
        return mask(v, to);
    }
    let sign_bit = 1u64 << (from - 1);
    let extended = if v & sign_bit != 0 {
        v | !((1u64 << from) - 1)
    } else {
        v
    };
    mask(extended, to)
}

/// Returns the bitmask selecting the low `width` bits (`u64::MAX` for widths
/// of 64 and above, `0` for width 0 — matching [`mask`]).
pub(crate) fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width).wrapping_sub(1)
    }
}

/// One postfix instruction of the compiled evaluator.
///
/// Operands live on a value stack; widths, masks, and sign-extension
/// parameters are folded in at compile time so evaluation is a single linear
/// pass with no tree recursion and no per-node width re-derivation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Instr {
    /// Push a pre-masked literal.
    Const(u64),
    /// Push the current value of a net.
    Load(u32),
    /// Bitwise NOT masked to the operand width.
    Not { mask: u64 },
    /// Binary operator over the top two stack entries (see [`bin_eval`] for
    /// the per-op masking rules, which mirror the tree evaluator).
    Bin { op: BinOp, mask: u64 },
    /// 2-way mux: pops `on_false`, `on_true`, then tests `sel & 1`.
    Mux,
    /// Zero-extension/truncation to a precomputed mask.
    Resize { mask: u64 },
    /// Sign-extension with all parameters precomputed. `sign_bit == 0`
    /// encodes the degenerate from-widths (0 or ≥ 64) where no extension
    /// happens.
    SignExt {
        /// Mask selecting the source width.
        from_mask: u64,
        /// The source sign bit (0 if no extension applies).
        sign_bit: u64,
        /// Bits OR-ed in when the sign bit is set (`!from_mask`).
        ext_bits: u64,
        /// Mask selecting the destination width.
        to_mask: u64,
    },
    /// Pop the expression result and store it into a net (masked to the
    /// target width). Terminates one combinational assignment.
    Store { net: u32, mask: u64 },
    /// Fused `Load` + `Store`: a wire alias assignment.
    Copy { src: u32, dst: u32, mask: u64 },
    /// Fused `Const` + `Store` (value pre-masked to the target width).
    StoreConst { dst: u32, value: u64 },
    /// Pop next-value then enable; append the sample (masked next value if
    /// enabled, else the register's current value, making the commit loop
    /// branchless) to the register sample buffer. Samples appear in
    /// `FlatDesign::regs` order, which the commit loop relies on.
    SampleReg { mask: u64, target: u32 },
    /// Pop next-value; append an always-enabled register sample.
    SampleRegAlways { mask: u64 },

    // Fused superinstructions produced by the peephole pass — each folds a
    // short operand-fetch pattern into one dispatch. Semantics are exactly
    // the sequences they replace.
    /// `Load` + `Bin`: both operands fetched straight from nets.
    Bin2 { op: BinOp, a: u32, b: u32, mask: u64 },
    /// `Load` + `SignExt`.
    LoadSext {
        net: u32,
        from_mask: u64,
        sign_bit: u64,
        ext_bits: u64,
        to_mask: u64,
    },
    /// `Load` + `Resize`.
    LoadMasked { net: u32, mask: u64 },
    /// `Load` + `Not`.
    NotNet { net: u32, mask: u64 },
    /// `Mux` with all three operands fetched straight from nets.
    Mux3 { sel: u32, t: u32, f: u32 },
    /// `SampleReg` with net-sourced enable and next value.
    SampleRegNets {
        en: u32,
        next: u32,
        mask: u64,
        target: u32,
    },
    /// `SampleRegAlways` with a net-sourced next value.
    SampleRegAlwaysNet { net: u32, mask: u64 },
}

/// Applies a binary operator with the tree evaluator's masking rules:
/// arithmetic wraps then masks to the max operand width, logical ops need no
/// mask (operands are already in range), comparisons produce a 1-bit flag.
#[inline]
pub(crate) fn bin_eval(op: BinOp, va: u64, vb: u64, mask: u64) -> u64 {
    match op {
        BinOp::Add => va.wrapping_add(vb) & mask,
        BinOp::Sub => va.wrapping_sub(vb) & mask,
        BinOp::Mul => va.wrapping_mul(vb) & mask,
        BinOp::And => va & vb,
        BinOp::Or => va | vb,
        BinOp::Xor => va ^ vb,
        BinOp::Eq => (va == vb) as u64,
        BinOp::Lt => (va < vb) as u64,
    }
}

/// Peephole pass over one freshly lowered expression segment: fuses
/// operand-fetch patterns (`Load` feeding a unary op, `Load`+`Load` feeding
/// a binary op, three `Load`s feeding a mux) into superinstructions. Postfix
/// guarantees consecutive `Load`s are exactly the consumer's top-of-stack
/// operands, so each rewrite is semantics-preserving.
pub(crate) fn peephole(seg: &mut Vec<Instr>) {
    let mut out = Vec::with_capacity(seg.len());
    for ins in seg.drain(..) {
        match ins {
            Instr::SignExt {
                from_mask,
                sign_bit,
                ext_bits,
                to_mask,
            } => {
                if let Some(&Instr::Load(net)) = out.last() {
                    out.pop();
                    out.push(Instr::LoadSext {
                        net,
                        from_mask,
                        sign_bit,
                        ext_bits,
                        to_mask,
                    });
                } else {
                    out.push(ins);
                }
            }
            Instr::Resize { mask } => {
                if let Some(&Instr::Load(net)) = out.last() {
                    out.pop();
                    out.push(Instr::LoadMasked { net, mask });
                } else {
                    out.push(ins);
                }
            }
            Instr::Not { mask } => {
                if let Some(&Instr::Load(net)) = out.last() {
                    out.pop();
                    out.push(Instr::NotNet { net, mask });
                } else {
                    out.push(ins);
                }
            }
            Instr::Bin { op, mask } => {
                if let [.., Instr::Load(a), Instr::Load(b)] = out[..] {
                    out.truncate(out.len() - 2);
                    out.push(Instr::Bin2 { op, a, b, mask });
                } else {
                    out.push(ins);
                }
            }
            Instr::Mux => {
                if let [.., Instr::Load(sel), Instr::Load(t), Instr::Load(f)] = out[..] {
                    out.truncate(out.len() - 3);
                    out.push(Instr::Mux3 { sel, t, f });
                } else {
                    out.push(ins);
                }
            }
            other => out.push(other),
        }
    }
    *seg = out;
}

/// Bank port nets with alias resolution applied (the compiled step samples
/// through these instead of the raw [`FlatBank`] nets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CompiledBankNets {
    pub(crate) en: u32,
    pub(crate) wen: u32,
    pub(crate) wdata: u32,
    pub(crate) buf_sel: Option<u32>,
}

/// The one-time lowering of a [`FlatDesign`]'s expressions into linear
/// postfix instruction streams: one for the whole combinational settle
/// (assignments in topological order, each terminated by a store) and one
/// sampling every register's next value.
///
/// Pure wire aliases (`dst = src` where the target width does not truncate)
/// are eliminated entirely: no instruction is emitted and every compiled
/// read of `dst` — including [`Interpreter::peek`], bank port sampling, and
/// downstream expressions — is redirected to `src` through `resolve`.
#[derive(Debug, PartialEq)]
pub(crate) struct Compiled {
    pub(crate) settle_code: Vec<Instr>,
    pub(crate) reg_code: Vec<Instr>,
    /// Read-forwarding map: `resolve[n]` is the net whose value slot holds
    /// `n`'s value (identity for non-aliased nets).
    pub(crate) resolve: Vec<u32>,
    /// Register targets in `FlatDesign::regs` order (compact commit loop).
    pub(crate) reg_targets: Vec<u32>,
    /// Alias-resolved bank port nets, parallel to `FlatDesign::banks`.
    pub(crate) bank_nets: Vec<CompiledBankNets>,
}

impl Compiled {
    /// Total instructions across the settle and register streams.
    pub(crate) fn op_count(&self) -> usize {
        self.settle_code.len() + self.reg_code.len()
    }

    /// Lowers `flat`; only [`FlatNetlist::compiled`] calls this, so the
    /// `hw.bytecode_compile` span and `hw.bytecode_ops` counter record once
    /// per design.
    fn build(flat: &FlatNetlist) -> Compiled {
        let _span = tensorlib_obs::span("hw.bytecode_compile");
        let mut resolve: Vec<u32> = (0..flat.nets.len() as u32).collect();
        let mut settle_code = Vec::new();
        let mut seg = Vec::new();
        for &i in &flat.topo {
            let (target, expr) = &flat.assigns[i];
            let tw = flat.nets[*target].width;
            let mask = width_mask(tw);
            // Alias elimination: a copy that cannot truncate needs no
            // instruction at all — forward readers to the source. Topo order
            // guarantees the source's own resolution is already final.
            if let Expr::Net(src) = expr {
                if flat.nets[*src].width <= tw {
                    resolve[*target] = resolve[*src];
                    continue;
                }
            }
            seg.clear();
            lower_onto(expr, &flat.nets, &resolve, &mut seg);
            peephole(&mut seg);
            // Fuse single-instruction expressions with their store.
            match seg[..] {
                [Instr::Load(src)] => settle_code.push(Instr::Copy {
                    src,
                    dst: *target as u32,
                    mask,
                }),
                [Instr::Const(value)] => settle_code.push(Instr::StoreConst {
                    dst: *target as u32,
                    value: value & mask,
                }),
                _ => {
                    settle_code.extend_from_slice(&seg);
                    settle_code.push(Instr::Store {
                        net: *target as u32,
                        mask,
                    });
                }
            }
        }
        let mut reg_code = Vec::new();
        for r in &flat.regs {
            let mask = width_mask(flat.nets[r.target].width);
            let target = r.target as u32;
            seg.clear();
            match &r.enable {
                Some(e) => {
                    lower_onto(e, &flat.nets, &resolve, &mut seg);
                    lower_onto(&r.next, &flat.nets, &resolve, &mut seg);
                    peephole(&mut seg);
                    if let [Instr::Load(en), Instr::Load(next)] = seg[..] {
                        reg_code.push(Instr::SampleRegNets {
                            en,
                            next,
                            mask,
                            target,
                        });
                    } else {
                        reg_code.extend_from_slice(&seg);
                        reg_code.push(Instr::SampleReg { mask, target });
                    }
                }
                None => {
                    lower_onto(&r.next, &flat.nets, &resolve, &mut seg);
                    peephole(&mut seg);
                    if let [Instr::Load(net)] = seg[..] {
                        reg_code.push(Instr::SampleRegAlwaysNet { net, mask });
                    } else {
                        reg_code.extend_from_slice(&seg);
                        reg_code.push(Instr::SampleRegAlways { mask });
                    }
                }
            }
        }
        let reg_targets = flat.regs.iter().map(|r| r.target as u32).collect();
        let bank_nets = flat
            .banks
            .iter()
            .map(|b| CompiledBankNets {
                en: resolve[b.en],
                wen: resolve[b.wen],
                wdata: resolve[b.wdata],
                buf_sel: b.buf_sel.map(|n| resolve[n]),
            })
            .collect();
        let compiled = Compiled {
            settle_code,
            reg_code,
            resolve,
            reg_targets,
            bank_nets,
        };
        tensorlib_obs::counter_add("hw.bytecode_ops", compiled.op_count() as u64);
        compiled
    }
}

/// Recursive lowering helper; returns the expression's width. Net reads go
/// through `resolve` so alias-eliminated wires load straight from their
/// source slot.
pub(crate) fn lower_onto(expr: &Expr, nets: &[Net], resolve: &[u32], code: &mut Vec<Instr>) -> u32 {
    match expr {
        Expr::Const { value, width } => {
            code.push(Instr::Const(mask(*value, *width)));
            *width
        }
        Expr::Net(id) => {
            code.push(Instr::Load(resolve[*id]));
            nets[*id].width
        }
        Expr::Not(e) => {
            let w = lower_onto(e, nets, resolve, code);
            code.push(Instr::Not {
                mask: width_mask(w),
            });
            w
        }
        Expr::Bin(op, a, b) => {
            let wa = lower_onto(a, nets, resolve, code);
            let wb = lower_onto(b, nets, resolve, code);
            let w = wa.max(wb);
            code.push(Instr::Bin {
                op: *op,
                mask: width_mask(w),
            });
            match op {
                BinOp::Eq | BinOp::Lt => 1,
                _ => w,
            }
        }
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => {
            lower_onto(sel, nets, resolve, code);
            let wt = lower_onto(on_true, nets, resolve, code);
            lower_onto(on_false, nets, resolve, code);
            code.push(Instr::Mux);
            wt
        }
        Expr::Resize(e, w) => {
            lower_onto(e, nets, resolve, code);
            code.push(Instr::Resize {
                mask: width_mask(*w),
            });
            *w
        }
        Expr::SignExtend(e, w) => {
            let from = lower_onto(e, nets, resolve, code);
            let degenerate = from == 0 || from >= 64;
            code.push(Instr::SignExt {
                from_mask: width_mask(from),
                sign_bit: if degenerate { 0 } else { 1u64 << (from - 1) },
                ext_bits: if degenerate { 0 } else { !width_mask(from) },
                to_mask: width_mask(*w),
            });
            *w
        }
    }
}

/// Exact compiled-bytecode instruction count for a flat design: the number
/// of instructions [`Interpreter::new`] (and the lane-batched engine) would
/// execute per settle + register-sample pass, after alias elimination and
/// peephole fusion. This is the metric the optimizer's pre/post reports and
/// the performance gate's `opt` section are pinned against.
pub fn flat_op_count(flat: &FlatDesign) -> usize {
    flat.compiled().op_count()
}

/// Deterministic textual dump of the full compiled bytecode for a flat
/// design: settle stream, register stream, alias-resolution map, register
/// targets, and bank bindings. Two flat designs compile identically exactly
/// when their dumps are byte-identical, which makes this the equality
/// witness behind the interchange round-trip contract (`DESIGN.md` §15):
/// `parse(emit(design))` must reproduce this string byte-for-byte. It is the
/// single-line `Debug` form, which holds every field the multi-line form
/// does and formats about three times faster.
pub fn bytecode_dump(flat: &FlatDesign) -> String {
    format!("{:?}", flat.compiled())
}

/// One [`FaultSpec`] resolved against a flat netlist: the canonical value
/// slot, register index, or bank storage word the interpreter engines act
/// on. Shared by the scalar [`Interpreter::attach_faults`] and the
/// lane-batched engine ([`crate::batch::BatchSim`]) so both resolve specs —
/// and reject invalid ones — identically.
pub(crate) enum ResolvedFault {
    Stuck(StuckForce),
    Flip(SlotFlip),
    Bank(BankWordFlip),
    Hold(RegHold),
}

/// Resolves one fault spec against `flat`. `resolve` is the compiled
/// engine's alias-resolution map when running compiled (stuck-at targets are
/// canonicalized through it), `None` on the tree-walking path.
pub(crate) fn resolve_fault_spec(
    spec: &FaultSpec,
    flat: &FlatDesign,
    resolve: Option<&[u32]>,
) -> Result<ResolvedFault, HwError> {
    let lookup = |name: &str| -> Result<NetId, HwError> {
        flat.net(name)
            .ok_or_else(|| HwError::UnknownNet { net: name.into() })
    };
    let read_slot = |id: NetId| -> usize {
        match resolve {
            Some(r) => r[id] as usize,
            None => id,
        }
    };
    match &spec.kind {
        FaultKind::StuckAt { bit, value } => {
            let id = lookup(&spec.target)?;
            let width = flat.nets[id].width;
            if *bit >= width {
                return Err(HwError::FaultBitOutOfRange {
                    net: spec.target.clone(),
                    bit: *bit,
                    width,
                });
            }
            let m = 1u64 << bit;
            Ok(ResolvedFault::Stuck(StuckForce {
                slot: read_slot(id) as u32,
                or_mask: if *value { m } else { 0 },
                and_mask: if *value { u64::MAX } else { !m },
            }))
        }
        FaultKind::TransientFlip { bit, cycle } => {
            let id = lookup(&spec.target)?;
            let width = flat.nets[id].width;
            if *bit >= width {
                return Err(HwError::FaultBitOutOfRange {
                    net: spec.target.clone(),
                    bit: *bit,
                    width,
                });
            }
            if !flat.regs.iter().any(|r| r.target == id) {
                return Err(HwError::NotARegister {
                    net: spec.target.clone(),
                });
            }
            Ok(ResolvedFault::Flip(SlotFlip {
                cycle: *cycle,
                slot: id,
                xor: 1u64 << bit,
            }))
        }
        FaultKind::BankFlip { word, bit, cycle } => {
            let bank = flat
                .banks
                .iter()
                .position(|b| b.name == spec.target)
                .ok_or_else(|| HwError::UnknownNet {
                    net: spec.target.clone(),
                })?;
            let spec_bank = &flat.banks[bank].spec;
            let mult = if spec_bank.is_double_buffered() { 2 } else { 1 };
            let capacity = (spec_bank.words() * mult) as usize;
            if *word >= capacity {
                return Err(HwError::FaultWordOutOfRange {
                    bank: spec.target.clone(),
                    word: *word,
                    capacity,
                });
            }
            let width = spec_bank.width();
            if *bit >= width {
                return Err(HwError::FaultBitOutOfRange {
                    net: spec.target.clone(),
                    bit: *bit,
                    width,
                });
            }
            Ok(ResolvedFault::Bank(BankWordFlip {
                cycle: *cycle,
                bank,
                word: *word,
                xor: 1u64 << bit,
            }))
        }
        FaultKind::DropTransition { cycle } => {
            let id = lookup(&spec.target)?;
            let reg = flat
                .regs
                .iter()
                .position(|r| r.target == id)
                .ok_or_else(|| HwError::NotARegister {
                    net: spec.target.clone(),
                })?;
            Ok(ResolvedFault::Hold(RegHold {
                cycle: *cycle,
                reg,
                target: id,
            }))
        }
    }
}

/// Re-applies stuck-at forces to `slot` after a store clobbered it. Only
/// called on the fault-injecting execution paths; `forced` is a handful of
/// entries at most, so a linear scan is the fast structure.
#[inline]
fn reforce(forced: &[StuckForce], slot: u32, values: &mut [u64]) {
    for s in forced {
        if s.slot == slot {
            let v = values[slot as usize];
            values[slot as usize] = (v | s.or_mask) & s.and_mask;
        }
    }
}

/// Executes one bytecode stream over the value array, using `stack` as the
/// reusable operand stack. `Store`-family instructions write into `values`;
/// `SampleReg`-family instructions append to `next_regs` (pass an empty
/// buffer for the settle stream, which contains none). Disabled registers
/// sample their current value, so every entry commits unconditionally.
fn exec_stream(code: &[Instr], values: &mut [u64], stack: &mut Vec<u64>, next_regs: &mut Vec<u64>) {
    exec_stream_impl::<false>(code, values, stack, next_regs, &[]);
}

/// The [`exec_stream`] body, monomorphized over fault injection. With
/// `FORCED = false` (the only path reachable without attached faults) the
/// re-force hooks compile away entirely, keeping the hot path identical to
/// the pre-fault-engine code. With `FORCED = true`, stuck-at forces are
/// re-applied after every store so forced bits survive recomputation.
fn exec_stream_impl<const FORCED: bool>(
    code: &[Instr],
    values: &mut [u64],
    stack: &mut Vec<u64>,
    next_regs: &mut Vec<u64>,
    forced: &[StuckForce],
) {
    stack.clear();
    for ins in code {
        match *ins {
            Instr::Const(v) => stack.push(v),
            Instr::Load(n) => stack.push(values[n as usize]),
            Instr::Not { mask } => {
                let a = stack.last_mut().expect("operand");
                *a = !*a & mask;
            }
            Instr::Bin { op, mask } => {
                let b = stack.pop().expect("rhs");
                let a = stack.last_mut().expect("lhs");
                *a = bin_eval(op, *a, b, mask);
            }
            Instr::Mux => {
                let on_false = stack.pop().expect("on_false");
                let on_true = stack.pop().expect("on_true");
                let sel = stack.last_mut().expect("sel");
                *sel = if *sel & 1 == 1 { on_true } else { on_false };
            }
            Instr::Resize { mask } => {
                let a = stack.last_mut().expect("operand");
                *a &= mask;
            }
            Instr::SignExt {
                from_mask,
                sign_bit,
                ext_bits,
                to_mask,
            } => {
                let a = stack.last_mut().expect("operand");
                let v = *a & from_mask;
                *a = if v & sign_bit != 0 { v | ext_bits } else { v } & to_mask;
            }
            Instr::Store { net, mask } => {
                let v = stack.pop().expect("store operand");
                values[net as usize] = v & mask;
                if FORCED {
                    reforce(forced, net, values);
                }
            }
            Instr::Copy { src, dst, mask } => {
                values[dst as usize] = values[src as usize] & mask;
                if FORCED {
                    reforce(forced, dst, values);
                }
            }
            Instr::StoreConst { dst, value } => {
                values[dst as usize] = value;
                if FORCED {
                    reforce(forced, dst, values);
                }
            }
            Instr::SampleReg { mask, target } => {
                let next = stack.pop().expect("next value");
                let en = stack.pop().expect("enable");
                next_regs.push(if en & 1 == 1 {
                    next & mask
                } else {
                    values[target as usize]
                });
            }
            Instr::SampleRegAlways { mask } => {
                let next = stack.pop().expect("next value");
                next_regs.push(next & mask);
            }
            Instr::Bin2 { op, a, b, mask } => {
                stack.push(bin_eval(op, values[a as usize], values[b as usize], mask));
            }
            Instr::LoadSext {
                net,
                from_mask,
                sign_bit,
                ext_bits,
                to_mask,
            } => {
                let v = values[net as usize] & from_mask;
                stack.push(if v & sign_bit != 0 { v | ext_bits } else { v } & to_mask);
            }
            Instr::LoadMasked { net, mask } => stack.push(values[net as usize] & mask),
            Instr::NotNet { net, mask } => stack.push(!values[net as usize] & mask),
            Instr::Mux3 { sel, t, f } => {
                stack.push(if values[sel as usize] & 1 == 1 {
                    values[t as usize]
                } else {
                    values[f as usize]
                });
            }
            Instr::SampleRegNets {
                en,
                next,
                mask,
                target,
            } => {
                next_regs.push(if values[en as usize] & 1 == 1 {
                    values[next as usize] & mask
                } else {
                    values[target as usize]
                });
            }
            Instr::SampleRegAlwaysNet { net, mask } => {
                next_regs.push(values[net as usize] & mask);
            }
        }
    }
}

/// Tree-walking expression evaluation (the reference path). Re-derives
/// widths recursively on every call — kept for differential validation of
/// the compiled evaluator and selectable via
/// [`Interpreter::new_tree_walking`].
fn eval_expr(expr: &Expr, nets: &[Net], values: &[u64]) -> u64 {
    match expr {
        Expr::Const { value, width } => mask(*value, *width),
        Expr::Net(id) => values[*id],
        Expr::Not(e) => {
            let w = e.width(nets);
            mask(!eval_expr(e, nets, values), w)
        }
        Expr::Bin(op, a, b) => {
            let wa = a.width(nets);
            let wb = b.width(nets);
            let w = wa.max(wb);
            let va = eval_expr(a, nets, values);
            let vb = eval_expr(b, nets, values);
            match op {
                BinOp::Add => mask(va.wrapping_add(vb), w),
                BinOp::Sub => mask(va.wrapping_sub(vb), w),
                BinOp::Mul => mask(va.wrapping_mul(vb), w),
                BinOp::And => va & vb,
                BinOp::Or => va | vb,
                BinOp::Xor => va ^ vb,
                BinOp::Eq => (va == vb) as u64,
                BinOp::Lt => (va < vb) as u64,
            }
        }
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => {
            if eval_expr(sel, nets, values) & 1 == 1 {
                eval_expr(on_true, nets, values)
            } else {
                eval_expr(on_false, nets, values)
            }
        }
        Expr::Resize(e, w) => mask(eval_expr(e, nets, values), *w),
        Expr::SignExtend(e, w) => {
            sign_extend(eval_expr(e, nets, values), e.width(nets), *w)
        }
    }
}

/// Sampled per-bank port activity for one clock edge.
#[derive(Debug, Clone, Copy, Default)]
struct BankOp {
    read: bool,
    write: bool,
    wdata: u64,
    buf_sel: u64,
}

/// A simulator's architectural state without its design or compiled code:
/// net values, bank words, bank read/write addresses and read latches,
/// parity bits and parity counters. [`Interpreter::snapshot`] takes one
/// from a scalar run; [`crate::batch::BatchSim::load_state`] broadcasts it
/// onto every lane of a batch over the same design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub(crate) values: Vec<u64>,
    pub(crate) bank_mem: Vec<Vec<u64>>,
    pub(crate) bank_raddr: Vec<u64>,
    pub(crate) bank_waddr: Vec<u64>,
    pub(crate) bank_rdata: Vec<u64>,
    pub(crate) bank_parity: Vec<Option<Vec<u8>>>,
    pub(crate) parity_errors: Vec<u64>,
}

/// Cycle-level interpreter over a [`FlatDesign`].
///
/// Drive inputs with [`Interpreter::poke`] (or [`Interpreter::poke_many`] to
/// settle once for a whole set of port drives), advance one clock with
/// [`Interpreter::step`], observe with [`Interpreter::peek`]. Combinational
/// logic settles automatically before every read and commit.
///
/// By default it runs the design's compiled bytecode, a linear postfix
/// stream (precomputed widths/masks, value-array operands, reusable operand
/// stack) that the design builds once and shares with every engine over it
/// — the evaluation hot path allocates nothing per cycle. Cloning an
/// interpreter copies its state, not the design.
/// [`Interpreter::new_tree_walking`] selects the original recursive
/// evaluator, kept as the differential-testing reference; both paths are
/// bit-identical by construction and by test.
#[derive(Debug, Clone)]
pub struct Interpreter {
    pub(crate) flat: FlatDesign,
    /// Runs the design's shared bytecode rather than walking its trees.
    compiled: bool,
    pub(crate) values: Vec<u64>,
    pub(crate) bank_mem: Vec<Vec<u64>>,
    pub(crate) bank_raddr: Vec<u64>,
    pub(crate) bank_waddr: Vec<u64>,
    pub(crate) bank_rdata: Vec<u64>,
    /// Reusable operand stack for the compiled evaluator.
    stack: Vec<u64>,
    /// Reusable register-sample buffer for [`Interpreter::step`] (disabled
    /// registers sample their current value, so commits are unconditional).
    next_regs: Vec<u64>,
    /// Reusable bank-sample buffer for [`Interpreter::step`].
    bank_ops: Vec<BankOp>,
    /// `true` when a value changed since the last settle; [`Interpreter::settle`]
    /// is a no-op on an already-settled design.
    dirty: bool,
    /// Observability layer (`None` unless attached — the disabled path costs
    /// one pointer test per step).
    trace: Option<Box<TraceState>>,
    /// Fault-injection layer (`None` unless attached — same pay-for-use
    /// shape as `trace`).
    pub(crate) faults: Option<Box<FaultState>>,
    /// Behavioural parity bookkeeping, parallel to `bank_mem` (`None` for
    /// banks without parity protection). Stores the expected parity of each
    /// word, refreshed on every write and checked on every read.
    pub(crate) bank_parity: Vec<Option<Vec<u8>>>,
    /// Sticky per-bank parity-mismatch counters (only ever advanced for
    /// parity-protected banks).
    pub(crate) parity_errors: Vec<u64>,
}

impl Interpreter {
    /// Creates an interpreter with all registers at their reset values and
    /// bank memories zeroed, running the compiled bytecode evaluator.
    pub fn new(flat: FlatDesign) -> Interpreter {
        Interpreter::with_compilation(flat, true)
    }

    /// Creates an interpreter that evaluates by walking the expression trees
    /// (the pre-compilation reference path).
    pub fn new_tree_walking(flat: FlatDesign) -> Interpreter {
        Interpreter::with_compilation(flat, false)
    }

    fn with_compilation(flat: FlatDesign, compile: bool) -> Interpreter {
        let values = vec![0; flat.nets.len()];
        let bank_mem = flat
            .banks
            .iter()
            .map(|b| {
                let mult = if b.spec.is_double_buffered() { 2 } else { 1 };
                vec![0u64; (b.spec.words() * mult) as usize]
            })
            .collect();
        let n_banks = flat.banks.len();
        let n_regs = flat.regs.len();
        let bank_parity = flat
            .banks
            .iter()
            .map(|b| {
                let mult = if b.spec.is_double_buffered() { 2 } else { 1 };
                b.spec
                    .has_parity()
                    .then(|| vec![0u8; (b.spec.words() * mult) as usize])
            })
            .collect();
        let mut interp = Interpreter {
            flat,
            compiled: compile,
            values,
            bank_mem,
            bank_raddr: vec![0; n_banks],
            bank_waddr: vec![0; n_banks],
            bank_rdata: vec![0; n_banks],
            stack: Vec::with_capacity(16),
            next_regs: Vec::with_capacity(n_regs),
            bank_ops: Vec::with_capacity(n_banks),
            dirty: true,
            trace: None,
            faults: None,
            bank_parity,
            parity_errors: vec![0; n_banks],
        };
        for r in &interp.flat.regs {
            interp.values[r.target] = mask(r.init, interp.flat.nets[r.target].width);
        }
        interp.settle();
        interp
    }

    /// `true` if this interpreter runs the compiled bytecode evaluator.
    pub fn is_compiled(&self) -> bool {
        self.compiled
    }

    /// Creates a compiled interpreter with the observability layer attached
    /// (see [`crate::trace`] for what gets recorded).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::UnknownNet`] if the config watches a net the
    /// design does not have.
    pub fn with_trace(flat: FlatDesign, cfg: &TraceConfig) -> Result<Interpreter, HwError> {
        let mut sim = Interpreter::new(flat);
        sim.attach_trace(cfg)?;
        Ok(sim)
    }

    /// Attaches (or replaces) the observability layer. Counters start from
    /// zero; the current settled values become the event-trace baseline.
    /// Attaching a [`TraceConfig::disabled`] config detaches entirely,
    /// restoring the zero-overhead step path.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::UnknownNet`] if the config watches a net the
    /// design does not have.
    pub fn attach_trace(&mut self, cfg: &TraceConfig) -> Result<(), HwError> {
        if !cfg.is_enabled() {
            self.trace = None;
            return Ok(());
        }
        let resolve = self.program().map(|c| c.resolve.as_slice());
        let mut state = TraceState::build(&self.flat, resolve, cfg)?;
        state.snapshot(&self.values);
        self.trace = Some(state);
        Ok(())
    }

    /// The accumulated counters, if a trace is attached.
    pub fn stats(&self) -> Option<&InterpreterStats> {
        self.trace.as_ref().map(|t| &t.stats)
    }

    /// The retained value-change events (oldest first; empty without a
    /// trace).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.as_ref().map_or_else(Vec::new, |t| t.events())
    }

    /// Watched-net `(name, width)` pairs in watch-index order (the
    /// [`TraceEvent::watch`] namespace).
    pub fn watched_signals(&self) -> Vec<(String, u32)> {
        self.trace.as_ref().map_or_else(Vec::new, |t| t.signals())
    }

    /// Renders the watched nets as a VCD waveform (`None` without a trace).
    /// One timescale unit per clock cycle; the baseline at `#0` reflects the
    /// ring's horizon when events have been dropped.
    pub fn write_vcd(&self) -> Option<String> {
        self.trace.as_ref().map(|t| t.to_vcd())
    }

    /// Attaches (or replaces) the fault-injection layer, resolving every
    /// spec against the flat netlist. The fault cycle counter restarts at
    /// zero: the next [`Interpreter::step`] is fault cycle 1. Stuck-at
    /// forces take effect immediately (the design is resettled). Attaching
    /// an empty list detaches entirely, restoring the zero-overhead path.
    ///
    /// Stuck-at targets are canonicalized through the compiled engine's
    /// alias resolution, so forcing an alias-eliminated wire forces its
    /// source slot — identical observable behaviour to the tree-walking
    /// engine for single-reader aliases (every alias the generators emit).
    /// Transient flips and dropped transitions require register targets,
    /// which are never alias-eliminated, so they are engine-exact by
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::UnknownNet`] for an unresolvable target name,
    /// [`HwError::FaultBitOutOfRange`] / [`HwError::FaultWordOutOfRange`]
    /// for out-of-range bit or word positions, and [`HwError::NotARegister`]
    /// when a register-only fault kind targets a combinational net.
    pub fn attach_faults(&mut self, faults: &[FaultSpec]) -> Result<(), HwError> {
        if faults.is_empty() {
            self.detach_faults();
            return Ok(());
        }
        let mut state = FaultState {
            specs: faults.to_vec(),
            ..FaultState::default()
        };
        let resolve = self.program().map(|c| c.resolve.as_slice());
        for spec in faults {
            match resolve_fault_spec(spec, &self.flat, resolve)? {
                ResolvedFault::Stuck(s) => state.stuck.push(s),
                ResolvedFault::Flip(f) => state.flips.push(f),
                ResolvedFault::Bank(b) => state.bank_flips.push(b),
                ResolvedFault::Hold(h) => state.holds.push(h),
            }
        }
        self.faults = Some(Box::new(state));
        // Resettle so stuck-at forces are visible before the next step.
        self.dirty = true;
        self.settle();
        Ok(())
    }

    /// Removes the fault layer and resettles, clearing any stuck-at forces
    /// from combinational nets (state already corrupted by past transient
    /// faults stays corrupted — detaching is not a rollback).
    pub fn detach_faults(&mut self) {
        if self.faults.take().is_some() {
            self.dirty = true;
            self.settle();
        }
    }

    /// The attached fault state, if any.
    pub fn faults(&self) -> Option<&FaultState> {
        self.faults.as_deref()
    }

    /// The flattened design under simulation.
    pub fn flat(&self) -> &FlatDesign {
        &self.flat
    }

    /// The current architectural state (every public mutator leaves the
    /// combinational logic settled, so the values are settled too).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            values: self.values.clone(),
            bank_mem: self.bank_mem.clone(),
            bank_raddr: self.bank_raddr.clone(),
            bank_waddr: self.bank_waddr.clone(),
            bank_rdata: self.bank_rdata.clone(),
            bank_parity: self.bank_parity.clone(),
            parity_errors: self.parity_errors.clone(),
        }
    }

    /// Total parity mismatches observed on reads of parity-protected banks
    /// (always 0 for designs without [`crate::fault::Hardening::parity_banks`]).
    pub fn parity_error_count(&self) -> u64 {
        self.parity_errors.iter().sum()
    }

    /// Per-bank sticky parity-mismatch counters, in elaboration order.
    pub fn parity_errors(&self) -> &[u64] {
        &self.parity_errors
    }

    /// The current storage contents of a bank (both buffers for a
    /// double-buffered bank), for differential output comparison.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range (see [`Interpreter::bank_count`]).
    pub fn bank_words(&self, bank: usize) -> &[u64] {
        &self.bank_mem[bank]
    }

    /// Sets a top-level input port and resettles combinational logic.
    ///
    /// Every call settles, re-running the whole combinational netlist. When
    /// driving many ports in the same cycle, prefer [`Interpreter::poke_many`]
    /// or [`Interpreter::poke_by_id`]: they settle once per batch, and the
    /// settled state is the same as after poking the ports one by one.
    ///
    /// # Panics
    ///
    /// Panics if no such port exists.
    pub fn poke(&mut self, port: &str, value: u64) {
        self.set_port(port, value);
        self.settle();
    }

    /// Sets a batch of top-level input ports, settling combinational logic
    /// once at the end instead of once per port.
    ///
    /// # Panics
    ///
    /// Panics if any named port does not exist.
    ///
    /// # Examples
    ///
    /// ```
    /// use tensorlib_hw::interp::{elaborate, Interpreter};
    /// use tensorlib_hw::netlist::{Expr, Module};
    ///
    /// let mut m = Module::new("sum");
    /// let a = m.input("a", 8);
    /// let b = m.input("b", 8);
    /// let y = m.output("y", 8);
    /// m.assign(y, Expr::net(a).add(Expr::net(b)));
    /// let mut sim = Interpreter::new(elaborate(&[m], &[], "sum")?);
    /// sim.poke_many([("a", 30), ("b", 12)]);
    /// assert_eq!(sim.peek("y"), 42);
    /// # Ok::<(), tensorlib_hw::interp::ElaborateError>(())
    /// ```
    pub fn poke_many<'a>(&mut self, pokes: impl IntoIterator<Item = (&'a str, u64)>) {
        for (port, value) in pokes {
            self.set_port(port, value);
        }
        self.settle();
    }

    fn set_port(&mut self, port: &str, value: u64) {
        let id = self.input_id(port);
        self.values[id] = mask(value, self.flat.nets[id].width);
        self.dirty = true;
    }

    /// Resolves a top-level port to its net id, for use with
    /// [`Interpreter::poke_by_id`] in poke-heavy loops (skips the per-call
    /// name lookup).
    ///
    /// # Panics
    ///
    /// Panics if no such port exists.
    pub fn input_id(&self, port: &str) -> NetId {
        self.flat.port_id(port)
    }

    /// Sets a batch of ports by id (from [`Interpreter::input_id`]) and
    /// settles once. The ids must come from `input_id`; driving an internal
    /// net is unsupported (its value is recomputed by the settle).
    pub fn poke_by_id(&mut self, pokes: impl IntoIterator<Item = (NetId, u64)>) {
        for (id, value) in pokes {
            self.values[id] = mask(value, self.flat.nets[id].width);
        }
        self.dirty = true;
        self.settle();
    }

    /// The design's shared bytecode, if this interpreter runs it.
    fn program(&self) -> Option<&Compiled> {
        self.compiled.then(|| self.flat.compiled())
    }

    /// The value slot holding `id`'s value: the alias-resolved slot on the
    /// compiled path (eliminated wire copies forward reads to their source,
    /// whose value is bit-identical by construction), `id` itself otherwise.
    #[inline]
    fn read_slot(&self, id: NetId) -> usize {
        self.program().map_or(id, |c| c.resolve[id] as usize)
    }

    /// Reads any net by (hierarchical) name after settling.
    ///
    /// # Panics
    ///
    /// Panics if no such net exists.
    pub fn peek(&self, name: &str) -> u64 {
        self.values[self.read_slot(self.flat.net_id(name))]
    }

    /// Reads a net as a signed value of its declared width.
    pub fn peek_signed(&self, name: &str) -> i64 {
        let id = self.flat.net_id(name);
        let w = self.flat.nets[id].width;
        sign_extend(self.values[self.read_slot(id)], w, 64) as i64
    }

    /// Preloads a bank's memory (index by elaboration order).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::NoSuchBank`] for an out-of-range index and
    /// [`HwError::BankOverflow`] when `words` exceeds the bank's storage
    /// (both buffers for a double-buffered bank) — naming the bank and its
    /// capacity in either case, so the failure surfaces cleanly through the
    /// `tensorlib-core` error boundary instead of panicking.
    pub fn load_bank(&mut self, bank: usize, words: &[u64]) -> Result<(), HwError> {
        let banks = self.bank_mem.len();
        if bank >= banks {
            return Err(HwError::NoSuchBank { bank, banks });
        }
        let capacity = self.bank_mem[bank].len();
        if words.len() > capacity {
            return Err(HwError::BankOverflow {
                bank,
                capacity,
                given: words.len(),
            });
        }
        self.bank_mem[bank][..words.len()].copy_from_slice(words);
        if let Some(p) = &mut self.bank_parity[bank] {
            for (i, w) in words.iter().enumerate() {
                p[i] = (w.count_ones() & 1) as u8;
            }
        }
        Ok(())
    }

    /// Number of behavioural banks.
    pub fn bank_count(&self) -> usize {
        self.flat.banks.len()
    }

    /// Settles combinational logic (topological evaluation). No-op when
    /// nothing changed since the last settle — `step` after `poke_many`
    /// evaluates the netlist once, not twice.
    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        // Bank read data drives its net.
        let nets = &self.flat.nets[..];
        for (i, b) in self.flat.banks.iter().enumerate() {
            self.values[b.rdata] = mask(self.bank_rdata[i], nets[b.rdata].width);
        }
        if self.faults.is_some() {
            self.settle_faulty();
            return;
        }
        match self.compiled.then(|| self.flat.compiled()) {
            Some(compiled) => {
                // The settle stream contains no register samples, so the
                // sample buffer is passed only to satisfy the executor.
                exec_stream(
                    &compiled.settle_code,
                    &mut self.values,
                    &mut self.stack,
                    &mut self.next_regs,
                );
            }
            None => {
                for &i in &self.flat.topo {
                    let (target, expr) = &self.flat.assigns[i];
                    let w = self.flat.nets[*target].width;
                    self.values[*target] =
                        mask(eval_expr(expr, &self.flat.nets, &self.values), w);
                }
            }
        }
    }

    /// The settle pass with stuck-at forcing: a prologue forces every stuck
    /// slot (covering inputs, register state, and bank read data, which no
    /// assignment recomputes), then the evaluators re-force after each store
    /// so forced bits survive recomputation of combinational targets.
    ///
    /// When the attached faults carry no stuck-ats (transient flips and
    /// holds only — the common armed-campaign shape), the re-forcing is a
    /// no-op by construction, so the plain settle stream runs instead and
    /// an armed-but-idle fault layer costs nothing per settle.
    fn settle_faulty(&mut self) {
        let f = self.faults.take().expect("settle_faulty requires faults");
        for s in &f.stuck {
            let v = self.values[s.slot as usize];
            self.values[s.slot as usize] = (v | s.or_mask) & s.and_mask;
        }
        match self.compiled.then(|| self.flat.compiled()) {
            Some(compiled) if f.stuck.is_empty() => {
                exec_stream(
                    &compiled.settle_code,
                    &mut self.values,
                    &mut self.stack,
                    &mut self.next_regs,
                );
            }
            Some(compiled) => {
                exec_stream_impl::<true>(
                    &compiled.settle_code,
                    &mut self.values,
                    &mut self.stack,
                    &mut self.next_regs,
                    &f.stuck,
                );
            }
            None => {
                for &i in &self.flat.topo {
                    let (target, expr) = &self.flat.assigns[i];
                    let w = self.flat.nets[*target].width;
                    self.values[*target] =
                        mask(eval_expr(expr, &self.flat.nets, &self.values), w);
                    if !f.stuck.is_empty() {
                        reforce(&f.stuck, *target as u32, &mut self.values);
                    }
                }
            }
        }
        self.faults = Some(f);
    }

    /// Advances one clock: samples every register's next value and every
    /// bank's port activity, commits them simultaneously, and resettles.
    /// Allocation-free on both evaluator paths — sample buffers are reused
    /// across calls.
    pub fn step(&mut self) {
        self.settle();
        // Counter hook: observe the settled pre-commit values — what the
        // hardware's registers see on this clock edge.
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.observe_cycle(&self.values);
        }
        // Sample registers.
        self.next_regs.clear();
        match self.compiled.then(|| self.flat.compiled()) {
            Some(compiled) => {
                // One linear pass samples every register (the stream's
                // `SampleReg` ops append in `flat.regs` order).
                exec_stream(
                    &compiled.reg_code,
                    &mut self.values,
                    &mut self.stack,
                    &mut self.next_regs,
                );
            }
            None => {
                for r in &self.flat.regs {
                    let enabled = r.enable.as_ref().is_none_or(|e| {
                        eval_expr(e, &self.flat.nets, &self.values) & 1 == 1
                    });
                    let w = self.flat.nets[r.target].width;
                    self.next_regs.push(if enabled {
                        mask(eval_expr(&r.next, &self.flat.nets, &self.values), w)
                    } else {
                        self.values[r.target]
                    });
                }
            }
        }
        // Fault hook (pre-commit): a dropped transition overwrites the
        // sampled next value with the register's current value, so the
        // commit below holds it for this cycle.
        if self.faults.is_some() {
            let f = self.faults.take().expect("checked above");
            let now = f.cycle + 1;
            for h in &f.holds {
                if h.cycle == now {
                    self.next_regs[h.reg] = self.values[h.target];
                }
            }
            self.faults = Some(f);
        }
        // Sample bank port activity (through the alias-resolved port nets on
        // the compiled path) and commit registers. The compiled commit walks
        // the compact target array instead of the full `RegDef` structs.
        self.bank_ops.clear();
        match self.compiled.then(|| self.flat.compiled()) {
            Some(compiled) => {
                for b in &compiled.bank_nets {
                    self.bank_ops.push(BankOp {
                        read: self.values[b.en as usize] & 1 == 1,
                        write: self.values[b.wen as usize] & 1 == 1,
                        wdata: self.values[b.wdata as usize],
                        buf_sel: b.buf_sel.map_or(0, |n| self.values[n as usize] & 1),
                    });
                }
                for (&t, &v) in compiled.reg_targets.iter().zip(&self.next_regs) {
                    self.values[t as usize] = v;
                }
            }
            None => {
                for b in &self.flat.banks {
                    self.bank_ops.push(BankOp {
                        read: self.values[b.en] & 1 == 1,
                        write: self.values[b.wen] & 1 == 1,
                        wdata: self.values[b.wdata],
                        buf_sel: b.buf_sel.map_or(0, |n| self.values[n] & 1),
                    });
                }
                for (r, &v) in self.flat.regs.iter().zip(&self.next_regs) {
                    self.values[r.target] = v;
                }
            }
        }
        // Commit banks: read from the inactive buffer, write to the active
        // one (matching the behavioural Verilog template).
        for (i, (b, op)) in self.flat.banks.iter().zip(&self.bank_ops).enumerate() {
            let words = b.spec.words();
            if op.read {
                let base = if b.spec.is_double_buffered() {
                    (1 - op.buf_sel) * words
                } else {
                    0
                };
                let (word, next) = next_addr(self.bank_raddr[i], words);
                let addr = (base + word) as usize;
                self.bank_rdata[i] = self.bank_mem[i][addr];
                self.bank_raddr[i] = next;
                // Parity check on read: a stored word whose parity no
                // longer matches its bookkeeping bit was corrupted in
                // place. The counter is sticky.
                if let Some(p) = &self.bank_parity[i] {
                    if (self.bank_mem[i][addr].count_ones() & 1) as u8 != p[addr] {
                        self.parity_errors[i] += 1;
                    }
                }
            }
            if op.write {
                let base = if b.spec.is_double_buffered() {
                    op.buf_sel * words
                } else {
                    0
                };
                let (word, next) = next_addr(self.bank_waddr[i], words);
                let addr = (base + word) as usize;
                self.bank_mem[i][addr] = mask(op.wdata, b.spec.width());
                self.bank_waddr[i] = next;
                if let Some(p) = &mut self.bank_parity[i] {
                    p[addr] = (self.bank_mem[i][addr].count_ones() & 1) as u8;
                }
            }
        }
        // Fault hook (post-commit): transient register flips and bank-word
        // flips corrupt the state just committed by this cycle, *without*
        // updating parity bookkeeping — that is the point.
        if self.faults.is_some() {
            let mut f = self.faults.take().expect("checked above");
            f.cycle += 1;
            let now = f.cycle;
            for fl in &f.flips {
                if fl.cycle == now {
                    self.values[fl.slot] ^= fl.xor;
                }
            }
            for bf in &f.bank_flips {
                if bf.cycle == now {
                    self.bank_mem[bf.bank][bf.word] ^= bf.xor;
                }
            }
            self.faults = Some(f);
        }
        // Committed state changed; resettle the combinational logic.
        self.dirty = true;
        self.settle();
        // Event hook: record watched-net transitions on the post-commit
        // settled values (the state visible after this cycle).
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.record_events(&self.values);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{build_pe, PeIoKind, PeSpec, PeTensorSpec};
    use tensorlib_ir::DataType;

    fn as_u16(v: i64) -> u64 {
        (v as u64) & 0xFFFF
    }

    #[test]
    fn counter_counts() {
        let mut m = Module::new("cnt");
        let en = m.input("en", 1);
        let q = m.output("q", 8);
        m.reg(q, Expr::net(q).add(Expr::lit(1, 8)), Some(Expr::net(en)), 0);
        let mut sim = Interpreter::new(elaborate(&[m], &[], "cnt").unwrap());
        sim.poke("en", 1);
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(sim.peek("q"), 5);
        sim.poke("en", 0);
        sim.step();
        assert_eq!(sim.peek("q"), 5, "enable gates the register");
    }

    #[test]
    fn sign_extension_semantics() {
        assert_eq!(sign_extend(0xFFFF, 16, 32), 0xFFFF_FFFF);
        assert_eq!(sign_extend(0x7FFF, 16, 32), 0x7FFF);
        assert_eq!(sign_extend(0xFFFF_FFFF, 32, 16), 0xFFFF);
        assert_eq!(sign_extend(5, 16, 64) as i64, 5);
        assert_eq!(sign_extend(as_u16(-5), 16, 64) as i64, -5);
    }

    #[test]
    fn hierarchy_flattens_and_runs() {
        // child: y = a + b; parent instantiates it twice in a chain.
        let mut child = Module::new("add1");
        let a = child.input("a", 8);
        let y = child.output("y", 8);
        child.assign(y, Expr::net(a).add(Expr::lit(1, 8)));
        let mut parent = Module::new("top");
        let x = parent.input("x", 8);
        let mid = parent.net("mid", 8);
        let out = parent.output("out", 8);
        parent.instance("add1", "u0", vec![("a".into(), x), ("y".into(), mid)]);
        parent.instance("add1", "u1", vec![("a".into(), mid), ("y".into(), out)]);
        let flat = elaborate(&[child, parent], &[], "top").unwrap();
        assert_eq!(flat.reg_count(), 0);
        let mut sim = Interpreter::new(flat);
        sim.poke("x", 40);
        assert_eq!(sim.peek("out"), 42);
    }

    #[test]
    fn unknown_module_and_port_errors() {
        let mut parent = Module::new("top");
        let x = parent.input("x", 8);
        parent.instance("ghost", "u0", vec![("a".into(), x)]);
        assert!(matches!(
            elaborate(&[parent], &[], "top").unwrap_err(),
            ElaborateError::UnknownModule(_)
        ));
        let mut child = Module::new("c");
        let _ = child.input("a", 8);
        let mut parent = Module::new("top");
        let x = parent.input("x", 8);
        parent.instance("c", "u0", vec![("zz".into(), x)]);
        let err = elaborate(&[child, parent], &[], "top").unwrap_err();
        assert!(matches!(err, ElaborateError::UnknownPort { .. }));
        assert!(err.to_string().contains("zz"));
    }

    #[test]
    fn systolic_pe_computes_and_forwards() {
        // Weight-stationary-ish PE: a systolic, b stationary, c systolic out.
        let spec = PeSpec {
            name: "pe".into(),
            datatype: DataType::Int16,
            tensors: vec![
                PeTensorSpec {
                    tensor: "a".into(),
                    kind: PeIoKind::SystolicIn,
                    delay: 1,
                },
                PeTensorSpec {
                    tensor: "b".into(),
                    kind: PeIoKind::StationaryIn,
                    delay: 1,
                },
                PeTensorSpec {
                    tensor: "c".into(),
                    kind: PeIoKind::SystolicOut,
                    delay: 1,
                },
            ],
        };
        let pe = build_pe(&spec);
        let mut sim = Interpreter::new(elaborate(&[pe], &[], "pe").unwrap());
        // Load weight -3 into buf1 (phase 0 loads the inactive buffer).
        sim.poke("load_en", 1);
        sim.poke("phase", 0);
        sim.poke("b_in", as_u16(-3));
        sim.step();
        sim.poke("load_en", 0);
        // Compute with phase 1 (buf1 active): c_out' = c_in + a_in * (-3).
        sim.poke("phase", 1);
        sim.poke("en", 1);
        sim.poke("a_in", as_u16(7));
        sim.poke("c_in", as_u16(100));
        sim.step();
        assert_eq!(sim.peek_signed("c_out"), 100 + 7 * -3);
        // a is forwarded with one cycle of delay.
        assert_eq!(sim.peek_signed("a_out"), 7);
    }

    #[test]
    fn stationary_output_pe_accumulates_and_drains() {
        let spec = PeSpec {
            name: "pe".into(),
            datatype: DataType::Int16,
            tensors: vec![
                PeTensorSpec {
                    tensor: "a".into(),
                    kind: PeIoKind::DirectIn,
                    delay: 1,
                },
                PeTensorSpec {
                    tensor: "b".into(),
                    kind: PeIoKind::DirectIn,
                    delay: 1,
                },
                PeTensorSpec {
                    tensor: "c".into(),
                    kind: PeIoKind::StationaryOut,
                    delay: 1,
                },
            ],
        };
        let pe = build_pe(&spec);
        let mut sim = Interpreter::new(elaborate(&[pe], &[], "pe").unwrap());
        sim.poke("en", 1);
        sim.poke("swap", 0);
        sim.poke("drain_en", 0);
        sim.poke("c_in", 0);
        // Accumulate 2*3 + 4*5 + (-1)*6. First product enters via swap pulse.
        sim.poke("swap", 1);
        sim.poke("a_in", as_u16(2));
        sim.poke("b_in", as_u16(3));
        sim.step();
        sim.poke("swap", 0);
        sim.poke("a_in", as_u16(4));
        sim.poke("b_in", as_u16(5));
        sim.step();
        sim.poke("a_in", as_u16(-1));
        sim.poke("b_in", as_u16(6));
        sim.step();
        // Swap captures the finished accumulation into the transfer register.
        sim.poke("swap", 1);
        sim.poke("a_in", 0);
        sim.poke("b_in", 0);
        sim.step();
        assert_eq!(sim.peek_signed("c_out"), 2 * 3 + 4 * 5 - 6);
        // Drain shifts the chain input through.
        sim.poke("swap", 0);
        sim.poke("drain_en", 1);
        sim.poke("c_in", as_u16(777));
        sim.step();
        assert_eq!(sim.peek_signed("c_out"), 777);
    }

    #[test]
    fn reduction_tree_sums_with_pipeline_latency() {
        let (tree, _, _) = crate::array::build_reduce_tree("t4", 4, 32);
        let mut sim = Interpreter::new(elaborate(&[tree], &[], "t4").unwrap());
        for (i, v) in [10u64, 20, 30, 40].iter().enumerate() {
            sim.poke(&format!("in{i}"), *v);
        }
        // Two pipeline levels for 4 inputs.
        sim.step();
        sim.step();
        assert_eq!(sim.peek("sum"), 100);
    }

    #[test]
    fn bank_streams_and_captures() {
        let bank = MemBank::new(8, 16, false);
        let mut top = Module::new("top");
        let en = top.input("en", 1);
        let wen = top.input("wen", 1);
        let wdata = top.input("wdata", 16);
        let rdata = top.output("rdata", 16);
        top.instance(
            bank.module_name(),
            "b0",
            vec![
                ("en".into(), en),
                ("wen".into(), wen),
                ("wdata".into(), wdata),
                ("rdata".into(), rdata),
            ],
        );
        let flat = elaborate(&[top], &[bank], "top").unwrap();
        assert_eq!(flat.bank_count(), 1);
        let mut sim = Interpreter::new(flat);
        // Write 3 values.
        sim.poke("wen", 1);
        for v in [11u64, 22, 33] {
            sim.poke("wdata", v);
            sim.step();
        }
        sim.poke("wen", 0);
        // Stream them back.
        sim.poke("en", 1);
        sim.step();
        assert_eq!(sim.peek("rdata"), 11);
        sim.step();
        assert_eq!(sim.peek("rdata"), 22);
        sim.step();
        assert_eq!(sim.peek("rdata"), 33);
    }

    #[test]
    fn poke_many_settles_once_and_matches_poke() {
        let mut m = Module::new("mac");
        let a = m.input("a", 16);
        let b = m.input("b", 16);
        let c = m.input("c", 16);
        let y = m.output("y", 16);
        m.assign(y, Expr::net(a).mul(Expr::net(b)).add(Expr::net(c)));
        let flat = elaborate(&[m], &[], "mac").unwrap();
        let mut one_by_one = Interpreter::new(flat.clone());
        one_by_one.poke("a", 3);
        one_by_one.poke("b", 5);
        one_by_one.poke("c", 7);
        let mut batched = Interpreter::new(flat);
        batched.poke_many([("a", 3), ("b", 5), ("c", 7)]);
        assert_eq!(batched.peek("y"), 22);
        assert_eq!(batched.peek("y"), one_by_one.peek("y"));
    }

    #[test]
    fn tree_walking_matches_compiled_on_a_pe() {
        let spec = PeSpec {
            name: "pe".into(),
            datatype: DataType::Int16,
            tensors: vec![
                PeTensorSpec {
                    tensor: "a".into(),
                    kind: PeIoKind::SystolicIn,
                    delay: 1,
                },
                PeTensorSpec {
                    tensor: "b".into(),
                    kind: PeIoKind::StationaryIn,
                    delay: 1,
                },
                PeTensorSpec {
                    tensor: "c".into(),
                    kind: PeIoKind::SystolicOut,
                    delay: 1,
                },
            ],
        };
        let pe = build_pe(&spec);
        let flat = elaborate(&[pe], &[], "pe").unwrap();
        let mut fast = Interpreter::new(flat.clone());
        let mut slow = Interpreter::new_tree_walking(flat);
        assert!(fast.is_compiled());
        assert!(!slow.is_compiled());
        for cycle in 0..32u64 {
            let pokes = [
                ("load_en", u64::from(cycle % 7 == 0)),
                ("phase", (cycle / 7) & 1),
                ("en", 1),
                ("a_in", as_u16((cycle as i64 % 17) - 8)),
                ("b_in", as_u16((cycle as i64 % 5) - 2)),
                ("c_in", as_u16(cycle as i64 * 3 - 40)),
            ];
            fast.poke_many(pokes);
            slow.poke_many(pokes);
            fast.step();
            slow.step();
            for name in ["c_out", "a_out", "b_out"] {
                assert_eq!(
                    fast.peek(name),
                    slow.peek(name),
                    "net {name} diverged at cycle {cycle}"
                );
            }
        }
    }

    /// One single-buffered 4-word bank wired to top-level ports.
    fn one_bank_top() -> Interpreter {
        let bank = MemBank::new(4, 16, false);
        let mut top = Module::new("top");
        let en = top.input("en", 1);
        let wen = top.input("wen", 1);
        let wdata = top.input("wdata", 16);
        let rdata = top.output("rdata", 16);
        top.instance(
            bank.module_name(),
            "b0",
            vec![
                ("en".into(), en),
                ("wen".into(), wen),
                ("wdata".into(), wdata),
                ("rdata".into(), rdata),
            ],
        );
        Interpreter::new(elaborate(&[top], &[bank], "top").unwrap())
    }

    #[test]
    fn load_bank_overflow_is_an_error_naming_bank_and_capacity() {
        let mut sim = one_bank_top();
        let err = sim.load_bank(0, &[1, 2, 3, 4, 5]).unwrap_err();
        assert_eq!(
            err,
            HwError::BankOverflow {
                bank: 0,
                capacity: 4,
                given: 5
            }
        );
        assert_eq!(
            err.to_string(),
            "bank 0 holds 4 words but load_bank was given 5 words"
        );
        // A full-capacity load succeeds, and the bank streams it back.
        sim.load_bank(0, &[7, 8, 9, 10]).unwrap();
        sim.poke("en", 1);
        sim.step();
        assert_eq!(sim.peek("rdata"), 7);
    }

    #[test]
    fn load_bank_bad_index_is_an_error_naming_the_design_size() {
        let mut sim = one_bank_top();
        let err = sim.load_bank(3, &[1]).unwrap_err();
        assert_eq!(err, HwError::NoSuchBank { bank: 3, banks: 1 });
        assert_eq!(err.to_string(), "no bank 3: design has 1 banks");
    }

    #[test]
    fn trace_counts_bank_traffic_conflicts_and_flags_unknown_nets() {
        let mut sim = one_bank_top();
        assert!(sim.stats().is_none(), "no trace attached by default");
        let err = sim
            .attach_trace(&TraceConfig::counters_only().with_watch(["ghost_net"]))
            .unwrap_err();
        assert_eq!(
            err,
            HwError::UnknownNet {
                net: "ghost_net".into()
            }
        );
        sim.attach_trace(&TraceConfig::counters_only()).unwrap();
        // 2 write-only cycles, then 1 read+write conflict cycle, then 1
        // read-only cycle.
        sim.poke_many([("wen", 1), ("wdata", 5)]);
        sim.step();
        sim.step();
        sim.poke("en", 1);
        sim.step();
        sim.poke("wen", 0);
        sim.step();
        let stats = sim.stats().unwrap();
        assert_eq!(stats.cycles, 4);
        assert_eq!(stats.banks.len(), 1);
        assert_eq!(stats.banks[0].name, "b0");
        assert_eq!(stats.banks[0].writes, 3);
        assert_eq!(stats.banks[0].reads, 2);
        assert_eq!(stats.banks[0].conflicts, 1);
        assert_eq!(stats.total_bank_conflicts(), 1);
        // Detaching restores the zero-overhead path.
        sim.attach_trace(&TraceConfig::disabled()).unwrap();
        assert!(sim.stats().is_none());
    }

    #[test]
    fn trace_ring_bounds_events_and_folds_overflow_into_baseline() {
        let mut m = Module::new("cnt");
        let en = m.input("en", 1);
        let q = m.output("q", 8);
        m.reg(q, Expr::net(q).add(Expr::lit(1, 8)), Some(Expr::net(en)), 0);
        let cfg = TraceConfig {
            counters: false,
            watch: vec!["q".into()],
            ring_capacity: 3,
        };
        let mut sim =
            Interpreter::with_trace(elaborate(&[m], &[], "cnt").unwrap(), &cfg).unwrap();
        sim.poke("en", 1);
        for _ in 0..8 {
            sim.step();
        }
        let stats = sim.stats().unwrap();
        assert_eq!(stats.events_recorded, 8);
        assert_eq!(stats.events_dropped, 5);
        let events = sim.trace_events();
        assert_eq!(events.len(), 3);
        // The retained tail is the last three increments.
        let values: Vec<u64> = events.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![6, 7, 8]);
        assert_eq!(events[0].cycle, 6);
        // The VCD baseline advanced to the value before the retained tail.
        let vcd = sim.write_vcd().unwrap();
        let doc = crate::trace::parse_vcd(&vcd).unwrap();
        let id = doc.id_of("q").unwrap().to_string();
        let at_zero: Vec<u64> = doc
            .changes
            .iter()
            .filter(|c| c.time == 0 && c.id == id)
            .map(|c| c.value)
            .collect();
        assert_eq!(at_zero, vec![5]);
    }

    /// Counter design used by the fault tests: q increments while `en` is
    /// high, `y = q + 1` is a derived combinational net.
    fn faultable_counter(compiled: bool) -> Interpreter {
        let mut m = Module::new("cnt");
        let en = m.input("en", 1);
        let q = m.output("q", 8);
        let y = m.output("y", 8);
        m.reg(q, Expr::net(q).add(Expr::lit(1, 8)), Some(Expr::net(en)), 0);
        m.assign(y, Expr::net(q).add(Expr::lit(1, 8)));
        let flat = elaborate(&[m], &[], "cnt").unwrap();
        if compiled {
            Interpreter::new(flat)
        } else {
            Interpreter::new_tree_walking(flat)
        }
    }

    #[test]
    fn stuck_at_forces_nets_on_both_engines() {
        for compiled in [false, true] {
            let mut sim = faultable_counter(compiled);
            // Stuck-at-0 on bit 1 of q: counting 0,1,2,3 becomes 0,1,0,1.
            sim.attach_faults(&[FaultSpec::stuck_at("q", 1, false)]).unwrap();
            sim.poke("en", 1);
            let mut seen = Vec::new();
            for _ in 0..4 {
                sim.step();
                seen.push((sim.peek("q"), sim.peek("y")));
            }
            // q's bit 1 always reads 0; y tracks the forced value.
            assert_eq!(
                seen,
                vec![(1, 2), (0, 1), (1, 2), (0, 1)],
                "compiled={compiled}"
            );
            // Detach restores clean behaviour (register state persists).
            sim.detach_faults();
            assert!(sim.faults().is_none());
            sim.step();
            assert_eq!(sim.peek("q"), 1, "compiled={compiled}");
        }
    }

    #[test]
    fn stuck_at_1_forces_high() {
        let mut sim = faultable_counter(true);
        sim.attach_faults(&[FaultSpec::stuck_at("q", 7, true)]).unwrap();
        // Without stepping, the settled value already shows the force.
        assert_eq!(sim.peek("q"), 0x80);
    }

    #[test]
    fn transient_flip_perturbs_one_cycle_on_both_engines() {
        for compiled in [false, true] {
            let mut sim = faultable_counter(compiled);
            // Flip bit 4 of q after the commit of step 3: q becomes 3^16=19,
            // then resumes counting from the corrupted value.
            sim.attach_faults(&[FaultSpec::flip("q", 4, 3)]).unwrap();
            sim.poke("en", 1);
            let mut seen = Vec::new();
            for _ in 0..5 {
                sim.step();
                seen.push(sim.peek("q"));
            }
            assert_eq!(seen, vec![1, 2, 19, 20, 21], "compiled={compiled}");
        }
    }

    #[test]
    fn drop_transition_holds_a_register_for_one_cycle() {
        for compiled in [false, true] {
            let mut sim = faultable_counter(compiled);
            // Drop the commit of step 2: the counter re-holds its value.
            sim.attach_faults(&[FaultSpec::drop_transition("q", 2)]).unwrap();
            sim.poke("en", 1);
            let mut seen = Vec::new();
            for _ in 0..4 {
                sim.step();
                seen.push(sim.peek("q"));
            }
            assert_eq!(seen, vec![1, 1, 2, 3], "compiled={compiled}");
        }
    }

    #[test]
    fn fault_target_errors_are_typed() {
        let mut sim = faultable_counter(true);
        assert_eq!(
            sim.attach_faults(&[FaultSpec::stuck_at("q", 8, false)]).unwrap_err(),
            HwError::FaultBitOutOfRange {
                net: "q".into(),
                bit: 8,
                width: 8
            }
        );
        assert_eq!(
            sim.attach_faults(&[FaultSpec::flip("y", 0, 1)]).unwrap_err(),
            HwError::NotARegister { net: "y".into() }
        );
        assert!(matches!(
            sim.attach_faults(&[FaultSpec::stuck_at("ghost", 0, false)]).unwrap_err(),
            HwError::UnknownNet { .. }
        ));
        // A failed attach leaves the interpreter fault-free.
        assert!(sim.faults().is_none());
    }

    /// One parity-protected 4-word bank wired to top-level ports.
    fn parity_bank_top() -> Interpreter {
        let bank = MemBank::new(4, 16, false).with_parity();
        let mut top = Module::new("top");
        let en = top.input("en", 1);
        let wen = top.input("wen", 1);
        let wdata = top.input("wdata", 16);
        let rdata = top.output("rdata", 16);
        top.instance(
            bank.module_name(),
            "b0",
            vec![
                ("en".into(), en),
                ("wen".into(), wen),
                ("wdata".into(), wdata),
                ("rdata".into(), rdata),
            ],
        );
        Interpreter::new(elaborate(&[top], &[bank], "top").unwrap())
    }

    #[test]
    fn bank_flip_corrupts_a_word_and_parity_detects_it() {
        let mut sim = parity_bank_top();
        sim.load_bank(0, &[7, 8, 9, 10]).unwrap();
        // Flip bit 3 of word 1 after the first step.
        sim.attach_faults(&[FaultSpec::bank_flip("b0", 1, 3, 1)]).unwrap();
        sim.poke("en", 1);
        sim.step(); // read word 0 (clean), then the flip lands
        assert_eq!(sim.peek("rdata"), 7);
        assert_eq!(sim.parity_error_count(), 0);
        sim.step(); // read word 1: corrupted, parity fires
        assert_eq!(sim.peek("rdata"), 8 ^ 0b1000);
        assert_eq!(sim.parity_error_count(), 1);
        assert_eq!(sim.parity_errors(), &[1]);
        sim.step(); // word 2 is clean again
        assert_eq!(sim.peek("rdata"), 9);
        assert_eq!(sim.parity_error_count(), 1);
        assert_eq!(sim.bank_words(0)[1], 8 ^ 0b1000);
    }

    /// Exhaustive single-bit sweep: every (word, bit) flip in a
    /// parity-protected bank is detected on the read of that word.
    #[test]
    fn parity_detects_every_single_bit_bank_flip() {
        for word in 0..4usize {
            for bit in 0..16u32 {
                let mut sim = parity_bank_top();
                sim.load_bank(0, &[7, 8, 9, 10]).unwrap();
                sim.attach_faults(&[FaultSpec::bank_flip("b0", word, bit, 1)])
                    .unwrap();
                sim.poke("en", 1);
                // The read address wraps, so two passes read every word at
                // least once *after* the cycle-1 flip has landed (word 0's
                // first read happens before it).
                for _ in 0..8 {
                    sim.step();
                }
                assert!(
                    sim.parity_error_count() >= 1,
                    "flip of word {word} bit {bit} escaped parity"
                );
            }
        }
    }

    #[test]
    fn clean_writes_refresh_parity() {
        let mut sim = parity_bank_top();
        sim.poke("wen", 1);
        for v in [11u64, 22, 33, 44] {
            sim.poke("wdata", v);
            sim.step();
        }
        sim.poke_many([("wen", 0), ("en", 1)]);
        for v in [11u64, 22, 33, 44] {
            sim.step();
            assert_eq!(sim.peek("rdata"), v);
        }
        assert_eq!(sim.parity_error_count(), 0);
    }

    #[test]
    fn bank_fault_word_bounds_are_checked() {
        let mut sim = parity_bank_top();
        assert_eq!(
            sim.attach_faults(&[FaultSpec::bank_flip("b0", 4, 0, 1)]).unwrap_err(),
            HwError::FaultWordOutOfRange {
                bank: "b0".into(),
                word: 4,
                capacity: 4
            }
        );
    }

    #[test]
    fn faulty_interpreter_matches_engines_under_mixed_faults() {
        // The same fault set on both engines over a PE must stay bit-exact.
        let spec = PeSpec {
            name: "pe".into(),
            datatype: DataType::Int16,
            tensors: vec![
                PeTensorSpec {
                    tensor: "a".into(),
                    kind: PeIoKind::SystolicIn,
                    delay: 1,
                },
                PeTensorSpec {
                    tensor: "b".into(),
                    kind: PeIoKind::StationaryIn,
                    delay: 1,
                },
                PeTensorSpec {
                    tensor: "c".into(),
                    kind: PeIoKind::SystolicOut,
                    delay: 1,
                },
            ],
        };
        let pe = build_pe(&spec);
        let flat = elaborate(&[pe], &[], "pe").unwrap();
        let reg_net = flat.nets()[flat.regs()[0].target].name.clone();
        let faults = vec![
            FaultSpec::stuck_at(reg_net.as_str(), 0, true),
            FaultSpec::flip(reg_net.as_str(), 3, 5),
            FaultSpec::drop_transition(reg_net.as_str(), 9),
        ];
        let mut fast = Interpreter::new(flat.clone());
        let mut slow = Interpreter::new_tree_walking(flat);
        fast.attach_faults(&faults).unwrap();
        slow.attach_faults(&faults).unwrap();
        for cycle in 0..24u64 {
            let pokes = [
                ("load_en", u64::from(cycle % 7 == 0)),
                ("phase", (cycle / 7) & 1),
                ("en", 1),
                ("a_in", as_u16((cycle as i64 % 17) - 8)),
                ("b_in", as_u16((cycle as i64 % 5) - 2)),
                ("c_in", as_u16(cycle as i64 * 3 - 40)),
            ];
            fast.poke_many(pokes);
            slow.poke_many(pokes);
            fast.step();
            slow.step();
            for name in ["c_out", "a_out", "b_out"] {
                assert_eq!(
                    fast.peek(name),
                    slow.peek(name),
                    "net {name} diverged at cycle {cycle} under faults"
                );
            }
        }
    }
}
