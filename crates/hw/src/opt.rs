//! Semantics-preserving netlist optimization passes.
//!
//! The generated templates go for structural clarity, not minimality: the
//! controller repeats the same state/counter comparisons across a dozen
//! expressions, PE accumulators re-derive sums the drain path also needs,
//! and fuzz-generated netlists carry arbitrary dead logic. This module is
//! the rewrite pipeline between generation and every consumer (the
//! interpreter engines compile the optimized netlist, the Verilog emitter
//! prints it, the cost model reports pre/post deltas):
//!
//! 1. **Expression simplification** ([`OptOptions::fold`] /
//!    [`OptOptions::peephole`]): constant folding through every operator —
//!    including `Resize`/`SignExtend` narrowing — plus identity and
//!    mux/resize peepholes. Every rewrite preserves the expression's exact
//!    evaluated value *and* its static width, because downstream masking
//!    depends on both.
//! 2. **Reduction rebalancing** ([`OptOptions::rebalance`]): same-operator
//!    chains are re-treed into balanced form, cutting combinational depth
//!    from `n-1` to `⌈log₂ n⌉`. Only provably associative shapes qualify:
//!    bitwise ops always, `Add`/`Mul` only when every chain leaf has the
//!    same static width (uniform modular masks compose associatively).
//! 3. **Common-subexpression sharing** ([`OptOptions::cse`]): width-aware
//!    structural hashing hoists repeated well-masked subexpressions into
//!    fresh nets. Each hoist is gated on the compiled-bytecode cost model
//!    (the same lowering and fusion rules the interpreter uses), so sharing
//!    that would defeat a fused superinstruction is rejected.
//! 4. **Dead-logic GC** ([`OptOptions::gc`]): assignments no live net
//!    transitively reads are dropped, then unreferenced nets and
//!    unreachable child modules are collected. This is the shared GC the
//!    fuzz shrinker also uses ([`crate::fuzz::shrink_netlist`]); the
//!    optimizer runs it in a port-and-register-preserving mode.
//!
//! **Preservation contract.** The optimizer never renames a net, never
//! removes or reorders a port, register, or instance connection, and never
//! changes a register's width or reset value. Trace counters resolve nets
//! by name, fault campaigns enumerate registers by position, and testbench
//! harnesses poke/peek ports — all of those observe identical designs with
//! optimization on or off.
//!
//! **Equivalence contract.** Every pass is validated by the differential
//! battery in `hw::fuzz`: [`crate::fuzz::check_opt_netlist`] runs the
//! optimized netlist lock-step against the unoptimized one on both scalar
//! engines and the lane-batched engine, comparing every top-level output
//! every cycle, for every fuzz seed.

use std::collections::{HashMap, HashSet};

use serde::Serialize;

use crate::interp::{lower_onto, mask, peephole, sign_extend, width_mask, Instr};
use crate::netlist::{BinOp, Dir, Expr, Module, Net, NetId, RegDef};

/// Per-pass enable switches for [`optimize_module`] / [`optimize_netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct OptOptions {
    /// Constant folding (including through `Resize`/`SignExtend`) and
    /// algebraic identities (`x+0`, `x*1`, `x&0`, …).
    pub fold: bool,
    /// Structural peepholes: redundant resize/sign-extend elision, nested
    /// narrowing collapse, `mux(s,a,a)`, `mux(!s,a,b)` → `mux(s,b,a)`,
    /// double negation.
    pub peephole: bool,
    /// Balanced re-association of same-operator reduction chains.
    pub rebalance: bool,
    /// Cost-gated common-subexpression sharing.
    pub cse: bool,
    /// Dead-assign elimination plus unreferenced-net and dead-child-module
    /// collection.
    pub gc: bool,
}

impl Default for OptOptions {
    fn default() -> OptOptions {
        OptOptions {
            fold: true,
            peephole: true,
            rebalance: true,
            cse: true,
            gc: true,
        }
    }
}

impl OptOptions {
    /// Every pass disabled — the identity pipeline. Useful as a base for
    /// single-pass property tests: `OptOptions { fold: true, ..OptOptions::none() }`.
    pub fn none() -> OptOptions {
        OptOptions {
            fold: false,
            peephole: false,
            rebalance: false,
            cse: false,
            gc: false,
        }
    }
}

/// Size census of a module list, reported pre/post optimization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct NetlistStats {
    /// Modules in the list.
    pub modules: usize,
    /// Total nets across all modules.
    pub nets: usize,
    /// Total combinational assignments.
    pub assigns: usize,
    /// Total registers.
    pub regs: usize,
    /// Total expression-tree nodes (assign right-hand sides plus register
    /// next/enable expressions).
    pub expr_nodes: usize,
    /// Estimated compiled-bytecode instruction count: the same lowering and
    /// peephole-fusion rules [`crate::interp::Interpreter`] applies, summed
    /// per module (cross-module alias elimination happens at elaboration,
    /// so the flat count can only be lower).
    pub lowered_ops: usize,
    /// Worst per-module combinational depth (see [`critical_path_depth`]).
    pub critical_path_depth: u32,
}

/// Pre/post optimization census, as threaded into cost reports and the
/// performance gate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OptStats {
    /// Census before any pass ran.
    pub pre: NetlistStats,
    /// Census of the optimized netlist.
    pub post: NetlistStats,
}

impl OptStats {
    /// Percentage of estimated bytecode instructions the pipeline removed.
    pub fn op_reduction_pct(&self) -> f64 {
        if self.pre.lowered_ops == 0 {
            0.0
        } else {
            100.0 * (self.pre.lowered_ops.saturating_sub(self.post.lowered_ops)) as f64
                / self.pre.lowered_ops as f64
        }
    }
}

pub(crate) fn remap_expr(e: &Expr, map: &[Option<NetId>]) -> Expr {
    match e {
        Expr::Const { value, width } => Expr::Const {
            value: *value,
            width: *width,
        },
        Expr::Net(id) => Expr::Net(map[*id].expect("read net survives gc")),
        Expr::Not(x) => Expr::Not(Box::new(remap_expr(x, map))),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(remap_expr(a, map)),
            Box::new(remap_expr(b, map)),
        ),
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => Expr::Mux {
            sel: Box::new(remap_expr(sel, map)),
            on_true: Box::new(remap_expr(on_true, map)),
            on_false: Box::new(remap_expr(on_false, map)),
        },
        Expr::Resize(x, w) => Expr::Resize(Box::new(remap_expr(x, map)), *w),
        Expr::SignExtend(x, w) => Expr::SignExtend(Box::new(remap_expr(x, map)), *w),
    }
}

/// How [`gc_nets`] treats port nets nothing else references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GcPorts {
    /// Drop input ports no expression reads (the shrinker's mode: smaller
    /// repros beat interface stability).
    PruneUnreadInputs,
    /// Keep every port regardless of use (the optimizer's mode: the
    /// module's interface is part of the preservation contract).
    PreservePorts,
}

/// Deletes nets nothing references any more and renumbers the survivors.
/// This is the shared dead-net GC: the fuzz shrinker runs it in
/// [`GcPorts::PruneUnreadInputs`] mode after every candidate deletion, the
/// optimizer in [`GcPorts::PreservePorts`] mode after dead-assign removal.
pub(crate) fn gc_nets(p: &mut Module, ports: GcPorts) {
    let mut used = vec![false; p.nets.len()];
    let mut read_somewhere = vec![false; p.nets.len()];
    for (target, expr) in &p.assigns {
        used[*target] = true;
        let mut reads = Vec::new();
        expr.collect_reads(&mut reads);
        for r in reads {
            used[r] = true;
            read_somewhere[r] = true;
        }
    }
    for r in &p.regs {
        used[r.target] = true;
        let mut reads = Vec::new();
        r.next.collect_reads(&mut reads);
        if let Some(e) = &r.enable {
            e.collect_reads(&mut reads);
        }
        for x in reads {
            used[x] = true;
            read_somewhere[x] = true;
        }
    }
    for inst in &p.instances {
        for (_, n) in &inst.connections {
            used[*n] = true;
            read_somewhere[*n] = true;
        }
    }
    match ports {
        GcPorts::PruneUnreadInputs => {
            // Output ports keep their nets only while something drives them
            // (their driver marked them used above). Input ports survive
            // only if read.
            for &(id, dir) in &p.ports {
                if dir == Dir::Input && !read_somewhere[id] {
                    used[id] = false;
                }
            }
        }
        GcPorts::PreservePorts => {
            for &(id, _) in &p.ports {
                used[id] = true;
            }
        }
    }
    if used.iter().all(|&u| u) {
        // Nothing to delete: the renumbering below would be the identity.
        return;
    }
    let mut map: Vec<Option<NetId>> = vec![None; p.nets.len()];
    let mut next = 0usize;
    for (id, &u) in used.iter().enumerate() {
        if u {
            map[id] = Some(next);
            next += 1;
        }
    }
    p.nets = p
        .nets
        .iter()
        .enumerate()
        .filter(|(id, _)| used[*id])
        .map(|(_, n)| n.clone())
        .collect();
    p.ports = p
        .ports
        .iter()
        .filter(|(id, _)| used[*id])
        .map(|&(id, d)| (map[id].unwrap(), d))
        .collect();
    for (target, expr) in &mut p.assigns {
        *target = map[*target].expect("assign target survives gc");
        *expr = remap_expr(expr, &map);
    }
    for r in &mut p.regs {
        r.target = map[r.target].expect("reg target survives gc");
        r.next = remap_expr(&r.next, &map);
        r.enable = r.enable.as_ref().map(|e| remap_expr(e, &map));
    }
    for inst in &mut p.instances {
        for (_, n) in &mut inst.connections {
            *n = map[*n].expect("instance net survives gc");
        }
    }
}

/// Drops child modules no surviving instance references.
pub(crate) fn gc_children(modules: &mut Vec<Module>, top: &str) {
    let referenced: HashSet<String> = modules
        .iter()
        .flat_map(|p| p.instances.iter().map(|i| i.module.clone()))
        .collect();
    modules.retain(|p| p.name == top || referenced.contains(&p.name));
}

// ---------------------------------------------------------------------------
// Width/masking analysis
// ---------------------------------------------------------------------------

/// True when the expression's evaluated value always fits its static width.
///
/// Both engines store net values masked to the net width, and every
/// operator except the raw-bitwise trio and `Mux` masks its own result —
/// but a `Mux` returns the selected branch's value *unmasked*, so a mux
/// whose `on_false` branch is statically wider than `on_true` can produce
/// a value exceeding its static width. Rewrites that add or remove a
/// masking point (resize elision, CSE hoisting into a net) are only sound
/// on well-masked operands.
fn well_masked(e: &Expr, nets: &[Net]) -> bool {
    match e {
        Expr::Const { .. }
        | Expr::Net(_)
        | Expr::Not(_)
        | Expr::Resize(..)
        | Expr::SignExtend(..) => true,
        Expr::Bin(op, a, b) => match op {
            BinOp::And | BinOp::Or | BinOp::Xor => well_masked(a, nets) && well_masked(b, nets),
            _ => true,
        },
        Expr::Mux {
            on_true, on_false, ..
        } => {
            on_false.width(nets) <= on_true.width(nets)
                && well_masked(on_true, nets)
                && well_masked(on_false, nets)
        }
    }
}

fn expr_nodes(e: &Expr) -> usize {
    match e {
        Expr::Const { .. } | Expr::Net(_) => 1,
        Expr::Not(x) | Expr::Resize(x, _) | Expr::SignExtend(x, _) => 1 + expr_nodes(x),
        Expr::Bin(_, a, b) => 1 + expr_nodes(a) + expr_nodes(b),
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => 1 + expr_nodes(sel) + expr_nodes(on_true) + expr_nodes(on_false),
    }
}

// ---------------------------------------------------------------------------
// Constant folding and peepholes
// ---------------------------------------------------------------------------

fn const_of(e: &Expr) -> Option<(u64, u32)> {
    match e {
        Expr::Const { value, width } => Some((mask(*value, *width), *width)),
        _ => None,
    }
}

/// One local rewrite attempt at the root of `e` (children are already
/// simplified). Returns the replacement, or `None` when no rule applies.
/// Every rule preserves the exact evaluated value and the static width.
fn rule_step(e: &Expr, nets: &[Net], opts: &OptOptions) -> Option<Expr> {
    match e {
        Expr::Not(x) => {
            if opts.fold {
                if let Some((v, w)) = const_of(x) {
                    return Some(Expr::Const {
                        value: mask(!v, w),
                        width: w,
                    });
                }
            }
            if opts.peephole {
                // !!x == x when x's value fits its width (both nots mask
                // to that same width).
                if let Expr::Not(inner) = x.as_ref() {
                    if well_masked(inner, nets) {
                        return Some(inner.as_ref().clone());
                    }
                }
            }
            None
        }
        Expr::Bin(op, a, b) => {
            if !opts.fold {
                return None;
            }
            let (aw, bw) = (a.width(nets), b.width(nets));
            if let (Some((va, _)), Some((vb, _))) = (const_of(a), const_of(b)) {
                let w = aw.max(bw);
                let (value, width) = match op {
                    BinOp::Add => (mask(va.wrapping_add(vb), w), w),
                    BinOp::Sub => (mask(va.wrapping_sub(vb), w), w),
                    BinOp::Mul => (mask(va.wrapping_mul(vb), w), w),
                    BinOp::And => (va & vb, w),
                    BinOp::Or => (va | vb, w),
                    BinOp::Xor => (va ^ vb, w),
                    BinOp::Eq => ((va == vb) as u64, 1),
                    BinOp::Lt => ((va < vb) as u64, 1),
                };
                return Some(Expr::Const { value, width });
            }
            // Algebraic identities. Replacing the node with one operand
            // must keep the static width (constant no wider than the kept
            // side) and, for the masking ops, the exact value (kept side
            // well-masked, since the op's own mask disappears).
            let zero_a = const_of(a).is_some_and(|(v, _)| v == 0);
            let zero_b = const_of(b).is_some_and(|(v, _)| v == 0);
            match op {
                BinOp::Add => {
                    if zero_b && bw <= aw && well_masked(a, nets) {
                        return Some(a.as_ref().clone());
                    }
                    if zero_a && aw <= bw && well_masked(b, nets) {
                        return Some(b.as_ref().clone());
                    }
                }
                BinOp::Sub => {
                    if zero_b && bw <= aw && well_masked(a, nets) {
                        return Some(a.as_ref().clone());
                    }
                }
                BinOp::Mul => {
                    if zero_a || zero_b {
                        return Some(Expr::Const {
                            value: 0,
                            width: aw.max(bw),
                        });
                    }
                    if const_of(b).is_some_and(|(v, _)| v == 1) && bw <= aw && well_masked(a, nets)
                    {
                        return Some(a.as_ref().clone());
                    }
                    if const_of(a).is_some_and(|(v, _)| v == 1) && aw <= bw && well_masked(b, nets)
                    {
                        return Some(b.as_ref().clone());
                    }
                }
                BinOp::And => {
                    if zero_a || zero_b {
                        return Some(Expr::Const {
                            value: 0,
                            width: aw.max(bw),
                        });
                    }
                    // x & ones(xw) == x for in-range x.
                    if const_of(b).is_some_and(|(v, _)| v == width_mask(aw))
                        && bw == aw
                        && well_masked(a, nets)
                    {
                        return Some(a.as_ref().clone());
                    }
                    if const_of(a).is_some_and(|(v, _)| v == width_mask(bw))
                        && aw == bw
                        && well_masked(b, nets)
                    {
                        return Some(b.as_ref().clone());
                    }
                }
                BinOp::Or | BinOp::Xor => {
                    // Raw bitwise identity: no masks involved on either
                    // side of the rewrite.
                    if zero_b && bw <= aw {
                        return Some(a.as_ref().clone());
                    }
                    if zero_a && aw <= bw {
                        return Some(b.as_ref().clone());
                    }
                }
                BinOp::Eq | BinOp::Lt => {}
            }
            None
        }
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => {
            let (tw, fw) = (on_true.width(nets), on_false.width(nets));
            if opts.fold {
                if let Some((v, _)) = const_of(sel) {
                    if v & 1 == 1 {
                        return Some(on_true.as_ref().clone());
                    }
                    // The false branch only substitutes width-neutrally.
                    if fw == tw {
                        return Some(on_false.as_ref().clone());
                    }
                }
            }
            if opts.peephole {
                if on_true == on_false {
                    return Some(on_true.as_ref().clone());
                }
                if let Expr::Not(inner) = sel.as_ref() {
                    // `!s` flips bit 0 (the mux test bit), so swapping the
                    // branches preserves the selection. Width-neutral only
                    // when the branches agree.
                    if tw == fw {
                        return Some(Expr::Mux {
                            sel: inner.clone(),
                            on_true: on_false.clone(),
                            on_false: on_true.clone(),
                        });
                    }
                }
            }
            None
        }
        Expr::Resize(x, w) => {
            if opts.fold {
                if let Some((v, _)) = const_of(x) {
                    return Some(Expr::Const {
                        value: mask(v, *w),
                        width: *w,
                    });
                }
            }
            if opts.peephole {
                if x.width(nets) == *w && well_masked(x, nets) {
                    return Some(x.as_ref().clone());
                }
                if let Expr::Resize(inner, a) = x.as_ref() {
                    // mask(mask(v,a),w) == mask(v,w) whenever w <= a.
                    if *w <= *a {
                        return Some(Expr::Resize(inner.clone(), *w));
                    }
                }
            }
            None
        }
        Expr::SignExtend(x, w) => {
            let xw = x.width(nets);
            if opts.fold {
                if let Some((v, _)) = const_of(x) {
                    return Some(Expr::Const {
                        value: sign_extend(v, xw, *w),
                        width: *w,
                    });
                }
            }
            if opts.peephole {
                // A non-widening sign-extension is a plain truncation/mask.
                if *w <= xw {
                    return Some(Expr::Resize(x.clone(), *w));
                }
                if let Expr::SignExtend(inner, a) = x.as_ref() {
                    // Extending an already sign-extended value re-extends
                    // the same original sign bit.
                    if inner.width(nets) <= *a {
                        return Some(Expr::SignExtend(inner.clone(), *w));
                    }
                }
            }
            None
        }
        Expr::Const { .. } | Expr::Net(_) => None,
    }
}

/// Bottom-up simplification: children first, then root rules to a local
/// fixpoint. Terminates because every rule shrinks the node count or
/// removes a `SignExtend` without adding one.
fn simplify(e: &Expr, nets: &[Net], opts: &OptOptions, changed: &mut bool) -> Expr {
    let mut cur = match e {
        Expr::Const { .. } | Expr::Net(_) => e.clone(),
        Expr::Not(x) => Expr::Not(Box::new(simplify(x, nets, opts, changed))),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(simplify(a, nets, opts, changed)),
            Box::new(simplify(b, nets, opts, changed)),
        ),
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => Expr::Mux {
            sel: Box::new(simplify(sel, nets, opts, changed)),
            on_true: Box::new(simplify(on_true, nets, opts, changed)),
            on_false: Box::new(simplify(on_false, nets, opts, changed)),
        },
        Expr::Resize(x, w) => Expr::Resize(Box::new(simplify(x, nets, opts, changed)), *w),
        Expr::SignExtend(x, w) => Expr::SignExtend(Box::new(simplify(x, nets, opts, changed)), *w),
    };
    while let Some(next) = rule_step(&cur, nets, opts) {
        *changed = true;
        cur = next;
    }
    cur
}

// ---------------------------------------------------------------------------
// Reduction rebalancing
// ---------------------------------------------------------------------------

fn assoc_candidate(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Add | BinOp::Mul
    )
}

fn collect_chain(e: &Expr, op: BinOp, leaves: &mut Vec<Expr>) {
    if let Expr::Bin(o, a, b) = e {
        if *o == op {
            collect_chain(a, op, leaves);
            collect_chain(b, op, leaves);
            return;
        }
    }
    leaves.push(e.clone());
}

fn balanced(op: BinOp, leaves: &[Expr]) -> Expr {
    if leaves.len() == 1 {
        return leaves[0].clone();
    }
    let mid = leaves.len().div_ceil(2);
    Expr::Bin(
        op,
        Box::new(balanced(op, &leaves[..mid])),
        Box::new(balanced(op, &leaves[mid..])),
    )
}

/// Re-trees same-operator chains into balanced form. Bitwise chains are
/// raw-value associative under any grouping; `Add`/`Mul` chains qualify
/// only when every leaf has the same static width, so every intermediate
/// node masks modulo the same `2^W` and grouping cannot change the result.
fn rebalance_expr(e: &Expr, nets: &[Net], changed: &mut bool) -> Expr {
    match e {
        Expr::Bin(op, a, b) if assoc_candidate(*op) => {
            let mut leaves = Vec::new();
            collect_chain(e, *op, &mut leaves);
            let leaves: Vec<Expr> = leaves
                .iter()
                .map(|l| rebalance_expr(l, nets, changed))
                .collect();
            let ok = match op {
                BinOp::And | BinOp::Or | BinOp::Xor => true,
                _ => {
                    let w0 = leaves[0].width(nets);
                    leaves.iter().all(|l| l.width(nets) == w0)
                }
            };
            if ok && leaves.len() >= 3 {
                let tree = balanced(*op, &leaves);
                if tree != *e {
                    *changed = true;
                }
                tree
            } else {
                Expr::Bin(
                    *op,
                    Box::new(rebalance_expr(a, nets, changed)),
                    Box::new(rebalance_expr(b, nets, changed)),
                )
            }
        }
        Expr::Const { .. } | Expr::Net(_) => e.clone(),
        Expr::Not(x) => Expr::Not(Box::new(rebalance_expr(x, nets, changed))),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(rebalance_expr(a, nets, changed)),
            Box::new(rebalance_expr(b, nets, changed)),
        ),
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => Expr::Mux {
            sel: Box::new(rebalance_expr(sel, nets, changed)),
            on_true: Box::new(rebalance_expr(on_true, nets, changed)),
            on_false: Box::new(rebalance_expr(on_false, nets, changed)),
        },
        Expr::Resize(x, w) => Expr::Resize(Box::new(rebalance_expr(x, nets, changed)), *w),
        Expr::SignExtend(x, w) => {
            Expr::SignExtend(Box::new(rebalance_expr(x, nets, changed)), *w)
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled-cost model (mirrors interp.rs lowering + fusion exactly)
// ---------------------------------------------------------------------------

fn lowered_segment(e: &Expr, nets: &[Net], identity: &[u32]) -> Vec<Instr> {
    let mut seg = Vec::new();
    lower_onto(e, nets, identity, &mut seg);
    peephole(&mut seg);
    seg
}

fn assign_cost(nets: &[Net], identity: &[u32], target: NetId, e: &Expr) -> usize {
    // Alias elimination: a non-truncating copy compiles to nothing.
    if let Expr::Net(src) = e {
        if nets[*src].width <= nets[target].width {
            return 0;
        }
    }
    let seg = lowered_segment(e, nets, identity);
    match seg[..] {
        [Instr::Load(_)] | [Instr::Const(_)] => 1,
        _ => seg.len() + 1,
    }
}

fn reg_cost(nets: &[Net], identity: &[u32], r: &RegDef) -> usize {
    match &r.enable {
        Some(en) => {
            let mut seg = Vec::new();
            lower_onto(en, nets, identity, &mut seg);
            lower_onto(&r.next, nets, identity, &mut seg);
            peephole(&mut seg);
            if matches!(seg[..], [Instr::Load(_), Instr::Load(_)]) {
                1
            } else {
                seg.len() + 1
            }
        }
        None => {
            let seg = lowered_segment(&r.next, nets, identity);
            if matches!(seg[..], [Instr::Load(_)]) {
                1
            } else {
                seg.len() + 1
            }
        }
    }
}

/// Estimated compiled-bytecode instruction count for one module, using the
/// interpreter's own lowering and fusion rules (alias copies cost zero).
/// Every settle assign and register sample is costed as its own segment.
pub fn module_lowered_ops(m: &Module) -> usize {
    let nets = m.nets();
    let identity: Vec<u32> = (0..nets.len() as u32).collect();
    let assigns: usize = m
        .assigns()
        .iter()
        .map(|(t, e)| assign_cost(nets, &identity, *t, e))
        .sum();
    let regs: usize = m.regs().iter().map(|r| reg_cost(nets, &identity, r)).sum();
    assigns + regs
}

// ---------------------------------------------------------------------------
// Common-subexpression sharing
// ---------------------------------------------------------------------------

/// Width-aware structural key: net identities, constant value *and* width,
/// and resize/extend targets all participate, so two textually identical
/// trees over different widths never collide.
fn expr_key(e: &Expr) -> String {
    match e {
        Expr::Const { value, width } => format!("c{value}w{width}"),
        Expr::Net(id) => format!("n{id}"),
        Expr::Not(x) => format!("!({})", expr_key(x)),
        Expr::Bin(op, a, b) => format!("({} {op:?} {})", expr_key(a), expr_key(b)),
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => format!(
            "({}?{}:{})",
            expr_key(sel),
            expr_key(on_true),
            expr_key(on_false)
        ),
        Expr::Resize(x, w) => format!("rz{w}({})", expr_key(x)),
        Expr::SignExtend(x, w) => format!("sx{w}({})", expr_key(x)),
    }
}

/// The structure of one interned node: the operator with its payload, and
/// the interned ids of its operands. Two subexpressions get the same id
/// exactly when they are structurally equal (`Expr`'s derived equality).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    Const(u64, u32),
    Net(NetId),
    Not(u32),
    Bin(BinOp, u32, u32),
    Mux(u32, u32, u32),
    Resize(u32, u32),
    SignExtend(u32, u32),
}

/// One distinct subexpression of a CSE round.
struct Interned<'e> {
    /// The first occurrence (every occurrence is structurally equal).
    expr: &'e Expr,
    width: u32,
    well_masked: bool,
    /// Counted occurrences: well-masked operator nodes only, nested
    /// occurrences included.
    count: usize,
    /// Items containing the subexpression, ascending and distinct. Item `i <
    /// assigns.len()` is assign `i`; item `assigns.len() + j` is register `j`
    /// (next and enable together, as [`reg_cost`] costs them).
    items: Vec<usize>,
}

/// Hash-consing of every subexpression of a module's items, bottom-up, into
/// dense `u32` ids. One pass computes each node's width and masking from its
/// operands' entries, so nothing is recomputed per occurrence.
struct Interner<'e> {
    ids: HashMap<Shape, u32>,
    nodes: Vec<Interned<'e>>,
}

impl<'e> Interner<'e> {
    fn intern(&mut self, e: &'e Expr, nets: &[Net], item: usize) -> u32 {
        let shape = match e {
            Expr::Const { value, width } => Shape::Const(*value, *width),
            Expr::Net(id) => Shape::Net(*id),
            Expr::Not(x) => Shape::Not(self.intern(x, nets, item)),
            Expr::Bin(op, a, b) => {
                let a = self.intern(a, nets, item);
                Shape::Bin(*op, a, self.intern(b, nets, item))
            }
            Expr::Mux {
                sel,
                on_true,
                on_false,
            } => {
                let s = self.intern(sel, nets, item);
                let t = self.intern(on_true, nets, item);
                Shape::Mux(s, t, self.intern(on_false, nets, item))
            }
            Expr::Resize(x, w) => Shape::Resize(self.intern(x, nets, item), *w),
            Expr::SignExtend(x, w) => Shape::SignExtend(self.intern(x, nets, item), *w),
        };
        let next = self.nodes.len() as u32;
        let id = *self.ids.entry(shape).or_insert(next);
        if id == next {
            let node = |i: u32| &self.nodes[i as usize];
            // The rules of `Expr::width` and `well_masked`, one level deep.
            let (width, well_masked) = match shape {
                Shape::Const(_, w) | Shape::Resize(_, w) | Shape::SignExtend(_, w) => (w, true),
                Shape::Net(n) => (nets[n].width, true),
                Shape::Not(x) => (node(x).width, true),
                Shape::Bin(BinOp::Eq | BinOp::Lt, ..) => (1, true),
                Shape::Bin(op, a, b) => {
                    let (a, b) = (node(a), node(b));
                    let raw = matches!(op, BinOp::And | BinOp::Or | BinOp::Xor);
                    (a.width.max(b.width), !raw || (a.well_masked && b.well_masked))
                }
                Shape::Mux(_, t, f) => {
                    let (t, f) = (node(t), node(f));
                    (t.width, f.width <= t.width && t.well_masked && f.well_masked)
                }
            };
            self.nodes.push(Interned {
                expr: e,
                width,
                well_masked,
                count: 0,
                items: Vec::new(),
            });
        }
        let n = &mut self.nodes[id as usize];
        if n.well_masked && !matches!(shape, Shape::Const(..) | Shape::Net(_)) {
            n.count += 1;
            if n.items.last() != Some(&item) {
                n.items.push(item);
            }
        }
        id
    }
}

fn replace_subexpr(e: &Expr, what: &Expr, with: NetId) -> Expr {
    if e == what {
        return Expr::Net(with);
    }
    match e {
        Expr::Const { .. } | Expr::Net(_) => e.clone(),
        Expr::Not(x) => Expr::Not(Box::new(replace_subexpr(x, what, with))),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(replace_subexpr(a, what, with)),
            Box::new(replace_subexpr(b, what, with)),
        ),
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => Expr::Mux {
            sel: Box::new(replace_subexpr(sel, what, with)),
            on_true: Box::new(replace_subexpr(on_true, what, with)),
            on_false: Box::new(replace_subexpr(on_false, what, with)),
        },
        Expr::Resize(x, w) => Expr::Resize(Box::new(replace_subexpr(x, what, with)), *w),
        Expr::SignExtend(x, w) => {
            Expr::SignExtend(Box::new(replace_subexpr(x, what, with)), *w)
        }
    }
}

/// An item rewritten to read the shared net, with its new cost.
enum Rewrite {
    Assign(usize, Expr, usize),
    Reg(usize, RegDef, usize),
}

/// Cost-gated CSE: hoists the cheapest profitable candidate, recounts, and
/// repeats. A hoist only lands when the module's estimated bytecode cost
/// strictly drops — sharing a subexpression that a fused superinstruction
/// already evaluates for free is rejected by construction.
///
/// Each round interns every subexpression into an [`Interner`], and the
/// candidates (well-masked operator subexpressions occurring at least
/// twice) are tried in `(expr_nodes, expr_key)` order; both are computed
/// only for candidates. The gate is evaluated *incrementally*: every settle assign
/// and register sample is costed as its own independent bytecode segment
/// (exactly how [`module_lowered_ops`] sums them), so a candidate's effect
/// is the cost delta over the items its occurrence list names plus the new
/// defining assign. This is bit-for-bit the same accept/reject decision as
/// re-costing a cloned module. Item costs are cached across rounds: a hoist
/// changes only the items it rewrites and adds one assign. The net table
/// carries one extra slot for the hypothetical shared net while CSE runs.
fn cse_module(p: &mut Module) {
    let mut counter = 0usize;
    let (mut rounds, mut hoists) = (0u64, 0u64);
    let Module {
        nets,
        assigns,
        regs,
        ..
    } = p;
    let mut shared = nets.len();
    nets.push(Net {
        name: String::new(),
        width: 1,
    });
    let mut identity: Vec<u32> = (0..nets.len() as u32).collect();
    let mut assign_costs: Vec<usize> = assigns
        .iter()
        .map(|(t, e)| assign_cost(nets, &identity, *t, e))
        .collect();
    let mut reg_costs: Vec<usize> = regs.iter().map(|r| reg_cost(nets, &identity, r)).collect();
    // Reused across rounds, so each round interns into an already sized table.
    let mut ids: HashMap<Shape, u32> = HashMap::new();
    for _round in 0..256 {
        rounds += 1;
        ids.clear();
        let mut interner = Interner {
            nodes: Vec::with_capacity(ids.capacity()),
            ids,
        };
        for (i, (_, e)) in assigns.iter().enumerate() {
            interner.intern(e, nets, i);
        }
        for (j, r) in regs.iter().enumerate() {
            let item = assigns.len() + j;
            interner.intern(&r.next, nets, item);
            if let Some(en) = &r.enable {
                interner.intern(en, nets, item);
            }
        }
        let mut cands: Vec<(usize, String, &Interned)> = interner
            .nodes
            .iter()
            .filter(|n| n.count >= 2)
            .map(|n| (expr_nodes(n.expr), expr_key(n.expr), n))
            .collect();
        cands.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut accepted = None;
        for (_, _, cand) in &cands {
            let e = cand.expr;
            nets[shared].width = cand.width;
            let define = assign_cost(nets, &identity, shared, e);
            let mut delta = define as isize;
            let mut rewrites = Vec::with_capacity(cand.items.len());
            for &item in &cand.items {
                if let Some((t, old)) = assigns.get(item) {
                    let new = replace_subexpr(old, e, shared);
                    let cost = assign_cost(nets, &identity, *t, &new);
                    delta += cost as isize - assign_costs[item] as isize;
                    rewrites.push(Rewrite::Assign(item, new, cost));
                } else {
                    let j = item - assigns.len();
                    let r = &regs[j];
                    let new = RegDef {
                        target: r.target,
                        next: replace_subexpr(&r.next, e, shared),
                        enable: r.enable.as_ref().map(|en| replace_subexpr(en, e, shared)),
                        init: r.init,
                    };
                    let cost = reg_cost(nets, &identity, &new);
                    delta += cost as isize - reg_costs[j] as isize;
                    rewrites.push(Rewrite::Reg(j, new, cost));
                }
            }
            if delta < 0 {
                accepted = Some((e.clone(), cand.width, define, rewrites));
                break;
            }
        }
        ids = interner.ids;
        let Some((e, width, define, rewrites)) = accepted else {
            break;
        };
        hoists += 1;
        for rewrite in rewrites {
            match rewrite {
                Rewrite::Assign(i, new, cost) => {
                    assigns[i].1 = new;
                    assign_costs[i] = cost;
                }
                Rewrite::Reg(j, new, cost) => {
                    regs[j] = new;
                    reg_costs[j] = cost;
                }
            }
        }
        let name = loop {
            let candidate = format!("cse_{counter}");
            counter += 1;
            if !nets.iter().any(|n| n.name == candidate) {
                break candidate;
            }
        };
        nets[shared] = Net { name, width };
        // The shared net is defined *after* rewriting, so the defining
        // right-hand side is not rewritten into a self-reference.
        assigns.push((shared, e));
        assign_costs.push(define);
        shared = nets.len();
        nets.push(Net {
            name: String::new(),
            width: 1,
        });
        identity.push(shared as u32);
    }
    nets.pop();
    tensorlib_obs::counter_add("hw.opt.cse_rounds", rounds);
    tensorlib_obs::counter_add("hw.opt.cse_hoists", hoists);
}

// ---------------------------------------------------------------------------
// Dead-logic GC (optimizer mode)
// ---------------------------------------------------------------------------

/// Drops assignments whose targets no live net transitively needs. Roots:
/// every port, every instance connection, and every register (registers are
/// never deleted — fault campaigns enumerate them by position).
fn drop_dead_assigns(p: &mut Module) -> bool {
    let mut live = vec![false; p.nets.len()];
    for &(id, _) in &p.ports {
        live[id] = true;
    }
    for inst in &p.instances {
        for (_, n) in &inst.connections {
            live[*n] = true;
        }
    }
    for r in &p.regs {
        live[r.target] = true;
        let mut reads = Vec::new();
        r.next.collect_reads(&mut reads);
        if let Some(e) = &r.enable {
            e.collect_reads(&mut reads);
        }
        for x in reads {
            live[x] = true;
        }
    }
    loop {
        let mut grew = false;
        for (t, e) in &p.assigns {
            if live[*t] {
                let mut reads = Vec::new();
                e.collect_reads(&mut reads);
                for r in reads {
                    if !live[r] {
                        live[r] = true;
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    let before = p.assigns.len();
    p.assigns.retain(|(t, _)| live[*t]);
    before != p.assigns.len()
}

// ---------------------------------------------------------------------------
// Depth + census
// ---------------------------------------------------------------------------

/// Longest combinational operator path inside one module, in gate levels:
/// `Not`/`Bin`/`Mux` count one level, `Resize`/`SignExtend` are wiring,
/// and paths start at inputs, constants, register outputs, and
/// instance-driven nets. Register next/enable expressions terminate paths
/// (they end at a flop), so the result is the classic register-to-register
/// critical depth restricted to this module.
pub fn critical_path_depth(m: &Module) -> u32 {
    let nets = m.nets();
    let driver: HashMap<NetId, &Expr> = m.assigns().iter().map(|(t, e)| (*t, e)).collect();
    let mut memo: Vec<Option<u32>> = vec![None; nets.len()];
    fn net_depth(
        id: NetId,
        driver: &HashMap<NetId, &Expr>,
        memo: &mut Vec<Option<u32>>,
        regs: &HashSet<NetId>,
    ) -> u32 {
        if let Some(d) = memo[id] {
            return d;
        }
        // Mark as in-progress: combinational cycles (impossible in
        // validated modules) and register feedback terminate at zero.
        memo[id] = Some(0);
        let d = if regs.contains(&id) {
            0
        } else {
            match driver.get(&id) {
                Some(e) => expr_depth(e, driver, memo, regs),
                None => 0,
            }
        };
        memo[id] = Some(d);
        d
    }
    fn expr_depth(
        e: &Expr,
        driver: &HashMap<NetId, &Expr>,
        memo: &mut Vec<Option<u32>>,
        regs: &HashSet<NetId>,
    ) -> u32 {
        match e {
            Expr::Const { .. } => 0,
            Expr::Net(id) => net_depth(*id, driver, memo, regs),
            Expr::Not(x) => 1 + expr_depth(x, driver, memo, regs),
            Expr::Bin(_, a, b) => {
                1 + expr_depth(a, driver, memo, regs).max(expr_depth(b, driver, memo, regs))
            }
            Expr::Mux {
                sel,
                on_true,
                on_false,
            } => {
                1 + expr_depth(sel, driver, memo, regs)
                    .max(expr_depth(on_true, driver, memo, regs))
                    .max(expr_depth(on_false, driver, memo, regs))
            }
            Expr::Resize(x, _) | Expr::SignExtend(x, _) => expr_depth(x, driver, memo, regs),
        }
    }
    let regs: HashSet<NetId> = m.regs().iter().map(|r| r.target).collect();
    let mut worst = 0u32;
    for (t, _) in m.assigns() {
        worst = worst.max(net_depth(*t, &driver, &mut memo, &regs));
    }
    for r in m.regs() {
        worst = worst.max(expr_depth(&r.next, &driver, &mut memo, &regs));
        if let Some(e) = &r.enable {
            worst = worst.max(expr_depth(e, &driver, &mut memo, &regs));
        }
    }
    worst
}

/// Census of a module list: sizes, expression nodes, the estimated
/// compiled-bytecode instruction count, and the worst per-module
/// combinational depth.
pub fn netlist_stats(modules: &[Module]) -> NetlistStats {
    let mut s = NetlistStats {
        modules: modules.len(),
        ..NetlistStats::default()
    };
    for m in modules {
        s.nets += m.nets().len();
        s.assigns += m.assigns().len();
        s.regs += m.regs().len();
        for (_, e) in m.assigns() {
            s.expr_nodes += expr_nodes(e);
        }
        for r in m.regs() {
            s.expr_nodes += expr_nodes(&r.next);
            if let Some(e) = &r.enable {
                s.expr_nodes += expr_nodes(e);
            }
        }
        s.lowered_ops += module_lowered_ops(m);
        s.critical_path_depth = s.critical_path_depth.max(critical_path_depth(m));
    }
    s
}

// ---------------------------------------------------------------------------
// Pipeline entry points
// ---------------------------------------------------------------------------

/// Runs the enabled passes over one module. Pass order: expression
/// simplification and rebalancing to a fixpoint (each iteration applies
/// fold/peephole rules bottom-up, then re-trees reduction chains), then
/// cost-gated CSE, then dead-logic GC. Ports, registers, instances, and
/// net names are preserved (see the module docs' preservation contract).
/// The module is rewritten in place; nothing is copied.
pub fn optimize_module(mut p: Module, opts: &OptOptions) -> Module {
    if opts.fold || opts.peephole || opts.rebalance {
        for _ in 0..8 {
            let mut changed = false;
            let nets = &p.nets;
            let rewrite = |e: &Expr, changed: &mut bool| -> Expr {
                let mut cur = simplify(e, nets, opts, changed);
                if opts.rebalance {
                    cur = rebalance_expr(&cur, nets, changed);
                }
                cur
            };
            for (_, e) in &mut p.assigns {
                *e = rewrite(e, &mut changed);
            }
            for r in &mut p.regs {
                r.next = rewrite(&r.next, &mut changed);
                r.enable = r.enable.as_ref().map(|e| rewrite(e, &mut changed));
            }
            if !changed {
                break;
            }
        }
    }
    if opts.cse {
        let _span = tensorlib_obs::span("hw.opt.cse");
        cse_module(&mut p);
    }
    if opts.gc {
        drop_dead_assigns(&mut p);
        gc_nets(&mut p, GcPorts::PreservePorts);
    }
    p
}

/// The optimizer core: optimizes a whole module list, taken by value, and
/// collects child modules the top no longer reaches (when
/// [`OptOptions::gc`] is on). Module order is preserved for the survivors.
/// It computes no census; [`optimize_netlist`] is this plus one.
pub fn optimize(modules: Vec<Module>, top: &str, opts: &OptOptions) -> Vec<Module> {
    let _span = tensorlib_obs::span("hw.opt");
    let mut out: Vec<Module> = modules
        .into_iter()
        .map(|m| optimize_module(m, opts))
        .collect();
    if opts.gc && out.iter().any(|m| m.name() == top) {
        // Transitive reachability from the top module over instances.
        let by_name: HashMap<&str, &Module> = out.iter().map(|m| (m.name(), m)).collect();
        let mut reachable: HashSet<String> = HashSet::new();
        let mut stack = vec![top];
        while let Some(name) = stack.pop() {
            if !reachable.insert(name.to_string()) {
                continue;
            }
            if let Some(m) = by_name.get(name) {
                stack.extend(m.instances().iter().map(|inst| inst.module.as_str()));
            }
        }
        out.retain(|m| reachable.contains(m.name()));
    }
    out
}

/// [`optimize`] over a copy of `modules`, plus the pre/post census.
pub fn optimize_netlist(
    modules: &[Module],
    top: &str,
    opts: &OptOptions,
) -> (Vec<Module>, OptStats) {
    let pre = netlist_stats(modules);
    let out = optimize(modules.to_vec(), top, opts);
    let post = netlist_stats(&out);
    (out, OptStats { pre, post })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::assert_engines_agree;

    fn w(e: &Expr) -> u32 {
        e.width(&[])
    }

    #[test]
    fn folds_constants_through_every_operator() {
        let opts = OptOptions::default();
        let mut ch = false;
        let nets: Vec<Net> = Vec::new();
        let e = Expr::lit(200, 8).add(Expr::lit(100, 8));
        let f = simplify(&e, &nets, &opts, &mut ch);
        assert_eq!(f, Expr::Const { value: 44, width: 8 }, "wrapping add");
        let e = Expr::lit(9, 4).sext(8);
        let f = simplify(&e, &nets, &opts, &mut ch);
        assert_eq!(f, Expr::Const { value: 249, width: 8 }, "sign extension");
        let e = Expr::lit(200, 8).resize(4);
        let f = simplify(&e, &nets, &opts, &mut ch);
        assert_eq!(f, Expr::Const { value: 8, width: 4 }, "narrowing resize");
        let e = Expr::mux(Expr::lit(1, 1), Expr::lit(3, 4), Expr::lit(5, 4));
        let f = simplify(&e, &nets, &opts, &mut ch);
        assert_eq!(f, Expr::Const { value: 3, width: 4 });
        assert_eq!(w(&f), 4);
    }

    #[test]
    fn width_changing_identities_are_refused() {
        // x(4) + 0(8) has static width 8; substituting x would shrink it.
        let mut m = Module::new("t");
        let x = m.input("x", 4);
        let opts = OptOptions::default();
        let mut ch = false;
        let e = Expr::net(x).add(Expr::lit(0, 8));
        let f = simplify(&e, m.nets(), &opts, &mut ch);
        assert_eq!(f.width(m.nets()), 8, "width must be preserved: {f:?}");
        // Same addend at width 4 is a true identity.
        let e = Expr::net(x).add(Expr::lit(0, 4));
        let f = simplify(&e, m.nets(), &opts, &mut ch);
        assert_eq!(f, Expr::net(x));
    }

    #[test]
    fn mux_with_wider_false_branch_is_not_well_masked() {
        let mut m = Module::new("t");
        let s = m.input("s", 1);
        let a = m.input("a", 4);
        let b = m.input("b", 8);
        let e = Expr::Mux {
            sel: Box::new(Expr::net(s)),
            on_true: Box::new(Expr::net(a)),
            on_false: Box::new(Expr::net(b)),
        };
        assert!(!well_masked(&e, m.nets()));
        // And therefore the enclosing resize must not be elided.
        let opts = OptOptions::default();
        let mut ch = false;
        let f = simplify(&Expr::Resize(Box::new(e.clone()), 4), m.nets(), &opts, &mut ch);
        assert!(matches!(f, Expr::Resize(..)), "mask kept: {f:?}");
    }

    #[test]
    fn rebalanced_chain_has_log_depth_and_same_value() {
        let mut m = Module::new("chain");
        let ins: Vec<NetId> = (0..9).map(|i| m.input(format!("i{i}"), 8)).collect();
        let y = m.output("y", 8);
        let mut e = Expr::net(ins[0]);
        for &i in &ins[1..] {
            e = e.add(Expr::net(i));
        }
        let mut ch = false;
        let t = rebalance_expr(&e, m.nets(), &mut ch);
        assert!(ch);
        fn depth(e: &Expr) -> u32 {
            match e {
                Expr::Bin(_, a, b) => 1 + depth(a).max(depth(b)),
                _ => 0,
            }
        }
        assert_eq!(depth(&e), 8);
        assert!(depth(&t) <= 4, "depth {} > ceil(log2 9)", depth(&t));
        m.assign(y, e);
        let opt = optimize_module(m.clone(), &OptOptions::default());
        assert_engines_agree(
            &[m.clone()],
            "chain",
            11,
            16,
        );
        assert_engines_agree(&[opt], "chain", 11, 16);
    }

    #[test]
    fn mixed_width_add_chains_are_left_alone() {
        let mut m = Module::new("mx");
        let a = m.input("a", 4);
        let b = m.input("b", 8);
        let c = m.input("c", 4);
        let d = m.input("d", 4);
        let e = Expr::net(a)
            .add(Expr::net(b))
            .add(Expr::net(c))
            .add(Expr::net(d));
        let mut ch = false;
        let t = rebalance_expr(&e, m.nets(), &mut ch);
        assert_eq!(t, e, "mixed-width arithmetic must keep its grouping");
    }

    #[test]
    fn cse_shares_repeats_and_is_cost_gated() {
        let mut m = Module::new("cse");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let x = m.output("x", 8);
        let y = m.output("y", 8);
        let z = m.output("z", 8);
        // (a+b)&3 appears three times inside larger expressions.
        let shared = || Expr::net(a).add(Expr::net(b)).resize(8);
        m.assign(x, shared().mul(Expr::net(a)).resize(8));
        m.assign(y, shared().mul(Expr::net(b)).resize(8));
        m.assign(z, shared().add(Expr::lit(1, 8)).resize(8));
        let before = module_lowered_ops(&m);
        let opt = optimize_module(m.clone(), &OptOptions::default());
        let after = module_lowered_ops(&opt);
        assert!(after < before, "no sharing happened: {before} -> {after}");
        assert!(
            opt.nets().iter().any(|n| n.name.starts_with("cse_")),
            "shared net expected"
        );
        assert_engines_agree(&[m], "cse", 5, 16);
        assert_engines_agree(&[opt], "cse", 5, 16);
    }

    #[test]
    fn gc_drops_dead_logic_but_keeps_ports_and_regs() {
        let mut m = Module::new("gc");
        let a = m.input("a", 8);
        let unused_in = m.input("unused_in", 8);
        let y = m.output("y", 8);
        let dead = m.net("dead", 8);
        let dead_reg = m.net("dead_reg", 8);
        m.assign(dead, Expr::net(a).add(Expr::lit(1, 8)));
        m.reg(dead_reg, Expr::net(dead_reg).add(Expr::lit(1, 8)), None, 0);
        m.assign(y, Expr::net(a));
        let opt = optimize_module(m.clone(), &OptOptions::default());
        assert!(opt.port_dir("unused_in").is_some(), "ports preserved");
        assert_eq!(opt.regs().len(), 1, "registers preserved");
        assert!(
            opt.nets().iter().all(|n| n.name != "dead"),
            "dead assign collected: {:?}",
            opt.nets()
        );
        let _ = unused_in;
        // Every surviving net is referenced: a port, a reg target, read
        // somewhere, or instance-connected.
        let p = opt;
        let mut referenced = vec![false; p.nets.len()];
        for &(id, _) in &p.ports {
            referenced[id] = true;
        }
        for r in &p.regs {
            referenced[r.target] = true;
        }
        for (t, e) in &p.assigns {
            referenced[*t] = true;
            let mut reads = Vec::new();
            e.collect_reads(&mut reads);
            for x in reads {
                referenced[x] = true;
            }
        }
        assert!(referenced.iter().all(|&x| x), "unreferenced net survived");
    }

    #[test]
    fn optimize_netlist_collects_dead_children() {
        let mut child = Module::new("live_child");
        let ci = child.input("ci", 4);
        let co = child.output("co", 4);
        child.assign(co, Expr::net(ci));
        let dead = Module::new("dead_child");
        let mut top = Module::new("t");
        let x = top.input("x", 4);
        let y = top.output("y", 4);
        top.instance("live_child", "u0", vec![("ci".into(), x), ("co".into(), y)]);
        let (out, stats) =
            optimize_netlist(&[child, dead, top], "t", &OptOptions::default());
        assert_eq!(out.len(), 2, "dead child collected");
        assert!(out.iter().all(|m| m.name() != "dead_child"));
        assert!(stats.post.nets <= stats.pre.nets);
    }

    #[test]
    fn optimization_is_deterministic() {
        let cfg = crate::fuzz::NetlistFuzzConfig::default();
        for seed in [3u64, 17, 40] {
            let (modules, top) = crate::fuzz::gen_netlist(seed, &cfg);
            let (a, sa) = optimize_netlist(&modules, &top, &OptOptions::default());
            let (b, sb) = optimize_netlist(&modules, &top, &OptOptions::default());
            assert_eq!(a, b);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn disabled_pipeline_is_identity() {
        let cfg = crate::fuzz::NetlistFuzzConfig::default();
        let (modules, top) = crate::fuzz::gen_netlist(12, &cfg);
        let (out, stats) = optimize_netlist(&modules, &top, &OptOptions::none());
        assert_eq!(out, modules);
        assert_eq!(stats.pre, stats.post);
    }

    #[test]
    fn critical_path_depth_counts_operator_levels() {
        let mut m = Module::new("d");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let mid = m.net("mid", 8);
        let y = m.output("y", 8);
        m.assign(mid, Expr::net(a).add(Expr::net(b)).resize(8));
        m.assign(y, Expr::net(mid).mul(Expr::net(a)).resize(8));
        // add (1) -> resize (0) -> mul (1) = 2 levels.
        assert_eq!(critical_path_depth(&m), 2);
        // A register breaks the path.
        let mut r = Module::new("r");
        let a = r.input("a", 8);
        let q = r.net("q", 8);
        let y = r.output("y", 8);
        r.reg(q, Expr::net(a).add(Expr::net(q)).resize(8), None, 0);
        r.assign(y, Expr::net(q).mul(Expr::net(a)).resize(8));
        assert_eq!(critical_path_depth(&r), 1);
    }
}
