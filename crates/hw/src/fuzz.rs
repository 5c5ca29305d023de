//! Seeded netlist fuzzing: a random-but-valid module generator, a
//! differential oracle over the two interpreter engines, and an automatic
//! shrinker.
//!
//! The generator draws width-respecting expression trees, registers, and
//! child instances from a [`SplitMix64`] stream, producing netlists that are
//! valid by construction (single driver per net, acyclic combinational
//! logic, width-coherent assignments). Each generated netlist then runs
//! through the oracle stack:
//!
//! 1. [`Module::validate`] on every module — the generator and the validator
//!    keep each other honest: a rejection of a generated netlist is a bug in
//!    one of them.
//! 2. Verilog emission ([`crate::verilog::emit_module`]) with a structural
//!    lint — a part-select applied to a parenthesized expression (`)[`) is
//!    illegal Verilog and exactly the class of bug the emitter's hoisting
//!    pass exists to prevent.
//! 3. [`elaborate`] as a crash oracle.
//! 4. A lock-step differential run of the tree-walking interpreter against
//!    the compiled bytecode interpreter: identical seeded stimulus every
//!    cycle, every flat net compared after every step.
//! 5. Interchange round trips ([`check_text_roundtrip`] /
//!    [`check_yosys_roundtrip`]): the textual and Yosys-JSON forms must
//!    reproduce the design exactly — structural identity, byte-identical
//!    re-emission, and byte-identical compiled bytecode.
//!
//! Any failure can be handed to [`shrink_netlist`], which greedily deletes
//! assigns, registers, instances, and ports (garbage-collecting unreferenced
//! nets and child modules) while the failure reproduces, and
//! [`rust_repro`] renders the survivor as a paste-ready regression test.
//!
//! Seed discipline: every random decision derives from the one `u64` seed,
//! so a finding is its seed — reports need carry nothing else to reproduce.

use std::cell::OnceCell;

use serde::Serialize;

use tensorlib_linalg::rng::SplitMix64;
use crate::batch::BatchSim;
use crate::interp::{elaborate, FlatDesign, Interpreter};
use crate::netlist::{BinOp, Dir, Expr, Module, NetId};
use crate::opt::{self, gc_children, gc_nets, GcPorts, OptOptions};
use crate::text::NetlistDoc;
use crate::verilog::emit_module;

/// Knobs for the random netlist generator and differential runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct NetlistFuzzConfig {
    /// Maximum top-level input ports (at least 1 is always generated).
    pub max_inputs: usize,
    /// Maximum driven (non-input) nets in the top module.
    pub max_driven: usize,
    /// Maximum expression tree depth.
    pub max_expr_depth: u32,
    /// Maximum child-module instances.
    pub max_instances: usize,
    /// Cycles each differential run steps both engines.
    pub cycles: u64,
}

impl Default for NetlistFuzzConfig {
    fn default() -> NetlistFuzzConfig {
        NetlistFuzzConfig {
            max_inputs: 3,
            max_driven: 7,
            max_expr_depth: 3,
            max_instances: 2,
            cycles: 16,
        }
    }
}

/// Which oracle a netlist sample failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum NetlistFailureKind {
    /// `Module::validate` rejected a generated (valid-by-construction)
    /// netlist.
    Validate,
    /// Elaboration of a validated netlist failed.
    Elaborate,
    /// Emitted Verilog contains an illegal construct.
    Emission,
    /// The two interpreter engines disagreed on a net value.
    Mismatch,
    /// The lane-batched engine disagreed with a scalar reference lane.
    BatchMismatch,
    /// The optimized netlist misbehaved: it failed validation, emission, or
    /// elaboration, or any engine running it diverged from the unoptimized
    /// reference on a top-level output.
    OptMismatch,
    /// The textual-netlist round trip broke: the emitted text failed to
    /// parse, the parsed document differed structurally from the original,
    /// re-emission was not byte-identical, or the compiled bytecode of the
    /// round-tripped design diverged.
    TextRoundtrip,
    /// The Yosys-JSON round trip broke (same contract as [`TextRoundtrip`]
    /// over the JSON interchange path).
    ///
    /// [`TextRoundtrip`]: NetlistFailureKind::TextRoundtrip
    YosysRoundtrip,
}

impl NetlistFailureKind {
    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            NetlistFailureKind::Validate => "validate",
            NetlistFailureKind::Elaborate => "elaborate",
            NetlistFailureKind::Emission => "emission",
            NetlistFailureKind::Mismatch => "mismatch",
            NetlistFailureKind::BatchMismatch => "batch_mismatch",
            NetlistFailureKind::OptMismatch => "opt_mismatch",
            NetlistFailureKind::TextRoundtrip => "text_roundtrip",
            NetlistFailureKind::YosysRoundtrip => "yosys_roundtrip",
        }
    }
}

/// A failed oracle check for one netlist sample.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NetlistFailure {
    /// Which oracle failed.
    pub kind: NetlistFailureKind,
    /// Human-readable specifics (net, cycle, values, error text).
    pub detail: String,
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

fn rand_width(rng: &mut SplitMix64) -> u32 {
    1 + rng.below(16) as u32
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Coerces `e` (of width `from`) to exactly `to` bits, via a seeded choice
/// of zero- or sign-extension when widths differ.
fn coerce(rng: &mut SplitMix64, e: Expr, from: u32, to: u32) -> Expr {
    if from == to {
        e
    } else if rng.below(2) == 0 {
        e.resize(to)
    } else {
        e.sext(to)
    }
}

/// Generates a random expression over `avail` (driven `(net, width)` pairs).
/// Returns the expression and its width.
fn gen_expr(rng: &mut SplitMix64, avail: &[(NetId, u32)], depth: u32) -> (Expr, u32) {
    if depth == 0 || rng.below(3) == 0 {
        // Leaf: a net read or a masked literal.
        if !avail.is_empty() && rng.below(4) != 0 {
            let (id, w) = avail[rng.below(avail.len() as u64) as usize];
            return (Expr::net(id), w);
        }
        let w = rand_width(rng);
        return (Expr::lit(rng.next_u64() & mask(w), w), w);
    }
    match rng.below(4) {
        0 => {
            let (e, w) = gen_expr(rng, avail, depth - 1);
            (Expr::Not(Box::new(e)), w)
        }
        1 => {
            // Resize / sign-extend of an arbitrary subexpression — the
            // compound-operand case the Verilog emitter must hoist.
            let (e, w) = gen_expr(rng, avail, depth - 1);
            let to = rand_width(rng);
            (coerce(rng, e, w, to), if w == to { w } else { to })
        }
        2 => {
            let (sel, sw) = gen_expr(rng, avail, depth - 1);
            let (a, aw) = gen_expr(rng, avail, depth - 1);
            let (b, bw) = gen_expr(rng, avail, depth - 1);
            let w = aw.max(bw);
            let sel = coerce(rng, sel, sw, 1);
            (
                Expr::mux(sel, coerce(rng, a, aw, w), coerce(rng, b, bw, w)),
                w,
            )
        }
        _ => {
            let op = match rng.below(8) {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::And,
                4 => BinOp::Or,
                5 => BinOp::Xor,
                6 => BinOp::Eq,
                _ => BinOp::Lt,
            };
            let (a, aw) = gen_expr(rng, avail, depth - 1);
            let (b, bw) = gen_expr(rng, avail, depth - 1);
            let w = match op {
                BinOp::Eq | BinOp::Lt => 1,
                _ => aw.max(bw),
            };
            (Expr::Bin(op, Box::new(a), Box::new(b)), w)
        }
    }
}

/// Generates a random, valid-by-construction netlist for `seed`: a top
/// module plus any child modules it instantiates. Returns the module list
/// and the top module's name.
///
/// Validity invariants the generator maintains: every net has exactly one
/// driver; combinational assigns read only nets declared (and driven)
/// earlier, so the logic is acyclic even across instance boundaries;
/// expression widths are coerced to their target's width; registers may read
/// anything (they break timing paths).
pub fn gen_netlist(seed: u64, cfg: &NetlistFuzzConfig) -> (Vec<Module>, String) {
    let mut rng = SplitMix64::new(seed);
    let top_name = format!("fz_top_{seed}");
    let mut m = Module::new(&top_name);
    let mut children: Vec<Module> = Vec::new();

    let n_in = 1 + rng.below(cfg.max_inputs.max(1) as u64) as usize;
    // Nets usable as combinational reads, in declaration (= topological)
    // order.
    let mut avail: Vec<(NetId, u32)> = Vec::new();
    for i in 0..n_in {
        let w = rand_width(&mut rng);
        avail.push((m.input(format!("in{i}"), w), w));
    }

    let n_driven = 1 + rng.below(cfg.max_driven.max(1) as u64) as usize;
    let mut inst_budget = cfg.max_instances;
    for i in 0..n_driven {
        let w = rand_width(&mut rng);
        // The last driven net is always an output so the module is
        // observable end to end.
        let is_out = i + 1 == n_driven || rng.below(3) == 0;
        let declare = |m: &mut Module| {
            if is_out {
                m.output(format!("n{i}"), w)
            } else {
                m.net(format!("n{i}"), w)
            }
        };
        match rng.below(4) {
            3 if inst_budget > 0 => {
                // Drive via a child instance: build a small combinational
                // child whose input widths match nets we already have.
                inst_budget -= 1;
                let n_cin = 1 + rng.below(2) as usize;
                let picks: Vec<(NetId, u32)> = (0..n_cin)
                    .map(|_| avail[rng.below(avail.len() as u64) as usize])
                    .collect();
                let child_name = format!("fz_child_{seed}_{}", children.len());
                let mut c = Module::new(&child_name);
                let mut c_avail = Vec::new();
                for (j, (_, cw)) in picks.iter().enumerate() {
                    c_avail.push((c.input(format!("cin{j}"), *cw), *cw));
                }
                let cout = c.output("cout", w);
                let (e, ew) = gen_expr(&mut rng, &c_avail, cfg.max_expr_depth);
                let e = coerce(&mut rng, e, ew, w);
                c.assign(cout, e);
                children.push(c);
                let id = declare(&mut m);
                let mut conns: Vec<(String, NetId)> = picks
                    .iter()
                    .enumerate()
                    .map(|(j, (pid, _))| (format!("cin{j}"), *pid))
                    .collect();
                conns.push(("cout".into(), id));
                m.instance(child_name, format!("u{i}"), conns);
                avail.push((id, w));
            }
            2 => {
                // A register: may read anything already declared, itself
                // included (accumulator feedback is legal).
                let id = declare(&mut m);
                let mut reg_avail = avail.clone();
                reg_avail.push((id, w));
                let (next, nw) = gen_expr(&mut rng, &reg_avail, cfg.max_expr_depth);
                let next = coerce(&mut rng, next, nw, w);
                let enable = if rng.below(2) == 0 {
                    let (e, ew) = gen_expr(&mut rng, &reg_avail, 1);
                    Some(coerce(&mut rng, e, ew, 1))
                } else {
                    None
                };
                let init = rng.next_u64() & mask(w);
                m.reg(id, next, enable, init);
                avail.push((id, w));
            }
            _ => {
                // A combinational assign over strictly earlier nets.
                let (e, ew) = gen_expr(&mut rng, &avail, cfg.max_expr_depth);
                let e = coerce(&mut rng, e, ew, w);
                let id = declare(&mut m);
                m.assign(id, e);
                avail.push((id, w));
            }
        }
    }

    children.push(m);
    (children, top_name)
}

// ---------------------------------------------------------------------------
// Differential oracle
// ---------------------------------------------------------------------------

/// One netlist under test, shared by every oracle that reads it. The
/// validate pass and the `)[` lint run on request; the elaboration is
/// computed at most once, when an oracle first needs it, so a seed that
/// runs all five oracles elaborates (and compiles) its reference once
/// instead of five times.
pub struct Reference<'a> {
    modules: &'a [Module],
    top: &'a str,
    elaborated: OnceCell<Result<FlatDesign, NetlistFailure>>,
}

impl<'a> Reference<'a> {
    /// Wraps `modules`; computes nothing yet.
    pub fn new(modules: &'a [Module], top: &'a str) -> Reference<'a> {
        Reference {
            modules,
            top,
            elaborated: OnceCell::new(),
        }
    }

    /// [`Module::validate`] on every module, then the `)[` emission lint.
    fn validate(&self) -> Result<(), NetlistFailure> {
        for m in self.modules {
            m.validate().map_err(|e| NetlistFailure {
                kind: NetlistFailureKind::Validate,
                detail: e.to_string(),
            })?;
        }
        match self.modules.iter().find(|m| emit_module(m).contains(")[")) {
            Some(m) => Err(NetlistFailure {
                kind: NetlistFailureKind::Emission,
                detail: format!(
                    "module {:?} emits a part-select of a compound expression",
                    m.name()
                ),
            }),
            None => Ok(()),
        }
    }

    fn elaborated(&self) -> Result<&FlatDesign, NetlistFailure> {
        self.elaborated
            .get_or_init(|| {
                let _span = tensorlib_obs::span("hw.fuzz.reference");
                elaborate(self.modules, &[], self.top).map_err(|e| NetlistFailure {
                    kind: NetlistFailureKind::Elaborate,
                    detail: e.to_string(),
                })
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The verification chain every fuzz seed runs: [`check_netlist`],
    /// [`check_batch_netlist`] at `lanes`, [`check_opt_netlist`] when `opt`
    /// is set, then both interchange round trips. Returns the first failure.
    ///
    /// # Errors
    ///
    /// The first [`NetlistFailure`] of the chain.
    pub fn check_all(
        &self,
        seed: u64,
        cycles: u64,
        lanes: usize,
        opt: bool,
    ) -> Result<(), NetlistFailure> {
        self.check_engines(seed, cycles, None)?;
        self.check_batch(seed, cycles, lanes)?;
        if opt {
            self.check_opt(seed, cycles, lanes, &OptOptions::default())?;
        }
        self.check_roundtrip(NetlistFailureKind::TextRoundtrip)?;
        self.check_roundtrip(NetlistFailureKind::YosysRoundtrip)
    }

    /// [`check_netlist`] on this reference.
    fn check_engines(
        &self,
        seed: u64,
        cycles: u64,
        perturb_input: Option<usize>,
    ) -> Result<(), NetlistFailure> {
        self.validate()?;
        let r = self.elaborated()?;
        let mut compiled = Interpreter::new(r.clone());
        let mut tree = Interpreter::new_tree_walking(r.clone());
        debug_assert!(compiled.is_compiled() && !tree.is_compiled());

        // Stimulus stream is decoupled from the structure stream so the same
        // seed always drives the same values.
        let mut rng = SplitMix64::new(seed ^ 0xD1F7_0000_0000_0001);
        for cycle in 0..cycles {
            for (i, &id) in r.inputs().iter().enumerate() {
                let name = &r.nets()[id].name;
                let v = rng.next_u64();
                compiled.poke(name, v);
                let tv = if perturb_input == Some(i) { v ^ 1 } else { v };
                tree.poke(name, tv);
            }
            compiled.step();
            tree.step();
            for net in r.nets() {
                let name = &net.name;
                let c = compiled.peek(name);
                let t = tree.peek(name);
                if c != t {
                    return Err(NetlistFailure {
                        kind: NetlistFailureKind::Mismatch,
                        detail: format!(
                            "net {name:?} diverged at cycle {cycle}: compiled={c} tree={t}"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// [`check_batch_netlist`] on this reference.
    fn check_batch(&self, seed: u64, cycles: u64, lanes: usize) -> Result<(), NetlistFailure> {
        let r = self.elaborated()?;
        let mut refs: Vec<Interpreter> = (0..lanes)
            .map(|_| Interpreter::new(r.clone()))
            .collect();
        let mut batch = BatchSim::new(r.clone(), lanes);
        let mut rngs: Vec<SplitMix64> = (0..lanes)
            .map(|l| SplitMix64::new(seed.wrapping_add(l as u64) ^ 0xD1F7_0000_0000_0001))
            .collect();
        let mut shape = SplitMix64::new(seed ^ 0xB7A0_0000_0000_0002);
        let mut vals = vec![vec![0u64; lanes]; r.inputs().len()];
        for cycle in 0..cycles {
            // Per port, a seeded choice: independent lanes, one value on every
            // lane, or that value with one lane perturbed. Rows then go
            // uniform, diverge and reconverge across cycles, so the batch's
            // once-per-row and per-lane paths both run.
            for (i, &id) in r.inputs().iter().enumerate() {
                let name = &r.nets()[id].name;
                let v0 = rngs[0].next_u64();
                let (kind, pick) = (shape.next_u64() % 3, shape.next_u64());
                for (l, row) in vals[i].iter_mut().enumerate() {
                    *row = match kind {
                        _ if l == 0 => v0,
                        0 => rngs[l].next_u64(),
                        2 if l == 1 + (pick % (lanes as u64 - 1)) as usize => rngs[l].next_u64(),
                        _ => v0,
                    };
                }
                for (s, &v) in refs.iter_mut().zip(&vals[i]) {
                    s.poke(name, v);
                }
            }
            batch.poke_lanes_many(
                r.inputs()
                    .iter()
                    .zip(&vals)
                    .map(|(&id, v)| (r.nets()[id].name.as_str(), v.as_slice())),
            );
            batch.step();
            for s in &mut refs {
                s.step();
            }
            for net in r.nets() {
                let name = &net.name;
                for (l, s) in refs.iter().enumerate() {
                    let b = batch.peek_lane(name, l);
                    let s = s.peek(name);
                    if b != s {
                        return Err(NetlistFailure {
                            kind: NetlistFailureKind::BatchMismatch,
                            detail: format!(
                                "net {name:?} diverged at cycle {cycle} lane {l}: batch={b} scalar={s}"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// [`check_opt_netlist_with`] on this reference. The optimized netlist
    /// is a [`Reference`] of its own, elaborated once for both its
    /// lock-step run and its batch re-run.
    fn check_opt(
        &self,
        seed: u64,
        cycles: u64,
        lanes: usize,
        opts: &OptOptions,
    ) -> Result<(), NetlistFailure> {
        let opt_fail = |detail: String| NetlistFailure {
            kind: NetlistFailureKind::OptMismatch,
            detail,
        };
        let opt_modules = opt::optimize(self.modules.to_vec(), self.top, opts);
        for m in &opt_modules {
            m.validate().map_err(|e| {
                opt_fail(format!(
                    "optimized module {:?} fails validation: {e}",
                    m.name()
                ))
            })?;
            if emit_module(m).contains(")[") {
                return Err(opt_fail(format!(
                    "optimized module {:?} emits a part-select of a compound expression",
                    m.name()
                )));
            }
        }
        let r = self.elaborated()?;
        let optimized = Reference::new(&opt_modules, self.top);
        let o = optimized
            .elaborated()
            .map_err(|f| opt_fail(format!("optimized netlist fails elaboration: {}", f.detail)))?;
        let mut reference = Interpreter::new(r.clone());
        let mut opt_compiled = Interpreter::new(o.clone());
        let mut opt_tree = Interpreter::new_tree_walking(o.clone());
        let mut rng = SplitMix64::new(seed ^ 0xD1F7_0000_0000_0001);
        for cycle in 0..cycles {
            for &id in r.inputs() {
                let name = &r.nets()[id].name;
                let v = rng.next_u64();
                reference.poke(name, v);
                opt_compiled.poke(name, v);
                opt_tree.poke(name, v);
            }
            reference.step();
            opt_compiled.step();
            opt_tree.step();
            for &id in r.outputs() {
                let name = &r.nets()[id].name;
                let r = reference.peek(name);
                let o = opt_compiled.peek(name);
                let t = opt_tree.peek(name);
                if o != r || t != r {
                    return Err(opt_fail(format!(
                        "output {name:?} diverged at cycle {cycle}: \
                         unoptimized={r} optimized={o} optimized_tree={t}"
                    )));
                }
            }
        }
        optimized.check_batch(seed, cycles, lanes).map_err(|f| {
            opt_fail(format!(
                "optimized netlist failed the batch oracle: {}",
                f.detail
            ))
        })
    }

    /// The two interchange round-trip oracles, picked by `kind`
    /// ([`NetlistFailureKind::TextRoundtrip`] or
    /// [`NetlistFailureKind::YosysRoundtrip`]): re-parse the emitted form,
    /// demand structural identity, byte-identical re-emission, and
    /// an identical compiled program (what [`crate::interp::bytecode_dump`]
    /// prints).
    fn check_roundtrip(&self, kind: NetlistFailureKind) -> Result<(), NetlistFailure> {
        type Parse = fn(&str) -> Result<NetlistDoc, String>;
        let (what, emit, parse): (&str, fn(&NetlistDoc) -> String, Parse) = match kind {
            NetlistFailureKind::TextRoundtrip => ("text", crate::text::emit_text, |s| {
                crate::text::parse_text(s).map_err(|e| e.to_string())
            }),
            NetlistFailureKind::YosysRoundtrip => ("yosys-json", crate::yosys::emit_yosys, |s| {
                crate::yosys::parse_yosys(s).map_err(|e| e.to_string())
            }),
            other => unreachable!("{other:?} is not a round-trip kind"),
        };
        let fail = |detail: String| NetlistFailure { kind, detail };
        let doc = NetlistDoc::from_modules(self.modules, self.top);
        let emitted = emit(&doc);
        let parsed =
            parse(&emitted).map_err(|e| fail(format!("emitted {what} does not parse: {e}")))?;
        if parsed != doc {
            return Err(fail(format!(
                "parsed {what} document is not structurally identical to the original"
            )));
        }
        if emit(&parsed) != emitted {
            return Err(fail(format!("{what} re-emission is not byte-identical")));
        }
        let reference = self.elaborated()?;
        let flat_rt = elaborate(&parsed.modules, &[], &parsed.top).map_err(|e| {
            fail(format!(
                "round-tripped {what} netlist fails elaboration: {e}"
            ))
        })?;
        if flat_rt.compiled() != reference.compiled() {
            return Err(fail(format!(
                "round-tripped {what} netlist compiles to different bytecode"
            )));
        }
        Ok(())
    }
}

/// Runs the full oracle stack on one netlist.
///
/// `perturb_input` (an index into the top module's input ports) injects an
/// artificial engine divergence: the tree-walking run sees that input's
/// low bit flipped every cycle. It exists to exercise the mismatch path and
/// the shrinker; real campaigns pass `None`.
///
/// # Errors
///
/// Returns the first [`NetlistFailure`] any oracle reports.
pub fn check_netlist(
    modules: &[Module],
    top: &str,
    seed: u64,
    cycles: u64,
    perturb_input: Option<usize>,
) -> Result<(), NetlistFailure> {
    Reference::new(modules, top).check_engines(seed, cycles, perturb_input)
}

/// Lane count [`assert_engines_agree`] uses for its built-in batched oracle:
/// wide enough to exercise real lane divergence, cheap enough for
/// per-regression-test use.
pub const DEFAULT_ORACLE_LANES: usize = 4;

/// Lane-vs-scalar differential oracle: runs one [`BatchSim`] of `lanes`
/// lanes against `lanes` independent scalar [`Interpreter`]s, each lane
/// driven by its own seeded stimulus stream (lane 0's stream is exactly the
/// scalar campaign stream for `seed`, so scalar findings reproduce on lane
/// 0). Each cycle a seeded choice per input port gives the other lanes
/// their own values, lane 0's value, or lane 0's value with one lane
/// perturbed, so lanes diverge and reconverge. Every flat net is compared
/// on every lane after every cycle.
///
/// # Errors
///
/// Returns a [`NetlistFailureKind::BatchMismatch`] failure naming the net,
/// lane, and cycle of the first divergence (or an
/// [`NetlistFailureKind::Elaborate`] failure if the netlist does not
/// elaborate).
pub fn check_batch_netlist(
    modules: &[Module],
    top: &str,
    seed: u64,
    cycles: u64,
    lanes: usize,
) -> Result<(), NetlistFailure> {
    Reference::new(modules, top).check_batch(seed, cycles, lanes)
}

/// Opt-vs-unoptimized lock-step differential oracle: runs the full
/// [`crate::opt`] pipeline over the netlist, then proves the result
/// behaviourally identical to the original.
///
/// The optimized netlist must itself pass validation, the `)[` emission
/// lint, and elaboration; then three engines run lock-step under identical
/// seeded stimulus — the compiled interpreter on the *unoptimized* flat
/// design as the reference, plus the compiled and tree-walking interpreters
/// on the optimized one — comparing every top-level output port after every
/// cycle. (Internal nets are fair game for the optimizer to collapse;
/// ports are the preserved interface.) Finally the lane-batched oracle
/// re-runs the optimized netlist across `lanes` stimulus lanes.
///
/// # Errors
///
/// Returns a [`NetlistFailureKind::OptMismatch`] failure describing the
/// first divergence, or an [`NetlistFailureKind::Elaborate`] failure if the
/// *original* netlist does not elaborate (a generator bug, not an optimizer
/// bug).
pub fn check_opt_netlist(
    modules: &[Module],
    top: &str,
    seed: u64,
    cycles: u64,
    lanes: usize,
) -> Result<(), NetlistFailure> {
    check_opt_netlist_with(modules, top, seed, cycles, lanes, &OptOptions::default())
}

/// [`check_opt_netlist`] with an explicit pass selection, so each rewrite
/// pass can be proven semantics-preserving in isolation (the per-pass
/// property tests run one pass at a time over hundreds of generator seeds).
///
/// # Errors
///
/// Same contract as [`check_opt_netlist`].
pub fn check_opt_netlist_with(
    modules: &[Module],
    top: &str,
    seed: u64,
    cycles: u64,
    lanes: usize,
    opts: &OptOptions,
) -> Result<(), NetlistFailure> {
    Reference::new(modules, top).check_opt(seed, cycles, lanes, opts)
}

/// Round-trip oracle over the textual netlist format
/// ([`crate::text::emit_text`] / [`crate::text::parse_text`]): the emitted
/// text must parse back to a structurally identical document, re-emit
/// byte-identically, and compile to byte-identical bytecode.
pub fn check_text_roundtrip(modules: &[Module], top: &str) -> Result<(), NetlistFailure> {
    Reference::new(modules, top).check_roundtrip(NetlistFailureKind::TextRoundtrip)
}

/// Round-trip oracle over the Yosys-JSON interchange format
/// ([`crate::yosys::emit_yosys`] / [`crate::yosys::parse_yosys`]): same
/// contract as [`check_text_roundtrip`].
pub fn check_yosys_roundtrip(modules: &[Module], top: &str) -> Result<(), NetlistFailure> {
    Reference::new(modules, top).check_roundtrip(NetlistFailureKind::YosysRoundtrip)
}

/// Panics if the two scalar interpreter engines (or any crash oracle)
/// disagree on this netlist, if the lane-batched engine diverges from a
/// scalar reference on any flat net on any of [`DEFAULT_ORACLE_LANES`]
/// stimulus lanes in any cycle, if the optimization pipeline changes any
/// observable output ([`check_opt_netlist`]), or if either interchange
/// round trip ([`check_text_roundtrip`] / [`check_yosys_roundtrip`]) fails
/// to reproduce the design exactly. Convenience wrapper used by committed
/// regression tests.
pub fn assert_engines_agree(modules: &[Module], top: &str, seed: u64, cycles: u64) {
    if let Err(f) = Reference::new(modules, top).check_all(seed, cycles, DEFAULT_ORACLE_LANES, true)
    {
        panic!("{}: {}", f.kind.label(), f.detail);
    }
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

// The dead-net / dead-child GC lives in `crate::opt` — the optimizer's GC
// pass and the shrinker share one implementation (the shrinker runs it in
// `GcPorts::PruneUnreadInputs` mode, which additionally drops input ports
// nothing reads).

/// Greedily minimizes a failing netlist: one by one, tries deleting each
/// assign, register, instance, and output port of every module (garbage
/// collecting unreferenced nets and child modules after each deletion) and
/// keeps any deletion under which `still_fails` holds. Loops to a fixpoint.
///
/// `still_fails` should reproduce the *same* failure (same oracle), not just
/// any failure — the campaign driver pins the original failure kind.
pub fn shrink_netlist<F>(modules: &[Module], top: &str, still_fails: F) -> (Vec<Module>, String)
where
    F: Fn(&[Module], &str) -> bool,
{
    let mut modules = modules.to_vec();
    loop {
        let mut improved = false;
        'outer: for mi in 0..modules.len() {
            let n_assigns = modules[mi].assigns.len();
            let n_regs = modules[mi].regs.len();
            let n_insts = modules[mi].instances.len();
            let n_ports = modules[mi].ports.len();
            // Candidate deletions, coarsest first: instances, regs, assigns,
            // then output ports.
            for k in 0..(n_insts + n_regs + n_assigns + n_ports) {
                let mut cand = modules.clone();
                if k < n_insts {
                    cand[mi].instances.remove(k);
                } else if k < n_insts + n_regs {
                    cand[mi].regs.remove(k - n_insts);
                } else if k < n_insts + n_regs + n_assigns {
                    cand[mi].assigns.remove(k - n_insts - n_regs);
                } else {
                    let pi = k - n_insts - n_regs - n_assigns;
                    if cand[mi].ports[pi].1 != Dir::Output {
                        continue;
                    }
                    // Deleting an output port also deletes its driver,
                    // otherwise the gc keeps the net alive via the driver.
                    let net = cand[mi].ports[pi].0;
                    cand[mi].ports.remove(pi);
                    cand[mi].assigns.retain(|(t, _)| *t != net);
                    cand[mi].regs.retain(|r| r.target != net);
                    cand[mi]
                        .instances
                        .retain(|i| i.connections.iter().all(|(_, n)| *n != net));
                }
                for p in &mut cand {
                    gc_nets(p, GcPorts::PruneUnreadInputs);
                }
                gc_children(&mut cand, top);
                if still_fails(&cand, top) {
                    modules = cand;
                    improved = true;
                    break 'outer;
                }
            }
        }
        if !improved {
            break;
        }
    }
    (modules, top.to_string())
}

// ---------------------------------------------------------------------------
// Repro emission
// ---------------------------------------------------------------------------

fn expr_code(e: &Expr) -> String {
    match e {
        Expr::Const { value, width } => format!("Expr::lit({value}, {width})"),
        Expr::Net(id) => format!("Expr::net({id})"),
        Expr::Not(x) => format!("Expr::Not(Box::new({}))", expr_code(x)),
        Expr::Bin(op, a, b) => format!(
            "Expr::Bin(BinOp::{op:?}, Box::new({}), Box::new({}))",
            expr_code(a),
            expr_code(b)
        ),
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => format!(
            "Expr::mux({}, {}, {})",
            expr_code(sel),
            expr_code(on_true),
            expr_code(on_false)
        ),
        Expr::Resize(x, w) => format!("{}.resize({w})", expr_code(x)),
        Expr::SignExtend(x, w) => format!("{}.sext({w})", expr_code(x)),
    }
}

/// Renders a netlist as a paste-ready Rust regression test that rebuilds the
/// modules through the public builder API and asserts engine agreement.
pub fn rust_repro(modules: &[Module], top: &str, seed: u64, cycles: u64) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "#[test]");
    let _ = writeln!(s, "fn fuzz_regression_seed_{seed}() {{");
    let _ = writeln!(
        s,
        "    use tensorlib_hw::netlist::{{BinOp, Expr, Module}};"
    );
    let _ = writeln!(s, "    #[allow(unused_imports)] use std::boxed::Box;");
    for (i, m) in modules.iter().enumerate() {
        let _ = writeln!(s, "    let mut m{i} = Module::new({:?});", m.name());
        for (id, net) in m.nets().iter().enumerate() {
            let ctor = match m.port_dir(&net.name) {
                Some(Dir::Input) => "input",
                Some(Dir::Output) => "output",
                None => "net",
            };
            let _ = writeln!(
                s,
                "    let _n{id} = m{i}.{ctor}({:?}, {});",
                net.name, net.width
            );
        }
        for (target, expr) in m.assigns() {
            let _ = writeln!(s, "    m{i}.assign({target}, {});", expr_code(expr));
        }
        for r in m.regs() {
            let en = match &r.enable {
                Some(e) => format!("Some({})", expr_code(e)),
                None => "None".to_string(),
            };
            let _ = writeln!(
                s,
                "    m{i}.reg({}, {}, {en}, {});",
                r.target,
                expr_code(&r.next),
                r.init
            );
        }
        for inst in m.instances() {
            let conns: Vec<String> = inst
                .connections
                .iter()
                .map(|(p, n)| format!("({:?}.into(), {n})", p))
                .collect();
            let _ = writeln!(
                s,
                "    m{i}.instance({:?}, {:?}, vec![{}]);",
                inst.module,
                inst.name,
                conns.join(", ")
            );
        }
    }
    let list: Vec<String> = (0..modules.len()).map(|i| format!("m{i}")).collect();
    let _ = writeln!(
        s,
        "    tensorlib_hw::fuzz::assert_engines_agree(&[{}], {top:?}, {seed}, {cycles});",
        list.join(", ")
    );
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_netlists_are_valid_and_engines_agree() {
        let cfg = NetlistFuzzConfig::default();
        for seed in 0..50 {
            let (modules, top) = gen_netlist(seed, &cfg);
            check_netlist(&modules, &top, seed, cfg.cycles, None)
                .unwrap_or_else(|f| panic!("seed {seed}: {}: {}", f.kind.label(), f.detail));
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let cfg = NetlistFuzzConfig::default();
        let (a, ta) = gen_netlist(42, &cfg);
        let (b, tb) = gen_netlist(42, &cfg);
        assert_eq!(ta, tb);
        assert_eq!(a, b);
        let (c, _) = gen_netlist(43, &cfg);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn perturbed_engine_is_detected_and_shrinks_small() {
        let cfg = NetlistFuzzConfig::default();
        // Find a seed whose sample actually propagates input 0 to an
        // observable net (most do).
        let mut hit = None;
        for seed in 0..64 {
            let (modules, top) = gen_netlist(seed, &cfg);
            if let Err(f) = check_netlist(&modules, &top, seed, cfg.cycles, Some(0)) {
                assert_eq!(f.kind, NetlistFailureKind::Mismatch);
                hit = Some((seed, modules, top));
                break;
            }
        }
        let (seed, modules, top) = hit.expect("some seed must expose the injected fault");
        let (shrunk, stop) = shrink_netlist(&modules, &top, |mods, t| {
            matches!(
                check_netlist(mods, t, seed, cfg.cycles, Some(0)),
                Err(NetlistFailure {
                    kind: NetlistFailureKind::Mismatch,
                    ..
                })
            )
        });
        // Still failing, and small: the acceptance bar is ≤ 10 nets.
        assert!(check_netlist(&shrunk, &stop, seed, cfg.cycles, Some(0)).is_err());
        let total_nets: usize = shrunk.iter().map(|m| m.nets().len()).sum();
        assert!(
            total_nets <= 10,
            "shrunk repro still has {total_nets} nets across {} modules",
            shrunk.len()
        );
    }

    #[test]
    fn rust_repro_snippet_mentions_every_module() {
        let cfg = NetlistFuzzConfig::default();
        let (modules, top) = gen_netlist(7, &cfg);
        let snippet = rust_repro(&modules, &top, 7, cfg.cycles);
        assert!(snippet.contains("fn fuzz_regression_seed_7()"));
        assert!(snippet.contains("assert_engines_agree"));
        for m in &modules {
            assert!(snippet.contains(&format!("Module::new({:?})", m.name())));
        }
    }
}
