//! Lane-batched simulation: N independent runs of one [`FlatDesign`] per
//! pass over one lane program.
//!
//! [`BatchSim`] runs the scalar [`Interpreter`]'s compiled instruction
//! streams, but every net value, register, bank address, and bank word is a
//! *lane vector*: a struct-of-arrays row of `lanes` u64 values, one per
//! independent simulation.
//!
//! The shared [`Compiled`] settle and register streams are rewritten once
//! per batch into a register-form *lane program*. Its operands are value
//! rows (nets, staged register samples, constants, then a few temporaries),
//! so loads and constants are row references rather than copies, and each
//! op writes one row. Bank words, their parity bits, the bank addresses,
//! read latches and parity counters are rows of the same store.
//!
//! Most rows of a fault campaign hold the same value on every lane, so a
//! row whose lanes agree is stored once, as a scalar (see `RowState`). An
//! op whose operands are all uniform computes one scalar and stores only
//! that; any other op runs a straight-line lane loop and then checks
//! whether its result came out uniform (a TMR voter reconverges a faulty
//! lane, for instance). A uniform row's lanes are written out
//! (*materialized*) only when something needs them: a lane-loop operand, a
//! write to one lane, or a whole-row [`BatchSim::read`]. Lane reads go
//! through the state, so they never materialize.
//!
//! Per-lane divergence is the point of the engine:
//!
//! - [`BatchSim::attach_lane_faults`] attaches a *different* fault set to
//!   each lane, so one pass retires up to `lanes` fault-campaign sites.
//! - [`BatchSim::poke_lanes`] / [`BatchSim::load_bank_lane`] drive each lane
//!   with its own stimulus, so fuzz and measured-stats campaigns evaluate
//!   `lanes` seeds at once.
//!
//! [`BatchSim::load_state`] loads a scalar run's [`Snapshot`] onto every
//! lane (as scalars, one per row), so one compiled batch can be reused and
//! can start mid-run: fault campaigns fork each lane group from the golden
//! run.
//!
//! **Determinism contract:** lane `l` of a batched run is bit-identical —
//! every net, every cycle, every bank word, every parity counter — to a
//! scalar [`Interpreter`] run given the same initial state, stimulus, and
//! fault set. The engine lowers the one compiled program the design shares
//! with every scalar engine over it, resolves faults through the scalar
//! path's code, and keeps its masking rules and commit ordering; the fuzz
//! oracle (`crate::fuzz::check_batch_netlist`) re-proves the contract over
//! random netlists on every campaign. Batched
//! campaign reports are therefore byte-identical to scalar ones for any
//! lane width.
//!
//! The batch engine carries no observability layer (attach a trace to a
//! scalar interpreter for waveforms) and always runs compiled.

use crate::array::HwError;
use crate::fault::{BankWordFlip, FaultSpec, RegHold, SlotFlip, StuckForce};
use crate::interp::{
    mask, resolve_fault_spec, sign_extend, width_mask, Compiled, FlatDesign, Instr, Interpreter,
    ResolvedFault, Snapshot,
};
use crate::mem::next_addr;
use crate::netlist::BinOp;

/// A stuck-at force scoped to one lane.
#[derive(Debug, Clone, Copy)]
struct LaneStuck {
    lane: u32,
    force: StuckForce,
}

/// A register-bit flip scoped to one lane.
#[derive(Debug, Clone, Copy)]
struct LaneFlip {
    lane: u32,
    flip: SlotFlip,
}

/// A bank-word flip scoped to one lane.
#[derive(Debug, Clone, Copy)]
struct LaneBankFlip {
    lane: u32,
    flip: BankWordFlip,
}

/// A dropped register transition scoped to one lane.
#[derive(Debug, Clone, Copy)]
struct LaneHold {
    lane: u32,
    hold: RegHold,
}

/// Per-lane fault state. Mirrors [`crate::fault::FaultState`] with every
/// entry tagged by its lane; the cycle counter is shared (all lanes attach
/// at the same instant).
#[derive(Debug, Default)]
struct BatchFaultState {
    /// Sorted by slot (stably, so one lane's forces on a slot keep their
    /// attach order).
    stuck: Vec<LaneStuck>,
    /// Per row: some lane forces it. Empty when no stuck-at is attached.
    forced: Vec<bool>,
    flips: Vec<LaneFlip>,
    bank_flips: Vec<LaneBankFlip>,
    holds: Vec<LaneHold>,
    cycle: u64,
}

/// A net resolved once for repeated lane reads ([`BatchSim::probe`]): its
/// alias-resolved value slot and declared width.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    slot: usize,
    width: u32,
}

/// What a lane-program op computes from its operand rows `a`, `b` and `c`.
/// Masks fold in the mask of the store the op feeds, if any, so the scalar
/// engine's `Store` needs no op of its own.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `!a & mask`.
    Not { mask: u64 },
    /// `(a op b) & mask`. Arithmetic carries the operator's width mask;
    /// the logical and compare operators, which the scalar `bin_eval` never
    /// masks, start from all ones.
    Bin { op: BinOp, mask: u64 },
    /// `if a & 1 == 1 { b & t_mask } else { c & f_mask }`. A register
    /// sample is this mux of its enable, next value and current value.
    Mux { t_mask: u64, f_mask: u64 },
    /// `a & mask`: a resize, a wire copy, or a constant store.
    Mask { mask: u64 },
    /// Sign extension, parameters as in [`Instr::SignExt`].
    SignExt {
        from_mask: u64,
        sign_bit: u64,
        ext_bits: u64,
        to_mask: u64,
    },
}

impl Kind {
    /// ANDs `m` into every result this op can produce.
    fn mask_result(&mut self, m: u64) {
        match self {
            Kind::Not { mask } | Kind::Bin { mask, .. } | Kind::Mask { mask } => *mask &= m,
            Kind::Mux { t_mask, f_mask } => {
                *t_mask &= m;
                *f_mask &= m;
            }
            Kind::SignExt { to_mask, .. } => *to_mask &= m,
        }
    }
}

/// One op of the lane program: `dst = kind(a, b, c)` over value rows. An
/// op with fewer operands repeats `a` in the unused slots, so "all operands
/// uniform" is always the same three-flag test. `dst` is never an operand.
#[derive(Debug, Clone, Copy)]
struct LaneOp {
    kind: Kind,
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
}

/// The shared [`Compiled`] streams rewritten over value rows: nets, then one
/// staged-sample row per register, then one row per distinct constant, then
/// the temporaries.
#[derive(Debug)]
struct LaneProgram {
    settle: Vec<LaneOp>,
    sample: Vec<LaneOp>,
    /// Row of register 0's staged sample; register `r`'s is `staged + r`.
    staged: usize,
    /// Constant rows start here, one per entry of `consts` (ascending).
    const_base: usize,
    consts: Vec<u64>,
    /// The program's row count (the temporaries come last); a batch puts
    /// its bank rows after them.
    rows: usize,
}

/// Rewrites one postfix stream into register-form ops. The operand stack
/// holds row numbers; every op takes a free temporary row for its result
/// before its operands' temporaries are freed, so `dst` never aliases an
/// operand.
struct Lowering<'a> {
    consts: &'a [u64],
    const_base: u32,
    temp_base: u32,
    temps: u32,
    free: Vec<u32>,
    stack: Vec<u32>,
    ops: Vec<LaneOp>,
}

impl Lowering<'_> {
    fn pop(&mut self) -> u32 {
        self.stack.pop().expect("postfix operand")
    }

    fn const_row(&self, v: u64) -> u32 {
        let i = self.consts.binary_search(&v).expect("constant collected");
        self.const_base + i as u32
    }

    /// Returns `row` to the temporary pool if it is a temporary.
    fn release(&mut self, row: u32) {
        if row >= self.temp_base {
            self.free.push(row);
        }
    }

    /// Emits `kind` over the popped operands `srcs[..n]` into `dst`, or into
    /// a fresh temporary pushed as the result when `dst` is `None`.
    fn emit(&mut self, kind: Kind, srcs: [u32; 3], n: usize, dst: Option<u32>) {
        let dst = dst.unwrap_or_else(|| {
            let t = self.free.pop().unwrap_or_else(|| {
                self.temps += 1;
                self.temp_base + self.temps - 1
            });
            self.stack.push(t);
            t
        });
        assert!(!srcs.contains(&dst), "an op never writes its own operand");
        for &s in &srcs[..n] {
            self.release(s);
        }
        let [a, b, c] = srcs;
        self.ops.push(LaneOp { kind, dst, a, b, c });
    }

    fn unary(&mut self, kind: Kind) {
        let a = self.pop();
        self.emit(kind, [a, a, a], 1, None);
    }

    fn bin(&mut self, op: BinOp, mask: u64) {
        let b = self.pop();
        let a = self.pop();
        let mask = match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => mask,
            _ => u64::MAX,
        };
        self.emit(Kind::Bin { op, mask }, [a, b, a], 2, None);
    }

    fn mux(&mut self) {
        let f = self.pop();
        let t = self.pop();
        let sel = self.pop();
        let kind = Kind::Mux {
            t_mask: u64::MAX,
            f_mask: u64::MAX,
        };
        self.emit(kind, [sel, t, f], 3, None);
    }

    /// A store of the top operand into `net`: the op that computed it writes
    /// the net directly, or, for a bare row reference, a masked copy.
    fn store(&mut self, net: u32, mask: u64) {
        let top = self.pop();
        match self.ops.last_mut() {
            Some(op) if op.dst == top && top >= self.temp_base => {
                assert!(![op.a, op.b, op.c].contains(&net), "a net never feeds itself");
                op.dst = net;
                op.kind.mask_result(mask);
                self.release(top);
            }
            _ => self.emit(Kind::Mask { mask }, [top; 3], 1, Some(net)),
        }
    }

    /// A register sample into its staged row: `next` masked, or, with an
    /// enable `Some((en, target))`, a mux of that and `target`'s current
    /// value.
    fn sample(&mut self, staged: u32, next: u32, mask: u64, en: Option<(u32, u32)>) {
        match en {
            Some((en, target)) => {
                let kind = Kind::Mux {
                    t_mask: mask,
                    f_mask: u64::MAX,
                };
                self.emit(kind, [en, next, target], 2, Some(staged));
            }
            None => self.emit(Kind::Mask { mask }, [next; 3], 1, Some(staged)),
        }
    }

    /// Lowers one stream. Register samples (the register stream only) go to
    /// consecutive staged rows from `staged`, in `FlatDesign::regs` order.
    fn stream(&mut self, code: &[Instr], staged: u32) -> Vec<LaneOp> {
        let mut reg = staged;
        for ins in code {
            match *ins {
                Instr::Const(v) => {
                    let row = self.const_row(v);
                    self.stack.push(row);
                }
                Instr::Load(n) => self.stack.push(n),
                Instr::Not { mask } => self.unary(Kind::Not { mask }),
                Instr::Bin { op, mask } => self.bin(op, mask),
                Instr::Mux => self.mux(),
                Instr::Resize { mask } => self.unary(Kind::Mask { mask }),
                Instr::SignExt {
                    from_mask,
                    sign_bit,
                    ext_bits,
                    to_mask,
                } => self.unary(Kind::SignExt {
                    from_mask,
                    sign_bit,
                    ext_bits,
                    to_mask,
                }),
                Instr::Store { net, mask } => self.store(net, mask),
                Instr::Copy { src, dst, mask } => {
                    self.stack.push(src);
                    self.store(dst, mask);
                }
                Instr::StoreConst { dst, value } => {
                    let row = self.const_row(value);
                    self.stack.push(row);
                    self.store(dst, u64::MAX);
                }
                Instr::SampleReg { mask, target } => {
                    let next = self.pop();
                    let en = self.pop();
                    self.sample(reg, next, mask, Some((en, target)));
                    reg += 1;
                }
                Instr::SampleRegAlways { mask } => {
                    let next = self.pop();
                    self.sample(reg, next, mask, None);
                    reg += 1;
                }
                Instr::Bin2 { op, a, b, mask } => {
                    self.stack.extend([a, b]);
                    self.bin(op, mask);
                }
                Instr::LoadSext {
                    net,
                    from_mask,
                    sign_bit,
                    ext_bits,
                    to_mask,
                } => {
                    self.stack.push(net);
                    self.unary(Kind::SignExt {
                        from_mask,
                        sign_bit,
                        ext_bits,
                        to_mask,
                    });
                }
                Instr::LoadMasked { net, mask } => {
                    self.stack.push(net);
                    self.unary(Kind::Mask { mask });
                }
                Instr::NotNet { net, mask } => {
                    self.stack.push(net);
                    self.unary(Kind::Not { mask });
                }
                Instr::Mux3 { sel, t, f } => {
                    self.stack.extend([sel, t, f]);
                    self.mux();
                }
                Instr::SampleRegNets {
                    en,
                    next,
                    mask,
                    target,
                } => {
                    self.sample(reg, next, mask, Some((en, target)));
                    reg += 1;
                }
                Instr::SampleRegAlwaysNet { net, mask } => {
                    self.sample(reg, net, mask, None);
                    reg += 1;
                }
            }
        }
        assert!(self.stack.is_empty(), "stream leaves no operands");
        std::mem::take(&mut self.ops)
    }
}

impl LaneProgram {
    fn lower(compiled: &Compiled, nets: usize) -> LaneProgram {
        let staged = nets;
        let const_base = staged + compiled.reg_targets.len();
        let code = || compiled.settle_code.iter().chain(&compiled.reg_code);
        let mut consts: Vec<u64> = code()
            .filter_map(|ins| match *ins {
                Instr::Const(v) | Instr::StoreConst { value: v, .. } => Some(v),
                _ => None,
            })
            .collect();
        consts.sort_unstable();
        consts.dedup();
        let row = |r: usize| u32::try_from(r).expect("row count fits u32");
        let mut lowering = Lowering {
            consts: &consts,
            const_base: row(const_base),
            temp_base: row(const_base + consts.len()),
            temps: 0,
            free: Vec::new(),
            stack: Vec::new(),
            ops: Vec::new(),
        };
        let settle = lowering.stream(&compiled.settle_code, row(staged));
        let sample = lowering.stream(&compiled.reg_code, row(staged));
        let rows = const_base + consts.len() + lowering.temps as usize;
        LaneProgram {
            settle,
            sample,
            staged,
            const_base,
            consts,
            rows,
        }
    }
}

/// `true` if every lane of `row` holds the same value.
fn is_uniform(row: &[u64]) -> bool {
    row.iter().all(|&v| v == row[0])
}

/// Row `r`'s lane words in `values` (rows of `lanes` words), and a reader
/// of every other row's.
fn split<'a>(
    values: &'a mut [u64],
    lanes: usize,
    r: usize,
) -> (&'a mut [u64], impl Fn(usize) -> &'a [u64]) {
    let (lo, rest) = values.split_at_mut(r * lanes);
    let (row, hi) = rest.split_at_mut(lanes);
    let (lo, hi) = (&*lo, &*hi);
    let other = move |o: usize| {
        if o < r {
            &lo[o * lanes..(o + 1) * lanes]
        } else {
            &hi[(o - r - 1) * lanes..(o - r) * lanes]
        }
    };
    (row, other)
}

/// Where a row's value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowState {
    /// The lanes may differ: the lane words are the value.
    Lanes,
    /// Every lane holds the row's scalar, and so do its lane words.
    Uniform,
    /// Every lane holds the row's scalar, but its lane words are out of
    /// date: they are written (materialized) when lanes are first needed.
    Stale,
}

/// Work the lane engine did since construction or the last
/// [`BatchSim::take_op_counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCounts {
    /// Lane-program ops computed once, every operand row being uniform.
    pub uniform_ops: u64,
    /// Lane-program ops run across every lane.
    pub lane_ops: u64,
    /// Uniform rows written out to every lane because lanes were needed.
    pub materialized: u64,
}

/// Lane-major value rows, each stored once, as a scalar, while its lanes
/// agree.
///
/// Invariant: a row that is not [`RowState::Lanes`] holds `scalar[r]` on
/// every lane, and a [`RowState::Uniform`] row's lane words hold it too.
/// Every writer keeps it: a uniform write stores the scalar and marks the
/// row stale; a write of some lanes materializes the row first. Lane reads
/// go through the state, and a lane loop materializes its operands. Calling
/// a row of lanes that happen to agree [`RowState::Lanes`] is always safe,
/// only slower.
#[derive(Debug)]
struct Rows {
    lanes: usize,
    /// Row `r`'s lane `l` lives at `values[r * lanes + l]`.
    values: Vec<u64>,
    /// Row `r`'s value on every lane, unless it is [`RowState::Lanes`].
    scalar: Vec<u64>,
    state: Vec<RowState>,
    counts: BatchCounts,
}

impl Rows {
    /// `rows` rows of `lanes` lanes, all zero.
    fn new(rows: usize, lanes: usize) -> Rows {
        Rows {
            lanes,
            values: vec![0; rows * lanes],
            scalar: vec![0; rows],
            state: vec![RowState::Uniform; rows],
            counts: BatchCounts::default(),
        }
    }

    /// `true` if every lane of row `r` holds `scalar[r]`.
    fn uniform(&self, r: usize) -> bool {
        self.state[r] != RowState::Lanes
    }

    /// Row `r`'s lane words (out of date if the row is stale).
    fn row(&self, r: usize) -> &[u64] {
        &self.values[r * self.lanes..(r + 1) * self.lanes]
    }

    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.values[r * self.lanes..(r + 1) * self.lanes]
    }

    /// Row `r` on lane `l`.
    fn get(&self, r: usize, l: usize) -> u64 {
        if self.uniform(r) {
            self.scalar[r]
        } else {
            self.values[r * self.lanes + l]
        }
    }

    /// Writes a stale row's scalar out to its lanes.
    fn materialize(&mut self, r: usize) {
        if self.state[r] == RowState::Stale {
            let v = self.scalar[r];
            self.row_mut(r).fill(v);
            self.state[r] = RowState::Uniform;
            self.counts.materialized += 1;
        }
    }

    /// Sets every lane of row `r` to `v`: one word, and none if the row
    /// already holds `v` everywhere.
    fn fill(&mut self, r: usize, v: u64) {
        if !(self.uniform(r) && self.scalar[r] == v) {
            self.scalar[r] = v;
            self.state[r] = RowState::Stale;
        }
    }

    /// Stores `values` as the stale scalars of the rows from `first` on,
    /// also where a row holds its value already, so that afterwards the
    /// rows' states do not depend on what ran before.
    fn load(&mut self, first: usize, values: impl IntoIterator<Item = u64>) {
        for (r, v) in (first..).zip(values) {
            self.scalar[r] = v;
            self.state[r] = RowState::Stale;
        }
    }

    /// Writes `f(lane)` to every lane of row `r`.
    fn set_lanes(&mut self, r: usize, f: impl Fn(usize) -> u64) {
        for (l, v) in self.row_mut(r).iter_mut().enumerate() {
            *v = f(l);
        }
        self.state[r] = RowState::Lanes;
    }

    /// Writes `v` to lane `l` of row `r`.
    fn set_lane(&mut self, r: usize, l: usize, v: u64) {
        if self.uniform(r) {
            if self.scalar[r] == v {
                return;
            }
            self.materialize(r);
            self.state[r] = RowState::Lanes;
        }
        self.values[r * self.lanes + l] = v;
    }

    /// Flips the bits `xor` of row `r` on lane `l`.
    fn xor_lane(&mut self, r: usize, l: usize, xor: u64) {
        let v = self.get(r, l) ^ xor;
        self.set_lane(r, l, v);
    }

    /// Applies `f` to row `r` on every lane.
    fn map(&mut self, r: usize, f: impl Fn(u64) -> u64) {
        if self.uniform(r) {
            self.fill(r, f(self.scalar[r]));
        } else {
            for v in self.row_mut(r) {
                *v = f(*v);
            }
        }
    }

    /// `dst = f(src)` on every lane; `src` and `dst` are different rows.
    fn copy_map(&mut self, src: usize, dst: usize, f: impl Fn(u64) -> u64) {
        if self.uniform(src) {
            self.fill(dst, f(self.scalar[src]));
            return;
        }
        let (to, other) = split(&mut self.values, self.lanes, dst);
        for (d, &s) in to.iter_mut().zip(other(src)) {
            *d = f(s);
        }
        self.state[dst] = RowState::Lanes;
    }

    /// Marks row `r` uniform again if its lanes agree.
    fn recheck(&mut self, r: usize) {
        if !self.uniform(r) && is_uniform(self.row(r)) {
            self.scalar[r] = self.values[r * self.lanes];
            self.state[r] = RowState::Uniform;
        }
    }

    /// Applies lane-scoped stuck-at forces, sorted by slot, re-checking
    /// each row a force changed.
    fn force(&mut self, forced: &[LaneStuck]) {
        for on_row in forced.chunk_by(|x, y| x.force.slot == y.force.slot) {
            let r = on_row[0].force.slot as usize;
            let mut changed = false;
            for s in on_row {
                let l = s.lane as usize;
                let v = self.get(r, l);
                let forced = (v | s.force.or_mask) & s.force.and_mask;
                if forced != v {
                    self.set_lane(r, l, forced);
                    changed = true;
                }
            }
            if changed {
                self.recheck(r);
            }
        }
    }

    /// Adds one to row `errors` on each lane where word row `word` no
    /// longer matches its parity bit row `bit`.
    fn check_parity(&mut self, word: usize, bit: usize, errors: usize) {
        if self.uniform(word) && self.uniform(bit) {
            if parity(self.scalar[word]) != self.scalar[bit] {
                self.map(errors, |e| e + 1);
            }
            return;
        }
        for l in 0..self.lanes {
            let mismatch = parity(self.get(word, l)) != self.get(bit, l);
            let e = self.get(errors, l) + u64::from(mismatch);
            self.set_lane(errors, l, e);
        }
    }

    /// Runs one op: once if its operands are uniform, else across lanes.
    fn exec(&mut self, op: &LaneOp) {
        match op.kind {
            Kind::Not { mask } => self.apply(op, |a, _, _| !a & mask),
            Kind::Bin { op: bin, mask } => match bin {
                BinOp::Add => self.apply(op, |a, b, _| a.wrapping_add(b) & mask),
                BinOp::Sub => self.apply(op, |a, b, _| a.wrapping_sub(b) & mask),
                BinOp::Mul => self.apply(op, |a, b, _| a.wrapping_mul(b) & mask),
                BinOp::And => self.apply(op, |a, b, _| a & b & mask),
                BinOp::Or => self.apply(op, |a, b, _| (a | b) & mask),
                BinOp::Xor => self.apply(op, |a, b, _| (a ^ b) & mask),
                BinOp::Eq => self.apply(op, |a, b, _| u64::from(a == b) & mask),
                BinOp::Lt => self.apply(op, |a, b, _| u64::from(a < b) & mask),
            },
            // A uniform select picks one whole row: a masked copy.
            Kind::Mux { t_mask, f_mask } if self.uniform(op.a as usize) => {
                let (src, mask) = if self.scalar[op.a as usize] & 1 == 1 {
                    (op.b, t_mask)
                } else {
                    (op.c, f_mask)
                };
                let copy = LaneOp {
                    a: src,
                    b: src,
                    c: src,
                    ..*op
                };
                self.apply(&copy, |v, _, _| v & mask);
            }
            Kind::Mux { t_mask, f_mask } => self.apply(op, |s, t, f| {
                let m = (s & 1).wrapping_neg();
                (t & t_mask & m) | (f & f_mask & !m)
            }),
            Kind::Mask { mask } => self.apply(op, |a, _, _| a & mask),
            Kind::SignExt {
                from_mask,
                sign_bit,
                ext_bits,
                to_mask,
            } => self.apply(op, |a, _, _| {
                let v = a & from_mask;
                let m = u64::from(v & sign_bit != 0).wrapping_neg();
                (v | (ext_bits & m)) & to_mask
            }),
        }
    }

    /// `dst = f(a, b, c)`: one scalar when every operand row is uniform,
    /// otherwise a lane loop over materialized operand rows whose result
    /// is checked for uniformity again.
    #[inline(always)]
    fn apply(&mut self, op: &LaneOp, f: impl Fn(u64, u64, u64) -> u64) {
        let (d, a, b, c) = (op.dst as usize, op.a as usize, op.b as usize, op.c as usize);
        if self.uniform(a) && self.uniform(b) && self.uniform(c) {
            self.counts.uniform_ops += 1;
            let v = f(self.scalar[a], self.scalar[b], self.scalar[c]);
            self.fill(d, v);
            return;
        }
        self.counts.lane_ops += 1;
        for r in [a, b, c] {
            self.materialize(r);
        }
        // `dst` is never an operand, so `split` reaches every operand row.
        let (dst, other) = split(&mut self.values, self.lanes, d);
        let (a, b, c) = (other(a), other(b), other(c));
        let first = f(a[0], b[0], c[0]);
        let mut diff = 0;
        for (((x, &a), &b), &c) in dst.iter_mut().zip(a).zip(b).zip(c) {
            *x = f(a, b, c);
            diff |= *x ^ first;
        }
        self.scalar[d] = first;
        self.state[d] = if diff == 0 {
            RowState::Uniform
        } else {
            RowState::Lanes
        };
    }
}

/// The parity bit stored for a bank word.
fn parity(word: u64) -> u64 {
    u64::from(word.count_ones() & 1)
}

/// One bank's rows in the [`Rows`] store.
#[derive(Debug, Clone, Copy)]
struct BankRows {
    /// The sequential read and write addresses.
    raddr: usize,
    waddr: usize,
    /// The latched read data.
    rdata: usize,
    /// The sticky parity-mismatch counter.
    errors: usize,
    /// Word `w`, counted across both buffers of a double-buffered bank, is
    /// row `mem + w`.
    mem: usize,
    /// Its parity bit is row `parity + w`, if the bank has parity.
    parity: Option<usize>,
    /// Words per buffer.
    words: u64,
    double_buffered: bool,
}

impl BankRows {
    /// Words across both buffers.
    fn capacity(&self) -> usize {
        let buffers = if self.double_buffered { 2 } else { 1 };
        (self.words * buffers) as usize
    }

    /// The word row a port at `addr` touches in buffer `buf` (ignored for
    /// a single-buffered bank), and the port's next address.
    fn word(&self, buf: u64, addr: u64) -> (usize, u64) {
        let (word, next) = next_addr(addr, self.words);
        let base = if self.double_buffered {
            buf * self.words
        } else {
            0
        };
        (self.mem + (base + word) as usize, next)
    }

    /// The parity bit row of word row `at`, if the bank has parity.
    fn parity_of(&self, at: usize) -> Option<usize> {
        self.parity.map(|p| p + (at - self.mem))
    }
}

/// Lane-batched interpreter over a [`FlatDesign`]. See the module docs for
/// the lane layout and determinism contract.
#[derive(Debug)]
pub struct BatchSim {
    flat: FlatDesign,
    program: LaneProgram,
    lanes: usize,
    /// The [`LaneProgram`]'s rows (net `n` is row `n`), then every bank's.
    rows: Rows,
    banks: Vec<BankRows>,
    dirty: bool,
    faults: Option<Box<BatchFaultState>>,
}

impl BatchSim {
    /// Creates a batched interpreter with every lane at the reset state
    /// (registers at their init values, banks zeroed).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(flat: FlatDesign, lanes: usize) -> BatchSim {
        assert!(lanes >= 1, "a batch needs at least one lane");
        let compiled = flat.compiled();
        let _span = tensorlib_obs::span("hw.batch_compile");
        let program = LaneProgram::lower(compiled, flat.nets.len());
        let mut next_row = program.rows;
        let mut take = |n: usize| {
            next_row += n;
            next_row - n
        };
        let banks: Vec<BankRows> = (flat.banks.iter())
            .map(|b| {
                let words = b.spec.words();
                let capacity = (words * if b.spec.is_double_buffered() { 2 } else { 1 }) as usize;
                BankRows {
                    raddr: take(1),
                    waddr: take(1),
                    rdata: take(1),
                    errors: take(1),
                    mem: take(capacity),
                    parity: b.spec.has_parity().then(|| take(capacity)),
                    words,
                    double_buffered: b.spec.is_double_buffered(),
                }
            })
            .collect();
        let mut sim = BatchSim {
            rows: Rows::new(next_row, lanes),
            banks,
            dirty: true,
            faults: None,
            flat,
            program,
            lanes,
        };
        // Constant rows are never written again, so their lanes are written
        // here, once per batch rather than once per lane group.
        for (i, &v) in sim.program.consts.iter().enumerate() {
            let r = sim.program.const_base + i;
            sim.rows.fill(r, v);
            sim.rows.materialize(r);
        }
        for r in &sim.flat.regs {
            sim.rows.fill(r.target, mask(r.init, sim.flat.nets[r.target].width));
        }
        sim.settle();
        // Construction is not counted: a pooled batch and a fresh one report
        // the same ops for the same work.
        sim.take_op_counts();
        sim
    }

    /// Creates a batch whose every lane starts from `base`'s current
    /// architectural state: [`BatchSim::new`] plus [`BatchSim::load_state`]
    /// of `base`'s [`Interpreter::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or `base` has faults attached (a faulty
    /// scalar state has no meaningful lane broadcast).
    pub fn from_scalar(base: &Interpreter, lanes: usize) -> BatchSim {
        assert!(
            base.faults.is_none(),
            "broadcast requires a fault-free scalar base"
        );
        let mut sim = BatchSim::new(base.flat.clone(), lanes);
        sim.load_state(&base.snapshot());
        sim
    }

    /// Loads `state` onto every lane — net values, bank words, bank
    /// addresses and read latches, parity bits and counters — detaches all
    /// faults, and resettles. Afterwards every lane is bit-identical to the
    /// scalar run the snapshot came from, so stepping the batch continues
    /// that run on every lane; the next [`BatchSim::attach_lane_faults`]
    /// counts fault cycles from here.
    ///
    /// Each value is stored once, as a uniform row's scalar. Every row but
    /// the constants restarts stale, so what the batch ran before leaves
    /// no trace in [`BatchSim::take_op_counts`].
    ///
    /// This is how fault campaigns reuse one compiled batch for many lane
    /// groups, each forked from the golden run at its own cycle.
    ///
    /// # Panics
    ///
    /// Panics if `state` was taken from a different design (its net or bank
    /// sizes do not match this batch's).
    pub fn load_state(&mut self, state: &Snapshot) {
        let different = "snapshot of a different design";
        assert_eq!(state.values.len(), self.flat.nets.len(), "{different}");
        assert_eq!(state.bank_mem.len(), self.banks.len(), "{different}");
        let (p, rows) = (&self.program, &mut self.rows);
        rows.load(0, state.values.iter().copied());
        // Staged samples and temporaries are written before they are read.
        let temps = p.const_base + p.consts.len();
        rows.load(p.staged, std::iter::repeat_n(0, p.const_base - p.staged));
        rows.load(temps, std::iter::repeat_n(0, p.rows - temps));
        for (i, b) in self.banks.iter().enumerate() {
            assert_eq!(state.bank_mem[i].len(), b.capacity(), "{different}");
            rows.load(b.raddr, [state.bank_raddr[i]]);
            rows.load(b.waddr, [state.bank_waddr[i]]);
            rows.load(b.rdata, [state.bank_rdata[i]]);
            rows.load(b.errors, [state.parity_errors[i]]);
            rows.load(b.mem, state.bank_mem[i].iter().copied());
            if let (Some(at), Some(bits)) = (b.parity, &state.bank_parity[i]) {
                rows.load(at, bits.iter().map(|&bit| u64::from(bit)));
            }
        }
        self.faults = None;
        self.dirty = true;
        self.settle();
    }

    /// The lane count this batch was built with.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The flattened design under simulation.
    pub fn flat(&self) -> &FlatDesign {
        &self.flat
    }

    /// The work done since construction or the last call. Deterministic
    /// for a given state and stimulus, whatever ran on the batch before its
    /// last [`BatchSim::load_state`].
    pub fn take_op_counts(&mut self) -> BatchCounts {
        std::mem::take(&mut self.rows.counts)
    }

    /// Drives a top-level input port with the same value on every lane and
    /// resettles.
    ///
    /// # Panics
    ///
    /// Panics if no such port exists.
    pub fn poke(&mut self, port: &str, value: u64) {
        self.poke_many([(port, value)]);
    }

    /// Drives a batch of ports, each broadcast across all lanes, settling
    /// once at the end.
    ///
    /// # Panics
    ///
    /// Panics if any named port does not exist.
    pub fn poke_many<'a>(&mut self, pokes: impl IntoIterator<Item = (&'a str, u64)>) {
        for (port, value) in pokes {
            let id = self.flat.port_id(port);
            self.rows.fill(id, mask(value, self.flat.nets[id].width));
        }
        self.dirty = true;
        self.settle();
    }

    /// Drives a top-level input port with a distinct value per lane
    /// (`values.len()` must equal [`BatchSim::lanes`]) and resettles.
    ///
    /// # Panics
    ///
    /// Panics if no such port exists or the value count is not the lane
    /// count.
    pub fn poke_lanes(&mut self, port: &str, values: &[u64]) {
        self.poke_lanes_many([(port, values)]);
    }

    /// Drives a batch of ports, each with a distinct value per lane,
    /// settling once at the end — the batched analogue of
    /// [`BatchSim::poke_many`], and the call stimulus drivers should use:
    /// poking ports one [`BatchSim::poke_lanes`] call at a time re-settles
    /// the whole design per port.
    ///
    /// # Panics
    ///
    /// Panics if any named port does not exist or any value slice is not
    /// one value per lane.
    pub fn poke_lanes_many<'a>(
        &mut self,
        pokes: impl IntoIterator<Item = (&'a str, &'a [u64])>,
    ) {
        for (port, values) in pokes {
            assert_eq!(values.len(), self.lanes, "one value per lane");
            let id = self.flat.port_id(port);
            let w = self.flat.nets[id].width;
            self.rows.set_lanes(id, |l| mask(values[l], w));
        }
        self.dirty = true;
        self.settle();
    }

    /// Drives a top-level input port on one lane only and resettles.
    ///
    /// # Panics
    ///
    /// Panics if no such port exists or `lane` is out of range.
    pub fn poke_lane(&mut self, port: &str, lane: usize, value: u64) {
        assert!(lane < self.lanes, "lane out of range");
        let id = self.flat.port_id(port);
        self.rows
            .set_lane(id, lane, mask(value, self.flat.nets[id].width));
        self.dirty = true;
        self.settle();
    }

    /// Resolves a net by hierarchical name once, for repeated reads with
    /// [`BatchSim::read`] and [`BatchSim::read_signed`] (alias-resolved, like
    /// the scalar compiled engine's peek).
    ///
    /// # Panics
    ///
    /// Panics if no such net exists.
    pub fn probe(&self, name: &str) -> Probe {
        let id = self.flat.net_id(name);
        Probe {
            slot: self.flat.compiled().resolve[id] as usize,
            width: self.flat.nets[id].width,
        }
    }

    /// A probed net's value on every lane (lane `l` at index `l`). A row
    /// stored once is written out to its lanes first.
    pub fn read(&mut self, probe: Probe) -> &[u64] {
        self.rows.materialize(probe.slot);
        self.rows.row(probe.slot)
    }

    /// A probed net's value on one lane.
    fn read_lane(&self, probe: Probe, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane out of range");
        self.rows.get(probe.slot, lane)
    }

    /// A probed net on one lane as a signed value of its declared width.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn read_signed(&self, probe: Probe, lane: usize) -> i64 {
        sign_extend(self.read_lane(probe, lane), probe.width, 64) as i64
    }

    /// Reads any net by hierarchical name on one lane.
    ///
    /// # Panics
    ///
    /// Panics if no such net exists or `lane` is out of range.
    pub fn peek_lane(&self, name: &str, lane: usize) -> u64 {
        self.read_lane(self.probe(name), lane)
    }

    /// Reads a net on one lane as a signed value of its declared width.
    pub fn peek_signed_lane(&self, name: &str, lane: usize) -> i64 {
        self.read_signed(self.probe(name), lane)
    }

    /// Preloads a bank's memory with the same words on every lane.
    ///
    /// # Errors
    ///
    /// Same contract as the scalar [`Interpreter::load_bank`].
    pub fn load_bank(&mut self, bank: usize, words: &[u64]) -> Result<(), HwError> {
        self.check_bank(bank, words.len())?;
        let b = self.banks[bank];
        for (w, &word) in words.iter().enumerate() {
            self.rows.fill(b.mem + w, word);
            if let Some(p) = b.parity {
                self.rows.fill(p + w, parity(word));
            }
        }
        Ok(())
    }

    /// Preloads a bank's memory on one lane only.
    ///
    /// # Errors
    ///
    /// Same contract as the scalar [`Interpreter::load_bank`].
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn load_bank_lane(&mut self, bank: usize, lane: usize, words: &[u64]) -> Result<(), HwError> {
        assert!(lane < self.lanes, "lane out of range");
        self.check_bank(bank, words.len())?;
        let b = self.banks[bank];
        for (w, &word) in words.iter().enumerate() {
            self.rows.set_lane(b.mem + w, lane, word);
            if let Some(p) = b.parity {
                self.rows.set_lane(p + w, lane, parity(word));
            }
        }
        Ok(())
    }

    fn check_bank(&self, bank: usize, given: usize) -> Result<(), HwError> {
        let banks = self.banks.len();
        if bank >= banks {
            return Err(HwError::NoSuchBank { bank, banks });
        }
        let capacity = self.banks[bank].capacity();
        if given > capacity {
            return Err(HwError::BankOverflow {
                bank,
                capacity,
                given,
            });
        }
        Ok(())
    }

    /// Sticky parity-mismatch total for one lane (sum over banks).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn parity_error_count_lane(&self, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane out of range");
        self.banks
            .iter()
            .map(|b| self.rows.get(b.errors, lane))
            .sum()
    }

    /// One lane's view of a bank's storage (both buffers for a
    /// double-buffered bank), for differential comparison against a scalar
    /// run.
    pub fn bank_words_lane(&self, bank: usize, lane: usize) -> Vec<u64> {
        assert!(lane < self.lanes, "lane out of range");
        let b = &self.banks[bank];
        (0..b.capacity())
            .map(|w| self.rows.get(b.mem + w, lane))
            .collect()
    }

    /// Attaches a different fault set to each lane (`per_lane[l]` is lane
    /// `l`'s spec list; lanes beyond `per_lane.len()` run fault-free). Specs
    /// resolve through exactly the scalar engine's resolution — alias
    /// canonicalization for stuck-ats, register/bank validation — and the
    /// fault cycle counter restarts: the next [`BatchSim::step`] is fault
    /// cycle 1 on every lane.
    ///
    /// Returns one `Result` per entry of `per_lane`. A lane whose spec list
    /// fails to resolve gets *no* faults attached (it runs clean) and
    /// reports the error in its slot — other lanes are unaffected, mirroring
    /// the scalar campaign behaviour where an attach failure skips that
    /// fault's run.
    ///
    /// # Panics
    ///
    /// Panics if `per_lane` has more entries than lanes.
    pub fn attach_lane_faults(&mut self, per_lane: &[Vec<FaultSpec>]) -> Vec<Result<(), HwError>> {
        assert!(
            per_lane.len() <= self.lanes,
            "more fault sets ({}) than lanes ({})",
            per_lane.len(),
            self.lanes
        );
        let mut state = BatchFaultState::default();
        let mut results = Vec::with_capacity(per_lane.len());
        for (lane, specs) in per_lane.iter().enumerate() {
            let lane = lane as u32;
            let mut resolved = Vec::with_capacity(specs.len());
            let mut outcome = Ok(());
            for spec in specs {
                match resolve_fault_spec(spec, &self.flat, Some(&self.flat.compiled().resolve)) {
                    Ok(r) => resolved.push(r),
                    Err(e) => {
                        outcome = Err(e);
                        break;
                    }
                }
            }
            if outcome.is_ok() {
                for r in resolved {
                    match r {
                        ResolvedFault::Stuck(force) => state.stuck.push(LaneStuck { lane, force }),
                        ResolvedFault::Flip(flip) => state.flips.push(LaneFlip { lane, flip }),
                        ResolvedFault::Bank(flip) => {
                            state.bank_flips.push(LaneBankFlip { lane, flip });
                        }
                        ResolvedFault::Hold(hold) => state.holds.push(LaneHold { lane, hold }),
                    }
                }
            }
            results.push(outcome);
        }
        if !state.stuck.is_empty() {
            state.stuck.sort_by_key(|s| s.force.slot);
            state.forced = vec![false; self.rows.state.len()];
            for s in &state.stuck {
                state.forced[s.force.slot as usize] = true;
            }
        }
        let empty = state.stuck.is_empty()
            && state.flips.is_empty()
            && state.bank_flips.is_empty()
            && state.holds.is_empty();
        self.faults = (!empty).then(|| Box::new(state));
        // Resettle so stuck-at forces are visible before the next step.
        self.dirty = true;
        self.settle();
        results
    }

    /// Removes every lane's faults and resettles (state already corrupted
    /// by past transients stays corrupted, as in the scalar engine).
    pub fn detach_faults(&mut self) {
        if self.faults.take().is_some() {
            self.dirty = true;
            self.settle();
        }
    }

    /// Settles combinational logic on every lane (no-op when already
    /// settled). Mirrors the scalar settle: bank read data first, then the
    /// stuck-at prologue, then the settle program, re-forcing each net it
    /// writes that a lane forces.
    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let nets = &self.flat.nets[..];
        for (b, rows) in self.flat.banks.iter().zip(&self.banks) {
            let m = width_mask(nets[b.rdata].width);
            self.rows.copy_map(rows.rdata, b.rdata, |v| v & m);
        }
        let stuck = self.faults.as_deref().filter(|f| !f.stuck.is_empty());
        let Some(f) = stuck else {
            for op in &self.program.settle {
                self.rows.exec(op);
            }
            return;
        };
        self.rows.force(&f.stuck);
        for op in &self.program.settle {
            self.rows.exec(op);
            if f.forced[op.dst as usize] {
                let lo = f.stuck.partition_point(|s| s.force.slot < op.dst);
                let hi = f.stuck.partition_point(|s| s.force.slot <= op.dst);
                self.rows.force(&f.stuck[lo..hi]);
            }
        }
    }

    /// Advances one clock on every lane: sample registers, commit banks
    /// then registers, apply scheduled faults, resettle. The result is the
    /// scalar [`Interpreter::step`]'s: banks read the pre-commit port rows
    /// here, where the scalar engine samples them before its register
    /// commit.
    pub fn step(&mut self) {
        self.settle();
        let staged = self.program.staged;
        // Sample registers (the sample program writes no nets, so no
        // forcing — same as the scalar path).
        for op in &self.program.sample {
            self.rows.exec(op);
        }
        // Pre-commit holds: a dropped transition overwrites the staged
        // sample with the register's current value on its lane.
        if let Some(f) = &self.faults {
            let now = f.cycle + 1;
            for h in f.holds.iter().filter(|h| h.hold.cycle == now) {
                let l = h.lane as usize;
                let current = self.rows.get(h.hold.target, l);
                self.rows.set_lane(staged + h.hold.reg, l, current);
            }
        }
        self.commit_banks();
        for (r, &t) in self.flat.compiled().reg_targets.iter().enumerate() {
            self.rows.copy_map(staged + r, t as usize, |v| v);
        }
        // Post-commit faults: transient flips corrupt just-committed state
        // on their lanes without touching parity bookkeeping.
        if let Some(f) = &mut self.faults {
            f.cycle += 1;
            let now = f.cycle;
            for fl in f.flips.iter().filter(|fl| fl.flip.cycle == now) {
                self.rows
                    .xor_lane(fl.flip.slot, fl.lane as usize, fl.flip.xor);
            }
            for bf in f.bank_flips.iter().filter(|bf| bf.flip.cycle == now) {
                let word = self.banks[bf.flip.bank].mem + bf.flip.word;
                self.rows.xor_lane(word, bf.lane as usize, bf.flip.xor);
            }
        }
        self.dirty = true;
        self.settle();
    }

    /// Commits every bank's port activity, read from the settled
    /// pre-commit port rows: read the inactive buffer, write the active
    /// one. When the enables, buffer select and addresses are uniform, all
    /// lanes touch the same word, so each port moves one row: a single word
    /// while that row is uniform too, with parity checked once. Otherwise
    /// each lane commits on its own.
    fn commit_banks(&mut self) {
        let rows = &mut self.rows;
        let banks = self.flat.banks.iter().zip(&self.flat.compiled().bank_nets);
        for ((b, nets), bank) in banks.zip(&self.banks) {
            let wmask = width_mask(b.spec.width());
            let (en, wen, wdata) = (nets.en as usize, nets.wen as usize, nets.wdata as usize);
            let sel = nets.buf_sel.map(|n| n as usize);
            let mut ports = [en, wen, bank.raddr, bank.waddr].into_iter().chain(sel);
            if ports.all(|r| rows.uniform(r)) {
                let sel = sel.map_or(0, |s| rows.scalar[s] & 1);
                if rows.scalar[en] & 1 == 1 {
                    let (at, next) = bank.word(1 - sel, rows.scalar[bank.raddr]);
                    rows.copy_map(at, bank.rdata, |v| v);
                    rows.fill(bank.raddr, next);
                    if let Some(bit) = bank.parity_of(at) {
                        rows.check_parity(at, bit, bank.errors);
                    }
                }
                if rows.scalar[wen] & 1 == 1 {
                    let (at, next) = bank.word(sel, rows.scalar[bank.waddr]);
                    rows.copy_map(wdata, at, |v| v & wmask);
                    rows.fill(bank.waddr, next);
                    if let Some(bit) = bank.parity_of(at) {
                        rows.copy_map(at, bit, parity);
                    }
                }
                continue;
            }
            for l in 0..rows.lanes {
                let sel = sel.map_or(0, |s| rows.get(s, l) & 1);
                if rows.get(en, l) & 1 == 1 {
                    let (at, next) = bank.word(1 - sel, rows.get(bank.raddr, l));
                    let v = rows.get(at, l);
                    rows.set_lane(bank.rdata, l, v);
                    rows.set_lane(bank.raddr, l, next);
                    if let Some(bit) = bank.parity_of(at) {
                        let e = rows.get(bank.errors, l) + u64::from(parity(v) != rows.get(bit, l));
                        rows.set_lane(bank.errors, l, e);
                    }
                }
                if rows.get(wen, l) & 1 == 1 {
                    let (at, next) = bank.word(sel, rows.get(bank.waddr, l));
                    let v = rows.get(wdata, l) & wmask;
                    rows.set_lane(at, l, v);
                    rows.set_lane(bank.waddr, l, next);
                    if let Some(bit) = bank.parity_of(at) {
                        rows.set_lane(bit, l, parity(v));
                    }
                }
            }
            for r in [bank.raddr, bank.waddr, bank.rdata, bank.errors] {
                rows.recheck(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{gen_netlist, NetlistFuzzConfig};
    use crate::interp::elaborate;
    use crate::netlist::{Dir, Expr, Module};
    use tensorlib_linalg::rng::SplitMix64;

    /// The uniform-row invariant: every flagged row holds one value on
    /// every lane.
    fn assert_flags_honest(sim: &BatchSim, what: &str) {
        let rows = &sim.rows;
        for (r, &state) in rows.state.iter().enumerate() {
            let honest =
                state != RowState::Uniform || rows.row(r).iter().all(|&v| v == rows.scalar[r]);
            assert!(honest, "{what}: row {r} is marked uniform");
        }
    }

    #[test]
    fn uniform_flags_hold_under_mixed_pokes_on_fuzzed_netlists() {
        let cfg = NetlistFuzzConfig::default();
        for seed in 0..60 {
            let (modules, top) = gen_netlist(seed, &cfg);
            let flat = elaborate(&modules, &[], &top).expect("generated netlists elaborate");
            let inputs: Vec<String> = (flat.ports().iter())
                .filter(|(_, d)| *d == Dir::Input)
                .map(|(id, _)| flat.nets()[*id].name.clone())
                .collect();
            let mut sim = BatchSim::new(flat, 4);
            let mut rng = SplitMix64::new(seed);
            for cycle in 0..cfg.cycles {
                for name in &inputs {
                    let v = rng.next_u64();
                    match rng.next_u64() % 3 {
                        0 => sim.poke(name, v),
                        1 => sim.poke_lane(name, (v % 4) as usize, v >> 7),
                        _ => sim.poke_lanes(name, &[v, v, v ^ 1, v]),
                    }
                    assert_flags_honest(&sim, &format!("seed {seed} cycle {cycle} poke {name}"));
                }
                sim.step();
                assert_flags_honest(&sim, &format!("seed {seed} cycle {cycle} step"));
            }
        }
    }

    fn counter_flat() -> FlatDesign {
        let mut m = Module::new("cnt");
        let en = m.input("en", 1);
        let q = m.output("q", 8);
        m.reg(q, Expr::net(q).add(Expr::lit(1, 8)), Some(Expr::net(en)), 0);
        elaborate(&[m], &[], "cnt").unwrap()
    }

    #[test]
    fn lanes_diverge_under_per_lane_stimulus() {
        let mut sim = BatchSim::new(counter_flat(), 4);
        // Lanes 0 and 2 enabled, 1 and 3 idle.
        sim.poke_lanes("en", &[1, 0, 1, 0]);
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(sim.peek_lane("q", 0), 5);
        assert_eq!(sim.peek_lane("q", 1), 0);
        assert_eq!(sim.peek_lane("q", 2), 5);
        assert_eq!(sim.peek_lane("q", 3), 0);
    }

    #[test]
    fn lane_matches_scalar_interpreter() {
        let flat = counter_flat();
        let mut scalar = Interpreter::new(flat.clone());
        let mut batch = BatchSim::new(flat, 8);
        scalar.poke("en", 1);
        batch.poke("en", 1);
        for _ in 0..7 {
            scalar.step();
            batch.step();
        }
        for l in 0..8 {
            assert_eq!(batch.peek_lane("q", l), scalar.peek("q"));
        }
    }

    #[test]
    fn per_lane_faults_hit_only_their_lane() {
        let flat = counter_flat();
        let mut faulty = Interpreter::new(flat.clone());
        faulty.poke("en", 1);
        faulty
            .attach_faults(&[FaultSpec::stuck_at("q", 0, false)])
            .unwrap();
        let mut clean = Interpreter::new(flat.clone());
        clean.poke("en", 1);
        let mut sim = BatchSim::new(flat, 3);
        sim.poke("en", 1);
        // Lane 1 gets q stuck at bit 0 = 0; others run clean.
        let results =
            sim.attach_lane_faults(&[vec![], vec![FaultSpec::stuck_at("q", 0, false)]]);
        assert!(results.iter().all(Result::is_ok));
        for _ in 0..3 {
            sim.step();
            faulty.step();
            clean.step();
        }
        assert_eq!(sim.peek_lane("q", 0), clean.peek("q"));
        assert_eq!(sim.peek_lane("q", 1), faulty.peek("q"));
        assert_eq!(sim.peek_lane("q", 2), clean.peek("q"));
        assert_ne!(clean.peek("q"), faulty.peek("q"), "fault must be visible");
    }

    #[test]
    fn bad_lane_spec_reports_error_and_leaves_other_lanes_armed() {
        let flat = counter_flat();
        let mut faulty = Interpreter::new(flat.clone());
        faulty.poke("en", 1);
        faulty
            .attach_faults(&[FaultSpec::stuck_at("q", 0, true)])
            .unwrap();
        let mut clean = Interpreter::new(flat.clone());
        clean.poke("en", 1);
        let mut sim = BatchSim::new(flat, 2);
        sim.poke("en", 1);
        let results = sim.attach_lane_faults(&[
            vec![FaultSpec::stuck_at("no_such_net", 0, true)],
            vec![FaultSpec::stuck_at("q", 0, true)],
        ]);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
        for _ in 0..3 {
            sim.step();
            faulty.step();
            clean.step();
        }
        assert_eq!(sim.peek_lane("q", 0), clean.peek("q"), "errored lane runs clean");
        assert_eq!(sim.peek_lane("q", 1), faulty.peek("q"));
    }
}
