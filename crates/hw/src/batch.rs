//! Lane-batched simulation: N independent runs of one [`FlatDesign`] per
//! bytecode pass.
//!
//! [`BatchSim`] executes the same compiled instruction streams as the scalar
//! [`Interpreter`], but every net value, register, bank address, and bank
//! word is a *lane vector*: a struct-of-arrays row of `lanes` u64 values,
//! one per independent simulation. Each instruction dispatch then performs
//! its operation across all lanes in a tight inner loop, so dispatch cost —
//! the dominant cost of the scalar interpreter — is amortized `lanes`-fold
//! and the lane loops autovectorize.
//!
//! Per-lane divergence is the point of the engine:
//!
//! - [`BatchSim::attach_lane_faults`] attaches a *different* fault set to
//!   each lane, so one pass retires up to `lanes` fault-campaign sites.
//! - [`BatchSim::poke_lanes`] / [`BatchSim::load_bank_lane`] drive each lane
//!   with its own stimulus, so fuzz and measured-stats campaigns evaluate
//!   `lanes` seeds at once.
//!
//! [`BatchSim::load_state`] broadcasts a scalar run's [`Snapshot`] onto
//! every lane, so one compiled batch can be reused and can start mid-run:
//! fault campaigns fork each lane group from the golden run.
//!
//! **Determinism contract:** lane `l` of a batched run is bit-identical —
//! every net, every cycle, every bank word, every parity counter — to a
//! scalar [`Interpreter`] run given the same initial state, stimulus, and
//! fault set. The engine shares the scalar path's compiled bytecode
//! ([`Compiled::build`]), fault resolution, masking rules, and commit
//! ordering, and the fuzz oracle (`crate::fuzz::check_batch_netlist`)
//! re-proves the contract over random netlists on every campaign. Batched
//! campaign reports are therefore byte-identical to scalar ones for any
//! lane width.
//!
//! The batch engine carries no observability layer (attach a trace to a
//! scalar interpreter for waveforms) and always runs compiled.

use std::collections::HashMap;

use crate::array::HwError;
use crate::fault::{BankWordFlip, FaultSpec, RegHold, SlotFlip, StuckForce};
use crate::interp::{
    mask, resolve_fault_spec, sign_extend, Compiled, FlatDesign, Instr, Interpreter, ResolvedFault,
    Snapshot,
};
use crate::netlist::{BinOp, NetId};

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
    stuck: Vec<LaneStuck>,
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

/// Lane-batched interpreter over a [`FlatDesign`]. See the module docs for
/// the lane layout and determinism contract.
#[derive(Debug)]
pub struct BatchSim {
    flat: FlatDesign,
    compiled: Compiled,
    lanes: usize,
    /// Net values, lane-major per net: net `n`'s lane `l` lives at
    /// `values[n * lanes + l]`.
    values: Vec<u64>,
    /// Operand stack of lane frames (each frame is `lanes` words).
    stack: Vec<u64>,
    /// Register sample buffer: reg `r`'s lanes at `[r * lanes, (r+1) * lanes)`.
    next_regs: Vec<u64>,
    /// Per bank: word-major lane rows (`word * lanes + l`), both buffers for
    /// double-buffered banks.
    bank_mem: Vec<Vec<u64>>,
    /// Per bank × lane sequential read/write addresses and latched rdata.
    bank_raddr: Vec<u64>,
    bank_waddr: Vec<u64>,
    bank_rdata: Vec<u64>,
    /// Sampled bank port activity, per bank × lane (bits 0..=2: read, write;
    /// wdata and buf_sel in their own rows). Reused across steps.
    bank_op_read: Vec<u64>,
    bank_op_write: Vec<u64>,
    bank_op_wdata: Vec<u64>,
    bank_op_bufsel: Vec<u64>,
    /// Parity bookkeeping per bank (same lane layout as `bank_mem`).
    bank_parity: Vec<Option<Vec<u8>>>,
    /// Sticky parity-mismatch counters, per bank × lane.
    parity_errors: Vec<u64>,
    net_by_name: HashMap<String, NetId>,
    port_by_name: HashMap<String, NetId>,
    dirty: bool,
    faults: Option<Box<BatchFaultState>>,
}

/// Applies one binary operator across lane frames, with the operator match
/// hoisted out of the lane loop so each arm is a straight-line
/// autovectorizable loop. Masking rules are identical to the scalar
/// `bin_eval`.
#[inline]
fn bin_eval_lanes(op: BinOp, a: &mut [u64], b: &[u64], mask: u64) {
    match op {
        BinOp::Add => {
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.wrapping_add(*y) & mask;
            }
        }
        BinOp::Sub => {
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.wrapping_sub(*y) & mask;
            }
        }
        BinOp::Mul => {
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.wrapping_mul(*y) & mask;
            }
        }
        BinOp::And => {
            for (x, y) in a.iter_mut().zip(b) {
                *x &= *y;
            }
        }
        BinOp::Or => {
            for (x, y) in a.iter_mut().zip(b) {
                *x |= *y;
            }
        }
        BinOp::Xor => {
            for (x, y) in a.iter_mut().zip(b) {
                *x ^= *y;
            }
        }
        BinOp::Eq => {
            for (x, y) in a.iter_mut().zip(b) {
                *x = u64::from(*x == *y);
            }
        }
        BinOp::Lt => {
            for (x, y) in a.iter_mut().zip(b) {
                *x = u64::from(*x < *y);
            }
        }
    }
}

/// Re-applies lane-scoped stuck-at forces to `slot` after a store clobbered
/// its row. Linear scan, mirroring the scalar `reforce`.
#[inline]
fn reforce_lanes(forced: &[LaneStuck], slot: u32, lanes: usize, values: &mut [u64]) {
    for s in forced {
        if s.force.slot == slot {
            let idx = slot as usize * lanes + s.lane as usize;
            values[idx] = (values[idx] | s.force.or_mask) & s.force.and_mask;
        }
    }
}

/// Executes one bytecode stream over the lane-major value array. Exactly
/// the scalar `exec_stream_impl` semantics, instruction for instruction,
/// with every value operation widened to a lane loop. `FORCED` monomorphizes
/// fault re-forcing away on the clean path, as in the scalar engine.
fn exec_stream_lanes<const FORCED: bool>(
    code: &[Instr],
    lanes: usize,
    values: &mut [u64],
    stack: &mut Vec<u64>,
    next_regs: &mut Vec<u64>,
    forced: &[LaneStuck],
) {
    stack.clear();
    for ins in code {
        match *ins {
            Instr::Const(v) => {
                let base = stack.len();
                stack.resize(base + lanes, v);
            }
            Instr::Load(n) => {
                let row = n as usize * lanes;
                stack.extend_from_slice(&values[row..row + lanes]);
            }
            Instr::Not { mask } => {
                let base = stack.len() - lanes;
                for a in &mut stack[base..] {
                    *a = !*a & mask;
                }
            }
            Instr::Bin { op, mask } => {
                let split = stack.len() - lanes;
                let (head, b) = stack.split_at_mut(split);
                let a = &mut head[split - lanes..];
                bin_eval_lanes(op, a, b, mask);
                stack.truncate(split);
            }
            Instr::Mux => {
                let len = stack.len();
                let (head, f) = stack.split_at_mut(len - lanes);
                let (head, t) = head.split_at_mut(len - 2 * lanes);
                let sel = &mut head[len - 3 * lanes..];
                for ((s, &tv), &fv) in sel.iter_mut().zip(t.iter()).zip(f.iter()) {
                    let m = (*s & 1).wrapping_neg();
                    *s = (tv & m) | (fv & !m);
                }
                stack.truncate(len - 2 * lanes);
            }
            Instr::Resize { mask } => {
                let base = stack.len() - lanes;
                for a in &mut stack[base..] {
                    *a &= mask;
                }
            }
            Instr::SignExt {
                from_mask,
                sign_bit,
                ext_bits,
                to_mask,
            } => {
                let base = stack.len() - lanes;
                for a in &mut stack[base..] {
                    let v = *a & from_mask;
                    let m = u64::from(v & sign_bit != 0).wrapping_neg();
                    *a = (v | (ext_bits & m)) & to_mask;
                }
            }
            Instr::Store { net, mask } => {
                let base = stack.len() - lanes;
                let row = net as usize * lanes;
                for (dst, &s) in values[row..row + lanes].iter_mut().zip(&stack[base..]) {
                    *dst = s & mask;
                }
                stack.truncate(base);
                if FORCED {
                    reforce_lanes(forced, net, lanes, values);
                }
            }
            Instr::Copy { src, dst, mask } => {
                let s = src as usize * lanes;
                let d = dst as usize * lanes;
                // Rows of distinct nets never overlap, so split at the later
                // row to get disjoint src/dst slices the loop can vectorize.
                if s < d {
                    let (lo, hi) = values.split_at_mut(d);
                    for (dv, &sv) in hi[..lanes].iter_mut().zip(&lo[s..s + lanes]) {
                        *dv = sv & mask;
                    }
                } else if d < s {
                    let (lo, hi) = values.split_at_mut(s);
                    for (dv, &sv) in lo[d..d + lanes].iter_mut().zip(&hi[..lanes]) {
                        *dv = sv & mask;
                    }
                } else {
                    for v in &mut values[d..d + lanes] {
                        *v &= mask;
                    }
                }
                if FORCED {
                    reforce_lanes(forced, dst, lanes, values);
                }
            }
            Instr::StoreConst { dst, value } => {
                let row = dst as usize * lanes;
                for v in &mut values[row..row + lanes] {
                    *v = value;
                }
                if FORCED {
                    reforce_lanes(forced, dst, lanes, values);
                }
            }
            Instr::SampleReg { mask, target } => {
                let len = stack.len();
                let en = len - 2 * lanes;
                let row = target as usize * lanes;
                let base = next_regs.len();
                next_regs.resize(base + lanes, 0);
                let dst = &mut next_regs[base..];
                let (en_s, next_s) = stack[en..].split_at(lanes);
                let cur = &values[row..row + lanes];
                for l in 0..lanes {
                    let m = (en_s[l] & 1).wrapping_neg();
                    dst[l] = (next_s[l] & mask & m) | (cur[l] & !m);
                }
                stack.truncate(en);
            }
            Instr::SampleRegAlways { mask } => {
                let from = stack.len() - lanes;
                let base = next_regs.len();
                next_regs.resize(base + lanes, 0);
                for (d, &s) in next_regs[base..].iter_mut().zip(&stack[from..]) {
                    *d = s & mask;
                }
                stack.truncate(from);
            }
            Instr::Bin2 { op, a, b, mask } => {
                let ra = a as usize * lanes;
                let rb = b as usize * lanes;
                let base = stack.len();
                stack.extend_from_slice(&values[ra..ra + lanes]);
                bin_eval_lanes(op, &mut stack[base..], &values[rb..rb + lanes], mask);
            }
            Instr::LoadSext {
                net,
                from_mask,
                sign_bit,
                ext_bits,
                to_mask,
            } => {
                let row = net as usize * lanes;
                let base = stack.len();
                stack.resize(base + lanes, 0);
                for (d, &raw) in stack[base..].iter_mut().zip(&values[row..row + lanes]) {
                    let v = raw & from_mask;
                    let m = u64::from(v & sign_bit != 0).wrapping_neg();
                    *d = (v | (ext_bits & m)) & to_mask;
                }
            }
            Instr::LoadMasked { net, mask } => {
                let row = net as usize * lanes;
                let base = stack.len();
                stack.resize(base + lanes, 0);
                for (d, &v) in stack[base..].iter_mut().zip(&values[row..row + lanes]) {
                    *d = v & mask;
                }
            }
            Instr::NotNet { net, mask } => {
                let row = net as usize * lanes;
                let base = stack.len();
                stack.resize(base + lanes, 0);
                for (d, &v) in stack[base..].iter_mut().zip(&values[row..row + lanes]) {
                    *d = !v & mask;
                }
            }
            Instr::Mux3 { sel, t, f } => {
                let rs = sel as usize * lanes;
                let rt = t as usize * lanes;
                let rf = f as usize * lanes;
                let base = stack.len();
                stack.resize(base + lanes, 0);
                let dst = &mut stack[base..];
                let sel_s = &values[rs..rs + lanes];
                let t_s = &values[rt..rt + lanes];
                let f_s = &values[rf..rf + lanes];
                for l in 0..lanes {
                    let m = (sel_s[l] & 1).wrapping_neg();
                    dst[l] = (t_s[l] & m) | (f_s[l] & !m);
                }
            }
            Instr::SampleRegNets {
                en,
                next,
                mask,
                target,
            } => {
                let re = en as usize * lanes;
                let rn = next as usize * lanes;
                let rt = target as usize * lanes;
                let base = next_regs.len();
                next_regs.resize(base + lanes, 0);
                let dst = &mut next_regs[base..];
                let en_s = &values[re..re + lanes];
                let n_s = &values[rn..rn + lanes];
                let t_s = &values[rt..rt + lanes];
                for l in 0..lanes {
                    let m = (en_s[l] & 1).wrapping_neg();
                    dst[l] = (n_s[l] & mask & m) | (t_s[l] & !m);
                }
            }
            Instr::SampleRegAlwaysNet { net, mask } => {
                let row = net as usize * lanes;
                let base = next_regs.len();
                next_regs.resize(base + lanes, 0);
                for (d, &v) in next_regs[base..].iter_mut().zip(&values[row..row + lanes]) {
                    *d = v & mask;
                }
            }
        }
    }
}

/// Fills lane row `i` of `dst` with `src[i]`: one scalar value per row of
/// `lanes` lane words.
fn broadcast<T: Copy>(dst: &mut [T], src: &[T], lanes: usize) {
    assert_eq!(dst.len(), src.len() * lanes, "snapshot of a different design");
    for (row, &v) in dst.chunks_exact_mut(lanes).zip(src) {
        row.fill(v);
    }
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
        let _span = tensorlib_obs::span("hw.batch_compile");
        let compiled = Compiled::build(&flat);
        let n_nets = flat.nets.len();
        let n_banks = flat.banks.len();
        let bank_mem: Vec<Vec<u64>> = flat
            .banks
            .iter()
            .map(|b| {
                let mult = if b.spec.is_double_buffered() { 2 } else { 1 };
                vec![0u64; (b.spec.words() * mult) as usize * lanes]
            })
            .collect();
        let bank_parity = flat
            .banks
            .iter()
            .map(|b| {
                let mult = if b.spec.is_double_buffered() { 2 } else { 1 };
                b.spec
                    .has_parity()
                    .then(|| vec![0u8; (b.spec.words() * mult) as usize * lanes])
            })
            .collect();
        let mut net_by_name = HashMap::with_capacity(n_nets);
        for (id, net) in flat.nets.iter().enumerate() {
            net_by_name.entry(net.name.clone()).or_insert(id);
        }
        let mut port_by_name = HashMap::with_capacity(flat.ports.len());
        for &(id, _) in &flat.ports {
            port_by_name.entry(flat.nets[id].name.clone()).or_insert(id);
        }
        let n_regs = flat.regs.len();
        let mut sim = BatchSim {
            values: vec![0; n_nets * lanes],
            stack: Vec::with_capacity(16 * lanes),
            next_regs: Vec::with_capacity(n_regs * lanes),
            bank_mem,
            bank_raddr: vec![0; n_banks * lanes],
            bank_waddr: vec![0; n_banks * lanes],
            bank_rdata: vec![0; n_banks * lanes],
            bank_op_read: vec![0; n_banks * lanes],
            bank_op_write: vec![0; n_banks * lanes],
            bank_op_wdata: vec![0; n_banks * lanes],
            bank_op_bufsel: vec![0; n_banks * lanes],
            bank_parity,
            parity_errors: vec![0; n_banks * lanes],
            net_by_name,
            port_by_name,
            dirty: true,
            faults: None,
            flat,
            compiled,
            lanes,
        };
        for r in &sim.flat.regs {
            let init = mask(r.init, sim.flat.nets[r.target].width);
            sim.values[r.target * lanes..(r.target + 1) * lanes].fill(init);
        }
        sim.settle();
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

    /// Broadcasts `state` onto every lane — net values, bank words, bank
    /// addresses and read latches, parity bits and counters — detaches all
    /// faults, and resettles. Afterwards every lane is bit-identical to the
    /// scalar run the snapshot came from, so stepping the batch continues
    /// that run on every lane; the next [`BatchSim::attach_lane_faults`]
    /// counts fault cycles from here.
    ///
    /// This is how fault campaigns reuse one compiled batch for many lane
    /// groups, each forked from the golden run at its own cycle.
    ///
    /// # Panics
    ///
    /// Panics if `state` was taken from a different design (its net or bank
    /// sizes do not match this batch's).
    pub fn load_state(&mut self, state: &Snapshot) {
        let lanes = self.lanes;
        broadcast(&mut self.values, &state.values, lanes);
        broadcast(&mut self.bank_raddr, &state.bank_raddr, lanes);
        broadcast(&mut self.bank_waddr, &state.bank_waddr, lanes);
        broadcast(&mut self.bank_rdata, &state.bank_rdata, lanes);
        broadcast(&mut self.parity_errors, &state.parity_errors, lanes);
        for (dst, src) in self.bank_mem.iter_mut().zip(&state.bank_mem) {
            broadcast(dst, src, lanes);
        }
        for (dst, src) in self.bank_parity.iter_mut().zip(&state.bank_parity) {
            if let (Some(dst), Some(src)) = (dst, src) {
                broadcast(dst, src, lanes);
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

    fn net_id(&self, name: &str) -> NetId {
        *self
            .net_by_name
            .get(name)
            .unwrap_or_else(|| panic!("no net {name:?}"))
    }

    fn port_id(&self, port: &str) -> NetId {
        *self
            .port_by_name
            .get(port)
            .unwrap_or_else(|| panic!("no port {port:?}"))
    }

    /// Drives a top-level input port with the same value on every lane and
    /// resettles.
    ///
    /// # Panics
    ///
    /// Panics if no such port exists.
    pub fn poke(&mut self, port: &str, value: u64) {
        let id = self.port_id(port);
        let v = mask(value, self.flat.nets[id].width);
        self.values[id * self.lanes..(id + 1) * self.lanes].fill(v);
        self.dirty = true;
        self.settle();
    }

    /// Drives a batch of ports, each broadcast across all lanes, settling
    /// once at the end.
    ///
    /// # Panics
    ///
    /// Panics if any named port does not exist.
    pub fn poke_many<'a>(&mut self, pokes: impl IntoIterator<Item = (&'a str, u64)>) {
        for (port, value) in pokes {
            let id = self.port_id(port);
            let v = mask(value, self.flat.nets[id].width);
            self.values[id * self.lanes..(id + 1) * self.lanes].fill(v);
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
        assert_eq!(values.len(), self.lanes, "one value per lane");
        let id = self.port_id(port);
        let w = self.flat.nets[id].width;
        for (l, &v) in values.iter().enumerate() {
            self.values[id * self.lanes + l] = mask(v, w);
        }
        self.dirty = true;
        self.settle();
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
            let id = self.port_id(port);
            let w = self.flat.nets[id].width;
            let row = &mut self.values[id * self.lanes..(id + 1) * self.lanes];
            for (dst, &v) in row.iter_mut().zip(values) {
                *dst = mask(v, w);
            }
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
        let id = self.port_id(port);
        self.values[id * self.lanes + lane] = mask(value, self.flat.nets[id].width);
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
        let id = self.net_id(name);
        Probe {
            slot: self.compiled.resolve[id] as usize,
            width: self.flat.nets[id].width,
        }
    }

    /// A probed net's value on every lane (lane `l` at index `l`).
    pub fn read(&self, probe: Probe) -> &[u64] {
        &self.values[probe.slot * self.lanes..(probe.slot + 1) * self.lanes]
    }

    /// A probed net on one lane as a signed value of its declared width.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn read_signed(&self, probe: Probe, lane: usize) -> i64 {
        sign_extend(self.read(probe)[lane], probe.width, 64) as i64
    }

    /// Reads any net by hierarchical name on one lane.
    ///
    /// # Panics
    ///
    /// Panics if no such net exists or `lane` is out of range.
    pub fn peek_lane(&self, name: &str, lane: usize) -> u64 {
        self.read(self.probe(name))[lane]
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
        for (w, &word) in words.iter().enumerate() {
            self.bank_mem[bank][w * self.lanes..(w + 1) * self.lanes].fill(word);
        }
        if let Some(p) = &mut self.bank_parity[bank] {
            for (w, &word) in words.iter().enumerate() {
                let parity = (word.count_ones() & 1) as u8;
                p[w * self.lanes..(w + 1) * self.lanes].fill(parity);
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
        for (w, &word) in words.iter().enumerate() {
            self.bank_mem[bank][w * self.lanes + lane] = word;
        }
        if let Some(p) = &mut self.bank_parity[bank] {
            for (w, &word) in words.iter().enumerate() {
                p[w * self.lanes + lane] = (word.count_ones() & 1) as u8;
            }
        }
        Ok(())
    }

    fn check_bank(&self, bank: usize, given: usize) -> Result<(), HwError> {
        let banks = self.bank_mem.len();
        if bank >= banks {
            return Err(HwError::NoSuchBank { bank, banks });
        }
        let capacity = self.bank_mem[bank].len() / self.lanes;
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
        (0..self.flat.banks.len())
            .map(|i| self.parity_errors[i * self.lanes + lane])
            .sum()
    }

    /// One lane's view of a bank's storage (both buffers for a
    /// double-buffered bank), for differential comparison against a scalar
    /// run.
    pub fn bank_words_lane(&self, bank: usize, lane: usize) -> Vec<u64> {
        assert!(lane < self.lanes, "lane out of range");
        let capacity = self.bank_mem[bank].len() / self.lanes;
        (0..capacity)
            .map(|w| self.bank_mem[bank][w * self.lanes + lane])
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
                match resolve_fault_spec(
                    spec,
                    &self.flat,
                    Some(&self.compiled.resolve),
                    &self.net_by_name,
                ) {
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
    /// compiled settle stream, with the stuck-at prologue + per-store
    /// re-forcing on the faulty path.
    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let lanes = self.lanes;
        for (i, b) in self.flat.banks.iter().enumerate() {
            let w = self.flat.nets[b.rdata].width;
            let row = b.rdata * lanes;
            for l in 0..lanes {
                self.values[row + l] = mask(self.bank_rdata[i * lanes + l], w);
            }
        }
        match &self.faults {
            // No stuck-ats anywhere (transients/holds only): re-forcing is a
            // no-op by construction, so run the clean stream — same shortcut
            // as the scalar settle.
            Some(f) if f.stuck.is_empty() => {
                exec_stream_lanes::<false>(
                    &self.compiled.settle_code,
                    lanes,
                    &mut self.values,
                    &mut self.stack,
                    &mut self.next_regs,
                    &[],
                );
            }
            Some(f) => {
                for s in &f.stuck {
                    let idx = s.force.slot as usize * lanes + s.lane as usize;
                    self.values[idx] = (self.values[idx] | s.force.or_mask) & s.force.and_mask;
                }
                exec_stream_lanes::<true>(
                    &self.compiled.settle_code,
                    lanes,
                    &mut self.values,
                    &mut self.stack,
                    &mut self.next_regs,
                    &f.stuck,
                );
            }
            None => {
                exec_stream_lanes::<false>(
                    &self.compiled.settle_code,
                    lanes,
                    &mut self.values,
                    &mut self.stack,
                    &mut self.next_regs,
                    &[],
                );
            }
        }
    }

    /// Advances one clock on every lane: sample registers and bank ports,
    /// commit simultaneously, apply scheduled faults, resettle. The ordering
    /// is the scalar [`Interpreter::step`]'s, stage for stage.
    pub fn step(&mut self) {
        self.settle();
        let lanes = self.lanes;
        // Sample registers (reg streams contain no stores, so no forcing —
        // same as the scalar path).
        self.next_regs.clear();
        exec_stream_lanes::<false>(
            &self.compiled.reg_code,
            lanes,
            &mut self.values,
            &mut self.stack,
            &mut self.next_regs,
            &[],
        );
        // Pre-commit holds: a dropped transition overwrites the sampled next
        // value with the register's current value on its lane.
        if let Some(f) = &self.faults {
            let now = f.cycle + 1;
            for h in &f.holds {
                if h.hold.cycle == now {
                    self.next_regs[h.hold.reg * lanes + h.lane as usize] =
                        self.values[h.hold.target * lanes + h.lane as usize];
                }
            }
        }
        // Sample bank port activity through the alias-resolved port nets,
        // then commit registers.
        for (i, b) in self.compiled.bank_nets.iter().enumerate() {
            let (re, rw, rd) = (
                b.en as usize * lanes,
                b.wen as usize * lanes,
                b.wdata as usize * lanes,
            );
            let o = i * lanes;
            for l in 0..lanes {
                self.bank_op_read[o + l] = self.values[re + l] & 1;
                self.bank_op_write[o + l] = self.values[rw + l] & 1;
                self.bank_op_wdata[o + l] = self.values[rd + l];
            }
            match b.buf_sel {
                Some(n) => {
                    let rs = n as usize * lanes;
                    for l in 0..lanes {
                        self.bank_op_bufsel[o + l] = self.values[rs + l] & 1;
                    }
                }
                None => self.bank_op_bufsel[o..o + lanes].fill(0),
            }
        }
        for (r, &t) in self.compiled.reg_targets.iter().enumerate() {
            let row = t as usize * lanes;
            self.values[row..row + lanes].copy_from_slice(&self.next_regs[r * lanes..(r + 1) * lanes]);
        }
        // Commit banks: read the inactive buffer, write the active one,
        // per-lane addresses and parity.
        for (i, b) in self.flat.banks.iter().enumerate() {
            let words = b.spec.words();
            let dbuf = b.spec.is_double_buffered();
            let width = b.spec.width();
            for l in 0..lanes {
                let o = i * lanes + l;
                if self.bank_op_read[o] == 1 {
                    let base = if dbuf {
                        (1 - self.bank_op_bufsel[o]) * words
                    } else {
                        0
                    };
                    let addr = (base + self.bank_raddr[o] % words) as usize;
                    let widx = addr * lanes + l;
                    self.bank_rdata[o] = self.bank_mem[i][widx];
                    self.bank_raddr[o] = (self.bank_raddr[o] + 1) % words;
                    if let Some(p) = &self.bank_parity[i] {
                        if (self.bank_mem[i][widx].count_ones() & 1) as u8 != p[widx] {
                            self.parity_errors[o] += 1;
                        }
                    }
                }
                if self.bank_op_write[o] == 1 {
                    let base = if dbuf {
                        self.bank_op_bufsel[o] * words
                    } else {
                        0
                    };
                    let addr = (base + self.bank_waddr[o] % words) as usize;
                    let widx = addr * lanes + l;
                    self.bank_mem[i][widx] = mask(self.bank_op_wdata[o], width);
                    self.bank_waddr[o] = (self.bank_waddr[o] + 1) % words;
                    if let Some(p) = &mut self.bank_parity[i] {
                        p[widx] = (self.bank_mem[i][widx].count_ones() & 1) as u8;
                    }
                }
            }
        }
        // Post-commit faults: transient flips corrupt just-committed state
        // on their lanes without touching parity bookkeeping.
        if let Some(f) = &mut self.faults {
            f.cycle += 1;
            let now = f.cycle;
            for fl in &f.flips {
                if fl.flip.cycle == now {
                    self.values[fl.flip.slot * lanes + fl.lane as usize] ^= fl.flip.xor;
                }
            }
            for bf in &f.bank_flips {
                if bf.flip.cycle == now {
                    self.bank_mem[bf.flip.bank][bf.flip.word * lanes + bf.lane as usize] ^=
                        bf.flip.xor;
                }
            }
        }
        self.dirty = true;
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::elaborate;
    use crate::netlist::{Expr, Module};

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
