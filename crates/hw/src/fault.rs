//! Deterministic fault injection and hardened hardware variants.
//!
//! This module is the substrate for resilience evaluation of generated
//! accelerators. It has two halves:
//!
//! 1. **Fault injection** — a seeded, reproducible fault model executed by
//!    the [`crate::interp::Interpreter`] on *both* evaluation engines
//!    (compiled bytecode and tree-walking). Supported fault kinds:
//!    permanent stuck-at-0/1 on any named net bit, single-cycle transient
//!    bit flips in registers, single-shot bit flips in scratchpad bank
//!    words, and dropped register transitions (a register misses one clock
//!    edge — the model for a controller FSM failing to advance).
//! 2. **Hardening generators** — netlist-level TMR majority voting for the
//!    controller FSM ([`build_tmr_controller`]), parity protection on
//!    scratchpad banks ([`crate::mem::MemBank::with_parity`]), and
//!    algorithm-based fault tolerance (ABFT) checksum augmentation for
//!    GEMM-shaped kernels, all selected through [`Hardening`] in
//!    [`crate::design::HwConfig`].
//!
//! Fault timing is defined against [`crate::interp::Interpreter::step`]
//! calls made *after* [`crate::interp::Interpreter::attach_faults`]: the
//! first step is cycle 1. A transient flip scheduled at cycle `c` is applied
//! to the committed state of the `c`-th step (visible to peeks after that
//! step returns); a dropped transition at cycle `c` suppresses the target
//! register's commit on the `c`-th step; stuck-at faults force their bit on
//! every combinational settle from attach onward.
//!
//! Everything here is pay-for-use: an interpreter with no faults attached
//! runs the identical hot path plus one pointer test per settle/step
//! (mirroring the trace layer), which perfgate holds under its overhead
//! ceiling.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::ctrl::{build_controller, CtrlPhases};
use crate::interp::FlatDesign;
use crate::netlist::{BinOp, Expr, Module, NetId};

/// One kind of injected hardware fault. See the module docs for the exact
/// timing semantics of each variant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Permanently force one bit of the target net to `value`.
    StuckAt {
        /// Bit position within the net.
        bit: u32,
        /// The forced level.
        value: bool,
    },
    /// Flip one bit of a register's committed value at one cycle. The
    /// target must be a register (the flip must persist into state; a
    /// combinational net would just be recomputed).
    TransientFlip {
        /// Bit position within the register.
        bit: u32,
        /// The cycle (1-based, counted from attach) whose commit is
        /// corrupted.
        cycle: u64,
    },
    /// Flip one bit of one stored word of a scratchpad bank at one cycle.
    /// The target names the bank instance (hierarchical, e.g.
    /// `bank_0_a_feed0`); the word index addresses the bank's full storage
    /// (both buffers for a double-buffered bank).
    BankFlip {
        /// Word index into the bank's storage.
        word: usize,
        /// Bit position within the word.
        bit: u32,
        /// The cycle (1-based) at which the stored word is corrupted.
        cycle: u64,
    },
    /// Suppress the target register's commit for one cycle (it holds its
    /// previous value — a dropped FSM phase transition when aimed at a
    /// controller `state` register).
    DropTransition {
        /// The cycle (1-based) whose commit is dropped.
        cycle: u64,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::StuckAt { bit, value } => {
                write!(f, "stuck-at-{} bit {bit}", u8::from(*value))
            }
            FaultKind::TransientFlip { bit, cycle } => {
                write!(f, "transient flip bit {bit} @ cycle {cycle}")
            }
            FaultKind::BankFlip { word, bit, cycle } => {
                write!(f, "bank flip word {word} bit {bit} @ cycle {cycle}")
            }
            FaultKind::DropTransition { cycle } => {
                write!(f, "dropped transition @ cycle {cycle}")
            }
        }
    }
}

/// One injected fault: a target (hierarchical net name, or bank instance
/// name for [`FaultKind::BankFlip`]) plus the fault kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Hierarchical net name (or bank instance name for bank faults).
    /// Shared, not owned: [`enumerate_sites`] makes one string per fault
    /// site, and every fault sampled there, its [`FaultSpec::shifted`]
    /// copies and every campaign outcome that records it point at that
    /// string, so cloning a fault copies a pointer. It serializes as the
    /// plain string.
    pub target: Arc<str>,
    /// What happens to the target.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// A permanent stuck-at fault on `target`'s bit `bit`.
    pub fn stuck_at(target: impl Into<Arc<str>>, bit: u32, value: bool) -> FaultSpec {
        FaultSpec {
            target: target.into(),
            kind: FaultKind::StuckAt { bit, value },
        }
    }

    /// A single-cycle transient flip of a register bit.
    pub fn flip(target: impl Into<Arc<str>>, bit: u32, cycle: u64) -> FaultSpec {
        FaultSpec {
            target: target.into(),
            kind: FaultKind::TransientFlip { bit, cycle },
        }
    }

    /// A single-shot flip of one stored scratchpad word bit.
    pub fn bank_flip(bank: impl Into<Arc<str>>, word: usize, bit: u32, cycle: u64) -> FaultSpec {
        FaultSpec {
            target: bank.into(),
            kind: FaultKind::BankFlip { word, bit, cycle },
        }
    }

    /// A dropped register transition (the register holds for one cycle).
    pub fn drop_transition(target: impl Into<Arc<str>>, cycle: u64) -> FaultSpec {
        FaultSpec {
            target: target.into(),
            kind: FaultKind::DropTransition { cycle },
        }
    }

    /// The cycle a timed fault fires on; `None` for a stuck-at, which is
    /// live from attach.
    pub fn cycle(&self) -> Option<u64> {
        match self.kind {
            FaultKind::StuckAt { .. } => None,
            FaultKind::TransientFlip { cycle, .. }
            | FaultKind::BankFlip { cycle, .. }
            | FaultKind::DropTransition { cycle } => Some(cycle),
        }
    }

    /// The same fault for a run attached `steps` cycles later: a timed
    /// fault's cycle moves `steps` earlier, so it still fires on the same
    /// clock edge of the run. A stuck-at is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `steps > 0` and a timed fault would fire at or before the
    /// attach (`cycle <= steps`): the skipped steps would have seen it.
    pub fn shifted(&self, steps: u64) -> FaultSpec {
        let mut kind = self.kind.clone();
        if let FaultKind::TransientFlip { cycle, .. }
        | FaultKind::BankFlip { cycle, .. }
        | FaultKind::DropTransition { cycle } = &mut kind
        {
            assert!(
                steps == 0 || steps < *cycle,
                "{self} cannot start after {steps} steps"
            );
            *cycle -= steps;
        }
        FaultSpec {
            target: self.target.clone(),
            kind,
        }
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.target, self.kind)
    }
}

/// A permanent bit force, resolved to a value slot (see
/// [`crate::interp::Interpreter::attach_faults`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StuckForce {
    /// The (alias-resolved) value slot to force.
    pub(crate) slot: u32,
    /// OR-ed into the slot (stuck-at-1).
    pub(crate) or_mask: u64,
    /// AND-ed into the slot (stuck-at-0; `u64::MAX` for stuck-at-1).
    pub(crate) and_mask: u64,
}

/// A scheduled one-cycle register-bit flip, resolved to a value slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotFlip {
    pub(crate) cycle: u64,
    pub(crate) slot: usize,
    pub(crate) xor: u64,
}

/// A scheduled one-shot bank-word-bit flip, resolved to storage indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BankWordFlip {
    pub(crate) cycle: u64,
    pub(crate) bank: usize,
    pub(crate) word: usize,
    pub(crate) xor: u64,
}

/// A scheduled dropped register transition, resolved to a register index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegHold {
    pub(crate) cycle: u64,
    /// Index into `FlatDesign::regs` (the commit-order namespace).
    pub(crate) reg: usize,
    /// The register's target value slot.
    pub(crate) target: usize,
}

/// Resolved fault-injection state attached to an interpreter. Carries its
/// own cycle counter (cycle 1 = the first step after attach).
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    pub(crate) specs: Vec<FaultSpec>,
    pub(crate) stuck: Vec<StuckForce>,
    pub(crate) flips: Vec<SlotFlip>,
    pub(crate) bank_flips: Vec<BankWordFlip>,
    pub(crate) holds: Vec<RegHold>,
    pub(crate) cycle: u64,
}

impl FaultState {
    /// The original fault specs, in attach order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Cycles stepped since the faults were attached.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

/// Hardening options applied at generation time (see
/// [`crate::design::HwConfig::hardening`]). Each option is pay-for-use: the
/// unhardened design is bit-identical to pre-hardening generation, and each
/// enabled option's area/power overhead is carried in the
/// [`crate::design::ResourceSummary`] so the cost models price it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub struct Hardening {
    /// Triplicate the controller FSM with per-output majority voting and a
    /// `tmr_mismatch` detection output on the top module.
    pub tmr_ctrl: bool,
    /// Add one parity bit per scratchpad word, checked behaviourally on
    /// every read (sticky per-bank error counters).
    pub parity_banks: bool,
    /// ABFT checksum row/column augmentation for GEMM-shaped kernels: one
    /// extra checksum row, column, and corner PE worth of compute, with
    /// software-side row/column-sum verification in the campaign runner.
    pub abft: bool,
}

impl Hardening {
    /// No hardening (the default).
    pub fn none() -> Hardening {
        Hardening::default()
    }

    /// Every hardening option enabled.
    pub fn full() -> Hardening {
        Hardening {
            tmr_ctrl: true,
            parity_banks: true,
            abft: true,
        }
    }

    /// `true` if any option is enabled.
    pub fn is_any(&self) -> bool {
        self.tmr_ctrl || self.parity_banks || self.abft
    }

    /// A short name suffix, e.g. `+tmr+par+abft` (empty when unhardened).
    pub fn suffix(&self) -> String {
        let mut s = String::new();
        if self.tmr_ctrl {
            s.push_str("+tmr");
        }
        if self.parity_banks {
            s.push_str("+par");
        }
        if self.abft {
            s.push_str("+abft");
        }
        s
    }

    /// Parses a comma-separated option list: `tmr`, `parity`, `abft`,
    /// `none`, `full` (e.g. `tmr,parity`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown option.
    pub fn parse(s: &str) -> Result<Hardening, String> {
        let mut h = Hardening::none();
        for opt in s.split(',').map(str::trim).filter(|o| !o.is_empty()) {
            match opt {
                "tmr" => h.tmr_ctrl = true,
                // `par` is the display/suffix form; accept both so every
                // rendered Hardening parses back.
                "parity" | "par" => h.parity_banks = true,
                "abft" => h.abft = true,
                "full" => h = Hardening::full(),
                "none" => h = Hardening::none(),
                other => {
                    return Err(format!(
                        "unknown hardening option {other:?} (expected tmr, parity, abft, none, or full)"
                    ))
                }
            }
        }
        Ok(h)
    }
}

impl std::fmt::Display for Hardening {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_any() {
            write!(f, "{}", self.suffix().trim_start_matches('+').replace('+', ","))
        } else {
            write!(f, "none")
        }
    }
}

/// The controller outputs replicated and voted by TMR.
const CTRL_OUTPUTS: [&str; 6] = ["en", "load_en", "phase", "swap", "drain_en", "done"];

/// Gate-bit equivalents of the TMR voting/detection logic (per the wrapper
/// built by [`build_tmr_controller`]): six voted outputs at 3 AND + 2 OR
/// gates each, six pairwise-divergence detectors at 2 XOR + 1 OR each, and
/// a 5-gate OR reduction onto `tmr_mismatch`. Folded into the resource
/// summary's mux-bit census so the cost models price the voters.
pub const TMR_VOTER_GATE_BITS: u64 = 6 * 5 + 6 * 3 + 5;

/// Builds a TMR-hardened controller: three replicas of the plain
/// [`build_controller`] FSM behind per-output majority voters, plus a
/// `tmr_mismatch` output that goes high whenever any replica diverges from
/// replica 0 on any output.
///
/// Returns `[replica, wrapper]`; the wrapper is named `name` and exposes the
/// plain controller's port list plus `tmr_mismatch`, so it drops into the
/// top-level wiring unchanged. The wrapper itself holds no registers — the
/// triplicated state lives in the replicas (`{name}_rep`).
///
/// A single upset in one replica's FSM state is *masked* at the voted
/// outputs (the other two replicas out-vote it) and *detected* on
/// `tmr_mismatch` for as long as the replicas disagree.
///
/// # Panics
///
/// Panics if `phases.compute_cycles == 0` (propagated from
/// [`build_controller`]).
pub fn build_tmr_controller(name: &str, phases: &CtrlPhases) -> Vec<Module> {
    let rep_name = format!("{name}_rep");
    let rep = build_controller(&rep_name, phases);

    let mut m = Module::new(name);
    let start = m.input("start", 1);
    // Instantiate the three replicas, each fanning its outputs onto private
    // nets.
    let mut rep_outs = [[0 as NetId; CTRL_OUTPUTS.len()]; 3];
    for (r, outs) in rep_outs.iter_mut().enumerate() {
        let mut conns = vec![("start".to_string(), start)];
        for (oi, o) in CTRL_OUTPUTS.iter().enumerate() {
            let n = m.net(format!("{o}_r{r}"), 1);
            outs[oi] = n;
            conns.push(((*o).to_string(), n));
        }
        m.instance(rep_name.clone(), format!("u{r}"), conns);
    }

    let bin = |op: BinOp, a: Expr, b: Expr| Expr::Bin(op, Box::new(a), Box::new(b));
    let mut mismatch = None;
    for (oi, o) in CTRL_OUTPUTS.iter().enumerate() {
        let [a, b, c] = [rep_outs[0][oi], rep_outs[1][oi], rep_outs[2][oi]];
        // Majority vote: (a & b) | (a & c) | (b & c).
        let maj = bin(
            BinOp::Or,
            bin(
                BinOp::Or,
                bin(BinOp::And, Expr::net(a), Expr::net(b)),
                bin(BinOp::And, Expr::net(a), Expr::net(c)),
            ),
            bin(BinOp::And, Expr::net(b), Expr::net(c)),
        );
        let out = m.output(*o, 1);
        m.assign(out, maj);
        // Divergence detector: (a ^ b) | (a ^ c).
        let diverge = bin(
            BinOp::Or,
            bin(BinOp::Xor, Expr::net(a), Expr::net(b)),
            bin(BinOp::Xor, Expr::net(a), Expr::net(c)),
        );
        mismatch = Some(match mismatch {
            None => diverge,
            Some(acc) => bin(BinOp::Or, acc, diverge),
        });
    }
    let mm = m.output("tmr_mismatch", 1);
    m.assign(mm, mismatch.expect("at least one voted output"));

    vec![rep, m]
}

/// The injectable fault sites of one elaborated design, enumerated in
/// deterministic (elaboration) order for seeded campaign sampling. Each
/// site's name is allocated once: the faults [`sample_faults`] draws share
/// it.
#[derive(Debug, Clone, Default)]
pub struct FaultSites {
    /// `(hierarchical net name, width)` of every register target.
    pub regs: Vec<(Arc<str>, u32)>,
    /// `(bank instance name, total storage words, word width)` of every
    /// behavioural bank (both buffers counted for double-buffered banks).
    pub banks: Vec<(Arc<str>, usize, u32)>,
    /// Register nets whose leaf name is `state` — controller FSM state (and
    /// its TMR replicas), the targets for dropped-transition faults. Each
    /// shares its name with its entry in `regs`.
    pub ctrl_states: Vec<Arc<str>>,
}

impl FaultSites {
    /// `true` when the design exposes no injectable site at all.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty() && self.banks.is_empty() && self.ctrl_states.is_empty()
    }
}

/// Enumerates every injectable fault site of `flat`: register targets
/// (transient flips, stuck-ats, dropped transitions on FSM state) and bank
/// storage words (bank flips). Order follows elaboration order, so site
/// lists — and therefore seeded campaigns — are deterministic for a given
/// design.
pub fn enumerate_sites(flat: &FlatDesign) -> FaultSites {
    let mut sites = FaultSites::default();
    let nets = flat.nets();
    for r in flat.regs() {
        let n = &nets[r.target];
        let name: Arc<str> = n.name.as_str().into();
        if n.name == "state" || n.name.ends_with(".state") {
            sites.ctrl_states.push(name.clone());
        }
        sites.regs.push((name, n.width));
    }
    for b in flat.flat_banks() {
        let mult = if b.spec.is_double_buffered() { 2 } else { 1 };
        sites
            .banks
            .push((b.name.as_str().into(), (b.spec.words() * mult) as usize, b.spec.width()));
    }
    sites
}

/// Draws `count` faults over `sites` from a seeded [`SplitMix64`] stream.
/// Cycles are drawn uniformly from `1..=max_cycle`; the mix of kinds adapts
/// to which site categories exist. Identical `(sites, count, seed,
/// max_cycle)` always produce the identical fault list.
pub fn sample_faults(sites: &FaultSites, count: usize, seed: u64, max_cycle: u64) -> Vec<FaultSpec> {
    let mut rng = SplitMix64::new(seed);
    let max_cycle = max_cycle.max(1);
    // Kind menu: transient flips are the common case, so they get two
    // entries; the rest one each (when their sites exist).
    let mut kinds: Vec<u8> = Vec::new();
    if !sites.regs.is_empty() {
        kinds.extend([0, 0, 1]);
    }
    if !sites.banks.is_empty() {
        kinds.push(2);
    }
    if !sites.ctrl_states.is_empty() {
        kinds.push(3);
    }
    if kinds.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = kinds[rng.below(kinds.len() as u64) as usize];
        let cycle = 1 + rng.below(max_cycle);
        out.push(match kind {
            0 => {
                let (name, w) = &sites.regs[rng.below(sites.regs.len() as u64) as usize];
                FaultSpec::flip(name.clone(), rng.below(u64::from(*w)) as u32, cycle)
            }
            1 => {
                let (name, w) = &sites.regs[rng.below(sites.regs.len() as u64) as usize];
                FaultSpec::stuck_at(
                    name.clone(),
                    rng.below(u64::from(*w)) as u32,
                    rng.next_u64() & 1 == 1,
                )
            }
            2 => {
                let (name, words, w) = &sites.banks[rng.below(sites.banks.len() as u64) as usize];
                FaultSpec::bank_flip(
                    name.clone(),
                    rng.below(*words as u64) as usize,
                    rng.below(u64::from(*w)) as u32,
                    cycle,
                )
            }
            _ => {
                let name =
                    &sites.ctrl_states[rng.below(sites.ctrl_states.len() as u64) as usize];
                FaultSpec::drop_transition(name.clone(), cycle)
            }
        });
    }
    out
}

/// The shared deterministic PRNG used for fault sampling, re-exported from
/// [`tensorlib_linalg::rng`] (its output stream is golden-vector-pinned
/// there) so existing `fault::SplitMix64` imports keep working.
pub use tensorlib_linalg::rng::SplitMix64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{elaborate, Interpreter};

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64::new(43);
        let c: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_ne!(a, c, "different seeds diverge");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "no trivial repeats");
    }

    #[test]
    fn hardening_parse_suffix_roundtrip() {
        assert_eq!(Hardening::parse("").unwrap(), Hardening::none());
        assert_eq!(Hardening::parse("none").unwrap(), Hardening::none());
        assert_eq!(Hardening::parse("full").unwrap(), Hardening::full());
        let h = Hardening::parse("tmr, parity").unwrap();
        assert!(h.tmr_ctrl && h.parity_banks && !h.abft);
        assert_eq!(h.suffix(), "+tmr+par");
        assert_eq!(Hardening::full().suffix(), "+tmr+par+abft");
        assert_eq!(Hardening::none().suffix(), "");
        assert!(Hardening::parse("voodoo").unwrap_err().contains("voodoo"));
        assert_eq!(Hardening::full().to_string(), "tmr,par,abft");
        assert_eq!(Hardening::none().to_string(), "none");
        // Every rendered form parses back to itself.
        for h in [
            Hardening::none(),
            Hardening::full(),
            Hardening { tmr_ctrl: false, parity_banks: true, abft: false },
            Hardening { tmr_ctrl: true, parity_banks: false, abft: true },
        ] {
            assert_eq!(Hardening::parse(&h.to_string()).unwrap(), h, "{h}");
        }
    }

    #[test]
    fn tmr_controller_validates_and_matches_plain_outputs() {
        let phases = CtrlPhases {
            load_cycles: 2,
            compute_cycles: 5,
            drain_cycles: 2,
        };
        let plain = build_controller("ctrl", &phases);
        let tmr = build_tmr_controller("ctrl_tmr", &phases);
        for m in &tmr {
            m.validate().unwrap();
        }
        assert_eq!(tmr[1].reg_bits(), 0, "wrapper holds no state of its own");

        let mut a = Interpreter::new(elaborate(&[plain], &[], "ctrl").unwrap());
        let mut b = Interpreter::new(elaborate(&tmr, &[], "ctrl_tmr").unwrap());
        a.poke("start", 1);
        b.poke("start", 1);
        for cycle in 0..2 * phases.total() {
            a.step();
            b.step();
            for o in CTRL_OUTPUTS {
                assert_eq!(a.peek(o), b.peek(o), "output {o} diverged at cycle {cycle}");
            }
            assert_eq!(b.peek("tmr_mismatch"), 0, "replicas agree fault-free");
        }
    }

    #[test]
    fn tmr_masks_and_detects_a_dropped_replica_transition() {
        let phases = CtrlPhases {
            load_cycles: 2,
            compute_cycles: 5,
            drain_cycles: 2,
        };
        let tmr = build_tmr_controller("ctmr", &phases);
        let flat = elaborate(&tmr, &[], "ctmr").unwrap();
        for compiled in [true, false] {
            let mut golden = Interpreter::new(flat.clone());
            let mut faulty = if compiled {
                Interpreter::new(flat.clone())
            } else {
                Interpreter::new_tree_walking(flat.clone())
            };
            // Replica 0 misses the idle->busy transition.
            faulty
                .attach_faults(&[FaultSpec::drop_transition("u0.state", 1)])
                .unwrap();
            golden.poke("start", 1);
            faulty.poke("start", 1);
            let mut mismatch_seen = false;
            for cycle in 0..2 * phases.total() {
                golden.step();
                faulty.step();
                for o in CTRL_OUTPUTS {
                    assert_eq!(
                        golden.peek(o),
                        faulty.peek(o),
                        "voted output {o} corrupted at cycle {cycle} (compiled={compiled})"
                    );
                }
                mismatch_seen |= faulty.peek("tmr_mismatch") == 1;
            }
            assert!(mismatch_seen, "divergent replica must be detected");
        }
    }

    #[test]
    fn sampled_faults_are_seed_deterministic_and_in_range() {
        let phases = CtrlPhases {
            load_cycles: 0,
            compute_cycles: 4,
            drain_cycles: 0,
        };
        let ctrl = build_controller("c", &phases);
        let flat = elaborate(&[ctrl], &[], "c").unwrap();
        let sites = enumerate_sites(&flat);
        assert!(!sites.regs.is_empty());
        assert_eq!(sites.ctrl_states, vec![Arc::from("state")]);
        let a = sample_faults(&sites, 32, 7, 20);
        let b = sample_faults(&sites, 32, 7, 20);
        assert_eq!(a, b, "same seed, same campaign");
        let c = sample_faults(&sites, 32, 8, 20);
        assert_ne!(a, c, "seed changes the campaign");
        for f in &a {
            match &f.kind {
                FaultKind::TransientFlip { cycle, .. }
                | FaultKind::BankFlip { cycle, .. }
                | FaultKind::DropTransition { cycle } => {
                    assert!((1..=20).contains(cycle));
                }
                FaultKind::StuckAt { .. } => {}
            }
        }
    }

    #[test]
    fn empty_sites_sample_nothing() {
        let m = Module::new("empty");
        let flat = elaborate(&[m], &[], "empty").unwrap();
        let sites = enumerate_sites(&flat);
        assert!(sites.is_empty());
        assert!(sample_faults(&sites, 10, 1, 10).is_empty());
    }
}
