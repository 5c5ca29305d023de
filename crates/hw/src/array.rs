//! PE-array assembly: interconnect patterns per tensor dataflow (Figure 4).
//!
//! - **Systolic** tensors chain neighbouring PEs along the spatial reuse
//!   vector `dp`; boundary PEs get feed ports (inputs) or drain ports
//!   (outputs).
//! - **Multicast** inputs fan one bank port out to every PE on a line along
//!   `dp` (rows, columns, or diagonals — the diagonal case is Eyeriss').
//! - **Reduction-tree** outputs sum each line's products in a log-depth
//!   pipelined adder tree.
//! - **Stationary** tensors are loaded through shift chains (plain
//!   stationary) or line multicast (multicast+stationary), double-buffered
//!   inside the PE.
//! - **Unicast** tensors give every PE its own memory port.

use std::fmt;

use serde::Serialize;
use tensorlib_dataflow::{FlowClass, TensorFlow};

use crate::netlist::{Expr, Module};
use crate::pe::{PeIoKind, PeSpec};

/// PE-array dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ArrayConfig {
    /// Rows (first spatial coordinate `p1`).
    pub rows: usize,
    /// Columns (second spatial coordinate `p2`).
    pub cols: usize,
}

impl ArrayConfig {
    /// A square array.
    pub fn square(n: usize) -> ArrayConfig {
        ArrayConfig { rows: n, cols: n }
    }

    /// Total PE count.
    pub fn pes(&self) -> usize {
        self.rows * self.cols
    }
}

impl Default for ArrayConfig {
    fn default() -> ArrayConfig {
        ArrayConfig::square(16)
    }
}

/// Hardware-generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwError {
    /// A reuse vector steps farther than one PE per hop; the interconnect
    /// templates wire nearest neighbours and diagonals only.
    NonNeighborReuse {
        /// The offending tensor.
        tensor: String,
        /// Its spatial step.
        dp: [i64; 2],
    },
    /// Array dimensions must be positive.
    EmptyArray,
    /// A bank index beyond the elaborated design's bank list.
    NoSuchBank {
        /// The requested bank index.
        bank: usize,
        /// How many banks the design has.
        banks: usize,
    },
    /// More words than a bank can hold.
    BankOverflow {
        /// The bank index.
        bank: usize,
        /// Total storage words (both buffers for a double-buffered bank).
        capacity: usize,
        /// Words offered.
        given: usize,
    },
    /// A trace configuration watches a net the design does not have.
    UnknownNet {
        /// The missing hierarchical net name.
        net: String,
    },
    /// A fault spec addresses a bit outside the target net's width.
    FaultBitOutOfRange {
        /// The hierarchical net name.
        net: String,
        /// The requested bit position.
        bit: u32,
        /// The net's actual width.
        width: u32,
    },
    /// A fault kind that only applies to registers was aimed at a
    /// combinational net.
    NotARegister {
        /// The hierarchical net name.
        net: String,
    },
    /// A bank-word fault addresses a word beyond the bank's storage.
    FaultWordOutOfRange {
        /// The hierarchical bank instance name.
        bank: String,
        /// The requested word index.
        word: usize,
        /// Total storage words (both buffers for a double-buffered bank).
        capacity: usize,
    },
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::NonNeighborReuse { tensor, dp } => write!(
                f,
                "tensor {tensor:?} has reuse step ({}, {}); only |step| <= 1 per axis is wireable",
                dp[0], dp[1]
            ),
            HwError::EmptyArray => write!(f, "PE array dimensions must be positive"),
            HwError::NoSuchBank { bank, banks } => {
                write!(f, "no bank {bank}: design has {banks} banks")
            }
            HwError::BankOverflow {
                bank,
                capacity,
                given,
            } => write!(
                f,
                "bank {bank} holds {capacity} words but load_bank was given {given} words"
            ),
            HwError::UnknownNet { net } => {
                write!(f, "no net {net:?} to trace")
            }
            HwError::FaultBitOutOfRange { net, bit, width } => {
                write!(f, "fault targets bit {bit} of {net:?} but the net is {width} bits wide")
            }
            HwError::NotARegister { net } => {
                write!(f, "fault kind requires a register target but {net:?} is combinational")
            }
            HwError::FaultWordOutOfRange { bank, word, capacity } => {
                write!(f, "fault targets word {word} of bank {bank:?} which holds {capacity} words")
            }
        }
    }
}

impl std::error::Error for HwError {}

/// The role a top-level array port plays, used by memory generation to bank
/// and connect the scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PortKind {
    /// Streams one word per cycle into a systolic chain head.
    SystolicFeed,
    /// Broadcast to a multicast line.
    Multicast,
    /// Per-PE unicast stream.
    Unicast,
    /// Fill port for a stationary load chain or load-multicast line.
    StationaryLoad,
    /// Partial-sum exit of a systolic output chain.
    SystolicDrain,
    /// Root of a reduction tree.
    ReduceSum,
    /// Drain port of a stationary-output chain.
    StationaryDrain,
    /// Per-PE unicast result.
    UnicastOut,
}

impl PortKind {
    /// `true` if the port carries data into the array.
    pub fn is_input(self) -> bool {
        matches!(
            self,
            PortKind::SystolicFeed
                | PortKind::Multicast
                | PortKind::Unicast
                | PortKind::StationaryLoad
        )
    }
}

/// One top-level data port of the generated array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ArrayPort {
    /// Which tensor it serves.
    pub tensor: String,
    /// Its role.
    pub kind: PortKind,
    /// Port net name in the array module.
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// How many PEs observe this port combinationally (1 for chains).
    pub fanout: usize,
}

/// Which PE lines one tensor's ports serve, one port per line, in
/// [`PortLines::lines`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortLines {
    /// The maximal lines along a direction ([`direction_lines`]).
    Along([i64; 2]),
    /// One line holding every PE, row-major.
    Whole,
    /// One single-PE line per PE, row-major.
    PerPe,
}

impl PortLines {
    /// Each line's first PE and length on a `rows × cols` grid, in line
    /// order (row-major by first PE), without materializing the lines.
    ///
    /// # Panics
    ///
    /// Panics on `Along([0, 0])` or a direction stepping more than one PE
    /// per axis.
    pub fn spans(self, rows: usize, cols: usize) -> impl Iterator<Item = ((usize, usize), usize)> {
        if let PortLines::Along(dp) = self {
            assert!(dp != [0, 0], "direction must be nonzero");
            assert!(
                dp[0].abs() <= 1 && dp[1].abs() <= 1,
                "direction must step at most one PE per axis"
            );
        }
        (0..rows).flat_map(move |r| {
            self.starts_in_row(r, rows, cols)
                .map(move |c| ((r, c), self.span_len(r, c, rows, cols)))
        })
    }

    /// The columns of row `r` where a line starts.
    fn starts_in_row(self, r: usize, rows: usize, cols: usize) -> std::ops::Range<usize> {
        match self {
            // A cell starts a line when the step back from it leaves the
            // grid: every cell of the first row along the direction, else
            // the first column along it.
            PortLines::Along([dr, dc]) => {
                let first_row = match dr {
                    1 => r == 0,
                    -1 => r + 1 == rows,
                    _ => false,
                };
                match (first_row, dc) {
                    (true, _) => 0..cols,
                    (false, 1) => 0..1,
                    (false, -1) => cols - 1..cols,
                    _ => 0..0,
                }
            }
            PortLines::Whole if r == 0 => 0..1,
            PortLines::Whole => 0..0,
            PortLines::PerPe => 0..cols,
        }
    }

    /// Length of the line starting at `(r, c)`.
    fn span_len(self, r: usize, c: usize, rows: usize, cols: usize) -> usize {
        match self {
            PortLines::Along([dr, dc]) => {
                let steps = |d: i64, i: usize, n: usize| match d {
                    1 => n - i,
                    -1 => i + 1,
                    _ => usize::MAX,
                };
                steps(dr, r, rows).min(steps(dc, c, cols))
            }
            PortLines::Whole => rows * cols,
            PortLines::PerPe => 1,
        }
    }

    /// The PE lines of a `rows × cols` grid: each span walked in order.
    pub fn lines(self, rows: usize, cols: usize) -> Vec<Vec<(usize, usize)>> {
        self.spans(rows, cols)
            .map(|((r, c), len)| match self {
                PortLines::Along(dp) => (0..len as i64)
                    .map(|i| {
                        (
                            (r as i64 + i * dp[0]) as usize,
                            (c as i64 + i * dp[1]) as usize,
                        )
                    })
                    .collect(),
                PortLines::Whole => (0..len).map(|i| (i / cols, i % cols)).collect(),
                PortLines::PerPe => vec![(r, c)],
            })
            .collect()
    }
}

/// How a port connects to the PEs of its line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortWiring {
    /// A shift chain through the line: an input port feeds its head, an
    /// output port drains its tail (output chains start from zero).
    Chain,
    /// An input port drives every PE of its line combinationally; an output
    /// port reads its line's single PE.
    Fanout,
    /// A pipelined reduction tree sums the line into the port.
    Tree,
}

/// How a group's port names are formed from its tensor's lowercased name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortStem {
    /// `{tensor}_{stem}{line}`: numbered in line order.
    Line(&'static str),
    /// `{tensor}_bc`: the one port of a full-array broadcast.
    Broadcast,
    /// `{tensor}_u_r{r}c{c}` for inputs, `{tensor}_o_r{r}c{c}` for outputs:
    /// one port per PE, named by grid position.
    Grid,
}

/// One tensor's share of the [`ArrayCatalog`]: its ports, one per line,
/// which share a tensor, role, width and naming scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortGroup {
    /// Which tensor the ports serve.
    pub tensor: String,
    /// Their role.
    pub kind: PortKind,
    /// Their width in bits.
    pub width: u32,
    /// How they are named.
    pub stem: PortStem,
    /// The PE lines they serve.
    pub lines: PortLines,
    /// How each port meets its line.
    pub wiring: PortWiring,
    /// Their indices in catalog port order.
    pub ports: std::ops::Range<usize>,
}

impl PortGroup {
    /// How many PEs observe the port of a line of `len` PEs.
    fn fanout(&self, len: usize) -> usize {
        match self.wiring {
            PortWiring::Chain => 1,
            PortWiring::Fanout | PortWiring::Tree => len,
        }
    }

    /// The name of the port serving line `li`, which starts at PE
    /// `(r, c)`; `lo` is the lowercased tensor name.
    fn port_name(&self, lo: &str, li: usize, (r, c): (usize, usize)) -> String {
        match self.stem {
            PortStem::Line(stem) => format!("{lo}_{stem}{li}"),
            PortStem::Broadcast => format!("{lo}_bc"),
            PortStem::Grid => {
                let io = if self.kind.is_input() { "u" } else { "o" };
                format!("{lo}_{io}_r{r}c{c}")
            }
        }
    }
}

/// What the resource census and the cost models read of one array port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortShape {
    /// Its role.
    pub kind: PortKind,
    /// Width in bits.
    pub width: u32,
    /// How many PEs observe it combinationally (1 for chains).
    pub fanout: usize,
}

/// A reduction-tree module the array instantiates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeSpec {
    /// Module name.
    pub name: String,
    /// Summed inputs.
    pub inputs: usize,
    /// Operand width in bits.
    pub width: u32,
}

/// The array's interface and reduction-tree census, derived from the flows
/// alone: everything the cost and cycle models read about the array, and
/// the plan [`build_array`] wires the netlist from.
///
/// Ports are described per group, not one by one: nothing here names a
/// port. [`ArrayCatalog::port_shapes`] walks the ports' shapes without
/// allocating, and [`ArrayCatalog::ports`] materializes the named ports for
/// the consumers that wire or drive them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayCatalog {
    /// The PE grid the lines lie on.
    pub grid: ArrayConfig,
    /// Port groups, one per flow (and PE spec entry), in flow order; their
    /// ports are numbered consecutively in this order.
    pub groups: Vec<PortGroup>,
    /// Distinct reduction-tree modules, in first-use order.
    pub trees: Vec<TreeSpec>,
    /// Total adders instantiated in reduction trees.
    pub tree_adders: u64,
    /// Total pipeline register bits in reduction trees.
    pub tree_reg_bits: u64,
}

impl ArrayCatalog {
    /// Number of top-level data ports.
    pub fn port_count(&self) -> usize {
        self.groups.last().map_or(0, |g| g.ports.end)
    }

    /// The group holding port `port` (an index in port order).
    ///
    /// # Panics
    ///
    /// Panics if `port` is not below [`ArrayCatalog::port_count`].
    pub fn group_of(&self, port: usize) -> &PortGroup {
        &self.groups[self.groups.partition_point(|g| g.ports.end <= port)]
    }

    /// Each port's shape, in port order.
    pub fn port_shapes(&self) -> impl Iterator<Item = PortShape> + '_ {
        let ArrayConfig { rows, cols } = self.grid;
        self.groups.iter().flat_map(move |g| {
            g.lines.spans(rows, cols).map(move |(_, len)| PortShape {
                kind: g.kind,
                width: g.width,
                fanout: g.fanout(len),
            })
        })
    }

    /// The top-level data ports' names, in port order.
    pub fn port_names(&self) -> Vec<String> {
        let ArrayConfig { rows, cols } = self.grid;
        let mut names = Vec::with_capacity(self.port_count());
        for g in &self.groups {
            let lo = g.tensor.to_lowercase();
            let lines = g.lines.spans(rows, cols).enumerate();
            names.extend(lines.map(|(li, (start, _))| g.port_name(&lo, li, start)));
        }
        names
    }

    /// The top-level data ports, named, in port order.
    pub fn ports(&self) -> Vec<ArrayPort> {
        let tensors = (self.groups.iter()).flat_map(|g| g.ports.clone().map(move |_| &g.tensor));
        (self.port_names().into_iter().zip(tensors).zip(self.port_shapes()))
            .map(|((name, tensor), p)| ArrayPort {
                tensor: tensor.clone(),
                kind: p.kind,
                name,
                width: p.width,
                fanout: p.fanout,
            })
            .collect()
    }

    /// Builds the reduction-tree modules the array instantiates.
    pub fn tree_modules(&self) -> Vec<Module> {
        self.trees
            .iter()
            .map(|t| build_reduce_tree(&t.name, t.inputs, t.width).0)
            .collect()
    }
}

/// Name of the reduction-tree module summing `inputs` values of tensor `lo`.
fn tree_name(array: &str, lo: &str, inputs: usize) -> String {
    format!("{array}_{lo}_tree{inputs}")
}

/// Enumerates the maximal lines of the `rows × cols` grid in direction `dp`
/// (each line is the ordered set of PEs a value visits). `dp` components must
/// be in `{-1, 0, 1}` and not both zero.
///
/// # Examples
///
/// ```
/// use tensorlib_hw::array::direction_lines;
/// // Column direction on a 2x3 grid: 3 lines of 2.
/// let lines = direction_lines(2, 3, [1, 0]);
/// assert_eq!(lines.len(), 3);
/// assert_eq!(lines[0], vec![(0, 0), (1, 0)]);
/// // Diagonals: 2 + 3 - 1 = 4 lines.
/// assert_eq!(direction_lines(2, 3, [1, 1]).len(), 4);
/// ```
///
/// # Panics
///
/// Panics if `dp` is zero or steps more than one PE per axis.
pub fn direction_lines(rows: usize, cols: usize, dp: [i64; 2]) -> Vec<Vec<(usize, usize)>> {
    PortLines::Along(dp).lines(rows, cols)
}

/// Builds a pipelined binary reduction tree module summing `n` inputs of
/// `width` bits. One register level per adder level.
///
/// Returns the module plus `(adders, register bits)` for resource accounting.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn build_reduce_tree(name: &str, n: usize, width: u32) -> (Module, u64, u64) {
    assert!(n > 0, "reduction tree needs at least one input");
    let mut m = Module::new(name);
    let mut level: Vec<_> = (0..n).map(|i| m.input(format!("in{i}"), width)).collect();
    let sum = m.output("sum", width);
    let mut adders = 0u64;
    let mut reg_bits = 0u64;
    let mut lvl = 0;
    while level.len() > 1 {
        let mut next = Vec::new();
        let mut i = 0;
        while i < level.len() {
            if i + 1 < level.len() {
                let r = m.net(format!("l{lvl}_{}", i / 2), width);
                m.reg(r, Expr::net(level[i]).add(Expr::net(level[i + 1])), None, 0);
                adders += 1;
                reg_bits += width as u64;
                next.push(r);
                i += 2;
            } else {
                // Odd element: register it to stay aligned with the level's
                // pipeline latency.
                let r = m.net(format!("l{lvl}_{}", i / 2), width);
                m.reg(r, Expr::net(level[i]), None, 0);
                reg_bits += width as u64;
                next.push(r);
                i += 1;
            }
        }
        level = next;
        lvl += 1;
    }
    m.assign(sum, Expr::net(level[0]));
    (m, adders, reg_bits)
}

/// The spatial wiring direction each flow uses at the array level, if any.
fn wiring_dp(class: &FlowClass) -> Option<[i64; 2]> {
    match class {
        FlowClass::Systolic { dp, .. } => Some(*dp),
        FlowClass::Multicast { dp } | FlowClass::ReductionTree { dp } => Some(*dp),
        FlowClass::MulticastStationary { dp } => Some(*dp),
        FlowClass::SystolicMulticast { systolic_dp, .. } => Some(*systolic_dp),
        // Plain stationary loads through column chains by convention.
        FlowClass::Stationary { .. } => Some([1, 0]),
        _ => None,
    }
}

/// Enumerates the top-level ports and reduction trees of the array named
/// `name` for the given per-tensor flows, without building any netlist.
///
/// `pe_spec` must have one entry per flow, in the same order (use
/// [`crate::design::plan`] for the end-to-end path).
///
/// # Errors
///
/// Returns [`HwError::NonNeighborReuse`] if any tensor's spatial step exceeds
/// one PE per axis, or [`HwError::EmptyArray`] for a degenerate array.
pub fn array_catalog(
    name: &str,
    pe_spec: &PeSpec,
    flows: &[TensorFlow],
    cfg: &ArrayConfig,
) -> Result<ArrayCatalog, HwError> {
    if cfg.rows == 0 || cfg.cols == 0 {
        return Err(HwError::EmptyArray);
    }
    for f in flows {
        if let Some(dp) = wiring_dp(&f.class) {
            if dp[0].abs() > 1 || dp[1].abs() > 1 {
                return Err(HwError::NonNeighborReuse {
                    tensor: f.tensor.clone(),
                    dp,
                });
            }
        }
    }

    let w = pe_spec.datatype.bits();
    let acc_w = pe_spec.datatype.accumulator_bits();
    let mut catalog = ArrayCatalog {
        grid: *cfg,
        groups: Vec::with_capacity(flows.len()),
        trees: Vec::new(),
        tree_adders: 0,
        tree_reg_bits: 0,
    };
    let mut ports = 0;
    for (fi, f) in flows.iter().enumerate() {
        let (lines, wiring, kind, stem) = match pe_spec.tensors[fi].kind {
            PeIoKind::SystolicIn => (
                PortLines::Along(wiring_dp(&f.class).unwrap_or([1, 0])),
                PortWiring::Chain,
                PortKind::SystolicFeed,
                PortStem::Line("feed"),
            ),
            PeIoKind::SystolicOut => (
                PortLines::Along(wiring_dp(&f.class).unwrap_or([1, 0])),
                PortWiring::Chain,
                PortKind::SystolicDrain,
                PortStem::Line("drain"),
            ),
            // Stationary outputs drain down columns.
            PeIoKind::StationaryOut => (
                PortLines::Along([1, 0]),
                PortWiring::Chain,
                PortKind::StationaryDrain,
                PortStem::Line("drain"),
            ),
            PeIoKind::StationaryIn => match &f.class {
                // Load by line multicast (or full-array broadcast).
                FlowClass::MulticastStationary { dp } => (
                    PortLines::Along(*dp),
                    PortWiring::Fanout,
                    PortKind::StationaryLoad,
                    PortStem::Line("load"),
                ),
                FlowClass::FullReuse => (
                    PortLines::Whole,
                    PortWiring::Fanout,
                    PortKind::StationaryLoad,
                    PortStem::Line("load"),
                ),
                // Shift-chain load down columns.
                _ => (
                    PortLines::Along([1, 0]),
                    PortWiring::Chain,
                    PortKind::StationaryLoad,
                    PortStem::Line("load"),
                ),
            },
            PeIoKind::DirectIn => match &f.class {
                FlowClass::Multicast { dp } => (
                    PortLines::Along(*dp),
                    PortWiring::Fanout,
                    PortKind::Multicast,
                    PortStem::Line("mc"),
                ),
                FlowClass::Broadcast { .. } => (
                    PortLines::Whole,
                    PortWiring::Fanout,
                    PortKind::Multicast,
                    PortStem::Broadcast,
                ),
                // Unicast: a port per PE.
                _ => (
                    PortLines::PerPe,
                    PortWiring::Fanout,
                    PortKind::Unicast,
                    PortStem::Grid,
                ),
            },
            PeIoKind::ReduceOut => (
                // Broadcast-style outputs reduce whole rows.
                PortLines::Along(match &f.class {
                    FlowClass::ReductionTree { dp } => *dp,
                    _ => [0, 1],
                }),
                PortWiring::Tree,
                PortKind::ReduceSum,
                PortStem::Line("sum"),
            ),
            PeIoKind::DirectOut => (
                PortLines::PerPe,
                PortWiring::Fanout,
                PortKind::UnicastOut,
                PortStem::Grid,
            ),
        };
        // Inputs carry operands; outputs carry accumulators.
        let width = if kind.is_input() { w } else { acc_w };
        let first = ports;
        // One tree instance per line; one tree module (and name) per
        // distinct line length, in first-use order.
        let mut tree_lens: Vec<usize> = Vec::new();
        for (_, len) in lines.spans(cfg.rows, cfg.cols) {
            ports += 1;
            if wiring != PortWiring::Tree {
                continue;
            }
            catalog.tree_adders += (len as u64).saturating_sub(1);
            catalog.tree_reg_bits += tree_instance_reg_bits(len, width);
            if !tree_lens.contains(&len) {
                tree_lens.push(len);
                let tree = tree_name(name, &f.tensor.to_lowercase(), len);
                if !catalog.trees.iter().any(|t| t.name == tree) {
                    catalog.trees.push(TreeSpec {
                        name: tree,
                        inputs: len,
                        width,
                    });
                }
            }
        }
        catalog.groups.push(PortGroup {
            tensor: f.tensor.clone(),
            kind,
            width,
            stem,
            lines,
            wiring,
            ports: first..ports,
        });
    }
    Ok(catalog)
}

/// Assembles the PE array module named `name`, wiring the ports of
/// `catalog` (from [`array_catalog`] with the same arguments) to the PE
/// grid; `port_names` are the catalog's [`ArrayCatalog::port_names`], which
/// become the ports' nets. Reduction-tree modules come from
/// [`ArrayCatalog::tree_modules`].
#[allow(clippy::needless_range_loop)] // r/c are grid coordinates, not slice walks
pub fn build_array(
    name: &str,
    pe_spec: &PeSpec,
    flows: &[TensorFlow],
    cfg: &ArrayConfig,
    catalog: &ArrayCatalog,
    port_names: Vec<String>,
) -> Module {
    let w = pe_spec.datatype.bits();
    let acc_w = pe_spec.datatype.accumulator_bits();
    let mut m = Module::new(name);

    // Control inputs, fanned to every PE.
    let en = m.input("en", 1);
    let load_en = pe_spec.needs_load_phase().then(|| m.input("load_en", 1));
    let phase = pe_spec.needs_load_phase().then(|| m.input("phase", 1));
    let swap = pe_spec.needs_swap_drain().then(|| m.input("swap", 1));
    let drain_en = pe_spec.needs_swap_drain().then(|| m.input("drain_en", 1));

    // Per-PE, per-tensor nets for the PE's in/out ports.
    let pe_net = |m: &mut Module, t: &str, io: &str, r: usize, c: usize, width: u32| {
        m.net(format!("{t}_{io}_r{r}c{c}"), width)
    };
    let mut in_nets = vec![vec![Vec::new(); flows.len()]; cfg.rows]; // [r][flow] -> per col
    let mut out_nets = vec![vec![Vec::new(); flows.len()]; cfg.rows];
    for r in 0..cfg.rows {
        for (fi, f) in flows.iter().enumerate() {
            let lo = f.tensor.to_lowercase();
            let kind = pe_spec.tensors[fi].kind;
            let (iw, has_out) = match kind {
                PeIoKind::SystolicIn => (w, true),
                PeIoKind::StationaryIn => (w, true),
                PeIoKind::DirectIn => (w, false),
                PeIoKind::SystolicOut | PeIoKind::StationaryOut => (acc_w, true),
                PeIoKind::ReduceOut | PeIoKind::DirectOut => (acc_w, true),
            };
            for c in 0..cfg.cols {
                let has_in = !matches!(kind, PeIoKind::ReduceOut | PeIoKind::DirectOut);
                let i_net = if has_in {
                    pe_net(&mut m, &lo, "in", r, c, iw)
                } else {
                    usize::MAX
                };
                let o_net = if has_out {
                    pe_net(&mut m, &lo, "out", r, c, iw)
                } else {
                    usize::MAX
                };
                in_nets[r][fi].push(i_net);
                out_nets[r][fi].push(o_net);
            }
        }
    }

    // Instantiate the PEs.
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            let mut conns = vec![("en".to_string(), en)];
            if let (Some(l), Some(p)) = (load_en, phase) {
                conns.push(("load_en".to_string(), l));
                conns.push(("phase".to_string(), p));
            }
            if let (Some(s), Some(d)) = (swap, drain_en) {
                conns.push(("swap".to_string(), s));
                conns.push(("drain_en".to_string(), d));
            }
            for (fi, f) in flows.iter().enumerate() {
                let lo = f.tensor.to_lowercase();
                let kind = pe_spec.tensors[fi].kind;
                if !matches!(kind, PeIoKind::ReduceOut | PeIoKind::DirectOut) {
                    conns.push((format!("{lo}_in"), in_nets[r][fi][c]));
                }
                if !matches!(kind, PeIoKind::DirectIn) {
                    conns.push((format!("{lo}_out"), out_nets[r][fi][c]));
                }
            }
            m.instance(pe_spec.name.clone(), format!("pe_r{r}c{c}"), conns);
        }
    }

    // Wire every catalog port to its line of PEs.
    let mut port_names = port_names.into_iter();
    for (fi, group) in catalog.groups.iter().enumerate() {
        let lo = group.tensor.to_lowercase();
        let width = group.width;
        for (li, line) in group.lines.lines(cfg.rows, cfg.cols).iter().enumerate() {
            let port_name = port_names.next().expect("one name per catalog port");
            let link_chain = |m: &mut Module| {
                for win in line.windows(2) {
                    let (pr, pc) = win[0];
                    let (nr, nc) = win[1];
                    m.assign(in_nets[nr][fi][nc], Expr::net(out_nets[pr][fi][pc]));
                }
            };
            let (hr, hc) = line[0];
            match group.wiring {
                PortWiring::Chain if group.kind.is_input() => {
                    let p = m.input(port_name, width);
                    m.assign(in_nets[hr][fi][hc], Expr::net(p));
                    link_chain(&mut m);
                }
                PortWiring::Chain => {
                    // Output chains start from zero partial sums.
                    m.assign(in_nets[hr][fi][hc], Expr::lit(0, width));
                    link_chain(&mut m);
                    let (tr, tc) = *line.last().expect("nonempty line");
                    let p = m.output(port_name, width);
                    m.assign(p, Expr::net(out_nets[tr][fi][tc]));
                }
                PortWiring::Fanout if group.kind.is_input() => {
                    let p = m.input(port_name, width);
                    for &(r, c) in line {
                        m.assign(in_nets[r][fi][c], Expr::net(p));
                    }
                }
                PortWiring::Fanout => {
                    let p = m.output(port_name, width);
                    m.assign(p, Expr::net(out_nets[hr][fi][hc]));
                }
                PortWiring::Tree => {
                    let sum = m.output(port_name, width);
                    let mut conns = vec![("sum".to_string(), sum)];
                    for (i, &(r, c)) in line.iter().enumerate() {
                        conns.push((format!("in{i}"), out_nets[r][fi][c]));
                    }
                    m.instance(
                        tree_name(name, &lo, line.len()),
                        format!("{lo}_tree_i{li}"),
                        conns,
                    );
                }
            }
        }
    }
    m
}

/// Register bits one reduction-tree instance of `n` inputs uses (every level
/// registers all surviving lanes).
fn tree_instance_reg_bits(n: usize, width: u32) -> u64 {
    let mut bits = 0u64;
    let mut lanes = n;
    while lanes > 1 {
        lanes = lanes.div_ceil(2);
        bits += lanes as u64 * width as u64;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{build_pe, PeTensorSpec};
    use tensorlib_ir::TensorRole;
    use tensorlib_ir::DataType;

    fn flow(tensor: &str, role: TensorRole, class: FlowClass) -> TensorFlow {
        TensorFlow {
            tensor: tensor.to_string(),
            role,
            class,
        }
    }

    /// Catalog plus wired module, as `DesignPlan::build` assembles them.
    fn assemble(spec: &PeSpec, flows: &[TensorFlow], cfg: &ArrayConfig) -> (ArrayCatalog, Module) {
        let catalog = array_catalog("arr", spec, flows, cfg).unwrap();
        let module = build_array("arr", spec, flows, cfg, &catalog, catalog.port_names());
        (catalog, module)
    }

    fn spec_for(flows: &[TensorFlow]) -> PeSpec {
        PeSpec {
            name: "pe".into(),
            datatype: DataType::Int16,
            tensors: flows
                .iter()
                .map(|f| PeTensorSpec {
                    tensor: f.tensor.clone(),
                    kind: PeIoKind::for_flow(&f.class, f.role),
                    delay: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn direction_lines_cover_grid_exactly_once() {
        for dp in [[0, 1], [1, 0], [1, 1], [1, -1]] {
            let lines = direction_lines(4, 5, dp);
            let mut all: Vec<(usize, usize)> = lines.into_iter().flatten().collect();
            assert_eq!(all.len(), 20, "dp {dp:?}");
            all.sort();
            all.dedup();
            assert_eq!(all.len(), 20, "dp {dp:?} double-covers");
        }
    }

    #[test]
    fn spans_match_the_walked_lines() {
        // Reference: a line starts at every cell whose predecessor along
        // `dp` is off the grid, and runs until it leaves the grid.
        for (rows, cols) in [(1, 1), (1, 5), (4, 1), (3, 5), (4, 4), (6, 2)] {
            for dp in [
                [0, 1],
                [1, 0],
                [1, 1],
                [1, -1],
                [0, -1],
                [-1, 0],
                [-1, 1],
                [-1, -1],
            ] {
                let inside =
                    |r: i64, c: i64| (0..rows as i64).contains(&r) && (0..cols as i64).contains(&c);
                let mut want = Vec::new();
                for r in 0..rows as i64 {
                    for c in 0..cols as i64 {
                        if inside(r - dp[0], c - dp[1]) {
                            continue;
                        }
                        let len = (0..).take_while(|&i| inside(r + i * dp[0], c + i * dp[1]));
                        want.push(((r as usize, c as usize), len.count()));
                    }
                }
                let got: Vec<_> = PortLines::Along(dp).spans(rows, cols).collect();
                assert_eq!(got, want, "{rows}x{cols} along {dp:?}");
            }
        }
    }

    #[test]
    fn line_counts_match_geometry() {
        assert_eq!(direction_lines(4, 5, [0, 1]).len(), 4);
        assert_eq!(direction_lines(4, 5, [1, 0]).len(), 5);
        assert_eq!(direction_lines(4, 5, [1, 1]).len(), 8); // 4 + 5 - 1
        assert_eq!(direction_lines(4, 5, [1, -1]).len(), 8);
        assert_eq!(direction_lines(4, 5, [-1, 0]).len(), 5);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_direction_panics() {
        let _ = direction_lines(2, 2, [0, 0]);
    }

    #[test]
    fn reduce_tree_shapes() {
        let (m, adders, bits) = build_reduce_tree("t8", 8, 32);
        m.validate().unwrap();
        assert_eq!(adders, 7);
        // Levels: 4 + 2 + 1 regs of 32 bits.
        assert_eq!(bits, 7 * 32);
        let (m3, a3, _) = build_reduce_tree("t3", 3, 32);
        m3.validate().unwrap();
        assert_eq!(a3, 2);
        let (m1, a1, b1) = build_reduce_tree("t1", 1, 32);
        m1.validate().unwrap();
        assert_eq!((a1, b1), (0, 0));
    }

    #[test]
    fn output_stationary_array_builds() {
        let flows = vec![
            flow("A", TensorRole::Input, FlowClass::Systolic { dp: [0, 1], dt: 1 }),
            flow("B", TensorRole::Input, FlowClass::Systolic { dp: [1, 0], dt: 1 }),
            flow("C", TensorRole::Output, FlowClass::Stationary { dt: 1 }),
        ];
        let spec = spec_for(&flows);
        let pe = build_pe(&spec);
        pe.validate().unwrap();
        let cfg = ArrayConfig { rows: 3, cols: 4 };
        let (ab, module) = assemble(&spec, &flows, &cfg);
        module.validate().unwrap();
        // A feeds 3 rows, B feeds 4 columns, C drains 4 columns.
        let feeds_a = ab
            .ports()
            .iter()
            .filter(|p| p.tensor == "A" && p.kind == PortKind::SystolicFeed)
            .count();
        let feeds_b = ab
            .ports()
            .iter()
            .filter(|p| p.tensor == "B" && p.kind == PortKind::SystolicFeed)
            .count();
        let drains_c = ab
            .ports()
            .iter()
            .filter(|p| p.kind == PortKind::StationaryDrain)
            .count();
        assert_eq!((feeds_a, feeds_b, drains_c), (3, 4, 4));
        assert!(ab.trees.is_empty());
    }

    #[test]
    fn multicast_reduction_array_builds_trees() {
        let flows = vec![
            flow("A", TensorRole::Input, FlowClass::Multicast { dp: [1, 0] }),
            flow("B", TensorRole::Input, FlowClass::Stationary { dt: 1 }),
            flow("C", TensorRole::Output, FlowClass::ReductionTree { dp: [0, 1] }),
        ];
        let spec = spec_for(&flows);
        let cfg = ArrayConfig { rows: 4, cols: 4 };
        let (ab, module) = assemble(&spec, &flows, &cfg);
        module.validate().unwrap();
        // One tree per row.
        assert_eq!(
            ab.ports()
                .iter()
                .filter(|p| p.kind == PortKind::ReduceSum)
                .count(),
            4
        );
        assert_eq!(ab.tree_adders, 4 * 3);
        // Multicast ports have fanout = column height.
        let mc = ab
            .port_shapes()
            .find(|p| p.kind == PortKind::Multicast)
            .unwrap();
        assert_eq!(mc.fanout, 4);
        assert_eq!(ab.trees.len(), 1, "tree module deduplicated");
    }

    #[test]
    fn eyeriss_style_diagonal_multicast() {
        let flows = vec![
            flow("A", TensorRole::Input, FlowClass::Multicast { dp: [1, -1] }),
            flow("B", TensorRole::Input, FlowClass::Stationary { dt: 1 }),
            flow("C", TensorRole::Output, FlowClass::Systolic { dp: [1, 0], dt: 1 }),
        ];
        let spec = spec_for(&flows);
        let cfg = ArrayConfig { rows: 3, cols: 3 };
        let (ab, module) = assemble(&spec, &flows, &cfg);
        module.validate().unwrap();
        // 3 + 3 - 1 diagonal lines.
        assert_eq!(
            ab.ports()
                .iter()
                .filter(|p| p.kind == PortKind::Multicast)
                .count(),
            5
        );
    }

    #[test]
    fn unicast_gets_per_pe_ports() {
        let flows = vec![
            flow("A", TensorRole::Input, FlowClass::Unicast),
            flow("B", TensorRole::Input, FlowClass::Stationary { dt: 1 }),
            flow("C", TensorRole::Output, FlowClass::Unicast),
        ];
        let spec = spec_for(&flows);
        let cfg = ArrayConfig { rows: 2, cols: 2 };
        let (ab, module) = assemble(&spec, &flows, &cfg);
        module.validate().unwrap();
        assert_eq!(
            ab.ports()
                .iter()
                .filter(|p| p.kind == PortKind::Unicast)
                .count(),
            4
        );
        assert_eq!(
            ab.ports()
                .iter()
                .filter(|p| p.kind == PortKind::UnicastOut)
                .count(),
            4
        );
    }

    #[test]
    fn non_neighbor_reuse_is_rejected() {
        let flows = vec![
            flow("A", TensorRole::Input, FlowClass::Systolic { dp: [2, 0], dt: 1 }),
            flow("B", TensorRole::Input, FlowClass::Stationary { dt: 1 }),
            flow("C", TensorRole::Output, FlowClass::Stationary { dt: 1 }),
        ];
        let spec = spec_for(&flows);
        let err = array_catalog("arr", &spec, &flows, &ArrayConfig::square(4)).unwrap_err();
        assert!(matches!(err, HwError::NonNeighborReuse { .. }));
        assert!(err.to_string().contains("(2, 0)"));
    }

    #[test]
    fn empty_array_is_rejected() {
        let flows = vec![
            flow("A", TensorRole::Input, FlowClass::Unicast),
            flow("C", TensorRole::Output, FlowClass::Unicast),
        ];
        let spec = spec_for(&flows);
        assert_eq!(
            array_catalog("arr", &spec, &flows, &ArrayConfig { rows: 0, cols: 4 }).unwrap_err(),
            HwError::EmptyArray
        );
    }
}
