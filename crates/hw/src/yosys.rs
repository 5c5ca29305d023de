//! Yosys-JSON netlist interchange.
//!
//! [`export_yosys`] renders a [`NetlistDoc`] as the JSON netlist schema
//! Yosys's `write_json` emits (modules → ports/cells/netnames over a global
//! bit-index space, word-level `$add`/`$mux`/`$sdff`/… cells, constants as
//! inline `"0"`/`"1"` bit strings), so external EDA tooling can inspect or
//! transform our designs; [`import_yosys`] reads it back. The round-trip
//! contract matches [`crate::text`]: `import_yosys(&export_yosys(doc))`
//! is structurally identical to `doc`, re-exports byte-identically, and
//! compiles to byte-identical bytecode.
//!
//! # Encoding
//!
//! - Every named net gets a contiguous run of bit indices (from 2 upward,
//!   Yosys reserves 0/1), allocated in net-declaration order, so the
//!   importer recovers [`crate::netlist::NetId`] order from the first bit
//!   of each `netnames` entry. The true net name (which may be empty or
//!   duplicated) always travels in a `tensorlib_name` attribute; the JSON
//!   object key is only a uniquified display name.
//! - Expression trees decompose into one cell per operator, post-order,
//!   with hidden intermediate bit runs; the root cell of an `assign` drives
//!   the target net's bits directly, which is how the importer tells roots
//!   from intermediates.
//! - `Expr::Resize`/`Expr::SignExtend` map to `$pos` with `A_SIGNED` 0/1
//!   plus a `tensorlib_resize` marker attribute; an *unmarked* `$pos` is a
//!   plain buffer (an `assign` whose expression is a bare net or constant).
//! - Registers map to `$sdff`/`$sdffe` with the reset value (`init`)
//!   carried in `SRST_VALUE` and placeholder `"x"` clock/reset bits.
//! - Child-module instances are cells whose type does not start with `$`;
//!   memory banks export as blackbox modules carrying their parameters in
//!   `tensorlib_*` string attributes (strings, so `words` stays u64-exact
//!   through the f64-backed JSON number type).
//! - Constants are masked to their width on export: a `Const` whose
//!   `value` has bits above `width` does not survive the trip unchanged —
//!   the round-trip oracle deliberately flags any producer of such values.
//!
//! Import never trusts the file: every structural assumption above is
//! checked and violations surface as a [`YosysError`] naming the module
//! and cell at fault.

use std::collections::HashMap;
use std::fmt;

use tensorlib_obs::json::{self, Value};

use crate::mem::MemBank;
use crate::netlist::{BinOp, Dir, Expr, Module, NetId};
use crate::text::NetlistDoc;

/// An import failure, located by a dotted document path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YosysError {
    /// Where in the document the problem was found (e.g. `modules.pe.cells.$expr$3`).
    pub path: String,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for YosysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}: {}", self.path, self.msg)
    }
}

impl std::error::Error for YosysError {}

fn err<T>(path: impl fmt::Display, msg: impl Into<String>) -> Result<T, YosysError> {
    Err(YosysError {
        path: path.to_string(),
        msg: msg.into(),
    })
}

/// A document path — `modules.<module>`, optionally followed by
/// `.<section>.<key>` — kept as borrowed parts and rendered only when an
/// error reports it.
#[derive(Clone, Copy)]
struct Loc<'a> {
    module: &'a str,
    entry: Option<(&'static str, &'a str)>,
}

impl<'a> Loc<'a> {
    fn at(self, section: &'static str, key: &'a str) -> Loc<'a> {
        Loc {
            module: self.module,
            entry: Some((section, key)),
        }
    }
}

impl fmt::Display for Loc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "modules.{}", self.module)?;
        if let Some((section, key)) = self.entry {
            write!(f, ".{section}.{key}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

fn s(t: impl Into<String>) -> Value {
    Value::Str(t.into())
}

fn obj(entries: Vec<(String, Value)>) -> Value {
    Value::Obj(entries)
}

fn kv(entries: &[(&str, Value)]) -> Value {
    Value::Obj(
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// Uniquifies display keys: the true name when it is unique, nonempty, and
/// does not collide with generated `$…` names; otherwise `base$<index>`.
fn display_keys(names: Vec<String>, placeholder: &str) -> Vec<String> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for n in &names {
        *counts.entry(n.as_str()).or_insert(0) += 1;
    }
    names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            if n.is_empty() || n.starts_with('$') {
                format!("${placeholder}${i}")
            } else if counts[n.as_str()] > 1 {
                format!("{n}${i}")
            } else {
                n.clone()
            }
        })
        .collect()
}

struct ModuleExporter<'m> {
    m: &'m Module,
    net_bits: Vec<Vec<u64>>,
    next_bit: u64,
    cells: Vec<(String, Value)>,
    expr_counter: usize,
}

impl<'m> ModuleExporter<'m> {
    fn new(m: &'m Module) -> ModuleExporter<'m> {
        let mut next_bit = 2u64; // Yosys reserves bits 0 and 1
        let mut net_bits = Vec::with_capacity(m.nets().len());
        for net in m.nets() {
            let run: Vec<u64> = (next_bit..next_bit + u64::from(net.width)).collect();
            next_bit += u64::from(net.width);
            net_bits.push(run);
        }
        ModuleExporter {
            m,
            net_bits,
            next_bit,
            cells: Vec::new(),
            expr_counter: 0,
        }
    }

    fn fresh_bits(&mut self, width: u32) -> Vec<u64> {
        let run: Vec<u64> = (self.next_bit..self.next_bit + u64::from(width)).collect();
        self.next_bit += u64::from(width);
        run
    }

    fn bits_value(bits: &[u64]) -> Vec<Value> {
        bits.iter().map(|b| num(*b)).collect()
    }

    fn const_bits(value: u64, width: u32) -> Vec<Value> {
        (0..width)
            .map(|i| {
                let bit = if i < 64 { (value >> i) & 1 } else { 0 };
                s(if bit == 1 { "1" } else { "0" })
            })
            .collect()
    }

    fn push_cell(
        &mut self,
        key: String,
        ty: &str,
        params: Vec<(String, Value)>,
        attrs: Vec<(String, Value)>,
        dirs: Vec<(String, Value)>,
        conns: Vec<(String, Value)>,
    ) {
        self.cells.push((
            key,
            obj(vec![
                ("hide_name".to_string(), num(1)),
                ("type".to_string(), s(ty)),
                ("parameters".to_string(), obj(params)),
                ("attributes".to_string(), obj(attrs)),
                ("port_directions".to_string(), obj(dirs)),
                ("connections".to_string(), obj(conns)),
            ]),
        ));
    }

    /// Connection bits for `e`, materializing hidden cells for operators.
    /// With `root_y`, the outermost operator drives those (visible) bits.
    fn expr_bits(&mut self, e: &Expr, root_y: Option<Vec<u64>>) -> Vec<Value> {
        let nets = self.m.nets();
        let width = e.width(nets);
        let alloc_y = |ex: &mut Self| match root_y.clone() {
            Some(y) => y,
            None => ex.fresh_bits(width),
        };
        let cell_key = |ex: &mut Self| {
            let k = format!("$expr${}", ex.expr_counter);
            ex.expr_counter += 1;
            k
        };
        match e {
            Expr::Const { value, width } => Self::const_bits(*value, *width),
            Expr::Net(id) => Self::bits_value(&self.net_bits[*id]),
            Expr::Not(a) => {
                let aw = a.width(nets);
                let a_bits = self.expr_bits(a, None);
                let y = alloc_y(self);
                let k = cell_key(self);
                self.push_cell(
                    k,
                    "$not",
                    vec![
                        ("A_SIGNED".to_string(), num(0)),
                        ("A_WIDTH".to_string(), num(u64::from(aw))),
                        ("Y_WIDTH".to_string(), num(u64::from(width))),
                    ],
                    vec![],
                    vec![
                        ("A".to_string(), s("input")),
                        ("Y".to_string(), s("output")),
                    ],
                    vec![
                        ("A".to_string(), Value::Arr(a_bits)),
                        ("Y".to_string(), Value::Arr(Self::bits_value(&y))),
                    ],
                );
                Self::bits_value(&y)
            }
            Expr::Bin(op, a, b) => {
                let ty = match op {
                    BinOp::Add => "$add",
                    BinOp::Sub => "$sub",
                    BinOp::Mul => "$mul",
                    BinOp::And => "$and",
                    BinOp::Or => "$or",
                    BinOp::Xor => "$xor",
                    BinOp::Eq => "$eq",
                    BinOp::Lt => "$lt",
                };
                let (aw, bw) = (a.width(nets), b.width(nets));
                let a_bits = self.expr_bits(a, None);
                let b_bits = self.expr_bits(b, None);
                let y = alloc_y(self);
                let k = cell_key(self);
                self.push_cell(
                    k,
                    ty,
                    vec![
                        ("A_SIGNED".to_string(), num(0)),
                        ("B_SIGNED".to_string(), num(0)),
                        ("A_WIDTH".to_string(), num(u64::from(aw))),
                        ("B_WIDTH".to_string(), num(u64::from(bw))),
                        ("Y_WIDTH".to_string(), num(u64::from(width))),
                    ],
                    vec![],
                    vec![
                        ("A".to_string(), s("input")),
                        ("B".to_string(), s("input")),
                        ("Y".to_string(), s("output")),
                    ],
                    vec![
                        ("A".to_string(), Value::Arr(a_bits)),
                        ("B".to_string(), Value::Arr(b_bits)),
                        ("Y".to_string(), Value::Arr(Self::bits_value(&y))),
                    ],
                );
                Self::bits_value(&y)
            }
            Expr::Mux {
                sel,
                on_true,
                on_false,
            } => {
                // Yosys $mux: Y = S ? B : A.
                let s_bits = self.expr_bits(sel, None);
                let b_bits = self.expr_bits(on_true, None);
                let a_bits = self.expr_bits(on_false, None);
                let y = alloc_y(self);
                let k = cell_key(self);
                self.push_cell(
                    k,
                    "$mux",
                    vec![("WIDTH".to_string(), num(u64::from(width)))],
                    vec![],
                    vec![
                        ("A".to_string(), s("input")),
                        ("B".to_string(), s("input")),
                        ("S".to_string(), s("input")),
                        ("Y".to_string(), s("output")),
                    ],
                    vec![
                        ("A".to_string(), Value::Arr(a_bits)),
                        ("B".to_string(), Value::Arr(b_bits)),
                        ("S".to_string(), Value::Arr(s_bits)),
                        ("Y".to_string(), Value::Arr(Self::bits_value(&y))),
                    ],
                );
                Self::bits_value(&y)
            }
            Expr::Resize(a, w) | Expr::SignExtend(a, w) => {
                let signed = matches!(e, Expr::SignExtend(..));
                let aw = a.width(nets);
                let a_bits = self.expr_bits(a, None);
                let y = alloc_y(self);
                let k = cell_key(self);
                self.push_cell(
                    k,
                    "$pos",
                    vec![
                        ("A_SIGNED".to_string(), num(u64::from(signed))),
                        ("A_WIDTH".to_string(), num(u64::from(aw))),
                        ("Y_WIDTH".to_string(), num(u64::from(*w))),
                    ],
                    vec![("tensorlib_resize".to_string(), num(1))],
                    vec![
                        ("A".to_string(), s("input")),
                        ("Y".to_string(), s("output")),
                    ],
                    vec![
                        ("A".to_string(), Value::Arr(a_bits)),
                        ("Y".to_string(), Value::Arr(Self::bits_value(&y))),
                    ],
                );
                Self::bits_value(&y)
            }
        }
    }

    fn export(mut self) -> Value {
        let m = self.m;
        // Assign roots: operator roots drive the target bits directly;
        // bare net/constant right-hand sides become unmarked $pos buffers.
        for (target, expr) in m.assigns() {
            let y = self.net_bits[*target].clone();
            match expr {
                Expr::Net(_) | Expr::Const { .. } => {
                    let aw = expr.width(m.nets());
                    let a_bits = self.expr_bits(expr, None);
                    let k = format!("$expr${}", self.expr_counter);
                    self.expr_counter += 1;
                    self.push_cell(
                        k,
                        "$pos",
                        vec![
                            ("A_SIGNED".to_string(), num(0)),
                            ("A_WIDTH".to_string(), num(u64::from(aw))),
                            ("Y_WIDTH".to_string(), num(y.len() as u64)),
                        ],
                        vec![],
                        vec![
                            ("A".to_string(), s("input")),
                            ("Y".to_string(), s("output")),
                        ],
                        vec![
                            ("A".to_string(), Value::Arr(a_bits)),
                            ("Y".to_string(), Value::Arr(Self::bits_value(&y))),
                        ],
                    );
                }
                _ => {
                    self.expr_bits(expr, Some(y));
                }
            }
        }
        // Registers.
        for (i, r) in m.regs().iter().enumerate() {
            let width = m.nets()[r.target].width;
            let d_bits = self.expr_bits(&r.next, None);
            let en_bits = r.enable.as_ref().map(|en| self.expr_bits(en, None));
            let q = self.net_bits[r.target].clone();
            let srst_value: String = (0..width)
                .rev()
                .map(|i| {
                    let bit = if i < 64 { (r.init >> i) & 1 } else { 0 };
                    if bit == 1 {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            let mut params = vec![
                ("WIDTH".to_string(), num(u64::from(width))),
                ("CLK_POLARITY".to_string(), num(1)),
                ("SRST_POLARITY".to_string(), num(1)),
                ("SRST_VALUE".to_string(), s(srst_value)),
            ];
            let mut dirs = vec![
                ("CLK".to_string(), s("input")),
                ("SRST".to_string(), s("input")),
                ("D".to_string(), s("input")),
                ("Q".to_string(), s("output")),
            ];
            let mut conns = vec![
                ("CLK".to_string(), Value::Arr(vec![s("x")])),
                ("SRST".to_string(), Value::Arr(vec![s("x")])),
                ("D".to_string(), Value::Arr(d_bits)),
                ("Q".to_string(), Value::Arr(Self::bits_value(&q))),
            ];
            let ty = if let Some(en) = en_bits {
                params.push(("EN_POLARITY".to_string(), num(1)));
                dirs.insert(2, ("EN".to_string(), s("input")));
                conns.insert(2, ("EN".to_string(), Value::Arr(en)));
                "$sdffe"
            } else {
                "$sdff"
            };
            let key = format!("$reg${i}");
            self.push_cell(key, ty, params, vec![], dirs, conns);
        }
        // Child-module instances.
        let inst_keys = display_keys(
            m.instances().iter().map(|i| i.name.clone()).collect(),
            "inst",
        );
        for (inst, key) in m.instances().iter().zip(inst_keys) {
            let conns: Vec<(String, Value)> = inst
                .connections
                .iter()
                .map(|(port, net)| {
                    (
                        port.clone(),
                        Value::Arr(Self::bits_value(&self.net_bits[*net])),
                    )
                })
                .collect();
            self.cells.push((
                key,
                obj(vec![
                    ("hide_name".to_string(), num(0)),
                    ("type".to_string(), s(&inst.module)),
                    ("parameters".to_string(), obj(vec![])),
                    (
                        "attributes".to_string(),
                        obj(vec![
                            ("tensorlib_name".to_string(), s(&inst.name)),
                            ("module_not_derived".to_string(), num(1)),
                        ]),
                    ),
                    ("connections".to_string(), obj(conns)),
                ]),
            ));
        }
        // Ports and netnames in declaration order.
        let net_keys = display_keys(
            m.nets().iter().map(|n| n.name.clone()).collect(),
            "n",
        );
        let ports: Vec<(String, Value)> = m
            .ports()
            .iter()
            .map(|(id, dir)| {
                (
                    net_keys[*id].clone(),
                    kv(&[
                        (
                            "direction",
                            s(match dir {
                                Dir::Input => "input",
                                Dir::Output => "output",
                            }),
                        ),
                        ("bits", Value::Arr(Self::bits_value(&self.net_bits[*id]))),
                    ]),
                )
            })
            .collect();
        let netnames: Vec<(String, Value)> = m
            .nets()
            .iter()
            .enumerate()
            .map(|(id, net)| {
                (
                    net_keys[id].clone(),
                    obj(vec![
                        ("hide_name".to_string(), num(u64::from(net.name.is_empty()))),
                        ("bits".to_string(), Value::Arr(Self::bits_value(&self.net_bits[id]))),
                        (
                            "attributes".to_string(),
                            obj(vec![("tensorlib_name".to_string(), s(&net.name))]),
                        ),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("attributes".to_string(), obj(vec![])),
            ("ports".to_string(), obj(ports)),
            ("cells".to_string(), obj(self.cells)),
            ("netnames".to_string(), obj(netnames)),
        ])
    }
}

fn export_bank(bank: &MemBank) -> Value {
    let iface = bank.interface_module();
    let mut next_bit = 2u64;
    let mut ports = Vec::new();
    let mut netnames = Vec::new();
    for (id, dir) in iface.ports() {
        let net = &iface.nets()[*id];
        let bits: Vec<Value> = (next_bit..next_bit + u64::from(net.width))
            .map(num)
            .collect();
        next_bit += u64::from(net.width);
        ports.push((
            net.name.clone(),
            kv(&[
                (
                    "direction",
                    s(match dir {
                        Dir::Input => "input",
                        Dir::Output => "output",
                    }),
                ),
                ("bits", Value::Arr(bits.clone())),
            ]),
        ));
        netnames.push((
            net.name.clone(),
            obj(vec![
                ("hide_name".to_string(), num(0)),
                ("bits".to_string(), Value::Arr(bits)),
                (
                    "attributes".to_string(),
                    obj(vec![("tensorlib_name".to_string(), s(&net.name))]),
                ),
            ]),
        ));
    }
    obj(vec![
        (
            "attributes".to_string(),
            obj(vec![
                ("blackbox".to_string(), num(1)),
                ("tensorlib_bank".to_string(), num(1)),
                ("tensorlib_words".to_string(), s(bank.words().to_string())),
                ("tensorlib_width".to_string(), s(bank.width().to_string())),
                (
                    "tensorlib_db".to_string(),
                    s(if bank.is_double_buffered() { "1" } else { "0" }),
                ),
                (
                    "tensorlib_parity".to_string(),
                    s(if bank.has_parity() { "1" } else { "0" }),
                ),
            ]),
        ),
        ("ports".to_string(), obj(ports)),
        ("cells".to_string(), obj(vec![])),
        ("netnames".to_string(), obj(netnames)),
    ])
}

/// Exports `doc` as a Yosys-JSON document tree. Deterministic: equal
/// documents export identical trees (and therefore identical text via
/// [`emit_yosys`]).
pub fn export_yosys(doc: &NetlistDoc) -> Value {
    let mut modules: Vec<(String, Value)> = Vec::new();
    for bank in &doc.banks {
        modules.push((bank.module_name(), export_bank(bank)));
    }
    for m in &doc.modules {
        let mut v = ModuleExporter::new(m).export();
        if m.name() == doc.top {
            if let Value::Obj(entries) = &mut v {
                entries[0].1 = obj(vec![("top".to_string(), num(1))]);
            }
        }
        modules.push((m.name().to_string(), v));
    }
    obj(vec![
        ("creator".to_string(), s("tensorlib netlist interchange v1")),
        ("modules".to_string(), obj(modules)),
    ])
}

/// Exports `doc` and serializes it to JSON text (trailing newline included).
pub fn emit_yosys(doc: &NetlistDoc) -> String {
    let _span = tensorlib_obs::span("hw.yosys.emit");
    let mut text = json::to_pretty(&export_yosys(doc));
    text.push('\n');
    text
}

// ---------------------------------------------------------------------------
// Import
// ---------------------------------------------------------------------------

fn get_attr<'v>(module_or_cell: &'v Value, name: &str) -> Option<&'v Value> {
    module_or_cell.get("attributes").and_then(|a| a.get(name))
}

fn attr_u64_str(v: &Value, name: &str, path: Loc) -> Result<u64, YosysError> {
    let raw = get_attr(v, name)
        .and_then(Value::as_str)
        .ok_or_else(|| YosysError {
            path: path.to_string(),
            msg: format!("missing string attribute {name:?}"),
        })?;
    raw.parse().map_err(|_| YosysError {
        path: path.to_string(),
        msg: format!("attribute {name:?} is not a u64: {raw:?}"),
    })
}

fn import_bank(name: &str, v: &Value, path: Loc) -> Result<MemBank, YosysError> {
    let words = attr_u64_str(v, "tensorlib_words", path)?;
    let width = attr_u64_str(v, "tensorlib_width", path)?;
    let db = attr_u64_str(v, "tensorlib_db", path)?;
    let parity = attr_u64_str(v, "tensorlib_parity", path)?;
    if words == 0 || width == 0 || width > u64::from(u32::MAX) || db > 1 || parity > 1 {
        return err(path, "bank attributes out of range");
    }
    let mut bank = MemBank::new(words, width as u32, db == 1);
    if parity == 1 {
        bank = bank.with_parity();
    }
    if bank.module_name() != name {
        return err(
            path,
            format!(
                "bank module key {name:?} does not match its parameters ({})",
                bank.module_name()
            ),
        );
    }
    Ok(bank)
}

/// Decoded bit connection: each entry is a bit index or a constant bit.
fn conn_bits(v: &Value, path: Loc) -> Result<Vec<BitRef>, YosysError> {
    let arr = v.as_array().ok_or_else(|| YosysError {
        path: path.to_string(),
        msg: "connection is not an array".to_string(),
    })?;
    arr.iter()
        .map(|b| match b {
            Value::Num(_) => {
                let n = b.as_u64().ok_or_else(|| YosysError {
                    path: path.to_string(),
                    msg: "bit index is not an integer".to_string(),
                })?;
                Ok(BitRef::Wire(n))
            }
            Value::Str(t) if t == "0" => Ok(BitRef::Const(false)),
            Value::Str(t) if t == "1" => Ok(BitRef::Const(true)),
            Value::Str(t) => err(path, format!("unsupported constant bit {t:?}")),
            _ => err(path, "malformed bit reference"),
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum BitRef {
    Wire(u64),
    Const(bool),
}

fn wire_vec(bits: &[BitRef]) -> Option<Vec<u64>> {
    bits.iter()
        .map(|b| match b {
            BitRef::Wire(n) => Some(*n),
            BitRef::Const(_) => None,
        })
        .collect()
}

fn param_u64(cell: &Value, name: &str, path: Loc) -> Result<u64, YosysError> {
    cell.get("parameters")
        .and_then(|p| p.get(name))
        .and_then(Value::as_u64)
        .ok_or_else(|| YosysError {
            path: path.to_string(),
            msg: format!("missing integer parameter {name:?}"),
        })
}

struct ModuleImporter<'v> {
    path: Loc<'v>,
    m: Module,
    /// Exact bit-run → visible net.
    visible: HashMap<Vec<u64>, NetId>,
    /// Exact output bit-run → hidden `$`-cell (key, value).
    hidden: HashMap<Vec<u64>, (&'v str, &'v Value)>,
}

impl<'v> ModuleImporter<'v> {
    fn cell_conn(&self, cell: &'v Value, port: &str, path: Loc) -> Result<Vec<BitRef>, YosysError> {
        let v = cell
            .get("connections")
            .and_then(|c| c.get(port))
            .ok_or_else(|| YosysError {
                path: path.to_string(),
                msg: format!("missing connection {port:?}"),
            })?;
        conn_bits(v, path)
    }

    /// Rebuilds the expression a bit-run denotes: an inline constant, a
    /// visible net, or (recursively) a hidden operator cell's output.
    fn resolve_expr(&self, bits: &[BitRef], path: Loc, depth: u32) -> Result<Expr, YosysError> {
        if depth > 1000 {
            return err(path, "expression nesting too deep (cyclic cell graph?)");
        }
        if bits.is_empty() {
            return err(path, "empty connection");
        }
        if bits.iter().all(|b| matches!(b, BitRef::Const(_))) {
            if bits.len() > u32::MAX as usize {
                return err(path, "constant wider than u32::MAX bits");
            }
            let mut value = 0u64;
            for (i, b) in bits.iter().enumerate() {
                if let BitRef::Const(true) = b {
                    if i >= 64 {
                        return err(path, "constant with set bits above bit 63");
                    }
                    value |= 1 << i;
                }
            }
            return Ok(Expr::Const {
                value,
                width: bits.len() as u32,
            });
        }
        let Some(wires) = wire_vec(bits) else {
            return err(path, "connection mixes constant and wire bits");
        };
        if let Some(id) = self.visible.get(&wires) {
            return Ok(Expr::Net(*id));
        }
        if let Some((key, cell)) = self.hidden.get(&wires) {
            return self.rebuild_cell(key, cell, depth + 1);
        }
        err(path, "connection bits match no net and no cell output")
    }

    /// Rebuilds the expression computed by a `$`-operator cell.
    fn rebuild_cell(
        &self,
        key: &str,
        cell: &'v Value,
        depth: u32,
    ) -> Result<Expr, YosysError> {
        let path = self.path.at("cells", key);
        let ty = cell.get("type").and_then(Value::as_str).unwrap_or("");
        let unary = |op: fn(Box<Expr>) -> Expr, s: &Self| -> Result<Expr, YosysError> {
            let a = s.resolve_expr(&s.cell_conn(cell, "A", path)?, path, depth)?;
            Ok(op(Box::new(a)))
        };
        let bin = |op: BinOp, s: &Self| -> Result<Expr, YosysError> {
            let a = s.resolve_expr(&s.cell_conn(cell, "A", path)?, path, depth)?;
            let b = s.resolve_expr(&s.cell_conn(cell, "B", path)?, path, depth)?;
            Ok(Expr::Bin(op, Box::new(a), Box::new(b)))
        };
        match ty {
            "$not" => unary(Expr::Not, self),
            "$add" => bin(BinOp::Add, self),
            "$sub" => bin(BinOp::Sub, self),
            "$mul" => bin(BinOp::Mul, self),
            "$and" => bin(BinOp::And, self),
            "$or" => bin(BinOp::Or, self),
            "$xor" => bin(BinOp::Xor, self),
            "$eq" => bin(BinOp::Eq, self),
            "$lt" => bin(BinOp::Lt, self),
            "$mux" => {
                let sel = self.resolve_expr(&self.cell_conn(cell, "S", path)?, path, depth)?;
                let on_true = self.resolve_expr(&self.cell_conn(cell, "B", path)?, path, depth)?;
                let on_false = self.resolve_expr(&self.cell_conn(cell, "A", path)?, path, depth)?;
                Ok(Expr::Mux {
                    sel: Box::new(sel),
                    on_true: Box::new(on_true),
                    on_false: Box::new(on_false),
                })
            }
            "$pos" => {
                let a = self.resolve_expr(&self.cell_conn(cell, "A", path)?, path, depth)?;
                if get_attr(cell, "tensorlib_resize").is_some() {
                    let w = param_u64(cell, "Y_WIDTH", path)?;
                    let w = u32::try_from(w)
                        .map_err(|_| YosysError {
                            path: path.to_string(),
                            msg: "Y_WIDTH overflows u32".to_string(),
                        })?;
                    if param_u64(cell, "A_SIGNED", path)? == 1 {
                        Ok(Expr::SignExtend(Box::new(a), w))
                    } else {
                        Ok(Expr::Resize(Box::new(a), w))
                    }
                } else {
                    // Unmarked $pos is a plain buffer.
                    Ok(a)
                }
            }
            other => err(path, format!("unsupported cell type {other:?}")),
        }
    }

    fn import(mut self, v: &'v Value) -> Result<Module, YosysError> {
        let path = self.path;
        // Nets, in bit order (the exporter allocates bits in declaration
        // order, so sorting by first bit recovers NetId order).
        let netnames = v
            .get("netnames")
            .and_then(Value::as_object)
            .ok_or_else(|| YosysError {
                path: path.to_string(),
                msg: "missing `netnames` object".to_string(),
            })?;
        let mut nets: Vec<(Vec<u64>, String)> = Vec::with_capacity(netnames.len());
        for (key, nv) in netnames {
            let npath = path.at("netnames", key);
            let bits = conn_bits(
                nv.get("bits").ok_or_else(|| YosysError {
                    path: npath.to_string(),
                    msg: "missing `bits`".to_string(),
                })?,
                npath,
            )?;
            let Some(wires) = wire_vec(&bits) else {
                return err(npath, "net bits must be wire indices, not constants");
            };
            if wires.is_empty() {
                return err(npath, "net has no bits");
            }
            if wires.len() > u32::MAX as usize {
                return err(npath, "net wider than u32::MAX bits");
            }
            let name = get_attr(nv, "tensorlib_name")
                .and_then(Value::as_str)
                .unwrap_or(key)
                .to_string();
            nets.push((wires, name));
        }
        nets.sort_by_key(|(wires, _)| wires[0]);
        // Port directions, keyed by exact bit run.
        let mut port_dirs: HashMap<Vec<u64>, Dir> = HashMap::new();
        let mut port_order: Vec<Vec<u64>> = Vec::new();
        if let Some(ports) = v.get("ports").and_then(Value::as_object) {
            for (key, pv) in ports {
                let ppath = path.at("ports", key);
                let dir = match pv.get("direction").and_then(Value::as_str) {
                    Some("input") => Dir::Input,
                    Some("output") => Dir::Output,
                    _ => return err(ppath, "port direction must be \"input\" or \"output\""),
                };
                let bits = conn_bits(
                    pv.get("bits").ok_or_else(|| YosysError {
                        path: ppath.to_string(),
                        msg: "missing `bits`".to_string(),
                    })?,
                    ppath,
                )?;
                let Some(wires) = wire_vec(&bits) else {
                    return err(ppath, "port bits must be wire indices");
                };
                if port_dirs.insert(wires.clone(), dir).is_some() {
                    return err(ppath, "duplicate port bit run");
                }
                port_order.push(wires);
            }
        }
        // Create nets in order; ports are declared through the port-typed
        // constructors so Module's port list lands in net order, exactly as
        // the exporter's source module had it.
        for (wires, name) in &nets {
            let width = wires.len() as u32;
            let id = match port_dirs.get(wires) {
                Some(Dir::Input) => self.m.input(name.clone(), width),
                Some(Dir::Output) => self.m.output(name.clone(), width),
                None => self.m.net(name.clone(), width),
            };
            if self.visible.insert(wires.clone(), id).is_some() {
                return err(path, format!("two nets share the bit run {wires:?}"));
            }
        }
        for wires in &port_order {
            if !self.visible.contains_key(wires) {
                return err(path, "port bits do not match any net");
            }
        }
        // Cells: first index hidden operator outputs, then walk in document
        // order rebuilding assigns, registers, and instances.
        let cells: &'v [(String, Value)] =
            v.get("cells").and_then(Value::as_object).unwrap_or(&[]);
        for (key, cv) in cells {
            let ty = cv.get("type").and_then(Value::as_str).unwrap_or("");
            if !ty.starts_with('$') || ty == "$sdff" || ty == "$sdffe" {
                continue;
            }
            let cpath = path.at("cells", key);
            let y = self.cell_conn(cv, "Y", cpath)?;
            if let Some(wires) = wire_vec(&y) {
                if !self.visible.contains_key(&wires) {
                    self.hidden.insert(wires, (key.as_str(), cv));
                }
            }
        }
        for (key, cv) in cells {
            let cpath = path.at("cells", key);
            let ty = cv.get("type").and_then(Value::as_str).unwrap_or("");
            match ty {
                "$sdff" | "$sdffe" => {
                    let q = self.cell_conn(cv, "Q", cpath)?;
                    let Some(wires) = wire_vec(&q) else {
                        return err(cpath, "register Q bits must be wire indices");
                    };
                    let Some(&target) = self.visible.get(&wires) else {
                        return err(cpath, "register Q must drive a named net");
                    };
                    let next = self.resolve_expr(&self.cell_conn(cv, "D", cpath)?, cpath, 0)?;
                    let enable = if ty == "$sdffe" {
                        Some(self.resolve_expr(&self.cell_conn(cv, "EN", cpath)?, cpath, 0)?)
                    } else {
                        None
                    };
                    let srst = cv
                        .get("parameters")
                        .and_then(|p| p.get("SRST_VALUE"))
                        .and_then(Value::as_str)
                        .ok_or_else(|| YosysError {
                            path: cpath.to_string(),
                            msg: "missing SRST_VALUE string parameter".to_string(),
                        })?;
                    let mut init = 0u64;
                    for (i, c) in srst.chars().rev().enumerate() {
                        match c {
                            '0' => {}
                            '1' if i < 64 => init |= 1 << i,
                            '1' => return err(cpath, "SRST_VALUE has set bits above bit 63"),
                            _ => return err(cpath, "SRST_VALUE must be a binary string"),
                        }
                    }
                    self.m.reg(target, next, enable, init);
                }
                t if t.starts_with('$') => {
                    let y = self.cell_conn(cv, "Y", cpath)?;
                    if let Some(wires) = wire_vec(&y) {
                        if let Some(&target) = self.visible.get(&wires) {
                            let expr = self.rebuild_cell(key, cv, 0)?;
                            self.m.assign(target, expr);
                        }
                        // Hidden intermediates are reached through
                        // resolve_expr from their consumers.
                    } else {
                        return err(cpath, "cell output bits must be wire indices");
                    }
                }
                _ => {
                    // A child-module or bank instance.
                    let name = get_attr(cv, "tensorlib_name")
                        .and_then(Value::as_str)
                        .unwrap_or(key)
                        .to_string();
                    let conns_v = cv
                        .get("connections")
                        .and_then(Value::as_object)
                        .ok_or_else(|| YosysError {
                            path: cpath.to_string(),
                            msg: "missing `connections` object".to_string(),
                        })?;
                    let mut conns: Vec<(String, NetId)> = Vec::with_capacity(conns_v.len());
                    for (port, bv) in conns_v {
                        let bits = conn_bits(bv, cpath)?;
                        let Some(wires) = wire_vec(&bits) else {
                            return err(cpath, format!("connection {port:?} must be wire indices"));
                        };
                        let Some(&net) = self.visible.get(&wires) else {
                            return err(
                                cpath,
                                format!("connection {port:?} must be a whole named net"),
                            );
                        };
                        conns.push((port.clone(), net));
                    }
                    self.m.instance(ty.to_string(), name, conns);
                }
            }
        }
        Ok(self.m)
    }
}

/// Imports a Yosys-JSON document tree produced by [`export_yosys`] (or by
/// Yosys itself, within the encoding subset documented at module level).
///
/// # Errors
///
/// Returns a [`YosysError`] naming the JSON path of the first violation.
pub fn import_yosys(root: &Value) -> Result<NetlistDoc, YosysError> {
    let modules = root
        .get("modules")
        .and_then(Value::as_object)
        .ok_or_else(|| YosysError {
            path: "$".to_string(),
            msg: "missing top-level `modules` object".to_string(),
        })?;
    let mut doc = NetlistDoc {
        modules: Vec::new(),
        banks: Vec::new(),
        top: String::new(),
    };
    let mut top: Option<String> = None;
    for (name, mv) in modules {
        let path = Loc {
            module: name,
            entry: None,
        };
        if get_attr(mv, "tensorlib_bank").is_some() {
            doc.banks.push(import_bank(name, mv, path)?);
            continue;
        }
        if get_attr(mv, "top").is_some() {
            if top.is_some() {
                return err(path, "more than one module carries the `top` attribute");
            }
            top = Some(name.clone());
        }
        let importer = ModuleImporter {
            path,
            m: Module::new(name.clone()),
            visible: HashMap::new(),
            hidden: HashMap::new(),
        };
        doc.modules.push(importer.import(mv)?);
    }
    let Some(top) = top else {
        return err("$", "no module carries the `top` attribute");
    };
    doc.top = top;
    Ok(doc)
}

/// Parses Yosys-JSON text and imports it.
///
/// # Errors
///
/// JSON syntax errors surface at path `$`; structural problems carry the
/// offending JSON path.
pub fn parse_yosys(input: &str) -> Result<NetlistDoc, YosysError> {
    let _span = tensorlib_obs::span("hw.yosys.parse");
    let root = json::parse(input).map_err(|msg| YosysError {
        path: "$".to_string(),
        msg,
    })?;
    import_yosys(&root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Expr as E;

    fn tiny_doc() -> NetlistDoc {
        let mut child = Module::new("leaf");
        let cin = child.input("cin", 4);
        let cout = child.output("cout", 4);
        child.assign(cout, E::Not(Box::new(E::net(cin))));
        let mut m = Module::new("t");
        let a = m.input("a", 4);
        let b = m.net("mid", 4);
        let y = m.output("y", 8);
        m.instance("leaf", "u0", vec![("cin".into(), a), ("cout".into(), b)]);
        m.assign(a, E::lit(5, 4));
        m.reg(
            y,
            E::mux(
                E::net(b).resize(1),
                E::net(a).sext(8),
                E::net(y).add(E::lit(3, 8)),
            ),
            Some(E::net(b).resize(1)),
            7,
        );
        NetlistDoc {
            modules: vec![child, m],
            banks: vec![MemBank::new(16, 4, true).with_parity()],
            top: "t".to_string(),
        }
    }

    #[test]
    fn round_trips_structurally_and_byte_identically() {
        let doc = tiny_doc();
        let text = emit_yosys(&doc);
        let parsed = parse_yosys(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(emit_yosys(&parsed), text);
    }

    #[test]
    fn duplicate_and_empty_net_names_round_trip() {
        let mut m = Module::new("m");
        let a = m.input("x", 2);
        let b = m.net("x", 2);
        let c = m.net("", 2);
        let y = m.output("y", 2);
        m.assign(b, E::net(a));
        m.assign(c, E::net(b));
        m.assign(y, E::net(c));
        let doc = NetlistDoc::from_modules(&[m], "m");
        let parsed = parse_yosys(&emit_yosys(&doc)).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn bare_net_and_const_assigns_survive_as_buffers() {
        let mut m = Module::new("m");
        let a = m.input("a", 3);
        let p = m.net("p", 3);
        let q = m.output("q", 3);
        m.assign(p, E::net(a));
        m.assign(q, E::lit(6, 3));
        let doc = NetlistDoc::from_modules(&[m], "m");
        let text = emit_yosys(&doc);
        let parsed = parse_yosys(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(emit_yosys(&parsed), text);
    }

    #[test]
    fn top_attribute_is_required_and_unique() {
        let doc = tiny_doc();
        let mut root = export_yosys(&doc);
        // Strip every `top` attribute.
        if let Value::Obj(entries) = &mut root {
            if let Some((_, Value::Obj(mods))) =
                entries.iter_mut().find(|(k, _)| k == "modules")
            {
                for (_, mv) in mods.iter_mut() {
                    if let Value::Obj(fields) = mv {
                        for (k, fv) in fields.iter_mut() {
                            if k == "attributes" {
                                if let Value::Obj(attrs) = fv {
                                    attrs.retain(|(ak, _)| ak != "top");
                                }
                            }
                        }
                    }
                }
            }
        }
        let e = import_yosys(&root).unwrap_err();
        assert!(e.msg.contains("top"), "{e}");
    }

    #[test]
    fn unknown_cell_type_is_a_pathed_error() {
        let doc = tiny_doc();
        let mut root = export_yosys(&doc);
        if let Value::Obj(entries) = &mut root {
            if let Some((_, Value::Obj(mods))) =
                entries.iter_mut().find(|(k, _)| k == "modules")
            {
                let (_, mv) = mods.iter_mut().find(|(k, _)| k == "leaf").unwrap();
                let cells = mv
                    .as_object()
                    .unwrap()
                    .iter()
                    .position(|(k, _)| k == "cells")
                    .unwrap();
                if let Value::Obj(fields) = mv {
                    if let Value::Obj(cell_map) = &mut fields[cells].1 {
                        if let Value::Obj(cell) = &mut cell_map[0].1 {
                            for (k, v) in cell.iter_mut() {
                                if k == "type" {
                                    *v = Value::Str("$bogus".to_string());
                                }
                            }
                        }
                    }
                }
            }
        }
        let e = import_yosys(&root).unwrap_err();
        assert!(e.msg.contains("unsupported cell type"), "{e}");
        assert!(e.path.contains("modules.leaf.cells"), "{e}");
    }

    #[test]
    fn bank_attributes_must_match_their_key() {
        let doc = NetlistDoc {
            modules: vec![Module::new("m")],
            banks: vec![MemBank::new(8, 8, false)],
            top: "m".to_string(),
        };
        let text = emit_yosys(&doc);
        let broken = text.replacen("\"tensorlib_words\": \"8\"", "\"tensorlib_words\": \"9\"", 1);
        let e = parse_yosys(&broken).unwrap_err();
        assert!(e.msg.contains("does not match"), "{e}");
    }
}
