//! Yosys-JSON netlist interchange.
//!
//! [`emit_yosys`] renders a [`NetlistDoc`] as the JSON netlist schema
//! Yosys's `write_json` emits (modules → ports/cells/netnames over a global
//! bit-index space, word-level `$add`/`$mux`/`$sdff`/… cells, constants as
//! inline `"0"`/`"1"` bit strings), so external EDA tooling can inspect or
//! transform our designs; [`import_yosys`] reads it back. The round-trip
//! contract matches [`crate::text`]: `parse_yosys(&emit_yosys(doc))`
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

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use serde::JsonWriter;
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

/// A parameter or attribute value: a number, or a string (bit strings such
/// as `SRST_VALUE`, and bank parameters that must stay u64-exact).
#[derive(Clone, Copy)]
enum Param<'a> {
    N(u64),
    S(&'a str),
}

use Param::{N, S};

/// Named parameters or attributes, in document order.
type Params<'a> = [(&'a str, Param<'a>)];

fn write_params(w: &mut JsonWriter, params: &Params) {
    w.open('{');
    for &(name, p) in params {
        match p {
            N(n) => w.key(name).u64(n),
            S(s) => w.key(name).str(s),
        }
    }
    w.close('}');
}

/// Connection bits: a contiguous run of bit indices (a net's, or a hidden
/// intermediate's), a constant's `"0"`/`"1"` bits, or the one `"x"` bit of
/// a register's clock and reset.
#[derive(Clone, Copy)]
enum Bits {
    Run(u64, u32),
    Const(u64, u32),
    X,
}

impl Bits {
    fn write(self, w: &mut JsonWriter) {
        w.open('[');
        match self {
            Bits::Run(start, width) => {
                (start..start + u64::from(width)).for_each(|b| w.u64(b));
            }
            Bits::Const(value, width) => {
                for i in 0..width {
                    w.str(["0", "1"][(value.checked_shr(i).unwrap_or(0) & 1) as usize]);
                }
            }
            Bits::X => w.str("x"),
        }
        w.close(']');
    }
}

/// Uniquifies display keys: the true name when it is unique, nonempty, and
/// does not collide with generated `$…` names; otherwise `base$<index>`.
fn display_keys<'n>(names: Vec<&'n str>, placeholder: &str) -> Vec<Cow<'n, str>> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for n in &names {
        *counts.entry(n).or_insert(0) += 1;
    }
    names
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            if n.is_empty() || n.starts_with('$') {
                Cow::Owned(format!("${placeholder}${i}"))
            } else if counts[n] > 1 {
                Cow::Owned(format!("{n}${i}"))
            } else {
                Cow::Borrowed(n)
            }
        })
        .collect()
}

/// Writes one cell; ports named `Y` or `Q` are outputs, the rest inputs.
fn write_cell(
    w: &mut JsonWriter,
    key: &str,
    ty: &str,
    params: &Params,
    attrs: &Params,
    conns: &[(&str, Bits)],
) {
    w.key(key).open('{');
    w.key("hide_name").u64(1);
    w.key("type").str(ty);
    write_params(w.key("parameters"), params);
    write_params(w.key("attributes"), attrs);
    w.key("port_directions").open('{');
    for (port, _) in conns {
        w.key(port)
            .str(["input", "output"][usize::from(matches!(*port, "Y" | "Q"))]);
    }
    w.close('}');
    w.key("connections").open('{');
    for (port, bits) in conns {
        bits.write(w.key(port));
    }
    w.close('}');
    w.close('}');
}

/// Writes one module entry as it goes: nets get contiguous bit runs from 2
/// upward, and each cell is written the moment it is produced.
struct ModuleExporter<'m> {
    m: &'m Module,
    net_start: Vec<u64>,
    next_bit: u64,
    expr_counter: usize,
}

impl<'m> ModuleExporter<'m> {
    fn new(m: &'m Module) -> ModuleExporter<'m> {
        let mut next_bit = 2u64; // Yosys reserves bits 0 and 1
        let net_start = m
            .nets()
            .iter()
            .map(|net| {
                next_bit += u64::from(net.width);
                next_bit - u64::from(net.width)
            })
            .collect();
        ModuleExporter {
            m,
            net_start,
            next_bit,
            expr_counter: 0,
        }
    }

    fn net_bits(&self, id: NetId) -> Bits {
        Bits::Run(self.net_start[id], self.m.nets()[id].width)
    }

    /// A hidden operator cell, keyed `$expr$<n>` in post order. Its `Y`
    /// bits are `root_y` if given, else a fresh hidden run of `width`.
    fn expr_cell(
        &mut self,
        w: &mut JsonWriter,
        root_y: Option<Bits>,
        width: u32,
        (ty, params, attrs): (&str, &Params, &Params),
        inputs: &[(&str, Bits)],
    ) -> Bits {
        let y = root_y.unwrap_or_else(|| {
            self.next_bit += u64::from(width);
            Bits::Run(self.next_bit - u64::from(width), width)
        });
        let mut conns = inputs.to_vec();
        conns.push(("Y", y));
        let key = format!("$expr${}", self.expr_counter);
        self.expr_counter += 1;
        write_cell(w, &key, ty, params, attrs, &conns);
        y
    }

    /// Connection bits for `e`, writing hidden cells for operators.
    /// With `root_y`, the outermost operator drives those (visible) bits.
    fn expr_bits(&mut self, w: &mut JsonWriter, e: &Expr, root_y: Option<Bits>) -> Bits {
        let nets = self.m.nets();
        let width = e.width(nets);
        let n = |e: &Expr| N(u64::from(e.width(nets)));
        match e {
            Expr::Const { value, width } => Bits::Const(*value, *width),
            Expr::Net(id) => self.net_bits(*id),
            Expr::Not(a) => {
                let a_bits = self.expr_bits(w, a, None);
                let params = [("A_SIGNED", N(0)), ("A_WIDTH", n(a)), ("Y_WIDTH", n(e))];
                self.expr_cell(w, root_y, width, ("$not", &params, &[]), &[("A", a_bits)])
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
                let a_bits = self.expr_bits(w, a, None);
                let b_bits = self.expr_bits(w, b, None);
                let params = [
                    ("A_SIGNED", N(0)),
                    ("B_SIGNED", N(0)),
                    ("A_WIDTH", n(a)),
                    ("B_WIDTH", n(b)),
                    ("Y_WIDTH", n(e)),
                ];
                let inputs = [("A", a_bits), ("B", b_bits)];
                self.expr_cell(w, root_y, width, (ty, &params, &[]), &inputs)
            }
            Expr::Mux {
                sel,
                on_true,
                on_false,
            } => {
                // Yosys $mux: Y = S ? B : A.
                let s_bits = self.expr_bits(w, sel, None);
                let b_bits = self.expr_bits(w, on_true, None);
                let a_bits = self.expr_bits(w, on_false, None);
                let inputs = [("A", a_bits), ("B", b_bits), ("S", s_bits)];
                self.expr_cell(w, root_y, width, ("$mux", &[("WIDTH", n(e))], &[]), &inputs)
            }
            Expr::Resize(a, _) | Expr::SignExtend(a, _) => {
                let signed = matches!(e, Expr::SignExtend(..));
                let a_bits = self.expr_bits(w, a, None);
                let params = [
                    ("A_SIGNED", N(u64::from(signed))),
                    ("A_WIDTH", n(a)),
                    ("Y_WIDTH", n(e)),
                ];
                let attrs = [("tensorlib_resize", N(1))];
                self.expr_cell(
                    w,
                    root_y,
                    width,
                    ("$pos", &params, &attrs),
                    &[("A", a_bits)],
                )
            }
        }
    }

    /// Writes the module entry: `attributes`, then `ports`, `cells` and
    /// `netnames`, ports and netnames in declaration order.
    fn export(mut self, w: &mut JsonWriter, attrs: &Params) {
        let m = self.m;
        let net_keys = display_keys(m.nets().iter().map(|n| n.name.as_str()).collect(), "n");
        w.key(m.name()).open('{');
        write_params(w.key("attributes"), attrs);
        w.key("ports").open('{');
        for &(id, dir) in m.ports() {
            w.key(&net_keys[id]).open('{');
            w.key("direction").str(match dir {
                Dir::Input => "input",
                Dir::Output => "output",
            });
            self.net_bits(id).write(w.key("bits"));
            w.close('}');
        }
        w.close('}');
        w.key("cells").open('{');
        // Assign roots: operator roots drive the target bits directly;
        // bare net/constant right-hand sides become unmarked $pos buffers.
        for (target, expr) in m.assigns() {
            let y = self.net_bits(*target);
            if let Expr::Net(_) | Expr::Const { .. } = expr {
                let a_bits = self.expr_bits(w, expr, None);
                let width = m.nets()[*target].width;
                let params = [
                    ("A_SIGNED", N(0)),
                    ("A_WIDTH", N(u64::from(expr.width(m.nets())))),
                    ("Y_WIDTH", N(u64::from(width))),
                ];
                self.expr_cell(w, Some(y), width, ("$pos", &params, &[]), &[("A", a_bits)]);
            } else {
                self.expr_bits(w, expr, Some(y));
            }
        }
        for (i, r) in m.regs().iter().enumerate() {
            let width = m.nets()[r.target].width;
            let d = self.expr_bits(w, &r.next, None);
            let en = r.enable.as_ref().map(|en| self.expr_bits(w, en, None));
            let srst_value: String = (0..width)
                .rev()
                .map(|i| ['0', '1'][(r.init.checked_shr(i).unwrap_or(0) & 1) as usize])
                .collect();
            let mut params = vec![
                ("WIDTH", N(u64::from(width))),
                ("CLK_POLARITY", N(1)),
                ("SRST_POLARITY", N(1)),
                ("SRST_VALUE", S(&srst_value)),
            ];
            let q = self.net_bits(r.target);
            let mut conns = vec![("CLK", Bits::X), ("SRST", Bits::X), ("D", d), ("Q", q)];
            let ty = if let Some(en) = en {
                params.push(("EN_POLARITY", N(1)));
                conns.insert(2, ("EN", en));
                "$sdffe"
            } else {
                "$sdff"
            };
            write_cell(w, &format!("$reg${i}"), ty, &params, &[], &conns);
        }
        let inst_names = m.instances().iter().map(|i| i.name.as_str()).collect();
        for (inst, key) in m.instances().iter().zip(display_keys(inst_names, "inst")) {
            w.key(&key).open('{');
            w.key("hide_name").u64(0);
            w.key("type").str(&inst.module);
            write_params(w.key("parameters"), &[]);
            let attrs = [
                ("tensorlib_name", S(&inst.name)),
                ("module_not_derived", N(1)),
            ];
            write_params(w.key("attributes"), &attrs);
            w.key("connections").open('{');
            for (port, net) in &inst.connections {
                self.net_bits(*net).write(w.key(port));
            }
            w.close('}');
            w.close('}');
        }
        w.close('}');
        w.key("netnames").open('{');
        for (id, net) in m.nets().iter().enumerate() {
            w.key(&net_keys[id]).open('{');
            w.key("hide_name").u64(u64::from(net.name.is_empty()));
            self.net_bits(id).write(w.key("bits"));
            write_params(w.key("attributes"), &[("tensorlib_name", S(&net.name))]);
            w.close('}');
        }
        w.close('}');
        w.close('}');
    }
}

/// Renders `doc` as Yosys-JSON text (trailing newline included), written
/// as it goes with no document tree in between. Deterministic: equal
/// documents emit identical text. A memory bank exports as a blackbox
/// module with its interface module's ports and its parameters in
/// `tensorlib_*` attributes.
pub fn emit_yosys(doc: &NetlistDoc) -> String {
    let _span = tensorlib_obs::span("hw.yosys.emit");
    let mut w = JsonWriter::pretty();
    w.open('{');
    w.key("creator").str("tensorlib netlist interchange v1");
    w.key("modules").open('{');
    for bank in &doc.banks {
        let (words, width) = (bank.words().to_string(), bank.width().to_string());
        let flag = |on: bool| S(if on { "1" } else { "0" });
        let iface = bank.interface_module();
        ModuleExporter::new(&iface).export(
            &mut w,
            &[
                ("blackbox", N(1)),
                ("tensorlib_bank", N(1)),
                ("tensorlib_words", S(&words)),
                ("tensorlib_width", S(&width)),
                ("tensorlib_db", flag(bank.is_double_buffered())),
                ("tensorlib_parity", flag(bank.has_parity())),
            ],
        );
    }
    for m in &doc.modules {
        let top = [("top", N(1))];
        let attrs = if m.name() == doc.top { &top[..] } else { &[] };
        ModuleExporter::new(m).export(&mut w, attrs);
    }
    w.close('}');
    w.close('}');
    let mut text = w.finish();
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

/// Imports a Yosys-JSON document tree produced by [`emit_yosys`] (or by
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
        let mut root = json::parse(&emit_yosys(&doc)).unwrap();
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
        let mut root = json::parse(&emit_yosys(&doc)).unwrap();
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
