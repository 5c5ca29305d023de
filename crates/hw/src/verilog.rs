//! Verilog emission: turns a generated design into synthesizable RTL text.
//!
//! Every module gets implicit `clk`/`rst` ports (registers use synchronous
//! reset); memory banks are emitted from a behavioural template. The output
//! is deterministic — identical designs emit byte-identical Verilog.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use crate::design::AcceleratorDesign;
use crate::mem::MemBank;
use crate::netlist::{BinOp, Dir, Expr, Module};

/// The IEEE 1800-2017 reserved words (Annex B), sorted for binary search.
/// Any net/module/instance/port name on this list — or with characters a
/// simple identifier cannot carry — must be emitted as an escaped
/// identifier, or the output is not legal Verilog.
const VERILOG_KEYWORDS: &[&str] = &[
    "accept_on",
    "alias",
    "always",
    "always_comb",
    "always_ff",
    "always_latch",
    "and",
    "assert",
    "assign",
    "assume",
    "automatic",
    "before",
    "begin",
    "bind",
    "bins",
    "binsof",
    "bit",
    "break",
    "buf",
    "bufif0",
    "bufif1",
    "byte",
    "case",
    "casex",
    "casez",
    "cell",
    "chandle",
    "checker",
    "class",
    "clocking",
    "cmos",
    "config",
    "const",
    "constraint",
    "context",
    "continue",
    "cover",
    "covergroup",
    "coverpoint",
    "cross",
    "deassign",
    "default",
    "defparam",
    "design",
    "disable",
    "dist",
    "do",
    "edge",
    "else",
    "end",
    "endcase",
    "endchecker",
    "endclass",
    "endclocking",
    "endconfig",
    "endfunction",
    "endgenerate",
    "endgroup",
    "endinterface",
    "endmodule",
    "endpackage",
    "endprimitive",
    "endprogram",
    "endproperty",
    "endsequence",
    "endspecify",
    "endtable",
    "endtask",
    "enum",
    "event",
    "eventually",
    "expect",
    "export",
    "extends",
    "extern",
    "final",
    "first_match",
    "for",
    "force",
    "foreach",
    "forever",
    "fork",
    "forkjoin",
    "function",
    "generate",
    "genvar",
    "global",
    "highz0",
    "highz1",
    "if",
    "iff",
    "ifnone",
    "ignore_bins",
    "illegal_bins",
    "implements",
    "implies",
    "import",
    "incdir",
    "include",
    "initial",
    "inout",
    "input",
    "inside",
    "instance",
    "int",
    "integer",
    "interconnect",
    "interface",
    "intersect",
    "join",
    "join_any",
    "join_none",
    "large",
    "let",
    "liblist",
    "library",
    "local",
    "localparam",
    "logic",
    "longint",
    "macromodule",
    "matches",
    "medium",
    "modport",
    "module",
    "nand",
    "negedge",
    "nettype",
    "new",
    "nexttime",
    "nmos",
    "nor",
    "noshowcancelled",
    "not",
    "notif0",
    "notif1",
    "null",
    "or",
    "output",
    "package",
    "packed",
    "parameter",
    "pmos",
    "posedge",
    "primitive",
    "priority",
    "program",
    "property",
    "protected",
    "pull0",
    "pull1",
    "pulldown",
    "pullup",
    "pulsestyle_ondetect",
    "pulsestyle_onevent",
    "pure",
    "rand",
    "randc",
    "randcase",
    "randsequence",
    "rcmos",
    "real",
    "realtime",
    "ref",
    "reg",
    "reject_on",
    "release",
    "repeat",
    "restrict",
    "return",
    "rnmos",
    "rpmos",
    "rtran",
    "rtranif0",
    "rtranif1",
    "s_always",
    "s_eventually",
    "s_nexttime",
    "s_until",
    "s_until_with",
    "scalared",
    "sequence",
    "shortint",
    "shortreal",
    "showcancelled",
    "signed",
    "small",
    "soft",
    "solve",
    "specify",
    "specparam",
    "static",
    "string",
    "strong",
    "strong0",
    "strong1",
    "struct",
    "super",
    "supply0",
    "supply1",
    "sync_accept_on",
    "sync_reject_on",
    "table",
    "tagged",
    "task",
    "this",
    "throughout",
    "time",
    "timeprecision",
    "timeunit",
    "tran",
    "tranif0",
    "tranif1",
    "tri",
    "tri0",
    "tri1",
    "triand",
    "trior",
    "trireg",
    "type",
    "typedef",
    "union",
    "unique",
    "unique0",
    "unsigned",
    "until",
    "until_with",
    "untyped",
    "use",
    "uwire",
    "var",
    "vectored",
    "virtual",
    "void",
    "wait",
    "wait_order",
    "wand",
    "weak",
    "weak0",
    "weak1",
    "while",
    "wildcard",
    "wire",
    "with",
    "within",
    "wor",
    "xnor",
    "xor",
];

/// Renders a name as a legal Verilog identifier. Simple identifiers
/// (`[A-Za-z_][A-Za-z0-9_$]*`, not reserved) pass through verbatim; every
/// other name — keywords, empty names, names with hostile characters —
/// becomes an escaped identifier (`\name`, terminated by the mandatory
/// trailing space). Inside the escaped form, printable ASCII is kept
/// verbatim except `$`, which doubles to `$$`; whitespace, control, and
/// non-ASCII characters become `$uXXXX`. The encoding is injective, so
/// distinct source names never merge into one emitted identifier, and it
/// is deterministic, so emission stays byte-reproducible.
fn vl_ident(name: &str) -> String {
    let simple = !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
        && VERILOG_KEYWORDS.binary_search(&name).is_err();
    if simple {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 2);
    out.push('\\');
    if name.is_empty() {
        out.push_str("$empty");
    }
    for c in name.chars() {
        match c {
            '$' => out.push_str("$$"),
            c if (0x21..=0x7e).contains(&(c as u32)) => out.push(c),
            c => {
                let _ = write!(out, "$u{:04x}", c as u32);
            }
        }
    }
    out.push(' ');
    out
}

/// Collects intermediate wires for expressions that Verilog cannot
/// part-select directly. `(a + b)[7:0]` is illegal — a part-select operand
/// must be a simple identifier — so narrowing `Resize`/`SignExtend` of a
/// compound expression hoists the operand into a named wire first. Naming is
/// deterministic (`rsz_0`, `rsz_1`, … in discovery order, skipping any name
/// the module already uses) and identical subexpressions share one wire, so
/// emission stays byte-reproducible.
struct Hoister {
    used: HashSet<String>,
    decls: Vec<(String, u32)>,
    assigns: Vec<(String, String)>,
    memo: HashMap<(u32, String), String>,
    counter: usize,
}

impl Hoister {
    fn new(m: &Module) -> Hoister {
        Hoister {
            used: m.nets().iter().map(|n| n.name.clone()).collect(),
            decls: Vec::new(),
            assigns: Vec::new(),
            memo: HashMap::new(),
            counter: 0,
        }
    }

    fn hoist(&mut self, rhs: String, width: u32) -> String {
        if let Some(name) = self.memo.get(&(width, rhs.clone())) {
            return name.clone();
        }
        let name = loop {
            let candidate = format!("rsz_{}", self.counter);
            self.counter += 1;
            if !self.used.contains(&candidate) {
                break candidate;
            }
        };
        self.used.insert(name.clone());
        self.decls.push((name.clone(), width));
        self.assigns.push((name.clone(), rhs.clone()));
        self.memo.insert((width, rhs), name.clone());
        name
    }
}

/// Emits one module as Verilog.
///
/// # Examples
///
/// ```
/// use tensorlib_hw::netlist::{Expr, Module};
/// use tensorlib_hw::verilog::emit_module;
///
/// let mut m = Module::new("inc");
/// let a = m.input("a", 8);
/// let y = m.output("y", 8);
/// m.assign(y, Expr::net(a).add(Expr::lit(1, 8)).resize(8));
/// let v = emit_module(&m);
/// assert!(v.contains("module inc"));
/// assert!(v.contains("assign y"));
/// ```
pub fn emit_module(m: &Module) -> String {
    let mut s = String::new();
    let has_regs = !m.regs().is_empty() || !m.instances().is_empty();
    let mut port_names: Vec<String> = Vec::new();
    if has_regs {
        port_names.push("clk".into());
        port_names.push("rst".into());
    }
    for (id, _) in m.ports() {
        port_names.push(vl_ident(&m.nets()[*id].name));
    }
    let _ = writeln!(s, "module {} (", vl_ident(m.name()));
    let _ = writeln!(s, "  {}", port_names.join(",\n  "));
    let _ = writeln!(s, ");");
    if has_regs {
        let _ = writeln!(s, "  input wire clk;");
        let _ = writeln!(s, "  input wire rst;");
    }
    // Port declarations.
    let reg_targets: Vec<usize> = m.regs().iter().map(|r| r.target).collect();
    for (id, dir) in m.ports() {
        let n = &m.nets()[*id];
        let d = match dir {
            Dir::Input => "input wire",
            Dir::Output => {
                if reg_targets.contains(id) {
                    "output reg"
                } else {
                    "output wire"
                }
            }
        };
        let _ = writeln!(s, "  {}{}{};", d, width_decl(n.width), vl_ident(&n.name));
    }
    // Internal nets.
    let port_ids: Vec<usize> = m.ports().iter().map(|(id, _)| *id).collect();
    for (id, n) in m.nets().iter().enumerate() {
        if port_ids.contains(&id) {
            continue;
        }
        let kw = if reg_targets.contains(&id) { "reg" } else { "wire" };
        let _ = writeln!(s, "  {}{}{};", kw, width_decl(n.width), vl_ident(&n.name));
    }
    // The body is emitted into a scratch buffer first so hoisted wires
    // (discovered while emitting expressions) can be declared up front.
    let mut h = Hoister::new(m);
    let mut body = String::new();
    // Combinational assigns.
    for (target, expr) in m.assigns() {
        let _ = writeln!(
            body,
            "  assign {} = {};",
            vl_ident(&m.nets()[*target].name),
            emit_expr(expr, m, &mut h)
        );
    }
    // Registers.
    for r in m.regs() {
        let name = &vl_ident(&m.nets()[r.target].name);
        let _ = writeln!(body, "  always @(posedge clk) begin");
        let _ = writeln!(
            body,
            "    if (rst) {} <= {}'d{};",
            name,
            m.nets()[r.target].width,
            r.init
        );
        match &r.enable {
            Some(e) => {
                let _ = writeln!(
                    body,
                    "    else if ({}) {} <= {};",
                    emit_expr(e, m, &mut h),
                    name,
                    emit_expr(&r.next, m, &mut h)
                );
            }
            None => {
                let _ = writeln!(body, "    else {} <= {};", name, emit_expr(&r.next, m, &mut h));
            }
        }
        let _ = writeln!(body, "  end");
    }
    // Instances.
    for inst in m.instances() {
        let mut conns: Vec<String> =
            vec!["    .clk(clk)".into(), "    .rst(rst)".into()];
        for (port, net) in &inst.connections {
            conns.push(format!(
                "    .{}({})",
                vl_ident(port),
                vl_ident(&m.nets()[*net].name)
            ));
        }
        let _ = writeln!(
            body,
            "  {} {} (",
            vl_ident(&inst.module),
            vl_ident(&inst.name)
        );
        let _ = writeln!(body, "{}", conns.join(",\n"));
        let _ = writeln!(body, "  );");
    }
    for (name, width) in &h.decls {
        let _ = writeln!(s, "  wire{}{};", width_decl(*width), name);
    }
    s.push('\n');
    for (name, rhs) in &h.assigns {
        let _ = writeln!(s, "  assign {name} = {rhs};");
    }
    s.push_str(&body);
    let _ = writeln!(s, "endmodule");
    s
}

fn width_decl(width: u32) -> String {
    if width == 1 {
        " ".into()
    } else {
        format!(" [{}:0] ", width - 1)
    }
}

fn bits(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Emits `expr` with `width` part-selectable: nets pass through, constants
/// fold to a truncated literal (literals cannot be part-selected either),
/// anything compound is hoisted into a named wire.
fn selectable(inner: &Expr, m: &Module, h: &mut Hoister) -> String {
    match inner {
        Expr::Net(_) => emit_expr(inner, m, h),
        Expr::Const { value, width } => format!("{width}'d{}", value & bits(*width)),
        _ => {
            let rhs = emit_expr(inner, m, h);
            h.hoist(rhs, inner.width(m.nets()))
        }
    }
}

fn emit_expr(expr: &Expr, m: &Module, h: &mut Hoister) -> String {
    match expr {
        Expr::Const { value, width } => format!("{width}'d{value}"),
        Expr::Net(id) => vl_ident(&m.nets()[*id].name),
        Expr::Not(e) => format!("(~{})", emit_expr(e, m, h)),
        Expr::Bin(op, a, b) => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::And => "&",
                BinOp::Or => "|",
                BinOp::Xor => "^",
                BinOp::Eq => "==",
                BinOp::Lt => "<",
            };
            format!("({} {} {})", emit_expr(a, m, h), o, emit_expr(b, m, h))
        }
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => format!(
            "({} ? {} : {})",
            emit_expr(sel, m, h),
            emit_expr(on_true, m, h),
            emit_expr(on_false, m, h)
        ),
        Expr::Resize(inner, w) => {
            let iw = inner.width(m.nets());
            if *w == iw {
                emit_expr(inner, m, h)
            } else if *w < iw {
                // Part-select needs an identifier, so narrow via a hoisted
                // wire (or fold a constant).
                if let Expr::Const { value, .. } = inner.as_ref() {
                    format!("{w}'d{}", value & bits(*w))
                } else {
                    format!("{}[{}:0]", selectable(inner, m, h), w - 1)
                }
            } else {
                format!("{{{{{}{{1'b0}}}}, {}}}", w - iw, emit_expr(inner, m, h))
            }
        }
        Expr::SignExtend(inner, w) => {
            let iw = inner.width(m.nets());
            if *w == iw {
                emit_expr(inner, m, h)
            } else if *w < iw {
                if let Expr::Const { value, .. } = inner.as_ref() {
                    format!("{w}'d{}", value & bits(*w))
                } else {
                    format!("{}[{}:0]", selectable(inner, m, h), w - 1)
                }
            } else if let Expr::Const { value, width } = inner.as_ref() {
                // Fold: the MSB replication below needs a part-select.
                let v = value & bits(*width);
                let ext = if *width > 0 && (v >> (width - 1)) & 1 == 1 {
                    (v | !bits(*width)) & bits(*w)
                } else {
                    v
                };
                format!("{w}'d{ext}")
            } else {
                let name = selectable(inner, m, h);
                format!("{{{{{}{{{name}[{}]}}}}, {name}}}", w - iw, iw - 1)
            }
        }
    }
}

/// Emits the behavioural Verilog for a memory bank template.
pub fn emit_mem_bank(bank: &MemBank) -> String {
    let mut s = String::new();
    let w = bank.width();
    let depth = bank.words();
    let ab = bank.addr_bits();
    let db = bank.is_double_buffered();
    let _ = writeln!(s, "module {} (", bank.module_name());
    let mut ports = vec!["clk", "rst", "en", "wen", "wdata", "rdata"];
    if db {
        ports.push("buf_sel");
    }
    let _ = writeln!(s, "  {}", ports.join(",\n  "));
    let _ = writeln!(s, ");");
    let _ = writeln!(s, "  input wire clk;");
    let _ = writeln!(s, "  input wire rst;");
    let _ = writeln!(s, "  input wire en;");
    let _ = writeln!(s, "  input wire wen;");
    let _ = writeln!(s, "  input wire{}wdata;", width_decl(w));
    let _ = writeln!(s, "  output reg{}rdata;", width_decl(w));
    if db {
        let _ = writeln!(s, "  input wire buf_sel;");
    }
    let total = if db { depth * 2 } else { depth };
    let _ = writeln!(s, "  reg{}mem [0:{}];", width_decl(w), total - 1);
    let _ = writeln!(s, "  reg [{}:0] raddr;", ab);
    let _ = writeln!(s, "  reg [{}:0] waddr;", ab);
    let base_r = if db {
        format!("{{(~buf_sel), raddr[{}:0]}}", ab - 1)
    } else {
        "raddr".to_string()
    };
    let base_w = if db {
        format!("{{buf_sel, waddr[{}:0]}}", ab - 1)
    } else {
        "waddr".to_string()
    };
    let _ = writeln!(s, "  always @(posedge clk) begin");
    let _ = writeln!(s, "    if (rst) begin raddr <= 0; waddr <= 0; rdata <= 0; end");
    let _ = writeln!(s, "    else begin");
    let _ = writeln!(
        s,
        "      if (en) begin rdata <= mem[{base_r}]; raddr <= raddr + 1; end"
    );
    let _ = writeln!(
        s,
        "      if (wen) begin mem[{base_w}] <= wdata; waddr <= waddr + 1; end"
    );
    let _ = writeln!(s, "    end");
    let _ = writeln!(s, "  end");
    let _ = writeln!(s, "endmodule");
    s
}

/// Emits the entire design — bank templates first, then all netlist modules
/// bottom-up (PE, trees, controller, array, top).
///
/// # Examples
///
/// ```
/// use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
/// use tensorlib_hw::design::{generate, HwConfig};
/// use tensorlib_hw::verilog::emit_design;
/// use tensorlib_ir::workloads;
///
/// let gemm = workloads::gemm(32, 32, 32);
/// let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"])?;
/// let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())?;
/// let design = generate(&df, &HwConfig::default()).expect("generates");
/// let v = emit_design(&design);
/// assert!(v.contains("endmodule"));
/// # Ok::<(), tensorlib_dataflow::DataflowError>(())
/// ```
pub fn emit_design(design: &AcceleratorDesign) -> String {
    let _span = tensorlib_obs::span("hw.verilog.emit");
    let mut s = String::new();
    let _ = writeln!(
        s,
        "// Generated by tensorlib-hw for dataflow {}",
        design.dataflow().name()
    );
    let _ = writeln!(s, "// Top module: {}\n", design.top());
    for bank in design.mem_banks() {
        s.push_str(&emit_mem_bank(bank));
        s.push('\n');
    }
    for m in design.modules() {
        s.push_str(&emit_module(m));
        s.push('\n');
    }
    s
}

/// Emits a self-checking-ish Verilog testbench for the design's top module:
/// clock/reset generation, a fill phase that streams stimulus into every
/// input bank, a `start` pulse, and a wait-for-`done` with result dumping.
///
/// The testbench is simulator-agnostic (plain `initial`/`always` blocks,
/// `$display`/`$finish`) so the emitted design can be sanity-run under any
/// event-driven simulator; bit-exact checking against the reference executor
/// is done natively by `tensorlib-sim` and the netlist interpreter.
pub fn emit_testbench(design: &AcceleratorDesign) -> String {
    let mut s = String::new();
    let top = design.top();
    let _ = writeln!(s, "// Testbench for {top} (generated)");
    let _ = writeln!(s, "`timescale 1ns/1ps");
    let _ = writeln!(s, "module tb_{top};");
    let _ = writeln!(s, "  reg clk = 0; always #5 clk = ~clk;");
    let _ = writeln!(s, "  reg rst = 1;");
    let _ = writeln!(s, "  reg start = 0;");
    let _ = writeln!(s, "  reg fill_en = 0;");
    let _ = writeln!(s, "  wire done;");
    // Per-binding stimulus/readback nets.
    let mut conns: Vec<String> = vec![
        ".clk(clk)".into(),
        ".rst(rst)".into(),
        ".start(start)".into(),
        ".fill_en(fill_en)".into(),
        ".done(done)".into(),
    ];
    let mut fill_regs = Vec::new();
    let mut result_wires = Vec::new();
    for (bi, binding) in design.bank_bindings().iter().enumerate() {
        let port = design.port_group(binding);
        let w = port.width;
        if port.kind.is_input() {
            let _ = writeln!(s, "  reg{}fill_{bi} = 0;", width_decl(w));
            conns.push(format!(".fill_{bi}(fill_{bi})"));
            fill_regs.push(bi);
        } else {
            let _ = writeln!(s, "  wire{}result_{bi};", width_decl(w));
            let _ = writeln!(s, "  reg readback_{bi} = 0;");
            conns.push(format!(".result_{bi}(result_{bi})"));
            conns.push(format!(".readback_{bi}(readback_{bi})"));
            result_wires.push(bi);
        }
    }
    let _ = writeln!(s, "  {top} dut (");
    let _ = writeln!(
        s,
        "    {}",
        conns
            .iter()
            .map(|c| c.as_str())
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    let _ = writeln!(s, "  );");
    let fill_words = design
        .phases()
        .compute_cycles
        .min(256);
    let _ = writeln!(s, "  integer i;");
    let _ = writeln!(s, "  initial begin");
    let _ = writeln!(s, "    repeat (4) @(posedge clk); rst = 0;");
    let _ = writeln!(s, "    // Fill phase: pseudo-random stimulus.");
    let _ = writeln!(s, "    fill_en = 1;");
    let _ = writeln!(s, "    for (i = 0; i < {fill_words}; i = i + 1) begin");
    for bi in &fill_regs {
        let _ = writeln!(s, "      fill_{bi} = $random;");
    }
    let _ = writeln!(s, "      @(posedge clk);");
    let _ = writeln!(s, "    end");
    let _ = writeln!(s, "    fill_en = 0;");
    let _ = writeln!(s, "    start = 1; @(posedge clk); start = 0;");
    let _ = writeln!(s, "    wait (done);");
    for bi in &result_wires {
        let _ = writeln!(s, "    readback_{bi} = 1;");
    }
    let _ = writeln!(s, "    repeat (4) @(posedge clk);");
    for bi in &result_wires {
        let _ = writeln!(
            s,
            "    $display(\"result_{bi} = %0d\", result_{bi});"
        );
    }
    let _ = writeln!(s, "    $display(\"done at %0t\", $time);");
    let _ = writeln!(s, "    $finish;");
    let _ = writeln!(s, "  end");
    let _ = writeln!(s, "  initial begin #1000000 $display(\"TIMEOUT\"); $finish; end");
    let _ = writeln!(s, "endmodule");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Expr;

    #[test]
    fn simple_module_emission() {
        let mut m = Module::new("inc");
        let a = m.input("a", 8);
        let y = m.output("y", 8);
        m.assign(y, Expr::net(a).add(Expr::lit(1, 8)).resize(8));
        let v = emit_module(&m);
        assert!(v.contains("module inc"));
        assert!(!v.contains("clk"), "combinational module needs no clock");
        assert!(v.contains("assign y = (a + 8'd1)"));
        assert!(v.ends_with("endmodule\n"));
    }

    #[test]
    fn register_gets_clock_and_reset() {
        let mut m = Module::new("cnt");
        let en = m.input("en", 1);
        let q = m.output("q", 4);
        m.reg(q, Expr::net(q).add(Expr::lit(1, 4)), Some(Expr::net(en)), 0);
        let v = emit_module(&m);
        assert!(v.contains("input wire clk"));
        assert!(v.contains("output reg [3:0] q"));
        assert!(v.contains("always @(posedge clk)"));
        assert!(v.contains("if (rst) q <= 4'd0;"));
        assert!(v.contains("else if (en) q <= (q + 4'd1);"));
    }

    #[test]
    fn resize_emission() {
        let mut m = Module::new("rs");
        let a = m.input("a", 8);
        let wide = m.output("wide", 12);
        let narrow = m.output("narrow", 4);
        m.assign(wide, Expr::net(a).resize(12));
        m.assign(narrow, Expr::net(a).resize(4));
        let v = emit_module(&m);
        assert!(v.contains("{{4{1'b0}}, a}"), "zero extension: {v}");
        assert!(v.contains("a[3:0]"), "truncation: {v}");
    }

    #[test]
    fn narrowing_a_compound_operand_hoists_a_wire() {
        // `(a + b)[3:0]` is illegal Verilog: part-select operands must be
        // identifiers. The emitter must route the sum through a named wire.
        let mut m = Module::new("nar");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let y = m.output("y", 4);
        m.assign(y, Expr::net(a).add(Expr::net(b)).resize(4));
        let v = emit_module(&m);
        assert!(!v.contains(")["), "no part-select of a parenthesized expr: {v}");
        assert!(v.contains("wire [7:0] rsz_0;"), "hoisted wire declared: {v}");
        assert!(v.contains("assign rsz_0 = (a + b);"), "hoisted assign: {v}");
        assert!(v.contains("assign y = rsz_0[3:0];"), "narrow via the wire: {v}");
    }

    #[test]
    fn sign_extending_a_mux_operand_hoists_a_wire() {
        let mut m = Module::new("sx");
        let s = m.input("s", 1);
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let y = m.output("y", 12);
        m.assign(y, Expr::mux(Expr::net(s), Expr::net(a), Expr::net(b)).sext(12));
        let v = emit_module(&m);
        assert!(!v.contains(")["), "no part-select of a parenthesized expr: {v}");
        assert!(v.contains("assign rsz_0 = (s ? a : b);"), "hoisted mux: {v}");
        // MSB replication and the concatenated value both use the wire.
        assert!(v.contains("{{4{rsz_0[7]}}, rsz_0}"), "sign extension: {v}");
    }

    #[test]
    fn narrowing_sign_extend_of_a_bin_operand_hoists_a_wire() {
        let mut m = Module::new("nsx");
        let a = m.input("a", 8);
        let y = m.output("y", 4);
        m.assign(y, Expr::net(a).add(Expr::net(a)).sext(4));
        let v = emit_module(&m);
        assert!(v.contains("assign rsz_0 = (a + a);"), "{v}");
        assert!(v.contains("assign y = rsz_0[3:0];"), "{v}");
    }

    #[test]
    fn identical_hoisted_subexpressions_share_one_wire() {
        let mut m = Module::new("share");
        let a = m.input("a", 8);
        let y = m.output("y", 4);
        let z = m.output("z", 4);
        m.assign(y, Expr::net(a).add(Expr::lit(1, 8)).resize(4));
        m.assign(z, Expr::net(a).add(Expr::lit(1, 8)).resize(4));
        let v = emit_module(&m);
        assert_eq!(v.matches("assign rsz_0 = ").count(), 1, "{v}");
        assert!(!v.contains("rsz_1"), "memoized, not duplicated: {v}");
    }

    #[test]
    fn hoist_names_skip_existing_nets() {
        let mut m = Module::new("clash");
        let a = m.input("a", 8);
        let taken = m.net("rsz_0", 8);
        m.assign(taken, Expr::net(a));
        let y = m.output("y", 4);
        m.assign(y, Expr::net(a).add(Expr::net(a)).resize(4));
        let v = emit_module(&m);
        assert!(v.contains("assign rsz_1 = (a + a);"), "{v}");
    }

    #[test]
    fn constant_resizes_fold_instead_of_part_selecting() {
        // `8'd200[3:0]` is just as illegal as `(a+b)[3:0]`.
        let mut m = Module::new("cf");
        let y = m.output("y", 4);
        let z = m.output("z", 8);
        m.assign(y, Expr::lit(200, 8).resize(4));
        // 4'b1001 sign-extended to 8 bits = 8'd249.
        m.assign(z, Expr::lit(9, 4).sext(8));
        let v = emit_module(&m);
        assert!(v.contains("assign y = 4'd8;"), "200 & 0xF == 8: {v}");
        assert!(v.contains("assign z = 8'd249;"), "sign-extended literal: {v}");
    }

    #[test]
    fn mem_bank_emission() {
        let bank = MemBank::new(64, 16, true);
        let v = emit_mem_bank(&bank);
        assert!(v.contains("module bank_w16_d64_db"));
        assert!(v.contains("mem [0:127]"), "double buffer doubles depth: {v}");
        assert!(v.contains("buf_sel"));
        let single = emit_mem_bank(&MemBank::new(64, 16, false));
        assert!(single.contains("mem [0:63]"));
        assert!(!single.contains("buf_sel"));
    }

    #[test]
    fn instances_connect_clock() {
        let mut m = Module::new("wrap");
        let a = m.input("a", 8);
        let y = m.output("y", 8);
        m.instance(
            "child",
            "c0",
            vec![("in".into(), a), ("out".into(), y)],
        );
        let v = emit_module(&m);
        assert!(v.contains(".clk(clk)"));
        assert!(v.contains(".in(a)"));
        assert!(v.contains("child c0 ("));
    }

    #[test]
    fn testbench_targets_top_and_waits_for_done() {
        use crate::design::{generate, HwConfig};
        use tensorlib_dataflow::{Dataflow, LoopSelection, Stt};
        use tensorlib_ir::workloads;
        let gemm = workloads::gemm(16, 16, 16);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).unwrap();
        let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).unwrap();
        let design = generate(&df, &HwConfig::default()).unwrap();
        let tb = emit_testbench(&design);
        assert!(tb.contains(&format!("module tb_{}", design.top())));
        assert!(tb.contains("wait (done);"));
        assert!(tb.contains("$finish"));
        // Every input bank gets a stimulus register.
        let fills = design
            .array_ports()
            .iter()
            .filter(|p| p.kind.is_input())
            .count();
        assert_eq!(tb.matches("= $random;").count(), fills);
    }

    #[test]
    fn keyword_list_is_sorted_and_unique() {
        // vl_ident binary-searches the list, so order is load-bearing.
        for w in VERILOG_KEYWORDS.windows(2) {
            assert!(w[0] < w[1], "out of order: {:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn every_keyword_escapes() {
        for kw in VERILOG_KEYWORDS {
            assert_eq!(
                vl_ident(kw),
                format!("\\{kw} "),
                "keyword {kw:?} must emit escaped"
            );
        }
    }

    #[test]
    fn valid_identifiers_pass_through() {
        for name in ["a", "_x", "pe_0_0", "acc$shadow", "Reg", "wires", "end_"] {
            assert_eq!(vl_ident(name), name, "{name:?} is a legal identifier");
        }
    }

    #[test]
    fn hostile_identifiers_escape_injectively() {
        assert_eq!(vl_ident(""), "\\$empty ");
        assert_eq!(vl_ident("0net"), "\\0net ");
        assert_eq!(vl_ident("a b"), "\\a$u0020b ");
        assert_eq!(vl_ident("a\nb"), "\\a$u000ab ");
        assert_eq!(vl_ident("naïve"), "\\na$u00efve ");
        // `$` doubles, so a literal `a$u0020b` cannot collide with the
        // escape of `a b` (and being a simple identifier it passes through).
        assert_eq!(vl_ident("a$u0020b"), "a$u0020b");
        assert_ne!(vl_ident("a b"), vl_ident("a$u0020b"));
    }

    #[test]
    fn keyword_named_nets_emit_escaped() {
        let mut m = Module::new("module");
        let a = m.input("reg", 8);
        let y = m.output("output", 8);
        m.assign(y, Expr::net(a).add(Expr::lit(1, 8)));
        let v = emit_module(&m);
        assert!(v.contains("module \\module  ("), "module name escaped: {v}");
        assert!(
            v.contains("  input wire [7:0] \\reg ;"),
            "port decl escaped: {v}"
        );
        assert!(
            v.contains("assign \\output  = (\\reg  + 8'd1);"),
            "assign with escaped operands: {v}"
        );
    }

    #[test]
    fn keyword_named_instance_ports_emit_escaped() {
        let mut m = Module::new("wrap2");
        let a = m.input("in", 8);
        m.instance("wire", "always", vec![("case".into(), a)]);
        let v = emit_module(&m);
        assert!(v.contains("\\wire  \\always  ("), "instance line escaped: {v}");
        assert!(v.contains(".\\case (in)"), "connection port escaped: {v}");
    }

    #[test]
    fn emission_is_deterministic() {
        let build = || {
            let mut m = Module::new("d");
            let a = m.input("a", 8);
            let y = m.output("y", 8);
            m.assign(y, Expr::net(a));
            emit_module(&m)
        };
        assert_eq!(build(), build());
    }
}
