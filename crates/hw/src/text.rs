//! A round-trippable textual interchange format for netlists.
//!
//! [`emit_text`] renders a [`NetlistDoc`] — modules, memory-bank templates,
//! and a top-module name — as a deterministic line-oriented text document;
//! [`parse_text`] is the matching recursive-descent parser. The contract,
//! enforced by the `hw::fuzz` round-trip oracles and the interchange test
//! battery, is exact: `parse_text(emit_text(doc))` reconstructs a
//! structurally identical document (so re-emission is byte-identical and the
//! compiled bytecode of the round-tripped design is byte-identical too).
//!
//! # Grammar
//!
//! ```text
//! document := header bank* module* top
//! header   := "tensorlib-netlist v1"
//! bank     := "bank" "words=" u64 "width=" u32 "db=" (0|1) "parity=" (0|1)
//! module   := "module" string netdecl* item* "end"
//! netdecl  := ("input" | "output" | "net") netref string width
//! item     := "assign" netref "=" expr
//!           | "reg" netref "=" expr ["en" "=" expr] "init" "=" u64
//!           | "inst" string "of" string "(" [conn ("," conn)*] ")"
//! conn     := string "=" netref
//! expr     := netref
//!           | "const" "(" u64 "," u32 ")"
//!           | "not" "(" expr ")"
//!           | binop "(" expr "," expr ")"
//!           | "mux" "(" expr "," expr "," expr ")"     # sel, on_true, on_false
//!           | "zext" "(" expr "," u32 ")"              # Expr::Resize
//!           | "sext" "(" expr "," u32 ")"              # Expr::SignExtend
//! binop    := "add"|"sub"|"mul"|"and"|"or"|"xor"|"eq"|"lt"
//! top      := "top" string
//! netref   := "%" usize
//! ```
//!
//! Nets are referenced by declaration index (`%0`, `%1`, …) rather than by
//! name, so duplicate or empty net names survive the round trip and
//! [`crate::netlist::NetId`] values are preserved exactly. Net declarations
//! must precede a module's logic, declaration indices must be dense and
//! in order, and `#` starts a comment running to end of line. Every parse
//! failure carries the 1-based line and column it was detected at.

use std::fmt;
use std::fmt::Write as _;

use crate::mem::MemBank;
use crate::netlist::{BinOp, Dir, Expr, Module, NetId};

/// A self-contained netlist document: the unit both interchange formats
/// (this module and [`crate::yosys`]) emit and parse.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistDoc {
    /// All modules, children before (or after) parents — order is preserved
    /// verbatim through a round trip.
    pub modules: Vec<Module>,
    /// Memory-bank templates instantiable by name
    /// ([`MemBank::module_name`]).
    pub banks: Vec<MemBank>,
    /// Name of the top module.
    pub top: String,
}

impl NetlistDoc {
    /// Wraps a bare module list (no banks) as a document.
    pub fn from_modules(modules: &[Module], top: &str) -> NetlistDoc {
        NetlistDoc {
            modules: modules.to_vec(),
            banks: Vec::new(),
            top: top.to_string(),
        }
    }

    /// Snapshots a generated design as an interchange document.
    pub fn from_design(design: &crate::design::AcceleratorDesign) -> NetlistDoc {
        NetlistDoc {
            modules: design.modules().to_vec(),
            banks: design.mem_banks().to_vec(),
            top: design.top().to_string(),
        }
    }

    /// Validates the document like a freshly generated design: per-module
    /// structural checks, the cross-module census (instance/port existence,
    /// width agreement, instance-output drivers), and top-module existence.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.modules.iter().any(|m| m.name() == self.top) {
            return Err(format!("top module {:?} is not defined", self.top));
        }
        for m in &self.modules {
            m.validate().map_err(|e| e.to_string())?;
        }
        crate::design::validate_modules(&self.modules, &self.banks)
            .map_err(|e| e.to_string())
    }
}

/// A parse failure with its 1-based source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for TextError {}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// Quotes a name: printable characters pass through, the handful of escapes
/// the parser understands cover everything else, so arbitrary strings
/// round-trip.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{{{:x}}}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn emit_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Const { value, width } => {
            let _ = write!(out, "const({value}, {width})");
        }
        Expr::Net(id) => {
            let _ = write!(out, "%{id}");
        }
        Expr::Not(x) => {
            out.push_str("not(");
            emit_expr(x, out);
            out.push(')');
        }
        Expr::Bin(op, a, b) => {
            out.push_str(match op {
                BinOp::Add => "add",
                BinOp::Sub => "sub",
                BinOp::Mul => "mul",
                BinOp::And => "and",
                BinOp::Or => "or",
                BinOp::Xor => "xor",
                BinOp::Eq => "eq",
                BinOp::Lt => "lt",
            });
            out.push('(');
            emit_expr(a, out);
            out.push_str(", ");
            emit_expr(b, out);
            out.push(')');
        }
        Expr::Mux {
            sel,
            on_true,
            on_false,
        } => {
            out.push_str("mux(");
            emit_expr(sel, out);
            out.push_str(", ");
            emit_expr(on_true, out);
            out.push_str(", ");
            emit_expr(on_false, out);
            out.push(')');
        }
        Expr::Resize(x, w) => {
            out.push_str("zext(");
            emit_expr(x, out);
            let _ = write!(out, ", {w})");
        }
        Expr::SignExtend(x, w) => {
            out.push_str("sext(");
            emit_expr(x, out);
            let _ = write!(out, ", {w})");
        }
    }
}

/// Renders `doc` as the textual interchange format. Deterministic: equal
/// documents emit byte-identical text.
pub fn emit_text(doc: &NetlistDoc) -> String {
    let _span = tensorlib_obs::span("hw.text.emit");
    let mut s = String::new();
    s.push_str("tensorlib-netlist v1\n");
    for b in &doc.banks {
        let _ = writeln!(
            s,
            "bank words={} width={} db={} parity={}",
            b.words(),
            b.width(),
            u8::from(b.is_double_buffered()),
            u8::from(b.has_parity())
        );
    }
    for m in &doc.modules {
        let _ = writeln!(s, "module {}", quote(m.name()));
        let port_dirs: Vec<Option<Dir>> = {
            let mut dirs = vec![None; m.nets().len()];
            for (id, d) in m.ports() {
                dirs[*id] = Some(*d);
            }
            dirs
        };
        for (id, net) in m.nets().iter().enumerate() {
            let kw = match port_dirs[id] {
                Some(Dir::Input) => "input",
                Some(Dir::Output) => "output",
                None => "net",
            };
            let _ = writeln!(s, "  {kw} %{id} {} {}", quote(&net.name), net.width);
        }
        for (target, expr) in m.assigns() {
            let mut e = String::new();
            emit_expr(expr, &mut e);
            let _ = writeln!(s, "  assign %{target} = {e}");
        }
        for r in m.regs() {
            let mut next = String::new();
            emit_expr(&r.next, &mut next);
            match &r.enable {
                Some(en) => {
                    let mut e = String::new();
                    emit_expr(en, &mut e);
                    let _ = writeln!(
                        s,
                        "  reg %{} = {next} en={e} init={}",
                        r.target, r.init
                    );
                }
                None => {
                    let _ = writeln!(s, "  reg %{} = {next} init={}", r.target, r.init);
                }
            }
        }
        for inst in m.instances() {
            let conns: Vec<String> = inst
                .connections
                .iter()
                .map(|(p, n)| format!("{}=%{n}", quote(p)))
                .collect();
            let _ = writeln!(
                s,
                "  inst {} of {} ({})",
                quote(&inst.name),
                quote(&inst.module),
                conns.join(", ")
            );
        }
        s.push_str("end\n");
    }
    let _ = writeln!(s, "top {}", quote(&doc.top));
    s
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    /// A bare word: keywords and expression heads.
    Word(String),
    /// A quoted, unescaped string.
    Str(String),
    /// An unsigned integer literal.
    Num(u64),
    /// A `%N` net reference.
    NetRef(usize),
    /// One of `( ) , =`.
    Punct(char),
    /// End of input.
    Eof,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Word(w) => format!("`{w}`"),
            Tok::Str(s) => format!("string {s:?}"),
            Tok::Num(n) => format!("number {n}"),
            Tok::NetRef(n) => format!("net reference %{n}"),
            Tok::Punct(c) => format!("`{c}`"),
            Tok::Eof => "end of input".to_string(),
        }
    }
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Lexer<'a> {
        Lexer {
            chars: input.chars().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, line: usize, col: usize, msg: impl Into<String>) -> TextError {
        TextError {
            line,
            col,
            msg: msg.into(),
        }
    }

    /// Scans the next token; returns it with the line/column it started at.
    fn next_token(&mut self) -> Result<(Tok, usize, usize), TextError> {
        loop {
            match self.chars.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(&c) = self.chars.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        let (line, col) = (self.line, self.col);
        let c = match self.chars.peek() {
            None => return Ok((Tok::Eof, line, col)),
            Some(&c) => c,
        };
        match c {
            '(' | ')' | ',' | '=' => {
                self.bump();
                Ok((Tok::Punct(c), line, col))
            }
            '%' => {
                self.bump();
                let mut digits = String::new();
                while let Some(&d) = self.chars.peek() {
                    if d.is_ascii_digit() {
                        digits.push(d);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if digits.is_empty() {
                    return Err(self.err(line, col, "`%` must be followed by a net index"));
                }
                let id: usize = digits
                    .parse()
                    .map_err(|_| self.err(line, col, format!("net index %{digits} overflows")))?;
                Ok((Tok::NetRef(id), line, col))
            }
            '"' => {
                self.bump();
                let mut out = String::new();
                loop {
                    let Some(c) = self.bump() else {
                        return Err(self.err(line, col, "unterminated string"));
                    };
                    match c {
                        '"' => break,
                        '\\' => {
                            let Some(esc) = self.bump() else {
                                return Err(self.err(line, col, "unterminated string escape"));
                            };
                            match esc {
                                '"' => out.push('"'),
                                '\\' => out.push('\\'),
                                'n' => out.push('\n'),
                                't' => out.push('\t'),
                                'r' => out.push('\r'),
                                'u' => {
                                    if self.bump() != Some('{') {
                                        return Err(self.err(
                                            line,
                                            col,
                                            "\\u escape must be \\u{hex}",
                                        ));
                                    }
                                    let mut hex = String::new();
                                    loop {
                                        match self.bump() {
                                            Some('}') => break,
                                            Some(h) if h.is_ascii_hexdigit() => hex.push(h),
                                            _ => {
                                                return Err(self.err(
                                                    line,
                                                    col,
                                                    "\\u escape must be \\u{hex}",
                                                ))
                                            }
                                        }
                                    }
                                    let code = u32::from_str_radix(&hex, 16).map_err(|_| {
                                        self.err(line, col, "\\u escape must be \\u{hex}")
                                    })?;
                                    let ch = char::from_u32(code).ok_or_else(|| {
                                        self.err(
                                            line,
                                            col,
                                            format!("\\u{{{hex}}} is not a valid scalar value"),
                                        )
                                    })?;
                                    out.push(ch);
                                }
                                other => {
                                    return Err(self.err(
                                        line,
                                        col,
                                        format!("unknown string escape \\{other}"),
                                    ))
                                }
                            }
                        }
                        c => out.push(c),
                    }
                }
                Ok((Tok::Str(out), line, col))
            }
            c if c.is_ascii_digit() => {
                let mut digits = String::new();
                while let Some(&d) = self.chars.peek() {
                    if d.is_ascii_digit() {
                        digits.push(d);
                        self.bump();
                    } else {
                        break;
                    }
                }
                let n: u64 = digits.parse().map_err(|_| {
                    self.err(line, col, format!("number {digits} overflows u64"))
                })?;
                Ok((Tok::Num(n), line, col))
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut word = String::new();
                while let Some(&d) = self.chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' || d == '-' {
                        word.push(d);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok((Tok::Word(word), line, col))
            }
            other => Err(self.err(line, col, format!("unexpected character {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// One-token lookahead with its source position.
    peeked: Option<(Tok, usize, usize)>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            lexer: Lexer::new(input),
            peeked: None,
        }
    }

    fn next(&mut self) -> Result<(Tok, usize, usize), TextError> {
        match self.peeked.take() {
            Some(t) => Ok(t),
            None => self.lexer.next_token(),
        }
    }

    fn peek(&mut self) -> Result<&(Tok, usize, usize), TextError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lexer.next_token()?);
        }
        Ok(self.peeked.as_ref().expect("just filled"))
    }

    fn fail<T>(&self, line: usize, col: usize, msg: impl Into<String>) -> Result<T, TextError> {
        Err(TextError {
            line,
            col,
            msg: msg.into(),
        })
    }

    fn expect_word(&mut self, want: &str) -> Result<(), TextError> {
        let (t, line, col) = self.next()?;
        match t {
            Tok::Word(w) if w == want => Ok(()),
            Tok::Eof => self.fail(line, col, format!("unexpected end of input, expected `{want}`")),
            other => self.fail(line, col, format!("expected `{want}`, got {}", other.describe())),
        }
    }

    fn expect_punct(&mut self, want: char) -> Result<(), TextError> {
        let (t, line, col) = self.next()?;
        match t {
            Tok::Punct(c) if c == want => Ok(()),
            Tok::Eof => self.fail(line, col, format!("unexpected end of input, expected `{want}`")),
            other => self.fail(line, col, format!("expected `{want}`, got {}", other.describe())),
        }
    }

    fn expect_str(&mut self, what: &str) -> Result<String, TextError> {
        let (t, line, col) = self.next()?;
        match t {
            Tok::Str(s) => Ok(s),
            Tok::Eof => self.fail(line, col, format!("unexpected end of input, expected {what}")),
            other => self.fail(line, col, format!("expected {what}, got {}", other.describe())),
        }
    }

    fn expect_u64(&mut self, what: &str) -> Result<u64, TextError> {
        let (t, line, col) = self.next()?;
        match t {
            Tok::Num(n) => Ok(n),
            Tok::Eof => self.fail(line, col, format!("unexpected end of input, expected {what}")),
            other => self.fail(line, col, format!("expected {what}, got {}", other.describe())),
        }
    }

    fn expect_width(&mut self, what: &str) -> Result<u32, TextError> {
        let (t, line, col) = self.next()?;
        match t {
            Tok::Num(n) => u32::try_from(n)
                .map_err(|_| TextError {
                    line,
                    col,
                    msg: format!("{what} {n} overflows u32"),
                }),
            Tok::Eof => self.fail(line, col, format!("unexpected end of input, expected {what}")),
            other => self.fail(line, col, format!("expected {what}, got {}", other.describe())),
        }
    }

    fn expect_netref(&mut self, n_nets: usize, what: &str) -> Result<NetId, TextError> {
        let (t, line, col) = self.next()?;
        match t {
            Tok::NetRef(id) if id < n_nets => Ok(id),
            Tok::NetRef(id) => self.fail(
                line,
                col,
                format!("unknown net %{id} (module declares {n_nets} nets)"),
            ),
            Tok::Eof => self.fail(line, col, format!("unexpected end of input, expected {what}")),
            other => self.fail(line, col, format!("expected {what}, got {}", other.describe())),
        }
    }

    /// `key=value` with a u64 value (used by `bank`, `init`).
    fn expect_kv_u64(&mut self, key: &str) -> Result<u64, TextError> {
        self.expect_word(key)?;
        self.expect_punct('=')?;
        self.expect_u64(&format!("{key} value"))
    }

    fn parse_expr(&mut self, n_nets: usize) -> Result<Expr, TextError> {
        let (t, line, col) = self.next()?;
        match t {
            Tok::NetRef(id) if id < n_nets => Ok(Expr::Net(id)),
            Tok::NetRef(id) => self.fail(
                line,
                col,
                format!("unknown net %{id} (module declares {n_nets} nets)"),
            ),
            Tok::Word(head) => {
                let binop = |op: BinOp, p: &mut Parser<'a>| -> Result<Expr, TextError> {
                    p.expect_punct('(')?;
                    let a = p.parse_expr(n_nets)?;
                    p.expect_punct(',')?;
                    let b = p.parse_expr(n_nets)?;
                    p.expect_punct(')')?;
                    Ok(Expr::Bin(op, Box::new(a), Box::new(b)))
                };
                match head.as_str() {
                    "const" => {
                        self.expect_punct('(')?;
                        let value = self.expect_u64("constant value")?;
                        self.expect_punct(',')?;
                        let width = self.expect_width("constant width")?;
                        self.expect_punct(')')?;
                        Ok(Expr::Const { value, width })
                    }
                    "not" => {
                        self.expect_punct('(')?;
                        let e = self.parse_expr(n_nets)?;
                        self.expect_punct(')')?;
                        Ok(Expr::Not(Box::new(e)))
                    }
                    "add" => binop(BinOp::Add, self),
                    "sub" => binop(BinOp::Sub, self),
                    "mul" => binop(BinOp::Mul, self),
                    "and" => binop(BinOp::And, self),
                    "or" => binop(BinOp::Or, self),
                    "xor" => binop(BinOp::Xor, self),
                    "eq" => binop(BinOp::Eq, self),
                    "lt" => binop(BinOp::Lt, self),
                    "mux" => {
                        self.expect_punct('(')?;
                        let sel = self.parse_expr(n_nets)?;
                        self.expect_punct(',')?;
                        let on_true = self.parse_expr(n_nets)?;
                        self.expect_punct(',')?;
                        let on_false = self.parse_expr(n_nets)?;
                        self.expect_punct(')')?;
                        Ok(Expr::Mux {
                            sel: Box::new(sel),
                            on_true: Box::new(on_true),
                            on_false: Box::new(on_false),
                        })
                    }
                    "zext" | "sext" => {
                        self.expect_punct('(')?;
                        let e = self.parse_expr(n_nets)?;
                        self.expect_punct(',')?;
                        let w = self.expect_width("target width")?;
                        self.expect_punct(')')?;
                        Ok(if head == "zext" {
                            Expr::Resize(Box::new(e), w)
                        } else {
                            Expr::SignExtend(Box::new(e), w)
                        })
                    }
                    other => self.fail(
                        line,
                        col,
                        format!("unknown expression head `{other}`"),
                    ),
                }
            }
            Tok::Eof => {
                self.fail(line, col, "unexpected end of input, expected an expression")
            }
            other => self.fail(
                line,
                col,
                format!("expected an expression, got {}", other.describe()),
            ),
        }
    }

    fn parse_module(&mut self) -> Result<Module, TextError> {
        let name = self.expect_str("a module name string")?;
        let mut m = Module::new(name);
        let mut n_nets = 0usize;
        let mut logic_seen = false;
        loop {
            let (t, line, col) = self.next()?;
            let word = match t {
                Tok::Word(w) => w,
                Tok::Eof => {
                    return self.fail(
                        line,
                        col,
                        "unexpected end of input inside a module (missing `end`?)",
                    )
                }
                other => {
                    return self.fail(
                        line,
                        col,
                        format!("expected a module item or `end`, got {}", other.describe()),
                    )
                }
            };
            match word.as_str() {
                "end" => break,
                "input" | "output" | "net" => {
                    if logic_seen {
                        return self.fail(
                            line,
                            col,
                            "net declarations must precede assigns, regs, and instances",
                        );
                    }
                    let (id_tok, id_line, id_col) = self.next()?;
                    let id = match id_tok {
                        Tok::NetRef(id) => id,
                        other => {
                            return self.fail(
                                id_line,
                                id_col,
                                format!("expected a net index, got {}", other.describe()),
                            )
                        }
                    };
                    if id != n_nets {
                        return self.fail(
                            id_line,
                            id_col,
                            format!(
                                "duplicate or out-of-order net index %{id} (expected %{n_nets})"
                            ),
                        );
                    }
                    let net_name = self.expect_str("a net name string")?;
                    let (w_tok, w_line, w_col) = self.next()?;
                    let width = match w_tok {
                        Tok::Num(n) => match u32::try_from(n) {
                            Ok(w) if w >= 1 => w,
                            _ => {
                                return self.fail(
                                    w_line,
                                    w_col,
                                    format!("bad net width {n}: must be between 1 and {}", u32::MAX),
                                )
                            }
                        },
                        other => {
                            return self.fail(
                                w_line,
                                w_col,
                                format!("expected a net width, got {}", other.describe()),
                            )
                        }
                    };
                    match word.as_str() {
                        "input" => {
                            m.input(net_name, width);
                        }
                        "output" => {
                            m.output(net_name, width);
                        }
                        _ => {
                            m.net(net_name, width);
                        }
                    }
                    n_nets += 1;
                }
                "assign" => {
                    logic_seen = true;
                    let target = self.expect_netref(n_nets, "an assign target net")?;
                    self.expect_punct('=')?;
                    let expr = self.parse_expr(n_nets)?;
                    m.assign(target, expr);
                }
                "reg" => {
                    logic_seen = true;
                    let target = self.expect_netref(n_nets, "a register target net")?;
                    self.expect_punct('=')?;
                    let next = self.parse_expr(n_nets)?;
                    let enable = if matches!(self.peek()?.0, Tok::Word(ref w) if w == "en") {
                        self.next()?;
                        self.expect_punct('=')?;
                        Some(self.parse_expr(n_nets)?)
                    } else {
                        None
                    };
                    let init = self.expect_kv_u64("init")?;
                    m.reg(target, next, enable, init);
                }
                "inst" => {
                    logic_seen = true;
                    let inst_name = self.expect_str("an instance name string")?;
                    self.expect_word("of")?;
                    let module_name = self.expect_str("a child module name string")?;
                    self.expect_punct('(')?;
                    let mut conns: Vec<(String, NetId)> = Vec::new();
                    if !matches!(self.peek()?.0, Tok::Punct(')')) {
                        loop {
                            let port = self.expect_str("a port name string")?;
                            self.expect_punct('=')?;
                            let net = self.expect_netref(n_nets, "a connected net")?;
                            conns.push((port, net));
                            let (t, line, col) = self.next()?;
                            match t {
                                Tok::Punct(',') => {}
                                Tok::Punct(')') => break,
                                other => {
                                    return self.fail(
                                        line,
                                        col,
                                        format!("expected `,` or `)`, got {}", other.describe()),
                                    )
                                }
                            }
                        }
                    } else {
                        self.next()?;
                    }
                    m.instance(module_name, inst_name, conns);
                }
                other => {
                    return self.fail(
                        line,
                        col,
                        format!("unknown module item `{other}` (expected input/output/net/assign/reg/inst/end)"),
                    )
                }
            }
        }
        Ok(m)
    }
}

/// Parses a textual interchange document.
///
/// # Errors
///
/// Returns a [`TextError`] locating the first syntax problem. Semantic
/// problems beyond what the grammar can express (width mismatches, missing
/// drivers, unknown instance ports) are left to [`NetlistDoc::validate`].
pub fn parse_text(input: &str) -> Result<NetlistDoc, TextError> {
    let _span = tensorlib_obs::span("hw.text.parse");
    let mut p = Parser::new(input);
    p.expect_word("tensorlib-netlist")?;
    p.expect_word("v1")?;
    let mut doc = NetlistDoc {
        modules: Vec::new(),
        banks: Vec::new(),
        top: String::new(),
    };
    let mut top_seen = false;
    loop {
        let (t, line, col) = p.next()?;
        match t {
            Tok::Eof => break,
            Tok::Word(w) => match w.as_str() {
                "bank" => {
                    let words = p.expect_kv_u64("words")?;
                    p.expect_word("width")?;
                    p.expect_punct('=')?;
                    let width = p.expect_width("bank width")?;
                    let db = p.expect_kv_u64("db")?;
                    let parity = p.expect_kv_u64("parity")?;
                    if words == 0 || width == 0 {
                        return p.fail(line, col, "bank must have positive words and width");
                    }
                    if db > 1 || parity > 1 {
                        return p.fail(line, col, "bank db/parity flags must be 0 or 1");
                    }
                    let mut bank = MemBank::new(words, width, db == 1);
                    if parity == 1 {
                        bank = bank.with_parity();
                    }
                    doc.banks.push(bank);
                }
                "module" => doc.modules.push(p.parse_module()?),
                "top" => {
                    if top_seen {
                        return p.fail(line, col, "duplicate `top` declaration");
                    }
                    doc.top = p.expect_str("the top module name string")?;
                    top_seen = true;
                }
                other => {
                    return p.fail(
                        line,
                        col,
                        format!("expected `bank`, `module`, or `top`, got `{other}`"),
                    )
                }
            },
            other => {
                return p.fail(
                    line,
                    col,
                    format!("expected `bank`, `module`, or `top`, got {}", other.describe()),
                )
            }
        }
    }
    if !top_seen {
        return Err(TextError {
            line: p.lexer.line,
            col: p.lexer.col,
            msg: "missing `top` declaration".to_string(),
        });
    }
    Ok(doc)
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
        let text = emit_text(&doc);
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(emit_text(&parsed), text);
    }

    #[test]
    fn names_with_hostile_characters_round_trip() {
        let mut m = Module::new("a \"b\"\\c\nd\u{1}e");
        let x = m.input("wire", 1);
        let y = m.output("", 1);
        m.assign(y, E::net(x));
        let doc = NetlistDoc::from_modules(&[m], "a \"b\"\\c\nd\u{1}e");
        let parsed = parse_text(&emit_text(&doc)).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn comments_and_whitespace_are_ignored()  {
        let text = "# header comment\ntensorlib-netlist v1\nmodule \"m\"  # trailing\n  input %0 \"a\" 1\n  output %1 \"y\" 1\n  assign %1 = %0\nend\ntop \"m\"\n";
        let doc = parse_text(text).unwrap();
        assert_eq!(doc.modules.len(), 1);
        assert_eq!(doc.top, "m");
    }

    #[test]
    fn truncated_document_is_a_located_error() {
        let doc = tiny_doc();
        let text = emit_text(&doc);
        let cut = &text[..text.len() / 2];
        let err = parse_text(cut).unwrap_err();
        assert!(err.msg.contains("end of input"), "unexpected message: {err}");
        assert!(err.line > 1, "error should locate the cut: {err}");
    }

    #[test]
    fn zero_width_net_is_a_located_error() {
        let text = "tensorlib-netlist v1\nmodule \"m\"\n  input %0 \"a\" 0\nend\ntop \"m\"\n";
        let err = parse_text(text).unwrap_err();
        assert_eq!((err.line, err.col), (3, 16), "{err}");
        assert!(err.msg.contains("bad net width 0"), "{err}");
    }

    #[test]
    fn duplicate_net_index_is_a_located_error() {
        let text =
            "tensorlib-netlist v1\nmodule \"m\"\n  input %0 \"a\" 1\n  net %0 \"b\" 1\nend\ntop \"m\"\n";
        let err = parse_text(text).unwrap_err();
        assert!(err.msg.contains("duplicate or out-of-order net index"), "{err}");
        assert_eq!(err.line, 4, "{err}");
    }

    #[test]
    fn unknown_net_reference_is_a_located_error() {
        let text =
            "tensorlib-netlist v1\nmodule \"m\"\n  output %0 \"y\" 1\n  assign %0 = %9\nend\ntop \"m\"\n";
        let err = parse_text(text).unwrap_err();
        assert!(err.msg.contains("unknown net %9"), "{err}");
    }

    #[test]
    fn missing_top_is_an_error() {
        let text = "tensorlib-netlist v1\nmodule \"m\"\n  input %0 \"a\" 1\nend\n";
        let err = parse_text(text).unwrap_err();
        assert!(err.msg.contains("missing `top`"), "{err}");
    }

    #[test]
    fn validate_catches_unknown_instance_port() {
        let mut child = Module::new("leaf");
        let cin = child.input("cin", 4);
        let cout = child.output("cout", 4);
        child.assign(cout, E::net(cin));
        let mut m = Module::new("t");
        let a = m.input("a", 4);
        m.instance("leaf", "u0", vec![("nope".into(), a)]);
        let doc = NetlistDoc::from_modules(&[child, m], "t");
        let text = emit_text(&doc);
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed, doc);
        let err = parsed.validate().unwrap_err();
        assert!(err.contains("no port \"nope\""), "{err}");
    }

    #[test]
    fn validate_requires_the_top_module() {
        let doc = NetlistDoc::from_modules(&[Module::new("m")], "ghost");
        assert!(doc.validate().unwrap_err().contains("top module"));
    }
}
