//! A minimal JSON parser for report validation.
//!
//! The vendored `serde_json` stub only *writes* JSON, so schema checks and
//! trace well-formedness tests need a reader. This is a small recursive
//! descent parser: full JSON syntax, objects kept in document order,
//! numbers as `f64` (plus a lossless `u64` view for integer fields). It is
//! a validator for our own reports plus the document substrate of the
//! Yosys-JSON netlist import in `tensorlib-hw`. A [`Value`] writes through
//! the workspace's one JSON writer (`serde::JsonWriter`), and
//! `parse(&v.to_string())` reconstructs `v` exactly.
//!
//! Numbers are stored as `f64`, so integers beyond 2^53 parse but round;
//! [`Value::as_u64`] returns `None` outside the exactly-representable
//! range, making the loss detectable instead of silent. Literals that
//! overflow `f64` entirely (e.g. `1e309`) are a parse error, never a
//! silent infinity.

use serde::{JsonWriter, Serialize};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers up to 2^53 survive exactly).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, entries in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object entries in document order, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(entries) => Some(entries),
            _ => None,
        }
    }
}

/// Parses a complete JSON document; trailing whitespace allowed, trailing
/// garbage is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}", pos = *pos)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected `{literal}` at byte {pos}", pos = *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // consume '{'
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(entries));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(entries));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // consume opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // `*pos` is the `u`; the escape starts one byte back.
                        let at = *pos - 1;
                        let hi = read_hex4(bytes, *pos + 1, at)?;
                        *pos += 5;
                        let ch = if (0xD800..=0xDBFF).contains(&hi) {
                            // High surrogate: a low surrogate escape must
                            // follow immediately (UTF-16 pair for a
                            // supplementary-plane character).
                            if bytes.get(*pos) != Some(&b'\\')
                                || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err(format!(
                                    "unpaired high surrogate \\u{hi:04x} at byte {at}"
                                ));
                            }
                            let lo = read_hex4(bytes, *pos + 2, at)?;
                            if !(0xDC00..=0xDFFF).contains(&lo) {
                                return Err(format!(
                                    "invalid surrogate pair \\u{hi:04x}\\u{lo:04x} at byte {at}"
                                ));
                            }
                            *pos += 6;
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code).expect("surrogate pairs decode to valid scalars")
                        } else if (0xDC00..=0xDFFF).contains(&hi) {
                            return Err(format!("lone low surrogate \\u{hi:04x} at byte {at}"));
                        } else {
                            char::from_u32(hi).expect("non-surrogate BMP values are scalars")
                        };
                        out.push(ch);
                        continue;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the maximal run of unescaped bytes in one go. The
                // delimiters are ASCII and UTF-8 continuation bytes are
                // ≥ 0x80, so stopping on `"` or `\` never splits a scalar,
                // and the run is valid UTF-8 (the input is a &str).
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

/// Reads the four hex digits of a `\u` escape starting at byte `at`;
/// `esc_at` is the position of the backslash, used only for the error.
fn read_hex4(bytes: &[u8], at: usize, esc_at: usize) -> Result<u32, String> {
    let hex = bytes
        .get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .ok_or_else(|| format!("bad \\u escape at byte {esc_at}"))?;
    let hex = std::str::from_utf8(hex).expect("hex digits are ASCII");
    Ok(u32::from_str_radix(hex, 16).expect("four hex digits fit u32"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("bad number `{text}` at byte {start}"))?;
    // `f64::from_str` saturates to ±inf past ~1.8e308; surfacing that as a
    // Value would silently corrupt any arithmetic downstream. Integers
    // beyond 2^53 stay finite but round — `as_u64` refuses those, so the
    // loss is detectable, and the only hard failure is true overflow.
    if !n.is_finite() {
        return Err(format!("number `{text}` at byte {start} overflows f64"));
    }
    Ok(Value::Num(n))
}

/// Serializes a [`Value`] back to JSON text: pretty-printed with two-space
/// indentation, deterministic (object entries in stored order), and
/// round-trippable — `parse(&v.to_string()) == Ok(v)` for any parsed `v`.
impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&to_pretty(self))
    }
}

/// Writes a [`Value`] through the workspace's one JSON writer. Numbers keep
/// their own rule, not serde's `f64` one: integers up to 2^53 in magnitude
/// print in integer form; other numbers use the shortest representation
/// that reparses to the same `f64`.
impl serde::Serialize for Value {
    fn serialize(&self, w: &mut JsonWriter) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Num(n) => {
                const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
                if n.fract() == 0.0 && n.abs() <= EXACT {
                    w.i64(*n as i64);
                } else {
                    // `{:?}` prints the shortest string that reparses exactly.
                    w.raw(format_args!("{n:?}"));
                }
            }
            Value::Str(s) => w.str(s),
            Value::Arr(items) => {
                w.open('[');
                items.iter().for_each(|item| item.serialize(w));
                w.close(']');
            }
            Value::Obj(entries) => {
                w.open('{');
                for (k, item) in entries {
                    item.serialize(w.key(k));
                }
                w.close('}');
            }
        }
    }
}

/// The pretty [`Display`] form as a `String`.
pub fn to_pretty(v: &Value) -> String {
    let mut w = JsonWriter::pretty();
    v.serialize(&mut w);
    w.finish()
}

/// Serializes a [`Value`] to single-line JSON (no newlines, no indentation,
/// `"k":v` entries separated by `,`) — the form for JSONL files where one
/// value must occupy exactly one line. Same determinism and round-trip
/// guarantees as the pretty [`Display`] form: `parse(&to_compact(&v))`
/// reconstructs `v` exactly.
pub fn to_compact(v: &Value) -> String {
    let mut w = JsonWriter::compact();
    v.serialize(&mut w);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = parse(
            r#"{"a": [1, 2.5, -3], "b": {"c": "hi\n", "d": true, "e": null}, "f": "x"}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("a").and_then(Value::as_array).map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(doc.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
            Some("hi\n")
        );
        assert_eq!(doc.get("b").and_then(|b| b.get("e")), Some(&Value::Null));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn object_order_is_preserved() {
        let doc = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01a").is_err());
    }

    #[test]
    fn round_trips_vendored_serializer_output() {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        m.insert("xs".to_string(), vec![1, 2, 3]);
        let s = serde_json::to_string(&m).unwrap();
        let doc = parse(&s).unwrap();
        let xs = doc.get("xs").and_then(Value::as_array).unwrap();
        let back: Vec<u64> = xs.iter().map(|v| v.as_u64().unwrap()).collect();
        assert_eq!(back, [1, 2, 3]);
    }

    #[test]
    fn as_u64_bounds() {
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn decodes_surrogate_pairs() {
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""a😀b""#).unwrap().as_str(), Some("a😀b"));
        // BMP escapes still decode directly.
        assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
    }

    #[test]
    fn rejects_malformed_unicode_escapes_with_position() {
        // Lone high surrogate, lone low surrogate, bad pair, bad hex,
        // truncated escape: all hard positioned errors, never U+FFFD.
        for (doc, needle) in [
            (r#""\ud83d""#, "unpaired high surrogate"),
            (r#""\ud83dx""#, "unpaired high surrogate"),
            (r#""\ud83d\ud800""#, "invalid surrogate pair"),
            (r#""\ude00""#, "lone low surrogate"),
            (r#""\uzzzz""#, "bad \\u escape"),
            (r#""\u00"#, "bad \\u escape"),
        ] {
            let err = parse(doc).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err}");
            assert!(err.contains("at byte 1"), "{doc}: {err}");
        }
    }

    #[test]
    fn number_overflow_is_an_error_not_infinity() {
        for doc in ["1e309", "-1e309", "123e99999"] {
            let err = parse(doc).unwrap_err();
            assert!(err.contains("overflows f64"), "{doc}: {err}");
        }
        // Just inside the representable range stays fine.
        assert!(parse("1e308").unwrap().as_f64().unwrap().is_finite());
    }

    #[test]
    fn integer_precision_boundaries() {
        // 2^53 is the last contiguously exact integer: as_u64 accepts it.
        assert_eq!(
            parse("9007199254740992").unwrap().as_u64(),
            Some(9007199254740992)
        );
        // u64::MAX and its neighbors parse (lossily, documented) but the
        // exact-integer view refuses them rather than returning a rounded
        // value.
        for doc in [
            "18446744073709551615", // u64::MAX
            "18446744073709551614",
            "18446744073709551616", // u64::MAX + 1
        ] {
            let v = parse(doc).unwrap();
            assert_eq!(v.as_u64(), None, "{doc}");
            assert!(v.as_f64().unwrap().is_finite());
        }
    }

    #[test]
    fn serializer_round_trips() {
        let doc = parse(
            r#"{"a": [1, 2.5, -3, []], "b": {"c": "hi\n\t\"\\x", "d": true, "e": null, "f": {}}, "g": "😀é", "h": 1e300, "ctl": ""}"#,
        )
        .unwrap();
        let text = doc.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        // Serialization is deterministic and idempotent.
        assert_eq!(back.to_string(), text);
        // Control characters serialize as \u escapes and survive the trip.
        let ctl = Value::Str("\u{1}a\u{1f}".to_string());
        assert_eq!(ctl.to_string(), "\"\\u0001a\\u001f\"");
        assert_eq!(parse(&ctl.to_string()).unwrap(), ctl);
    }

    #[test]
    fn compact_form_is_single_line_and_round_trips() {
        let doc = parse(
            r#"{"a": [1, 2.5, -3, []], "b": {"c": "hi\n", "d": true, "e": null, "f": {}}}"#,
        )
        .unwrap();
        let line = to_compact(&doc);
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(parse(&line).unwrap(), doc);
        assert_eq!(
            line,
            r#"{"a":[1,2.5,-3,[]],"b":{"c":"hi\n","d":true,"e":null,"f":{}}}"#
        );
    }

    #[test]
    fn serializer_integer_form_is_stable() {
        assert_eq!(parse("42").unwrap().to_string(), "42");
        assert_eq!(parse("-7").unwrap().to_string(), "-7");
        assert_eq!(parse("2.5").unwrap().to_string(), "2.5");
        assert_eq!(
            parse("9007199254740992").unwrap().to_string(),
            "9007199254740992"
        );
    }

    #[test]
    fn writer_indents_past_the_indentation_constant() {
        // 20 levels of nesting put the innermost value 40 spaces deep, past
        // the 32-space INDENT slice.
        let depth = 20;
        let mut v = Value::Num(1.0);
        for _ in 0..depth {
            v = Value::Arr(vec![v]);
        }
        let mut expected = String::new();
        for d in 1..=depth {
            expected += "[\n";
            expected += &" ".repeat(2 * d);
        }
        expected += "1";
        for d in (0..depth).rev() {
            expected += "\n";
            expected += &" ".repeat(2 * d);
            expected += "]";
        }
        assert_eq!(v.to_string(), expected);
        assert!(v.to_string().contains(&format!("\n{}1\n", " ".repeat(40))));
        assert_eq!(
            to_compact(&v),
            format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
        );
    }

    #[test]
    fn writer_number_forms() {
        let cases: [(f64, &str); 13] = [
            (0.0, "0"),
            (-0.0, "0"),
            (-7.0, "-7"),
            (-9_007_199_254_740_992.0, "-9007199254740992"),
            (9_007_199_254_740_992.0, "9007199254740992"),
            // 2^53 + 1 is not an f64: the literal rounds to 2^53.
            (9_007_199_254_740_993.0, "9007199254740992"),
            (9_007_199_254_740_994.0, "9007199254740994.0"),
            (2.5, "2.5"),
            (-0.125, "-0.125"),
            (0.1, "0.1"),
            (1e300, "1e300"),
            (1.5e-7, "1.5e-7"),
            (-2e20, "-2e20"),
        ];
        for (n, text) in cases {
            assert_eq!(Value::Num(n).to_string(), text, "{n:?}");
            assert_eq!(to_compact(&Value::Num(n)), text, "{n:?}");
        }
        assert_eq!(
            parse("9007199254740993").unwrap().to_string(),
            "9007199254740992"
        );
    }

    #[test]
    fn writer_escapes_control_characters_in_keys_and_values() {
        let v = Value::Obj(vec![
            (
                "k\u{1}é\t".to_string(),
                Value::Str("\u{0}😀\u{1f}\u{7f}\"\\/".to_string()),
            ),
            (
                "日本\r\n".to_string(),
                Value::Arr(vec![Value::Str("ü\u{8}\u{c}".to_string())]),
            ),
        ]);
        assert_eq!(
            v.to_string(),
            "{\n  \"k\\u0001é\\t\": \"\\u0000😀\\u001f\u{7f}\\\"\\\\/\",\n  \
             \"日本\\r\\n\": [\n    \"ü\\u0008\\u000c\"\n  ]\n}"
        );
        assert_eq!(
            to_compact(&v),
            "{\"k\\u0001é\\t\":\"\\u0000😀\\u001f\u{7f}\\\"\\\\/\",\
             \"日本\\r\\n\":[\"ü\\u0008\\u000c\"]}"
        );
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn numbers_parse_to_the_bits_of_str_parse() {
        for text in [
            "0",
            "-0",
            "007",
            "-12",
            "9007199254740991", // 2^53 - 1
            "9007199254740992", // 2^53
            "9007199254740993", // 2^53 + 1
            "123456789012345",  // 15 digits
            "-999999999999999",
            "1234567890123456", // 16 digits
            "12345678901234567890",
            "-99999999999999999999",
            "1e3",
            "1.5",
        ] {
            let want: f64 = text.parse().unwrap();
            let got = parse(text).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
        assert!(parse("-0").unwrap().as_f64().unwrap().is_sign_negative());
        for (text, err) in [
            ("1e999", "number `1e999` at byte 0 overflows f64"),
            ("-", "bad number `-` at byte 0"),
            ("1.2.3", "bad number `1.2.3` at byte 0"),
            ("[1, 2-3]", "bad number `2-3` at byte 4"),
        ] {
            assert_eq!(parse(text).unwrap_err(), err, "{text}");
        }
    }
}
