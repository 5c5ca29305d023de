//! A JSON document tree, for documents walked by path rather than decoded
//! into a type: the Yosys-JSON netlist import in `tensorlib-hw`, event
//! lines read back by [`crate::events::read_events`] (their payloads differ
//! by event), and report checks in tests and benchmarks. Files with one
//! shape — status snapshots, history lines, reports, journal chunks — are
//! derived types read and written by `serde` directly, with no tree.
//!
//! [`parse`] reads a [`Value`] through the workspace's one JSON reader
//! (`serde::JsonReader`, nesting capped at `serde::MAX_DEPTH`), keeping
//! objects in document order; a [`Value`] writes through its one writer
//! (`serde::JsonWriter`), and `parse(&v.to_string())` reconstructs `v`.
//!
//! Numbers are stored as `f64`, so integers beyond 2^53 parse but round;
//! [`Value::as_u64`] returns `None` outside the exactly-representable
//! range, making the loss detectable instead of silent. Literals that
//! overflow `f64` entirely (e.g. `1e309`) are a parse error, never a
//! silent infinity.

use serde::{Deserialize, JsonReader, JsonWriter, Serialize};

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
    serde_json::from_str(input).map_err(|e| e.to_string())
}

/// Reads any JSON value through the workspace's one reader
/// (`serde::JsonReader`), which caps nesting at [`serde::MAX_DEPTH`].
impl Deserialize for Value {
    fn deserialize(r: &mut JsonReader<'_>) -> Result<Value, String> {
        Ok(match r.peek()? {
            b'{' => {
                r.open(b'{')?;
                let mut entries = Vec::new();
                while let Some(key) = r.next_key()? {
                    entries.push((key.into_owned(), Value::deserialize(r)?));
                }
                Value::Obj(entries)
            }
            b'[' => Value::Arr(Vec::deserialize(r)?),
            b'"' => Value::Str(r.str()?),
            b't' | b'f' => Value::Bool(r.bool()?),
            b'n' => r.null().map(|()| Value::Null)?,
            c if c.is_ascii_digit() || c == b'-' => Value::Num(r.f64()?),
            c => return Err(format!("unexpected byte {c:#x} at {}", r.pos())),
        })
    }
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
    fn nesting_past_the_cap_is_a_positioned_error() {
        let cap = serde::MAX_DEPTH;
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nested("[", "]", cap)).is_ok());
        assert!(parse(&nested("{\"k\":", "}", cap - 1).replace(":}", ":{}}")).is_ok());
        let err = format!("nesting deeper than {cap} levels at byte {cap}");
        assert_eq!(parse(&nested("[", "]", cap + 1)).unwrap_err(), err);
        // A document far deeper than any stack allows fails the same way,
        // without recursing past the cap.
        assert_eq!(parse(&"[".repeat(200_000)).unwrap_err(), err);
        let objects = "{\"k\":".repeat(200_000);
        assert_eq!(
            parse(&objects).unwrap_err(),
            format!("nesting deeper than {cap} levels at byte {}", 5 * cap)
        );
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
