//! Byte pins for the one JSON writer: every derive shape, the edge scalars,
//! the two number rules (serde's `f64` rule and `Value::Num`'s), and the
//! compact and pretty bytes of three real campaign reports, also when
//! streamed through a draining writer. The expected texts and FNV-1a
//! digests were recorded from the tree-building serializer this writer
//! replaced; any byte that moves fails here.

use std::collections::{BTreeMap, HashMap};

use serde::Serialize;
use tensorlib::explore::{explore_durable, ExploreOptions};
use tensorlib::ir::workloads;
use tensorlib_hw::fault::Hardening;
use tensorlib_obs::json::{self, Value};
use tensorlib_sim::resilience::{run_gemm_campaign_durable, CampaignConfig};
use tensorlib_sim::verify::{run_verify_durable, VerifyConfig};
use tensorlib_sim::DurabilityOptions;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn compact<T: Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

fn pretty<T: Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string_pretty(v).expect("serializes")
}

/// The compact or pretty text written by a writer that drains into a sink
/// as it goes; reports past the drain size take several drains.
fn streamed<T: Serialize + ?Sized>(v: &T, pretty: bool) -> String {
    let mut sink = Vec::new();
    let mut w = if pretty {
        serde::JsonWriter::pretty_into(&mut sink)
    } else {
        serde::JsonWriter::compact_into(&mut sink)
    };
    v.serialize(&mut w);
    w.end().expect("a Vec takes every byte");
    String::from_utf8(sink).expect("the writer writes UTF-8")
}

#[derive(Serialize)]
struct Named {
    a: u8,
    #[serde(skip)]
    #[allow(dead_code)]
    hidden: u8,
    some: Option<String>,
    none: Option<u8>,
}

#[derive(Serialize)]
struct Tuple(u8, String);

#[derive(Serialize)]
struct Newtype(i32);

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(u8),
    Tuple(u8, bool),
    Struct { x: f64, y: Vec<u8> },
}

#[derive(Serialize)]
struct Containers {
    empty_vec: Vec<u8>,
    empty_map: BTreeMap<String, u8>,
    empty_hash: HashMap<String, u8>,
    hash: HashMap<String, u8>,
    btree: BTreeMap<u32, String>,
    nested: Vec<Vec<Shape>>,
}

fn containers() -> Containers {
    Containers {
        empty_vec: Vec::new(),
        empty_map: BTreeMap::new(),
        empty_hash: HashMap::new(),
        hash: [("zeta", 1), ("alpha", 2), ("Mid", 3), ("beta", 4)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        // Numeric keys keep the map's order (2 < 10), not string order.
        btree: [(10, "ten"), (2, "two")]
            .into_iter()
            .map(|(k, v)| (k, v.to_string()))
            .collect(),
        nested: vec![
            vec![],
            vec![
                Shape::Unit,
                Shape::Newtype(7),
                Shape::Tuple(1, false),
                Shape::Struct { x: 2.0, y: vec![] },
            ],
        ],
    }
}

#[test]
fn every_derive_shape_is_pinned() {
    let named = Named {
        a: 1,
        hidden: 9,
        some: Some("s".into()),
        none: None,
    };
    let cases: [(String, &str); 8] = [
        (compact(&named), r#"{"a":1,"some":"s","none":null}"#),
        (compact(&Tuple(3, "t".into())), r#"[3,"t"]"#),
        (compact(&Newtype(-4)), "-4"),
        (compact(&Unit), "null"),
        (compact(&Shape::Unit), r#""Unit""#),
        (compact(&Shape::Newtype(5)), r#"{"Newtype":5}"#),
        (compact(&Shape::Tuple(6, true)), r#"{"Tuple":[6,true]}"#),
        (
            compact(&Shape::Struct {
                x: 0.5,
                y: vec![1, 2],
            }),
            r#"{"Struct":{"x":0.5,"y":[1,2]}}"#,
        ),
    ];
    for (got, want) in cases {
        assert_eq!(got, want);
    }
    assert_eq!(
        pretty(&named),
        "{\n  \"a\": 1,\n  \"some\": \"s\",\n  \"none\": null\n}"
    );
    assert_eq!(
        pretty(&Shape::Struct {
            x: 0.5,
            y: vec![1, 2],
        }),
        "{\n  \"Struct\": {\n    \"x\": 0.5,\n    \"y\": [\n      1,\n      2\n    ]\n  }\n}"
    );
}

#[test]
fn containers_and_map_key_order_are_pinned() {
    let c = containers();
    assert_eq!(
        compact(&c),
        r#"{"empty_vec":[],"empty_map":{},"empty_hash":{},"hash":{"Mid":3,"alpha":2,"beta":4,"zeta":1},"btree":{"2":"two","10":"ten"},"nested":[[],["Unit",{"Newtype":7},{"Tuple":[1,false]},{"Struct":{"x":2.0,"y":[]}}]]}"#
    );
    let text = pretty(&c);
    assert!(
        text.contains("\"empty_vec\": [],\n  \"empty_map\": {},\n"),
        "{text}"
    );
    assert_eq!(fnv1a(&text), 17399391065629386103, "{text}");
}

#[test]
fn edge_scalars_are_pinned() {
    let floats: [(f64, &str); 8] = [
        (1.0, "1.0"),
        (0.5, "0.5"),
        (1e21, "1000000000000000000000.0"),
        (1e-7, "0.0000001"),
        (-0.0, "-0.0"),
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
        (f64::NEG_INFINITY, "null"),
    ];
    for (n, want) in floats {
        assert_eq!(compact(&n), want, "{n:?}");
    }
    assert_eq!(compact(&0.1f32), "0.10000000149011612");
    assert_eq!(compact(&u64::MAX), "18446744073709551615");
    assert_eq!(compact(&i64::MIN), "-9223372036854775808");
    assert_eq!(compact(&'é'), "\"é\"");
    assert_eq!(compact(&'"'), r#""\"""#);
    assert_eq!(
        compact("q\"b\\c\u{1f}d\u{7f}é😀\n\r\t\u{0}"),
        "\"q\\\"b\\\\c\\u001fd\u{7f}é😀\\n\\r\\t\\u0000\""
    );
    assert_eq!(compact(&(1u8, "a", -2i64, true)), r#"[1,"a",-2,true]"#);
    assert_eq!(compact(&[3i64; 2]), "[3,3]");
    assert_eq!(compact(&Some(&Box::new(4u16))), "4");
}

#[test]
fn value_number_rule_is_pinned() {
    let two53 = 9_007_199_254_740_992.0;
    let v = Value::Obj(vec![
        ("exact".into(), Value::Num(two53)),
        ("past".into(), Value::Num(two53 + 2.0)),
        (
            "parsed".into(),
            json::parse("9007199254740993").expect("parses"),
        ),
        ("neg".into(), Value::Num(-two53)),
        ("half".into(), Value::Num(0.5)),
        ("big".into(), Value::Num(1e21)),
        ("small".into(), Value::Num(1e-7)),
        ("zero".into(), Value::Num(-0.0)),
        ("e".into(), Value::Arr(vec![])),
        ("o".into(), Value::Obj(vec![])),
        ("s".into(), Value::Str("\u{1}\"".into())),
        (
            "b".into(),
            Value::Arr(vec![Value::Bool(false), Value::Null]),
        ),
    ]);
    assert_eq!(
        json::to_compact(&v),
        r#"{"exact":9007199254740992,"past":9007199254740994.0,"parsed":9007199254740992,"neg":-9007199254740992,"half":0.5,"big":1e21,"small":1e-7,"zero":0,"e":[],"o":{},"s":"\u0001\"","b":[false,null]}"#
    );
    let text = json::to_pretty(&v);
    assert_eq!(text, v.to_string());
    assert_eq!(fnv1a(&text), 8589430165019823873, "{text}");
}

/// The seeded 4×4 fully hardened GEMM campaign, 256 faults.
#[test]
fn faults_report_bytes_are_pinned() {
    let cfg = CampaignConfig {
        rows: 4,
        cols: 4,
        k: 4,
        faults: 256,
        seed: 7,
        hardening: Hardening::full(),
        workers: 2,
        lanes: 64,
        opt: true,
    };
    let (report, _) =
        run_gemm_campaign_durable(&cfg, &DurabilityOptions::default()).expect("campaign runs");
    assert_eq!(report.outcomes.len(), 256);
    let (c, p) = (compact(&report), pretty(&report));
    assert_eq!(
        (fnv1a(&c), c.len(), fnv1a(&p), p.len()),
        (1215770878599124174, 35072, 15601792432261902034, 70041)
    );
    assert!(streamed(&report, false) == c && streamed(&report, true) == p);
}

/// A 50-seed `fuzz --mode both` report.
#[test]
fn fuzz_report_bytes_are_pinned() {
    let cfg = VerifyConfig {
        seed_start: 0,
        seeds: 50,
        workers: 2,
        cycles: 16,
        lanes: 1,
        opt: true,
    };
    let (report, _) =
        run_verify_durable(&cfg, true, true, &DurabilityOptions::default()).expect("fuzz runs");
    let (c, p) = (compact(&report), pretty(&report));
    assert_eq!(
        (fnv1a(&c), c.len(), fnv1a(&p), p.len()),
        (5219268661539206428, 193, 17988312976080640864, 272)
    );
}

/// A GEMM `explore` sweep report on a 4×4 array.
#[test]
fn explore_report_bytes_are_pinned() {
    let opts = ExploreOptions {
        hw: tensorlib::HwConfig {
            array: tensorlib::ArrayConfig { rows: 4, cols: 4 },
            ..tensorlib::HwConfig::default()
        },
        workers: 2,
        ..ExploreOptions::default()
    };
    let (report, _) = explore_durable(
        &workloads::gemm(4, 4, 4),
        &opts,
        &DurabilityOptions::default(),
    )
    .expect("sweep runs");
    assert!(!report.rows.is_empty());
    let (c, p) = (compact(&report), pretty(&report));
    assert_eq!(
        (fnv1a(&c), c.len(), fnv1a(&p), p.len()),
        (349216087392454357, 118887, 8539586466331353633, 169367)
    );
    assert!(streamed(&report, false) == c && streamed(&report, true) == p);
}
