//! Differential test of the compiled bytecode evaluator against the
//! tree-walking reference: a systolic PE is driven for 200 cycles with
//! seeded-random pokes on every input port, and **every flat net** must match
//! between the two interpreters after every cycle.
//!
//! This is deliberately stronger than checking the output ports — alias
//! elimination, peephole fusion, and precomputed masks all have to reproduce
//! the reference value of every intermediate wire and register, not just the
//! values that happen to reach the boundary.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use tensorlib::hw::interp::{elaborate, FlatDesign, Interpreter};
use tensorlib::hw::netlist::Dir;
use tensorlib::hw::pe::{build_pe, PeIoKind, PeSpec, PeTensorSpec};
use tensorlib::ir::DataType;

/// A weight-stationary-flavoured systolic PE: systolic activation input,
/// double-buffered stationary weight, systolic partial-sum output — the
/// richest single-PE expression mix the generator emits (sign-extended
/// multiply, accumulate mux, enable-gated delay chains, phase muxing).
fn systolic_pe() -> FlatDesign {
    let spec = PeSpec {
        name: "pe".into(),
        datatype: DataType::Int16,
        tensors: vec![
            PeTensorSpec {
                tensor: "a".into(),
                kind: PeIoKind::SystolicIn,
                delay: 1,
            },
            PeTensorSpec {
                tensor: "b".into(),
                kind: PeIoKind::StationaryIn,
                delay: 1,
            },
            PeTensorSpec {
                tensor: "c".into(),
                kind: PeIoKind::SystolicOut,
                delay: 1,
            },
        ],
    };
    elaborate(&[build_pe(&spec)], &[], "pe").unwrap()
}

#[test]
fn compiled_matches_tree_walking_on_every_net_for_200_random_cycles() {
    let flat = systolic_pe();
    let input_ids: Vec<usize> = flat
        .ports()
        .iter()
        .filter(|(_, dir)| *dir == Dir::Input)
        .map(|&(id, _)| id)
        .collect();
    let net_names: Vec<String> = flat.nets().iter().map(|n| n.name.clone()).collect();
    assert!(!input_ids.is_empty());
    assert!(net_names.len() > input_ids.len(), "PE has internal nets");

    let mut compiled = Interpreter::new(flat.clone());
    let mut tree = Interpreter::new_tree_walking(flat);
    assert!(compiled.is_compiled());
    assert!(!tree.is_compiled());

    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    for cycle in 0..200 {
        // Random values on every input port (the interpreter masks to each
        // port's width); control ports toggle as aggressively as data ports.
        let pokes: Vec<(usize, u64)> = input_ids.iter().map(|&id| (id, rng.next_u64())).collect();
        compiled.poke_by_id(pokes.iter().copied());
        tree.poke_by_id(pokes.iter().copied());
        compiled.step();
        tree.step();
        for name in &net_names {
            assert_eq!(
                compiled.peek(name),
                tree.peek(name),
                "net {name} diverged at cycle {cycle}"
            );
            assert_eq!(
                compiled.peek_signed(name),
                tree.peek_signed(name),
                "signed read of {name} diverged at cycle {cycle}"
            );
        }
    }
}

/// Elaboration keeps duplicate names, and every lookup by name resolves to
/// the first net (or, for ports, the first port) carrying it: the scalar
/// engines' peeks and pokes, the lane engine's probes, trace watches, fault
/// targets and `FlatDesign::port`. The design has two input ports `x` and
/// two registers `q`; each `q` samples its own `x` and drives its own output.
#[test]
fn duplicate_names_resolve_to_the_first_occurrence_everywhere() {
    use tensorlib::hw::batch::BatchSim;
    use tensorlib::hw::fault::FaultSpec;
    use tensorlib::hw::text::parse_text;
    use tensorlib::hw::trace::TraceConfig;

    let doc = parse_text(
        "tensorlib-netlist v1\n\
         module \"top\"\n\
         \x20 input %0 \"x\" 8\n\
         \x20 input %1 \"x\" 8\n\
         \x20 output %2 \"y\" 8\n\
         \x20 output %3 \"z\" 8\n\
         \x20 net %4 \"q\" 8\n\
         \x20 net %5 \"q\" 8\n\
         \x20 assign %2 = %4\n\
         \x20 assign %3 = %5\n\
         \x20 reg %4 = %0 init=1\n\
         \x20 reg %5 = %1 init=2\n\
         end\n\
         top \"top\"\n",
    )
    .expect("duplicate names parse");
    let flat = elaborate(&doc.modules, &doc.banks, &doc.top).unwrap();
    assert_eq!((flat.port("x"), flat.net("x"), flat.net("q")), (Some(0), Some(0), Some(4)));

    // Poking `x` drives the first port; `q` reads the first register.
    for mut sim in [
        Interpreter::new(flat.clone()),
        Interpreter::new_tree_walking(flat.clone()),
    ] {
        assert_eq!(sim.peek("q"), 1);
        sim.poke("x", 7);
        sim.step();
        assert_eq!((sim.peek("x"), sim.peek("q"), sim.peek("y"), sim.peek("z")), (7, 7, 7, 0));
        // A fault on `q` lands on the first register.
        sim.attach_faults(&[FaultSpec::flip("q", 4, 1)]).unwrap();
        sim.step();
        assert_eq!((sim.peek("y"), sim.peek("z")), (7 ^ 16, 0));
    }

    let mut batch = BatchSim::new(flat.clone(), 2);
    batch.poke_lane("x", 1, 5);
    batch.step();
    let q = batch.probe("q");
    assert_eq!(batch.read(q), [0, 5]);
    assert_eq!((batch.peek_lane("q", 1), batch.peek_lane("z", 1)), (5, 0));
    let attached = batch.attach_lane_faults(&[vec![FaultSpec::flip("q", 4, 1)], vec![]]);
    assert!(attached.iter().all(Result::is_ok));
    batch.step();
    assert_eq!(batch.read(batch.probe("y")), [16, 5]);
    assert_eq!(batch.read(batch.probe("z")), [0, 0]);

    // A watch on `q` follows the first register: 1 -> 7.
    let cfg = TraceConfig::counters_only().with_watch(["q"]);
    let mut traced = Interpreter::with_trace(flat, &cfg).unwrap();
    traced.poke("x", 7);
    traced.step();
    let changes: Vec<u64> = traced.trace_events().iter().map(|e| e.value).collect();
    assert_eq!(changes, [7]);
}
