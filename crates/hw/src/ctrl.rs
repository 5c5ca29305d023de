//! The system controller: a load / compute / drain FSM with a cycle counter.
//!
//! The controller sequences one space-time tile: fill stationary buffers
//! (overlapped with the previous tile's compute thanks to double buffering),
//! run the `t_extent` compute cycles, pulse `swap` at the stage boundary, and
//! drain stationary outputs. All thresholds are baked in at generation time —
//! STT schedules are fully static.

use serde::Serialize;

use crate::netlist::{BinOp, Expr, Module};

/// Cycle budget for each controller phase of one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CtrlPhases {
    /// Cycles to fill stationary buffers (0 if nothing is stationary).
    pub load_cycles: u64,
    /// Compute cycles (the tile's time extent, including systolic skew).
    pub compute_cycles: u64,
    /// Cycles to drain stationary outputs (0 if none).
    pub drain_cycles: u64,
}

impl CtrlPhases {
    /// Total cycles for one tile, load→compute→drain.
    pub fn total(&self) -> u64 {
        self.load_cycles + self.compute_cycles + self.drain_cycles
    }
}

/// Builds the controller module.
///
/// Ports: `start` (in), `en`, `load_en`, `phase`, `swap`, `drain_en`, `done`
/// (all out). States: 0 idle, 1 load, 2 compute, 3 drain.
///
/// # Panics
///
/// Panics if `compute_cycles == 0`.
///
/// # Examples
///
/// ```
/// use tensorlib_hw::ctrl::{build_controller, CtrlPhases};
/// let phases = CtrlPhases { load_cycles: 16, compute_cycles: 46, drain_cycles: 16 };
/// let m = build_controller("ctrl", &phases);
/// m.validate().unwrap();
/// assert!(m.port_dir("swap").is_some());
/// ```
pub fn build_controller(name: &str, phases: &CtrlPhases) -> Module {
    assert!(phases.compute_cycles > 0, "compute phase cannot be empty");
    let mut m = Module::new(name);
    let start = m.input("start", 1);
    let en = m.output("en", 1);
    let load_en = m.output("load_en", 1);
    let phase_out = m.output("phase", 1);
    let swap = m.output("swap", 1);
    let drain_en = m.output("drain_en", 1);
    let done = m.output("done", 1);

    let state = m.net("state", 2);
    let counter = m.net("counter", 32);
    let phase_reg = m.net("phase_reg", 1);

    let st = |v: u64| Expr::lit(v, 2);
    let in_state = |s: u64| Expr::Bin(BinOp::Eq, Box::new(Expr::net(state)), Box::new(st(s)));
    let count_is = |v: u64| {
        Expr::Bin(
            BinOp::Eq,
            Box::new(Expr::net(counter)),
            Box::new(Expr::lit(v, 32)),
        )
    };

    // Phase-end predicates (a phase of length 0 is skipped by construction of
    // the next-state mux chain below).
    let load_end = count_is(phases.load_cycles.saturating_sub(1));
    let compute_end = count_is(phases.compute_cycles - 1);
    let drain_end = count_is(phases.drain_cycles.saturating_sub(1));

    // Next state: idle -> (load | compute) on start; load -> compute;
    // compute -> (drain | load | compute); drain -> load/compute of the next
    // tile (free-running until externally stopped — tiles repeat).
    let after_load_target = st(2);
    let after_compute_target = if phases.drain_cycles > 0 { st(3) } else { first_busy_state(phases) };
    let after_drain_target = first_busy_state(phases);
    let next_state = Expr::mux(
        in_state(0),
        Expr::mux(Expr::net(start), first_busy_state(phases), st(0)),
        Expr::mux(
            in_state(1),
            Expr::mux(load_end.clone(), after_load_target, st(1)),
            Expr::mux(
                in_state(2),
                Expr::mux(compute_end.clone(), after_compute_target, st(2)),
                Expr::mux(drain_end.clone(), after_drain_target, st(3)),
            ),
        ),
    );
    m.reg(state, next_state, None, 0);

    // Counter resets on every state transition edge, else increments.
    let at_boundary = Expr::mux(
        in_state(1),
        load_end.clone(),
        Expr::mux(in_state(2), compute_end.clone(), drain_end.clone()),
    );
    let next_counter = Expr::mux(
        Expr::Bin(
            BinOp::Or,
            Box::new(in_state(0)),
            Box::new(at_boundary),
        ),
        Expr::lit(0, 32),
        Expr::net(counter).add(Expr::lit(1, 32)),
    );
    m.reg(counter, next_counter, None, 0);

    // Double-buffer phase toggles at each compute-stage end.
    let toggle = Expr::Bin(
        BinOp::And,
        Box::new(in_state(2)),
        Box::new(compute_end.clone()),
    );
    m.reg(
        phase_reg,
        Expr::Not(Box::new(Expr::net(phase_reg))),
        Some(toggle.clone()),
        0,
    );

    m.assign(en, in_state(2));
    m.assign(load_en, in_state(1));
    m.assign(phase_out, Expr::net(phase_reg));
    m.assign(swap, toggle);
    m.assign(drain_en, in_state(3));
    m.assign(
        done,
        Expr::Bin(
            BinOp::And,
            Box::new(in_state(3)),
            Box::new(drain_end),
        ),
    );
    m
}

fn first_busy_state(phases: &CtrlPhases) -> Expr {
    if phases.load_cycles > 0 {
        Expr::lit(1, 2)
    } else {
        Expr::lit(2, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_total() {
        let p = CtrlPhases {
            load_cycles: 4,
            compute_cycles: 10,
            drain_cycles: 2,
        };
        assert_eq!(p.total(), 16);
    }

    #[test]
    fn controller_validates_with_all_phases() {
        let m = build_controller(
            "ctrl",
            &CtrlPhases {
                load_cycles: 4,
                compute_cycles: 10,
                drain_cycles: 2,
            },
        );
        m.validate().unwrap();
        for p in ["start", "en", "load_en", "phase", "swap", "drain_en", "done"] {
            assert!(m.port_dir(p).is_some(), "missing port {p}");
        }
        // state + counter + phase_reg.
        assert_eq!(m.regs().len(), 3);
    }

    #[test]
    fn controller_validates_without_load_or_drain() {
        let m = build_controller(
            "ctrl",
            &CtrlPhases {
                load_cycles: 0,
                compute_cycles: 5,
                drain_cycles: 0,
            },
        );
        m.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "compute phase")]
    fn zero_compute_panics() {
        let _ = build_controller(
            "ctrl",
            &CtrlPhases {
                load_cycles: 1,
                compute_cycles: 0,
                drain_cycles: 1,
            },
        );
    }
}
