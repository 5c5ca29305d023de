//! The traced run: each workload rebuilt in-process, serially, from the
//! layers' public functions, with every call timed from outside. Nothing
//! inside the program is instrumented; a [`Ledger`] keeps the busy time and
//! call count of each layer plus the layers' deterministic work counts.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use tensorlib::cost::{asic_cost, Activity};
use tensorlib::dataflow::dse::{design_space, find_named, DseConfig};
use tensorlib::dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib::hw::design::generate;
use tensorlib::hw::fault::Hardening;
use tensorlib::hw::fuzz::{
    check_batch_netlist, check_netlist, check_opt_netlist, check_text_roundtrip,
    check_yosys_roundtrip, gen_netlist, NetlistFuzzConfig,
};
use tensorlib::hw::interp::{elaborate, elaborate_design, flat_op_count, Interpreter};
use tensorlib::hw::netlist::Dir;
use tensorlib::hw::opt::{optimize_netlist, OptOptions};
use tensorlib::hw::text::{emit_text, parse_text, NetlistDoc};
use tensorlib::hw::verilog::emit_design;
use tensorlib::ir::workloads as kernels;
use tensorlib::linalg::rng::SplitMix64;
use tensorlib::sim::perf::estimate;
use tensorlib::sim::resilience::{run_gemm_campaign_durable, CampaignConfig};
use tensorlib::sim::verify::{run_pipeline_campaign, VerifyConfig};
use tensorlib::sim::DurabilityOptions;
use tensorlib::{AcceleratorDesign, ArrayConfig, HwConfig, Kernel, SimConfig};
use tensorlib_cli::resolve_workload;
use tensorlib_obs::atomic_write;

use crate::checks::RankRow;
use crate::stats::Better;
use crate::workloads::{self, Workload, FAULTS, FUZZ_SEEDS, RTL_ARRAY, RTL_DESIGNS, SIM_CYCLES};

/// Every per-layer metric: name, unit, and which direction is better.
/// `BENCHMARK.json`'s `per_layer` list holds exactly these, in this order.
/// A metric of a layer a workload does not cross reads 0.
pub const LAYER_METRICS: [(&str, &str, Better); 50] = [
    ("traced.wall_s", "s", Better::Lower),
    ("traced.attributed_share", "ratio", Better::Higher),
    ("par.idle_share", "ratio", Better::Lower),
    ("dataflow.design_space.busy_s", "s", Better::Lower),
    ("dataflow.candidates", "count", Better::Higher),
    ("dataflow.implementable_share", "ratio", Better::Higher),
    ("dataflow.find_named.busy_s", "s", Better::Lower),
    ("dataflow.find_named.calls", "count", Better::Lower),
    ("hw.generate.busy_s", "s", Better::Lower),
    ("hw.generate.calls", "count", Better::Lower),
    ("hw.generate.us_per_call", "us", Better::Lower),
    ("hw.design_drop.busy_s", "s", Better::Lower),
    ("hw.validate.busy_s", "s", Better::Lower),
    ("hw.opt.busy_s", "s", Better::Lower),
    ("hw.opt.ops_before", "count", Better::Lower),
    ("hw.opt.ops_after", "count", Better::Lower),
    ("hw.elaborate.busy_s", "s", Better::Lower),
    ("hw.elaborate.bytecode_ops", "count", Better::Lower),
    ("hw.interp.busy_s", "s", Better::Lower),
    ("hw.interp.cycles", "count", Better::Higher),
    ("hw.interp.pokes", "count", Better::Lower),
    ("hw.verilog.emit.busy_s", "s", Better::Lower),
    ("hw.verilog.bytes", "bytes", Better::Lower),
    ("hw.text.emit.busy_s", "s", Better::Lower),
    ("hw.text.parse.busy_s", "s", Better::Lower),
    ("hw.text.bytes", "bytes", Better::Lower),
    ("hw.fuzz.gen.busy_s", "s", Better::Lower),
    ("hw.fuzz.check_netlist.busy_s", "s", Better::Lower),
    ("hw.fuzz.check_batch.busy_s", "s", Better::Lower),
    ("hw.fuzz.check_opt.busy_s", "s", Better::Lower),
    ("hw.fuzz.text_roundtrip.busy_s", "s", Better::Lower),
    ("hw.fuzz.yosys_roundtrip.busy_s", "s", Better::Lower),
    ("sim.verify.pipeline.busy_s", "s", Better::Lower),
    ("sim.verify.seeds", "count", Better::Higher),
    ("sim.verify.rejected", "count", Better::Lower),
    ("sim.verify.findings", "count", Better::Lower),
    ("sim.perf.busy_s", "s", Better::Lower),
    ("sim.perf.calls", "count", Better::Lower),
    ("sim.perf.budget_exceeded", "count", Better::Lower),
    ("cost.asic.busy_s", "s", Better::Lower),
    ("sim.resilience.setup_busy_s", "s", Better::Lower),
    ("sim.resilience.busy_s", "s", Better::Lower),
    ("sim.resilience.faults_per_s", "1/s", Better::Higher),
    ("sim.journal.write_busy_s", "s", Better::Lower),
    ("sim.journal.replay_busy_s", "s", Better::Lower),
    ("sim.journal.bytes", "bytes", Better::Lower),
    ("sim.journal.chunks", "count", Better::Lower),
    ("report.serialize.busy_s", "s", Better::Lower),
    ("report.write.busy_s", "s", Better::Lower),
    ("report.bytes", "bytes", Better::Lower),
];

/// Busy time and calls per layer, plus named work counts.
#[derive(Debug, Default)]
pub struct Ledger {
    layers: BTreeMap<&'static str, (Duration, u64)>,
    counts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Runs `f`, charging its wall time and one call to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let entry = self.layers.entry(layer).or_default();
        entry.0 += t0.elapsed();
        entry.1 += 1;
        out
    }

    pub fn add(&mut self, count: &'static str, n: f64) {
        *self.counts.entry(count).or_default() += n;
    }

    pub fn busy_s(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |(busy, _)| busy.as_secs_f64())
    }

    pub fn calls(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |&(_, calls)| calls as f64)
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Busy time summed over every layer.
    pub fn total_busy_s(&self) -> f64 {
        self.layers
            .values()
            .map(|(busy, _)| busy.as_secs_f64())
            .sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of the traced run's wall time that some timed layer call covers.
pub fn attributed_share(busy_s: f64, wall_s: f64) -> f64 {
    ratio(busy_s, wall_s)
}

/// One traced rebuild of a workload.
pub struct Traced {
    pub ledger: Ledger,
    pub wall: Duration,
    /// Explore's recomposed top ten, fastest first.
    pub ranking: Option<Vec<RankRow>>,
    pub failures: Vec<String>,
}

impl Traced {
    /// Every entry of [`LAYER_METRICS`], with `idle_share` from the
    /// end-to-end run.
    pub fn metrics(&self, idle_share: f64) -> Vec<(&'static str, f64)> {
        let l = &self.ledger;
        let wall = self.wall.as_secs_f64();
        LAYER_METRICS
            .iter()
            .map(|&(name, _, _)| {
                let value = match name {
                    "traced.wall_s" => wall,
                    "traced.attributed_share" => attributed_share(l.total_busy_s(), wall),
                    "par.idle_share" => idle_share,
                    "dataflow.implementable_share" => ratio(
                        l.count("dataflow.implementable"),
                        l.count("dataflow.candidates"),
                    ),
                    "hw.generate.us_per_call" => {
                        ratio(l.busy_s("hw.generate") * 1e6, l.calls("hw.generate"))
                    }
                    "sim.resilience.setup_busy_s" => l.busy_s("sim.resilience.setup"),
                    "sim.resilience.faults_per_s" => {
                        ratio(l.count("sim.resilience.faults"), l.busy_s("sim.resilience"))
                    }
                    // Journaling's cost is the journaled campaign minus the
                    // same campaign run inert.
                    "sim.journal.write_busy_s" if l.calls("sim.journal.campaign") > 0.0 => {
                        l.busy_s("sim.journal.campaign") - l.busy_s("sim.resilience")
                    }
                    "sim.journal.write_busy_s" => 0.0,
                    "sim.journal.replay_busy_s" => l.busy_s("sim.journal.replay"),
                    _ => match (name.strip_suffix(".busy_s"), name.strip_suffix(".calls")) {
                        (Some(layer), _) => l.busy_s(layer),
                        (_, Some(layer)) => l.calls(layer),
                        _ => l.count(name),
                    },
                };
                (name, value)
            })
            .collect()
    }
}

/// Rebuilds `w` in-process for benchmark seed `seed`, writing any files under
/// `dir` (which must exist).
pub fn run(w: Workload, seed: u64, dir: &Path) -> Traced {
    let mut t = Traced {
        ledger: Ledger::default(),
        wall: Duration::ZERO,
        ranking: None,
        failures: Vec::new(),
    };
    let t0 = Instant::now();
    let outcome = match w {
        Workload::ExploreConv2d => explore(&mut t),
        Workload::FaultsTmr => faults(&mut t, seed, dir),
        Workload::FuzzBoth => fuzz(&mut t, seed),
        Workload::RtlRoundtrip => rtl(&mut t, dir),
    };
    t.wall = t0.elapsed();
    if let Err(e) = outcome {
        t.failures.push(e);
    }
    t
}

/// `explore conv2d`: enumerate, then generate, estimate and cost every
/// candidate as the sweep's scorer does, and rank fastest first.
fn explore(t: &mut Traced) -> Result<(), String> {
    let l = &mut t.ledger;
    let kernel = resolve_workload("conv2d").map_err(|e| e.to_string())?;
    let dse = DseConfig {
        workers: 1,
        ..DseConfig::default()
    };
    let candidates = l.time("dataflow.design_space", || design_space(&kernel, &dse));
    l.add("dataflow.candidates", candidates.len() as f64);
    let hw = HwConfig::default();
    let sim = SimConfig::default();
    let budget = tensorlib::explore::ExploreOptions::default().cycle_budget;
    let activity = Activity {
        utilization: 1.0,
        freq_mhz: sim.freq_mhz,
    };
    let mut rows = Vec::new();
    for df in &candidates {
        let Ok(design) = l.time("hw.generate", || generate(df, &hw)) else {
            continue;
        };
        l.add("dataflow.implementable", 1.0);
        let perf = l.time("sim.perf", || estimate(&design, &kernel, &sim));
        if budget.is_some_and(|b| perf.total_cycles > b) {
            l.add("sim.perf.budget_exceeded", 1.0);
        } else {
            let asic = l.time("cost.asic", || asic_cost(&design, &activity));
            rows.push(RankRow {
                name: format!("{}{}", df.name(), hw.hardening.suffix()),
                letters: df.letters(),
                total_cycles: perf.total_cycles,
                normalized_perf: perf.normalized_perf,
                power_mw: asic.power_mw,
                area_mm2: asic.area_mm2,
            });
        }
        l.time("hw.design_drop", move || drop(design));
    }
    rows.sort_by(|a, b| {
        a.total_cycles
            .cmp(&b.total_cycles)
            .then_with(|| a.name.cmp(&b.name))
    });
    rows.truncate(10);
    t.ranking = Some(rows);
    Ok(())
}

/// The campaign design: output-stationary GEMM, fully hardened, optimized.
fn campaign_design(cfg: &CampaignConfig) -> Result<AcceleratorDesign, String> {
    let gemm = kernels::gemm(cfg.rows as u64, cfg.cols as u64, cfg.k);
    let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).map_err(|e| e.to_string())?;
    let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).map_err(|e| e.to_string())?;
    let hw = HwConfig {
        array: ArrayConfig {
            rows: cfg.rows,
            cols: cfg.cols,
        },
        hardening: cfg.hardening,
        ..HwConfig::default()
    };
    let mut design = generate(&df, &hw).map_err(|e| e.to_string())?;
    design.optimize(&OptOptions::default());
    Ok(design)
}

/// `faults`: campaign setup, the campaign run inert, journaled and replayed,
/// then the report serialized and written.
fn faults(t: &mut Traced, seed: u64, dir: &Path) -> Result<(), String> {
    let l = &mut t.ledger;
    let cfg = CampaignConfig {
        rows: 8,
        cols: 8,
        k: 16,
        faults: FAULTS,
        seed,
        hardening: Hardening::parse("tmr,parity,abft")?,
        workers: 1,
        lanes: 64,
        opt: true,
    };
    l.time("sim.resilience.setup", || -> Result<(), String> {
        let design = campaign_design(&cfg)?;
        elaborate_design(&design, design.top()).map_err(|e| e.to_string())?;
        Ok(())
    })?;
    let err = |e: tensorlib::sim::CampaignError| e.to_string();
    let (inert, _) = l
        .time("sim.resilience", || {
            run_gemm_campaign_durable(&cfg, &DurabilityOptions::default())
        })
        .map_err(err)?;
    l.add("sim.resilience.faults", inert.faults as f64);
    let journal_dir = dir.join("journal");
    let durable = DurabilityOptions::with_dir(&journal_dir);
    let (journaled, stats) = l
        .time("sim.journal.campaign", || {
            run_gemm_campaign_durable(&cfg, &durable)
        })
        .map_err(err)?;
    let journal_bytes = std::fs::metadata(journal_dir.join(tensorlib::sim::journal::JOURNAL_FILE))
        .map_err(|e| format!("journal: {e}"))?
        .len();
    l.add("sim.journal.bytes", journal_bytes as f64);
    l.add("sim.journal.chunks", stats.chunks_total as f64);
    let (replayed, replay) = l
        .time("sim.journal.replay", || {
            run_gemm_campaign_durable(&cfg, &durable)
        })
        .map_err(err)?;
    let text = l
        .time("report.serialize", || serde_json::to_string_pretty(&inert))
        .map_err(|e| format!("serializing report: {e}"))?;
    l.add("report.bytes", text.len() as f64);
    l.time("report.write", || {
        atomic_write(dir.join("report.json"), text.as_bytes())
    })
    .map_err(|e| format!("writing report: {e}"))?;

    if inert.sdc != 0 || inert.errors != 0 || inert.degraded != 0 || inert.detection_coverage != 1.0
    {
        t.failures.push(format!(
            "inert campaign: sdc {} errors {} degraded {} coverage {}",
            inert.sdc, inert.errors, inert.degraded, inert.detection_coverage
        ));
    }
    if journaled != inert || replayed != inert {
        t.failures
            .push("journaled or replayed campaign differs from the inert one".into());
    }
    if replay.chunks_replayed != replay.chunks_total {
        t.failures.push(format!(
            "replay reused {} of {} chunks",
            replay.chunks_replayed, replay.chunks_total
        ));
    }
    Ok(())
}

/// `fuzz --mode both`: the netlist mode recomposed seed by seed from the
/// `hw::fuzz` oracles, the pipeline mode as one campaign call.
fn fuzz(t: &mut Traced, seed: u64) -> Result<(), String> {
    let l = &mut t.ledger;
    let start = workloads::fuzz_seed_start(seed).ok_or("seed too large for a fuzz range")?;
    let cfg = VerifyConfig {
        seed_start: start,
        seeds: FUZZ_SEEDS,
        workers: 1,
        cycles: 16,
        lanes: 1,
        opt: true,
    };
    let gen_cfg = NetlistFuzzConfig {
        cycles: cfg.cycles,
        ..NetlistFuzzConfig::default()
    };
    let mut findings = 0u64;
    for s in start..start + FUZZ_SEEDS {
        let (mods, top) = l.time("hw.fuzz.gen", || gen_netlist(s, &gen_cfg));
        let (m, top, c, lanes) = (&mods, top.as_str(), cfg.cycles, cfg.lanes);
        let verdict = l
            .time("hw.fuzz.check_netlist", || {
                check_netlist(m, top, s, c, None)
            })
            .and_then(|()| {
                l.time("hw.fuzz.check_batch", || {
                    check_batch_netlist(m, top, s, c, lanes)
                })
            })
            .and_then(|()| {
                l.time("hw.fuzz.check_opt", || {
                    check_opt_netlist(m, top, s, c, lanes)
                })
            })
            .and_then(|()| l.time("hw.fuzz.text_roundtrip", || check_text_roundtrip(m, top)))
            .and_then(|()| l.time("hw.fuzz.yosys_roundtrip", || check_yosys_roundtrip(m, top)));
        if let Err(f) = verdict {
            findings += 1;
            t.failures.push(format!(
                "netlist seed {s}: {}: {}",
                f.kind.label(),
                f.detail
            ));
        }
    }
    let pipeline = l.time("sim.verify.pipeline", || run_pipeline_campaign(&cfg));
    findings += pipeline.findings.len() as u64;
    for f in &pipeline.findings {
        t.failures.push(format!(
            "pipeline seed {}: {}: {}",
            f.seed, f.kind, f.detail
        ));
    }
    l.add("sim.verify.seeds", (FUZZ_SEEDS + pipeline.seeds_run) as f64);
    l.add("sim.verify.rejected", pipeline.rejected as f64);
    l.add("sim.verify.findings", findings as f64);
    Ok(())
}

/// `generate` and `emit`'s shared front half: find the dataflow, generate,
/// validate, optimize and validate again.
fn build(
    l: &mut Ledger,
    kernel: &Kernel,
    dataflow: &str,
    hw: &HwConfig,
) -> Result<AcceleratorDesign, String> {
    let df = l
        .time("dataflow.find_named", || {
            find_named(kernel, dataflow, &DseConfig::default())
        })
        .map_err(|e| e.to_string())?;
    let mut design = l
        .time("hw.generate", || generate(&df, hw))
        .map_err(|e| e.to_string())?;
    l.time("hw.validate", || design.validate())
        .map_err(|e| e.to_string())?;
    let stats = l.time("hw.opt", || design.optimize(&OptOptions::default()));
    l.add("hw.opt.ops_before", stats.pre.lowered_ops as f64);
    l.add("hw.opt.ops_after", stats.post.lowered_ops as f64);
    l.time("hw.validate", || design.validate())
        .map_err(|e| e.to_string())?;
    Ok(design)
}

/// The CLI's seeded smoke trace: poke every input by name, step, peek every
/// output, for [`SIM_CYCLES`] cycles.
fn smoke_trace(l: &mut Ledger, doc: &NetlistDoc) -> Result<String, String> {
    let (mut sim, inputs, outputs) = l.time("hw.elaborate", || {
        let flat = elaborate(&doc.modules, &doc.banks, &doc.top).map_err(|e| e.to_string())?;
        let ports = |dir: Dir| -> Vec<String> {
            flat.ports()
                .iter()
                .filter(|(_, d)| *d == dir)
                .map(|(id, _)| flat.nets()[*id].name.clone())
                .collect()
        };
        let (inputs, outputs) = (ports(Dir::Input), ports(Dir::Output));
        Ok::<_, String>((Interpreter::new(flat), inputs, outputs))
    })?;
    let text = l.time("hw.interp", || {
        let mut rng = SplitMix64::new(0x7E57_0A7C_0000_0001);
        let mut text = String::new();
        for cycle in 0..SIM_CYCLES {
            for name in &inputs {
                sim.poke(name, rng.next_u64());
            }
            sim.step();
            for name in &outputs {
                text.push_str(&format!("{cycle} {name}={}\n", sim.peek(name)));
            }
        }
        text
    });
    l.add("hw.interp.cycles", SIM_CYCLES as f64);
    l.add("hw.interp.pokes", (inputs.len() as u64 * SIM_CYCLES) as f64);
    Ok(text)
}

fn write(l: &mut Ledger, path: &Path, bytes: &[u8]) -> Result<(), String> {
    l.add("report.bytes", bytes.len() as f64);
    l.time("report.write", || atomic_write(path, bytes))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Elaborates `doc` and counts its compiled bytecode, as `parse` reports it.
fn elaborate_and_count(l: &mut Ledger, doc: &NetlistDoc) -> Result<(), String> {
    l.time("hw.validate", || doc.validate())?;
    let flat = l
        .time("hw.elaborate", || {
            elaborate(&doc.modules, &doc.banks, &doc.top)
        })
        .map_err(|e| e.to_string())?;
    let ops = l.time("hw.elaborate", || flat_op_count(&flat));
    l.add("hw.elaborate.bytecode_ops", ops as f64);
    Ok(())
}

/// For each Fig. 5 design: `generate -o x.v`, `emit --format text` with a
/// smoke trace, and `parse` with a smoke trace.
fn rtl(t: &mut Traced, dir: &Path) -> Result<(), String> {
    let l = &mut t.ledger;
    let hw = HwConfig {
        array: ArrayConfig {
            rows: RTL_ARRAY,
            cols: RTL_ARRAY,
        },
        ..HwConfig::default()
    };
    for (name, dataflow) in RTL_DESIGNS {
        let kernel = resolve_workload(name).map_err(|e| e.to_string())?;

        let design = build(l, &kernel, dataflow, &hw)?;
        let verilog = l.time("hw.verilog.emit", || emit_design(&design));
        l.add("hw.verilog.bytes", verilog.len() as f64);
        write(l, &dir.join(format!("{name}.v")), verilog.as_bytes())?;
        l.time("hw.design_drop", move || drop(design));

        let design = build(l, &kernel, dataflow, &hw)?;
        let (doc, text) = l.time("hw.text.emit", || {
            let doc = NetlistDoc::from_design(&design);
            let text = emit_text(&doc);
            (doc, text)
        });
        l.add("hw.text.bytes", text.len() as f64);
        let reparsed = l
            .time("hw.text.parse", || parse_text(&text))
            .map_err(|e| e.to_string())?;
        if reparsed != doc {
            return Err(format!(
                "{name}: emitted text does not re-parse to the same netlist"
            ));
        }
        let emitted_trace = smoke_trace(l, &doc)?;
        let netlist_path = dir.join(format!("{name}.txt"));
        write(l, &netlist_path, text.as_bytes())?;
        write(
            l,
            &dir.join(format!("{name}.emit.trace")),
            emitted_trace.as_bytes(),
        )?;
        l.time("hw.design_drop", move || drop(design));

        let parsed = l.time("hw.text.parse", || {
            let src = std::fs::read_to_string(&netlist_path).map_err(|e| e.to_string())?;
            parse_text(&src).map_err(|e| e.to_string())
        })?;
        elaborate_and_count(l, &parsed)?;
        let (modules, stats) = l.time("hw.opt", || {
            optimize_netlist(&parsed.modules, &parsed.top, &OptOptions::default())
        });
        l.add("hw.opt.ops_before", stats.pre.lowered_ops as f64);
        l.add("hw.opt.ops_after", stats.post.lowered_ops as f64);
        let optimized = NetlistDoc {
            modules,
            banks: parsed.banks.clone(),
            top: parsed.top.clone(),
        };
        elaborate_and_count(l, &optimized)?;
        let parsed_trace = smoke_trace(l, &parsed)?;
        write(
            l,
            &dir.join(format!("{name}.parse.trace")),
            parsed_trace.as_bytes(),
        )?;
        if let Err(e) = crate::checks::check_traces_match(
            name,
            emitted_trace.as_bytes(),
            parsed_trace.as_bytes(),
        ) {
            t.failures.push(e);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributed_share_is_busy_over_wall() {
        let mut l = Ledger::default();
        l.time("a", || std::thread::sleep(Duration::from_millis(5)));
        l.time("b", || std::thread::sleep(Duration::from_millis(5)));
        l.time("a", || ());
        assert_eq!(l.calls("a"), 2.0);
        assert!(l.total_busy_s() >= 0.010);
        assert_eq!(attributed_share(0.95, 1.0), 0.95);
        assert_eq!(attributed_share(1.0, 0.0), 0.0);
    }

    #[test]
    fn metrics_cover_every_declared_name_and_derive_ratios() {
        let mut ledger = Ledger::default();
        ledger.add("dataflow.candidates", 8.0);
        ledger.add("dataflow.implementable", 2.0);
        ledger.add("hw.text.bytes", 123.0);
        let t = Traced {
            ledger,
            wall: Duration::from_secs(2),
            ranking: None,
            failures: Vec::new(),
        };
        let m: BTreeMap<&str, f64> = t.metrics(0.25).into_iter().collect();
        assert_eq!(m.len(), LAYER_METRICS.len());
        assert_eq!(m["dataflow.implementable_share"], 0.25);
        assert_eq!(m["hw.text.bytes"], 123.0);
        assert_eq!(m["par.idle_share"], 0.25);
        assert_eq!(m["traced.wall_s"], 2.0);
        assert_eq!(m["hw.generate.us_per_call"], 0.0);
        assert_eq!(m["sim.journal.write_busy_s"], 0.0);
    }
}
