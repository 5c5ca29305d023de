//! Command-line front end for the TensorLib accelerator generator.
//!
//! The binary is `tensorlib`; the library half holds the argument parsing
//! and command execution so they are unit-testable.
//!
//! ```text
//! tensorlib workloads
//! tensorlib analyze  <workload> <dataflow>          # e.g. gemm MNK-SST
//! tensorlib generate <workload> <dataflow> [-o f.v] [--rows N] [--cols N]
//! tensorlib emit     <workload> <dataflow> [--format text|yosys-json|verilog]
//!                    [--rows N] [--cols N] [--sim-cycles C --trace-out f] [-o f]
//! tensorlib parse    <netlist-file> [--format auto|text|yosys-json]
//!                    [--sim-cycles C --trace-out f] [-o report]
//! tensorlib simulate <workload> <dataflow> [--rows N] [--cols N]
//! tensorlib explore  <workload> [--top N]
//! tensorlib stats    <workload> <dataflow> [--rows N] [--cols N] [--tiles T] [-o f.json]
//! tensorlib trace    <workload> <dataflow> [--nets a,b,c] [--tiles T] [-o f.vcd]
//! tensorlib faults   [--rows N] [--cols N] [--k K] [--faults N] [--seed S]
//!                    [--harden tmr,parity,abft] [--workers W] [--lanes L]
//!                    [--sweep-acc] [-o f.json]
//! tensorlib fuzz     [--mode netlist|pipeline|both] [--seed S] [--seeds N]
//!                    [--cycles C] [--workers W] [--lanes L] [-o f.json]
//! tensorlib profile  <workload> [--top N] [--rows N] [--cols N] [--workers W] [-o f.trace.json]
//! ```
//!
//! Workloads take optional sizes after a colon: `gemm:64,64,64`,
//! `conv2d:64,64,56,56,3,3`, `mttkrp:32,32,32,32`, …
//!
//! A global `--profile <out.trace.json>` flag (any command, any position)
//! records framework spans during the run and writes a Chrome Trace Event
//! file next to the command's normal output; it never changes what the
//! command computes. Every JSON report carries a `schema_version` and a
//! run-provenance manifest (see [`tensorlib_obs::Provenance`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use tensorlib::cost::{hardening_overhead, Activity, HardeningOverhead};
use tensorlib::dataflow::dse::{find_named, DseConfig};
use tensorlib::dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib::explore::{explore_outcome, ExploreCampaign, ExploreOptions, ExploreRow};
use tensorlib::hw::design::generate;
use tensorlib::hw::fault::Hardening;
use tensorlib::ir::workloads;
use tensorlib::sim::journal::{self, Campaign};
use tensorlib::sim::resilience::{CampaignConfig, FaultCampaign, ResilienceReport};
use tensorlib::sim::verify::{VerifyCampaign, VerifyConfig};
use tensorlib::sim::{DurabilityOptions, RunStats};
use tensorlib::{Accelerator, ArrayConfig, HwConfig, Kernel, SimConfig, TraceConfig};
use tensorlib_obs::{atomic_write, JournalProvenance, Provenance, SCHEMA_VERSION};

/// The process-wide SIGINT latch campaigns drain on; `main` installs it for
/// `--resume` runs and maps a latched interrupt to exit code 130.
pub use tensorlib::sim::interrupt;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the built-in Table II workloads.
    Workloads,
    /// Print the dataflow analysis for `workload` under `dataflow`.
    Analyze {
        /// Workload spec (`gemm:64,64,64`).
        workload: String,
        /// Paper-style dataflow name (`MNK-SST`).
        dataflow: String,
    },
    /// Generate Verilog.
    Generate {
        /// Workload spec.
        workload: String,
        /// Dataflow name.
        dataflow: String,
        /// Output path (`-` for stdout).
        out: String,
        /// PE array rows.
        rows: usize,
        /// PE array columns.
        cols: usize,
        /// Run the netlist optimizer before emission (`--opt=off` emits the
        /// raw generated netlist byte-identically to older releases).
        opt: bool,
    },
    /// Emit the generated design as a round-trippable interchange netlist
    /// (textual IR or Yosys JSON) or as Verilog. Interchange emissions
    /// self-check `parse(emit(design))` before any bytes leave the process.
    Emit {
        /// Workload spec.
        workload: String,
        /// Dataflow name.
        dataflow: String,
        /// PE array rows.
        rows: usize,
        /// PE array columns.
        cols: usize,
        /// `text`, `yosys-json`, or `verilog`.
        format: String,
        /// Run the netlist optimizer before emission.
        opt: bool,
        /// Cycles of the deterministic seeded smoke trace (`0` = none).
        sim_cycles: u64,
        /// Where the smoke trace is written (paired with `--sim-cycles`).
        trace_out: String,
        /// Output path (`-` for stdout).
        out: String,
    },
    /// Parse an interchange netlist back into the in-memory IR,
    /// re-validate and re-elaborate it, and report a summary; `--opt on`
    /// additionally re-runs the optimizer over the parsed netlist as an
    /// extra oracle.
    Parse {
        /// Input netlist path.
        input: String,
        /// `auto`, `text`, or `yosys-json`.
        format: String,
        /// Re-run the optimizer over the parsed modules and recompile.
        opt: bool,
        /// Cycles of the deterministic seeded smoke trace (`0` = none).
        sim_cycles: u64,
        /// Where the smoke trace is written (paired with `--sim-cycles`).
        trace_out: String,
        /// Report path (`-` for stdout).
        out: String,
    },
    /// Verify bit-exactly and report performance.
    Simulate {
        /// Workload spec.
        workload: String,
        /// Dataflow name.
        dataflow: String,
        /// PE array rows.
        rows: usize,
        /// PE array columns.
        cols: usize,
    },
    /// Sweep the design space and print the best designs.
    Explore {
        /// Workload spec.
        workload: String,
        /// How many designs to print.
        top: usize,
        /// Journal directory for crash-safe resume (`--resume`).
        resume: Option<String>,
        /// Per-chunk watchdog budget in seconds (`--chunk-timeout`).
        chunk_timeout: Option<u64>,
        /// JSON report path (`-` for stdout JSON, empty for the text table).
        out: String,
    },
    /// Run a profiled design-space sweep (functional verification on, so
    /// the trace covers every pipeline phase), print the per-phase wall-time
    /// breakdown, and write a Chrome Trace Event file plus a folded-stack
    /// flamegraph sibling.
    Profile {
        /// Workload spec.
        workload: String,
        /// How many designs to list in the breakdown.
        top: usize,
        /// PE array rows.
        rows: usize,
        /// PE array columns.
        cols: usize,
        /// Worker threads (`0` = one per core).
        workers: usize,
        /// Trace output path (`-` for stdout, empty for `reports/` default).
        out: String,
    },
    /// Run the generated netlist with hardware counters attached and emit a
    /// JSON stats report (measured counters + analytic cross-check).
    Stats {
        /// Workload spec.
        workload: String,
        /// Dataflow name.
        dataflow: String,
        /// PE array rows.
        rows: usize,
        /// PE array columns.
        cols: usize,
        /// Controller rounds to measure.
        tiles: u64,
        /// Run the netlist optimizer before measuring; the report then
        /// carries the pre/post size census.
        opt: bool,
        /// Output path (`-` for stdout, empty for `reports/` default).
        out: String,
    },
    /// Run with event tracing on selected nets and emit a VCD waveform.
    Trace {
        /// Workload spec.
        workload: String,
        /// Dataflow name.
        dataflow: String,
        /// PE array rows.
        rows: usize,
        /// PE array columns.
        cols: usize,
        /// Controller rounds to trace.
        tiles: u64,
        /// Comma-separated top-level nets to watch.
        nets: String,
        /// Run the netlist optimizer before tracing (watched nets survive
        /// optimization by the pass pipeline's preservation contract).
        opt: bool,
        /// Output path (`-` for stdout, empty for `reports/` default).
        out: String,
    },
    /// Run a seeded fault-injection campaign on a generated
    /// output-stationary GEMM design and emit a JSON resilience report
    /// (per-fault masked/detected/SDC classification plus the hardening
    /// options' priced area/power overhead).
    Faults {
        /// Array rows (and GEMM `m` extent).
        rows: usize,
        /// Array columns (and GEMM `n` extent).
        cols: usize,
        /// GEMM reduction extent.
        k: u64,
        /// Faults to sample and inject.
        faults: usize,
        /// Seed for input data and fault sampling.
        seed: u64,
        /// Hardening option list (`tmr,parity,abft`, `full`, `none`).
        harden: String,
        /// Campaign worker threads (`0` = one per core).
        workers: usize,
        /// Simulation lanes per bytecode pass (`1` = scalar engine; wider
        /// lanes retire one fault site per lane per pass).
        lanes: usize,
        /// Run the exhaustive accumulator bit-flip sweep (the ABFT
        /// acceptance campaign) instead of seeded sampling.
        sweep_acc: bool,
        /// Optimize the campaign design before injecting faults. The pass
        /// pipeline preserves every register, so classification counts are
        /// byte-identical either way (CI asserts exactly that).
        opt: bool,
        /// Journal directory for crash-safe resume (`--resume`).
        resume: Option<String>,
        /// Per-chunk watchdog budget in seconds (`--chunk-timeout`).
        chunk_timeout: Option<u64>,
        /// Output path (`-` for stdout, empty for `reports/` default).
        out: String,
    },
    /// Run the differential fuzzing campaign (random netlists and sampled
    /// generation pipelines through every verification oracle) and emit a
    /// JSON report whose `total_findings` CI gates on.
    Fuzz {
        /// `netlist`, `pipeline`, or `both`.
        mode: String,
        /// First seed (inclusive).
        seed: u64,
        /// Seeds per enabled mode.
        seeds: u64,
        /// Cycles per netlist differential run.
        cycles: u64,
        /// Campaign worker threads (`0` = one per core).
        workers: usize,
        /// Lane width of the batched-engine oracle (`1` = scalar-only).
        lanes: usize,
        /// Chain the optimizer equivalence oracle (optimized-vs-unoptimized
        /// lock-step) into both fuzz modes.
        opt: bool,
        /// Journal directory for crash-safe resume (`--resume`).
        resume: Option<String>,
        /// Per-chunk watchdog budget in seconds (`--chunk-timeout`).
        chunk_timeout: Option<u64>,
        /// Output path (`-` for stdout, empty for `reports/` default).
        out: String,
    },
    /// Render a one-shot status snapshot of a journaled campaign directory
    /// (`status.json` + `events.jsonl` telemetry written by `--resume`
    /// runs). The exit code distinguishes finished (0) / running (2) /
    /// interrupted (3); a `running` snapshot whose writer process is gone
    /// is reported as interrupted with a resume hint.
    Status {
        /// Campaign directory (the `--resume` dir).
        dir: String,
        /// Emit the raw JSON snapshot instead of the human table.
        json: bool,
    },
    /// Poll a journaled campaign directory, printing one progress + ETA
    /// line per interval, until the campaign finishes (exit 0) or is
    /// interrupted / its writer dies (exit 3).
    Watch {
        /// Campaign directory (the `--resume` dir).
        dir: String,
        /// Poll interval in milliseconds.
        interval_ms: u64,
    },
    /// List the cross-run metrics history (`history.jsonl`), or with
    /// `--check` compare the newest run against the most recent earlier
    /// run with the same config hash and flag metric deltas beyond
    /// `--threshold` percent (exit 4 when anything is flagged; comparing
    /// runs from different machine shapes is a loud error).
    History {
        /// History file, or a reports directory containing `history.jsonl`.
        path: String,
        /// Compare newest vs the most recent same-config run.
        check: bool,
        /// Flagging threshold for `--check`, in percent relative delta.
        threshold: f64,
    },
}

/// Command-line failure: bad usage or a pipeline error, with a message
/// suitable for stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
usage:
  tensorlib workloads
  tensorlib analyze  <workload> <dataflow>
  tensorlib generate <workload> <dataflow> [-o out.v] [--rows N] [--cols N]
                     [--opt on|off]
  tensorlib emit     <workload> <dataflow> [--rows N] [--cols N]
                     [--format text|yosys-json|verilog] [--opt on|off]
                     [--sim-cycles C --trace-out f.trace] [-o out]
  tensorlib parse    <netlist-file> [--format auto|text|yosys-json]
                     [--opt on|off] [--sim-cycles C --trace-out f.trace]
                     [-o report]
  tensorlib simulate <workload> <dataflow> [--rows N] [--cols N]
  tensorlib explore  <workload> [--top N] [--resume DIR] [--chunk-timeout S]
                     [-o f.json]
  tensorlib stats    <workload> <dataflow> [--rows N] [--cols N] [--tiles T]
                     [--opt on|off] [-o f.json]
  tensorlib trace    <workload> <dataflow> [--nets a,b,c] [--tiles T]
                     [--opt on|off] [-o f.vcd]
  tensorlib faults   [--rows N] [--cols N] [--k K] [--faults N] [--seed S]
                     [--harden tmr,parity,abft] [--workers W] [--lanes L]
                     [--sweep-acc] [--opt on|off] [--resume DIR]
                     [--chunk-timeout S] [-o f.json]
  tensorlib fuzz     [--mode netlist|pipeline|both] [--seed S] [--seeds N]
                     [--cycles C] [--workers W] [--lanes L] [--opt on|off]
                     [--resume DIR] [--chunk-timeout S] [-o f.json]
  tensorlib profile  <workload> [--top N] [--rows N] [--cols N] [--workers W]
                     [-o f.trace.json]
  tensorlib status   <campaign-dir> [--json]
  tensorlib watch    <campaign-dir> [--interval SECONDS]
  tensorlib history  [file-or-reports-dir] [--check] [--threshold PCT]

global flags (any command):
  --profile <f.trace.json>   record framework spans during the run and write
                             a Chrome Trace Event file (open in Perfetto or
                             chrome://tracing); never changes results

--opt on|off (default on) runs the semantics-preserving netlist rewrite
pipeline (constant folding, peepholes, reduction-tree rebalancing, shared
subexpressions, dead-logic GC) before emission, measurement, fault
injection, or fuzzing; --opt=off is the escape hatch that reproduces the
raw generated netlist byte-for-byte. Optimization never renames nets or
drops ports/registers, so stats counters, traces, and fault classifications
are identical either way.

emit generates the design and writes it as a round-trippable interchange
netlist: --format text is the line-oriented `tensorlib-netlist v1` form,
--format yosys-json the Yosys-compatible JSON netlist, --format verilog the
synthesizable RTL. Interchange emissions self-check parse(emit(design)) for
structural identity before any bytes leave the process. parse reads either
interchange form back (--format auto sniffs JSON by the leading brace),
re-validates and re-elaborates it, and with --opt on re-runs the optimizer
over the parsed netlist and recompiles. On both commands --sim-cycles C
--trace-out f runs the compiled engine for C cycles under a fixed seeded
stimulus and writes one line per top-level output per cycle: a faithful
round trip reproduces the emitting side's trace byte-for-byte.

workloads: gemm[:m,n,k]  batched-gemv[:m,n,k]  conv2d[:k,c,y,x,p,q]
           depthwise[:k,y,x,p,q]  mttkrp[:i,j,k,l]  ttmc[:i,j,k,l,m]
dataflow:  paper-style name, e.g. MNK-SST or KCX-STS

stats runs the netlist interpreter with hardware counters (PE utilization,
bank traffic/conflicts, controller stall breakdown) and cross-checks the
analytic cycle model; trace additionally records per-cycle value changes on
the watched nets and writes a VCD waveform. With no -o, reports land under
reports/.

faults runs a seeded fault-injection campaign on an output-stationary GEMM
design (rows x cols array, reduction extent K): every injected fault is
classified masked / detected / sdc against a golden fault-free run, hardened
variants (--harden tmr, parity, abft, or full) report their detectors and
priced area/power overhead, and --sweep-acc replaces the seeded sample with
the exhaustive accumulator bit-flip sweep that ABFT must fully detect.
--lanes L > 1 retires L fault sites per batched bytecode pass (the
struct-of-arrays lane engine); reports are byte-identical for any --workers
count and any --lanes width (the provenance block echoes the requested
workers and lanes).

fuzz runs the differential verification campaign: netlist mode feeds random
but valid-by-construction netlists through module validation, a Verilog
emission lint, elaboration, and a lock-step compiled-vs-tree-walking engine
comparison (failures are auto-shrunk to minimal repros); pipeline mode
samples whole generation pipelines (kernel x sizes x loop selection x STT x
hardening) and additionally checks the reference functional executor and the
hardware counters. --lanes L > 1 additionally runs the lane-batched engine
against L independent scalar references (per-lane stimulus in netlist mode,
per-lane bank images in pipeline mode). The JSON report's total_findings
field is zero on a clean run, and its campaign results are identical for any
--workers count and --lanes width (the provenance block records the
requested workers and lanes).

faults, fuzz, and explore are resumable campaigns. --resume DIR journals
every completed work chunk to DIR/campaign.journal (append-only,
length-prefixed, checksummed; a torn tail from a crash is truncated on
reopen) and replays finished chunks on restart, so a campaign killed
mid-run and re-invoked with the same arguments plus the same --resume DIR
finishes the remaining work and emits a byte-identical report. The journal
is keyed to a hash of the campaign config: pointing --resume at a journal
recorded under different arguments fails loudly instead of silently
restarting. --chunk-timeout S arms a per-chunk wall-clock watchdog that
demotes work not started before the budget expires to typed degraded
entries (tallied in the report) instead of hanging the campaign. Ctrl-C
drains the in-flight chunk, flushes the journal, and still writes a valid
partial report with \"interrupted\": true plus resume instructions; the
process then exits with code 130 (a second Ctrl-C kills immediately).

Journaled campaigns also emit best-effort telemetry into the --resume DIR:
an append-only events.jsonl (campaign_started / chunk_completed /
chunk_degraded / panic_retry / campaign_finished|interrupted, each fsynced)
and an atomically-replaced status.json snapshot on every chunk boundary
(per-outcome counters, EWMA throughput, ETA; wall-clock data lives only in
its timing sub-object, never in report bodies, so reports stay
byte-identical with telemetry on or off). `status DIR` renders one snapshot
(exit 0 finished / 2 running / 3 interrupted — a running snapshot whose
writer pid is gone counts as interrupted, with a resume hint); `watch DIR`
polls until the campaign ends. Completed campaign / profile / perfgate
reports append one line of key metrics + a config hash + the machine shape
(host cores, --workers, --lanes) to history.jsonl next to the report;
`history` lists those runs and `history --check` compares the newest run
against the most recent earlier run with the same config hash, exiting 4
when any metric moved more than --threshold percent (default 10). Runs
recorded on a different machine shape are refused loudly rather than
compared.

profile sweeps the workload's design space with functional verification on,
prints a per-phase wall-time breakdown (STT enumeration, classification,
elaboration, bytecode compile, simulation, cost), and writes a Chrome Trace
Event file plus a .folded flamegraph sibling. Every JSON report embeds a
schema_version and a run-provenance manifest (seeds, command echo, per-phase
wall times, worker count, package version).";

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] with a usage message on malformed input.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let usage = || CliError(USAGE.to_string());
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?;
    let mut positional: Vec<String> = Vec::new();
    let mut out = "-".to_string();
    let mut out_given = false;
    let mut rows = 16usize;
    let mut cols = 16usize;
    let mut rows_given = false;
    let mut cols_given = false;
    let mut top = 10usize;
    let mut tiles = 2u64;
    let mut nets = String::new();
    let mut k = 4u64;
    let mut faults = 64usize;
    let mut seed = 1u64;
    let mut harden = "none".to_string();
    let mut workers = 0usize;
    let mut lanes = 1usize;
    let mut sweep_acc = false;
    let mut mode = "both".to_string();
    let mut seeds = 256u64;
    let mut cycles = 16u64;
    let mut opt = true;
    let mut format = String::new();
    let mut sim_cycles = 0u64;
    let mut trace_out = String::new();
    let mut resume: Option<String> = None;
    let mut chunk_timeout: Option<u64> = None;
    let mut json = false;
    let mut interval_ms = 1000u64;
    let mut check = false;
    let mut threshold = tensorlib_obs::history::DEFAULT_CHECK_THRESHOLD_PCT;
    let parse_opt = |v: &str| -> Result<bool, CliError> {
        match v {
            "on" => Ok(true),
            "off" => Ok(false),
            other => Err(CliError(format!(
                "--opt expects on or off (got {other:?})"
            ))),
        }
    };
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i].as_str();
        let take_value = |i: &mut usize| -> Result<String, CliError> {
            *i += 1;
            rest.get(*i)
                .map(|s| s.to_string())
                .ok_or_else(|| CliError(format!("flag {a} needs a value")))
        };
        match a {
            "-o" | "--out" => {
                out = take_value(&mut i)?;
                out_given = true;
            }
            "--rows" => {
                rows = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--rows expects an integer".into()))?;
                if rows == 0 {
                    return Err(CliError("--rows must be at least 1".into()));
                }
                rows_given = true;
            }
            "--cols" => {
                cols = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--cols expects an integer".into()))?;
                if cols == 0 {
                    return Err(CliError("--cols must be at least 1".into()));
                }
                cols_given = true;
            }
            "--top" => {
                top = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--top expects an integer".into()))?
            }
            "--tiles" => {
                tiles = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--tiles expects an integer".into()))?
            }
            "--nets" => nets = take_value(&mut i)?,
            "--k" => {
                k = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--k expects an integer".into()))?;
                if k == 0 {
                    return Err(CliError("--k must be at least 1".into()));
                }
            }
            "--faults" => {
                faults = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--faults expects an integer".into()))?
            }
            "--seed" => {
                seed = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--seed expects an integer".into()))?
            }
            "--harden" => harden = take_value(&mut i)?,
            "--workers" => {
                workers = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--workers expects an integer".into()))?;
                if workers == 0 {
                    return Err(CliError(
                        "--workers must be at least 1 (omit the flag for one worker per core)"
                            .into(),
                    ));
                }
            }
            "--lanes" => {
                lanes = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--lanes expects an integer".into()))?;
                if lanes == 0 || lanes > 64 {
                    return Err(CliError(format!(
                        "--lanes must be between 1 and 64 (the batched engine packs 64 \
                         lanes per bytecode pass; got {lanes})"
                    )));
                }
            }
            "--sweep-acc" => sweep_acc = true,
            "--format" => format = take_value(&mut i)?,
            "--sim-cycles" => {
                sim_cycles = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--sim-cycles expects an integer".into()))?;
                if sim_cycles == 0 {
                    return Err(CliError(
                        "--sim-cycles must be at least 1 (omit the flag to skip the \
                         smoke trace)"
                            .into(),
                    ));
                }
            }
            "--trace-out" => {
                trace_out = take_value(&mut i)?;
                if trace_out.is_empty() {
                    return Err(CliError("--trace-out needs a file path".into()));
                }
            }
            "--opt" => opt = parse_opt(&take_value(&mut i)?)?,
            _ if a.starts_with("--opt=") => opt = parse_opt(&a["--opt=".len()..])?,
            "--mode" => mode = take_value(&mut i)?,
            "--seeds" => {
                seeds = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--seeds expects an integer".into()))?;
                if seeds == 0 {
                    return Err(CliError(
                        "--seeds must be at least 1 (a zero-seed campaign runs nothing)".into(),
                    ));
                }
            }
            "--cycles" => {
                cycles = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--cycles expects an integer".into()))?;
                if cycles == 0 {
                    return Err(CliError("--cycles must be at least 1".into()));
                }
            }
            "--resume" => {
                let dir = take_value(&mut i)?;
                if dir.is_empty() {
                    return Err(CliError("--resume needs a journal directory".into()));
                }
                resume = Some(dir);
            }
            "--chunk-timeout" => {
                let secs: u64 = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--chunk-timeout expects whole seconds".into()))?;
                if secs == 0 {
                    return Err(CliError(
                        "--chunk-timeout must be at least 1 second (omit the flag to \
                         disable the watchdog)"
                            .into(),
                    ));
                }
                chunk_timeout = Some(secs);
            }
            "--json" => json = true,
            "--interval" => {
                let secs: f64 = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--interval expects seconds (fractions ok)".into()))?;
                if secs <= 0.0 || !secs.is_finite() {
                    return Err(CliError(
                        "--interval must be a positive number of seconds".into(),
                    ));
                }
                interval_ms = ((secs * 1000.0).round() as u64).max(1);
            }
            "--check" => check = true,
            "--threshold" => {
                threshold = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--threshold expects a percentage".into()))?;
                if threshold < 0.0 || !threshold.is_finite() {
                    return Err(CliError(
                        "--threshold must be a non-negative percentage".into(),
                    ));
                }
            }
            _ if a.starts_with('-') => {
                return Err(CliError(format!("unknown flag {a}\n\n{USAGE}")))
            }
            _ => positional.push(a.to_string()),
        }
        i += 1;
    }
    // The smoke trace is one feature behind two flags: requiring the pair
    // keeps "trace requested but silently skipped" unrepresentable.
    let check_trace_pair = |sim_cycles: u64, trace_out: &str| -> Result<(), CliError> {
        match (sim_cycles > 0, !trace_out.is_empty()) {
            (true, false) => Err(CliError(
                "--sim-cycles needs --trace-out <file> for the smoke trace".into(),
            )),
            (false, true) => Err(CliError(
                "--trace-out needs --sim-cycles <C> to drive the smoke trace".into(),
            )),
            _ => Ok(()),
        }
    };
    match (cmd.as_str(), positional.len()) {
        ("workloads", 0) => Ok(Command::Workloads),
        ("analyze", 2) => Ok(Command::Analyze {
            workload: positional[0].clone(),
            dataflow: positional[1].clone(),
        }),
        ("generate", 2) => Ok(Command::Generate {
            workload: positional[0].clone(),
            dataflow: positional[1].clone(),
            out,
            rows,
            cols,
            opt,
        }),
        ("emit", 2) => {
            let format = if format.is_empty() {
                "text".to_string()
            } else {
                format
            };
            if !matches!(format.as_str(), "text" | "yosys-json" | "verilog") {
                return Err(CliError(format!(
                    "--format for emit expects text, yosys-json, or verilog (got {format:?})"
                )));
            }
            check_trace_pair(sim_cycles, &trace_out)?;
            Ok(Command::Emit {
                workload: positional[0].clone(),
                dataflow: positional[1].clone(),
                rows,
                cols,
                format,
                opt,
                sim_cycles,
                trace_out,
                out,
            })
        }
        ("parse", 1) => {
            let format = if format.is_empty() {
                "auto".to_string()
            } else {
                format
            };
            if !matches!(format.as_str(), "auto" | "text" | "yosys-json") {
                return Err(CliError(format!(
                    "--format for parse expects auto, text, or yosys-json (got {format:?})"
                )));
            }
            check_trace_pair(sim_cycles, &trace_out)?;
            Ok(Command::Parse {
                input: positional[0].clone(),
                format,
                opt,
                sim_cycles,
                trace_out,
                out,
            })
        }
        ("simulate", 2) => Ok(Command::Simulate {
            workload: positional[0].clone(),
            dataflow: positional[1].clone(),
            rows,
            cols,
        }),
        ("explore", 1) => Ok(Command::Explore {
            workload: positional[0].clone(),
            top,
            resume,
            chunk_timeout,
            out: if out_given { out } else { String::new() },
        }),
        // Profile defaults to a small array: the sweep runs the functional
        // simulator on every point, and 4x4 keeps that tractable.
        ("profile", 1) => Ok(Command::Profile {
            workload: positional[0].clone(),
            top,
            rows: if rows_given { rows } else { 4 },
            cols: if cols_given { cols } else { 4 },
            workers,
            out: if out_given { out } else { String::new() },
        }),
        ("stats", 2) => Ok(Command::Stats {
            workload: positional[0].clone(),
            dataflow: positional[1].clone(),
            rows,
            cols,
            tiles,
            opt,
            out: if out_given { out } else { String::new() },
        }),
        ("trace", 2) => Ok(Command::Trace {
            workload: positional[0].clone(),
            dataflow: positional[1].clone(),
            rows,
            cols,
            tiles,
            nets,
            opt,
            out: if out_given { out } else { String::new() },
        }),
        // Campaigns clone one interpreter per fault, so the faults default
        // array is the small 4x4 campaign rather than the 16x16 generator
        // default.
        ("faults", 0) => {
            if !sweep_acc && faults == 0 {
                return Err(CliError(
                    "--faults must be at least 1 (or pass --sweep-acc for the \
                     exhaustive accumulator sweep)"
                        .into(),
                ));
            }
            Ok(Command::Faults {
                rows: if rows_given { rows } else { 4 },
                cols: if cols_given { cols } else { 4 },
                k,
                faults,
                seed,
                harden,
                workers,
                lanes,
                sweep_acc,
                opt,
                resume,
                chunk_timeout,
                out: if out_given { out } else { String::new() },
            })
        }
        ("fuzz", 0) => Ok(Command::Fuzz {
            mode,
            seed,
            seeds,
            cycles,
            workers,
            lanes,
            opt,
            resume,
            chunk_timeout,
            out: if out_given { out } else { String::new() },
        }),
        ("status", 1) => Ok(Command::Status {
            dir: positional[0].clone(),
            json,
        }),
        ("watch", 1) => Ok(Command::Watch {
            dir: positional[0].clone(),
            interval_ms,
        }),
        // With no path, history reads the default reports-dir index.
        ("history", 0) => Ok(Command::History {
            path: "reports/history.jsonl".to_string(),
            check,
            threshold,
        }),
        ("history", 1) => Ok(Command::History {
            path: positional[0].clone(),
            check,
            threshold,
        }),
        _ => Err(usage()),
    }
}

/// A fully parsed invocation: the command plus global flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// `--profile <path>`: record framework spans during the run and write a
    /// Chrome Trace Event file there afterwards.
    pub profile: Option<String>,
    /// The command itself.
    pub command: Command,
    /// The raw argument echo, recorded in report provenance.
    pub echo: String,
}

/// Parses the argument list (without the program name), extracting global
/// flags (`--profile <path>`) before command parsing. This is what `main`
/// calls; [`parse_args`] stays available for command-only parsing.
///
/// # Errors
///
/// Returns [`CliError`] with a usage message on malformed input.
pub fn parse_invocation(args: &[String]) -> Result<Invocation, CliError> {
    let mut profile = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--profile" {
            i += 1;
            profile = Some(args.get(i).cloned().ok_or_else(|| {
                CliError("--profile needs a trace output path".to_string())
            })?);
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    Ok(Invocation {
        profile,
        command: parse_args(&rest)?,
        echo: args.join(" "),
    })
}

/// Resolves a workload spec like `gemm:64,64,64` to a kernel.
///
/// # Errors
///
/// Returns [`CliError`] for unknown names or wrong size arity.
pub fn resolve_workload(spec: &str) -> Result<Kernel, CliError> {
    let (name, sizes) = match spec.split_once(':') {
        Some((n, s)) => {
            let sizes: Result<Vec<u64>, _> = s.split(',').map(str::parse).collect();
            (
                n,
                Some(sizes.map_err(|_| CliError(format!("bad sizes in {spec:?}")))?),
            )
        }
        None => (spec, None),
    };
    let need = |n: usize, sizes: &Option<Vec<u64>>| -> Result<Vec<u64>, CliError> {
        match sizes {
            None => Ok(Vec::new()),
            Some(v) if v.len() == n => Ok(v.clone()),
            Some(v) => Err(CliError(format!(
                "{name} takes {n} sizes, got {}",
                v.len()
            ))),
        }
    };
    Ok(match name {
        "gemm" => {
            let s = need(3, &sizes)?;
            if s.is_empty() {
                workloads::gemm(64, 64, 64)
            } else {
                workloads::gemm(s[0], s[1], s[2])
            }
        }
        "batched-gemv" => {
            let s = need(3, &sizes)?;
            if s.is_empty() {
                workloads::batched_gemv(64, 64, 64)
            } else {
                workloads::batched_gemv(s[0], s[1], s[2])
            }
        }
        "conv2d" => {
            let s = need(6, &sizes)?;
            if s.is_empty() {
                workloads::resnet_layer2()
            } else {
                workloads::conv2d(s[0], s[1], s[2], s[3], s[4], s[5])
            }
        }
        "depthwise" => {
            let s = need(5, &sizes)?;
            if s.is_empty() {
                workloads::depthwise_conv(64, 56, 56, 3, 3)
            } else {
                workloads::depthwise_conv(s[0], s[1], s[2], s[3], s[4])
            }
        }
        "mttkrp" => {
            let s = need(4, &sizes)?;
            if s.is_empty() {
                workloads::mttkrp(32, 32, 32, 32)
            } else {
                workloads::mttkrp(s[0], s[1], s[2], s[3])
            }
        }
        "ttmc" => {
            let s = need(5, &sizes)?;
            if s.is_empty() {
                workloads::ttmc(16, 16, 16, 16, 16)
            } else {
                workloads::ttmc(s[0], s[1], s[2], s[3], s[4])
            }
        }
        other => return Err(CliError(format!("unknown workload {other:?}\n\n{USAGE}"))),
    })
}

/// Headline numbers of a measured run, duplicated out of the raw counters so
/// a report reader does not have to re-derive them.
#[derive(serde::Serialize)]
struct StatsSummary {
    cycles: u64,
    total_mac_cycles: u64,
    utilization: f64,
    stall_cycles: u64,
    total_bank_conflicts: u64,
}

/// The JSON document `tensorlib stats` emits.
#[derive(serde::Serialize)]
struct StatsReport {
    schema_version: u32,
    provenance: Provenance,
    workload: String,
    dataflow: String,
    rows: usize,
    cols: usize,
    tiles: u64,
    summary: StatsSummary,
    stats: tensorlib::InterpreterStats,
    cross_check: tensorlib::sim::perf::ModelCrossCheck,
    /// Pre/post netlist size census when the optimizer ran (`--opt=on`).
    opt: Option<tensorlib::hw::opt::OptStats>,
}

/// The JSON document `tensorlib faults` emits: the campaign parameters, the
/// per-fault classification report, and (for hardened designs) the priced
/// area/power overhead of the protection.
#[derive(serde::Serialize)]
struct FaultsReportDoc {
    schema_version: u32,
    provenance: Provenance,
    config: CampaignConfig,
    /// `seeded` or `accumulator-sweep`.
    mode: String,
    report: ResilienceReport,
    hardening_overhead: Option<HardeningOverhead>,
    /// `true` when the campaign was interrupted (SIGINT) after draining the
    /// in-flight chunk: the report above is valid but partial.
    interrupted: bool,
    /// Operator instructions for finishing an interrupted campaign.
    resume_hint: Option<String>,
}

/// The JSON document `tensorlib fuzz` emits: the verification campaign
/// report under a provenance envelope.
#[derive(serde::Serialize)]
struct FuzzReportDoc {
    schema_version: u32,
    provenance: Provenance,
    report: tensorlib::sim::verify::VerifyReport,
    /// `true` when the campaign was interrupted (SIGINT) after draining the
    /// in-flight chunk: the report above is valid but partial.
    interrupted: bool,
    /// Operator instructions for finishing an interrupted campaign.
    resume_hint: Option<String>,
}

/// The JSON document `tensorlib explore -o` emits.
#[derive(serde::Serialize)]
struct ExploreReportDoc {
    schema_version: u32,
    provenance: Provenance,
    workload: String,
    implementable_designs: usize,
    errors: usize,
    skipped: usize,
    /// Candidates demoted by the per-chunk watchdog (`--chunk-timeout`).
    degraded: u64,
    /// The fastest rows (the full [`tensorlib::explore::DesignPoint`] is too
    /// heavy to serialize per point).
    top: Vec<ExploreRow>,
    /// `true` when the sweep was interrupted (SIGINT) after draining the
    /// in-flight chunk: the report above is valid but partial.
    interrupted: bool,
    /// Operator instructions for finishing an interrupted sweep.
    resume_hint: Option<String>,
}

/// Builds the provenance manifest every JSON report embeds. `workers` is
/// the requested count (`0` = one per core) and is recorded resolved, as
/// the worker pool runs it. Phase wall times come from the live span
/// recorder when a `--profile` run has it enabled; otherwise only the
/// `total` entry (measured around the command) is present.
fn provenance_for(command_echo: &str, seeds: Vec<u64>, workers: usize, total_us: u64) -> Provenance {
    let mut p = Provenance::new(command_echo);
    p.seeds = seeds;
    p.workers = resolved_workers(workers);
    if tensorlib_obs::is_enabled() {
        p.phase_wall_times_us = tensorlib_obs::snapshot()
            .phase_totals()
            .into_iter()
            .map(|(name, (_count, total))| (name, total))
            .collect();
    }
    p.phase_wall_times_us.insert("total".to_string(), total_us);
    p
}

/// The worker count a pool runs for a requested count (`0` = one per core).
fn resolved_workers(requested: usize) -> usize {
    tensorlib::linalg::par::effective_workers(requested, usize::MAX)
}

/// Builds campaign durability options from the shared `--resume` /
/// `--chunk-timeout` flags. Both absent runs the campaign as one
/// unjournaled chunk.
fn durability_from(resume: &Option<String>, chunk_timeout: Option<u64>) -> DurabilityOptions {
    DurabilityOptions {
        dir: resume.as_ref().map(PathBuf::from),
        chunk_timeout: chunk_timeout.map(Duration::from_secs),
        ..DurabilityOptions::default()
    }
}

/// Where and how a campaign command reports.
struct CampaignOutput<'a> {
    /// The provenance command echo.
    echo: String,
    /// Seeds the campaign consumed.
    seeds: Vec<u64>,
    /// Requested worker count (`0` = one per core).
    workers: usize,
    /// Batched-simulation lanes (`0` = not applicable).
    lanes: usize,
    /// The `--resume` directory, if any.
    resume: &'a Option<String>,
    /// `-o` value: `-` for stdout, empty for `default_path`.
    out: &'a str,
    default_path: String,
    /// What the report is, for the `wrote … to …` note.
    what: &'a str,
    started: std::time::Instant,
}

/// Wraps a finished campaign run into its JSON document (built by `doc`
/// from the report, the provenance, whether the run was interrupted, and
/// the resume hint), emits it, and, unless the run was interrupted, appends
/// the campaign's
/// history metrics to the `history.jsonl` next to the report. The history
/// entry is keyed by the campaign's journal canonical config, so a clean
/// run, its `--resume` re-run, and a run with different `--workers` share
/// one series.
fn emit_campaign<C: Campaign, D: serde::Serialize>(
    campaign: C,
    (report, stats): (C::Report, RunStats),
    output: CampaignOutput<'_>,
    doc: impl FnOnce(C::Report, Provenance, bool, Option<String>) -> D,
) -> Result<String, CliError> {
    let canonical = campaign.canonical_config();
    // The campaign's setup (design, fault list, interpreters) is dead
    // weight while the report is serialized.
    drop(campaign);
    let metrics = (!stats.interrupted).then(|| C::history_metrics(&report));
    let mut provenance = provenance_for(
        &output.echo,
        output.seeds,
        output.workers,
        output.started.elapsed().as_micros() as u64,
    );
    provenance.lanes = output.lanes;
    // The journal block records how much of the campaign was replayed
    // versus executed; `null` on non-journaled runs.
    provenance.journal = output.resume.as_ref().map(|dir| JournalProvenance {
        dir: dir.clone(),
        chunks_total: stats.chunks_total,
        chunks_replayed: stats.chunks_replayed,
        chunks_executed: stats.chunks_executed,
    });
    let resume_hint = stats.interrupted.then(|| match output.resume {
        Some(dir) => format!(
            "campaign interrupted; re-run the same command with --resume {dir} to finish"
        ),
        None => "campaign interrupted before completion".to_string(),
    });
    let doc = doc(report, provenance.clone(), stats.interrupted, resume_hint);
    let text = serde_json::to_string_pretty(&doc)
        .map_err(|err| CliError(format!("serializing report: {err}")))?
        + "\n";
    let msg = emit_report(output.out, output.default_path.clone(), &text, output.what)?;
    let history_note = match metrics {
        Some(metrics) => append_history(
            resolved_report_path(output.out, &output.default_path).as_deref(),
            C::KIND,
            &canonical,
            &provenance,
            metrics,
            output.started.elapsed().as_millis() as u64,
        ),
        None => String::new(),
    };
    Ok(format!("{msg}{history_note}"))
}

/// Default report path for `stats`/`trace`: `reports/<kind>_<workload>_<dataflow>.<ext>`
/// with shell-hostile characters replaced.
fn report_path(kind: &str, workload: &str, dataflow: &str, ext: &str) -> String {
    let slug: String = format!("{kind}_{workload}_{dataflow}")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    format!("reports/{slug}.{ext}")
}

/// Prints `text` for `-`, otherwise writes it to `out` (or `default_path`
/// when `out` is empty), creating parent directories.
fn emit_report(
    out: &str,
    default_path: String,
    text: &str,
    what: &str,
) -> Result<String, CliError> {
    if out == "-" {
        return Ok(text.to_string());
    }
    let path = if out.is_empty() {
        default_path
    } else {
        out.to_string()
    };
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|err| CliError(format!("creating {}: {err}", parent.display())))?;
        }
    }
    // Atomic (tmp + fsync + rename): a reader — or a crash mid-write — never
    // sees a half-written report where a previous run's good one stood.
    atomic_write(&path, text.as_bytes())
        .map_err(|err| CliError(format!("writing {path}: {err}")))?;
    Ok(format!("wrote {what} to {path}\n"))
}

/// Where a report actually lands: `None` when it goes to stdout (`-`).
fn resolved_report_path(out: &str, default_path: &str) -> Option<String> {
    match out {
        "-" => None,
        "" => Some(default_path.to_string()),
        other => Some(other.to_string()),
    }
}

/// Hex FNV-1a hash of a canonical config string. For campaigns this is the
/// journal's canonical config, which excludes `--workers`, `--resume`,
/// `--chunk-timeout`, and output paths, so a clean run, its resumed re-run,
/// and a different worker count of the same campaign all land in one
/// comparison series; machine shape is checked separately (and loudly) by
/// `history --check`.
fn history_config_hash(canonical: &str) -> String {
    format!(
        "{:016x}",
        tensorlib::sim::journal::fnv1a64(canonical.as_bytes())
    )
}

/// Appends one line of key metrics to the `history.jsonl` sitting next to a
/// completed report. Best-effort like the rest of telemetry: any failure
/// produces an empty note instead of failing the run, and reports written
/// to stdout (`report_path` is `None`) record nothing.
fn append_history(
    report_path: Option<&str>,
    kind: &str,
    canonical_config: &str,
    provenance: &Provenance,
    metrics: std::collections::BTreeMap<String, f64>,
    wall_ms: u64,
) -> String {
    let Some(report_path) = report_path else {
        return String::new();
    };
    let dir = std::path::Path::new(report_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), std::path::Path::to_path_buf);
    let path = dir.join(tensorlib_obs::history::HISTORY_FILE);
    let entry = tensorlib_obs::history::HistoryEntry {
        kind: kind.to_string(),
        config_hash: history_config_hash(canonical_config),
        command: provenance.command.clone(),
        pkg_version: provenance.pkg_version.clone(),
        host_cores: provenance.host_cores as u64,
        workers: provenance.workers as u64,
        lanes: provenance.lanes as u64,
        metrics,
        unix_ms: tensorlib_obs::events::unix_ms(),
        wall_ms,
    };
    match tensorlib_obs::history::append(&path, &entry) {
        Ok(()) => format!("appended history entry to {}\n", path.display()),
        Err(_) => String::new(),
    }
}

/// Whether the process that wrote a status snapshot is still alive, judged
/// by `/proc/<pid>`. On systems without `/proc` the snapshot's own state is
/// trusted (a live-looking stale snapshot is the conservative failure mode).
fn pid_alive(pid: u32) -> bool {
    let proc_root = std::path::Path::new("/proc");
    if !proc_root.is_dir() {
        return true;
    }
    proc_root.join(pid.to_string()).is_dir()
}

/// The state a reader should act on: a `"running"` snapshot whose writer is
/// dead means the campaign was killed without the chance to write a final
/// snapshot (SIGKILL, power loss) — that is an interruption.
fn effective_status_state(snapshot: &tensorlib_obs::events::StatusSnapshot) -> String {
    if snapshot.state == "running" && !pid_alive(snapshot.pid) {
        "interrupted".to_string()
    } else {
        snapshot.state.clone()
    }
}

/// Operator instructions shown by `status`/`watch` for interrupted runs.
fn status_resume_hint(dir: &str) -> String {
    format!("re-run the original campaign command with --resume {dir} to finish")
}

/// `tensorlib status <dir>`: one snapshot, rendered human or `--json`, with
/// the exit code distinguishing finished (0) / running (2) / interrupted (3).
fn run_status(dir: &str, json: bool) -> Result<(String, u8), CliError> {
    use tensorlib_obs::events::StatusSnapshot;
    use tensorlib_obs::json::Value;
    let snapshot = StatusSnapshot::read(std::path::Path::new(dir))
        .map_err(|err| CliError(format!("reading campaign status in {dir}: {err}")))?;
    let state = effective_status_state(&snapshot);
    let code = match state.as_str() {
        "finished" => 0u8,
        "running" => 2,
        _ => 3,
    };
    if json {
        let mut v = snapshot.to_value();
        if let Value::Obj(entries) = &mut v {
            for (key, val) in entries.iter_mut() {
                if key == "state" {
                    *val = Value::Str(state.clone());
                }
            }
            if state == "interrupted" {
                entries.push((
                    "resume_hint".to_string(),
                    Value::Str(status_resume_hint(dir)),
                ));
            }
        }
        return Ok((format!("{v}\n"), code));
    }
    let mut s = format!(
        "campaign    {} (config {})\nstate       {state}",
        snapshot.kind, snapshot.config_hash
    );
    if state == "running" {
        s.push_str(&format!(" (pid {})", snapshot.pid));
    }
    s.push('\n');
    s.push_str(&format!(
        "chunks      {}/{} done ({} replayed, {} executed this run)\n",
        snapshot.chunks_done,
        snapshot.chunks_total,
        snapshot.chunks_replayed,
        snapshot.chunks_executed
    ));
    if !snapshot.outcomes.is_empty() {
        let parts: Vec<String> = snapshot
            .outcomes
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        s.push_str(&format!("outcomes    {}\n", parts.join(" ")));
    }
    if snapshot.timing.throughput_chunks_per_s > 0.0 {
        s.push_str(&format!(
            "throughput  {:.2} chunks/s (EWMA chunk {:.1} ms)\n",
            snapshot.timing.throughput_chunks_per_s, snapshot.timing.ewma_chunk_ms
        ));
    }
    if state == "running" {
        s.push_str(&format!(
            "eta         ~{:.1} s\n",
            snapshot.timing.eta_ms as f64 / 1000.0
        ));
    }
    s.push_str(&format!(
        "updated     {} (unix ms)\n",
        snapshot.timing.updated_unix_ms
    ));
    if state == "interrupted" {
        s.push_str(&format!("resume      {}\n", status_resume_hint(dir)));
    }
    Ok((s, code))
}

/// `tensorlib watch <dir>`: polls the status snapshot, printing one
/// progress + ETA line per interval, until the campaign finishes (exit 0)
/// or is interrupted / its writer dies (exit 3).
fn run_watch(dir: &str, interval_ms: u64) -> Result<(String, u8), CliError> {
    use tensorlib_obs::events::StatusSnapshot;
    loop {
        let snapshot = StatusSnapshot::read(std::path::Path::new(dir))
            .map_err(|err| CliError(format!("reading campaign status in {dir}: {err}")))?;
        let state = effective_status_state(&snapshot);
        match state.as_str() {
            "finished" => {
                return Ok((
                    format!(
                        "{}: campaign finished — {}/{} chunks\n",
                        snapshot.kind, snapshot.chunks_done, snapshot.chunks_total
                    ),
                    0,
                ));
            }
            "running" => {
                let pct = if snapshot.chunks_total > 0 {
                    snapshot.chunks_done as f64 / snapshot.chunks_total as f64 * 100.0
                } else {
                    0.0
                };
                println!(
                    "{}: {}/{} chunks ({pct:.1}%), {:.2} chunks/s, eta ~{:.1} s",
                    snapshot.kind,
                    snapshot.chunks_done,
                    snapshot.chunks_total,
                    snapshot.timing.throughput_chunks_per_s,
                    snapshot.timing.eta_ms as f64 / 1000.0
                );
                std::thread::sleep(Duration::from_millis(interval_ms));
            }
            _ => {
                return Ok((
                    format!(
                        "{}: campaign interrupted at {}/{} chunks; {}\n",
                        snapshot.kind,
                        snapshot.chunks_done,
                        snapshot.chunks_total,
                        status_resume_hint(dir)
                    ),
                    3,
                ));
            }
        }
    }
}

/// `tensorlib history [path]`: lists the cross-run index, or with `--check`
/// compares the newest run against the most recent earlier run with the
/// same config hash (exit 4 when any metric moved beyond the threshold).
fn run_history(path: &str, check: bool, threshold: f64) -> Result<(String, u8), CliError> {
    use tensorlib_obs::history::{self, CheckOutcome};
    let file = if path.ends_with(".jsonl") {
        PathBuf::from(path)
    } else {
        std::path::Path::new(path).join(history::HISTORY_FILE)
    };
    let entries = history::read(&file).map_err(CliError)?;
    if !check {
        if entries.is_empty() {
            return Ok((format!("no history at {}\n", file.display()), 0));
        }
        let mut s = String::new();
        for e in &entries {
            let metrics: Vec<String> = e
                .metrics
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            s.push_str(&format!(
                "{:8} {} v{} cores={} workers={} lanes={}  {}  ({})\n",
                e.kind,
                e.config_hash,
                e.pkg_version,
                e.host_cores,
                e.workers,
                e.lanes,
                metrics.join(" "),
                e.command
            ));
        }
        return Ok((s, 0));
    }
    match history::check(&entries, threshold).map_err(CliError)? {
        CheckOutcome::NoRuns => Ok((
            format!("history at {} is empty; nothing to check\n", file.display()),
            0,
        )),
        CheckOutcome::NoPrior { kind, config_hash } => Ok((
            format!(
                "no prior {kind} run with config {config_hash}; nothing to compare\n"
            ),
            0,
        )),
        CheckOutcome::Compared {
            kind,
            config_hash,
            baseline_unix_ms,
            deltas,
            wall_delta_pct,
            flagged,
        } => {
            let mut s = format!(
                "{kind} (config {config_hash}) vs baseline from unix ms {baseline_unix_ms}:\n"
            );
            let fmt_side = |side: Option<f64>| -> String {
                side.map_or_else(|| "(absent)".to_string(), |v| format!("{v}"))
            };
            for d in &deltas {
                let delta = d
                    .delta_pct
                    .map_or_else(String::new, |pct| format!("  {pct:+.2}%"));
                let mark = if d.flagged { "  FLAGGED" } else { "" };
                s.push_str(&format!(
                    "  {:24} {} -> {}{delta}{mark}\n",
                    d.metric,
                    fmt_side(d.baseline),
                    fmt_side(d.current)
                ));
            }
            if let Some(pct) = wall_delta_pct {
                s.push_str(&format!(
                    "  wall time {pct:+.1}% (informational; never flagged)\n"
                ));
            }
            if flagged > 0 {
                s.push_str(&format!(
                    "{flagged} metric(s) moved more than {threshold}% — check the runs above\n"
                ));
                Ok((s, 4))
            } else {
                s.push_str(&format!("no metric moved more than {threshold}%\n"));
                Ok((s, 0))
            }
        }
    }
}

/// Runs the compiled bytecode engine over an elaborated design for `cycles`
/// cycles under a fixed seeded stimulus and renders one line per top-level
/// output per cycle. The seed and the line format are fixed, so the emitting
/// side and the re-parsing side of a round trip produce byte-identical traces
/// exactly when the interchange preserved the design. Each cycle drives every
/// input in one batch, so the design settles once per cycle.
fn smoke_trace(flat: tensorlib::hw::interp::FlatDesign, cycles: u64) -> String {
    use tensorlib::hw::interp::Interpreter;
    use tensorlib::hw::netlist::Dir;
    let port_names = |dir: Dir| -> Vec<String> {
        flat.ports()
            .iter()
            .filter(|(_, d)| *d == dir)
            .map(|(id, _)| flat.nets()[*id].name.clone())
            .collect()
    };
    let inputs = port_names(Dir::Input);
    let outputs = port_names(Dir::Output);
    let mut sim = Interpreter::new(flat);
    let input_ids: Vec<_> = inputs.iter().map(|name| sim.input_id(name)).collect();
    let mut rng = tensorlib::linalg::rng::SplitMix64::new(0x7E57_0A7C_0000_0001);
    let mut text = String::new();
    for cycle in 0..cycles {
        sim.poke_by_id(input_ids.iter().map(|&id| (id, rng.next_u64())));
        sim.step();
        for name in &outputs {
            text.push_str(&format!("{cycle} {name}={}\n", sim.peek(name)));
        }
    }
    text
}

/// Executes a parsed command, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError`] when the pipeline fails (unknown dataflow,
/// unwireable design, simulation mismatch).
pub fn run(cmd: Command) -> Result<String, CliError> {
    let e = |err: &dyn fmt::Display| CliError(err.to_string());
    match cmd {
        Command::Workloads => {
            let mut s = String::new();
            for k in workloads::table2_catalog() {
                s.push_str(&format!("{k}\n"));
            }
            Ok(s)
        }
        Command::Analyze { workload, dataflow } => {
            let kernel = resolve_workload(&workload)?;
            let df = find_named(&kernel, &dataflow, &DseConfig::default())
                .map_err(|err| e(&err))?;
            Ok(format!("{df}\n"))
        }
        Command::Generate {
            workload,
            dataflow,
            out,
            rows,
            cols,
            opt,
        } => {
            let kernel = resolve_workload(&workload)?;
            let df = find_named(&kernel, &dataflow, &DseConfig::default())
                .map_err(|err| e(&err))?;
            let cfg = HwConfig {
                array: ArrayConfig { rows, cols },
                ..HwConfig::default()
            };
            let mut design = generate(&df, &cfg).map_err(|err| e(&err))?;
            design.validate().map_err(|err| e(&err))?;
            if opt {
                design.optimize(&tensorlib::hw::opt::OptOptions::default());
                design.validate().map_err(|err| e(&err))?;
            }
            let verilog = tensorlib::hw::verilog::emit_design(&design);
            if out == "-" {
                Ok(verilog)
            } else {
                atomic_write(&out, verilog.as_bytes())
                    .map_err(|err| CliError(format!("writing {out}: {err}")))?;
                Ok(format!(
                    "wrote {out}: {} lines, top module {}\n",
                    verilog.lines().count(),
                    design.top()
                ))
            }
        }
        Command::Emit {
            workload,
            dataflow,
            rows,
            cols,
            format,
            opt,
            sim_cycles,
            trace_out,
            out,
        } => {
            let kernel = resolve_workload(&workload)?;
            let df = find_named(&kernel, &dataflow, &DseConfig::default())
                .map_err(|err| e(&err))?;
            let cfg = HwConfig {
                array: ArrayConfig { rows, cols },
                ..HwConfig::default()
            };
            let mut design = generate(&df, &cfg).map_err(|err| e(&err))?;
            design.validate().map_err(|err| e(&err))?;
            if opt {
                design.optimize(&tensorlib::hw::opt::OptOptions::default());
                design.validate().map_err(|err| e(&err))?;
            }
            let doc = tensorlib::hw::text::NetlistDoc::from_design(&design);
            let emitted = match format.as_str() {
                "text" => tensorlib::hw::text::emit_text(&doc),
                "yosys-json" => tensorlib::hw::yosys::emit_yosys(&doc),
                _ => tensorlib::hw::verilog::emit_design(&design),
            };
            // Interchange emissions self-check their own round trip before
            // any bytes leave the process: what we wrote is what a reader
            // gets back.
            if format != "verilog" {
                let reparse = |s: &str| -> Result<tensorlib::hw::text::NetlistDoc, CliError> {
                    let bad = |err: &dyn fmt::Display| {
                        CliError(format!("emitted {format} does not re-parse: {err}"))
                    };
                    match format.as_str() {
                        "text" => tensorlib::hw::text::parse_text(s).map_err(|err| bad(&err)),
                        _ => tensorlib::hw::yosys::parse_yosys(s).map_err(|err| bad(&err)),
                    }
                };
                if reparse(&emitted)? != doc {
                    return Err(CliError(format!(
                        "emitted {format} round trip is not structurally identical"
                    )));
                }
            }
            let trace_note = if sim_cycles > 0 {
                let flat = tensorlib::hw::interp::elaborate(&doc.modules, &doc.banks, &doc.top)
                    .map_err(|err| e(&err))?;
                let trace = smoke_trace(flat, sim_cycles);
                atomic_write(&trace_out, trace.as_bytes())
                    .map_err(|err| CliError(format!("writing {trace_out}: {err}")))?;
                format!("wrote {sim_cycles}-cycle smoke trace to {trace_out}\n")
            } else {
                String::new()
            };
            if out == "-" {
                // The netlist itself is the stdout payload; the trace (if
                // any) already landed in its own file.
                Ok(emitted)
            } else {
                atomic_write(&out, emitted.as_bytes())
                    .map_err(|err| CliError(format!("writing {out}: {err}")))?;
                Ok(format!(
                    "wrote {format} netlist to {out}: {} lines, top module {}\n{trace_note}",
                    emitted.lines().count(),
                    design.top()
                ))
            }
        }
        Command::Parse {
            input,
            format,
            opt,
            sim_cycles,
            trace_out,
            out,
        } => {
            let src = std::fs::read_to_string(&input)
                .map_err(|err| CliError(format!("reading {input}: {err}")))?;
            let fmt = if format == "auto" {
                if src.trim_start().starts_with('{') {
                    "yosys-json"
                } else {
                    "text"
                }
            } else {
                format.as_str()
            };
            let doc = match fmt {
                "text" => tensorlib::hw::text::parse_text(&src)
                    .map_err(|err| CliError(format!("{input}: {err}")))?,
                _ => tensorlib::hw::yosys::parse_yosys(&src)
                    .map_err(|err| CliError(format!("{input}: {err}")))?,
            };
            doc.validate()
                .map_err(|msg| CliError(format!("{input}: {msg}")))?;
            let flat = tensorlib::hw::interp::elaborate(&doc.modules, &doc.banks, &doc.top)
                .map_err(|err| CliError(format!("{input}: {err}")))?;
            let ops = tensorlib::hw::interp::flat_op_count(&flat);
            let mut s = format!(
                "parsed {fmt} netlist {input}: top module {:?}, {} modules, {} banks\n\
                 elaborated: {} flat nets, {ops} bytecode ops\n",
                doc.top,
                doc.modules.len(),
                doc.banks.len(),
                flat.nets().len(),
            );
            if opt {
                let (opt_modules, _) = tensorlib::hw::opt::optimize_netlist(
                    &doc.modules,
                    &doc.top,
                    &tensorlib::hw::opt::OptOptions::default(),
                );
                let opt_doc = tensorlib::hw::text::NetlistDoc {
                    modules: opt_modules,
                    banks: doc.banks.clone(),
                    top: doc.top.clone(),
                };
                opt_doc.validate().map_err(|msg| {
                    CliError(format!("{input}: optimized netlist fails validation: {msg}"))
                })?;
                let opt_flat = tensorlib::hw::interp::elaborate(
                    &opt_doc.modules,
                    &opt_doc.banks,
                    &opt_doc.top,
                )
                .map_err(|err| {
                    CliError(format!("{input}: optimized netlist fails elaboration: {err}"))
                })?;
                s.push_str(&format!(
                    "optimizer recompile: {ops} -> {} bytecode ops\n",
                    tensorlib::hw::interp::flat_op_count(&opt_flat),
                ));
            }
            if sim_cycles > 0 {
                let trace = smoke_trace(flat, sim_cycles);
                atomic_write(&trace_out, trace.as_bytes())
                    .map_err(|err| CliError(format!("writing {trace_out}: {err}")))?;
                s.push_str(&format!(
                    "wrote {sim_cycles}-cycle smoke trace to {trace_out}\n"
                ));
            }
            if out == "-" {
                Ok(s)
            } else {
                atomic_write(&out, s.as_bytes())
                    .map_err(|err| CliError(format!("writing {out}: {err}")))?;
                Ok(format!("wrote parse report to {out}\n"))
            }
        }
        Command::Simulate {
            workload,
            dataflow,
            rows,
            cols,
        } => {
            let kernel = resolve_workload(&workload)?;
            let acc = Accelerator::builder(kernel)
                .dataflow_name(&dataflow)
                .array(rows, cols)
                .build()
                .map_err(|err| e(&err))?;
            let run = acc.verify(42).map_err(|err| e(&err))?;
            let perf = acc.performance(&SimConfig::paper_default());
            Ok(format!(
                "verified: bit-exact over {} MACs\n\
                 cycles: {} total ({} stall), {:.1}% of peak, {:.1} Gop/s\n",
                run.macs_executed,
                perf.total_cycles,
                perf.stall_cycles,
                100.0 * perf.normalized_perf,
                perf.gops
            ))
        }
        Command::Stats {
            workload,
            dataflow,
            rows,
            cols,
            tiles,
            opt,
            out,
        } => {
            if tiles == 0 {
                return Err(CliError("--tiles must be at least 1".into()));
            }
            let t0 = std::time::Instant::now();
            let kernel = resolve_workload(&workload)?;
            let df = find_named(&kernel, &dataflow, &DseConfig::default())
                .map_err(|err| e(&err))?;
            let cfg = HwConfig {
                array: ArrayConfig { rows, cols },
                ..HwConfig::default()
            };
            let mut design = generate(&df, &cfg).map_err(|err| e(&err))?;
            let opt_stats = opt
                .then(|| design.optimize(&tensorlib::hw::opt::OptOptions::default()));
            let measured =
                tensorlib::sim::trace::measure(&design, &TraceConfig::counters_only(), tiles)
                    .map_err(|err| e(&err))?;
            let cross = tensorlib::sim::perf::cross_check(
                &design,
                &kernel,
                &SimConfig::paper_default(),
                tiles,
            )
            .map_err(|err| e(&err))?;
            let s = &measured.stats;
            let report = StatsReport {
                schema_version: SCHEMA_VERSION,
                provenance: provenance_for(
                    &format!("stats {workload} {dataflow} --rows {rows} --cols {cols} --tiles {tiles}"),
                    Vec::new(),
                    1,
                    t0.elapsed().as_micros() as u64,
                ),
                workload: workload.clone(),
                dataflow: dataflow.clone(),
                rows,
                cols,
                tiles,
                summary: StatsSummary {
                    cycles: s.cycles,
                    total_mac_cycles: s.total_mac_cycles(),
                    utilization: s.utilization(),
                    stall_cycles: s.stall_cycles(),
                    total_bank_conflicts: s.total_bank_conflicts(),
                },
                stats: s.clone(),
                cross_check: cross,
                opt: opt_stats,
            };
            let text = serde_json::to_string_pretty(&report)
                .map_err(|err| CliError(format!("serializing report: {err}")))?
                + "\n";
            emit_report(
                &out,
                report_path("stats", &workload, &dataflow, "json"),
                &text,
                "stats report",
            )
        }
        Command::Trace {
            workload,
            dataflow,
            rows,
            cols,
            tiles,
            nets,
            opt,
            out,
        } => {
            if tiles == 0 {
                return Err(CliError("--tiles must be at least 1".into()));
            }
            let kernel = resolve_workload(&workload)?;
            let df = find_named(&kernel, &dataflow, &DseConfig::default())
                .map_err(|err| e(&err))?;
            let cfg = HwConfig {
                array: ArrayConfig { rows, cols },
                ..HwConfig::default()
            };
            let mut design = generate(&df, &cfg).map_err(|err| e(&err))?;
            if opt {
                design.optimize(&tensorlib::hw::opt::OptOptions::default());
            }
            let watch: Vec<String> = if nets.is_empty() {
                ["en", "swap", "done"].iter().map(|s| s.to_string()).collect()
            } else {
                nets.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            };
            let trace_cfg = TraceConfig::default().with_watch(watch);
            let measured = tensorlib::sim::trace::measure(&design, &trace_cfg, tiles)
                .map_err(|err| e(&err))?;
            let vcd = measured
                .sim
                .write_vcd()
                .ok_or_else(|| CliError("tracing produced no waveform".into()))?;
            let s = &measured.stats;
            let summary = format!(
                "{} signals, {} events recorded ({} dropped), {} cycles",
                measured.sim.watched_signals().len(),
                s.events_recorded,
                s.events_dropped,
                s.cycles
            );
            let msg = emit_report(
                &out,
                report_path("trace", &workload, &dataflow, "vcd"),
                &vcd,
                &format!("VCD ({summary})"),
            )?;
            Ok(msg)
        }
        Command::Faults {
            rows,
            cols,
            k,
            faults,
            seed,
            harden,
            workers,
            lanes,
            sweep_acc,
            opt,
            resume,
            chunk_timeout,
            out,
        } => {
            if rows == 0 || cols == 0 || k == 0 {
                return Err(CliError("--rows, --cols, and --k must be at least 1".into()));
            }
            if !sweep_acc && faults == 0 {
                return Err(CliError("--faults must be at least 1".into()));
            }
            let t0 = std::time::Instant::now();
            let hardening = Hardening::parse(&harden).map_err(CliError)?;
            let cfg = CampaignConfig {
                rows,
                cols,
                k,
                faults,
                seed,
                hardening,
                workers,
                lanes,
                opt,
            };
            let durability = durability_from(&resume, chunk_timeout);
            let (mode, campaign) = if sweep_acc {
                // Flip every accumulator bit 0..8 mid-accumulation: half-way
                // through the compute phase (t-extent = k plus the skew in
                // each direction, plus the streaming-pipeline tail), after
                // the 1-cycle start handshake.
                let compute = k + rows as u64 - 1 + cols as u64 - 1 + 2;
                let cycle = 1 + compute / 2;
                (
                    "accumulator-sweep",
                    FaultCampaign::accumulator_sweep(&cfg, 8, cycle),
                )
            } else {
                ("seeded", FaultCampaign::gemm(&cfg))
            };
            let campaign = campaign.map_err(|err| e(&err))?;
            let run = journal::execute(&campaign, &durability).map_err(|err| e(&err))?;
            let hardening_cost = if hardening.is_any() {
                let gemm = workloads::gemm(rows as u64, cols as u64, k);
                let sel =
                    LoopSelection::by_names(&gemm, ["m", "n", "k"]).map_err(|err| e(&err))?;
                let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary())
                    .map_err(|err| e(&err))?;
                let hw = HwConfig {
                    array: ArrayConfig { rows, cols },
                    ..HwConfig::default()
                };
                Some(
                    hardening_overhead(&df, &hw, hardening, &Activity::default())
                        .map_err(|err| e(&err))?,
                )
            } else {
                None
            };
            let output = CampaignOutput {
                echo: format!(
                    "faults --rows {rows} --cols {cols} --k {k} --seed {seed} --harden {hardening}"
                ),
                seeds: vec![seed],
                workers,
                lanes,
                resume: &resume,
                out: &out,
                default_path: report_path(
                    "faults",
                    &format!("gemm-{rows}x{cols}x{k}"),
                    &hardening.to_string(),
                    "json",
                ),
                what: "resilience report",
                started: t0,
            };
            emit_campaign(campaign, run, output, |report, provenance, interrupted, resume_hint| {
                FaultsReportDoc {
                    schema_version: SCHEMA_VERSION,
                    provenance,
                    config: cfg,
                    mode: mode.to_string(),
                    report,
                    hardening_overhead: hardening_cost,
                    interrupted,
                    resume_hint,
                }
            })
        }
        Command::Fuzz {
            mode,
            seed,
            seeds,
            cycles,
            workers,
            lanes,
            opt,
            resume,
            chunk_timeout,
            out,
        } => {
            let (netlist, pipeline) = match mode.as_str() {
                "netlist" => (true, false),
                "pipeline" => (false, true),
                "both" => (true, true),
                other => {
                    return Err(CliError(format!(
                        "--mode must be netlist, pipeline, or both (got {other:?})"
                    )))
                }
            };
            if seeds == 0 || cycles == 0 {
                return Err(CliError("--seeds and --cycles must be at least 1".into()));
            }
            let t0 = std::time::Instant::now();
            // The verify runners treat 0 as serial, not one per core.
            let workers = resolved_workers(workers);
            let cfg = VerifyConfig {
                seed_start: seed,
                seeds,
                workers,
                cycles,
                lanes,
                opt,
            };
            let durability = durability_from(&resume, chunk_timeout);
            let campaign = VerifyCampaign::new(&cfg, netlist, pipeline);
            let run = journal::execute(&campaign, &durability).map_err(|err| e(&err))?;
            let output = CampaignOutput {
                echo: format!("fuzz --mode {mode} --seed {seed} --seeds {seeds} --cycles {cycles}"),
                seeds: vec![seed],
                workers,
                lanes,
                resume: &resume,
                out: &out,
                default_path: report_path("fuzz", &mode, &format!("{seed}-{seeds}"), "json"),
                what: "fuzz report",
                started: t0,
            };
            emit_campaign(campaign, run, output, |report, provenance, interrupted, resume_hint| {
                FuzzReportDoc {
                    schema_version: SCHEMA_VERSION,
                    provenance,
                    report,
                    interrupted,
                    resume_hint,
                }
            })
        }
        Command::Explore {
            workload,
            top,
            resume,
            chunk_timeout,
            out,
        } => {
            let t0 = std::time::Instant::now();
            let kernel = resolve_workload(&workload)?;
            let durability = durability_from(&resume, chunk_timeout);
            let opts = ExploreOptions::default();
            let campaign = ExploreCampaign::new(&kernel, &opts);
            let (sweep, stats) =
                journal::execute(&campaign, &durability).map_err(|err| e(&err))?;
            if out.is_empty() {
                let mut s = format!(
                    "{}: {} implementable designs (fastest {top}):\n",
                    kernel.name(),
                    sweep.rows.len()
                );
                let mut seen = std::collections::HashSet::new();
                for r in sweep
                    .rows
                    .iter()
                    .filter(|r| seen.insert(r.name.clone()))
                    .take(top)
                {
                    s.push_str(&format!(
                        "  {:14} {:>12} cycles  {:6.1} mW  {:.3} mm2\n",
                        r.name, r.total_cycles, r.power_mw, r.area_mm2
                    ));
                }
                if stats.interrupted {
                    s.push_str("interrupted: partial sweep");
                    if let Some(dir) = &resume {
                        s.push_str(&format!("; re-run with --resume {dir} to finish"));
                    }
                    s.push('\n');
                }
                return Ok(s);
            }
            let output = CampaignOutput {
                echo: format!("explore {workload} --top {top}"),
                seeds: Vec::new(),
                workers: opts.workers,
                lanes: 0,
                resume: &resume,
                out: &out,
                default_path: report_path("explore", &workload, "sweep", "json"),
                what: "explore report",
                started: t0,
            };
            let run = (sweep, stats);
            emit_campaign(campaign, run, output, |sweep, provenance, interrupted, resume_hint| {
                ExploreReportDoc {
                    schema_version: SCHEMA_VERSION,
                    provenance,
                    workload: workload.clone(),
                    implementable_designs: sweep.rows.len(),
                    errors: sweep.errors.len(),
                    skipped: sweep.skipped as usize,
                    degraded: sweep.degraded,
                    top: sweep.rows.into_iter().take(top).collect(),
                    interrupted,
                    resume_hint,
                }
            })
        }
        Command::Profile {
            workload,
            top,
            rows,
            cols,
            workers,
            out,
        } => {
            let t0 = std::time::Instant::now();
            let kernel = resolve_workload(&workload)?;
            // Profile the full pipeline: enumeration, classification,
            // elaboration, bytecode compile, functional simulation, cost.
            let opts = ExploreOptions {
                hw: HwConfig {
                    array: ArrayConfig { rows, cols },
                    ..HwConfig::default()
                },
                workers,
                functional_verify: true,
                ..ExploreOptions::default()
            };
            let was_enabled = tensorlib_obs::is_enabled();
            tensorlib_obs::enable();
            let outcome = explore_outcome(&kernel, &opts);
            // The sweep's functional verifier is a behavioural model; the
            // netlist-flattening and bytecode-compilation phases only run in
            // the cycle-accurate interpreter. Deep-measure the fastest point
            // so the trace covers those too.
            if let Some(best) = outcome.points.first() {
                let measured = generate(&best.dataflow, &opts.hw).map_err(|err| e(&err)).and_then(
                    |design| {
                        tensorlib::sim::trace::measure(&design, &TraceConfig::counters_only(), 1)
                            .map_err(|err| e(&err))
                    },
                );
                if let Err(err) = measured {
                    if !was_enabled {
                        tensorlib_obs::disable();
                    }
                    return Err(err);
                }
            }
            let session = tensorlib_obs::drain();
            if !was_enabled {
                tensorlib_obs::disable();
            }
            let provenance = provenance_from_session(
                &session,
                &format!("profile {workload} --rows {rows} --cols {cols}"),
                vec![42],
                workers,
                t0.elapsed().as_micros() as u64,
            );
            let mut table = format!(
                "profiled {}: {} points, {} errors, {} skipped\n\n\
                 {:<28} {:>8} {:>12} {:>10}\n",
                kernel.name(),
                outcome.points.len(),
                outcome.errors.len(),
                outcome.skipped,
                "phase",
                "count",
                "total_us",
                "mean_us",
            );
            for (phase, (count, total_us)) in session.phase_totals().into_iter().take(top.max(1)) {
                table.push_str(&format!(
                    "{:<28} {:>8} {:>12} {:>10}\n",
                    phase,
                    count,
                    total_us,
                    total_us / count.max(1),
                ));
            }
            for (name, value) in &session.metrics.counters {
                table.push_str(&format!("counter {name} = {value}\n"));
            }
            let trace = session.to_chrome_trace(Some(&provenance));
            let msg = emit_report(
                &out,
                report_path("profile", &workload, "sweep", "trace.json"),
                &trace,
                "Chrome trace",
            )?;
            // A folded-stacks sibling rides along for flamegraph tooling
            // whenever the trace goes to a file.
            let mut folded_note = String::new();
            if out != "-" {
                let trace_path = if out.is_empty() {
                    report_path("profile", &workload, "sweep", "trace.json")
                } else {
                    out.clone()
                };
                let folded_path = format!("{}.folded", trace_path.trim_end_matches(".trace.json"));
                atomic_write(&folded_path, session.to_folded().as_bytes())
                    .map_err(|err| CliError(format!("writing {folded_path}: {err}")))?;
                folded_note = format!("wrote folded stacks to {folded_path}\n");
            }
            let mut metrics = std::collections::BTreeMap::new();
            metrics.insert("points".to_string(), outcome.points.len() as f64);
            metrics.insert("errors".to_string(), outcome.errors.len() as f64);
            metrics.insert("skipped".to_string(), outcome.skipped as f64);
            let history_note = append_history(
                resolved_report_path(&out, &report_path("profile", &workload, "sweep", "trace.json"))
                    .as_deref(),
                "profile",
                &format!("profile|{workload}|rows={rows}|cols={cols}|top={top}"),
                &provenance,
                metrics,
                t0.elapsed().as_millis() as u64,
            );
            Ok(format!("{table}\n{msg}{folded_note}{history_note}"))
        }
        // The exit-code-bearing commands: `run` discards the code for
        // callers that only want text; `run_coded` keeps it.
        Command::Status { dir, json } => run_status(&dir, json).map(|(text, _)| text),
        Command::Watch { dir, interval_ms } => run_watch(&dir, interval_ms).map(|(text, _)| text),
        Command::History {
            path,
            check,
            threshold,
        } => run_history(&path, check, threshold).map(|(text, _)| text),
    }
}

/// Like [`run`], but also returning the process exit code. Most commands
/// exit 0 on success; `status` exits 0 finished / 2 running / 3
/// interrupted, `watch` exits 0 finished / 3 interrupted, and
/// `history --check` exits 4 when a metric regression is flagged.
///
/// # Errors
///
/// Returns [`CliError`] when the command fails (exit code 1 in `main`).
pub fn run_coded(cmd: Command) -> Result<(String, u8), CliError> {
    match cmd {
        Command::Status { dir, json } => run_status(&dir, json),
        Command::Watch { dir, interval_ms } => run_watch(&dir, interval_ms),
        Command::History {
            path,
            check,
            threshold,
        } => run_history(&path, check, threshold),
        other => run(other).map(|text| (text, 0)),
    }
}

/// [`provenance_for`], but reading phase wall times out of an already-drained
/// [`tensorlib_obs::Session`] instead of the live recorder.
fn provenance_from_session(
    session: &tensorlib_obs::Session,
    command_echo: &str,
    seeds: Vec<u64>,
    workers: usize,
    total_us: u64,
) -> Provenance {
    let mut p = Provenance::new(command_echo);
    p.seeds = seeds;
    p.workers = resolved_workers(workers);
    p.phase_wall_times_us = session
        .phase_totals()
        .into_iter()
        .map(|(name, (_count, total))| (name, total))
        .collect();
    p.phase_wall_times_us.insert("total".to_string(), total_us);
    p
}

/// Whether `main` should install the process-wide SIGINT latch before
/// running: only journaled campaigns (`--resume`) drain-and-flush on
/// Ctrl-C; every other command keeps the default kill-immediately behavior.
pub fn wants_interrupt_latch(cmd: &Command) -> bool {
    matches!(
        cmd,
        Command::Faults { resume: Some(_), .. }
            | Command::Fuzz { resume: Some(_), .. }
            | Command::Explore { resume: Some(_), .. }
    )
}

/// Runs a parsed invocation: the command itself, plus (when the global
/// `--profile <out.trace.json>` flag was given) a span-tracing session
/// around it whose Chrome trace — with the run's provenance embedded — is
/// written to the requested path. The flag never changes what the command
/// computes; see the module docs.
///
/// # Errors
///
/// Returns [`CliError`] when the command fails or the trace cannot be
/// written.
pub fn run_invocation(inv: Invocation) -> Result<String, CliError> {
    run_invocation_coded(inv).map(|(text, _)| text)
}

/// [`run_invocation`], but also returning the process exit code (see
/// [`run_coded`]). This is what `main` calls.
///
/// # Errors
///
/// Returns [`CliError`] when the command fails or the trace cannot be
/// written.
pub fn run_invocation_coded(inv: Invocation) -> Result<(String, u8), CliError> {
    let Some(trace_path) = inv.profile else {
        return run_coded(inv.command);
    };
    let t0 = std::time::Instant::now();
    let was_enabled = tensorlib_obs::is_enabled();
    tensorlib_obs::enable();
    let result = run_coded(inv.command);
    let session = tensorlib_obs::drain();
    if !was_enabled {
        tensorlib_obs::disable();
    }
    let (output, code) = result?;
    let provenance = provenance_from_session(
        &session,
        &inv.echo,
        Vec::new(),
        1,
        t0.elapsed().as_micros() as u64,
    );
    let trace = session.to_chrome_trace(Some(&provenance));
    let note = emit_report(&trace_path, String::new(), &trace, "profile trace")?;
    Ok((format!("{output}{note}"), code))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib::sim::resilience::run_gemm_campaign_durable;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_all_commands() {
        assert_eq!(parse_args(&sv(&["workloads"])).unwrap(), Command::Workloads);
        assert_eq!(
            parse_args(&sv(&["analyze", "gemm", "MNK-SST"])).unwrap(),
            Command::Analyze {
                workload: "gemm".into(),
                dataflow: "MNK-SST".into()
            }
        );
        assert_eq!(
            parse_args(&sv(&[
                "generate", "gemm", "MNK-SST", "-o", "x.v", "--rows", "4", "--cols", "8"
            ]))
            .unwrap(),
            Command::Generate {
                workload: "gemm".into(),
                dataflow: "MNK-SST".into(),
                out: "x.v".into(),
                rows: 4,
                cols: 8,
                opt: true,
            }
        );
        // Both --opt spellings parse; bad values are errors.
        assert_eq!(
            parse_args(&sv(&["generate", "gemm", "MNK-SST", "--opt=off"])).unwrap(),
            Command::Generate {
                workload: "gemm".into(),
                dataflow: "MNK-SST".into(),
                out: "-".into(),
                rows: 16,
                cols: 16,
                opt: false,
            }
        );
        assert_eq!(
            parse_args(&sv(&["generate", "gemm", "MNK-SST", "--opt", "off"])).unwrap(),
            parse_args(&sv(&["generate", "gemm", "MNK-SST", "--opt=off"])).unwrap(),
        );
        assert!(parse_args(&sv(&["generate", "gemm", "MNK-SST", "--opt=maybe"])).is_err());
        assert_eq!(
            parse_args(&sv(&["explore", "gemm", "--top", "3"])).unwrap(),
            Command::Explore {
                workload: "gemm".into(),
                top: 3,
                resume: None,
                chunk_timeout: None,
                out: String::new()
            }
        );
        assert_eq!(
            parse_args(&sv(&["explore", "gemm", "-o", "sweep.json"])).unwrap(),
            Command::Explore {
                workload: "gemm".into(),
                top: 10,
                resume: None,
                chunk_timeout: None,
                out: "sweep.json".into()
            }
        );
        assert_eq!(
            parse_args(&sv(&["profile", "gemm", "--workers", "2", "-o", "-"])).unwrap(),
            Command::Profile {
                workload: "gemm".into(),
                top: 10,
                rows: 4,
                cols: 4,
                workers: 2,
                out: "-".into()
            }
        );
    }

    #[test]
    fn parse_invocation_extracts_global_profile_flag() {
        let inv = parse_invocation(&sv(&["--profile", "run.trace.json", "workloads"])).unwrap();
        assert_eq!(inv.profile.as_deref(), Some("run.trace.json"));
        assert_eq!(inv.command, Command::Workloads);
        assert_eq!(inv.echo, "--profile run.trace.json workloads");

        // The flag may appear anywhere, including after the command.
        let inv = parse_invocation(&sv(&["workloads", "--profile", "t.json"])).unwrap();
        assert_eq!(inv.profile.as_deref(), Some("t.json"));
        assert_eq!(inv.command, Command::Workloads);

        // Without the flag, nothing changes.
        let inv = parse_invocation(&sv(&["workloads"])).unwrap();
        assert_eq!(inv.profile, None);

        // A dangling --profile is a usage error.
        let err = parse_invocation(&sv(&["workloads", "--profile"])).unwrap_err();
        assert!(err.to_string().contains("--profile"), "{err}");
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&sv(&[])).is_err());
        assert!(parse_args(&sv(&["analyze", "gemm"])).is_err());
        assert!(parse_args(&sv(&["generate", "gemm", "MNK-SST", "--rows"])).is_err());
        assert!(parse_args(&sv(&["simulate", "gemm", "X", "--bogus", "1"])).is_err());
        assert!(parse_args(&sv(&["explore", "gemm", "--top", "zz"])).is_err());
    }

    #[test]
    fn workload_resolution() {
        assert_eq!(resolve_workload("gemm").unwrap().name(), "GEMM");
        let k = resolve_workload("gemm:4,5,6").unwrap();
        assert_eq!(k.loop_nest().extents(), vec![4, 5, 6]);
        assert_eq!(
            resolve_workload("mttkrp:2,3,4,5").unwrap().name(),
            "MTTKRP"
        );
        assert!(resolve_workload("nonsense").is_err());
        assert!(resolve_workload("gemm:1,2").is_err());
        assert!(resolve_workload("gemm:a,b,c").is_err());
    }

    #[test]
    fn run_workloads_and_analyze() {
        let out = run(Command::Workloads).unwrap();
        assert!(out.contains("GEMM"));
        assert!(out.contains("MTTKRP"));
        let out = run(Command::Analyze {
            workload: "gemm:16,16,16".into(),
            dataflow: "MNK-SST".into(),
        })
        .unwrap();
        assert!(out.contains("systolic"));
        assert!(out.contains("stationary"));
    }

    #[test]
    fn run_simulate_small() {
        let out = run(Command::Simulate {
            workload: "gemm:8,8,8".into(),
            dataflow: "MNK-SST".into(),
            rows: 4,
            cols: 4,
        })
        .unwrap();
        assert!(out.contains("bit-exact"));
        assert!(out.contains("Gop/s"));
    }

    #[test]
    fn run_generate_to_stdout() {
        let out = run(Command::Generate {
            workload: "gemm:8,8,8".into(),
            dataflow: "MNK-SST".into(),
            out: "-".into(),
            rows: 2,
            cols: 2,
            opt: true,
        })
        .unwrap();
        assert!(out.contains("endmodule"));
    }

    #[test]
    fn parse_emit_and_parse_commands() {
        assert_eq!(
            parse_args(&sv(&["emit", "gemm", "MNK-SST"])).unwrap(),
            Command::Emit {
                workload: "gemm".into(),
                dataflow: "MNK-SST".into(),
                rows: 16,
                cols: 16,
                format: "text".into(),
                opt: true,
                sim_cycles: 0,
                trace_out: String::new(),
                out: "-".into(),
            }
        );
        assert_eq!(
            parse_args(&sv(&[
                "emit",
                "gemm:8,8,8",
                "MNK-SST",
                "--rows",
                "2",
                "--cols",
                "2",
                "--format",
                "yosys-json",
                "--opt=off",
                "--sim-cycles",
                "64",
                "--trace-out",
                "t.trace",
                "-o",
                "n.json",
            ]))
            .unwrap(),
            Command::Emit {
                workload: "gemm:8,8,8".into(),
                dataflow: "MNK-SST".into(),
                rows: 2,
                cols: 2,
                format: "yosys-json".into(),
                opt: false,
                sim_cycles: 64,
                trace_out: "t.trace".into(),
                out: "n.json".into(),
            }
        );
        assert_eq!(
            parse_args(&sv(&["parse", "n.tl", "--format", "text", "-o", "r.txt"])).unwrap(),
            Command::Parse {
                input: "n.tl".into(),
                format: "text".into(),
                opt: true,
                sim_cycles: 0,
                trace_out: String::new(),
                out: "r.txt".into(),
            }
        );
        // Defaults: emit → text, parse → auto-sniff.
        assert_eq!(
            parse_args(&sv(&["parse", "n.json"])).unwrap(),
            Command::Parse {
                input: "n.json".into(),
                format: "auto".into(),
                opt: true,
                sim_cycles: 0,
                trace_out: String::new(),
                out: "-".into(),
            }
        );
        // Format values are validated per command, and the smoke-trace
        // flags only come as a pair.
        assert!(parse_args(&sv(&["emit", "gemm", "MNK-SST", "--format", "auto"])).is_err());
        assert!(parse_args(&sv(&["parse", "n.tl", "--format", "verilog"])).is_err());
        assert!(parse_args(&sv(&["emit", "gemm", "MNK-SST", "--sim-cycles", "8"])).is_err());
        assert!(parse_args(&sv(&["parse", "n.tl", "--trace-out", "t.trace"])).is_err());
        assert!(parse_args(&sv(&["emit", "gemm", "MNK-SST", "--sim-cycles", "0"])).is_err());
    }

    #[test]
    fn run_emit_parse_round_trip_with_trace() {
        let dir = std::env::temp_dir().join("tensorlib_cli_interchange_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = |n: &str| dir.join(n).to_string_lossy().into_owned();
        for (format, file) in [("text", "n.tl"), ("yosys-json", "n.json")] {
            let netlist = p(file);
            let emit_trace = p(&format!("{format}.emit.trace"));
            let parse_trace = p(&format!("{format}.parse.trace"));
            let out = run(Command::Emit {
                workload: "gemm:8,8,8".into(),
                dataflow: "MNK-SST".into(),
                rows: 2,
                cols: 2,
                format: format.into(),
                opt: true,
                sim_cycles: 16,
                trace_out: emit_trace.clone(),
                out: netlist.clone(),
            })
            .unwrap();
            assert!(out.contains("wrote"), "{out}");
            // Auto-detection picks the right parser for both formats.
            let out = run(Command::Parse {
                input: netlist,
                format: "auto".into(),
                opt: true,
                sim_cycles: 16,
                trace_out: parse_trace.clone(),
                out: "-".into(),
            })
            .unwrap();
            assert!(out.contains(&format!("parsed {format} netlist")), "{out}");
            assert!(out.contains("optimizer recompile"), "{out}");
            let a = std::fs::read(&emit_trace).unwrap();
            let b = std::fs::read(&parse_trace).unwrap();
            assert!(!a.is_empty());
            assert_eq!(a, b, "{format} smoke traces must be byte-identical");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn smoke_trace_matches_per_port_pokes() {
        use tensorlib::hw::interp::{elaborate, Interpreter};
        use tensorlib::hw::netlist::Dir;
        // A port-heavy design: every PE row and column has its own inputs.
        let kernel = resolve_workload("mttkrp").unwrap();
        let df = find_named(&kernel, "IKL-UBBB", &DseConfig::default()).unwrap();
        let cfg = HwConfig {
            array: ArrayConfig { rows: 4, cols: 4 },
            ..HwConfig::default()
        };
        let mut design = generate(&df, &cfg).unwrap();
        design.optimize(&tensorlib::hw::opt::OptOptions::default());
        let doc = tensorlib::hw::text::NetlistDoc::from_design(&design);
        let flat = elaborate(&doc.modules, &doc.banks, &doc.top).unwrap();
        // The result outputs stay zero for the first ~80 cycles at this size.
        let cycles = 128;

        // Reference: poke each input by name, settling after every poke.
        let names = |dir: Dir| -> Vec<String> {
            flat.ports()
                .iter()
                .filter(|(_, d)| *d == dir)
                .map(|(id, _)| flat.nets()[*id].name.clone())
                .collect()
        };
        let (inputs, outputs) = (names(Dir::Input), names(Dir::Output));
        assert!(inputs.len() > 16, "{} inputs", inputs.len());
        let mut sim = Interpreter::new(flat.clone());
        let mut rng = tensorlib::linalg::rng::SplitMix64::new(0x7E57_0A7C_0000_0001);
        let mut want = String::new();
        for cycle in 0..cycles {
            for name in &inputs {
                sim.poke(name, rng.next_u64());
            }
            sim.step();
            for name in &outputs {
                want.push_str(&format!("{cycle} {name}={}\n", sim.peek(name)));
            }
        }
        assert_eq!(want.lines().count(), cycles as usize * outputs.len());
        assert!(
            want.lines()
                .any(|l| l.contains(" result_") && !l.ends_with("=0")),
            "no result output ever leaves zero"
        );
        assert_eq!(smoke_trace(flat, cycles), want);
    }

    #[test]
    fn run_emit_verilog_matches_generate() {
        let emit = run(Command::Emit {
            workload: "gemm:8,8,8".into(),
            dataflow: "MNK-SST".into(),
            rows: 2,
            cols: 2,
            format: "verilog".into(),
            opt: true,
            sim_cycles: 0,
            trace_out: String::new(),
            out: "-".into(),
        })
        .unwrap();
        let generate = run(Command::Generate {
            workload: "gemm:8,8,8".into(),
            dataflow: "MNK-SST".into(),
            out: "-".into(),
            rows: 2,
            cols: 2,
            opt: true,
        })
        .unwrap();
        assert_eq!(emit, generate);
    }

    #[test]
    fn run_parse_rejects_garbage_with_located_error() {
        let dir = std::env::temp_dir().join("tensorlib_cli_parse_err_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.tl").to_string_lossy().into_owned();
        std::fs::write(&path, "tensorlib-netlist v1\nmodule \"m\"\n").unwrap();
        let err = run(Command::Parse {
            input: path,
            format: "text".into(),
            opt: false,
            sim_cycles: 0,
            trace_out: String::new(),
            out: "-".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("line"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_stats_and_trace() {
        assert_eq!(
            parse_args(&sv(&[
                "stats", "gemm:4,4,4", "MNK-SST", "--rows", "4", "--cols", "4", "--tiles",
                "3"
            ]))
            .unwrap(),
            Command::Stats {
                workload: "gemm:4,4,4".into(),
                dataflow: "MNK-SST".into(),
                rows: 4,
                cols: 4,
                tiles: 3,
                opt: true,
                out: String::new()
            }
        );
        assert_eq!(
            parse_args(&sv(&["trace", "gemm", "MNK-SST", "--nets", "en,swap", "-o", "-"]))
                .unwrap(),
            Command::Trace {
                workload: "gemm".into(),
                dataflow: "MNK-SST".into(),
                rows: 16,
                cols: 16,
                tiles: 2,
                nets: "en,swap".into(),
                opt: true,
                out: "-".into()
            }
        );
        assert!(parse_args(&sv(&["stats", "gemm", "MNK-SST", "--tiles", "x"])).is_err());
    }

    /// The acceptance benchmark: `tensorlib stats` on the 4×4
    /// output-stationary GEMM must report counters that match the values one
    /// can compute by hand from the design's fixed schedule.
    ///
    /// The design (`gemm:4,4,4`, MNK-SST, 4×4 array) has phases
    /// load=0 / compute=12 / drain=4 (t_extent 10 = k + skew of 3 in each
    /// direction, plus the 2-cycle streaming pipeline before the swap
    /// capture; drain walks 4 result rows out). With `--tiles 2` the
    /// measurement protocol runs `1 + 2×16 = 33` cycles:
    ///
    /// * controller: compute = 2×12 = 24, drain = 2×4 = 8, idle = 1 (the
    ///   start handshake), swaps = 2 (one per tile);
    /// * MACs: a PE at (i,j) sees its first nonzero product only after the
    ///   1-cycle bank-read latency plus max(i,j) systolic hops, so tile 1
    ///   contributes Σ_{i,j} (12 − 1 − max(i,j)) = 142; operands then stay
    ///   latched through the drain phase, so tile 2 contributes 16×12 = 192.
    ///   Total MAC-issue cycles = 334, utilization = 334/(16×33) ≈ 63.3%;
    /// * banks: single-ported feeds are never read and written in the same
    ///   cycle, so 0 conflicts; the only stall is the 1 idle cycle.
    #[test]
    fn run_stats_matches_hand_computed_os_gemm_4x4() {
        let out = run(Command::Stats {
            workload: "gemm:4,4,4".into(),
            dataflow: "MNK-SST".into(),
            rows: 4,
            cols: 4,
            tiles: 2,
            opt: true,
            out: "-".into(),
        })
        .unwrap();
        for needle in [
            "\"cycles\": 33",
            "\"total_mac_cycles\": 334",
            "\"stall_cycles\": 1",
            "\"total_bank_conflicts\": 0",
            "\"compute_cycles\": 24",
            "\"drain_cycles\": 8",
            "\"idle_cycles\": 1",
            "\"swap_pulses\": 2",
        ] {
            assert!(out.contains(needle), "missing {needle} in stats:\n{out}");
        }
        // 334 MACs over 16 PEs × 33 cycles.
        assert!(
            out.contains("\"utilization\": 0.632"),
            "utilization should be ≈0.633:\n{out}"
        );
    }

    #[test]
    fn run_trace_emits_vcd_with_watched_nets() {
        let out = run(Command::Trace {
            workload: "gemm:4,4,4".into(),
            dataflow: "MNK-SST".into(),
            rows: 4,
            cols: 4,
            tiles: 1,
            nets: "en,swap,done".into(),
            opt: true,
            out: "-".into(),
        })
        .unwrap();
        assert!(out.starts_with("$timescale"), "not a VCD:\n{out}");
        for net in ["en", "swap", "done"] {
            assert!(out.contains(&format!(" {net} $end")), "missing var {net}");
        }
        assert!(out.contains("$dumpvars"));
    }

    #[test]
    fn run_trace_unknown_net_is_an_error() {
        let err = run(Command::Trace {
            workload: "gemm:4,4,4".into(),
            dataflow: "MNK-SST".into(),
            rows: 4,
            cols: 4,
            tiles: 1,
            nets: "no_such_net".into(),
            opt: true,
            out: "-".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("no_such_net"), "{err}");
    }

    #[test]
    fn parse_faults_defaults_and_flags() {
        assert_eq!(
            parse_args(&sv(&["faults"])).unwrap(),
            Command::Faults {
                rows: 4,
                cols: 4,
                k: 4,
                faults: 64,
                seed: 1,
                harden: "none".into(),
                workers: 0,
                lanes: 1,
                sweep_acc: false,
                opt: true,
                resume: None,
                chunk_timeout: None,
                out: String::new(),
            }
        );
        assert_eq!(
            parse_args(&sv(&[
                "faults", "--rows", "16", "--cols", "8", "--k", "6", "--faults", "12",
                "--seed", "9", "--harden", "tmr,parity", "--workers", "2", "--lanes", "8",
                "--sweep-acc", "--opt=off",
                "-o", "-",
            ]))
            .unwrap(),
            Command::Faults {
                rows: 16,
                cols: 8,
                k: 6,
                faults: 12,
                seed: 9,
                harden: "tmr,parity".into(),
                workers: 2,
                lanes: 8,
                sweep_acc: true,
                opt: false,
                resume: None,
                chunk_timeout: None,
                out: "-".into(),
            }
        );
        // Malformed arguments are parse errors, not panics.
        assert!(parse_args(&sv(&["faults", "--seed", "banana"])).is_err());
        assert!(parse_args(&sv(&["faults", "--faults"])).is_err());
        assert!(parse_args(&sv(&["faults", "extra-positional"])).is_err());
    }

    #[test]
    fn parse_fuzz_defaults_and_flags() {
        assert_eq!(
            parse_args(&sv(&["fuzz"])).unwrap(),
            Command::Fuzz {
                mode: "both".into(),
                seed: 1,
                seeds: 256,
                cycles: 16,
                workers: 0,
                lanes: 1,
                opt: true,
                resume: None,
                chunk_timeout: None,
                out: String::new(),
            }
        );
        assert_eq!(
            parse_args(&sv(&[
                "fuzz", "--mode", "netlist", "--seed", "7", "--seeds", "99", "--cycles",
                "8", "--workers", "3", "--lanes", "16", "--opt", "off", "-o", "-",
            ]))
            .unwrap(),
            Command::Fuzz {
                mode: "netlist".into(),
                seed: 7,
                seeds: 99,
                cycles: 8,
                workers: 3,
                lanes: 16,
                opt: false,
                resume: None,
                chunk_timeout: None,
                out: "-".into(),
            }
        );
        assert!(parse_args(&sv(&["fuzz", "--seeds", "banana"])).is_err());
        assert!(parse_args(&sv(&["fuzz", "extra-positional"])).is_err());
    }

    #[test]
    fn run_fuzz_reports_zero_findings_on_clean_seeds() {
        let out = run(Command::Fuzz {
            mode: "both".into(),
            seed: 0,
            seeds: 10,
            cycles: 8,
            workers: 2,
            lanes: 4,
            opt: true,
            resume: None,
            chunk_timeout: None,
            out: "-".into(),
        })
        .unwrap();
        assert!(out.contains("\"total_findings\": 0"), "{out}");
        assert!(out.contains("\"netlist\""), "{out}");
        assert!(out.contains("\"pipeline\""), "{out}");
    }

    #[test]
    fn run_fuzz_rejects_bad_mode() {
        let err = run(Command::Fuzz {
            mode: "bogus".into(),
            seed: 0,
            seeds: 1,
            cycles: 1,
            workers: 1,
            lanes: 1,
            opt: true,
            resume: None,
            chunk_timeout: None,
            out: "-".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("--mode"), "{err}");
    }

    fn faults_cmd(harden: &str, faults: usize, out: &str) -> Command {
        Command::Faults {
            rows: 4,
            cols: 4,
            k: 4,
            faults,
            seed: 1,
            harden: harden.into(),
            workers: 1,
            lanes: 1,
            sweep_acc: false,
            opt: true,
            resume: None,
            chunk_timeout: None,
            out: out.into(),
        }
    }

    #[test]
    fn parse_campaign_durability_flags() {
        match parse_args(&sv(&["faults", "--resume", "j/dir", "--chunk-timeout", "30"])).unwrap() {
            Command::Faults {
                resume,
                chunk_timeout,
                ..
            } => {
                assert_eq!(resume.as_deref(), Some("j/dir"));
                assert_eq!(chunk_timeout, Some(30));
            }
            other => panic!("parsed {other:?}"),
        }
        // The SIGINT drain latch is armed exactly when a journal exists to
        // flush: --resume arms it, --chunk-timeout alone does not.
        assert!(wants_interrupt_latch(
            &parse_args(&sv(&["fuzz", "--resume", "j"])).unwrap()
        ));
        assert!(!wants_interrupt_latch(
            &parse_args(&sv(&["explore", "gemm", "--chunk-timeout", "5"])).unwrap()
        ));
        assert!(!wants_interrupt_latch(&Command::Workloads));
    }

    #[test]
    fn parse_rejects_nonsense_campaign_arguments_up_front() {
        for (args, needle) in [
            (vec!["fuzz", "--workers", "0"], "--workers"),
            (vec!["fuzz", "--lanes", "0"], "--lanes"),
            (vec!["fuzz", "--lanes", "70"], "between 1 and 64"),
            (vec!["fuzz", "--seeds", "0"], "--seeds"),
            (vec!["fuzz", "--cycles", "0"], "--cycles"),
            (vec!["faults", "--faults", "0"], "--faults"),
            (vec!["faults", "--k", "0"], "--k"),
            (vec!["faults", "--rows", "0"], "--rows"),
            (vec!["faults", "--cols", "0"], "--cols"),
            (vec!["faults", "--chunk-timeout", "0"], "--chunk-timeout"),
            (vec!["faults", "--resume", ""], "--resume"),
        ] {
            let err = parse_args(&sv(&args)).unwrap_err();
            assert!(err.to_string().contains(needle), "{args:?}: {err}");
        }
        // --faults 0 is only an error for the seeded campaign; with
        // --sweep-acc the sample count is unused.
        assert!(parse_args(&sv(&["faults", "--faults", "0", "--sweep-acc"])).is_ok());
    }

    #[test]
    fn run_faults_resume_with_drifted_config_fails_loudly() {
        let dir = std::env::temp_dir().join(format!("tl_cli_drift_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = |seed: u64| Command::Faults {
            rows: 4,
            cols: 4,
            k: 4,
            faults: 6,
            seed,
            harden: "none".into(),
            workers: 1,
            lanes: 1,
            sweep_acc: false,
            opt: true,
            resume: Some(dir.to_str().unwrap().into()),
            chunk_timeout: None,
            out: "-".into(),
        };
        let clean = run(cmd(1)).unwrap();
        assert!(clean.contains("\"interrupted\": false"), "{clean}");
        assert!(clean.contains("\"journal\": {"), "{clean}");
        // Same --resume dir, different campaign: a loud refusal, never a
        // silent restart.
        let err = run(cmd(2)).unwrap_err();
        assert!(
            err.to_string().contains("different campaign config"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_faults_report_body_is_independent_of_chunk_geometry() {
        let dir = tmpdir("faults_geometry");
        let cmd = |resume: Option<&std::path::Path>, chunk_timeout: Option<u64>| Command::Faults {
            rows: 4,
            cols: 4,
            k: 4,
            faults: 40,
            seed: 1,
            harden: "full".into(),
            workers: 1,
            lanes: 1,
            sweep_acc: false,
            opt: true,
            resume: resume.map(|d| d.to_str().unwrap().into()),
            chunk_timeout,
            out: "-".into(),
        };
        // One derived chunk, three default 16-fault chunks journaled, and
        // the default geometry under a (generous) watchdog without a journal.
        let single = run(cmd(None, None)).unwrap();
        let journaled = run(cmd(Some(&dir), None)).unwrap();
        let watched = run(cmd(None, Some(3600))).unwrap();
        // The campaign body (config + report) is byte-identical; only the
        // provenance journal block and wall times differ.
        let body_of = |doc: &str| {
            let v = tensorlib_obs::json::parse(doc).unwrap();
            format!("{:?}|{:?}", v.get("config"), v.get("report"))
        };
        assert_eq!(body_of(&journaled), body_of(&single));
        assert_eq!(body_of(&watched), body_of(&single));
        assert!(journaled.contains("\"chunks_executed\""), "{journaled}");
        assert!(single.contains("\"journal\": null"), "{single}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn history_hash_is_the_campaign_identity() {
        let dir = tmpdir("history_identity");
        let reports = dir.join("reports");
        let cmd = |seed: u64, workers: usize, resume: bool, name: &str| Command::Faults {
            rows: 2,
            cols: 2,
            k: 2,
            faults: 8,
            seed,
            harden: "none".into(),
            workers,
            lanes: 1,
            sweep_acc: false,
            opt: true,
            resume: resume.then(|| dir.join("journal").to_str().unwrap().into()),
            chunk_timeout: None,
            out: reports.join(name).to_str().unwrap().into(),
        };
        run(cmd(1, 1, false, "clean.json")).unwrap();
        run(cmd(1, 1, true, "resumed.json")).unwrap();
        run(cmd(1, 2, false, "workers.json")).unwrap();
        run(cmd(2, 1, false, "seed.json")).unwrap();
        let hashes: Vec<String> =
            tensorlib_obs::history::read(&reports.join(tensorlib_obs::history::HISTORY_FILE))
                .unwrap()
                .into_iter()
                .map(|entry| entry.config_hash)
                .collect();
        assert_eq!(hashes.len(), 4);
        assert_eq!(hashes[0], hashes[1], "a --resume run is the same campaign");
        assert_eq!(hashes[0], hashes[2], "--workers does not change the campaign");
        assert_ne!(hashes[0], hashes[3], "--seed does");
        // The hash is the journal's canonical config, hashed.
        let cfg = CampaignConfig {
            rows: 2,
            cols: 2,
            k: 2,
            faults: 8,
            seed: 1,
            hardening: Hardening::none(),
            workers: 1,
            lanes: 1,
            opt: true,
        };
        let canonical = FaultCampaign::gemm(&cfg).unwrap().canonical_config();
        assert_eq!(hashes[0], history_config_hash(&canonical));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_faults_emits_classified_report() {
        let out = run(faults_cmd("full", 6, "-")).unwrap();
        for needle in [
            "\"mode\": \"seeded\"",
            "\"detection_coverage\"",
            "\"masked\"",
            "\"hardening\": \"tmr,par,abft\"",
            "\"area_overhead_pct\"",
        ] {
            assert!(out.contains(needle), "missing {needle} in report:\n{out}");
        }
    }

    #[test]
    fn run_faults_unhardened_skips_overhead() {
        let out = run(faults_cmd("none", 4, "-")).unwrap();
        assert!(out.contains("\"hardening_overhead\": null"), "{out}");
    }

    #[test]
    fn run_faults_bad_hardening_and_zero_params_are_errors() {
        let err = run(faults_cmd("voodoo", 4, "-")).unwrap_err();
        assert!(err.to_string().contains("voodoo"), "{err}");
        let err = run(Command::Faults {
            rows: 0,
            cols: 4,
            k: 4,
            faults: 4,
            seed: 1,
            harden: "none".into(),
            workers: 1,
            lanes: 1,
            sweep_acc: false,
            opt: true,
            resume: None,
            chunk_timeout: None,
            out: "-".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("--rows"), "{err}");
        let err = run(faults_cmd("none", 0, "-")).unwrap_err();
        assert!(err.to_string().contains("--faults"), "{err}");
    }

    #[test]
    fn run_faults_unwritable_report_dir_is_a_typed_error() {
        // A parent path that is a *file* makes create_dir_all fail; the CLI
        // must surface a descriptive CliError, not panic.
        let dir = std::env::temp_dir().join(format!("tl_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("not_a_dir");
        std::fs::write(&blocker, b"plain file").unwrap();
        let out = blocker.join("reports").join("r.json");
        let err = run(faults_cmd("none", 4, out.to_str().unwrap())).unwrap_err();
        assert!(
            err.to_string().contains("creating") || err.to_string().contains("writing"),
            "unexpected error text: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_bad_dataflow_is_error() {
        let err = run(Command::Analyze {
            workload: "gemm".into(),
            dataflow: "ZZZ-XXX".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("ZZZ-XXX"));
    }

    #[test]
    fn reports_carry_schema_version_and_provenance() {
        let stats = run(Command::Stats {
            workload: "gemm:4,4,4".into(),
            dataflow: "MNK-SST".into(),
            rows: 4,
            cols: 4,
            tiles: 1,
            opt: true,
            out: "-".into(),
        })
        .unwrap();
        let fuzz = run(Command::Fuzz {
            mode: "netlist".into(),
            seed: 3,
            seeds: 4,
            cycles: 8,
            workers: 1,
            lanes: 1,
            opt: true,
            resume: None,
            chunk_timeout: None,
            out: "-".into(),
        })
        .unwrap();
        let faults = run(faults_cmd("none", 4, "-")).unwrap();
        for (name, doc) in [("stats", &stats), ("fuzz", &fuzz), ("faults", &faults)] {
            for needle in [
                "\"schema_version\": 1",
                "\"provenance\"",
                "\"generator\": \"tensorlib\"",
                "\"pkg_version\"",
                "\"phase_wall_times_us\"",
                "\"total\"",
            ] {
                assert!(doc.contains(needle), "{name} report missing {needle}:\n{doc}");
            }
            // Every emitted document passes the reader-side schema check.
            assert_eq!(tensorlib_obs::check_schema_version(doc).unwrap(), 1, "{name}");
        }
        // The campaign seeds land in the provenance block, machine-readably.
        let seeds_of = |doc: &str| {
            let v = tensorlib_obs::json::parse(doc).unwrap();
            v.get("provenance")
                .and_then(|p| p.get("seeds"))
                .and_then(|s| s.as_array().map(|a| a.iter().filter_map(|x| x.as_u64()).collect::<Vec<_>>()))
                .unwrap()
        };
        assert_eq!(seeds_of(&fuzz), vec![3]);
        assert_eq!(seeds_of(&faults), vec![1]);
    }

    /// Serializes the tests below that flip the process-wide recording
    /// switch, so their sessions never observe each other's spans.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn run_explore_json_report_lists_top_points() {
        let out = run(Command::Explore {
            workload: "gemm:4,4,4".into(),
            top: 3,
            resume: None,
            chunk_timeout: None,
            out: "-".into(),
        })
        .unwrap();
        for needle in [
            "\"schema_version\": 1",
            "\"implementable_designs\"",
            "\"total_cycles\"",
            "\"normalized_perf\"",
            "\"area_mm2\"",
        ] {
            assert!(out.contains(needle), "missing {needle}:\n{out}");
        }
    }

    #[test]
    fn explore_report_records_the_resolved_worker_count() {
        let out = run(Command::Explore {
            workload: "gemm:4,4,4".into(),
            top: 3,
            resume: None,
            chunk_timeout: None,
            out: "-".into(),
        })
        .unwrap();
        let doc = tensorlib_obs::json::parse(&out).unwrap();
        let workers = doc
            .get("provenance")
            .and_then(|p| p.get("workers"))
            .and_then(tensorlib_obs::json::Value::as_u64)
            .expect("provenance.workers");
        // `explore` has no --workers flag: its pool runs one worker per core.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(workers, cores as u64);
    }

    #[test]
    fn run_profile_emits_phase_table_and_trace() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join(format!("tl_profile_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("p.trace.json");
        let out = run(Command::Profile {
            workload: "gemm:2,2,2".into(),
            top: 50,
            rows: 2,
            cols: 2,
            workers: 1,
            out: trace_path.to_str().unwrap().into(),
        })
        .unwrap();
        assert!(!tensorlib_obs::is_enabled(), "profile must restore disabled state");
        for phase in [
            "dse.stt_enumeration",
            "dse.classification",
            "hw.elaboration",
            "hw.flatten",
            "hw.bytecode_compile",
            "sim.functional",
            "sim.measure",
            "sim.cost_model",
        ] {
            assert!(out.contains(phase), "phase table missing {phase}:\n{out}");
        }
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"traceEvents\""), "{trace_path:?} not a trace");
        assert!(trace.contains("\"provenance\""));
        assert_eq!(tensorlib_obs::check_schema_version(&trace).unwrap(), 1);
        let folded = std::fs::read_to_string(dir.join("p.folded")).unwrap();
        assert!(folded.contains("explore"), "folded stacks empty:\n{folded}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_invocation_global_profile_writes_trace_and_keeps_output() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join(format!("tl_inv_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("stats.trace.json");
        let args = sv(&[
            "--profile",
            trace_path.to_str().unwrap(),
            "stats",
            "gemm:4,4,4",
            "MNK-SST",
            "--rows",
            "4",
            "--cols",
            "4",
            "-o",
            "-",
        ]);
        let inv = parse_invocation(&args).unwrap();
        let out = run_invocation(inv).unwrap();
        assert!(!tensorlib_obs::is_enabled(), "--profile must restore disabled state");
        // The command's own output is unchanged and the note rides along.
        assert!(out.contains("\"cycles\""), "{out}");
        assert!(out.contains("wrote profile trace"), "{out}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("hw.elaboration"), "trace missing spans:\n{trace}");
        // The provenance echoes the full argument vector.
        assert!(trace.contains("stats gemm:4,4,4 MNK-SST"), "{trace}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tl_cli_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn parse_status_watch_history_commands() {
        assert_eq!(
            parse_args(&sv(&["status", "j/dir", "--json"])).unwrap(),
            Command::Status {
                dir: "j/dir".into(),
                json: true
            }
        );
        assert_eq!(
            parse_args(&sv(&["watch", "j/dir", "--interval", "0.25"])).unwrap(),
            Command::Watch {
                dir: "j/dir".into(),
                interval_ms: 250
            }
        );
        // history defaults to the reports-dir index; an explicit path and
        // --check/--threshold parse.
        assert_eq!(
            parse_args(&sv(&["history"])).unwrap(),
            Command::History {
                path: "reports/history.jsonl".into(),
                check: false,
                threshold: tensorlib_obs::history::DEFAULT_CHECK_THRESHOLD_PCT,
            }
        );
        assert_eq!(
            parse_args(&sv(&["history", "r", "--check", "--threshold", "2.5"])).unwrap(),
            Command::History {
                path: "r".into(),
                check: true,
                threshold: 2.5
            }
        );
        assert!(parse_args(&sv(&["watch", "d", "--interval", "0"])).is_err());
        assert!(parse_args(&sv(&["history", "--threshold", "-3"])).is_err());
        assert!(parse_args(&sv(&["status"])).is_err());
    }

    #[test]
    fn journaled_faults_writes_telemetry_status_and_history() {
        let dir = tmpdir("telemetry_e2e");
        let journal = dir.join("journal");
        let report = dir.join("reports").join("faults.json");
        let cmd = |journal: &std::path::Path| Command::Faults {
            rows: 2,
            cols: 2,
            k: 2,
            faults: 8,
            seed: 1,
            harden: "none".into(),
            workers: 1,
            lanes: 1,
            sweep_acc: false,
            opt: true,
            resume: Some(journal.to_str().unwrap().into()),
            chunk_timeout: None,
            out: report.to_str().unwrap().into(),
        };
        let note = run(cmd(&journal)).unwrap();
        assert!(note.contains("appended history entry"), "{note}");
        // The campaign dir has a well-formed event log ending in
        // campaign_finished, and a finished status snapshot.
        let events = tensorlib_obs::events::read_events(&journal).unwrap();
        let names: Vec<_> = events
            .iter()
            .map(|e| e.get("event").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(names.first().map(String::as_str), Some("campaign_started"));
        assert_eq!(names.last().map(String::as_str), Some("campaign_finished"));
        let (text, code) = run_coded(Command::Status {
            dir: journal.to_str().unwrap().into(),
            json: false,
        })
        .unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("state       finished"), "{text}");
        // --json emits a parsable snapshot.
        let (json_text, code) = run_coded(Command::Status {
            dir: journal.to_str().unwrap().into(),
            json: true,
        })
        .unwrap();
        assert_eq!(code, 0);
        let v = tensorlib_obs::json::parse(&json_text).unwrap();
        assert_eq!(v.get("state").and_then(|s| s.as_str()), Some("finished"));
        // watch on a finished campaign returns immediately with code 0.
        let (watch_text, code) = run_coded(Command::Watch {
            dir: journal.to_str().unwrap().into(),
            interval_ms: 10,
        })
        .unwrap();
        assert_eq!(code, 0, "{watch_text}");
        assert!(watch_text.contains("campaign finished"), "{watch_text}");
        // A second identical run (fresh journal) appends a comparable entry:
        // history --check compares them without machine-shape false
        // positives and exits 0 (the runs are deterministic, so no deltas).
        run(cmd(&dir.join("journal2"))).unwrap();
        let (check_text, code) = run_coded(Command::History {
            path: dir.join("reports").to_str().unwrap().into(),
            check: true,
            threshold: tensorlib_obs::history::DEFAULT_CHECK_THRESHOLD_PCT,
        })
        .unwrap();
        assert_eq!(code, 0, "{check_text}");
        assert!(check_text.contains("no metric moved"), "{check_text}");
        // The listing shows both runs with their machine shape.
        let (list_text, code) = run_coded(Command::History {
            path: dir.join("reports").to_str().unwrap().into(),
            check: false,
            threshold: tensorlib_obs::history::DEFAULT_CHECK_THRESHOLD_PCT,
        })
        .unwrap();
        assert_eq!(code, 0);
        assert_eq!(list_text.lines().count(), 2, "{list_text}");
        assert!(list_text.contains("lanes=1"), "{list_text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn status_running_snapshot_with_dead_writer_is_interrupted() {
        let dir = tmpdir("status_dead_pid");
        let snapshot = tensorlib_obs::events::StatusSnapshot {
            kind: "faults".to_string(),
            state: "running".to_string(),
            // No live process has this pid (PID_MAX_LIMIT is 2^22 on Linux).
            pid: u32::MAX,
            config_hash: "00ff00ff00ff00ff".to_string(),
            chunks_total: 8,
            chunks_done: 3,
            chunks_replayed: 0,
            chunks_executed: 3,
            outcomes: std::collections::BTreeMap::new(),
            timing: tensorlib_obs::events::StatusTiming::default(),
        };
        snapshot.write(&dir).unwrap();
        let (text, code) = run_coded(Command::Status {
            dir: dir.to_str().unwrap().into(),
            json: false,
        })
        .unwrap();
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("state       interrupted"), "{text}");
        assert!(text.contains("--resume"), "no resume hint:\n{text}");
        // The JSON form substitutes the effective state and carries the hint.
        let (json_text, code) = run_coded(Command::Status {
            dir: dir.to_str().unwrap().into(),
            json: true,
        })
        .unwrap();
        assert_eq!(code, 3);
        let v = tensorlib_obs::json::parse(&json_text).unwrap();
        assert_eq!(
            v.get("state").and_then(|s| s.as_str()),
            Some("interrupted")
        );
        assert!(v.get("resume_hint").is_some(), "{json_text}");
        // watch exits 3 on the same evidence.
        let (_, code) = run_coded(Command::Watch {
            dir: dir.to_str().unwrap().into(),
            interval_ms: 10,
        })
        .unwrap();
        assert_eq!(code, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn history_check_flags_regressions_and_refuses_shape_mismatch() {
        use tensorlib_obs::history::{append, HistoryEntry, HISTORY_FILE};
        let dir = tmpdir("history_check");
        let path = dir.join(HISTORY_FILE);
        let entry = |coverage: f64, lanes: u64| HistoryEntry {
            kind: "faults".to_string(),
            config_hash: "aa".to_string(),
            command: "faults --rows 4".to_string(),
            pkg_version: "0.1.0".to_string(),
            host_cores: 8,
            workers: 1,
            lanes,
            metrics: [("detection_coverage".to_string(), coverage)]
                .into_iter()
                .collect(),
            unix_ms: 1,
            wall_ms: 10,
        };
        append(&path, &entry(0.9, 4)).unwrap();
        append(&path, &entry(0.5, 4)).unwrap(); // -44%: flagged at 10%
        let (text, code) = run_coded(Command::History {
            path: path.to_str().unwrap().into(),
            check: true,
            threshold: 10.0,
        })
        .unwrap();
        assert_eq!(code, 4, "{text}");
        assert!(text.contains("FLAGGED"), "{text}");
        // A lanes mismatch is a loud refusal (exit 1), not a comparison.
        append(&path, &entry(0.5, 8)).unwrap();
        let err = run_coded(Command::History {
            path: path.to_str().unwrap().into(),
            check: true,
            threshold: 10.0,
        })
        .unwrap_err();
        assert!(err.0.contains("machine shapes"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journaled_report_is_byte_identical_with_telemetry_off() {
        // The determinism quarantine, end to end: the report body never
        // depends on whether telemetry was recorded alongside it.
        let dir = tmpdir("telemetry_ab");
        let cfg = CampaignConfig {
            rows: 2,
            cols: 2,
            k: 2,
            faults: 8,
            seed: 1,
            hardening: Hardening::parse("none").unwrap(),
            workers: 1,
            lanes: 1,
            opt: true,
        };
        let on = DurabilityOptions {
            dir: Some(dir.join("on")),
            ..DurabilityOptions::default()
        };
        let off = DurabilityOptions {
            dir: Some(dir.join("off")),
            telemetry_off: true,
            ..DurabilityOptions::default()
        };
        let (report_on, _) = run_gemm_campaign_durable(&cfg, &on).unwrap();
        let (report_off, _) = run_gemm_campaign_durable(&cfg, &off).unwrap();
        assert_eq!(
            serde_json::to_string(&report_on).unwrap(),
            serde_json::to_string(&report_off).unwrap()
        );
        assert!(dir.join("on").join("events.jsonl").exists());
        assert!(!dir.join("off").join("events.jsonl").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
