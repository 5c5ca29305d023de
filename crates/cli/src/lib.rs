//! Command-line front end for the TensorLib accelerator generator.
//!
//! The binary is `tensorlib`; `tensorlib --help` prints every command's
//! synopsis ([`usage`]). Each command's arguments are declared once, in its
//! `…Args` struct: every field names the positional or the flag (one `Flag`
//! entry with its kind and range rule) it is read from, with this command's
//! default. That declaration drives parsing, the rejection of flags a
//! command does not take, the range checks (for parsed and directly built
//! [`Command`]s alike), the synopsis, and the provenance command echo.
//!
//! A global `--profile <out.trace.json>` flag (any command, any position)
//! records framework spans during the run and writes a Chrome Trace Event
//! file next to the command's normal output; it never changes what the
//! command computes. Every JSON report carries a `schema_version` and a
//! run-provenance manifest (see [`tensorlib_obs::Provenance`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tensorlib::cost::{hardening_overhead, Activity, HardeningOverhead};
use tensorlib::dataflow::dse::{find_named, DseConfig};
use tensorlib::dataflow::{Dataflow, LoopSelection, Stt};
use tensorlib::explore::{explore_outcome, ExploreCampaign, ExploreOptions, ExploreRow};
use tensorlib::hw::design::{generate, AcceleratorDesign};
use tensorlib::hw::fault::Hardening;
use tensorlib::hw::opt::{OptOptions, OptStats};
use tensorlib::ir::workloads;
use tensorlib::sim::journal::{self, Campaign};
use tensorlib::sim::resilience::{CampaignConfig, FaultCampaign, ResilienceReport};
use tensorlib::sim::verify::{VerifyCampaign, VerifyConfig};
use tensorlib::sim::{DurabilityOptions, RunStats};
use tensorlib::{Accelerator, ArrayConfig, HwConfig, Kernel, SimConfig, TraceConfig};
use tensorlib_obs::{
    atomic_write, atomic_write_with, JournalProvenance, Provenance, Session, SCHEMA_VERSION,
};

/// The process-wide SIGINT latch campaigns drain on; `main` installs it for
/// `--resume` runs and maps a latched interrupt to exit code 130.
pub use tensorlib::sim::interrupt;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the built-in Table II workloads.
    Workloads,
    /// Print the dataflow analysis for a workload under a dataflow.
    Analyze(AnalyzeArgs),
    /// Generate Verilog.
    Generate(GenerateArgs),
    /// Emit the generated design as an interchange netlist or as Verilog.
    Emit(EmitArgs),
    /// Parse an interchange netlist back and report a summary.
    Parse(ParseArgs),
    /// Verify bit-exactly and report performance.
    Simulate(SimulateArgs),
    /// Sweep the design space and print the best designs.
    Explore(ExploreArgs),
    /// Run a profiled design-space sweep.
    Profile(ProfileArgs),
    /// Measure the generated netlist with hardware counters.
    Stats(StatsArgs),
    /// Trace selected nets into a VCD waveform.
    Trace(TraceArgs),
    /// Run a seeded fault-injection campaign.
    Faults(FaultsArgs),
    /// Run the differential fuzzing campaign.
    Fuzz(FuzzArgs),
    /// Render one status snapshot of a journaled campaign directory.
    Status(StatusArgs),
    /// Poll a journaled campaign directory until the campaign ends.
    Watch(WatchArgs),
    /// List or check the cross-run metrics history.
    History(HistoryArgs),
}

/// Declares argument structs together with their `visit`, so each field is
/// written once: `field: Type = arg` reads it from a positional or a flag
/// (with this command's default), `field: Group` visits a nested group.
macro_rules! arguments {
    (@field $v:ident, $group:expr) => {
        $group.visit($v)
    };
    (@field $v:ident, $slot:expr, $arg:expr) => {
        $v($arg, &mut $slot)
    };
    ($($(#[$doc:meta])* $name:ident {
        $($(#[$field_doc:meta])* $field:ident: $ty:ty $(= $arg:expr)?,)*
    })*) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct $name {
            $($(#[$field_doc])* pub $field: $ty,)*
        }

        impl $name {
            fn visit(&mut self, v: &mut Visitor) {
                $(arguments!(@field v, self.$field $(, $arg)?);)*
            }
        }
    )*};
}

arguments! {
    /// The design group shared by `generate`, `emit`, `stats` and `trace`:
    /// which accelerator to build, and whether to optimize it.
    DesignArgs {
        /// Workload spec (`gemm:64,64,64`).
        workload: String = Arg::Pos("workload", None),
        /// Paper-style dataflow name (`MNK-SST`).
        dataflow: String = Arg::Pos("dataflow", None),
        /// PE array rows.
        rows: usize = Arg::Flag(&ROWS, "16"),
        /// PE array columns.
        cols: usize = Arg::Flag(&COLS, "16"),
        /// Run the netlist optimizer on the generated design (`--opt=off`
        /// keeps the raw generated netlist, byte-identical to older releases).
        opt: bool = Arg::Flag(&OPT, "on"),
    }

    /// The campaign group shared by `faults` and `fuzz`: how a resumable
    /// campaign runs and where it reports. None of it changes what the
    /// campaign computes.
    CampaignArgs {
        /// Worker threads (`None` = one per core).
        workers: Option<usize> = Arg::Flag(&WORKERS, ""),
        /// Simulation lanes per bytecode pass (`1` = scalar engine).
        lanes: usize = Arg::Flag(&LANES, "1"),
        /// Journal directory for crash-safe resume.
        resume: Option<String> = Arg::Flag(&RESUME, ""),
        /// Per-chunk watchdog budget in seconds.
        chunk_timeout: Option<u64> = Arg::Flag(&CHUNK_TIMEOUT, ""),
        /// Report path (`-` for stdout, empty for the `reports/` default).
        out: String = Arg::Flag(&OUT, ""),
    }

    /// The deterministic seeded smoke trace of `emit` and `parse`: one
    /// feature behind two flags that only come as a pair.
    SmokeArgs {
        /// Cycles to run.
        sim_cycles: Option<u64> = Arg::Flag(&SIM_CYCLES, ""),
        /// Where the trace is written.
        trace_out: Option<String> = Arg::Flag(&TRACE_OUT, ""),
    }

    /// `analyze` arguments.
    AnalyzeArgs {
        /// Workload spec.
        workload: String = Arg::Pos("workload", None),
        /// Dataflow name.
        dataflow: String = Arg::Pos("dataflow", None),
    }

    /// `generate` arguments.
    GenerateArgs {
        /// The design to generate.
        design: DesignArgs,
        /// Output path (`-` for stdout).
        out: String = Arg::Flag(&OUT, "-"),
    }

    /// `emit` arguments. Interchange emissions (textual IR or Yosys JSON)
    /// self-check `parse(emit(design))` before any bytes leave the process.
    EmitArgs {
        /// The design to emit.
        design: DesignArgs,
        /// The netlist format.
        format: String = Arg::Choice(&FORMAT, &["text", "yosys-json", "verilog"]),
        /// Smoke trace of the emitted netlist.
        smoke: SmokeArgs,
        /// Output path (`-` for stdout).
        out: String = Arg::Flag(&OUT, "-"),
    }

    /// `parse` arguments: the netlist is re-validated and re-elaborated, and
    /// `opt` re-runs the optimizer over it as an extra oracle.
    ParseArgs {
        /// Input netlist path.
        input: String = Arg::Pos("netlist-file", None),
        /// The netlist format (`auto` sniffs JSON by the leading brace).
        format: String = Arg::Choice(&FORMAT, &["auto", "text", "yosys-json"]),
        /// Re-run the optimizer over the parsed modules and recompile.
        opt: bool = Arg::Flag(&OPT, "on"),
        /// Smoke trace of the parsed netlist.
        smoke: SmokeArgs,
        /// Report path (`-` for stdout).
        out: String = Arg::Flag(&OUT, "-"),
    }

    /// `simulate` arguments.
    SimulateArgs {
        /// Workload spec.
        workload: String = Arg::Pos("workload", None),
        /// Dataflow name.
        dataflow: String = Arg::Pos("dataflow", None),
        /// PE array rows.
        rows: usize = Arg::Flag(&ROWS, "16"),
        /// PE array columns.
        cols: usize = Arg::Flag(&COLS, "16"),
    }

    /// `explore` arguments: the journal half of the campaign group (lanes
    /// do not apply to a sweep, whose pool runs one worker per core).
    ExploreArgs {
        /// Workload spec.
        workload: String = Arg::Pos("workload", None),
        /// How many designs to print.
        top: usize = Arg::Flag(&TOP, "10"),
        /// Journal directory for crash-safe resume.
        resume: Option<String> = Arg::Flag(&RESUME, ""),
        /// Per-chunk watchdog budget in seconds.
        chunk_timeout: Option<u64> = Arg::Flag(&CHUNK_TIMEOUT, ""),
        /// JSON report path (`-` for stdout, empty for the text table).
        out: String = Arg::Flag(&OUT, ""),
    }

    /// `profile` arguments: a sweep with functional verification on, so the
    /// trace covers every pipeline phase, written as a Chrome Trace Event
    /// file plus a folded-stack flamegraph sibling.
    ProfileArgs {
        /// Workload spec.
        workload: String = Arg::Pos("workload", None),
        /// How many phases to list in the breakdown.
        top: usize = Arg::Flag(&TOP, "10"),
        /// PE array rows; the sweep simulates every point, so the default
        /// array is a tractable 4x4.
        rows: usize = Arg::Flag(&ROWS, "4"),
        /// PE array columns.
        cols: usize = Arg::Flag(&COLS, "4"),
        /// Worker threads (`None` = one per core).
        workers: Option<usize> = Arg::Flag(&WORKERS, ""),
        /// Trace output path (`-` for stdout, empty for the `reports/`
        /// default).
        out: String = Arg::Flag(&OUT, ""),
    }

    /// `stats` arguments: a JSON report of measured hardware counters plus
    /// the analytic cross-check.
    StatsArgs {
        /// The design to measure; with `opt` the report carries the pre/post
        /// size census.
        design: DesignArgs,
        /// Controller rounds to measure.
        tiles: u64 = Arg::Flag(&TILES, "2"),
        /// Output path (`-` for stdout, empty for the `reports/` default).
        out: String = Arg::Flag(&OUT, ""),
    }

    /// `trace` arguments.
    TraceArgs {
        /// The design to trace; watched nets survive optimization by the
        /// pass pipeline's preservation contract.
        design: DesignArgs,
        /// Controller rounds to trace.
        tiles: u64 = Arg::Flag(&TILES, "2"),
        /// Comma-separated top-level nets to watch (empty: `en,swap,done`).
        nets: String = Arg::Flag(&NETS, ""),
        /// Output path (`-` for stdout, empty for the `reports/` default).
        out: String = Arg::Flag(&OUT, ""),
    }

    /// `faults` arguments: a campaign on an output-stationary GEMM design
    /// whose report classifies every fault masked/detected/SDC and prices
    /// the hardening's area/power overhead.
    FaultsArgs {
        /// Array rows (and GEMM `m` extent); campaigns clone one interpreter
        /// per fault, so the default array is a small 4x4.
        rows: usize = Arg::Flag(&ROWS, "4"),
        /// Array columns (and GEMM `n` extent).
        cols: usize = Arg::Flag(&COLS, "4"),
        /// GEMM reduction extent.
        k: u64 = Arg::Flag(&K, "4"),
        /// Faults to sample and inject.
        faults: usize = Arg::Flag(&FAULTS, "64"),
        /// Seed for input data and fault sampling.
        seed: u64 = Arg::Flag(&SEED, "1"),
        /// Hardening option list (`tmr,parity,abft`, `full`, `none`).
        harden: String = Arg::Flag(&HARDEN, "none"),
        /// Run the exhaustive accumulator bit-flip sweep (the ABFT acceptance
        /// campaign) instead of seeded sampling.
        sweep_acc: bool = Arg::Flag(&SWEEP_ACC, "off"),
        /// Optimize the campaign design before injecting faults. The pass
        /// pipeline preserves every register, so classification counts are
        /// byte-identical either way (CI asserts exactly that).
        opt: bool = Arg::Flag(&OPT, "on"),
        /// How the campaign runs and where it reports.
        campaign: CampaignArgs,
    }

    /// `fuzz` arguments: random netlists and sampled generation pipelines
    /// through every verification oracle; CI gates on `total_findings`.
    FuzzArgs {
        /// Which campaigns run.
        mode: String = Arg::Choice(&MODE, &["both", "netlist", "pipeline"]),
        /// First seed (inclusive).
        seed: u64 = Arg::Flag(&SEED, "1"),
        /// Seeds per enabled mode.
        seeds: u64 = Arg::Flag(&SEEDS, "256"),
        /// Cycles per netlist differential run.
        cycles: u64 = Arg::Flag(&CYCLES, "16"),
        /// Chain the optimizer equivalence oracle (optimized-vs-unoptimized
        /// lock-step) into both fuzz modes.
        opt: bool = Arg::Flag(&OPT, "on"),
        /// How the campaign runs and where it reports; `lanes` is the width
        /// of the batched-engine oracle (`1` = scalar-only).
        campaign: CampaignArgs,
    }

    /// `status` arguments. Exits 0 finished / 2 running / 3 interrupted; a
    /// `running` snapshot whose writer process is gone counts as
    /// interrupted.
    StatusArgs {
        /// Campaign directory (the `--resume` dir).
        dir: String = Arg::Pos("campaign-dir", None),
        /// Emit the raw JSON snapshot instead of the human table.
        json: bool = Arg::Flag(&JSON, "off"),
    }

    /// `watch` arguments. Exits 0 when the campaign finishes, 3 when it is
    /// interrupted or its writer dies.
    WatchArgs {
        /// Campaign directory (the `--resume` dir).
        dir: String = Arg::Pos("campaign-dir", None),
        /// Poll interval in seconds.
        interval: f64 = Arg::Flag(&INTERVAL, "1"),
    }

    /// `history` arguments. `check` compares the newest run against the
    /// most recent earlier run with the same config hash and exits 4 when a
    /// metric moved beyond `threshold`; runs from different machine shapes
    /// are refused.
    HistoryArgs {
        /// History file, or a reports directory containing `history.jsonl`.
        path: String = Arg::Pos("file-or-reports-dir", Some("reports/history.jsonl")),
        /// Compare newest vs the most recent same-config run.
        check: bool = Arg::Flag(&CHECK, "off"),
        /// Flagging threshold for `--check`, in percent relative delta; the
        /// default is `history::DEFAULT_CHECK_THRESHOLD_PCT` (a test pins
        /// the two equal).
        threshold: f64 = Arg::Flag(&THRESHOLD, "10"),
    }
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

/// Wraps any pipeline error as a [`CliError`].
fn cli_err(err: impl fmt::Display) -> CliError {
    CliError(err.to_string())
}

/// How a flag is spelled with its value.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Present or absent; no value.
    Switch,
    /// `on` or `off`, also spelled `--flag=on`.
    OnOff,
    /// A value, shown in the synopsis as this placeholder.
    Value(&'static str),
}

/// The range or format a flag's value must satisfy.
#[derive(Clone, Copy)]
enum Rule {
    Any,
    /// An integer of at least this much.
    Min(u64),
    /// An integer in this inclusive range.
    Range(u64, u64),
    NonEmpty,
    /// A finite number above zero.
    Positive,
    /// A finite number of at least zero.
    NonNegative,
    /// A hardening option list.
    Hardening,
}

impl Rule {
    fn check(self, raw: &str) -> Result<(), String> {
        let int = raw.parse::<u64>().ok();
        let num = raw.parse::<f64>().ok().filter(|v| v.is_finite());
        match self {
            Rule::Min(lo) if int.is_none_or(|v| v < lo) => Err(format!("must be at least {lo}")),
            Rule::Range(lo, hi) if int.is_none_or(|v| !(lo..=hi).contains(&v)) => {
                Err(format!("must be between {lo} and {hi} (got {raw})"))
            }
            Rule::NonEmpty if raw.is_empty() => Err("needs a value".to_string()),
            Rule::Positive if num.is_none_or(|v| v <= 0.0) => {
                Err("must be a positive number".to_string())
            }
            Rule::NonNegative if num.is_none_or(|v| v < 0.0) => {
                Err("must be a non-negative number".to_string())
            }
            Rule::Hardening => Hardening::parse(raw).map(drop),
            _ => Ok(()),
        }
    }
}

/// One command-line flag: the one place its spelling, kind and rule are
/// written. Which commands take it, and with what default, is declared in
/// their `…Args` structs.
struct Flag {
    name: &'static str,
    alias: Option<&'static str>,
    kind: Kind,
    rule: Rule,
    /// Run-shape flags change how a run executes, never what it computes,
    /// so the provenance echo leaves them out.
    run_shape: bool,
}

const fn flag(name: &'static str, kind: Kind, rule: Rule) -> Flag {
    Flag {
        name,
        alias: None,
        kind,
        rule,
        run_shape: false,
    }
}

const fn run_shape(flag: Flag) -> Flag {
    Flag {
        run_shape: true,
        ..flag
    }
}

use Kind::{OnOff, Switch, Value as V};

static OUT: Flag = run_shape(Flag {
    alias: Some("--out"),
    ..flag("-o", V("FILE"), Rule::Any)
});
static ROWS: Flag = flag("--rows", V("N"), Rule::Min(1));
static COLS: Flag = flag("--cols", V("N"), Rule::Min(1));
static OPT: Flag = flag("--opt", OnOff, Rule::Any);
static FORMAT: Flag = flag("--format", V("FORMAT"), Rule::Any);
static SIM_CYCLES: Flag = flag("--sim-cycles", V("C"), Rule::Min(1));
static TRACE_OUT: Flag = flag("--trace-out", V("f.trace"), Rule::NonEmpty);
static TOP: Flag = flag("--top", V("N"), Rule::Any);
static TILES: Flag = flag("--tiles", V("T"), Rule::Min(1));
static NETS: Flag = flag("--nets", V("a,b,c"), Rule::Any);
static K: Flag = flag("--k", V("K"), Rule::Min(1));
static FAULTS: Flag = flag("--faults", V("N"), Rule::Any);
static SEED: Flag = flag("--seed", V("S"), Rule::Any);
static HARDEN: Flag = flag("--harden", V("tmr,parity,abft"), Rule::Hardening);
static SWEEP_ACC: Flag = flag("--sweep-acc", Switch, Rule::Any);
static MODE: Flag = flag("--mode", V("MODE"), Rule::Any);
static SEEDS: Flag = flag("--seeds", V("N"), Rule::Min(1));
static CYCLES: Flag = flag("--cycles", V("C"), Rule::Min(1));
static WORKERS: Flag = run_shape(flag("--workers", V("W"), Rule::Min(1)));
static LANES: Flag = run_shape(flag("--lanes", V("L"), Rule::Range(1, 64)));
static RESUME: Flag = run_shape(flag("--resume", V("DIR"), Rule::NonEmpty));
static CHUNK_TIMEOUT: Flag = run_shape(flag("--chunk-timeout", V("S"), Rule::Min(1)));
static JSON: Flag = flag("--json", Switch, Rule::Any);
static INTERVAL: Flag = flag("--interval", V("SECONDS"), Rule::Positive);
static CHECK: Flag = flag("--check", Switch, Rule::Any);
static THRESHOLD: Flag = flag("--threshold", V("PCT"), Rule::NonNegative);
/// The global flags: any command, any position (see [`parse_invocation`]
/// and [`is_help`]).
static PROFILE: Flag = run_shape(flag("--profile", V("f.trace.json"), Rule::Any));
static HELP: Flag = Flag {
    alias: Some("-h"),
    ..flag("--help", Switch, Rule::Any)
};

/// One argument in a command's declaration.
enum Arg {
    /// A positional, with its default when it may be omitted.
    Pos(&'static str, Option<&'static str>),
    /// A flag with this command's default (empty: the field's blank value,
    /// which for an optional flag is "omitted").
    Flag(&'static Flag, &'static str),
    /// A flag taking one of these values, the first being the default.
    Choice(&'static Flag, &'static [&'static str]),
}

/// A typed argument field, read from and written back to its text.
trait Slot {
    /// Sets the field from `raw`; `false` when `raw` is malformed.
    fn set(&mut self, raw: &str) -> bool;
    /// The field as text, `None` for an omitted optional flag.
    fn get(&self) -> Option<String>;
}

macro_rules! parsed_slot {
    ($($t:ty),*) => {$(
        impl Slot for $t {
            fn set(&mut self, raw: &str) -> bool {
                raw.parse().map(|v| *self = v).is_ok()
            }
            fn get(&self) -> Option<String> {
                Some(self.to_string())
            }
        }
    )*};
}

parsed_slot!(usize, u64, f64, String);

impl Slot for bool {
    fn set(&mut self, raw: &str) -> bool {
        *self = raw == "on";
        matches!(raw, "on" | "off")
    }
    fn get(&self) -> Option<String> {
        Some(if *self { "on" } else { "off" }.to_string())
    }
}

impl<T: Slot + Default> Slot for Option<T> {
    fn set(&mut self, raw: &str) -> bool {
        self.get_or_insert_with(T::default).set(raw)
    }
    fn get(&self) -> Option<String> {
        self.as_ref().and_then(T::get)
    }
}

/// A pass over a command's declaration: parsing, checking, the synopsis and
/// the provenance echo are each one.
type Visitor<'a> = dyn FnMut(Arg, &mut dyn Slot) + 'a;

impl CampaignArgs {
    /// Durability options from `--resume` / `--chunk-timeout`; both absent
    /// runs the campaign as one unjournaled chunk.
    fn durability(&self) -> DurabilityOptions {
        DurabilityOptions {
            dir: self.resume.as_ref().map(PathBuf::from),
            chunk_timeout: self.chunk_timeout.map(Duration::from_secs),
            ..DurabilityOptions::default()
        }
    }
}

/// Makes a command with blank arguments, for its declaration to fill in.
type Blank = fn() -> Command;

/// Every command by name.
const COMMANDS: [(&str, Blank); 15] = [
    ("workloads", || Command::Workloads),
    ("analyze", || Command::Analyze(AnalyzeArgs::default())),
    ("generate", || Command::Generate(GenerateArgs::default())),
    ("emit", || Command::Emit(EmitArgs::default())),
    ("parse", || Command::Parse(ParseArgs::default())),
    ("simulate", || Command::Simulate(SimulateArgs::default())),
    ("explore", || Command::Explore(ExploreArgs::default())),
    ("stats", || Command::Stats(StatsArgs::default())),
    ("trace", || Command::Trace(TraceArgs::default())),
    ("faults", || Command::Faults(FaultsArgs::default())),
    ("fuzz", || Command::Fuzz(FuzzArgs::default())),
    ("profile", || Command::Profile(ProfileArgs::default())),
    ("status", || Command::Status(StatusArgs::default())),
    ("watch", || Command::Watch(WatchArgs::default())),
    ("history", || Command::History(HistoryArgs::default())),
];

impl Command {
    /// Visits the command's declaration: its positionals, then its flags,
    /// each flag with this command's default.
    fn visit(&mut self, v: &mut Visitor) {
        match self {
            Command::Workloads => {}
            Command::Analyze(a) => a.visit(v),
            Command::Generate(a) => a.visit(v),
            Command::Emit(a) => a.visit(v),
            Command::Parse(a) => a.visit(v),
            Command::Simulate(a) => a.visit(v),
            Command::Explore(a) => a.visit(v),
            Command::Profile(a) => a.visit(v),
            Command::Stats(a) => a.visit(v),
            Command::Trace(a) => a.visit(v),
            Command::Faults(a) => a.visit(v),
            Command::Fuzz(a) => a.visit(v),
            Command::Status(a) => a.visit(v),
            Command::Watch(a) => a.visit(v),
            Command::History(a) => a.visit(v),
        }
    }

    /// Collects what `f` makes of each argument, over a copy of the command.
    fn each<T>(&self, mut f: impl FnMut(Arg, &mut dyn Slot) -> Option<T>) -> Vec<T> {
        let mut out = Vec::new();
        self.clone()
            .visit(&mut |arg, slot| out.extend(f(arg, slot)));
        out
    }

    /// The command's name on the command line.
    fn name(&self) -> &'static str {
        let this = std::mem::discriminant(self);
        COMMANDS
            .iter()
            .find(|(_, blank)| std::mem::discriminant(&blank()) == this)
            .map_or("", |(name, _)| *name)
    }

    /// The flags the command takes, in declaration order.
    fn flags(&self) -> Vec<&'static Flag> {
        self.each(|arg, _| match arg {
            Arg::Flag(flag, _) | Arg::Choice(flag, _) => Some(flag),
            Arg::Pos(..) => None,
        })
    }

    /// Checks every flag's rule, and the two rules that span flags. `run`
    /// applies this to every command, so a [`Command`] built directly is held
    /// to the same rules as a parsed one. The error names the first offending
    /// flag.
    fn check(&self) -> Result<(), CliError> {
        let errors = self.each(|arg, slot| match (arg, slot.get()) {
            (Arg::Flag(flag, _), Some(raw)) => {
                let why = flag.rule.check(&raw).err()?;
                Some(format!("{} {why}", flag.name))
            }
            (Arg::Choice(flag, options), Some(raw)) if !options.contains(&raw.as_str()) => {
                let options = options.join("|");
                Some(format!("{} expects {options} (got {raw:?})", flag.name))
            }
            _ => None,
        });
        if let Some(err) = errors.into_iter().next() {
            return Err(CliError(err));
        }
        let smoke = match self {
            Command::Faults(a) if !a.sweep_acc && a.faults == 0 => {
                return Err(CliError(format!(
                    "{} must be at least 1 (or pass {} for the exhaustive accumulator sweep)",
                    FAULTS.name, SWEEP_ACC.name
                )))
            }
            Command::Emit(EmitArgs { smoke, .. }) | Command::Parse(ParseArgs { smoke, .. }) => {
                smoke
            }
            _ => return Ok(()),
        };
        // The smoke trace is one feature behind two flags: requiring the
        // pair keeps "trace requested but silently skipped" unrepresentable.
        match (smoke.sim_cycles.is_some(), smoke.trace_out.is_some()) {
            (true, false) => Err(format!("{} needs {}", SIM_CYCLES.name, TRACE_OUT.name)),
            (false, true) => Err(format!("{} needs {}", TRACE_OUT.name, SIM_CYCLES.name)),
            _ => Ok(()),
        }
        .map_err(CliError)
    }

    /// The synopsis line `tensorlib <name> <positionals> [flags]`, wrapped.
    fn synopsis(&self) -> String {
        let words = self.each(|arg, _| {
            Some(match arg {
                Arg::Pos(name, None) => format!("<{name}>"),
                Arg::Pos(name, Some(_)) => format!("[{name}]"),
                Arg::Choice(flag, options) => format!("[{} {}]", flag.name, options.join("|")),
                Arg::Flag(flag, _) => match flag.kind {
                    Switch => format!("[{}]", flag.name),
                    OnOff => format!("[{} on|off]", flag.name),
                    V(meta) => format!("[{} {meta}]", flag.name),
                },
            })
        });
        let head = format!("tensorlib {:8}", self.name());
        let mut lines = vec![head.clone()];
        for word in words {
            if lines.last().map_or(0, String::len) + 1 + word.len() > 76 {
                lines.push(" ".repeat(head.len()));
            }
            let line = lines.last_mut().expect("never empty");
            line.push(' ');
            line.push_str(&word);
        }
        lines.join("\n  ")
    }

    /// The command line that reproduces what this command computes: every
    /// argument except the run-shape flags. Report provenance records it.
    fn echo(&self) -> String {
        let mut words = self.each(|arg, slot| {
            let value = slot.get().filter(|v| !v.is_empty())?;
            match arg {
                Arg::Pos(..) => Some(value),
                Arg::Flag(flag, _) if flag.run_shape => None,
                Arg::Flag(flag, _) if flag.kind == Switch => {
                    (value == "on").then(|| flag.name.to_string())
                }
                Arg::Flag(flag, _) | Arg::Choice(flag, _) => Some(format!("{} {value}", flag.name)),
            }
        });
        words.insert(0, self.name().to_string());
        words.join(" ")
    }
}

/// The usage text: the synopsis of every command, generated from the
/// declarations, then the prose.
pub fn usage() -> String {
    let synopses: Vec<String> = COMMANDS
        .iter()
        .map(|(_, blank)| blank().synopsis())
        .collect();
    let V(meta) = PROFILE.kind else {
        unreachable!("{} takes a value", PROFILE.name)
    };
    format!(
        "usage:\n  {}\n\nglobal flags (any command):\n  {} <{meta}>   {USAGE_PROSE}",
        synopses.join("\n  "),
        PROFILE.name,
    )
}

/// Whether `arg`, the first argument, asks for the usage text.
pub fn is_help(arg: &str) -> bool {
    arg == HELP.name || HELP.alias == Some(arg)
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] on malformed input, including a flag the command
/// does not take (the error names both).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some((name, rest)) = args.split_first() else {
        return Err(CliError(usage()));
    };
    let Some((_, blank)) = COMMANDS.iter().find(|(n, _)| n == name) else {
        return Err(CliError(format!("unknown command {name:?}\n\n{}", usage())));
    };
    let mut cmd = blank();
    let synopsis = cmd.synopsis();
    let bad = |msg: String| CliError(format!("{msg}\nusage:\n  {synopsis}"));
    let declared = cmd.flags();
    let (mut positionals, mut given) = (Vec::new(), Vec::new());
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            positionals.push(arg.as_str());
            continue;
        }
        let (spelled, inline) = match arg.split_once('=') {
            Some((spelled, value)) => (spelled, Some(value)),
            None => (arg.as_str(), None),
        };
        let flag = declared
            .iter()
            .find(|f| {
                (f.name == spelled || f.alias == Some(spelled))
                    && (inline.is_none() || f.kind == OnOff)
            })
            .ok_or_else(|| bad(format!("{name} does not take {arg}")))?;
        let value = match (inline, flag.kind) {
            (Some(value), _) => value,
            (None, Switch) => "on",
            (None, _) => rest
                .next()
                .map(String::as_str)
                .ok_or_else(|| bad(format!("flag {arg} needs a value")))?,
        };
        given.push((flag.name, value));
    }
    // Fill the blank command: given values where present, else defaults.
    let mut positionals = positionals.into_iter();
    let mut errors = Vec::new();
    cmd.visit(&mut |arg, slot| {
        let (label, raw) = match arg {
            Arg::Pos(pos, default) => match positionals.next().or(default) {
                Some(raw) => (pos, raw),
                None => return errors.push(format!("missing <{pos}>")),
            },
            Arg::Flag(flag, default) => match given.iter().rfind(|(n, _)| *n == flag.name) {
                Some(&(_, raw)) => (flag.name, raw),
                None if default.is_empty() => return,
                None => (flag.name, default),
            },
            Arg::Choice(flag, options) => {
                let given = given.iter().rfind(|(n, _)| *n == flag.name);
                (flag.name, given.map_or(options[0], |&(_, raw)| raw))
            }
        };
        if !slot.set(raw) {
            errors.push(format!("{label} got a malformed value {raw:?}"));
        }
    });
    errors.extend(
        positionals
            .next()
            .map(|extra| format!("unexpected argument {extra:?}")),
    );
    if let Some(err) = errors.into_iter().next() {
        return Err(bad(format!("{name}: {err}")));
    }
    cmd.check()?;
    Ok(cmd)
}

/// A fully parsed invocation: the command plus global flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// `--profile <path>`: record framework spans during the run and write a
    /// Chrome Trace Event file there afterwards.
    pub profile: Option<String>,
    /// The command itself.
    pub command: Command,
}

/// Parses the argument list (without the program name), extracting global
/// flags (`--profile <path>`) before command parsing. This is what `main`
/// calls; [`parse_args`] stays available for command-only parsing.
///
/// # Errors
///
/// Returns [`CliError`] with a usage message on malformed input.
pub fn parse_invocation(args: &[String]) -> Result<Invocation, CliError> {
    let (mut rest, mut profile) = (args.to_vec(), None);
    while let Some(i) = rest.iter().position(|arg| arg == PROFILE.name) {
        let missing = || CliError(format!("{} needs a trace output path", PROFILE.name));
        profile = Some(rest.get(i + 1).cloned().ok_or_else(missing)?);
        rest.drain(i..i + 2);
    }
    Ok(Invocation {
        profile,
        command: parse_args(&rest)?,
    })
}

/// The hand-written half of [`usage`], after the generated synopsis.
const USAGE_PROSE: &str = "record framework spans during the run and write
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
    // Each workload's default sizes (which also give its arity) and its
    // constructor.
    type Build = fn(&[u64]) -> Kernel;
    let (defaults, build): (&[u64], Build) = match name {
        "gemm" => (&[64, 64, 64], |s| workloads::gemm(s[0], s[1], s[2])),
        "batched-gemv" => (&[64, 64, 64], |s| workloads::batched_gemv(s[0], s[1], s[2])),
        // The ResNet layer-2 preset.
        "conv2d" => (&[64, 64, 56, 56, 3, 3], |s| {
            workloads::conv2d(s[0], s[1], s[2], s[3], s[4], s[5])
        }),
        "depthwise" => (&[64, 56, 56, 3, 3], |s| {
            workloads::depthwise_conv(s[0], s[1], s[2], s[3], s[4])
        }),
        "mttkrp" => (&[32; 4], |s| workloads::mttkrp(s[0], s[1], s[2], s[3])),
        "ttmc" => (&[16; 5], |s| workloads::ttmc(s[0], s[1], s[2], s[3], s[4])),
        other => {
            return Err(CliError(format!(
                "unknown workload {other:?}\n\n{}",
                usage()
            )))
        }
    };
    match sizes {
        None => Ok(build(defaults)),
        Some(s) if s.len() == defaults.len() => Ok(build(&s)),
        Some(s) => Err(CliError(format!(
            "{name} takes {} sizes, got {}",
            defaults.len(),
            s.len()
        ))),
    }
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
/// the worker pool runs it. Phase wall times come from `session` (empty
/// unless spans were recorded), plus the `total` measured since `started`.
fn provenance(
    echo: &str,
    seeds: Vec<u64>,
    workers: usize,
    started: Instant,
    session: &Session,
) -> Provenance {
    let mut p = Provenance::new(echo);
    p.seeds = seeds;
    p.workers = resolved_workers(workers);
    p.phase_wall_times_us = session
        .phase_totals()
        .into_iter()
        .map(|(name, (_count, total))| (name, total))
        .collect();
    p.phase_wall_times_us
        .insert("total".to_string(), started.elapsed().as_micros() as u64);
    p
}

/// The spans recorded so far when a `--profile` run has the recorder on;
/// empty otherwise.
fn live_session() -> Session {
    if tensorlib_obs::is_enabled() {
        tensorlib_obs::snapshot()
    } else {
        Session::default()
    }
}

/// Runs `f` with span recording on and returns its result with the drained
/// session, leaving the recorder as it found it.
fn recorded<T>(f: impl FnOnce() -> T) -> (T, Session) {
    let was_enabled = tensorlib_obs::is_enabled();
    tensorlib_obs::enable();
    let out = f();
    let session = tensorlib_obs::drain();
    if !was_enabled {
        tensorlib_obs::disable();
    }
    (out, session)
}

/// The worker count a pool runs for a requested count (`0` = one per core).
fn resolved_workers(requested: usize) -> usize {
    tensorlib::linalg::par::effective_workers(requested, usize::MAX)
}

/// An array shape with every other hardware knob at its default.
fn hw_config(rows: usize, cols: usize) -> HwConfig {
    HwConfig {
        array: ArrayConfig { rows, cols },
        ..HwConfig::default()
    }
}

/// Where and how a campaign command reports.
struct CampaignOutput<'a> {
    /// The provenance command echo.
    echo: String,
    /// Seeds the campaign consumed.
    seeds: Vec<u64>,
    /// Workers, lanes (`0` = not applicable), journal and report path.
    args: &'a CampaignArgs,
    /// Where the report lands when `-o` is not given.
    default_path: String,
    /// What the report is, for the `wrote … to …` note.
    what: &'a str,
    started: Instant,
}

/// Wraps a finished campaign run into its JSON document (built by `doc`
/// from the report, the provenance, whether the run was interrupted, and
/// the resume hint), emits it, and, unless the run was interrupted, appends
/// the campaign's history metrics to the `history.jsonl` next to the report.
/// The history entry is keyed by the campaign's journal canonical config,
/// so a clean run, its `--resume` re-run, and a run with different
/// `--workers` share one series.
///
/// A report bound for a file is serialized straight into it
/// ([`emit_report`]), so its text never sits in memory whole: faults-tmr's
/// is 12 MB, about half of what the rest of that run holds at its peak.
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
    let args = output.args;
    let metrics = (!stats.interrupted).then(|| C::history_metrics(&report));
    let mut provenance = provenance(
        &output.echo,
        output.seeds,
        args.workers.unwrap_or(0),
        output.started,
        &live_session(),
    );
    provenance.lanes = args.lanes;
    // The journal block records how much of the campaign was replayed
    // versus executed; `null` on non-journaled runs.
    provenance.journal = args.resume.as_ref().map(|dir| JournalProvenance {
        dir: dir.clone(),
        chunks_total: stats.chunks_total,
        chunks_replayed: stats.chunks_replayed,
        chunks_executed: stats.chunks_executed,
    });
    let resume_hint = stats.interrupted.then(|| match &args.resume {
        Some(dir) => format!(
            "campaign interrupted; re-run the same command with --resume {dir} to finish"
        ),
        None => "campaign interrupted before completion".to_string(),
    });
    let doc = doc(report, provenance.clone(), stats.interrupted, resume_hint);
    let msg = emit_report(
        &args.out,
        &output.default_path,
        Report::Json(&doc),
        wrote(output.what),
    )?;
    let history_note = match metrics {
        Some(metrics) => append_history(
            resolved_report_path(&args.out, &output.default_path).as_deref(),
            C::KIND,
            &canonical,
            &provenance,
            metrics,
            output.started.elapsed().as_millis() as u64,
        ),
        None => String::new(),
    };
    Ok(msg + &history_note)
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

/// What a command reports: text it already built, or a document written as
/// pretty JSON plus a newline.
enum Report<'a> {
    Text(String),
    Json(&'a dyn serde::Serialize),
}

/// For `-`, hands the report's text back for the caller to print (text
/// uncopied); otherwise writes it to `out` (or `default_path` when `out` is
/// empty), creating parent directories, and returns `note` of the path.
///
/// The file write is atomic (tmp + fsync + rename): a reader — or a crash
/// or a full disk mid-write — never sees a half-written report where a
/// previous run's good one stood. A JSON document is serialized straight
/// into the temp file through a draining [`serde::JsonWriter`]. The
/// `report.write` span covers the write, sync and rename, `report.serialize`
/// the serialization within it, and the `report.bytes` counter adds the
/// file's length.
fn emit_report(
    out: &str,
    default_path: &str,
    report: Report<'_>,
    note: impl FnOnce(&str) -> String,
) -> Result<String, CliError> {
    let Some(path) = resolved_report_path(out, default_path) else {
        return match report {
            Report::Text(text) => Ok(text),
            Report::Json(doc) => {
                let _span = tensorlib_obs::span("report.serialize");
                let text = serde_json::to_string_pretty(doc)
                    .map_err(|err| CliError(format!("serializing report: {err}")))?;
                Ok(text + "\n")
            }
        };
    };
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|err| CliError(format!("creating {}: {err}", parent.display())))?;
        }
    }
    let _span = tensorlib_obs::span("report.write");
    let bytes = atomic_write_with(&path, |file| match report {
        Report::Text(text) => file.write_all(text.as_bytes()).map(|()| text.len() as u64),
        Report::Json(doc) => {
            let _span = tensorlib_obs::span("report.serialize");
            let mut w = serde::JsonWriter::pretty_into(file);
            doc.serialize(&mut w);
            let written = w.end()?;
            file.write_all(b"\n")?;
            Ok(written + 1)
        }
    })
    .map_err(|err| CliError(format!("writing {path}: {err}")))?;
    tensorlib_obs::counter_add("report.bytes", bytes);
    Ok(note(&path))
}

/// The note of a report file write: `wrote <what> to <path>`.
fn wrote(what: &str) -> impl FnOnce(&str) -> String + '_ {
    move |path| format!("wrote {what} to {path}\n")
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
    // A report sent to a device or a FIFO (`-o /dev/null`) sits in no
    // reports directory to index.
    if !std::fs::metadata(report_path).is_ok_and(|meta| meta.is_file()) {
        return String::new();
    }
    let dir = std::path::Path::new(report_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), std::path::Path::to_path_buf);
    let path = dir.join(tensorlib_obs::history::HISTORY_FILE);
    let entry = tensorlib_obs::history::HistoryEntry {
        schema_version: tensorlib_obs::history::HISTORY_SCHEMA_VERSION,
        kind: kind.to_string(),
        config_hash: history_config_hash(canonical_config),
        command: provenance.command.clone(),
        pkg_version: provenance.pkg_version.clone(),
        host_cores: provenance.host_cores as u64,
        workers: provenance.workers as u64,
        lanes: provenance.lanes as u64,
        metrics,
        timing: tensorlib_obs::history::HistoryTiming {
            unix_ms: tensorlib_obs::events::unix_ms(),
            wall_ms,
        },
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
    let mut snapshot = StatusSnapshot::read(std::path::Path::new(dir))
        .map_err(|err| CliError(format!("reading campaign status in {dir}: {err}")))?;
    snapshot.state = effective_status_state(&snapshot);
    let state = snapshot.state.clone();
    let code = match state.as_str() {
        "finished" => 0u8,
        "running" => 2,
        _ => 3,
    };
    if json {
        let mut w = serde::JsonWriter::pretty();
        serde::Serialize::serialize(&snapshot, &mut w);
        if state == "interrupted" {
            w.reopen('}');
            w.key("resume_hint").str(&status_resume_hint(dir));
            w.close('}');
        }
        return Ok((w.finish() + "\n", code));
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
fn run_watch(dir: &str, interval: f64) -> Result<(String, u8), CliError> {
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
                std::thread::sleep(Duration::from_secs_f64(interval));
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
    let mut sim = tensorlib::hw::interp::Interpreter::new(flat.clone());
    let mut rng = tensorlib::linalg::rng::SplitMix64::new(0x7E57_0A7C_0000_0001);
    let mut text = String::new();
    for cycle in 0..cycles {
        sim.poke_by_id(flat.inputs().iter().map(|&id| (id, rng.next_u64())));
        sim.step();
        for &id in flat.outputs() {
            let name = &flat.nets()[id].name;
            text.push_str(&format!("{cycle} {name}={}\n", sim.peek(name)));
        }
    }
    text
}

/// The single-design pipeline the design commands share: resolve the
/// workload, look up the named dataflow, generate, validate, and with `opt`
/// optimize and validate again. Returns the kernel, the design, and the
/// optimizer's size census when it ran.
fn build_design(d: &DesignArgs) -> Result<(Kernel, AcceleratorDesign, Option<OptStats>), CliError> {
    let kernel = resolve_workload(&d.workload)?;
    let df = find_named(&kernel, &d.dataflow, &DseConfig::default()).map_err(cli_err)?;
    let mut design = generate(&df, &hw_config(d.rows, d.cols)).map_err(cli_err)?;
    design.validate().map_err(cli_err)?;
    let opt_stats = d.opt.then(|| design.optimize(&OptOptions::default()));
    if opt_stats.is_some() {
        design.validate().map_err(cli_err)?;
    }
    Ok((kernel, design, opt_stats))
}

/// Runs the smoke trace when the pair of flags asked for one, returning the
/// note to print.
fn write_smoke_trace(
    smoke: &SmokeArgs,
    flat: impl FnOnce() -> Result<tensorlib::hw::interp::FlatDesign, CliError>,
) -> Result<String, CliError> {
    let (Some(cycles), Some(path)) = (smoke.sim_cycles, &smoke.trace_out) else {
        return Ok(String::new());
    };
    let trace = smoke_trace(flat()?, cycles);
    atomic_write(path, trace.as_bytes())
        .map_err(|err| CliError(format!("writing {path}: {err}")))?;
    Ok(format!("wrote {cycles}-cycle smoke trace to {path}\n"))
}

/// Executes a parsed command, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError`] when the command breaks a flag rule or the
/// pipeline fails (unknown dataflow, unwireable design, simulation
/// mismatch).
pub fn run(cmd: Command) -> Result<String, CliError> {
    run_coded(cmd).map(|(text, _)| text)
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
    cmd.check()?;
    let echo = cmd.echo();
    let text = match cmd {
        Command::Status(a) => return run_status(&a.dir, a.json),
        Command::Watch(a) => return run_watch(&a.dir, a.interval),
        Command::History(a) => return run_history(&a.path, a.check, a.threshold),
        Command::Workloads => workloads::table2_catalog()
            .iter()
            .map(|k| format!("{k}\n"))
            .collect(),
        Command::Analyze(a) => {
            let kernel = resolve_workload(&a.workload)?;
            let df = find_named(&kernel, &a.dataflow, &DseConfig::default()).map_err(cli_err)?;
            format!("{df}\n")
        }
        Command::Generate(a) => {
            let (_, design, _) = build_design(&a.design)?;
            let verilog = tensorlib::hw::verilog::emit_design(&design);
            let lines = verilog.lines().count();
            emit_report(&a.out, "", Report::Text(verilog), |path| {
                format!("wrote {path}: {lines} lines, top module {}\n", design.top())
            })?
        }
        Command::Emit(a) => run_emit(a)?,
        Command::Parse(a) => run_parse(a)?,
        Command::Simulate(a) => {
            let kernel = resolve_workload(&a.workload)?;
            let acc = Accelerator::builder(kernel)
                .dataflow_name(&a.dataflow)
                .array(a.rows, a.cols)
                .build()
                .map_err(cli_err)?;
            let run = acc.verify(42).map_err(cli_err)?;
            let perf = acc.performance(&SimConfig::paper_default());
            format!(
                "verified: bit-exact over {} MACs\n\
                 cycles: {} total ({} stall), {:.1}% of peak, {:.1} Gop/s\n",
                run.macs_executed,
                perf.total_cycles,
                perf.stall_cycles,
                100.0 * perf.normalized_perf,
                perf.gops
            )
        }
        Command::Stats(a) => run_stats(a, &echo)?,
        Command::Trace(a) => run_trace(a)?,
        Command::Faults(a) => run_faults(a, echo)?,
        Command::Fuzz(a) => run_fuzz(a, echo)?,
        Command::Explore(a) => run_explore(a, echo)?,
        Command::Profile(a) => run_profile(a, &echo)?,
    };
    Ok((text, 0))
}

fn run_emit(a: EmitArgs) -> Result<String, CliError> {
    let (_, design, _) = build_design(&a.design)?;
    let format = a.format.as_str();
    let doc = tensorlib::hw::text::NetlistDoc::from_design(&design);
    let emitted = match format {
        "text" => tensorlib::hw::text::emit_text(&doc),
        "yosys-json" => tensorlib::hw::yosys::emit_yosys(&doc),
        _ => tensorlib::hw::verilog::emit_design(&design),
    };
    // Interchange emissions self-check their own round trip before any
    // bytes leave the process: what we wrote is what a reader gets back.
    if format != "verilog" {
        let reparsed = match format {
            "text" => tensorlib::hw::text::parse_text(&emitted).map_err(cli_err),
            _ => tensorlib::hw::yosys::parse_yosys(&emitted).map_err(cli_err),
        }
        .map_err(|err| CliError(format!("emitted {format} does not re-parse: {err}")))?;
        if reparsed != doc {
            return Err(CliError(format!(
                "emitted {format} round trip is not structurally identical"
            )));
        }
    }
    let trace_note = write_smoke_trace(&a.smoke, || {
        tensorlib::hw::interp::elaborate(&doc.modules, &doc.banks, &doc.top).map_err(cli_err)
    })?;
    // On stdout the netlist itself is the payload; the trace (if any)
    // already landed in its own file.
    let lines = emitted.lines().count();
    emit_report(&a.out, "", Report::Text(emitted), |path| {
        format!(
            "wrote {format} netlist to {path}: {lines} lines, top module {}\n{trace_note}",
            design.top()
        )
    })
}

fn run_parse(a: ParseArgs) -> Result<String, CliError> {
    use tensorlib::hw::interp::{elaborate, flat_op_count};
    let input = &a.input;
    let src = std::fs::read_to_string(input)
        .map_err(|err| CliError(format!("reading {input}: {err}")))?;
    let fmt = match a.format.as_str() {
        "auto" if src.trim_start().starts_with('{') => "yosys-json",
        "auto" => "text",
        other => other,
    };
    let at_input = |err: &dyn fmt::Display| CliError(format!("{input}: {err}"));
    let doc = match fmt {
        "text" => tensorlib::hw::text::parse_text(&src).map_err(|err| at_input(&err))?,
        _ => tensorlib::hw::yosys::parse_yosys(&src).map_err(|err| at_input(&err))?,
    };
    doc.validate().map_err(|msg| at_input(&msg))?;
    let flat = elaborate(&doc.modules, &doc.banks, &doc.top).map_err(|err| at_input(&err))?;
    // The optimized netlist is elaborated and compiled only to be counted,
    // so it is dropped before the parsed design compiles the program its
    // smoke trace runs.
    let opt_ops = if a.opt {
        let modules = doc.modules.clone();
        let opt_doc = tensorlib::hw::text::NetlistDoc {
            modules: tensorlib::hw::opt::optimize(modules, &doc.top, &OptOptions::default()),
            banks: doc.banks.clone(),
            top: doc.top.clone(),
        };
        let at_opt = |what: &str, err: &dyn fmt::Display| {
            at_input(&format!("optimized netlist fails {what}: {err}"))
        };
        opt_doc
            .validate()
            .map_err(|msg| at_opt("validation", &msg))?;
        let opt_flat = elaborate(&opt_doc.modules, &opt_doc.banks, &opt_doc.top)
            .map_err(|err| at_opt("elaboration", &err))?;
        Some(flat_op_count(&opt_flat))
    } else {
        None
    };
    let ops = flat_op_count(&flat);
    let mut s = format!(
        "parsed {fmt} netlist {input}: top module {:?}, {} modules, {} banks\n\
         elaborated: {} flat nets, {ops} bytecode ops\n",
        doc.top,
        doc.modules.len(),
        doc.banks.len(),
        flat.nets().len(),
    );
    if let Some(opt_ops) = opt_ops {
        s.push_str(&format!("optimizer recompile: {ops} -> {opt_ops} bytecode ops\n"));
    }
    s.push_str(&write_smoke_trace(&a.smoke, || Ok(flat))?);
    emit_report(&a.out, "", Report::Text(s), wrote("parse report"))
}

fn run_stats(a: StatsArgs, echo: &str) -> Result<String, CliError> {
    let t0 = Instant::now();
    let (kernel, design, opt_stats) = build_design(&a.design)?;
    let measured = tensorlib::sim::trace::measure(&design, &TraceConfig::counters_only(), a.tiles)
        .map_err(cli_err)?;
    let cross =
        tensorlib::sim::perf::cross_check(&design, &kernel, &SimConfig::paper_default(), a.tiles)
            .map_err(cli_err)?;
    let (s, d) = (&measured.stats, &a.design);
    let report = StatsReport {
        schema_version: SCHEMA_VERSION,
        provenance: provenance(echo, Vec::new(), 1, t0, &live_session()),
        workload: d.workload.clone(),
        dataflow: d.dataflow.clone(),
        rows: d.rows,
        cols: d.cols,
        tiles: a.tiles,
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
    emit_report(
        &a.out,
        &report_path("stats", &d.workload, &d.dataflow, "json"),
        Report::Json(&report),
        wrote("stats report"),
    )
}

fn run_trace(a: TraceArgs) -> Result<String, CliError> {
    let (_, design, _) = build_design(&a.design)?;
    // With no nets named, watch the controller handshake.
    let watch: Vec<String> = match a.nets.as_str() {
        "" => "en,swap,done",
        nets => nets,
    }
    .split(',')
    .map(|s| s.trim().to_string())
    .filter(|s| !s.is_empty())
    .collect();
    let trace_cfg = TraceConfig::default().with_watch(watch);
    let measured = tensorlib::sim::trace::measure(&design, &trace_cfg, a.tiles).map_err(cli_err)?;
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
    emit_report(
        &a.out,
        &report_path("trace", &a.design.workload, &a.design.dataflow, "vcd"),
        Report::Text(vcd),
        wrote(&format!("VCD ({summary})")),
    )
}

fn run_faults(a: FaultsArgs, echo: String) -> Result<String, CliError> {
    let t0 = Instant::now();
    let hardening = Hardening::parse(&a.harden).map_err(CliError)?;
    let (rows, cols, k) = (a.rows, a.cols, a.k);
    let cfg = CampaignConfig {
        rows,
        cols,
        k,
        faults: a.faults,
        seed: a.seed,
        hardening,
        workers: a.campaign.workers.unwrap_or(0),
        lanes: a.campaign.lanes,
        opt: a.opt,
    };
    let (mode, campaign) = if a.sweep_acc {
        // Flip every accumulator bit 0..8 mid-accumulation: half-way through
        // the compute phase (t-extent = k plus the skew in each direction,
        // plus the streaming-pipeline tail), after the 1-cycle start
        // handshake.
        let compute = k + rows as u64 - 1 + cols as u64 - 1 + 2;
        let cycle = 1 + compute / 2;
        (
            "accumulator-sweep",
            FaultCampaign::accumulator_sweep(&cfg, 8, cycle),
        )
    } else {
        ("seeded", FaultCampaign::gemm(&cfg))
    };
    let campaign = campaign.map_err(cli_err)?;
    let run = journal::execute(&campaign, &a.campaign.durability()).map_err(cli_err)?;
    let hardening_cost = if hardening.is_any() {
        let gemm = workloads::gemm(rows as u64, cols as u64, k);
        let sel = LoopSelection::by_names(&gemm, ["m", "n", "k"]).map_err(cli_err)?;
        let df = Dataflow::analyze(&gemm, sel, Stt::output_stationary()).map_err(cli_err)?;
        let hw = hw_config(rows, cols);
        Some(hardening_overhead(&df, &hw, hardening, &Activity::default()).map_err(cli_err)?)
    } else {
        None
    };
    let output = CampaignOutput {
        echo,
        seeds: vec![a.seed],
        args: &a.campaign,
        default_path: report_path(
            "faults",
            &format!("gemm-{rows}x{cols}x{k}"),
            &hardening.to_string(),
            "json",
        ),
        what: "resilience report",
        started: t0,
    };
    emit_campaign(
        campaign,
        run,
        output,
        |report, provenance, interrupted, resume_hint| FaultsReportDoc {
            schema_version: SCHEMA_VERSION,
            provenance,
            config: cfg,
            mode: mode.to_string(),
            report,
            hardening_overhead: hardening_cost,
            interrupted,
            resume_hint,
        },
    )
}

fn run_fuzz(a: FuzzArgs, echo: String) -> Result<String, CliError> {
    let t0 = Instant::now();
    let cfg = VerifyConfig {
        seed_start: a.seed,
        seeds: a.seeds,
        // The verify runners treat 0 as serial, not one per core.
        workers: resolved_workers(a.campaign.workers.unwrap_or(0)),
        cycles: a.cycles,
        lanes: a.campaign.lanes,
        opt: a.opt,
    };
    let campaign = VerifyCampaign::new(&cfg, a.mode != "pipeline", a.mode != "netlist");
    let run = journal::execute(&campaign, &a.campaign.durability()).map_err(cli_err)?;
    let output = CampaignOutput {
        echo,
        seeds: vec![a.seed],
        args: &a.campaign,
        default_path: report_path("fuzz", &a.mode, &format!("{}-{}", a.seed, a.seeds), "json"),
        what: "fuzz report",
        started: t0,
    };
    emit_campaign(
        campaign,
        run,
        output,
        |report, provenance, interrupted, resume_hint| FuzzReportDoc {
            schema_version: SCHEMA_VERSION,
            provenance,
            report,
            interrupted,
            resume_hint,
        },
    )
}

fn run_explore(a: ExploreArgs, echo: String) -> Result<String, CliError> {
    let t0 = Instant::now();
    let kernel = resolve_workload(&a.workload)?;
    // A sweep has no lanes, and its pool runs one worker per core.
    let args = CampaignArgs {
        resume: a.resume,
        chunk_timeout: a.chunk_timeout,
        out: a.out,
        ..CampaignArgs::default()
    };
    let opts = ExploreOptions::default();
    let campaign = ExploreCampaign::new(&kernel, &opts);
    let (sweep, stats) = journal::execute(&campaign, &args.durability()).map_err(cli_err)?;
    let top = a.top;
    if args.out.is_empty() {
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
            if let Some(dir) = &args.resume {
                s.push_str(&format!("; re-run with --resume {dir} to finish"));
            }
            s.push('\n');
        }
        return Ok(s);
    }
    let output = CampaignOutput {
        echo,
        seeds: Vec::new(),
        args: &args,
        default_path: report_path("explore", &a.workload, "sweep", "json"),
        what: "explore report",
        started: t0,
    };
    let workload = a.workload.clone();
    emit_campaign(
        campaign,
        (sweep, stats),
        output,
        |sweep, provenance, interrupted, resume_hint| ExploreReportDoc {
            schema_version: SCHEMA_VERSION,
            provenance,
            workload,
            implementable_designs: sweep.rows.len(),
            errors: sweep.errors.len(),
            skipped: sweep.skipped as usize,
            degraded: sweep.degraded,
            top: sweep.rows.into_iter().take(top).collect(),
            interrupted,
            resume_hint,
        },
    )
}

fn run_profile(a: ProfileArgs, echo: &str) -> Result<String, CliError> {
    let t0 = Instant::now();
    let kernel = resolve_workload(&a.workload)?;
    // Profile the full pipeline: enumeration, classification, elaboration,
    // bytecode compile, functional simulation, cost.
    let opts = ExploreOptions {
        hw: hw_config(a.rows, a.cols),
        workers: a.workers.unwrap_or(0),
        functional_verify: true,
        ..ExploreOptions::default()
    };
    let (outcome, session) = recorded(|| {
        let outcome = explore_outcome(&kernel, &opts);
        // The sweep's functional verifier is a behavioural model; the
        // netlist-flattening and bytecode-compilation phases only run in the
        // cycle-accurate interpreter. Deep-measure the fastest point so the
        // trace covers those too.
        if let Some(best) = outcome.points.first() {
            let design = generate(&best.dataflow, &opts.hw).map_err(cli_err)?;
            tensorlib::sim::trace::measure(&design, &TraceConfig::counters_only(), 1)
                .map_err(cli_err)?;
        }
        Ok::<_, CliError>(outcome)
    });
    let outcome = outcome?;
    let provenance = provenance(echo, vec![42], opts.workers, t0, &session);
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
    for (phase, (count, total_us)) in session.phase_totals().into_iter().take(a.top.max(1)) {
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
    let default_path = report_path("profile", &a.workload, "sweep", "trace.json");
    let msg = emit_report(
        &a.out,
        &default_path,
        Report::Text(trace),
        wrote("Chrome trace"),
    )?;
    // A folded-stacks sibling rides along for flamegraph tooling whenever
    // the trace goes to a file.
    let trace_path = resolved_report_path(&a.out, &default_path);
    let mut folded_note = String::new();
    if let Some(trace_path) = &trace_path {
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
        trace_path.as_deref(),
        "profile",
        &format!(
            "profile|{}|rows={}|cols={}|top={}",
            a.workload, a.rows, a.cols, a.top
        ),
        &provenance,
        metrics,
        t0.elapsed().as_millis() as u64,
    );
    Ok(format!("{table}\n{msg}{folded_note}{history_note}"))
}

/// Whether `main` should install the process-wide SIGINT latch before
/// running: only journaled campaigns (`--resume`) drain-and-flush on
/// Ctrl-C; every other command keeps the default kill-immediately behavior.
pub fn wants_interrupt_latch(cmd: &Command) -> bool {
    match cmd {
        Command::Faults(FaultsArgs { campaign, .. }) | Command::Fuzz(FuzzArgs { campaign, .. }) => {
            campaign.resume.is_some()
        }
        Command::Explore(a) => a.resume.is_some(),
        _ => false,
    }
}

/// Runs a parsed invocation: the command itself, plus (when the global
/// `--profile <out.trace.json>` flag was given) a span-tracing session
/// around it whose Chrome trace — with the run's provenance embedded — is
/// written to the requested path. The flag never changes what the command
/// computes. Returns the text to print and the process exit code (see
/// [`run_coded`]); this is what `main` calls.
///
/// # Errors
///
/// Returns [`CliError`] when the command fails or the trace cannot be
/// written.
pub fn run_invocation_coded(inv: Invocation) -> Result<(String, u8), CliError> {
    let Some(trace_path) = inv.profile else {
        return run_coded(inv.command);
    };
    let t0 = Instant::now();
    let echo = inv.command.echo();
    let (result, session) = recorded(|| run_coded(inv.command));
    let (output, code) = result?;
    let provenance = provenance(&echo, Vec::new(), 1, t0, &session);
    let trace = session.to_chrome_trace(Some(&provenance));
    let note = emit_report(&trace_path, "", Report::Text(trace), wrote("profile trace"))?;
    Ok((output + &note, code))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib::sim::resilience::run_gemm_campaign_durable;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Every `tensorlib` invocation the repository's scripts and docs run:
    /// `scripts/ci.sh` (directories made concrete), the argument lists of
    /// the tlbench workloads (`crates/bench/src/bin/tlbench/src/workloads.rs`),
    /// and the README's command-line section; then `trace` and `watch`,
    /// which none of those run.
    const INVOCATIONS: &[&str] = &[
        // scripts/ci.sh
        "faults --faults 8 --seed 7 --harden full -o -",
        "fuzz --mode both --seed 0 --seeds 200 -o -",
        "faults --faults 8 --seed 7 --harden full --lanes 8 -o -",
        "fuzz --mode netlist --seed 0 --seeds 50 --lanes 8 -o -",
        "emit gemm:8,8,8 MNK-SST --rows 2 --cols 2 --format text --sim-cycles 64 \
         --trace-out d/emit_text.trace -o d/n.tl",
        "emit gemm:8,8,8 MNK-SST --rows 2 --cols 2 --format yosys-json --sim-cycles 64 \
         --trace-out d/emit_json.trace -o d/n.json",
        "parse d/n.tl --sim-cycles 64 --trace-out d/parse_text.trace -o -",
        "parse d/n.json --sim-cycles 64 --trace-out d/parse_json.trace -o -",
        "emit mttkrp IKL-UBBB --rows 16 --cols 16 --format text --sim-cycles 64 \
         --trace-out d/mttkrp.emit.trace -o d/mttkrp.tl",
        "parse d/mttkrp.tl --sim-cycles 64 --trace-out d/mttkrp.parse.trace",
        "fuzz --mode netlist --seed 0 --seeds 200 --opt on -o -",
        "faults --faults 8 --seed 7 --harden full --opt on -o -",
        "faults --faults 8 --seed 7 --harden full --opt off -o -",
        "profile gemm:4,4,4 --workers 2 -o d/p.trace.json",
        "stats gemm:4,4,4 MNK-SST --rows 4 --cols 4 -o -",
        "explore gemm:8,8,8 --top 20",
        "explore gemm:8,8,8 --top 20 --resume d/journal",
        "faults --faults 1024 --k 512 --seed 7 --harden full --resume d/journal -o d/clean.json",
        "faults --faults 1024 --k 512 --seed 8 --harden full --resume d/journal -o -",
        "fuzz --mode both --seed 0 --seeds 200 -o d/inert.json",
        "fuzz --mode both --seed 0 --seeds 200 --resume d/journal -o d/journaled.json",
        "faults --faults 64 --lanes 8 --harden full --seed 7 -o d/inert.json",
        "faults --faults 64 --lanes 8 --harden full --seed 7 --resume d/journal -o d/r.json",
        "faults --faults 1024 --k 512 --seed 7 --harden full --resume d/journal \
         -o d/reports/run.json",
        "status d/journal --json",
        "status d/journal",
        "history d/reports --check",
        // crates/bench/src/bin/tlbench/src/workloads.rs
        "explore conv2d -o explore.json",
        "faults --rows 8 --cols 8 --k 16 --faults 40000 --harden tmr,parity,abft \
         --lanes 64 --workers 2 --seed 1 --resume journal -o fresh.json",
        "fuzz --mode both --seed 1500 --seeds 1500 --workers 2 -o fuzz.json",
        "generate gemm MNK-SST --rows 16 --cols 16 -o gemm.v",
        "emit gemm MNK-SST --rows 16 --cols 16 --format text \
         --sim-cycles 64 --trace-out gemm.emit.trace -o gemm.txt",
        "parse gemm.txt --sim-cycles 64 --trace-out gemm.parse.trace",
        // README.md, command-line section
        "workloads",
        "analyze gemm MNK-SST",
        "simulate gemm:256,256,256 MNK-MTM",
        "generate conv2d KCX-STS -o conv.v --rows 10 --cols 16",
        "emit gemm:64,64,64 MNK-SST --format yosys-json -o gemm.json",
        "parse gemm.json",
        "explore depthwise --top 5",
        "faults --faults 64 --harden tmr,par,abft",
        "fuzz --mode both --seeds 1000",
        "profile gemm:64,64,64 --workers 4",
        // The rest of the command set.
        "trace gemm MNK-SST --rows 4 --cols 4 --nets en,swap --tiles 3 --opt=off -o -",
        "watch d/journal --interval 0.25",
        "history",
    ];

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_all_commands() {
        assert_eq!(parse_args(&sv(&["workloads"])).unwrap(), Command::Workloads);
        assert_eq!(
            parse_args(&sv(&["analyze", "gemm", "MNK-SST"])).unwrap(),
            Command::Analyze(AnalyzeArgs {
                workload: "gemm".into(),
                dataflow: "MNK-SST".into()
            })
        );
        assert_eq!(
            parse_args(&sv(&[
                "generate", "gemm", "MNK-SST", "-o", "x.v", "--rows", "4", "--cols", "8"
            ]))
            .unwrap(),
            Command::Generate(GenerateArgs {
                design: DesignArgs {
                    workload: "gemm".into(),
                    dataflow: "MNK-SST".into(),
                    rows: 4,
                    cols: 8,
                    opt: true
                },
                out: "x.v".into()
            })
        );
        // Both --opt spellings parse; bad values are errors.
        assert_eq!(
            parse_args(&sv(&["generate", "gemm", "MNK-SST", "--opt=off"])).unwrap(),
            Command::Generate(GenerateArgs {
                design: DesignArgs {
                    workload: "gemm".into(),
                    dataflow: "MNK-SST".into(),
                    rows: 16,
                    cols: 16,
                    opt: false
                },
                out: "-".into()
            })
        );
        assert_eq!(
            parse_args(&sv(&["generate", "gemm", "MNK-SST", "--opt", "off"])).unwrap(),
            parse_args(&sv(&["generate", "gemm", "MNK-SST", "--opt=off"])).unwrap(),
        );
        assert!(parse_args(&sv(&["generate", "gemm", "MNK-SST", "--opt=maybe"])).is_err());
        assert_eq!(
            parse_args(&sv(&["explore", "gemm", "--top", "3"])).unwrap(),
            Command::Explore(ExploreArgs {
                workload: "gemm".into(),
                top: 3,
                resume: None,
                chunk_timeout: None,
                out: String::new()
            })
        );
        assert_eq!(
            parse_args(&sv(&["explore", "gemm", "-o", "sweep.json"])).unwrap(),
            Command::Explore(ExploreArgs {
                workload: "gemm".into(),
                top: 10,
                resume: None,
                chunk_timeout: None,
                out: "sweep.json".into()
            })
        );
        assert_eq!(
            parse_args(&sv(&["profile", "gemm", "--workers", "2", "-o", "-"])).unwrap(),
            Command::Profile(ProfileArgs {
                workload: "gemm".into(),
                top: 10,
                rows: 4,
                cols: 4,
                workers: Some(2),
                out: "-".into()
            })
        );
        // Every invocation the repository runs still parses.
        for line in INVOCATIONS {
            if let Err(err) = parse_args(&words(line)) {
                panic!("{line}: {err}");
            }
        }
    }

    /// The provenance echo leaves out only run-shape flags: parsing it back
    /// gives every other argument of the command.
    #[test]
    fn echo_reparses_to_the_same_identity() {
        let identity = |cmd: &Command| {
            cmd.each(|arg, slot| match arg {
                Arg::Flag(flag, _) if flag.run_shape => None,
                Arg::Pos(name, _) => Some((name, slot.get())),
                Arg::Flag(flag, _) | Arg::Choice(flag, _) => Some((flag.name, slot.get())),
            })
        };
        let mut seen = std::collections::BTreeSet::new();
        for line in INVOCATIONS {
            let cmd = parse_args(&words(line)).unwrap();
            let echo = cmd.echo();
            assert!(
                !echo.contains("--resume") && !echo.contains("-o "),
                "{echo}"
            );
            let reparsed = parse_args(&words(&echo)).unwrap_or_else(|e| panic!("{echo}: {e}"));
            assert_eq!(identity(&reparsed), identity(&cmd), "{line} -> {echo}");
            seen.insert(cmd.name());
        }
        let all: std::collections::BTreeSet<_> = COMMANDS.iter().map(|(n, _)| *n).collect();
        assert_eq!(seen, all, "INVOCATIONS must cover every command");
        // The echo names what makes two campaigns differ.
        let echo = |line: &str| parse_args(&words(line)).unwrap().echo();
        assert_ne!(echo("faults --sweep-acc"), echo("faults"));
        assert_ne!(echo("faults --opt off"), echo("faults"));
        assert_ne!(echo("faults --faults 9"), echo("faults"));
        assert_eq!(echo("faults --lanes 8 --workers 2"), echo("faults"));
    }

    #[test]
    fn parse_invocation_extracts_global_profile_flag() {
        let inv = parse_invocation(&sv(&["--profile", "run.trace.json", "workloads"])).unwrap();
        assert_eq!(inv.profile.as_deref(), Some("run.trace.json"));
        assert_eq!(inv.command, Command::Workloads);
        assert_eq!(inv.command.echo(), "workloads");

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
        // Every command rejects every flag it does not declare, naming both.
        let blanks: Vec<Command> = COMMANDS.iter().map(|(_, blank)| blank()).collect();
        let mut every_flag: Vec<&'static Flag> = blanks.iter().flat_map(Command::flags).collect();
        every_flag.extend([&PROFILE, &HELP]);
        for cmd in &blanks {
            let declared = cmd.flags();
            for flag in &every_flag {
                if declared.iter().any(|d| d.name == flag.name) {
                    continue;
                }
                let args = sv(&[cmd.name(), flag.name, "1"]);
                let err = parse_args(&args).unwrap_err().to_string();
                assert!(
                    err.starts_with(&format!("{} does not take {}", cmd.name(), flag.name)),
                    "{args:?}: {err}"
                );
            }
        }
        // Including the foreign flags CI runs.
        for line in [
            "explore gemm:4,4,4 --workers 2",
            "generate gemm:4,4,4 MNK-SST --faults 3 --mode bogus --harden voodoo",
            "faults --format text",
        ] {
            let err = parse_args(&words(line)).unwrap_err().to_string();
            assert!(err.contains("does not take"), "{line}: {err}");
        }
    }

    #[test]
    fn workload_resolution() {
        assert_eq!(resolve_workload("gemm").unwrap().name(), "GEMM");
        let k = resolve_workload("gemm:4,5,6").unwrap();
        assert_eq!(k.loop_nest().extents(), vec![4, 5, 6]);
        assert_eq!(resolve_workload("mttkrp:2,3,4,5").unwrap().name(), "MTTKRP");
        assert!(resolve_workload("nonsense").is_err());
        assert!(resolve_workload("gemm:1,2").is_err());
        assert!(resolve_workload("gemm:a,b,c").is_err());
    }

    #[test]
    fn run_workloads_and_analyze() {
        let out = run(Command::Workloads).unwrap();
        assert!(out.contains("GEMM"));
        assert!(out.contains("MTTKRP"));
        let out = run(Command::Analyze(AnalyzeArgs {
            workload: "gemm:16,16,16".into(),
            dataflow: "MNK-SST".into(),
        }))
        .unwrap();
        assert!(out.contains("systolic"));
        assert!(out.contains("stationary"));
    }

    #[test]
    fn run_simulate_small() {
        let out = run(Command::Simulate(SimulateArgs {
            workload: "gemm:8,8,8".into(),
            dataflow: "MNK-SST".into(),
            rows: 4,
            cols: 4,
        }))
        .unwrap();
        assert!(out.contains("bit-exact"));
        assert!(out.contains("Gop/s"));
    }

    #[test]
    fn run_generate_to_stdout() {
        let out = run(Command::Generate(GenerateArgs {
            design: DesignArgs {
                workload: "gemm:8,8,8".into(),
                dataflow: "MNK-SST".into(),
                rows: 2,
                cols: 2,
                opt: true,
            },
            out: "-".into(),
        }))
        .unwrap();
        assert!(out.contains("endmodule"));
    }

    #[test]
    fn parse_emit_and_parse_commands() {
        assert_eq!(
            parse_args(&sv(&["emit", "gemm", "MNK-SST"])).unwrap(),
            Command::Emit(EmitArgs {
                design: DesignArgs {
                    workload: "gemm".into(),
                    dataflow: "MNK-SST".into(),
                    rows: 16,
                    cols: 16,
                    opt: true
                },
                format: "text".into(),
                smoke: SmokeArgs {
                    sim_cycles: None,
                    trace_out: None
                },
                out: "-".into()
            })
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
            Command::Emit(EmitArgs {
                design: DesignArgs {
                    workload: "gemm:8,8,8".into(),
                    dataflow: "MNK-SST".into(),
                    rows: 2,
                    cols: 2,
                    opt: false
                },
                format: "yosys-json".into(),
                smoke: SmokeArgs {
                    sim_cycles: Some(64),
                    trace_out: Some("t.trace".into())
                },
                out: "n.json".into()
            })
        );
        assert_eq!(
            parse_args(&sv(&["parse", "n.tl", "--format", "text", "-o", "r.txt"])).unwrap(),
            Command::Parse(ParseArgs {
                input: "n.tl".into(),
                format: "text".into(),
                opt: true,
                smoke: SmokeArgs {
                    sim_cycles: None,
                    trace_out: None
                },
                out: "r.txt".into()
            })
        );
        // Defaults: emit → text, parse → auto-sniff.
        assert_eq!(
            parse_args(&sv(&["parse", "n.json"])).unwrap(),
            Command::Parse(ParseArgs {
                input: "n.json".into(),
                format: "auto".into(),
                opt: true,
                smoke: SmokeArgs {
                    sim_cycles: None,
                    trace_out: None
                },
                out: "-".into()
            })
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
            let out = run(Command::Emit(EmitArgs {
                design: DesignArgs {
                    workload: "gemm:8,8,8".into(),
                    dataflow: "MNK-SST".into(),
                    rows: 2,
                    cols: 2,
                    opt: true,
                },
                format: format.into(),
                smoke: SmokeArgs {
                    sim_cycles: Some(16),
                    trace_out: Some(emit_trace.clone()),
                },
                out: netlist.clone(),
            }))
            .unwrap();
            assert!(out.contains("wrote"), "{out}");
            // Auto-detection picks the right parser for both formats.
            let out = run(Command::Parse(ParseArgs {
                input: netlist,
                format: "auto".into(),
                opt: true,
                smoke: SmokeArgs {
                    sim_cycles: Some(16),
                    trace_out: Some(parse_trace.clone()),
                },
                out: "-".into(),
            }))
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
        let emit = run(Command::Emit(EmitArgs {
            design: DesignArgs {
                workload: "gemm:8,8,8".into(),
                dataflow: "MNK-SST".into(),
                rows: 2,
                cols: 2,
                opt: true,
            },
            format: "verilog".into(),
            smoke: SmokeArgs {
                sim_cycles: None,
                trace_out: None,
            },
            out: "-".into(),
        }))
        .unwrap();
        let generate = run(Command::Generate(GenerateArgs {
            design: DesignArgs {
                workload: "gemm:8,8,8".into(),
                dataflow: "MNK-SST".into(),
                rows: 2,
                cols: 2,
                opt: true,
            },
            out: "-".into(),
        }))
        .unwrap();
        assert_eq!(emit, generate);
    }

    #[test]
    fn run_parse_rejects_garbage_with_located_error() {
        let dir = std::env::temp_dir().join("tensorlib_cli_parse_err_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.tl").to_string_lossy().into_owned();
        std::fs::write(&path, "tensorlib-netlist v1\nmodule \"m\"\n").unwrap();
        let err = run(Command::Parse(ParseArgs {
            input: path,
            format: "text".into(),
            opt: false,
            smoke: SmokeArgs {
                sim_cycles: None,
                trace_out: None,
            },
            out: "-".into(),
        }))
        .unwrap_err();
        assert!(err.to_string().contains("line"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_stats_and_trace() {
        assert_eq!(
            parse_args(&sv(&[
                "stats",
                "gemm:4,4,4",
                "MNK-SST",
                "--rows",
                "4",
                "--cols",
                "4",
                "--tiles",
                "3"
            ]))
            .unwrap(),
            Command::Stats(StatsArgs {
                design: DesignArgs {
                    workload: "gemm:4,4,4".into(),
                    dataflow: "MNK-SST".into(),
                    rows: 4,
                    cols: 4,
                    opt: true
                },
                tiles: 3,
                out: String::new()
            })
        );
        assert_eq!(
            parse_args(&sv(&[
                "trace", "gemm", "MNK-SST", "--nets", "en,swap", "-o", "-"
            ]))
            .unwrap(),
            Command::Trace(TraceArgs {
                design: DesignArgs {
                    workload: "gemm".into(),
                    dataflow: "MNK-SST".into(),
                    rows: 16,
                    cols: 16,
                    opt: true
                },
                tiles: 2,
                nets: "en,swap".into(),
                out: "-".into()
            })
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
        let out = run(Command::Stats(StatsArgs {
            design: DesignArgs {
                workload: "gemm:4,4,4".into(),
                dataflow: "MNK-SST".into(),
                rows: 4,
                cols: 4,
                opt: true,
            },
            tiles: 2,
            out: "-".into(),
        }))
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
        let out = run(Command::Trace(TraceArgs {
            design: DesignArgs {
                workload: "gemm:4,4,4".into(),
                dataflow: "MNK-SST".into(),
                rows: 4,
                cols: 4,
                opt: true,
            },
            tiles: 1,
            nets: "en,swap,done".into(),
            out: "-".into(),
        }))
        .unwrap();
        assert!(out.starts_with("$timescale"), "not a VCD:\n{out}");
        for net in ["en", "swap", "done"] {
            assert!(out.contains(&format!(" {net} $end")), "missing var {net}");
        }
        assert!(out.contains("$dumpvars"));
    }

    #[test]
    fn run_trace_unknown_net_is_an_error() {
        let err = run(Command::Trace(TraceArgs {
            design: DesignArgs {
                workload: "gemm:4,4,4".into(),
                dataflow: "MNK-SST".into(),
                rows: 4,
                cols: 4,
                opt: true,
            },
            tiles: 1,
            nets: "no_such_net".into(),
            out: "-".into(),
        }))
        .unwrap_err();
        assert!(err.to_string().contains("no_such_net"), "{err}");
    }

    #[test]
    fn parse_faults_defaults_and_flags() {
        assert_eq!(
            parse_args(&sv(&["faults"])).unwrap(),
            Command::Faults(FaultsArgs {
                rows: 4,
                cols: 4,
                k: 4,
                faults: 64,
                seed: 1,
                harden: "none".into(),
                sweep_acc: false,
                opt: true,
                campaign: CampaignArgs {
                    workers: None,
                    lanes: 1,
                    resume: None,
                    chunk_timeout: None,
                    out: String::new()
                }
            })
        );
        assert_eq!(
            parse_args(&sv(&[
                "faults",
                "--rows",
                "16",
                "--cols",
                "8",
                "--k",
                "6",
                "--faults",
                "12",
                "--seed",
                "9",
                "--harden",
                "tmr,parity",
                "--workers",
                "2",
                "--lanes",
                "8",
                "--sweep-acc",
                "--opt=off",
                "-o",
                "-",
            ]))
            .unwrap(),
            Command::Faults(FaultsArgs {
                rows: 16,
                cols: 8,
                k: 6,
                faults: 12,
                seed: 9,
                harden: "tmr,parity".into(),
                sweep_acc: true,
                opt: false,
                campaign: CampaignArgs {
                    workers: Some(2),
                    lanes: 8,
                    resume: None,
                    chunk_timeout: None,
                    out: "-".into()
                }
            })
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
            Command::Fuzz(FuzzArgs {
                mode: "both".into(),
                seed: 1,
                seeds: 256,
                cycles: 16,
                opt: true,
                campaign: CampaignArgs {
                    workers: None,
                    lanes: 1,
                    resume: None,
                    chunk_timeout: None,
                    out: String::new()
                }
            })
        );
        assert_eq!(
            parse_args(&sv(&[
                "fuzz",
                "--mode",
                "netlist",
                "--seed",
                "7",
                "--seeds",
                "99",
                "--cycles",
                "8",
                "--workers",
                "3",
                "--lanes",
                "16",
                "--opt",
                "off",
                "-o",
                "-",
            ]))
            .unwrap(),
            Command::Fuzz(FuzzArgs {
                mode: "netlist".into(),
                seed: 7,
                seeds: 99,
                cycles: 8,
                opt: false,
                campaign: CampaignArgs {
                    workers: Some(3),
                    lanes: 16,
                    resume: None,
                    chunk_timeout: None,
                    out: "-".into()
                }
            })
        );
        assert!(parse_args(&sv(&["fuzz", "--seeds", "banana"])).is_err());
        assert!(parse_args(&sv(&["fuzz", "extra-positional"])).is_err());
    }

    #[test]
    fn run_fuzz_reports_zero_findings_on_clean_seeds() {
        let out = run(Command::Fuzz(FuzzArgs {
            mode: "both".into(),
            seed: 0,
            seeds: 10,
            cycles: 8,
            opt: true,
            campaign: CampaignArgs {
                workers: Some(2),
                lanes: 4,
                resume: None,
                chunk_timeout: None,
                out: "-".into(),
            },
        }))
        .unwrap();
        assert!(out.contains("\"total_findings\": 0"), "{out}");
        assert!(out.contains("\"netlist\""), "{out}");
        assert!(out.contains("\"pipeline\""), "{out}");
    }

    #[test]
    fn run_fuzz_rejects_bad_mode() {
        let err = run(Command::Fuzz(FuzzArgs {
            mode: "bogus".into(),
            seed: 0,
            seeds: 1,
            cycles: 1,
            opt: true,
            campaign: CampaignArgs {
                workers: Some(1),
                lanes: 1,
                resume: None,
                chunk_timeout: None,
                out: "-".into(),
            },
        }))
        .unwrap_err();
        assert!(err.to_string().contains("--mode"), "{err}");
    }

    fn faults_cmd(harden: &str, faults: usize, out: &str) -> Command {
        Command::Faults(FaultsArgs {
            rows: 4,
            cols: 4,
            k: 4,
            faults,
            seed: 1,
            harden: harden.into(),
            sweep_acc: false,
            opt: true,
            campaign: CampaignArgs {
                workers: Some(1),
                lanes: 1,
                resume: None,
                chunk_timeout: None,
                out: out.into(),
            },
        })
    }

    #[test]
    fn parse_campaign_durability_flags() {
        match parse_args(&sv(&[
            "faults",
            "--resume",
            "j/dir",
            "--chunk-timeout",
            "30",
        ]))
        .unwrap()
        {
            Command::Faults(FaultsArgs { campaign, .. }) => {
                assert_eq!(campaign.resume.as_deref(), Some("j/dir"));
                assert_eq!(campaign.chunk_timeout, Some(30));
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
        let cmd = |seed: u64| {
            Command::Faults(FaultsArgs {
                rows: 4,
                cols: 4,
                k: 4,
                faults: 6,
                seed,
                harden: "none".into(),
                sweep_acc: false,
                opt: true,
                campaign: CampaignArgs {
                    workers: Some(1),
                    lanes: 1,
                    resume: Some(dir.to_str().unwrap().into()),
                    chunk_timeout: None,
                    out: "-".into(),
                },
            })
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
        let cmd = |resume: Option<&std::path::Path>, chunk_timeout: Option<u64>| {
            Command::Faults(FaultsArgs {
                rows: 4,
                cols: 4,
                k: 4,
                faults: 40,
                seed: 1,
                harden: "full".into(),
                sweep_acc: false,
                opt: true,
                campaign: CampaignArgs {
                    workers: Some(1),
                    lanes: 1,
                    resume: resume.map(|d| d.to_str().unwrap().into()),
                    chunk_timeout,
                    out: "-".into(),
                },
            })
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
        let cmd = |seed: u64, workers: usize, resume: bool, name: &str| {
            Command::Faults(FaultsArgs {
                rows: 2,
                cols: 2,
                k: 2,
                faults: 8,
                seed,
                harden: "none".into(),
                sweep_acc: false,
                opt: true,
                campaign: CampaignArgs {
                    workers: Some(workers),
                    lanes: 1,
                    resume: resume.then(|| dir.join("journal").to_str().unwrap().into()),
                    chunk_timeout: None,
                    out: reports.join(name).to_str().unwrap().into(),
                },
            })
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
        assert_eq!(
            hashes[0], hashes[2],
            "--workers does not change the campaign"
        );
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
        let err = run(Command::Faults(FaultsArgs {
            rows: 0,
            cols: 4,
            k: 4,
            faults: 4,
            seed: 1,
            harden: "none".into(),
            sweep_acc: false,
            opt: true,
            campaign: CampaignArgs {
                workers: Some(1),
                lanes: 1,
                resume: None,
                chunk_timeout: None,
                out: "-".into(),
            },
        }))
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

    #[cfg(unix)]
    #[test]
    fn report_to_a_fifo_keeps_the_fifo_and_records_no_history() {
        use std::os::unix::fs::FileTypeExt;
        let dir = tmpdir("fifo_report");
        let fifo = dir.join("report.fifo");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        assert!(made.is_ok_and(|s| s.success()), "mkfifo failed");
        let reader = {
            let fifo = fifo.clone();
            std::thread::spawn(move || std::fs::read_to_string(fifo).unwrap())
        };
        let note = run(faults_cmd("none", 2, fifo.to_str().unwrap())).unwrap();
        let kind = std::fs::symlink_metadata(&fifo).unwrap().file_type();
        assert!(kind.is_fifo(), "the FIFO was replaced by {kind:?}");
        assert!(reader.join().unwrap().contains("\"detection_coverage\""));
        assert!(!note.contains("history"), "{note}");
        assert!(!dir.join(tensorlib_obs::history::HISTORY_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_bad_dataflow_is_error() {
        let err = run(Command::Analyze(AnalyzeArgs {
            workload: "gemm".into(),
            dataflow: "ZZZ-XXX".into(),
        }))
        .unwrap_err();
        assert!(err.to_string().contains("ZZZ-XXX"));
    }

    #[test]
    fn reports_carry_schema_version_and_provenance() {
        let stats = run(Command::Stats(StatsArgs {
            design: DesignArgs {
                workload: "gemm:4,4,4".into(),
                dataflow: "MNK-SST".into(),
                rows: 4,
                cols: 4,
                opt: true,
            },
            tiles: 1,
            out: "-".into(),
        }))
        .unwrap();
        let fuzz = run(Command::Fuzz(FuzzArgs {
            mode: "netlist".into(),
            seed: 3,
            seeds: 4,
            cycles: 8,
            opt: true,
            campaign: CampaignArgs {
                workers: Some(1),
                lanes: 1,
                resume: None,
                chunk_timeout: None,
                out: "-".into(),
            },
        }))
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
                assert!(
                    doc.contains(needle),
                    "{name} report missing {needle}:\n{doc}"
                );
            }
            // Every emitted document parses and stamps the schema version.
            let version = tensorlib_obs::json::parse(doc)
                .unwrap()
                .get("schema_version")
                .and_then(|v| v.as_u64());
            assert_eq!(version, Some(1), "{name}");
        }
        // The campaign seeds land in the provenance block, machine-readably.
        let seeds_of = |doc: &str| {
            let v = tensorlib_obs::json::parse(doc).unwrap();
            v.get("provenance")
                .and_then(|p| p.get("seeds"))
                .and_then(|s| {
                    s.as_array()
                        .map(|a| a.iter().filter_map(|x| x.as_u64()).collect::<Vec<_>>())
                })
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
        let out = run(Command::Explore(ExploreArgs {
            workload: "gemm:4,4,4".into(),
            top: 3,
            resume: None,
            chunk_timeout: None,
            out: "-".into(),
        }))
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
        let out = run(Command::Explore(ExploreArgs {
            workload: "gemm:4,4,4".into(),
            top: 3,
            resume: None,
            chunk_timeout: None,
            out: "-".into(),
        }))
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
        let out = run(Command::Profile(ProfileArgs {
            workload: "gemm:2,2,2".into(),
            top: 50,
            rows: 2,
            cols: 2,
            workers: Some(1),
            out: trace_path.to_str().unwrap().into(),
        }))
        .unwrap();
        assert!(
            !tensorlib_obs::is_enabled(),
            "profile must restore disabled state"
        );
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
        assert!(
            trace.contains("\"traceEvents\""),
            "{trace_path:?} not a trace"
        );
        assert!(trace.contains("\"provenance\""));
        let trace_doc = tensorlib_obs::json::parse(&trace).unwrap();
        assert_eq!(
            trace_doc.get("schema_version").and_then(|v| v.as_u64()),
            Some(1)
        );
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
        let (out, _) = run_invocation_coded(inv).unwrap();
        assert!(
            !tensorlib_obs::is_enabled(),
            "--profile must restore disabled state"
        );
        // The command's own output is unchanged and the note rides along.
        assert!(out.contains("\"cycles\""), "{out}");
        assert!(out.contains("wrote profile trace"), "{out}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(
            trace.contains("hw.elaboration"),
            "trace missing spans:\n{trace}"
        );
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
            Command::Status(StatusArgs {
                dir: "j/dir".into(),
                json: true
            })
        );
        assert_eq!(
            parse_args(&sv(&["watch", "j/dir", "--interval", "0.25"])).unwrap(),
            Command::Watch(WatchArgs {
                dir: "j/dir".into(),
                interval: 0.25
            })
        );
        // history defaults to the reports-dir index; an explicit path and
        // --check/--threshold parse.
        assert_eq!(
            parse_args(&sv(&["history"])).unwrap(),
            Command::History(HistoryArgs {
                path: "reports/history.jsonl".into(),
                check: false,
                threshold: tensorlib_obs::history::DEFAULT_CHECK_THRESHOLD_PCT
            })
        );
        assert_eq!(
            parse_args(&sv(&["history", "r", "--check", "--threshold", "2.5"])).unwrap(),
            Command::History(HistoryArgs {
                path: "r".into(),
                check: true,
                threshold: 2.5
            })
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
        let cmd = |journal: &std::path::Path| {
            Command::Faults(FaultsArgs {
                rows: 2,
                cols: 2,
                k: 2,
                faults: 8,
                seed: 1,
                harden: "none".into(),
                sweep_acc: false,
                opt: true,
                campaign: CampaignArgs {
                    workers: Some(1),
                    lanes: 1,
                    resume: Some(journal.to_str().unwrap().into()),
                    chunk_timeout: None,
                    out: report.to_str().unwrap().into(),
                },
            })
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
        let (text, code) = run_coded(Command::Status(StatusArgs {
            dir: journal.to_str().unwrap().into(),
            json: false,
        }))
        .unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("state       finished"), "{text}");
        // --json emits a parsable snapshot.
        let (json_text, code) = run_coded(Command::Status(StatusArgs {
            dir: journal.to_str().unwrap().into(),
            json: true,
        }))
        .unwrap();
        assert_eq!(code, 0);
        let v = tensorlib_obs::json::parse(&json_text).unwrap();
        assert_eq!(v.get("state").and_then(|s| s.as_str()), Some("finished"));
        // watch on a finished campaign returns immediately with code 0.
        let (watch_text, code) = run_coded(Command::Watch(WatchArgs {
            dir: journal.to_str().unwrap().into(),
            interval: 0.01,
        }))
        .unwrap();
        assert_eq!(code, 0, "{watch_text}");
        assert!(watch_text.contains("campaign finished"), "{watch_text}");
        // A second identical run (fresh journal) appends a comparable entry:
        // history --check compares them without machine-shape false
        // positives and exits 0 (the runs are deterministic, so no deltas).
        run(cmd(&dir.join("journal2"))).unwrap();
        let (check_text, code) = run_coded(Command::History(HistoryArgs {
            path: dir.join("reports").to_str().unwrap().into(),
            check: true,
            threshold: tensorlib_obs::history::DEFAULT_CHECK_THRESHOLD_PCT,
        }))
        .unwrap();
        assert_eq!(code, 0, "{check_text}");
        assert!(check_text.contains("no metric moved"), "{check_text}");
        // The listing shows both runs with their machine shape.
        let (list_text, code) = run_coded(Command::History(HistoryArgs {
            path: dir.join("reports").to_str().unwrap().into(),
            check: false,
            threshold: tensorlib_obs::history::DEFAULT_CHECK_THRESHOLD_PCT,
        }))
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
            schema_version: tensorlib_obs::events::TELEMETRY_SCHEMA_VERSION,
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
        let (text, code) = run_coded(Command::Status(StatusArgs {
            dir: dir.to_str().unwrap().into(),
            json: false,
        }))
        .unwrap();
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("state       interrupted"), "{text}");
        assert!(text.contains("--resume"), "no resume hint:\n{text}");
        // The JSON form substitutes the effective state and carries the hint.
        let (json_text, code) = run_coded(Command::Status(StatusArgs {
            dir: dir.to_str().unwrap().into(),
            json: true,
        }))
        .unwrap();
        assert_eq!(code, 3);
        let v = tensorlib_obs::json::parse(&json_text).unwrap();
        assert_eq!(v.get("state").and_then(|s| s.as_str()), Some("interrupted"));
        assert!(v.get("resume_hint").is_some(), "{json_text}");
        // watch exits 3 on the same evidence.
        let (_, code) = run_coded(Command::Watch(WatchArgs {
            dir: dir.to_str().unwrap().into(),
            interval: 0.01,
        }))
        .unwrap();
        assert_eq!(code, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn history_check_flags_regressions_and_refuses_shape_mismatch() {
        use tensorlib_obs::history::{
            append, HistoryEntry, HistoryTiming, HISTORY_FILE, HISTORY_SCHEMA_VERSION,
        };
        let dir = tmpdir("history_check");
        let path = dir.join(HISTORY_FILE);
        let entry = |coverage: f64, lanes: u64| HistoryEntry {
            schema_version: HISTORY_SCHEMA_VERSION,
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
            timing: HistoryTiming {
                unix_ms: 1,
                wall_ms: 10,
            },
        };
        append(&path, &entry(0.9, 4)).unwrap();
        append(&path, &entry(0.5, 4)).unwrap(); // -44%: flagged at 10%
        let (text, code) = run_coded(Command::History(HistoryArgs {
            path: path.to_str().unwrap().into(),
            check: true,
            threshold: 10.0,
        }))
        .unwrap();
        assert_eq!(code, 4, "{text}");
        assert!(text.contains("FLAGGED"), "{text}");
        // A lanes mismatch is a loud refusal (exit 1), not a comparison.
        append(&path, &entry(0.5, 8)).unwrap();
        let err = run_coded(Command::History(HistoryArgs {
            path: path.to_str().unwrap().into(),
            check: true,
            threshold: 10.0,
        }))
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
