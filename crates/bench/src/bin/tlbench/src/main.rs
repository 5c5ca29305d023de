//! `tlbench`: end-to-end and per-layer benchmark of the `tensorlib` CLI.
//!
//! The end-to-end run drives the real `tensorlib` binary (found next to this
//! executable) one process at a time, as a user would, and reads each
//! child's wall time, CPU time and peak RSS. The traced run rebuilds each
//! workload in-process from the layers' public functions and times every
//! call from outside (see `traced.rs`). See README.md for the workloads,
//! the metrics and how to compare two run-sets.

mod checks;
mod child;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tensorlib_obs::json::{self, Value};

use crate::checks::RankRow;
use crate::stats::{median, quartiles, within_bound, Better};
use crate::workloads::Workload;

const USAGE: &str = "\
usage:
  tlbench --seed S [--reps R] [--json FILE]
      every workload: 1 cold and R (default 5) warm CLI iterations, then the
      traced run; prints one row per workload and optionally writes a
      run-set JSON for --compare
  tlbench --workload NAME --seed S --seconds T --trace 0|1
      one workload for about T seconds; the last stdout line is a JSON
      result with the end-to-end (--trace 0) or per-layer (--trace 1) metrics
  tlbench --compare A.json B.json
      compares two run-sets against the bounds in ./BENCHMARK.json
workloads: explore-conv2d faults-tmr fuzz-both rtl-roundtrip";

/// Every end-to-end metric: name, unit, and which direction is better.
/// `BENCHMARK.json`'s `end_to_end` list holds exactly these, in this order.
const E2E_METRICS: [(&str, &str, Better); 4] = [
    ("wall_s", "s", Better::Lower),
    ("cpu_s", "s", Better::Lower),
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
];

/// Per-invocation watchdog budget.
const TIMEOUT: Duration = Duration::from_secs(120);
/// Cold iterations per single-workload run; `setup_s` is their median.
const SINGLE_COLD: usize = 3;
/// Warm iterations a single-workload run takes at least, however short `--seconds`.
const SINGLE_MIN_WARM: usize = 3;

enum Mode {
    RunSet {
        seed: u64,
        reps: usize,
        json: Option<PathBuf>,
    },
    Single {
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut seed = None;
    let mut reps = 5usize;
    let mut json = None;
    let mut workload = None;
    let mut seconds = None;
    let mut trace = None;
    let mut compare = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number"))
        };
        match flag {
            "--seed" => seed = Some(number(value()?)?),
            "--reps" => reps = number(value()?)? as usize,
            "--json" => json = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seconds" => seconds = Some(number(value()?)? as f64),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                })
            }
            "--compare" => {
                let a = PathBuf::from(value()?);
                compare = Some((a, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if let Some((a, b)) = compare {
        return Ok(Mode::Compare { a, b });
    }
    let seed = seed.ok_or("--seed is required")?;
    workloads::fuzz_seed_start(seed).ok_or("--seed is too large")?;
    match workload {
        Some(workload) => Ok(Mode::Single {
            workload,
            seed,
            seconds: seconds.ok_or("--workload needs --seconds")?,
            trace: trace.ok_or("--workload needs --trace 0|1")?,
        }),
        None if reps == 0 => Err("--reps must be at least 1".into()),
        None => Ok(Mode::RunSet { seed, reps, json }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(msg) => {
            eprintln!("tlbench: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::RunSet { seed, reps, json } => run_set(seed, reps, json.as_deref()),
        Mode::Single {
            workload,
            seed,
            seconds,
            trace,
        } => single(workload, seed, seconds, trace),
        Mode::Compare { a, b } => compare(&a, &b),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("tlbench: {msg}");
        ExitCode::from(2)
    })
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The `tensorlib` binary next to this executable.
fn cli_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating tlbench: {e}"))?;
    let cli = exe.with_file_name("tensorlib");
    if !cli.is_file() {
        return Err(format!(
            "the tensorlib CLI is not at {}; build it into the same target directory \
             (`cargo build --release -p tensorlib-cli`, or run run.sh, which builds both)",
            cli.display()
        ));
    }
    Ok(cli)
}

/// A per-process working directory inside the target directory, removed on
/// drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating tlbench: {e}"))?;
        let root = exe.with_file_name(format!("tlbench-work-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        Ok(Scratch(root))
    }

    /// A fresh empty directory `name` inside the scratch root.
    fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One iteration's cost, summed over its invocations (peak RSS: the largest).
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
}

#[derive(Default)]
struct E2e {
    cold: Vec<Sample>,
    warm: Vec<Sample>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// The first explore iteration's top rows.
    top: Option<Vec<RankRow>>,
}

impl E2e {
    fn walls(samples: &[Sample]) -> Vec<f64> {
        samples.iter().map(|s| s.wall_s).collect()
    }

    fn cpus(samples: &[Sample]) -> Vec<f64> {
        samples.iter().map(|s| s.cpu_s).collect()
    }

    /// Warm samples, or the cold ones when the run took no warm iteration.
    fn steady(&self) -> &[Sample] {
        if self.warm.is_empty() {
            &self.cold
        } else {
            &self.warm
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        self.cold
            .iter()
            .chain(&self.warm)
            .map(|s| s.rss_mb)
            .fold(0.0, f64::max)
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("wall_s", median(&E2e::walls(self.steady()))),
            ("cpu_s", median(&E2e::cpus(self.steady()))),
            ("setup_s", median(&E2e::walls(&self.cold))),
            ("peak_rss_mb", self.peak_rss_mb()),
        ]
    }

    /// `1 - cpu_s / (wall_s * threads)`: the share of the CLI's threads'
    /// time spent idle.
    fn idle_share(&self, threads: usize) -> f64 {
        let wall = median(&E2e::walls(self.steady()));
        let cpu = median(&E2e::cpus(self.steady()));
        1.0 - cpu / (wall * threads as f64)
    }
}

/// How many iterations an end-to-end run takes: `cold` in fresh
/// environments, then warm ones sharing the last cold environment until at
/// least `min_warm` ran and `seconds` passed since the first cold one.
struct Plan {
    cold: usize,
    min_warm: usize,
    seconds: f64,
}

struct Bench {
    cli: PathBuf,
    cores: usize,
    scratch: Scratch,
}

impl Bench {
    fn new() -> Result<Bench, String> {
        Ok(Bench {
            cli: cli_path()?,
            cores: host_cores(),
            scratch: Scratch::create()?,
        })
    }

    fn e2e(&self, w: Workload, seed: u64, plan: &Plan) -> Result<E2e, String> {
        let mut out = E2e::default();
        let start = Instant::now();
        let mut env = None;
        let mut n = 0;
        loop {
            let cold = n < plan.cold;
            if !cold
                && out.warm.len() >= plan.min_warm
                && start.elapsed().as_secs_f64() >= plan.seconds
            {
                break;
            }
            if cold {
                let root = self.scratch.fresh(&format!("env-{n}"))?;
                env = Some(child::Env::create(root).map_err(|e| format!("creating env: {e}"))?);
            }
            let env = env.as_ref().expect("the first iteration is cold");
            let sample = self.iteration(w, seed, env, n, &mut out)?;
            if cold {
                out.cold.push(sample);
            } else {
                out.warm.push(sample);
            }
            n += 1;
        }
        Ok(out)
    }

    fn iteration(
        &self,
        w: Workload,
        seed: u64,
        env: &child::Env,
        n: usize,
        out: &mut E2e,
    ) -> Result<Sample, String> {
        let dir = self.scratch.fresh(&format!("iter-{n}"))?;
        let mut sample = Sample {
            wall_s: 0.0,
            cpu_s: 0.0,
            rss_mb: 0.0,
        };
        let mut failures = Vec::new();
        let invocations = workloads::invocations(w, seed, self.cores);
        for (i, args) in invocations.iter().enumerate() {
            let mut cmd = env
                .command(&self.cli, &dir, &i.to_string())
                .map_err(|e| format!("preparing {}: {e}", dir.display()))?;
            cmd.args(args);
            let usage =
                child::run(&mut cmd, TIMEOUT).map_err(|e| format!("running tensorlib: {e}"))?;
            sample.wall_s += usage.wall.as_secs_f64();
            sample.cpu_s += usage.cpu.as_secs_f64();
            sample.rss_mb = sample.rss_mb.max(usage.maxrss_kb as f64 / 1024.0);
            if usage.exit != child::Exit::Code(0) {
                let stderr =
                    std::fs::read_to_string(dir.join(format!("stderr-{i}"))).unwrap_or_default();
                failures.push(format!(
                    "`tensorlib {}` ended with {:?}: {}",
                    args.join(" "),
                    usage.exit,
                    stderr.trim()
                ));
            }
        }
        // Output checks only mean something when every invocation succeeded.
        if failures.is_empty() {
            let (check_failures, top) = workloads::check(w, &dir);
            failures = check_failures;
            if out.top.is_none() {
                out.top = top;
            } else if top.is_some() && top != out.top {
                failures.push("explore's top rows differ between iterations".into());
            }
        }
        let attempted = invocations.len() as u64;
        out.attempted += attempted;
        out.failed += (failures.len() as u64).min(attempted);
        out.errors.extend(failures);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(sample)
    }

    fn traced(&self, w: Workload, seed: u64, rep: usize) -> Result<traced::Traced, String> {
        let dir = self.scratch.fresh(&format!("traced-{rep}"))?;
        let t = traced::run(w, seed, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(t)
    }
}

/// Checks explore's CLI ranking against the traced run's recomposed one.
fn ranking_failure(
    cli: &Option<Vec<RankRow>>,
    recomposed: &Option<Vec<RankRow>>,
) -> Option<String> {
    match (cli, recomposed) {
        (Some(cli), Some(recomposed)) if cli != recomposed => Some(format!(
            "explore's top {} differ from the traced run's recomposed ranking",
            cli.len()
        )),
        _ => None,
    }
}

fn num(v: f64) -> Value {
    Value::Num(if v.is_finite() { v } else { 0.0 })
}

/// The last stdout line of a single-workload run.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let entry = Value::Obj(vec![
                ("value".into(), num(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    json::to_compact(&Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), num(attempted as f64)),
        ("failed".into(), num(failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]))
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

fn report_errors(errors: &[String]) {
    for e in errors {
        eprintln!("FAILED: {e}");
    }
}

/// `--workload`: one workload measured for about `seconds`.
fn single(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<ExitCode, String> {
    let bench = Bench::new()?;
    let (attempted, failed, errors, metrics) = if trace {
        // One CLI iteration gives the idle share and explore's ranking.
        let once = Plan {
            cold: 1,
            min_warm: 0,
            seconds: 0.0,
        };
        let e2e = bench.e2e(w, seed, &once)?;
        let idle = e2e.idle_share(w.threads(bench.cores));
        let start = Instant::now();
        let mut runs = Vec::new();
        let mut errors = e2e.errors.clone();
        let mut failed_runs = 0;
        while runs.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let t = bench.traced(w, seed, runs.len())?;
            runs.push(t.metrics(idle));
            let mut failures = t.failures;
            failures.extend(ranking_failure(&e2e.top, &t.ranking));
            failed_runs += u64::from(!failures.is_empty());
            errors.extend(failures);
        }
        let metrics: Vec<(&str, f64, &str)> = traced::LAYER_METRICS
            .iter()
            .enumerate()
            .map(|(i, &(name, unit, _))| {
                let values: Vec<f64> = runs.iter().map(|r| r[i].1).collect();
                (name, median(&values), unit)
            })
            .collect();
        let attempted = e2e.attempted + runs.len() as u64;
        (attempted, e2e.failed + failed_runs, errors, metrics)
    } else {
        let plan = Plan {
            cold: SINGLE_COLD,
            min_warm: SINGLE_MIN_WARM,
            seconds,
        };
        let e2e = bench.e2e(w, seed, &plan)?;
        let list = |xs: Vec<f64>| xs.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>();
        println!(
            "{}: {} invocations; wall_s of cold iterations {:?}, of warm iterations {:?}",
            w.name(),
            e2e.attempted,
            list(E2e::walls(&e2e.cold)),
            list(E2e::walls(&e2e.warm)),
        );
        let metrics = e2e
            .metrics()
            .into_iter()
            .zip(E2E_METRICS)
            .map(|((name, value), (_, unit, _))| (name, value, unit))
            .collect();
        (e2e.attempted, e2e.failed, e2e.errors, metrics)
    };
    report_errors(&errors);
    for (name, value, unit) in &metrics {
        println!("{:<32} {:>14} {unit}", name, fmt_value(*value));
    }
    let correct = failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--seed` without `--workload`: the whole run-set.
fn run_set(seed: u64, reps: usize, json_out: Option<&Path>) -> Result<ExitCode, String> {
    let bench = Bench::new()?;
    let plan = Plan {
        cold: 1,
        min_warm: reps,
        seconds: 0.0,
    };
    // Every end-to-end run comes before any traced run: the traced runs
    // grow this process, and what it keeps resident would inflate the
    // children's peak RSS.
    let mut e2es = Vec::new();
    for w in Workload::ALL {
        eprintln!("tlbench: {} end to end ...", w.name());
        e2es.push(bench.e2e(w, seed, &plan)?);
    }
    let mut rows = Vec::new();
    let mut all_ok = true;
    for (w, mut e2e) in Workload::ALL.into_iter().zip(e2es) {
        eprintln!("tlbench: {} traced ...", w.name());
        let t = bench.traced(w, seed, 0)?;
        let layers = t.metrics(e2e.idle_share(w.threads(bench.cores)));
        let mut traced_failures = t.failures;
        traced_failures.extend(ranking_failure(&e2e.top, &t.ranking));
        e2e.attempted += 1;
        e2e.failed += u64::from(!traced_failures.is_empty());
        e2e.errors.extend(traced_failures);
        report_errors(&e2e.errors);
        all_ok &= e2e.failed == 0;
        rows.push((w, e2e, layers));
    }

    println!(
        "host_cores {}   seed {seed}   warm iterations n = {reps}",
        bench.cores
    );
    print!("{:<16}", "workload");
    for (name, unit, _) in E2E_METRICS {
        print!(" {:>18}", format!("{name} [{unit}]"));
    }
    println!(" {:>14}", "failed_share");
    for (w, e2e, _) in &rows {
        print!("{:<16}", w.name());
        for (_, value) in e2e.metrics() {
            print!(" {:>18}", fmt_value(value));
        }
        println!(" {:>14}", format!("{}/{}", e2e.failed, e2e.attempted));
    }
    println!();
    print!("{:<40}", "per-layer metric [unit]");
    for w in Workload::ALL {
        print!(" {:>15}", w.name());
    }
    println!();
    for (i, (name, unit, _)) in traced::LAYER_METRICS.iter().enumerate() {
        print!("{:<40}", format!("{name} [{unit}]"));
        for (_, _, layers) in &rows {
            print!(" {:>15}", fmt_value(layers[i].1));
        }
        println!();
    }

    if let Some(path) = json_out {
        let workloads = rows
            .iter()
            .map(|(w, e2e, layers)| {
                let samples = |xs: Vec<f64>| Value::Arr(xs.into_iter().map(num).collect());
                let e2e_obj = Value::Obj(vec![
                    ("wall_s".into(), samples(E2e::walls(&e2e.warm))),
                    ("cpu_s".into(), samples(E2e::cpus(&e2e.warm))),
                    ("setup_s".into(), samples(E2e::walls(&e2e.cold))),
                    ("peak_rss_mb".into(), samples(vec![e2e.peak_rss_mb()])),
                ]);
                let layer_obj = Value::Obj(
                    layers
                        .iter()
                        .map(|&(name, v)| (name.to_string(), num(v)))
                        .collect(),
                );
                let entry = Value::Obj(vec![
                    ("attempted".into(), num(e2e.attempted as f64)),
                    ("failed".into(), num(e2e.failed as f64)),
                    ("e2e".into(), e2e_obj),
                    ("layers".into(), layer_obj),
                ]);
                (w.name().to_string(), entry)
            })
            .collect();
        let doc = Value::Obj(vec![
            ("seed".into(), num(seed as f64)),
            ("reps".into(), num(reps as f64)),
            ("host_cores".into(), num(bench.cores as f64)),
            ("workloads".into(), Value::Obj(workloads)),
        ]);
        tensorlib_obs::atomic_write(path, format!("{doc}\n").as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn e2e_bounds(benchmark: &Value) -> Result<Vec<(String, Better, f64)>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("end_to_end entry without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .and_then(Better::parse)
                .ok_or(format!("{name}: bad `better`"))?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or(format!("{name}: no bound"))?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

fn samples(run: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    run.get("workloads")?
        .get(workload)?
        .get("e2e")?
        .get(metric)?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect::<Option<Vec<f64>>>()
        .filter(|xs| !xs.is_empty())
}

/// Per-layer metrics whose values repeat exactly for the same seed.
fn deterministic(name: &str) -> bool {
    traced::LAYER_METRICS
        .iter()
        .any(|&(n, unit, _)| n == name && (unit == "count" || unit == "bytes"))
}

/// `--compare A B`: B's medians against A's under BENCHMARK.json's bounds.
fn compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    let bounds = e2e_bounds(&load(Path::new("BENCHMARK.json"))?)?;
    let cores = |v: &Value| v.get("host_cores").and_then(Value::as_u64);
    if cores(&a) != cores(&b) {
        return Err(format!(
            "refusing to compare run-sets from different hosts: host_cores {:?} vs {:?}",
            cores(&a),
            cores(&b)
        ));
    }
    let same_seed = a.get("seed") == b.get("seed");
    let mut regressions = 0;
    let mut count_diffs = 0;
    println!(
        "{:<16} {:<12} {:>26} {:>26} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for w in Workload::ALL {
        for (metric, better, bound) in &bounds {
            let (Some(xa), Some(xb)) =
                (samples(&a, w.name(), metric), samples(&b, w.name(), metric))
            else {
                println!("{:<16} {metric:<12} missing from a run-set", w.name());
                regressions += 1;
                continue;
            };
            let (qa, qb) = (quartiles(&xa), quartiles(&xb));
            let ok = within_bound(qa.1, qb.1, *better, *bound);
            regressions += usize::from(!ok);
            let cell = |q: (f64, f64, f64)| {
                format!(
                    "{} [{}, {}]",
                    fmt_value(q.1),
                    fmt_value(q.0),
                    fmt_value(q.2)
                )
            };
            println!(
                "{:<16} {metric:<12} {:>26} {:>26} {:>7.1}% {:>5.0}%  {}",
                w.name(),
                cell(qa),
                cell(qb),
                100.0 * (qb.1 - qa.1) / qa.1,
                100.0 * bound,
                if ok { "ok" } else { "REGRESSION" }
            );
        }
        let layers = |v: &Value| v.get("workloads")?.get(w.name())?.get("layers").cloned();
        if let (true, Some(la), Some(lb)) = (same_seed, layers(&a), layers(&b)) {
            for (name, va) in la.as_object().unwrap_or_default() {
                let vb = lb.get(name);
                if deterministic(name) && vb != Some(va) {
                    count_diffs += 1;
                    println!("{:<16} count {name} differs: {va:?} vs {vb:?}", w.name());
                }
            }
        }
    }
    if !same_seed {
        println!("run-sets use different seeds: deterministic counts not compared");
    }
    println!("{regressions} regressions, {count_diffs} differing counts");
    Ok(if regressions == 0 && count_diffs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        load(&path).expect("BENCHMARK.json at the repository root")
    }

    fn names_units(list: &Value) -> Vec<(String, String, String)> {
        list.as_array()
            .expect("a metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn declared(list: &[(&str, &str, Better)]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|&(n, u, b)| {
                let better = if b == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                (n.to_string(), u.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics_and_workloads() {
        let doc = benchmark_json();
        assert_eq!(
            names_units(doc.get("end_to_end").unwrap()),
            declared(&E2E_METRICS)
        );
        assert_eq!(
            names_units(doc.get("per_layer").unwrap()),
            declared(&traced::LAYER_METRICS)
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert!(e2e_bounds(&doc)
            .unwrap()
            .iter()
            .all(|(_, _, b)| *b > 0.0 && *b <= 0.25));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 12, 0, &[("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn idle_share_counts_unused_thread_time() {
        let sample = Sample {
            wall_s: 2.0,
            cpu_s: 3.0,
            rss_mb: 1.0,
        };
        let e2e = E2e {
            warm: vec![sample],
            ..E2e::default()
        };
        assert_eq!(e2e.idle_share(2), 0.25);
    }

    #[test]
    fn deterministic_counts_are_counts_and_bytes() {
        assert!(deterministic("hw.generate.calls"));
        assert!(deterministic("report.bytes"));
        assert!(deterministic("dataflow.candidates"));
        assert!(!deterministic("hw.generate.busy_s"));
        assert!(!deterministic("dataflow.implementable_share"));
    }

    #[test]
    fn arguments_select_a_mode() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(matches!(
            parse_args(&args(
                "--workload fuzz-both --seed 3 --seconds 10 --trace 1"
            )),
            Ok(Mode::Single {
                workload: Workload::FuzzBoth,
                seed: 3,
                trace: true,
                ..
            })
        ));
        assert!(matches!(
            parse_args(&args("--seed 1")),
            Ok(Mode::RunSet { reps: 5, .. })
        ));
        assert!(matches!(
            parse_args(&args("--compare a b")),
            Ok(Mode::Compare { .. })
        ));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload fuzz-both --seed 1 --seconds 5")).is_err());
        assert!(parse_args(&args("--seed 1 --reps 0")).is_err());
        assert!(parse_args(&args("--seed 18446744073709551615")).is_err());
    }
}
