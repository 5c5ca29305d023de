//! The four workloads and their end-to-end iterations: the exact CLI
//! invocations a user would type, run one process at a time, and the checks
//! over what they wrote.

use std::path::Path;
use std::sync::OnceLock;

use tensorlib::dataflow::dse::{design_space, DseConfig};
use tensorlib_cli::resolve_workload;

use crate::checks;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExploreConv2d,
    FaultsTmr,
    FuzzBoth,
    RtlRoundtrip,
}

/// Faults injected per `faults` call.
pub const FAULTS: usize = 40_000;
/// Seeds per fuzz mode; `--seed S` fuzzes `S * FUZZ_SEEDS .. (S + 1) * FUZZ_SEEDS`,
/// so no two benchmark seeds share a fuzz seed.
pub const FUZZ_SEEDS: u64 = 1500;
/// The six Fig. 5 kernels with the dataflow each is plotted under.
pub const RTL_DESIGNS: [(&str, &str); 6] = [
    ("gemm", "MNK-SST"),
    ("batched-gemv", "MNK-UTS"),
    ("conv2d", "KCX-SST"),
    ("depthwise", "XYP-MMM"),
    ("mttkrp", "IKL-UBBB"),
    ("ttmc", "IJK-BBBU"),
];
/// The paper's PE array.
pub const RTL_ARRAY: usize = 16;
/// Cycles of each smoke trace.
pub const SIM_CYCLES: u64 = 64;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ExploreConv2d,
        Workload::FaultsTmr,
        Workload::FuzzBoth,
        Workload::RtlRoundtrip,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreConv2d => "explore-conv2d",
            Workload::FaultsTmr => "faults-tmr",
            Workload::FuzzBoth => "fuzz-both",
            Workload::RtlRoundtrip => "rtl-roundtrip",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the CLI runs with: campaigns get `min(2, cores)` workers,
    /// `explore` (which has no `--workers` flag) uses every core, and the
    /// single-design commands are serial.
    pub fn threads(self, cores: usize) -> usize {
        match self {
            Workload::ExploreConv2d => cores,
            Workload::FaultsTmr | Workload::FuzzBoth => cores.min(2),
            Workload::RtlRoundtrip => 1,
        }
    }
}

/// The first fuzz seed for benchmark seed `seed`, or `None` when the range
/// would run past `u64::MAX`.
pub fn fuzz_seed_start(seed: u64) -> Option<u64> {
    let start = seed.checked_mul(FUZZ_SEEDS)?;
    start.checked_add(FUZZ_SEEDS).map(|_| start)
}

/// Splits a command line into arguments; no argument here contains a space.
fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

/// The argument lists of one iteration, run in order in a fresh directory.
pub fn invocations(w: Workload, seed: u64, cores: usize) -> Vec<Vec<String>> {
    let workers = w.threads(cores);
    match w {
        Workload::ExploreConv2d => vec![args("explore conv2d -o explore.json")],
        Workload::FaultsTmr => {
            let faults = |out: &str| {
                args(&format!(
                    "faults --rows 8 --cols 8 --k 16 --faults {FAULTS} --harden tmr,parity,abft \
                     --lanes 64 --workers {workers} --seed {seed} --resume journal -o {out}"
                ))
            };
            // The second call finds the first call's journal and replays all of it.
            vec![faults("fresh.json"), faults("replayed.json")]
        }
        Workload::FuzzBoth => {
            let start = fuzz_seed_start(seed).expect("seed range checked at startup");
            vec![args(&format!(
                "fuzz --mode both --seed {start} --seeds {FUZZ_SEEDS} --workers {workers} \
                 -o fuzz.json"
            ))]
        }
        Workload::RtlRoundtrip => RTL_DESIGNS
            .iter()
            .flat_map(|&(k, df)| {
                let (n, c) = (RTL_ARRAY, SIM_CYCLES);
                [
                    args(&format!("generate {k} {df} --rows {n} --cols {n} -o {k}.v")),
                    args(&format!(
                        "emit {k} {df} --rows {n} --cols {n} --format text \
                         --sim-cycles {c} --trace-out {k}.emit.trace -o {k}.txt"
                    )),
                    args(&format!(
                        "parse {k}.txt --sim-cycles {c} --trace-out {k}.parse.trace"
                    )),
                ]
            })
            .collect(),
    }
}

/// Size of explore's design space, enumerated once per process (outside
/// any timed iteration).
fn explore_candidates() -> usize {
    static CANDIDATES: OnceLock<usize> = OnceLock::new();
    *CANDIDATES.get_or_init(|| {
        let kernel = resolve_workload("conv2d").expect("conv2d is a built-in workload");
        design_space(&kernel, &DseConfig::default()).len()
    })
}

fn read(dir: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| format!("reading {name}: {e}"))
}

/// Checks the files one iteration left in `dir`. Returns the failures (one
/// per failed check) and, for explore, the report's top rows.
pub fn check(w: Workload, dir: &Path) -> (Vec<String>, Option<Vec<checks::RankRow>>) {
    let mut failures = Vec::new();
    let mut top = None;
    match w {
        Workload::ExploreConv2d => {
            match read(dir, "explore.json")
                .and_then(|t| checks::check_explore_report(&t, explore_candidates()))
            {
                Ok(rows) => top = Some(rows),
                Err(e) => failures.push(e),
            }
        }
        Workload::FaultsTmr => {
            let pair = read(dir, "fresh.json").and_then(|fresh| {
                read(dir, "replayed.json").and_then(|replayed| {
                    checks::check_faults_pair(&fresh, &replayed, FAULTS as u64)
                })
            });
            failures.extend(pair.err());
        }
        Workload::FuzzBoth => {
            let report =
                read(dir, "fuzz.json").and_then(|t| checks::check_fuzz_report(&t, FUZZ_SEEDS));
            failures.extend(report.err());
        }
        Workload::RtlRoundtrip => {
            for (k, _) in RTL_DESIGNS {
                let verdict = read(dir, &format!("{k}.emit.trace")).and_then(|a| {
                    read(dir, &format!("{k}.parse.trace"))
                        .and_then(|b| checks::check_traces_match(k, a.as_bytes(), b.as_bytes()))
                });
                failures.extend(verdict.err());
            }
        }
    }
    (failures, top)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_ranges_of_distinct_seeds_do_not_overlap() {
        assert_eq!(fuzz_seed_start(0), Some(0));
        assert_eq!(fuzz_seed_start(1), Some(FUZZ_SEEDS));
        assert_eq!(fuzz_seed_start(7), Some(7 * FUZZ_SEEDS));
        assert_eq!(fuzz_seed_start(u64::MAX / FUZZ_SEEDS), None);
    }

    #[test]
    fn rtl_iteration_is_three_commands_per_design() {
        let inv = invocations(Workload::RtlRoundtrip, 1, 2);
        assert_eq!(inv.len(), 3 * RTL_DESIGNS.len());
        assert_eq!(inv[0][0], "generate");
        assert_eq!(inv[2][0..2], ["parse".to_string(), "gemm.txt".to_string()]);
    }

    #[test]
    fn campaigns_use_at_most_two_workers() {
        let inv = invocations(Workload::FaultsTmr, 3, 8);
        assert_eq!(inv.len(), 2);
        let workers = inv[0].iter().position(|a| a == "--workers").unwrap();
        assert_eq!(inv[0][workers + 1], "2");
        assert_eq!(Workload::ExploreConv2d.threads(8), 8);
        assert_eq!(Workload::FuzzBoth.threads(1), 1);
    }
}
