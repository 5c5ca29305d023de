//! Run-provenance manifests and report schema versioning.

use std::collections::BTreeMap;

use serde::Serialize;

/// Current report schema version. Bump when the JSON report layout changes
/// incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// Journal/resume provenance for a durably-run campaign: which journal the
/// run wrote, and how much of the work was replayed from a previous run
/// versus executed fresh. Lives in [`Provenance`] — never in the report
/// body — because replay counts legitimately differ between a clean run and
/// a crash/resume run whose *results* are byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct JournalProvenance {
    /// Directory holding the campaign journal (`--resume <dir>`).
    pub dir: String,
    /// Deterministic work units the campaign was chunked into.
    pub chunks_total: usize,
    /// Chunks whose results were replayed from the journal.
    pub chunks_replayed: usize,
    /// Chunks executed (and appended to the journal) by this run.
    pub chunks_executed: usize,
}

/// The manifest embedded in every JSON report the CLI writes: enough to
/// reproduce the run and to account for where its wall time went.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Provenance {
    /// Tool name, always `tensorlib`.
    pub generator: String,
    /// Cargo package version of the writing binary.
    pub pkg_version: String,
    /// The command line that produced the report (program name elided).
    pub command: String,
    /// Every RNG seed the run consumed, in consumption order.
    pub seeds: Vec<u64>,
    /// Worker threads requested (0 = auto).
    pub workers: usize,
    /// Host parallelism available at run time.
    pub host_cores: usize,
    /// Batched-simulation lanes the run used (0 = not applicable). Together
    /// with `workers` and `host_cores` this is the run's *machine shape*;
    /// history comparisons refuse to compare runs across different shapes.
    pub lanes: usize,
    /// Journal/resume accounting for durably-run campaigns (`null` for
    /// ordinary runs). Like `phase_wall_times_us`, this block is the
    /// legitimately run-dependent part of an otherwise byte-deterministic
    /// report, so byte-comparisons strip it.
    pub journal: Option<JournalProvenance>,
    /// Inclusive wall time per instrumented phase, microseconds.
    pub phase_wall_times_us: BTreeMap<String, u64>,
}

impl Provenance {
    /// A manifest for the given command echo, stamped with this build's
    /// package version and the host's core count.
    pub fn new(command: &str) -> Provenance {
        Provenance {
            generator: "tensorlib".to_string(),
            pkg_version: env!("CARGO_PKG_VERSION").to_string(),
            command: command.to_string(),
            seeds: Vec::new(),
            workers: 0,
            host_cores: std::thread::available_parallelism().map_or(1, usize::from),
            lanes: 0,
            journal: None,
            phase_wall_times_us: BTreeMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_serializes_with_ordered_fields() {
        let mut p = Provenance::new("explore gemm --top 3");
        p.seeds = vec![42];
        p.workers = 2;
        p.phase_wall_times_us.insert("explore".to_string(), 1234);
        let s = serde_json::to_string(&p).expect("serialize");
        assert!(s.contains("\"generator\":\"tensorlib\""));
        assert!(s.contains("\"command\":\"explore gemm --top 3\""));
        assert!(s.contains("\"seeds\":[42]"));
        assert!(s.contains("\"explore\":1234"));
        // Byte-stable: same manifest serializes identically every time.
        assert_eq!(s, serde_json::to_string(&p).unwrap());
    }
}
