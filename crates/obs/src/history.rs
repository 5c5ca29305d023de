//! Cross-run metrics history: the append-only `history.jsonl` index that
//! turns individual campaign / profile / perfgate reports into a comparable
//! series.
//!
//! Every *completed* run appends one [`HistoryEntry`] line — key metrics, a
//! config hash, and machine-shape provenance (`host_cores`, `workers`,
//! `lanes`) — to a `history.jsonl` next to the written report. `tensorlib
//! history` lists the entries; `tensorlib history --check` compares the
//! newest entry against the most recent earlier entry with the same
//! `(kind, config_hash)` and flags metric deltas beyond a threshold
//! ([`check`]).
//!
//! Two invariants carried over from the telemetry layer:
//!
//! - **Timing quarantine**: wall-clock fields (`unix_ms`, `wall_ms`) live
//!   under a `timing` sub-object and are *never* compared against the
//!   threshold — only reported informationally. Deterministic metrics are
//!   the regression surface; wall time is too machine-dependent to gate in
//!   a history file that survives hardware changes.
//! - **Machine-shape refusal**: comparing runs from different machine
//!   shapes (`host_cores`, `--workers`, `--lanes`) is an error, not a
//!   warning — a loud refusal beats a silent false positive.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

/// History index file name (lives next to the reports it indexes).
pub const HISTORY_FILE: &str = "history.jsonl";

/// Schema version stamped on every history line.
pub const HISTORY_SCHEMA_VERSION: u64 = 1;

/// Default `--check` flagging threshold, in percent relative delta.
pub const DEFAULT_CHECK_THRESHOLD_PCT: f64 = 10.0;

/// One completed run, as recorded in `history.jsonl`. Fields are in line
/// order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// [`HISTORY_SCHEMA_VERSION`] when written; [`read`] refuses any other.
    pub schema_version: u64,
    /// Run kind: `"faults"`, `"fuzz"`, `"explore"`, `"profile"`, `"perfgate"`.
    pub kind: String,
    /// Hex hash of the run's deterministic configuration. Two entries are
    /// comparable only when kind and config hash match.
    pub config_hash: String,
    /// Command echo, for humans reading the listing.
    pub command: String,
    /// Package version that produced the run.
    pub pkg_version: String,
    /// Machine shape: physical parallelism of the host.
    pub host_cores: u64,
    /// Machine shape: `--workers` the run used.
    pub workers: u64,
    /// Machine shape: `--lanes` the run used (0 when not applicable).
    pub lanes: u64,
    /// Deterministic key metrics — the regression-comparison surface.
    pub metrics: BTreeMap<String, f64>,
    /// Wall-clock fields, quarantined: never threshold-compared.
    pub timing: HistoryTiming,
}

/// The wall-clock fields of a [`HistoryEntry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryTiming {
    /// When the run finished (ms since Unix epoch).
    pub unix_ms: u64,
    /// How long the run took, in ms.
    pub wall_ms: u64,
}

/// Appends one entry to the history file at `path` (creating parent
/// directories and the file as needed) and flushes it to disk.
///
/// A file that does not end in `\n` holds the tail of an interrupted
/// append. A tail that decodes as an entry only lost its newline and gets
/// one; any other tail is cut off, so the new entry starts its own line.
pub fn append(path: &Path, entry: &HistoryEntry) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut line = serde_json::to_string(entry).expect("history entry serializes");
    line.push('\n');
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    let mut text = Vec::new();
    file.read_to_end(&mut text)?;
    if text.last().is_some_and(|&b| b != b'\n') {
        let start = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if decodes(&text[start..]) {
            line.insert(0, '\n');
        } else {
            file.set_len(start as u64)?;
        }
    }
    file.write_all(line.as_bytes())?;
    file.sync_data()
}

fn decodes(line: &[u8]) -> bool {
    std::str::from_utf8(line).is_ok_and(|l| serde_json::from_str::<HistoryEntry>(l).is_ok())
}

/// Reads every entry from the history file at `path`, in append order. A
/// missing file is an empty history, not an error; a malformed line is,
/// except a final line without its `\n` that does not decode: that is an
/// interrupted append, and the next [`append`] cuts it off.
pub fn read(path: &Path) -> Result<Vec<HistoryEntry>, String> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    // Lossy: a torn append may end inside a multi-byte character.
    let text = String::from_utf8_lossy(&bytes);
    let torn_tail = (!text.ends_with('\n')).then(|| text.lines().count());
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = || format!("{}:{}", path.display(), i + 1);
        let entry: HistoryEntry = match serde_json::from_str(line) {
            Ok(entry) => entry,
            Err(_) if torn_tail == Some(i + 1) => break,
            Err(e) => return Err(format!("{}: malformed history line: {e}", at())),
        };
        if entry.schema_version != HISTORY_SCHEMA_VERSION {
            return Err(format!(
                "{}: unsupported history schema_version {} (expected {HISTORY_SCHEMA_VERSION})",
                at(),
                entry.schema_version
            ));
        }
        out.push(entry);
    }
    Ok(out)
}

/// One metric compared between the newest run and its baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub metric: String,
    /// Baseline (prior run) value; `None` if the metric is new.
    pub baseline: Option<f64>,
    /// Current (newest run) value; `None` if the metric disappeared.
    pub current: Option<f64>,
    /// Relative delta in percent; `None` when undefined (missing side, or
    /// baseline is zero while current is not).
    pub delta_pct: Option<f64>,
    /// Whether this delta exceeds the threshold (or the metric set changed).
    pub flagged: bool,
}

/// Result of [`check`].
#[derive(Debug, Clone, PartialEq)]
pub enum CheckOutcome {
    /// The history file is empty: nothing to compare.
    NoRuns,
    /// The newest run has no earlier entry with the same kind + config hash.
    NoPrior {
        /// Kind of the newest run.
        kind: String,
        /// Config hash of the newest run.
        config_hash: String,
    },
    /// The newest run was compared against a same-config baseline.
    Compared {
        /// Kind of the compared runs.
        kind: String,
        /// Shared config hash.
        config_hash: String,
        /// When the baseline run finished (ms since Unix epoch).
        baseline_unix_ms: u64,
        /// Per-metric comparison, in sorted metric order.
        deltas: Vec<MetricDelta>,
        /// Wall-time relative delta in percent (informational only — never
        /// flagged; wall clock is quarantined from regression gating).
        wall_delta_pct: Option<f64>,
        /// Number of flagged deltas.
        flagged: usize,
    },
}

/// Compares the newest history entry against the most recent earlier entry
/// with the same `(kind, config_hash)`, flagging metric deltas whose
/// magnitude exceeds `threshold_pct` percent. Returns an error — a loud
/// refusal, not a comparison — when the two runs have different machine
/// shapes (`host_cores`, `workers`, `lanes`).
pub fn check(entries: &[HistoryEntry], threshold_pct: f64) -> Result<CheckOutcome, String> {
    let Some(newest) = entries.last() else {
        return Ok(CheckOutcome::NoRuns);
    };
    let Some(baseline) = entries[..entries.len() - 1]
        .iter()
        .rev()
        .find(|e| e.kind == newest.kind && e.config_hash == newest.config_hash)
    else {
        return Ok(CheckOutcome::NoPrior {
            kind: newest.kind.clone(),
            config_hash: newest.config_hash.clone(),
        });
    };
    let mut shape_diffs = Vec::new();
    for (label, prior, cur) in [
        ("host_cores", baseline.host_cores, newest.host_cores),
        ("workers", baseline.workers, newest.workers),
        ("lanes", baseline.lanes, newest.lanes),
    ] {
        if prior != cur {
            shape_diffs.push(format!("{label} {prior} vs {cur}"));
        }
    }
    if !shape_diffs.is_empty() {
        return Err(format!(
            "refusing to compare {} runs from different machine shapes: {} \
             (baseline from {}; re-run on a matching shape or start a fresh history)",
            newest.kind,
            shape_diffs.join(", "),
            baseline.command,
        ));
    }
    let mut names: Vec<&String> = baseline.metrics.keys().chain(newest.metrics.keys()).collect();
    names.sort();
    names.dedup();
    let mut deltas = Vec::new();
    for name in names {
        let b = baseline.metrics.get(name).copied();
        let c = newest.metrics.get(name).copied();
        let (delta_pct, flagged) = match (b, c) {
            (Some(b), Some(c)) => {
                if b == 0.0 {
                    (None, c != 0.0)
                } else {
                    let pct = (c - b) / b.abs() * 100.0;
                    (Some(pct), pct.abs() > threshold_pct)
                }
            }
            // A metric appearing or disappearing is itself a schema change
            // worth flagging.
            _ => (None, true),
        };
        deltas.push(MetricDelta {
            metric: name.clone(),
            baseline: b,
            current: c,
            delta_pct,
            flagged,
        });
    }
    let flagged = deltas.iter().filter(|d| d.flagged).count();
    let (prior_ms, wall_ms) = (baseline.timing.wall_ms, newest.timing.wall_ms);
    let wall_delta_pct =
        (prior_ms > 0).then(|| (wall_ms as f64 - prior_ms as f64) / prior_ms as f64 * 100.0);
    Ok(CheckOutcome::Compared {
        kind: newest.kind.clone(),
        config_hash: newest.config_hash.clone(),
        baseline_unix_ms: baseline.timing.unix_ms,
        deltas,
        wall_delta_pct,
        flagged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tl_obs_history_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(config_hash: &str, coverage: f64) -> HistoryEntry {
        let mut metrics = BTreeMap::new();
        metrics.insert("detection_coverage".to_string(), coverage);
        metrics.insert("faults".to_string(), 64.0);
        HistoryEntry {
            schema_version: HISTORY_SCHEMA_VERSION,
            kind: "faults".to_string(),
            config_hash: config_hash.to_string(),
            command: "faults --rows 4 --cols 4".to_string(),
            pkg_version: "0.1.0".to_string(),
            host_cores: 8,
            workers: 2,
            lanes: 4,
            metrics,
            timing: HistoryTiming {
                unix_ms: 1_700_000_000_000,
                wall_ms: 900,
            },
        }
    }

    #[test]
    fn entry_round_trips_and_quarantines_timing() {
        let e = entry("abcd", 0.75);
        let line = serde_json::to_string(&e).unwrap();
        // Wall-clock fields live only under `timing`, which comes last.
        assert!(
            line.ends_with(r#""timing":{"unix_ms":1700000000000,"wall_ms":900}}"#),
            "{line}"
        );
        assert_eq!(serde_json::from_str::<HistoryEntry>(&line).unwrap(), e);
    }

    #[test]
    fn read_refuses_unknown_schema_version_with_its_line() {
        let dir = tmpdir("version");
        let path = dir.join(HISTORY_FILE);
        append(&path, &entry("aa", 0.5)).unwrap();
        let future = HistoryEntry {
            schema_version: 2,
            ..entry("aa", 0.5)
        };
        append(&path, &future).unwrap();
        let err = read(&path).unwrap_err();
        assert!(
            err.ends_with(":2: unsupported history schema_version 2 (expected 1)"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_and_read_round_trip() {
        let dir = tmpdir("rw");
        let path = dir.join(HISTORY_FILE);
        assert_eq!(read(&path).unwrap(), Vec::new());
        append(&path, &entry("aa", 0.5)).unwrap();
        append(&path, &entry("bb", 0.6)).unwrap();
        let back = read(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].config_hash, "aa");
        assert_eq!(back[1].config_hash, "bb");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cuts the last `n` bytes off `path`, as a short write would leave it.
    fn tear(path: &Path, n: u64) {
        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        let len = file.metadata().unwrap().len();
        file.set_len(len - n).unwrap();
    }

    #[test]
    fn read_skips_a_torn_final_line() {
        let dir = tmpdir("torn_read");
        let path = dir.join(HISTORY_FILE);
        append(&path, &entry("aa", 0.5)).unwrap();
        append(&path, &entry("bb", 0.6)).unwrap();
        // A torn append that lost only its newline still reads whole.
        tear(&path, 1);
        assert_eq!(read(&path).unwrap(), vec![entry("aa", 0.5), entry("bb", 0.6)]);
        tear(&path, 40);
        assert_eq!(read(&path).unwrap(), vec![entry("aa", 0.5)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_a_torn_tail_starts_a_clean_line() {
        let dir = tmpdir("torn_append");
        let path = dir.join(HISTORY_FILE);
        append(&path, &entry("aa", 0.5)).unwrap();
        append(&path, &entry("bb", 0.6)).unwrap();
        tear(&path, 40);
        append(&path, &entry("cc", 0.7)).unwrap();
        assert_eq!(read(&path).unwrap(), vec![entry("aa", 0.5), entry("cc", 0.7)]);
        // A tail that only lost its newline is kept, not cut.
        tear(&path, 1);
        append(&path, &entry("dd", 0.8)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert_eq!(read(&path).unwrap()[2], entry("dd", 0.8));
        // A torn first line leaves an empty file behind it.
        std::fs::write(&path, "{\"schema_version\":1,\"ki").unwrap();
        append(&path, &entry("ee", 0.9)).unwrap();
        assert_eq!(read(&path).unwrap(), vec![entry("ee", 0.9)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn complete_malformed_line_stays_an_error() {
        let dir = tmpdir("malformed");
        let path = dir.join(HISTORY_FILE);
        append(&path, &entry("aa", 0.5)).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"schema_version\":1,\"ki\n");
        std::fs::write(&path, &text).unwrap();
        let err = read(&path).unwrap_err();
        assert!(err.contains(":2: malformed history line"), "{err}");
        // Also when it is not the last line.
        append(&path, &entry("bb", 0.6)).unwrap();
        assert!(read(&path).unwrap_err().contains(":2: malformed"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_flags_only_deltas_beyond_threshold() {
        let baseline = entry("aa", 0.50);
        let mut current = entry("aa", 0.51); // +2%: below a 10% threshold
        current.timing.unix_ms += 1000;
        let out = check(&[baseline.clone(), current], 10.0).unwrap();
        match out {
            CheckOutcome::Compared { flagged, deltas, .. } => {
                assert_eq!(flagged, 0, "{deltas:?}");
            }
            other => panic!("expected Compared, got {other:?}"),
        }
        let regressed = entry("aa", 0.30); // -40%: flagged
        let out = check(&[baseline, regressed], 10.0).unwrap();
        match out {
            CheckOutcome::Compared { flagged, deltas, .. } => {
                assert_eq!(flagged, 1);
                let d = deltas
                    .iter()
                    .find(|d| d.metric == "detection_coverage")
                    .unwrap();
                assert!(d.flagged);
                assert!((d.delta_pct.unwrap() + 40.0).abs() < 1e-9);
            }
            other => panic!("expected Compared, got {other:?}"),
        }
    }

    #[test]
    fn check_ignores_wall_time_for_flagging() {
        let baseline = entry("aa", 0.5);
        let mut slow = entry("aa", 0.5);
        slow.timing.wall_ms = baseline.timing.wall_ms * 50; // 50× slower wall clock
        let out = check(&[baseline, slow], 10.0).unwrap();
        match out {
            CheckOutcome::Compared {
                flagged,
                wall_delta_pct,
                ..
            } => {
                assert_eq!(flagged, 0);
                assert!(wall_delta_pct.unwrap() > 1000.0);
            }
            other => panic!("expected Compared, got {other:?}"),
        }
    }

    #[test]
    fn check_refuses_machine_shape_mismatch() {
        let baseline = entry("aa", 0.5);
        let mut other_machine = entry("aa", 0.5);
        other_machine.host_cores = 4;
        let err = check(&[baseline.clone(), other_machine], 10.0).unwrap_err();
        assert!(err.contains("machine shapes"), "{err}");
        assert!(err.contains("host_cores 8 vs 4"), "{err}");
        let mut other_lanes = entry("aa", 0.5);
        other_lanes.lanes = 8;
        let err = check(&[baseline, other_lanes], 10.0).unwrap_err();
        assert!(err.contains("lanes 4 vs 8"), "{err}");
    }

    #[test]
    fn check_skips_different_config_hashes() {
        let out = check(&[entry("aa", 0.5), entry("bb", 0.9)], 10.0).unwrap();
        assert_eq!(
            out,
            CheckOutcome::NoPrior {
                kind: "faults".to_string(),
                config_hash: "bb".to_string()
            }
        );
        assert_eq!(check(&[], 10.0).unwrap(), CheckOutcome::NoRuns);
    }

    #[test]
    fn check_flags_metric_set_changes() {
        let baseline = entry("aa", 0.5);
        let mut current = entry("aa", 0.5);
        current.metrics.insert("new_metric".to_string(), 1.0);
        let out = check(&[baseline, current], 10.0).unwrap();
        match out {
            CheckOutcome::Compared { deltas, flagged, .. } => {
                assert_eq!(flagged, 1);
                let d = deltas.iter().find(|d| d.metric == "new_metric").unwrap();
                assert!(d.flagged && d.baseline.is_none());
            }
            other => panic!("expected Compared, got {other:?}"),
        }
    }
}
