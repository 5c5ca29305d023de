//! Telemetry and history files written by earlier builds of this tree
//! still read back, and a campaign run today writes what that build wrote.
//! `tests/data/telemetry` holds, all written before the telemetry types
//! were derived:
//!
//! - `perfgate/history.jsonl`: 30 lines appended by older perfgate
//!   binaries (to the untracked `reports/history.jsonl`);
//! - `finished/`: the `status.json`, `events.jsonl` and `history.jsonl` of
//!   `tensorlib faults --faults 256 --lanes 4 --harden full --seed 7
//!   --resume <dir> -o <dir2>/run.json`;
//! - `started/status.json`: the first snapshot of a 64-chunk campaign.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use tensorlib_hw::fault::Hardening;
use tensorlib_obs::events::{read_events, StatusSnapshot, TELEMETRY_SCHEMA_VERSION};
use tensorlib_obs::history::{self, HistoryEntry, HistoryTiming};
use tensorlib_obs::json::{self, Value};
use tensorlib_sim::resilience::{run_gemm_campaign_durable, CampaignConfig};
use tensorlib_sim::DurabilityOptions;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn pinned(dir: &str) -> PathBuf {
    repo().join("tests/data/telemetry").join(dir)
}

/// A history line decoded by walking its JSON by path, field by field.
fn entry_by_path(v: &Value) -> HistoryEntry {
    let u = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap();
    let s = |key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();
    let metrics = v.get("metrics").and_then(Value::as_object).unwrap();
    let timing = v.get("timing").unwrap();
    HistoryEntry {
        schema_version: u(v, "schema_version"),
        kind: s("kind"),
        config_hash: s("config_hash"),
        command: s("command"),
        pkg_version: s("pkg_version"),
        host_cores: u(v, "host_cores"),
        workers: u(v, "workers"),
        lanes: u(v, "lanes"),
        metrics: (metrics.iter())
            .map(|(k, n)| (k.clone(), n.as_f64().unwrap()))
            .collect(),
        timing: HistoryTiming {
            unix_ms: u(timing, "unix_ms"),
            wall_ms: u(timing, "wall_ms"),
        },
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tl_it_telemetry_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn history_files_from_earlier_builds_decode_as_their_json_reads() {
    for (dir, lines) in [("perfgate", 30), ("finished", 1)] {
        let path = pinned(dir).join(history::HISTORY_FILE);
        let entries = history::read(&path).unwrap();
        assert_eq!(entries.len(), lines, "{}", path.display());
        let text = std::fs::read_to_string(&path).unwrap();
        // The derived reader and a walk by path agree line by line.
        for (entry, line) in entries.iter().zip(text.lines()) {
            assert_eq!(*entry, entry_by_path(&json::parse(line).unwrap()), "{line}");
        }
        // Written again, integral metrics gain a `.0` and read back equal.
        let dir = tmpdir("history");
        let copy = dir.join(history::HISTORY_FILE);
        for entry in &entries {
            history::append(&copy, entry).unwrap();
        }
        assert_eq!(history::read(&copy).unwrap(), entries);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let faults = &history::read(&pinned("finished").join(history::HISTORY_FILE)).unwrap()[0];
    assert_eq!(faults.metrics["detection_coverage"], 1.0);
    assert_eq!(faults.metrics["faults"], 256.0);
    assert_eq!(faults.timing.wall_ms, 16);
}

#[test]
fn status_snapshots_from_an_earlier_build_read_back() {
    let finished = StatusSnapshot::read(&pinned("finished")).unwrap();
    assert_eq!(finished.schema_version, TELEMETRY_SCHEMA_VERSION);
    assert_eq!(
        (finished.state.as_str(), finished.pid, finished.chunks_done),
        ("finished", 20430, 4)
    );
    assert_eq!(finished.outcomes["detected"], 118);
    assert_eq!(finished.outcomes["masked"], 138);
    assert_eq!(finished.timing.ewma_chunk_ms, 2.308300676);
    // Integral `f64`s were written without a fraction.
    let started = StatusSnapshot::read(&pinned("started")).unwrap();
    assert_eq!(
        (started.state.as_str(), started.chunks_total),
        ("running", 64)
    );
    assert!(started.outcomes.is_empty());
    assert_eq!(started.timing.ewma_chunk_ms, 0.0);
    assert_eq!(started.timing.throughput_chunks_per_s, 0.0);
    for snapshot in [finished, started] {
        let dir = tmpdir("status");
        snapshot.write(&dir).unwrap();
        assert_eq!(StatusSnapshot::read(&dir).unwrap(), snapshot);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `v` without the entries that differ between two runs of one campaign:
/// the writer's pid and the `timing` block.
fn run_independent(v: &Value) -> Value {
    let entries = v.as_object().unwrap();
    Value::Obj(
        (entries.iter())
            .filter(|(k, _)| k != "pid" && k != "timing")
            .cloned()
            .collect(),
    )
}

#[test]
fn a_campaign_writes_the_telemetry_an_earlier_build_wrote() {
    let cfg = CampaignConfig {
        rows: 4,
        cols: 4,
        k: 4,
        faults: 256,
        seed: 7,
        hardening: Hardening::parse("full").unwrap(),
        workers: 2,
        lanes: 4,
        opt: true,
    };
    let dir = tmpdir("campaign");
    run_gemm_campaign_durable(&cfg, &DurabilityOptions::with_dir(&dir)).unwrap();
    let now = read_events(&dir).unwrap();
    let then = read_events(&pinned("finished")).unwrap();
    assert_eq!((now.len(), then.len()), (6, 6));
    for (now, then) in now.iter().zip(&then) {
        assert_eq!(run_independent(now), run_independent(then));
        let keys = |v: &Value| -> Vec<String> {
            let timing = v.get("timing").and_then(Value::as_object).unwrap();
            timing.iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(keys(now), keys(then));
    }
    // The chunks' outcome counts add up to the final snapshot's.
    let mut summed: BTreeMap<String, u64> = BTreeMap::new();
    for event in &then[1..5] {
        for (k, n) in event.get("outcomes").and_then(Value::as_object).unwrap() {
            *summed.entry(k.clone()).or_default() += n.as_u64().unwrap();
        }
    }
    let status = StatusSnapshot::read(&dir).unwrap();
    assert_eq!(status.outcomes, summed);
    assert_eq!(
        StatusSnapshot {
            pid: 20430,
            timing: Default::default(),
            ..status
        },
        StatusSnapshot {
            timing: Default::default(),
            ..StatusSnapshot::read(&pinned("finished")).unwrap()
        }
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
