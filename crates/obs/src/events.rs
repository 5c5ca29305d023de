//! Streaming campaign telemetry: the append-only event log and the
//! atomically-replaced status snapshot that live inside a campaign
//! directory, next to `campaign.journal`.
//!
//! Two files, two disciplines:
//!
//! - **`events.jsonl`** ([`EventLog`]): one schema-versioned JSON object per
//!   line, appended and `fsync`ed as the campaign progresses
//!   (`campaign_started`, `chunk_completed`, `chunk_degraded`,
//!   `panic_retry`, `campaign_finished` / `campaign_interrupted`). The file
//!   is append-only across resumes, so it records the full lifecycle of a
//!   campaign including every interruption.
//! - **`status.json`** ([`StatusSnapshot`]): a single JSON object replaced
//!   via [`crate::atomic_write`] on every chunk boundary. Readers (the
//!   `status` / `watch` CLI) always see either the previous or the next
//!   complete snapshot, never a torn one.
//!
//! # Determinism quarantine
//!
//! Campaign *reports* must stay byte-identical for any worker/lane count and
//! across resume; telemetry is where wall-clock truth is allowed to live.
//! Within these files, every wall-clock-derived field sits under a `timing`
//! sub-object ([`StatusTiming`], [`Event::timing`]) so that tooling which
//! diffs telemetry deterministically can strip exactly one structural
//! subtree instead of guessing at field names.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Deserialize, JsonWriter, Serialize};

use crate::json::{self, Value};

/// Schema version stamped on every event line and status snapshot.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 1;

/// Event log file name inside a campaign directory.
pub const EVENTS_FILE: &str = "events.jsonl";

/// Status snapshot file name inside a campaign directory.
pub const STATUS_FILE: &str = "status.json";

/// Milliseconds since the Unix epoch. This is *wall-clock* data: it may only
/// appear under `timing` sub-objects, never in campaign reports.
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Builder for one telemetry event line, written as it is built into a
/// compact [`JsonWriter`]. Field order is call order, so every event
/// renders `schema_version`, then `event`, then its payload, with `timing`
/// conventionally last.
pub struct Event {
    w: JsonWriter<'static>,
}

impl Event {
    /// Starts an event named `event` (e.g. `"chunk_completed"`).
    pub fn new(event: &str) -> Self {
        let mut w = JsonWriter::compact();
        w.open('{');
        w.key("schema_version").u64(TELEMETRY_SCHEMA_VERSION);
        w.key("event").str(event);
        Event { w }
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, val: &str) -> Self {
        self.w.key(key).str(val);
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64(mut self, key: &str, val: u64) -> Self {
        self.w.key(key).u64(val);
        self
    }

    /// Appends a per-outcome counter object (sorted keys, from the map).
    pub fn counts(mut self, key: &str, counts: &BTreeMap<String, u64>) -> Self {
        counts.serialize(self.w.key(key));
        self
    }

    /// Appends the `timing` sub-object: the one place wall-clock data is
    /// allowed. `updated_unix_ms` is always included; extra `(key, ms)`
    /// pairs follow in the given order.
    pub fn timing(mut self, extra_ms: &[(&str, f64)]) -> Self {
        let w = self.w.key("timing");
        w.open('{');
        w.key("updated_unix_ms").u64(unix_ms());
        for &(k, v) in extra_ms {
            w.key(k).f64(v);
        }
        w.close('}');
        self
    }
}

/// An open handle on a campaign's `events.jsonl`. Each append writes one
/// compact line and `fsync`s it, mirroring the journal's durability
/// discipline: an event that was reported is an event that survives a crash.
#[derive(Debug)]
pub struct EventLog {
    file: std::fs::File,
}

impl EventLog {
    /// Opens (creating if needed) the event log inside `dir` for appending.
    pub fn open(dir: &Path) -> io::Result<EventLog> {
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(dir.join(EVENTS_FILE))?;
        Ok(EventLog { file })
    }

    /// Appends one event as a single JSONL line and flushes it to disk.
    pub fn append(&mut self, event: Event) -> io::Result<()> {
        let mut w = event.w;
        w.close('}');
        let mut line = w.finish();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

/// Reads and validates every line of `dir/events.jsonl` (each line must be a
/// complete JSON object). Returns the parsed events in file order: event
/// payloads differ by kind, so they are walked by path.
pub fn read_events(dir: &Path) -> Result<Vec<Value>, String> {
    let path = dir.join(EVENTS_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line)
            .map_err(|e| format!("{}:{}: malformed event line: {e}", path.display(), i + 1))?;
        if v.get("event").and_then(Value::as_str).is_none() {
            return Err(format!(
                "{}:{}: event line has no `event` field",
                path.display(),
                i + 1
            ));
        }
        out.push(v);
    }
    Ok(out)
}

/// Wall-clock-derived status fields, structurally quarantined so the rest of
/// [`StatusSnapshot`] is deterministic for a given campaign state.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StatusTiming {
    /// When this snapshot was written (ms since Unix epoch).
    pub updated_unix_ms: u64,
    /// Wall time since this process started the campaign run, in ms.
    pub elapsed_ms: u64,
    /// Exponentially-weighted moving average of executed-chunk wall time.
    pub ewma_chunk_ms: f64,
    /// Chunks per second implied by the EWMA (0 until a chunk completes).
    pub throughput_chunks_per_s: f64,
    /// Estimated ms to completion: remaining chunks × EWMA chunk time.
    pub eta_ms: u64,
}

/// The atomically-replaced `status.json` snapshot of a running (or just
/// finished / interrupted) campaign. Fields are in file order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusSnapshot {
    /// [`TELEMETRY_SCHEMA_VERSION`] when written; [`StatusSnapshot::read`]
    /// refuses any other.
    pub schema_version: u64,
    /// Campaign kind: `"faults"`, `"fuzz"`, or `"explore"`.
    pub kind: String,
    /// `"running"`, `"finished"`, or `"interrupted"`.
    pub state: String,
    /// PID of the process writing the snapshot. A `"running"` snapshot
    /// whose writer is dead means the campaign was killed (e.g. SIGKILL).
    pub pid: u32,
    /// Journal config hash, hex — ties the snapshot to the journal header.
    pub config_hash: String,
    /// Total chunks in the campaign.
    pub chunks_total: u64,
    /// Chunks accounted for so far (replayed + executed).
    pub chunks_done: u64,
    /// Chunks recovered by replaying the journal on open (resume).
    pub chunks_replayed: u64,
    /// Chunks executed by this process.
    pub chunks_executed: u64,
    /// Per-outcome counters accumulated over all done chunks.
    pub outcomes: BTreeMap<String, u64>,
    /// Wall-clock fields, quarantined.
    pub timing: StatusTiming,
}

impl StatusSnapshot {
    /// Atomically replaces `dir/status.json` with this snapshot.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        let mut text = serde_json::to_string_pretty(self).expect("snapshot serializes");
        text.push('\n');
        crate::atomic_write(dir.join(STATUS_FILE), text.as_bytes())
    }

    /// Reads and decodes `dir/status.json`.
    pub fn read(dir: &Path) -> Result<StatusSnapshot, String> {
        let path = dir.join(STATUS_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let snapshot: StatusSnapshot =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if snapshot.schema_version != TELEMETRY_SCHEMA_VERSION {
            return Err(format!(
                "unsupported status schema_version {} (expected {TELEMETRY_SCHEMA_VERSION})",
                snapshot.schema_version
            ));
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tl_obs_events_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn snapshot() -> StatusSnapshot {
        let mut outcomes = BTreeMap::new();
        outcomes.insert("masked".to_string(), 12);
        outcomes.insert("sdc".to_string(), 1);
        StatusSnapshot {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            kind: "faults".to_string(),
            state: "running".to_string(),
            pid: 4242,
            config_hash: "00ff00ff00ff00ff".to_string(),
            chunks_total: 8,
            chunks_done: 3,
            chunks_replayed: 1,
            chunks_executed: 2,
            outcomes,
            timing: StatusTiming {
                updated_unix_ms: 1_700_000_000_000,
                elapsed_ms: 1234,
                ewma_chunk_ms: 41.5,
                throughput_chunks_per_s: 24.096,
                eta_ms: 208,
            },
        }
    }

    #[test]
    fn status_write_read_round_trips() {
        let dir = tmpdir("status_rw");
        let s = snapshot();
        s.write(&dir).unwrap();
        assert_eq!(StatusSnapshot::read(&dir).unwrap(), s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_rejects_unknown_schema_version() {
        let dir = tmpdir("status_version");
        let s = StatusSnapshot {
            schema_version: 99,
            ..snapshot()
        };
        s.write(&dir).unwrap();
        let err = StatusSnapshot::read(&dir).unwrap_err();
        assert_eq!(err, "unsupported status schema_version 99 (expected 1)");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_pid_past_u32_is_an_error_not_a_truncation() {
        // 2^32 + 1 would truncate to pid 1, which is always alive, so a dead
        // campaign would read as running forever.
        let dir = tmpdir("status_pid");
        snapshot().write(&dir).unwrap();
        let path = dir.join(STATUS_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"pid\": 4242", "\"pid\": 4294967297")).unwrap();
        let err = StatusSnapshot::read(&dir).unwrap_err();
        assert!(
            err.ends_with("expected u32, found `4294967297` at byte 76"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_log_appends_parsable_lines() {
        let dir = tmpdir("event_log");
        let mut log = EventLog::open(&dir).unwrap();
        log.append(
            Event::new("campaign_started")
                .str("kind", "faults")
                .u64("total_chunks", 8)
                .timing(&[]),
        )
        .unwrap();
        let mut counts = BTreeMap::new();
        counts.insert("masked".to_string(), 5);
        log.append(
            Event::new("chunk_completed")
                .u64("chunk", 0)
                .counts("outcomes", &counts)
                .timing(&[("chunk_wall_ms", 12.5)]),
        )
        .unwrap();
        let events = read_events(&dir).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("event").and_then(Value::as_str),
            Some("campaign_started")
        );
        assert_eq!(
            events[0].get("schema_version").and_then(Value::as_u64),
            Some(TELEMETRY_SCHEMA_VERSION)
        );
        assert_eq!(
            events[1]
                .get("outcomes")
                .and_then(|o| o.get("masked"))
                .and_then(Value::as_u64),
            Some(5)
        );
        // Wall-clock data lives only under `timing`.
        assert!(events[1].get("timing").is_some());
        assert!(events[1]
            .get("timing")
            .and_then(|t| t.get("chunk_wall_ms"))
            .is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_events_rejects_malformed_lines() {
        let dir = tmpdir("event_bad");
        std::fs::write(dir.join(EVENTS_FILE), "{\"event\":\"ok\"}\n{oops\n").unwrap();
        let err = read_events(&dir).unwrap_err();
        assert!(err.contains("malformed event line"), "{err}");
        assert!(err.contains(":2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
