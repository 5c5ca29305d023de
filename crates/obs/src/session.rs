//! A collected recording session and its export formats.

use std::collections::BTreeMap;

use serde::{JsonWriter, Serialize};

use crate::manifest::Provenance;
use crate::metrics::MetricsSnapshot;

/// One completed span, flushed off a thread's stack.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FinishedSpan {
    /// Static span name, e.g. `dse.stt_enumeration`.
    pub name: String,
    /// Semicolon-joined path from the stack root, e.g. `explore;explore.point`.
    pub path: String,
    /// Stable thread label (`main`, `w00`, `w01`, …).
    pub thread: String,
    /// Pool generation stamped by `set_thread_context`; distinguishes
    /// successive pools reusing the same labels.
    pub generation: u64,
    /// Per-thread open order — part of the deterministic sort key.
    pub seq: u64,
    /// Stack depth when opened (0 = root).
    pub depth: u32,
    /// Start, microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Everything one recording window captured: sorted spans plus the merged
/// metrics snapshot. Produced by [`crate::snapshot`] / [`crate::drain`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Session {
    /// Completed spans, sorted by `(thread, generation, seq)` — a key with
    /// no timestamps in it, so emission order is reproducible.
    pub spans: Vec<FinishedSpan>,
    /// Merged counters/gauges/histograms.
    pub metrics: MetricsSnapshot,
}

impl Session {
    /// Restores the deterministic emission order.
    pub(crate) fn sort(&mut self) {
        self.spans
            .sort_by(|a, b| (&a.thread, a.generation, a.seq).cmp(&(&b.thread, b.generation, b.seq)));
    }

    /// Zeroes every `start_us`/`dur_us` and renumbers pool generations
    /// densely (1, 2, … in first-use order) so two traces of the *same work*
    /// — whether from one run or from two identical runs in the same process
    /// — compare byte-for-byte. Raw generation stamps come from a
    /// process-global counter, so without the renumbering a repeat run would
    /// differ in its `gen` fields alone; the dense relabelling is
    /// order-preserving, so the `(thread, generation, seq)` emission order
    /// is unchanged.
    pub fn scrub_timestamps(&mut self) {
        let gens: std::collections::BTreeSet<u64> =
            self.spans.iter().map(|s| s.generation).collect();
        let dense: BTreeMap<u64, u64> = gens
            .into_iter()
            .enumerate()
            .map(|(i, g)| (g, i as u64 + 1))
            .collect();
        for s in &mut self.spans {
            s.start_us = 0;
            s.dur_us = 0;
            s.generation = dense[&s.generation];
        }
    }

    /// Aggregates spans by name: `name -> (count, total_dur_us)`.
    ///
    /// Totals are inclusive wall time (a parent's total contains its
    /// children), which is what a per-phase breakdown table wants.
    pub fn phase_totals(&self) -> BTreeMap<String, (u64, u64)> {
        let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = totals.entry(s.name.clone()).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_us;
        }
        totals
    }

    /// Exports the session as Chrome Trace Event JSON, loadable in
    /// `chrome://tracing` and Perfetto.
    ///
    /// The envelope is an object with a `traceEvents` array (both viewers
    /// tolerate extra top-level keys, which is where the `schema_version`
    /// and optional provenance manifest ride along). Threads are numbered
    /// by sorted label, and events are emitted in the deterministic session
    /// order, so output is byte-stable modulo the `ts`/`dur` values.
    pub fn to_chrome_trace(&self, provenance: Option<&Provenance>) -> String {
        let tids = self.thread_ids();
        // A pretty envelope with one compact line per event: each event is
        // written by its own compact writer and placed as one item.
        let mut w = JsonWriter::pretty();
        let line = |w: &mut JsonWriter, write: &dyn Fn(&mut JsonWriter)| {
            let mut e = JsonWriter::compact();
            write(&mut e);
            w.raw(format_args!("{}", e.finish()));
        };
        w.open('{');
        w.key("schema_version")
            .u64(crate::manifest::SCHEMA_VERSION.into());
        if let Some(p) = provenance {
            line(w.key("provenance"), &|e| p.serialize(e));
        }
        w.key("displayTimeUnit").str("ms");
        w.key("traceEvents").open('[');
        for (label, &tid) in &tids {
            line(&mut w, &|e| {
                e.open('{');
                e.key("name").str("thread_name");
                e.key("ph").str("M");
                e.key("pid").u64(1);
                e.key("tid").u64(tid);
                e.key("args").open('{');
                e.key("name").str(label);
                e.close('}');
                e.close('}');
            });
        }
        for s in &self.spans {
            line(&mut w, &|e| {
                e.open('{');
                e.key("name").str(&s.name);
                e.key("cat").str("tensorlib");
                e.key("ph").str("X");
                e.key("ts").u64(s.start_us);
                e.key("dur").u64(s.dur_us);
                e.key("pid").u64(1);
                e.key("tid").u64(tids[&s.thread]);
                e.key("args").open('{');
                e.key("path").str(&s.path);
                e.key("gen").u64(s.generation);
                e.key("seq").u64(s.seq);
                e.key("depth").u64(s.depth.into());
                e.close('}');
                e.close('}');
            });
        }
        w.close(']');
        w.close('}');
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Exports folded flamegraph stacks: one `path weight` line per distinct
    /// span path, weighted by *self* time (inclusive minus direct children),
    /// sorted by path. Feed to `inferno`/`flamegraph.pl`.
    pub fn to_folded(&self) -> String {
        // Inclusive totals per path.
        let mut inclusive: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.spans {
            *inclusive.entry(s.path.as_str()).or_insert(0) += s.dur_us;
        }
        // Self time = inclusive − direct children's inclusive.
        let mut out = String::new();
        for (path, total) in &inclusive {
            let child_total: u64 = inclusive
                .iter()
                .filter(|(p, _)| is_direct_child(path, p))
                .map(|(_, t)| *t)
                .sum();
            let self_us = total.saturating_sub(child_total);
            out.push_str(&format!("{path} {self_us}\n"));
        }
        out
    }

    /// Deterministic thread numbering: sorted label → tid starting at 1.
    fn thread_ids(&self) -> BTreeMap<String, u64> {
        let labels: std::collections::BTreeSet<&str> =
            self.spans.iter().map(|s| s.thread.as_str()).collect();
        labels
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k.to_string(), i as u64 + 1))
            .collect()
    }
}

/// Whether `child` is `parent` plus exactly one more `;`-separated segment.
fn is_direct_child(parent: &str, child: &str) -> bool {
    child
        .strip_prefix(parent)
        .and_then(|rest| rest.strip_prefix(';'))
        .is_some_and(|seg| !seg.is_empty() && !seg.contains(';'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_session() -> Session {
        let mk = |name: &str, path: &str, thread: &str, seq, depth, start, dur| FinishedSpan {
            name: name.to_string(),
            path: path.to_string(),
            thread: thread.to_string(),
            generation: 1,
            seq,
            depth,
            start_us: start,
            dur_us: dur,
        };
        let mut s = Session {
            spans: vec![
                mk("explore", "explore", "main", 0, 0, 0, 100),
                mk("explore.point", "explore;explore.point", "w00", 0, 0, 10, 40),
                mk("explore.point", "explore;explore.point", "w01", 0, 0, 12, 45),
            ],
            metrics: MetricsSnapshot::default(),
        };
        s.sort();
        s
    }

    /// The emitted Chrome trace must parse as JSON and carry a traceEvents
    /// array whose events all have the required fields.
    #[test]
    fn chrome_trace_is_well_formed_and_round_trips() {
        let session = sample_session();
        let trace = session.to_chrome_trace(None);
        let doc = json::parse(&trace).expect("trace must be valid JSON");
        assert_eq!(
            doc.get("schema_version").and_then(json::Value::as_u64),
            Some(u64::from(crate::manifest::SCHEMA_VERSION))
        );
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        // 3 thread_name metadata events (main, w00, w01) + 3 X events.
        assert_eq!(events.len(), 6);
        for ev in events {
            let ph = ev.get("ph").and_then(json::Value::as_str).unwrap();
            assert!(ph == "M" || ph == "X");
            assert!(ev.get("pid").is_some());
            assert!(ev.get("tid").is_some());
            if ph == "X" {
                assert!(ev.get("ts").is_some());
                assert!(ev.get("dur").is_some());
                assert!(ev.get("name").is_some());
            }
        }
        // Round-trip: the parsed event data reconstructs the span set.
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), session.spans.len());
        for (ev, span) in xs.iter().zip(&session.spans) {
            assert_eq!(
                ev.get("name").and_then(json::Value::as_str),
                Some(span.name.as_str())
            );
            assert_eq!(ev.get("ts").and_then(json::Value::as_u64), Some(span.start_us));
            assert_eq!(ev.get("dur").and_then(json::Value::as_u64), Some(span.dur_us));
            let args = ev.get("args").unwrap();
            assert_eq!(
                args.get("path").and_then(json::Value::as_str),
                Some(span.path.as_str())
            );
        }
    }

    #[test]
    fn trace_is_byte_stable_after_timestamp_scrub() {
        let mut a = sample_session();
        let mut b = sample_session();
        // Perturb only timestamps, as a second run of the same work would.
        for s in &mut b.spans {
            s.start_us += 17;
            s.dur_us += 3;
        }
        a.scrub_timestamps();
        b.scrub_timestamps();
        assert_eq!(a.to_chrome_trace(None), b.to_chrome_trace(None));
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let session = sample_session();
        let folded = session.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        // explore inclusive 100, children 40+45 → self 15.
        assert_eq!(
            lines,
            vec!["explore 15", "explore;explore.point 85"]
        );
    }

    #[test]
    fn phase_totals_aggregate_by_name() {
        let totals = sample_session().phase_totals();
        assert_eq!(totals["explore"], (1, 100));
        assert_eq!(totals["explore.point"], (2, 85));
    }

    #[test]
    fn chrome_trace_layout_is_pinned() {
        let mk = |name: &str, path: &str, thread: &str, depth, start, dur| FinishedSpan {
            name: name.to_string(),
            path: path.to_string(),
            thread: thread.to_string(),
            generation: 1,
            seq: 0,
            depth,
            start_us: start,
            dur_us: dur,
        };
        let mut session = Session {
            spans: vec![
                mk("explore", "explore", "main", 0, 0, 100),
                mk("say \"hi\"\n", "explore;say \"hi\"\n", "w\t00", 1, 10, 40),
            ],
            metrics: MetricsSnapshot::default(),
        };
        session.sort();
        assert_eq!(
            session.to_chrome_trace(None),
            r#"{
  "schema_version": 1,
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"main"}},
    {"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"w\t00"}},
    {"name":"explore","cat":"tensorlib","ph":"X","ts":0,"dur":100,"pid":1,"tid":1,"args":{"path":"explore","gen":1,"seq":0,"depth":0}},
    {"name":"say \"hi\"\n","cat":"tensorlib","ph":"X","ts":10,"dur":40,"pid":1,"tid":2,"args":{"path":"explore;say \"hi\"\n","gen":1,"seq":0,"depth":1}}
  ]
}
"#
        );
        let with_provenance = session.to_chrome_trace(Some(&Provenance::new("cmd \"x\"")));
        assert!(with_provenance.starts_with(
            "{\n  \"schema_version\": 1,\n  \"provenance\": {\"generator\":\"tensorlib\","
        ));
        assert_eq!(
            Session::default().to_chrome_trace(None),
            "{\n  \"schema_version\": 1,\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": []\n}\n"
        );
    }
}
