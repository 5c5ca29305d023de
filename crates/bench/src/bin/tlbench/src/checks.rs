//! Correctness checks over the CLI's report files. Each check pins only
//! invariants that hold for any seed and any legitimate change to the RNG or
//! the cycle model: conservation of counts, zero findings, full detection
//! under full hardening, and agreement between two independent paths.

use tensorlib_obs::json::{self, Value};

fn field<'a>(v: &'a Value, path: &str) -> Result<&'a Value, String> {
    path.split('.')
        .try_fold(v, |v, key| v.get(key))
        .ok_or_else(|| format!("missing field {path}"))
}

fn uint(v: &Value, path: &str) -> Result<u64, String> {
    field(v, path)?
        .as_u64()
        .ok_or_else(|| format!("{path} is not a whole number"))
}

fn not_interrupted(doc: &Value) -> Result<(), String> {
    match field(doc, "interrupted")? {
        Value::Bool(false) => Ok(()),
        other => Err(format!("report marked interrupted: {other:?}")),
    }
}

/// One `faults` report: every fault classified, none silently corrupting,
/// none errored or degraded, and full detection coverage.
pub fn check_faults_report(doc: &Value, faults: u64) -> Result<(), String> {
    not_interrupted(doc)?;
    let total = uint(doc, "report.faults")?;
    if total != faults {
        return Err(format!("report.faults is {total}, expected {faults}"));
    }
    let classified =
        uint(doc, "report.masked")? + uint(doc, "report.detected")? + uint(doc, "report.sdc")?;
    if classified != total {
        return Err(format!(
            "masked + detected + sdc = {classified}, not {total}"
        ));
    }
    for key in ["sdc", "errors", "degraded"] {
        let n = uint(doc, &format!("report.{key}"))?;
        if n != 0 {
            return Err(format!("report.{key} is {n}, expected 0"));
        }
    }
    let coverage = field(doc, "report.detection_coverage")?.as_f64();
    if coverage != Some(1.0) {
        return Err(format!("detection_coverage is {coverage:?}, expected 1.0"));
    }
    Ok(())
}

/// The fresh and the replayed `faults` reports: both pass
/// [`check_faults_report`], their `report` objects are identical, and the
/// second run replayed every journal chunk.
pub fn check_faults_pair(fresh: &str, replayed: &str, faults: u64) -> Result<(), String> {
    let fresh = json::parse(fresh).map_err(|e| format!("fresh report: {e}"))?;
    let replayed = json::parse(replayed).map_err(|e| format!("replayed report: {e}"))?;
    check_faults_report(&fresh, faults).map_err(|e| format!("fresh report: {e}"))?;
    check_faults_report(&replayed, faults).map_err(|e| format!("replayed report: {e}"))?;
    if fresh.get("report") != replayed.get("report") {
        return Err("replayed report differs from the fresh one".into());
    }
    let total = uint(&replayed, "provenance.journal.chunks_total")?;
    let done = uint(&replayed, "provenance.journal.chunks_replayed")?;
    if total == 0 || done != total {
        return Err(format!("replay reused {done} of {total} journal chunks"));
    }
    Ok(())
}

/// A `fuzz --mode both` report: no findings, and both modes ran every seed
/// with none degraded.
pub fn check_fuzz_report(text: &str, seeds: u64) -> Result<(), String> {
    let doc = json::parse(text)?;
    not_interrupted(&doc)?;
    let findings = uint(&doc, "report.total_findings")?;
    if findings != 0 {
        return Err(format!("{findings} fuzz findings"));
    }
    for mode in ["netlist", "pipeline"] {
        let run = uint(&doc, &format!("report.{mode}.seeds_run"))?;
        if run != seeds {
            return Err(format!("{mode} mode ran {run} seeds, expected {seeds}"));
        }
        let degraded = uint(&doc, &format!("report.{mode}.degraded"))?;
        if degraded != 0 {
            return Err(format!("{mode} mode degraded {degraded} seeds"));
        }
    }
    Ok(())
}

/// One design point of an explore ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct RankRow {
    pub name: String,
    pub letters: String,
    pub total_cycles: u64,
    pub normalized_perf: f64,
    pub power_mw: f64,
    pub area_mm2: f64,
}

fn rank_row(v: &Value) -> Result<RankRow, String> {
    let text = |key: &str| -> Result<String, String> {
        Ok(field(v, key)?
            .as_str()
            .ok_or_else(|| format!("top.{key} is not a string"))?
            .to_string())
    };
    let num = |key: &str| -> Result<f64, String> {
        field(v, key)?
            .as_f64()
            .ok_or_else(|| format!("top.{key} is not a number"))
    };
    Ok(RankRow {
        name: text("name")?,
        letters: text("letters")?,
        total_cycles: uint(v, "total_cycles")?,
        normalized_perf: num("normalized_perf")?,
        power_mw: num("power_mw")?,
        area_mm2: num("area_mm2")?,
    })
}

/// An `explore -o` report: every enumerated candidate is accounted for as a
/// design, an error or a skip, and none was degraded. Returns the report's
/// top rows for comparison with an independently recomposed ranking.
pub fn check_explore_report(text: &str, candidates: usize) -> Result<Vec<RankRow>, String> {
    let doc = json::parse(text)?;
    not_interrupted(&doc)?;
    let accounted =
        uint(&doc, "implementable_designs")? + uint(&doc, "errors")? + uint(&doc, "skipped")?;
    if accounted != candidates as u64 {
        return Err(format!(
            "designs + errors + skipped = {accounted}, but the design space has {candidates}"
        ));
    }
    let degraded = uint(&doc, "degraded")?;
    if degraded != 0 {
        return Err(format!("{degraded} candidates degraded"));
    }
    field(&doc, "top")?
        .as_array()
        .ok_or("top is not an array")?
        .iter()
        .map(rank_row)
        .collect()
}

/// The emit-side and parse-side smoke traces of one design must be
/// byte-identical.
pub fn check_traces_match(design: &str, emitted: &[u8], parsed: &[u8]) -> Result<(), String> {
    if emitted.is_empty() {
        return Err(format!("{design}: empty smoke trace"));
    }
    if emitted != parsed {
        return Err(format!(
            "{design}: emit-side and parse-side smoke traces differ"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faults_doc(sdc: u64, masked: u64, replayed: u64) -> String {
        format!(
            r#"{{"provenance": {{"journal": {{"chunks_total": 40, "chunks_replayed": {replayed}}}}},
               "report": {{"faults": 100, "masked": {masked}, "detected": {}, "sdc": {sdc},
                          "errors": 0, "degraded": 0, "detection_coverage": {}}},
               "interrupted": false}}"#,
            100 - masked - sdc,
            if sdc == 0 { "1.0" } else { "0.9" },
        )
    }

    #[test]
    fn faults_pair_accepts_a_clean_replay() {
        assert_eq!(
            check_faults_pair(&faults_doc(0, 60, 0), &faults_doc(0, 60, 40), 100),
            Ok(())
        );
    }

    #[test]
    fn faults_check_fails_on_silent_corruption() {
        let err =
            check_faults_pair(&faults_doc(1, 60, 0), &faults_doc(1, 60, 40), 100).unwrap_err();
        assert!(err.contains("sdc"), "{err}");
    }

    #[test]
    fn faults_check_fails_on_a_divergent_or_partial_replay() {
        let err =
            check_faults_pair(&faults_doc(0, 60, 0), &faults_doc(0, 61, 40), 100).unwrap_err();
        assert!(err.contains("differs"), "{err}");
        let err =
            check_faults_pair(&faults_doc(0, 60, 0), &faults_doc(0, 60, 39), 100).unwrap_err();
        assert!(err.contains("39 of 40"), "{err}");
        let err = check_faults_pair(&faults_doc(0, 60, 0), &faults_doc(0, 60, 40), 99).unwrap_err();
        assert!(err.contains("expected 99"), "{err}");
    }

    fn fuzz_doc(findings: u64, seeds_run: u64) -> String {
        format!(
            r#"{{"report": {{"total_findings": {findings},
                 "netlist": {{"seeds_run": 1500, "degraded": 0}},
                 "pipeline": {{"seeds_run": {seeds_run}, "degraded": 0}}}},
               "interrupted": false}}"#
        )
    }

    #[test]
    fn fuzz_check_fails_on_one_finding() {
        assert_eq!(check_fuzz_report(&fuzz_doc(0, 1500), 1500), Ok(()));
        let err = check_fuzz_report(&fuzz_doc(1, 1500), 1500).unwrap_err();
        assert!(err.contains("1 fuzz findings"), "{err}");
        let err = check_fuzz_report(&fuzz_doc(0, 1499), 1500).unwrap_err();
        assert!(err.contains("pipeline mode ran 1499"), "{err}");
    }

    #[test]
    fn explore_check_accounts_for_every_candidate() {
        let doc = r#"{"implementable_designs": 6, "errors": 1, "skipped": 3, "degraded": 0,
            "top": [{"name": "KCX-SST", "letters": "SST", "total_cycles": 42,
                     "normalized_perf": 0.5, "power_mw": 12.25, "area_mm2": 1.5}],
            "interrupted": false}"#;
        let top = check_explore_report(doc, 10).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].total_cycles, 42);
        assert_eq!(top[0].power_mw, 12.25);
        let err = check_explore_report(doc, 11).unwrap_err();
        assert!(err.contains("has 11"), "{err}");
    }

    #[test]
    fn traces_must_match_byte_for_byte() {
        assert_eq!(check_traces_match("gemm", b"0 y=1\n", b"0 y=1\n"), Ok(()));
        assert!(check_traces_match("gemm", b"0 y=1\n", b"0 y=2\n").is_err());
        assert!(check_traces_match("gemm", b"", b"").is_err());
    }
}
