//! Serializing a report costs about its own text in memory, not a tree of
//! it. One test alone in this file, so no other test thread moves the
//! process's peak while it is read.

use tensorlib_hw::fault::FaultSpec;
use tensorlib_sim::resilience::{Detectors, FaultClass, FaultOutcome, ResilienceReport};

/// The process's peak resident set (`VmHWM`) in bytes, or `None` where
/// `/proc` is absent.
fn peak_rss() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn pretty_report_peak_growth_is_a_small_multiple_of_its_text() {
    const OUTCOMES: usize = 20_000;
    let outcomes: Vec<FaultOutcome> = (0..OUTCOMES)
        .map(|i| FaultOutcome {
            fault: FaultSpec::flip(format!("array.pe_{}_{}.acc", i % 8, i / 8 % 8), 3, i as u64),
            class: [FaultClass::Masked, FaultClass::Detected, FaultClass::Sdc][i % 3],
            detectors: if i % 3 == 1 {
                Detectors::TMR
            } else {
                Detectors::default()
            },
            error: None,
        })
        .collect();
    let report = ResilienceReport {
        design: "gemm_os_8x8".into(),
        hardening: "tmr,parity,abft".into(),
        cycles_per_run: 64,
        faults: OUTCOMES,
        masked: OUTCOMES / 3,
        detected: OUTCOMES / 3,
        sdc: OUTCOMES - 2 * (OUTCOMES / 3),
        errors: 0,
        degraded: 0,
        detection_coverage: 0.5,
        outcomes,
    };
    let Some(before) = peak_rss() else {
        eprintln!("skipped: /proc/self/status is not readable");
        return;
    };
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    let after = peak_rss().expect("/proc/self/status was readable a moment ago");
    let growth = after.saturating_sub(before);
    eprintln!(
        "text {} B, peak growth {growth} B ({:.2}x the text)",
        text.len(),
        growth as f64 / text.len() as f64
    );
    assert!(
        growth <= 2 * text.len(),
        "serializing {} B of text raised the peak by {growth} B",
        text.len()
    );
}
