//! A fault campaign's memory grows with the verdicts it records, not with
//! copies of their strings: each outcome shares its fault's target with
//! the campaign's fault list and carries its detectors as a bit set. One
//! test alone in this file, so no other test thread moves the process's
//! peak while it is read.

use tensorlib_hw::fault::Hardening;
use tensorlib_sim::resilience::{run_gemm_campaign_durable, CampaignConfig};
use tensorlib_sim::DurabilityOptions;

/// The process's peak resident set (`VmHWM`) in bytes, or `None` where
/// `/proc` is absent.
fn peak_rss() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn lane_campaign_peak_growth_per_fault_is_bounded() {
    const FAULTS: usize = 40_000;
    // Per fault the run holds its spec (40 B) and its execution-order
    // index (8 B), and, as the one chunk is assembled, its outcome (72 B)
    // twice: once in its lane group's vector, once in the chunk's. What is
    // left covers the design, the lane batches and the golden forks
    // (about 50 B per fault at this size). An outcome that owned a copy of
    // its target and a vector of detector names read ~475 B.
    const BYTES_PER_FAULT: usize = 320;
    let cfg = CampaignConfig {
        faults: FAULTS,
        seed: 1,
        hardening: Hardening::full(),
        lanes: 64,
        ..CampaignConfig::default()
    };
    let Some(before) = peak_rss() else {
        eprintln!("skipped: /proc/self/status is not readable");
        return;
    };
    let (report, _) =
        run_gemm_campaign_durable(&cfg, &DurabilityOptions::default()).expect("campaign runs");
    let after = peak_rss().expect("/proc/self/status was readable a moment ago");
    assert_eq!(report.outcomes.len(), FAULTS);
    assert!(report.detected > 0, "some outcomes carry detectors");
    let growth = after.saturating_sub(before);
    eprintln!(
        "{FAULTS} faults: peak growth {growth} B ({} B per fault)",
        growth / FAULTS
    );
    assert!(
        growth <= BYTES_PER_FAULT * FAULTS,
        "{FAULTS} faults raised the peak by {growth} B, over {BYTES_PER_FAULT} B per fault"
    );
}
