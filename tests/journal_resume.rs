//! Crash-safety integration tests for journaled campaigns (DESIGN.md §14).
//!
//! A `--resume` campaign must survive `kill -9` at *any* byte: whatever
//! prefix of the journal reached disk, resuming reproduces the clean run's
//! report byte-for-byte. The sweep below simulates the crash at every
//! offset inside the final record; the other tests pin the same contract
//! for the fuzz and explore runners and for the panic-quarantine path.

use tensorlib::explore::{explore_durable, ExploreOptions};
use tensorlib::ir::workloads;
use tensorlib_sim::journal::JOURNAL_FILE;
use tensorlib_sim::resilience::{run_gemm_campaign_durable, CampaignConfig};
use tensorlib_sim::verify::{run_verify_durable, VerifyConfig};
use tensorlib_sim::DurabilityOptions;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tl_it_journal_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Byte offset where the journal's final record starts, found by walking
/// the documented on-disk layout: a 24-byte file header, then per record a
/// 16-byte header `[u32 chunk_index][u32 payload_len][u64 checksum]`
/// followed by `payload_len` payload bytes.
fn last_record_start(journal: &[u8]) -> usize {
    const HEADER_LEN: usize = 24;
    const RECORD_HEADER_LEN: usize = 16;
    let mut off = HEADER_LEN;
    let mut last = off;
    while off + RECORD_HEADER_LEN <= journal.len() {
        last = off;
        let len =
            u32::from_le_bytes(journal[off + 4..off + 8].try_into().unwrap()) as usize;
        off += RECORD_HEADER_LEN + len;
    }
    assert_eq!(off, journal.len(), "journal does not end on a record boundary");
    last
}

/// The tentpole acceptance sweep: a fault campaign whose journal is cut at
/// *every* byte offset of the last record — every possible `kill -9` point
/// during the final append — must resume to the byte-identical report.
#[test]
fn faults_report_survives_a_torn_journal_tail_at_every_byte_offset() {
    let cfg = CampaignConfig {
        faults: 8,
        seed: 3,
        ..CampaignConfig::default()
    };
    let (clean, _) = run_gemm_campaign_durable(&cfg, &DurabilityOptions::default()).unwrap();
    let golden = serde_json::to_string_pretty(&clean).unwrap();
    let dir = tmpdir("torn_sweep");
    let opts = DurabilityOptions {
        chunk_size: Some(2),
        ..DurabilityOptions::with_dir(&dir)
    };
    let (full, stats) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
    assert_eq!(serde_json::to_string_pretty(&full).unwrap(), golden);
    assert_eq!(stats.chunks_executed, 4);
    let path = dir.join(JOURNAL_FILE);
    let complete = std::fs::read(&path).unwrap();
    let tail_start = last_record_start(&complete);
    for cut in tail_start..complete.len() {
        std::fs::write(&path, &complete[..cut]).unwrap();
        let (resumed, stats) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
        assert_eq!(
            serde_json::to_string_pretty(&resumed).unwrap(),
            golden,
            "report bytes diverged after truncation at offset {cut}"
        );
        assert_eq!(stats.chunks_replayed, 3, "cut={cut}");
        assert_eq!(stats.chunks_executed, 1, "cut={cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The fuzz runner honours the same contract: crash after the first record
/// lands, resume, and the differential report is byte-identical.
#[test]
fn fuzz_verify_report_resumes_byte_identically_after_a_crash() {
    let cfg = VerifyConfig {
        seeds: 6,
        cycles: 32,
        ..VerifyConfig::default()
    };
    let (clean, _) = run_verify_durable(&cfg, true, true, &DurabilityOptions::default()).unwrap();
    let golden = serde_json::to_string_pretty(&clean).unwrap();
    let dir = tmpdir("fuzz_crash");
    let opts = DurabilityOptions {
        chunk_size: Some(2),
        ..DurabilityOptions::with_dir(&dir)
    };
    let (full, stats) = run_verify_durable(&cfg, true, true, &opts).unwrap();
    assert_eq!(serde_json::to_string_pretty(&full).unwrap(), golden);
    assert!(stats.chunks_total >= 3, "campaign should span several chunks");
    // Keep only the first record — a crash early in the campaign.
    let path = dir.join(JOURNAL_FILE);
    let complete = std::fs::read(&path).unwrap();
    let first_end = {
        const HEADER_LEN: usize = 24;
        const RECORD_HEADER_LEN: usize = 16;
        let len = u32::from_le_bytes(
            complete[HEADER_LEN + 4..HEADER_LEN + 8].try_into().unwrap(),
        ) as usize;
        HEADER_LEN + RECORD_HEADER_LEN + len
    };
    std::fs::write(&path, &complete[..first_end]).unwrap();
    let (resumed, stats) = run_verify_durable(&cfg, true, true, &opts).unwrap();
    assert_eq!(serde_json::to_string_pretty(&resumed).unwrap(), golden);
    assert_eq!(stats.chunks_replayed, 1);
    assert_eq!(stats.chunks_executed, stats.chunks_total - 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// ... and so does the design-space explorer.
#[test]
fn explore_sweep_resumes_byte_identically_after_a_crash() {
    let kernel = workloads::gemm(16, 16, 16);
    let opts = ExploreOptions::default();
    // Default durability: one unjournaled chunk — the golden run.
    let (golden_report, _) =
        explore_durable(&kernel, &opts, &DurabilityOptions::default()).unwrap();
    let golden = serde_json::to_string_pretty(&golden_report).unwrap();
    let dir = tmpdir("explore_crash");
    let durability = DurabilityOptions {
        chunk_size: Some(25),
        ..DurabilityOptions::with_dir(&dir)
    };
    let (full, stats) = explore_durable(&kernel, &opts, &durability).unwrap();
    assert_eq!(serde_json::to_string_pretty(&full).unwrap(), golden);
    assert!(stats.chunks_total >= 2);
    // Tear mid-record, as a crash during the final append would.
    let path = dir.join(JOURNAL_FILE);
    let complete = std::fs::read(&path).unwrap();
    std::fs::write(&path, &complete[..complete.len() - 5]).unwrap();
    let (resumed, stats) = explore_durable(&kernel, &opts, &durability).unwrap();
    assert_eq!(serde_json::to_string_pretty(&resumed).unwrap(), golden);
    assert_eq!(stats.chunks_executed, 1, "only the torn chunk re-runs");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Graceful degradation: a work item that panics on every retry is
/// quarantined as a typed outcome — the campaign still completes, still
/// journals, and a resume replays the quarantined outcome verbatim rather
/// than re-running (and re-crashing on) it.
#[test]
fn quarantined_panic_survives_resume() {
    let cfg = CampaignConfig {
        faults: 8,
        seed: 3,
        ..CampaignConfig::default()
    };
    let (clean, _) = run_gemm_campaign_durable(&cfg, &DurabilityOptions::default()).unwrap();
    let victim = clean.outcomes[2].fault.target.clone();
    let dir = tmpdir("quarantine");
    let opts = DurabilityOptions {
        chunk_size: Some(4),
        panic_retries: 1,
        chaos_panic_targets: vec![victim],
        ..DurabilityOptions::with_dir(&dir)
    };
    let (report, _) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
    assert_eq!(report.faults, 8, "campaign completed despite the panic");
    let quarantined = report
        .outcomes
        .iter()
        .filter(|o| o.error.as_deref().is_some_and(|e| e.contains("quarantined")))
        .count();
    assert!(quarantined > 0, "panic was captured as a typed outcome");
    let golden = serde_json::to_string_pretty(&report).unwrap();
    // Resume over the completed journal: everything replays, including the
    // quarantined outcomes, and the report bytes do not change.
    let (replayed, stats) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
    assert_eq!(serde_json::to_string_pretty(&replayed).unwrap(), golden);
    assert_eq!(stats.chunks_executed, 0);
    assert_eq!(stats.chunks_replayed, stats.chunks_total);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Without a journal or a watchdog a campaign runs as one chunk per mode:
/// a chunk costs a worker-pool spawn and barrier, which at the journaled
/// default sizes added 25-33% wall time to unjournaled fuzz and explore
/// runs on a 2-vCPU host. A watchdog alone keeps the default geometry,
/// because the deadline is per chunk.
#[test]
fn unjournaled_runs_are_one_chunk_per_campaign_mode() {
    let plain = DurabilityOptions::default();
    let watched = DurabilityOptions {
        chunk_timeout: Some(std::time::Duration::from_secs(3600)),
        ..DurabilityOptions::default()
    };
    let faults = CampaignConfig {
        faults: 40,
        seed: 3,
        ..CampaignConfig::default()
    };
    let (_, stats) = run_gemm_campaign_durable(&faults, &plain).unwrap();
    assert_eq!(stats.chunks_total, 1, "faults");
    let (_, stats) = run_gemm_campaign_durable(&faults, &watched).unwrap();
    assert_eq!(stats.chunks_total, 40usize.div_ceil(16), "faults under a watchdog");

    let fuzz = VerifyConfig {
        seeds: 20,
        cycles: 8,
        ..VerifyConfig::default()
    };
    let (_, stats) = run_verify_durable(&fuzz, true, true, &plain).unwrap();
    assert_eq!(stats.chunks_total, 2, "fuzz, both modes");
    let (_, stats) = run_verify_durable(&fuzz, true, true, &watched).unwrap();
    assert_eq!(stats.chunks_total, 2 * 20usize.div_ceil(16), "fuzz under a watchdog");

    let kernel = workloads::gemm(4, 4, 4);
    let opts = ExploreOptions::default();
    let (sweep, stats) = explore_durable(&kernel, &opts, &plain).unwrap();
    assert_eq!(stats.chunks_total, 1, "explore");
    let jobs = sweep.rows.len() + sweep.errors.len() + sweep.skipped as usize;
    let (_, stats) = explore_durable(&kernel, &opts, &watched).unwrap();
    assert_eq!(stats.chunks_total, jobs.div_ceil(32), "explore under a watchdog");
}
