//! Crash-safety integration tests for journaled campaigns (DESIGN.md §14).
//!
//! A `--resume` campaign must survive `kill -9` at *any* byte: whatever
//! prefix of the journal reached disk, resuming reproduces the clean run's
//! report byte-for-byte. The sweep below simulates the crash at every
//! offset inside the final record; the other tests pin the same contract
//! for the fuzz and explore runners and for the panic-quarantine path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tensorlib::explore::{explore_durable, ExploreOptions, PointError};
use tensorlib::hw::fault::Hardening;
use tensorlib::ir::workloads;
use tensorlib_obs::events::{read_events, StatusSnapshot};
use tensorlib_obs::json::Value;
use tensorlib_sim::journal::{config_hash, run_chunked_observed, Campaign, Journal, JOURNAL_FILE};
use tensorlib_sim::resilience::{
    run_gemm_campaign_durable, CampaignConfig, CampaignError, FaultCampaign, FaultOutcome,
};
use tensorlib_sim::verify::{run_verify_durable, VerifyConfig};
use tensorlib_sim::{DurabilityOptions, JournalError};

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
    let victim = clean.outcomes[2].fault.target.to_string();
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

/// The outcome counters a journaled run left in `dir`: `status.json`'s, the
/// final event's, and the sum of the `chunk_completed` events after the
/// last `campaign_started` (this run's executed chunks).
fn telemetry_counts(dir: &std::path::Path) -> [BTreeMap<String, u64>; 3] {
    let counts = |event: &Value| -> BTreeMap<String, u64> {
        (event
            .get("outcomes")
            .and_then(Value::as_object)
            .expect("outcomes object")
            .iter())
        .map(|(k, v)| (k.clone(), v.as_u64().expect("count")))
        .collect()
    };
    let events = read_events(dir).unwrap();
    let name = |e: &Value| e.get("event").and_then(Value::as_str).unwrap().to_string();
    let last_start = events
        .iter()
        .rposition(|e| name(e) == "campaign_started")
        .unwrap();
    let mut executed = BTreeMap::new();
    for e in events[last_start..]
        .iter()
        .filter(|e| name(e) == "chunk_completed")
    {
        for (k, v) in counts(e) {
            *executed.entry(k).or_insert(0) += v;
        }
    }
    let last = events.last().unwrap();
    assert_eq!(name(last), "campaign_finished");
    [
        StatusSnapshot::read(dir).unwrap().outcomes,
        counts(last),
        executed,
    ]
}

/// Runs `campaign` journaled into a fresh directory, then resumes it twice:
/// once with its last record torn off (one chunk re-executes, the rest are
/// decoded from the journal) and once over the complete journal. Each run's
/// `status.json` and final event must carry the fresh run's counters, which
/// equal the sum of its per-chunk events. Returns those counters.
fn counts_fresh_and_resumed(
    tag: &str,
    durability: impl Fn(&std::path::Path) -> DurabilityOptions,
    campaign: impl Fn(&DurabilityOptions),
) -> BTreeMap<String, u64> {
    let dir = tmpdir(tag);
    let opts = durability(&dir);
    campaign(&opts);
    let [status, finished, executed] = telemetry_counts(&dir);
    assert_eq!(status, finished, "{tag}: fresh status vs final event");
    assert_eq!(status, executed, "{tag}: fresh status vs chunk events");
    let path = dir.join(JOURNAL_FILE);
    let journal = std::fs::read(&path).unwrap();
    std::fs::write(&path, &journal[..last_record_start(&journal)]).unwrap();
    for resume in ["torn", "complete"] {
        campaign(&opts);
        let [resumed, finished, _] = telemetry_counts(&dir);
        assert_eq!(resumed, status, "{tag}: {resume} resume status");
        assert_eq!(finished, status, "{tag}: {resume} resume final event");
    }
    std::fs::remove_dir_all(&dir).unwrap();
    status
}

/// Telemetry counts typed chunks: a fresh run's counters and a resumed
/// run's (replayed chunks are decoded once and counted from their typed
/// form) agree with each other and with the report, for a chaos-quarantined
/// item and for chunks the watchdog degraded.
#[test]
fn telemetry_counters_match_fresh_and_resumed() {
    let cfg = CampaignConfig {
        faults: 12,
        seed: 3,
        ..CampaignConfig::default()
    };
    let (clean, _) = run_gemm_campaign_durable(&cfg, &DurabilityOptions::default()).unwrap();
    let victim = clean.outcomes[2].fault.target.to_string();
    let quarantined = DurabilityOptions {
        chunk_size: Some(4),
        chaos_panic_targets: vec![victim],
        ..DurabilityOptions::default()
    };
    let degraded = DurabilityOptions {
        chunk_size: Some(4),
        chunk_timeout: Some(std::time::Duration::ZERO),
        ..DurabilityOptions::default()
    };
    let journaled = |opts: &DurabilityOptions| {
        let opts = opts.clone();
        move |dir: &std::path::Path| DurabilityOptions {
            dir: Some(dir.to_path_buf()),
            ..opts.clone()
        }
    };

    let faults = |opts: &DurabilityOptions| run_gemm_campaign_durable(&cfg, opts).unwrap().0;
    let counts = counts_fresh_and_resumed("tele_faults_q", journaled(&quarantined), |o| {
        drop(faults(o))
    });
    let report = faults(&quarantined);
    let panicked = report.outcomes.iter().filter(|o| o.error.is_some()).count() as u64;
    assert!(panicked > 0);
    assert_eq!(counts["panicked"], panicked);
    assert_eq!(counts["errors"], report.errors as u64);
    for (class, n) in [
        ("masked", report.masked),
        ("detected", report.detected),
        ("sdc", report.sdc),
    ] {
        assert_eq!(counts.get(class).copied().unwrap_or(0), n as u64, "{class}");
    }
    let counts =
        counts_fresh_and_resumed("tele_faults_d", journaled(&degraded), |o| drop(faults(o)));
    assert_eq!(counts, BTreeMap::from([("degraded".to_string(), 12)]));

    let kernel = workloads::gemm(4, 4, 4);
    let opts_x = ExploreOptions::default();
    let sweep = explore_durable(&kernel, &opts_x, &DurabilityOptions::default())
        .unwrap()
        .0;
    let victim = sweep.rows[0].name.clone();
    let explore = |opts: &DurabilityOptions| explore_durable(&kernel, &opts_x, opts).unwrap().0;
    let quarantined = DurabilityOptions {
        chunk_size: Some(256),
        chaos_panic_targets: vec![victim],
        ..DurabilityOptions::default()
    };
    let counts = counts_fresh_and_resumed("tele_explore_q", journaled(&quarantined), |o| {
        drop(explore(o))
    });
    let report = explore(&quarantined);
    let panicked = (report.errors.iter())
        .filter(|e| matches!(e, PointError::Panicked { .. }))
        .count() as u64;
    assert!(panicked > 0);
    assert_eq!(counts["panicked"], panicked);
    assert_eq!(counts["designs"], report.rows.len() as u64);
    assert_eq!(counts["errors"], report.errors.len() as u64);
    let degraded = DurabilityOptions {
        chunk_size: Some(256),
        ..degraded
    };
    let counts =
        counts_fresh_and_resumed("tele_explore_d", journaled(&degraded), |o| drop(explore(o)));
    assert_eq!(
        counts["degraded"],
        (sweep.rows.len() + sweep.errors.len()) as u64 + sweep.skipped
    );
    assert_eq!(counts["designs"], 0);
}

/// A lane campaign runs its faults in one campaign-wide order sorted by
/// fork step, so a chunk does not hold consecutive faults. Interrupted
/// after two chunks, its partial report lists exactly the faults of those
/// chunks, in fault order, each with the clean run's outcome; resumed, it
/// reproduces the clean report byte for byte.
#[test]
fn interrupted_lane_campaign_reports_its_completed_chunks_in_fault_order() {
    let cfg = CampaignConfig {
        faults: 40,
        seed: 3,
        hardening: Hardening::full(),
        lanes: 4,
        ..CampaignConfig::default()
    };
    let (clean, _) = run_gemm_campaign_durable(&cfg, &DurabilityOptions::default()).unwrap();
    let dir = tmpdir("lane_interrupt");
    let flag = Arc::new(AtomicBool::new(false));
    let opts = DurabilityOptions {
        chunk_size: Some(8),
        interrupt: Some(flag.clone()),
        ..DurabilityOptions::with_dir(&dir)
    };
    // `journal::execute`'s chunk loop, with the interrupt latched while
    // chunk 1 runs: chunks 0 and 1 complete and journal, chunk 2 never
    // starts.
    let campaign = FaultCampaign::gemm(&cfg).unwrap();
    let plan = campaign.chunk_plan(&opts);
    let hash = config_hash(
        FaultCampaign::KIND,
        plan.chunk_size,
        plan.chunks,
        &campaign.canonical_config(),
    );
    let (slots, stats) = run_chunked_observed(
        &opts,
        hash,
        plan.chunks,
        None,
        |i, chunk| campaign.check_replayed(&plan, i, chunk),
        |i| {
            if i == 1 {
                flag.store(true, Ordering::SeqCst);
            }
            campaign.run_chunk(&plan, i, &opts)
        },
    )
    .unwrap();
    assert!(stats.interrupted);
    let chunks: Vec<Vec<FaultOutcome>> = slots.into_iter().map_while(|slot| slot).collect();
    assert_eq!(chunks.len(), 2);
    let partial = campaign.aggregate(&plan, chunks.clone());
    // The clean outcomes of exactly the faults that ran, in fault order.
    let mut ran: Vec<&FaultOutcome> = chunks.iter().flatten().collect();
    let want: Vec<&FaultOutcome> = (clean.outcomes.iter())
        .filter(|o| ran.iter().position(|r| r == o).map(|at| ran.swap_remove(at)).is_some())
        .collect();
    assert!(ran.is_empty(), "outcomes unlike the clean run's: {ran:?}");
    assert_eq!(partial.outcomes.iter().collect::<Vec<_>>(), want);
    assert_eq!(partial.faults, 16);
    assert_ne!(
        partial.outcomes[..],
        clean.outcomes[..16],
        "the completed chunks hold the first faults, so the sort was not exercised"
    );
    drop(campaign);
    flag.store(false, Ordering::SeqCst);
    let (resumed, stats) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
    assert_eq!((stats.chunks_replayed, stats.chunks_executed), (2, 3));
    assert_eq!(
        serde_json::to_string(&resumed).unwrap(),
        serde_json::to_string(&clean).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A lane campaign's journal key names its campaign-wide execution order:
/// a lane journal keyed by the canonical config without that tag (each of
/// its chunks held consecutive faults) is refused instead of spliced into
/// the report. Scalar keys carry no tag and are unchanged, so older scalar
/// journals still resume (`tests/journal_decode.rs` pins one).
#[test]
fn lane_journal_without_the_order_tag_is_refused() {
    let cfg = CampaignConfig {
        faults: 24,
        seed: 7,
        lanes: 4,
        ..CampaignConfig::default()
    };
    let untagged = |cfg: &CampaignConfig| {
        let canon = CampaignConfig { workers: 0, ..*cfg };
        format!(
            "{}|sampled|lanes={}|opt={}",
            serde_json::to_string(&canon).unwrap(),
            cfg.lanes,
            cfg.opt
        )
    };
    let scalar = CampaignConfig { lanes: 1, ..cfg };
    assert_eq!(
        FaultCampaign::gemm(&scalar).unwrap().canonical_config(),
        untagged(&scalar),
        "the scalar key changed"
    );
    let campaign = FaultCampaign::gemm(&cfg).unwrap();
    assert_ne!(campaign.canonical_config(), untagged(&cfg));
    let dir = tmpdir("untagged_lane_journal");
    let opts = DurabilityOptions {
        chunk_size: Some(8),
        ..DurabilityOptions::with_dir(&dir)
    };
    let plan = campaign.chunk_plan(&opts);
    let hash = config_hash(
        FaultCampaign::KIND,
        plan.chunk_size,
        plan.chunks,
        &untagged(&cfg),
    );
    let mut journal = Journal::open(&dir, hash, plan.chunks as u32).unwrap();
    let chunk = campaign.run_chunk(&plan, 0, &opts);
    journal
        .append(0, &serde_json::to_string(&chunk).unwrap())
        .unwrap();
    drop(journal);
    let err = run_gemm_campaign_durable(&cfg, &opts).unwrap_err();
    assert!(
        matches!(
            err,
            CampaignError::Journal(JournalError::ConfigMismatch { .. })
        ),
        "got {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The journal key covers the config, not the fault list sampling derives
/// from it, so a replayed chunk must name, slot by slot, the faults the
/// campaign runs there. A checksummed record that names other faults (a
/// renamed target, two slots swapped, one missing) is refused with a typed
/// error before any chunk runs, never reported. A genuine record resumes to
/// the clean report, its outcomes sharing the campaign's target strings.
#[test]
fn journaled_chunk_for_other_faults_is_refused() {
    let cfg = CampaignConfig {
        faults: 24,
        seed: 7,
        lanes: 4,
        ..CampaignConfig::default()
    };
    let (clean, _) = run_gemm_campaign_durable(&cfg, &DurabilityOptions::default()).unwrap();
    let campaign = FaultCampaign::gemm(&cfg).unwrap();
    let dir = tmpdir("foreign_chunk");
    let opts = DurabilityOptions {
        chunk_size: Some(8),
        ..DurabilityOptions::with_dir(&dir)
    };
    let plan = campaign.chunk_plan(&opts);
    let hash = config_hash(
        FaultCampaign::KIND,
        plan.chunk_size,
        plan.chunks,
        &campaign.canonical_config(),
    );
    let genuine = campaign.run_chunk(&plan, 1, &opts);
    let journal_with = |chunk: &Vec<FaultOutcome>| {
        let _ = std::fs::remove_file(dir.join(JOURNAL_FILE));
        let mut journal = Journal::open(&dir, hash, plan.chunks as u32).unwrap();
        journal
            .append(1, &serde_json::to_string(chunk).unwrap())
            .unwrap();
    };
    let mut renamed = genuine.clone();
    renamed[3].fault.target = format!("{}_x", renamed[3].fault.target).into();
    let swapped = [
        &genuine[..2],
        &[genuine[3].clone(), genuine[2].clone()],
        &genuine[4..],
    ]
    .concat();
    assert_ne!(swapped, genuine, "the swapped slots hold different faults");
    let short = genuine[..7].to_vec();
    for (name, chunk, detail) in [
        ("renamed", renamed, "outcome 3 is for"),
        ("swapped", swapped, "outcome 2 is for"),
        (
            "short",
            short,
            "7 outcomes where the campaign runs 8 faults",
        ),
    ] {
        journal_with(&chunk);
        let before = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let err = run_gemm_campaign_durable(&cfg, &opts).unwrap_err();
        assert!(
            matches!(
                &err,
                CampaignError::Journal(JournalError::ForeignChunk { chunk: 1, .. })
            ),
            "{name}: got {err}"
        );
        assert!(err.to_string().contains(detail), "{name}: {err}");
        let after = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(after, before, "{name}: a chunk ran before the refusal");
    }
    journal_with(&genuine);
    let (resumed, stats) = run_gemm_campaign_durable(&cfg, &opts).unwrap();
    assert_eq!(stats.chunks_replayed, 1);
    assert_eq!(resumed, clean);
    let mut first_of: BTreeMap<&str, &FaultOutcome> = BTreeMap::new();
    for o in &resumed.outcomes {
        let first = first_of.entry(&o.fault.target).or_insert(o);
        assert!(
            Arc::ptr_eq(&first.fault.target, &o.fault.target),
            "two copies of target {}",
            o.fault.target
        );
    }
    assert!(
        first_of.len() < resumed.outcomes.len(),
        "some target repeats"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
