//! The read side of campaign journals (DESIGN.md §14). Replay decodes each
//! chunk payload with its derived `Deserialize`, so:
//!
//! - a record that passes its checksum but does not decode stops the
//!   resume with [`JournalError::Decode`], never a silently different
//!   report;
//! - every chunk type reads back exactly what it wrote;
//! - journals written by an earlier build of this tree (committed under
//!   `tests/data/journals`) still resume to the report that build printed.

use std::fmt::Debug;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use tensorlib::explore::{explore_durable, ExploreCampaign, ExploreOptions, PointError};
use tensorlib::ir::workloads;
use tensorlib_hw::fault::FaultKind;
use tensorlib_sim::journal::{config_hash, execute, fnv1a64, Campaign, Journal, JOURNAL_FILE};
use tensorlib_sim::resilience::{
    run_gemm_campaign_durable, CampaignConfig, FaultCampaign, FaultOutcome,
};
use tensorlib_sim::verify::{sample_pipeline, Finding, ModeReport, VerifyCampaign, VerifyConfig};
use tensorlib_sim::{DurabilityOptions, JournalError};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tl_it_decode_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Journals `payload` as chunk 0 of `campaign` in a fresh directory and
/// resumes the campaign over it: `Err` carries the decode error's text.
fn resume_over<C: Campaign>(
    tag: &str,
    campaign: &C,
    durability: DurabilityOptions,
    payload: &str,
) -> Result<(), String> {
    let dir = tmpdir(tag);
    let durability = DurabilityOptions {
        dir: Some(dir.clone()),
        ..durability
    };
    let plan = campaign.chunk_plan(&durability);
    let hash = config_hash(
        C::KIND,
        plan.chunk_size,
        plan.chunks,
        &campaign.canonical_config(),
    );
    let mut journal = Journal::open(&dir, hash, plan.chunks as u32).unwrap();
    journal.append(0, payload).unwrap();
    drop(journal);
    let result = execute(campaign, &durability);
    std::fs::remove_dir_all(&dir).unwrap();
    match result {
        Ok(_) => Ok(()),
        Err(JournalError::Decode(msg)) => Err(msg),
        Err(other) => panic!("{tag}: expected a decode error, got {other}"),
    }
}

/// Resumes over `valid` (which must succeed) and over each corruption of
/// it, which must fail to decode with a message containing the expected
/// text.
fn check_decode_errors<C: Campaign>(
    tag: &str,
    campaign: &C,
    durability: &DurabilityOptions,
    valid: &str,
    corruptions: &[(&str, &str, &str)],
) {
    resume_over(tag, campaign, durability.clone(), valid)
        .unwrap_or_else(|e| panic!("{tag}: the valid payload must decode: {e}"));
    for (from, to, expected) in corruptions {
        assert!(valid.contains(from), "{tag}: fixture drift: {from:?}");
        let bad = valid.replacen(from, to, 1);
        let err = resume_over(tag, campaign, durability.clone(), &bad)
            .expect_err("a corrupt payload must not decode");
        assert!(err.contains(expected), "{tag}: {bad}: {err}");
    }
}

#[test]
fn faults_payload_that_does_not_decode_fails_the_resume() {
    let cfg = CampaignConfig {
        faults: 8,
        seed: 3,
        ..CampaignConfig::default()
    };
    let valid = r#"[{"fault":{"target":"pe_0_0.acc","kind":{"TransientFlip":{"bit":2,"cycle":3}}},"class":"Masked","detectors":["tmr"],"error":null}]"#;
    check_decode_errors(
        "faults",
        &FaultCampaign::gemm(&cfg).unwrap(),
        &DurabilityOptions::default(),
        valid,
        &[
            (r#","error":null"#, "", "expected field `error`, found `}`"),
            (
                r#""detectors":["tmr"]"#,
                r#""detectors":"tmr""#,
                "expected `[`",
            ),
            (r#""bit":2"#, r#""bit":-2"#, "expected u32, found `-2`"),
            (
                "TransientFlip",
                "Melt",
                "unknown variant `Melt` of `FaultKind`",
            ),
            (
                "Masked",
                "Benign",
                "unknown variant `Benign` of `FaultClass`",
            ),
            ("null}]", "null}] []", "trailing garbage"),
        ],
    );
}

#[test]
fn fuzz_payload_that_does_not_decode_fails_the_resume() {
    let cfg = VerifyConfig {
        seeds: 4,
        cycles: 8,
        ..VerifyConfig::default()
    };
    let valid = r#"{"seeds_run":4,"rejected":0,"degraded":0,"findings":[{"mode":"pipeline","seed":2,"kind":"panic","detail":"x","shrunk_nets":null,"modules_json":null,"rust_snippet":null,"pipeline":{"kernel":"gemm","dims":[4,4,4],"selection":["m","n","k"],"stt":[[1,0,0],[0,1,0],[1,1,1]],"rows":4,"cols":4,"hardening":""}}]}"#;
    check_decode_errors(
        "fuzz",
        &VerifyCampaign::new(&cfg, false, true),
        &DurabilityOptions::default(),
        valid,
        &[
            (
                r#""rejected":0,"#,
                "",
                "expected field `rejected`, found `degraded`",
            ),
            (r#""seeds_run":4"#, r#""seeds_run":4.5"#, "found `4.5`"),
            (r#""rows":4"#, r#""rows":"4""#, "expected a number"),
            (
                r#"["m","n","k"]"#,
                r#"["m","n"]"#,
                "expected 3 items, found 2",
            ),
            ("}]}", "}]}}", "trailing garbage"),
        ],
    );
}

#[test]
fn explore_payload_that_does_not_decode_fails_the_resume() {
    let kernel = workloads::gemm(4, 4, 4);
    let opts = ExploreOptions::default();
    let valid = r#"{"rows":[{"name":"MNK-SST","letters":"SST","total_cycles":10,"normalized_perf":0.5,"power_mw":1.25,"area_mm2":0.1}],"errors":[{"BudgetExceeded":{"name":"MNK-MMS","budget":1,"needed":2}}],"skipped":0,"degraded":0}"#;
    check_decode_errors(
        "explore",
        &ExploreCampaign::new(&kernel, &opts),
        // One chunk, so the valid payload replays the whole sweep.
        &DurabilityOptions {
            chunk_size: Some(1 << 20),
            ..DurabilityOptions::default()
        },
        valid,
        &[
            (
                r#""letters":"SST","#,
                "",
                "expected field `letters`, found `total_cycles`",
            ),
            (
                r#""power_mw":1.25"#,
                r#""power_mw":"high""#,
                "expected a number",
            ),
            (
                "BudgetExceeded",
                "Exploded",
                "unknown variant `Exploded` of `PointError`",
            ),
            (r#""degraded":0}"#, r#""degraded":0} x"#, "trailing garbage"),
        ],
    );
}

/// `from_str(to_string(x)) == x`, and the re-serialized text is the same
/// bytes.
fn round_trip<T: Serialize + Deserialize + PartialEq + Debug>(value: &T) {
    let text = serde_json::to_string(value).unwrap();
    let back: T = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(&back, value);
    assert_eq!(serde_json::to_string(&back).unwrap(), text);
}

#[test]
fn fault_outcomes_of_every_kind_round_trip() {
    let cfg = CampaignConfig {
        faults: 64,
        seed: 5,
        hardening: tensorlib_hw::fault::Hardening::full(),
        ..CampaignConfig::default()
    };
    let (clean, _) = run_gemm_campaign_durable(&cfg, &DurabilityOptions::default()).unwrap();
    // A quarantined fault carries an error string.
    let chaos = DurabilityOptions {
        chaos_panic_targets: vec![clean.outcomes[0].fault.target.clone()],
        ..DurabilityOptions::default()
    };
    let (report, _) = run_gemm_campaign_durable(&cfg, &chaos).unwrap();
    let outcomes = report.outcomes;
    let kind = |o: &FaultOutcome| match o.fault.kind {
        FaultKind::StuckAt { .. } => 0,
        FaultKind::TransientFlip { .. } => 1,
        FaultKind::BankFlip { .. } => 2,
        FaultKind::DropTransition { .. } => 3,
    };
    for k in 0..4 {
        assert!(
            outcomes.iter().any(|o| kind(o) == k),
            "fault kind {k} sampled"
        );
    }
    assert!(outcomes.iter().any(|o| o.error.is_some()));
    assert!(outcomes.iter().any(|o| !o.detectors.is_empty()));
    round_trip(&outcomes);
}

#[test]
fn fuzz_findings_round_trip() {
    let finding = |seed: u64, mode: &str| Finding {
        mode: mode.into(),
        seed,
        kind: "mismatch".into(),
        detail: "net \"acc\" differs:\n\tcycle 3 \u{1} é".into(),
        shrunk_nets: None,
        modules_json: None,
        rust_snippet: None,
        pipeline: None,
    };
    let chunk = ModeReport {
        seeds_run: 16,
        rejected: 3,
        degraded: 1,
        findings: vec![
            Finding {
                pipeline: Some(sample_pipeline(11)),
                ..finding(11, "pipeline")
            },
            Finding {
                shrunk_nets: Some(7),
                modules_json: Some(r#"[{"name":"m"}]"#.into()),
                rust_snippet: Some("#[test]\nfn repro() {}\n".into()),
                ..finding(12, "netlist")
            },
        ],
    };
    round_trip(&chunk);
    // Pipeline samples carry signed STT entries.
    let negative = (0..64)
        .map(sample_pipeline)
        .find(|s| s.stt.iter().flatten().any(|&v| v < 0));
    round_trip(&negative.expect("some sampled STT has a negative entry"));
}

#[test]
fn explore_chunks_with_every_point_error_round_trip() {
    let kernel = workloads::gemm(4, 4, 4);
    let plain = ExploreOptions::default();
    let (sweep, _) = explore_durable(&kernel, &plain, &DurabilityOptions::default()).unwrap();
    let mut cycles: Vec<u64> = sweep.rows.iter().map(|r| r.total_cycles).collect();
    cycles.sort_unstable();
    let opts = ExploreOptions {
        cycle_budget: Some(cycles[cycles.len() / 2]),
        chaos_panic_names: vec![sweep.rows[0].name.clone()],
        ..plain
    };
    let (mut report, _) = explore_durable(&kernel, &opts, &DurabilityOptions::default()).unwrap();
    // The functional simulator rejects only a generator bug, so this error
    // is written by hand.
    report.errors.push(PointError::Functional {
        name: "MNK-SST".into(),
        message: "coverage gap: expected 64 MACs, executed 63".into(),
    });
    let has = |f: fn(&PointError) -> bool| report.errors.iter().any(f);
    assert!(has(|e| matches!(e, PointError::Panicked { .. })));
    assert!(has(|e| matches!(e, PointError::BudgetExceeded { .. })));
    assert!(!report.rows.is_empty());
    assert!(report.rows.iter().any(|r| r.normalized_perf.fract() != 0.0));
    assert!(report.rows.iter().any(|r| r.power_mw.fract() != 0.0));
    round_trip(&report);
}

/// The report `tensorlib` wrote to `path`, without its provenance block
/// (wall times, worker count, and the command echo with the journal path).
fn report_without_provenance(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let mut out = Vec::new();
    let mut in_provenance = false;
    for line in text.lines() {
        if line == "  \"provenance\": {" {
            in_provenance = true;
        } else if in_provenance {
            in_provenance = line != "  },";
        } else {
            out.push(line);
        }
    }
    out.join("\n")
}

/// Each committed journal was written by `tensorlib <args> --resume DIR`
/// from an earlier build of this tree (the explore one is cut after its
/// second record, as a crash would leave it). Resuming it, whole and with
/// its last record torn, reproduces the report that build printed, pinned
/// by its FNV-1a hash with the provenance block removed.
#[test]
fn journals_from_an_earlier_build_resume_to_its_report() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/journals");
    let cases: [(&str, &str, u64); 3] = [
        (
            "faults",
            "faults --faults 24 --seed 7 --harden full",
            0xdf0739129bff6ab7,
        ),
        (
            "fuzz",
            "fuzz --mode both --seed 0 --seeds 20",
            0xb07c37573d75c9f5,
        ),
        ("explore", "explore gemm:4,4,4", 0xf75447ebdecdfb66),
    ];
    let kernel = workloads::gemm(4, 4, 4);
    let opts = ExploreOptions::default();
    let sweep = |durability: &DurabilityOptions| {
        let (report, _) = explore_durable(&kernel, &opts, durability).unwrap();
        serde_json::to_string(&report).unwrap()
    };
    let clean_sweep = sweep(&DurabilityOptions::default());
    for (name, args, pinned) in cases {
        let journal = std::fs::read(data.join(name).join(JOURNAL_FILE)).unwrap();
        for torn in [false, true] {
            let tag = format!("{name}_torn_{torn}");
            let dir = tmpdir(&tag);
            let resume = dir.join("journal");
            std::fs::create_dir_all(&resume).unwrap();
            let kept = if torn {
                journal.len() - 7
            } else {
                journal.len()
            };
            std::fs::write(resume.join(JOURNAL_FILE), &journal[..kept]).unwrap();
            let report = dir.join("report.json");
            let mut argv: Vec<String> = args.split(' ').map(String::from).collect();
            argv.extend(["--resume".into(), resume.display().to_string()]);
            argv.extend(["-o".into(), report.display().to_string()]);
            let cmd = tensorlib_cli::parse_args(&argv).unwrap();
            tensorlib_cli::run(cmd).unwrap_or_else(|e| panic!("{tag}: {e}"));
            let text = report_without_provenance(&report);
            assert_eq!(fnv1a64(text.as_bytes()), pinned, "{tag}:\n{text}");
            if name == "explore" {
                // The report lists only the fastest rows; the whole sweep,
                // replayed from the journal the CLI completed, must match a
                // clean run.
                let replayed = sweep(&DurabilityOptions::with_dir(&resume));
                assert_eq!(replayed, clean_sweep, "{tag}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
