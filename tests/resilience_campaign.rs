//! Integration tests for the resilience layer: seeded fault campaigns must
//! be byte-deterministic across worker counts, and a design-space sweep must
//! survive a panicking candidate and a budget-blowing candidate with typed
//! per-point errors instead of a crashed (or silently shortened) result.

use tensorlib::explore::{explore_outcome, ExploreOptions, PointError};
use tensorlib::ir::workloads;
use tensorlib_hw::fault::Hardening;
use tensorlib_sim::resilience::{
    run_gemm_campaign_durable, CampaignConfig, CampaignError, FaultClass, ResilienceReport,
};
use tensorlib_sim::DurabilityOptions;

/// The GEMM campaign with default durability: one unjournaled chunk.
fn run_gemm(cfg: &CampaignConfig) -> Result<ResilienceReport, CampaignError> {
    run_gemm_campaign_durable(cfg, &DurabilityOptions::default()).map(|(report, _)| report)
}


/// Satellite 5: the same seed produces the *serialized-byte-identical*
/// report for one worker and for many. Struct equality is checked in the
/// unit tests; this pins the JSON the CLI actually emits, so a nondeterministic
/// field (map ordering, float formatting, outcome order) cannot sneak in.
#[test]
fn campaign_json_is_byte_identical_across_worker_counts() {
    let base = CampaignConfig {
        rows: 4,
        cols: 4,
        k: 4,
        faults: 24,
        seed: 11,
        hardening: Hardening::full(),
        workers: 1,
        lanes: 1,
        opt: true,
    };
    let serial = run_gemm(&base).expect("campaign runs");
    assert_eq!(serial.outcomes.len(), 24);
    let serial_json = serde_json::to_string_pretty(&serial).expect("serializes");
    for workers in [2, 4, 0] {
        let report = run_gemm(&CampaignConfig { workers, ..base }).expect("campaign runs");
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        assert_eq!(
            serial_json, json,
            "report bytes diverged at {workers} workers"
        );
    }
}

/// Different seeds must actually change the sampled fault list — otherwise
/// the determinism test above would pass vacuously.
#[test]
fn campaign_seed_changes_the_sampled_faults() {
    let base = CampaignConfig {
        faults: 16,
        ..CampaignConfig::default()
    };
    let a = run_gemm(&base).expect("campaign runs");
    let b = run_gemm(&CampaignConfig { seed: base.seed + 1, ..base })
        .expect("campaign runs");
    let faults = |r: &ResilienceReport| {
        r.outcomes
            .iter()
            .map(|o| format!("{:?}", o.fault))
            .collect::<Vec<_>>()
    };
    assert_ne!(faults(&a), faults(&b), "seed had no effect on sampling");
}

/// An unhardened campaign must classify every fault and never report a
/// detection (there is no detector to fire); a fully hardened one must
/// detect at least one fault on a 24-fault sample.
#[test]
fn hardening_turns_sdc_into_detections() {
    let unhardened = CampaignConfig {
        faults: 24,
        seed: 3,
        ..CampaignConfig::default()
    };
    let plain = run_gemm(&unhardened).expect("campaign runs");
    assert_eq!(plain.masked + plain.detected + plain.sdc, plain.faults);
    assert_eq!(plain.detected, 0, "no detector exists, yet one fired");
    let hard = run_gemm(&CampaignConfig {
        hardening: Hardening::full(),
        ..unhardened
    })
    .expect("campaign runs");
    assert_eq!(hard.masked + hard.detected + hard.sdc, hard.faults);
    assert!(hard.detected > 0, "full hardening detected nothing");
    assert!(
        hard
            .outcomes
            .iter()
            .all(|o| o.class != FaultClass::Detected || !o.detectors.is_empty()),
        "a detection must name its detector"
    );
}

/// Acceptance criterion: an explore() run containing a deliberately
/// panicking candidate and a budget-exceeding candidate completes, and both
/// failures surface as typed per-point errors. No candidate is silently
/// dropped: points + errors + skipped covers the whole enumeration.
#[test]
fn explore_isolates_panics_and_budget_blowouts_as_typed_errors() {
    let kernel = workloads::gemm(8, 8, 8);
    let baseline = explore_outcome(&kernel, &ExploreOptions::default());
    assert!(baseline.errors.is_empty(), "baseline sweep must be clean");
    let total = baseline.points.len() + baseline.skipped;
    assert!(baseline.points.len() >= 4, "need a non-trivial design space");

    // Panic the fastest candidate; budget out every candidate slower than
    // the median, leaving the faster half scored as usual.
    let victim = baseline.points[0].name.clone();
    let median = baseline.points[baseline.points.len() / 2]
        .performance
        .total_cycles;
    let chaos = ExploreOptions {
        chaos_panic_names: vec![victim.clone()],
        cycle_budget: Some(median),
        ..ExploreOptions::default()
    };
    let outcome = explore_outcome(&kernel, &chaos);

    assert_eq!(
        outcome.points.len() + outcome.errors.len() + outcome.skipped,
        total,
        "a failing candidate stole another candidate's slot"
    );
    assert!(
        outcome.errors.iter().any(|e| matches!(
            e,
            PointError::Panicked { name, message }
                if *name == victim && message.contains("chaos hook")
        )),
        "panicking candidate missing from errors: {:?}",
        outcome.errors
    );
    assert!(
        outcome.errors.iter().any(|e| matches!(
            e,
            PointError::BudgetExceeded { budget, needed, .. }
                if *budget == median && *needed > *budget
        )),
        "budget-exceeding candidate missing from errors: {:?}",
        outcome.errors
    );
    assert!(
        !outcome.points.is_empty(),
        "the surviving candidates must still be scored"
    );
    assert!(
        outcome
            .points
            .iter()
            .all(|p| p.performance.total_cycles <= median),
        "a point over budget slipped through"
    );

    // The chaotic sweep is still deterministic across worker counts.
    let serial = explore_outcome(
        &kernel,
        &ExploreOptions {
            workers: 1,
            ..chaos.clone()
        },
    );
    let wide = explore_outcome(
        &kernel,
        &ExploreOptions {
            workers: 4,
            ..chaos
        },
    );
    assert_eq!(
        serde_json::to_string(&serial.errors).unwrap(),
        serde_json::to_string(&wide.errors).unwrap()
    );
    assert_eq!(
        serial.points.iter().map(|p| &p.name).collect::<Vec<_>>(),
        wide.points.iter().map(|p| &p.name).collect::<Vec<_>>()
    );
}
