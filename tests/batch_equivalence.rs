//! Lane-vs-scalar equivalence for the batched simulation engine.
//!
//! The determinism contract (DESIGN.md §12): lane `l` of a
//! [`tensorlib::hw::batch::BatchSim`] run is bit-identical — every flat net,
//! every cycle — to a scalar interpreter run given the same stimulus and
//! faults. These tests prove the contract over the fuzz netlist generator
//! (hundreds of random netlists × lane widths 1, 8, and 64) and over real
//! fault campaigns (batched resilience reports byte-identical to the scalar
//! baseline at several lane widths and worker counts).

use tensorlib::hw::fuzz::{check_batch_netlist, gen_netlist, NetlistFuzzConfig};
use tensorlib::sim::resilience::{
    run_campaign, run_gemm_campaign_durable, CampaignConfig, CampaignError, ResilienceReport,
};
use tensorlib::sim::DurabilityOptions;
use tensorlib_hw::fault::Hardening;

/// The GEMM campaign with default durability: one unjournaled chunk.
fn run_gemm(cfg: &CampaignConfig) -> Result<ResilienceReport, CampaignError> {
    run_gemm_campaign_durable(cfg, &DurabilityOptions::default()).map(|(report, _)| report)
}

/// The tentpole equivalence sweep: ≥200 generator seeds, every flat net
/// compared against a scalar reference on every lane after every cycle, at
/// lane widths 1 (degenerate batch), 8, and 64. `check_batch_netlist` seeds
/// each lane with its own stimulus stream (lane 0 replays the scalar
/// campaign stream), so wider widths genuinely diversify the state space
/// rather than replicating lane 0.
#[test]
fn batched_engine_matches_scalar_on_fuzzed_netlists() {
    let cfg = NetlistFuzzConfig::default();
    for seed in 0..200 {
        let (modules, top) = gen_netlist(seed, &cfg);
        for lanes in [1, 8, 64] {
            check_batch_netlist(&modules, &top, seed, cfg.cycles, lanes).unwrap_or_else(|f| {
                panic!("seed {seed} lanes {lanes}: {}: {}", f.kind.label(), f.detail)
            });
        }
    }
}

/// Batched GEMM fault campaigns must serialize to the very bytes the scalar
/// campaign produces — for lane widths that divide the fault count, ones
/// that don't (ragged final chunk), widths wider than the campaign, and any
/// worker count.
#[test]
fn batched_gemm_campaign_reports_match_scalar_bytes() {
    let mk = |lanes: usize, workers: usize| {
        let report = run_gemm(&CampaignConfig {
            faults: 24,
            seed: 7,
            hardening: Hardening::full(),
            workers,
            lanes,
            ..CampaignConfig::default()
        })
        .expect("campaign runs");
        serde_json::to_string(&report).expect("report serializes")
    };
    let scalar = mk(1, 1);
    for (lanes, workers) in [(8, 1), (8, 4), (5, 2), (64, 3)] {
        assert_eq!(
            scalar,
            mk(lanes, workers),
            "lanes={lanes} workers={workers} changed the report bytes"
        );
    }
}

/// Same byte-identity for the generic ramp-stimulus campaign (different
/// harness protocol, different golden signature).
#[test]
fn batched_ramp_campaign_reports_match_scalar_bytes() {
    let mk = |lanes: usize| {
        let report = run_campaign(&CampaignConfig {
            faults: 12,
            seed: 5,
            hardening: Hardening {
                tmr_ctrl: true,
                parity_banks: true,
                abft: false,
            },
            workers: 2,
            lanes,
            ..CampaignConfig::default()
        })
        .expect("campaign runs");
        serde_json::to_string(&report).expect("report serializes")
    };
    assert_eq!(mk(1), mk(8), "lanes=8 changed the ramp campaign report");
}
