//! Determinism of the parallel design-space exploration: [`explore`] must
//! return the *identical* result list — same designs, same ordering, same
//! scores — no matter how many worker threads score the candidates.
//!
//! The worker pool maps candidates in enumeration order and the final sort is
//! stable with a total tie-break, so this holds by construction; the test
//! pins it against regressions (e.g. a future unordered work queue).

use tensorlib::explore::{explore, ExploreOptions};
use tensorlib::ir::workloads;

fn with_workers(workers: usize) -> ExploreOptions {
    ExploreOptions {
        workers,
        ..ExploreOptions::default()
    }
}

#[test]
fn explore_results_are_identical_for_any_worker_count() {
    let kernel = workloads::gemm(16, 16, 16);
    let serial = explore(&kernel, &with_workers(1));
    assert!(!serial.is_empty());

    for workers in [2, 3, 8, 0] {
        let parallel = explore(&kernel, &with_workers(workers));
        assert_eq!(
            serial.len(),
            parallel.len(),
            "{workers} workers changed the number of designs"
        );
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.name, b.name, "name mismatch at rank {i} ({workers} workers)");
            assert_eq!(
                a.letters, b.letters,
                "letters mismatch at rank {i} ({workers} workers)"
            );
            assert_eq!(
                a.performance.total_cycles, b.performance.total_cycles,
                "cycle count mismatch at rank {i} ({workers} workers)"
            );
            assert_eq!(
                a.asic.area_mm2, b.asic.area_mm2,
                "area mismatch at rank {i} ({workers} workers)"
            );
        }
    }
}

#[test]
fn design_space_dedup_is_identical_for_any_worker_count() {
    use tensorlib::dataflow::dse::{design_space, DseConfig};

    let kernel = workloads::gemm(8, 8, 8);
    let serial = design_space(
        &kernel,
        &DseConfig {
            workers: 1,
            ..DseConfig::default()
        },
    );
    let parallel = design_space(
        &kernel,
        &DseConfig {
            workers: 4,
            ..DseConfig::default()
        },
    );
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.signature(), b.signature());
    }
}

/// The six Fig. 5 kernels' default design spaces, pinned: the design count
/// and an FNV-1a hash over every design's `Display` (its name, per-tensor
/// flows and STT), in output order. A change to classification, dedup or
/// ordering moves the hash. The values were recorded with the earlier
/// rational-arithmetic classifier, so they also hold the integer classifier
/// to its exact output.
#[test]
fn fig5_design_spaces_are_pinned() {
    use tensorlib::dataflow::dse::{design_space, DseConfig};
    use tensorlib::sim::journal::fnv1a64;

    let pinned: [(tensorlib::Kernel, usize, u64); 6] = [
        (workloads::gemm(256, 256, 256), 870, 0x7fb6_c768_c467_83a1),
        (
            workloads::batched_gemv(256, 256, 256),
            138,
            0x5922_4c48_dacb_9069,
        ),
        (workloads::resnet_layer2(), 10_000, 0xc11e_0be3_59a3_0955),
        (
            workloads::depthwise_conv(64, 56, 56, 3, 3),
            5_430,
            0x48e4_12ba_02d2_2a47,
        ),
        (
            workloads::mttkrp(64, 64, 64, 64),
            3_480,
            0x9090_5436_0b81_dba3,
        ),
        (
            workloads::ttmc(32, 32, 32, 32, 32),
            8_700,
            0x37fc_e339_cd11_009d,
        ),
    ];
    for (kernel, count, hash) in &pinned {
        let designs = design_space(kernel, &DseConfig::default());
        let text: String = designs.iter().map(|d| format!("{d}\n")).collect();
        assert_eq!(designs.len(), *count, "{}", kernel.name());
        assert_eq!(fnv1a64(text.as_bytes()), *hash, "{}", kernel.name());
    }
}
