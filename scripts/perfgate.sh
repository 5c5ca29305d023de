#!/usr/bin/env bash
# Performance gate: build, run the test suite, then benchmark the evaluation
# hot path. perfgate times each gate as interleaved same-process pairs and
# checks the median of the per-round ratios against a constant bound: the
# compiled interpreter against the tree-walker, the pay-for-use overhead
# ceilings (trace-off, fault-armed, obs-disabled, journal, telemetry), the
# batch_sim floor (the 64-lane batched engine must retire >=4x scalar
# fault-campaign throughput), the optimizer's floor and ceiling, and — on
# multi-core hosts only — the parallel-explore speedup floor. Exits 1 if any
# gate fails. Rewrites BENCH_perfgate.json as a record of the run.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
./target/release/perfgate
