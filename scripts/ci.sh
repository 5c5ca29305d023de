#!/usr/bin/env bash
# Tier-1 CI: release build, the full test suite and every crate's unit
# tests, workspace clippy, the observability battery (named individually so
# a failure is attributable at a glance), the CLI smokes, then the
# performance gate: paired, same-process ratios (compiled vs tree-walking
# interpreter, the pay-for-use overhead ceilings, the batched-engine floor,
# journal and telemetry cost) against constant bounds in perfgate.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace is load-bearing: the root umbrella package only *dev*-depends
# on the CLI, so a bare `cargo build` leaves ./target/release/tensorlib (and
# perfgate) stale and every smoke below would run against old bits.
cargo build --release --workspace
cargo test -q
# Every other crate's unit and integration tests (the root suite just ran).
cargo test -q --workspace --exclude tensorlib-suite
cargo clippy -q --workspace --all-targets -- -D warnings

# Observability battery (all are part of `cargo test` above; re-run by name).
cargo test -q --test pe_golden
cargo test -q --test trace_observability
cargo test -q --test observability
cargo test -q --test proptest_pipeline
cargo test -q --test fuzz_regressions
cargo test -q --test interchange_roundtrip
cargo test -q -p tensorlib-hw --lib trace
cargo test -q -p tensorlib-sim --lib trace

# Fault-campaign smoke: a small seeded campaign on a fully hardened 4x4 OS
# GEMM must classify every fault and report full detection coverage logic
# without error (report goes to stdout; jq-free sanity grep).
./target/release/tensorlib faults --faults 8 --seed 7 --harden full -o - \
    | grep -q '"detection_coverage"'

# Differential-fuzz smoke: a bounded fixed-seed campaign in both modes must
# survive every oracle (engine differential, emission lint, validators,
# functional executor) with zero findings. The report is byte-deterministic
# for any worker count, so the grep is stable.
./target/release/tensorlib fuzz --mode both --seed 0 --seeds 200 -o - \
    | grep -q '"total_findings": 0'

# Batched-engine smokes: the same campaigns through the lane engine. Reports
# are byte-identical to scalar for any --lanes width, so the same greps (and
# a direct byte comparison for the fault campaign) must hold. The provenance
# wall-time block and its requested-lanes echo are the only parts of a CLI
# report that legitimately vary here, so both are stripped before comparing.
./target/release/tensorlib faults --faults 8 --seed 7 --harden full -o - \
    | sed -e '/"phase_wall_times_us"/,/}/d' -e '/^    "lanes": /d' \
    > /tmp/ci_faults_scalar.json
./target/release/tensorlib faults --faults 8 --seed 7 --harden full --lanes 8 -o - \
    | sed -e '/"phase_wall_times_us"/,/}/d' -e '/^    "lanes": /d' \
    > /tmp/ci_faults_lanes.json
cmp /tmp/ci_faults_scalar.json /tmp/ci_faults_lanes.json
rm -f /tmp/ci_faults_scalar.json /tmp/ci_faults_lanes.json
# Multi-group forking: at --lanes 64 the campaign's faults are sorted once
# by fork step and every lane group starts from the golden run's state at
# its earliest fault. 512 sampled faults, and the 8x8 accumulator sweep (64 accumulators
# x 8 bits), are 8 lane groups each; both reports must equal the unforked
# scalar run's at 1 and 2 workers (the worker count is echoed twice). Each
# runs fully hardened, parity-only (no TMR voter reconverges a faulty
# controller, and banks commit lane by lane once addresses diverge) and
# unhardened, with the optimizer on and off (an unoptimized netlist keeps
# the wire copies and aliases that the lane program lowers differently).
fork_dir=$(mktemp -d)
strip_lane_shape() {
    sed -e '/"phase_wall_times_us"/,/}/d' -e '/^    "lanes": /d' -e '/^    "workers": /d'
}
for harden in full parity none; do
    for mode in "--faults 512" "--sweep-acc"; do
        for opt in on off; do
            ./target/release/tensorlib faults --rows 8 --cols 8 $mode --seed 7 \
                --harden "$harden" --opt "$opt" -o - | strip_lane_shape > "$fork_dir/scalar.json"
            for workers in 1 2; do
                ./target/release/tensorlib faults --rows 8 --cols 8 $mode --seed 7 \
                    --harden "$harden" --opt "$opt" --lanes 64 --workers "$workers" -o - \
                    | strip_lane_shape > "$fork_dir/lanes.json"
                cmp "$fork_dir/scalar.json" "$fork_dir/lanes.json"
            done
        done
    done
    grep -q '"faults": 512' "$fork_dir/scalar.json"
done
rm -rf "$fork_dir"
./target/release/tensorlib fuzz --mode netlist --seed 0 --seeds 50 --lanes 8 -o - \
    | grep -q '"total_findings": 0'

# Interchange round-trip smoke (DESIGN.md §15): emit a small design to both
# interchange formats with a seeded 64-cycle smoke trace, re-parse each file
# (auto-detected), recompile, and require the re-parsed side to reproduce
# the emitting side's output trace byte-for-byte. The netlist-mode fuzz
# smokes above already chain the text/yosys round-trip oracles per seed.
rt_dir=$(mktemp -d)
./target/release/tensorlib emit gemm:8,8,8 MNK-SST --rows 2 --cols 2 \
    --format text --sim-cycles 64 --trace-out "$rt_dir/emit_text.trace" \
    -o "$rt_dir/n.tl" >/dev/null
./target/release/tensorlib emit gemm:8,8,8 MNK-SST --rows 2 --cols 2 \
    --format yosys-json --sim-cycles 64 --trace-out "$rt_dir/emit_json.trace" \
    -o "$rt_dir/n.json" >/dev/null
./target/release/tensorlib parse "$rt_dir/n.tl" --sim-cycles 64 \
    --trace-out "$rt_dir/parse_text.trace" -o - | grep -q "optimizer recompile"
./target/release/tensorlib parse "$rt_dir/n.json" --sim-cycles 64 \
    --trace-out "$rt_dir/parse_json.trace" -o - | grep -q "parsed yosys-json"
cmp "$rt_dir/emit_text.trace" "$rt_dir/parse_text.trace"
cmp "$rt_dir/emit_json.trace" "$rt_dir/parse_json.trace"
# Both formats describe the same design, so all four traces agree.
cmp "$rt_dir/emit_text.trace" "$rt_dir/emit_json.trace"
# The same round trip on two of the largest Fig. 5 designs at the paper's
# 16x16 array, the shape the tlbench rtl-roundtrip workload runs.
roundtrip_16x16() {
    ./target/release/tensorlib emit "$1" "$2" --rows 16 --cols 16 --format text \
        --sim-cycles 64 --trace-out "$rt_dir/$1.emit.trace" -o "$rt_dir/$1.tl" >/dev/null
    ./target/release/tensorlib parse "$rt_dir/$1.tl" --sim-cycles 64 \
        --trace-out "$rt_dir/$1.parse.trace" >/dev/null
    cmp "$rt_dir/$1.emit.trace" "$rt_dir/$1.parse.trace"
}
roundtrip_16x16 mttkrp IKL-UBBB
roundtrip_16x16 ttmc IJK-BBBU
rm -rf "$rt_dir"

# Committed-figure smoke: fig5, fig6 and table3 regenerate reports/ byte
# for byte, which also pins the matrix find_named picks for every Fig. 5
# name. Each binary rewrites reports/<fig>.json in place, so the JSON is
# compared against a copy taken first (on a mismatch, `git diff reports/`
# shows the drift); the whole stdout, down to its closing
# `wrote reports/<fig>.json`, must match reports/<fig>.txt. table1 prints
# only its table, computed by the Table I classifier; table2 prints only
# its table, with reference-executor checksums over seeded random inputs.
fig_dir=$(mktemp -d)
for fig in fig5 fig6 table3; do
    cp "reports/$fig.json" "$fig_dir/$fig.committed.json"
    ./target/release/$fig | cmp "reports/$fig.txt" -
    cmp "$fig_dir/$fig.committed.json" "reports/$fig.json"
done
./target/release/table1 | cmp reports/table1.txt -
./target/release/table2 | cmp reports/table2.txt -
rm -rf "$fig_dir"

# Optimizer smokes. First, 200 netlist-fuzz seeds with the opt-vs-unoptimized
# lock-step oracle explicitly armed: every generated netlist is optimized and
# the optimized form must agree bit-for-bit with the original on all three
# engines plus the emission lint.
./target/release/tensorlib fuzz --mode netlist --seed 0 --seeds 200 --opt on -o - \
    | grep -q '"total_findings": 0'
# Second, the same fault campaign with the optimizer on and off must classify
# identically — optimization preserves every port and register, so the fault
# site list and every per-fault outcome are byte-identical (wall times are
# the one nondeterministic block, and the provenance command echo records
# the --opt value itself).
./target/release/tensorlib faults --faults 8 --seed 7 --harden full --opt on -o - \
    | sed -e '/"phase_wall_times_us"/,/}/d' -e '/^    "command": /d' \
    > /tmp/ci_faults_opt_on.json
./target/release/tensorlib faults --faults 8 --seed 7 --harden full --opt off -o - \
    | sed -e '/"phase_wall_times_us"/,/}/d' -e '/^    "command": /d' \
    > /tmp/ci_faults_opt_off.json
cmp /tmp/ci_faults_opt_on.json /tmp/ci_faults_opt_off.json
grep -q '"masked"' /tmp/ci_faults_opt_on.json
rm -f /tmp/ci_faults_opt_on.json /tmp/ci_faults_opt_off.json

# Framework-observability smoke: a profiled sweep must emit a Chrome trace
# that covers the whole generation pipeline (enumeration through cost) and
# carries the versioned provenance manifest; ordinary JSON reports must
# carry provenance too.
profile_dir=$(mktemp -d)
./target/release/tensorlib profile gemm:4,4,4 --workers 2 \
    -o "$profile_dir/p.trace.json" >/dev/null
for needle in '"traceEvents"' '"schema_version"' '"provenance"' \
    dse.stt_enumeration dse.classification hw.elaboration hw.bytecode_compile \
    sim.functional sim.measure cost.asic; do
    grep -q "$needle" "$profile_dir/p.trace.json"
done
test -s "$profile_dir/p.folded"
./target/release/tensorlib stats gemm:4,4,4 MNK-SST --rows 4 --cols 4 -o - \
    | grep -q '"provenance"'
# A profiled fuzz run splits the optimizer, the interchange round trips, the
# shared fuzz reference and the pipeline rounds into their own spans.
./target/release/tensorlib fuzz --mode both --seeds 50 -o - \
    --profile "$profile_dir/fuzz.trace.json" | grep -q '"total_findings": 0'
for needle in '"hw.opt"' '"hw.opt.cse"' '"hw.text.emit"' '"hw.text.parse"' \
    '"hw.yosys.emit"' '"hw.yosys.parse"' '"hw.fuzz.reference"' \
    '"sim.verify.differential_round"' '"sim.verify.opt_round"'; do
    grep -q "$needle" "$profile_dir/fuzz.trace.json"
done
# A design compiles its bytecode once, whatever runs it: the trace holds no
# more compile events than flatten events (counted as events, since the
# provenance's phase table names both spans on one line).
compiles=$(grep -c '"name":"hw.bytecode_compile"' "$profile_dir/fuzz.trace.json")
flattens=$(grep -c '"name":"hw.flatten"' "$profile_dir/fuzz.trace.json")
if [ "$compiles" -gt "$flattens" ]; then
    echo "fuzz trace: $compiles bytecode compiles for $flattens flattens" >&2
    exit 1
fi
# A profiled journaled fault campaign times each journal append (write plus
# fsync) in its own span, and the report's serialization and write in
# theirs; its profiled replay times the journal decode.
./target/release/tensorlib faults --faults 512 --seed 7 --resume "$profile_dir/journal" \
    --profile "$profile_dir/faults.trace.json" -o "$profile_dir/faults.json" >/dev/null
grep -q '"faults": 512' "$profile_dir/faults.json"
for needle in '"sim.journal.append"' '"report.serialize"' '"report.write"'; do
    grep -q "$needle" "$profile_dir/faults.trace.json"
done
./target/release/tensorlib faults --faults 512 --seed 7 --resume "$profile_dir/journal" \
    --profile "$profile_dir/replay.trace.json" -o "$profile_dir/replay.json" >/dev/null
grep -q '"faults": 512' "$profile_dir/replay.json"
for needle in '"sim.journal.decode"' '"report.serialize"' '"report.write"'; do
    grep -q "$needle" "$profile_dir/replay.trace.json"
done
rm -rf "$profile_dir"

# Explore smoke: a small sweep prints the same top-20 table inert, journaled
# across several chunks, and replayed from that journal.
explore_dir=$(mktemp -d)
./target/release/tensorlib explore gemm:8,8,8 --top 20 > "$explore_dir/inert.txt"
./target/release/tensorlib explore gemm:8,8,8 --top 20 \
    --resume "$explore_dir/journal" > "$explore_dir/journaled.txt"
test "$(grep -c '"event":"chunk_completed"' "$explore_dir/journal/events.jsonl")" -ge 2
cmp "$explore_dir/inert.txt" "$explore_dir/journaled.txt"
./target/release/tensorlib explore gemm:8,8,8 --top 20 \
    --resume "$explore_dir/journal" > "$explore_dir/replayed.txt"
cmp "$explore_dir/inert.txt" "$explore_dir/replayed.txt"
rm -rf "$explore_dir"

# Crash-safety smoke (DESIGN.md §14): SIGKILL a journaled fault campaign
# mid-run, resume it with the identical command, and require the resumed
# report to be byte-identical to an uninterrupted journaled run. Wall times
# and the journal replay counters are the two legitimately run-dependent
# report blocks, so both are stripped before the comparison.
crash_dir=$(mktemp -d)
strip_run_provenance() {
    sed -e '/"phase_wall_times_us"/,/}/d' -e '/"journal": {/,/}/d' \
        -e '/"journal": null/d' "$1"
}
./target/release/tensorlib faults --faults 1024 --k 512 --seed 7 --harden full \
    --resume "$crash_dir/clean_journal" -o "$crash_dir/clean.json" >/dev/null
./target/release/tensorlib faults --faults 1024 --k 512 --seed 7 --harden full \
    --resume "$crash_dir/journal" -o "$crash_dir/killed.json" >/dev/null &
victim=$!
sleep 0.6
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
# The journal survived the kill (header + every completed chunk's record)...
test -s "$crash_dir/journal/campaign.journal"
# ... and resuming replays it and finishes the campaign byte-identically.
./target/release/tensorlib faults --faults 1024 --k 512 --seed 7 --harden full \
    --resume "$crash_dir/journal" -o "$crash_dir/resumed.json" >/dev/null
strip_run_provenance "$crash_dir/clean.json" > "$crash_dir/clean.stripped"
strip_run_provenance "$crash_dir/resumed.json" > "$crash_dir/resumed.stripped"
cmp "$crash_dir/clean.stripped" "$crash_dir/resumed.stripped"
# Resuming under a *drifted* config must refuse loudly, not silently restart.
if ./target/release/tensorlib faults --faults 1024 --k 512 --seed 8 --harden full \
    --resume "$crash_dir/journal" -o - >/dev/null 2>"$crash_dir/drift.err"; then
    echo "ci: drifted --resume was not rejected" >&2
    exit 1
fi
grep -q "different campaign config" "$crash_dir/drift.err"
rm -rf "$crash_dir"

# Chunk-geometry smoke: an unjournaled campaign runs as one chunk (one per
# fuzz mode), a --resume run as default-size chunks; both, and a replay of
# the journal, must produce the same report bytes once the run-dependent
# provenance is stripped. The first argument is the least number of
# journal chunks the campaign must span.
geom_dir=$(mktemp -d)
geometry_smoke() {
    min_chunks=$1
    shift
    ./target/release/tensorlib "$@" -o "$geom_dir/inert.json" >/dev/null
    ./target/release/tensorlib "$@" --resume "$geom_dir/journal" \
        -o "$geom_dir/journaled.json" >/dev/null
    ./target/release/tensorlib "$@" --resume "$geom_dir/journal" \
        -o "$geom_dir/replayed.json" >/dev/null
    test "$(grep -c '"event":"chunk_completed"' "$geom_dir/journal/events.jsonl")" \
        -ge "$min_chunks"
    for run in inert journaled replayed; do
        strip_run_provenance "$geom_dir/$run.json" > "$geom_dir/$run.stripped"
    done
    cmp "$geom_dir/inert.stripped" "$geom_dir/journaled.stripped"
    cmp "$geom_dir/inert.stripped" "$geom_dir/replayed.stripped"
    rm -rf "$geom_dir/journal"
}
geometry_smoke 2 fuzz --mode both --seed 0 --seeds 200
# 64 faults fit one default journal chunk (16 x lanes = 128 faults).
geometry_smoke 1 faults --faults 64 --lanes 8 --harden full --seed 7
rm -rf "$geom_dir"

# Report-stream smoke: a report written to a file is serialized straight
# into it, drained many times over (the 2,000-fault report is ~580 KB); it
# must hold the bytes the same command prints on stdout, once the run-dependent
# provenance is stripped.
stream_dir=$(mktemp -d)
./target/release/tensorlib faults --faults 2000 --lanes 8 -o "$stream_dir/file.json" >/dev/null
./target/release/tensorlib faults --faults 2000 --lanes 8 -o - > "$stream_dir/stdout.json"
test "$(wc -c < "$stream_dir/file.json")" -gt $((4 * 65536))
for run in file stdout; do
    strip_run_provenance "$stream_dir/$run.json" > "$stream_dir/$run.stripped"
done
cmp "$stream_dir/file.stripped" "$stream_dir/stdout.stripped"
rm -rf "$stream_dir"

# Campaign-telemetry smoke (DESIGN.md §16): a journaled campaign streams an
# append-only events.jsonl and an atomically-replaced status.json into its
# --resume dir. `tensorlib status` renders a parsable running snapshot
# mid-run (exit 2), reports finished (exit 0) afterwards, and the completed
# run appends a history.jsonl entry next to its report.
tele_dir=$(mktemp -d)
./target/release/tensorlib faults --faults 1024 --k 512 --seed 7 --harden full \
    --resume "$tele_dir/journal" -o "$tele_dir/reports/run.json" >/dev/null &
runner=$!
status_rc=-1
for _ in $(seq 1 50); do
    set +e
    snap=$(./target/release/tensorlib status "$tele_dir/journal" --json 2>/dev/null)
    status_rc=$?
    set -e
    if [ "$status_rc" -eq 2 ]; then
        printf '%s' "$snap" | grep -q '"state": "running"'
        printf '%s' "$snap" | grep -q '"chunks_total"'
        break
    fi
    sleep 0.1
done
if [ "$status_rc" -ne 2 ]; then
    echo "ci: never observed a running status snapshot (last rc $status_rc)" >&2
    exit 1
fi
wait "$runner"
./target/release/tensorlib status "$tele_dir/journal" | grep -q "finished"
# The event log is well-formed JSONL covering the campaign lifecycle.
head -n 1 "$tele_dir/journal/events.jsonl" | grep -q '"event":"campaign_started"'
tail -n 1 "$tele_dir/journal/events.jsonl" | grep -q '"event":"campaign_finished"'
grep -q '"event":"chunk_completed"' "$tele_dir/journal/events.jsonl"
# The completed run joined the cross-run history index next to its report.
grep -q '"kind":"faults"' "$tele_dir/reports/history.jsonl"

# A SIGKILLed campaign's dir reports interrupted (exit 3) with a resume
# hint; after --resume finishes it, `history --check` compares the resumed
# run against the earlier same-config run without machine-shape false
# positives (the runs are deterministic, so nothing may be flagged).
./target/release/tensorlib faults --faults 1024 --k 512 --seed 7 --harden full \
    --resume "$tele_dir/journal2" -o "$tele_dir/reports/run2.json" >/dev/null &
victim=$!
sleep 0.6
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
set +e
./target/release/tensorlib status "$tele_dir/journal2" > "$tele_dir/status.out"
status_rc=$?
set -e
if [ "$status_rc" -ne 3 ]; then
    echo "ci: SIGKILLed campaign dir did not report interrupted (rc $status_rc)" >&2
    exit 1
fi
grep -q -- "--resume" "$tele_dir/status.out"
./target/release/tensorlib faults --faults 1024 --k 512 --seed 7 --harden full \
    --resume "$tele_dir/journal2" -o "$tele_dir/reports/run2.json" >/dev/null
./target/release/tensorlib history "$tele_dir/reports" --check \
    | grep -q "no metric moved"
rm -rf "$tele_dir"

# A torn history append (a short write cut the last line) neither breaks
# `history --check` nor the appends after it: the third run replaces the
# fragment of the second and compares against the first.
torn_dir=$(mktemp -d)
for run in 1 2 3; do
    if [ "$run" -eq 3 ]; then
        truncate -s -40 "$torn_dir/history.jsonl"
    fi
    ./target/release/tensorlib faults --faults 64 --seed 3 -o "$torn_dir/run$run.json" >/dev/null
done
./target/release/tensorlib history "$torn_dir" --check | grep -q "no metric moved"
rm -rf "$torn_dir"

# A history index appended by earlier perfgate binaries (a committed copy;
# reports/history.jsonl itself is untracked): every line still reads and
# lists.
old_history=tests/data/telemetry/perfgate/history.jsonl
test "$(./target/release/tensorlib history "$old_history" | wc -l)" \
    -eq "$(wc -l < "$old_history")"

# Campaign-argument validation smoke: nonsense is rejected up front with a
# descriptive error, never a hung or silently-empty campaign.
for bad in "faults --faults 8 --lanes 70" "faults --faults 8 --workers 0" \
    "fuzz --seeds 0"; do
    if ./target/release/tensorlib $bad -o - >/dev/null 2>&1; then
        echo "ci: invalid arguments were accepted: $bad" >&2
        exit 1
    fi
done
# A flag the command does not declare is nonsense too: the run is refused
# with an error naming the command and the flag.
bad_err=$(mktemp)
foreign_flag_smoke() {
    flag=$1
    shift
    if ./target/release/tensorlib "$@" -o - >/dev/null 2>"$bad_err"; then
        echo "ci: a foreign flag was accepted: $*" >&2
        exit 1
    fi
    grep -q "^error: $1 does not take $flag" "$bad_err"
}
foreign_flag_smoke --workers explore gemm:4,4,4 --workers 2
foreign_flag_smoke --faults generate gemm:4,4,4 MNK-SST --faults 3
foreign_flag_smoke --format faults --format text
rm -f "$bad_err"

# Perf gate: every timed gate is the median of interleaved same-process
# ratios checked against a constant in perfgate.rs. It rewrites
# BENCH_perfgate.json, a record that nothing reads back.
./target/release/perfgate

echo "ci: all gates passed"
