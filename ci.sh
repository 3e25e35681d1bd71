#!/usr/bin/env bash
# Repo CI gate: formatting, lints, build, tests, and a sam-check smoke run.
# Everything here must pass before a change merges.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy.toml is live (determinism fixture is denied)"
# clippy.toml's disallowed-types list is what keeps hash-order and
# wall-clock types out of the workspace. Prove the config is loaded: the
# fixture must fail with exactly its four uses (the use line, the return
# type, Instant and HashMap::new) reported as disallowed types.
clippy_out="$(mktemp -d /tmp/sam-clippy.XXXXXX)"
clippy_status=0
CLIPPY_CONF_DIR="$PWD" clippy-driver --edition 2021 --crate-type lib -D warnings \
  --emit=metadata --out-dir "$clippy_out" \
  crates/bench/tests/fixtures/determinism.rs > "$clippy_out/log" 2>&1 || clippy_status=$?
clippy_log="$(cat "$clippy_out/log")"
rm -rf "$clippy_out"
denied="$(grep -c 'disallowed type' <<<"$clippy_log" || true)"
if [ "$clippy_status" -eq 0 ] || [ "$denied" -ne 4 ]; then
  echo "clippy.toml is not live: the fixture must fail with 4 disallowed-type"
  echo "errors; got exit status $clippy_status and $denied:"
  echo "$clippy_log"; exit 1
fi

echo "==> rustdoc is warning-free"
# -D warnings turns rustdoc's lints (broken or ambiguous intra-doc links,
# bad code blocks) into errors; cargo's own warnings, such as two targets
# writing the same doc file, are not lints, so any warning line fails too.
doc_log="$(RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps 2>&1)" \
  || { echo "$doc_log"; echo "cargo doc failed"; exit 1; }
if grep -q '^warning:' <<<"$doc_log"; then
  echo "$doc_log"; echo "cargo doc printed warnings"; exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> debug-build fig12 + fig16 at golden scale"
# The engine's debug assertions (MSHR state empty after the drain, the
# one-writeback backlog bound, outstanding > 0 on retire) run here at
# golden scale, not only at the tests' smallest one, and stdout must still
# be the golden. About 6 s on two cores. --out keeps the runs from
# overwriting results/.
cargo build -p sam-bench --bin fig12 --bin fig16
for fig in fig12 fig16; do
  ./target/debug/"$fig" --rows 2048 --tb-rows 8192 --jobs 2 \
    --out "/tmp/$fig.debug.json" > "/tmp/$fig.debug.out"
  cmp "/tmp/$fig.debug.out" "tests/golden/$fig.out" \
    || { echo "debug-build $fig stdout drifted from tests/golden/$fig.out"; exit 1; }
done

echo "==> sam-perf tests + ctrl-replay, fig16-hybrid, cache-replay and fig12-golden smokes"
# perf/ is its own cargo workspace, so the run above never builds it. Its
# tests plus a one-second run of each workload keep a model change from
# silently breaking the benchmark's golden checks: the last stdout line is
# the result object, and it must report every run correct.
# - ctrl-replay: the bare controller against sam_stress::run_stream,
#   with one traced pass (--trace 1) that records every command the
#   controller issued (each at its earliest cycle, evaluated once) and
#   re-issues it into a fresh device through the full-check
#   MemoryDevice::issue. sam-perf does not count a rejection as a failed
#   run, but a stream's re-issue stops after its first rejected command,
#   so the re-issue count (dram.issue.calls) must equal what the
#   controller issued: ACTs + column commands + mode switches + refreshes
#   + one PRE per row conflict;
# - fig16-hybrid: the full system through the DRAM-cache composite, every
#   run against the fig16 goldens;
# - cache-replay: the hierarchy alone, every run through check_hierarchy
#   and check_inclusion and its counters against
#   perf/expected/cache-replay.tsv;
# - fig12-golden: the north-star workload, its first warm-up pass checking
#   all 162 runs against tests/golden/fig12.json (about 10 s: a run needs
#   two warm-up and five timed passes).
cargo test --release --offline --manifest-path perf/Cargo.toml
metric() { grep -o "\"$1\": {\"value\": [0-9]*" <<<"$perf_last" | grep -o '[0-9]*$'; }
for workload in ctrl-replay fig16-hybrid cache-replay fig12-golden; do
  trace=0
  if [ "$workload" = ctrl-replay ]; then trace=1; fi
  perf_out="$(cargo run --release --quiet --offline --manifest-path perf/Cargo.toml -- \
    --workload "$workload" --seconds 1 --trace "$trace")"
  perf_last="${perf_out##*$'\n'}"
  [[ "$perf_last" == *'"correct": true'* ]] \
    || { echo "sam-perf $workload smoke failed:"; echo "$perf_out"; exit 1; }
  if [ "$trace" = 1 ]; then
    reissued="$(metric dram.issue.calls)"
    issued="$(( $(metric dram.acts) + $(metric dram.column_cmds) \
      + $(metric dram.mode_switches) + $(metric dram.refreshes) \
      + $(metric memctrl.row_conflicts) ))"
    [ "$reissued" = "$issued" ] \
      || { echo "traced $workload re-issued $reissued of $issued commands:"
           echo "the device rejected one"; echo "$perf_out"; exit 1; }
  fi
done

echo "==> fig12 parallel checked smoke + golden stdout + JSON lint"
# Golden scale: exercises the sweep workers, the oracle under --jobs, and
# the results/fig12.json emission end to end. Attaching the oracles must
# not move a result: with the title's " [checked]" suffix and the final
# "Verification: ..." line stripped, stdout is the golden byte for byte.
rm -f results/fig12.json
cargo run --release -p sam-bench --bin fig12 -- \
  --rows 2048 --tb-rows 8192 --jobs 2 --checked > /tmp/fig12.checked.out
sed -e '1s/ \[checked\]$//' -e '$d' /tmp/fig12.checked.out \
  | cmp - tests/golden/fig12.out \
  || { echo "--checked changed fig12 stdout"; exit 1; }
[ -f results/fig12.json ] || { echo "results/fig12.json was not written"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-json results/fig12.json

echo "==> fig12 trace smoke + trace lint"
# Reduced scale again: records every run's event stream + epoch stats,
# then validates span nesting and timestamp monotonicity. The stdout
# tables must be identical to an untraced run, and the traced run's own
# metrics JSON must match the golden (byte-identity guarantee).
rm -f results/fig12.trace.json results/fig12.traced.json
cargo run --release -p sam-bench --bin fig12 -- \
  --rows 2048 --tb-rows 8192 --jobs 2 --trace --epoch-len 10000 \
  --out results/fig12.traced.json > /tmp/fig12.traced.out
cargo run --release -p sam-bench --bin fig12 -- \
  --rows 2048 --tb-rows 8192 --jobs 2 > /tmp/fig12.untraced.out
cmp /tmp/fig12.traced.out /tmp/fig12.untraced.out \
  || { echo "--trace changed fig12 stdout"; exit 1; }
cmp results/fig12.traced.json tests/golden/fig12.json \
  || { echo "--trace changed the fig12 metrics JSON"; exit 1; }
[ -f results/fig12.trace.json ] || { echo "results/fig12.trace.json was not written"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-trace results/fig12.trace.json

echo "==> fig16 trace smoke + trace lint"
# The hybrid figure's traced path at golden scale: stdout and the metrics
# JSON must match the goldens, and the trace document must lint.
rm -f results/fig16.trace.json results/fig16.traced.json
./target/release/fig16 --rows 2048 --tb-rows 8192 --jobs 2 --trace \
  --out results/fig16.traced.json > /tmp/fig16.traced.out
cmp /tmp/fig16.traced.out tests/golden/fig16.out \
  || { echo "--trace changed fig16 stdout"; exit 1; }
cmp results/fig16.traced.json tests/golden/fig16.json \
  || { echo "--trace changed the fig16 metrics JSON"; exit 1; }
[ -f results/fig16.trace.json ] || { echo "results/fig16.trace.json was not written"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-trace results/fig16.trace.json

echo "==> golden byte-identity gate (fig12 + table2)"
# The decomposed datapath and the provenance plumbing are behavior-
# preserving by construction: stdout and results/*.json must match the
# pre-change captures bit for bit. The untraced fig12 run above used the
# same arguments the goldens were recorded with.
cmp /tmp/fig12.untraced.out tests/golden/fig12.out \
  || { echo "fig12 stdout drifted from tests/golden/fig12.out"; exit 1; }
cmp results/fig12.json tests/golden/fig12.json \
  || { echo "results/fig12.json drifted from tests/golden/fig12.json"; exit 1; }
rm -f results/table2.json
cargo run --release -p sam-bench --bin table2 > /tmp/table2.out
cmp /tmp/table2.out tests/golden/table2.out \
  || { echo "table2 stdout drifted from tests/golden/table2.out"; exit 1; }
cmp results/table2.json tests/golden/table2.json \
  || { echo "results/table2.json drifted from tests/golden/table2.json"; exit 1; }

echo "==> scheduler overrides: defaults spelled out + table2 zero cap"
# The three scheduler flags fill one override record that the engine,
# table2 and the stress matrix apply through one function. Spelled at the
# controller defaults they must reproduce the fig12 goldens byte for byte,
# and table2 must print the cap it was given (with a valid drain pair).
./target/release/fig12 --rows 2048 --tb-rows 8192 --jobs 2 \
  --starvation-cap 4096 --drain-hi 28 --drain-lo 8 \
  --out /tmp/fig12.overrides.json > /tmp/fig12.overrides.out
cmp /tmp/fig12.overrides.out tests/golden/fig12.out \
  || { echo "fig12 with default-valued overrides drifted from tests/golden/fig12.out"; exit 1; }
cmp /tmp/fig12.overrides.json tests/golden/fig12.json \
  || { echo "fig12 with default-valued overrides drifted from tests/golden/fig12.json"; exit 1; }
./target/release/table2 --starvation-cap 0 --drain-hi 20 --drain-lo 4 \
  --out /tmp/table2.overrides.json > /tmp/table2.overrides.out
grep -qxF '  FR-FCFS starvation cap: 0 cycles (pure FCFS)' /tmp/table2.overrides.out \
  || { echo "table2 --starvation-cap 0 did not print a zero cap"; cat /tmp/table2.overrides.out; exit 1; }

echo "==> paper-scale fig12 byte-identity gate (starvation cap lifted)"
# Default scale (Ta 16384, Tb 131072 records), where the write-heavy
# queries end with the largest writeback drains: GS-DRAM-ecc on Qs5
# flushes 32,768 dirty lines, 163,840 requests with their ECC extras. With
# the cap lifted, stdout reproduces the committed results/fig12.txt byte
# for byte (about 7 s at --jobs 2). --out keeps the run from overwriting
# results/fig12.json.
./target/release/fig12 --jobs 2 --starvation-cap 1000000000000 \
  --out /tmp/fig12.paper.json > /tmp/fig12.paper.out
cmp /tmp/fig12.paper.out results/fig12.txt \
  || { echo "paper-scale fig12 stdout drifted from results/fig12.txt"; exit 1; }

echo "==> fig16 hybrid sweep gates (checked, jobs identity, lint)"
# The DRAM-cache hybrid figure, held to the same bar as fig12: every
# hybrid point under --checked shadows BOTH device command streams (DDR4
# front + RRAM backing) with independent protocol oracles; stdout and
# results/fig16.json must be byte-identical across --jobs values and to
# the committed goldens (the checked run's too, once its " [checked]"
# title suffix and "Verification: ..." line are stripped).
cargo run --release -p sam-bench --bin fig16 -- \
  --rows 2048 --tb-rows 8192 --jobs 2 --checked > /tmp/fig16.checked.out
sed -e '1s/ \[checked\]$//' -e '$d' /tmp/fig16.checked.out \
  | cmp - tests/golden/fig16.out \
  || { echo "--checked changed fig16 stdout"; exit 1; }
rm -f results/fig16.json
./target/release/fig16 --rows 2048 --tb-rows 8192 --jobs 1 > /tmp/fig16.jobs1.out
cp results/fig16.json /tmp/fig16.jobs1.json
rm -f results/fig16.json
./target/release/fig16 --rows 2048 --tb-rows 8192 --jobs 4 > /tmp/fig16.jobs4.out
cmp /tmp/fig16.jobs1.out /tmp/fig16.jobs4.out \
  || { echo "fig16 stdout differs between --jobs 1 and --jobs 4"; exit 1; }
cmp /tmp/fig16.jobs1.json results/fig16.json \
  || { echo "results/fig16.json differs between --jobs 1 and --jobs 4"; exit 1; }
cmp /tmp/fig16.jobs4.out tests/golden/fig16.out \
  || { echo "fig16 stdout drifted from tests/golden/fig16.out"; exit 1; }
cmp results/fig16.json tests/golden/fig16.json \
  || { echo "results/fig16.json drifted from tests/golden/fig16.json"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-json results/fig16.json

echo "==> fig12 heartbeat smoke + byte-identity"
# The stderr progress monitor must not change a byte of stdout or the
# metrics JSON, serial or parallel.
for jobs in 1 4; do
  rm -f results/fig12.json
  cargo run --release -p sam-bench --bin fig12 -- \
    --rows 2048 --tb-rows 8192 --jobs "$jobs" --heartbeat=1 \
    > /tmp/fig12.heartbeat.out 2>/dev/null
  cmp /tmp/fig12.heartbeat.out tests/golden/fig12.out \
    || { echo "--heartbeat changed fig12 stdout at --jobs $jobs"; exit 1; }
  cmp results/fig12.json tests/golden/fig12.json \
    || { echo "--heartbeat changed results/fig12.json at --jobs $jobs"; exit 1; }
done

echo "==> fig12 bench (simulated cycles/sec) + regression gate"
# Times a fresh golden-scale fig12 run with the already-built binary (no
# cargo overhead in the measurement) and folds it over the metrics report
# into results/BENCH_fig12.json, appended to the committed trajectory.
# The gate fails on a >10% cycles/sec regression vs the last committed
# BENCH_fig12.json entry measured on this host (same CPU model and core
# count); on a host with no such entry it records, says why, and skips.
# On noisy runners set SAM_BENCH_GATE_PCT=off to keep the measurement
# but skip the gate, or to a different tolerance percentage.
rm -f results/BENCH_fig12.json
bench_start_ns="$(date +%s%N)"
./target/release/fig12 --rows 2048 --tb-rows 8192 --jobs 2 > /dev/null
bench_wall_ns="$(( $(date +%s%N) - bench_start_ns ))"
bench_gate=(--baseline BENCH_fig12.json --gate-pct "${SAM_BENCH_GATE_PCT:-10}")
if [ "${SAM_BENCH_GATE_PCT:-10}" = off ]; then bench_gate=(); fi
cargo run --release -p sam-bench --bin sam-check -- bench-fig12 results/fig12.json \
  --wall-ns "$bench_wall_ns" --jobs 2 --label ci \
  --out results/BENCH_fig12.json "${bench_gate[@]}"
cargo run --release -p sam-bench --bin sam-check -- lint-json results/BENCH_fig12.json

echo "==> per-core lanes smoke + JSON lint + rollup"
# --per-core adds lane sections and the cycles rollup; --debug-cores dumps
# progress to stderr. Neither may touch stdout (checked against the same
# golden), and the lint verifies the lanes telescope to the aggregates.
rm -f results/fig12.percore.json results/fig12.percore.rollup.json
cargo run --release -p sam-bench --bin fig12 -- \
  --rows 2048 --tb-rows 8192 --jobs 2 --per-core --debug-cores \
  --out results/fig12.percore.json > /tmp/fig12.percore.out 2>/dev/null
cmp /tmp/fig12.percore.out tests/golden/fig12.out \
  || { echo "--per-core/--debug-cores changed fig12 stdout"; exit 1; }
grep -q '"per_core"' results/fig12.percore.json \
  || { echo "--per-core emitted no per_core sections"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-json results/fig12.percore.json
[ -s results/fig12.percore.rollup.json ] \
  || { echo "results/fig12.percore.rollup.json was not written"; exit 1; }
grep -q '"folded"' results/fig12.percore.rollup.json \
  || { echo "cycles rollup has no folded stacks"; exit 1; }
# The hybrid's lanes: fig16 merges its front and back controllers' lanes,
# and the lint re-checks that the merged lanes add up to the totals.
rm -f results/fig16.percore.json
./target/release/fig16 --rows 2048 --tb-rows 8192 --jobs 2 --per-core \
  --out results/fig16.percore.json > /tmp/fig16.percore.out
cmp /tmp/fig16.percore.out tests/golden/fig16.out \
  || { echo "--per-core changed fig16 stdout"; exit 1; }
grep -q '"per_core"' results/fig16.percore.json \
  || { echo "fig16 --per-core emitted no per_core sections"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-json results/fig16.percore.json

echo "==> adversarial stress smoke + JSON lint"
# Two patterns against the full differential case matrix (both devices,
# FCFS vs capped, drain-hysteresis variants): any behavioural-invariant
# violation exits non-zero and leaves results/stress.repro.trace behind
# (uploaded as a CI artifact for replay with `sam-check replay`).
rm -f results/stress.json results/stress.repro.trace
cargo run --release -p sam-bench --bin stress -- \
  row-hit-flood write-burst --jobs 2 --seed 7
[ -f results/stress.json ] || { echo "results/stress.json was not written"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-json results/stress.json

echo "==> stress trace smoke + trace lint"
# The same two patterns traced: the report must match the untraced one
# byte for byte, the controller must have drawn its commands on bank
# lanes, and the document must lint.
rm -f results/stress.trace.json results/stress.traced.json
./target/release/stress row-hit-flood write-burst --jobs 2 --seed 7 --trace \
  --out results/stress.traced.json > /dev/null
cmp results/stress.traced.json results/stress.json \
  || { echo "--trace changed the stress report"; exit 1; }
grep -q '"cat": "dram"' results/stress.trace.json \
  || { echo "results/stress.trace.json has no bank-lane spans"; exit 1; }
cargo run --release -p sam-bench --bin sam-check -- lint-trace results/stress.trace.json

echo "==> misspelled flags must be rejected"
if cargo run --release -p sam-bench --bin fig12 -- --cheked >/dev/null 2>&1; then
  echo "fig12 accepted the misspelled flag --cheked"; exit 1
fi
# The retired phase profiler's flag is unknown too, in both forms.
for flag in --profile --profile=x; do
  status=0
  ./target/release/fig12 "$flag" >/dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] \
    || { echo "fig12 $flag exited $status, not 2 (unknown flag)"; exit 1; }
done
# So is the retired sharded sweep's.
status=0
./target/release/fig12 --shard 1/2 >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] \
  || { echo "fig12 --shard 1/2 exited $status, not 2 (unknown flag)"; exit 1; }
# The retired self-test modes are unknown flags and commands too; their
# checks are ordinary cargo tests.
for cmd in "stress --shrink-selftest" "stress --hybrid-diff" \
    "sam-check selftest" "sam-check audit" "sam-check record x"; do
  status=0
  # shellcheck disable=SC2086 # word-split the binary from its arguments
  ./target/release/$cmd >/dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] \
    || { echo "$cmd exited $status, not 2 (retired mode)"; exit 1; }
done
# --trace and --checked are a parse-time conflict.
status=0
./target/release/fig12 --checked --trace >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] \
  || { echo "fig12 --checked --trace exited $status, not 2 (conflict)"; exit 1; }

echo "CI: all gates passed"
