#!/usr/bin/env bash
# Tier-1 verification, runnable with no network access.
#
#   scripts/verify.sh          # build + test + clippy + serve + kernels + testkit
#   scripts/verify.sh --fuzz   # additionally run the property-test suites
#
# Everything resolves from in-tree path dependencies (crates/proptest and
# crates/criterion stand in for their crates.io namesakes), so the
# offline flag below is a guarantee, not an inconvenience.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# The workspace currently runs 800+ tests; a sharp drop means suites
# silently fell out of the build (feature gate, dead test file, a
# `#[cfg]` typo), which a plain exit code would never catch.
MIN_TESTS=800

TEST_LOG="$(mktemp)"
trap 'rm -f "$TEST_LOG"' EXIT

# lane <name> <cmd...>: run one verification lane, timing it.
lane() {
    local name="$1"
    shift
    echo "==> [$name] $*"
    local t0=$SECONDS
    "$@"
    echo "    [$name] ok in $((SECONDS - t0))s"
}

lane build   cargo build --release --workspace
lane test    bash -c "set -o pipefail; cargo test -q --workspace 2>&1 | tee '$TEST_LOG'"
lane clippy  cargo clippy --all-targets --workspace -- -D warnings

# Minimum-test-count gate over the workspace lane's captured output.
passed=$(awk '/^test result:/ {s += $4} END {print s + 0}' "$TEST_LOG")
if (( passed < MIN_TESTS )); then
    echo "verify: FAIL — only $passed tests passed (minimum $MIN_TESTS)" >&2
    exit 1
fi
echo "==> [gate] $passed tests passed (minimum $MIN_TESTS)"

# Serving smoke lane: bench_serve spawns implant-server on an ephemeral
# port, drives it from concurrent connections, and asserts the three
# load-management contracts (every request answered, full queue sheds
# with a structured `overloaded` error, graceful shutdown drains). A
# non-zero exit fails the gate.
lane serve ./target/release/bench_serve --connections 4 --requests 12 --mc-trials 100

# Fan-in smoke lane: bench_fanin parks an idle-connection soak on the
# poller front-end, drives a 90%-duplicate workload through it, and
# asserts threads stay flat, every request is answered, and the
# single-flight ledger shows exactly one execution per distinct point.
lane fanin ./target/release/bench_fanin --connections 500 --drivers 8 --requests 15 --mc-trials 40

# Cluster smoke lane: bench_cluster spawns replica sets, probes health
# to convergence, kills one replica of three under load, and asserts
# zero lost in-deadline requests (the N=2 throughput check is enforced
# only on multi-core hosts). A non-zero exit fails the gate.
lane cluster ./target/release/bench_cluster --smoke

# Store lane: the shared artifact tier end-to-end over real disk and
# sockets — replicas write through, a kill orphans keys, hedged reads
# answer them from the store, and the victim rejoins via catch-up. The
# run asserts the post-kill p99 shrinks vs the no-store baseline.
lane store ./target/release/bench_cluster --smoke --warm

# Testkit lane: the fault-injection campaign must be bit-identical
# whatever the worker count, so run the conformance suite at both ends
# of the supported range.
lane testkit-w1 env IMPLANT_WORKERS=1 cargo test -q -p implant-testkit
lane testkit-w8 env IMPLANT_WORKERS=8 cargo test -q -p implant-testkit

# Scenario lane: seeded patient-day and cohort traces must be
# bit-identical whatever the worker count — the cluster's shard-merge
# guarantee rests on it — so run the scenario suite at both ends of the
# supported range.
lane scenario-w1 env IMPLANT_WORKERS=1 cargo test -q -p implant-scenario
lane scenario-w8 env IMPLANT_WORKERS=8 cargo test -q -p implant-scenario

# Kernels lane: the compiled analog engine. The equivalence suite pits
# the compiled engine against the dense DC/transient reference on random
# RLC+diode netlists and the golden circuits; the bench smoke then times
# the fig11 transient on all three engines (dense reference, compiled
# monolithic, partitioned cosim), and bench_validate holds the
# artifact's `compiled.fig11_speedup` to the ≥5× floor and
# `compiled.cosim_speedup` to the ≥3× floor.
lane kernels-equiv cargo test -q -p analog --features fuzz --test equivalence
KERNELS_JSON="$(mktemp -d)/BENCH_kernels.json"
lane kernels-bench env IMPLANT_OBS=1 \
    ./target/release/bench_kernels --smoke --profile --json "$KERNELS_JSON"
lane kernels-gate ./target/release/bench_validate "$KERNELS_JSON"

# Cosim lane: the partitioned multi-rate engine must land inside the
# monolithic golden bands and produce bit-identical waveforms at any
# worker count. The relaxation loop is serial, so the worker count
# reaches only the calibration probes; running the conformance campaign
# at both ends of the supported range keeps that fan-out honest. (The
# kernels gate above enforces its speedup floor.)
lane cosim-w1 env IMPLANT_WORKERS=1 cargo test -q -p implant-testkit --test cosim
lane cosim-w8 env IMPLANT_WORKERS=8 cargo test -q -p implant-testkit --test cosim

# Bench lane: the profiling harness must produce valid machine-readable
# artifacts — scripts/bench.sh runs both benchmarks at smoke sizes and
# bench_validate rejects missing fields, empty stage breakdowns, and
# non-finite numbers.
lane bench env BENCH_DIR="$(mktemp -d)" ./scripts/bench.sh --smoke

if [[ "${1:-}" == "--fuzz" ]]; then
    for crate in analog biosensor coils comms patch pmu implant-server implant-cosim; do
        lane "fuzz-$crate" cargo test -q -p "$crate" --features fuzz
    done
fi

# Size report: the workspace's Rust line total, so a change's line
# delta is one diff of this number.
rs_lines=$(find . \( -path ./target -o -path ./.bench_build -o -path ./perfbench/target \) -prune \
    -o -name '*.rs' -type f -print0 | xargs -0 cat | wc -l)
echo "==> [size] $rs_lines lines of .rs (excluding target/, .bench_build/, perfbench/target/)"

echo "verify: OK"
