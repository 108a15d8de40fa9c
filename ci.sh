#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 suite and the workspace suite.
#
#   ./ci.sh            # run everything
#   ./ci.sh --no-lint  # skip fmt/clippy (e.g. on toolchains without them)
set -euo pipefail
cd "$(dirname "$0")"

run_lint=1
if [[ "${1:-}" == "--no-lint" ]]; then
    run_lint=0
fi

if [[ $run_lint -eq 1 ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy --workspace -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace: every crate's unit, property and integration tests"
cargo test --workspace -q

echo "==> perf: cargo bench --no-run (benches stay compilable)"
cargo bench --workspace --no-run

echo "==> chaos: fault-injection suite (no panics, gaps surface as Unknown)"
cargo test -q --test fault_injection

echo "==> perf: smoke at 2 workers under DS_FAULT (serving must degrade, not abort)"
smoke_out="target/ci_perf_smoke.json"
smoke_log="target/ci_perf_smoke.log"
DS_FAULT=gaps:0.05,spikes:0.01 DS_PAR_THREADS=2 \
    cargo run -q --release -p ds-bench --bin perf -- --smoke --out "$smoke_out" | tee "$smoke_log"
grep -Eq 'fault smoke: .* 0 decision flips' "$smoke_log" \
    || { echo "ci: fault smoke missing or reported clean-window decision flips" >&2; exit 1; }
grep -q '"name": *"train_epoch"' "$smoke_out" \
    || { echo "ci: perf smoke is missing the train_epoch case" >&2; exit 1; }
grep -q '"name": *"frozen_predict"' "$smoke_out" \
    || { echo "ci: perf smoke is missing the frozen_predict case" >&2; exit 1; }
grep -q '"name": *"frozen_conv"' "$smoke_out" \
    || { echo "ci: perf smoke is missing the frozen_conv case" >&2; exit 1; }
grep -q '"name": *"quantized_predict"' "$smoke_out" \
    || { echo "ci: perf smoke is missing the quantized_predict case" >&2; exit 1; }
grep -q '"name": *"backbone_inception"' "$smoke_out" \
    || { echo "ci: perf smoke is missing the backbone_inception case" >&2; exit 1; }
grep -q '"name": *"backbone_transapp"' "$smoke_out" \
    || { echo "ci: perf smoke is missing the backbone_transapp case" >&2; exit 1; }
if grep -q '"bit_identical": *false' "$smoke_out"; then
    echo "ci: perf smoke reports a bit-identity violation" >&2
    exit 1
fi
if grep -Eq '"decision_flips": *[1-9]' "$smoke_out"; then
    echo "ci: frozen or quantized inference flipped a detection decision" >&2
    exit 1
fi
# The frozen floor is host-aware: 3.0x where the SIMD kernels dispatched,
# the pre-SIMD 1.15x on scalar-only hosts.
if grep -q '^simd: avx2' "$smoke_log"; then
    frozen_floor=3.0
else
    frozen_floor=1.15
fi
frozen_speedup=$(awk '/"name": *"frozen_predict"/{f=1} f && /"speedup"/{gsub(/[",]/,""); print $2; exit}' "$smoke_out")
echo "ci: frozen_predict speedup ${frozen_speedup}x (floor ${frozen_floor}x)"
awk -v s="$frozen_speedup" -v f="$frozen_floor" 'BEGIN { exit !(s + 0 >= f + 0) }' \
    || { echo "ci: frozen_predict speedup ${frozen_speedup}x is below the ${frozen_floor}x floor" >&2; exit 1; }

echo "==> backbones: model-zoo golden parity suite (frozen/int8/checkpoint per backbone)"
cargo test -q --test backbone_parity

echo "==> scalar twin: tier-1 + frozen + backbone goldens with DS_SIMD=off"
DS_SIMD=off cargo test -q
DS_SIMD=off cargo test -q --test backbone_parity

echo "==> scalar twin: perf smoke with DS_SIMD=off (frozen floor stays at the pre-SIMD 1.15x)"
twin_out="target/ci_perf_twin.json"
twin_log="target/ci_perf_twin.log"
DS_SIMD=off DS_PAR_THREADS=2 \
    cargo run -q --release -p ds-bench --bin perf -- --smoke --out "$twin_out" | tee "$twin_log"
grep -q '^simd: scalar' "$twin_log" \
    || { echo "ci: DS_SIMD=off run did not dispatch the scalar twins" >&2; exit 1; }
if grep -q '"bit_identical": *false' "$twin_out"; then
    echo "ci: scalar twin reports a bit-identity violation" >&2
    exit 1
fi
if grep -Eq '"decision_flips": *[1-9]' "$twin_out"; then
    echo "ci: scalar twin flipped a detection decision" >&2
    exit 1
fi
twin_speedup=$(awk '/"name": *"frozen_predict"/{f=1} f && /"speedup"/{gsub(/[",]/,""); print $2; exit}' "$twin_out")
echo "ci: scalar-twin frozen_predict speedup ${twin_speedup}x (floor 1.15x)"
awk -v s="$twin_speedup" 'BEGIN { exit !(s + 0 >= 1.15) }' \
    || { echo "ci: scalar-twin frozen_predict speedup ${twin_speedup}x is below the 1.15x floor" >&2; exit 1; }

echo "==> streaming: push-stride parity suite (streaming == batch, bitwise)"
cargo test -q --test streaming_parity

echo "==> streaming: amortized-speedup gate (ring-buffer reuse vs full recompute)"
grep -q '"name": *"streaming_predict"' "$smoke_out" \
    || { echo "ci: perf smoke is missing the streaming_predict case" >&2; exit 1; }
grep -q '"name": *"streaming_predict"' "$twin_out" \
    || { echo "ci: scalar twin is missing the streaming_predict case" >&2; exit 1; }
grep -q '"name": *"backbone_inception"' "$twin_out" \
    || { echo "ci: scalar twin is missing the backbone_inception case" >&2; exit 1; }
grep -q '"name": *"backbone_transapp"' "$twin_out" \
    || { echo "ci: scalar twin is missing the backbone_transapp case" >&2; exit 1; }
# ≥5x amortized at 75% overlap where the SIMD kernels dispatched; the
# advantage is work avoided rather than instructions vectorized, so the
# scalar floor stays at 3x.
if grep -q '^simd: avx2' "$smoke_log"; then
    streaming_floor=5.0
else
    streaming_floor=3.0
fi
streaming_speedup=$(awk '/"name": *"streaming_predict"/{f=1} f && /"speedup"/{gsub(/[",]/,""); print $2; exit}' "$smoke_out")
echo "ci: streaming_predict speedup ${streaming_speedup}x (floor ${streaming_floor}x)"
awk -v s="$streaming_speedup" -v f="$streaming_floor" 'BEGIN { exit !(s + 0 >= f + 0) }' \
    || { echo "ci: streaming_predict speedup ${streaming_speedup}x is below the ${streaming_floor}x floor" >&2; exit 1; }
twin_streaming=$(awk '/"name": *"streaming_predict"/{f=1} f && /"speedup"/{gsub(/[",]/,""); print $2; exit}' "$twin_out")
echo "ci: scalar-twin streaming_predict speedup ${twin_streaming}x (floor 3.0x)"
awk -v s="$twin_streaming" 'BEGIN { exit !(s + 0 >= 3.0) }' \
    || { echo "ci: scalar-twin streaming_predict speedup ${twin_streaming}x is below the 3.0x floor" >&2; exit 1; }

echo "==> serve: concurrency contracts (exactly-once freeze, flip-free batching, backpressure)"
cargo test -q --test serve_concurrency

echo "==> serve: micro-batch loadtest smoke (>=1k req/s, p99 <= 50 ms, 0 flips)"
serve_log="target/ci_serve.log"
DS_PAR_THREADS=2 \
    cargo run -q --release -p ds-bench --bin loadtest -- --smoke --out target/ci_serve.json | tee "$serve_log"
grep -q 'serve smoke: PASS' "$serve_log" \
    || { echo "ci: serve loadtest smoke did not pass its gates" >&2; exit 1; }
grep -q '"name": *"serve_throughput"' "$smoke_out" \
    || { echo "ci: perf smoke is missing the serve_throughput case" >&2; exit 1; }

echo "==> obs: trace smoke (DS_OBS=trace export must validate)"
trace_json="target/ci_trace.json"
trace_log="target/ci_trace.log"
rm -f "$trace_json"
DS_OBS=trace DS_TRACE="$trace_json" DS_PAR_THREADS=2 \
    cargo run -q --release -p ds-bench --bin perf -- --trace-smoke --out target/ci_trace_perf.json | tee "$trace_log"
grep -q 'trace ok:' "$trace_log" \
    || { echo "ci: trace smoke did not report a validated trace" >&2; exit 1; }
test -s "$trace_json" \
    || { echo "ci: DS_TRACE export $trace_json is missing or empty" >&2; exit 1; }

echo "==> perf: regression sentinel vs results/BENCH_perf.json"
cargo run -q --release -p ds-bench --bin regress -- \
    --fresh "$smoke_out" --out target/ci_regress.json

echo "ci: all checks passed"
