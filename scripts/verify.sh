#!/usr/bin/env bash
# Tier-1 verification: build, test, lint, and the determinism-checking
# perf harness. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# All scratch fingerprint/checkpoint files are cleaned by one EXIT trap
# (they used to leak whenever a `cmp` gate tripped before the per-block
# `rm`). results/RUN_report.json, results/LIVE_smoke.jsonl, and the
# BENCH_*.json measurements are artifacts and stay.
trap 'rm -f results/.RUN_fp_* results/.SCALE_fp_* results/.ADAPT_fp_* \
    results/.CKPT_fp_* results/.ckpt_w*.jsonl' EXIT

# Thread-sweep gate: run one eyeorg-bench binary at EYEORG_THREADS=1,
# =2 and the hardware default, each writing its fingerprints to
# results/.<TAG>_fp_{1,2,auto}, then require the 1-thread file to match
# the other two byte for byte.
# Usage: thread_sweep TAG BIN "AUTO_ONLY_ARGS" ARGS...
thread_sweep() {
    local tag=$1 bin=$2 auto_args=$3
    shift 3
    local fp="results/.${tag}_fp"
    EYEORG_THREADS=1 cargo run -q --release -p eyeorg-bench --bin "$bin" -- \
        "$@" --fingerprint-out "${fp}_1"
    EYEORG_THREADS=2 cargo run -q --release -p eyeorg-bench --bin "$bin" -- \
        "$@" --fingerprint-out "${fp}_2"
    # shellcheck disable=SC2086 # auto_args is a word list
    cargo run -q --release -p eyeorg-bench --bin "$bin" -- \
        "$@" --fingerprint-out "${fp}_auto" $auto_args
    cmp "${fp}_1" "${fp}_2"
    cmp "${fp}_1" "${fp}_auto"
}

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# The fixed benchmark (perfbench/) is its own cargo workspace, so the
# builds above never compile it: type-check it against the current
# crate APIs (its target dir, perfbench/target/, is gitignored).
cargo check --offline --manifest-path perfbench/Cargo.toml --all-targets
# Determinism/panic-surface/taint static analysis (rules D1-D8,
# DESIGN.md §3e/§3j): exits non-zero with path:line diagnostics on any
# finding not covered by an inline waiver or the checked-in D6 baseline
# (crates/lint/lint-baseline.txt). The machine-readable report lands in
# results/ so CI uploads it next to the bench artifacts.
cargo run -q --release -p eyeorg-lint --bin lint -- --json-out results/LINT_report.json
# Seeded-interleaving race exerciser: the campaign pipeline and the
# capture cache's per-key OnceLock cells must produce identical digests
# and counters at 1/2/4 threads under adversarial yield schedules. The
# explicit EYEORG_THREADS pin bypasses the hardware clamp so real
# multi-thread pools run even on 1-core CI boxes.
EYEORG_THREADS=4 cargo run -q --release -p eyeorg-lint --bin stress
# Times the pipeline at 1/2/N threads and exits non-zero when any
# thread count produces a campaign that differs from the 1-thread run.
cargo run -q --release -p eyeorg-bench --bin perf_pipeline
# Times the single-thread hot paths (batched TCP simulation, COW frame
# timelines, incremental curves) against their in-process reference
# implementations and exits non-zero on any output divergence.
cargo run -q --release -p eyeorg-bench --bin perf_hotpath -- --smoke
# Byte-identity gate for the whole page-load path: the paper-scale
# evaluation must rewrite every table and figure file exactly as
# committed (any change to the simulated loads moves some of them).
EYEORG_SCALE=paper cargo run -q --release -p eyeorg-bench --bin run_all > /dev/null
git diff --exit-code -- results/table1.txt results/fig1.txt results/fig4.txt \
    results/fig5.txt results/fig6.txt results/fig7.txt results/fig8.txt \
    results/fig9.txt results/demographics.txt results/fig4.csv results/fig5.csv \
    results/fig6.csv results/fig7.csv results/fig8.csv
# The observability layer's determinism contract: the counter section of
# the run report must be byte-identical at 1 thread, 2 threads, and the
# hardware default. The canonical results/RUN_report.json comes from the
# final (auto-threaded) run.
thread_sweep RUN run_report "" --out results/RUN_report.json
# Campaign-engine divergence gate: the smoke run exits non-zero when the
# sharded engine (any shard size x thread knob) produces a digest or
# counter fingerprint that differs from the materializing engine, and
# the written fingerprints — digests and counters — must be
# byte-identical at 1 thread, 2 threads, and the hardware default. (The
# full 1M-participant measurement is `perf_scale` with no flags; it
# writes results/BENCH_scale.json.)
thread_sweep SCALE perf_scale "" --smoke
# Behavioural-model fast-path gate (DESIGN.md §3k): the smoke run exits
# non-zero when the demand-driven model path (trait cursors, hoisted
# seed parents, bulk-seeded sessions, draw-elided responses) diverges
# from the pre-fast-path reference on any scenario checksum, or when
# the measured model-path speedup falls below the smoke regression
# floor. Writes results/BENCH_model.json (uploaded by CI; the full-size
# run is `perf_model` with no flags and gates the 1.8x target).
cargo run -q --release -p eyeorg-bench --bin perf_model -- --smoke
# Adaptive early-stopping divergence gate (DESIGN.md §3h): the smoke run
# exits non-zero when an inactive rule (epsilon = 0) differs from the
# plain sharded engine in digest or counter fingerprint, or when an
# active rule's decision sequence / digest / counters vary across shard
# sizes, thread knobs, or chaos seeds — and the written
# fingerprints must be byte-identical at 1 thread, 2 threads, and the
# hardware default. The full run then measures the 1M-participant
# campaign and exits non-zero unless the adaptive run simulates >= 3x
# fewer participants with every UPLT percentile inside the declared
# tolerance (writes results/BENCH_adaptive.json).
thread_sweep ADAPT perf_adaptive "" --smoke
cargo run -q --release -p eyeorg-bench --bin perf_adaptive
# Checkpoint/resume gate (DESIGN.md §3i): the smoke run exits non-zero
# when an interrupt → save → load → resume run (plain or adaptive, A/B
# included) differs from the uninterrupted run in digest,
# decision, or counter fingerprint, or when the live JSONL stream's
# final line differs from the end-of-run digest read-out. Fingerprints
# must be byte-identical at 1 thread, 2 threads, and the hardware
# default; results/LIVE_smoke.jsonl is the live-analytics artifact.
thread_sweep CKPT merge_digests "--live-out results/LIVE_smoke.jsonl" --smoke
# Multi-process split/merge gate: three real child processes each run a
# disjoint slice of the same campaign — at different thread counts —
# and write checkpoint files; merging them
# must reproduce the single-process digest AND counter fingerprints
# byte for byte.
cargo run -q --release -p eyeorg-bench --bin merge_digests -- \
    --worker 0 150 --out results/.ckpt_w1.jsonl &
EYEORG_THREADS=1 cargo run -q --release -p eyeorg-bench --bin merge_digests -- \
    --worker 150 300 --out results/.ckpt_w2.jsonl &
EYEORG_THREADS=2 cargo run -q --release -p eyeorg-bench --bin merge_digests -- \
    --worker 300 400 --out results/.ckpt_w3.jsonl &
wait
cargo run -q --release -p eyeorg-bench --bin merge_digests -- \
    --merge results/.CKPT_fp_merged \
    results/.ckpt_w1.jsonl results/.ckpt_w2.jsonl results/.ckpt_w3.jsonl
head -2 results/.CKPT_fp_auto > results/.CKPT_fp_single
cmp results/.CKPT_fp_merged results/.CKPT_fp_single
echo "verify: OK"
