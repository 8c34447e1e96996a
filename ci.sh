#!/usr/bin/env bash
# The repository's CI gate: formatting, lints as errors, full test suite.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test -q"
# Includes the chaos suite (chaos_transport: fixed seed matrix, 3 seeds x
# 3 fault rates) and the ingest overload chaos (ingest_overload: 3 seeds
# x 3 arrival profiles x chip-down storm).
cargo test -q --workspace --offline

echo "== property tests, --release (placement: the only guard on relocate's early return; the gather plan vs sequential gather_any, a refused deploy leaves no trace, a failed commit releases everything; block programs vs the interpreter; the mask engine vs the Option-latch reference; the slot-table stream optimizer vs the HashMap reference; sequential-fill partition vs the scored reference)"
cargo test -q --offline --release -p vlsi-core -p vlsi-ap -p vlsi-workloads -p vlsi-compile --lib --test properties -- \
  relocation_matches_the_always_reprogram_reference free_space_cache_matches_a_fresh_finder \
  plan_matches_sequential_gather_any a_refused_deploy_leaves_no_trace \
  a_failed_commit_releases_every_gathered_region \
  structured_programs_match_the_interpreter mask_engine_matches_the_option_latch_reference \
  slot_tables_match_the_hashmap_reference matches_the_scored_reference_on_generated_graphs

echo "== core.relocations vs moved (acceptance run: every relocation is a move)"
# A chip that re-programs processors where they stand counts more
# relocations than the log has moves; the test asserts equality and the
# grep puts the counts on the CI record.
cargo test -q --offline --test runtime_scheduler \
  relocations_in_the_acceptance_run_are_all_moves -- --nocapture | grep "core.relocations"

echo "== core.gathers vs admitted regions (contended staged run: every gather is used)"
# A scheduler that worm-programs regions for jobs it then refuses counts
# more gathers than the log has admitted regions.
cargo test -q --offline --test runtime_scheduler \
  gathers_in_a_contended_staged_run_are_all_used -- --nocapture | grep "core.gathers"

echo "== cargo build --release (warnings are errors)"
RUSTFLAGS="-D warnings" cargo build -q --release --offline --workspace

echo "== bench smoke (one iteration per workload, emitted JSON validates)"
BENCH_SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$BENCH_SMOKE_DIR"' EXIT
./target/release/bench --smoke --out "$BENCH_SMOKE_DIR"
# --check validates the fresh JSONs (cluster, ingest, and compile
# included) and
# compares medians against the committed BENCH_*.json at the repo root.
# The smoke tier gates fatally but with a generous threshold (smoke runs
# are single-iteration and noisy); the full-run tier stays warn-only at
# 0.25 for trend tracking.
./target/release/bench --check "$BENCH_SMOKE_DIR" --baseline . --check-threshold 1.0 --check-fatal

echo "== thread-matrix determinism (bench --digest at 1/2/8 threads, double-run)"
# The digest covers the fleet, sharded-NoC, acceptance, chaos,
# cluster_4x, ingest_open_loop, compile_corpus, soa_sweep, and
# staged_pipeline workloads — the cluster lines gate the inter-chip
# fabric, the ingest lines the admission front door, the compile lines
# pin the compiler's full artifact trail plus its executed output on
# both fleet and cluster sinks, and the staged_pipeline lines pin the
# Fig. 7(d) cross-dataset wavefront's outputs to one byte pattern at
# every thread count.
./target/release/bench --digest "$BENCH_SMOKE_DIR/digest.t1" --threads 1 >/dev/null
./target/release/bench --digest "$BENCH_SMOKE_DIR/digest.t1b" --threads 1 >/dev/null
./target/release/bench --digest "$BENCH_SMOKE_DIR/digest.t2" --threads 2 >/dev/null
./target/release/bench --digest "$BENCH_SMOKE_DIR/digest.t8" --threads 8 >/dev/null
./target/release/bench --digest "$BENCH_SMOKE_DIR/digest.t8b" --threads 8 >/dev/null
cmp "$BENCH_SMOKE_DIR/digest.t1" "$BENCH_SMOKE_DIR/digest.t1b"
cmp "$BENCH_SMOKE_DIR/digest.t8" "$BENCH_SMOKE_DIR/digest.t8b"
cmp "$BENCH_SMOKE_DIR/digest.t1" "$BENCH_SMOKE_DIR/digest.t2"
cmp "$BENCH_SMOKE_DIR/digest.t1" "$BENCH_SMOKE_DIR/digest.t8"

echo "== sequential vs pipelined equivalence (staged_pipeline digests must match)"
# Datasets pushed through the wavefront one at a time must come out
# byte-identical to the same datasets overlapped in one wavefront.
seq="$(awk '/^staged_pipeline digest_seq/ {print $3}' "$BENCH_SMOKE_DIR/digest.t1")"
pipe="$(awk '/^staged_pipeline digest_pipe/ {print $3}' "$BENCH_SMOKE_DIR/digest.t1")"
test -n "$seq"
test "$seq" = "$pipe"
cargo test -q --offline --test parallel_determinism

echo "== telemetry determinism (same seed => byte-identical exports)"
cargo test -q --offline --test telemetry
cargo run -q --offline --example telemetry_trace >/dev/null
cp target/trace.json target/trace.first.json
cp target/telemetry.json target/telemetry.first.json
cargo run -q --offline --example telemetry_trace >/dev/null
cmp target/trace.first.json target/trace.json
cmp target/telemetry.first.json target/telemetry.json

echo "CI green."
