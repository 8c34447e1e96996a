#!/usr/bin/env bash
# The repository's CI gate: formatting, lints and rustdoc links as errors, full
# test suite, pinned determinism digests and the end-to-end benchmark smoke run.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings (no dead or ambiguous intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline

echo "== cargo test -q"
# Includes the chaos suite (chaos_transport: fixed seed matrix, 3 seeds x
# 3 fault rates) and the ingest overload chaos (ingest_overload: 3 seeds
# x 3 arrival profiles x chip-down storm).
cargo test -q --workspace --offline

echo "== property tests, --release (placement: the only guard on relocate's early return; the gather plan vs sequential gather_any, a refused deploy leaves no trace, a failed commit releases everything; block programs vs the interpreter; stream programs vs the single-AP run; the mask engine vs the Option-latch reference; the slot-table stream optimizer vs the HashMap reference; sequential-fill partition vs the scored reference)"
cargo test -q --offline --release -p vlsi-core -p vlsi-ap -p vlsi-workloads -p vlsi-compile --lib --test properties -- \
  relocation_matches_the_always_reprogram_reference free_space_cache_matches_a_fresh_finder \
  plan_matches_sequential_gather_any a_refused_deploy_leaves_no_trace \
  a_failed_commit_releases_every_gathered_region \
  structured_programs_match_the_interpreter mask_engine_matches_the_option_latch_reference \
  slot_tables_match_the_hashmap_reference matches_the_scored_reference_on_generated_graphs \
  stream_programs_match_the_single_ap_run

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

echo "== end-to-end benchmark smoke (benchmark/run.sh --smoke: every workload verifies, seed 2012 and held-out seed 7)"
benchmark/run.sh --smoke

echo "== thread-matrix determinism (pinned digest at 1 and 8 threads, sharded/fabric storms at 1/2/8)"
# The digest covers the 64x64 ring cluster, sharded-NoC, acceptance, chaos,
# cluster_4x, ingest_open_loop, compile_corpus, soa_sweep and
# staged_pipeline workloads, and asserts the sequential and pipelined
# staged_pipeline outputs are identical.
cargo test -q --offline --release --test parallel_determinism

echo "== telemetry determinism (same seed => byte-identical exports)"
cargo test -q --offline --test telemetry
cargo run -q --offline --example telemetry_trace >/dev/null
cp target/trace.json target/trace.first.json
cp target/telemetry.json target/telemetry.first.json
cargo run -q --offline --example telemetry_trace >/dev/null
cmp target/trace.first.json target/trace.json
cmp target/telemetry.first.json target/telemetry.json

echo "== the paper's tables and figures still print (examples/experiments.rs)"
cargo run -q --release --offline --example experiments >/dev/null

echo "CI green."
