#!/usr/bin/env bash
# The benchmark's own gate and full run, all offline:
#
#   benchmark/run.sh           build, fmt, clippy, tests, then every workload
#                              untraced (run twice, results must be identical)
#                              and traced, one process each, merged into
#                              benchmark/out/results.json; then every workload
#                              once more on a seed not used during development.
#   benchmark/run.sh --smoke   the same with every count shrunk ~50x: seconds.
#
# The root ci.sh does not see this package (it is its own workspace), so the
# package's formatting, lints and tests are checked here.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every cargo call builds with the benchmark's own flags (see the file).
CARGO=(--config benchmark/cargo-config.toml --offline --manifest-path benchmark/Cargo.toml)
OUT=benchmark/out
SEED=2012
HELD_OUT_SEED=7
SECONDS_PER_RUN=10
EXTRA=()
if [[ "${1:-}" == "--smoke" ]]; then
  SECONDS_PER_RUN=0.2
  EXTRA=(--smoke)
fi

echo "== build (release, offline)"
cargo build "${CARGO[@]}" --release
echo "== cargo fmt --check"
cargo fmt --check --manifest-path benchmark/Cargo.toml
echo "== cargo clippy -D warnings"
cargo clippy "${CARGO[@]}" --release --all-targets -- -D warnings
echo "== cargo test"
cargo test "${CARGO[@]}" --release --quiet

bench() {
  cargo run "${CARGO[@]}" --release --quiet -- "$@"
}

rm -f "$OUT/results.json"
for workload in serve_closed serve_overload compile_large exec_stream lane_sweep; do
  # --repeat 2: the same seed again must reproduce every simulated-domain
  # figure, count and digest. The traced run checks itself against an
  # untraced phase in the same process.
  bench --workload "$workload" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace 0 \
    --repeat 2 --out "$OUT" "${EXTRA[@]}"
  bench --workload "$workload" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace 1 \
    --out "$OUT" "${EXTRA[@]}"
done

echo "== held-out seed $HELD_OUT_SEED: outputs must verify there too"
for workload in serve_closed serve_overload compile_large exec_stream lane_sweep; do
  bench --workload "$workload" --seed "$HELD_OUT_SEED" --seconds 1 --trace 0 \
    --out "$OUT/held_out" "${EXTRA[@]}" | tail -n 1
done

echo "results: $OUT/results.json   traces: $OUT/trace_<workload>.json"
