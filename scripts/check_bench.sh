#!/usr/bin/env bash
# CI figure gate: regenerate the tiny-scale benchmark figures and compare them
# against the committed baselines.
#
#   scripts/check_bench.sh                  # regenerate (1 shard) + gate
#   scripts/check_bench.sh --shards 4       # regenerate with 4 shards + gate
#   scripts/check_bench.sh --fresh DIR      # gate an existing output directory
#
# The gate (crates/bench/src/bin/check_bench.rs) fails if any series statistic
# is not bit-equal to benchmarks/baseline, if the paper's value >= reference
# >= none provenance-mode ordering inverts, or if fig18's codec savings fall
# under their floors.  All gated numbers come from the deterministic
# simulation, so the gate is immune to runner speed.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE_DIR=benchmarks/baseline
FRESH_DIR=""
SHARDS=1

while [[ $# -gt 0 ]]; do
  case "$1" in
    --shards)
      SHARDS="$2"
      shift 2
      ;;
    --fresh)
      FRESH_DIR="$2"
      shift 2
      ;;
    *)
      echo "usage: $0 [--shards N] [--fresh DIR]" >&2
      exit 2
      ;;
  esac
done

if [[ ! -d "$BASELINE_DIR" ]]; then
  echo "error: committed baseline directory $BASELINE_DIR is missing" >&2
  exit 2
fi

cargo build --release -p exspan-bench --bins

if [[ -z "$FRESH_DIR" ]]; then
  FRESH_DIR="$(mktemp -d)"
  trap 'rm -rf "$FRESH_DIR"' EXIT
  echo "== regenerating tiny-scale figures (${SHARDS} shard(s)) into $FRESH_DIR"
  ./target/release/figures --scale tiny --shards "$SHARDS" --json "$FRESH_DIR" >/dev/null
fi

echo "== comparing $FRESH_DIR against $BASELINE_DIR"
./target/release/check_bench "$FRESH_DIR" "$BASELINE_DIR"
