#!/usr/bin/env bash
# The benchmark's one command.  Builds the package offline, then:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, as the driver runs it; the last line of output is
#       {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
#   run.sh [--seed N] [--trace] [--passes K] [--save FILE]
#       every workload, every end-to-end metric by name (and, with --trace,
#       a second traced pass with the per-layer table and out/trace.json)
#
# Exits non-zero if the build fails or any correctness check does.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/exspan-e2e" bench --out-dir "$here/out" "$@"
