#!/usr/bin/env bash
# First-party source lines: every line of every .rs file under crates/*/src
# and src (the count ROADMAP.md tracks; tests/, benches/, examples/, vendor/
# and benchmarks/ are not in it).  One row per crate, then the total, which
# equals `find crates/*/src src -name '*.rs' | xargs cat | wc -l`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
total=0
for dir in crates/*/src src; do
    lines=$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)
    printf '%-22s %6d\n' "$dir" "$lines"
    total=$((total + lines))
done
printf '%-22s %6d\n' total "$total"
