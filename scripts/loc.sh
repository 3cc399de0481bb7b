#!/usr/bin/env bash
# First-party source lines: every line of every .rs file under crates/*/src
# and src (the count ROADMAP.md tracks; tests/, benches/, examples/, vendor/
# and benchmarks/ are not in it).  One row per crate, then the total, which
# equals `find crates/*/src src -name '*.rs' | xargs cat | wc -l`.
#
#   loc.sh [--max N]    exit 1 when the total is above N (the CI ratchet)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
max=
case "${1:-}" in
    "") ;;
    --max)
        max="${2:-}"
        [[ "$max" =~ ^[0-9]+$ ]] || { echo "loc.sh: --max expects a number" >&2; exit 2; }
        ;;
    *) echo "usage: loc.sh [--max N]" >&2; exit 2 ;;
esac
total=0
for dir in crates/*/src src; do
    lines=$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)
    printf '%-22s %6d\n' "$dir" "$lines"
    total=$((total + lines))
done
printf '%-22s %6d\n' total "$total"
if [[ -n "$max" ]] && ((total > max)); then
    echo "loc.sh: $total first-party lines, above the ceiling of $max" >&2
    exit 1
fi
