#!/usr/bin/env bash
# Non-test lines of code, the count the net-deletion criteria use: for
# each crates/*/src/**/*.rs, the lines above the file's first
# `#[cfg(test)]` (the whole file when it has none). Prints one row per
# file, then one per crate and a total. Read-only; run from anywhere.
# Usage: scripts/loc.sh [root]   (root defaults to this checkout, so a
# clone of the parent commit can be counted with the same script).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find crates/*/src -name '*.rs' | sort | while read -r f; do
    echo "$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f") $f"
done | awk '{ print; split($2, p, "/"); crate[p[2]] += $1; total += $1 }
    END { for (c in crate) print crate[c], "crates/" c | "sort -k2"
          close("sort -k2"); print total, "total" }'
