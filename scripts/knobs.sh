#!/usr/bin/env bash
# Knob census, the count the simplicity criteria use: for crates/*/src,
# each `pub struct *Config|*Policy|*Options` with its number of `pub`
# fields (every one an independently settable value), then each distinct
# `env::var("ETUDE_…")` the code reads, then the total. Read-only; run
# from anywhere.
# Usage: scripts/knobs.sh [root]   (root defaults to this checkout, so a
# clone of the parent commit can be counted with the same script).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find crates/*/src -name '*.rs' | sort | xargs awk '
    /^pub struct [A-Za-z0-9_]*(Config|Policy|Options)[ ;<{]/ {
        name = $3; sub(/[;<{].*/, "", name); n = 0
        if ($0 !~ /;[ \t]*$/) { inside = 1; next }
        print n, name, FILENAME; total += n
    }
    inside && /^    pub [a-z_0-9]+:/ { n++ }
    inside && /^}/ { inside = 0; print n, name, FILENAME; total += n }
    { line = $0
      while (match(line, /env::var(_os)?\("ETUDE_[A-Z_0-9]*"\)/)) {
          v = substr(line, RSTART, RLENGTH); gsub(/.*\("|"\)/, "", v); env[v] = 1
          line = substr(line, RSTART + RLENGTH) } }
    END { for (v in env) { print 1, "env " v | "sort -k2"; total++ }
          close("sort -k2"); print total, "total" }'
