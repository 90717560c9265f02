#!/usr/bin/env bash
# Unread-item census, the list a simplicity change deletes from: each
# `pub fn|struct|enum|trait|const|type` declared above a crates/*/src
# file's first `#[cfg(test)]` whose name appears nowhere else in
# non-test code. Uses are counted by name, word by word, over the
# non-test part of every crates/*/src file (a second mention in the
# item's own file counts), src/, examples/, crates/bench/benches and
# benchmark/src; comment lines and `pub use` re-exports do not count.
# Names are not resolved, so a name declared twice counts as used.
# Prints `file:line name` per item, then the total. Read-only, a report
# and not a gate; run from anywhere.
# Usage: scripts/unread.sh [root]   (root defaults to this checkout, so
# a clone of the parent commit can be counted with the same script).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find crates/*/src src examples crates/bench/benches benchmark/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { body = 1; reexport = 0 }
    /^#\[cfg\(test\)\]/ { body = 0 }
    !body || /^[ \t]*\/\// { next }
    /^[ \t]*pub use / { reexport = 1 }
    reexport { if (/;/) reexport = 0; next }
    FILENAME ~ /^crates\/[^\/]+\/src\// &&
        match($0, /^[ \t]*pub (const |unsafe |async )?(fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*/) {
        name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name)
        decl[++n] = name; where[n] = FILENAME ":" FNR
    }
    { line = $0; gsub(/[^A-Za-z0-9_]+/, " ", line)
      k = split(line, word, " "); for (i = 1; i <= k; i++) seen[word[i]]++ }
    END { for (i = 1; i <= n; i++) if (seen[decl[i]] < 2) { print where[i], decl[i]; u++ }
          print u + 0, "total" }'
