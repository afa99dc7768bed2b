#!/usr/bin/env bash
# Non-test line counts, per file and per crate.
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (the whole file when it has none), so inline unit-test modules do not
# count. Prints one `lines  path` row per .rs file, then a per-directory
# total for each argument.
#
# Usage: scripts/loc.sh [SRC_DIR...]   (default: every crates/*/src)
set -euo pipefail

cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
  set -- crates/*/src
fi

grand=0
for dir in "$@"; do
  total=0
  while IFS= read -r file; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    printf '%7d  %s\n' "$n" "$file"
    total=$((total + n))
  done < <(find "$dir" -name '*.rs' | sort)
  printf '%7d  %s (total)\n\n' "$total" "$dir"
  grand=$((grand + total))
done
if [ "$#" -gt 1 ]; then
  printf '%7d  all\n' "$grand"
fi
