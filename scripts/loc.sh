#!/usr/bin/env bash
# Non-test Rust line count, per crate and in total.
# Usage: scripts/loc.sh
#
# Counts every .rs file under crates/*/src, src/ and examples/, up to
# (not including) the `#[cfg(test)]` line that opens `mod tests`.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  awk '
    cfg && /^[[:space:]]*(pub )?mod tests/ { n--; exit }
    { cfg = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/; n++ }
    END { print n + 0 }' "$1"
}

total=0
for dir in crates/*/src src examples; do
  lines=0
  while IFS= read -r file; do
    lines=$((lines + $(count "$file")))
  done < <(find "$dir" -name '*.rs' | sort)
  case "$dir" in
    crates/*) name=${dir#crates/}; name=${name%/src} ;;
    *) name=$dir ;;
  esac
  printf '%-10s %6d\n' "$name" "$lines"
  total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
