#!/bin/sh
# Rewrites every golden file listed in cases.txt from a built nova_sim and
# prints the diff of each one that changed. Each case runs in this
# directory, as its ctest does.
# Usage: tests/golden/update.sh [BUILD_DIR]   (default: build)
set -eu
here=$(cd "$(dirname "$0")" && pwd)
nova_sim="${1:-build}/nova_sim"
if [ ! -x "$nova_sim" ]; then
  echo "update.sh: $nova_sim not found; build it first" >&2
  exit 2
fi
nova_sim="$(cd "$(dirname "$nova_sim")" && pwd)/nova_sim"
grep -v '^#' "$here/cases.txt" | while read -r file flags; do
  [ -n "$file" ] || continue
  fresh=$(mktemp)
  # $flags is split into words on purpose.
  # shellcheck disable=SC2086
  (cd "$here" && "$nova_sim" $flags < /dev/null > "$fresh")
  old="$here/$file"
  [ -f "$old" ] || old=/dev/null
  if cmp -s "$old" "$fresh"; then
    echo "unchanged: $file"
    rm -f "$fresh"
  else
    diff -u "$old" "$fresh" || true
    mv "$fresh" "$here/$file"
    echo "rewrote: $file"
  fi
done
