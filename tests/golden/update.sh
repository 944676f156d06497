#!/bin/sh
# Rewrites every golden file listed in cases.txt, and the nova_lint --json
# catalog sweep, from a built tree and prints the diff of each one that
# changed. Each case runs in this directory, as its ctest does, with the
# program its line names (nova_sim by default), found at the build root or
# in its bench/ directory.
# Usage: tests/golden/update.sh [BUILD_DIR]   (default: build)
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build="${1:-build}"
if [ ! -x "$build/nova_sim" ]; then
  echo "update.sh: $build/nova_sim not found; build it first" >&2
  exit 2
fi
build=$(cd "$build" && pwd)

# refresh FILE FRESH: replaces the golden FILE with FRESH if they differ.
refresh() {
  old="$here/$1"
  [ -f "$old" ] || old=/dev/null
  if cmp -s "$old" "$2"; then
    echo "unchanged: $1"
    rm -f "$2"
  else
    diff -u "$old" "$2" || true
    mv "$2" "$here/$1"
    echo "rewrote: $1"
  fi
}

grep -v '^#' "$here/cases.txt" | while read -r file rest; do
  [ -n "$file" ] || continue
  case "$rest" in
    '' | -*) program=nova_sim flags=$rest ;;
    *) program=${rest%% *} flags=${rest#"$program"} ;;
  esac
  binary="$build/$program"
  [ -x "$binary" ] || binary="$build/bench/$program"
  if [ ! -x "$binary" ]; then
    echo "update.sh: $program not found in $build or $build/bench" >&2
    exit 2
  fi
  fresh=$(mktemp)
  # $flags is split into words on purpose.
  # shellcheck disable=SC2086
  (cd "$here" && "$binary" $flags < /dev/null > "$fresh")
  refresh "$file" "$fresh"
done

fresh=$(mktemp)
"$build/nova_lint" --json "$fresh" > /dev/null
refresh nova_lint_catalog.json "$fresh"
