#!/usr/bin/env bash
# race_run_list.sh — guards the -run list of CI's "Lane equivalence
# under race" step.
#
# `go test -run` silently runs nothing for a name that matches no test,
# so a renamed test would drop out of the race step unnoticed. This
# reads the step's -run alternation and package list from
# .github/workflows/ci.yml and fails when a listed name matches no
# `func` (Test, Fuzz or Benchmark) in the listed packages' test files.
# The -run regex is unanchored, so a name matches every function whose
# name contains it.
set -u
cd "$(dirname "$0")/.." || exit 1

STEP='name: Lane equivalence under race'
line=$(grep -A1 "$STEP" .github/workflows/ci.yml | sed -n 2p)
case "$line" in
*"-run '"*) ;;
*) echo "FAIL: no -run list under \"$STEP\" in ci.yml"; exit 1 ;;
esac
regex=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
pkgs=$(sed -E "s/.*-run '[^']*' //" <<<"$line")

files=()
for p in $pkgs; do
  files+=("$p"/*_test.go)
done

missing=0
count=0
IFS='|' read -ra names <<<"$regex"
for name in "${names[@]}"; do
  count=$((count + 1))
  if ! grep -qE "^func [A-Za-z0-9_]*${name}[A-Za-z0-9_]*\(" "${files[@]}"; then
    echo "FAIL: -run name $name matches no func in: $pkgs"
    missing=$((missing + 1))
  fi
done
if [ "$missing" -ne 0 ]; then
  exit 1
fi
echo "OK: all $count -run names match a func in the listed packages"
