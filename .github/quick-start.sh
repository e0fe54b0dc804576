#!/bin/sh
# Runs every `causal-al ...` line of the README in a fresh directory and stops
# at the first non-zero exit; then runs the seven stages again at --jobs 2 into
# another directory, whose artifacts (all but the manifests, which hold
# timings) must be byte-identical to the first run's.
#
# Usage: sh .github/quick-start.sh [COMMAND...]
# COMMAND runs in place of `causal-al`, the installed console script, e.g.
#   PYTHONPATH="$PWD/src" sh .github/quick-start.sh python -m causal_al.cli
set -eu
readme="$(cd "$(dirname "$0")/.." && pwd)/README.md"
[ "$#" -gt 0 ] || set -- causal-al
cd "$(mktemp -d)"
grep '^causal-al ' "$readme" | sed "s|^causal-al |$* |" | sh -e
for stage in cluster select-features discover active-learn intervene match report; do
  "$@" "$stage" -c work/pipeline.cfg -o jobs2 --jobs 2
done
for f in jobs2/*; do
  case "$f" in *.manifest) continue ;; esac
  cmp "$f" "work/${f#jobs2/}"
done
echo "quick start in $PWD: every stage exited 0; --jobs 2 artifacts are byte-identical"
