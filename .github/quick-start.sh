#!/bin/sh
# Runs every `causal-al ...` line of the README in a fresh directory and stops
# at the first non-zero exit; then runs the seven stages again at --jobs 2 and
# with one OpenBLAS thread (so BLAS sums in another order) into another
# directory, whose artifacts (all but the manifests, which hold timings) must
# be byte-identical to the first run's; then runs a stage that must fail, which
# may leave neither its output directory nor a *.tmp file. The fresh directory
# is removed when the script exits, and the exit status stays the script's.
#
# Usage: sh .github/quick-start.sh [COMMAND...]
# COMMAND runs in place of `causal-al`, the installed console script, e.g.
#   PYTHONPATH="$PWD/src" sh .github/quick-start.sh python -m causal_al.cli
set -eu
readme="$(cd "$(dirname "$0")/.." && pwd)/README.md"
[ "$#" -gt 0 ] || set -- causal-al
dir="$(mktemp -d)"
trap 'status=$?; cd / && rm -rf "$dir"; exit "$status"' EXIT
cd "$dir"
grep '^causal-al ' "$readme" | sed "s|^causal-al |$* |" | sh -e
for stage in cluster select-features discover active-learn intervene match report; do
  OPENBLAS_NUM_THREADS=1 "$@" "$stage" -c work/pipeline.cfg -o jobs2 --jobs 2
done
for f in jobs2/*; do
  case "$f" in *.manifest) continue ;; esac
  cmp "$f" "work/${f#jobs2/}"
done
# failed/ holds no dal_ids.txt, so intervene must stop without creating it
if "$@" intervene -c work/pipeline.cfg -o failed; then
  echo "intervene without dal_ids.txt exited 0" >&2
  exit 1
fi
[ ! -e failed ] || { echo "a failed intervene left failed/ behind" >&2; exit 1; }
tmp="$(find . -name '*.tmp')"
[ -z "$tmp" ] || { echo "temporary files left behind: $tmp" >&2; exit 1; }
echo "quick start: every stage exited 0; artifacts at --jobs 2 and one BLAS thread"
echo "are byte-identical; a failing stage left no directory and no temporary file"
