#!/usr/bin/env bash
# A/A check: runs the full benchmark 2*N times on one build, labelling
# the runs A and B in turn (A B B A A B ...), each run with its own
# seed, then compares the two sets: per workload x metric both medians,
# quartiles, each side's spread and the relative gap. Exits non-zero if a
# gap exceeds that metric's bound.
#
#   bash e2e/aa.sh N [--trace]
#
# Results land in e2e/out/aa/ (aa.json is the report). With --trace, one
# traced run of every workload follows and its summaries land there too.
set -euo pipefail

n="${1:?usage: bash e2e/aa.sh N [--trace]}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# As run.sh does: from the repository root, build into e2e/target unless
# the caller says otherwise, so both scripts agree on where the binary is.
cd "$here/.."
case "${CARGO_TARGET_DIR:-}" in
    "") CARGO_TARGET_DIR="$here/target" ;;
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR
out="$here/out"
aa="$out/aa"
rm -rf "$aa"
mkdir -p "$aa"

for ((k = 1; k <= 2 * n; k++)); do
    # A B B A: neither label always runs first after a pause.
    case $((k % 4)) in 1 | 0) label=A ;; *) label=B ;; esac
    echo "aa.sh: run $k of $((2 * n)), label $label, seed $k" >&2
    bash "$here/run.sh" --seed "$k" >"$aa/run-$k.log"
    for f in "$out"/result-*.json; do
        w="$(basename "$f" .json)"
        cp "$f" "$aa/$label-$(printf '%02d' "$k")-${w#result-}.json"
    done
done

if [ "${2:-}" = "--trace" ]; then
    bash "$here/run.sh" --seed 1 --trace >"$aa/run-trace.log"
    cp "$out"/layers-*.json "$aa/"
fi

exec "$CARGO_TARGET_DIR/release/e2e" aa --dir "$aa"
