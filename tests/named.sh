#!/usr/bin/env bash
# Runs named tests of one cargo test target, each by its exact name, and
# fails unless every name ran and passed. libtest alone runs nothing, and
# exits 0, for a name that matches no test, so a renamed or deleted test
# would turn a CI step into a silent no-op.
#
#   tests/named.sh <cargo test args>... -- <test name>... [libtest flags]...
#
# e.g. tests/named.sh -q -p mrinv --lib -- service::tests::live_frames_cost_their_payload --nocapture
set -euo pipefail

cargo_args=()
while (($#)) && [ "$1" != -- ]; do
    cargo_args+=("$1")
    shift
done
if (($#)); then shift; fi
names=()
flags=()
for arg in "$@"; do
    case "$arg" in
        -*) flags+=("$arg") ;;
        *) names+=("$arg") ;;
    esac
done
if ((${#names[@]} == 0)); then
    echo "named.sh: no test names given" >&2
    exit 2
fi

log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "${cargo_args[@]}" -- "${names[@]}" --exact "${flags[@]}" | tee "$log"
passed=$(sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' "$log" | awk '{ s += $1 } END { print s + 0 }')
if ((passed != ${#names[@]})); then
    echo "named.sh: ${#names[@]} tests named, $passed passed: a name matches no test" >&2
    exit 1
fi
