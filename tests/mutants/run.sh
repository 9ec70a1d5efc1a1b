#!/usr/bin/env bash
# The hand-written mutation catalogue: every `tests/mutants/*.patch` is a
# `git diff` that plants one fault, with two header lines above the diff:
#
#   # fault: one sentence naming the fault
#   # expect: <package>/<target>::<test>   (target: `lib` or a test file)
#
# Each patch is applied to HEAD in a throwaway git worktree, and the test
# its `# expect:` line names must fail (a patch that does not build is an
# error, not a kill).
#
#   tests/mutants/run.sh              # each mutant against its expected test
#   tests/mutants/run.sh --matrix     # each mutant against all of tier-1's
#                                     # tests; rewrites tests/mutants/KILLS.txt
#   tests/mutants/run.sh NAME...      # only the named mutants (file stems)
#
# Mutants apply to the committed HEAD, not to the working tree. The
# worktree sits at one fixed path ($MUTANT_WORKTREE, default under
# ${TMPDIR:-/tmp}) and builds into one target directory ($CARGO_TARGET_DIR,
# default target/mutants), so each mutant recompiles only the crates its
# patch touches. Exit status: 0 when every mutant is killed by its
# expected test.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
dir="$root/tests/mutants"
matrix=0
names=()
for arg in "$@"; do
    case "$arg" in
        --matrix) matrix=1 ;;
        -h | --help)
            sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'
            exit 0
            ;;
        *) names+=("$arg") ;;
    esac
done

patches=()
if ((${#names[@]})); then
    for name in "${names[@]}"; do patches+=("$dir/$name.patch"); done
else
    patches=("$dir"/*.patch)
fi

wt=${MUTANT_WORKTREE:-${TMPDIR:-/tmp}/mrinv-mutant}
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/target/mutants}
base=$(git -C "$root" rev-parse HEAD)
if [ ! -e "$wt/.git" ]; then
    git -C "$root" worktree add --quiet --detach "$wt" "$base"
fi
cleanup() { git -C "$root" worktree remove --force "$wt"; }
trap cleanup EXIT

header() { sed -n "s/^# $1: //p" "$2" | head -n 1; }

# `cargo test` arguments selecting `<package>/<target>`.
target_args() {
    local package=${1%%/*} target=${1#*/}
    if [ "$target" = lib ]; then
        echo "-p $package --lib"
    else
        echo "-p $package --test $target"
    fi
}

# Prints `<package>/<target>::<test>` for every failed test in a
# `cargo test -q --workspace --no-fail-fast` log. Cargo prints each
# binary's failures, then the arguments that rerun that binary.
failed_tests() {
    awk '
        /^failures:$/ { listing = 1; next }
        listing && /^    [A-Za-z_][A-Za-z0-9_:]*$/ { failed[++n] = $1; next }
        listing && /^test result:/ { listing = 0 }
        /error: test failed, to rerun pass/ {
            match($0, /`[^`]*`/)
            args = substr($0, RSTART + 1, RLENGTH - 2)
            split(args, w, " ")
            binary = w[2] "/" (w[3] == "--test" ? w[4] : substr(w[3], 3))
            for (i = 1; i <= n; i++) print binary "::" failed[i]
            n = 0
        }
    ' "$1"
}

log=$(mktemp)
kills=$(mktemp)
status=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    expect=$(header expect "$patch")
    git -C "$wt" checkout --quiet --force --detach "$base"
    git -C "$wt" clean --quiet -fd
    if ! git -C "$wt" apply "$patch"; then
        echo "$name: ERROR, the patch does not apply to $base"
        status=1
        continue
    fi
    if ((matrix)); then
        (cd "$wt" && cargo test -q --workspace --no-fail-fast) >"$log" 2>&1 || true
        if grep -q '^error\[E\|could not compile' "$log"; then
            echo "$name: ERROR, the mutant does not build"
            status=1
            continue
        fi
        failed_tests "$log" | sort -u >"$log.kills"
        if [ -s "$log.kills" ]; then
            sed "s/^/$name /" "$log.kills" >>"$kills"
        else
            echo "$name SURVIVED" >>"$kills"
        fi
        if grep -qxF "$expect" "$log.kills"; then
            echo "$name: killed by $(wc -l <"$log.kills") tests, $expect among them"
        else
            echo "$name: SURVIVED its expected test $expect"
            status=1
        fi
    else
        test=${expect#*::}
        # shellcheck disable=SC2046 # target_args is a word list
        if (cd "$wt" && cargo test -q $(target_args "${expect%%::*}") -- --exact "$test") >"$log" 2>&1; then
            echo "$name: SURVIVED $expect"
            status=1
        elif grep -q "^test result: FAILED\. 0 passed; 1 failed" "$log"; then
            echo "$name: killed by $expect"
        else
            echo "$name: ERROR, $expect did not run to a failure:"
            tail -n 5 "$log"
            status=1
        fi
    fi
done
if ((matrix)) && ((${#names[@]} == 0)); then
    {
        echo "# mutant  killed-by (<package>/<target>::<test>), from tests/mutants/run.sh --matrix"
        sort "$kills"
    } >"$dir/KILLS.txt"
fi
rm -f "$log" "$log.kills" "$kills"
exit "$status"
