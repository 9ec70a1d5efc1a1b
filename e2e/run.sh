#!/usr/bin/env bash
# Builds mrinv, mrinv-worker and the harness in release and runs the
# benchmark. See README.md beside this file.
#
#   bash e2e/run.sh [--seed S] [--workload W] [--seconds N] [--quick] [--trace [0|1]]
#
# Without --workload all four workloads run, in two interleaved passes.
# The last line of stdout is the JSON result of the (last) workload.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f crates/core/Cargo.toml ] || [ ! -f e2e/Cargo.toml ]; then
    echo "e2e/run.sh: the program's sources are not here; run from a full checkout" >&2
    exit 2
fi

# Build both workspaces into one directory inside e2e/ (or where the
# caller's CARGO_TARGET_DIR says), so nothing outside e2e/ is touched.
case "${CARGO_TARGET_DIR:-}" in
    "") CARGO_TARGET_DIR="$PWD/e2e/target" ;;
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR
cargo build --release --offline --quiet -p mrinv --bins >&2
cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release"
for b in e2e mrinv mrinv-worker; do
    [ -x "$bin/$b" ] || { echo "e2e/run.sh: $bin/$b was not built" >&2; exit 2; }
done

# Measurement rules: pool width 1, default GEMM engine, one vCPU.
export RAYON_NUM_THREADS=1
unset MRINV_GEMM_TUNE MRINV_GEMM_BACKEND
E2E_NPROC="$(nproc --all 2>/dev/null || echo 1)"
E2E_GIT_COMMIT="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
E2E_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export E2E_NPROC E2E_GIT_COMMIT E2E_RUSTC
cpu=$((E2E_NPROC - 1))
if command -v taskset >/dev/null 2>&1 && taskset -c "$cpu" true 2>/dev/null; then
    export E2E_PINNED_CPU="$cpu"
    exec taskset -c "$cpu" "$bin/e2e" run --out e2e/out "$@"
fi
# No taskset (or the vCPU is not ours): recorded as "pinned": false.
export E2E_PINNED_CPU=
exec "$bin/e2e" run --out e2e/out "$@"
