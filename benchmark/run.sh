#!/usr/bin/env bash
# The repo benchmark: builds the benchmark package in release mode, then
# runs it. Every input is generated in-process from --seed.
#
#   benchmark/run.sh                                  all five workloads, plain run
#   benchmark/run.sh --trace 1                        traced run: per-layer metrics
#   benchmark/run.sh --repeat 3                       three sets, agreement report
#   benchmark/run.sh --workload warm_point --seed 7 --seconds 8 --trace 0
#
# Run from anywhere; reads and writes only inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"

# the driver points CARGO_TARGET_DIR at .bench_build in the checkout;
# standalone runs build into benchmark/target
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) target="$CARGO_TARGET_DIR" ;;
        *) target="$PWD/$CARGO_TARGET_DIR" ;;
    esac
else
    target="$here/target"
fi
export CARGO_TARGET_DIR="$target"

# build output goes to stderr so the result stays the last stdout line
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

export CBQT_BENCH_DIR="$here"
export CBQT_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
if [ -e "$root/.git" ]; then
    export CBQT_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
else
    export CBQT_BENCH_COMMIT="unknown"
fi

exec "$target/release/cbqt-benchmark" "$@"
