#!/usr/bin/env bash
# The repo benchmark. Builds the shipped `mhd` binary and the harness from
# this checkout (offline), then hands its arguments to the harness:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run (the last stdout line is the result)
#   run.sh [--seed N] [--runs R] [--seconds S] [--bytes B] [--trace] [--smoke]
#                                                          every workload -> benchmark/out/results.json
#   run.sh --compare A.json B.json                         two result files against BENCHMARK.json's bounds
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# The harness is built against the repository around it.
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "run.sh: $PWD is not a checkout of the repository (no Cargo.toml, crates/)" >&2
    exit 2
fi

# Cargo reads a relative CARGO_TARGET_DIR against its own working
# directory; pin it to this checkout's root before changing directory.
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    [[ "$CARGO_TARGET_DIR" = /* ]] || CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
    export CARGO_TARGET_DIR
    mhd_target="$CARGO_TARGET_DIR"
    harness_target="$CARGO_TARGET_DIR"
else
    mhd_target="$PWD/target"
    harness_target="$here/target"
fi

# Build output goes to stderr: stdout carries only the results.
cargo build --release --offline --quiet -p mhd-cli --bin mhd >&2
(cd "$here" && cargo build --release --offline --quiet) >&2

exec "$harness_target/release/mhd-benchmark" --mhd "$mhd_target/release/mhd" "$@"
