#!/usr/bin/env bash
# Entry point of the benchmark contract (BENCHMARK.json `command`), run from the root
# of a checkout:
#
#   bash crates/benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the one binary the run needs — the end-to-end binary for `--trace 0`, the
# stage-probe binary for `--trace 1`, so a broken probe target cannot take the
# end-to-end numbers down with it — and hands it the arguments unchanged.
set -euo pipefail

bin=cqads-benchmark
previous=
for arg in "$@"; do
    if [[ $previous == --trace && $arg != 0 ]]; then
        bin=cqads-benchmark-trace
    fi
    previous=$arg
done

cargo build --release --quiet --package cqads-benchmark --bin "$bin" >&2
exec "${CARGO_TARGET_DIR:-target}/release/$bin" "$@"
