#!/usr/bin/env bash
# Builds the benchmark from source and runs it pinned to one CPU.
#
#   bash benchmark/run.sh [st2-benchmark arguments...]
#
# Run from the repository root. The build honours CARGO_TARGET_DIR
# (default: benchmark/target). Pinning makes the simulator's automatic
# thread count resolve to its serial driver and keeps the scheduler from
# migrating the measured process; see benchmark/README.md.
set -euo pipefail

here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/st2-benchmark"

# The first CPU this process may run on (CPU 0 is not always allowed).
allowed="$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status)"
cpu="${allowed%%[,-]*}"
exec taskset -c "$cpu" "$bin" "$@"
