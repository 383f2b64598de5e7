#!/usr/bin/env bash
# The benchmark's one command: build what it needs, then run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --smoke            # every workload at 1/20 size
#
# Run from the repository root. Both binaries — this package's and the
# root workspace's `xp` — are built into one target directory
# (CARGO_TARGET_DIR, default benchmark/target), where the benchmark
# looks for `xp` beside itself.
set -euo pipefail
[ -f benchmark/Cargo.toml ] || { echo "run.sh: run from the repository root" >&2; exit 2; }
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet -p ftgcs-bench --bin xp
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ftgcs-benchmark" "$@"
