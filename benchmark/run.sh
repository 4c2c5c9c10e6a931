#!/usr/bin/env bash
# Build the benchmark and run one workload: one command reproduces a row.
#
#   bash benchmark/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --workload all --seed 1 --smoke
#
# Builds into $CARGO_TARGET_DIR when set, else into the repo's target/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --target-dir "$target"
exec "$target/release/xdp-benchmark" run "$@"
