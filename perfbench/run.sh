#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload <paper-mix|scale|contested> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# The first call compiles both binaries (minutes); later calls are a quick
# freshness check. `--trace 0` runs the plain binary and prints the
# end-to-end metrics; `--trace 1` runs the traced binary (which installs a
# counting allocator) and prints the per-layer metrics. Build output goes
# to stderr; the last line of stdout is the JSON result.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  if [[ "${args[i]}" == "--trace" && $((i + 1)) -lt ${#args[@]} ]]; then
    trace="${args[i + 1]}"
  fi
done

cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" --bins >&2

target="${CARGO_TARGET_DIR:-$dir/target}"
if [[ "$trace" == "1" ]]; then
  exec "$target/release/perfbench-traced" "$@"
else
  exec "$target/release/perfbench" "$@"
fi
