#!/usr/bin/env bash
# The benchmark's command. From the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# builds the binary that serves the request (offline, release profile)
# and runs it; its last line of standard output is the result. Without
# --workload, every workload runs in turn, each in its own process;
# --smoke selects tiny sizes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

bin=bench
workload_given=0
prev=""
for arg in "$@"; do
  [[ "$prev" == "--trace" && "$arg" == "1" ]] && bin=bench-trace
  [[ "$arg" == "--workload" ]] && workload_given=1
  prev="$arg"
done

# Only the binary that runs is built: the traced binary holds every call
# below the production entry points, and a change that breaks it must
# not take the end-to-end numbers down with it.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2

if (( workload_given )); then
  exec "$target/release/$bin" "$@"
fi
for w in md_bulk coupled_2r kmc_dense kmc_fullghost; do
  "$target/release/$bin" --workload "$w" "$@"
done
