#!/bin/sh
# Save one set of run outputs for `ledger compare` / `ledger calibrate`:
# every workload once per seed, each run's standard output in its own file.
#
#   bench/ledger/run_set.sh OUT_DIR TRACE SEED...
#
# e.g.  bench/ledger/run_set.sh bench/ledger/out/a 0 1 2 3 4 5
set -eu
out=$1
trace=$2
shift 2
here=$(dirname "$0")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../../BENCHMARK.json")
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$here/target}/release/ledger
mkdir -p "$out"
for seed in "$@"; do
    for workload in write_sync_tcp write_pipelined_tcp write_pipelined_sim read_mostly_tcp; do
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            > "$out/$workload-seed$seed-trace$trace.out" ||
            echo "run_set: $workload seed $seed exited with $?" >&2
    done
done
