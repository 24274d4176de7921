#!/bin/sh
# Reruns the experiment harnesses whose output has no wall-clock column
# and diffs each against its committed copy in results/. Every listed
# harness prints the same bytes on every run and at any MSVS_THREADS.
# Left out because they print timings: fig3b_radio_demand (the CSV's
# predict_wall_ms), exp_group_count (decide ms) and exp_cnn_ablation
# (cluster and training ms).
#
# Run from the repository root:
#
#   crates/bench/check_results.sh
set -eu

HARNESSES="fig3a_swiping exp_baselines exp_computing_demand
exp_sync_frequency exp_reservation exp_churn exp_per_bs
exp_prefetch_waste exp_group_cost exp_shards exp_outage"

cargo build --release --quiet -p msvs-bench --bins
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for bin in $HARNESSES; do
    cargo run --release --quiet -p msvs-bench --bin "$bin" > "$out/$bin.txt"
    if ! diff -u "results/$bin.txt" "$out/$bin.txt"; then
        echo "results/$bin.txt differs from a fresh run of $bin" >&2
        status=1
    fi
done
exit $status
