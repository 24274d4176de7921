#!/bin/sh
# Reruns the experiment harnesses and diffs each against its committed
# copy in results/. Every listed harness prints the same bytes on every
# run and at any thread count, once fig3b_radio_demand's one wall-clock
# field is blanked: `predict_wall_ms`, the 14th column of the CSV after
# "# CSV of the primary run:". Left out because they print more timings:
# exp_group_count (decide ms) and exp_cnn_ablation (cluster and training
# ms).
#
# Run from the repository root:
#
#   crates/bench/check_results.sh
set -eu

HARNESSES="fig3a_swiping fig3b_radio_demand exp_baselines
exp_computing_demand exp_sync_frequency exp_reservation exp_churn
exp_per_bs exp_prefetch_waste exp_group_cost exp_shards exp_outage"

# Copies standard input with the CSV's predict_wall_ms column blanked.
blank_wall_clock() {
    awk -F, -v OFS=, '
        csv == 2 && NF >= 14 { $14 = "" }
        csv == 1 { csv = 2 }
        /^# CSV of the primary run:/ { csv = 1 }
        { print }'
}

cargo build --release --quiet -p msvs-bench --bins
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for bin in $HARNESSES; do
    blank_wall_clock < "results/$bin.txt" > "$out/$bin.committed"
    cargo run --release --quiet -p msvs-bench --bin "$bin" | blank_wall_clock > "$out/$bin.txt"
    if ! diff -u "$out/$bin.committed" "$out/$bin.txt"; then
        echo "results/$bin.txt differs from a fresh run of $bin" >&2
        status=1
    fi
done
exit $status
