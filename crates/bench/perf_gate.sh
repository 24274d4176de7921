#!/bin/sh
# Same-machine performance check on the repository benchmark (e2ebench).
# Builds e2ebench at a base commit, in a temporary git worktree, and in
# the current checkout, then runs five alternating base/candidate pairs
# per gated workload (`steady`, `sharded_crash`; seeds 1-5). It fails
# when the median per-pair ratio (candidate / base) of any end-to-end
# metric in BENCHMARK.json is worse than that metric's `bound`, when a
# candidate run fails its output checks, or when the candidate fails a
# larger share of operations. BENCHMARK.json is only read. Per workload
# it also prints in how many pairs the two sides' prediction digests
# were equal; that line is a report, not a gate, since a change may
# alter predictions on purpose.
#
# Run from the repository root of a full clone:
#
#   crates/bench/perf_gate.sh [BASE]
#
# BASE is any commit and defaults to HEAD^. The candidate is the checkout
# as it stands, so uncommitted changes are measured too. On a 2-core
# machine the two release builds and 20 runs take about 1.5 minutes.
set -eu

base=${1:-HEAD^}
pairs=5
workloads="steady sharded_crash"

work=$(mktemp -d)
cleanup() {
    git worktree remove --force "$work/base" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

git worktree add --quiet --detach "$work/base" "$base"
# A cargo build of e2ebench rewrites its Cargo.lock; put it back after.
cp e2ebench/Cargo.lock "$work/Cargo.lock"
for root in "$work/base" .; do
    cargo build --release --offline --quiet --manifest-path "$root/e2ebench/Cargo.toml"
done
cp "$work/Cargo.lock" e2ebench/Cargo.lock

# Runs one side (base or head) on one workload and seed and keeps the
# detail line (which holds the prediction digest) and the summary line.
run() {
    if [ "$1" = base ]; then root="$work/base"; else root=.; fi
    "$root/e2ebench/target/release/msvs-e2ebench" \
        --workload "$2" --seed "$3" --seconds 12 --trace 0 > "$work/out"
    grep '^{"detail":' "$work/out" > "$work/$2.$3.$1.detail.json"
    tail -n 1 "$work/out" > "$work/$2.$3.$1.json"
}
for workload in $workloads; do
    for seed in $(seq 1 $pairs); do
        # Alternate which side runs first, so drift in the machine's
        # speed over the session falls on both sides alike.
        if [ $((seed % 2)) -eq 1 ]; then
            run base "$workload" "$seed"; run head "$workload" "$seed"
        else
            run head "$workload" "$seed"; run base "$workload" "$seed"
        fi
    done
done

python3 - "$work" "$pairs" $workloads <<'EOF'
import json, math, statistics, sys

work, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
failures = []
for workload in workloads:
    runs = {
        side: [json.load(open(f"{work}/{workload}.{seed}.{side}.json"))
               for seed in range(1, pairs + 1)]
        for side in ("base", "head")
    }
    for seed, run in enumerate(runs["head"], 1):
        if run["correct"] is not True:
            failures.append(f"{workload} seed {seed}: output checks failed")
    share = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
             for side, rs in runs.items()}
    if share["head"] > share["base"]:
        failures.append(f"{workload}: failed share {share['base']:.4f} -> {share['head']:.4f}")
    digests = {
        side: [json.load(open(f"{work}/{workload}.{seed}.{side}.detail.json"))["detail"]["digest"]
               for seed in range(1, pairs + 1)]
        for side in ("base", "head")
    }
    equal = sum(b == h for b, h in zip(digests["base"], digests["head"]))
    print(f"{workload}: digests equal in {equal}/{pairs} pairs")
    print(f"{workload}: median candidate/base ratio over {pairs} pairs")
    for metric in metrics:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        ratios = []
        for b, h in zip(runs["base"], runs["head"]):
            old, new = b["metrics"][name]["value"], h["metrics"][name]["value"]
            ratios.append(1.0 if new == old else new / old if old else math.inf)
        ratio = statistics.median(ratios)
        worse = ratio > 1 + bound if better == "lower" else ratio < 1 - bound
        flag = "  WORSE" if worse else ""
        print(f"  {name:<28} {ratio:8.4f}  ({better} is better, bound {bound:.0%}){flag}")
        if worse:
            failures.append(f"{workload} {name} x{ratio:.3f}")
if failures:
    print("perf gate failed: " + "; ".join(failures), file=sys.stderr)
    sys.exit(1)
print("perf gate passed")
EOF
