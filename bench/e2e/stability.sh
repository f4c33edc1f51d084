#!/usr/bin/env bash
# Noise check for the benchmark, from the root of a checkout:
#   bash bench/e2e/stability.sh [RUNS_PER_SET] [WORKLOAD...]
# Runs two interleaved sets of untraced runs per workload (default 5 runs
# each, every run on its own seed), then prints per set and end-to-end
# metric the median and the interquartile range as a share of the median,
# and PASS when each set's spread and the distance between the two
# medians stay within the metric's bound in BENCHMARK.json (set-up time:
# medians only, as its spread is not bounded).
set -euo pipefail
runs=${1:-5}
shift || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mkdir -p .bvbench
out=$(mktemp -d .bvbench/stability.XXXXXX)
trap 'rm -rf "$out"' EXIT
for i in $(seq 1 "$runs"); do
  for set in a b; do
    for w in "${workloads[@]}"; do
      [ "$set" = b ] && seed=$((2 * i + 1)) || seed=$((2 * i))
      bash bench/e2e/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace 0 2>/dev/null | tail -n 1 >>"$out/$w.$set"
    done
  done
done
python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys
out, workloads = sys.argv[1], sys.argv[2:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
ok = True
print("%-13s %-12s %12s %8s %12s %8s %8s" % ("workload", "metric", "median A", "iqr A", "median B", "iqr B", "bound"))
for w in workloads:
    sets = []
    for s in "ab":
        runs = [json.loads(l) for l in open(f"{out}/{w}.{s}")]
        assert all(r["correct"] and r["failed"] == 0 for r in runs), f"{w}: a run failed"
        sets.append({k: [r["metrics"][k]["value"] for r in runs] for k in bounds})
    for k, bound in bounds.items():
        meds, iqrs = [], []
        for vals in (sets[0][k], sets[1][k]):
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            meds.append(med)
            iqrs.append((q[2] - q[0]) / med)
        spread_ok = k == "setup_s" or max(iqrs) <= bound
        verdict = spread_ok and abs(meds[1] - meds[0]) / meds[0] <= bound
        ok &= verdict
        print("%-13s %-12s %12.4f %8.4f %12.4f %8.4f %8.2f %6s" % (w, k, meds[0], iqrs[0], meds[1], iqrs[1], bound, "PASS" if verdict else "FAIL"))
sys.exit(0 if ok else 1)
EOF
