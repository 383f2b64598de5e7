#!/usr/bin/env bash
# A/A check: two sets of runs of the same code must agree.
#
#   benchmark/aa.sh [runs-per-set (default 10)] [workload ...]
#
# For every workload, runs the benchmark `runs` times per set, each
# time with another seed (the same seeds in both sets), and prints for
# every end-to-end metric: the median of each set, the spread of each
# set (distance between its quartiles as a share of its median, as
# Python's statistics.quantiles gives them), and by how much set B's
# median is worse than set A's — next to the metric's bound from
# BENCHMARK.json. Exits non-zero if a spread (setup_s excepted) or a
# delta exceeds its bound, or if any run reports a failed operation;
# marks a spread wider than a third of its bound.
set -euo pipefail
[ -f BENCHMARK.json ] || { echo "aa.sh: run from the repository root" >&2; exit 2; }
runs="${1:-10}"
shift || true
out="benchmark/out/aa"
mkdir -p "$out"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if [ "$#" -gt 0 ]; then workloads="$*"; else
    workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
fi
for set in A B; do
    for w in $workloads; do
        : > "$out/$w.$set.jsonl"
        for i in $(seq 1 "$runs"); do
            # A run with a failed check exits non-zero after printing its
            # result line; the report below names it.
            { benchmark/run.sh --workload "$w" --seed "$((1000 + i))" --seconds "$seconds" --trace 0 \
                || true; } | tail -n 1 >> "$out/$w.$set.jsonl"
        done
        echo "set $set: $w done" >&2
    done
done
python3 - "$out" $workloads <<'PY'
import json, statistics, sys
out, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
bad = False
def spread(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (q[2] - q[0]) / statistics.median(values)

print(f"{'workload':<16}{'metric':<13}{'median A':>14}{'median B':>14}{'spread A':>10}{'spread B':>10}{'B worse by':>12}{'bound':>7}")
for w in workloads:
    sets = {s: [json.loads(l) for l in open(f"{out}/{w}.{s}.jsonl")] for s in "AB"}
    for s, rows in sets.items():
        for r in rows:
            if not r["correct"] or r["failed"]:
                print(f"{w}: set {s} reports {r['failed']} failed of {r['attempted']}")
                bad = True
    for m in spec["end_to_end"]:
        a, b = ([r["metrics"][m["name"]]["value"] for r in sets[s]] for s in "AB")
        med_a, med_b = statistics.median(a), statistics.median(b)
        widest = max(spread(a), spread(b))
        worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
        flag = ""
        if (widest > m["bound"] and m["name"] != "setup_s") or worse > m["bound"]:
            flag, bad = "  EXCEEDS", True
        elif widest > m["bound"] / 3 and m["name"] != "setup_s":
            flag = "  over a third"
        print(f"{w:<16}{m['name']:<13}{med_a:>14.6g}{med_b:>14.6g}{spread(a):>10.4f}{spread(b):>10.4f}{worse:>12.4f}{m['bound']:>7}{flag}")
sys.exit(1 if bad else 0)
PY
