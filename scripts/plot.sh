#!/usr/bin/env bash
# Regenerate the paper-style figures F1-F5 from the CSVs the `xp`
# driver wrote into results/.
#
#   ./scripts/plot.sh            # all figures whose CSV exists
#   ./scripts/plot.sh f1 f3      # just these
#
# Missing CSVs are skipped with a hint (`xp run experiments/<name>.spec`
# regenerates them); missing gnuplot is a hard error. Output: one SVG
# per figure under figures/.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v gnuplot >/dev/null 2>&1; then
    echo "plot.sh: gnuplot not found on PATH — install it to render figures" >&2
    exit 2
fi

figures=(f1_cluster_convergence f2_local_skew_vs_diameter f3_skew_traces \
         f4_attack_matrix f5_gcs_vs_ftgcs)
if [ "$#" -gt 0 ]; then
    selected=()
    for want in "$@"; do
        hit=""
        for f in "${figures[@]}"; do
            case "$f" in "$want"*) selected+=("$f"); hit=1 ;; esac
        done
        if [ -z "$hit" ]; then
            echo "plot.sh: unknown figure '$want' (choose from: ${figures[*]})" >&2
            exit 1
        fi
    done
    figures=("${selected[@]}")
fi

mkdir -p figures
rendered=0
for f in "${figures[@]}"; do
    csv="results/$f.csv"
    if [ ! -f "$csv" ]; then
        echo "skip $f: $csv missing — run: cargo run --release -p ftgcs-bench --bin xp -- run experiments/$f.spec"
        continue
    fi
    gnuplot "scripts/gnuplot/${f%%_*}.gp"
    echo "wrote figures/$f.svg"
    rendered=$((rendered + 1))
done
echo "$rendered figure(s) rendered into figures/"
