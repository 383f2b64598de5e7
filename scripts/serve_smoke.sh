#!/usr/bin/env bash
# Smoke the distributed sweep executor and the results service through
# the real CLI and a real HTTP client (curl):
#
#   1. `xp sweep --parallel --jobs 2` must produce stdout and a merged
#      sweep CSV byte-identical to the sequential in-process sweep, cold,
#      again from the warm cache, and again after one cached row is
#      truncated (a row that does not parse is recomputed).
#   2. `xp serve` on an ephemeral port must accept experiments/smoke.spec
#      over POST /submit, run it to completion, and serve back a samples
#      CSV byte-identical to an in-process `xp run` of the same spec.
#   3. Resubmitting the identical spec must be answered entirely from
#      the content-addressed cache: /stats must still report exactly one
#      cell process ever spawned.
#
# Everything runs out of a scratch directory; the checked-in results/
# tree is never touched. Blocking in CI — these are the determinism
# contracts (a cell is a pure function of its canonical spec text) that
# make the whole serve subsystem sound.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p ftgcs-bench --bin xp
root="$PWD"
xp() { "$root/target/release/xp" "$@"; }
spec="$PWD/experiments/smoke.spec"
work="$(mktemp -d)"
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "== parallel sweep equivalence =="
mkdir -p "$work/seq" "$work/par"
(cd "$work/seq" && xp sweep "$spec" seed=1,2,3) > "$work/seq.out"
(cd "$work/par" && FTGCS_CACHE_DIR="$work/cache" \
    xp sweep "$spec" seed=1,2,3 --parallel --jobs 2) > "$work/par.out"
diff "$work/seq.out" "$work/par.out"
diff "$work/seq/results/smoke_sweep.csv" "$work/par/results/smoke_sweep.csv"
echo "parallel sweep is byte-identical to sequential"

cached_sweep() {
    mkdir -p "$work/$1"
    (cd "$work/$1" && FTGCS_CACHE_DIR="$work/cache" \
        xp sweep "$spec" seed=1,2,3 --parallel --jobs 2) > "$work/$1.out"
    diff "$work/seq.out" "$work/$1.out"
    diff "$work/seq/results/smoke_sweep.csv" "$work/$1/results/smoke_sweep.csv"
}
cached_sweep warm
echo "cached sweep is byte-identical to sequential"
row="$(ls "$work"/cache/*/row.tsv | head -n 1)"
: > "$row"
cached_sweep truncated
[ -s "$row" ] || { echo "the truncated row was not recomputed"; exit 1; }
echo "a truncated cached row is recomputed"

echo "== xp serve end-to-end =="
mkdir -p "$work/ref" "$work/srv"
(cd "$work/ref" && xp run "$spec" > /dev/null)

(cd "$work/srv" && FTGCS_CACHE_DIR="$work/serve_cache" \
    exec "$root/target/release/xp" serve --addr 127.0.0.1:0 --jobs 1) \
    > "$work/serve.out" 2> "$work/serve.err" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$work/serve.out" 2>/dev/null && break
    sleep 0.1
done
base="$(sed -n 's#^xp serve: listening on \(http://[0-9.:]*\)$#\1#p' "$work/serve.out")"
[ -n "$base" ] || { echo "serve never announced its address"; exit 1; }
echo "serve at $base"

job="$(curl -sf -X POST --data-binary @"$spec" "$base/submit" \
      | sed -n 's/.*"job": "\([0-9a-f]\{16\}\)".*/\1/p')"
[ -n "$job" ] || { echo "submit returned no job id"; exit 1; }
echo "job $job"

state=""
for _ in $(seq 1 300); do
    status="$(curl -sf "$base/status/$job")"
    state="$(printf '%s' "$status" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')"
    case "$state" in
        done) break ;;
        failed) echo "job failed: $status"; exit 1 ;;
        *) sleep 0.1 ;;
    esac
done
[ "$state" = done ] || { echo "job never finished (state: $state)"; exit 1; }

curl -sf "$base/result/$job/smoke_samples.csv" > "$work/served_samples.csv"
diff "$work/ref/results/smoke_samples.csv" "$work/served_samples.csv"
curl -sf "$base/result/$job/telemetry.json" | grep -q '"schema": "ftgcs-telemetry-v1"'
echo "served CSV is byte-identical to in-process xp run; telemetry schema ok"

echo "== cache-hit resubmission =="
curl -sf -X POST --data-binary @"$spec" "$base/submit" | grep -q '"state": "done"'
stats="$(curl -sf "$base/stats")"
printf '%s\n' "$stats" | grep -q '"cells_spawned": 1' \
    || { echo "resubmission spawned a new cell: $stats"; exit 1; }
printf '%s\n' "$stats" | grep -q '"cache_hits": 1' \
    || { echo "resubmission missed the cache: $stats"; exit 1; }
echo "resubmission served from cache ($stats)"

curl -sf -X POST "$base/shutdown" > /dev/null
wait "$serve_pid"
serve_pid=""
echo "serve smoke passed"
