#!/usr/bin/env bash
# Where does a benchmark workload spend its time? A sampling profile
# without perf or valgrind (the sandbox has neither).
#
#   scripts/prof.sh <workload> [seconds (default 10)]
#
# Builds the benchmark as benchmark/run.sh does, compiles the SIGPROF
# sampler in scripts/prof/sampler.c and preloads it into
# `ftgcs-benchmark --workload <workload> --trace 0`: one sample per
# tick of the CPU-time timer (asked for every millisecond; a 250 Hz
# kernel gives one every 4 ms), each the address of the interrupted
# instruction and whether its thread is the process's main one. Prints
# the main thread's and the other threads' sample totals (a workload's
# simulation runs on the main thread; `stream_dense` also formats its
# CSV lines on an `ftgcs-csv` thread), then the main thread's samples
# three ways, heaviest first:
#
#   by outer symbol   the function the address lies in, as `nm` names it
#                     (what inlining left standing);
#   by inlined frame  the innermost source function at the address, as
#                     `addr2line -f -i` reads it from the debug info
#                     (`[profile.release]` carries `debug = true`);
#   by address        single instructions, with their inline chain —
#                     a stall (a failed store forward, a cache miss)
#                     shows as one address holding several per cent.
#
# Only the in-process workloads say anything (`line64_global`,
# `flood_raw`, `stream_dense`, …): child processes are not sampled.
# Prints "skipped" and exits 0 where cc, nm or addr2line is missing.
set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: scripts/prof.sh <workload> [seconds]}"
seconds="${2:-10}"
top="${PROF_TOP:-25}"
for tool in cc nm addr2line; do
    command -v "$tool" > /dev/null || { echo "prof.sh: skipped ($tool not found)"; exit 0; }
done
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet -p ftgcs-bench --bin xp
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/ftgcs-benchmark"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cc -O2 -shared -fPIC -o "$tmp/sampler.so" scripts/prof/sampler.c

PROF_OUT="$tmp/samples" LD_PRELOAD="$tmp/sampler.so" \
    "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 | grep -E '^(workload|work_per_s|run_wall_s) ?' || true
export LC_ALL=C
awk '$2 == 1 { print $1 }' "$tmp/samples" > "$tmp/main"
total="$(wc -l < "$tmp/main")"
others="$(( $(wc -l < "$tmp/samples") - total ))"
echo
echo "== $total samples on the main thread, $others on other threads =="
[ "$total" -gt 0 ] || { echo "prof.sh: no main-thread samples recorded" >&2; exit 1; }
# The heaviest $top lines of a `count text` list, with their share. (awk
# reads its input to the end: `head` would break the pipe under pipefail.)
heaviest() {
    sort -rn | awk -v total="$total" -v top="$top" \
        'NR <= top { printf "%7d %5.1f%%  %s\n", $1, 100 * $1 / total, substr($0, index($0, $2)) }'
}

echo
echo "== by outer symbol =="
# One sorted stream of symbol starts (S) and samples (X): a sample
# belongs to the last symbol at or before it.
{
    nm -n -C --defined-only "$bin" | awk '$2 ~ /^[tTwW]$/ { name = substr($0, index($0, $3)); print $1, "S", name }'
    awk '{ print $1, "X" }' "$tmp/main"
} | sort -s -k1,2 | awk '
    $2 == "S" { name = substr($0, index($0, $3)); next }
    { count[$1 == "0000000000000000" ? "[outside the executable]" : name]++ }
    END { for (n in count) print count[n], n }' \
  | heaviest

# Every distinct address once through addr2line: `-a` starts each
# answer with the address, then (function, file:line) pairs from the
# innermost inlined frame outwards.
sort "$tmp/main" | uniq -c | awk '$2 != "0000000000000000" { print $1, $2 }' > "$tmp/counts"
awk '{ print $2 }' "$tmp/counts" | addr2line -a -f -i -C -e "$bin" | awk '
    NR == FNR { count["0x" $2] = $1; next }
    /^0x/ { addr = $1; frame = 0; next }
    { frame++
      if (frame == 1) { inner[$0] += count[addr]; chain[addr] = $0 }
      else if (frame == 2) { sub(/.*\//, ""); chain[addr] = chain[addr] " (" $0 ")" }
      else if (frame % 2 == 1) chain[addr] = chain[addr] " < " $0 }
    END { for (f in inner) print inner[f], f > "'"$tmp"'/frames"
          for (a in chain) print count[a], a, chain[a] > "'"$tmp"'/addresses" }' "$tmp/counts" -

echo
echo "== by inlined frame =="
heaviest < "$tmp/frames"
echo
echo "== by address =="
heaviest < "$tmp/addresses"
