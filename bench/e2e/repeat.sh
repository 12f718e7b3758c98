#!/usr/bin/env bash
# Runs one bench_e2e workload k times, one process each, and prints every
# metric's median, quartiles and spread over the runs.
#
#   bench/e2e/repeat.sh <workload> <seed> <k> [--vary-seed]
#
# --vary-seed runs seeds seed, seed+1, ..., seed+k-1 instead of one seed.
# Each run lasts BENCHMARK.json's run_seconds. The run records stay in
# $CARGO_TARGET_DIR/e2e/repeat/ (default .bench_build) for summarize.py.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 || ( $# -eq 4 && $4 != --vary-seed ) ]]; then
  echo "usage: $0 <workload> <seed> <k> [--vary-seed]" >&2
  exit 2
fi
workload=$1 seed=$2 k=$3
step=0
if [[ $# -eq 4 ]]; then step=1; fi
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)

base=${CARGO_TARGET_DIR:-.bench_build}
[[ $base == /* ]] || base=$root/$base
out="$base/e2e/repeat/$workload-seed$seed-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"
records=()
for ((i = 0; i < k; i++)); do
  s=$((seed + i * step))
  status=0
  python3 "$here/run.py" --workload "$workload" --seed "$s" --json "$out/run$i.json" \
    > "$out/run$i.log" 2> "$out/run$i.err" || status=$?
  echo "run $((i + 1))/$k seed $s exit $status: $(tail -n 1 "$out/run$i.log" | cut -c1-90)..."
  if [[ -f $out/run$i.json ]]; then records+=("$out/run$i.json"); fi
done
python3 "$here/summarize.py" "${records[@]}"
echo "records: $out"
