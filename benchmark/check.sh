#!/usr/bin/env bash
# The repeatability checker: per workload and end-to-end metric, the median
# of each side's runs, the relative difference, the bound, and
# ok / UNRESOLVED. Exits non-zero on a difference beyond its bound and on a
# count that is not bit-equal for one pair of seeds.
#
#   benchmark/check.sh A.jsonl B.jsonl   compare two --json files
#                                        (run vs run, or parent vs change)
#   benchmark/check.sh [run.sh options]  run the benchmark CHECK_RUNS times
#                                        (default 3) per side and compare
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
if [ "$#" -eq 2 ] && [ -f "$1" ] && [ -f "$2" ]; then
    exec bash "$here/run.sh" --compare "$1" "$2"
fi
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
for side in first second; do
    for run in $(seq "${CHECK_RUNS:-3}"); do
        bash "$here/run.sh" --json "$dir/$side.jsonl" "$@" >"$dir/log" || {
            cat "$dir/log"
            echo "check.sh: run $run of the $side side failed" >&2
            exit 1
        }
        echo "$side side, run $run: $(grep -c '^workload ' "$dir/log") workloads finished"
    done
done
bash "$here/run.sh" --compare "$dir/first.jsonl" "$dir/second.jsonl"
