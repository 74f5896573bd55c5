#!/bin/sh
# Runs one set of benchmark runs: every workload untraced once per seed,
# then traced once at the first seed, appending each run to
# <out>/runs.jsonl. Two sets, one per commit and with the same seeds, are
# what --compare reads:
#
#   sh bench/set.sh bench-out/parent 0 1 2 3 4 5 6 7 8 9
#   ... check out the change ...
#   sh bench/set.sh bench-out/change 0 1 2 3 4 5 6 7 8 9
#   sh bench/run.sh --compare bench-out/parent/runs.jsonl bench-out/change/runs.jsonl
set -eu
[ $# -ge 2 ] || { echo "usage: sh bench/set.sh OUT SEED..." >&2; exit 2; }
out=$1
shift
cd "$(dirname "$0")/.."
for w in paper-measure resilient-journal guard-eval serve-live; do
	for s in "$@"; do
		printf '%s seed %s: ' "$w" "$s"
		sh bench/run.sh --workload "$w" --seed "$s" --trace 0 --out "$out" | tail -n 1
	done
	printf '%s seed %s traced: ' "$w" "$1"
	sh bench/run.sh --workload "$w" --seed "$1" --trace 1 --out "$out" | tail -n 1
done
