#!/usr/bin/env bash
# Paired A/B run of the end-to-end benchmark: a base revision (A)
# against the working tree (B), on the same host and the same seeds.
#
#   bash tools/ab.sh <base-rev> <workload> [rounds]
#   make ab BASE=<rev> WORKLOAD=<workload> ROUNDS=<n>
#
# It checks the base out with `git worktree add` under .ab_build/,
# builds both perfbench binaries, and runs them interleaved, A then B,
# for each round; round i uses seed SEED+i-1 on both sides (SEED
# defaults to 1) and each run lasts AB_SECONDS seconds (default 10).
# It prints each end-to-end metric's per-round values and the median
# of the per-round B/A ratios, and fails if any run reports an
# incorrect result. Run it from the repository root.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: tools/ab.sh <base-rev> <workload> [rounds]" >&2
	exit 2
fi
base=$1 workload=$2 rounds=${3:-5}
seed=${SEED:-1} seconds=${AB_SECONDS:-10}

root=$(git rev-parse --show-toplevel)
out=$root/.ab_build
wt=$out/base
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

cleanup() { git -C "$root" worktree remove --force "$wt" 2>/dev/null || true; }
cleanup
trap cleanup EXIT
git -C "$root" worktree add --detach --force "$wt" "$base" >/dev/null
echo "A = $(git -C "$wt" rev-parse --short HEAD) ($base), B = working tree of $(git -C "$root" rev-parse --short HEAD)"

(cd "$wt/perfbench" && go build -o "$out/perfbench-a" .)
(cd "$root/perfbench" && go build -o "$out/perfbench-b" .)

rm -f "$out"/run-*.json
for i in $(seq 1 "$rounds"); do
	s=$((seed + i - 1))
	for side in a b; do
		dir=$root
		[ "$side" = a ] && dir=$wt
		line=$(cd "$dir" && "$out/perfbench-$side" --workload "$workload" --seed "$s" --seconds "$seconds" --trace 0 | tail -n 1)
		if [ "$(jq -r .correct <<<"$line")" != true ]; then
			echo "round $i side $side (seed $s): incorrect result: $line" >&2
			exit 1
		fi
		echo "$line" >"$out/run-$side-$i.json"
		echo "round $i/$rounds seed $s: $side done" >&2
	done
done

jq -n -r \
	--slurpfile a <(for i in $(seq 1 "$rounds"); do cat "$out/run-a-$i.json"; done) \
	--slurpfile b <(for i in $(seq 1 "$rounds"); do cat "$out/run-b-$i.json"; done) '
def median: sort | if length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
def fmt: if . == null then "n/a" elif . == 0 or fabs >= 1000 then round | tostring
  else pow(10; 3 - (fabs | log10 | floor)) as $k | . * $k | round / $k | tostring end;
($a[0].metrics | keys_unsorted) as $names
| ["metric", "A per round", "B per round", "median B/A"],
  ($names[] as $m
   | [$a[].metrics[$m].value] as $va | [$b[].metrics[$m].value] as $vb
   | [range(0; $va | length) | select($va[.] != 0) | $vb[.] / $va[.]] as $r
   | [$m, ($va | map(fmt) | join(" ")), ($vb | map(fmt) | join(" ")),
      (if ($r | length) == 0 then "n/a" else ($r | median | fmt) end)])
| @tsv' | awk -F '\t' '{ printf "%-30s %-45s %-45s %s\n", $1, $2, $3, $4 }'
