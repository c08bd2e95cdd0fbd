#!/usr/bin/env bash
# Paired A/B run of the end-to-end benchmark: a base revision (A)
# against the working tree (B), on the same host and the same seeds.
#
#   bash tools/ab.sh <base-rev> <workload> [rounds]
#   make ab BASE=<rev> WORKLOAD=<workload> ROUNDS=<n>
#
# It checks the base out with `git worktree add` under .ab_build/,
# builds both perfbench binaries, and runs them interleaved: A then B
# on odd rounds, B then A on even rounds, so neither side always runs
# on a host warmed (or heated) by the other. Round i uses seed
# SEED+i-1 on both sides (SEED defaults to 1) and each run lasts
# AB_SECONDS seconds (default 10). It prints each end-to-end metric's
# per-round values, the median of the per-round B/A ratios and a
# bootstrap 95% confidence interval of that median (1000 resamples of
# the rounds, fixed seed), and marks with "*" the metrics whose
# interval excludes 1. It fails if any run reports an incorrect
# result. Run it from the repository root.
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
	order="a b"
	[ $((i % 2)) -eq 0 ] && order="b a"
	for side in $order; do
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

# One TSV line per metric: name, A values, B values, B/A ratios of the
# rounds where A is nonzero (values space-separated).
jq -n -r \
	--slurpfile a <(for i in $(seq 1 "$rounds"); do cat "$out/run-a-$i.json"; done) \
	--slurpfile b <(for i in $(seq 1 "$rounds"); do cat "$out/run-b-$i.json"; done) '
def fmt: if . == null then "n/a" elif . == 0 or fabs >= 1000 then round | tostring
  else pow(10; 3 - (fabs | log10 | floor)) as $k | . * $k | round / $k | tostring end;
($a[0].metrics | keys_unsorted)[] as $m
| [$a[].metrics[$m].value] as $va | [$b[].metrics[$m].value] as $vb
| [$m, ($va | map(fmt) | join(" ")), ($vb | map(fmt) | join(" ")),
   ([range(0; $va | length) | select($va[.] != 0) | $vb[.] / $va[.] | tostring] | join(" "))]
| @tsv' | awk -F '\t' '
# sort sorts a[1..n] ascending (shell sort: mawk has no asort).
function sort(a, n,    gap, i, j, v) {
	for (gap = int(n / 2); gap > 0; gap = int(gap / 2))
		for (i = gap + 1; i <= n; i++) {
			v = a[i]
			for (j = i; j > gap && a[j - gap] > v; j -= gap) a[j] = a[j - gap]
			a[j] = v
		}
}
function median(a, n) {
	sort(a, n)
	return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
BEGIN {
	B = 1000
	srand(1)
	printf "%-30s %-45s %-45s %-10s %s\n", "metric", "A per round", "B per round", "median B/A", "95% CI"
}
{
	n = split($4, r, " ")
	med = "n/a"; ci = "n/a"; mark = ""
	if (n > 0) {
		for (i = 1; i <= n; i++) s[i] = r[i]
		med = sprintf("%.3f", median(s, n))
		for (b = 1; b <= B; b++) {
			for (i = 1; i <= n; i++) s[i] = r[1 + int(rand() * n)]
			m[b] = median(s, n)
		}
		sort(m, B)
		lo = m[int(0.025 * B) + 1]; hi = m[int(0.975 * B)]
		# Mark on the printed bounds, so a ratio that differs from 1 only
		# past the third decimal (identical byte counts) is not marked.
		lo = sprintf("%.3f", lo); hi = sprintf("%.3f", hi)
		ci = "[" lo ", " hi "]"
		if (lo + 0 > 1 || hi + 0 < 1) mark = " *"
	}
	printf "%-30s %-45s %-45s %-10s %s%s\n", $1, $2, $3, med, ci, mark
}'
