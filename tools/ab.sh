#!/usr/bin/env bash
# Paired A/B run of a benchmark: a base revision (A) against the
# working tree (B), on the same host and the same seeds.
#
#   bash tools/ab.sh <base-rev> <workload> [rounds]
#   make ab BASE=<rev> WORKLOAD=<workload> ROUNDS=<n>
#   make bench-diff BASE=<rev> ROUNDS=<n>        # workload micro
#
# It checks the base out with `git worktree add` under .ab_build/,
# builds both sides, and runs them interleaved: A then B on odd
# rounds, B then A on even rounds, so neither side always runs on a
# host warmed (or heated) by the other. It prints each metric's
# per-round values, the median of the per-round B/A ratios and a
# bootstrap 95% confidence interval of that median (1000 resamples of
# the rounds, fixed seed), and marks with "*" the metrics whose
# interval excludes 1. A metric that is 0 on A in every round and
# nonzero on B in at least half of them has no ratio; it prints "new"
# and is marked. It fails if any run reports an incorrect result.
#
# A perfbench workload (pump, random, search, corpus) runs the
# perfbench binary: round i uses seed SEED+i-1 on both sides (SEED
# defaults to 1) and each run lasts AB_SECONDS seconds (default 10);
# its metrics are the run's end-to-end and per-layer figures.
#
# The micro workload is the hot-path regression gate. It builds the
# `go test -c` binaries of internal/sim and internal/obs and lists
# their Step* benchmarks; each round runs every entry on both sides
# back to back (-benchmem), in the round's order. Round 1 runs each
# entry for 1s; later rounds run it for the iteration count it reached
# on side A in round 1 (-test.benchtime <N>x), so they skip go test's
# b.N ramp. Every
# entry's ns/op, B/op and allocs/op is a metric. It exits nonzero,
# naming the entries, when an entry's median B/A ns/op ratio exceeds
# 1.08 and its interval lies above 1, when an entry's median allocs/op
# rises, or when a metric is "new". Entries present on one side only
# are printed, never failed.
#
# Run it from the repository root.
set -euo pipefail
shopt -s inherit_errexit

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

# side_dir prints the checkout a side runs in.
side_dir() { if [ "$1" = a ]; then echo "$wt"; else echo "$root"; fi; }

micro_pkgs="sim obs"
for side in a b; do
	if [ "$workload" = micro ]; then
		for pkg in $micro_pkgs; do
			(cd "$(side_dir "$side")" && go test -c -o "$out/$pkg-$side.test" "./internal/$pkg")
		done
	else
		(cd "$(side_dir "$side")/perfbench" && go build -o "$out/perfbench-$side" .)
	fi
done

# micro_bench runs the benchmarks of package $2 matching -test.bench
# pattern $3 on side $1, printing go test's benchmark lines.
micro_bench() {
	(cd "$(side_dir "$1")/internal/$2" && "$out/$2-$1.test" -test.run '^$' \
		-test.bench "$3" -test.benchmem -test.benchtime "$4" -test.timeout 10m) ||
		{ echo "side $1: $2 benchmarks $3 failed" >&2; exit 1; }
}

# micro_names turns benchmark lines into entry names: no Benchmark
# prefix, no -GOMAXPROCS suffix.
micro_names() { awk '$1 ~ /^Benchmark/ { sub(/^Benchmark/, "", $1); sub(/-[0-9]+$/, "", $1); print }'; }

if [ "$workload" = micro ]; then
	# One line per Step* entry of either side: its package and the
	# -test.bench pattern matching it alone. Each entry then runs on
	# both sides back to back, so host drift slower than one entry's
	# run cancels out of its B/A ratio.
	entries=$(for side in a b; do
		for pkg in $micro_pkgs; do
			micro_bench "$side" "$pkg" '^BenchmarkStep' 1x | micro_names |
				awk -v pkg="$pkg" '{ n = split("Benchmark" $1, l, "/"); p = ""
					for (i = 1; i <= n; i++) p = p (i > 1 ? "/" : "") "^" l[i] "$"
					print pkg, p }'
		done
	done | awk '!seen[$0]++')
fi

rm -f "$out"/run-*
declare -A iters # "<pkg> <pattern>" -> <N>x, from side A in round 1
for i in $(seq 1 "$rounds"); do
	s=$((seed + i - 1))
	order="a b"
	[ $((i % 2)) -eq 0 ] && order="b a"
	if [ "$workload" = micro ]; then
		while read -r pkg pat; do
			key="$pkg $pat" bt=1s
			[ "$i" -gt 1 ] && bt=${iters[$key]:-1s}
			for side in $order; do
				res=$(micro_bench "$side" "$pkg" "$pat" "$bt")
				echo "$res" >>"$out/run-$side-$i.txt"
				if [ "$i" -eq 1 ] && [ "$side" = a ]; then
					n=$(awk '$1 ~ /^Benchmark/ { print $2; exit }' <<<"$res")
					if [ -n "$n" ]; then iters[$key]=${n}x; fi
				fi
			done
		done <<<"$entries"
		# Metric "<entry> <unit>" for the units ns/op, B/op, allocs/op.
		for side in $order; do
			micro_names <"$out/run-$side-$i.txt" | awk '{
				for (i = 3; i < NF; i += 2)
					if ($(i + 1) == "ns/op" || $(i + 1) == "B/op" || $(i + 1) == "allocs/op")
						print $1 " " $(i + 1) "\t" $i
			}' | jq -Rnc '[inputs | split("\t") | {key: .[0], value: {value: (.[1] | tonumber)}}]
				| {metrics: from_entries}' >"$out/run-$side-$i.json"
		done
		echo "round $i/$rounds done" >&2
		continue
	fi
	for side in $order; do
		line=$(cd "$(side_dir "$side")" && "$out/perfbench-$side" --workload "$workload" --seed "$s" --seconds "$seconds" --trace 0 | tail -n 1)
		if [ "$(jq -r .correct <<<"$line")" != true ]; then
			echo "round $i side $side (seed $s): incorrect result: $line" >&2
			exit 1
		fi
		echo "$line" >"$out/run-$side-$i.json"
		echo "round $i/$rounds seed $s: $side done" >&2
	done
done

# One TSV line per metric of either side: name, A values, B values,
# B/A ratios of the rounds where both sides report it and A is nonzero
# (values space-separated, n/a where a side lacks the metric).
jq -n -r \
	--slurpfile a <(for i in $(seq 1 "$rounds"); do cat "$out/run-a-$i.json"; done) \
	--slurpfile b <(for i in $(seq 1 "$rounds"); do cat "$out/run-b-$i.json"; done) '
def fmt: if . == null then "n/a" elif . == 0 or fabs >= 1000 then round | tostring
  else pow(10; 3 - (fabs | log10 | floor)) as $k | . * $k | round / $k | tostring end;
reduce (($a[0].metrics | keys_unsorted) + ($b[0].metrics | keys_unsorted))[] as $k
  ([]; if index([$k]) then . else . + [$k] end)
| .[] as $m
| [$a[].metrics[$m].value] as $va | [$b[].metrics[$m].value] as $vb
| [$m, ($va | map(fmt) | join(" ")), ($vb | map(fmt) | join(" ")),
   ([range(0; $va | length) | select($va[.] != null and $va[.] != 0 and $vb[.] != null)
     | $vb[.] / $va[.] | tostring] | join(" "))]
| @tsv' | awk -F '\t' -v gate="$([ "$workload" = micro ] && echo 1)" '
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
# known stores the numeric entries of the space-separated list l in
# a[1..] and returns their count (n/a entries are skipped).
function known(l, a,    v, k, i, c) {
	split("", a)
	k = split(l, v, " ")
	for (i = 1; i <= k; i++) if (v[i] != "n/a") a[++c] = v[i] + 0
	return c
}
BEGIN {
	B = 1000
	srand(1)
	w = gate ? 44 : 30
	printf "%-" w "s %-45s %-45s %-10s %s\n", "metric", "A per round", "B per round", "median B/A", "95% CI"
}
{
	n = split($4, r, " ")
	na = known($2, va); nb = known($3, vb)
	med = "n/a"; ci = "n/a"; mark = ""; lo = ""
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
	} else if (na > 0 && nb > 0 && median(vb, nb) != 0) {
		# Both sides report the metric and A is 0 in every round.
		med = "new"; ci = ""; mark = " *"
	}
	printf "%-" w "s %-45s %-45s %-10s %s%s\n", $1, $2, $3, med, ci, mark
	if (!gate) next
	if (med == "new")
		bad = bad sprintf("\n  %s: 0 on A, %s on B", $1, $3)
	else if ($1 ~ / ns\/op$/ && n > 0 && med + 0 > 1.08 && lo + 0 > 1)
		bad = bad sprintf("\n  %s: median B/A %s, 95%% CI %s", $1, med, ci)
	else if ($1 ~ / allocs\/op$/ && na > 0 && nb > 0 && median(vb, nb) > median(va, na))
		bad = bad sprintf("\n  %s: median %s on A, %s on B", $1, median(va, na), median(vb, nb))
}
END {
	if (bad != "") {
		printf "FAIL: regressed against A:%s\n", bad
		exit 1
	}
	if (gate) print "ok: no ns/op regression above 8%, no allocs/op rise, nothing new"
}'
