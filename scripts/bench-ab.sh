#!/usr/bin/env bash
# bench-ab.sh compares the repository benchmark on a base revision and on
# the working tree, on one host, in alternating order:
#
#	bash scripts/bench-ab.sh BASE WORKLOAD PAIRS [SEED]
#	make bench-ab BASE=HEAD~1 WORKLOAD=remote-2shard PAIRS=10 SEED=3
#
# BASE is any git revision. It is exported once per revision with
# `git archive` into .bench_build/ab-<sha>/ and run from there; the export
# goes to a temporary directory that is renamed into place only when it
# is complete, so an interrupted export is never reused. The head
# side is the working tree as it is, uncommitted changes included. Both
# sides run their own, unchanged perfbench/run.sh with
# --seed SEED (default 1) --seconds 10 --trace 0; pair i runs base first
# when i is even and head first when it is odd.
#
# Every run must report "correct": true and "failed": 0, or the script
# stops with exit status 1. For each end-to-end metric in BENCHMARK.json
# it then prints both medians, how many pairs head won (ties count for
# neither side), the base runs' interquartile range, and a verdict:
#
#	REGRESSION  head's median is worse than base's by more than the bound
#	gain        head won at least 9/10 of the pairs and the medians
#	            differ by more than base's IQR
#	unresolved  base's IQR exceeds the bound and head's runs do not all
#	            read better than base's
#	ok          none of the above: within the bound
#
# The exit status is 1 when any run failed or any metric regressed. Raw
# JSON lines stay in .bench_build/ab-runs/{base,head}.jsonl.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 BASE WORKLOAD PAIRS [SEED]" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
workload=$2 pairs=$3 seed=${4:-1}
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
	echo "bench-ab: PAIRS must be a positive integer, got '$pairs'" >&2
	exit 2
fi
if ! [[ $seed =~ ^[0-9]+$ ]]; then
	echo "bench-ab: SEED must be a non-negative integer, got '$seed'" >&2
	exit 2
fi

basedir="$root/.bench_build/ab-$rev"
if [ ! -d "$basedir" ]; then
	mkdir -p "$root/.bench_build"
	tmp=$(mktemp -d "$root/.bench_build/ab-export.XXXXXX")
	trap 'rm -rf "$tmp"' EXIT
	git -C "$root" archive "$rev" | tar -x -C "$tmp"
	mv -T "$tmp" "$basedir"
	trap - EXIT
fi
runs="$root/.bench_build/ab-runs"
mkdir -p "$runs"
: >"$runs/base.jsonl"
: >"$runs/head.jsonl"

# run SIDE DIR appends one run's JSON line to $runs/SIDE.jsonl and stops
# the comparison if the run failed or was incorrect.
run() {
	local side=$1 dir=$2 log="$runs/$1.log" line
	(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds 10 --trace 0) >"$log" 2>&1 || true
	line=$(tail -n 1 "$log")
	if ! jq -e '.correct == true and .failed == 0' <<<"$line" >/dev/null 2>&1; then
		echo "bench-ab: $side run failed or was incorrect; its output:" >&2
		cat "$log" >&2
		exit 1
	fi
	echo "$line" >>"$runs/$side.jsonl"
	printf '  %-4s sims_per_s %s\n' "$side" "$(jq '.metrics.sims_per_s.value' <<<"$line")"
}

echo "bench-ab: $workload, seed $seed, $pairs pairs; base $rev, head = working tree"
for ((i = 0; i < pairs; i++)); do
	echo "pair $((i + 1))/$pairs"
	if ((i % 2 == 0)); then
		run base "$basedir"
		run head "$root"
	else
		run head "$root"
		run base "$basedir"
	fi
done

# One line per metric: name, better, bound, then the base values and the
# head values, each as a comma-separated list in run order.
jq -r --slurpfile b "$runs/base.jsonl" --slurpfile h "$runs/head.jsonl" '
	.end_to_end[] | . as $m |
	[$m.name, $m.better, ($m.bound | tostring),
	 ([$b[].metrics[$m.name].value | tostring] | join(",")),
	 ([$h[].metrics[$m.name].value | tostring] | join(","))] | @tsv
' "$root/BENCHMARK.json" | awk -F '\t' '
function sort(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# q returns the p-quantile of sorted a[1..n], interpolating linearly.
function q(a, n, p,    x, k) {
	x = 1 + (n - 1) * p; k = int(x)
	return k >= n ? a[n] : a[k] + (x - k) * (a[k+1] - a[k])
}
function better(x, y, dir) { return dir == "higher" ? x > y : x < y }
BEGIN {
	printf "%-14s %12s %12s %8s %6s %10s  %s\n", "metric", "base_med", "head_med", "delta", "wins", "base_iqr", "verdict"
}
{
	n = split($4, b, ","); split($5, h, ",")
	wins = 0
	for (i = 1; i <= n; i++) if (better(h[i], b[i], $2)) wins++
	split($4, bs, ","); split($5, hs, ","); sort(bs, n); sort(hs, n)
	bm = q(bs, n, 0.5); hm = q(hs, n, 0.5); iqr = q(bs, n, 0.75) - q(bs, n, 0.25)
	delta = bm != 0 ? (hm - bm) / bm : 0
	worse = $2 == "higher" ? -delta : delta
	d = hm - bm; if (d < 0) d = -d
	# Every head run better than every base run.
	allbetter = $2 == "higher" ? hs[1] > bs[n] : hs[n] < bs[1]
	if (worse > $3 + 0) { verdict = "REGRESSION"; bad = 1 }
	else if (wins >= 0.9 * n && d > iqr && better(hm, bm, $2)) verdict = "gain"
	else if (bm != 0 && iqr / (bm < 0 ? -bm : bm) > $3 + 0 && !allbetter) verdict = "unresolved"
	else verdict = "ok"
	printf "%-14s %12.4f %12.4f %+7.1f%% %3d/%-2d %10.4f  %s\n", $1, bm, hm, 100 * delta, wins, n, iqr, verdict
}
END { exit bad }
'
