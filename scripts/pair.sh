#!/usr/bin/env bash
# pair.sh — compare this checkout against a parent commit on one
# benchmark workload, in alternating pairs of referee runs.
#
# Usage: scripts/pair.sh <parent-ref> <workload> [pairs] [first-seed]
#   parent-ref: any git revision; it is extracted with `git archive` into
#               a temporary directory (under $TMPDIR, default /tmp)
#   workload:   a workload name from BENCHMARK.json
#   pairs:      number of pairs (default 10)
#   first-seed: seed of the first pair (default 1); pair i runs seed
#               first-seed+i-1 on both sides
#
# Each run is `bench/run.sh -workload W -seconds 16 -trace 0 -seed S` in
# its own tree (run.sh's `go run` compiles before the benchmark starts
# timing, so a side's first run builds it untimed). The two sides
# alternate, and which one goes first flips every pair, so that a host
# that drifts between two speeds loads both sides alike. For every
# end-to-end metric of BENCHMARK.json the script prints both sides'
# medians and quartiles, the median of the pairwise ratios change/parent,
# the pairs the change won, and a verdict: "gain" when there are ten
# pairs or more, the change won at least nine in ten of them and its
# median is better than the parent's by more than the parent's
# interquartile range, "unresolved" otherwise. Quartiles are the
# exclusive method (Python's statistics.quantiles, n=4), as bench/ uses.
#
# The change side is the working tree, uncommitted edits included. A run
# that exits non-zero, answers wrongly or prints no result line stops the
# script; failed operations are counted and printed at the end.
set -euo pipefail

usage() {
	echo "usage: scripts/pair.sh <parent-ref> <workload> [pairs] [first-seed]" >&2
	exit 2
}
if (($# < 2 || $# > 4)); then
	usage
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
first_seed=${4:-1}
[[ $pairs =~ ^[1-9][0-9]*$ && $first_seed =~ ^[0-9]+$ ]] || usage

root=$(cd "$(dirname "$0")/.." && pwd)
for tool in jq awk git tar; do
	command -v "$tool" >/dev/null || { echo "pair.sh: needs $tool" >&2; exit 2; }
done
jq -e --arg w "$workload" '.workloads | any(.name == $w)' "$root/BENCHMARK.json" >/dev/null ||
	{ echo "pair.sh: no workload \"$workload\" in BENCHMARK.json" >&2; exit 2; }

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
parent_sha=$(git -C "$root" rev-parse --short "$parent_ref^{commit}")
mkdir "$tmp/parent"
git -C "$root" archive "$parent_sha" | tar -x -C "$tmp/parent"
change_desc="$(git -C "$root" rev-parse --short HEAD)"
[ -z "$(git -C "$root" status --porcelain)" ] || change_desc="$change_desc + working tree"

# run <side-dir> <name> <seed>: one referee run; its result line goes to
# $tmp/<name>.jsonl.
run() {
	local log="$tmp/$2.$3.log"
	if ! bash "$1/bench/run.sh" -workload "$workload" -seconds 16 -trace 0 -seed "$3" >"$log" 2>&1; then
		echo "pair.sh: $2 run with seed $3 failed:" >&2
		tail -n 20 "$log" >&2
		exit 1
	fi
	local line
	line=$(tail -n 1 "$log")
	if ! jq -e '.correct' <<<"$line" >/dev/null 2>&1; then
		echo "pair.sh: $2 run with seed $3 answered wrongly or gave no result line:" >&2
		tail -n 5 "$log" >&2
		exit 1
	fi
	echo "$line" >>"$tmp/$2.jsonl"
}

echo "pair.sh: $workload, $pairs pairs of 16 s runs, seeds $first_seed-$((first_seed + pairs - 1)); parent $parent_sha, change $change_desc"
for ((i = 0; i < pairs; i++)); do
	seed=$((first_seed + i))
	if ((i % 2 == 0)); then
		run "$tmp/parent" parent "$seed"
		run "$root" change "$seed"
	else
		run "$root" change "$seed"
		run "$tmp/parent" parent "$seed"
	fi
	echo "  pair $((i + 1)) (seed $seed): read_keys_per_s parent $(tail -n 1 "$tmp/parent.jsonl" | jq '.metrics.read_keys_per_s.value'), change $(tail -n 1 "$tmp/change.jsonl" | jq '.metrics.read_keys_per_s.value')" >&2
done

printf '%-20s %-36s %-36s %7s %6s  %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" ratio won verdict
jq -r '.end_to_end[] | "\(.name) \(.better)"' "$root/BENCHMARK.json" | while read -r name better; do
	p=$(jq -r --arg m "$name" '.metrics[$m].value' "$tmp/parent.jsonl" | tr '\n' ' ')
	c=$(jq -r --arg m "$name" '.metrics[$m].value' "$tmp/change.jsonl" | tr '\n' ' ')
	awk -v name="$name" -v better="$better" -v p="$p" -v c="$c" '
	# quartile i (1..3) of the sorted s[1..n], the exclusive method.
	function cut(s, n, i,    m, j, d) {
		if (n == 1) return s[1]
		m = n + 1
		j = int(i * m / 4)
		if (j < 1) j = 1
		if (j > n - 1) j = n - 1
		d = i * m - j * 4
		return (s[j] * (4 - d) + s[j + 1] * d) / 4
	}
	function sorted(src, n, dst,    i, j, v) {
		for (i = 1; i <= n; i++) {
			v = src[i]
			for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
			dst[j + 1] = v
		}
	}
	BEGIN {
		n = split(p, pv, " ")
		split(c, cv, " ")
		won = 0
		for (i = 1; i <= n; i++) {
			pv[i] += 0; cv[i] += 0
			r[i] = pv[i] == 0 ? 1 : cv[i] / pv[i]
			if ((better == "higher" && cv[i] > pv[i]) || (better == "lower" && cv[i] < pv[i])) won++
		}
		sorted(pv, n, ps); sorted(cv, n, cs); sorted(r, n, rs)
		p1 = cut(ps, n, 1); p2 = cut(ps, n, 2); p3 = cut(ps, n, 3)
		c1 = cut(cs, n, 1); c2 = cut(cs, n, 2); c3 = cut(cs, n, 3)
		gap = better == "higher" ? c2 - p2 : p2 - c2
		verdict = (n >= 10 && 10 * won >= 9 * n && gap > p3 - p1) ? "gain" : "unresolved"
		printf "%-20s %-36s %-36s %7.4f %6s  %s\n", name,
			sprintf("%.4g [%.4g, %.4g]", p2, p1, p3), sprintf("%.4g [%.4g, %.4g]", c2, c1, c3),
			cut(rs, n, 2), won "/" n, verdict
	}'
done
for side in parent change; do
	jq -rs --arg side "$side" '"\($side) failed operations: \(map(.failed) | add) of \(map(.attempted) | add)"' "$tmp/$side.jsonl"
done
