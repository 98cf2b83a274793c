#!/usr/bin/env bash
# bench_real.sh — run the kernel rows and record them as BENCH_real.json,
# the baseline scripts/benchcheck gates. A kernel row times one layer's
# inner loop alone, so a regression there is named rather than inferred
# from a whole call; the whole call is judged by the benchmark under
# bench/ (scripts/pair.sh), not here. The rows:
#
#   SortedArrayRankBatch    the unsorted search kernel (SortedArray.RankBatch)
#                           at the three per-partition sizes the benchmark's
#                           workloads use and on two key sets whose samples
#                           crowd into a few of the bucket table's buckets
#                           (skewed, two-clusters); the pos- rows run the
#                           form the engine's workers run (RankInto, each
#                           rank stored at its position in a call eight
#                           times the batch's length).
#   NewSortedArray          the array's build over keys known sorted, as a
#                           partition's first build and every merge make it,
#                           in ns per key: what the table adds to setup_s.
#   SortedArrayRankSorted   the sorted kernel on ascending runs, at the same
#                           sizes and five densities from 0.3 to 2,560 array
#                           keys per query: each of its three forms (a merge,
#                           cursor windows, the unsorted kernel) is gated
#                           where it is the one that runs.
#   UpdatableRankBatch      base plus buffer, ns per key of uniform queries;
#                           rows are <base keys>x<buffered keys>, x0 the base
#                           alone.
#   UpdatableInsertBatch    100-key inserts into a buffer of the row's size,
#                           ns per inserted key. The x20480 rows are half the
#                           merge trigger at the TCP node's 327,680-key
#                           partition: its average buffer between merges.
#   UpdatableCountKeys      the MultiGet kernel (Updatable.CountKeys), 8,192
#                           keys a call on a 163,840-key partition: ascending
#                           on a clean partition and beside a 4,096-key
#                           buffer, and unsorted on a clean one.
#   PartitioningRoute       the master's per-key routing step at 8, 64 and
#                           300 partitions.
#
# Every row runs 2,000 iterations: an op is a batch of well under a
# millisecond, so fewer would time first touches and little else. The
# index rows run in one test binary, which builds each key set once; the
# CountKeys rows take two more runs of it, as a -bench pattern matches each
# level of a row's name apart.
#
# Usage: scripts/bench_real.sh
#   BENCH_OUT: output path (default BENCH_real.json)
#
# Exit status is strict: any failing `go test -bench` invocation — a
# benchmark binary that does not build, a bench that errors, a crash —
# fails the script, so CI cannot silently pass on a broken bench and
# then "compare" an empty JSON. pipefail covers the awk post-processing
# stage as well.
set -euo pipefail

if (($#)); then
	echo "usage: scripts/bench_real.sh (every row fixes its own iteration count)" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
OUT="${BENCH_OUT:-BENCH_real.json}"

# Collect bench output in a temp file first so a failing bench run
# aborts the script before it can emit a well-formed but empty
# BENCH_real.json.
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

run_bench() {
	# Propagate go test's exit status explicitly: with the output
	# redirected into $RAW a failure would otherwise only surface as a
	# malformed JSON much later, in benchcheck.
	local status=0
	go test -run '^$' -bench "$1" -benchmem -benchtime 2000x "$2" >> "$RAW" || status=$?
	if [ "$status" -ne 0 ]; then
		echo "bench_real.sh: go test -bench $1 $2 failed (exit $status)" >&2
		cat "$RAW" >&2
		exit "$status"
	fi
}

run_bench '^Benchmark(SortedArrayRankBatch|NewSortedArray|SortedArrayRankSorted|UpdatableRankBatch|UpdatableInsertBatch)$' ./internal/index
run_bench '^BenchmarkUpdatableCountKeys$/^163840$/^delta(0|4096)$/^sorted$' ./internal/index
run_bench '^BenchmarkUpdatableCountKeys$/^163840$/^delta0$/^unsorted$' ./internal/index
run_bench '^BenchmarkPartitioningRoute$' .

cat "$RAW" >&2

awk '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name) # the GOMAXPROCS suffix: rows keep one name on any host
		iters = $2
		ns = nskey = bop = aop = "null"
		for (i = 3; i < NF; i++) {
			if ($(i+1) == "ns/op")     ns    = $i
			if ($(i+1) == "ns/key")    nskey = $i
			if ($(i+1) == "B/op")      bop   = $i
			if ($(i+1) == "allocs/op") aop   = $i
		}
		printf "%s{\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s,\"ns_per_key\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}",
			(n++ ? ",\n  " : "  "), name, iters, ns, nskey, bop, aop
	}
	/^(goos|goarch):/ { meta[$1] = $2 }
	BEGIN { printf "{\n\"benchmarks\": [\n" }
	END {
		printf "\n],\n"
		printf "\"goos\": \"%s\",\n", meta["goos:"]
		printf "\"goarch\": \"%s\"\n", meta["goarch:"]
		printf "}\n"
	}' "$RAW" > "$OUT"

echo "wrote $OUT" >&2
