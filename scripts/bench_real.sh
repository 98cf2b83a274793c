#!/usr/bin/env bash
# bench_real.sh — run the real-runtime serving benchmarks, the netrun
# TCP-loopback benchmarks, the two search kernels' own rows, the update
# layer's (base plus buffer reads, buffer inserts) and the durable layer's
# (segment writer, one partition's insert path), and record the results as
# BENCH_real.json (one object per benchmark), so the perf trajectory is
# comparable across PRs.
#
# Usage: scripts/bench_real.sh [benchtime]
#   benchtime: go test -benchtime value (default 20x)
#
# Exit status is strict: any failing `go test -bench` invocation — a
# benchmark binary that does not build, a bench that errors, a crash —
# fails the script, so CI cannot silently pass on a broken bench and
# then "compare" an empty JSON. pipefail covers the awk post-processing
# stage as well.
set -euo pipefail

cd "$(dirname "$0")/.."
BENCHTIME="${1:-20x}"
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
	go test -run '^$' -bench "$1" -benchmem -benchtime "${3:-$BENCHTIME}" "$2" >> "$RAW" || status=$?
	if [ "$status" -ne 0 ]; then
		echo "bench_real.sh: go test -bench $1 $2 failed (exit $status)" >&2
		cat "$RAW" >&2
		exit "$status"
	fi
}

# Real-runtime serving rows, including the mixed read/write
# (online-update) row, the v5 query-surface rows (CountRange — each
# spanned partition counts its [lo,hi] pairs, priced per range end, whose
# ns/endpoint must stay within 2x the sorted-rank ns/key; MultiGet, whose
# ns/key within 3x; and TopK) and the 65,536-key-call row (RankBatch64K),
# where the master's pipelining shows.
run_bench 'BenchmarkReal_' .
# TCP loopback mode: the multiplexed master over real sockets, solo and
# with 4 concurrent callers (plus the serialized baseline), the
# replicated rows — 8 partitions x 2 replicas in steady state
# (Replicated8x2) and with one replica killed mid-run while every
# batch must stay checksum-correct (ReplicatedFailover) — and the
# sorted-batch rows (SortedDelta and its same-parameter unsorted
# companion, plus the CPU-bound loopback variant), which exercise the
# protocol-v2 delta frames end to end, the v5 scan-streaming row
# (ScanStream: full-range ScanRange over the wire), the query-op cycle of
# the referee's ops_tcp workload on 2 nodes (QueryOps: its ns/key is per
# counted range, asked key and returned key, and is where the nodes' batch
# count kernel shows), and the gray-failure row (GraySlowReplica: 8x2 with
# one replica answering 20ms late, a hedging/ejecting client, measured
# after ejection settles — the steady degraded-mode number). Every row
# times only calls after a warm one (a fresh cluster's first call grows
# every pool and buffer once), and the rank rows report ns/key, which
# benchcheck gates.
run_bench 'BenchmarkTCPCluster' ./internal/netrun
# The unsorted search kernel alone (SortedArray.RankBatch), at the three
# per-partition sizes the referee's workloads use and on two key sets
# whose samples crowd into a few of the bucket table's buckets (skewed,
# two-clusters): the layer the rows above get their unsorted-rank speed
# from, so a regression there is named rather than inferred. The pos-
# rows run the form the engine's workers run (SortedArray.RankInto,
# storing each rank at its position in a call eight times the batch's
# length) at the smallest and the largest size. An op is a
# 0.2-1 ms batch, so these rows take their own iteration count: at the
# suite's 20x they would time first touches and little else.
run_bench 'BenchmarkSortedArrayRankBatch' ./internal/index 2000x
# The array's build alone (the bucket table over keys known sorted, as a
# partition's first build and every merge make it), in ns per key at the
# same three sizes: what the table adds to the referee's setup_s.
run_bench 'BenchmarkNewSortedArray' ./internal/index 2000x
# The sorted kernel alone (SortedArray.RankSorted) on ascending runs, at
# the same three sizes and at five densities from 0.3 to 2,560 array keys
# per query: it answers in three forms (a merge, cursor windows, the
# unsorted kernel — at 200 and 2,560) chosen by density, and each row
# gates the one that runs there.
run_bench 'BenchmarkSortedArrayRankSorted' ./internal/index 2000x
# The update layer alone. UpdatableRankBatch: base plus buffer, ns per key
# of uniform queries, rows <base keys>x<buffered keys> (x0 is the clean
# path, the base alone): each buffer is searched through its base's bucket
# grid, and these rows gate it. UpdatableInsertBatch: 100-key inserts into
# a buffer of the row's size, ns per inserted key — what carrying the
# buffer's table forward costs the write side. The x20480 rows are half the
# merge trigger (an eighth of the partition) at the TCP node's
# 327,680-key partition: the average buffer that node holds between merges.
run_bench 'BenchmarkUpdatableRankBatch|BenchmarkUpdatableInsertBatch' ./internal/index 2000x
# The master's per-key routing step alone (Partitioning.Route) at 8, 64
# and 300 partitions. An op routes 65,536 keys in well under a
# millisecond, so like the kernel rows it takes its own iteration count.
run_bench 'BenchmarkPartitioningRoute' . 2000x
# The durable layer alone. WriteSegment: one flush — encode, checksum,
# write, two fsyncs, rename — at the referee's three partition sizes; the
# row reads MB/s of image. DurablePartitionInsert: acked 819-key inserts
# into one 327,680-key partition, merges and segment flushes falling where
# they fall; its disk_b_per_key is every byte written per inserted key,
# which the flush rule (index.layerFraction) bounds. 400 ops is five
# merges (each at an eighth of the partition) and three segments: enough
# for the rule's cadence to show.
run_bench 'BenchmarkWriteSegment' ./internal/index
run_bench 'BenchmarkDurablePartitionInsert' ./internal/index 400x

cat "$RAW" >&2

awk '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name) # the GOMAXPROCS suffix: rows keep one name on any host
		iters = $2
		ns = mbs = nskey = bop = aop = p50 = p99 = p999 = disk = "null"
		for (i = 3; i < NF; i++) {
			if ($(i+1) == "ns/op")     ns    = $i
			if ($(i+1) == "MB/s")      mbs   = $i
			if ($(i+1) == "ns/key")    nskey = $i
			if ($(i+1) == "ns/endpoint") nskey = $i
			if ($(i+1) == "B/op")      bop   = $i
			if ($(i+1) == "allocs/op") aop   = $i
			if ($(i+1) == "p50_ns")    p50   = $i
			if ($(i+1) == "p99_ns")    p99   = $i
			if ($(i+1) == "p999_ns")   p999  = $i
			if ($(i+1) == "disk_B/key") disk = $i
		}
		printf "%s{\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s,\"mb_per_s\":%s,\"ns_per_key\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s,\"p50_ns\":%s,\"p99_ns\":%s,\"p999_ns\":%s,\"disk_b_per_key\":%s}",
			(n++ ? ",\n  " : "  "), name, iters, ns, mbs, nskey, bop, aop, p50, p99, p999, disk
	}
	/^(goos|goarch|pkg|cpu):/ { meta[$1] = $2 }
	BEGIN { printf "{\n\"benchmarks\": [\n" }
	END {
		printf "\n],\n"
		printf "\"goos\": \"%s\",\n", meta["goos:"]
		printf "\"goarch\": \"%s\"\n", meta["goarch:"]
		printf "}\n"
	}' "$RAW" > "$OUT"

echo "wrote $OUT" >&2
