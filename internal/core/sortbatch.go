package core

import (
	"slices"

	"repro/internal/index"
	"repro/internal/workload"
)

// This file is the master half of sorted-batch mode, which the planner
// (Plan.Keys) runs: detecting that a query batch is an ascending run,
// turning per-key routing into one binary search per partition boundary,
// and (for the ops whose kernels and frames want runs) sorting an
// unsorted batch by key with a pooled radix sort so it can ride the same
// path. The slave half is index.SortedArray.RankSorted, the kernel the
// sorted runs feed: each search starts where the one before it ended.

// SortedRun reports whether qs is ascending (duplicates allowed). On a
// sorted batch it costs one compare per key — the price of admission to
// the sorted dispatch path — and on a random batch it exits at the
// first inversion, typically within a handful of elements. It is the
// index's own sortedness scan, which takes four keys a trip.
func SortedRun(qs []workload.Key) bool { return index.FirstDescent(qs) == 0 }

// ForEachSortedRun walks an ascending query run against the partition
// delimiters and emits each partition's chunked sub-runs: one call per
// (partition, [start, end)) chunk of at most batch keys. This is the
// single definition of the sorted dispatch's boundary semantics (the
// planner's, for both engines): matching Partitioning.Route exactly, a
// key equal to delims[s] belongs to partition s+1 (Route counts
// delimiters <= key), so each partition's run ends at the lower bound of
// its delimiter in the remaining keys — one binary search per boundary,
// total O(parts * log n) instead of O(n) Route calls.
func ForEachSortedRun(delims, runKeys []workload.Key, batch int, emit func(part, start, end int)) {
	lo := 0
	for s := 0; s <= len(delims); s++ {
		hi := len(runKeys)
		if s < len(delims) {
			i, _ := slices.BinarySearch(runKeys[lo:], delims[s])
			hi = lo + i
		}
		for start := lo; start < hi; start += batch {
			emit(s, start, min(start+batch, hi))
		}
		lo = hi
	}
}

// radixScratch is the pooled state for sortByKey: the packed
// (key, position) array, its ping-pong buffer, and the unpacked
// results. It lives in each engine's pooled Plan, so a call in steady
// state sorts with zero allocations.
type radixScratch struct {
	packed  []uint64
	scratch []uint64
	keys    []workload.Key
	pos     []int32
}

// sortByKey stable-sorts queries ascending and returns the sorted run
// plus the permutation mapping sorted index -> original position: one
// index.RadixSort over packed (position<<32 | key) words — O(n) with
// sequential passes, no comparisons — so an unsorted caller can buy into
// the sorted pipeline (cursor kernels, one-sweep routing) for about the
// cost of one extra pass per byte.
func (rs *radixScratch) sortByKey(queries []workload.Key) ([]workload.Key, []int32) {
	n := len(queries)
	if cap(rs.packed) < n {
		rs.packed = make([]uint64, n)
		rs.scratch = make([]uint64, n)
		rs.keys = make([]workload.Key, n)
		rs.pos = make([]int32, n)
	}
	a := rs.packed[:n]
	for i, q := range queries {
		a[i] = uint64(i)<<32 | uint64(q)
	}
	keys, pos := rs.keys[:n], rs.pos[:n]
	for i, v := range index.RadixSort(a, rs.scratch) {
		keys[i] = workload.Key(v)
		pos[i] = int32(v >> 32)
	}
	return keys, pos
}
