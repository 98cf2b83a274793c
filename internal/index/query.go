package index

import (
	"slices"

	"repro/internal/workload"
)

// This file is the query surface beyond exact rank: range counts, scans,
// top-k tails, and per-key multiplicities. Everything here reduces to
// positions in sorted key runs of one pinned (base, delta, frozen)
// snapshot — which is what makes the ops exact for every method (sorted
// arrays, trees, buffered plans): the Updatable always retains its base's
// sorted keys alongside whatever ranker was built over them.
//
// What each costs. A batch of counted ranges (CountPairs) is one batch
// rank of all the range ends, the lo-1 and hi of each range laid out as
// the ranges come, on one snapshot: a real range needs both ends, and
// disjoint ranges that come ascending are one ascending run for the
// sorted kernels. A batch of multiplicities (CountKeys) is one search and
// one compare a key per layer: the key's upper bound through the layered
// kernels of the rank ops (the sorted forms when the keys come ascending,
// as both engines send them), and the copies of the key just below it,
// which only a key held more than once reads past the first compare. A
// single CountRange is two binary searches per layer, which is right for
// one range; a scan or a top-k is two boundary searches and a three-way
// merge of what lies between.

// lowerBound is the number of keys < k, by binary search — the
// counterpart of upperBound (keys <= k). The single CountRange is a
// difference of the two, and a scan starts at one and ends at the other.
func lowerBound(keys []workload.Key, k workload.Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// countRange counts keys in the inclusive range [lo, hi] of a sorted
// run: upperBound(hi) - lowerBound(lo), 0 for an inverted range.
func countRange(keys []workload.Key, lo, hi workload.Key) int {
	if hi < lo {
		return 0
	}
	return upperBound(keys, hi) - lowerBound(keys, lo)
}

// CountRange returns the number of indexed keys in the inclusive range
// [lo, hi]: the sum of the three layers' counts over one pinned
// snapshot, exact under concurrent inserts and merges.
func (u *Updatable) CountRange(lo, hi workload.Key) int {
	base, delta, frozen := u.pin().runs()
	return countRange(base, lo, hi) + countRange(delta, lo, hi) + countRange(frozen, lo, hi)
}

// CountPairs returns the number of u's keys in each inclusive range
// [pairs[2i], pairs[2i+1]]: rank(hi) − rank(lo−1), the ranks of all the
// range ends taken in one call, on one snapshot of u — ranks from two
// instants of a partition taking inserts would subtract to a count that
// never existed. The ends are ranked laid out as the pairs are, so ranges
// that come ascending and disjoint are one ascending stream for the
// sorted kernel. It is a partition's answer to its share of a count
// batch, in process (a worker) and over TCP (a node, straight from the
// request words). keys and ints are the caller's scratch, grown as
// needed; the counts are the first len(pairs)/2 of ints.
//
//dc:noalloc
func CountPairs[W ~uint32](u *Updatable, pairs []W, keys *[]workload.Key, ints *[]int) []int {
	n := len(pairs) &^ 1
	*keys = slices.Grow((*keys)[:0], n)
	*ints = slices.Grow((*ints)[:0], n)
	ends, ranks := (*keys)[:n], (*ints)[:n]
	for i := 0; i < n; i += 2 {
		lo := workload.Key(pairs[i])
		ends[i], ends[i+1] = lo-min(lo, 1), workload.Key(pairs[i+1])
	}
	if FirstDescent(ends) == 0 {
		u.RankSorted(ends, ranks, 0)
	} else {
		u.RankBatch(ends, ranks, 0)
	}
	for i := range n / 2 {
		// A range from key 0 has no keys below it; an inverted one has
		// hi <= lo−1, and its difference is the keys between, negated.
		below := 0
		if pairs[2*i] > 0 {
			below = ranks[2*i]
		}
		ranks[i] = max(ranks[2*i+1]-below, 0)
	}
	return ranks[:n/2]
}

// CountKeys writes each query key's multiplicity (how many indexed
// copies of exactly that key exist) into out[i]: the MultiGet kernel of
// both engines, one search and one compare a key per layer, all layers of
// ONE pinned snapshot. Each layer ranks the keys into under — the base
// through its own ranker, each buffer into a cleared under, the sorted
// forms when the keys ascend, as both engines send them — and a key's
// copies are the keys equal to it just below its upper bound there. The
// queries need not be sorted; out and under are each at least len(qs)
// long. under is the caller's because it crosses the base ranker's
// interface, which a frame-local array would escape through to the heap on
// every call.
//
//dc:noalloc
func (u *Updatable) CountKeys(qs []workload.Key, out, under []int) {
	l := u.pin()
	n := len(qs)
	out, under = out[:n], under[:n]
	sorted := FirstDescent(qs) == 0
	if sr, ok := l.r.(SortedRanker); ok && sorted {
		sr.RankSorted(qs, under, 0)
	} else {
		l.r.RankInto(qs, nil, under, 0)
	}
	if keys := l.keys; len(keys) == 0 {
		clear(out)
	} else {
		for i, q := range qs {
			out[i] = copiesBelow(keys, q, under[i])
		}
	}
	for _, d := range [2]*Delta{l.delta, l.frozen} {
		if d == nil || len(d.keys) == 0 {
			continue
		}
		clear(under)
		if sorted {
			d.RankSortedAdd(qs, under)
		} else {
			d.RankAdd(qs, nil, under)
		}
		for i, q := range qs {
			out[i] += copiesBelow(d.keys, q, under[i])
		}
	}
}

// copiesBelow is the number of copies of q in a non-empty sorted run that
// end at p, q's upper bound there. The key just below p is q or smaller,
// so one compare settles 0 or 1 without a branch on whether q is present
// — half the keys a MultiGet asks are absent — and only a second copy
// enters the loop. At p = 0 every key is above q and the compare reads
// keys[0].
func copiesBelow(keys []workload.Key, q workload.Key, p int) int {
	j := max(p-1, 0)
	c := 0
	if keys[j] == q {
		c = 1
	}
	for j > 0 && keys[j-1] == q {
		c++
		j--
	}
	return c
}

// ScanRange appends the indexed keys in [lo, hi], ascending, to out —
// at most max of them (max < 0 means no limit) — and returns the
// extended slice. The scan pins one (base, delta, frozen) snapshot and
// three-way-merges the layers' sub-ranges, so a concurrent insert or
// epoch swap never tears the result: the caller sees exactly the keys
// of one consistent instant.
func (u *Updatable) ScanRange(lo, hi workload.Key, max int, out []workload.Key) []workload.Key {
	if hi < lo || max == 0 {
		return out
	}
	base, delta, frozen := u.pin().runs()
	a := base[lowerBound(base, lo):upperBound(base, hi)]
	b := delta[lowerBound(delta, lo):upperBound(delta, hi)]
	c := frozen[lowerBound(frozen, lo):upperBound(frozen, hi)]
	total := len(a) + len(b) + len(c)
	if max < 0 || max > total {
		max = total
	}
	for n := 0; n < max; n++ {
		// Pick the smallest head of the three runs. Two compares per
		// key; the buffers are tiny next to the base, so the common
		// case is a straight copy of the base run.
		switch {
		case len(a) > 0 && (len(b) == 0 || a[0] <= b[0]) && (len(c) == 0 || a[0] <= c[0]):
			out = append(out, a[0])
			a = a[1:]
		case len(b) > 0 && (len(c) == 0 || b[0] <= c[0]):
			out = append(out, b[0])
			b = b[1:]
		default:
			out = append(out, c[0])
			c = c[1:]
		}
	}
	return out
}

// TopK appends the k largest indexed keys, ascending — the run a
// partition answers a top-k with in both engines — to out and returns the
// extended slice (fewer than k when the structure holds fewer keys). Like
// ScanRange it merges one pinned snapshot — here from the tails of the
// three runs backward, filling the k new slots from the last.
func (u *Updatable) TopK(k int, out []workload.Key) []workload.Key {
	if k <= 0 {
		return out
	}
	a, b, c := u.pin().runs()
	if total := len(a) + len(b) + len(c); k > total {
		k = total
	}
	base := len(out)
	out = slices.Grow(out, k)[:base+k]
	for i := base + k - 1; i >= base; i-- {
		la, lb, lc := len(a), len(b), len(c)
		switch {
		case la > 0 && (lb == 0 || a[la-1] >= b[lb-1]) && (lc == 0 || a[la-1] >= c[lc-1]):
			out[i] = a[la-1]
			a = a[:la-1]
		case lb > 0 && (lc == 0 || b[lb-1] >= c[lc-1]):
			out[i] = b[lb-1]
			b = b[:lb-1]
		default:
			out[i] = c[lc-1]
			c = c[:lc-1]
		}
	}
	return out
}
