package core

import (
	"fmt"
	"slices"

	"repro/internal/workload"
)

// This file is the one definition of the query ops beyond rank for both
// engines: the in-process Cluster below and the TCP client (netrun) plan
// and compose a CountRange, a ScanRange, a TopK and a MultiGet with the
// same functions, and differ only in how a request reaches a partition.
// As the paper's master does (Section 3.2, Figure 2), the delimiters
// decide which partitions a query asks, and each partition answers only
// for its own keys:
//
//   - Which partitions: a range [lo, hi] asks Route(lo) through Route(hi)
//     (Partitioning.Span), and a MultiGet key the partition it routes to
//     (Plan.Keys). A top-k asks every partition. Where a run of copies
//     fills a whole partition, a cut falls inside it (distinctCut), and
//     copies of the key lie under the partition it routes to: the table
//     counts them (Partitioning.below), and the key, or a range from it,
//     adds that count instead of asking those partitions.
//   - What each is asked: a batch of counted ranges, or of keys, is
//     planned once per call (Plan, plan.go) into per-partition requests
//     whose lists the engine pools — a worker batch's keys, a TCP frame's
//     words — and a partition counts its pairs on one snapshot
//     (index.CountPairs, which a worker and a TCP node both run). A scan
//     asks each spanned partition for its keys in [lo, hi], at most limit
//     of them.
//   - How answers compose: counts add up by position (AddCounts), from
//     the count below; a MultiGet key's count below adds to its
//     partition's answer (Plan.AddBelow); a scan puts the copies below
//     first, then the runs, lowest partition first, under one global
//     limit (ComposeScan); and top-k runs are read from the highest
//     partition down (ComposeTopK). A partition answers a scan or a top-k with an
//     ascending run.
//
// A count is exact under concurrent inserts: each partition counts one
// snapshot of its own keys, and an insert lands in the one partition its
// key routes to.

// KeyRange is an inclusive key range [Lo, Hi]. An inverted range
// (Hi < Lo) is empty.
type KeyRange struct {
	Lo, Hi workload.Key
}

// Span returns the partitions a range [lo, hi] asks, Route(lo) through
// Route(hi), and below: the copies of lo under Route(lo), which no
// partition of the span holds and the range counts all the same.
//
//dc:noalloc
func (p *Partitioning) Span(lo, hi workload.Key) (first, last, below int) {
	first = p.Route(lo)
	return first, p.Route(hi), p.belowOf(first, lo)
}

// AddCounts adds one partition's answer to a request into out at the
// request's positions: a range that spans partitions is the sum of
// theirs.
//
//dc:noalloc
func AddCounts[C ~uint32 | ~int](out []int, pos []int32, counts []C) {
	for i, p := range pos {
		out[p] += int(counts[i])
	}
}

// ComposeScan appends a scan of [lo, hi] to out: below copies of lo,
// which lie under the partitions it asked (Span), then the ascending runs
// of the parts partitions it asked, run(0) the lowest, concatenated in
// that order — partition order is key order — until limit keys were
// appended (limit < 0: all of them).
func ComposeScan[W ~uint32](out []workload.Key, lo workload.Key, below, limit, parts int, run func(i int) []W) []workload.Key {
	end := len(out) + limit
	if limit >= 0 {
		below = min(below, limit)
	}
	for range below {
		out = append(out, lo)
	}
	for i := range parts {
		r := run(i)
		if limit >= 0 {
			r = r[:min(len(r), end-len(out))]
		}
		for _, k := range r {
			out = append(out, workload.Key(k))
		}
	}
	return out
}

// ComposeTopK appends the k largest keys, descending, to out: the
// ascending runs of the parts partitions a top-k asked, run(0) the
// lowest, each read from its end, the highest partition first, until k
// keys were appended.
func ComposeTopK[W ~uint32](out []workload.Key, k, parts int, run func(i int) []W) []workload.Key {
	end := len(out) + k
	for i := parts - 1; i >= 0 && len(out) < end; i-- {
		r := run(i)
		for j := len(r) - 1; j >= 0 && len(out) < end; j-- {
			out = append(out, workload.Key(r[j]))
		}
	}
	return out
}

// CountRange returns the number of indexed keys in the inclusive range
// [lo, hi]. Safe for concurrent callers and concurrent inserts.
func (c *Cluster) CountRange(lo, hi workload.Key) (int, error) {
	var r [1]KeyRange
	var out [1]int
	r[0] = KeyRange{Lo: lo, Hi: hi}
	if err := c.CountRangeBatch(r[:], out[:]); err != nil {
		return 0, err
	}
	return out[0], nil
}

// CountRangeBatch resolves each range's key count into out
// (len(out) >= len(ranges)): the call's Plan fills pooled batches, each
// goes to its partition's worker once it holds a hand-off's worth of
// pairs, while the rest is planned, and each answer adds into out as it
// arrives.
func (c *Cluster) CountRangeBatch(ranges []KeyRange, out []int) error {
	if len(out) < len(ranges) {
		return fmt.Errorf("core: out len %d < %d ranges", len(out), len(ranges))
	}
	if err := CheckCallSize(len(ranges)); err != nil {
		return err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return fmt.Errorf("core: cluster is closed")
	}
	cs := c.getCall()
	defer c.putCall(cs)

	ep := c.epoch.Load()
	per := c.handoff(len(ranges))
	room := min(per, len(ranges)) // the most pairs one batch can receive
	pending := 0
	gather := func(b *realBatch) {
		AddCounts(out, b.pos, b.ranks)
		c.putBatch(b)
		pending--
	}
	cs.plan.Ranges(ep.part, ranges, out, per, func(s int) (*realBatch, *[]workload.Key, *[]int32) {
		b := c.getBatch(cs.reply)
		b.op, b.lp = opCount, ep.lps[s]
		if cap(b.keys) < 2*room || cap(b.pos) < room {
			b.keys, b.pos = make([]workload.Key, 0, 2*room), make([]int32, 0, room)
		}
		return b, &b.keys, &b.pos
	}, func(s int, b *realBatch) {
		pending++
		c.handOver(cs, c.workerFor(ep, s), b, gather)
	})
	for pending > 0 {
		gather(<-cs.reply)
	}
	return nil
}

// MultiGet returns each key's multiplicity — how many indexed copies of
// exactly that key exist (0 when absent).
func (c *Cluster) MultiGet(keys []workload.Key) ([]int, error) {
	out := make([]int, len(keys))
	if err := c.MultiGetInto(keys, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MultiGetInto is MultiGet writing into a caller-provided slice
// (len(out) >= len(keys)). The call's Plan cuts the keys, radix-sorted
// when they do not ascend, into runs for the partitions they route to,
// and adds the copies under a key's partition once every run is answered.
func (c *Cluster) MultiGetInto(keys []workload.Key, out []int) error {
	if len(out) < len(keys) {
		return fmt.Errorf("core: out len %d < %d keys", len(out), len(keys))
	}
	if err := CheckCallSize(len(keys)); err != nil {
		return err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return fmt.Errorf("core: cluster is closed")
	}
	if len(keys) == 0 {
		return nil
	}
	cs := c.getCall()
	defer c.putCall(cs)
	c.rankDispatch(cs, keys, out, opMultiGet)
	return nil
}

// ScanRange appends the indexed keys in [lo, hi], ascending, to out and
// returns the extended slice — at most limit keys (limit < 0: no
// limit). Each spanned partition scans one pinned snapshot; with
// concurrent inserts in flight the result is a consistent
// point-in-time subset per partition, and exact once writes quiesce.
func (c *Cluster) ScanRange(lo, hi workload.Key, limit int, out []workload.Key) ([]workload.Key, error) {
	if hi < lo || limit == 0 {
		return out, nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return out, fmt.Errorf("core: cluster is closed")
	}
	cs := c.getCall()
	defer c.putCall(cs)

	ep := c.epoch.Load()
	first, last, below := ep.part.Span(lo, hi)
	runs := c.askEach(cs, ep, opScan, first, last, limit, lo, hi)
	out = ComposeScan(out, lo, below, limit, len(runs), func(i int) []workload.Key { return runs[i].outKeys })
	for _, b := range runs {
		c.putBatch(b)
	}
	return out, nil
}

// TopK appends the k largest indexed keys, descending, to out and
// returns the extended slice (fewer than k when the index holds fewer
// keys). Every partition contributes its run of at most k largest keys.
func (c *Cluster) TopK(k int, out []workload.Key) ([]workload.Key, error) {
	if k <= 0 {
		return out, nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return out, fmt.Errorf("core: cluster is closed")
	}
	cs := c.getCall()
	defer c.putCall(cs)

	ep := c.epoch.Load()
	runs := c.askEach(cs, ep, opTopK, 0, len(ep.lps)-1, k)
	out = ComposeTopK(out, k, len(runs), func(i int) []workload.Key { return runs[i].outKeys })
	for _, b := range runs {
		c.putBatch(b)
	}
	return out, nil
}

// askEach hands one op batch for each partition in [first, last] of ep
// to its worker, with limit and keys as the op reads them, and returns
// the answered batches in partition order, which is key order, for the
// caller to compose from and recycle. There are at most as many as
// workers, which the reply channel always has room for.
func (c *Cluster) askEach(cs *callState, ep *updEpoch, op batchOp, first, last, limit int, keys ...workload.Key) []*realBatch {
	n := last - first + 1
	runs := slices.Grow(cs.runs[:0], n)[:n]
	cs.runs = runs
	for s := first; s <= last; s++ {
		b := c.getBatch(cs.reply)
		b.op, b.limit, b.lp, b.posBase = op, limit, ep.lps[s], s-first
		b.keys = append(b.keys, keys...)
		c.in[c.workerFor(ep, s)] <- b
	}
	for range n {
		b := <-cs.reply
		runs[b.posBase] = b
	}
	return runs
}
