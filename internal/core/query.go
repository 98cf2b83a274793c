package core

import (
	"fmt"

	"repro/internal/workload"
)

// This file is the range half of the op-generic query engine: the
// cluster-level entry points for CountRange, ScanRange, TopK, and
// MultiGet. They share the rank pipeline's pooled batches, per-call
// gather channels, and epoch pinning; what differs per op is only how
// queries split across partitions and how partial results compose:
//
//   - CountRange reduces to ranks: count(lo,hi) = rank(hi) - rank(lo-1)
//     (rank(-1) being 0), so a batch of ranges becomes a sorted batch
//     of endpoint keys dispatched through the one-search-per-delimiter
//     sorted path — the per-endpoint cost is the sorted-rank cost, and
//     the PR 5 insert counters keep cross-partition counts exact under
//     concurrent writes for free.
//   - ScanRange fans [lo,hi] out to the partitions the range spans;
//     each scans its pinned snapshot and the partials concatenate in
//     partition order (partition key ranges are disjoint and
//     ascending, so no merge is needed).
//   - TopK collects each partition's k-largest head run and composes
//     the global answer from the highest partition backward.
//   - MultiGet is a sorted dispatch of the query keys to their owning
//     partitions; a key's multiplicity is entirely partition-local.

// KeyRange is an inclusive key range [Lo, Hi]. An inverted range
// (Hi < Lo) is empty.
type KeyRange struct {
	Lo, Hi workload.Key
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
// (len(out) >= len(ranges)). The ranges are decomposed into their
// endpoint rank queries — lo-1 when lo > 0, then hi — and dispatched
// through the sorted rank pipeline: one delimiter search per partition
// boundary for the whole batch, never a per-endpoint Route. The
// emission order matters: an ascending batch of disjoint ranges yields
// an already-ascending endpoint stream, so it skips the radix sort and
// pays exactly the sorted-rank cost per endpoint; anything else buys
// into the same path through one pooled radix pass.
func (c *Cluster) CountRangeBatch(ranges []KeyRange, out []int) error {
	if len(out) < len(ranges) {
		return fmt.Errorf("core: out len %d < %d ranges", len(out), len(ranges))
	}
	if err := CheckCallSize(2 * len(ranges)); err != nil { // two endpoints a range
		return err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return fmt.Errorf("core: cluster is closed")
	}
	if len(ranges) == 0 {
		return nil
	}
	cs := c.getCall()
	defer c.putCall(cs)

	ends := cs.qbuf[:0]
	for _, r := range ranges {
		if r.Hi < r.Lo {
			continue
		}
		if r.Lo > 0 {
			ends = append(ends, r.Lo-1)
		}
		ends = append(ends, r.Hi)
	}
	cs.qbuf = ends
	if cap(cs.rbuf) < len(ends) {
		cs.rbuf = make([]int, len(ends))
	}
	rks := cs.rbuf[:len(ends)]
	c.rankDispatch(cs, ends, rks, opCount)

	// Combine in the same order the endpoints were emitted: rank(hi)
	// minus rank(lo-1), the latter 0 for ranges starting at key 0.
	j := 0
	for i, r := range ranges {
		if r.Hi < r.Lo {
			out[i] = 0
			continue
		}
		below := 0
		if r.Lo > 0 {
			below = rks[j]
			j++
		}
		out[i] = rks[j] - below
		j++
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
// (len(out) >= len(keys)). Keys are dispatched through the sorted
// pipeline (radix sort when needed) to their owning partitions; a
// multiplicity never crosses a partition boundary, so the per-partition
// answers are the global ones.
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
	sLo, sHi := ep.part.Route(lo), ep.part.Route(hi)
	parts := c.gatherKeyRuns(cs, func(send func(w int, b *realBatch)) {
		for s := sLo; s <= sHi; s++ {
			b := c.getBatch(cs.reply)
			b.op = opScan
			b.keys = append(b.keys, lo, hi)
			b.limit = limit
			b.lp = ep.lps[s]
			send(c.workerFor(ep, s), b)
		}
	})
	// Partition key ranges are disjoint and ascending, so send-order
	// concatenation is the sorted result; the limit re-applies globally
	// because each partition could return up to limit keys.
	taken := 0
	for _, run := range parts {
		take := len(run)
		if limit >= 0 && take > limit-taken {
			take = limit - taken
		}
		out = append(out, run[:take]...)
		taken += take
		if limit >= 0 && taken >= limit {
			break
		}
	}
	return out, nil
}

// TopK appends the k largest indexed keys, descending, to out and
// returns the extended slice (fewer than k when the index holds fewer
// keys). Every partition contributes its head run of at most k keys;
// the global answer reads the runs from the highest partition
// backward.
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
	parts := c.gatherKeyRuns(cs, func(send func(w int, b *realBatch)) {
		for s := range ep.lps {
			b := c.getBatch(cs.reply)
			b.op = opTopK
			b.limit = k
			b.lp = ep.lps[s]
			send(c.workerFor(ep, s), b)
		}
	})
	have := 0
	for s := len(parts) - 1; s >= 0 && have < k; s-- {
		take := len(parts[s])
		if take > k-have {
			take = k - have
		}
		out = append(out, parts[s][:take]...)
		have += take
	}
	return out, nil
}

// gatherKeyRuns runs a key-run op (scan/top-k) dispatch and collects
// each batch's outKeys in send order: the i-th batch handed to send
// fills the i-th returned run (posBase carries the sequence, unused by
// these ops otherwise). send keeps gathering under backpressure like
// the rank path, so the pipeline cannot stall; the returned runs are
// copies — pooled batch buffers never escape.
func (c *Cluster) gatherKeyRuns(cs *callState, dispatch func(send func(w int, b *realBatch))) [][]workload.Key {
	var parts [][]workload.Key
	pending := 0
	gather := func(b *realBatch) {
		parts[b.posBase] = append([]workload.Key(nil), b.outKeys...)
		c.putBatch(b)
		pending--
	}
	send := func(w int, b *realBatch) {
		b.posBase = len(parts)
		parts = append(parts, nil)
		pending++
		for {
			select {
			case c.in[w] <- b:
				return
			case r := <-cs.reply:
				gather(r)
			}
		}
	}
	dispatch(send)
	for pending > 0 {
		gather(<-cs.reply)
	}
	return parts
}
