package netrun

// Client-side entry points for the query ops beyond rank. The ops are
// defined once, in core (see core/query.go and core/plan.go): which
// partitions a range, a scan, a top-k or a key asks, the per-partition
// requests a batch of ranges or keys is planned into (core.Plan), and how
// the partitions' answers compose. This file moves the requests and the
// replies:
//
//   - CountRange fills each partition's OpCountRange frames with its
//     [lo,hi] pairs through the call's core.Plan and adds the counts
//     they answer into out (core.AddCounts).
//   - ScanRange asks each partition of Partitioning.Span for its
//     ascending run of [lo,hi] and TopK every partition for its k largest
//     (ascending on the wire); core.ComposeScan and core.ComposeTopK put
//     the runs together.
//   - MultiGet frames the runs the call's core.Plan cuts (the plan
//     radix-sorts a batch that does not ascend, so that each frame is an
//     ascending run, which the node's sorted kernel counts) and lets the
//     read loops write each multiplicity straight into its output slot. A
//     key whose run a cut splits is also asked of the partitions below
//     its own; those replies are staged and added into out once every
//     other reply has landed.
//
// All four ride the rank pipeline's failover machinery: a pending
// whose replica dies is re-dispatched to a healthy sibling with the
// request words intact (they stay in p.keys until a reply lands), so a
// mid-scan kill resolves to the same bytes a healthy run produces.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// KeyRange is re-exported so callers holding only a *Cluster can build
// CountRangeBatch inputs without importing core.
type KeyRange = core.KeyRange

// CountRange returns the number of keys in [lo, hi] (inclusive) across
// the whole cluster; 0 if hi < lo. Exact at quiescence, a consistent
// point-in-time view under concurrent inserts.
func (c *Cluster) CountRange(lo, hi workload.Key) (int, error) {
	var one [1]int
	if err := c.CountRangeBatch([]KeyRange{{Lo: lo, Hi: hi}}, one[:]); err != nil {
		return 0, err
	}
	return one[0], nil
}

// CountRangeBatch answers many inclusive range counts in one scatter:
// out[i] receives the key count of ranges[i] (len(out) >= len(ranges)).
// The call's core.Plan batches each partition's [lo,hi] pairs into
// frames of BatchKeys words (rounded up to a whole pair), each sent once
// full, so the wire cost is bounded by spanned-partition pairs, not
// ranges times partitions.
//
//dc:noalloc
func (c *Cluster) CountRangeBatch(ranges []KeyRange, out []int) error {
	if len(out) < len(ranges) {
		return fmt.Errorf("netrun: out len %d < %d ranges", len(out), len(ranges))
	}
	if err := core.CheckCallSize(len(ranges)); err != nil {
		return err
	}
	ep, err := c.begin()
	if err != nil {
		return err
	}
	defer c.pause.RUnlock()

	// Frames go out as the plan fills them, so the gather channel holds the
	// most the plan can open — a full frame per per pairs of ranges asked of
	// every partition, and one part-filled frame a partition — and a read
	// loop never blocks completing this call.
	groups, per := len(ep.groups), (c.batch+1)/2
	nc := c.getCall()
	nc.room(len(ranges)*groups/per + groups)
	nc.plan.Ranges(c.part.Load(), ranges, out, per, func(int) (*pending, *[]uint32, *[]int32) {
		p := c.getPending()
		p.op = OpCountRange
		nc.pends = append(nc.pends, p)
		return p, &p.keys, &p.pos
	}, func(gi int, p *pending) {
		c.dispatch(ep, gi, p, nil, nc.done)
	})
	// The read loops stage each reply's counts in p.reply: a range that
	// spans partitions has several replies adding into one slot, and only
	// this goroutine may add them.
	if err = c.gather(nc.done, len(nc.pends), true); err == nil {
		for _, p := range nc.pends {
			core.AddCounts(out, p.pos, p.reply)
		}
	}
	c.endCall(nc)
	return err
}

// askEach sends one op request carrying words to every partition in
// [gLo, gHi] and returns the call state with the completed pendings in
// nc.pends in partition order — which is key order — for the caller to
// compose from before it ends the call.
func (c *Cluster) askEach(ep *epoch, op uint8, gLo, gHi int, words ...uint32) (*netCall, error) {
	nc := c.getCall()
	n := gHi - gLo + 1
	nc.room(n)
	for gi := gLo; gi <= gHi; gi++ {
		p := c.getPending()
		p.op = op
		p.keys = append(p.keys, words...)
		nc.pends = append(nc.pends, p)
		c.dispatch(ep, gi, p, nil, nc.done)
	}
	return nc, c.gather(nc.done, n, true)
}

// endCall releases the call's kept pendings and returns nc to the pool.
func (c *Cluster) endCall(nc *netCall) {
	for _, p := range nc.pends {
		c.release(p)
	}
	c.calls.Put(nc)
}

// ScanRange returns the keys in [lo, hi] in ascending order, at most
// limit of them (limit < 0 means unlimited), appended to buf. Results
// larger than one protocol frame (MaxFrameWords keys from a single
// partition) are refused by the serving node; bound them with limit.
func (c *Cluster) ScanRange(lo, hi workload.Key, limit int, buf []workload.Key) ([]workload.Key, error) {
	if hi < lo || limit == 0 {
		return buf, nil
	}
	ep, err := c.begin()
	if err != nil {
		return buf, err
	}
	defer c.pause.RUnlock()
	first, last := c.part.Load().Span(lo, hi)
	// On the wire a limit of 0 means unlimited.
	nc, err := c.askEach(ep, OpScanRange, first, last, uint32(lo), uint32(hi), uint32(max(limit, 0)))
	if err == nil {
		buf = core.ComposeScan(buf, limit, len(nc.pends), func(i int) []uint32 { return nc.pends[i].reply })
	}
	c.endCall(nc)
	return buf, err
}

// TopK returns the k largest keys in descending order, appended to buf.
func (c *Cluster) TopK(k int, buf []workload.Key) ([]workload.Key, error) {
	if k <= 0 {
		return buf, nil
	}
	ep, err := c.begin()
	if err != nil {
		return buf, err
	}
	defer c.pause.RUnlock()
	nc, err := c.askEach(ep, OpTopK, 0, len(ep.groups)-1, uint32(k))
	if err == nil {
		buf = core.ComposeTopK(buf, k, len(nc.pends), func(i int) []uint32 { return nc.pends[i].reply })
	}
	c.endCall(nc)
	return buf, err
}

// MultiGet returns the multiplicity of each query key (how many copies
// the cluster holds), in query order.
func (c *Cluster) MultiGet(keys []workload.Key) ([]int, error) {
	out := make([]int, len(keys))
	if err := c.MultiGetInto(keys, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MultiGetInto is MultiGet writing into a caller-provided slice
// (len(out) >= len(keys)). Unlike LookupBatchInto, the batch always
// takes the sorted pipeline: the node counts an OpMultiGet frame's keys
// with its sorted kernel, so unsorted input is radix-sorted client-side
// and the replies scatter through the position array.
// A key whose run a cut splits counts its copies in every partition.
func (c *Cluster) MultiGetInto(keys []workload.Key, out []int) error {
	if len(out) < len(keys) {
		return fmt.Errorf("netrun: out len %d < %d keys", len(out), len(keys))
	}
	return c.scatterInto(OpMultiGet, keys, out)
}
