package netrun

// Client-side entry points for the query ops beyond rank. Each op
// scatters to the partitions whose key sub-ranges it touches and
// composes the replies by partition order, which is key order — the
// dial-time delimiters assign strictly ascending disjoint sub-ranges:
//
//   - CountRange sends the full [lo,hi] to every spanned partition and
//     sums the local counts. No clamping and no insert-counter
//     corrections are needed: a partition only holds keys from its own
//     sub-range, and inserts route by the same delimiters, so the
//     spanned partitions Route(lo)..Route(hi) hold exactly the keys in
//     [lo,hi] at all times.
//   - ScanRange collects one ascending run per spanned partition and
//     concatenates them lowest partition first, truncating at limit.
//   - TopK asks every partition for its k largest (ascending on the
//     wire) and reads the replies highest partition down, each run from
//     its end, until k keys are taken.
//   - MultiGet radix-sorts the key batch (the OpMultiGet frame is the
//     delta codec, which requires ascending runs), scatters sorted
//     runs to their owning partitions, and lets the read loops write
//     each multiplicity straight into the output slot — each key is
//     owned by exactly one partition, so the scatter is race-free.
//
// All four ride the rank pipeline's failover machinery: a pending
// whose replica dies is re-dispatched to a healthy sibling with the
// request words intact (they stay in p.keys until a reply lands), so a
// mid-scan kill resolves to the same bytes a healthy run produces.

import (
	"fmt"
	"slices"

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
// Ranges spanning several partitions batch their endpoint pairs with
// every other range touching the same partition, so the wire cost is
// bounded by spanned-partition pairs, not ranges times partitions.
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
	clear(out[:len(ranges)])

	part := c.part.Load()
	nc := c.getCall(len(ep.groups))
	for i, r := range ranges {
		if r.Hi < r.Lo {
			continue
		}
		gLo, gHi := part.Route(r.Lo), part.Route(r.Hi)
		for gi := gLo; gi <= gHi; gi++ {
			p := nc.accum[gi]
			if p == nil {
				p = c.getPending()
				p.op = OpCountRange
				p.posBase = len(nc.pends)
				nc.accum[gi] = p
				nc.gis = append(nc.gis, gi)
				nc.pends = append(nc.pends, p)
			}
			p.keys = append(p.keys, uint32(r.Lo), uint32(r.Hi))
			p.pos = append(p.pos, int32(i))
			if len(p.keys) >= c.batch {
				nc.accum[gi] = nil
			}
		}
	}
	clear(nc.accum)
	nc.room(len(nc.pends))
	for j, p := range nc.pends {
		c.dispatch(ep, nc.gis[j], p, nil, nc.done)
	}
	// The read loops stage each reply's counts in p.reply rather than
	// adding into out: a range spanning partitions has several replies
	// targeting the same slot, and only this single goroutine may sum
	// them.
	err = c.gather(nc.done, len(nc.pends), nc.pends)
	for _, p := range nc.pends {
		if p.err == nil {
			for j, pos := range p.pos {
				out[pos] += int(p.reply[j])
			}
		}
		c.release(p)
	}
	c.calls.Put(nc)
	return err
}

// askEach sends one op request carrying words to every partition in
// [gLo, gHi] and returns the call state with the completed pendings in
// nc.pends in partition order — which is key order — for the caller to
// compose from and release before it returns nc to the pool.
func (c *Cluster) askEach(ep *epoch, op uint8, gLo, gHi int, words ...uint32) (*netCall, error) {
	nc := c.getCall(0)
	n := gHi - gLo + 1
	nc.room(n)
	nc.pends = slices.Grow(nc.pends, n)[:n]
	for gi := gLo; gi <= gHi; gi++ {
		p := c.getPending()
		p.op = op
		p.keys = append(p.keys, words...)
		p.posBase = gi - gLo
		c.dispatch(ep, gi, p, nil, nc.done)
	}
	return nc, c.gather(nc.done, n, nc.pends)
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
	part := c.part.Load()
	// On the wire a limit of 0 means unlimited.
	nc, err := c.askEach(ep, OpScanRange, part.Route(lo), part.Route(hi), uint32(lo), uint32(hi), uint32(max(limit, 0)))
	// Partition order is key order: concatenating the per-partition
	// ascending runs lowest partition first and truncating at limit
	// reproduces the oracle's "first limit keys from lo" exactly.
	end := len(buf) + limit
	for _, p := range nc.pends {
		for _, v := range p.reply {
			if err == nil && (limit < 0 || len(buf) < end) {
				buf = append(buf, workload.Key(v))
			}
		}
		c.release(p)
	}
	c.calls.Put(nc)
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
	// The highest partition holds the largest keys; each reply is an
	// ascending run, read back-to-front.
	end := len(buf) + k
	for _, p := range slices.Backward(nc.pends) {
		for _, v := range slices.Backward(p.reply) {
			if err == nil && len(buf) < end {
				buf = append(buf, workload.Key(v))
			}
		}
		c.release(p)
	}
	c.calls.Put(nc)
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
// takes the sorted pipeline: the OpMultiGet frame is the delta codec,
// which only carries ascending runs, so unsorted input is radix-sorted
// client-side and the replies scatter through the position array.
func (c *Cluster) MultiGetInto(keys []workload.Key, out []int) error {
	if len(out) < len(keys) {
		return fmt.Errorf("netrun: out len %d < %d keys", len(out), len(keys))
	}
	return c.scatterInto(OpMultiGet, keys, out)
}
