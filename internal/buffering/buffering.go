// Package buffering implements the buffering access technique of Zhou
// and Ross (VLDB 2003) that the paper uses for Method B (L2-sized
// subtrees) and Method C-2 (L1-sized subtrees), as described in
// Section 3.1 and Figure 1.
//
// The index tree is logically decomposed into segments of levels so that
// each subtree (a node plus its descendants down the segment) fits in
// the target cache together with its key buffers. A batch of search keys
// descends the top subtree; each key is appended to the buffer of the
// lower subtree its descent reached, and subtrees are then processed
// recursively with their buffers as the new batch. Buffer writes are
// streaming (sequential), so they avoid the per-access cache-miss
// latency that makes Method A slow; the subtree being processed stays
// cache-resident for the whole batch.
//
// The algorithm itself is cost-model agnostic: Hooks lets the simulated
// engines charge nanoseconds for node touches and buffer traffic, while
// the real runtime passes zero Hooks and just gets the ranks.
package buffering

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/workload"
)

// EntryBytes is the buffer footprint of one in-flight key: the 4-byte
// key plus a 4-byte original position so results can be scattered back.
// The paper stores "the search key and the corresponding lookup result
// ... in the same memory location" (Section 4), which is the same 8-byte
// budget.
const EntryBytes = 8

// Hooks receives the algorithm's memory events. Any field may be nil.
// Buffer events carry the id of the subtree-root node owning the buffer,
// so a cost model can give each buffer its own address region (the
// scatter across many buffer tails is what distinguishes the buffered
// write pattern from a single sequential stream).
type Hooks struct {
	// TouchNode fires once per tree-node visit, in visit order.
	TouchNode func(id int32)
	// BufferWrite fires when a key entry is appended to the buffer of
	// the subtree rooted at node bucket (bytes = EntryBytes).
	BufferWrite func(bucket int32, bytes int)
	// BufferRead fires when a buffered entry is read back from the
	// buffer of the subtree rooted at node bucket.
	BufferRead func(bucket int32, bytes int)
}

// Plan is a subtree decomposition of one tree for a given cache budget.
type Plan struct {
	tree *index.Tree
	// splits[i] is the level (root = 0) where segment i's subtrees are
	// rooted; heights[i] is how many levels segment i spans. Segments
	// tile the tree: splits[i+1] = splits[i] + heights[i].
	splits  []int
	heights []int
	budget  int
}

// NewPlan decomposes t so that every segment's largest subtree fits in
// budgetBytes together with the tails of its key buffers ("since a
// subtree and its associated buffer can fit inside the L2 cache, the
// process is fast", Section 3.1) — one hot cache line per exit node.
// Heights are maximal under the budget but always at least one level, so
// a plan exists for any budget. The final segment has no buffers, so
// only its subtree counts. An empty tree yields an empty plan.
func NewPlan(t *index.Tree, budgetBytes int) Plan {
	if budgetBytes <= 0 {
		panic(fmt.Sprintf("buffering: non-positive budget %d", budgetBytes))
	}
	p := Plan{tree: t, budget: budgetBytes}
	total := t.Levels()
	for level := 0; level < total; {
		h := 1
		for level+h < total {
			footprint := t.SubtreeBytes(level, h+1)
			if level+h+1 < total {
				// Non-final segment: add the buffer-tail lines of
				// the exit level the taller subtree would feed.
				exits := exitWidth(t, level, h+1)
				footprint += exits * index.NodeBytes
			}
			if footprint > budgetBytes {
				break
			}
			h++
		}
		p.splits = append(p.splits, level)
		p.heights = append(p.heights, h)
		level += h
	}
	return p
}

// exitWidth bounds how many exit nodes a height-h subtree rooted at the
// given level can feed: Fanout^h capped by the exit level's width.
func exitWidth(t *index.Tree, level, h int) int {
	w := 1
	for i := 0; i < h; i++ {
		w *= index.Fanout
	}
	if exit := level + h; exit < t.Levels() {
		if lw := t.LevelCount(exit); lw < w {
			w = lw
		}
	}
	return w
}

// Segments returns the number of segments in the plan. Method B's
// formula calls this T/L.
func (p Plan) Segments() int { return len(p.splits) }

type entry struct {
	key workload.Key
	pos int32
}

// RankBatch computes out[i] = Rank(keys[i]) + base for every key using
// the buffered traversal, firing h's hooks along the way. base is the
// partition's rank base, folded into the single result write each key
// already pays (a distributed caller previously added it in a second
// pass over out — one more full sweep of the result array for nothing).
// out must have len(keys) capacity; it is returned for convenience. The
// result is identical to calling tree.Rank per key and adding base —
// only the access pattern (and hence the simulated cost) differs.
func (p Plan) RankBatch(keys []workload.Key, out []int, base int, h Hooks) []int {
	if len(out) < len(keys) {
		panic(fmt.Sprintf("buffering: out len %d < keys len %d", len(out), len(keys)))
	}
	p.RankInto(keys, nil, out, base, h)
	return out
}

// RankInto is RankBatch writing keys[i]'s rank into out[pos[i]] (out[i]
// when pos is nil): each buffered entry already carries the position its
// result is written to, so the caller's is taken instead of i.
func (p Plan) RankInto(keys []workload.Key, pos []int32, out []int, base int, h Hooks) {
	entries := make([]entry, len(keys))
	for i, k := range keys {
		e := entry{key: k, pos: int32(i)}
		if pos != nil {
			e.pos = pos[i]
		}
		entries[i] = e
	}
	if p.tree.N() == 0 {
		for _, e := range entries {
			out[e.pos] = base
		}
		return
	}
	p.process(0, p.tree.Root(), entries, out, base, h)
}

// process runs segment s for the subtree rooted at root over entries.
func (p Plan) process(s int, root int32, entries []entry, out []int, base int, h Hooks) {
	t := p.tree
	height := p.heights[s]
	last := s == len(p.splits)-1

	if last {
		// Final segment: descend to the leaves and resolve ranks.
		for _, e := range entries {
			if h.BufferRead != nil && s > 0 {
				h.BufferRead(root, EntryBytes)
			}
			id := root
			for !t.IsLeaf(id) {
				if h.TouchNode != nil {
					h.TouchNode(id)
				}
				id = t.Step(id, e.key)
			}
			if h.TouchNode != nil {
				h.TouchNode(id)
			}
			out[e.pos] = t.LeafRank(id, e.key) + base
		}
		return
	}

	// The subtree's exit nodes live at the next split level and are
	// contiguous (children are contiguous in the CSB+ layout): the range
	// [leftmost descendant, rightmost descendant] of root at that depth.
	lo, hi := root, root
	for i := 0; i < height; i++ {
		lo = t.FirstChild(lo)
		hi = t.FirstChild(hi) + int32(t.ChildCount(hi)) - 1
	}

	// Bucket each entry by the exit node its descent reaches ("the key
	// is then stored into the buffer associated with the subtree rooted
	// at x", Section 3.1).
	buckets := make([][]entry, hi-lo+1)
	for _, e := range entries {
		if h.BufferRead != nil && s > 0 {
			h.BufferRead(root, EntryBytes)
		}
		id := root
		for i := 0; i < height; i++ {
			if h.TouchNode != nil {
				h.TouchNode(id)
			}
			id = t.Step(id, e.key)
		}
		buckets[id-lo] = append(buckets[id-lo], e)
		if h.BufferWrite != nil {
			h.BufferWrite(id, EntryBytes)
		}
	}

	// Recurse in node order ("after the top level subtree has been
	// processed, each lower subtree is processed using the keys stored
	// in its buffer").
	for i, b := range buckets {
		if len(b) > 0 {
			p.process(s+1, lo+int32(i), b, out, base, h)
		}
	}
}
