package index

import (
	"fmt"

	"repro/internal/workload"
)

// Tree geometry. A node occupies exactly one 32-byte Pentium III cache
// line: 8 four-byte words. Internal nodes spend one word on the
// first-child pointer (the Rao–Ross CSB+ optimization: children are
// contiguous, so one pointer suffices) and hold up to 7 separator keys,
// giving the 8-ary fan-out the paper derives from "n keys ... fit
// exactly in an L2 cache line".
const (
	// NodeBytes is the simulated footprint of one tree node.
	NodeBytes = 32
	// MaxSeps is the separator capacity of an internal node.
	MaxSeps = 7
	// Fanout is the branching factor (MaxSeps + 1).
	Fanout = 8

	// NaryLeafKeys is the leaf capacity of the Method A/B tree: 4 keys
	// plus 4 words reserved for the keys' associated pointers ("the
	// corresponding pointers", Section 1). With Table 1's 327,680 keys
	// this yields exactly T = 7 levels and a ~3 MB arena — the paper's
	// "Index Tree Size: 3.2 MB".
	NaryLeafKeys = 4
	// CSBLeafKeys is the leaf capacity of the CSB+ tree used by
	// Methods C-1/C-2: all 7 non-pointer words hold keys. A 32,768-key
	// slave partition yields exactly 6 levels — Table 1's L = 6.
	CSBLeafKeys = 7
)

// Tree is the 8-ary cache-line search tree. Internal nodes hold
// separators; leaves hold runs of the sorted key array plus their global
// rank base. All leaves sit at the same depth (bulk-loaded bottom-up),
// which the buffered traversal (internal/buffering) relies on.
type Tree struct {
	name     string
	leafKeys int
	base     Addr
	n        int

	nodes      []tnode
	levelStart []int // node index where each level begins; root first
}

type tnode struct {
	keys  [MaxSeps]workload.Key
	nkeys uint8
	leaf  bool
	// first is the node index of the first child for internal nodes,
	// and the global rank base (index of the leaf's first key in the
	// sorted array) for leaves.
	first int32
}

// NewNaryTree builds the Method A/B tree over sorted keys at base.
func NewNaryTree(keys []workload.Key, base Addr) *Tree {
	return newTree("nary-tree", NaryLeafKeys, keys, base)
}

// NewCSBTree builds the Method C-1/C-2 CSB+ tree over sorted keys at
// base.
func NewCSBTree(keys []workload.Key, base Addr) *Tree {
	return newTree("csb+-tree", CSBLeafKeys, keys, base)
}

func newTree(name string, leafKeys int, keys []workload.Key, base Addr) *Tree {
	if leafKeys < 1 || leafKeys > MaxSeps {
		panic(fmt.Sprintf("index: leaf capacity %d out of range", leafKeys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			panic(fmt.Sprintf("index: %s input not sorted at %d", name, i))
		}
	}
	t := &Tree{name: name, leafKeys: leafKeys, base: base, n: len(keys)}
	if len(keys) == 0 {
		return t
	}

	// Bulk-load bottom-up. levels[0] is the leaf level; each entry
	// carries the minimum key of its subtree for separator derivation.
	type buildLevel struct {
		nodes []tnode
		mins  []workload.Key
		// firstChildAt[i] is the index (within the child level) of
		// node i's first child; leaves use .first for rank base.
		firstChildAt []int
	}

	var levels []buildLevel

	// Leaves.
	var leaves buildLevel
	for start := 0; start < len(keys); start += leafKeys {
		end := start + leafKeys
		if end > len(keys) {
			end = len(keys)
		}
		var nd tnode
		nd.leaf = true
		nd.nkeys = uint8(end - start)
		copy(nd.keys[:], keys[start:end])
		nd.first = int32(start)
		leaves.nodes = append(leaves.nodes, nd)
		leaves.mins = append(leaves.mins, keys[start])
	}
	levels = append(levels, leaves)

	// Internal levels until a single root remains.
	for len(levels[len(levels)-1].nodes) > 1 {
		child := &levels[len(levels)-1]
		var up buildLevel
		for start := 0; start < len(child.nodes); start += Fanout {
			end := start + Fanout
			if end > len(child.nodes) {
				end = len(child.nodes)
			}
			var nd tnode
			nd.nkeys = uint8(end - start - 1)
			for j := start + 1; j < end; j++ {
				nd.keys[j-start-1] = child.mins[j]
			}
			up.nodes = append(up.nodes, nd)
			up.mins = append(up.mins, child.mins[start])
			up.firstChildAt = append(up.firstChildAt, start)
		}
		levels = append(levels, up)
	}

	// Flatten root-first into level order and wire first-child indices.
	nLevels := len(levels)
	t.levelStart = make([]int, nLevels+1)
	total := 0
	for li := 0; li < nLevels; li++ {
		t.levelStart[li] = total
		total += len(levels[nLevels-1-li].nodes)
	}
	t.levelStart[nLevels] = total
	t.nodes = make([]tnode, 0, total)
	for li := 0; li < nLevels; li++ {
		src := levels[nLevels-1-li]
		for i, nd := range src.nodes {
			if !nd.leaf {
				nd.first = int32(t.levelStart[li+1] + src.firstChildAt[i])
			}
			t.nodes = append(t.nodes, nd)
		}
	}
	return t
}

// Name implements Index.
func (t *Tree) Name() string { return t.name }

// N implements Index.
func (t *Tree) N() int { return t.n }

// Base implements Index.
func (t *Tree) Base() Addr { return t.base }

// SizeBytes implements Index.
func (t *Tree) SizeBytes() int { return len(t.nodes) * NodeBytes }

// Levels implements Index: the tree height, leaf level included.
func (t *Tree) Levels() int { return len(t.levelStart) - 1 }

// LevelLines implements Index: one 32-byte node is one line, so
// lambda_i is the node count per level, root first.
func (t *Tree) LevelLines() []int {
	if t.n == 0 {
		return nil
	}
	out := make([]int, t.Levels())
	for i := range out {
		out[i] = t.levelStart[i+1] - t.levelStart[i]
	}
	return out
}

// NodeCount returns the total number of nodes.
func (t *Tree) NodeCount() int { return len(t.nodes) }

// Root returns the root node id, or -1 for an empty tree.
func (t *Tree) Root() int32 {
	if t.n == 0 {
		return -1
	}
	return 0
}

// IsLeaf reports whether node id is a leaf.
func (t *Tree) IsLeaf(id int32) bool { return t.nodes[id].leaf }

// NodeAddr returns the virtual address of node id.
func (t *Tree) NodeAddr(id int32) Addr {
	return t.base + Addr(int(id)*NodeBytes)
}

// Step descends one level: it returns the child of internal node id that
// covers key k (the child whose key range contains k).
func (t *Tree) Step(id int32, k workload.Key) int32 {
	nd := &t.nodes[id]
	i := 0
	for i < int(nd.nkeys) && nd.keys[i] <= k {
		i++
	}
	return nd.first + int32(i)
}

// LeafRank returns the global rank of k given that the descent reached
// leaf id: the leaf's rank base plus the count of leaf keys <= k.
func (t *Tree) LeafRank(id int32, k workload.Key) int {
	nd := &t.nodes[id]
	i := 0
	for i < int(nd.nkeys) && nd.keys[i] <= k {
		i++
	}
	return int(nd.first) + i
}

// FirstChild returns the node id of internal node id's first child.
// Calling it on a leaf panics: leaves reuse the field for rank bases,
// and interpreting one as a child id would silently corrupt a traversal.
func (t *Tree) FirstChild(id int32) int32 {
	nd := &t.nodes[id]
	if nd.leaf {
		panic(fmt.Sprintf("index: FirstChild on leaf node %d", id))
	}
	return nd.first
}

// ChildCount returns the number of children of internal node id
// (separator count + 1), or 0 for a leaf.
func (t *Tree) ChildCount(id int32) int {
	nd := &t.nodes[id]
	if nd.leaf {
		return 0
	}
	return int(nd.nkeys) + 1
}

// Rank implements Index by descending from the root.
func (t *Tree) Rank(k workload.Key) int {
	if t.n == 0 {
		return 0
	}
	id := int32(0)
	for !t.nodes[id].leaf {
		id = t.Step(id, k)
	}
	return t.LeafRank(id, k)
}

// RankTrace implements Index; one probe address per visited node.
func (t *Tree) RankTrace(k workload.Key, trace []Addr) (int, []Addr) {
	if t.n == 0 {
		return 0, trace
	}
	id := int32(0)
	for !t.nodes[id].leaf {
		trace = append(trace, t.NodeAddr(id))
		id = t.Step(id, k)
	}
	trace = append(trace, t.NodeAddr(id))
	return t.LeafRank(id, k), trace
}

// LevelCount returns the number of nodes at the given level (root =
// level 0).
func (t *Tree) LevelCount(level int) int {
	return t.levelStart[level+1] - t.levelStart[level]
}

// SubtreeBytes returns the simulated footprint of a subtree of the given
// height rooted anywhere at the given level: the number of descendant
// nodes (bounded by level widths) times NodeBytes. The buffered
// traversal sizes its subtree heights with this.
func (t *Tree) SubtreeBytes(level, height int) int {
	if t.n == 0 {
		return 0
	}
	nodes, width := 0, 1
	for h := 0; h < height && level+h < t.Levels(); h++ {
		levelWidth := t.LevelCount(level + h)
		if width > levelWidth {
			width = levelWidth
		}
		nodes += width
		width *= Fanout
	}
	return nodes * NodeBytes
}
