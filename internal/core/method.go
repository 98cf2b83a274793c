package core

import (
	"fmt"
	"slices"
)

// Method selects one of the five query-processing strategies of
// Section 3. The zero value is MethodC3, the paper's answer.
type Method int

const (
	// MethodC3 partitions the index; slaves binary-search a sorted
	// array — the paper's overall winner.
	MethodC3 Method = iota
	// MethodA replicates the n-ary tree on every node and looks keys
	// up one by one, paying a potential cache miss per level.
	MethodA
	// MethodB replicates the tree and processes keys in batches with
	// the Zhou-Ross buffering access technique over L2-sized subtrees.
	MethodB
	// MethodC1 partitions the index over slave caches; slaves look up
	// keys one by one in the same n-ary tree Method A uses. The paper
	// names a CSB+ tree, but its Table 1 subtree is 320 KB: at a
	// slave's 32,768 keys the n-ary tree takes 300 KB, a CSB+ tree 171.
	MethodC1
	// MethodC2 is C1 with buffered access over L1-sized subtrees.
	MethodC2
)

// Methods lists all five in presentation order.
func Methods() []Method {
	return []Method{MethodA, MethodB, MethodC1, MethodC2, MethodC3}
}

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case MethodA:
		return "A"
	case MethodB:
		return "B"
	case MethodC1:
		return "C-1"
	case MethodC2:
		return "C-2"
	case MethodC3:
		return "C-3"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Distributed reports whether the method partitions the index over the
// cluster (any Method C variant) rather than replicating it.
func (m Method) Distributed() bool {
	return m == MethodC1 || m == MethodC2 || m == MethodC3
}

// Valid reports whether m is one of the five defined methods.
func (m Method) Valid() bool { return slices.Contains(Methods(), m) }
