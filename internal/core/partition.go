package core

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/workload"
)

// Partition is one slave's share of the index: a contiguous run of the
// sorted key array ("the sorted array is decomposed into equal size
// partitions and each partition is stored at a slave node", Section 3.2).
type Partition struct {
	// Slave is the owning slave's id, 0-based.
	Slave int
	// Keys aliases the owning run of the sorted array.
	Keys []workload.Key
	// RankBase is the number of keys that precede this partition in the
	// sorted array: a local rank within the partition plus RankBase is
	// the global rank. (Under "rank = count of keys <= k" it is not the
	// global rank of the partition's first key minus one — that key's
	// global rank is RankBase plus its local rank, which exceeds
	// RankBase+1 when the partition starts with duplicates.)
	RankBase int
}

// Partitioning is the full decomposition plus the master's dispatch
// structure: the sorted array of partition delimiters (Section 3.2,
// Figure 2).
type Partitioning struct {
	Parts []Partition
	// delims[i] is the first key of partition i+1; a query key routes
	// to the last partition whose range begins at or before it.
	delims []workload.Key
}

// NewPartitioning splits sorted keys into the given number of equal-size
// partitions. It returns an error for a non-positive count or more
// partitions than keys (a slave with an empty partition could never own
// a key range).
func NewPartitioning(keys []workload.Key, parts int) (*Partitioning, error) {
	if err := checkSorted(keys); err != nil {
		return nil, err
	}
	return newPartitioningSorted(keys, parts)
}

// checkSorted is the single sortedness validation pass shared by
// NewPartitioning and NewCluster (which passes already-validated keys to
// newPartitioningSorted so the O(n) scan runs once, not twice).
func checkSorted(keys []workload.Key) error {
	if i := index.FirstDescent(keys); i > 0 {
		return fmt.Errorf("core: keys not sorted at %d", i)
	}
	return nil
}

// newPartitioningSorted is NewPartitioning minus the sortedness scan;
// the caller guarantees keys are ascending.
func newPartitioningSorted(keys []workload.Key, parts int) (*Partitioning, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("core: partition count %d must be positive", parts)
	}
	if len(keys) < parts {
		return nil, fmt.Errorf("core: %d keys cannot fill %d partitions", len(keys), parts)
	}
	p := &Partitioning{
		Parts:  make([]Partition, parts),
		delims: make([]workload.Key, 0, parts-1),
	}
	for i := 0; i < parts; i++ {
		lo := i * len(keys) / parts
		hi := (i + 1) * len(keys) / parts
		p.Parts[i] = Partition{Slave: i, Keys: keys[lo:hi], RankBase: lo}
		if i > 0 {
			p.delims = append(p.delims, keys[lo])
		}
	}
	return p, nil
}

// SplitPoint picks the cut index nearest the median of sorted keys
// that separates two distinct values (keys[cut-1] < keys[cut]), the
// precondition for splitting a partition there: a delimiter must never
// fall inside a duplicate run, or upper-bound routing would send
// copies of one key to two owners. ok is false when every key is equal
// (no legal cut exists).
func SplitPoint(keys []workload.Key) (cut int, ok bool) {
	mid := len(keys) / 2
	for d := 0; d < len(keys); d++ {
		for _, c := range [2]int{mid - d, mid + d} {
			if c >= 1 && c < len(keys) && keys[c-1] < keys[c] {
				return c, true
			}
		}
	}
	return 0, false
}

// SplitAt returns a new Partitioning with partition part divided at
// cut: the low half keeps keys[:cut] and part's rank base, the high
// half serves keys[cut:] at RankBase+cut, and every later partition's
// Slave id shifts up by one. The cut must separate distinct keys (see
// SplitPoint). The receiver is not modified — callers swap the
// returned table in atomically.
func (p *Partitioning) SplitAt(part, cut int) (*Partitioning, error) {
	if part < 0 || part >= len(p.Parts) {
		return nil, fmt.Errorf("core: split partition %d out of range [0,%d)", part, len(p.Parts))
	}
	keys := p.Parts[part].Keys
	if cut <= 0 || cut >= len(keys) {
		return nil, fmt.Errorf("core: split cut %d out of range (0,%d)", cut, len(keys))
	}
	if keys[cut-1] >= keys[cut] {
		return nil, fmt.Errorf("core: split cut %d falls inside a duplicate run of key %d", cut, keys[cut])
	}
	np := &Partitioning{
		Parts:  make([]Partition, 0, len(p.Parts)+1),
		delims: make([]workload.Key, 0, len(p.delims)+1),
	}
	for i, old := range p.Parts {
		if i == part {
			np.Parts = append(np.Parts,
				Partition{Slave: len(np.Parts), Keys: keys[:cut], RankBase: old.RankBase},
				Partition{Slave: len(np.Parts) + 1, Keys: keys[cut:], RankBase: old.RankBase + cut})
		} else {
			np.Parts = append(np.Parts, Partition{Slave: len(np.Parts), Keys: old.Keys, RankBase: old.RankBase})
		}
	}
	for _, q := range np.Parts[1:] {
		np.delims = append(np.delims, q.Keys[0])
	}
	return np, nil
}

// routeLinearMax is the delimiter count up to which Route counts
// linearly instead of binary-searching: a branchless compare-and-add
// over an L1-resident array beats a search with data-dependent branches
// until the array spans several cache lines.
const routeLinearMax = 64

// Route returns the slave responsible for query key k: the last
// partition whose first key is <= k (keys below every delimiter belong
// to partition 0). This is the master's dispatch operation, executed
// once per query, so it is inlined rather than a sort.Search closure.
// Typical clusters (tens of slaves) take the branchless linear count —
// every iteration is a flag-setting compare plus add, nothing to
// mispredict; larger delimiter arrays use a branchless upper-bound
// binary search (conditional-move half-interval updates, no mid-point
// division).
func (p *Partitioning) Route(k workload.Key) int {
	d := p.delims
	if len(d) <= routeLinearMax {
		s := 0
		for _, v := range d {
			if v <= k {
				s++
			}
		}
		return s
	}
	lo, n := 0, len(d)
	for n > 1 {
		half := n >> 1
		if d[lo+half-1] <= k {
			lo += half
		}
		n -= half
	}
	if n == 1 && d[lo] <= k {
		lo++
	}
	return lo
}

// Delimiters returns the master's dispatch array (len = partitions-1).
func (p *Partitioning) Delimiters() []workload.Key { return p.delims }

// DelimiterBytes returns the dispatch structure's footprint: the tiny
// sorted array that stays resident in the master's L1.
func (p *Partitioning) DelimiterBytes() int {
	return len(p.delims) * workload.KeyBytes
}

// GlobalRank composes a slave-local rank into a global one.
func (p *Partitioning) GlobalRank(slave, localRank int) int {
	return p.Parts[slave].RankBase + localRank
}

// MaxPartKeys returns the largest partition's key count, the value that
// must fit in a slave's cache.
func (p *Partitioning) MaxPartKeys() int {
	max := 0
	for _, part := range p.Parts {
		if len(part.Keys) > max {
			max = len(part.Keys)
		}
	}
	return max
}
