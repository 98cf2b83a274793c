package core

import (
	"fmt"
	"slices"

	"repro/internal/index"
	"repro/internal/workload"
)

// Partition is one slave's share of the index: a contiguous run of the
// sorted key array ("the sorted array is decomposed into equal size
// partitions and each partition is stored at a slave node", Section 3.2).
type Partition struct {
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
	// prefix is Route's table over a key's top byte t. With b the count
	// of delimiters whose top byte is below t: prefix[t] is b when no
	// delimiter has top byte t, and ^b (negative) when some do — they
	// start at delims[b]. prefix[256] is len(delims), so the entry after
	// t always decodes to where t's delimiters end.
	prefix [257]int32
	// below[s] is how many copies of partition s's first key the
	// partitions under s hold: nonzero only where a cut falls inside a
	// run of that key (distinctCut). The key routes to s, and so do its
	// inserts, so the count is fixed when the table is built, and a read
	// of the key adds it instead of asking those partitions.
	below []int
}

// NewPartitioning splits sorted keys into the given number of equal-size
// partitions — equal but for a cut that would fall between two copies of
// one key, which moves to the nearest end of that run (distinctCut). It
// returns an error for a non-positive count or more
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
	lo := 0
	for i := 0; i < parts; i++ {
		hi := len(keys)
		if i+1 < parts {
			hi = distinctCut(keys, lo, (i+1)*len(keys)/parts, (i+2)*len(keys)/parts)
		}
		p.Parts[i] = Partition{Keys: keys[lo:hi], RankBase: lo}
		if i > 0 {
			p.delims = append(p.delims, keys[lo])
		}
		lo = hi
	}
	p.indexDelims()
	return p, nil
}

// distinctCut moves the equal-size cut at off a run of equal keys: routing
// sends every copy of a key to the last partition whose range begins at
// or before it, so a cut inside the run leaves copies in a partition the
// key does not route to, which every op that answers the key must then
// ask too. The cut goes to the start of the run, or to its end when the
// run reaches back to the previous cut at lo; both partitions stay
// non-empty (lo < cut < next, the equal-size cut after this one). A run
// that fills a whole partition keeps the equal-size cut: ranks are exact
// across it all the same, and a read of the key asks only the partition
// it routes to and adds the copies below, which the table counts
// (Partitioning.below).
func distinctCut(keys []workload.Key, lo, at, next int) int {
	cut := at
	for cut > lo+1 && keys[cut-1] == keys[cut] {
		cut--
	}
	if keys[cut-1] != keys[cut] {
		return cut
	}
	for cut = at; cut < next-1 && keys[cut-1] == keys[cut]; {
		cut++
	}
	if keys[cut-1] != keys[cut] {
		return cut
	}
	return at
}

// indexDelims builds prefix from delims, and below from the partitions'
// keys: partition s−1 holds the copies of delims[s−1] at its end, and
// when it holds nothing else, the copies under it too.
func (p *Partitioning) indexDelims() {
	p.below = make([]int, len(p.Parts))
	for s := 1; s < len(p.Parts); s++ {
		ks := p.Parts[s-1].Keys
		i, _ := slices.BinarySearch(ks, p.delims[s-1])
		p.below[s] = len(ks) - i
		if i == 0 {
			p.below[s] += p.below[s-1]
		}
	}
	i := 0
	for t := range p.prefix[:256] {
		b := i
		for i < len(p.delims) && int(p.delims[i]>>24) == t {
			i++
		}
		if i > b {
			b = ^b
		}
		p.prefix[t] = int32(b)
	}
	p.prefix[256] = int32(len(p.delims))
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
// index shifts up by one. The cut must separate distinct keys (see
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
				Partition{Keys: keys[:cut], RankBase: old.RankBase},
				Partition{Keys: keys[cut:], RankBase: old.RankBase + cut})
		} else {
			np.Parts = append(np.Parts, old)
		}
	}
	for _, q := range np.Parts[1:] {
		np.delims = append(np.delims, q.Keys[0])
	}
	np.indexDelims()
	return np, nil
}

// Route returns the slave responsible for query key k: the last
// partition whose first key is <= k (keys below every delimiter belong
// to partition 0). This is the master's dispatch operation, executed
// once per query, so it reads a table instead of searching: delimiters
// with a smaller top byte than k's are all <= k and counted by prefix,
// those with a larger one are all > k, and only the ones sharing k's
// top byte need comparing. With the delimiters spread over the key
// space most keys meet no such delimiter and finish on the table read,
// which inlines into the caller's loop.
//
//dc:noalloc
func (p *Partitioning) Route(k workload.Key) int {
	if s := p.prefix[k>>24]; s >= 0 {
		return int(s)
	}
	return p.routeBucket(k)
}

// routeBucket finishes Route by counting among the delimiters that
// share k's top byte; delimiters crowded into one top byte make this a
// linear count over all of them. Out of line on purpose: alone, the
// compare-and-add compiles branch-free; inlined into a caller's loop
// it has compiled to branches.
//
//dc:noalloc
//go:noinline
func (p *Partitioning) routeBucket(k workload.Key) int {
	t := k >> 24
	lo, hi := int(^p.prefix[t]), int(p.prefix[t+1])
	if hi < 0 {
		hi = ^hi
	}
	s := lo
	for _, v := range p.delims[lo:hi] {
		if v <= k {
			s++
		}
	}
	return s
}

// belowOf returns how many copies of k the partitions under partition s
// hold, s being Route(k): below[s] when k is s's first key, else none.
//
//dc:noalloc
func (p *Partitioning) belowOf(s int, k workload.Key) int {
	if s == 0 || k != p.delims[s-1] {
		return 0
	}
	return p.below[s]
}

// Delimiters returns the master's dispatch array (len = partitions-1).
func (p *Partitioning) Delimiters() []workload.Key { return p.delims }

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
