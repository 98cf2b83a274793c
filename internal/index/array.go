package index

import (
	"fmt"
	"math/bits"

	"repro/internal/workload"
)

// SortedArray is Method C-3's structure: the sorted key array itself,
// searched by binary search. It is the densest possible layout — the
// reason the paper finds C-3 beats C-1/C-2 ("the n-ary trees ... occupy
// more space than a sorted array. This produces more pressure on the
// cache", Section 4.1).
type SortedArray struct {
	keys []workload.Key
	base Addr
	// slope precomputes (n-1)/(max-min) for RankBatch's interpolation
	// probe; 0 when the key range is degenerate (all keys equal).
	slope float64
	// window is how many keys RankBatch searches around the interpolated
	// position, less one (a power of two minus one, so the lockstep loop
	// takes exactly log2 steps); 0 means the whole array. It is a guess
	// from the interpolation error sampled at build time and only ever
	// costs time: RankBatch proves each answer at the window's edges.
	window int
}

// NewSortedArray wraps keys (which must already be sorted ascending; the
// constructor panics otherwise, since a silently unsorted array would
// corrupt every downstream result) at virtual address base.
func NewSortedArray(keys []workload.Key, base Addr) *SortedArray {
	if i := FirstDescent(keys); i > 0 {
		panic(fmt.Sprintf("index: NewSortedArray input not sorted at %d", i))
	}
	return newSortedArray(keys, base)
}

// FirstDescent returns the first position whose key is smaller than the
// one before it, or 0 when keys is ascending: the sortedness scan every
// constructor that takes keys from outside runs once. It takes four keys
// a trip because the one-key loop is so short that its speed depends on
// where the linker puts it: across a 64-byte line it ran at half speed,
// which moved the referee's setup_s by a third between builds that
// differed only in unrelated code.
func FirstDescent(keys []workload.Key) int {
	var prev workload.Key
	i := 0
	for ; i+4 <= len(keys); i += 4 {
		k := keys[i : i+4 : i+4]
		if k[0] < prev || k[1] < k[0] || k[2] < k[1] || k[3] < k[2] {
			break
		}
		prev = k[3]
	}
	for ; i < len(keys); i++ {
		if keys[i] < prev {
			return i
		}
		prev = keys[i]
	}
	return 0
}

// sampleEvery is the stride at which newSortedArray samples the
// interpolation error: n/64 multiplies, not a second pass over the keys.
const sampleEvery = 64

// newSortedArray is NewSortedArray for keys the caller knows ascending.
func newSortedArray(keys []workload.Key, base Addr) *SortedArray {
	a := &SortedArray{keys: keys, base: base}
	n := len(keys)
	if n < 2 || keys[n-1] == keys[0] {
		return a
	}
	a.slope = float64(n-1) / float64(keys[n-1]-keys[0])
	// The largest distance between where a sampled key is and where the
	// probe expects it. The probe is monotone, so a key between two
	// samples is off by at most that plus the stride, and a window of
	// twice the sum holds every answer, rounding aside. RankBatch does not
	// rely on it: it checks each answer at its window's edges.
	maxErr := 0
	for i := 0; i < n; i += sampleEvery {
		e := i - a.probe(keys[i])
		if e < 0 {
			e = -e
		}
		maxErr = max(maxErr, e)
	}
	w := 1 << bits.Len(uint(2*(maxErr+sampleEvery)))
	if w < n/2 {
		a.window = w - 1
	}
	return a
}

// probe is the interpolated position of q, in [0, n-1]. The product is
// clamped in float space before converting: it can exceed the int range
// (notably 32-bit ints) for narrow key ranges probed far above max, and
// Go's out-of-range float-to-int conversion is unspecified.
func (a *SortedArray) probe(q workload.Key) int {
	d := q - a.keys[0]
	if q < a.keys[0] {
		d = 0
	}
	fp := float64(d) * a.slope
	pos := len(a.keys) - 1
	if fp < float64(pos) {
		pos = int(fp)
	}
	return pos
}

// windowAt is where RankBatch's window for q starts: centred on the
// probe, clamped to the array.
func (a *SortedArray) windowAt(q workload.Key) int {
	return min(max(a.probe(q)-a.window/2, 0), len(a.keys)-a.window)
}

// Name implements Index.
func (a *SortedArray) Name() string { return "sorted-array" }

// N implements Index.
func (a *SortedArray) N() int { return len(a.keys) }

// Base implements Index.
func (a *SortedArray) Base() Addr { return a.base }

// SizeBytes implements Index.
func (a *SortedArray) SizeBytes() int { return len(a.keys) * workload.KeyBytes }

// Keys exposes the backing slice (read-only by convention); the
// partitioner and the buffered engines slice it.
func (a *SortedArray) Keys() []workload.Key { return a.keys }

// Rank implements Index with an explicit binary search (upper bound).
// This is the paper's C-3 probe sequence; RankTrace mirrors it exactly,
// so the simulator's traces stay faithful. The batch entry point
// (RankBatch) searches a group of keys at a time with identical results.
func (a *SortedArray) Rank(k workload.Key) int {
	return upperBound(a.keys, k)
}

// lanes is how many searches the lockstep kernel advances together:
// as many independent loads in flight as a core has line-fill buffers, so
// one query's cache miss hides behind the others', and little enough
// state that it stays in L1.
const lanes = 16

// group returns the lanes queries starting at qs[i] and how many of them
// are real: a full group aliases qs, the batch's tail is copied into pad.
func group(qs []workload.Key, i int, pad *[lanes]workload.Key) (*[lanes]workload.Key, int) {
	if len(qs)-i >= lanes {
		return (*[lanes]workload.Key)(qs[i : i+lanes]), lanes
	}
	return pad, copy(pad[:], qs[i:])
}

// lockstep advances lanes upper-bound searches together: search l is for
// q[l] among the span keys starting at b[l], and leaves b[l] moved past
// those of them <= q[l]. Every search takes the same bits.Len(span)
// steps whatever its data, so the only branches are the loop counters;
// the compare compiles to a conditional move, and within a step the
// loads are independent, so their cache misses overlap instead of
// queueing behind one another as one key's dependent probes do.
//
// Kept out of line: inlined, its loops share registers with the caller's
// and the step loop spills its counters (14 -> 20 ns/key at 40,960 keys).
//
//dc:noalloc
//go:noinline
func lockstep(keys []workload.Key, q *[lanes]workload.Key, b *[lanes]int, span int) {
	for span > 0 {
		half := (span + 1) >> 1
		for l, j := range b {
			next := j
			if keys[j+half-1] <= q[l] {
				next = j + half
			}
			b[l] = next
		}
		span -= half
	}
}

// rankAdd adds each query's rank in keys into out, searching the whole
// array in lockstep: the form for key sets interpolation cannot place (a
// skewed base, a delta buffer).
//
//dc:noalloc
func rankAdd(keys []workload.Key, qs []workload.Key, out []int) {
	if len(keys) == 0 {
		return
	}
	var pad [lanes]workload.Key
	for i := 0; i < len(qs); i += lanes {
		q, m := group(qs, i, &pad)
		var b [lanes]int
		lockstep(keys, q, &b, len(keys))
		for l, r := range b[:m] {
			out[i+l] += r
		}
	}
}

// RankBatch resolves qs into out (which must be at least len(qs) long),
// adding add to every rank so a partition's rank base folds into the
// single result write.
//
// Queries are taken lanes at a time. For each, one interpolation probe (a
// precomputed-slope multiply, no division) centres a window of a.window
// keys on where a uniform key set would hold the query, and the group's
// windows are searched together by lockstep: log2 of the window, not of
// the array, in dependent probes, and those overlapped across the group.
//
// The window is only a guess at how far the keys stray from uniform.
// What makes an answer exact is sortedness: a rank strictly inside the
// window has a key <= q on its left and a key > q on its right, and one
// on the window's edge is checked against the neighbour outside (or is
// the array's end). The rare query whose neighbour says the window
// missed is resolved again by binary search over the whole array. Key
// sets whose sampled error is a large part of the array skip the probe
// and search the whole array in lockstep.
//
//dc:noalloc
func (a *SortedArray) RankBatch(qs []workload.Key, out []int, add int) {
	out = out[:len(qs)]
	keys, w := a.keys, a.window
	if w == 0 {
		for i := range out {
			out[i] = add
		}
		rankAdd(keys, qs, out)
		return
	}
	var pad [lanes]workload.Key
	for i := 0; i < len(qs); i += lanes {
		q, m := group(qs, i, &pad)
		var lo, b [lanes]int
		for l, k := range q {
			lo[l] = a.windowAt(k)
			b[l] = lo[l]
		}
		lockstep(keys, q, &b, w)
		for l, r := range b[:m] {
			if r == lo[l] && r > 0 && keys[r-1] > q[l] || r == lo[l]+w && r < len(keys) && keys[r] <= q[l] {
				r = upperBound(keys, q[l])
			}
			out[i+l] = r + add
		}
	}
}

// RankSorted resolves an ascending query run qs into out (which must be
// at least len(qs) long), adding add to every rank — the sorted-batch
// path. The caller guarantees qs is sorted ascending (duplicates
// allowed); results are then identical to RankBatch. What the order buys
// is in sortedRun; a run it declines is RankBatch's.
//
//dc:noalloc
func (a *SortedArray) RankSorted(qs []workload.Key, out []int, add int) {
	fresh := a.window
	if fresh == 0 {
		fresh = len(a.keys)
	}
	if !sortedRun(a.keys, qs, out, add, false, fresh) {
		a.RankBatch(qs, out, add)
	}
}

// minCursorRun is the shortest run sortedRun takes: it spends two binary
// searches on measuring the run, about eight queries' worth of a fresh
// search each.
const minCursorRun = 8 * lanes

// lanePer is how many queries a lane takes before the lanes are dealt
// again: few enough that the lanes' cursors, queries and results stay
// within a few pages of one another and the whole sweep reads as one
// forward stream, many enough that a lane's first search is noise.
const lanePer = 64

// sortedRun ranks the ascending run qs in keys using the order: a query's
// rank is at least its predecessor's, so the predecessor's rank is a
// cursor to search on from. out[i] becomes add plus the rank of qs[i],
// plus what out[i] held when acc is set (a side layer adding to the base
// ranks). It reports false, having written nothing, when the run is too
// short or too sparse for a cursor to beat a search from scratch; fresh is
// how many keys such a search covers (the interpolation window, or the
// whole array).
//
// The run's density — the keys between its first and last rank, per
// query — picks the form. Below one key to two queries the run is merged:
// the cursor steps over the few keys before each answer, most often none.
// Above, the run is dealt to lanes cursors in blocks, lanePer consecutive
// queries to each, and the lanes advance together: every step is one
// lockstep search of a window starting at the cursors — log2 of the
// window in overlapped probes, no branch on the data. The window is five
// to ten times the density: the keys between two neighbouring queries
// are geometrically distributed, and that much holds all but one gap in a
// hundred or fewer. As in RankBatch the window is a guess that sortedness
// proves or refutes: an answer short of the window's far edge is exact
// (the near edge is the cursor), one on the far edge is checked against
// the next key, and the rare miss searches the rest of the array. A
// lane's first query of a block has no predecessor and searches the whole
// array.
//
//dc:noalloc
func sortedRun(keys, qs []workload.Key, out []int, add int, acc bool, fresh int) bool {
	m := len(qs)
	if m < minCursorRun {
		return false
	}
	first := upperBound(keys, qs[0])
	crossed := upperBound(keys[first:], qs[m-1])
	if 2*crossed < m {
		// The next key to pass stays in a register; past the last one it
		// is a value no query reaches.
		const none = 1 << 32
		j, end := first, first+crossed
		next := uint64(none)
		if j < end {
			next = uint64(keys[j])
		}
		for i, q := range qs {
			for uint64(q) >= next {
				j++
				next = none
				if j < end {
					next = uint64(keys[j])
				}
			}
			put(out, i, j, add, acc)
		}
		return true
	}
	// Rounded up to a power of two less one; the +2 matters around one key
	// per query, where the geometric tail is longest for its mean.
	w := 1<<bits.Len(uint(5*crossed/m+2)) - 1
	if w >= fresh {
		return false
	}

	last := len(keys) - w
	var q [lanes]workload.Key
	var lo, b [lanes]int
	for len(qs) >= lanes {
		// Lane l takes qs[l*per:(l+1)*per] of this block.
		per := min(len(qs)/lanes, lanePer)
		for l := range q {
			q[l] = qs[l*per]
		}
		clear(b[:])
		lockstep(keys, &q, &b, len(keys))
		for l, r := range b[:] {
			put(out, l*per, r, add, acc)
		}
		for t := 1; t < per; t++ {
			for l, r := range b[:] {
				q[l] = qs[l*per+t]
				lo[l] = min(r, last)
				b[l] = lo[l]
			}
			lockstep(keys, &q, &b, w)
			for l, r := range b[:] {
				if r == lo[l]+w && r < len(keys) && keys[r] <= q[l] {
					r += upperBound(keys[r:], q[l])
					b[l] = r
				}
				put(out, l*per+t, r, add, acc)
			}
		}
		qs, out = qs[lanes*per:], out[lanes*per:]
	}
	// Fewer queries than lanes are left.
	if !acc {
		for i := range qs {
			out[i] = add
		}
	}
	rankAdd(keys, qs, out)
	return true
}

// put records rank r for query i: added to what out holds, or beside add.
func put(out []int, i, r, add int, acc bool) {
	if acc {
		out[i] += r
	} else {
		out[i] = r + add
	}
}

// upperBound is the number of keys <= k, by binary search.
func upperBound(keys []workload.Key, k workload.Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RankTrace implements Index; every probed element contributes one
// address.
func (a *SortedArray) RankTrace(k workload.Key, trace []Addr) (int, []Addr) {
	lo, hi := 0, len(a.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		trace = append(trace, a.base+Addr(mid*workload.KeyBytes))
		if a.keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, trace
}

// Levels implements Index: the number of binary-search probes,
// ceil(log2(n+1)).
func (a *SortedArray) Levels() int {
	levels := 0
	for n := len(a.keys); n > 0; n >>= 1 {
		levels++
	}
	return levels
}

// LevelLines implements Index. Probe depth d can land on at most 2^(d-1)
// distinct midpoints; each midpoint is one line, and the count saturates
// at the array's total line count.
func (a *SortedArray) LevelLines() []int {
	totalLines := (a.SizeBytes() + 31) / 32
	if totalLines == 0 {
		return nil
	}
	out := make([]int, a.Levels())
	spread := 1
	for i := range out {
		if spread > totalLines {
			out[i] = totalLines
		} else {
			out[i] = spread
		}
		if spread <= totalLines {
			spread *= 2
		}
	}
	return out
}
