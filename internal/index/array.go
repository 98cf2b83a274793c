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
// cache", Section 4.1). Beside the keys it holds a bucket table of at
// most a 128th of their size, which RankInto routes each query through
// before it searches: the paper's partitioning applied once more, inside
// the partition.
type SortedArray struct {
	keys []workload.Key
	base Addr
	// table cuts the key range [lo, lo+dmax] into len(table)-1 buckets of
	// equal width (bucket gives a key's) and table[t] counts the samples —
	// every 2^shift-th key — whose bucket is below t.
	table []uint16
	// shift is read as shift&63, which spares the compiler's check for a
	// shift past 63.
	shift    uint
	lo, dmax workload.Key
	mul      uint64
	// widest is the most keys one bucket's rank range spans (see
	// RankInto): what a search placed by the table covers at most.
	widest int
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

// sampleShift is log2 of the stride of the keys the bucket table counts:
// one table entry, and one store at build time, per 64 keys.
const sampleShift = 6

// maxSamples is the most samples a table counts, so that a count fits its
// two-byte entry: an array of more than 2^22 keys samples every 128th key,
// or every 256th, and so on. Two bytes, not four, because a table is fresh
// memory at every build and each of its pages is a page fault: at four
// bytes the referee's rank_large took 275 of them per set-up, and its
// setup_s rose by a third.
const maxSamples = 1<<16 - 1

// newSortedArray is NewSortedArray for keys the caller knows ascending.
// There is a bucket per sample (and at least one), so about one sample
// falls in each on uniform keys.
func newSortedArray(keys []workload.Key, base Addr) *SortedArray {
	n := len(keys)
	shift := uint(sampleShift)
	for (n-1)>>shift >= maxSamples {
		shift++
	}
	a := &SortedArray{keys: keys, base: base, shift: shift, table: make([]uint16, max(n>>shift, 1)+1)}
	if n > 0 {
		a.lo, a.dmax = keys[0], keys[n-1]-keys[0]
		a.mul = uint64(len(a.table)-1) << 32 / (uint64(a.dmax) + 1)
		a.fill()
	}
	return a
}

// bucket is q's bucket: a multiply and a shift, monotone in q, and below
// len(table)-1 because mul is at most that many times 2^32/(dmax+1).
//
//dc:noalloc
func bucket(q, lo, dmax workload.Key, mul uint64) int {
	return int(uint64(min(max(q, lo)-lo, dmax)) * mul >> 32)
}

// fill builds the table from the samples in one store each — the last
// sample of a bucket leaves its count in the entry above it, in key
// order — and one prefix-max pass, which carries the counts over empty
// buckets and finds the fullest bucket.
//
//dc:noalloc
func (a *SortedArray) fill() {
	tbl, keys, lo, dmax, mul := a.table, a.keys, a.lo, a.dmax, a.mul
	stride := 1 << (a.shift & 63)
	for i, j := 0, uint16(1); i < len(keys); i, j = i+stride, j+1 {
		tbl[bucket(keys[i], lo, dmax, mul)+1] = j
	}
	var run, fullest uint32
	for t, e := range tbl {
		c := max(uint32(e), run)
		fullest = max(fullest, c-run)
		tbl[t], run = uint16(c), c
	}
	a.widest = min(int(fullest+1)*stride-1, len(keys))
}

// Name implements Index.
func (a *SortedArray) Name() string { return "sorted-array" }

// N implements Index.
func (a *SortedArray) N() int { return len(a.keys) }

// Base implements Index.
func (a *SortedArray) Base() Addr { return a.base }

// SizeBytes implements Index: the keys alone, the paper's C-3 footprint
// that the simulators and LevelLines price. The bucket table, at most a
// 128th more, is left out (the referee's heap_bytes_per_key shows it).
func (a *SortedArray) SizeBytes() int { return len(a.keys) * workload.KeyBytes }

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

// lockstep and the two place methods write their lanes out one line
// each, so any other lane count must fail to compile here.
var _ = [1]struct{}{}[lanes-16]

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
// steps whatever its data, so the only branches are the round loop's and
// the bounds checks; the compare compiles to a conditional move, and
// within a round the loads are independent, so their cache misses
// overlap instead of queueing behind one another as one key's dependent
// probes do.
//
// The lanes are written out, one step call each, because where the keys
// are in cache the search is bound by instructions, not misses: a
// lane-step is nine instructions (three loads, the bounds check and its
// jump, an add, the compare, the conditional move and the store), and a
// loop over the lanes added eight more for its counter, index arithmetic
// and nil checks. The body is then past the inliner's budget, which keeps
// it out of line with its registers to itself.
//
//dc:noalloc
func lockstep(keys []workload.Key, q *[lanes]workload.Key, b *[lanes]int, span int) {
	for span > 0 {
		half := (span + 1) >> 1
		k := keys[half-1:]
		b[0] = step(k, q[0], b[0], half)
		b[1] = step(k, q[1], b[1], half)
		b[2] = step(k, q[2], b[2], half)
		b[3] = step(k, q[3], b[3], half)
		b[4] = step(k, q[4], b[4], half)
		b[5] = step(k, q[5], b[5], half)
		b[6] = step(k, q[6], b[6], half)
		b[7] = step(k, q[7], b[7], half)
		b[8] = step(k, q[8], b[8], half)
		b[9] = step(k, q[9], b[9], half)
		b[10] = step(k, q[10], b[10], half)
		b[11] = step(k, q[11], b[11], half)
		b[12] = step(k, q[12], b[12], half)
		b[13] = step(k, q[13], b[13], half)
		b[14] = step(k, q[14], b[14], half)
		b[15] = step(k, q[15], b[15], half)
		span -= half
	}
}

// step is one lane's step of lockstep: j moved past the half keys from
// j on when the last of them, k[j] (k starts half-1 keys into the
// array), is <= q.
//
//dc:noalloc
func step(k []workload.Key, q workload.Key, j, half int) int {
	if k[j] <= q {
		j += half
	}
	return j
}

// rankAdd adds each query's rank in keys into out, searching the whole
// array in lockstep: the form for sortedRun's tail of fewer than lanes
// queries, where a table has no group to save steps for.
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
// single result write: RankInto without positions.
//
//dc:noalloc
func (a *SortedArray) RankBatch(qs []workload.Key, out []int, add int) {
	a.RankInto(qs, nil, out, add)
}

// RankInto resolves qs, adding add to every rank, into out[pos[i]] — or
// into out[i] when pos is nil. pos lets a caller that routed qs out of a
// longer call (a worker answering a partition's share) write each rank
// where the call wants it, in the one store a rank costs anyway; no other
// slot of out is touched.
//
// Queries are taken lanes at a time. Each one's bucket (a multiply and a
// shift) and two adjacent table entries bound its rank: with c samples in
// the buckets below and c' in those up to and including its own, sample
// c-1 is below the query and sample c' above it, since the bucket of a
// key is monotone in the key, so at a stride of 64 the rank lies in
// [64c-63, 64c']. That is exact from sortedness alone, on any key set: a
// skewed one only widens the ranges. The group's ranges are searched
// together by one lockstep over the widest of them — about eight
// dependent steps on uniform keys, overlapped across the group — started
// where each range starts, or earlier where the widest would run past the
// array's end. Pad lanes of the tail group repeat a real query, so they
// widen nothing.
//
//dc:noalloc
func (a *SortedArray) RankInto(qs []workload.Key, pos []int32, out []int, add int) {
	if pos == nil {
		out = out[:len(qs)]
	} else {
		pos = pos[:len(qs)]
	}
	var pad [lanes]workload.Key
	for i := 0; i < len(qs); i += lanes {
		q, m := group(qs, i, &pad)
		for l := m; l < lanes; l++ {
			q[l] = q[0]
		}
		var b [lanes]int
		lockstep(a.keys, q, &b, a.place(q, &b))
		if pos == nil {
			for l, r := range b[:m] {
				out[i+l] = r + add
			}
		} else {
			for l, r := range b[:m] {
				out[pos[i+l]] = r + add
			}
		}
	}
}

// place starts each lane's search where its query's rank range starts,
// or earlier where the widest range of the group would run past the
// array's end, and returns that widest range: one lockstep over it then
// settles every lane. Its lanes are written out as lockstep's are, and
// for the same reason it stays out of line.
//
//dc:noalloc
func (a *SortedArray) place(q *[lanes]workload.Key, b *[lanes]int) int {
	tbl, n, s, lo, dmax, mul := a.table, len(a.keys), a.shift&63, a.lo, a.dmax, a.mul
	span := 0
	b[0], span = sampled(tbl, bucket(q[0], lo, dmax, mul), s, span)
	b[1], span = sampled(tbl, bucket(q[1], lo, dmax, mul), s, span)
	b[2], span = sampled(tbl, bucket(q[2], lo, dmax, mul), s, span)
	b[3], span = sampled(tbl, bucket(q[3], lo, dmax, mul), s, span)
	b[4], span = sampled(tbl, bucket(q[4], lo, dmax, mul), s, span)
	b[5], span = sampled(tbl, bucket(q[5], lo, dmax, mul), s, span)
	b[6], span = sampled(tbl, bucket(q[6], lo, dmax, mul), s, span)
	b[7], span = sampled(tbl, bucket(q[7], lo, dmax, mul), s, span)
	b[8], span = sampled(tbl, bucket(q[8], lo, dmax, mul), s, span)
	b[9], span = sampled(tbl, bucket(q[9], lo, dmax, mul), s, span)
	b[10], span = sampled(tbl, bucket(q[10], lo, dmax, mul), s, span)
	b[11], span = sampled(tbl, bucket(q[11], lo, dmax, mul), s, span)
	b[12], span = sampled(tbl, bucket(q[12], lo, dmax, mul), s, span)
	b[13], span = sampled(tbl, bucket(q[13], lo, dmax, mul), s, span)
	b[14], span = sampled(tbl, bucket(q[14], lo, dmax, mul), s, span)
	b[15], span = sampled(tbl, bucket(q[15], lo, dmax, mul), s, span)
	span = min(span, n)
	for l, j := range b {
		b[l] = min(j, n-span)
	}
	return span
}

// sampled is a lane's start in bucket t of a table sampling every 2^s-th
// key, and span raised to the width of that bucket's rank range.
//
//dc:noalloc
func sampled(tbl []uint16, t int, s uint, span int) (int, int) {
	first := max((int(tbl[t])-1)<<s+1, 0)
	return first, max(span, int(tbl[t+1])<<s-first)
}

// RankSorted resolves an ascending query run qs into out (which must be
// at least len(qs) long), adding add to every rank — the sorted-batch
// path. The caller guarantees qs is sorted ascending (duplicates
// allowed); results are then identical to RankBatch. What the order buys
// is in sortedRun; a run it declines is RankBatch's.
//
//dc:noalloc
func (a *SortedArray) RankSorted(qs []workload.Key, out []int, add int) {
	if !sortedRun(a.keys, qs, out, add, false, a.widest) {
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
// how many keys such a search covers at most (an array's widest bucket
// range, a buffer's every key).
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
// hundred or fewer. The window is a guess that sortedness proves or
// refutes: an answer short of the window's far edge is exact
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
