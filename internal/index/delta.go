package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/workload"
)

// This file is the mutable half of the index: a small sorted delta
// buffer consulted alongside an immutable base structure, and the
// Updatable wrapper that swaps compacted bases in behind readers'
// backs. The paper distributes a *static* sorted index over CPU caches;
// the delta layer is the standard recipe (Asadi & Lin, "Fast,
// Incremental Inverted Indexing in Main Memory") for opening that
// design to writes: inserts land in a per-partition buffer that is tiny
// next to the base (so it rides along in the same cache the partition
// fits), rank answers add the buffer's contribution — Rank is additive
// across disjoint key multisets — and a background merge periodically
// compacts buffer plus base into a fresh immutable array.

// BatchRanker is the read API the updatable layer serves: batch rank
// resolution with the caller's rank base folded into the output writes.
// RankInto writes the rank of qs[i] plus add into out[pos[i]], or into
// out[i] when pos is nil, and touches no other slot of out. SortedArray,
// Updatable and the core engines' tree and plan adapters implement it.
type BatchRanker interface {
	RankInto(qs []workload.Key, pos []int32, out []int, add int)
}

// SortedRanker is the optional fast path for ascending query runs.
// SortedArray implements it.
type SortedRanker interface {
	RankSorted(qs []workload.Key, out []int, add int)
}

// Delta is a sorted insert buffer: the mutable side layer of an
// updatable partition. A Delta value is immutable once published — an
// insert builds a new one rather than mutating — so readers may hold one
// while writers publish a new state; that is what lets an Updatable's
// reads take no lock (see Updatable.pin).
//
// Beside its keys a buffer holds a table on the bucket grid of the base it
// was last inserted against (see gridOf): table[t] counts the buffered
// keys whose bucket is below t. The grid routes a query to one bucket's
// keys, as it does in the base (SortedArray.RankInto); a base without a
// table (a tree, a plan) lends one bucket, whose range is the whole
// buffer.
type Delta struct {
	keys  []workload.Key // ascending, duplicates allowed
	grid  grid
	table []uint32 // len(table) == grid.buckets+1 when keys is not empty
}

// grid is a base's bucket function: bucket(q, lo, dmax, mul) is below
// buckets for every q.
type grid struct {
	lo, dmax workload.Key
	mul      uint64
	buckets  int
}

// gridOf is the grid of base r: a SortedArray's own, one bucket for any
// other structure (and for an empty array, whose grid is the same).
func gridOf(r BatchRanker) grid {
	if a, ok := r.(*SortedArray); ok {
		return grid{a.lo, a.dmax, a.mul, len(a.table) - 1}
	}
	return grid{buckets: 1}
}

// emptyDelta is the shared zero-length buffer every partition starts
// from (and returns to after a merge drains it). Its grid has no buckets,
// so it is on no base's grid.
var emptyDelta = &Delta{}

// RankAdd adds each query's buffer rank into out[pos[i]], or into out[i]
// when pos is nil — the side-layer pass over an unordered batch whose
// base ranks are already there.
//
// A query in bucket t has rank in [table[t], table[t+1]], exactly: the
// bucket is monotone in the key, so a buffered key in a lower bucket is
// below the query and one in a higher bucket above it, wherever the keys
// fall against the base's range (those outside it crowd the edge buckets,
// whose range is then at most the whole buffer). Queries are taken lanes
// at a time, as in SortedArray.RankInto: one lockstep over the group's
// widest range, each lane started where its range starts, or earlier
// where the widest would run past the buffer's end. Pad lanes of the tail
// group repeat a real query.
//
//dc:noalloc
func (d *Delta) RankAdd(qs []workload.Key, pos []int32, out []int) {
	if len(d.keys) == 0 {
		return
	}
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
		lockstep(d.keys, q, &b, d.place(q, &b))
		if pos == nil {
			for l, r := range b[:m] {
				out[i+l] += r
			}
		} else {
			for l, r := range b[:m] {
				out[pos[i+l]] += r
			}
		}
	}
}

// place starts each lane at its bucket's first rank, clamped so that the
// group's widest range, which it returns, ends inside the buffer. Its
// lanes are written out as SortedArray.place's are.
//
//dc:noalloc
func (d *Delta) place(q *[lanes]workload.Key, b *[lanes]int) int {
	tbl, lo, dmax, mul := d.table, d.grid.lo, d.grid.dmax, d.grid.mul
	span := 0
	b[0], span = counted(tbl, bucket(q[0], lo, dmax, mul), span)
	b[1], span = counted(tbl, bucket(q[1], lo, dmax, mul), span)
	b[2], span = counted(tbl, bucket(q[2], lo, dmax, mul), span)
	b[3], span = counted(tbl, bucket(q[3], lo, dmax, mul), span)
	b[4], span = counted(tbl, bucket(q[4], lo, dmax, mul), span)
	b[5], span = counted(tbl, bucket(q[5], lo, dmax, mul), span)
	b[6], span = counted(tbl, bucket(q[6], lo, dmax, mul), span)
	b[7], span = counted(tbl, bucket(q[7], lo, dmax, mul), span)
	b[8], span = counted(tbl, bucket(q[8], lo, dmax, mul), span)
	b[9], span = counted(tbl, bucket(q[9], lo, dmax, mul), span)
	b[10], span = counted(tbl, bucket(q[10], lo, dmax, mul), span)
	b[11], span = counted(tbl, bucket(q[11], lo, dmax, mul), span)
	b[12], span = counted(tbl, bucket(q[12], lo, dmax, mul), span)
	b[13], span = counted(tbl, bucket(q[13], lo, dmax, mul), span)
	b[14], span = counted(tbl, bucket(q[14], lo, dmax, mul), span)
	b[15], span = counted(tbl, bucket(q[15], lo, dmax, mul), span)
	for l, j := range b {
		b[l] = min(j, len(d.keys)-span)
	}
	return span
}

// counted is a lane's start in bucket t of a table counting every key,
// and span raised to the width of that bucket's rank range.
//
//dc:noalloc
func counted(tbl []uint32, t int, span int) (int, int) {
	first := int(tbl[t])
	return first, max(span, int(tbl[t+1])-first)
}

// RankSortedAdd is RankAdd for an ascending query run: the cursor forms
// of sortedRun where the run is long and dense enough for them, RankAdd
// otherwise.
//
//dc:noalloc
func (d *Delta) RankSortedAdd(qs []workload.Key, out []int) {
	if len(d.keys) > 0 && !sortedRun(d.keys, qs, out, 0, true, len(d.keys)) {
		d.RankAdd(qs, nil, out)
	}
}

// insert returns a new Delta holding the buffer and ins (sorted
// ascending), its table on grid g. The receiver is left untouched, so
// concurrent readers holding it stay consistent.
//
// A buffer already on g carries its table forward: each insert is counted
// in its bucket and placed among the buffered keys within that bucket's
// range, the runs of keys between two places copied whole, and one prefix
// pass then adds to each entry the inserts whose bucket is below it. One
// on another grid — the first insert after a merge installs a new base —
// is merged and counted afresh, as SortedArray.fill counts samples: one
// store a key, one prefix-max pass.
func (d *Delta) insert(ins []workload.Key, g grid) *Delta {
	nd := &Delta{grid: g, table: make([]uint32, g.buckets+1)}
	if d.grid != g {
		nd.keys = MergeKeys(d.keys, ins)
		for i, k := range nd.keys {
			nd.table[bucket(k, g.lo, g.dmax, g.mul)+1] = uint32(i + 1)
		}
		for t := 1; t < len(nd.table); t++ {
			nd.table[t] = max(nd.table[t], nd.table[t-1])
		}
		return nd
	}
	nd.keys = make([]workload.Key, len(d.keys)+len(ins))
	i := 0 // d.keys[:i] are placed
	for j, k := range ins {
		b := bucket(k, g.lo, g.dmax, g.mul)
		nd.table[b+1]++
		p := int(d.table[b]) + upperBound(d.keys[d.table[b]:d.table[b+1]], k)
		copy(nd.keys[i+j:], d.keys[i:p])
		nd.keys[p+j], i = k, p
	}
	copy(nd.keys[i+len(ins):], d.keys[i:])
	tbl, run := nd.table[:len(d.table)], uint32(0)
	for t, c := range d.table {
		run += tbl[t]
		tbl[t] = c + run
	}
	return nd
}

// MergeKeys merges two ascending key runs into a fresh ascending slice.
func MergeKeys(a, b []workload.Key) []workload.Key {
	out := make([]workload.Key, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// sortKeys sorts keys ascending in place: a binary-insertion sort for
// the small batches inserts arrive in, RadixSort above 32 keys (both
// without sort.Slice's interface allocations on the insert hot path).
func sortKeys(keys []workload.Key) {
	if len(keys) <= 32 {
		for i := 1; i < len(keys); i++ {
			k := keys[i]
			j := upperBound(keys[:i], k)
			copy(keys[j+1:i+1], keys[j:i])
			keys[j] = k
		}
		return
	}
	if s := RadixSort(keys, make([]workload.Key, len(keys))); &s[0] != &keys[0] {
		copy(keys, s)
	}
}

// RadixSort stable-sorts a ascending by the low 32 bits of each element:
// a whole uint32, or the key of a uint64 that packs a position above it,
// which rides along. It is an LSD byte radix sort — one pass counts all
// four bytes, then each byte's pass moves the elements between a and tmp
// (len(tmp) >= len(a)), and a byte every element shares (a batch confined
// to a narrow key range) skips its pass. It returns whichever of a and
// tmp[:len(a)] holds the result.
func RadixSort[T ~uint32 | ~uint64](a, tmp []T) []T {
	n := len(a)
	b := tmp[:n]
	var hist [4][256]uint32
	for _, v := range a {
		hist[0][byte(v)]++
		hist[1][byte(v>>8)]++
		hist[2][byte(v>>16)]++
		hist[3][byte(v>>24)]++
	}
	for p := range hist {
		h := &hist[p]
		s := 8 * uint(p)
		if n == 0 || h[byte(a[0]>>s)] == uint32(n) {
			continue // every element shares this byte: nothing to move
		}
		sum := uint32(0)
		for i := range h {
			c := h[i]
			h[i] = sum
			sum += c
		}
		for _, v := range a {
			d := byte(v >> s)
			b[h[d]] = v
			h[d]++
		}
		a, b = b, a
	}
	return a
}

// Builder constructs a fresh immutable base structure over a sorted key
// set: a sorted array, a tree, or a buffered plan — the
// updatable layer is agnostic, which is how all five of the paper's
// methods support inserts through one mechanism. A Builder does not check
// its input: an Updatable hands it MergeKeys output, ascending by
// construction, and otherwise only keys that were scanned where they came
// in from outside — by ResetAt, or by whoever vouched for the initial set
// (core.checkSorted, NewSortedArray, OpenDurablePartition).
type Builder func(keys []workload.Key) BatchRanker

// BuildSortedArray is Method C-3's Builder.
func BuildSortedArray(keys []workload.Key) BatchRanker { return newSortedArray(keys, 0) }

// layers is one immutable state of a partition: the compacted base (its
// sorted keys and the ranker built over them), the active buffer, the
// buffer a merge is compacting (nil when none is), and n, the keys the
// three hold. A writer publishes a whole new value; a reader that loads one
// holds a snapshot no merge or insert can tear.
type layers struct {
	keys   []workload.Key
	r      BatchRanker
	delta  *Delta
	frozen *Delta
	n      int
}

// runs returns the three sorted key runs of l; a nil frozen is empty.
func (l *layers) runs() (base, delta, frozen []workload.Key) {
	if l.frozen != nil {
		frozen = l.frozen.keys
	}
	return l.keys, l.delta.keys, frozen
}

// Updatable layers a mutable Delta over an immutable base structure and
// keeps answers exact while a background goroutine compacts the two:
//
//   - The state is one immutable layers value behind an atomic pointer.
//     A read loads it once and ranks from it: base ranks from the
//     immutable structure plus the buffers' contributions. Reads take no
//     lock and never block on a merge — compaction runs outside the lock
//     and installs its result as a new value.
//   - Inserts publish a new value whose buffer is a merged copy of the
//     current one, its bucket table carried forward on the current base's
//     grid (the buffer is bounded by max(threshold, base/8) and its table
//     by a 64th of the base, so the copy is O(threshold + base/8)); when
//     the buffer reaches that bound it is frozen and a background merge
//     compacts frozen+base into a fresh base via the Builder. At most one
//     merge runs at a time; inserts arriving during it accumulate in a new
//     active buffer, and reads consult base+frozen+active.
//   - Reset atomically replaces the whole state (the replica catch-up
//     path); a generation counter makes any in-flight merge's result
//     stale so it is discarded instead of resurrecting pre-Reset keys.
//
// Writers serialise on mu, which also guards the writer-side counters
// below; a reader never touches it.
type Updatable struct {
	build     Builder
	threshold int

	state atomic.Pointer[layers]

	mu   sync.Mutex
	cond *sync.Cond // signaled when a compaction finishes
	// gen is bumped by Reset; stale merges discard.
	gen uint64 //dc:guardedby mu
	// inflight counts compactions running.
	inflight int //dc:guardedby mu

	// seq is the durable watermark of the in-memory state: the WAL
	// generation of the last batch applied via InsertBatchAt. Because
	// the caller serializes log append with apply, the state always
	// covers exactly the log prefix [0, seq] — which is what makes
	// frozenSeq (captured when the buffer freezes) a valid segment
	// flush point.
	seq       uint64 //dc:guardedby mu
	frozenSeq uint64 //dc:guardedby mu

	merges atomic.Uint64

	// OnMerge, if set before first use, is called after each completed
	// merge install (cluster-level stats hook).
	OnMerge func()

	// OnPublish, if set before first use, is called after each merge
	// install with the freshly compacted base keys and the durable
	// watermark they cover — the segment-flush driver. The slice is the
	// live base: read-only.
	OnPublish func(keys []workload.Key, seq uint64)
}

// DefaultMergeThreshold is the floor of the merge trigger when the caller
// passes threshold <= 0: a buffer is frozen and compacted once it holds
// max(threshold, base/layerFraction) keys. The floor is what a small
// partition merges at (below 8·4,096 keys); above it the trigger grows
// with the base, so a key is copied a constant number of times however
// large the partition: 327,680 keys merge every 40,960 inserts.
const DefaultMergeThreshold = 4096

// layerFraction is the one ratio between the layers of a partition: a
// layer earns a rebuild at an eighth of the layer below it. The insert
// buffer earns a merge into the base once it holds base/layerFraction keys
// (never fewer than the threshold), and the keys logged since the last
// segment earn a new one once they are image/layerFraction
// (Store.SegmentDue). A merge copies base and buffer to admit the buffer,
// so under the first rule the keys copied per inserted key are at most
// 1 + layerFraction, not base/threshold (80 at 327,680 keys over a
// 4,096-key threshold, 512 at 2M); under the second a segment costs at
// most layerFraction image bytes per logged byte (Asadi & Lin, PAPERS.md).
const layerFraction = 8

// NewUpdatable wraps sorted keys with build's structure. The keys slice
// is aliased, never mutated (merges build fresh arrays).
func NewUpdatable(keys []workload.Key, build Builder, threshold int) *Updatable {
	return NewUpdatableOver(keys, build(keys), build, threshold)
}

// NewUpdatableOver is NewUpdatable for a caller that already built the
// initial ranker over keys (merges still use build for fresh bases), so
// the structure is not constructed twice.
func NewUpdatableOver(keys []workload.Key, r BatchRanker, build Builder, threshold int) *Updatable {
	if threshold <= 0 {
		threshold = DefaultMergeThreshold
	}
	u := &Updatable{build: build, threshold: threshold}
	u.cond = sync.NewCond(&u.mu)
	u.state.Store(&layers{keys: keys, r: r, delta: emptyDelta, n: len(keys)})
	return u
}

// pin is a reader's snapshot of the partition: one atomic load, every
// layer in it immutable.
func (u *Updatable) pin() *layers { return u.state.Load() }

// RankBatch resolves qs into out (len(out) >= len(qs)), adding add to
// every rank: RankInto without positions.
//
//dc:noalloc
func (u *Updatable) RankBatch(qs []workload.Key, out []int, add int) {
	u.RankInto(qs, nil, out, add)
}

// RankInto resolves qs into out[pos[i]] (out[i] when pos is nil), adding
// add to every rank. Exact at every moment: base ranks plus the delta
// layers' contributions, each layer writing through pos; an empty buffer
// adds nothing.
//
//dc:noalloc
func (u *Updatable) RankInto(qs []workload.Key, pos []int32, out []int, add int) {
	l := u.pin()
	l.r.RankInto(qs, pos, out, add)
	l.delta.RankAdd(qs, pos, out)
	if l.frozen != nil {
		l.frozen.RankAdd(qs, pos, out)
	}
}

// RankSorted is RankBatch for an ascending run: the base's sorted kernel
// when it has one, and the same kernel over each buffer.
//
//dc:noalloc
func (u *Updatable) RankSorted(qs []workload.Key, out []int, add int) {
	l := u.pin()
	if sr, ok := l.r.(SortedRanker); ok {
		sr.RankSorted(qs, out, add)
	} else {
		l.r.RankInto(qs, nil, out, add)
	}
	l.delta.RankSortedAdd(qs, out)
	if l.frozen != nil {
		l.frozen.RankSortedAdd(qs, out)
	}
}

// Rank resolves a single key (convenience; the engines batch).
func (u *Updatable) Rank(k workload.Key) int {
	var q [1]workload.Key
	var r [1]int
	q[0] = k
	u.RankBatch(q[:], r[:], 0)
	return r[0]
}

// InsertBatch adds keys (any order, duplicates allowed) to the delta
// buffer, triggering a background compaction when the buffer reaches
// max(threshold, base/8) keys. Safe for concurrent callers and concurrent
// readers; the new keys are visible to every read that starts after it
// returns.
func (u *Updatable) InsertBatch(keys []workload.Key) { u.insertBatch(keys, nil) }

// InsertBatchAt is InsertBatch for a durably logged batch: seq is the
// WAL generation after the batch's record, recorded as the in-memory
// watermark. The caller must apply batches in log order (the cluster's
// per-partition dispatch serialization guarantees it).
func (u *Updatable) InsertBatchAt(keys []workload.Key, seq uint64) { u.insertBatch(keys, &seq) }

// insertBatch publishes a state whose active buffer holds a sorted copy of
// keys, on the current base's grid, and records *seq as the watermark when
// seq is set.
func (u *Updatable) insertBatch(keys []workload.Key, seq *uint64) {
	if len(keys) == 0 {
		return
	}
	sorted := append([]workload.Key(nil), keys...)
	sortKeys(sorted)
	u.mu.Lock()
	next := *u.state.Load()
	next.delta = next.delta.insert(sorted, gridOf(next.r))
	next.n += len(sorted)
	u.state.Store(&next)
	if seq != nil {
		u.seq = *seq
	}
	u.maybeMergeLocked()
	u.mu.Unlock()
}

// maybeMergeLocked freezes the active buffer and spawns the compaction
// when it is due: nothing is frozen and the buffer holds
// max(threshold, base/layerFraction) keys. Caller holds mu.
//
//dc:holds u.mu
func (u *Updatable) maybeMergeLocked() {
	if l := u.state.Load(); l.frozen == nil && len(l.delta.keys) >= max(u.threshold, len(l.keys)/layerFraction) {
		u.freezeLocked()
	}
}

// freezeLocked publishes the active buffer as the frozen one and spawns
// its compaction. Caller holds mu and nothing is frozen.
//
//dc:holds u.mu
func (u *Updatable) freezeLocked() {
	next := *u.state.Load()
	next.frozen, next.delta = next.delta, emptyDelta
	u.state.Store(&next)
	u.frozenSeq = u.seq
	u.inflight++
	go u.merge(&next, u.gen)
}

// merge compacts l's base and frozen buffer into a fresh base structure
// and installs it. Runs outside the lock (readers keep answering from the
// layered state); the install publishes a new state under mu, with the
// same key count: the new base holds the frozen keys.
func (u *Updatable) merge(l *layers, gen uint64) {
	merged := MergeKeys(l.keys, l.frozen.keys)
	r := u.build(merged)
	u.mu.Lock()
	u.inflight--
	if u.gen != gen {
		// Reset raced the compaction: its result describes a state that
		// no longer exists. Drop it.
		u.cond.Broadcast()
		u.mu.Unlock()
		return
	}
	next := *u.state.Load()
	next.keys, next.r, next.frozen = merged, r, nil
	u.state.Store(&next)
	pubSeq := u.frozenSeq
	u.merges.Add(1)
	hook := u.OnMerge
	pub := u.OnPublish
	// The active buffer may have refilled past the trigger while the
	// compaction ran; chain the next one immediately.
	u.maybeMergeLocked()
	u.cond.Broadcast()
	u.mu.Unlock()
	if hook != nil {
		hook()
	}
	if pub != nil {
		pub(merged, pubSeq)
	}
}

// Reset replaces the entire state with sorted keys (aliased, not
// copied): the replica catch-up path. Any in-flight merge becomes
// stale and is discarded.
func (u *Updatable) Reset(keys []workload.Key) { u.ResetAt(keys, 0) }

// ResetAt is Reset with a durable watermark: seq is the WAL generation
// the replacement state corresponds to. The keys come from outside, so
// this is where they are scanned: like NewSortedArray it panics on a
// descent, which only a caller's bug can produce once the doors that take
// keys off the wire or a file have refused it with an error
// (DurablePartition.ResetTo does).
func (u *Updatable) ResetAt(keys []workload.Key, seq uint64) {
	if i := FirstDescent(keys); i > 0 {
		panic(fmt.Sprintf("index: Updatable reset with keys not sorted at %d", i))
	}
	u.resetAt(keys, seq)
}

// resetAt is ResetAt for keys the caller has scanned.
func (u *Updatable) resetAt(keys []workload.Key, seq uint64) {
	u.mu.Lock()
	u.gen++
	u.state.Store(&layers{keys: keys, r: u.build(keys), delta: emptyDelta, n: len(keys)})
	u.seq = seq
	u.frozenSeq = 0
	u.mu.Unlock()
}

// SnapshotKeys returns a fresh sorted slice of every key the structure
// currently answers for: base plus both buffers. Exact when the caller
// has stopped writes; otherwise a consistent point-in-time snapshot.
func (u *Updatable) SnapshotKeys() []workload.Key {
	base, delta, frozen := u.pin().runs()
	out := base
	if len(frozen) > 0 {
		out = MergeKeys(out, frozen)
	}
	if len(delta) > 0 {
		out = MergeKeys(out, delta)
	}
	if len(base) > 0 && len(out) > 0 && &out[0] == &base[0] {
		out = append([]workload.Key(nil), out...)
	}
	return out
}

// TotalKeys returns the current key count across base and buffers: the
// count held in the state a read would load now.
func (u *Updatable) TotalKeys() int { return u.pin().n }

// Merges returns the number of completed compactions.
func (u *Updatable) Merges() uint64 { return u.merges.Load() }

// Quiesce blocks until no compaction is in flight or pending (the
// active buffer is below its trigger and nothing is frozen). Test and
// shutdown hook; concurrent inserts can of course re-arm a merge after
// it returns.
func (u *Updatable) Quiesce() {
	u.mu.Lock()
	for u.inflight > 0 || u.state.Load().frozen != nil {
		u.cond.Wait()
	}
	u.mu.Unlock()
}
