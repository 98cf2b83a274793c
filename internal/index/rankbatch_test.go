package index

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/workload"
)

const maxKey = ^workload.Key(0)

// progression is n keys first, first+step, ...: evenly spread, so each of
// the table's buckets holds about one sample.
func progression(n int, first, step workload.Key) []workload.Key {
	keys := make([]workload.Key, n)
	for i := range keys {
		keys[i] = first + workload.Key(i)*step
	}
	return keys
}

// adversarialKeySets is the table every rank kernel is held to: the
// sizes around a lane group and around the sample stride, and the shapes
// that crowd the bucket table's samples into a few buckets.
func adversarialKeySets() map[string][]workload.Key {
	sets := map[string][]workload.Key{
		"uniform-5000":  workload.SortedKeys(5000, 3),
		"uniform-40960": workload.SortedKeys(40960, 1),
		"all-equal":     progression(700, 77, 0),
		"ends-of-space": {0, 0, 1, maxKey - 1, maxKey, maxKey},
		// A range narrower than its bucket count, far below most queries.
		"narrow-range": progression(1000, 5, 1),
	}
	for _, n := range []int{0, 1, 2, 7, 8, 9, lanes - 1, lanes, lanes + 1, 63, 64, 65, 255, 256, 257, 515, 1024} {
		sets[fmt.Sprintf("progression-%d", n)] = progression(n, 1000, 4099)
	}
	clusters := append(progression(1000, 10, 3), progression(1000, maxKey-5000, 5)...)
	sets["two-clusters"] = clusters
	geometric := make([]workload.Key, 0, 32*40)
	for e := 0; e < 32; e++ {
		geometric = append(geometric, progression(40, 1<<e, 1<<e/64)...)
	}
	slices.Sort(geometric)
	sets["geometric-gaps"] = geometric
	gap := workload.SortedKeys(4096, 5)
	for i := range gap {
		gap[i] >>= 2 // [0, 2^30)
		if i >= len(gap)/2 {
			gap[i] += 3 << 30
		}
	}
	slices.Sort(gap)
	sets["gap-in-the-middle"] = gap
	// A run of one key over twelve samples, inside a progression.
	runs := progression(6000, 0, 700000)
	for i := 2000; i < 2000+12*64; i++ {
		runs[i] = runs[2000]
	}
	sets["long-duplicate-run"] = runs
	return sets
}

// adversarialQueries is every key, its two neighbours, both ends of the
// key space and a spread of uniform draws, in an order that keeps
// neighbouring lanes far apart.
func adversarialQueries(keys []workload.Key) []workload.Key {
	qs := []workload.Key{0, 1, maxKey - 1, maxKey}
	for _, k := range keys {
		qs = append(qs, k, k-1, k+1) // wraps at the ends of the key space, on purpose
	}
	r := workload.NewRNG(9)
	for i := 0; i < 512; i++ {
		qs = append(qs, r.Key())
	}
	for i := len(qs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		qs[i], qs[j] = qs[j], qs[i]
	}
	return qs
}

// checkRankBatch holds RankBatch to the binary-search oracle on qs, as
// one batch and cut into batches of every tail length of a lane group.
func checkRankBatch(a *SortedArray, qs []workload.Key) error {
	const add = 1000003
	out := make([]int, len(qs))
	a.RankBatch(qs, out, add)
	for i, q := range qs {
		if want := upperBound(a.keys, q) + add; out[i] != want {
			return fmt.Errorf("RankBatch(%d) = %d, want %d", q, out[i], want)
		}
	}
	for n := 0; n <= 2*lanes+1 && n <= len(qs); n++ {
		clear(out)
		a.RankBatch(qs[:n], out, add)
		for i, q := range qs[:n] {
			if want := upperBound(a.keys, q) + add; out[i] != want {
				return fmt.Errorf("batch of %d: RankBatch(%d) = %d, want %d", n, q, out[i], want)
			}
		}
		if n < len(out) && out[n] != 0 {
			return fmt.Errorf("batch of %d wrote past its end", n)
		}
	}
	return nil
}

// checkTable holds the bucket table to what RankBatch and sortedRun rely
// on: it has at most n/64 + 2 entries, and each query's rank lies in its
// bucket's range, which is no wider than widest.
func checkTable(a *SortedArray, qs []workload.Key) error {
	n := len(a.keys)
	if len(a.table) > n/64+2 {
		return fmt.Errorf("%d keys: %d table entries", n, len(a.table))
	}
	for _, q := range qs {
		t := bucket(q, a.lo, a.dmax, a.mul)
		first := max((int(a.table[t])-1)<<a.shift+1, 0)
		last := min(int(a.table[t+1])<<a.shift, n)
		if r := upperBound(a.keys, q); r < first || r > last || last-first > a.widest {
			return fmt.Errorf("%d keys: rank %d of %d, bucket %d's range [%d, %d], widest %d", n, r, q, t, first, last, a.widest)
		}
	}
	return nil
}

// TestRankBatchAdversarial holds RankBatch to the oracle on every set of
// the table.
func TestRankBatchAdversarial(t *testing.T) {
	for name, keys := range adversarialKeySets() {
		t.Run(name, func(t *testing.T) {
			if err := checkRankBatch(NewSortedArray(keys, 0), adversarialQueries(keys)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRankBatchTable holds the bucket table's invariant on every set of
// the kernel table (progressions of 1, 2, 63, 64 and 65 keys among them)
// and on 2^21 uniform keys, for every key, its neighbours and both ends
// of the key space; and on 2^22+1 keys, the first size whose table samples
// every 128th key, for every 61st key and its neighbours.
func TestRankBatchTable(t *testing.T) {
	sets := adversarialKeySets()
	sets["uniform-2097152"] = workload.SortedKeys(1<<21, 7)
	sets["uniform-4194305"] = workload.SortedKeys(1<<22+1, 8)
	for name, keys := range sets {
		a := NewSortedArray(keys, 0)
		if want := uint(6 + len(keys)>>22); a.shift != want {
			t.Errorf("%s: every 2^%d-th key sampled, want 2^%d", name, a.shift, want)
		}
		step := 1
		if len(keys) > 1<<21 {
			step = 61
		}
		qs := []workload.Key{0, maxKey}
		for i := 0; i < len(keys); i += step {
			qs = append(qs, keys[i], keys[i]-1, keys[i]+1)
		}
		if err := checkTable(a, qs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRankBatchTableMutation shows that the oracle check sees a table one
// sample short: the fullest bucket's upper entry lowered by one cuts the
// last sample of its rank range off, and no other lane's range is wide
// enough to hide it.
func TestRankBatchTableMutation(t *testing.T) {
	keys := workload.SortedKeys(163840, 1)
	a := NewSortedArray(keys, 0)
	qs := adversarialQueries(keys)
	if err := checkRankBatch(a, qs); err != nil {
		t.Fatal(err)
	}
	fullest := 0
	for b := range len(a.table) - 1 {
		if a.table[b+1]-a.table[b] > a.table[fullest+1]-a.table[fullest] {
			fullest = b
		}
	}
	mutated := *a
	mutated.table = slices.Clone(a.table)
	mutated.table[fullest+1]--
	if checkRankBatch(&mutated, qs) == nil {
		t.Fatalf("RankBatch stayed exact with table entry %d one short", fullest+1)
	}
}

// TestLockstepEveryLane holds lockstep to upperBound lane by lane, at
// every span from 0 to 300, on distinct keys and on runs of three equal
// keys. Each lane searches its own window and query — the lanes start
// near the array's low end, near its high end, or as a tail group whose
// pad lanes repeat lane 0, as RankInto pads them — so a lane left out of
// the written-out lists, or two lanes' queries swapped, is named here.
func TestLockstepEveryLane(t *testing.T) {
	const n, maxSpan = 331, 300
	sets := map[string][]workload.Key{"distinct": progression(n, 2, 2), "runs-of-3": make([]workload.Key, n)}
	for i := range sets["runs-of-3"] {
		sets["runs-of-3"][i] = workload.Key(10 + i/3*10)
	}
	for name, keys := range sets {
		for span := 0; span <= maxSpan; span++ {
			for _, layout := range []string{"low", "high", "pad"} {
				var q [lanes]workload.Key
				var start [lanes]int
				for l := range lanes {
					start[l] = l
					if layout == "high" {
						start[l] = n - span - l
					}
					// The key at a position in or just past the window
					// that differs from lane to lane and from span to
					// span, less one when the lane is odd.
					pos := (l*37 + span*11) % (span + 1)
					q[l] = keys[min(start[l]+pos, n-1)] - workload.Key(l&1)
				}
				if layout == "pad" {
					for l := 5; l < lanes; l++ {
						q[l], start[l] = q[0], start[0]
					}
				}
				b := start
				lockstep(keys, &q, &b, span)
				for l := range lanes {
					want := start[l] + upperBound(keys[start[l]:start[l]+span], q[l])
					if b[l] != want {
						t.Fatalf("%s, %s lanes, span %d: lane %d (start %d, query %d) ended at %d, want %d",
							name, layout, span, l, start[l], q[l], b[l], want)
					}
				}
			}
		}
	}
}

// bufferOn is a buffer over keys (any order) inserted in two halves, the
// first on grid g0 and the second on g: counted afresh and then carried
// forward when g0 is g, counted afresh twice when it is not.
func bufferOn(keys []workload.Key, g0, g grid) *Delta {
	half := slices.Sorted(slices.Values(keys[:len(keys)/2]))
	rest := slices.Sorted(slices.Values(keys[len(keys)/2:]))
	return emptyDelta.insert(half, g0).insert(rest, g)
}

// checkDelta holds a buffer to its keys, and its RankAdd to the
// binary-search oracle over them on qs, as one batch and cut into batches
// of every tail length up to two lane groups and one, adding into a
// pre-filled out that it must not write past; and RankSortedAdd on qs
// sorted.
func checkDelta(d *Delta, keys, qs []workload.Key) error {
	keys = slices.Sorted(slices.Values(keys))
	if !slices.Equal(d.keys, keys) {
		return fmt.Errorf("buffer of %d keys holds %d, not in order", len(keys), len(d.keys))
	}
	out := make([]int, len(qs)+1)
	lengths := []int{len(qs)}
	for n := 0; n <= 2*lanes+1 && n <= len(qs); n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for i := range out {
			out[i] = 7 * i
		}
		d.RankAdd(qs[:n], nil, out)
		for i, q := range qs[:n] {
			if want := upperBound(keys, q) + 7*i; out[i] != want {
				return fmt.Errorf("batch of %d: RankAdd(%d) = %d, want %d", n, q, out[i]-7*i, want-7*i)
			}
		}
		if out[n] != 7*n {
			return fmt.Errorf("batch of %d wrote past its end", n)
		}
	}
	sorted := slices.Sorted(slices.Values(qs))
	clear(out)
	d.RankSortedAdd(sorted, out)
	for i, q := range sorted {
		if want := upperBound(keys, q); out[i] != want {
			return fmt.Errorf("RankSortedAdd(%d) = %d, want %d", q, out[i], want)
		}
	}
	return nil
}

// deltaShapes are the buffers a base is checked with: keys inside its
// range, all below its first key, all above its last (monotone appends,
// every one in the grid's top bucket), all one key, and more keys than a
// two-byte count holds. A shape the base leaves no room for is left out.
func deltaShapes(base []workload.Key) map[string][]workload.Key {
	lo, hi := workload.Key(0), maxKey
	if len(base) > 0 {
		lo, hi = base[0], base[len(base)-1]
	}
	r := workload.NewRNG(uint64(len(base)) + 5)
	within := func(n int, lo, hi workload.Key) []workload.Key {
		keys := make([]workload.Key, n)
		for i := range keys {
			keys[i] = lo + workload.Key(r.Uint64()%(uint64(hi-lo)+1))
		}
		return keys
	}
	shapes := map[string][]workload.Key{
		"inside": within(2048, lo, hi),
		"equal":  progression(700, lo+(hi-lo)/2, 0),
		"70000":  within(70000, 0, maxKey),
	}
	if lo > 0 {
		shapes["below"] = within(2048, 0, lo-1)
	}
	if hi < maxKey {
		shapes["above"] = progression(int(min(2048, maxKey-hi)), hi+1, 1)
	}
	return shapes
}

// deltaQueries is adversarialQueries over the base and about 2,048 of the
// buffer's keys.
func deltaQueries(base, buf []workload.Key) []workload.Key {
	step := max(len(buf)/2048, 1)
	keys := slices.Clone(base)
	for i := 0; i < len(buf); i += step {
		keys = append(keys, buf[i])
	}
	return adversarialQueries(keys)
}

// TestDeltaRankAddAdversarial holds the buffers' kernels to the oracle
// over every set of the kernel table taken as a base, crossed with every
// buffer shape, each placed three ways: on the base's grid; on a stale one,
// the grid of the base before the upper half of its keys merged in, which
// a buffer keeps until its first insert after the install; and on the one
// bucket of a base without a table (a tree, a plan), which is the whole
// buffer. A buffer moved from the stale grid to the base's by an insert is
// counted afresh, and that too is checked.
func TestDeltaRankAddAdversarial(t *testing.T) {
	for name, base := range adversarialKeySets() {
		t.Run(name, func(t *testing.T) {
			g := gridOf(NewSortedArray(base, 0))
			stale := gridOf(NewSortedArray(base[:len(base)/2], 0))
			ways := map[string][2]grid{"grid": {g, g}, "stale": {stale, stale}, "across-merge": {stale, g}, "tree": {{buckets: 1}, {buckets: 1}}}
			for shape, buf := range deltaShapes(base) {
				qs := deltaQueries(base, buf)
				for way, gs := range ways {
					if err := checkDelta(bufferOn(buf, gs[0], gs[1]), buf, qs); err != nil {
						t.Errorf("%s buffer of %d keys, %s: %v", shape, len(buf), way, err)
					}
				}
			}
		})
	}
}

// TestDeltaTableMutation shows that checkDelta sees a table one key short:
// the fullest bucket's upper entry lowered by one cuts that bucket's last
// key off its range. A run of one key makes the bucket the only fullest,
// so no other lane's range is wide enough to hide the cut.
func TestDeltaTableMutation(t *testing.T) {
	base := workload.SortedKeys(40960, 1)
	buf := append(deltaShapes(base)["inside"], progression(40, base[20000], 0)...)
	g := gridOf(NewSortedArray(base, 0))
	d := bufferOn(buf, g, g)
	qs := deltaQueries(base, buf)
	if err := checkDelta(d, buf, qs); err != nil {
		t.Fatal(err)
	}
	fullest := 0
	for b := range len(d.table) - 1 {
		if d.table[b+1]-d.table[b] > d.table[fullest+1]-d.table[fullest] {
			fullest = b
		}
	}
	mutated := *d
	mutated.table = slices.Clone(d.table)
	mutated.table[fullest+1]--
	if checkDelta(&mutated, buf, qs) == nil {
		t.Fatalf("RankAdd stayed exact with table entry %d one short", fullest+1)
	}
}

func TestFirstDescent(t *testing.T) {
	for n := 0; n <= 11; n++ {
		keys := progression(n, 5, 2)
		if got := FirstDescent(keys); got != 0 {
			t.Fatalf("ascending run of %d: FirstDescent = %d", n, got)
		}
		for at := 1; at < n; at++ {
			bad := slices.Clone(keys)
			bad[at] = bad[at-1] - 1
			if got := FirstDescent(bad); got != at {
				t.Fatalf("run of %d with a descent at %d: FirstDescent = %d", n, at, got)
			}
		}
	}
}

// FuzzRankBatch cuts its input into keys and queries and holds both
// kernel forms to the binary-search oracle — RankBatch, and the
// whole-array form adding into a pre-filled out — and the bucket table to
// its invariant.
func FuzzRankBatch(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte("\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x80"), uint8(2), uint8(0))
	f.Add(binary.LittleEndian.AppendUint32(nil, 7), uint8(1), uint8(31))
	f.Fuzz(func(t *testing.T, data []byte, nkeys, shift uint8) {
		var words []workload.Key
		for ; len(data) >= 4; data = data[4:] {
			words = append(words, workload.Key(binary.LittleEndian.Uint32(data)))
		}
		cut := min(int(nkeys), len(words))
		keys, qs := words[:cut], words[cut:]
		// Shifted right the keys crowd near zero while the queries
		// still range over the whole key space.
		for i := range keys {
			keys[i] >>= shift % 32
		}
		slices.Sort(keys)
		qs = append(qs, 0, maxKey)

		a := NewSortedArray(keys, 0)
		if err := checkTable(a, slices.Concat(qs, keys)); err != nil {
			t.Fatal(err)
		}
		if err := checkRankBatch(a, qs); err != nil {
			t.Fatal(err)
		}
		got := make([]int, len(qs))
		for i := range got {
			got[i] = i
		}
		rankAdd(keys, qs, got)
		for i, q := range qs {
			if want := upperBound(keys, q) + i; got[i] != want {
				t.Fatalf("rankAdd(%d) = %d, want %d", q, got[i], want)
			}
		}
	})
}

// benchRanker is what the kernel rows time: RankBatch, and RankInto for
// the positions rows.
type benchRanker interface {
	BatchRanker
	RankBatch(qs []workload.Key, out []int, add int)
}

// benchRankBatch times RankBatch alone at one partition size: eight
// arrays (or updatable partitions) taken in turn, so the large case is not
// one kept hot by the loop, and a fresh batch of uniform queries from a
// pool on every iteration.
func benchRankBatch[R benchRanker](b *testing.B, arrs []R) { benchRank(b, arrs, false) }

// benchRank is benchRankBatch, or with positions the positions form as a
// worker runs it: a batch's positions ascend through a call eight times
// its length (one partition's share of a call over eight), and each rank
// is stored at its position.
func benchRank[R benchRanker](b *testing.B, arrs []R, positions bool) {
	const batch = 8192
	r := workload.NewRNG(2)
	pool := make([][]workload.Key, 64)
	for i := range pool {
		pool[i] = make([]workload.Key, batch)
		for j := range pool[i] {
			pool[i][j] = r.Key()
		}
	}
	out := make([]int, batch)
	var pos []int32
	if positions {
		out = make([]int, 8*batch)
		pos = make([]int32, batch)
		for j := range pos {
			pos[j] = int32(8*j + r.Intn(8))
		}
	}
	rank := func(a R, qs []workload.Key) {
		if pos == nil {
			a.RankBatch(qs, out, 0)
		} else {
			a.RankInto(qs, pos, out, 0)
		}
	}
	for i, a := range arrs {
		rank(a, pool[i]) // first touch of every array off the clock
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rank(arrs[i%len(arrs)], pool[i%len(pool)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/key")
}

// BenchmarkSortedArrayRankBatch is the kernel's own row, at the three
// per-partition sizes the referee's workloads use (rank_cached and the
// mixed ones, rank_tcp, rank_large) and on two 40,960-key sets whose
// samples crowd into a few of the table's buckets; the pos- rows run the
// positions form at the smallest and the largest size.
func BenchmarkSortedArrayRankBatch(b *testing.B) {
	for _, n := range sortedRunGrid.sizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) { benchRankBatch(b, kernelArrays(n)) })
	}
	// The form the engine's workers run: RankInto through a batch's
	// positions in the call.
	for _, n := range []int{40960, 2097152} {
		b.Run(fmt.Sprint("pos-", n), func(b *testing.B) { benchRank(b, kernelArrays(n), true) })
	}
	for _, set := range []struct {
		name  string
		shape func(j int, k workload.Key) workload.Key
	}{
		// Squared uniform draws: dense near zero, sparse at the top.
		{"skewed", func(_ int, k workload.Key) workload.Key { return workload.Key(uint64(k) * uint64(k) >> 32) }},
		// Half the keys in the lowest 256th of the key space, half in the
		// highest: most queries fall between the two.
		{"two-clusters", func(j int, k workload.Key) workload.Key { return k>>8 | workload.Key(j/20480*0xff)<<24 }},
	} {
		b.Run(set.name, func(b *testing.B) {
			benchRankBatch(b, benchSet(set.name, func() []*SortedArray {
				arrs := make([]*SortedArray, 8)
				for i := range arrs {
					keys := workload.SortedKeys(40960, uint64(i+1))
					for j, k := range keys {
						keys[j] = set.shape(j, k)
					}
					arrs[i] = NewSortedArray(keys, 0)
				}
				return arrs
			}))
		})
	}
}

// sinkArray keeps BenchmarkNewSortedArray's builds from being optimised
// away.
var sinkArray *SortedArray

// BenchmarkNewSortedArray is the build's own row — the bucket table over
// keys already known sorted, as every merge and a partition's first build
// make it — at the three per-partition sizes, eight key sets in turn.
func BenchmarkNewSortedArray(b *testing.B) {
	for _, n := range sortedRunGrid.sizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			sets, _ := kernelSets(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkArray = newSortedArray(sets[i%len(sets)], 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
		})
	}
}

// sortedRunGrid is the array sizes every kernel row is measured at (the
// per-partition sizes of the benchmark's workloads) and the densities (array
// keys per query of the run) the sorted kernel is measured at: from a run
// denser than the keys it crosses to one so sparse that a cursor has
// nothing to offer.
var sortedRunGrid = struct {
	sizes     []int
	densities []float64
}{[]int{40960, 163840, 2097152}, []float64{0.3, 5, 10, 200, 2560}}

// maxBenchRun caps a benchmark run (the densest one over the largest
// array would be seven million queries): a capped run keeps its density
// by crossing only the front of the array.
const maxBenchRun = 1 << 20

// benchSortedRuns times rank over ascending runs of m queries, each
// crossing density*m keys of a uniform array: the arrays in turn, a
// fresh run from a pool on every iteration.
func benchSortedRuns(b *testing.B, arrs []*SortedArray, m int, density float64, rank func(a *SortedArray, qs []workload.Key, out []int)) {
	pool := benchSet(fmt.Sprintf("sorted runs %p %d %v", arrs[0], m, density), func() [][]workload.Key {
		crossed := min(int(float64(m)*density), arrs[0].N())
		r := workload.NewRNG(2)
		pool := make([][]workload.Key, max(2, min(64, 1<<21/m)))
		for i := range pool {
			top := uint64(arrs[i%len(arrs)].keys[crossed-1])
			pool[i] = make([]workload.Key, m)
			for j := range pool[i] {
				pool[i][j] = workload.Key(r.Uint64() % (top + 1))
			}
			slices.Sort(pool[i])
		}
		return pool
	})
	out := make([]int, m)
	for i, a := range arrs {
		rank(a, pool[i%len(pool)], out) // first touch of every array off the clock
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rank(arrs[i%len(arrs)], pool[i%len(pool)], out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m), "ns/key")
}

// benchSets holds the benchmarks' inputs by name, each built once.
var benchSets sync.Map

// benchSet is the input named name, built by build on first use and
// shared by every row of the test binary from then on. Go runs a
// benchmark's body again at every b.N it tries and at every -count, and
// building these inputs takes far longer than timing them; no benchmark
// writes the inputs it shares this way (or, for the insert rows, it puts
// them back before every timed step).
func benchSet[T any](name string, build func() T) T {
	if v, ok := benchSets.Load(name); ok {
		return v.(T)
	}
	v, _ := benchSets.LoadOrStore(name, build())
	return v.(T)
}

// kernelSets is, for a size of sortedRunGrid, the eight uniform key sets
// the kernel rows run on and the arrays over them, which alias their keys.
func kernelSets(n int) ([][]workload.Key, []*SortedArray) {
	type sets struct {
		keys [][]workload.Key
		arrs []*SortedArray
	}
	s := benchSet(fmt.Sprint("kernel ", n), func() sets {
		s := sets{make([][]workload.Key, 8), make([]*SortedArray, 8)}
		for i := range s.keys {
			s.keys[i] = workload.SortedKeys(n, uint64(i+1))
			s.arrs[i] = NewSortedArray(s.keys[i], 0)
		}
		return s
	})
	return s.keys, s.arrs
}

// kernelArrays is the eight shared arrays of n keys.
func kernelArrays(n int) []*SortedArray {
	_, arrs := kernelSets(n)
	return arrs
}

// benchSortedGrid runs rank at every point of sortedRunGrid, as
// <keys>x<queries>.
func benchSortedGrid(b *testing.B, rank func(a *SortedArray, qs []workload.Key, out []int)) {
	for _, n := range sortedRunGrid.sizes {
		for _, d := range sortedRunGrid.densities {
			m := min(int(float64(n)/d), maxBenchRun)
			b.Run(fmt.Sprintf("%dx%d", n, m), func(b *testing.B) { benchSortedRuns(b, kernelArrays(n), m, d, rank) })
		}
	}
}

// BenchmarkSortedArrayRankSorted is the sorted kernel's own rows: every
// density at every array size, so each of its forms (merge, cursor
// windows, the unsorted kernel) is gated where it is the one that runs.
func BenchmarkSortedArrayRankSorted(b *testing.B) {
	benchSortedGrid(b, func(a *SortedArray, qs []workload.Key, out []int) { a.RankSorted(qs, out, 0) })
}

// BenchmarkRankBatchOnSortedRuns is RankBatch on the same runs: what
// RankSorted must not lose to at any density.
func BenchmarkRankBatchOnSortedRuns(b *testing.B) {
	benchSortedGrid(b, func(a *SortedArray, qs []workload.Key, out []int) { a.RankBatch(qs, out, 0) })
}
