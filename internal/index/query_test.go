package index

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/workload"
)

func sortedRandomKeys(rng *rand.Rand, n int, max workload.Key) []workload.Key {
	keys := make([]workload.Key, n)
	for i := range keys {
		keys[i] = workload.Key(rng.Intn(int(max)))
	}
	sortKeys(keys)
	return keys
}

func oracleInts(keys []workload.Key) []int {
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = int(k)
	}
	sort.Ints(out)
	return out
}

// TestSortedArraySelectScanCount checks countRange, the single range
// count of one sorted run, against a linear count.
func TestSortedArraySelectScanCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := sortedRandomKeys(rng, 500, 2000)
	for trial := 0; trial < 200; trial++ {
		lo := workload.Key(rng.Intn(2100))
		hi := workload.Key(rng.Intn(2100))
		want := 0
		for _, k := range keys {
			if k >= lo && k <= hi {
				want++
			}
		}
		if got := countRange(keys, lo, hi); got != want {
			t.Fatalf("countRange(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}
}

// TestUpdatableQueryOpsLayered drives the updatable stack into a state
// with all three layers live (base + active delta + frozen delta) and
// checks every query op against a brute-force oracle over the merged
// multiset.
func TestUpdatableQueryOpsLayered(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := sortedRandomKeys(rng, 400, 3000)
	build := func(keys []workload.Key) BatchRanker { return NewSortedArray(keys, 0) }
	u := NewUpdatable(base, build, 64)

	all := append([]workload.Key(nil), base...)
	for round := 0; round < 8; round++ {
		ins := make([]workload.Key, 30)
		for i := range ins {
			ins[i] = workload.Key(rng.Intn(3000))
		}
		u.InsertBatch(ins)
		all = MergeKeys(all, slices.Sorted(slices.Values(ins)))

		for trial := 0; trial < 40; trial++ {
			lo := workload.Key(rng.Intn(3100))
			hi := workload.Key(rng.Intn(3100))
			want := 0
			for _, k := range all {
				if k >= lo && k <= hi {
					want++
				}
			}
			if got := u.CountRange(lo, hi); got != want {
				t.Fatalf("round %d: CountRange(%d,%d) = %d, want %d", round, lo, hi, got, want)
			}

			var wantScan []workload.Key
			for _, k := range all {
				if k >= lo && k <= hi {
					wantScan = append(wantScan, k)
				}
			}
			max := rng.Intn(50) - 1 // occasionally -1 = unlimited
			got := u.ScanRange(lo, hi, max, nil)
			wantN := len(wantScan)
			if max >= 0 && max < wantN {
				wantN = max
			}
			if len(got) != wantN {
				t.Fatalf("round %d: ScanRange(%d,%d,%d) returned %d keys, want %d", round, lo, hi, max, len(got), wantN)
			}
			for i, k := range got {
				if k != wantScan[i] {
					t.Fatalf("round %d: ScanRange(%d,%d)[%d] = %d, want %d", round, lo, hi, i, k, wantScan[i])
				}
			}
		}

		for _, k := range []int{0, 1, 7, 100, len(all), len(all) + 5} {
			got := u.TopK(k, nil)
			wantN := k
			if wantN > len(all) {
				wantN = len(all)
			}
			if len(got) != wantN {
				t.Fatalf("round %d: TopK(%d) returned %d keys, want %d", round, k, len(got), wantN)
			}
			for i, key := range got {
				if want := all[len(all)-wantN+i]; key != want {
					t.Fatalf("round %d: TopK(%d)[%d] = %d, want %d", round, k, i, key, want)
				}
			}
		}

		qs := make([]workload.Key, 60)
		for i := range qs {
			qs[i] = workload.Key(rng.Intn(3100))
		}
		out := make([]int, len(qs))
		u.CountKeys(qs, out, make([]int, len(qs)))
		for i, q := range qs {
			want := 0
			for _, k := range all {
				if k == q {
					want++
				}
			}
			if out[i] != want {
				t.Fatalf("round %d: CountKeys[%d] key %d = %d, want %d", round, i, q, out[i], want)
			}
		}
	}
	u.Quiesce()
	if got, want := u.CountRange(0, 4000), len(all); got != want {
		t.Fatalf("full CountRange = %d, want %d", got, want)
	}
}

// treeRanker adapts a tree's per-key Rank to the batch API, the way the
// core engines do for the tree methods.
type treeRanker struct{ t *Tree }

func (tr treeRanker) RankInto(qs []workload.Key, pos []int32, out []int, add int) {
	for i, k := range qs {
		j := i
		if pos != nil {
			j = int(pos[i])
		}
		out[j] = tr.t.Rank(k) + add
	}
}

// TestUpdatableQueryOpsNonArrayBase checks the query ops against a base
// ranker that is not a SortedArray (the tree adapter path): the ops
// must answer from the retained raw keys regardless of the structure.
func TestUpdatableQueryOpsNonArrayBase(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := sortedRandomKeys(rng, 300, 1000)
	build := func(keys []workload.Key) BatchRanker { return treeRanker{NewNaryTree(keys, 0)} }
	u := NewUpdatable(base, build, 32)
	u.InsertBatch([]workload.Key{5, 999, 999, 500})
	all := MergeKeys(base, []workload.Key{5, 500, 999, 999})

	if got, want := u.CountRange(0, 1000), len(all); got != want {
		t.Fatalf("CountRange = %d, want %d", got, want)
	}
	// The batch count over the same snapshot: ranges from the origin,
	// inside, on the inserted copies and inverted, ascending and not.
	var ks []workload.Key
	var is []int
	pairs := []workload.Key{0, 1000, 5, 5, 999, 999, 400, 600, 600, 400, 0, 4, 500, 500}
	for i, c := range CountPairs(u, pairs, &ks, &is) {
		if want := oracleCount(all, pairs[2*i], pairs[2*i+1]); c != want {
			t.Fatalf("CountPairs[%d](%d,%d) = %d, want %d", i, pairs[2*i], pairs[2*i+1], c, want)
		}
	}
	top := u.TopK(3, nil)
	for i, k := range top {
		if want := all[len(all)-3+i]; k != want {
			t.Fatalf("TopK[%d] = %d, want %d", i, k, want)
		}
	}
	scan := u.ScanRange(0, 1000, -1, nil)
	if len(scan) != len(all) {
		t.Fatalf("ScanRange len = %d, want %d", len(scan), len(all))
	}
	for i, k := range scan {
		if k != all[i] {
			t.Fatalf("ScanRange[%d] = %d, want %d", i, k, all[i])
		}
	}
}

// oracleCount is the count CountPairs is held to: two sort.Search calls
// over the merged multiset, sharing nothing with the kernels.
func oracleCount(all []workload.Key, lo, hi workload.Key) int {
	if hi < lo {
		return 0
	}
	return sort.Search(len(all), func(i int) bool { return all[i] > hi }) -
		sort.Search(len(all), func(i int) bool { return all[i] >= lo })
}

// threeLayers is an Updatable over base with all three layers live: frozen
// is being merged, and the merge is held at the build of its new base
// until release, while active sits in the buffer beside it. all is the
// multiset the structure answers for. The frozen buffer is frozen by hand,
// since a large base's trigger (an eighth of it) is above it.
func threeLayers(t testing.TB, base []workload.Key, build Builder, frozen, active []workload.Key) (u *Updatable, all []workload.Key, release func()) {
	t.Helper()
	gate := make(chan struct{})
	first := true
	u = NewUpdatable(base, func(keys []workload.Key) BatchRanker {
		if !first {
			<-gate
		}
		first = false
		return build(keys)
	}, len(frozen))
	u.InsertBatch(frozen)
	freeze(u)
	u.InsertBatch(active)
	l := u.pin()
	d, f := l.delta, l.frozen
	if f == nil || len(f.keys) != len(frozen) || len(d.keys) != len(active) {
		t.Fatalf("layers not live: frozen %v, active buffer of %d keys", f != nil, len(d.keys))
	}
	all = slices.Sorted(slices.Values(slices.Concat(base, frozen, active)))
	return u, all, func() { close(gate); u.Quiesce() }
}

// checkCountRanges holds CountPairs on the ranges (los[i], his[i]) and
// CountKeys on his to the oracle over all. CountPairs' scratch starts
// dirty and too short for the ends; CountKeys may write nothing past its
// keys.
func checkCountRanges(t *testing.T, tag string, u *Updatable, all, los, his []workload.Key) {
	t.Helper()
	n := len(los)
	ks, is := slices.Repeat([]workload.Key{0xDEAD}, n), slices.Repeat([]int{-7}, n)
	counts := CountPairs(u, pairsOf(los, his), &ks, &is)
	if len(counts) != n {
		t.Fatalf("%s: CountPairs over %d ranges returned %d counts", tag, n, len(counts))
	}
	for i := range los {
		if want := oracleCount(all, los[i], his[i]); counts[i] != want {
			t.Fatalf("%s: CountPairs[%d](%d,%d) = %d, want %d", tag, i, los[i], his[i], counts[i], want)
		}
	}
	out, under := make([]int, n+1), make([]int, n+1)
	for i := range out {
		out[i], under[i] = -7, -9
	}
	u.CountKeys(his, out, under)
	for i, q := range his {
		if want := oracleCount(all, q, q); out[i] != want {
			t.Fatalf("%s: CountKeys[%d](%d) = %d, want %d", tag, i, q, out[i], want)
		}
	}
	if out[n] != -7 || under[n] != -9 {
		t.Fatalf("%s: CountKeys over %d keys wrote past its end", tag, n)
	}
}

// pairsOf lays out the ranges (los[i], his[i]) as CountPairs takes them.
func pairsOf(los, his []workload.Key) []workload.Key {
	pairs := make([]workload.Key, 0, 2*len(los))
	for i, lo := range los {
		pairs = append(pairs, lo, his[i])
	}
	return pairs
}

// shuffled is a copy of qs in an order with no ascending stretch to speak
// of.
func shuffled(r *workload.RNG, qs []workload.Key) []workload.Key {
	out := slices.Clone(qs)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestCountRangesKernelForms reaches every form the rank kernels take
// from under CountPairs, at a partition that fits L2 and one far outside
// it, with base, frozen and active buffer all live: disjoint ascending
// ranges, whose ends are one ascending run at the densities the sorted
// kernel merges, walks with cursor windows and declines; overlapping
// ranges, whose ends are not; and the same queries unsorted. Half of the
// asked keys are indexed ones, some of them in a buffer, so
// multiplicities are not all 0.
func TestCountRangesKernelForms(t *testing.T) {
	for _, n := range []int{163840, 2097152} {
		r := workload.NewRNG(uint64(n))
		base := workload.SortedKeys(n, 5)
		frozen, active := make([]workload.Key, 4096), make([]workload.Key, 1500)
		for i := range frozen {
			frozen[i] = base[r.Intn(n)] // second copies
		}
		for i := range active {
			active[i] = r.Key()
		}
		u, all, release := threeLayers(t, base, BuildSortedArray, frozen, active)
		for _, density := range []float64{0.3, 8, 1000} {
			m := min(6000, int(0.9*float64(n)/density))
			crossed := int(density * float64(m))
			at := r.Intn(n - crossed)
			los := uniformRun(r, m, base[at], base[at+crossed-1])
			for i := 0; i < m; i += 2 {
				los[i] = base[at+r.Intn(crossed)]
			}
			slices.Sort(los)
			// The run is long enough for the sorted kernel, which takes it
			// at the first two densities and hands the third to RankBatch.
			took := sortedRun(base, los, make([]int, m), 0, false, NewSortedArray(base, 0).widest)
			if m < minCursorRun || took != (density < 1000) {
				t.Fatalf("%d keys, %d queries at %g keys/query: sorted kernel took the run: %v", n, m, density, took)
			}
			width := workload.Key(float64(maxKey) / float64(n) * density * 3)
			his := make([]workload.Key, m)
			for i, lo := range los {
				his[i] = lo + min(width, maxKey-lo)
			}
			tag := fmt.Sprintf("%d keys, %g keys/query", n, density)
			// Each range ends below the next one's start: the ends ascend.
			gaps := make([]workload.Key, m)
			for i := range m - 1 {
				gaps[i] = los[i+1] - min(los[i+1], 1)
			}
			gaps[m-1] = maxKey
			checkCountRanges(t, tag+", disjoint ranges ascending", u, all, los, gaps)
			checkCountRanges(t, tag+", both streams ascending", u, all, los, his)
			checkCountRanges(t, tag+", his unsorted", u, all, los, shuffled(r, his))
			perm := shuffled(r, los)
			for i, lo := range perm {
				his[i] = lo + min(width, maxKey-lo)
			}
			checkCountRanges(t, tag+", both streams unsorted", u, all, perm, his)
		}
		release()
		// The same structure clean: the lock-free path.
		qs := uniformRun(r, 6000, 0, maxKey)
		checkCountRanges(t, fmt.Sprintf("%d keys, merged", n), u, all, qs, qs)
	}
}

// TestCountRangesAdversarial runs the kernel table's key sets — among them
// one key filling the array, and a run of one key spanning several
// buckets' samples — under CountPairs, with second copies of some
// keys in both buffers, over a sorted-array base and over a tree that has
// no sorted form. The queries are every key and its neighbours and the
// ends of the key space, so q = 0, q = MaxUint32, lo = 0, lo = hi and
// hi < lo (the wrapped neighbours) are all in, ascending and not.
func TestCountRangesAdversarial(t *testing.T) {
	builders := map[string]Builder{
		"array": BuildSortedArray,
		"tree":  func(keys []workload.Key) BatchRanker { return treeRanker{NewNaryTree(keys, 0)} },
	}
	for name, keys := range adversarialKeySets() {
		for bname, build := range builders {
			if bname == "tree" && (len(keys) == 0 || len(keys) > 6000) {
				continue // an empty tree cannot be built; the largest set is slow one key at a time
			}
			t.Run(name+"/"+bname, func(t *testing.T) {
				r := workload.NewRNG(21)
				frozen, active := []workload.Key{0, maxKey}, []workload.Key{maxKey, 5}
				for i := 0; i < len(keys); i += 3 {
					frozen = append(frozen, keys[i])
					active = append(active, keys[i], keys[len(keys)-1-i])
				}
				u, all, release := threeLayers(t, keys, build, frozen, active)
				defer release()
				qs := adversarialQueries(keys)
				asc := slices.Clone(qs)
				slices.Sort(asc)
				checkCountRanges(t, "point ranges, ascending", u, all, asc, asc)
				checkCountRanges(t, "point ranges, unsorted", u, all, qs, qs)
				checkCountRanges(t, "arbitrary ranges", u, all, qs, shuffled(r, qs))
				checkCountRanges(t, "from the origin", u, all, make([]workload.Key, len(asc)), asc)
				top := slices.Repeat([]workload.Key{maxKey}, len(asc))
				checkCountRanges(t, "to the end of the key space", u, all, asc, top)
				checkCountRanges(t, "no ranges", u, all, nil, nil)
			})
		}
	}
}

// TestCountKeysMatchesCountRanges holds the multiplicity kernel — one
// rank a key per layer and the copies just below it — to CountPairs on
// the point ranges (q, q) and to the oracle, with copies of one key in
// the base, the frozen buffer and the active buffer at once: key 0,
// MaxUint32 several times over, and a run of one key longer than a
// bucket's samples. In the "inside" set the asked keys also fall below
// the first key and above the last, of the structure and of each buffer.
// Over an array base and a tree base, which has no sorted form; the keys
// asked ascending and not.
func TestCountKeysMatchesCountRanges(t *testing.T) {
	sets := map[string]func(r *workload.RNG) (base, frozen, active []workload.Key){
		"ends": func(*workload.RNG) (base, frozen, active []workload.Key) {
			base = workload.SortedKeys(3000, 35)
			run := base[1500]
			base = slices.Concat(base, []workload.Key{0, 0, maxKey, maxKey, maxKey, maxKey}, slices.Repeat([]workload.Key{run}, 300))
			slices.Sort(base)
			frozen = slices.Concat([]workload.Key{0, maxKey, maxKey}, slices.Repeat([]workload.Key{run}, 70))
			active = []workload.Key{maxKey, 0, run, run, run, 1, maxKey - 1}
			return
		},
		"inside": func(r *workload.RNG) (base, frozen, active []workload.Key) {
			base = uniformRun(r, 3000, 1<<20, 1<<31)
			run := base[1000]
			base = slices.Concat(base, slices.Repeat([]workload.Key{run}, 200))
			slices.Sort(base)
			// The frozen buffer's keys sit in the base's upper part, the
			// active buffer's at its bottom: each buffer has asked keys
			// below its first key and above its last.
			frozen = slices.Concat(slices.Repeat([]workload.Key{base[2250]}, 90), base[2200:2300], base[len(base)-1:])
			active = slices.Concat(slices.Repeat([]workload.Key{run}, 3), base[:50], base[:1])
			return
		},
	}
	builders := map[string]Builder{
		"array": BuildSortedArray,
		"tree":  func(keys []workload.Key) BatchRanker { return treeRanker{NewNaryTree(keys, 0)} },
	}
	for name, set := range sets {
		for bname, build := range builders {
			t.Run(name+"/"+bname, func(t *testing.T) {
				r := workload.NewRNG(35)
				base, frozen, active := set(r)
				u, all, release := threeLayers(t, base, build, frozen, active)
				defer release()
				qs := []workload.Key{0, 1, maxKey - 1, maxKey}
				for _, k := range slices.Compact(slices.Clone(all)) {
					qs = append(qs, k, k-1, k+1, k) // wraps at the ends of the key space, on purpose
				}
				qs = append(qs, uniformRun(r, 500, 0, maxKey)...)
				asc := slices.Sorted(slices.Values(qs))
				checkCountKeys(t, "ascending", u, all, asc)
				checkCountKeys(t, "unsorted", u, all, shuffled(r, qs))
			})
		}
	}
}

// checkCountKeys holds CountKeys(qs) to CountPairs on the point ranges
// (q, q) and to the oracle over all. The scratch starts dirty, and nothing
// past the queries may be written.
func checkCountKeys(t *testing.T, tag string, u *Updatable, all, qs []workload.Key) {
	t.Helper()
	n := len(qs)
	out, under := make([]int, n+1), make([]int, n+1)
	for i := range out {
		out[i], under[i] = -7, -9
	}
	u.CountKeys(qs, out, under)
	var ks []workload.Key
	var is []int
	ranges := CountPairs(u, pairsOf(qs, qs), &ks, &is)
	for i, q := range qs {
		if want := oracleCount(all, q, q); out[i] != want || ranges[i] != want {
			t.Fatalf("%s: key %d (query %d): CountKeys %d, CountPairs %d, want %d", tag, q, i, out[i], ranges[i], want)
		}
	}
	if out[n] != -7 || under[n] != -9 {
		t.Fatalf("%s: CountKeys over %d keys wrote past its end", tag, n)
	}
}

// TestCountKeysOneSnapshot has writers insert one copy of every key of a
// fixed set per call while readers ask the set's multiplicities, through
// CountKeys and through CountPairs on the point ranges. An insert
// call lands in the structure whole, so on one snapshot the answers are
// all the copies seen so far: never negative, never fewer than the calls
// acknowledged before the read began nor more than those begun before it
// ended, and never fewer than the same reader saw last time. Layers taken
// from two snapshots break this as soon as a buffer freezes or a merge
// installs between them: a base from before a merge and a buffer from
// after it miss the merged copies, or count them twice the other way
// round. The merge threshold is low, so the reads straddle buffers
// freezing and bases being swapped in.
func TestCountKeysOneSnapshot(t *testing.T) {
	const (
		writers, readers = 2, 2
		rounds           = 300
	)
	base := workload.SortedKeys(40960, 9)
	set := make([]workload.Key, 0, 512)
	for i := 0; i < cap(set); i++ {
		set = append(set, base[i*80]+1) // almost surely not a base key; the oracle below does not assume it
	}
	u := NewUpdatable(base, BuildSortedArray, 2048)
	orders := [][]workload.Key{set, shuffled(workload.NewRNG(3), set)}
	var began, acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				began.Add(1)
				u.InsertBatch(set)
				acked.Add(1)
			}
		}()
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs := orders[rd%len(orders)]
			own := make([]int, len(qs)) // copies of each asked key in the base
			for i, q := range qs {
				own[i] = oracleCount(base, q, q)
			}
			out, under := make([]int, len(qs)), make([]int, len(qs))
			pairs := pairsOf(qs, qs)
			var ks []workload.Key
			var is []int
			last := 0
			for read := 0; acked.Load() < writers*rounds; read++ {
				before := int(acked.Load())
				kernel := "CountKeys"
				if read%2 == 0 {
					u.CountKeys(qs, out, under)
				} else {
					kernel = "CountPairs"
					out = CountPairs(u, pairs, &ks, &is)
				}
				after := int(began.Load())
				for i, c := range out {
					if c -= own[i]; c < 0 || c < before || c > after || c < last {
						t.Errorf("reader %d, %s: key %d held %d inserted copies; %d calls were acknowledged before the read, %d begun by its end, and the last read saw %d",
							rd, kernel, qs[i], c, before, after, last)
						return
					}
				}
				last = out[0] - own[0]
			}
		}()
	}
	wg.Wait()
	u.Quiesce()
}

// FuzzCountRanges cuts its input into base keys, buffered keys and range
// endpoints and holds CountPairs and CountKeys to the oracle with every
// layer live, on the endpoints as drawn, on both streams ascending, and
// on the ascending endpoints paired in turn, whose ends mostly ascend.
func FuzzCountRanges(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Add(binary.LittleEndian.AppendUint32(nil, 7), uint8(1), uint8(0), uint8(31))
	f.Fuzz(func(t *testing.T, data []byte, nkeys, nbuf, shift uint8) {
		var words []workload.Key
		for ; len(data) >= 4; data = data[4:] {
			words = append(words, workload.Key(binary.LittleEndian.Uint32(data)))
		}
		cut := min(int(nkeys), len(words))
		keys, words := words[:cut], words[cut:]
		for i := range keys {
			keys[i] >>= shift % 32
		}
		slices.Sort(keys)
		cut = min(int(nbuf), len(words))
		buf, words := words[:cut], words[cut:]
		// The first buffered key freezes, the rest stay active; the keys of
		// the key space's ends ride in both.
		frozen := append([]workload.Key{0, maxKey}, buf[:min(1, len(buf))]...)
		active := append([]workload.Key{0, maxKey}, buf[min(1, len(buf)):]...)
		u, all, release := threeLayers(t, keys, BuildSortedArray, frozen, active)
		defer release()

		words = append(words, 0, maxKey, 0, 0, maxKey, maxKey)
		los, his := words[:len(words)/2], words[len(words)/2:]
		his = his[:len(los)]
		// Eight ranges from each drawn one, so that runs long enough for
		// the sorted kernel are common.
		var wlos, whis []workload.Key
		for i, lo := range los {
			for k := workload.Key(0); k < 8; k++ {
				wlos, whis = append(wlos, lo+k*workload.Key(nbuf)), append(whis, his[i]+k*workload.Key(nkeys))
			}
		}
		checkCountRanges(t, "as drawn", u, all, wlos, whis)
		slices.Sort(wlos)
		slices.Sort(whis)
		checkCountRanges(t, "ascending", u, all, wlos, whis)
		ends := slices.Sorted(slices.Values(slices.Concat(wlos, whis)))
		for i := range wlos {
			wlos[i], whis[i] = ends[2*i], ends[2*i+1]
		}
		checkCountRanges(t, "ascending, paired in turn", u, all, wlos, whis)
	})
}

// BenchmarkUpdatableCountKeys is the MultiGet kernel's own rows at the
// referee's three partition sizes: 8,192 keys a call, half of them
// indexed, ascending (the order both engines hand it) and not, on a clean
// partition and with a 4,096-key buffer beside the base. Eight
// partitions in turn, a fresh batch from a pool on every iteration.
func BenchmarkUpdatableCountKeys(b *testing.B) {
	const batch = 8192
	for _, n := range []int{40960, 163840, 2097152} {
		for _, buffered := range []int{0, DefaultMergeThreshold} {
			parts := sync.OnceValue(func() []*Updatable {
				parts := make([]*Updatable, 8)
				for i := range parts {
					// The threshold is out of reach: the buffer stays a buffer.
					parts[i] = NewUpdatable(workload.SortedKeys(n, uint64(i+1)), BuildSortedArray, 2*DefaultMergeThreshold)
					parts[i].InsertBatch(workload.UniformQueries(buffered, uint64(i+9)))
				}
				return parts
			})
			for _, order := range []string{"sorted", "unsorted"} {
				b.Run(fmt.Sprintf("%d/delta%d/%s", n, buffered, order), func(b *testing.B) {
					parts := parts()
					r := workload.NewRNG(2)
					pool := make([][]workload.Key, 64)
					for i := range pool {
						base := parts[i%len(parts)].pin().keys
						pool[i] = make([]workload.Key, batch)
						for j := range pool[i] {
							pool[i][j] = r.Key()
							if j%2 == 0 {
								pool[i][j] = base[r.Intn(n)]
							}
						}
						if order == "sorted" {
							slices.Sort(pool[i])
						}
					}
					out, under := make([]int, batch), make([]int, batch)
					for i, u := range parts {
						u.CountKeys(pool[i], out, under) // first touch of every partition off the clock
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						parts[i%len(parts)].CountKeys(pool[i%len(pool)], out, under)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/key")
				})
			}
		}
	}
}
