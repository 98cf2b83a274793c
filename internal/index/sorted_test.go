package index

import (
	"encoding/binary"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// refRank is the ground truth: the number of keys <= q.
func refRank(keys []workload.Key, q workload.Key) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] > q })
}

// ascQueries deterministically derives an ascending query run (with
// duplicates) from a raw value stream.
func ascQueries(raw []uint32) []workload.Key {
	qs := make([]workload.Key, len(raw))
	for i, v := range raw {
		qs[i] = workload.Key(v)
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	return qs
}

func TestRankSortedMatchesRankBatch(t *testing.T) {
	keySets := map[string][]workload.Key{
		"empty":     {},
		"single":    {42},
		"dups":      {5, 5, 5, 9, 9, 100, 100, 100, 100},
		"uniform":   workload.SortedKeys(5000, 1),
		"clustered": nil, // filled below
		"constant":  {7, 7, 7, 7, 7, 7},
	}
	clustered := make([]workload.Key, 0, 3000)
	for i := 0; i < 1000; i++ {
		clustered = append(clustered, workload.Key(i), workload.Key(1<<30+i), workload.Key(4<<30+i*7))
	}
	sort.Slice(clustered, func(i, j int) bool { return clustered[i] < clustered[j] })
	keySets["clustered"] = clustered

	for name, keys := range keySets {
		t.Run(name, func(t *testing.T) {
			a := NewSortedArray(keys, 0)
			// Query run mixing out-of-range lows/highs, exact hits,
			// duplicates, and gaps — ascending.
			var qs []workload.Key
			qs = append(qs, 0, 0, 1)
			for _, k := range keys {
				qs = append(qs, k)
				if k > 0 {
					qs = append(qs, k-1)
				}
				if k < ^workload.Key(0) {
					qs = append(qs, k+1)
				}
			}
			qs = append(qs, ^workload.Key(0)-1, ^workload.Key(0), ^workload.Key(0))
			sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })

			got := make([]int, len(qs))
			want := make([]int, len(qs))
			a.RankSorted(qs, got, 3)
			a.RankBatch(qs, want, 3)
			for i := range qs {
				if got[i] != want[i] {
					t.Fatalf("RankSorted[%d](%d) = %d, want %d", i, qs[i], got[i], want[i])
				}
				if ref := refRank(keys, qs[i]) + 3; got[i] != ref {
					t.Fatalf("RankSorted[%d](%d) = %d, ground truth %d", i, qs[i], got[i], ref)
				}
			}
		})
	}
}

// Property: for any key set (duplicates allowed) and any ascending query
// run, RankSorted equals the binary-search ground truth.
func TestRankSortedProperty(t *testing.T) {
	f := func(rawKeys, rawQs []uint32, add uint16) bool {
		keys := ascQueries(rawKeys) // sorted, dups allowed
		qs := ascQueries(rawQs)
		a := NewSortedArray(keys, 0)
		out := make([]int, len(qs))
		a.RankSorted(qs, out, int(add))
		for i, q := range qs {
			if out[i] != refRank(keys, q)+int(add) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The kernel on a run denser than the keys it crosses (0.3 keys per
// query) merges: every key compare either advances the cursor or
// resolves a query, so total work is linear. BenchmarkSortedArrayRankSorted
// carries the other densities.
func BenchmarkRankSortedDense(b *testing.B) {
	keys := workload.SortedKeys(40960, 1)
	a := NewSortedArray(keys, 0)
	qs := ascQueries(func() []uint32 {
		r := workload.NewRNG(2)
		raw := make([]uint32, 1<<17)
		for i := range raw {
			raw[i] = uint32(r.Uint64())
		}
		return raw
	}())
	out := make([]int, len(qs))
	b.SetBytes(int64(len(qs) * workload.KeyBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RankSorted(qs, out, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(qs)), "ns/key")
}

func BenchmarkRankBatchUnsortedSameShape(b *testing.B) {
	keys := workload.SortedKeys(40960, 1)
	a := NewSortedArray(keys, 0)
	r := workload.NewRNG(2)
	qs := make([]workload.Key, 1<<17)
	for i := range qs {
		qs[i] = workload.Key(r.Uint64() >> 32)
	}
	out := make([]int, len(qs))
	b.SetBytes(int64(len(qs) * workload.KeyBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RankBatch(qs, out, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(qs)), "ns/key")
}

// uniformRun is m ascending queries drawn uniformly from [lo, hi].
func uniformRun(r *workload.RNG, m int, lo, hi workload.Key) []workload.Key {
	qs := make([]workload.Key, m)
	for i := range qs {
		qs[i] = lo + workload.Key(r.Uint64()%(uint64(hi-lo)+1))
	}
	slices.Sort(qs)
	return qs
}

// checkRankSorted holds RankSorted on the ascending run qs to sort.Search,
// and Delta.RankSortedAdd over the same keys to the same oracle on a
// pre-filled out; neither may write past the run.
func checkRankSorted(t *testing.T, a *SortedArray, qs []workload.Key) {
	t.Helper()
	const add = 1000003
	out := make([]int, len(qs)+1)
	a.RankSorted(qs, out, add)
	for i, q := range qs {
		if want := refRank(a.keys, q) + add; out[i] != want {
			t.Fatalf("run of %d over %d keys: RankSorted[%d](%d) = %d, want %d", len(qs), len(a.keys), i, q, out[i], want)
		}
	}
	if out[len(qs)] != 0 {
		t.Fatalf("run of %d: RankSorted wrote past its end", len(qs))
	}
	for i := range out {
		out[i] = 7 * i
	}
	emptyDelta.insert(a.keys, gridOf(a)).RankSortedAdd(qs, out)
	for i, q := range qs {
		if want := refRank(a.keys, q) + 7*i; out[i] != want {
			t.Fatalf("run of %d over %d keys: RankSortedAdd[%d](%d) = %d, want %d", len(qs), len(a.keys), i, q, out[i], want)
		}
	}
	if out[len(qs)] != 7*len(qs) {
		t.Fatalf("run of %d: RankSortedAdd wrote past its end", len(qs))
	}
}

// TestRankSortedDensities walks the benchmark's grid — every density at
// every array size, so the merge, the cursor windows and the hand-over
// to RankBatch each answer — with the runs capped so that the oracle
// stays affordable under the race detector.
func TestRankSortedDensities(t *testing.T) {
	r := workload.NewRNG(11)
	for _, n := range sortedRunGrid.sizes {
		keys := make([]workload.Key, n)
		for i := range keys {
			keys[i] = r.Key()
		}
		slices.Sort(keys)
		a := NewSortedArray(keys, 0)
		for _, d := range sortedRunGrid.densities {
			m := min(int(float64(n)/d), 1<<13)
			crossed := min(int(float64(m)*d), n)
			checkRankSorted(t, a, uniformRun(r, m, keys[0], keys[crossed-1]))
			// The same density in the middle of the array and at its end.
			checkRankSorted(t, a, uniformRun(r, m, keys[(n-crossed)/2], keys[(n-crossed)/2+crossed-1]))
			checkRankSorted(t, a, uniformRun(r, m, keys[n-crossed], maxKey))
		}
	}
}

// TestRankSortedAdversarial runs the kernel table's key sets through
// RankSorted with runs of every shape the kernel branches on: shorter
// than a lane group, around the shortest run a cursor takes, lengths that
// leave every possible tail after the lanes are dealt, queries that all
// coincide, that lie below the smallest key or above the largest, that
// follow the keys (so a clustered set is crossed cluster by cluster) and
// that ignore them.
func TestRankSortedAdversarial(t *testing.T) {
	for name, keys := range adversarialKeySets() {
		t.Run(name, func(t *testing.T) {
			a := NewSortedArray(keys, 0)
			r := workload.NewRNG(13)
			following := slices.Clone(adversarialQueries(keys))
			slices.Sort(following)
			checkRankSorted(t, a, following)
			for _, m := range []int{0, 1, lanes - 1, lanes, lanes + 1, minCursorRun - 1, minCursorRun, minCursorRun + 1,
				lanes*lanePer - 1, lanes * lanePer, lanes*lanePer + lanes + 3, 3*lanes*lanePer + 5*lanes + 7} {
				checkRankSorted(t, a, uniformRun(r, m, 0, maxKey))
				if len(keys) == 0 {
					continue
				}
				lo, hi := keys[0], keys[len(keys)-1]
				checkRankSorted(t, a, uniformRun(r, m, lo, hi))
				checkRankSorted(t, a, uniformRun(r, m, 0, lo))
				checkRankSorted(t, a, uniformRun(r, m, hi, maxKey))
				mid := keys[len(keys)/2]
				checkRankSorted(t, a, uniformRun(r, m, mid, mid))
				checkRankSorted(t, a, following[:min(m, len(following))])
			}
		})
	}
}

// TestSortedRunWindowMisses crosses a duplicate-heavy key set — every
// value a hundred times — at ten keys per query: the cursor windows are
// sized for tens of keys, so each value crossed is a jump no window
// holds, and only the edge check and the search behind it keep the ranks
// exact. The test checks that the cursor form did take the run and that
// the jumps are there.
func TestSortedRunWindowMisses(t *testing.T) {
	var keys []workload.Key
	for v := 0; v < 400; v++ {
		for c := 0; c < 100; c++ {
			keys = append(keys, workload.Key(v*10000))
		}
	}
	qs := uniformRun(workload.NewRNG(17), len(keys)/10, 0, keys[len(keys)-1])
	out := make([]int, len(qs))
	if !sortedRun(keys, qs, out, 0, true, len(keys)) {
		t.Fatal("a run of ten keys per query was declined")
	}
	jumps := 0
	for i, q := range qs {
		if want := refRank(keys, q); out[i] != want {
			t.Fatalf("sortedRun[%d](%d) = %d, want %d", i, q, out[i], want)
		}
		if i > 0 && out[i]-out[i-1] >= 100 {
			jumps++
		}
	}
	if jumps < 300 {
		t.Fatalf("only %d jumps of a hundred keys: the fallback went untested", jumps)
	}
	// A run too short or too sparse is declined with out untouched.
	for _, m := range []int{minCursorRun - 1, minCursorRun} {
		clear(out)
		if sortedRun(keys, qs[:m], out, 5, false, 2) || slices.Max(out) != 0 {
			t.Fatalf("a run of %d queries against a fresh search of 2 keys was taken, or written before it was declined", m)
		}
	}
}

// FuzzRankSorted cuts its input into keys and queries, spreads every
// query word into eight so that dense runs are common, and holds
// RankSorted, the buffer form and the cursor kernel on its own to the
// binary-search oracle.
func FuzzRankSorted(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0), uint16(0))
	f.Add(binary.LittleEndian.AppendUint32(nil, 7), uint16(1), uint8(31), uint16(1))
	dense := make([]byte, 4*200)
	for i := range dense {
		dense[i] = byte(i * 37)
	}
	f.Add(dense, uint16(40), uint8(0), uint16(3))
	f.Add(dense, uint16(150), uint8(8), uint16(40000))
	f.Fuzz(func(t *testing.T, data []byte, nkeys uint16, shift uint8, spread uint16) {
		var words []workload.Key
		for ; len(data) >= 4; data = data[4:] {
			words = append(words, workload.Key(binary.LittleEndian.Uint32(data)))
		}
		cut := min(int(nkeys), len(words))
		keys := words[:cut]
		for i := range keys {
			keys[i] >>= shift % 32
		}
		slices.Sort(keys)
		qs := []workload.Key{0, maxKey}
		for _, w := range words[cut:] {
			for k := 0; k < 8; k++ {
				qs = append(qs, w+workload.Key(k)*workload.Key(spread))
			}
		}
		slices.Sort(qs)

		a := NewSortedArray(keys, 0)
		checkRankSorted(t, a, qs)
		got := make([]int, len(qs))
		took := sortedRun(keys, qs, got, 0, true, 1<<30)
		for i, q := range qs {
			if want := refRank(keys, q); took && got[i] != want || !took && got[i] != 0 {
				t.Fatalf("sortedRun took the run: %v; [%d](%d) = %d, oracle %d", took, i, q, got[i], want)
			}
		}
	})
}
