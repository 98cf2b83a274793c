package index

import (
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

// The kernel on a dense ascending run must stream: every key compare
// either advances the cursor or resolves a query, so total work is
// linear. This is a performance property we can only smoke-test
// functionally here; the benchmark rows carry the numbers.
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
