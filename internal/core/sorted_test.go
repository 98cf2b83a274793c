package core

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/workload"
)

// groundTruth computes ranks with sort.SearchInts — an implementation
// with nothing in common with any of the five methods' kernels.
func groundTruth(keys []workload.Key, queries []workload.Key) []int {
	ints := make([]int, len(keys))
	for i, k := range keys {
		ints[i] = int(k)
	}
	out := make([]int, len(queries))
	for i, q := range queries {
		out[i] = sort.SearchInts(ints, int(q)+1)
	}
	return out
}

// sweepKeySets builds the adversarial key sets the sorted path must
// survive: duplicate-heavy runs (partition boundaries landing inside a
// duplicate run, delimiters equal across partitions) and skewed
// clusters (distributions hostile to interpolation and to exponential
// search).
func sweepKeySets() map[string][]workload.Key {
	dupHeavy := make([]workload.Key, 0, 4096)
	for v := 0; v < 64; v++ {
		for r := 0; r < 64; r++ {
			dupHeavy = append(dupHeavy, workload.Key(v*100))
		}
	}
	skewed := make([]workload.Key, 0, 4096)
	for i := 0; i < 1024; i++ {
		skewed = append(skewed, workload.Key(i)) // dense low cluster
	}
	for i := 0; i < 1024; i++ {
		skewed = append(skewed, workload.Key(1<<31)+workload.Key(i)*7) // mid cluster
	}
	for i := 0; i < 1024; i++ {
		skewed = append(skewed, ^workload.Key(0)-workload.Key(1024*31)+workload.Key(i)*31) // top cluster
	}
	sort.Slice(skewed, func(i, j int) bool { return skewed[i] < skewed[j] })
	return map[string][]workload.Key{
		"uniform":  workload.SortedKeys(8192, 1),
		"dupheavy": dupHeavy,
		"skewed":   skewed,
	}
}

// sweepQueries derives a duplicate-heavy, boundary-probing query set
// from the key set: every key, its neighbors, extremes, and uniform
// fill — returned sorted ascending.
func sweepQueries(keys []workload.Key, n int, seed uint64) []workload.Key {
	qs := make([]workload.Key, 0, n)
	r := workload.NewRNG(seed)
	for len(qs) < n/2 {
		k := keys[r.Intn(len(keys))]
		qs = append(qs, k)
		if k > 0 {
			qs = append(qs, k-1)
		}
		qs = append(qs, k+1, k) // duplicate hits
	}
	qs = append(qs, 0, 0, ^workload.Key(0), ^workload.Key(0))
	for len(qs) < n {
		qs = append(qs, workload.Key(r.Uint64()>>32))
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	return qs
}

// shuffled returns a deterministic permutation of qs.
func shuffled(qs []workload.Key, seed uint64) []workload.Key {
	out := append([]workload.Key(nil), qs...)
	r := workload.NewRNG(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestSortedPathCrossMethodSweep asserts the acceptance property: for
// all five methods, over duplicate-heavy and adversarially skewed key
// sets, the sorted path's ranks are bit-identical to the unsorted
// path's and to the sort.SearchInts ground truth — including with 4
// concurrent callers (run under -race in CI).
func TestSortedPathCrossMethodSweep(t *testing.T) {
	for setName, keys := range sweepKeySets() {
		sortedQs := sweepQueries(keys, 6000, 7)
		unsortedQs := shuffled(sortedQs, 8)
		truthSorted := groundTruth(keys, sortedQs)
		truthUnsorted := groundTruth(keys, unsortedQs)

		for _, m := range Methods() {
			cfg := RealConfig{Method: m, Workers: 4, BatchKeys: 512, QueueDepth: 2}
			c, err := NewCluster(keys, cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", setName, m, err)
			}

			check := func(qs []workload.Key, want []int, label string) {
				t.Helper()
				got, err := c.LookupBatch(qs)
				if err != nil {
					t.Fatalf("%s/%v %s: %v", setName, m, label, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%v %s: rank[%d](%d) = %d, want %d",
							setName, m, label, i, qs[i], got[i], want[i])
					}
				}
			}
			check(sortedQs, truthSorted, "sorted")
			check(unsortedQs, truthUnsorted, "unsorted")

			// 4 concurrent callers, mixing sorted and unsorted
			// batches through the same worker pool.
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					qs, want := sortedQs, truthSorted
					if g%2 == 1 {
						qs, want = unsortedQs, truthUnsorted
					}
					for rep := 0; rep < 3; rep++ {
						got, err := c.LookupBatch(qs)
						if err != nil {
							t.Errorf("caller %d: %v", g, err)
							return
						}
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("caller %d rep %d: rank[%d] = %d, want %d", g, rep, i, got[i], want[i])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			c.Close()
		}
	}
}

// TestSortedDispatchTinyAndEdgeBatches covers dispatch shapes the sweep
// can miss: empty, single-key, all-one-partition, and batch sizes that
// leave sub-BatchKeys tails per partition.
func TestSortedDispatchTinyAndEdgeBatches(t *testing.T) {
	keys := workload.SortedKeys(2048, 3)
	c, err := NewCluster(keys, RealConfig{Method: MethodC3, Workers: 8, BatchKeys: 7, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cases := [][]workload.Key{
		{},
		{0},
		{^workload.Key(0)},
		{keys[0], keys[0], keys[0]}, // one partition, dups
		{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 17}, // crosses BatchKeys inside one partition
		sweepQueries(keys, 300, 9),
	}
	for ci, qs := range cases {
		want := groundTruth(keys, qs)
		got, err := c.LookupBatch(qs)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %d: rank[%d](%d) = %d, want %d", ci, i, qs[i], got[i], want[i])
			}
		}
	}
}

// TestRadixSortByKey pins the pooled radix sorter: stable, ascending,
// permutation valid, zero allocations once warm.
func TestRadixSortByKey(t *testing.T) {
	var rs radixScratch
	for _, n := range []int{0, 1, 2, 100, 4096} {
		r := workload.NewRNG(uint64(n) + 1)
		qs := make([]workload.Key, n)
		for i := range qs {
			qs[i] = workload.Key(r.Uint64() >> 40) // narrow range: forces duplicate keys
		}
		keys, pos := rs.sortByKey(qs)
		if len(keys) != n || len(pos) != n {
			t.Fatalf("n=%d: got %d keys %d pos", n, len(keys), len(pos))
		}
		seen := make([]bool, n)
		for i := range keys {
			if i > 0 && keys[i] < keys[i-1] {
				t.Fatalf("n=%d: not ascending at %d", n, i)
			}
			if i > 0 && keys[i] == keys[i-1] && pos[i] < pos[i-1] {
				t.Fatalf("n=%d: unstable at %d", n, i)
			}
			if qs[pos[i]] != keys[i] {
				t.Fatalf("n=%d: permutation broken at %d", n, i)
			}
			if seen[pos[i]] {
				t.Fatalf("n=%d: position %d repeated", n, pos[i])
			}
			seen[pos[i]] = true
		}
	}
}
