package index

import (
	"math/rand"
	"sort"
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

func TestSortedArraySelectScanCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := sortedRandomKeys(rng, 500, 2000)
	a := NewSortedArray(keys, 0)

	for i, k := range keys {
		got, ok := a.Select(i)
		if !ok || got != k {
			t.Fatalf("Select(%d) = %d, %v; want %d", i, got, ok, k)
		}
	}
	if _, ok := a.Select(-1); ok {
		t.Fatal("Select(-1) should fail")
	}
	if _, ok := a.Select(len(keys)); ok {
		t.Fatal("Select(n) should fail")
	}
	// Select is Rank's inverse: Select(Rank(k)-1) <= k.
	for trial := 0; trial < 200; trial++ {
		k := workload.Key(rng.Intn(2100))
		r := a.Rank(k)
		if r > 0 {
			got, ok := a.Select(r - 1)
			if !ok || got > k {
				t.Fatalf("Select(Rank(%d)-1) = %d, %v", k, got, ok)
			}
		}
	}

	for trial := 0; trial < 200; trial++ {
		lo := workload.Key(rng.Intn(2100))
		hi := workload.Key(rng.Intn(2100))
		want := 0
		for _, k := range keys {
			if k >= lo && k <= hi {
				want++
			}
		}
		if got := a.CountRange(lo, hi); got != want {
			t.Fatalf("CountRange(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}

	for trial := 0; trial < 50; trial++ {
		rank := rng.Intn(len(keys) + 2)
		limit := rng.Intn(40)
		cur := a.ScanFrom(rank, limit)
		want := rank + limit
		if want > len(keys) {
			want = len(keys)
		}
		start := rank
		if start > len(keys) {
			start = len(keys)
		}
		var got []workload.Key
		for {
			k, ok := cur.Next()
			if !ok {
				break
			}
			got = append(got, k)
		}
		if len(got) != want-start {
			t.Fatalf("ScanFrom(%d,%d) yielded %d keys, want %d", rank, limit, len(got), want-start)
		}
		for i, k := range got {
			if k != keys[start+i] {
				t.Fatalf("ScanFrom(%d,%d)[%d] = %d, want %d", rank, limit, i, k, keys[start+i])
			}
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
		all = MergeKeys(all, NewDelta(ins).Keys())

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
				if want := all[len(all)-1-i]; key != want {
					t.Fatalf("round %d: TopK(%d)[%d] = %d, want %d", round, k, i, key, want)
				}
			}
		}

		qs := make([]workload.Key, 60)
		for i := range qs {
			qs[i] = workload.Key(rng.Intn(3100))
		}
		out := make([]int, len(qs))
		u.CountKeys(qs, out)
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

func (tr treeRanker) RankBatch(qs []workload.Key, out []int, add int) {
	for i, k := range qs {
		out[i] = tr.t.Rank(k) + add
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
	top := u.TopK(3, nil)
	for i, k := range top {
		if want := all[len(all)-1-i]; k != want {
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
