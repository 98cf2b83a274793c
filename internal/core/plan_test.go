package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/workload"
)

// zeroRunKeys is cutRunKeys' shape at the bottom of the key space: key 0
// at positions 0–59 of 100, so four equal partitions cut its run twice
// (delimiters 0, 1, ...) and copies of 0 sit below Route(0).
func zeroRunKeys() []workload.Key {
	keys := make([]workload.Key, 100)
	for i := 60; i < len(keys); i++ {
		keys[i] = workload.Key(i - 59)
	}
	return keys
}

// planReq is a test engine's request: the lists Plan.Keys fills.
type planReq struct {
	keys []workload.Key
	pos  []int32
}

// TestKeyPlan holds Plan.Keys to Route on random batches of every shape
// it branches on — ascending, unsorted (the run-only sort for MultiGet),
// duplicate-heavy, keys equal to delimiters, repeated delimiters, one
// partition — for each op and several request sizes: every input position
// lands in exactly one request, of the partition its key routes to; for
// MultiGet the plan records, for a position whose key has copies under
// that partition, exactly their count (AddBelow), and for no other
// position; no per-key request holds more than per keys and no run more
// than run; a run without positions is the call's own keys from PosBase
// on.
func TestKeyPlan(t *testing.T) {
	sets := []struct {
		name  string
		keys  []workload.Key
		parts int
	}{
		{"uniform", workload.SortedKeys(4096, 5), 8},
		{"dupheavy", sweepKeySets()["dupheavy"], 100}, // 64 copies a key, ~41 keys a partition
		{"cut-run", cutRunKeys(), 4},
		{"zero-run", zeroRunKeys(), 4},
		{"one-partition", workload.SortedKeys(1000, 7), 1},
	}
	for _, set := range sets {
		p, err := NewPartitioning(set.keys, set.parts)
		if err != nil {
			t.Fatal(err)
		}
		// under(k) counts the copies of k that partitions below Route(k)
		// hold.
		memo := map[workload.Key]int{}
		under := func(k workload.Key) int {
			if n, ok := memo[k]; ok {
				return n
			}
			n := 0
			for _, part := range p.Parts[:p.Route(k)] {
				n += countKey(part.Keys, k)
			}
			memo[k] = n
			return n
		}
		r := workload.NewRNG(uint64(len(set.keys)))
		edges := []workload.Key{0, 1, ^workload.Key(0)}
		for _, d := range p.Delimiters() {
			edges = append(edges, d-1, d, d, d+1)
		}
		random := make([]workload.Key, 3000)
		for i := range random {
			switch i % 3 {
			case 0:
				random[i] = set.keys[r.Intn(len(set.keys))]
			case 1:
				random[i] = edges[r.Intn(len(edges))]
			default:
				random[i] = workload.Key(r.Uint64() >> 32)
			}
		}
		dups := make([]workload.Key, 2000)
		for i := range dups {
			dups[i] = edges[r.Intn(min(len(edges), 6))]
		}
		shapes := map[string][]workload.Key{
			"unsorted":   random,
			"sorted":     sortedKeys(random),
			"dups":       dups,
			"sortedDups": sortedKeys(dups),
			"delims":     sortedKeys(append(slices.Clone(p.Delimiters()), edges...)),
		}
		for shape, qs := range shapes {
			for _, op := range []KeyOp{RankKeys, MultiGetKeys, InsertKeys} {
				for _, size := range [][2]int{{1, 5}, {7, 64}, {64, 1000}} {
					tag := fmt.Sprintf("%s/%s/op%d/per%d-run%d", set.name, shape, op, size[0], size[1])
					checkKeyPlan(t, tag, p, qs, op, size[0], size[1], under)
				}
			}
		}
	}

	// The counts below reach a cluster's answer: every copy of the key
	// under the partition it routes to is counted, for the key 0 too.
	for _, keys := range [][]workload.Key{cutRunKeys(), zeroRunKeys()} {
		c, err := NewCluster(keys, RealConfig{Method: MethodC3, Workers: 4, BatchKeys: 16})
		if err != nil {
			t.Fatal(err)
		}
		k := keys[50]
		want := newQueryOracle(keys).multiplicity(k)
		qs := []workload.Key{k, 7, k, k + 1, k}
		muls, err := c.MultiGet(qs)
		if err != nil || muls[0] != want || muls[2] != want || muls[4] != want {
			t.Errorf("MultiGet(%d) = %v (err %v), want %d at 0, 2, 4", k, muls, err, want)
		}
		if n, err := c.CountRange(k, k); err != nil || n != want {
			t.Errorf("CountRange(%d, %d) = %d (err %v), want %d", k, k, n, err, want)
		}
		c.Close()
	}
}

func sortedKeys(qs []workload.Key) []workload.Key {
	out := slices.Clone(qs)
	slices.Sort(out)
	return out
}

// checkKeyPlan plans qs once and checks every request against Route.
func checkKeyPlan(t *testing.T, tag string, p *Partitioning, qs []workload.Key, op KeyOp, per, run int, under func(workload.Key) int) {
	t.Helper()
	var pl Plan[workload.Key, *planReq]
	asked := make([]map[int]int, len(qs)) // position -> partition -> asks
	for i := range asked {
		asked[i] = map[int]int{}
	}
	inserted := map[[2]int]int{} // (partition, key) -> copies
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: "+format, append([]any{tag}, args...)...)
	}
	pl.Keys(p, qs, op, per, run, func(int) (*planReq, *[]workload.Key, *[]int32) {
		r := new(planReq)
		if op == InsertKeys {
			return r, &r.keys, nil
		}
		return r, &r.keys, &r.pos
	}, func(s int, r *planReq) {
		if len(r.keys) == 0 || len(r.keys) > per {
			fail("a per-key request of %d keys, per %d", len(r.keys), per)
		}
		if op == InsertKeys && r.pos != nil {
			fail("an insert request carries positions")
		}
		for i, k := range r.keys {
			if p.Route(k) != s {
				fail("key %d in partition %d's request, routes to %d", k, s, p.Route(k))
			}
			if op == InsertKeys {
				inserted[[2]int{s, int(k)}]++
				continue
			}
			if qs[r.pos[i]] != k {
				fail("position %d holds %d, the request says %d", r.pos[i], qs[r.pos[i]], k)
			}
			asked[r.pos[i]][s]++
		}
	}, func(r KeyRun) {
		if op == InsertKeys {
			fail("an insert call cut into runs")
		}
		if len(r.Keys) == 0 || len(r.Keys) > run {
			fail("a run of %d keys, run %d", len(r.Keys), run)
		}
		if r.Sorted && !SortedRun(r.Keys) {
			fail("a run marked sorted does not ascend")
		}
		if !r.Sorted && (op == MultiGetKeys || len(p.Parts) > 1) {
			fail("an unsorted run for op %d over %d partitions", op, len(p.Parts))
		}
		for i, k := range r.Keys {
			pos := r.PosBase + i
			if r.Pos != nil {
				pos = int(r.Pos[i])
			} else if &r.Keys[i] != &qs[pos] {
				fail("a run without positions is not the call's keys from %d on", r.PosBase)
			}
			if qs[pos] != k {
				fail("position %d holds %d, the run says %d", pos, qs[pos], k)
			}
			if s := p.Route(k); s != r.Part {
				fail("key %d in partition %d's run, routes to %d", k, r.Part, s)
			}
			asked[pos][r.Part]++
		}
	})

	if op == InsertKeys {
		want := map[[2]int]int{}
		for _, k := range qs {
			want[[2]int{p.Route(k), int(k)}]++
		}
		if !maps.Equal(want, inserted) {
			fail("inserted %d (partition, key) pairs, want %d", len(inserted), len(want))
		}
		return
	}
	below := map[int32]int{} // position -> the count recorded to add
	for _, b := range pl.below {
		if _, ok := below[b.pos]; ok {
			fail("position %d recorded twice for AddBelow", b.pos)
		}
		below[b.pos] = b.n
	}
	for i, k := range qs {
		s := p.Route(k)
		if asked[i][s] != 1 || len(asked[i]) != 1 {
			fail("position %d (key %d) asked of partitions %v, want %d once", i, k, asked[i], s)
		}
		want := 0
		if op == MultiGetKeys {
			want = under(k)
		}
		if got, ok := below[int32(i)]; got != want || ok != (want > 0) {
			fail("position %d (key %d, partition %d): recorded %d copies below (%v), want %d", i, k, s, got, ok, want)
		}
	}
}
