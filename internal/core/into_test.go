package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestMethodRankersPositions holds every method's base ranker — the tree
// adapter (A, C-1), the buffered-plan adapter (B, C-2) and the sorted
// array (C-3) — to the oracle in its positions form: under a random
// permutation pos into an out with room to spare, out[pos[i]] is the rank
// of qs[i] plus add, and no other slot is written.
func TestMethodRankersPositions(t *testing.T) {
	keys := workload.SortedKeys(20000, 3)
	r := workload.NewRNG(4)
	qs := make([]workload.Key, 5000)
	for i := range qs {
		switch i % 3 {
		case 0:
			qs[i] = keys[r.Intn(len(keys))]
		case 1:
			qs[i] = workload.Key(r.Intn(64)) // below most keys, many repeats
		default:
			qs[i] = r.Key()
		}
	}
	const add, filler = 17, -1
	for _, m := range Methods() {
		rk := methodBuilder(RealConfig{Method: m})(keys)
		for _, n := range []int{0, 1, 15, 17, len(qs)} {
			slots := make([]int32, 2*n+3)
			for j := range slots {
				slots[j] = int32(j)
			}
			for j := len(slots) - 1; j > 0; j-- {
				k := r.Intn(j + 1)
				slots[j], slots[k] = slots[k], slots[j]
			}
			out := make([]int, len(slots))
			for j := range out {
				out[j] = filler
			}
			rk.RankInto(qs[:n], slots[:n], out, add)
			in := make([]bool, len(out))
			for i, p := range slots[:n] {
				in[p] = true
				if want := sort.Search(len(keys), func(j int) bool { return keys[j] > qs[i] }) + add; out[p] != want {
					t.Fatalf("%v, %d keys: rank of %d at slot %d = %d, want %d", m, n, qs[i], p, out[p], want)
				}
			}
			for j, v := range out {
				if !in[j] && v != filler {
					t.Fatalf("%v, %d keys: slot %d, in no position, was written (%d)", m, n, j, v)
				}
			}
		}
	}
}

// TestLookupBatchIntoLeavesTail checks that the workers, which write each
// answer into the caller's out, write out[:len(queries)] and nothing past
// it: for every method, and Method C-3 on one partition, three callers
// reuse one out each, longer than their calls, over sorted and unsorted
// rank calls and MultiGet calls of several lengths, while another
// goroutine inserts. Every answer lies in the envelope of the index
// before and after the inserts, and every slot past the call keeps the
// value the caller left there. Run it under -race: a worker that wrote
// out after its call returned would race with the caller's next fill.
func TestLookupBatchIntoLeavesTail(t *testing.T) {
	keys := workload.SortedKeys(30000, 21)
	ins := workload.UniformQueries(3000, 22)
	before, after := newQueryOracle(keys), newQueryOracle(keys)
	after.add(ins)
	configs := map[string]RealConfig{"one-partition C-3": {Method: MethodC3, Workers: 1, BatchKeys: 256, QueueDepth: 2}}
	for _, m := range Methods() {
		configs[m.String()] = RealConfig{Method: m, Workers: 4, BatchKeys: 256, QueueDepth: 2}
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			c, err := NewCluster(keys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < len(ins); i += 100 {
					if err := c.InsertBatch(ins[i : i+100]); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for caller := range 3 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := reuseOut(c, keys, before, after, uint64(caller)); err != nil {
						t.Errorf("caller %d: %v", caller, err)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// reuseOut is one caller of TestLookupBatchIntoLeavesTail: calls of
// several lengths and shapes into one out of 5,000 slots, whose tail past
// each call is a marker the call must leave alone.
func reuseOut(c *Cluster, keys []workload.Key, before, after *queryOracle, seed uint64) error {
	r := workload.NewRNG(seed + 100)
	out := make([]int, 5000)
	marker := func(j int) int { return -1000 - j }
	for round := 0; round < 24; round++ {
		n := []int{1, 17, 700, 1500, 4999}[round%5]
		qs := make([]workload.Key, n)
		for i := range qs {
			qs[i] = r.Key()
		}
		if round%3 == 1 {
			slices.Sort(qs)
		}
		multiGet := round%4 == 3
		if multiGet {
			for i := range qs {
				qs[i] = keys[r.Intn(len(keys))]
			}
		}
		for j := range out {
			out[j] = marker(j)
		}
		var err error
		if multiGet {
			err = c.MultiGetInto(qs, out)
		} else {
			err = c.LookupBatchInto(qs, out)
		}
		if err != nil {
			return err
		}
		for i, q := range qs {
			lo, hi := before.countRange(0, q), after.countRange(0, q)
			if multiGet {
				lo, hi = before.multiplicity(q), after.multiplicity(q)
			}
			if out[i] < lo || out[i] > hi {
				return fmt.Errorf("round %d (%d keys, multiGet %v): answer %d for %d outside [%d, %d]", round, n, multiGet, out[i], q, lo, hi)
			}
		}
		for j := n; j < len(out); j++ {
			if out[j] != marker(j) {
				return fmt.Errorf("round %d (%d keys, multiGet %v): out[%d] past the call was written (%d)", round, n, multiGet, j, out[j])
			}
		}
	}
	return nil
}
