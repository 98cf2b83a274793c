package core

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestCheckCallSize(t *testing.T) {
	for _, n := range []int{0, 1, math.MaxInt32} {
		if err := CheckCallSize(n); err != nil {
			t.Errorf("CheckCallSize(%d) = %v, want nil", n, err)
		}
	}
	if strconv.IntSize > 32 {
		over := math.MaxInt32
		over++ // a constant MaxInt32+1 would not compile where int is 32 bits
		for _, n := range []int{over, 2 * over} {
			if err := CheckCallSize(n); err == nil {
				t.Errorf("CheckCallSize(%d) = nil: positions past MaxInt32 would wrap", n)
			}
		}
	}
}

func TestHandoff(t *testing.T) {
	cases := []struct{ workers, batchKeys, n, want int }{
		{8, 16384, 1, handoffFloor},
		{8, 16384, 8 * 8 * handoffFloor, handoffFloor},
		{8, 16384, 65536, 1024},
		{8, 16384, 131072, 2048},
		{8, 16384, 1 << 20, 16384},
		{8, 16384, 1 << 24, 16384}, // BatchKeys is the ceiling
		{8, 7, 65536, 7},           // and wins over the floor
		{1, 16384, 65536, 8192},
		{65, 16384, 1 << 20, 2016},
	}
	for _, cse := range cases {
		c := &Cluster{cfg: RealConfig{Workers: cse.workers, BatchKeys: cse.batchKeys}}
		if got := c.handoff(cse.n); got != cse.want {
			t.Errorf("handoff(%d) with %d workers, BatchKeys %d = %d, want %d", cse.n, cse.workers, cse.batchKeys, got, cse.want)
		}
	}
}

// dispatchShapes builds the query shapes of the pipeline table over
// keys, n queries each.
func dispatchShapes(keys []workload.Key, n int) map[string][]workload.Key {
	// Everything at or above the largest key routes to the last
	// partition whatever the worker count: one worker's queue takes
	// every slice, which is the queueDepth back-pressure arm of send.
	last := keys[len(keys)-1]
	r := workload.NewRNG(uint64(n))
	onePart := make([]workload.Key, n)
	for i := range onePart {
		onePart[i] = last + workload.Key(r.Uint64())%(^workload.Key(0)-last)
	}
	repeated := make([]workload.Key, n)
	for i := range repeated {
		repeated[i] = keys[len(keys)/2]
	}
	desc := make([]workload.Key, n)
	for i := range desc {
		desc[i] = ^workload.Key(0) - workload.Key(i)*(^workload.Key(0)/workload.Key(n))
	}
	return map[string][]workload.Key{
		"uniform":      workload.UniformQueries(n, uint64(n)+1),
		"onePartition": onePart,
		"repeatedKey":  repeated,
		"descending":   desc,
	}
}

// TestDispatchPipelines pins the pipelined master: a call is handed to
// the workers in slices while it is still being routed, every answer is
// the oracle's under every slicing, and no pooled batch is lost to the
// non-blocking drain.
func TestDispatchPipelines(t *testing.T) {
	keys := workload.SortedKeys(40000, 11)

	t.Run("slicesBeforeRoutingEnds", func(t *testing.T) {
		cfg := DefaultRealConfig(MethodC3)
		c, err := NewCluster(keys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		qs := workload.UniformQueries(65536, 12)
		before := c.Stats().Batches
		got, err := c.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		// One batch per worker is what a master that routes the whole
		// call before handing anything over sends.
		if sent := c.Stats().Batches - before; sent < int64(4*cfg.Workers) {
			t.Errorf("a 65536-key call was handed over in %d batches, want well more than %d", sent, cfg.Workers)
		}
		for i, want := range groundTruth(keys, qs) {
			if got[i] != want {
				t.Fatalf("rank(%d) = %d, want %d", qs[i], got[i], want)
			}
		}
	})

	t.Run("table", func(t *testing.T) {
		floor := handoffFloor
		// Around every edge of handoff: one slice, a slice per worker,
		// where eight workers' slices start to grow (64 floors), and
		// where BatchKeys caps them (2^20 at the defaults).
		sizes := []int{1, floor - 1, floor, floor + 1, 8*floor - 1, 8 * floor, 8*floor + 1,
			64*floor - 1, 64*floor + 1, 65536, 131071, 131073, 1 << 20}
		type shape struct {
			name string
			qs   []workload.Key
			want []int
		}
		var shapes []shape
		for _, n := range sizes {
			for name, qs := range dispatchShapes(keys, n) {
				shapes = append(shapes, shape{fmt.Sprintf("%s/%d", name, n), qs, groundTruth(keys, qs)})
			}
		}
		out := make([]int, 1<<20)
		for _, workers := range []int{1, 3, 8, 65} {
			for _, batchKeys := range []int{1, 7, 16384} {
				c := newTestCluster(t, MethodC3, keys, workers, batchKeys)
				for _, sh := range shapes {
					// Below the floor BatchKeys alone sets the slice, so
					// the long calls would only repeat the short ones, a
					// hand-off per key.
					if batchKeys < floor && len(sh.qs) > 64*floor+1 {
						continue
					}
					cs := c.getCall()
					resting := len(c.freeBatches)
					before := c.Stats().Batches
					got := out[:len(sh.qs)]
					c.rankDispatch(cs, sh.qs, got, opRank)
					if sent := int(c.Stats().Batches - before); cap(cs.reply) < sent {
						t.Errorf("%s, %d workers, BatchKeys %d: %d slices sent, reply channel holds %d", sh.name, workers, batchKeys, sent, cap(cs.reply))
					}
					if free := len(c.freeBatches); free < resting {
						t.Errorf("%s, %d workers, BatchKeys %d: %d batches free after the call, %d before it", sh.name, workers, batchKeys, free, resting)
					}
					c.putCall(cs)
					for i, want := range sh.want {
						if got[i] != want {
							t.Fatalf("%s, %d workers, BatchKeys %d: rank(%d) = %d, want %d", sh.name, workers, batchKeys, sh.qs[i], got[i], want)
						}
					}
				}
			}
		}
	})

	// Four callers slice their calls while inserts merge and rebalance
	// underneath: every slice must be answered by the epoch that routed
	// it, so each rank stays between the seed oracle's and the final
	// one's, and is exact once the writes stop.
	t.Run("concurrentWithRebalance", func(t *testing.T) {
		cfg := DefaultRealConfig(MethodC3)
		cfg.MergeThreshold = 512
		c, err := NewCluster(keys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		limit := c.Partitioning().Delimiters()[0]
		r := workload.NewRNG(13)
		inserts := make([]workload.Key, 24000) // partition 0 starts at 5000 keys: past its budget
		for i := range inserts {
			inserts[i] = workload.Key(r.Uint64()) % limit
		}
		qs := workload.UniformQueries(65536, 14)
		for i := 0; i < len(qs); i += 2 {
			qs[i] %= limit // half the call lands where the inserts do
		}
		lo := groundTruth(keys, qs)
		final := newOracle(keys)
		final.insert(inserts)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]int, len(qs))
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := c.LookupBatchInto(qs, out); err != nil {
						t.Error(err)
						return
					}
					for i, q := range qs {
						if out[i] < lo[i] || out[i] > final.rank(q) {
							t.Errorf("rank(%d) = %d outside [%d, %d]", q, out[i], lo[i], final.rank(q))
							return
						}
					}
				}
			}()
		}
		for off := 0; off < len(inserts); off += 500 {
			if err := c.InsertBatch(inserts[off : off+500]); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for c.UpdateStats().Rebalances < 1 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		close(stop)
		wg.Wait()
		if st := c.UpdateStats(); st.Rebalances < 1 || st.Merges < 1 {
			t.Fatalf("the insert stream caused %d merges and %d rebalances, want both", st.Merges, st.Rebalances)
		}
		checkExact(t, c, final, qs)
	})
}
