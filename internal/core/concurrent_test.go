package core

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// The tentpole guarantee: N goroutines issuing overlapping batches
// through one cluster — across all five methods — all receive exactly
// the serial reference ranks. Run under -race this also proves the
// per-call gather state keeps callers fully isolated.
func TestConcurrentLookupBatchAllMethods(t *testing.T) {
	keys := workload.SortedKeys(20000, 11)
	const callers = 6
	const rounds = 4
	for _, m := range Methods() {
		t.Run(m.String(), func(t *testing.T) {
			c := newTestCluster(t, m, keys, 5, 512)
			var wg sync.WaitGroup
			errs := make(chan error, callers)
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					out := make([]int, 0)
					for r := 0; r < rounds; r++ {
						queries := workload.UniformQueries(2500+int(seed), seed*10+uint64(r))
						if cap(out) < len(queries) {
							out = make([]int, len(queries))
						}
						out = out[:len(queries)]
						if err := c.LookupBatchInto(queries, out); err != nil {
							errs <- err
							return
						}
						for i, q := range queries {
							if out[i] != workload.ReferenceRank(keys, q) {
								errs <- errWrongRank
								return
							}
						}
					}
				}(uint64(g))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// Close must block until in-flight calls complete (they finish with
// correct results), and late calls must fail cleanly. Every worker is
// parked on a reply nobody reads yet, so a call that enters cannot
// finish before Close is called: the race is decided by the test, not
// by the scheduler.
func TestCloseWhileCallsInFlight(t *testing.T) {
	keys := workload.SortedKeys(30000, 12)
	c, err := NewCluster(keys, RealConfig{Method: MethodC3, Workers: 4, BatchKeys: 256})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan *realBatch)
	ep := c.epoch.Load()
	for w := range c.in {
		c.in[w] <- &realBatch{lp: ep.lps[w], reply: gate}
	}
	const callers = 5
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			queries := workload.UniformQueries(60000, seed)
			got, err := c.LookupBatch(queries)
			if err != nil {
				errs <- err
				return
			}
			for i, q := range queries {
				if got[i] != workload.ReferenceRank(keys, q) {
					errs <- errWrongRank
					return
				}
			}
			errs <- nil
		}(uint64(g))
	}
	// Nothing else locks c.mu exclusively before Close, so a failed
	// TryLock means a caller holds it shared: that call saw the cluster
	// open, is stuck behind the gate, and must be drained by Close.
	for c.mu.TryLock() {
		c.mu.Unlock()
		runtime.Gosched()
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a call in flight")
	case <-time.After(50 * time.Millisecond):
	}
	for range c.in {
		<-gate
	}
	<-closed
	wg.Wait()
	close(errs)
	// A caller that reached c.mu only after Close asked for it is a late
	// call and fails cleanly; any other error, or no call finishing with
	// its ranks, means Close dropped an in-flight call.
	finished := 0
	for err := range errs {
		switch {
		case err == nil:
			finished++
		case !strings.Contains(err.Error(), "cluster is closed"):
			t.Fatal(err)
		}
	}
	if finished == 0 {
		t.Fatal("no in-flight call finished: Close failed the call it had to drain")
	}
	if _, err := c.LookupBatch(workload.UniformQueries(10, 1)); err == nil {
		t.Fatal("lookup after Close succeeded")
	}
	c.Close() // still idempotent
}

func TestLookupBatchIntoShortOut(t *testing.T) {
	keys := workload.SortedKeys(1000, 13)
	c := newTestCluster(t, MethodC3, keys, 2, 64)
	if err := c.LookupBatchInto(workload.UniformQueries(10, 1), make([]int, 9)); err == nil {
		t.Fatal("short out slice accepted")
	}
}

// Route must agree with the sort.Search definition at every partition
// count (TestRouteTable aims at the table's weak spots).
func TestRouteMatchesSortSearch(t *testing.T) {
	for _, parts := range []int{1, 2, 7, 10, 64, 65, 100, 333} {
		keys := workload.SortedKeys(10*parts, uint64(parts))
		p, err := NewPartitioning(keys, parts)
		if err != nil {
			t.Fatal(err)
		}
		d := p.Delimiters()
		probes := workload.UniformQueries(2000, uint64(parts)+1)
		probes = append(probes, 0, ^workload.Key(0))
		for _, dk := range d {
			probes = append(probes, dk, dk-1, dk+1)
		}
		for _, q := range probes {
			want := sort.Search(len(d), func(i int) bool { return d[i] > q })
			if got := p.Route(q); got != want {
				t.Fatalf("parts=%d: Route(%d) = %d, want %d", parts, q, got, want)
			}
		}
	}
}

// The round-robin cursor must stay unbiased when it crosses 2^32: the
// old uint32 Add(1) % Workers skewed toward low workers at every wrap
// when Workers didn't divide 2^32. The cursor is 64-bit now, so the
// boundary is just another stretch of a perfectly fair cycle.
func TestNextWorkerUnbiasedAcrossWrap(t *testing.T) {
	for _, workers := range []int{3, 5, 7} {
		c := &Cluster{cfg: RealConfig{Workers: workers}}
		c.rr.Store((1 << 32) - 7)
		counts := make([]int, workers)
		draws := workers * 100
		for i := 0; i < draws; i++ {
			counts[c.nextWorker()]++
		}
		for w, got := range counts {
			if got != 100 {
				t.Fatalf("workers=%d: worker %d selected %d times across 2^32, want 100",
					workers, w, got)
			}
		}
	}
}
