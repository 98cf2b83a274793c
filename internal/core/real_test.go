package core

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/workload"
)

func newTestCluster(t *testing.T, m Method, keys []workload.Key, workers, batchKeys int) *Cluster {
	t.Helper()
	c, err := NewCluster(keys, RealConfig{
		Method: m, Workers: workers, BatchKeys: batchKeys,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// The central cross-validation: every method, over the real concurrent
// engine, returns exactly the reference ranks.
func TestAllMethodsReturnReferenceRanks(t *testing.T) {
	keys := workload.SortedKeys(20000, 1)
	queries := workload.UniformQueries(30000, 2)
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = workload.ReferenceRank(keys, q)
	}
	for _, m := range Methods() {
		c := newTestCluster(t, m, keys, 7, 1024)
		got, err := c.LookupBatch(queries)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: query %d (%d) = %d, want %d", m, i, queries[i], got[i], want[i])
			}
		}
	}
}

func TestWorkerAndBatchExtremes(t *testing.T) {
	keys := workload.SortedKeys(5000, 3)
	queries := workload.UniformQueries(5000, 4)
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = workload.ReferenceRank(keys, q)
	}
	cases := []struct {
		workers, batch int
	}{
		{1, 1}, {1, 10000}, {2, 1}, {16, 17}, {5000, 64}, // workers == keys is legal
	}
	for _, cse := range cases {
		for _, m := range []Method{MethodA, MethodC3} {
			c := newTestCluster(t, m, keys, cse.workers, cse.batch)
			got, err := c.LookupBatch(queries)
			if err != nil {
				t.Fatalf("%v w=%d b=%d: %v", m, cse.workers, cse.batch, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v w=%d b=%d: wrong rank at %d", m, cse.workers, cse.batch, i)
				}
			}
		}
	}
}

func TestEmptyBatchAndSingleLookup(t *testing.T) {
	keys := workload.SortedKeys(1000, 5)
	c := newTestCluster(t, MethodC3, keys, 4, 128)
	out, err := c.LookupBatch(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v %v", out, err)
	}
	r, err := c.Lookup(keys[10])
	if err != nil {
		t.Fatal(err)
	}
	if r != 11 {
		t.Errorf("Lookup(keys[10]) = %d, want 11", r)
	}
}

func TestRepeatedBatchesReuseCluster(t *testing.T) {
	keys := workload.SortedKeys(3000, 6)
	c := newTestCluster(t, MethodC2, keys, 3, 256)
	for round := 0; round < 5; round++ {
		queries := workload.UniformQueries(2000, uint64(round))
		got, err := c.LookupBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if got[i] != workload.ReferenceRank(keys, q) {
				t.Fatalf("round %d: wrong rank at %d", round, i)
			}
		}
	}
	s := c.Stats()
	if s.KeysProcessed != 10000 {
		t.Errorf("KeysProcessed = %d, want 10000", s.KeysProcessed)
	}
	if s.Batches == 0 {
		t.Error("no batches recorded")
	}
}

func TestConcurrentLookups(t *testing.T) {
	keys := workload.SortedKeys(10000, 7)
	c := newTestCluster(t, MethodC3, keys, 8, 512)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			queries := workload.UniformQueries(3000, seed)
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
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errWrongRank = errorString("wrong rank under concurrency")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestCloseSemantics(t *testing.T) {
	keys := workload.SortedKeys(1000, 8)
	c, err := NewCluster(keys, DefaultRealConfig(MethodC3))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if _, err := c.LookupBatch(workload.UniformQueries(10, 1)); err == nil {
		t.Fatal("lookup after Close succeeded")
	}
}

func TestNewClusterErrors(t *testing.T) {
	keys := workload.SortedKeys(100, 9)
	cases := map[string]RealConfig{
		"bad method": {Method: Method(9), Workers: 2, BatchKeys: 10},
		"no workers": {Method: MethodA, Workers: 0, BatchKeys: 10},
		"no batch":   {Method: MethodA, Workers: 2, BatchKeys: 0},
		"positive fsync interval": {
			Method: MethodC3, Workers: 2, BatchKeys: 10,
			WALDir: t.TempDir(), FsyncInterval: time.Millisecond,
		},
	}
	for name, cfg := range cases {
		if _, err := NewCluster(keys, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewCluster(nil, DefaultRealConfig(MethodA)); err == nil {
		t.Error("empty index accepted")
	}
	if _, err := NewCluster([]workload.Key{2, 1}, DefaultRealConfig(MethodA)); err == nil {
		t.Error("unsorted index accepted")
	}
	// More workers than keys cannot partition.
	if _, err := NewCluster(workload.SortedKeys(3, 1), RealConfig{
		Method: MethodC3, Workers: 10, BatchKeys: 4,
	}); err == nil {
		t.Error("more C-slaves than keys accepted")
	}
}

func TestStatsBusyAccounting(t *testing.T) {
	keys := workload.SortedKeys(50000, 10)
	c := newTestCluster(t, MethodC3, keys, 4, 2048)
	if _, err := c.LookupBatch(workload.UniformQueries(100000, 11)); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.KeysProcessed != 100000 {
		t.Errorf("keys processed = %d", s.KeysProcessed)
	}
	var anyBusy bool
	for _, b := range s.BusyPerWorker {
		if b > 0 {
			anyBusy = true
		}
	}
	if !anyBusy {
		t.Error("no worker recorded busy time")
	}
	if s.Method != MethodC3 || s.Workers != 4 {
		t.Errorf("stats header wrong: %+v", s)
	}
}

// Property: real distributed results equal serial reference for random
// configurations.
func TestRealEngineProperty(t *testing.T) {
	f := func(seed uint64, nRaw, qRaw uint16, wRaw, bRaw uint8, mRaw uint8) bool {
		n := int(nRaw%2000) + 10
		q := int(qRaw % 1000)
		w := int(wRaw%8) + 1
		b := int(bRaw%200) + 1
		m := Methods()[int(mRaw)%5]
		keys := workload.SortedKeys(n, seed)
		c, err := NewCluster(keys, RealConfig{Method: m, Workers: w, BatchKeys: b})
		if err != nil {
			return false
		}
		defer c.Close()
		queries := workload.UniformQueries(q, seed+1)
		got, err := c.LookupBatch(queries)
		if err != nil {
			return false
		}
		for i, qk := range queries {
			if got[i] != workload.ReferenceRank(keys, qk) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
