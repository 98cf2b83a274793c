package dcindex

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestOpenRankClose(t *testing.T) {
	keys := GenerateKeys(10000, 1)
	idx, err := Open(keys, Options{Method: MethodC3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	if n := idx.Stats().Keys; n != 10000 || idx.Method() != MethodC3 {
		t.Errorf("header: keys=%d method=%v", n, idx.Method())
	}
	queries := GenerateQueries(5000, 2)
	ranks, err := idx.RankBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if want := workload.ReferenceRank(keys, q); ranks[i] != want {
			t.Fatalf("rank[%d] = %d, want %d", i, ranks[i], want)
		}
	}
	r, err := idx.Rank(keys[0])
	if err != nil || r != 1 {
		t.Errorf("Rank(first key) = %d, %v", r, err)
	}
	s := idx.Stats()
	if s.Runtime.KeysProcessed != 5001 {
		t.Errorf("stats keys = %d, want 5001", s.Runtime.KeysProcessed)
	}
	if s.SchemaVersion != StatsSchemaVersion || s.Keys != 10000 || s.Method != idx.Method().String() {
		t.Errorf("stats tree = %+v, want schema %d, 10000 keys, method %s", s, StatsSchemaVersion, idx.Method())
	}
	if s.Updates != (UpdateStats{}) {
		t.Errorf("stats updates = %+v on an index that took no writes", s.Updates)
	}
}

func TestAllMethodsAgree(t *testing.T) {
	keys := GenerateKeys(5000, 3)
	queries := GenerateQueries(2000, 4)
	var base []int
	for _, m := range Methods() {
		idx, err := Open(keys, Options{Method: m, Workers: 5, BatchKeys: 256})
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.RankBatch(queries)
		idx.Close()
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = got
			continue
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("method %v disagrees at %d", m, i)
			}
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	keys := GenerateKeys(1000, 5)
	idx, err := Open(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if m := idx.Method(); m != MethodC3 {
		t.Errorf("Options{} runs Method %v, want C-3", m)
	}
	if _, err := idx.RankBatch(GenerateQueries(100, 6)); err != nil {
		t.Fatal(err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(nil, Options{}); err == nil {
		t.Error("empty keys accepted")
	}
	if _, err := Open([]Key{3, 1}, Options{}); err == nil {
		t.Error("unsorted keys accepted")
	}
	if _, err := Open(GenerateKeys(2, 1), Options{Method: MethodC3, Workers: 10}); err == nil {
		t.Error("more slaves than keys accepted")
	}
	durable := DurabilityOptions{WALDir: t.TempDir(), FsyncInterval: time.Millisecond}
	if _, err := Open(GenerateKeys(100, 1), Options{Durability: durable}); err == nil || !strings.Contains(err.Error(), "FsyncInterval") {
		t.Errorf("positive FsyncInterval: err = %v, want a refusal naming the field", err)
	}
}

// ServePartition refuses a partition it cannot serve before it listens:
// addr is held by another listener, so an error from the listen itself
// would name it.
func TestServePartitionErrors(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	addr := lis.Addr().String()
	keys := GenerateKeys(100, 1)
	for _, tc := range []struct {
		name        string
		keys        []Key
		parts, part int
	}{
		{"negative part", keys, 4, -1},
		{"part past parts", keys, 4, 4},
		{"more parts than keys", keys[:3], 4, 0},
	} {
		err := ServePartition(addr, tc.keys, tc.parts, tc.part)
		if err == nil || strings.Contains(err.Error(), "listen") {
			t.Errorf("%s: err = %v, want a refusal before the listen", tc.name, err)
		}
	}
}

func TestOwnerRouting(t *testing.T) {
	keys := GenerateKeys(1000, 7)
	idx, err := Open(keys, Options{Method: MethodC3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if o := idx.Owner(0); o != 0 {
		t.Errorf("smallest key owner = %d", o)
	}
	if o := idx.Owner(^Key(0)); o != 3 {
		t.Errorf("largest key owner = %d, want 3", o)
	}
	// Replicated method: always 0.
	idxA, err := Open(keys, Options{Method: MethodA, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer idxA.Close()
	if o := idxA.Owner(^Key(0)); o != 0 {
		t.Errorf("replicated owner = %d, want 0", o)
	}
}

// RankBatchInto fills a caller-provided slice with exactly RankBatch's
// answers, and refuses one that is too short.
func TestRankBatchIntoMatchesRankBatch(t *testing.T) {
	keys := GenerateKeys(30000, 1)
	queries := GenerateQueries(40000, 2)
	idx, err := Open(keys, Options{Method: MethodC3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	want, err := idx.RankBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(queries))
	if err := idx.RankBatchInto(queries, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RankBatchInto[%d] = %d, RankBatch says %d", i, got[i], want[i])
		}
	}
	if err := idx.RankBatchInto(queries, got[:len(got)-1]); err == nil {
		t.Fatal("short out slice accepted")
	}
}

// Concurrent RankBatch callers through the public API, with Owner
// answered from the cluster's own routing table while lookups run.
func TestConcurrentRankBatchAndOwner(t *testing.T) {
	keys := GenerateKeys(20000, 3)
	idx, err := Open(keys, Options{Method: MethodC3, Workers: 6, BatchKeys: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			queries := GenerateQueries(5000, seed)
			got, err := idx.RankBatch(queries)
			if err != nil {
				errs <- err
				return
			}
			for i, q := range queries {
				if got[i] != workload.ReferenceRank(keys, q) {
					errs <- errors.New("wrong rank under concurrency")
					return
				}
			}
			// Owner is read-only routing metadata; hammer it during
			// lookups to prove it shares the cluster's partitioning.
			for _, q := range queries[:100] {
				if o := idx.Owner(q); o < 0 || o >= 6 {
					errs <- errors.New("owner out of range under concurrency")
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

func TestSimulateDefaultsToTable3Point(t *testing.T) {
	r, err := Simulate(SimOptions{Method: MethodC3, SampleQueries: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if r.BatchBytes != 128<<10 || r.Nodes != 11 || r.TotalQueries != 1<<23 {
		t.Errorf("defaults wrong: %+v", r)
	}
	if r.NormalizedSec <= 0 {
		t.Errorf("time = %v", r.NormalizedSec)
	}
}

// Two points of Figure 3's batch-size axis: each simulation runs at the
// batch size it was given.
func TestSweepCoversFigure3Axis(t *testing.T) {
	for _, b := range []int{8 << 10, 64 << 10} {
		r, err := Simulate(SimOptions{Method: MethodA, SampleQueries: 20_000, BatchBytes: b})
		if err != nil {
			t.Fatal(err)
		}
		if r.BatchBytes != b || r.NormalizedSec <= 0 {
			t.Errorf("simulate at %d bytes: %+v", b, r)
		}
	}
}

func TestPredictAndProject(t *testing.T) {
	pts := ProjectFigure4(PentiumIII(), 5)
	if len(pts) != 6 {
		t.Fatalf("figure4 points = %d", len(pts))
	}
	if pts[5].C3Ns >= pts[0].C3Ns {
		t.Error("C-3 projection did not improve over 5 years")
	}
}

func TestArchConstructors(t *testing.T) {
	a := PentiumIII()
	if err := a.Validate(); err != nil {
		t.Errorf("%s: %v", a.Name, err)
	}
}

// TestOptionsWALDirDurable: the public API's durability opt-in. Insert
// through Options.Durability.WALDir, close, reopen the directory with a poisoned
// baseline — recovery must come from disk and ranks must stay exact.
func TestOptionsWALDirDurable(t *testing.T) {
	dir := t.TempDir()
	keys := GenerateKeys(4096, 1)
	opt := Options{Method: MethodC3, Workers: 4, Durability: DurabilityOptions{WALDir: dir}}
	idx, err := Open(keys, opt)
	if err != nil {
		t.Fatal(err)
	}
	inserted := []Key{7, 7, 500_000, 4_000_000_000}
	if err := idx.InsertBatch(inserted); err != nil {
		t.Fatal(err)
	}
	queries := GenerateQueries(2000, 2)
	want, err := idx.RankBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	idx.Close()

	idx2, err := Open(GenerateKeys(16, 99), opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer idx2.Close()
	if got := idx2.Stats().Keys; got != len(keys)+len(inserted) {
		t.Fatalf("recovered %d keys, want %d", got, len(keys)+len(inserted))
	}
	got, err := idx2.RankBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if got[i] != want[i] {
			t.Fatalf("rank[%d] after restart = %d, want %d", i, got[i], want[i])
		}
	}
}
