package buffering

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/index"
	"repro/internal/workload"
)

func TestRankBatchMatchesPlainLookups(t *testing.T) {
	keys := workload.SortedKeys(50000, 1)
	tree := index.NewNaryTree(keys, 0)
	queries := workload.UniformQueries(20000, 2)

	for _, budget := range []int{64, 1 << 10, 32 << 10, 256 << 10, 16 << 20} {
		plan := NewPlan(tree, budget)
		out := make([]int, len(queries))
		plan.RankBatch(queries, out, 0, Hooks{})
		for i, q := range queries {
			if want := tree.Rank(q); out[i] != want {
				t.Fatalf("budget %d: out[%d] = %d, want %d", budget, i, out[i], want)
			}
		}
	}
}

// The base parameter must fold the partition rank base into every
// result — including the empty-tree write — with no separate add pass.
func TestRankBatchFoldsBase(t *testing.T) {
	keys := workload.SortedKeys(10000, 4)
	tree := index.NewNaryTree(keys, 0)
	queries := workload.UniformQueries(5000, 5)
	plan := NewPlan(tree, 8<<10)
	out := make([]int, len(queries))
	const base = 123456
	plan.RankBatch(queries, out, base, Hooks{})
	for i, q := range queries {
		if want := tree.Rank(q) + base; out[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
	empty := NewPlan(index.NewNaryTree(nil, 0), 1<<10)
	eout := make([]int, 3)
	empty.RankBatch([]workload.Key{1, 2, 3}, eout, 7, Hooks{})
	for i, r := range eout {
		if r != 7 {
			t.Fatalf("empty tree out[%d] = %d, want 7 (the base)", i, r)
		}
	}
}

func TestRankBatchOnCSBTree(t *testing.T) {
	keys := workload.SortedKeys(32768, 3)
	tree := index.NewCSBTree(keys, 0)
	queries := workload.UniformQueries(5000, 4)
	// L1-sized budget: the Method C-2 configuration.
	plan := NewPlan(tree, 8<<10)
	out := make([]int, len(queries))
	plan.RankBatch(queries, out, 0, Hooks{})
	for i, q := range queries {
		if want := workload.ReferenceRank(keys, q); out[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
}

func TestPlanTilesAllLevels(t *testing.T) {
	keys := workload.EvenKeys(327680)
	tree := index.NewNaryTree(keys, 0)
	for _, budget := range []int{64, 8 << 10, 256 << 10, 64 << 20} {
		plan := NewPlan(tree, budget)
		covered := 0
		for s, lvl := range plan.splits {
			if lvl != covered {
				t.Fatalf("budget %d: segment %d starts at level %d, want %d", budget, s, lvl, covered)
			}
			covered += plan.heights[s]
		}
		if covered != tree.Levels() {
			t.Fatalf("budget %d: plan covers %d levels, tree has %d", budget, covered, tree.Levels())
		}
	}
}

func TestPlanRespectsBudget(t *testing.T) {
	keys := workload.EvenKeys(327680)
	tree := index.NewNaryTree(keys, 0)
	// Method B's configuration: subtrees must fit in (half of) L2.
	budget := 256 << 10
	plan := NewPlan(tree, budget)
	if plan.Segments() < 2 {
		t.Fatalf("a 3 MB tree under a 256 KB budget must need multiple segments, got %d", plan.Segments())
	}
	// Every segment's subtrees must fit, except a segment of one level:
	// a level can't be subdivided, so one that alone exceeds the budget
	// is legal.
	for s, lvl := range plan.splits {
		if h := plan.heights[s]; h > 1 {
			if b := tree.SubtreeBytes(lvl, h); b > budget {
				t.Fatalf("segment %d subtree %d bytes exceeds budget %d with height > 1", s, b, budget)
			}
		}
	}
}

func TestHooksEventCounts(t *testing.T) {
	keys := workload.SortedKeys(50000, 5)
	tree := index.NewNaryTree(keys, 0)
	queries := workload.UniformQueries(3000, 6)
	plan := NewPlan(tree, 32<<10)
	if plan.Segments() < 2 {
		t.Skip("test requires a multi-segment plan")
	}

	var touches, writes, reads int
	h := Hooks{
		TouchNode:   func(int32) { touches++ },
		BufferWrite: func(_ int32, b int) { writes += b },
		BufferRead:  func(_ int32, b int) { reads += b },
	}
	out := make([]int, len(queries))
	plan.RankBatch(queries, out, 0, h)

	// Every key visits every level exactly once.
	wantTouches := len(queries) * tree.Levels()
	if touches != wantTouches {
		t.Errorf("touches = %d, want %d (keys x levels)", touches, wantTouches)
	}
	// Every key is written to a buffer once per segment boundary.
	wantWrites := len(queries) * (plan.Segments() - 1) * EntryBytes
	if writes != wantWrites {
		t.Errorf("buffer writes = %d bytes, want %d", writes, wantWrites)
	}
	if reads != wantWrites {
		t.Errorf("buffer reads = %d bytes, want %d (every written entry is read back)", reads, wantWrites)
	}
}

func TestEveryOutputSlotWritten(t *testing.T) {
	keys := workload.SortedKeys(10000, 7)
	tree := index.NewNaryTree(keys, 0)
	queries := workload.UniformQueries(5000, 8)
	plan := NewPlan(tree, 4<<10)
	out := make([]int, len(queries))
	for i := range out {
		out[i] = -1
	}
	plan.RankBatch(queries, out, 0, Hooks{})
	for i, v := range out {
		if v < 0 {
			t.Fatalf("out[%d] never written", i)
		}
	}
}

func TestEmptyBatchAndEmptyTree(t *testing.T) {
	keys := workload.SortedKeys(1000, 9)
	tree := index.NewNaryTree(keys, 0)
	plan := NewPlan(tree, 8<<10)
	if got := plan.RankBatch(nil, nil, 0, Hooks{}); len(got) != 0 {
		t.Errorf("empty batch returned %v", got)
	}

	empty := index.NewNaryTree(nil, 0)
	ep := NewPlan(empty, 8<<10)
	if ep.Segments() != 0 {
		t.Errorf("empty tree plan has %d segments", ep.Segments())
	}
	out := make([]int, 3)
	ep.RankBatch([]workload.Key{1, 2, 3}, out, 0, Hooks{})
	for i, v := range out {
		if v != 0 {
			t.Errorf("empty tree rank[%d] = %d", i, v)
		}
	}
}

func TestShortOutPanics(t *testing.T) {
	tree := index.NewNaryTree(workload.SortedKeys(100, 1), 0)
	plan := NewPlan(tree, 8<<10)
	defer func() {
		if recover() == nil {
			t.Fatal("short out slice did not panic")
		}
	}()
	plan.RankBatch(workload.UniformQueries(10, 2), make([]int, 5), 0, Hooks{})
}

func TestNonPositiveBudgetPanics(t *testing.T) {
	tree := index.NewNaryTree(workload.SortedKeys(100, 1), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("zero budget did not panic")
		}
	}()
	NewPlan(tree, 0)
}

func TestSingleSegmentDegeneratesToPlainDescent(t *testing.T) {
	keys := workload.SortedKeys(1000, 2)
	tree := index.NewNaryTree(keys, 0)
	plan := NewPlan(tree, 64<<20) // whole tree fits: one segment
	if plan.Segments() != 1 {
		t.Fatalf("segments = %d, want 1", plan.Segments())
	}
	var writes int
	out := make([]int, 100)
	qs := workload.UniformQueries(100, 3)
	plan.RankBatch(qs, out, 0, Hooks{BufferWrite: func(int32, int) { writes++ }})
	if writes != 0 {
		t.Errorf("single-segment plan wrote %d buffer entries, want 0", writes)
	}
}

func TestMethodBConfigurationSegments(t *testing.T) {
	// The paper's Method B: Table 1 tree (T=7) decomposed for the
	// 512 KB L2. With half the cache reserved for buffers, the plan
	// should produce 2-3 segments (the paper's root subtree + lower
	// subtrees structure).
	keys := workload.EvenKeys(327680)
	tree := index.NewNaryTree(keys, 0)
	p := arch.PentiumIIICluster()
	plan := NewPlan(tree, p.L2Size/2)
	if s := plan.Segments(); s < 2 || s > 4 {
		t.Errorf("Method B plan has %d segments, want 2-4 (root subtree + lower subtrees)", s)
	}
}

// Property: buffered ranks equal plain ranks for arbitrary key sets,
// budgets, and query mixes.
func TestBufferedEqualsPlainProperty(t *testing.T) {
	f := func(seed uint64, nRaw, qRaw uint16, budgetRaw uint8) bool {
		n := int(nRaw%5000) + 1
		q := int(qRaw % 2000)
		budget := (int(budgetRaw%64) + 1) * 256
		keys := workload.SortedKeys(n, seed)
		tree := index.NewCSBTree(keys, 0)
		plan := NewPlan(tree, budget)
		queries := workload.UniformQueries(q, seed+1)
		out := make([]int, q)
		plan.RankBatch(queries, out, 0, Hooks{})
		for i, qk := range queries {
			if out[i] != tree.Rank(qk) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBufferedRankBatch(b *testing.B) {
	keys := workload.SortedKeys(327680, 1)
	tree := index.NewNaryTree(keys, 0)
	plan := NewPlan(tree, 256<<10)
	queries := workload.UniformQueries(32768, 2)
	out := make([]int, len(queries))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.RankBatch(queries, out, 0, Hooks{})
	}
	b.SetBytes(int64(len(queries) * workload.KeyBytes))
}
