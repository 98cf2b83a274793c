package index

import (
	"testing"
	"testing/quick"

	"repro/internal/memsim"
	"repro/internal/workload"
)

// Index is the read API the three structures share, which the tests
// below check each of them through.
type Index interface {
	// Name identifies the structure ("sorted-array", "nary-tree",
	// "csb+-tree") in reports.
	Name() string
	// N returns the number of indexed keys.
	N() int
	// Rank returns the number of indexed keys <= k.
	Rank(k workload.Key) int
	// RankTrace is Rank, also appending the virtual address of every
	// memory probe the lookup performs to trace (which it returns,
	// append-style). Each probe touches at most one cache line.
	RankTrace(k workload.Key, trace []Addr) (int, []Addr)
	// Base and SizeBytes describe the structure's arena, for cache
	// preloading and footprint reports.
	Base() Addr
	SizeBytes() int
	// Levels returns the number of probe levels a lookup visits: tree
	// height for trees, ceil(log2 n) for the array. This is T (or L)
	// in the analytical model.
	Levels() int
	// LevelLines returns lambda_i, the number of distinct cache lines
	// at each probe level (Appendix A's per-level line counts), root
	// level first.
	LevelLines() []int
}

func buildAll(keys []workload.Key) []Index {
	return []Index{
		NewSortedArray(keys, 0),
		NewNaryTree(keys, 1<<26),
		NewCSBTree(keys, 1<<27),
	}
}

func TestAllStructuresAgreeWithReference(t *testing.T) {
	keys := workload.SortedKeys(5000, 1)
	r := workload.NewRNG(2)
	for _, idx := range buildAll(keys) {
		// Random probes.
		for i := 0; i < 20000; i++ {
			k := r.Key()
			if got, want := idx.Rank(k), workload.ReferenceRank(keys, k); got != want {
				t.Fatalf("%s: Rank(%d) = %d, want %d", idx.Name(), k, got, want)
			}
		}
		// Exact and off-by-one boundary probes on every key.
		if bad, ok := buildChecked(idx, keys); !ok {
			t.Fatalf("%s: buildChecked failed at key %d", idx.Name(), bad)
		}
	}
}

// buildChecked probes idx at both ends of the key space and at every key
// and its predecessor, against the reference rank. It returns the first
// disagreeing key, or ok=true.
func buildChecked(idx Index, keys []workload.Key) (bad workload.Key, ok bool) {
	probe := func(k workload.Key) bool {
		return idx.Rank(k) == workload.ReferenceRank(keys, k)
	}
	if !probe(0) || !probe(^workload.Key(0)) {
		return 0, false
	}
	for _, k := range keys {
		if !probe(k) {
			return k, false
		}
		if k > 0 && !probe(k-1) {
			return k - 1, false
		}
	}
	return 0, true
}

func TestRankTraceMatchesRankAndLevels(t *testing.T) {
	keys := workload.SortedKeys(5000, 3)
	r := workload.NewRNG(4)
	for _, idx := range buildAll(keys) {
		var trace []memsim.Addr
		for i := 0; i < 500; i++ {
			k := r.Key()
			trace = trace[:0]
			got, tr := idx.RankTrace(k, trace)
			if got != idx.Rank(k) {
				t.Fatalf("%s: RankTrace disagrees with Rank for %d", idx.Name(), k)
			}
			if len(tr) > idx.Levels() {
				t.Fatalf("%s: trace length %d exceeds Levels %d", idx.Name(), len(tr), idx.Levels())
			}
			if len(tr) == 0 {
				t.Fatalf("%s: empty trace on non-empty index", idx.Name())
			}
			// All probes must fall within the arena.
			for _, a := range tr {
				if a < idx.Base() || a >= idx.Base()+memsim.Addr(idx.SizeBytes()) {
					t.Fatalf("%s: probe %d outside arena [%d,%d)", idx.Name(), a, idx.Base(), idx.Base()+memsim.Addr(idx.SizeBytes()))
				}
			}
		}
	}
}

func TestTreeTraceLengthEqualsHeight(t *testing.T) {
	keys := workload.SortedKeys(5000, 3)
	for _, idx := range []Index{NewNaryTree(keys, 0), NewCSBTree(keys, 0)} {
		var trace []memsim.Addr
		_, tr := idx.RankTrace(12345, trace)
		if len(tr) != idx.Levels() {
			t.Errorf("%s: uniform-depth tree trace = %d probes, want height %d", idx.Name(), len(tr), idx.Levels())
		}
	}
}

func TestEmptyIndexes(t *testing.T) {
	for _, idx := range buildAll(nil) {
		if idx.N() != 0 {
			t.Errorf("%s: N = %d", idx.Name(), idx.N())
		}
		if got := idx.Rank(42); got != 0 {
			t.Errorf("%s: empty Rank = %d", idx.Name(), got)
		}
		if got, tr := idx.RankTrace(42, nil); got != 0 || len(tr) != 0 {
			t.Errorf("%s: empty RankTrace = %d, %v", idx.Name(), got, tr)
		}
		if idx.SizeBytes() != 0 {
			t.Errorf("%s: empty SizeBytes = %d", idx.Name(), idx.SizeBytes())
		}
		if lines := idx.LevelLines(); len(lines) != 0 {
			t.Errorf("%s: empty LevelLines = %v", idx.Name(), lines)
		}
	}
}

func TestSingleKey(t *testing.T) {
	keys := []workload.Key{100}
	for _, idx := range buildAll(keys) {
		if idx.Rank(99) != 0 || idx.Rank(100) != 1 || idx.Rank(101) != 1 {
			t.Errorf("%s: single-key ranks wrong", idx.Name())
		}
		if idx.Levels() != 1 {
			t.Errorf("%s: Levels = %d, want 1", idx.Name(), idx.Levels())
		}
	}
}

func TestDuplicateKeysSupported(t *testing.T) {
	// Duplicates spanning leaf boundaries are the hard case for
	// separator routing.
	var keys []workload.Key
	for i := 0; i < 30; i++ {
		keys = append(keys, 5)
	}
	for i := 0; i < 30; i++ {
		keys = append(keys, 9)
	}
	for _, idx := range buildAll(keys) {
		for _, k := range []workload.Key{0, 4, 5, 6, 8, 9, 10} {
			if got, want := idx.Rank(k), workload.ReferenceRank(keys, k); got != want {
				t.Errorf("%s: Rank(%d) = %d, want %d", idx.Name(), k, got, want)
			}
		}
	}
}

func TestUnsortedInputPanics(t *testing.T) {
	bad := []workload.Key{3, 1, 2}
	for name, fn := range map[string]func(){
		"array": func() { NewSortedArray(bad, 0) },
		"nary":  func() { NewNaryTree(bad, 0) },
		"csb":   func() { NewCSBTree(bad, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: unsorted input did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTable1NaryTreeGeometry(t *testing.T) {
	// Table 1: 327,680 keys ("327 kilo"), 32-byte nodes, T = 7 levels,
	// ~3.2 MB tree.
	keys := workload.EvenKeys(327680)
	tr := NewNaryTree(keys, 0)
	if got := tr.Levels(); got != 7 {
		t.Errorf("nary tree levels = %d, want T = 7 (Table 1)", got)
	}
	mb := float64(tr.SizeBytes()) / (1 << 20)
	if mb < 2.5 || mb > 3.5 {
		t.Errorf("nary tree size = %.2f MB, want ~3 MB (Table 1: 3.2 MB)", mb)
	}
	// Root level is a single node; leaf level holds ceil(n/4) nodes.
	lines := tr.LevelLines()
	if lines[0] != 1 {
		t.Errorf("root level lines = %d", lines[0])
	}
	wantLeaves := (327680 + NaryLeafKeys - 1) / NaryLeafKeys
	if lines[len(lines)-1] != wantLeaves {
		t.Errorf("leaf level lines = %d, want %d", lines[len(lines)-1], wantLeaves)
	}
}

func TestTable1CSBPartitionGeometry(t *testing.T) {
	// A 10-slave partition of the 327,680-key index: 32,768 keys per
	// slave, giving Table 1's L = 6 levels, and a footprint that fits
	// the 512 KB L2 cache.
	keys := workload.EvenKeys(32768)
	tr := NewCSBTree(keys, 0)
	if got := tr.Levels(); got != 6 {
		t.Errorf("CSB partition levels = %d, want L = 6 (Table 1)", got)
	}
	if tr.SizeBytes() > 512<<10 {
		t.Errorf("CSB partition = %d bytes, must fit 512 KB L2", tr.SizeBytes())
	}
	// The sorted-array partition (C-3) must be even smaller.
	sa := NewSortedArray(keys, 0)
	if sa.SizeBytes() >= tr.SizeBytes() {
		t.Errorf("sorted array %d B should be denser than CSB tree %d B (Section 4.1)", sa.SizeBytes(), tr.SizeBytes())
	}
}

func TestLevelLinesSumToNodeCount(t *testing.T) {
	keys := workload.SortedKeys(10000, 9)
	for _, tr := range []*Tree{NewNaryTree(keys, 0), NewCSBTree(keys, 0)} {
		sum := 0
		for _, l := range tr.LevelLines() {
			sum += l
		}
		if sum != tr.NodeCount() {
			t.Errorf("%s: level lines sum %d != node count %d", tr.Name(), sum, tr.NodeCount())
		}
	}
}

func TestLevelWidthsGrowByFanout(t *testing.T) {
	keys := workload.EvenKeys(100000)
	tr := NewNaryTree(keys, 0)
	lines := tr.LevelLines()
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			t.Errorf("level %d narrower than parent: %v", i, lines)
		}
		if lines[i] > lines[i-1]*Fanout {
			t.Errorf("level %d wider than fanout allows: %v", i, lines)
		}
	}
}

func TestTreeNavigationPrimitives(t *testing.T) {
	keys := workload.SortedKeys(5000, 6)
	tr := NewCSBTree(keys, 0)
	r := workload.NewRNG(7)
	for i := 0; i < 1000; i++ {
		k := r.Key()
		id := tr.Root()
		depth := 0
		for !tr.IsLeaf(id) {
			next := tr.Step(id, k)
			if next <= id {
				t.Fatalf("Step went backwards: %d -> %d", id, next)
			}
			id = next
			depth++
			if depth > tr.Levels() {
				t.Fatal("descent exceeded tree height")
			}
		}
		if got, want := tr.LeafRank(id, k), workload.ReferenceRank(keys, k); got != want {
			t.Fatalf("manual descent rank = %d, want %d", got, want)
		}
	}
}

func TestNodeAddrWithinArena(t *testing.T) {
	keys := workload.SortedKeys(1000, 2)
	base := memsim.Addr(1 << 20)
	tr := NewNaryTree(keys, base)
	for id := int32(0); id < int32(tr.NodeCount()); id++ {
		a := tr.NodeAddr(id)
		if a < base || a+NodeBytes > base+memsim.Addr(tr.SizeBytes()) {
			t.Fatalf("node %d at %d outside arena", id, a)
		}
		if (a-base)%NodeBytes != 0 {
			t.Fatalf("node %d not line-aligned", id)
		}
	}
}

func TestSubtreeBytes(t *testing.T) {
	keys := workload.EvenKeys(327680)
	tr := NewNaryTree(keys, 0)
	// Height 1 at the root is one node.
	if got := tr.SubtreeBytes(0, 1); got != NodeBytes {
		t.Errorf("SubtreeBytes(0,1) = %d, want %d", got, NodeBytes)
	}
	// The whole tree from the root.
	if got := tr.SubtreeBytes(0, tr.Levels()); got != tr.SizeBytes() {
		t.Errorf("SubtreeBytes(0,height) = %d, want %d", got, tr.SizeBytes())
	}
	// Monotone in height.
	prev := 0
	for h := 1; h <= tr.Levels(); h++ {
		b := tr.SubtreeBytes(0, h)
		if b <= prev {
			t.Errorf("SubtreeBytes not increasing at height %d", h)
		}
		prev = b
	}
}

func TestSortedArrayLevels(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		a := NewSortedArray(workload.EvenKeys(c.n), 0)
		if got := a.Levels(); got != c.want {
			t.Errorf("Levels(n=%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSortedArrayLevelLinesSaturate(t *testing.T) {
	a := NewSortedArray(workload.EvenKeys(4096), 0) // 16 KB = 512 lines
	lines := a.LevelLines()
	if lines[0] != 1 {
		t.Errorf("first probe level lines = %d", lines[0])
	}
	max := 0
	for _, l := range lines {
		if l < max {
			t.Errorf("LevelLines not monotone: %v", lines)
		}
		if l > max {
			max = l
		}
	}
	if max != 512 {
		t.Errorf("LevelLines saturation = %d, want 512 total lines", max)
	}
}

// Property: all three structures agree on arbitrary key sets and probes.
func TestCrossStructureAgreementProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, probes []uint32) bool {
		n := int(nRaw%2000) + 1
		keys := workload.SortedKeys(n, seed)
		idxs := buildAll(keys)
		for _, p := range probes {
			want := workload.ReferenceRank(keys, workload.Key(p))
			for _, idx := range idxs {
				if idx.Rank(workload.Key(p)) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: rank is monotone in the probe key for every structure.
func TestRankMonotoneProperty(t *testing.T) {
	keys := workload.SortedKeys(300, 11)
	idxs := buildAll(keys)
	f := func(a, b uint32) bool {
		ka, kb := workload.Key(a), workload.Key(b)
		if ka > kb {
			ka, kb = kb, ka
		}
		for _, idx := range idxs {
			if idx.Rank(ka) > idx.Rank(kb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSortedArrayRank(b *testing.B) {
	keys := workload.SortedKeys(327680, 1)
	idx := NewSortedArray(keys, 0)
	qs := workload.UniformQueries(1<<16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Rank(qs[i&(1<<16-1)])
	}
}

func BenchmarkNaryTreeRank(b *testing.B) {
	keys := workload.SortedKeys(327680, 1)
	idx := NewNaryTree(keys, 0)
	qs := workload.UniformQueries(1<<16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Rank(qs[i&(1<<16-1)])
	}
}

func BenchmarkCSBTreeRank(b *testing.B) {
	keys := workload.SortedKeys(327680, 1)
	idx := NewCSBTree(keys, 0)
	qs := workload.UniformQueries(1<<16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Rank(qs[i&(1<<16-1)])
	}
}
