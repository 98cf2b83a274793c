package workload

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical values in 100 draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestSortedKeysSortedAndDistinct(t *testing.T) {
	keys := SortedKeys(50000, 1)
	if len(keys) != 50000 {
		t.Fatalf("len = %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("keys not strictly increasing at %d: %d <= %d", i, keys[i], keys[i-1])
		}
	}
}

func TestSortedKeysDeterministic(t *testing.T) {
	a := SortedKeys(1000, 5)
	b := SortedKeys(1000, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SortedKeys not deterministic for fixed seed")
	}
	c := SortedKeys(1000, 6)
	if reflect.DeepEqual(a, c) {
		t.Fatal("SortedKeys identical across different seeds")
	}
}

// refSortedKeys is the key-set builder SortedKeys replaced, kept as its
// reference: it draws until n keys are distinct, skipping each draw it has
// seen, and sorts them. draws is how many it took.
func refSortedKeys(n int, seed uint64) (keys []Key, draws int) {
	r := NewRNG(seed)
	seen := make(map[Key]struct{}, n)
	keys = make([]Key, 0, n)
	for len(keys) < n {
		k := r.Key()
		draws++
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, draws
}

// SortedKeys returns the reference's keys at every size the benchmark and
// the tests build, among them 2^21, where the first 2^21 draws repeat
// some keys and the top-up runs.
func TestSortedKeysMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000, 1 << 16, 1 << 21} {
		for seed := uint64(0); seed < 4; seed++ {
			want, draws := refSortedKeys(n, seed)
			if got := SortedKeys(n, seed); !slices.Equal(got, want) {
				t.Fatalf("SortedKeys(%d, %d) differs from the reference", n, seed)
			}
			if n == 1<<21 && draws == n {
				t.Errorf("SortedKeys(%d, %d): no repeated draw, so the top-up was not reached", n, seed)
			}
		}
	}
}

func TestSortedKeysEmpty(t *testing.T) {
	if got := SortedKeys(0, 1); len(got) != 0 {
		t.Fatalf("SortedKeys(0) = %v", got)
	}
}

func TestEvenKeysSpacing(t *testing.T) {
	keys := EvenKeys(1024)
	if len(keys) != 1024 {
		t.Fatalf("len = %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("EvenKeys not strictly increasing at %d", i)
		}
	}
	// Spacing should be within 1 of uniform.
	step := float64(1<<32) / 1024
	for i := 1; i < len(keys); i++ {
		gap := float64(keys[i]) - float64(keys[i-1])
		if math.Abs(gap-step) > 2 {
			t.Fatalf("gap at %d = %v, want ~%v", i, gap, step)
		}
	}
}

func TestEvenKeysDegenerate(t *testing.T) {
	if got := EvenKeys(0); got != nil {
		t.Errorf("EvenKeys(0) = %v, want nil", got)
	}
	if got := EvenKeys(1); len(got) != 1 {
		t.Errorf("EvenKeys(1) = %v", got)
	}
}

func TestUniformQueriesDeterministicAndRoughlyUniform(t *testing.T) {
	q := UniformQueries(100000, 3)
	if !reflect.DeepEqual(q, UniformQueries(100000, 3)) {
		t.Fatal("UniformQueries not deterministic")
	}
	// Mean of uniform uint32 should be near 2^31.
	var sum float64
	for _, k := range q {
		sum += float64(k)
	}
	mean := sum / float64(len(q))
	want := float64(uint64(1) << 31)
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("mean = %v, want within 2%% of %v", mean, want)
	}
}

func TestZipfQueriesSkewConcentratesMass(t *testing.T) {
	idx := EvenKeys(1000)
	q := ZipfQueries(20000, idx, 1.2, 11)
	counts := map[Key]int{}
	for _, k := range q {
		counts[k]++
	}
	// The most popular key under s=1.2 should take a visible share.
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	if top < len(q)/20 {
		t.Errorf("top key frequency %d of %d: not skewed enough for s=1.2", top, len(q))
	}
	// Uniform (s=0) should spread far more evenly.
	q0 := ZipfQueries(20000, idx, 0, 11)
	counts0 := map[Key]int{}
	for _, k := range q0 {
		counts0[k]++
	}
	top0 := 0
	for _, c := range counts0 {
		if c > top0 {
			top0 = c
		}
	}
	if top0 >= top {
		t.Errorf("uniform top %d >= skewed top %d", top0, top)
	}
}

func TestZipfQueriesDrawFromIndexKeys(t *testing.T) {
	idx := SortedKeys(100, 2)
	valid := map[Key]bool{}
	for _, k := range idx {
		valid[k] = true
	}
	for _, k := range ZipfQueries(5000, idx, 0.8, 4) {
		if !valid[k] {
			t.Fatalf("Zipf query %d not an index key", k)
		}
	}
}

func TestZipfQueriesPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty index":   func() { ZipfQueries(1, nil, 1, 1) },
		"negative skew": func() { ZipfQueries(1, EvenKeys(4), -1, 1) },
		"negative q":    func() { ZipfQueries(-1, EvenKeys(4), 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBatchesCoverInputExactly(t *testing.T) {
	q := UniformQueries(1000, 1)
	for _, bk := range []int{1, 3, 7, 100, 999, 1000, 2000} {
		var got []Key
		for _, b := range Batches(q, bk) {
			got = append(got, b...)
		}
		if !reflect.DeepEqual(got, q) {
			t.Fatalf("batchKeys=%d: concatenated batches differ from input", bk)
		}
	}
}

func TestBatchesSizes(t *testing.T) {
	q := UniformQueries(1000, 1)
	bs := Batches(q, 300)
	wantLens := []int{300, 300, 300, 100}
	if len(bs) != len(wantLens) {
		t.Fatalf("got %d batches, want %d", len(bs), len(wantLens))
	}
	for i, b := range bs {
		if len(b) != wantLens[i] {
			t.Errorf("batch %d has %d keys, want %d", i, len(b), wantLens[i])
		}
	}
}

func TestBatchesDegenerate(t *testing.T) {
	if got := Batches(nil, 10); got != nil {
		t.Errorf("Batches(nil) = %v", got)
	}
	q := UniformQueries(5, 1)
	if got := Batches(q, 0); len(got) != 1 || len(got[0]) != 5 {
		t.Errorf("Batches(q, 0) = %v, want single batch", got)
	}
}

func TestBatchKeysForBytes(t *testing.T) {
	if got := BatchKeysForBytes(8 << 10); got != 2048 {
		t.Errorf("8KB = %d keys, want 2048", got)
	}
	if got := BatchKeysForBytes(3); got != 1 {
		t.Errorf("3 bytes = %d keys, want 1 (floor clamp)", got)
	}
}

func TestFigure3BatchBytes(t *testing.T) {
	got := Figure3BatchBytes()
	want := []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Figure3BatchBytes = %v, want %v", got, want)
	}
}

func TestReferenceRankAgainstLinearScan(t *testing.T) {
	keys := SortedKeys(500, 8)
	r := NewRNG(9)
	for i := 0; i < 2000; i++ {
		k := r.Key()
		want := 0
		for _, ik := range keys {
			if ik <= k {
				want++
			}
		}
		if got := ReferenceRank(keys, k); got != want {
			t.Fatalf("ReferenceRank(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestReferenceRankBoundaries(t *testing.T) {
	keys := []Key{10, 20, 30}
	cases := []struct {
		k    Key
		want int
	}{
		{0, 0}, {9, 0}, {10, 1}, {15, 1}, {20, 2}, {30, 3}, {31, 3}, {math.MaxUint32, 3},
	}
	for _, c := range cases {
		if got := ReferenceRank(keys, c.k); got != c.want {
			t.Errorf("ReferenceRank(%d) = %d, want %d", c.k, got, c.want)
		}
	}
	if got := ReferenceRank(nil, 5); got != 0 {
		t.Errorf("ReferenceRank(nil) = %d", got)
	}
}

// Property: ReferenceRank is monotone non-decreasing in the query key.
func TestReferenceRankMonotone(t *testing.T) {
	keys := SortedKeys(200, 3)
	f := func(a, b uint32) bool {
		ka, kb := Key(a), Key(b)
		if ka > kb {
			ka, kb = kb, ka
		}
		return ReferenceRank(keys, ka) <= ReferenceRank(keys, kb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: SortedKeys output is a sorted set for arbitrary small sizes.
func TestSortedKeysProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw % 512)
		keys := SortedKeys(n, seed)
		if len(keys) != n {
			return false
		}
		return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
