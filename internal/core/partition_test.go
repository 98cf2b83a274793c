package core

import (
	"encoding/binary"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestNewPartitioningBasics(t *testing.T) {
	keys := workload.EvenKeys(1000)
	p, err := NewPartitioning(keys, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Parts) != 10 {
		t.Fatalf("parts = %d", len(p.Parts))
	}
	total := 0
	for i, part := range p.Parts {
		if part.Slave != i {
			t.Errorf("part %d has slave id %d", i, part.Slave)
		}
		if part.RankBase != total {
			t.Errorf("part %d rank base = %d, want %d", i, part.RankBase, total)
		}
		total += len(part.Keys)
	}
	if total != len(keys) {
		t.Errorf("partitions cover %d keys, want %d", total, len(keys))
	}
	if len(p.Delimiters()) != 9 {
		t.Errorf("delimiters = %d, want parts-1", len(p.Delimiters()))
	}
	if p.DelimiterBytes() != 9*workload.KeyBytes {
		t.Errorf("delimiter bytes = %d", p.DelimiterBytes())
	}
}

func TestPartitioningEqualSizes(t *testing.T) {
	keys := workload.EvenKeys(327680)
	p, err := NewPartitioning(keys, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range p.Parts {
		if len(part.Keys) != 32768 {
			t.Errorf("part %d has %d keys, want 32768 (equal-size partitions)", i, len(part.Keys))
		}
	}
	if p.MaxPartKeys() != 32768 {
		t.Errorf("MaxPartKeys = %d", p.MaxPartKeys())
	}
}

func TestPartitioningUnevenSizes(t *testing.T) {
	keys := workload.EvenKeys(103)
	p, err := NewPartitioning(keys, 10)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, part := range p.Parts {
		n := len(part.Keys)
		if n < 10 || n > 11 {
			t.Errorf("uneven split: partition of %d keys", n)
		}
		total += n
	}
	if total != 103 {
		t.Errorf("total %d", total)
	}
}

func TestPartitioningErrors(t *testing.T) {
	keys := workload.EvenKeys(10)
	if _, err := NewPartitioning(keys, 0); err == nil {
		t.Error("0 parts accepted")
	}
	if _, err := NewPartitioning(keys, -1); err == nil {
		t.Error("negative parts accepted")
	}
	if _, err := NewPartitioning(keys, 11); err == nil {
		t.Error("more parts than keys accepted")
	}
	if _, err := NewPartitioning([]workload.Key{3, 1, 2}, 2); err == nil {
		t.Error("unsorted keys accepted")
	}
}

func TestRouteBoundaries(t *testing.T) {
	keys := []workload.Key{10, 20, 30, 40, 50, 60}
	p, err := NewPartitioning(keys, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Partitions: [10,20] [30,40] [50,60]; delimiters 30, 50.
	cases := []struct {
		k    workload.Key
		want int
	}{
		{0, 0}, {10, 0}, {29, 0}, {30, 1}, {49, 1}, {50, 2}, {100, 2},
	}
	for _, c := range cases {
		if got := p.Route(c.k); got != c.want {
			t.Errorf("Route(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

// The fundamental distributed-index invariant: routing + local rank +
// rank base reproduces the global rank for every query.
func TestRouteComposesToGlobalRank(t *testing.T) {
	keys := workload.SortedKeys(5000, 3)
	for _, parts := range []int{1, 2, 7, 10, 50} {
		p, err := NewPartitioning(keys, parts)
		if err != nil {
			t.Fatal(err)
		}
		r := workload.NewRNG(9)
		for i := 0; i < 5000; i++ {
			q := r.Key()
			s := p.Route(q)
			local := workload.ReferenceRank(p.Parts[s].Keys, q)
			if got, want := p.GlobalRank(s, local), workload.ReferenceRank(keys, q); got != want {
				t.Fatalf("parts=%d: key %d routed to %d gives rank %d, want %d", parts, q, s, got, want)
			}
		}
	}
}

// Property version over random key sets and partition counts.
func TestRouteComposesProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, partsRaw uint8, probes []uint32) bool {
		n := int(nRaw%3000) + 1
		parts := int(partsRaw%16) + 1
		if parts > n {
			parts = n
		}
		keys := workload.SortedKeys(n, seed)
		p, err := NewPartitioning(keys, parts)
		if err != nil {
			return false
		}
		for _, pr := range probes {
			q := workload.Key(pr)
			s := p.Route(q)
			local := workload.ReferenceRank(p.Parts[s].Keys, q)
			if p.GlobalRank(s, local) != workload.ReferenceRank(keys, q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// checkRoute holds Route to its definition, the count of delimiters
// <= k by sort.Search, on the probes and on every delimiter and its two
// neighbours.
func checkRoute(t *testing.T, p *Partitioning, probes []workload.Key) {
	t.Helper()
	d := p.Delimiters()
	for _, dk := range d {
		probes = append(probes, dk-1, dk, dk+1)
	}
	for _, q := range probes {
		want := sort.Search(len(d), func(i int) bool { return d[i] > q })
		if got := p.Route(q); got != want {
			t.Fatalf("%d partitions: Route(%#x) = %d, want %d", len(p.Parts), q, got, want)
		}
	}
}

// TestRouteTable is the differential test of the prefix-table Route on
// key sets chosen to put the delimiters where the table is weakest:
// none, one or every delimiter in a top-byte bucket, the first and last
// bucket, equal delimiters, and a table rebuilt by SplitAt.
func TestRouteTable(t *testing.T) {
	const n = 6000
	oneByte := make([]workload.Key, n) // every delimiter in bucket 0x5a
	ends := make([]workload.Key, n)    // buckets 0x00 and 0xff only
	dups := make([]workload.Key, n)    // runs of 100: equal neighbouring delimiters at 300 parts
	for i := range oneByte {
		oneByte[i] = 0x5a000000 + workload.Key(i)*2000
		ends[i] = workload.Key(i) * 3
		if i >= n/2 {
			ends[i] = ^workload.Key(0) - workload.Key(n-1-i)*3
		}
		dups[i] = workload.Key(i/100) << 22
	}
	sets := map[string][]workload.Key{
		"uniform": workload.SortedKeys(n, 5),
		"oneByte": oneByte,
		"ends":    ends,
		"dups":    dups,
	}
	spread := append(workload.UniformQueries(4096, 6), 0, 1, ^workload.Key(0)-1, ^workload.Key(0))
	for name, keys := range sets {
		probes := slices.Concat(spread, keys[:1024]) // uniform probes seldom meet a crowded bucket
		for _, parts := range []int{1, 2, 8, 65, 300} {
			p, err := NewPartitioning(keys, parts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkRoute(t, p, probes)
			for _, part := range []int{0, parts / 2, parts - 1} {
				cut, ok := SplitPoint(p.Parts[part].Keys)
				if !ok {
					continue // one duplicate run: no legal cut
				}
				sp, err := p.SplitAt(part, cut)
				if err != nil {
					t.Fatalf("%s: SplitAt(%d, %d) of %d partitions: %v", name, part, cut, parts, err)
				}
				checkRoute(t, sp, probes)
			}
		}
	}
}

// FuzzRoute builds a partitioning from fuzzed keys and a fuzzed
// partition count and holds Route to the sort.Search count on the
// remaining words as probes. shift crowds the keys, and so the
// delimiters, into the low top-byte buckets.
func FuzzRoute(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Add(binary.LittleEndian.AppendUint32(nil, 7), uint8(1), uint8(0), uint8(31))
	f.Fuzz(func(t *testing.T, data []byte, nkeys, parts, shift uint8) {
		var words []workload.Key
		for ; len(data) >= 4; data = data[4:] {
			words = append(words, workload.Key(binary.LittleEndian.Uint32(data)))
		}
		cut := min(int(nkeys), len(words))
		if cut == 0 {
			return
		}
		keys, probes := words[:cut], words[cut:]
		for i := range keys {
			keys[i] >>= shift % 32
		}
		slices.Sort(keys)
		p, err := NewPartitioning(keys, 1+int(parts)%len(keys))
		if err != nil {
			t.Fatal(err)
		}
		checkRoute(t, p, append(probes, 0, ^workload.Key(0)))
	})
}

func TestMethodStrings(t *testing.T) {
	want := map[Method]string{
		MethodA: "A", MethodB: "B", MethodC1: "C-1", MethodC2: "C-2", MethodC3: "C-3",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
		if !m.Valid() {
			t.Errorf("%v not valid", m)
		}
	}
	if Method(99).Valid() {
		t.Error("Method(99) valid")
	}
	if MethodA.Distributed() || MethodB.Distributed() {
		t.Error("A/B are not distributed")
	}
	if !MethodC1.Distributed() || !MethodC2.Distributed() || !MethodC3.Distributed() {
		t.Error("C variants are distributed")
	}
	if len(Methods()) != 5 {
		t.Error("Methods() should list all five")
	}
}

// TestPartitioningCutsBetweenDistinctKeys: an equal-size cut that would
// fall between two copies of one key moves off the run, so that the
// partition a key routes to holds every copy of it — MultiGet, answered
// per partition, depends on it. A run that fills a whole partition is the
// one case left cut through, and ranks and counts stay exact across it.
func TestPartitioningCutsBetweenDistinctKeys(t *testing.T) {
	for _, tc := range []struct {
		keys  []workload.Key
		parts int
		sizes []int
	}{
		{[]workload.Key{1, 2, 2, 3}, 2, []int{1, 3}},                   // cut 2 sits in the run of 2s: to its start
		{[]workload.Key{2, 2, 2, 3, 4, 5}, 2, []int{3, 3}},             // already between distinct keys
		{[]workload.Key{2, 2, 2, 2, 3, 4}, 2, []int{4, 2}},             // the run reaches back to the start: to its end
		{[]workload.Key{1, 2, 3, 3, 3, 3, 4, 5, 6}, 3, []int{2, 4, 3}}, // both cuts in one run: one each side
		{[]workload.Key{7, 7, 7, 7}, 2, []int{2, 2}},                   // no distinct cut exists
	} {
		p, err := NewPartitioning(tc.keys, tc.parts)
		if err != nil {
			t.Fatal(err)
		}
		base := 0
		for i, part := range p.Parts {
			if len(part.Keys) != tc.sizes[i] || part.RankBase != base {
				t.Fatalf("%v in %d: partition %d has %d keys at rank base %d, want %d at %d",
					tc.keys, tc.parts, i, len(part.Keys), part.RankBase, tc.sizes[i], base)
			}
			base += len(part.Keys)
		}
		distinct := tc.keys[0] != tc.keys[len(tc.keys)-1]
		c, err := NewCluster(tc.keys, RealConfig{Method: MethodC3, Workers: tc.parts, BatchKeys: 16})
		if err != nil {
			t.Fatal(err)
		}
		o := newQueryOracle(tc.keys)
		probe := append([]workload.Key{0, 8}, tc.keys...)
		got, err := c.MultiGet(probe)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range probe {
			if n, err := c.CountRange(k, k); err != nil || n != o.multiplicity(k) {
				t.Fatalf("%v in %d: CountRange(%d, %d) = %d (%v), want %d", tc.keys, tc.parts, k, k, n, err, o.multiplicity(k))
			}
			if distinct && got[i] != o.multiplicity(k) {
				t.Fatalf("%v in %d: MultiGet(%d) = %d, want %d", tc.keys, tc.parts, k, got[i], o.multiplicity(k))
			}
		}
		c.Close()
	}
}
