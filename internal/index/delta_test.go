package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/workload"
)

// oracleRank is the reference: count of keys <= k in the multiset.
func oracleRank(keys []workload.Key, k workload.Key) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] > k })
}

// TestDeltaRankMatchesOracle grows a buffer by small batches of
// duplicate-heavy keys, inserting on one grid for a few rounds and then
// moving to the next — two array grids over different ranges and the one
// bucket of a tree base — and after every batch holds the keys to their
// merge, both kernels to the oracle and the table to the one counted
// afresh on the same grid.
func TestDeltaRankMatchesOracle(t *testing.T) {
	r := workload.NewRNG(7)
	grids := []grid{
		gridOf(NewSortedArray(progression(640, 0, 1), 0)),
		gridOf(NewSortedArray(progression(6400, 300, 1), 0)),
		{buckets: 1},
	}
	var keys []workload.Key
	d := emptyDelta
	for round := 0; round < 50; round++ {
		batch := make([]workload.Key, r.Intn(20)+1)
		for i := range batch {
			batch[i] = r.Key() % 1000 // force duplicates
		}
		sortKeys(batch)
		g := grids[round/4%len(grids)]
		d = d.insert(batch, g)
		keys = MergeKeys(keys, batch)
		if !slices.Equal(d.keys, keys) {
			t.Fatalf("round %d: buffer holds %v, want %v", round, d.keys, keys)
		}
		if fresh := emptyDelta.insert(keys, g); !slices.Equal(d.table, fresh.table) {
			t.Fatalf("round %d: carried table %v, counted afresh %v", round, d.table, fresh.table)
		}
		qs := append(slices.Clone(keys), 0, 1, 499, 500, 999, 1000, ^workload.Key(0))
		got := make([]int, len(qs))
		d.RankAdd(qs, nil, got)
		for i, q := range qs {
			if want := oracleRank(keys, q); got[i] != want {
				t.Fatalf("round %d: RankAdd(%d) = %d, want %d", round, q, got[i], want)
			}
		}
		slices.Sort(qs)
		clear(got)
		d.RankSortedAdd(qs, got)
		for i, q := range qs {
			if want := oracleRank(keys, q); got[i] != want {
				t.Fatalf("round %d: RankSortedAdd(%d) = %d, want %d", round, q, got[i], want)
			}
		}
	}
}

func TestSortKeys(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 100, 4096} {
		keys := make([]workload.Key, n)
		for i := range keys {
			keys[i] = workload.Key(r.Uint32())
		}
		want := append([]workload.Key(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sortKeys(keys)
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("n=%d: sortKeys diverges at %d", n, i)
			}
		}
	}
}

// sortedArrayBuilder is the Method C-3 Builder.
func sortedArrayBuilder(keys []workload.Key) BatchRanker {
	return NewSortedArray(keys, 0)
}

func TestUpdatableExactUnderMerges(t *testing.T) {
	base := workload.SortedKeys(8*64, 1)
	u := NewUpdatable(base, sortedArrayBuilder, 64) // a base of 8·threshold: many merges
	all := append([]workload.Key(nil), base...)

	r := workload.NewRNG(2)
	for round := 0; round < 40; round++ {
		ins := make([]workload.Key, 50)
		for i := range ins {
			ins[i] = r.Key()
		}
		u.InsertBatch(ins)
		all = append(all, ins...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	u.Quiesce()
	if u.Merges() == 0 {
		t.Fatal("expected at least one background merge")
	}
	if got, want := u.TotalKeys(), len(all); got != want {
		t.Fatalf("TotalKeys = %d, want %d", got, want)
	}

	qs := workload.UniformQueries(2000, 3)
	out := make([]int, len(qs))
	u.RankBatch(qs, out, 10)
	for i, q := range qs {
		if want := oracleRank(all, q) + 10; out[i] != want {
			t.Fatalf("RankBatch(%d) = %d, want %d", q, out[i], want)
		}
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	u.RankSorted(qs, out, 0)
	for i, q := range qs {
		if want := oracleRank(all, q); out[i] != want {
			t.Fatalf("RankSorted(%d) = %d, want %d", q, out[i], want)
		}
	}

	snap := u.SnapshotKeys()
	if len(snap) != len(all) {
		t.Fatalf("SnapshotKeys len = %d, want %d", len(snap), len(all))
	}
	for i := range snap {
		if snap[i] != all[i] {
			t.Fatalf("SnapshotKeys diverges at %d", i)
		}
	}
}

// TestUpdatableMergePolicy: a buffer is merged when it holds an eighth of
// the base, so while a partition doubles it merges about
// 1 + log 2/log(1+1/8) times at 40,960 keys and at 327,680 alike (a fixed
// 4,096-key trigger merged 10 and 80 times), and the keys the merges write
// per inserted key stay under 1 + layerFraction at both sizes; a base below
// 8·threshold merges at the threshold. Ranks are exact after every merge.
func TestUpdatableMergePolicy(t *testing.T) {
	const batch = 1024
	for _, n := range []int{40960, 327680} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			base := workload.SortedKeys(n, uint64(n))
			u := NewUpdatable(base, BuildSortedArray, DefaultMergeThreshold)
			all := slices.Clone(base)
			r := workload.NewRNG(uint64(n) + 1)
			qs := workload.UniformQueries(2000, uint64(n)+2)
			out := make([]int, len(qs))
			merges, copied := uint64(0), 0
			for len(all) < 2*n {
				ins := make([]workload.Key, batch)
				for i := range ins {
					ins[i] = r.Key()
				}
				u.InsertBatch(ins)
				all = append(all, ins...)
				u.Quiesce()
				if u.Merges() == merges {
					continue
				}
				if merges++; u.Merges() != merges {
					t.Fatalf("one insert caused %d merges", u.Merges()-merges+1)
				}
				copied += len(u.pin().keys)
				slices.Sort(all)
				u.RankBatch(qs, out, 0)
				for i, q := range qs {
					if want := oracleRank(all, q); out[i] != want {
						t.Fatalf("after merge %d: rank(%d) = %d, want %d", merges, q, out[i], want)
					}
				}
			}
			if want := 1 + int(math.Ceil(math.Log(2)/math.Log1p(1.0/layerFraction))); merges > uint64(want) || merges < uint64(want-2) {
				t.Fatalf("%d merges while the partition doubled, want about %d", merges, want)
			}
			if perKey := float64(copied) / float64(len(all)-n); perKey > 1+layerFraction {
				t.Fatalf("merges wrote %.2f keys per inserted key, want at most %d", perKey, 1+layerFraction)
			}
		})
	}
	t.Run("floor", func(t *testing.T) {
		u := NewUpdatable(workload.SortedKeys(8*DefaultMergeThreshold-1, 3), BuildSortedArray, DefaultMergeThreshold)
		ins := workload.UniformQueries(DefaultMergeThreshold, 4)
		u.InsertBatch(ins[1:])
		u.Quiesce()
		if u.Merges() != 0 {
			t.Fatalf("a buffer one key short of the threshold merged")
		}
		u.InsertBatch(ins[:1])
		u.Quiesce()
		if u.Merges() != 1 {
			t.Fatalf("a buffer at the threshold over a base below 8·threshold made %d merges, want 1", u.Merges())
		}
	})
}

// TestUpdatableConcurrentReadersExact hammers one Updatable with
// concurrent readers while inserts stream in: every result must lie
// between the rank before the phase's inserts and the rank after them
// (rank is monotone in inserts), and quiescent phases must be exact. The
// base starts at 8·threshold, so merges come at the threshold floor and the
// inserts cross many merge installs.
func TestUpdatableConcurrentReadersExact(t *testing.T) {
	base := workload.SortedKeys(8*256, 5)
	u := NewUpdatable(base, sortedArrayBuilder, 256)
	all := append([]workload.Key(nil), base...)
	qs := workload.UniformQueries(512, 6)

	for phase := 0; phase < 8; phase++ {
		before := make([]int, len(qs))
		for i, q := range qs {
			before[i] = oracleRank(all, q)
		}
		ins := workload.UniformQueries(900, uint64(100+phase))
		sorted := append([]workload.Key(nil), ins...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		all = MergeKeys(all, sorted)
		after := make([]int, len(qs))
		for i, q := range qs {
			after[i] = oracleRank(all, q)
		}

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]int, len(qs))
				for iter := 0; iter < 20; iter++ {
					u.RankBatch(qs, out, 0)
					for i := range qs {
						if out[i] < before[i] || out[i] > after[i] {
							t.Errorf("phase %d: rank(%d) = %d outside [%d, %d]",
								phase, qs[i], out[i], before[i], after[i])
							return
						}
					}
				}
			}()
		}
		for off := 0; off < len(ins); off += 90 {
			u.InsertBatch(ins[off : off+90])
		}
		wg.Wait()

		// Quiescent: exact.
		out := make([]int, len(qs))
		u.RankBatch(qs, out, 0)
		for i := range qs {
			if out[i] != after[i] {
				t.Fatalf("phase %d quiescent: rank(%d) = %d, want %d", phase, qs[i], out[i], after[i])
			}
		}
	}
	u.Quiesce()
	if u.Merges() < 3 {
		t.Fatalf("merges = %d, want >= 3", u.Merges())
	}
}

// TestRankSortedSeesAckedKeys has a writer insert a fixed key set and
// force a merge after every insert, waiting out each, while readers rank a
// fixed ascending run with RankSorted and read TotalKeys: every rank and
// every count must take in every copy acknowledged before the read began,
// and none not yet begun by its end. A read that saw a merge install half
// done — the new base beside the buffer it merged, or the old base without
// it — or a count that its insert did not move, falls outside.
func TestRankSortedSeesAckedKeys(t *testing.T) {
	const readers, rounds = 2, 3000
	base := workload.SortedKeys(2048, 3)
	set := []workload.Key{1 << 30, 2 << 30, 3 << 30}
	qs := workload.SortedKeys(lanes, 4)
	own, per := make([]int, len(qs)), make([]int, len(qs))
	for i, q := range qs {
		own[i], per[i] = oracleRank(base, q), oracleRank(set, q)
	}
	u := NewUpdatable(base, BuildSortedArray, 1)
	var began, acked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1 + readers)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			began.Add(1)
			u.InsertBatch(set)
			acked.Add(1)
			freeze(u)
			u.Quiesce()
		}
	}()
	for rd := 0; rd < readers; rd++ {
		go func() {
			defer wg.Done()
			out := make([]int, len(qs))
			for acked.Load() < rounds {
				before := int(acked.Load())
				u.RankSorted(qs, out, 0)
				n := u.TotalKeys()
				after := int(began.Load())
				if n < len(base)+before*len(set) || n > len(base)+after*len(set) {
					t.Errorf("reader %d: TotalKeys = %d: the base holds %d, and inserts of %d keys were acknowledged %d times before the read, begun %d times by its end",
						rd, n, len(base), len(set), before, after)
					return
				}
				for i, r := range out {
					if r < own[i]+before*per[i] || r > own[i]+after*per[i] {
						t.Errorf("reader %d: rank(%d) = %d: the base holds %d, and inserts holding %d each were acknowledged %d times before the read, begun %d times by its end",
							rd, qs[i], r, own[i], per[i], before, after)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestUpdatableResetDiscardsInFlightMerge(t *testing.T) {
	base := workload.SortedKeys(8*8, 9)
	u := NewUpdatable(base, sortedArrayBuilder, 8)
	u.InsertBatch(workload.UniformQueries(64, 10)) // arms a merge
	fresh := workload.SortedKeys(500, 11)
	u.Reset(fresh)
	u.Quiesce()
	if got := u.TotalKeys(); got != len(fresh) {
		t.Fatalf("TotalKeys after Reset = %d, want %d", got, len(fresh))
	}
	out := make([]int, 1)
	u.RankBatch([]workload.Key{^workload.Key(0)}, out, 0)
	if out[0] != len(fresh) {
		t.Fatalf("rank(max) = %d, want %d (stale merge resurrected?)", out[0], len(fresh))
	}
}

// freeze freezes u's active buffer and spawns its merge now, below its
// trigger, unless a merge is already in flight.
func freeze(u *Updatable) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.pin().frozen == nil {
		u.freezeLocked()
	}
}

// FuzzInsertMerge drives an Updatable with an arbitrary interleaving of
// insert batches, merges (forced by tiny thresholds and by the script), and
// resets, and cross-checks every rank against the sort.Search oracle over
// the shadow multiset. The first base is a SortedArray of 16 buckets and an insert's
// keys spread over them, so buffers are carried forward on its grid,
// counted afresh on the next, and left on a stale one; a reset's base is
// one bucket.
func FuzzInsertMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 250, 7, 9}, uint16(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255}, uint16(1))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint16(64))
	f.Fuzz(func(t *testing.T, script []byte, threshold uint16) {
		if len(script) == 0 {
			return
		}
		base := workload.SortedKeys(1024, 1)
		u := NewUpdatable(base, sortedArrayBuilder, int(threshold%128)+1)
		shadow := append([]workload.Key(nil), base...)

		r := workload.NewRNG(uint64(len(script)))
		for i := 0; i < len(script); {
			op := script[i] % 16
			switch {
			case op < 12: // insert a small batch derived from the script
				n := int(script[i]%7) + 1
				batch := make([]workload.Key, 0, n)
				for j := 0; j < n && i+1+j < len(script); j++ {
					batch = append(batch, workload.Key(script[i+1+j])<<24|workload.Key(r.Intn(256)))
				}
				i += n + 1
				if len(batch) == 0 {
					continue
				}
				u.InsertBatch(batch)
				shadow = append(shadow, batch...)
				sort.Slice(shadow, func(a, b int) bool { return shadow[a] < shadow[b] })
			case op < 13: // quiesce (forces merge completion determinism)
				u.Quiesce()
				i++
			case op < 14: // merge the active buffer below its trigger
				freeze(u)
				i++
			default: // reset to a fresh base
				fresh := workload.SortedKeys(int(script[i]%32)+1, uint64(i))
				u.Reset(fresh)
				shadow = append(shadow[:0], fresh...)
				i++
			}
			// Probe a handful of ranks after every op.
			qs := append([]workload.Key{0, 255, 1 << 13, ^workload.Key(0), workload.Key(r.Uint64())}, shadow[len(shadow)/2], shadow[len(shadow)-1])
			out := make([]int, len(qs))
			u.RankBatch(qs, out, 0)
			for j, q := range qs {
				if want := oracleRank(shadow, q); out[j] != want {
					t.Fatalf("rank(%d) = %d, want %d (op %d at %d)", q, out[j], want, op, i)
				}
			}
		}
		u.Quiesce()
		snap := u.SnapshotKeys()
		if len(snap) != len(shadow) {
			t.Fatalf("snapshot len %d, want %d", len(snap), len(shadow))
		}
		for i := range snap {
			if snap[i] != shadow[i] {
				t.Fatalf("snapshot diverges at %d: %d vs %d", i, snap[i], shadow[i])
			}
		}
	})
}

// updatableParts is eight updatable partitions of n uniform keys, each
// holding buffered uniform keys in its active buffer, on its base's grid.
func updatableParts(n, buffered int) []*Updatable {
	us := make([]*Updatable, 8)
	for i := range us {
		us[i] = NewUpdatable(workload.SortedKeys(n, uint64(i+1)), BuildSortedArray, 0)
		if buffered > 0 {
			us[i].InsertBatch(workload.UniformQueries(buffered, uint64(100+i)))
		}
	}
	return us
}

// BenchmarkUpdatableRankBatch is the update layer's read row, base plus
// buffer, in ns per key of uniform queries: rows are
// <base keys>x<buffered keys>, and the x0 row is the clean path, the base
// alone. 327680x20480 is half the trigger at the TCP node's partition size.
func BenchmarkUpdatableRankBatch(b *testing.B) {
	for _, shape := range [][2]int{{40960, 0}, {40960, 2048}, {40960, DefaultMergeThreshold - 1}, {327680, 2048}, {327680, 20480}} {
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			benchRankBatch(b, benchSet(fmt.Sprint("read ", shape), func() []*Updatable { return updatableParts(shape[0], shape[1]) }))
		})
	}
}

// BenchmarkUpdatableInsertBatch is the update layer's write row: 100-key
// inserts into partitions whose buffer holds a row's buffered keys, in ns
// per inserted key; rows are <base keys>x<buffered keys>. An iteration
// inserts once into each of the eight partitions, each buffer put back to
// its buffered keys first.
func BenchmarkUpdatableInsertBatch(b *testing.B) {
	const batch = 100
	for _, shape := range [][2]int{{40960, 2048}, {327680, 2048}, {327680, 20480}} {
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			type parts struct {
				us   []*Updatable
				held []*Delta
			}
			set := benchSet(fmt.Sprint("insert ", shape), func() parts {
				us := updatableParts(shape[0], shape[1])
				held := make([]*Delta, len(us))
				for i, u := range us {
					held[i] = u.pin().delta
				}
				return parts{us, held}
			})
			us, held := set.us, set.held
			ins := workload.UniformQueries(64*batch, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p, u := range us {
					u.mu.Lock()
					next := *u.pin()
					next.n += len(held[p].keys) - len(next.delta.keys)
					next.delta = held[p]
					u.state.Store(&next)
					u.mu.Unlock()
					off := (i + p) % 64 * batch
					u.InsertBatch(ins[off : off+batch])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(us)*batch), "ns/key")
		})
	}
}
