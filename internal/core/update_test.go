package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// oracle is the reference index: the sorted key multiset, answered with
// sort.SearchInts. Rebuilt from the shadow key set at every checkpoint.
type oracle struct {
	keys []int
}

func newOracle(keys []workload.Key) *oracle {
	o := &oracle{keys: make([]int, len(keys))}
	for i, k := range keys {
		o.keys[i] = int(k)
	}
	sort.Ints(o.keys)
	return o
}

// rank is the number of keys <= k.
func (o *oracle) rank(k workload.Key) int {
	return sort.SearchInts(o.keys, int(k)+1)
}

func (o *oracle) insert(keys []workload.Key) {
	for _, k := range keys {
		o.keys = append(o.keys, int(k))
	}
	sort.Ints(o.keys)
}

// checkExact verifies the cluster agrees with the oracle on qs, via both
// the unsorted and the sorted dispatch paths.
func checkExact(t *testing.T, c *Cluster, o *oracle, qs []workload.Key) {
	t.Helper()
	out := make([]int, len(qs))
	if err := c.LookupBatchInto(qs, out); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if want := o.rank(q); out[i] != want {
			t.Fatalf("unsorted rank(%d) = %d, want %d", q, out[i], want)
		}
	}
	asc := append([]workload.Key(nil), qs...)
	sort.Slice(asc, func(i, j int) bool { return asc[i] < asc[j] })
	if err := c.LookupBatchInto(asc, out); err != nil {
		t.Fatal(err)
	}
	for i, q := range asc {
		if want := o.rank(q); out[i] != want {
			t.Fatalf("sorted rank(%d) = %d, want %d", q, out[i], want)
		}
	}
}

// TestMixedReadWriteAllMethods drives every method through
// interleaved insert and lookup phases: lookups issued
// concurrently with an insert stream must stay within the monotone
// envelope of the before/after oracles, and quiescent lookups must be
// exactly the oracle.
func TestMixedReadWriteAllMethods(t *testing.T) {
	type variant struct {
		name string
		cfg  RealConfig
	}
	var variants []variant
	for _, m := range Methods() {
		variants = append(variants, variant{m.String(), RealConfig{
			Method: m, Workers: 4, BatchKeys: 512, MergeThreshold: 256,
		}})
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			keys := workload.SortedKeys(8192, 1)
			c, err := NewCluster(keys, v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			o := newOracle(keys)
			qs := workload.UniformQueries(700, 2)

			for phase := 0; phase < 4; phase++ {
				before := make([]int, len(qs))
				for i, q := range qs {
					before[i] = o.rank(q)
				}
				ins := workload.UniformQueries(1200, uint64(40+phase))
				o.insert(ins)
				after := make([]int, len(qs))
				for i, q := range qs {
					after[i] = o.rank(q)
				}

				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						out := make([]int, len(qs))
						for it := 0; it < 10; it++ {
							if err := c.LookupBatchInto(qs, out); err != nil {
								t.Error(err)
								return
							}
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
				for off := 0; off < len(ins); off += 300 {
					if err := c.InsertBatch(ins[off : off+300]); err != nil {
						t.Fatal(err)
					}
				}
				wg.Wait()
				checkExact(t, c, o, qs)
			}

			if got, want := c.KeyCount(), len(o.keys); got != want {
				t.Fatalf("KeyCount = %d, want %d", got, want)
			}
			if st := c.UpdateStats(); st.InsertedKeys != 4*1200 {
				t.Fatalf("InsertedKeys = %d, want %d", st.InsertedKeys, 4*1200)
			}
		})
	}
}

// TestEpochSwapUnderConcurrentReaders is the update tentpole's stress
// gate: 4 concurrent LookupBatch callers run nonstop while a skewed
// insert stream forces at least 3 background merges and at least one
// rebalance (a partition outgrowing its budget re-derives the
// delimiters and swaps the epoch). Every concurrent result must lie in
// the monotone oracle envelope; every quiescent checkpoint must match a
// sort.SearchInts oracle rebuilt from the shadow key set. Run with
// -race.
func TestEpochSwapUnderConcurrentReaders(t *testing.T) {
	keys := workload.SortedKeys(32768, 3)
	cfg := RealConfig{
		Method: MethodC3, Workers: 4, BatchKeys: 1024,
		MergeThreshold: 512, // merge early and often
		// Default budget: 2x the initial 8192-key partitions, so the
		// skewed stream below must trigger a rebalance.
	}
	c, err := NewCluster(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	o := newOracle(keys)
	qs := workload.UniformQueries(1500, 4)

	// Skew every insert into partition 0's range so one partition
	// absorbs the whole stream and blows through its budget.
	limit := c.Partitioning().Delimiters()[0]
	r := workload.NewRNG(9)
	skewed := func(n int) []workload.Key {
		out := make([]workload.Key, n)
		for i := range out {
			out[i] = workload.Key(r.Uint64()) % limit
		}
		return out
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int, len(qs))
			mine := append([]workload.Key(nil), qs...)
			if g%2 == 1 {
				sort.Slice(mine, func(i, j int) bool { return mine[i] < mine[j] })
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.LookupBatchInto(mine, out); err != nil {
					t.Error(err)
					return
				}
				// Sanity envelope while inserts stream: ranks are
				// monotone in inserts, so nothing may exceed the final
				// count or undershoot the seed rank. The exact check
				// happens at the quiescent checkpoints below.
				for i := range mine {
					if out[i] > len(keys)+20000 || out[i] < 0 {
						t.Errorf("rank(%d) = %d out of any possible range", mine[i], out[i])
						return
					}
				}
			}
		}(g)
	}

	// 20000 skewed keys in 500-key batches: a merge each time partition
	// 0's buffer reaches an eighth of it (1,024 keys and up, above the
	// 512 threshold), and partition 0 exceeds its 16384-key budget midway.
	var inserted []workload.Key
	for round := 0; round < 40; round++ {
		ins := skewed(500)
		if err := c.InsertBatch(ins); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, ins...)
		if round%10 == 9 {
			// Quiescent-for-writes checkpoint: the insert stream pauses
			// (InsertBatch has acked), so lookups must be exact against
			// the oracle rebuilt over the current shadow set — readers
			// hammering concurrently notwithstanding.
			o.insert(inserted)
			inserted = inserted[:0]
			checkExact(t, c, o, qs)
		}
	}
	close(stop)
	wg.Wait()

	o.insert(inserted)
	checkExact(t, c, o, qs)

	st := c.UpdateStats()
	if st.Merges < 3 {
		t.Fatalf("merges = %d, want >= 3", st.Merges)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.UpdateStats().Rebalances < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no rebalance after partition 0 exceeded its budget (stats %+v)", c.UpdateStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The rebalance must have rebuilt the delimiters so no partition
	// exceeds the budget (2x the seed partition size).
	p := c.Partitioning()
	if max := p.MaxPartKeys(); max > 2*8192 {
		t.Fatalf("after rebalance MaxPartKeys = %d, want <= %d", max, 2*8192)
	}
	checkExact(t, c, o, qs)
}

// TestInsertAfterCloseFails pins the lifecycle contract.
func TestInsertAfterCloseFails(t *testing.T) {
	keys := workload.SortedKeys(128, 1)
	c, err := NewCluster(keys, RealConfig{Method: MethodC3, Workers: 2, BatchKeys: 32})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.InsertBatch([]workload.Key{1}); err == nil {
		t.Fatal("InsertBatch after Close succeeded")
	}
}

// TestInsertVisibleToOwnerRouting pins that Partitioning() tracks the
// rebalanced epoch: after a heavy skewed insert burst the delimiters
// change, and routing plus rank answers stay mutually consistent.
func TestInsertVisibleToOwnerRouting(t *testing.T) {
	keys := workload.SortedKeys(4096, 7)
	// Budget 2200 stays attainable after the 2000-key burst (average
	// partition 1524 <= 2200), so the skewed partition (1024+2000 keys)
	// must trigger a re-partitioning.
	c, err := NewCluster(keys, RealConfig{
		Method: MethodC3, Workers: 4, BatchKeys: 256,
		MergeThreshold: 128, PartitionBudget: 2200,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oldDelims := append([]workload.Key(nil), c.Partitioning().Delimiters()...)
	limit := oldDelims[0]
	ins := make([]workload.Key, 2000)
	r := workload.NewRNG(8)
	for i := range ins {
		ins[i] = workload.Key(r.Uint64()) % limit
	}
	if err := c.InsertBatch(ins); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.UpdateStats().Rebalances == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no rebalance despite 3024 > 2200 budget")
		}
		time.Sleep(5 * time.Millisecond)
	}
	newDelims := c.Partitioning().Delimiters()
	same := len(newDelims) == len(oldDelims)
	if same {
		for i := range newDelims {
			if newDelims[i] != oldDelims[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("rebalance did not re-derive the delimiters")
	}
	o := newOracle(keys)
	o.insert(ins)
	checkExact(t, c, o, workload.UniformQueries(1000, 5))
}

// TestReplicatedMethodsShareOneCopy: Methods A and B are one partition
// that all the workers read, so one crossing of its merge trigger —
// max(MergeThreshold, an eighth of the partition) — is one compaction (one
// tree rebuilt, counted once) however many workers there are, and a key
// short of it is none. Eight concurrent readers, spread over those
// workers, see exact ranks and exact answers from all four query ops both
// while the compaction runs and after it has installed its result.
func TestReplicatedMethodsShareOneCopy(t *testing.T) {
	const maxKey = 1 << 20 // checkQueryOps draws its probes below this
	for _, m := range []Method{MethodA, MethodB} {
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(7))
			keys := make([]workload.Key, 60000)
			for i := range keys {
				keys[i] = workload.Key(rng.Intn(maxKey))
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			c, err := NewCluster(keys, RealConfig{
				Method: m, Workers: 8, BatchKeys: 1024, MergeThreshold: 512,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// Exactly one crossing of the trigger: 60,000/8 keys, above the
			// threshold.
			ins := make([]workload.Key, len(keys)/8)
			for i := range ins {
				ins[i] = workload.Key(rng.Intn(maxKey))
			}
			if err := c.InsertBatch(ins[:len(ins)-1]); err != nil {
				t.Fatal(err)
			}
			c.quiesceUpdates()
			if got := c.UpdateStats().Merges; got != 0 {
				t.Fatalf("a buffer one key short of the trigger caused %d compactions, want 0", got)
			}
			if err := c.InsertBatch(ins[len(ins)-1:]); err != nil {
				t.Fatal(err)
			}
			ranks, ops := newOracle(keys), newQueryOracle(keys)
			ranks.insert(ins)
			ops.add(ins)

			// Each reader is a subtest (its own goroutine may call t.Fatal);
			// the group returns when all eight have finished.
			readers := func(phase string) {
				t.Run(phase, func(t *testing.T) {
					for r := 0; r < 8; r++ {
						t.Run(fmt.Sprint(r), func(t *testing.T) {
							t.Parallel()
							qrng := rand.New(rand.NewSource(int64(r)))
							probes := make([]workload.Key, 3000) // three batches a call
							for i := range probes {
								probes[i] = workload.Key(qrng.Intn(maxKey))
							}
							checkExact(t, c, ranks, probes)
							checkQueryOps(t, m.String()+"/"+phase, c, ops, qrng, maxKey)
						})
					}
				})
			}
			readers("merging") // the compaction InsertBatch armed is running, or has just finished
			c.quiesceUpdates()
			if got := c.UpdateStats().Merges; got != 1 {
				t.Fatalf("one trigger crossing caused %d compactions, want 1", got)
			}
			if got, want := c.KeyCount(), len(keys)+len(ins); got != want {
				t.Fatalf("KeyCount = %d, want %d", got, want)
			}
			readers("merged")
		})
	}
}
