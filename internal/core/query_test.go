package core

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/workload"
)

// queryOracle answers the four ops from a plain sorted []int via
// sort.SearchInts — the independent reference implementation every
// engine configuration is checked against.
type queryOracle struct{ ints []int }

func newQueryOracle(keys []workload.Key) *queryOracle {
	o := &queryOracle{ints: make([]int, len(keys))}
	for i, k := range keys {
		o.ints[i] = int(k)
	}
	sort.Ints(o.ints)
	return o
}

func (o *queryOracle) add(keys []workload.Key) {
	for _, k := range keys {
		o.ints = append(o.ints, int(k))
	}
	sort.Ints(o.ints)
}

func (o *queryOracle) countRange(lo, hi workload.Key) int {
	if hi < lo {
		return 0
	}
	return sort.SearchInts(o.ints, int(hi)+1) - sort.SearchInts(o.ints, int(lo))
}

func (o *queryOracle) scanRange(lo, hi workload.Key, limit int) []workload.Key {
	var out []workload.Key
	if hi < lo {
		return out
	}
	for i := sort.SearchInts(o.ints, int(lo)); i < len(o.ints) && o.ints[i] <= int(hi); i++ {
		if limit >= 0 && len(out) >= limit {
			break
		}
		out = append(out, workload.Key(o.ints[i]))
	}
	return out
}

func (o *queryOracle) topK(k int) []workload.Key {
	var out []workload.Key
	for i := len(o.ints) - 1; i >= 0 && len(out) < k; i-- {
		out = append(out, workload.Key(o.ints[i]))
	}
	return out
}

func (o *queryOracle) multiplicity(k workload.Key) int {
	return o.countRange(k, k)
}

// queryConfigs enumerates the oracle sweep's engine configurations:
// all five methods.
func queryConfigs() []RealConfig {
	var cfgs []RealConfig
	for _, m := range Methods() {
		// Batches of up to 4,096 keys, so that the large calls of the check
		// reach a partition whole.
		cfgs = append(cfgs, RealConfig{Method: m, Workers: 5, BatchKeys: 4096, MergeThreshold: 256})
	}
	return cfgs
}

// cutRunKeys is a key set whose run of one key is longer than a
// partition: 100 keys, key 500 at positions 10–95. Four equal partitions
// cut the run twice (delimiters 500, 500, 1096), so copies of 500 live in
// partitions 1 and 2 and a range from 500 must ask the partition below
// Route(500).
func cutRunKeys() []workload.Key {
	keys := make([]workload.Key, 100)
	for i := range keys {
		switch {
		case i < 10:
			keys[i] = workload.Key(10 * i)
		case i <= 95:
			keys[i] = 500
		default:
			keys[i] = workload.Key(1000 + i)
		}
	}
	return keys
}

// checkQueryOps checks every op against the oracle over keys below
// maxKey.
func checkQueryOps(t *testing.T, tag string, c *Cluster, o *queryOracle, rng *rand.Rand, maxKey int) {
	t.Helper()
	present := func() workload.Key { return workload.Key(o.ints[rng.Intn(len(o.ints))]) }

	ranges := make([]KeyRange, 32)
	for i := range ranges {
		lo := workload.Key(rng.Intn(maxKey))
		hi := workload.Key(rng.Intn(maxKey))
		if i%5 == 0 {
			lo, hi = present(), present() // from and to indexed keys, [k, k] among them
		}
		if i%7 == 0 {
			hi = lo - 1 // inverted: must count 0
		}
		if i%11 == 0 {
			lo = 0 // range from the origin
		}
		ranges[i] = KeyRange{Lo: lo, Hi: hi}
	}
	counts := make([]int, len(ranges))
	if err := c.CountRangeBatch(ranges, counts); err != nil {
		t.Fatalf("%s: CountRangeBatch: %v", tag, err)
	}
	for i, r := range ranges {
		if want := o.countRange(r.Lo, r.Hi); counts[i] != want {
			t.Fatalf("%s: CountRange(%d,%d) = %d, want %d", tag, r.Lo, r.Hi, counts[i], want)
		}
	}

	for trial := 0; trial < 8; trial++ {
		lo := workload.Key(rng.Intn(maxKey))
		if trial%2 == 0 {
			lo = present()
		}
		hi := lo + workload.Key(rng.Intn(maxKey/8))
		limit := rng.Intn(200) - 1
		got, err := c.ScanRange(lo, hi, limit, nil)
		if err != nil {
			t.Fatalf("%s: ScanRange: %v", tag, err)
		}
		want := o.scanRange(lo, hi, limit)
		if len(got) != len(want) {
			t.Fatalf("%s: ScanRange(%d,%d,%d) len %d, want %d", tag, lo, hi, limit, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: ScanRange(%d,%d)[%d] = %d, want %d", tag, lo, hi, i, got[i], want[i])
			}
		}
	}

	for _, k := range []int{1, 3, 17, 100} {
		got, err := c.TopK(k, nil)
		if err != nil {
			t.Fatalf("%s: TopK: %v", tag, err)
		}
		want := o.topK(k)
		if len(got) != len(want) {
			t.Fatalf("%s: TopK(%d) len %d, want %d", tag, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: TopK(%d)[%d] = %d, want %d", tag, k, i, got[i], want[i])
			}
		}
	}

	qs := make([]workload.Key, 64)
	for i := range qs {
		if i%3 == 0 {
			qs[i] = present()
		} else {
			qs[i] = workload.Key(rng.Intn(maxKey))
		}
	}
	muls, err := c.MultiGet(qs)
	if err != nil {
		t.Fatalf("%s: MultiGet: %v", tag, err)
	}
	for i, q := range qs {
		if want := o.multiplicity(q); muls[i] != want {
			t.Fatalf("%s: MultiGet key %d = %d, want %d", tag, q, muls[i], want)
		}
	}

	// One call of each batch op large enough that every partition is
	// handed thousands of keys in a batch: the batch kernels take their
	// sorted forms only from runs of 128 up.
	big := make([]workload.Key, 4096*5)
	wide := make([]KeyRange, len(big))
	for i := range big {
		big[i] = workload.Key(rng.Intn(maxKey))
		if i%2 == 0 {
			big[i] = present()
		}
		wide[i] = KeyRange{Lo: big[i], Hi: big[i] + workload.Key(rng.Intn(maxKey/64))}
	}
	muls, err = c.MultiGet(big)
	if err != nil {
		t.Fatalf("%s: MultiGet of %d keys: %v", tag, len(big), err)
	}
	counts = make([]int, len(wide))
	if err := c.CountRangeBatch(wide, counts); err != nil {
		t.Fatalf("%s: CountRangeBatch of %d ranges: %v", tag, len(wide), err)
	}
	for i, q := range big {
		if want := o.multiplicity(q); muls[i] != want {
			t.Fatalf("%s: MultiGet of %d keys: key %d = %d, want %d", tag, len(big), q, muls[i], want)
		}
		if want := o.countRange(wide[i].Lo, wide[i].Hi); counts[i] != want {
			t.Fatalf("%s: CountRangeBatch of %d ranges: (%d,%d) = %d, want %d", tag, len(wide), wide[i].Lo, wide[i].Hi, counts[i], want)
		}
	}
}

// TestQueryOpsOracleSweep is the cross-method oracle sweep: all four
// new ops, every method,
// checked exact against a sort.SearchInts oracle at quiescent
// checkpoints between rounds of concurrent inserts and queries. Each
// method runs it over 8,000 uniform keys, then over cutRunKeys on four
// workers.
func TestQueryOpsOracleSweep(t *testing.T) {
	for _, cfg := range queryConfigs() {
		tag := cfg.Method.String()
		t.Run(tag, func(t *testing.T) {
			t.Parallel()
			const maxKey = 1 << 20
			rng := rand.New(rand.NewSource(42))
			keys := make([]workload.Key, 8000)
			for i := range keys {
				keys[i] = workload.Key(rng.Intn(maxKey))
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			sweepQueryOps(t, tag, cfg, keys, maxKey, rng)

			t.Run("cut-run", func(t *testing.T) {
				cfg := cfg
				cfg.Workers = 4
				keys := cutRunKeys()
				c, err := NewCluster(keys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if p := c.Partitioning(); p != nil && !slices.Equal(p.Delimiters(), []workload.Key{500, 500, 1096}) {
					t.Fatalf("delimiters %v, want [500 500 1096]", p.Delimiters())
				}
				n, err := c.CountRange(500, 500)
				if err != nil || n != 86 {
					t.Errorf("CountRange(500, 500) = %d (err %v), want 86", n, err)
				}
				scan, err := c.ScanRange(500, 500, -1, nil)
				if err != nil || len(scan) != 86 {
					t.Errorf("ScanRange(500, 500) returned %d keys (err %v), want 86", len(scan), err)
				}
				muls, err := c.MultiGet([]workload.Key{500})
				if err != nil || muls[0] != 86 {
					t.Errorf("MultiGet(500) = %v (err %v), want 86", muls, err)
				}
				c.Close()
				sweepQueryOps(t, tag+"/cut-run", cfg, keys, 1100, rand.New(rand.NewSource(43)))
			})
		})
	}
}

// sweepQueryOps runs one sweep: the ops on a fresh cluster over keys, then
// three rounds of inserts racing queries, each followed by the oracle
// check.
func sweepQueryOps(t *testing.T, tag string, cfg RealConfig, keys []workload.Key, maxKey int, rng *rand.Rand) {
	c, err := NewCluster(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	o := newQueryOracle(keys)

	checkQueryOps(t, tag+"/static", c, o, rng, maxKey)

	for round := 0; round < 3; round++ {
		// Concurrent phase: inserts race queries. Results are
		// consistent point-in-time views, so only structural
		// invariants are checked here; exactness is verified at
		// the quiescent checkpoint below.
		ins := make([]workload.Key, 600)
		for i := range ins {
			ins[i] = workload.Key(rng.Intn(maxKey))
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for start := 0; start < len(ins); start += 100 {
				if err := c.InsertBatch(ins[start : start+100]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(round)))
			for i := 0; i < 20; i++ {
				lo := workload.Key(qrng.Intn(maxKey))
				hi := lo + workload.Key(qrng.Intn(maxKey/4))
				n, err := c.CountRange(lo, hi)
				if err != nil || n < 0 {
					t.Errorf("concurrent CountRange: n=%d err=%v", n, err)
					return
				}
				scan, err := c.ScanRange(lo, hi, 50, nil)
				if err != nil {
					t.Errorf("concurrent ScanRange: %v", err)
					return
				}
				for j := 1; j < len(scan); j++ {
					if scan[j] < scan[j-1] {
						t.Errorf("concurrent ScanRange not ascending at %d", j)
						return
					}
				}
				top, err := c.TopK(10, nil)
				if err != nil {
					t.Errorf("concurrent TopK: %v", err)
					return
				}
				for j := 1; j < len(top); j++ {
					if top[j] > top[j-1] {
						t.Errorf("concurrent TopK not descending at %d", j)
						return
					}
				}
			}
		}()
		wg.Wait()
		o.add(ins)
		// Quiescent checkpoint: all writes acked, oracle caught up.
		checkQueryOps(t, tag+"/quiesced", c, o, rng, maxKey)
	}
}
