package netrun

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// tcpQueryOracle answers the four query ops from a plain sorted []int via
// sort.SearchInts — the same independent reference the in-process
// sweep (core.TestQueryOpsOracleSweep) checks against.
type tcpQueryOracle struct{ ints []int }

func newTCPQueryOracle(keys []workload.Key) *tcpQueryOracle {
	o := &tcpQueryOracle{ints: make([]int, len(keys))}
	for i, k := range keys {
		o.ints[i] = int(k)
	}
	sort.Ints(o.ints)
	return o
}

func (o *tcpQueryOracle) add(keys []workload.Key) {
	for _, k := range keys {
		o.ints = append(o.ints, int(k))
	}
	sort.Ints(o.ints)
}

func (o *tcpQueryOracle) countRange(lo, hi workload.Key) int {
	if hi < lo {
		return 0
	}
	return sort.SearchInts(o.ints, int(hi)+1) - sort.SearchInts(o.ints, int(lo))
}

func (o *tcpQueryOracle) scanRange(lo, hi workload.Key, limit int) []workload.Key {
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

func (o *tcpQueryOracle) topK(k int) []workload.Key {
	var out []workload.Key
	for i := len(o.ints) - 1; i >= 0 && len(out) < k; i-- {
		out = append(out, workload.Key(o.ints[i]))
	}
	return out
}

func checkTCPQueryOps(t *testing.T, tag string, c *Cluster, o *tcpQueryOracle, rng *rand.Rand, maxKey int) {
	t.Helper()

	ranges := make([]KeyRange, 24)
	for i := range ranges {
		lo := workload.Key(rng.Intn(maxKey))
		hi := workload.Key(rng.Intn(maxKey))
		if i%7 == 0 {
			hi = lo - 1 // inverted: must count 0 without touching the wire
		}
		if i%11 == 0 {
			lo = 0
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

	for trial := 0; trial < 6; trial++ {
		lo := workload.Key(rng.Intn(maxKey))
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
			qs[i] = workload.Key(o.ints[rng.Intn(len(o.ints))]) // present key
		} else {
			qs[i] = workload.Key(rng.Intn(maxKey))
		}
	}
	muls, err := c.MultiGet(qs)
	if err != nil {
		t.Fatalf("%s: MultiGet: %v", tag, err)
	}
	for i, q := range qs {
		if want := o.countRange(q, q); muls[i] != want {
			t.Fatalf("%s: MultiGet key %d = %d, want %d", tag, q, muls[i], want)
		}
	}
}

// TestTCPQueryOpsAppendSemantics pins the buffer contract shared with
// the in-process engine: ScanRange and TopK append to the caller's
// slice — the prefix is preserved, and limit/k count only the appended
// keys. A caller reusing a buffer across calls passes buf[:0].
func TestTCPQueryOpsAppendSemantics(t *testing.T) {
	keys := workload.SortedKeys(4000, 5)
	rc, shutdown := startReplicated(t, keys, 3, 1, 256, DialOptions{})
	defer shutdown()
	c := rc.c

	prefix := []workload.Key{111, 222, 333}
	lo, hi := keys[100], keys[3000]
	const limit = 50
	got, err := c.ScanRange(lo, hi, limit, append([]workload.Key(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(prefix)+limit {
		t.Fatalf("ScanRange appended %d keys, want %d", len(got)-len(prefix), limit)
	}
	for i, p := range prefix {
		if got[i] != p {
			t.Fatalf("ScanRange clobbered prefix[%d]: got %d, want %d", i, got[i], p)
		}
	}
	fresh, err := c.ScanRange(lo, hi, limit, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range fresh {
		if got[len(prefix)+i] != k {
			t.Fatalf("ScanRange appended[%d] = %d, want %d", i, got[len(prefix)+i], k)
		}
	}

	const k = 40
	top, err := c.TopK(k, append([]workload.Key(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != len(prefix)+k {
		t.Fatalf("TopK appended %d keys, want %d", len(top)-len(prefix), k)
	}
	for i, p := range prefix {
		if top[i] != p {
			t.Fatalf("TopK clobbered prefix[%d]: got %d, want %d", i, top[i], p)
		}
	}
	freshTop, err := c.TopK(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range freshTop {
		if top[len(prefix)+i] != v {
			t.Fatalf("TopK appended[%d] = %d, want %d", i, top[len(prefix)+i], v)
		}
	}
}

// TestTCPQueryOpsOracle is the over-the-wire half of the oracle sweep:
// all four v5 ops against a replicated loopback cluster, exact against
// sort.SearchInts at quiescent checkpoints between rounds of
// concurrent inserts and queries.
func TestTCPQueryOpsOracle(t *testing.T) {
	keys := workload.SortedKeys(16000, 31)
	maxKey := int(keys[len(keys)-1]) + 1
	rc, shutdown := startReplicated(t, keys, 4, 2, 512, DialOptions{})
	defer shutdown()
	c := rc.c

	rng := rand.New(rand.NewSource(7))
	o := newTCPQueryOracle(keys)
	checkTCPQueryOps(t, "static", c, o, rng, maxKey)

	for round := 0; round < 3; round++ {
		ins := make([]workload.Key, 400)
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
			for i := 0; i < 15; i++ {
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
		checkTCPQueryOps(t, "quiesced", c, o, rng, maxKey)
	}
}

func scanChecksum(keys []workload.Key) uint32 {
	sum := uint32(0)
	for _, k := range keys {
		sum = sum*31 + uint32(k)
	}
	return sum
}

// TestTCPScanSurvivesReplicaKill kills a replica while scans stream
// against its partition: every scan — including any in flight at the
// kill, re-dispatched to the surviving sibling by the failover sweep —
// must return output checksum-identical to the pre-kill baseline.
func TestTCPScanSurvivesReplicaKill(t *testing.T) {
	keys := workload.SortedKeys(12000, 17)
	rc, shutdown := startReplicated(t, keys, 3, 2, 512, DialOptions{
		OpTimeout: 2 * time.Second,
	})
	defer shutdown()
	c := rc.c

	lo, hi := keys[0], keys[len(keys)-1]
	base, err := c.ScanRange(lo, hi, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(keys) {
		t.Fatalf("baseline scan returned %d keys, want %d", len(base), len(keys))
	}
	want := scanChecksum(base)
	baseTop, err := c.TopK(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantTop := scanChecksum(baseTop)

	const scans = 60
	done := make(chan error, 1)
	go func() {
		var buf []workload.Key
		for i := 0; i < scans; i++ {
			got, err := c.ScanRange(lo, hi, -1, buf[:0])
			if err != nil {
				done <- err
				return
			}
			buf = got
			if cs := scanChecksum(got); cs != want {
				done <- &checksumMismatch{i, cs, want}
				return
			}
			top, err := c.TopK(64, nil)
			if err != nil {
				done <- err
				return
			}
			if cs := scanChecksum(top); cs != wantTop {
				done <- &checksumMismatch{i, cs, wantTop}
				return
			}
		}
		done <- nil
	}()

	// Kill one replica of the middle partition while the scan loop
	// runs; in-flight pendings on it re-route to the sibling.
	time.Sleep(20 * time.Millisecond)
	rc.kill(1, 0)

	if err := <-done; err != nil {
		t.Fatalf("scan through replica kill: %v", err)
	}
	if n, err := c.CountRange(lo, hi); err != nil || n != len(keys) {
		t.Fatalf("post-kill CountRange = %d err=%v, want %d", n, err, len(keys))
	}
}

type checksumMismatch struct {
	iter       int
	got, wantV uint32
}

func (m *checksumMismatch) Error() string {
	return "checksum mismatch at iteration " + string(rune('0'+m.iter%10)) + ": got/want differ"
}
