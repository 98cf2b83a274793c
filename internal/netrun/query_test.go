package netrun

import (
	"bytes"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
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

// cutRunKeys is a key set whose run of one key is longer than a
// partition: 100 keys, key 500 at positions 10–95. Four equal partitions
// cut the run twice (delimiters 500, 500, 1096), so copies of 500 live in
// partitions 1 and 2, and a read of 500 asks partition 2 and adds the 40
// copies under it from the routing table.
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

// checkTCPQueryOps checks every op against the oracle over keys below
// maxKey.
func checkTCPQueryOps(t *testing.T, tag string, c *Cluster, o *tcpQueryOracle, rng *rand.Rand, maxKey int) {
	t.Helper()
	present := func() workload.Key { return workload.Key(o.ints[rng.Intn(len(o.ints))]) }

	ranges := make([]KeyRange, 24)
	for i := range ranges {
		lo := workload.Key(rng.Intn(maxKey))
		hi := workload.Key(rng.Intn(maxKey))
		if i%5 == 0 {
			lo, hi = present(), present() // from and to indexed keys, [k, k] among them
		}
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
		if want := o.countRange(q, q); muls[i] != want {
			t.Fatalf("%s: MultiGet key %d = %d, want %d", tag, q, muls[i], want)
		}
	}

	// One call of each batch op large enough that every partition is sent
	// thousands of keys in a frame: the node's batch kernels take their
	// sorted forms only from runs of 128 up.
	big := make([]workload.Key, 4096*c.Nodes())
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
		if want := o.countRange(q, q); muls[i] != want {
			t.Fatalf("%s: MultiGet of %d keys: key %d = %d, want %d", tag, len(big), q, muls[i], want)
		}
		if want := o.countRange(wide[i].Lo, wide[i].Hi); counts[i] != want {
			t.Fatalf("%s: CountRangeBatch of %d ranges: (%d,%d) = %d, want %d", tag, len(wide), wide[i].Lo, wide[i].Hi, counts[i], want)
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
// concurrent inserts and queries — over 16,000 uniform keys, then over
// cutRunKeys.
func TestTCPQueryOpsOracle(t *testing.T) {
	keys := workload.SortedKeys(16000, 31)
	sweepTCPQueryOps(t, keys, int(keys[len(keys)-1])+1)

	t.Run("cut-run", func(t *testing.T) {
		rc, shutdown := startReplicated(t, cutRunKeys(), 4, 1, 4096, DialOptions{})
		if d := rc.c.part.Load().Delimiters(); !slices.Equal(d, []workload.Key{500, 500, 1096}) {
			t.Fatalf("delimiters %v, want [500 500 1096]", d)
		}
		n, err := rc.c.CountRange(500, 500)
		if err != nil || n != 86 {
			t.Errorf("CountRange(500, 500) = %d (err %v), want 86", n, err)
		}
		scan, err := rc.c.ScanRange(500, 500, -1, nil)
		if err != nil || len(scan) != 86 {
			t.Errorf("ScanRange(500, 500) returned %d keys (err %v), want 86", len(scan), err)
		}
		muls, err := rc.c.MultiGet([]workload.Key{500})
		if err != nil || muls[0] != 86 {
			t.Errorf("MultiGet(500) = %v (err %v), want 86", muls, err)
		}
		shutdown()
		sweepTCPQueryOps(t, cutRunKeys(), 1100)
	})
}

// sweepTCPQueryOps runs one sweep over keys on four partitions of two
// replicas: the ops, then three rounds of inserts racing queries, each
// followed by the oracle check.
func sweepTCPQueryOps(t *testing.T, keys []workload.Key, maxKey int) {
	// Frames of up to 4,096 keys, so that the large calls of the check
	// reach a node whole.
	rc, shutdown := startReplicated(t, keys, 4, 2, 4096, DialOptions{})
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

// TestCountRangeExactUnderInserts counts one range spanning partitions 2
// to 6 of eight, on both engines, while another goroutine inserts keys
// only below it: no key ever enters the range, so every count must be the
// static one. In process the inserts also outgrow partitions 0 and 1, so
// rebalances move the delimiters under the counts, several times a run.
func TestCountRangeExactUnderInserts(t *testing.T) {
	keys := workload.SortedKeys(8*4096, 3)
	p, err := core.NewPartitioning(keys, 8)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := p.Parts[2].Keys[0], p.Parts[6].Keys[len(p.Parts[6].Keys)-1]
	want := p.Parts[6].RankBase + len(p.Parts[6].Keys) - p.Parts[2].RankBase

	type engine interface {
		CountRange(lo, hi workload.Key) (int, error)
		InsertBatch(keys []workload.Key) error
	}
	run := func(t *testing.T, e engine, calls int) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1))
			ins := make([]workload.Key, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range ins {
					ins[i] = workload.Key(rng.Int63n(int64(lo)))
				}
				if err := e.InsertBatch(ins); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wrong, first := 0, 0
		for i := 0; i < calls; i++ {
			n, err := e.CountRange(lo, hi)
			if err != nil {
				t.Error(err)
				break
			}
			if n != want {
				if wrong == 0 {
					first = n
				}
				wrong++
			}
		}
		close(stop)
		wg.Wait()
		if wrong > 0 {
			t.Errorf("%d of %d counts of [%d, %d] were wrong (the first %d), want all %d", wrong, calls, lo, hi, first, want)
		}
	}

	t.Run("in-process", func(t *testing.T) {
		c, err := core.NewCluster(keys, core.RealConfig{
			Method: core.MethodC3, Workers: 8, BatchKeys: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		run(t, c, 20000)
	})
	t.Run("tcp", func(t *testing.T) {
		c, shutdown := startCluster(t, keys, 8, 4096)
		defer shutdown()
		run(t, c, 2000)
	})
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

// TestQueryOpsGoldenFrames pins the bytes of one OpCountRange and one
// OpMultiGet exchange — request, and the OpCounts reply — asking what
// the build whose node answered them with two binary searches per range
// per layer was asked: ranges from the origin, inverted, of one key, to
// the end of the key space, across duplicates and buffered copies. The
// batch kernels changed how the node counts, and v7 how the counts
// travel (words, where v6 sent varints), not one count it says.
func TestQueryOpsGoldenFrames(t *testing.T) {
	node := goldenQueryNode()
	var fw frameWriter
	for _, c := range []struct {
		name   string
		req    Frame
		frames string
	}{
		{"count_range", Frame{Op: OpCountRange, ReqID: 42, Payload: goldenPairs}, goldenCountRange},
		{"multi_get", Frame{Op: OpMultiGet, ReqID: 43, Payload: goldenGets}, goldenMultiGet},
	} {
		req, err := fw.encode(c.req)
		if err != nil {
			t.Fatal(err)
		}
		request := hex.EncodeToString(req)
		if got := request + " " + exchangeHex(t, node, request); got != c.frames {
			t.Errorf("%s: request and reply frames\n got %s\nwant %s", c.name, got, c.frames)
		}
	}
}

// goldenQueryNode is the node the query-op goldens ask: every key twice,
// and copies of key 0, 5, 70000 and the top key buffered.
func goldenQueryNode() *Node {
	keys := make([]workload.Key, 1000)
	for i := range keys {
		keys[i] = workload.Key(i / 2 * 70000) // every key twice
	}
	node := NewPartitionNode(keys, 5000)
	node.upd.InsertBatch([]workload.Key{0, 70000, 70000, 5, math.MaxUint32})
	return node
}

var (
	goldenPairs = []uint32{
		0, 0, 0, 69999, 0, math.MaxUint32, 1, 70000, 70000, 70000, 70001, 70000, 6, 5,
		140000, 34930000, 34930000, math.MaxUint32, math.MaxUint32, math.MaxUint32, math.MaxUint32, 0,
	}
	goldenGets = []uint32{0, 0, 1, 5, 69999, 70000, 70001, 140000, 34930000, 34930001, math.MaxUint32}
)

// exchangeHex serves the request frame given as hex on a fresh
// connection of node and returns the reply's bytes as hex.
func exchangeHex(t *testing.T, node *Node, request string) string {
	t.Helper()
	req, _ := hex.DecodeString(request)
	var sent bytes.Buffer
	s := serveOn(node, bytes.NewReader(req), &sent)
	f, err := s.bc.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !s.serve(f) {
		t.Fatalf("op %d: the node dropped the connection", f.Op)
	}
	return hex.EncodeToString(sent.Bytes())
}

// TestQueryOpsGoldenFramesV7 pins the exchanges v7 made word runs of —
// a scan, a top-k and a snapshot, which v6 delta-coded — from request
// to reply.
func TestQueryOpsGoldenFramesV7(t *testing.T) {
	node := goldenQueryNode()
	small := NewPartitionNode([]workload.Key{3, 3, 70000, math.MaxUint32}, 9)
	small.upd.InsertBatch([]workload.Key{4, 3})
	var fw frameWriter
	for _, c := range []struct {
		name   string
		node   *Node
		req    Frame
		frames string
	}{
		{"scan_range", node, Frame{Op: OpScanRange, ReqID: 44, Payload: []uint32{1, 140000, 4}}, goldenScanRangeV7},
		{"top_k", node, Frame{Op: OpTopK, ReqID: 45, Payload: []uint32{3}}, goldenTopKV7},
		{"snapshot", small, Frame{Op: OpSnapshot, ReqID: 46}, goldenSnapshotV7},
	} {
		req, err := fw.encode(c.req)
		if err != nil {
			t.Fatal(err)
		}
		request := hex.EncodeToString(req)
		if got := request + " " + exchangeHex(t, c.node, request); got != c.frames {
			t.Errorf("%s: request and reply frames\n got %s\nwant %s", c.name, got, c.frames)
		}
	}
}

// Request frame, a space, reply frame. The count and multiplicity
// replies are, as words, the varints the v6 form of the exchange carried
// at commit bddf63c.
const (
	goldenCountRange  = "05201ddc112a000000160000000000000000000000000000006f11010000000000ffffffff0100000070110100701101007011010071110100701101000600000005000000e022020050fd140250fd1402ffffffffffffffffffffffffffffffff00000000 05201ddc162a0000000b0000000300000004000000ed03000005000000040000000000000000000000e4030000030000000100000000000000"
	goldenMultiGet    = "05201ddc142b0000000b000000000000000000000001000000050000006f1101007011010071110100e022020050fd140251fd1402ffffffff 05201ddc162b0000000b0000000300000003000000000000000100000000000000040000000000000002000000020000000000000001000000"
	goldenScanRangeV7 = "05201ddc122c0000000300000001000000e022020004000000 05201ddc152c0000000400000005000000701101007011010070110100"
	goldenTopKV7      = "05201ddc132d0000000100000003000000 05201ddc152d0000000300000050fd140250fd1402ffffffff"
	goldenSnapshotV7  = "05201ddc0a2e00000000000000 05201ddc0b2e000000060000000300000003000000030000000400000070110100ffffffff"
)

// TestScratchNotRetained sends a connection the requests that grow its
// scratch past what it may keep — an unlimited scan of a two-million-key
// partition, which stages the partition twice, and a lookup of more than
// a million keys — and holds every scratch slice to the cap afterwards;
// the next small request grows what it needs once and then allocates
// nothing.
func TestScratchNotRetained(t *testing.T) {
	keys := workload.SortedKeys(2<<20, 73)
	node := NewPartitionNode(keys, 0)
	var sent bytes.Buffer
	s := serveOn(node, nil, &sent)
	if !s.serve(onWire(t, Frame{Op: OpScanRange, ReqID: 1, Payload: []uint32{0, math.MaxUint32, 0}})) {
		t.Fatal("the node dropped the connection")
	}
	f, err := ReadFrame(&sent)
	if err != nil || f.Op != OpKeysDelta || len(f.Payload) != len(keys) {
		t.Fatalf("scan reply op %d returned %d keys, want %d: %v", f.Op, len(f.Payload), len(keys), err)
	}
	s.bc = newBufferedConn(duplex{nil, io.Discard})
	if !s.serve(onWire(t, Frame{Op: OpLookup, ReqID: 2, Payload: make([]uint32, keepReplyScratch+1)})) {
		t.Fatal("the node dropped the connection")
	}
	for name, kept := range map[string]int{"keyBuf": cap(s.keyBuf), "intBuf": cap(s.intBuf), "scanBuf": cap(s.scanBuf), "reply frame": cap(s.bc.fw.buf)} {
		if kept > keepReplyScratch {
			t.Errorf("the connection kept %d elements of %s, above the cap of %d", kept, name, keepReplyScratch)
		}
	}
	small := onWire(t, Frame{Op: OpCountRange, ReqID: 3, Payload: []uint32{0, 1 << 30, 1 << 20, 1 << 31}})
	s.serve(small)
	if allocs := testing.AllocsPerRun(10, func() { s.serve(small) }); allocs != 0 {
		t.Errorf("%v allocations per small request after the large ones, want 0", allocs)
	}
}

// onWire is f as a connection's frame reader hands it to serve: written
// by the frame writer and read back, a word payload as its raw bytes.
func onWire(t *testing.T, f Frame) Frame {
	t.Helper()
	var fw frameWriter
	buf, err := fw.encode(f)
	if err != nil {
		t.Fatal(err)
	}
	var fr frameReader
	if f, err = fr.readFrom(bytes.NewReader(buf)); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTCPQueryOpsSteadyStateAllocs holds the four query ops and the
// unsorted and sorted rank calls, at the referee's sizes over two
// loopback nodes, and the unsorted rank and MultiGet calls over one node
// (every call to one partition is cut into contiguous runs), to a steady
// state that allocates nothing — client and nodes together, since both
// run here. (A garbage collection empties the pools, hence at most one.)
// The one-node answers are checked against the oracle first.
func TestTCPQueryOpsSteadyStateAllocs(t *testing.T) {
	keys := workload.SortedKeys(327680, 1)
	c, shutdown := startCluster(t, keys, 2, 16384)
	defer shutdown()
	one, shutdownOne := startCluster(t, keys, 1, 16384)
	defer shutdownOne()
	asked := workload.UniformQueries(16384, 5)
	for i := 0; i < len(asked); i += 2 {
		asked[i] = keys[(i*7919)%len(keys)]
	}
	oneRanks, oneMuls := make([]int, len(asked)), make([]int, len(asked))
	if err := one.LookupBatchInto(asked, oneRanks); err != nil {
		t.Fatal(err)
	}
	if err := one.MultiGetInto(asked, oneMuls); err != nil {
		t.Fatal(err)
	}
	o := newTCPQueryOracle(keys)
	for i, q := range asked {
		if rank, mul := o.countRange(0, q), o.countRange(q, q); oneRanks[i] != rank || oneMuls[i] != mul {
			t.Fatalf("one node: key %d ranks %d and counts %d, want %d and %d", q, oneRanks[i], oneMuls[i], rank, mul)
		}
	}
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	ranges := make([]KeyRange, 4096)
	for i := range ranges {
		lo := workload.Key(uint32(i) * 1000003)
		ranges[i] = KeyRange{Lo: lo, Hi: lo + 1<<22}
	}
	counts := make([]int, 16384)
	gets := workload.UniformQueries(16384, 3)
	lookups := workload.UniformQueries(65536, 4)
	ascending := sortedCopy(lookups)
	ranks := make([]int, len(lookups))
	var buf []workload.Key
	var err error
	for name, op := range map[string]func(){
		"CountRangeBatch":          func() { err = c.CountRangeBatch(ranges, counts) },
		"MultiGetInto":             func() { err = c.MultiGetInto(gets, counts) },
		"ScanRange":                func() { buf, err = c.ScanRange(12345, math.MaxUint32, 4096, buf[:0]) },
		"TopK":                     func() { buf, err = c.TopK(1024, buf[:0]) },
		"LookupBatchInto":          func() { err = c.LookupBatchInto(lookups, ranks) },
		"LookupBatchInto/sorted":   func() { err = c.LookupBatchInto(ascending, ranks) },
		"one node/LookupBatchInto": func() { err = one.LookupBatchInto(asked, oneRanks) },
		"one node/MultiGetInto":    func() { err = one.MultiGetInto(asked, oneMuls) },
	} {
		op() // first growth
		if allocs := testing.AllocsPerRun(20, op); allocs > 1 || err != nil {
			t.Errorf("%s: %v allocations per call, want at most 1 (err %v)", name, allocs, err)
		}
	}
}
