package netrun

import (
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// startClusterCaps spawns one node per partition with the given
// protocol caps (caps[i] applies to partition i's node; ProtoV1
// emulates an old binary byte-for-byte) and dials them.
func startClusterCaps(t *testing.T, keys []workload.Key, batch int, caps []uint32) (*Cluster, func()) {
	t.Helper()
	p, err := core.NewPartitioning(keys, len(caps))
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	var addrs []string
	for i, cap32 := range caps {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node := NewPartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase)
		node.MaxVersion = cap32
		nodes = append(nodes, node)
		addrs = append(addrs, lis.Addr().String())
		go node.Serve(lis)
	}
	c, err := Dial(addrs, keys, DialOptions{BatchKeys: batch, Timeout: 5 * time.Second})
	if err != nil {
		for _, n := range nodes {
			n.Close()
		}
		t.Fatal(err)
	}
	return c, func() {
		c.Close()
		for _, n := range nodes {
			n.Close()
		}
	}
}

func sortedCopy(qs []workload.Key) []workload.Key {
	out := append([]workload.Key(nil), qs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func nodeVersions(c *Cluster) []uint32 {
	var out []uint32
	for _, g := range c.ep.Load().groups {
		for _, m := range g.nodes() {
			out = append(out, m.version)
		}
	}
	return out
}

// TestHelloNegotiatesV2 pins the version exchange: capped nodes
// negotiate their cap, emulated-v1 nodes negotiate v1, and uncapped
// updatable nodes negotiate the full current version — all on the same
// cluster.
func TestHelloNegotiatesV2(t *testing.T) {
	keys := workload.SortedKeys(4000, 31)
	c, shutdown := startClusterCaps(t, keys, 256, []uint32{0, ProtoV1, ProtoV2, 0})
	defer shutdown()

	want := []uint32{ProtoVersion, ProtoV1, ProtoV2, ProtoVersion} // cap 0 = full version
	got := nodeVersions(c)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("partition %d negotiated v%d, want v%d", i, got[i], want[i])
		}
	}
}

// TestSortedLookupAgainstV1Nodes is the interop acceptance test: a v2
// master given ascending batches must produce reference ranks against
// pure-v1 nodes (every sorted pending silently degrades to OpLookup),
// against pure-v2 nodes (delta frames), and against a mixed cluster.
func TestSortedLookupAgainstV1Nodes(t *testing.T) {
	keys := workload.SortedKeys(20000, 32)
	queries := sortedCopy(workload.UniformQueries(15000, 33))
	for name, caps := range map[string][]uint32{
		"allV1": {ProtoV1, ProtoV1, ProtoV1},
		"allV2": {ProtoV2, ProtoV2, ProtoV2},
		"mixed": {ProtoV1, ProtoV2, ProtoV1},
	} {
		t.Run(name, func(t *testing.T) {
			c, shutdown := startClusterCaps(t, keys, 512, caps)
			defer shutdown()
			for round := 0; round < 3; round++ {
				ranks, err := c.LookupBatch(queries)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range queries {
					if want := workload.ReferenceRank(keys, q); ranks[i] != want {
						t.Fatalf("round %d: rank[%d](%d) = %d, want %d", round, i, q, ranks[i], want)
					}
				}
			}
		})
	}
}

// TestTCPSortedChecksumIdenticalToUnsorted asserts the acceptance
// criterion end to end over sockets: the sorted pipeline (v2 delta
// frames) returns results bit-identical to the same queries through
// the unsorted v1 pipeline and to the in-process runtime.
func TestTCPSortedChecksumIdenticalToUnsorted(t *testing.T) {
	keys := workload.SortedKeys(32768, 34)
	unsorted := workload.UniformQueries(20000, 35)
	sorted := sortedCopy(unsorted)

	c, shutdown := startClusterCaps(t, keys, 1024, []uint32{ProtoV2, ProtoV2, ProtoV2, ProtoV2})
	defer shutdown()

	ref, err := core.NewCluster(keys, core.RealConfig{Method: core.MethodC3, Workers: 4, BatchKeys: 1024, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	refSorted, err := ref.LookupBatch(sorted)
	if err != nil {
		t.Fatal(err)
	}
	gotSorted, err := c.LookupBatch(sorted)
	if err != nil {
		t.Fatal(err)
	}
	gotUnsorted, err := c.LookupBatch(unsorted)
	if err != nil {
		t.Fatal(err)
	}
	// Rank multiset must match between orders; compare sorted queries
	// index-by-index and unsorted through the reference rank.
	for i := range sorted {
		if gotSorted[i] != refSorted[i] {
			t.Fatalf("sorted rank[%d] = %d, want %d (in-process)", i, gotSorted[i], refSorted[i])
		}
	}
	for i, q := range unsorted {
		if want := workload.ReferenceRank(keys, q); gotUnsorted[i] != want {
			t.Fatalf("unsorted rank[%d] = %d, want %d", i, gotUnsorted[i], want)
		}
	}
	if benchChecksum(gotSorted) != benchChecksum(refSorted) {
		t.Fatal("sorted checksum diverged from in-process runtime")
	}
}

// TestSortedBatchesOptionSortsClientSide: with DialOptions.SortedBatches
// an unsorted stream still produces query-order results (radix sort +
// permutation scatter), matching the reference.
func TestSortedBatchesOptionSortsClientSide(t *testing.T) {
	keys := workload.SortedKeys(10000, 36)
	p, err := core.NewPartitioning(keys, 3)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	var addrs []string
	for i := 0; i < 3; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node := NewPartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase)
		nodes = append(nodes, node)
		addrs = append(addrs, lis.Addr().String())
		go node.Serve(lis)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	c, err := Dial(addrs, keys, DialOptions{BatchKeys: 512, SortedBatches: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	queries := workload.UniformQueries(12000, 37)
	ranks, err := c.LookupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if want := workload.ReferenceRank(keys, q); ranks[i] != want {
			t.Fatalf("rank[%d](%d) = %d, want %d", i, q, ranks[i], want)
		}
	}
}

// TestSortedFailoverToV1Sibling kills a v2 replica while sorted batches
// are in flight: the failover path must re-dispatch its pendings to the
// surviving v1 sibling, which means re-encoding the same keys as plain
// OpLookup frames — and every result must still be correct.
func TestSortedFailoverToV1Sibling(t *testing.T) {
	keys := workload.SortedKeys(16000, 38)
	const parts = 2
	p, err := core.NewPartitioning(keys, parts)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([][]*Node, parts)
	addrs := make([]string, parts)
	for i := 0; i < parts; i++ {
		var group []string
		for r := 0; r < 2; r++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			node := NewPartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase)
			if r == 1 {
				node.MaxVersion = ProtoV1 // the surviving sibling speaks v1 only
			}
			nodes[i] = append(nodes[i], node)
			group = append(group, lis.Addr().String())
			go node.Serve(lis)
		}
		addrs[i] = group[0] + "|" + group[1]
	}
	defer func() {
		for _, g := range nodes {
			for _, n := range g {
				n.Close()
			}
		}
	}()
	c, err := Dial(addrs, keys, DialOptions{BatchKeys: 256, Rejoin: RejoinOptions{Backoff: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	queries := sortedCopy(workload.UniformQueries(30000, 39))
	var wg sync.WaitGroup
	errs := make([]error, 4)
	outs := make([][]int, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int, len(queries))
			for rep := 0; rep < 5; rep++ {
				if err := c.LookupBatchInto(queries, out); err != nil {
					errs[g] = err
					return
				}
			}
			outs[g] = out
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	nodes[0][0].Close() // kill partition 0's v2 replica mid-flight
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", g, err)
		}
		for i, q := range queries {
			if want := workload.ReferenceRank(keys, q); outs[g][i] != want {
				t.Fatalf("caller %d: rank[%d](%d) = %d, want %d", g, i, q, outs[g][i], want)
			}
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cluster terminal despite surviving sibling: %v", err)
	}
}

// duplex joins a reader and a writer into the ReadWriter a nodeConn's
// frame codec wants.
type duplex struct {
	io.Reader
	io.Writer
}

// TestSortedLookupGoldenFrames pins the bytes of one sorted lookup and
// its reply, recorded from the build before the delta codec's loops were
// unrolled: varints of every length, repeated keys, keys below the
// smallest and above the largest key, a rank base. Frames are what old
// and new binaries share, so "the same bytes" is checked, not inferred.
func TestSortedLookupGoldenFrames(t *testing.T) {
	const (
		request = "05201ddc062a0000001e0000000c0000efa204017f0180800180807f008580800180808080018adcfbfd0e"
		reply   = "05201ddc072a0000000f0000000c89270000010000001d001eab0700"
	)
	keys := make([]workload.Key, 1000)
	for i := range keys {
		keys[i] = workload.Key(i * 70000)
	}
	qs := []uint32{0, 0, 69999, 70000, 70127, 70128, 86512, 2167280, 2167280, 4264437, 272699893, 0xFFFFFFFF}
	var fw frameWriter
	req, err := fw.encodeDeltaOp(OpLookupSorted, 42, qs)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(req); got != request {
		t.Fatalf("request frame\n got %s\nwant %s", got, request)
	}
	var sent bytes.Buffer
	s := NewPartitionNode(keys, 5000).newConn(nil)
	s.bc = newBufferedConn(duplex{bytes.NewReader(req), &sent})
	f, err := s.bc.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !s.serve(f) {
		t.Fatal("the node dropped the connection")
	}
	if got := hex.EncodeToString(sent.Bytes()); got != reply {
		t.Fatalf("reply frame\n got %s\nwant %s", got, reply)
	}
}

// TestSortedLookupLargeFrame sends one 300,000-key sorted lookup — a
// reply whose worst-case encoding is above keepReplyScratch — through a
// connection's serve path: the ranks are oracle-exact, the reply buffer
// is the request's one allocation (sized once by the encoder, not grown
// by doubling), and the connection keeps no scratch above the cap.
func TestSortedLookupLargeFrame(t *testing.T) {
	keys := workload.SortedKeys(50000, 71)
	qs := sortedCopy(workload.UniformQueries(300000, 72))
	words := make([]uint32, len(qs))
	for i, q := range qs {
		words[i] = uint32(q)
	}
	raw, err := appendDeltaRun(nil, words)
	if err != nil {
		t.Fatal(err)
	}
	req := Frame{Op: OpLookupSorted, ReqID: 9, Raw: raw}

	var sent bytes.Buffer
	s := NewPartitionNode(keys, 17).newConn(nil)
	s.bc = newBufferedConn(duplex{nil, &sent})
	if !s.serve(req) {
		t.Fatal("the node dropped the connection")
	}
	f, err := ReadFrame(&sent)
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := decodeDeltaRun[uint32](f.Raw, nil)
	if err != nil || f.Op != OpRanksDelta || f.ReqID != 9 || len(ranks) != len(qs) {
		t.Fatalf("reply op %d reqID %d with %d ranks: %v", f.Op, f.ReqID, len(ranks), err)
	}
	for i, q := range qs {
		if want := 17 + workload.ReferenceRank(keys, q); int(ranks[i]) != want {
			t.Fatalf("rank[%d](%d) = %d, want %d", i, q, ranks[i], want)
		}
	}

	if worst := 5 + 5*len(qs); worst <= keepReplyScratch {
		t.Fatalf("a %d-byte worst case is under the %d-byte cap: the frame is too small for this test", worst, keepReplyScratch)
	}
	s.bc = newBufferedConn(duplex{nil, io.Discard})
	if allocs := testing.AllocsPerRun(3, func() { s.serve(req) }); allocs != 1 {
		t.Errorf("%v allocations per oversized request, want 1 (the reply buffer)", allocs)
	}
	if cap(s.replyBuf) > keepReplyScratch {
		t.Errorf("the connection kept %d bytes of reply scratch, above the %d-byte cap", cap(s.replyBuf), keepReplyScratch)
	}
}
