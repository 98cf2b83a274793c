package netrun

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// --- protocol ---

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Op: OpHello},
		{Op: OpLookup, ReqID: 42, Payload: []uint32{1, 2, 3, 0xFFFFFFFF}},
		{Op: OpRanks, ReqID: 7, Payload: make([]uint32, 10000)},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != want.Op || got.ReqID != want.ReqID || len(got.Payload) != len(want.Payload) {
			t.Fatalf("frame mismatch: %+v vs %+v", got.Op, want.Op)
		}
		for i := range want.Payload {
			if got.Payload[i] != want.Payload[i] {
				t.Fatalf("payload[%d] = %d, want %d", i, got.Payload[i], want.Payload[i])
			}
		}
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(op uint8, id uint32, payload []uint32) bool {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		if wire[op].enc != encWords {
			// Byte ops carry byte payloads: round-trip the words' own
			// bytes through Raw instead.
			raw := make([]byte, 0, 4*len(payload))
			for _, v := range payload {
				raw = append(raw, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			if err := WriteFrame(&buf, Frame{Op: op, ReqID: id, Raw: raw}); err != nil {
				return false
			}
			got, err := ReadFrame(&buf)
			return err == nil && got.Op == op && got.ReqID == id && bytes.Equal(got.Raw, raw)
		}
		if err := WriteFrame(&buf, Frame{Op: op, ReqID: id, Payload: payload}); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil || got.Op != op || got.ReqID != id || len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFrameRejectsBadMagic(t *testing.T) {
	buf := bytes.NewBuffer(bytes.Repeat([]byte{0xAB}, 13))
	if _, err := ReadFrame(buf); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v, want bad magic", err)
	}
}

func TestReadFrameRejectsHugeCount(t *testing.T) {
	var buf bytes.Buffer
	head := make([]byte, 13)
	head[0], head[1], head[2], head[3] = 0x05, 0x20, 0x1D, 0xDC // Magic LE
	head[4] = OpLookup
	head[9], head[10], head[11], head[12] = 0xFF, 0xFF, 0xFF, 0xFF
	buf.Write(head)
	if _, err := ReadFrame(&buf); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v, want payload limit", err)
	}
}

func TestWriteFrameRejectsHugePayload(t *testing.T) {
	w := io.Discard
	err := WriteFrame(w, Frame{Op: OpLookup, Payload: make([]uint32, MaxFrameWords+1)})
	if err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Op: OpLookup, Payload: []uint32{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// --- node + cluster over loopback ---

// setVar sets one of the package variables the drills lower (the dial
// values, the hedge budget, the admission cap) for tb and restores it in
// Cleanup, after the test's deferred shutdowns: the epoch's goroutines
// read the value until then. Call it before the cluster starts.
func setVar[T any](tb testing.TB, p *T, v T) {
	old := *p
	*p = v
	tb.Cleanup(func() { *p = old })
}

// startCluster spawns one node per partition on loopback listeners and
// dials them, returning the client and a shutdown func.
func startCluster(t testing.TB, keys []workload.Key, parts, batch int) (*Cluster, func()) {
	t.Helper()
	return startClusterWith(t, keys, parts, DialOptions{BatchKeys: batch})
}

// startClusterWith is startCluster dialing with opt.
func startClusterWith(t testing.TB, keys []workload.Key, parts int, opt DialOptions) (*Cluster, func()) {
	t.Helper()
	p, err := core.NewPartitioning(keys, parts)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	var addrs []string
	var wg sync.WaitGroup
	for i := 0; i < parts; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node := NewPartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase)
		nodes = append(nodes, node)
		addrs = append(addrs, lis.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			node.Serve(lis)
		}()
	}
	c, err := Dial(addrs, keys, opt)
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
		wg.Wait()
	}
}

func TestTCPClusterReturnsReferenceRanks(t *testing.T) {
	keys := workload.SortedKeys(20000, 1)
	c, shutdown := startCluster(t, keys, 6, 512)
	defer shutdown()

	queries := workload.UniformQueries(25000, 2)
	ranks, err := c.LookupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if want := workload.ReferenceRank(keys, q); ranks[i] != want {
			t.Fatalf("rank[%d] = %d, want %d", i, ranks[i], want)
		}
	}
	if c.Nodes() != 6 {
		t.Errorf("Nodes = %d", c.Nodes())
	}
}

func TestTCPClusterRepeatedBatchesAndEmpty(t *testing.T) {
	keys := workload.SortedKeys(3000, 3)
	c, shutdown := startCluster(t, keys, 3, 100)
	defer shutdown()

	if out, err := c.LookupBatch(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v %v", out, err)
	}
	for round := 0; round < 4; round++ {
		queries := workload.UniformQueries(1500, uint64(round))
		ranks, err := c.LookupBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if want := workload.ReferenceRank(keys, q); ranks[i] != want {
				t.Fatalf("round %d: wrong rank", round)
			}
		}
	}
}

func TestTCPClusterSingleNode(t *testing.T) {
	keys := workload.SortedKeys(500, 5)
	c, shutdown := startCluster(t, keys, 1, 64)
	defer shutdown()
	queries := workload.UniformQueries(1000, 6)
	ranks, err := c.LookupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if want := workload.ReferenceRank(keys, q); ranks[i] != want {
			t.Fatal("wrong rank on single node")
		}
	}
}

func TestDialRejectsPartitionMismatch(t *testing.T) {
	keys := workload.SortedKeys(1000, 7)
	p, _ := core.NewPartitioning(keys, 2)

	// Node 0 serves partition 1's data: the hello cross-check must
	// refuse to build a cluster with a wrong routing table.
	lis0, _ := net.Listen("tcp", "127.0.0.1:0")
	lis1, _ := net.Listen("tcp", "127.0.0.1:0")
	n0 := NewPartitionNode(p.Parts[1].Keys, p.Parts[1].RankBase) // wrong!
	n1 := NewPartitionNode(p.Parts[1].Keys, p.Parts[1].RankBase)
	go n0.Serve(lis0)
	go n1.Serve(lis1)
	defer n0.Close()
	defer n1.Close()

	_, err := Dial([]string{lis0.Addr().String(), lis1.Addr().String()}, keys, DialOptions{})
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("err = %v, want partition mismatch", err)
	}
}

func TestDialFailsFastOnDeadAddress(t *testing.T) {
	keys := workload.SortedKeys(100, 8)
	_, err := Dial([]string{"127.0.0.1:1"}, keys, DialOptions{})
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
}

func TestClusterClosedLookupFails(t *testing.T) {
	keys := workload.SortedKeys(300, 9)
	c, shutdown := startCluster(t, keys, 2, 32)
	shutdown()
	if _, err := c.LookupBatch(workload.UniformQueries(5, 1)); err == nil {
		t.Fatal("lookup on closed cluster succeeded")
	}
}

func TestNodeSurvivesGarbageConnection(t *testing.T) {
	keys := workload.SortedKeys(400, 10)
	c, shutdown := startCluster(t, keys, 2, 32)
	defer shutdown()

	// Throw garbage at node 0's address out-of-band.
	addr := c.ep.Load().groups[0].nodes()[0].conn.RemoteAddr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(bytes.Repeat([]byte{0x00}, 64))
	conn.Close()

	// The real client must still work.
	queries := workload.UniformQueries(500, 11)
	ranks, err := c.LookupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if want := workload.ReferenceRank(keys, q); ranks[i] != want {
			t.Fatal("wrong rank after garbage connection")
		}
	}
}

func TestNodeCloseIdempotentAndServeAfterCloseFails(t *testing.T) {
	keys := workload.SortedKeys(100, 12)
	n := NewPartitionNode(keys, 0)
	n.Close()
	n.Close()
	lis, _ := net.Listen("tcp", "127.0.0.1:0")
	defer lis.Close()
	if err := n.Serve(lis); err == nil {
		t.Fatal("Serve after Close succeeded")
	}
}

func TestServeReturnsOnListenerClose(t *testing.T) {
	keys := workload.SortedKeys(100, 13)
	n := NewPartitionNode(keys, 0)
	lis, _ := net.Listen("tcp", "127.0.0.1:0")
	done := make(chan error, 1)
	go func() { done <- n.Serve(lis) }()
	time.Sleep(50 * time.Millisecond)
	lis.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
}

// Property: TCP cluster equals reference for random shapes.
func TestTCPClusterProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed uint64, nRaw uint16, partsRaw, batchRaw uint8) bool {
		n := int(nRaw%2000) + 20
		parts := int(partsRaw%4) + 1
		batch := int(batchRaw%100) + 1
		keys := workload.SortedKeys(n, seed)
		var ok bool
		func() {
			c, shutdown := startCluster(t, keys, parts, batch)
			defer shutdown()
			queries := workload.UniformQueries(300, seed+1)
			ranks, err := c.LookupBatch(queries)
			if err != nil {
				return
			}
			for i, q := range queries {
				if ranks[i] != workload.ReferenceRank(keys, q) {
					return
				}
			}
			ok = true
		}()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// benchCluster spins up 8 loopback partitions of the standard benchmark
// key set, each served by replicas nodes, and dials them.
func benchCluster(b *testing.B, replicas int) (*Cluster, func()) {
	b.Helper()
	keys := workload.SortedKeys(327680, 1)
	p, _ := core.NewPartitioning(keys, 8)
	var nodes []*Node
	var addrs []string
	for i := 0; i < 8; i++ {
		for r := 0; r < replicas; r++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			node := NewPartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase)
			nodes = append(nodes, node)
			addrs = append(addrs, lis.Addr().String())
			go node.Serve(lis)
		}
	}
	c, err := Dial(addrs, keys, DialOptions{BatchKeys: 16384, Replicas: replicas})
	if err != nil {
		b.Fatal(err)
	}
	return c, func() {
		c.Close()
		for _, n := range nodes {
			n.Close()
		}
	}
}

// benchChecksum mirrors cmd/dcq's order-sensitive rank checksum.
func benchChecksum(ranks []int) uint32 {
	var sum uint32
	for _, r := range ranks {
		sum = sum*31 + uint32(r)
	}
	return sum
}

// BenchmarkTCPClusterReplicated8x2 measures the replicated steady
// state: 8 partitions x 2 replicas, batches round-robined across each
// partition's healthy members.
func BenchmarkTCPClusterReplicated8x2(b *testing.B) {
	c, shutdown := benchCluster(b, 2)
	defer shutdown()
	benchLookups(b, c, workload.UniformQueries(1<<18, 2))
}

// benchLookups times LookupBatchInto of queries after one warm call: the
// first call of a fresh cluster grows every pool, connection buffer and
// node scratch once (about 1,200 allocations and 17 MB at 2^18 keys over
// eight partitions), which a row of 20 iterations would otherwise read as
// 60 allocations per call.
func benchLookups(b *testing.B, c *Cluster, queries []workload.Key) {
	out := make([]int, len(queries))
	if err := c.LookupBatchInto(queries, out); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(queries) * workload.KeyBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.LookupBatchInto(queries, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(queries)), "ns/key")
}

// BenchmarkTCPClusterScanStream is the v5 scan-streaming row: each op
// scans the full key range (unlimited), so every partition streams its
// whole sub-range back as one delta-coded OpKeysDelta frame and the
// client concatenates the runs in partition order. Bytes/op counts the
// keys returned.
func BenchmarkTCPClusterScanStream(b *testing.B) {
	c, shutdown := benchCluster(b, 1)
	defer shutdown()

	keys := workload.SortedKeys(327680, 1)
	lo, hi := keys[0], keys[len(keys)-1]
	buf, err := c.ScanRange(lo, hi, -1, nil)
	if err != nil {
		b.Fatal(err)
	}
	if len(buf) != len(keys) {
		b.Fatalf("scan returned %d keys, want %d", len(buf), len(keys))
	}
	b.SetBytes(int64(len(keys) * workload.KeyBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = c.ScanRange(lo, hi, -1, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// reportBenchLatency reports a benchmark's per-call latency tail as
// p50/p99/p99.9 metrics.
func reportBenchLatency(b *testing.B, h *telemetry.Histogram) {
	s := h.Snapshot()
	if s.Count == 0 {
		return
	}
	b.ReportMetric(float64(s.Quantile(0.50)), "p50_ns")
	b.ReportMetric(float64(s.Quantile(0.99)), "p99_ns")
	b.ReportMetric(float64(s.Quantile(0.999)), "p999_ns")
}
