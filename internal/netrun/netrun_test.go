package netrun

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/index"
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

// TestFrameRoundTripProperty round-trips random frames of every op code
// through WriteFrame and ReadFrame, and through the connection's reusable
// writer and reader, whose payload arrives as Raw bytes.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(op uint8, id uint32, payload []uint32, reused bool) bool {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		var got Frame
		var err error
		if reused {
			var fw frameWriter
			var fr frameReader
			if err = fw.writeTo(&buf, Frame{Op: op, ReqID: id, Payload: payload}); err == nil {
				got, err = fr.readFrom(&buf)
				got.Payload = decodeWords[uint32](got.Raw, nil)
			}
		} else if err = WriteFrame(&buf, Frame{Op: op, ReqID: id, Payload: payload}); err == nil {
			got, err = ReadFrame(&buf)
		}
		return err == nil && got.Op == op && got.ReqID == id && slices.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
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

// FuzzFrameReader feeds arbitrary byte streams to the frame decoder: no
// panic, no unbounded allocation. Payloads reach the handlers undecoded,
// so every frame read is also served by a small partition node, the way
// its connection would serve it: the node answers it with the row's
// reply op or refuses it with OpErr, and never panics. The seeds include
// what peers below the floor send — hellos at old versions, the
// four-word ack, and the v6 byte-coded frames — as hostile input.
func FuzzFrameReader(f *testing.F) {
	var fw frameWriter
	add := func(frames ...Frame) {
		var b bytes.Buffer
		for _, fr := range frames {
			fw.writeTo(&b, fr)
		}
		f.Add(b.Bytes())
	}
	// What a v6 peer sent for an ascending run: op 6, the sorted lookup of
	// the builds that spoke v6, whose count is a byte length and whose
	// payload is the delta-coded run [5, 6, 7].
	v6Run := func(op byte, reqID byte) []byte {
		return []byte{0x05, 0x20, 0x1d, 0xdc, op, reqID, 0, 0, 0, 4, 0, 0, 0, 3, 5, 1, 1}
	}
	add(Frame{Op: OpLookup, ReqID: 7, Payload: []uint32{1, 2, 3}})
	f.Add(v6Run(6, 9))
	// What a peer below the floor sends: hellos at versions 0 and 4, and
	// the four-word ack.
	for _, old := range []Frame{{Op: OpHello}, {Op: OpHello, ReqID: 4}, {Op: OpHelloAck, Payload: []uint32{0, 3, 5, 7}}} {
		add(old)
	}
	// A request of each shape the serving paths decode: fixed words,
	// pairs, a word run — and a MultiGet as a v6 peer delta-coded it.
	for _, req := range []Frame{
		{Op: OpCountRange, ReqID: 1, Payload: []uint32{5, 90, 0, 7, 60, 2}},
		{Op: OpScanRange, ReqID: 2, Payload: []uint32{10, 80, 3}},
		{Op: OpTopK, ReqID: 3, Payload: []uint32{4}},
		{Op: OpInsert, ReqID: 4, Payload: []uint32{17, 3}},
		{Op: OpSplitPartition, ReqID: 5, Payload: []uint32{3, 8, 10, 80, 80, 0}},
	} {
		add(req)
	}
	f.Add(v6Run(OpMultiGet, 6))
	// A MultiGet's words, an ascending and a descending load, each after
	// a hello at this build's version and at v6, below the floor.
	for _, ver := range []uint32{ProtoVersion, 6} {
		add(Frame{Op: OpHello, ReqID: ver},
			Frame{Op: OpMultiGet, ReqID: 10, Payload: []uint32{20, 5, 150, 20}},
			Frame{Op: OpLoad, ReqID: 11, Payload: []uint32{30, 10}},
			Frame{Op: OpLoad, ReqID: 12, Payload: []uint32{10, 10, 30}})
	}
	// A word count just above MaxFrameWords: refused before any
	// allocation.
	for _, op := range []uint8{OpMultiGet, OpLoad, OpLookup} {
		head := make([]byte, 13, 17)
		binary.LittleEndian.PutUint32(head, Magic)
		head[4] = op
		binary.LittleEndian.PutUint32(head[9:], MaxFrameWords+1)
		f.Add(append(head, 1, 0, 0, 0))
	}
	keys := []workload.Key{10, 20, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150}
	f.Fuzz(func(t *testing.T, stream []byte) {
		node := NewPartitionNode(keys, 3)
		defer node.Close()
		var sent bytes.Buffer
		s := serveOn(node, bytes.NewReader(stream), &sent)
		for {
			req, err := s.bc.readFrame()
			if err != nil {
				break
			}
			sent.Reset()
			served := s.serve(req)
			var fr frameReader
			reply, err := fr.readFrom(&sent)
			if err != nil {
				t.Fatalf("op %d: the node's reply does not read back: %v", req.Op, err)
			}
			if row := request(req.Op); reply.Op != OpErr && (row == nil || reply.Op != row.reply) {
				t.Fatalf("op %d answered with op %d", req.Op, reply.Op)
			}
			if !served {
				break // the connection would close here
			}
		}
	})
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

// Dial refuses an out-of-range hedge quantile by name before it dials
// anything: from about 1.016 up, the latency window's quantile index
// runs off its end and panics a read loop.
func TestDialRefusesHedgeQuantileOutOfRange(t *testing.T) {
	keys := workload.SortedKeys(100, 8)
	dialer := func(_ context.Context, addr string) (net.Conn, error) {
		t.Errorf("dialed %s", addr)
		return nil, errors.New("no dial")
	}
	for _, q := range []float64{math.NaN(), -0.5, 1, 1.5} {
		_, err := Dial([]string{"127.0.0.1:1"}, keys, DialOptions{Hedging: HedgeOptions{Quantile: q}, Dialer: dialer})
		if err == nil || !strings.Contains(err.Error(), "Hedging.Quantile") {
			t.Errorf("quantile %v: err = %v, want a refusal naming Hedging.Quantile", q, err)
		}
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

// TestLoadDescendingRefused sends a v7 OpLoad whose word payload
// descends — which no delta run could carry — to an in-memory and a
// durable node over a real connection: each answers OpErr naming the
// load, keeps the connection serving, and keeps its key set (the update
// layer would panic on the descent).
func TestLoadDescendingRefused(t *testing.T) {
	keys := workload.SortedKeys(500, 12)
	durable, err := NewDurablePartitionNode(keys, 0, t.TempDir(), index.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, node := range map[string]*Node{"in-memory": NewPartitionNode(keys, 0), "durable": durable} {
		t.Run(name, func(t *testing.T) {
			var logs logSink
			node.Logf = logs.logf
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go node.Serve(lis)
			defer node.Close()
			conn, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			for _, f := range []Frame{
				{Op: OpHello, ReqID: ProtoV7},
				{Op: OpLoad, ReqID: 1, Payload: []uint32{10, 20, 30, 25, 40}},
				{Op: OpLookup, ReqID: 2, Payload: []uint32{uint32(keys[499])}},
			} {
				if err := WriteFrame(conn, f); err != nil {
					t.Fatal(err)
				}
			}
			if ack, err := ReadFrame(conn); err != nil || ack.Op != OpHelloAck || ack.Payload[4] != ProtoV7 {
				t.Fatalf("hello: %+v, %v", ack, err)
			}
			if f, err := ReadFrame(conn); err != nil || f.Op != OpErr || f.ReqID != 1 || len(f.Payload) != 1 || f.Payload[0] != uint32(OpLoad) {
				t.Fatalf("descending load: reply %+v, %v; want OpErr naming the load", f, err)
			}
			if f, err := ReadFrame(conn); err != nil || f.Op != OpRanks || f.ReqID != 2 || len(f.Payload) != 1 || f.Payload[0] != 500 {
				t.Fatalf("lookup after the refused load: reply %+v, %v; want rank 500 on the same connection", f, err)
			}
			if !logs.has("load payload descends at key 3") {
				t.Fatalf("no log line names the descent: %q", logs.lines)
			}
			if got := node.upd.TotalKeys(); got != len(keys) {
				t.Fatalf("node holds %d keys after the refused load, want %d", got, len(keys))
			}
		})
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
// whole sub-range back as one OpKeysDelta frame of plain words and the
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
