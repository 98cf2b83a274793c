package netrun

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// fakeNode listens on loopback, answers the hello handshake as a
// single-partition node over keys, then hands the connection to behave.
// It lets failure tests script arbitrary node misbehavior.
func fakeNode(t *testing.T, keys []workload.Key, behave func(conn net.Conn, bc *bufferedConn)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		bc := newBufferedConn(conn)
		f, err := bc.readFrame()
		if err != nil || f.Op != OpHello {
			return
		}
		ack := Frame{Op: OpHelloAck, ReqID: f.ReqID, Payload: helloWords(keys, min(f.ReqID, ProtoVersion), 6)}
		if bc.writeFrame(ack) != nil || bc.w.Flush() != nil {
			return
		}
		behave(conn, bc)
	}()
	return lis.Addr().String()
}

// wantFailedFast asserts the cluster is in the terminal failed state:
// Err is set and a fresh call fails immediately instead of touching the
// network.
func wantFailedFast(t *testing.T, c *Cluster) {
	t.Helper()
	if c.Err() == nil {
		t.Fatal("cluster Err() = nil after failure")
	}
	start := time.Now()
	if _, err := c.LookupBatch(workload.UniformQueries(10, 99)); err == nil {
		t.Fatal("lookup on failed cluster succeeded")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("post-failure lookup took %v, want fail-fast", el)
	}
}

func TestHungNodeTimesOutInsteadOfBlocking(t *testing.T) {
	keys := workload.SortedKeys(1000, 1)
	// The node reads lookups forever and never replies — the pre-PR
	// client (no post-handshake deadline) blocked on this permanently.
	addr := fakeNode(t, keys, func(conn net.Conn, bc *bufferedConn) {
		for {
			if _, err := bc.readFrame(); err != nil {
				return
			}
		}
	})
	c, err := Dial([]string{addr}, keys, DialOptions{BatchKeys: 64, OpTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.LookupBatch(workload.UniformQueries(100, 2))
	if err == nil {
		t.Fatal("lookup against hung node succeeded")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("timeout took %v, want ~OpTimeout", el)
	}
	if !strings.Contains(err.Error(), "no reply within") {
		t.Fatalf("err = %v, want op-timeout error", err)
	}
	wantFailedFast(t, c)
}

func TestReqIDMismatchFailsCluster(t *testing.T) {
	keys := workload.SortedKeys(1000, 2)
	// The node replies with a reqID the client never issued.
	addr := fakeNode(t, keys, func(conn net.Conn, bc *bufferedConn) {
		f, err := ReadFrame(bc.r)
		if err != nil {
			return
		}
		_ = bc.writeFrame(Frame{Op: OpRanks, ReqID: f.ReqID + 1000, Payload: make([]uint32, len(f.Payload))})
		_ = bc.w.Flush()
	})
	c, err := Dial([]string{addr}, keys, DialOptions{BatchKeys: 64, OpTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.LookupBatch(workload.UniformQueries(50, 3))
	if err == nil || !strings.Contains(err.Error(), "unknown reqID") {
		t.Fatalf("err = %v, want unknown reqID", err)
	}
	wantFailedFast(t, c)
}

func TestTruncatedFrameFailsCluster(t *testing.T) {
	keys := workload.SortedKeys(1000, 3)
	// The node starts a well-formed reply frame but dies mid-payload.
	addr := fakeNode(t, keys, func(conn net.Conn, bc *bufferedConn) {
		f, err := ReadFrame(bc.r)
		if err != nil {
			return
		}
		head := make([]byte, 13)
		binary.LittleEndian.PutUint32(head[0:4], Magic)
		head[4] = OpRanks
		binary.LittleEndian.PutUint32(head[5:9], f.ReqID)
		binary.LittleEndian.PutUint32(head[9:13], uint32(len(f.Payload)))
		conn.Write(head)
		conn.Write([]byte{1, 2}) // half a rank, then hang up
	})
	c, err := Dial([]string{addr}, keys, DialOptions{BatchKeys: 64, OpTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.LookupBatch(workload.UniformQueries(50, 4)); err == nil {
		t.Fatal("lookup over truncated reply succeeded")
	}
	wantFailedFast(t, c)
}

func TestRankCountMismatchFailsCluster(t *testing.T) {
	keys := workload.SortedKeys(1000, 4)
	// Correct reqID, wrong number of ranks.
	addr := fakeNode(t, keys, func(conn net.Conn, bc *bufferedConn) {
		f, err := ReadFrame(bc.r)
		if err != nil {
			return
		}
		_ = bc.writeFrame(Frame{Op: OpRanks, ReqID: f.ReqID, Payload: make([]uint32, len(f.Payload)+3)})
		_ = bc.w.Flush()
	})
	c, err := Dial([]string{addr}, keys, DialOptions{BatchKeys: 64, OpTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.LookupBatch(workload.UniformQueries(50, 5))
	if err == nil || !strings.Contains(err.Error(), "reply elements for") {
		t.Fatalf("err = %v, want rank-count mismatch", err)
	}
	wantFailedFast(t, c)
}

func TestNodeDeathMidBatchFailsAllCallers(t *testing.T) {
	keys := workload.SortedKeys(60000, 5)
	c, shutdown := startCluster(t, keys, 4, 256)
	defer shutdown()

	// Warm up, then kill one node's server-side connections while
	// several callers stream batches through the cluster.
	if _, err := c.LookupBatch(workload.UniformQueries(1000, 6)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := workload.UniformQueries(50000, uint64(g))
			for round := 0; round < 100; round++ {
				if _, err := c.LookupBatch(queries); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	testNodes(t, c)[0].conn.Close() // simulate the node dying mid-batch

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("callers hung after node death")
	}
	for g, err := range errs {
		if err == nil {
			t.Fatalf("caller %d finished 100 rounds without seeing the failure", g)
		}
		// The failure must surface as the connection error, not as
		// reqID-mismatch noise from stale frames.
		if strings.Contains(err.Error(), "unknown reqID") {
			t.Fatalf("caller %d got reqID noise: %v", g, err)
		}
	}
	wantFailedFast(t, c)
}

// testNodes exposes the current epoch's live member connections to
// tests, flattened in partition order (one per partition at R=1).
func testNodes(t *testing.T, c *Cluster) []*clusterNode {
	t.Helper()
	ep := c.ep.Load()
	if ep == nil {
		t.Fatal("cluster has no live epoch")
	}
	var out []*clusterNode
	for _, g := range ep.groups {
		out = append(out, g.nodes()...)
	}
	return out
}

// After a terminal failure the caller recovers by closing the cluster and
// dialing a new one: the nodes outlived the connections, and the fresh
// cluster answers exactly.
func TestRedialRecoversAfterFailure(t *testing.T) {
	keys := workload.SortedKeys(20000, 7)
	c, shutdown := startCluster(t, keys, 3, 512)
	defer shutdown()
	var addrs []string
	for _, n := range testNodes(t, c) {
		addrs = append(addrs, n.r.addr)
	}

	// Fail the epoch by severing a client-side connection.
	testNodes(t, c)[1].conn.Close()
	queries := workload.UniformQueries(5000, 8)
	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("cluster never noticed the severed connection")
		}
		c.LookupBatch(queries)
	}
	if _, err := c.LookupBatch(queries); err == nil {
		t.Fatal("lookup succeeded on failed cluster")
	}

	// Close, then dial the still-running nodes again.
	c.Close()
	fresh, err := Dial(addrs, keys, DialOptions{BatchKeys: 512})
	if err != nil {
		t.Fatalf("dial after a terminal failure: %v", err)
	}
	defer fresh.Close()
	ranks, err := fresh.LookupBatch(queries)
	if err != nil {
		t.Fatalf("lookup after the new dial: %v", err)
	}
	for i, q := range queries {
		if want := workload.ReferenceRank(keys, q); ranks[i] != want {
			t.Fatalf("rank[%d] = %d after the new dial, want %d", i, ranks[i], want)
		}
	}
}

// A closed cluster stays closed: Err, a lookup and an insert after Close
// all answer ErrClusterClosed, and a second Close is harmless.
func TestRedialAfterCloseRefused(t *testing.T) {
	keys := workload.SortedKeys(500, 9)
	c, shutdown := startCluster(t, keys, 2, 64)
	shutdown()
	c.Close()
	if err := c.Err(); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("Err after Close = %v, want ErrClusterClosed", err)
	}
	if _, err := c.LookupBatch(workload.UniformQueries(5, 1)); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("lookup after Close = %v, want ErrClusterClosed", err)
	}
	if err := c.InsertBatch(workload.UniformQueries(5, 2)); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("insert after Close = %v, want ErrClusterClosed", err)
	}
}

// TestConcurrentTCPCallers is the -race exercise: several goroutines
// multiplex batches over one shared cluster and every rank must match
// the reference.
func TestConcurrentTCPCallers(t *testing.T) {
	keys := workload.SortedKeys(30000, 10)
	c, shutdown := startCluster(t, keys, 4, 512)
	defer shutdown()

	const callers = 6
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := workload.UniformQueries(4000, uint64(100+g))
			out := make([]int, len(queries))
			for round := 0; round < 8; round++ {
				if err := c.LookupBatchInto(queries, out); err != nil {
					errc <- err
					return
				}
				for i, q := range queries {
					if want := workload.ReferenceRank(keys, q); out[i] != want {
						errc <- errors.New("wrong rank under concurrency")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestConcurrentCallersSurviveClose pounds Close against in-flight
// callers: every call must return (rank correctness no longer applies
// once the error surfaces), and nothing may hang or race.
func TestConcurrentCallersSurviveClose(t *testing.T) {
	keys := workload.SortedKeys(20000, 11)
	c, shutdown := startCluster(t, keys, 3, 256)
	defer shutdown()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := workload.UniformQueries(20000, uint64(g))
			for round := 0; round < 50; round++ {
				if _, err := c.LookupBatch(queries); err != nil {
					return
				}
			}
		}(g)
	}
	time.Sleep(30 * time.Millisecond)
	c.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("callers hung across Close")
	}
}
