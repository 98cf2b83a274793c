package netrun

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// isServing reports whether an accept loop of n is currently running.
func (n *Node) isServing() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.serving
}

// --- address grouping ---

func TestGroupAddrs(t *testing.T) {
	cases := []struct {
		addrs    []string
		replicas int
		want     [][]string
		wantErr  string
	}{
		{addrs: nil, wantErr: "no node addresses"},
		{addrs: []string{"a", "b"}, want: [][]string{{"a"}, {"b"}}},
		{addrs: []string{"a", "b"}, replicas: 1, want: [][]string{{"a"}, {"b"}}},
		{addrs: []string{"a", "b", "c", "d"}, replicas: 2, want: [][]string{{"a", "b"}, {"c", "d"}}},
		{addrs: []string{"a", "b", "c"}, replicas: 2, wantErr: "do not divide"},
		{addrs: []string{"a|b", "c"}, want: [][]string{{"a", "b"}, {"c"}}},
		{addrs: []string{"a | b", "c|d|e"}, want: [][]string{{"a", "b"}, {"c", "d", "e"}}},
		{addrs: []string{"a||b"}, wantErr: "empty replica"},
		// Grouped syntax wins over the Replicas option.
		{addrs: []string{"a|b", "c|d"}, replicas: 3, want: [][]string{{"a", "b"}, {"c", "d"}}},
	}
	for i, tc := range cases {
		got, err := GroupAddrs(tc.addrs, tc.replicas)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("case %d: err = %v, want %q", i, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("case %d: %v, want %v", i, got, tc.want)
			continue
		}
		for p := range got {
			if len(got[p]) != len(tc.want[p]) {
				t.Errorf("case %d part %d: %v, want %v", i, p, got[p], tc.want[p])
				continue
			}
			for r := range got[p] {
				if got[p][r] != tc.want[p][r] {
					t.Errorf("case %d part %d replica %d: %q, want %q", i, p, r, got[p][r], tc.want[p][r])
				}
			}
		}
	}
}

// --- replicated cluster harness ---

// replicatedCluster is a loopback deployment with R server nodes per
// partition, addressable by [partition][replica] for targeted kills and
// restarts.
type replicatedCluster struct {
	c     *Cluster
	part  *core.Partitioning
	nodes [][]*Node
	addrs [][]string
	// wrap, when set, supplies the WrapConn a restarted replica serves
	// behind (startGray: its fault profile).
	wrap func(partition, replica int) func(net.Conn) net.Conn
}

// kill stops one replica's server (listener and live connections).
func (rc *replicatedCluster) kill(partition, replica int) {
	rc.nodes[partition][replica].Close()
}

// restart brings a killed replica back on its original address with a
// fresh Node at the killed one's version cap, so the client's rejoin
// loop can re-verify and readmit it.
func (rc *replicatedCluster) restart(t *testing.T, partition, replica int) {
	t.Helper()
	addr := rc.addrs[partition][replica]
	var lis net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		lis, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	p := rc.part.Parts[partition]
	node := NewPartitionNode(p.Keys, p.RankBase)
	if rc.wrap != nil {
		node.WrapConn = rc.wrap(partition, replica)
	}
	rc.nodes[partition][replica] = node
	go node.Serve(lis)
}

// health returns the ReplicaHealth row for one configured replica.
func (rc *replicatedCluster) health(t *testing.T, partition, replica int) ReplicaHealth {
	t.Helper()
	addr := rc.addrs[partition][replica]
	for _, h := range rc.c.Stats().Replicas {
		if h.Partition == partition && h.Addr == addr {
			return h
		}
	}
	t.Fatalf("no health row for partition %d addr %s", partition, addr)
	return ReplicaHealth{}
}

func startReplicated(t *testing.T, keys []workload.Key, parts, replicas, batch int, opt DialOptions) (*replicatedCluster, func()) {
	t.Helper()
	return startShaped(t, keys, parts, replicas, batch, opt, nil)
}

// startShaped is startReplicated with a hook that configures each node
// (ReadOnly, say) before it serves.
func startShaped(t *testing.T, keys []workload.Key, parts, replicas, batch int, opt DialOptions, shape func(part, replica int, n *Node)) (*replicatedCluster, func()) {
	t.Helper()
	p, err := core.NewPartitioning(keys, parts)
	if err != nil {
		t.Fatal(err)
	}
	rc := &replicatedCluster{part: p, nodes: make([][]*Node, parts), addrs: make([][]string, parts)}
	var flat []string
	for i := 0; i < parts; i++ {
		for r := 0; r < replicas; r++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			node := NewPartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase)
			if shape != nil {
				shape(i, r, node)
			}
			rc.nodes[i] = append(rc.nodes[i], node)
			rc.addrs[i] = append(rc.addrs[i], lis.Addr().String())
			flat = append(flat, lis.Addr().String())
			go node.Serve(lis)
		}
	}
	opt.BatchKeys = batch
	opt.Replicas = replicas
	rc.c, err = Dial(flat, keys, opt)
	if err != nil {
		for _, reps := range rc.nodes {
			for _, n := range reps {
				n.Close()
			}
		}
		t.Fatal(err)
	}
	return rc, func() {
		rc.c.Close()
		for _, reps := range rc.nodes {
			for _, n := range reps {
				n.Close()
			}
		}
	}
}

// --- replicated lookups ---

func TestReplicatedClusterReturnsReferenceRanks(t *testing.T) {
	keys := workload.SortedKeys(20000, 21)
	rc, shutdown := startReplicated(t, keys, 4, 2, 512, DialOptions{})
	defer shutdown()

	queries := workload.UniformQueries(20000, 22)
	ranks, err := rc.c.LookupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if want := workload.ReferenceRank(keys, q); ranks[i] != want {
			t.Fatalf("rank[%d] = %d, want %d", i, ranks[i], want)
		}
	}
	health := rc.c.Stats().Replicas
	if len(health) != 8 {
		t.Fatalf("Health rows = %d, want 8", len(health))
	}
	var dispatched uint64
	for _, h := range health {
		if !h.Healthy {
			t.Errorf("replica %d/%s unhealthy on a healthy cluster", h.Partition, h.Addr)
		}
		dispatched += h.Dispatched
	}
	if dispatched == 0 {
		t.Error("no dispatches counted")
	}
	// Round-robin must have spread each partition's frames over both
	// replicas: with 20000 queries at batch 512 every partition sends
	// several frames, so no replica should be idle.
	for _, h := range health {
		if h.Dispatched == 0 {
			t.Errorf("replica %d/%s never dispatched (no load spreading)", h.Partition, h.Addr)
		}
	}
}

func TestGroupedAddressSyntaxDialAndLookup(t *testing.T) {
	keys := workload.SortedKeys(6000, 23)
	p, err := core.NewPartitioning(keys, 2)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	addrs := make([][]string, 2)
	for i := 0; i < 2; i++ {
		for r := 0; r < 2; r++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			node := NewPartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase)
			nodes = append(nodes, node)
			addrs[i] = append(addrs[i], lis.Addr().String())
			go node.Serve(lis)
		}
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	grouped := []string{
		addrs[0][0] + "|" + addrs[0][1],
		addrs[1][0] + "|" + addrs[1][1],
	}
	c, err := Dial(grouped, keys, DialOptions{BatchKeys: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2 partitions", c.Nodes())
	}
	queries := workload.UniformQueries(5000, 24)
	ranks, err := c.LookupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if want := workload.ReferenceRank(keys, q); ranks[i] != want {
			t.Fatalf("rank[%d] = %d, want %d", i, ranks[i], want)
		}
	}
}

func TestDialRejectsReplicaPartitionMismatch(t *testing.T) {
	keys := workload.SortedKeys(2000, 25)
	p, err := core.NewPartitioning(keys, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(part int) (string, *Node) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := NewPartitionNode(p.Parts[part].Keys, p.Parts[part].RankBase)
		go n.Serve(lis)
		return lis.Addr().String(), n
	}
	a00, n00 := mk(0)
	aBad, nBad := mk(1) // partition 0's "replica" actually serves partition 1
	a10, n10 := mk(1)
	a11, n11 := mk(1)
	defer func() {
		for _, n := range []*Node{n00, nBad, n10, n11} {
			n.Close()
		}
	}()

	_, err = Dial([]string{a00 + "|" + aBad, a10 + "|" + a11}, keys, DialOptions{})
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("err = %v, want partition mismatch", err)
	}
}

// --- failover ---

// TestReplicaDeathFailsOverMidBatch is the tentpole scenario at test
// scale: 4 concurrent masters stream batches while one replica dies.
// Every call must complete with reference-correct ranks, the cluster
// must stay healthy (no terminal error), and Health must show the dead
// replica.
func TestReplicaDeathFailsOverMidBatch(t *testing.T) {
	keys := workload.SortedKeys(60000, 26)
	rc, shutdown := startReplicated(t, keys, 4, 2, 256, DialOptions{})
	defer shutdown()

	const callers = 4
	const rounds = 40
	want := make([][]int, callers)
	queries := make([][]workload.Key, callers)
	for g := 0; g < callers; g++ {
		queries[g] = workload.UniformQueries(20000, uint64(30+g))
		want[g] = make([]int, len(queries[g]))
		for i, q := range queries[g] {
			want[g][i] = workload.ReferenceRank(keys, q)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]int, len(queries[g]))
			for round := 0; round < rounds; round++ {
				if err := rc.c.LookupBatchInto(queries[g], out); err != nil {
					errs[g] = err
					return
				}
				for i := range out {
					if out[i] != want[g][i] {
						errs[g] = errors.New("wrong rank during failover")
						return
					}
				}
			}
		}(g)
	}
	time.Sleep(15 * time.Millisecond)
	rc.kill(1, 0) // one replica of partition 1 dies mid-stream

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("callers hung after replica death")
	}
	for g, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", g, err)
		}
	}
	if err := rc.c.Err(); err != nil {
		t.Fatalf("cluster terminal after single-replica death: %v", err)
	}
	if h := rc.health(t, 1, 0); h.Healthy || h.Failures == 0 {
		t.Fatalf("dead replica health = %+v, want unhealthy with failures", h)
	}
	if h := rc.health(t, 1, 1); !h.Healthy {
		t.Fatalf("surviving replica health = %+v, want healthy", h)
	}
}

func TestLastReplicaDeathFailsEpochWithRootCause(t *testing.T) {
	keys := workload.SortedKeys(20000, 27)
	rc, shutdown := startReplicated(t, keys, 2, 2, 256, DialOptions{})
	defer shutdown()

	rc.kill(0, 0)
	rc.kill(0, 1)

	queries := workload.UniformQueries(5000, 28)
	deadline := time.Now().Add(10 * time.Second)
	for rc.c.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("cluster never went terminal after losing a whole partition")
		}
		rc.c.LookupBatch(queries)
	}
	err := rc.c.Err()
	if !strings.Contains(err.Error(), "lost its last replica") {
		t.Fatalf("terminal err = %v, want last-replica root cause", err)
	}
	if !strings.Contains(err.Error(), "partition 0") {
		t.Fatalf("terminal err = %v, want the losing partition named", err)
	}
	wantFailedFast(t, rc.c)
}

// TestRejoinRestoresReplica kills a replica, restarts its server on the
// same address, and waits for the background rejoin loop to restore
// R-way health — without any caller-visible interruption.
func TestRejoinRestoresReplica(t *testing.T) {
	keys := workload.SortedKeys(20000, 29)
	setVar(t, &rejoinBackoff, 20*time.Millisecond)
	setVar(t, &rejoinMaxBackoff, 100*time.Millisecond)
	rc, shutdown := startReplicated(t, keys, 2, 2, 256, DialOptions{})
	defer shutdown()

	queries := workload.UniformQueries(10000, 31)
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = workload.ReferenceRank(keys, q)
	}
	check := func() {
		t.Helper()
		out := make([]int, len(queries))
		if err := rc.c.LookupBatchInto(queries, out); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatal("wrong rank")
			}
		}
	}
	check()

	rc.kill(0, 1)
	deadline := time.Now().Add(10 * time.Second)
	for rc.health(t, 0, 1).Healthy {
		if time.Now().After(deadline) {
			t.Fatal("killed replica never marked unhealthy")
		}
		check() // traffic drives failure detection
	}
	check() // degraded mode still serves

	rc.restart(t, 0, 1)
	for !rc.health(t, 0, 1).Healthy {
		if time.Now().After(deadline) {
			t.Fatal("restarted replica never rejoined")
		}
		time.Sleep(10 * time.Millisecond)
	}
	h := rc.health(t, 0, 1)
	if h.Rejoins == 0 {
		t.Fatalf("health = %+v, want a counted rejoin", h)
	}
	check() // restored R-way service
	if err := rc.c.Err(); err != nil {
		t.Fatalf("cluster terminal across kill+rejoin: %v", err)
	}
}

// --- request-id wraparound ---

// TestReqIDWrapAcrossBoundary drives lookups across the 2^32 request-id
// boundary: ids wrap through zero without collisions (the in-flight
// window is tiny) and every rank stays correct.
func TestReqIDWrapAcrossBoundary(t *testing.T) {
	keys := workload.SortedKeys(5000, 32)
	c, shutdown := startCluster(t, keys, 2, 64)
	defer shutdown()

	c.reqID.Store(^uint32(0) - 40) // ~40 ids before the wrap
	queries := workload.UniformQueries(2000, 33)
	for round := 0; round < 4; round++ { // ~32 frames/round: crosses 0
		ranks, err := c.LookupBatch(queries)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, q := range queries {
			if want := workload.ReferenceRank(keys, q); ranks[i] != want {
				t.Fatalf("round %d: wrong rank across id wrap", round)
			}
		}
	}
	if after := c.reqID.Load(); after > 1<<20 {
		t.Fatalf("reqID = %d, expected it to have wrapped", after)
	}
}

// TestReqIDCollisionFailsFast forces the pathological wrap — a fresh
// request landing on the id of one still in flight on the same
// connection — and wants a clear, immediate error for the new request
// instead of a silently stranded caller, with the cluster and the
// original in-flight entry left intact.
func TestReqIDCollisionFailsFast(t *testing.T) {
	keys := workload.SortedKeys(3000, 34)
	// Deadlines off: the planted in-flight entry never completes, and
	// must not trip the progress timeout while we probe around it.
	rc, shutdown := startReplicated(t, keys, 1, 1, 64, DialOptions{OpTimeout: -1})
	defer shutdown()
	c := rc.c

	n := testNodes(t, c)[0]
	stuck := &pending{done: make(chan *pending, 1)}
	n.mu.Lock()
	collide := c.reqID.Load() + 1 // the id the next dispatch will take
	n.pending[collide] = inflight{p: stuck, sentAt: time.Now()}
	n.mu.Unlock()

	_, err := c.LookupBatch(workload.UniformQueries(10, 35))
	if err == nil || !strings.Contains(err.Error(), "wrapped onto") {
		t.Fatalf("err = %v, want wraparound collision", err)
	}
	if c.Err() != nil {
		t.Fatalf("cluster poisoned by a per-request id collision: %v", c.Err())
	}
	// The connection keeps serving fresh ids.
	ranks, err := c.LookupBatch(workload.UniformQueries(100, 36))
	if err != nil {
		t.Fatalf("lookup after collision: %v", err)
	}
	_ = ranks
	n.mu.Lock()
	_, still := n.pending[collide]
	n.mu.Unlock()
	if !still {
		t.Fatal("original in-flight request was evicted by the collision")
	}
}

// --- node Serve lifecycle ---

func TestServeSecondCallRefused(t *testing.T) {
	keys := workload.SortedKeys(500, 37)
	n := NewPartitionNode(keys, 0)
	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- n.Serve(lis1) }()
	deadline := time.Now().Add(5 * time.Second)
	for !n.isServing() {
		if time.Now().After(deadline) {
			t.Fatal("first Serve never started")
		}
		time.Sleep(time.Millisecond)
	}

	lis2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis2.Close()
	if err := n.Serve(lis2); err == nil || !strings.Contains(err.Error(), "already serving") {
		t.Fatalf("second Serve = %v, want already-serving error", err)
	}

	lis1.Close()
	select {
	case <-serveDone:
	case <-time.After(5 * time.Second):
		t.Fatal("first Serve did not return after listener close")
	}
	n.Close()
}

// TestNodeRestartServe exercises the server side of the rejoin path: a
// Node whose listener died serves again on a fresh listener, and a new
// client verifies the partition handshake end to end.
func TestNodeRestartServe(t *testing.T) {
	keys := workload.SortedKeys(2000, 38)
	n := NewPartitionNode(keys, 0)

	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- n.Serve(lis1) }()
	deadline := time.Now().Add(5 * time.Second)
	for !n.isServing() {
		if time.Now().After(deadline) {
			t.Fatal("Serve never started")
		}
		time.Sleep(time.Millisecond)
	}
	lis1.Close()
	select {
	case <-done1:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}

	// Restart on a fresh listener: same Node, same partition.
	lis2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- n.Serve(lis2) }()
	defer func() {
		n.Close()
		select {
		case <-done2:
		case <-time.After(5 * time.Second):
			t.Fatal("restarted Serve did not return after Close")
		}
	}()

	c, err := Dial([]string{lis2.Addr().String()}, keys, DialOptions{BatchKeys: 64})
	if err != nil {
		t.Fatalf("dial restarted node: %v", err)
	}
	defer c.Close()
	queries := workload.UniformQueries(500, 39)
	ranks, err := c.LookupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if want := workload.ReferenceRank(keys, q); ranks[i] != want {
			t.Fatal("wrong rank from restarted node")
		}
	}
}

// TestCloseInterruptsRejoinAttempt pins down that Close cannot stall
// behind a rejoin attempt: the dead replica's address is squatted by a
// listener that accepts and then ignores the hello, so an uncancelable
// dial+handshake would hold Close for the full Timeout (10s here).
func TestCloseInterruptsRejoinAttempt(t *testing.T) {
	keys := workload.SortedKeys(5000, 60)
	setVar(t, &dialTimeout, 10*time.Second)
	setVar(t, &rejoinBackoff, 10*time.Millisecond)
	setVar(t, &rejoinMaxBackoff, 20*time.Millisecond)
	rc, shutdown := startReplicated(t, keys, 1, 2, 256, DialOptions{})
	defer shutdown()

	addr := rc.addrs[0][1]
	rc.kill(0, 1)
	var lis net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		if lis, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer lis.Close()
	accepted := make(chan struct{}, 16)
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			accepted <- struct{}{}
			go func(c net.Conn) { // swallow the hello, never answer
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	// Drive traffic until failover drops the replica, then wait for the
	// rejoin loop's dial to land in the hung handshake.
	queries := workload.UniformQueries(2000, 61)
	for rc.health(t, 0, 1).Healthy {
		if time.Now().After(deadline) {
			t.Fatal("killed replica never marked unhealthy")
		}
		if _, err := rc.c.LookupBatch(queries); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("rejoin loop never dialed the squatted address")
	}

	start := time.Now()
	rc.c.Close()
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("Close blocked %v behind an in-flight rejoin handshake", el)
	}
}
