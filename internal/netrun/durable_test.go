package netrun

import (
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/workload"
)

// durableCluster is the durable-node sibling of replicatedCluster: every
// replica serves from its own WAL directory, so a "restart" reopens the
// same durable state a crashed process would recover.
type durableCluster struct {
	part  *core.Partitioning
	nodes [][]*Node
	addrs [][]string
	dirs  [][]string
	c     *Cluster
}

func startDurable(t *testing.T, keys []workload.Key, parts, replicas, batch int, opt DialOptions) (*durableCluster, func()) {
	t.Helper()
	p, err := core.NewPartitioning(keys, parts)
	if err != nil {
		t.Fatal(err)
	}
	dc := &durableCluster{
		part:  p,
		nodes: make([][]*Node, parts),
		addrs: make([][]string, parts),
		dirs:  make([][]string, parts),
	}
	root := t.TempDir()
	var flat []string
	for i := 0; i < parts; i++ {
		for r := 0; r < replicas; r++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(root, "p"+string(rune('0'+i))+"r"+string(rune('0'+r)))
			node, err := NewDurablePartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase, dir, index.StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dc.nodes[i] = append(dc.nodes[i], node)
			dc.addrs[i] = append(dc.addrs[i], lis.Addr().String())
			dc.dirs[i] = append(dc.dirs[i], dir)
			flat = append(flat, lis.Addr().String())
			go node.Serve(lis)
		}
	}
	opt.BatchKeys = batch
	opt.Replicas = replicas
	if opt.Timeout == 0 {
		opt.Timeout = 5 * time.Second
	}
	dc.c, err = Dial(flat, keys, opt)
	if err != nil {
		for _, reps := range dc.nodes {
			for _, n := range reps {
				n.Close()
			}
		}
		t.Fatal(err)
	}
	return dc, func() {
		dc.c.Close()
		for _, reps := range dc.nodes {
			for _, n := range reps {
				n.Close()
			}
		}
	}
}

func (dc *durableCluster) kill(partition, replica int) {
	dc.nodes[partition][replica].Close()
}

// restart reopens the replica's durable directory — exactly what a
// crashed-and-restarted dcnode process does — and serves it on the
// original address.
func (dc *durableCluster) restart(t *testing.T, partition, replica int) {
	t.Helper()
	addr := dc.addrs[partition][replica]
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
	p := dc.part.Parts[partition]
	node, err := NewDurablePartitionNode(p.Keys, p.RankBase, dc.dirs[partition][replica], index.StoreOptions{})
	if err != nil {
		t.Fatalf("reopen durable node: %v", err)
	}
	dc.nodes[partition][replica] = node
	go node.Serve(lis)
}

func (dc *durableCluster) health(t *testing.T, partition, replica int) ReplicaHealth {
	t.Helper()
	addr := dc.addrs[partition][replica]
	for _, h := range dc.c.Stats().Replicas {
		if h.Partition == partition && h.Addr == addr {
			return h
		}
	}
	t.Fatalf("no health row for partition %d addr %s", partition, addr)
	return ReplicaHealth{}
}

// waitHealthy waits until the replica is down (want false) or serving
// (want true). Serving means connected *and* caught up: a rejoiner is
// Healthy from the moment it is admitted as syncing, but its catch-up —
// and everything a test asserts about it (deltaCatchups, Rejoins, the
// replica's own answers) — lands only when Syncing clears.
func (dc *durableCluster) waitHealthy(t *testing.T, partition, replica int, want bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	serving := func() bool {
		h := dc.health(t, partition, replica)
		return h.Healthy && !h.Syncing
	}
	for serving() != want {
		if time.Now().After(deadline) {
			t.Fatalf("replica %d/%d never became healthy=%v", partition, replica, want)
		}
		// Traffic drives failure detection.
		qs := workload.UniformQueries(64, 77)
		out := make([]int, len(qs))
		dc.c.LookupBatchInto(qs, out)
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDurableRejoinViaDelta: a durable replica that crashes and
// restarts holds everything it fsynced, so its rejoin must move only
// the missed writes (the positioned delta), not the whole key set —
// and the result must be exact.
func TestDurableRejoinViaDelta(t *testing.T) {
	keys := workload.SortedKeys(8000, 63)
	dc, shutdown := startDurable(t, keys, 2, 2, 256, DialOptions{
		Rejoin: RejoinOptions{Backoff: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
	})
	defer shutdown()
	o := newTCPOracle(keys)

	r := workload.NewRNG(67)
	insert := func(n int) {
		t.Helper()
		batch := make([]workload.Key, n)
		for i := range batch {
			batch[i] = r.Key()
		}
		if err := dc.c.InsertBatch(batch); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
		o.insert(batch)
	}
	insert(300) // both replicas log these
	probes := workload.UniformQueries(500, 71)
	checkTCPExact(t, dc.c, o, probes)

	dc.kill(0, 1)
	dc.waitHealthy(t, 0, 1, false)
	insert(200) // replica 0/1 misses exactly these

	dc.restart(t, 0, 1)
	dc.waitHealthy(t, 0, 1, true)
	if got := dc.c.deltaCatchups.Load(); got == 0 {
		t.Fatal("rejoin of a durable replica did not use the positioned delta")
	}
	if h := dc.health(t, 0, 1); h.Rejoins == 0 {
		t.Fatalf("health = %+v, want a counted rejoin", h)
	}
	checkTCPExact(t, dc.c, o, probes)

	// The restarted replica must itself be correct, not just covered by
	// its sibling: kill the sibling and read through the rejoiner alone.
	dc.kill(0, 0)
	dc.waitHealthy(t, 0, 0, false)
	checkTCPExact(t, dc.c, o, probes)
	if err := dc.c.Err(); err != nil {
		t.Fatalf("cluster terminal: %v", err)
	}
}

// TestDurableRejoinDivergedFallsBackToFull: a rejoiner whose durable
// history diverged from the survivors (it logged a write nobody else
// acked) must refuse the delta and converge through a full snapshot —
// diverged state is repaired, never merged silently.
func TestDurableRejoinDivergedFallsBackToFull(t *testing.T) {
	keys := workload.SortedKeys(6000, 73)
	dc, shutdown := startDurable(t, keys, 1, 2, 256, DialOptions{
		Rejoin: RejoinOptions{Backoff: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
	})
	defer shutdown()
	o := newTCPOracle(keys)

	r := workload.NewRNG(79)
	insert := func(n int) {
		t.Helper()
		batch := make([]workload.Key, n)
		for i := range batch {
			batch[i] = r.Key()
		}
		if err := dc.c.InsertBatch(batch); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
		o.insert(batch)
	}
	insert(200)
	dc.kill(0, 1)
	dc.waitHealthy(t, 0, 1, false)
	insert(100)

	// Diverge the dead replica's durable history behind the cluster's
	// back: one write only it ever logged.
	st, _, err := index.OpenStore(dc.dirs[0][1], dc.part.Parts[0].Keys, index.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	end, _, err := st.Append([]workload.Key{424242})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(end); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	before := dc.c.deltaCatchups.Load()
	dc.restart(t, 0, 1)
	dc.waitHealthy(t, 0, 1, true)
	if got := dc.c.deltaCatchups.Load(); got != before {
		t.Fatal("diverged replica rejoined via delta; must fall back to a full snapshot")
	}
	checkTCPExact(t, dc.c, o, probes(t))

	// Read through the repaired replica alone: the divergent key must be
	// gone (full snapshot replaced it), every acked write present.
	dc.kill(0, 0)
	dc.waitHealthy(t, 0, 0, false)
	checkTCPExact(t, dc.c, o, probes(t))
}

func probes(t *testing.T) []workload.Key {
	t.Helper()
	return workload.UniformQueries(400, 83)
}

// TestDurableAndInMemoryReplicaInterop: a durable replica and a plain
// in-memory one serve the same partition; writes fan to both, reads
// agree, and a restart of the in-memory one still catches up (via the
// full snapshot — there is no position to delta from).
func TestDurableAndInMemoryReplicaInterop(t *testing.T) {
	keys := workload.SortedKeys(5000, 89)
	p, err := core.NewPartitioning(keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lis0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	durNode, err := NewDurablePartitionNode(p.Parts[0].Keys, p.Parts[0].RankBase, dir, index.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go durNode.Serve(lis0)
	defer durNode.Close()

	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	memNode := NewPartitionNode(p.Parts[0].Keys, p.Parts[0].RankBase)
	go memNode.Serve(lis1)
	defer func() { memNode.Close() }()
	memAddr := lis1.Addr().String()

	c, err := Dial([]string{lis0.Addr().String() + "|" + memAddr}, keys, DialOptions{
		BatchKeys: 256, Replicas: 2, Timeout: 5 * time.Second,
		Rejoin: RejoinOptions{Backoff: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	o := newTCPOracle(keys)
	r := workload.NewRNG(97)
	batch := make([]workload.Key, 150)
	for i := range batch {
		batch[i] = r.Key()
	}
	if err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	o.insert(batch)
	qs := workload.UniformQueries(400, 101)
	checkTCPExact(t, c, o, qs)

	// Kill and restart the in-memory node; its rejoin must use the full
	// snapshot (deltaCatchups stays 0) and still converge.
	memNode.Close()
	deadline := time.Now().Add(15 * time.Second)
	healthy := func() bool {
		for _, h := range c.Stats().Replicas {
			if h.Addr == memAddr {
				return h.Healthy
			}
		}
		return false
	}
	for healthy() {
		if time.Now().After(deadline) {
			t.Fatal("killed in-memory replica never marked unhealthy")
		}
		out := make([]int, len(qs))
		c.LookupBatchInto(qs, out)
	}
	if err := c.InsertBatch([]workload.Key{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	o.insert([]workload.Key{7, 8, 9})

	var lis2 net.Listener
	for {
		lis2, err = net.Listen("tcp", memAddr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	memNode = NewPartitionNode(p.Parts[0].Keys, p.Parts[0].RankBase)
	go memNode.Serve(lis2)
	for !healthy() {
		if time.Now().After(deadline) {
			t.Fatal("in-memory replica never rejoined")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.deltaCatchups.Load(); got != 0 {
		t.Fatalf("in-memory rejoin counted %d delta catch-ups; must use the full snapshot", got)
	}
	checkTCPExact(t, c, o, qs)
}

// TestDurableNodeRefusesWriteOnBrokenLog: when the durable node's disk
// dies, an insert must come back as an error to the client (the write
// was not acked), not vanish.
func TestDurableNodeAckImpliesDurability(t *testing.T) {
	keys := workload.SortedKeys(4000, 103)
	dc, shutdown := startDurable(t, keys, 2, 1, 128, DialOptions{})
	defer shutdown()
	o := newTCPOracle(keys)
	r := workload.NewRNG(107)
	var acked []workload.Key
	for round := 0; round < 4; round++ {
		batch := make([]workload.Key, 100)
		for i := range batch {
			batch[i] = r.Key()
		}
		if err := dc.c.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, batch...)
		o.insert(batch)
	}
	// Hard-stop every node (crash equivalence: no graceful drain beyond
	// what acks already guaranteed), then reopen the directories.
	dc.c.Close()
	for i := range dc.nodes {
		dc.nodes[i][0].Close()
	}
	for i := range dc.nodes {
		dir := dc.dirs[i][0]
		p := dc.part.Parts[i]
		dp, err := index.OpenDurablePartition(dir, p.Keys, func(ks []workload.Key) index.BatchRanker {
			return index.NewSortedArray(ks, 0)
		}, 0, index.StoreOptions{})
		if err != nil {
			t.Fatalf("partition %d: reopen after crash: %v", i, err)
		}
		snap := dp.Upd.SnapshotKeys()
		// Every acked key owned by this partition must be in the snapshot.
		counts := map[workload.Key]int{}
		for _, k := range snap {
			counts[k]++
		}
		for _, k := range p.Keys {
			counts[k]--
		}
		for _, k := range acked {
			if i == dc.part.Route(k) {
				counts[k]--
			}
		}
		for k, v := range counts {
			if v != 0 {
				t.Fatalf("partition %d: key %d off by %+d after restart", i, k, v)
			}
		}
		dp.Close()
	}
}

// TestDurableNodeRefusesFsyncInterval: the WAL fsyncs every group
// commit or never, so a positive FsyncInterval (dcnode -fsync-interval)
// is refused at the open, by name.
func TestDurableNodeRefusesFsyncInterval(t *testing.T) {
	keys := workload.SortedKeys(100, 109)
	_, err := NewDurablePartitionNode(keys, 0, t.TempDir(), index.StoreOptions{FsyncInterval: time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "FsyncInterval") {
		t.Fatalf("err = %v, want a refusal naming FsyncInterval", err)
	}
}

// TestJitterBackoffBounds pins the rejoin backoff arithmetic: jitter
// stays in [d/2, d) so herds of rejoiners spread out, and doubling caps
// at the configured maximum.
func TestJitterBackoffBounds(t *testing.T) {
	for _, d := range []time.Duration{2, 100 * time.Millisecond, time.Second} {
		for i := 0; i < 2000; i++ {
			got := jitterBackoff(d)
			if got < d/2 || got >= d {
				t.Fatalf("jitterBackoff(%v) = %v, want [%v, %v)", d, got, d/2, d)
			}
		}
	}
	if got := jitterBackoff(1); got != 1 {
		t.Fatalf("jitterBackoff(1) = %v, want 1 (too small to split)", got)
	}
	if got := nextBackoff(100*time.Millisecond, time.Second); got != 200*time.Millisecond {
		t.Fatalf("nextBackoff doubling = %v, want 200ms", got)
	}
	if got := nextBackoff(800*time.Millisecond, time.Second); got != time.Second {
		t.Fatalf("nextBackoff cap = %v, want 1s", got)
	}
	if got := nextBackoff(2*time.Second, time.Second); got != time.Second {
		t.Fatalf("nextBackoff over cap = %v, want 1s", got)
	}
}
