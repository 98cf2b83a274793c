package netrun

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// Live-membership drills: AddReplica, DrainReplica, and SplitPartition
// reshape a serving cluster without restarting it. These tests pin the
// availability story (pre-v6 nodes refuse the ops with a descriptive
// error, and a refusal leaves the cluster serving) and the correctness
// story (a full add→drain→split sequence under concurrent reads and
// writes loses no batch and keeps every rank identical to the oracle).

// startJoinNode starts an unassigned join node (dcnode -join) on a
// loopback listener and returns its address and a stop func.
func startJoinNode(t *testing.T, universe []workload.Key) (string, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := NewJoinNode(universe)
	go node.Serve(lis)
	return lis.Addr().String(), func() { node.Close() }
}

// TestMembershipOpsNeedV6 pins the availability error: against a
// cluster negotiated at protocol v5 (the client's version capped, the
// pre-membership wire format), every membership verb is refused with an
// error naming the needed version, and the refusal leaves the data
// plane serving.
func TestMembershipOpsNeedV6(t *testing.T) {
	keys := workload.SortedKeys(4000, 71)
	setVar(t, &clientVersion, ProtoV5)
	rc, shutdown := startReplicated(t, keys, 2, 2, 256, DialOptions{})
	defer shutdown()

	joinAddr, stopJoin := startJoinNode(t, keys)
	defer stopJoin()
	wantV6 := func(op string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "needs v6") {
			t.Fatalf("%s on a v5 cluster: err = %v, want a live-membership-needs-v6 refusal", op, err)
		}
	}
	wantV6("AddReplica", rc.c.AddReplica(0, joinAddr))
	wantV6("DrainReplica", rc.c.DrainReplica(0, rc.addrs[0][1]))
	wantV6("SplitPartition", rc.c.SplitPartition(0))

	// The refusals must leave the cluster untouched and serving.
	if got := rc.c.Nodes(); got != 2 {
		t.Fatalf("Nodes = %d after refused membership ops, want 2", got)
	}
	o := newTCPOracle(keys)
	checkTCPExact(t, rc.c, o, workload.UniformQueries(2000, 72))
}

// TestMembershipHTTPConflictPreV6 pins the operator-facing shape of the
// same refusal: POST /membership/split-partition against a v5-capped
// cluster's admin endpoint answers 409 Conflict with the refusal text
// in the JSON error body.
func TestMembershipHTTPConflictPreV6(t *testing.T) {
	keys := workload.SortedKeys(3000, 73)
	setVar(t, &clientVersion, ProtoV5)
	rc, shutdown := startReplicated(t, keys, 2, 2, 256, DialOptions{
		Admin: AdminOptions{Addr: "127.0.0.1:0"},
	})
	defer shutdown()
	at := rc.c.Admin()
	if at == "" {
		t.Fatal("admin endpoint did not mount")
	}
	body, _ := json.Marshal(map[string]any{"partition": 0})
	resp, err := http.Post("http://"+at+"/membership/split-partition", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusConflict)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "needs v6") {
		t.Fatalf("error body %q, want the needs-v6 refusal", e.Error)
	}
}

// TestLiveMembershipDrillUnderLoad is the acceptance drill: an 8x2
// cluster serving concurrent lookups and inserts goes through the full
// membership sequence — a join node added to one partition, a replica
// drained from another, a third partition split in two — with zero
// failed batches, and every post-drill rank identical to the oracle
// that saw the same inserts (the control). Run it under -race: the
// drill overlaps the reshape paths with both dispatch paths.
func TestLiveMembershipDrillUnderLoad(t *testing.T) {
	keys := workload.SortedKeys(24000, 81)
	rc, shutdown := startReplicated(t, keys, 8, 2, 512, DialOptions{})
	defer shutdown()
	c := rc.c

	// Background load: two readers (one unsorted, one ascending — both
	// dispatch paths) and one writer. Readers only check for batch
	// errors; rank values shift under the concurrent inserts and are
	// verified against the oracle at the quiesce point below.
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	batchErr := func(err error) {
		if err != nil {
			select {
			case errs <- err:
			default:
			}
		}
	}
	queries := workload.UniformQueries(3000, 82)
	asc := sortedCopy(queries)
	for _, qs := range [][]workload.Key{queries, asc} {
		wg.Add(1)
		go func(qs []workload.Key) {
			defer wg.Done()
			out := make([]int, len(qs))
			for !stop.Load() {
				batchErr(c.LookupBatchInto(qs, out))
			}
		}(qs)
	}
	var inserted []workload.Key
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := workload.NewRNG(83)
		for !stop.Load() {
			ins := make([]workload.Key, 200)
			for i := range ins {
				ins[i] = r.Key()
			}
			if err := c.InsertBatch(ins); err != nil {
				batchErr(err)
				return
			}
			inserted = append(inserted, ins...)
			time.Sleep(time.Millisecond)
		}
	}()

	// 1. Add: a join node enters partition 2's group live.
	joinAddr, stopJoin := startJoinNode(t, keys)
	defer stopJoin()
	if err := c.AddReplica(2, joinAddr); err != nil {
		t.Fatal(err)
	}

	// 2. Drain: partition 5 gives up a replica.
	if err := c.DrainReplica(5, rc.addrs[5][0]); err != nil {
		t.Fatal(err)
	}

	// 3. Split: partition 3 divides at its key median. The newcomer from
	// step 1 may still be syncing its snapshot — the split's preflight
	// refuses until the cluster is settled, so retry on that refusal.
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := c.SplitPartition(3)
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), "down or syncing") {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never settled for the split: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("a batch failed during the drill: %v", err)
	}

	// Post-drill shape: 8 partitions + 1 from the split.
	if got := c.Nodes(); got != 9 {
		t.Fatalf("Nodes = %d after split, want 9", got)
	}

	// Correctness control: the oracle absorbed exactly the writer's
	// inserts; every rank — both dispatch paths, plus queries straddling
	// the new split boundary — must match it.
	o := newTCPOracle(keys)
	o.insert(inserted)
	checkTCPExact(t, c, o, queries)
	checkTCPExact(t, c, o, workload.UniformQueries(3000, 84))

	// The drained node is gone from the health roster; the joined one is
	// present.
	seen := map[string]bool{}
	for _, h := range c.Stats().Replicas {
		seen[h.Addr] = true
	}
	if seen[rc.addrs[5][0]] {
		t.Fatal("drained replica still in the health roster")
	}
	if !seen[joinAddr] {
		t.Fatal("joined replica missing from the health roster")
	}
}

// TestSplitPartitionRefusesSingleReplica pins the split preflight: a
// one-replica partition cannot split (each half needs an owner), and
// the refusal names the constraint.
func TestSplitPartitionRefusesSingleReplica(t *testing.T) {
	keys := workload.SortedKeys(4000, 85)
	rc, shutdown := startReplicated(t, keys, 2, 1, 256, DialOptions{})
	defer shutdown()
	err := rc.c.SplitPartition(0)
	if err == nil || !strings.Contains(err.Error(), "at least one per half") {
		t.Fatalf("split of a 1-replica partition: err = %v, want the one-per-half refusal", err)
	}
	o := newTCPOracle(keys)
	checkTCPExact(t, rc.c, o, workload.UniformQueries(1000, 86))
}

// TestAddReplicaCatchUpServesWrites pins the catch-up admission: a join
// node added after the partition absorbed writes takes the identity,
// syncs a sibling snapshot, and then answers reads that include keys
// inserted both before and after its admission.
func TestAddReplicaCatchUpServesWrites(t *testing.T) {
	keys := workload.SortedKeys(6000, 87)
	rc, shutdown := startReplicated(t, keys, 2, 2, 256, DialOptions{})
	defer shutdown()
	c := rc.c
	o := newTCPOracle(keys)

	pre := workload.UniformQueries(800, 88)
	if err := c.InsertBatch(pre); err != nil {
		t.Fatal(err)
	}
	o.insert(pre)

	joinAddr, stopJoin := startJoinNode(t, keys)
	defer stopJoin()
	if err := c.AddReplica(0, joinAddr); err != nil {
		t.Fatal(err)
	}

	post := workload.UniformQueries(800, 89)
	if err := c.InsertBatch(post); err != nil {
		t.Fatal(err)
	}
	o.insert(post)
	checkTCPExact(t, c, o, workload.UniformQueries(2000, 90))

	// The newcomer eventually settles into the read rotation.
	deadline := time.Now().Add(30 * time.Second)
	for {
		settled := false
		for _, h := range c.Stats().Replicas {
			if h.Addr == joinAddr && h.Healthy && !h.Syncing {
				settled = true
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("joined replica never settled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkTCPExact(t, c, o, workload.UniformQueries(2000, 91))
}

// TestSplitThenAddReplicaKeepsConfig pins that the two halves a split
// writes into the dial config are independent lists: growing the low
// half with AddReplica must not touch the high half's addresses. The
// next epoch dial (a second split here) re-handshakes every configured
// address against its partition, so a corrupted list fails it.
func TestSplitThenAddReplicaKeepsConfig(t *testing.T) {
	keys := workload.SortedKeys(8000, 92)
	rc, shutdown := startReplicated(t, keys, 2, 2, 256, DialOptions{})
	defer shutdown()
	c := rc.c
	if err := c.SplitPartition(0); err != nil {
		t.Fatal(err)
	}
	joinAddr, stopJoin := startJoinNode(t, keys)
	defer stopJoin()
	if err := c.AddReplica(0, joinAddr); err != nil {
		t.Fatal(err)
	}
	want := [][]string{{rc.addrs[0][0], joinAddr}, {rc.addrs[0][1]}, rc.addrs[1]}
	c.mu.Lock()
	got := c.groups
	c.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dial config after split + AddReplica(low half) = %v, want %v", got, want)
	}
	if err := c.SplitPartition(2); err != nil {
		t.Fatalf("re-dial against the post-split config: %v", err)
	}
	if got := c.Nodes(); got != 4 {
		t.Fatalf("Nodes = %d after two splits, want 4", got)
	}
	checkTCPExact(t, c, newTCPOracle(keys), workload.UniformQueries(2000, 93))
}
