package netrun

import (
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// tcpOracle mirrors the cluster's key multiset and answers reference
// ranks with sort.SearchInts.
type tcpOracle struct {
	keys []int
}

func newTCPOracle(keys []workload.Key) *tcpOracle {
	o := &tcpOracle{keys: make([]int, len(keys))}
	for i, k := range keys {
		o.keys[i] = int(k)
	}
	sort.Ints(o.keys)
	return o
}

func (o *tcpOracle) insert(keys []workload.Key) {
	for _, k := range keys {
		o.keys = append(o.keys, int(k))
	}
	sort.Ints(o.keys)
}

func (o *tcpOracle) rank(k workload.Key) int {
	return sort.SearchInts(o.keys, int(k)+1)
}

// checkTCPExact verifies the cluster matches the oracle on qs via both
// the unsorted and the sorted (ascending-run) paths.
func checkTCPExact(t *testing.T, c *Cluster, o *tcpOracle, qs []workload.Key) {
	t.Helper()
	out := make([]int, len(qs))
	if err := c.LookupBatchInto(qs, out); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if want := o.rank(q); out[i] != want {
			t.Fatalf("unsorted rank(%d) = %d, want %d", q, out[i], want)
		}
	}
	asc := sortedCopy(qs)
	if err := c.LookupBatchInto(asc, out); err != nil {
		t.Fatal(err)
	}
	for i, q := range asc {
		if want := o.rank(q); out[i] != want {
			t.Fatalf("sorted rank(%d) = %d, want %d", q, out[i], want)
		}
	}
}

// TestTCPInsertExact pins the basic write path: inserts fan out to the
// owning partitions, lookups rebase the nodes' static rank bases on the
// live key counts they ask in the same call, both dispatch paths stay
// exact, and the InsertedKeys stat counts every acknowledged key.
func TestTCPInsertExact(t *testing.T) {
	keys := workload.SortedKeys(12000, 61)
	rc, shutdown := startReplicated(t, keys, 3, 1, 512, DialOptions{})
	defer shutdown()
	o := newTCPOracle(keys)
	qs := workload.UniformQueries(4000, 62)

	checkTCPExact(t, rc.c, o, qs)
	r := workload.NewRNG(63)
	for round := 0; round < 6; round++ {
		ins := make([]workload.Key, 700)
		for i := range ins {
			ins[i] = r.Key()
		}
		if err := rc.c.InsertBatch(ins); err != nil {
			t.Fatal(err)
		}
		o.insert(ins)
		checkTCPExact(t, rc.c, o, qs)
	}
	total := int64(0)
	for _, n := range rc.c.InsertedKeys() {
		total += n
	}
	if total != 6*700 {
		t.Fatalf("InsertedKeys total = %d, want %d", total, 6*700)
	}
}

// TestTCPFreshClientSeesEarlierInserts: a brand new client dialing
// nodes that absorbed writes from an earlier client must still answer
// globally consistent ranks — its rank calls count those writes in the
// live key counts they ask of the nodes.
func TestTCPFreshClientSeesEarlierInserts(t *testing.T) {
	keys := workload.SortedKeys(9000, 55)
	rc, shutdown := startReplicated(t, keys, 3, 1, 512, DialOptions{})
	defer shutdown()
	o := newTCPOracle(keys)
	ins := workload.UniformQueries(2000, 56)
	if err := rc.c.InsertBatch(ins); err != nil {
		t.Fatal(err)
	}
	o.insert(ins)
	rc.c.Close() // the writing client goes away; the nodes keep running

	var flat []string
	for _, group := range rc.addrs {
		flat = append(flat, group...)
	}
	fresh, err := Dial(flat, keys, DialOptions{BatchKeys: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	checkTCPExact(t, fresh, o, workload.UniformQueries(3000, 57))
}

// TestTCPInsertFirstThenLookup pins the node's per-connection scratch
// invariant: an insert as the very first frame on a connection grows
// the key scratch, and a smaller lookup right after must not slice a
// stale (shorter) rank scratch — a regression here panics the handler
// and drops the replica.
func TestTCPInsertFirstThenLookup(t *testing.T) {
	keys := workload.SortedKeys(3000, 68)
	rc, shutdown := startReplicated(t, keys, 1, 1, 512, DialOptions{})
	defer shutdown()
	o := newTCPOracle(keys)

	ins := workload.UniformQueries(100, 69)
	if err := rc.c.InsertBatch(ins); err != nil {
		t.Fatal(err)
	}
	o.insert(ins)
	checkTCPExact(t, rc.c, o, workload.UniformQueries(10, 70))
	if err := rc.c.Err(); err != nil {
		t.Fatalf("cluster unhealthy after insert-first connection: %v", err)
	}
}

// TestTCPInsertReplicatedExact pins that writes reach every replica:
// with 2 replicas per partition both serve lookups round-robin, so a
// missed replica would surface as a wrong rank within a few batches.
func TestTCPInsertReplicatedExact(t *testing.T) {
	keys := workload.SortedKeys(10000, 64)
	rc, shutdown := startReplicated(t, keys, 2, 2, 256, DialOptions{})
	defer shutdown()
	o := newTCPOracle(keys)
	qs := workload.UniformQueries(3000, 65)

	r := workload.NewRNG(66)
	for round := 0; round < 5; round++ {
		ins := make([]workload.Key, 400)
		for i := range ins {
			ins[i] = r.Key()
		}
		if err := rc.c.InsertBatch(ins); err != nil {
			t.Fatal(err)
		}
		o.insert(ins)
		// Several passes so the round-robin visits both replicas.
		for pass := 0; pass < 4; pass++ {
			checkTCPExact(t, rc.c, o, qs)
		}
	}
}

// TestTCPReplicaKilledMidInsert is the acceptance scenario: concurrent
// lookups and an insert stream run against a 2x2 replicated cluster
// while one replica is killed mid-stream. Every call must succeed
// (failover, not errors), and the quiescent state must be
// oracle-exact. The killed replica then restarts from its baseline key
// set — stale by every insert so far — and must be readmitted only
// after catching up from its sibling's snapshot: killing the sibling
// afterwards forces all reads onto the rejoined replica, which must
// still answer exactly.
func TestTCPReplicaKilledMidInsert(t *testing.T) {
	keys := workload.SortedKeys(16000, 71)
	setVar(t, &rejoinBackoff, 20*time.Millisecond)
	rc, shutdown := startReplicated(t, keys, 2, 2, 512, DialOptions{OpTimeout: 2 * time.Second})
	defer shutdown()
	o := newTCPOracle(keys)
	qs := workload.UniformQueries(3000, 72)

	// Readers hammer throughout; they must never see an error.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := qs
			if g == 1 {
				mine = sortedCopy(qs)
			}
			out := make([]int, len(mine))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := rc.c.LookupBatchInto(mine, out); err != nil {
					t.Errorf("lookup during failover: %v", err)
					return
				}
			}
		}(g)
	}

	r := workload.NewRNG(73)
	insertRounds := func(rounds int) {
		for i := 0; i < rounds; i++ {
			ins := make([]workload.Key, 300)
			for j := range ins {
				ins[j] = r.Key()
			}
			if err := rc.c.InsertBatch(ins); err != nil {
				t.Fatalf("insert: %v", err)
			}
			o.insert(ins)
		}
	}

	insertRounds(3)
	rc.kill(0, 0) // mid-stream: partition 0 loses a replica
	insertRounds(5)
	close(stop)
	wg.Wait()
	checkTCPExact(t, rc.c, o, qs)

	// Restart the dead replica from its baseline keys: stale by every
	// insert so far. The rejoin must catch it up from its sibling
	// before readmission.
	rc.restart(t, 0, 0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := rc.health(t, 0, 0)
		if h.Healthy && !h.Syncing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica did not rejoin: %+v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// More writes after the rejoin: both members must apply them.
	insertRounds(2)
	checkTCPExact(t, rc.c, o, qs)

	// Force every partition-0 read onto the rejoined replica: if the
	// catch-up load or the post-rejoin writes were lost, this fails.
	rc.kill(0, 1)
	deadline = time.Now().Add(10 * time.Second)
	for rc.health(t, 0, 1).Healthy {
		if time.Now().After(deadline) {
			t.Fatal("killed sibling still healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkTCPExact(t, rc.c, o, qs)
	insertRounds(1)
	checkTCPExact(t, rc.c, o, qs)
}

// readOnlyReplica shapes a node as read-only when it is replica r of
// its group; r < 0 shapes every node.
func readOnlyReplica(r int) func(int, int, *Node) {
	return func(_, replica int, n *Node) { n.ReadOnly = r < 0 || replica == r }
}

// TestTCPInsertRefusedWithoutV3 pins the capability gate: a partition
// whose only replica is read-only accepts lookups but refuses writes
// with a descriptive error, and the cluster stays healthy. (The name
// dates from when read-only was spelled "protocol v2".)
func TestTCPInsertRefusedWithoutV3(t *testing.T) {
	keys := workload.SortedKeys(4000, 75)
	rc, shutdown := startShaped(t, keys, 2, 1, 256, DialOptions{}, readOnlyReplica(-1))
	defer shutdown()
	c := rc.c

	err := c.InsertBatch([]workload.Key{1, 2, 3})
	if err == nil || !strings.Contains(err.Error(), "no writable replica") {
		t.Fatalf("InsertBatch against read-only nodes: err = %v, want no-writable-replica", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cluster poisoned by refused insert: %v", err)
	}
	// A read-only node refuses the write itself too, whoever sends it.
	conn, err := net.Dial("tcp", rc.addrs[0][0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, Frame{Op: OpInsert, ReqID: 1, Payload: []uint32{1}}); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(conn); err != nil || f.Op != OpErr {
		t.Fatalf("a raw OpInsert at a read-only node: op %d err %v, want OpErr", f.Op, err)
	}
	// Reads still work: no write was recorded, so the read-only members
	// stay eligible — for every read op, not just ranks.
	o := newTCPOracle(keys)
	checkTCPExact(t, c, o, workload.UniformQueries(2000, 76))
	if n, err := c.CountRange(keys[0], keys[len(keys)-1]); err != nil || n != len(keys) {
		t.Fatalf("CountRange against read-only nodes = %d, %v; want %d", n, err, len(keys))
	}
}

// TestTCPReadSkipsStaleReplica pins the stale-read guard: a mixed
// group (one writable, one read-only replica) keeps answering exactly
// after writes, because lookups stop visiting the replica that cannot
// have received them.
func TestTCPReadSkipsStaleReplica(t *testing.T) {
	keys := workload.SortedKeys(6000, 77)
	rc, shutdown := startShaped(t, keys, 1, 2, 256, DialOptions{}, readOnlyReplica(1))
	defer shutdown()
	c := rc.c

	o := newTCPOracle(keys)
	qs := workload.UniformQueries(2000, 78)
	checkTCPExact(t, c, o, qs)

	ins := workload.UniformQueries(500, 79)
	if err := c.InsertBatch(ins); err != nil {
		t.Fatal(err)
	}
	o.insert(ins)
	// Many passes: if the stale read-only replica still served reads, the
	// round-robin would hit it immediately.
	for pass := 0; pass < 6; pass++ {
		checkTCPExact(t, c, o, qs)
	}
}

// TestTCPInsertFailsWhenOnlyV3ReplicaDies pins the partial-failure
// accounting: in a [writable, read-only] group, killing the writable
// member must turn inserts into errors — never false acks (a swept
// in-flight write would otherwise "succeed" with no live node holding
// it) — and the client's InsertedKeys stat must count exactly the
// acknowledged batches. The epoch stays healthy (the read-only member
// survives), but reads of the written partition now refuse with a clear
// error instead of serving stale ranks.
func TestTCPInsertFailsWhenOnlyV3ReplicaDies(t *testing.T) {
	keys := workload.SortedKeys(4000, 85)
	rc, shutdown := startShaped(t, keys, 1, 2, 256, DialOptions{OpTimeout: 2 * time.Second}, readOnlyReplica(1))
	defer shutdown()
	c := rc.c

	if err := c.InsertBatch(workload.UniformQueries(100, 86)); err != nil {
		t.Fatal(err)
	}
	rc.kill(0, 0) // the only writable replica dies

	succeeded := 0
	deadline := time.Now().Add(10 * time.Second)
	var err error
	for {
		err = c.InsertBatch(workload.UniformQueries(50, 87))
		if err != nil {
			break
		}
		succeeded++
		if time.Now().After(deadline) {
			t.Fatal("inserts keep succeeding with no writable replica alive")
		}
	}
	if !strings.Contains(err.Error(), "writable replica") {
		t.Fatalf("insert error = %v, want last-writable-replica failure", err)
	}
	if got, want := c.InsertedKeys()[0], int64(100+50*succeeded); got != want {
		t.Fatalf("InsertedKeys[0] = %d, want %d (every credited batch must have been acked)", got, want)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("epoch terminal despite surviving read-only member: %v", err)
	}
	// Reads of the written partition refuse rather than serve the
	// read-only member's stale ranks.
	if _, err := c.LookupBatch(workload.UniformQueries(10, 88)); err == nil ||
		!strings.Contains(err.Error(), "writable replica") {
		t.Fatalf("lookup err = %v, want stale-replica refusal", err)
	}
}

// TestTCPInsertConcurrentWithLookups hammers inserts and lookups from
// multiple goroutines; every lookup's result for a never-inserted probe
// below all inserts must stay exact, and the final state must match the
// oracle. Run with -race.
func TestTCPInsertConcurrentWithLookups(t *testing.T) {
	keys := workload.SortedKeys(8000, 81)
	rc, shutdown := startReplicated(t, keys, 2, 2, 256, DialOptions{})
	defer shutdown()
	o := newTCPOracle(keys)
	qs := workload.UniformQueries(1000, 82)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int, len(qs))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := rc.c.LookupBatchInto(qs, out); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var insMu sync.Mutex
	var all []workload.Key
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(90 + g))
			for round := 0; round < 10; round++ {
				ins := make([]workload.Key, 150)
				for i := range ins {
					ins[i] = r.Key()
				}
				if err := rc.c.InsertBatch(ins); err != nil {
					t.Error(err)
					return
				}
				insMu.Lock()
				all = append(all, ins...)
				insMu.Unlock()
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	o.insert(all)
	checkTCPExact(t, rc.c, o, qs)
}

// dialAnother dials one more client against rc's nodes, closed with the
// test.
func dialAnother(t *testing.T, rc *replicatedCluster, keys []workload.Key, batch int) *Cluster {
	t.Helper()
	var flat []string
	for _, group := range rc.addrs {
		flat = append(flat, group...)
	}
	c, err := Dial(flat, keys, DialOptions{BatchKeys: batch, Replicas: len(rc.addrs[0])})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestTCPRanksExactAcrossClients: a client's ranks count every client's
// inserts, not only its own. Over 3 partitions client A dials, then B; A
// inserts 500 copies of partition 0's first key, and every one of B's
// ranks of the last 50 keys — B never writes — must equal the oracle. A
// client that added only its own inserts to the nodes' static rank bases
// read all 50 short by exactly 500.
//
// The concurrent subtests run 2 and 4 writing clients beside one that
// only reads. The writers insert only below the last partition, and the
// reader ranks keys of the last partition, so each rank is its static
// rank plus some number of inserted keys, and that number must lie in
// the oracle envelope: at least every key acked before the call began,
// at most every key invoked before it returned.
func TestTCPRanksExactAcrossClients(t *testing.T) {
	keys := workload.SortedKeys(9000, 47)
	t.Run("sequential", func(t *testing.T) {
		rc, shutdown := startReplicated(t, keys, 3, 1, 256, DialOptions{})
		defer shutdown()
		a := rc.c
		b := dialAnother(t, rc, keys, 256)
		o := newTCPOracle(keys)
		ins := make([]workload.Key, 500)
		for i := range ins {
			ins[i] = keys[0]
		}
		if err := a.InsertBatch(ins); err != nil {
			t.Fatal(err)
		}
		o.insert(ins)
		qs := keys[len(keys)-50:]
		got, err := b.LookupBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		wrong := 0
		for i, q := range qs {
			if got[i] != o.rank(q) {
				wrong++
			}
		}
		if wrong > 0 {
			t.Fatalf("%d of %d ranks read by the client that did not write are wrong (rank(%d) = %d, want %d)",
				wrong, len(qs), qs[0], got[0], o.rank(qs[0]))
		}
		if n, err := b.CountRange(0, math.MaxUint32); err != nil || n != len(keys)+len(ins) {
			t.Fatalf("CountRange of the key space = %d, %v; want %d", n, err, len(keys)+len(ins))
		}
	})
	for _, writers := range []int{2, 4} {
		t.Run(fmt.Sprintf("%d-writers", writers), func(t *testing.T) {
			rc, shutdown := startReplicated(t, keys, 3, 1, 256, DialOptions{})
			defer shutdown()
			last := rc.part.Parts[2]
			reader := dialAnother(t, rc, keys, 256)
			// invoked counts the keys of every InsertBatch call begun,
			// acked those of every call that returned.
			var invoked, acked atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := range writers {
				c := rc.c
				if w > 0 {
					c = dialAnother(t, rc, keys, 256)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := workload.NewRNG(uint64(100 + w))
					ins := make([]workload.Key, 8+w)
					for {
						select {
						case <-stop:
							return
						default:
						}
						for i := range ins {
							ins[i] = rng.Key() % last.Keys[0]
						}
						invoked.Add(int64(len(ins)))
						if err := c.InsertBatch(ins); err != nil {
							t.Error(err)
							return
						}
						acked.Add(int64(len(ins)))
					}
				}()
			}
			static := newTCPOracle(keys)
			qs := workload.UniformQueries(400, 48)
			for i := range qs {
				qs[i] = last.Keys[0] + qs[i]%(math.MaxUint32-last.Keys[0])
			}
			out := make([]int, len(qs))
			var bad error
			for call := 0; call < 100 && bad == nil; call++ {
				batch := qs
				if call%2 == 1 {
					batch = sortedCopy(qs)
				}
				lo := acked.Load()
				bad = reader.LookupBatchInto(batch, out)
				hi := invoked.Load()
				for i, q := range batch {
					if d := int64(out[i] - static.rank(q)); bad == nil && (d < lo || d > hi) {
						bad = fmt.Errorf("call %d: rank(%d) counts %d inserted keys, outside [%d, %d]", call, q, d, lo, hi)
					}
				}
			}
			// The writers stop before the nodes do.
			close(stop)
			wg.Wait()
			if bad != nil {
				t.Fatal(bad)
			}
			if acked.Load() == 0 {
				t.Fatal("no insert was acked while the reader ranked")
			}
		})
	}
}
