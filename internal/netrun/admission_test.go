package netrun

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/workload"
)

// outstanding is what the admission cap bounds: frames queued for, or in
// flight on, one connection.
func outstanding(n *clusterNode) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.sendq) - n.sendHead + len(n.pending)
}

// TestAdmissionCapParksReads drives a 1x2 group into the admission cap:
// both replicas accept frames and never answer, so reads fill every
// slot. From there on reads must park instead of queueing, overdue
// frames must not be hedged onto the (equally full) sibling, and a
// write must still go straight out — the cap is for reads. When the
// stall lifts every read completes with the oracle's answer.
func TestAdmissionCapParksReads(t *testing.T) {
	const limit, readers = 4, 20
	setVar(t, &maxPending, limit)

	keys := workload.SortedKeys(4000, 93)
	// No replenishment: whatever the bucket is short of its burst was
	// spent on hedge attempts.
	setHedgeBudget(t, 0, 64000)
	gc, shutdown := startGray(t, keys, 1, 2, 256, DialOptions{
		Hedging: HedgeOptions{Quantile: 0.9},
	})
	defer shutdown()
	for _, p := range gc.profiles[0] {
		p.Set(faultnet.Faults{StallAfterWrites: 2}) // the hello ack was write 1
	}

	// Reads stay below every key the write below adds, so their ranks do
	// not depend on which side of the write a replica serves them.
	var qs []workload.Key
	for _, q := range workload.UniformQueries(256, 94) {
		if q < 1<<31 {
			qs = append(qs, q)
		}
	}
	var done atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ranks, err := gc.c.LookupBatch(qs[:64])
			if err != nil {
				t.Error(err)
				return
			}
			for i, q := range qs[:64] {
				if want := workload.ReferenceRank(keys, q); ranks[i] != want {
					t.Errorf("rank(%d) = %d, want %d", q, ranks[i], want)
					return
				}
			}
			done.Add(1)
		}()
	}

	g := gc.c.ep.Load().groups[0]
	nodes := g.nodes()
	// Every slot fills, the other readers park, and for well over the
	// hedge delay nothing grows past the cap.
	full := func() bool { return outstanding(nodes[0]) == limit && outstanding(nodes[1]) == limit }
	for deadline := time.Now().Add(10 * time.Second); !full() || g.waiters.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never reached the cap with readers parked: outstanding %d/%d, waiters %d",
				outstanding(nodes[0]), outstanding(nodes[1]), g.waiters.Load())
		}
	}
	for end := time.Now().Add(20 * hedgeMinDelay); time.Now().Before(end); time.Sleep(time.Millisecond) {
		for i, n := range nodes {
			if got := outstanding(n); got > limit {
				t.Fatalf("replica %d has %d frames outstanding, cap is %d", i, got, limit)
			}
		}
	}
	if got := done.Load(); got != 0 {
		t.Fatalf("%d reads completed against replicas that never answer", got)
	}
	var dispatched, hedges uint64
	for _, h := range gc.c.Stats().Replicas {
		dispatched += h.Dispatched
		hedges += h.Hedges
	}
	g.mu.Lock()
	spent := hedgeBurstMilli - g.budget
	g.mu.Unlock()
	// Every hedge attempt pays its token before it looks for room, so
	// tokens spent beyond the hedges that landed (any that did found a
	// free slot while the queues were still filling) are attempts the cap
	// turned away.
	if dispatched != 2*limit || uint64(spent/1000) <= hedges {
		t.Fatalf("at the cap: %d frames dispatched (want %d); %d hedge tokens spent, %d hedges landed (want some attempt turned away)",
			dispatched, 2*limit, spent/1000, hedges)
	}

	// A write is not admission-controlled: its frames join both queues.
	ins := []workload.Key{1<<32 - 1, 1<<32 - 2, 1<<32 - 3}
	insErr := make(chan error, 1)
	go func() { insErr <- gc.c.InsertBatch(ins) }()
	for deadline := time.Now().Add(10 * time.Second); outstanding(nodes[0]) != limit+1 || outstanding(nodes[1]) != limit+1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the insert did not pass the cap: outstanding %d/%d, want %d on both", outstanding(nodes[0]), outstanding(nodes[1]), limit+1)
		}
	}

	for _, p := range gc.profiles[0] {
		p.Disable()
	}
	wg.Wait()
	if err := <-insErr; err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	if got := done.Load(); got != readers {
		t.Fatalf("%d of %d reads completed after the stall lifted", got, readers)
	}
	o := newTCPOracle(keys)
	o.insert(ins)
	checkTCPExact(t, gc.c, o, workload.UniformQueries(500, 95))
}
