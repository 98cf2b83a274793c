package netrun

// Gray-failure drills: a replica that is *slow* — stalled, congested,
// or latency-spiked — rather than dead. TCP keeps the connection alive,
// so the crash-failover machinery never triggers; these tests verify
// the hedging, ejection, and retry-budget paths that handle it, with
// faultnet injecting the misbehavior deterministically.

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// BenchmarkTCPClusterGraySlowReplica is the slow-replica row: the 8x2
// replicated lookup benchmark with one replica answering 20ms late and a
// gray-aware client (hedging + ejection). The warmup loop runs until the
// slow replica is ejected, so the number is the steady gray state —
// reads shed from the outlier, the
// occasional paced probe the only residue of its presence.
func BenchmarkTCPClusterGraySlowReplica(b *testing.B) {
	keys := workload.SortedKeys(327680, 1)
	p, err := core.NewPartitioning(keys, 8)
	if err != nil {
		b.Fatal(err)
	}
	const replicas = 2
	var nodes []*Node
	var addrs []string
	var slowProf *faultnet.Profile
	var slowAddr string
	for i := 0; i < 8; i++ {
		for r := 0; r < replicas; r++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			node := NewPartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase)
			if i == 3 && r == 0 {
				slowProf = faultnet.NewProfile(uint64(i*replicas+r) + 1)
				slowAddr = lis.Addr().String()
				node.WrapConn = slowProf.Wrap
			}
			nodes = append(nodes, node)
			addrs = append(addrs, lis.Addr().String())
			go node.Serve(lis)
		}
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	setHedgeBudget(b, 1000, hedgeBurstMilli)
	setVar(b, &rejoinBackoff, 500*time.Millisecond)
	c, err := Dial(addrs, keys, DialOptions{
		BatchKeys: 16384,
		Replicas:  replicas,
		Hedging:   HedgeOptions{Quantile: 0.95},
		Ejection:  true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	slowProf.Set(faultnet.Faults{WriteLatency: 20 * time.Millisecond})

	queries := workload.UniformQueries(1<<18, 2)
	out := make([]int, len(queries))
	ejected := func() bool {
		for _, h := range c.Stats().Replicas {
			if h.Addr == slowAddr {
				return h.State == "ejected" || h.State == "probing"
			}
		}
		return false
	}
	for i := 0; i < 100 && !ejected(); i++ {
		if err := c.LookupBatchInto(queries, out); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(queries) * workload.KeyBytes))
	b.ReportAllocs()
	var hist telemetry.Histogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := c.LookupBatchInto(queries, out); err != nil {
			b.Fatal(err)
		}
		hist.Observe(time.Since(t0))
	}
	reportBenchLatency(b, &hist)
}

// grayCluster is a replicatedCluster whose every server node wraps its
// accepted connections in a seeded faultnet profile, addressable by
// [partition][replica] for targeted misbehavior.
type grayCluster struct {
	*replicatedCluster
	profiles [][]*faultnet.Profile
}

// startGray is startReplicated plus one fault profile per replica
// (installed via Node.WrapConn before the listener starts accepting).
// Profiles begin transparent; tests arm them with Set.
func startGray(t *testing.T, keys []workload.Key, parts, replicas, batch int, opt DialOptions) (*grayCluster, func()) {
	t.Helper()
	p, err := core.NewPartitioning(keys, parts)
	if err != nil {
		t.Fatal(err)
	}
	rc := &replicatedCluster{part: p, nodes: make([][]*Node, parts), addrs: make([][]string, parts)}
	gc := &grayCluster{replicatedCluster: rc, profiles: make([][]*faultnet.Profile, parts)}
	rc.wrap = func(i, r int) func(net.Conn) net.Conn { return gc.profiles[i][r].Wrap }
	var flat []string
	for i := 0; i < parts; i++ {
		for r := 0; r < replicas; r++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			node := NewPartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase)
			prof := faultnet.NewProfile(uint64(i*replicas+r) + 1)
			node.WrapConn = prof.Wrap
			rc.nodes[i] = append(rc.nodes[i], node)
			rc.addrs[i] = append(rc.addrs[i], lis.Addr().String())
			gc.profiles[i] = append(gc.profiles[i], prof)
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
	return gc, func() {
		rc.c.Close()
		for _, reps := range rc.nodes {
			for _, n := range reps {
				n.Close()
			}
		}
	}
}

// checkRanks verifies one batch of lookups against the sorted-array
// oracle.
// setHedgeBudget sets the hedge token bucket (earn per primary read
// dispatch and burst, in milli-tokens) for one test or benchmark, and
// restores the package defaults after it — and after the clusters its
// deferred shutdowns close, whose goroutines read them.
func setHedgeBudget(tb testing.TB, earn, burst int64) {
	setVar(tb, &hedgeEarnMilli, earn)
	setVar(tb, &hedgeBurstMilli, burst)
}

func checkRanks(t *testing.T, keys, queries []workload.Key, ranks []int) {
	t.Helper()
	for i, q := range queries {
		if want := workload.ReferenceRank(keys, q); ranks[i] != want {
			t.Fatalf("rank[%d] (query %d) = %d, want %d", i, q, ranks[i], want)
		}
	}
}

// The hedge clock alone, on a hand-built two-replica group with no
// sockets: one firing over replica 0's in-flight table hedges only the
// unanswered, unhedged read older than the delay, takes the hedge chain's
// reference, and re-arms for the read still ahead; a second firing moves
// nothing.
func TestHedgeClockHedgesOnlyOverdueReads(t *testing.T) {
	c := &Cluster{}
	g := &replicaGroup{budget: hedgeBurstMilli, admitCh: make(chan struct{}, 1)}
	var nodes [2]*clusterNode
	for i := range nodes {
		r := &replica{g: g, addr: fmt.Sprint("replica-", i), state: stHealthy}
		n := &clusterNode{r: r, version: ProtoVersion, pending: map[uint32]inflight{}}
		n.cond = sync.NewCond(&n.mu)
		n.hedgeT = time.AfterFunc(time.Hour, func() {})
		n.hedgeT.Stop()
		t.Cleanup(func() { n.hedgeT.Stop() })
		r.node = n
		g.replicas = append(g.replicas, r)
		nodes[i] = n
	}
	// The sibling's quantile makes the delay 500ms: a read sent a second
	// ago is overdue, one sent now is not.
	nodes[1].r.hedgeNs.Store(int64(500 * time.Millisecond))

	now := time.Now()
	reg := func(id uint32, op uint8, sentAt time.Time, hedged bool) *pending {
		p := &pending{op: op}
		p.refs.Store(1)
		p.hedged.Store(hedged)
		nodes[0].mu.Lock()
		nodes[0].pending[id] = inflight{p: p, sentAt: sentAt}
		nodes[0].mu.Unlock()
		return p
	}
	old := reg(1, OpLookup, now.Add(-time.Second), false)
	reg(2, OpLookup, now, false)
	reg(3, OpInsert, now.Add(-time.Second), false)
	reg(4, OpLookup, now.Add(-time.Second), true)

	check := func(firing int) {
		t.Helper()
		nodes[1].mu.Lock()
		queued := slices.Clone(nodes[1].sendq[nodes[1].sendHead:])
		nodes[1].mu.Unlock()
		if len(queued) != 1 || queued[0].p != old || !old.hedged.Load() || old.refs.Load() != 2 {
			t.Fatalf("firing %d: sibling queue %v, want only the old lookup, hedged, with the hedge's reference", firing, queued)
		}
		if h := nodes[0].r.hedges.Load(); h != 1 {
			t.Fatalf("firing %d: replica 0 counts %d hedges, want 1", firing, h)
		}
		nodes[0].mu.Lock()
		armed := nodes[0].hedgeArmed
		nodes[0].mu.Unlock()
		if !armed {
			t.Fatalf("firing %d: the clock went idle with the fresh lookup still ahead", firing)
		}
	}
	nodes[0].hedgeDue(c)
	check(1)
	nodes[0].hedgeDue(c)
	check(2)
}

// A replica that accepts frames but never replies (its very first reply
// write stalls; the hello ack is the connection's write #1, so
// StallAfterWrites=2 passes the handshake and stalls everything after).
// Hedged reads must rescue every affected frame and the answers must
// match the oracle bit-for-bit — the hedge re-sends the same request
// words, so a rescued lookup is indistinguishable from a healthy one.
func TestTCPHedgedReadStalledReplicaMatchesOracle(t *testing.T) {
	keys := workload.SortedKeys(8000, 71)
	// A generous budget: this test is about rescue, not rationing.
	setHedgeBudget(t, 1000, 64000)
	gc, shutdown := startGray(t, keys, 4, 2, 256, DialOptions{
		Hedging: HedgeOptions{Quantile: 0.9},
	})
	defer shutdown()

	gc.profiles[0][0].Set(faultnet.Faults{StallAfterWrites: 2})

	queries := workload.UniformQueries(1024, 72)
	for round := 0; round < 8; round++ {
		ranks, err := gc.c.LookupBatch(queries)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkRanks(t, keys, queries, ranks)
	}
	if err := gc.c.Err(); err != nil {
		t.Fatalf("cluster error after stalled-replica rounds: %v", err)
	}
	var hedges, failures uint64
	for _, h := range gc.c.Stats().Replicas {
		hedges += h.Hedges
		failures += h.Failures
	}
	if hedges == 0 {
		t.Fatal("no hedges fired against a replica that never replies")
	}
	if failures != 0 {
		t.Fatalf("hedging should rescue without connection failovers, got %d failures", failures)
	}
}

// A replica that answers every read 30ms late walks the probation
// ladder: healthy -> suspect -> ejected, probed on a backoff cadence,
// and readmitted once the latency fault is lifted. Every lookup along
// the way must still be correct — ejection sheds load, never answers.
func TestTCPEjectProbeReadmit(t *testing.T) {
	keys := workload.SortedKeys(4000, 73)
	setVar(t, &rejoinBackoff, 20*time.Millisecond)
	setVar(t, &rejoinMaxBackoff, 100*time.Millisecond)
	gc, shutdown := startGray(t, keys, 1, 2, 128, DialOptions{Ejection: true})
	defer shutdown()

	gc.profiles[0][1].Set(faultnet.Faults{WriteLatency: 30 * time.Millisecond})

	queries := workload.UniformQueries(128, 74)
	lookup := func() {
		t.Helper()
		ranks, err := gc.c.LookupBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		checkRanks(t, keys, queries, ranks)
	}

	deadline := time.Now().Add(10 * time.Second)
	for gc.health(t, 0, 1).State != "ejected" {
		if time.Now().After(deadline) {
			t.Fatalf("replica never ejected; health = %+v", gc.health(t, 0, 1))
		}
		lookup()
	}

	gc.profiles[0][1].Disable()
	for {
		h := gc.health(t, 0, 1)
		if h.State == "healthy" && h.Readmits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never readmitted; health = %+v", h)
		}
		lookup()
		time.Sleep(5 * time.Millisecond)
	}

	h := gc.health(t, 0, 1)
	if h.Ejections < 1 || h.Probes < 1 || h.Readmits < 1 {
		t.Fatalf("probation counters: %+v", h)
	}
	if h.Failures != 0 {
		t.Fatalf("latency ejection must not tear down connections, got %d failures", h.Failures)
	}
	// The readmitted replica serves again: its dispatch counter moves.
	before := gc.health(t, 0, 1).Dispatched
	for i := 0; i < 4; i++ {
		lookup()
	}
	if gc.health(t, 0, 1).Dispatched == before {
		t.Fatal("readmitted replica received no reads")
	}
}

// The stalled replica is killed while hedged reads are mid-flight: the
// hedge path (claim by the sibling's reply) races the failover sweep
// (re-route or release of every registration on the dead connection).
// Whatever interleaving occurs, every lookup answers correctly and the
// cluster stays healthy — exactly-one-resolver is the invariant.
func TestTCPHedgeVsFailoverRace(t *testing.T) {
	keys := workload.SortedKeys(6000, 75)
	setHedgeBudget(t, 1000, 64000)
	gc, shutdown := startGray(t, keys, 2, 2, 128, DialOptions{
		Hedging: HedgeOptions{Quantile: 0.9},
	})
	defer shutdown()

	gc.profiles[0][0].Set(faultnet.Faults{StallAfterWrites: 2})

	queries := workload.UniformQueries(512, 76)
	for round := 0; round < 12; round++ {
		if round == 4 {
			// Mid-run, with stalled registrations pending and hedges
			// armed, the gray replica dies outright.
			gc.kill(0, 0)
		}
		ranks, err := gc.c.LookupBatch(queries)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkRanks(t, keys, queries, ranks)
	}
	if err := gc.c.Err(); err != nil {
		t.Fatalf("cluster error: %v", err)
	}
}

// With replenishment off (hedgeEarnMilli 0) the burst is the whole
// allowance: hedges stop at hedgeBurstMilli and the hedge clock records denials
// instead of exceeding it. Reads still finish — the op timeout fails
// the stalled connection over to the sibling — so exhaustion degrades
// latency, never correctness.
func TestTCPRetryBudgetExhaustion(t *testing.T) {
	keys := workload.SortedKeys(4000, 77)
	// Nothing earned: the initial burst of four tokens is all there is.
	setHedgeBudget(t, 0, 4000)
	gc, shutdown := startGray(t, keys, 1, 2, 128, DialOptions{
		Hedging:   HedgeOptions{Quantile: 0.9},
		OpTimeout: 300 * time.Millisecond,
	})
	defer shutdown()

	gc.profiles[0][0].Set(faultnet.Faults{StallAfterWrites: 2})

	queries := workload.UniformQueries(256, 78)
	for round := 0; round < 24; round++ {
		ranks, err := gc.c.LookupBatch(queries)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkRanks(t, keys, queries, ranks)
	}
	var hedges, denied uint64
	for _, h := range gc.c.Stats().Replicas {
		hedges += h.Hedges
		denied += h.BudgetDenied
	}
	if hedges > 4 {
		t.Fatalf("hedges = %d, exceeds the burst allowance of 4", hedges)
	}
	if denied == 0 {
		t.Fatal("budget never denied a hedge despite a permanently stalled replica")
	}
}

// The acceptance drill: an 8x2 cluster with one replica ~100x slower
// than loopback. A gray-aware client (hedging + ejection) must beat a
// plain client by >= 5x read throughput over identical wall-clock
// windows, with zero wrong answers, zero connection failovers, and
// hedge spend provably inside the token budget.
func TestTCPGrayFailureThroughputWin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second throughput comparison")
	}
	keys := workload.SortedKeys(16384, 79)
	queries := workload.UniformQueries(4096, 80)
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = workload.ReferenceRank(keys, q)
	}

	const slowPart, slowReplica = 3, 0
	const window = 1500 * time.Millisecond

	// measure runs lookup rounds for one wall-clock window against a
	// fresh gray cluster whose [slowPart][slowReplica] answers 100ms
	// late (~100x a loopback reply), verifying every round, and reports
	// rounds completed.
	measure := func(opt DialOptions) (rounds int, health []ReplicaHealth, err error) {
		gc, shutdown := startGray(t, keys, 8, 2, 256, opt)
		defer shutdown()
		gc.profiles[slowPart][slowReplica].Set(faultnet.Faults{WriteLatency: 100 * time.Millisecond})
		out := make([]int, len(queries))
		deadline := time.Now().Add(window)
		for time.Now().Before(deadline) {
			if err := gc.c.LookupBatchInto(queries, out); err != nil {
				return rounds, nil, err
			}
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("round %d: rank[%d] = %d, want %d", rounds, i, out[i], want[i])
				}
			}
			rounds++
		}
		return rounds, gc.c.Stats().Replicas, gc.c.Err()
	}

	plain, _, err := measure(DialOptions{})
	if err != nil {
		t.Fatalf("plain client: %v", err)
	}
	// One token earned per read: a fully-gray replica needs every read
	// hedged until ejection sheds it, and the ejector's signal — six
	// consecutive outlier replies — drains off the slow connection at
	// only 1/latency per second, so the default trickle budget (0.1)
	// would run dry first. The budget *cap* is still enforced and
	// counter-verified below; exhaustion behavior has its own test.
	setHedgeBudget(t, 1000, hedgeBurstMilli)
	setVar(t, &rejoinBackoff, 300*time.Millisecond)
	hedged, health, err := measure(DialOptions{
		Hedging:  HedgeOptions{Quantile: 0.95},
		Ejection: true,
	})
	if err != nil {
		t.Fatalf("hedged client: %v", err)
	}

	if plain == 0 {
		t.Fatal("plain client completed no rounds")
	}
	t.Logf("plain %d rounds, hedged %d rounds over %v", plain, hedged, window)
	if hedged < 5*plain {
		t.Fatalf("hedged/ejecting client did %d rounds vs plain %d: below the 5x floor", hedged, plain)
	}

	// Gray handling must not have escalated to connection failovers.
	perPart := map[int]struct{ disp, hedges uint64 }{}
	for _, h := range health {
		if h.Failures != 0 || h.Rejoins != 0 {
			t.Fatalf("replica %s: %d failures / %d rejoins under a latency-only fault", h.Addr, h.Failures, h.Rejoins)
		}
		agg := perPart[h.Partition]
		agg.disp += h.Dispatched
		agg.hedges += h.Hedges
		perPart[h.Partition] = agg
	}
	// Counter-verified budget bound, per partition: every hedge spends a
	// whole token, each primary read dispatch earns one (hedgeEarnMilli),
	// and the bucket starts at (and is capped by) the default 16-token
	// burst. Dispatched counts hedge re-dispatches too, so primaries =
	// dispatched - hedges.
	for part, agg := range perPart {
		bound := 1.0*float64(agg.disp-agg.hedges) + 16
		if float64(agg.hedges) > bound {
			t.Fatalf("partition %d: %d hedges exceeds budget bound %.1f (dispatched %d)",
				part, agg.hedges, bound, agg.disp)
		}
	}
}
