package netrun

import (
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/workload"
)

var (
	stateNames = [numStates]string{"down", "syncing", "healthy", "suspect", "ejected", "probing", "drained"}
	eventNames = [numEvents]string{"dial", "rejoin", "catch-up", "loaded", "slow", "fast", "eject", "probe", "probe-slow", "readmit", "fail", "drain"}
	countNames = [numLifeCounters]string{"—", "failures", "rejoins", "ejections", "probes", "readmits"}
)

// lifeRig is a 1x3 gray cluster with one record under test — partition
// 0, replica 1 — and the real triggers that move it: kill, restart,
// writes, a slow or stalled link, drain. Lookups are one frame each and
// go out one at a time, so a lookup moves the record by at most one
// reply.
type lifeRig struct {
	t *testing.T
	*grayCluster
	o  *tcpOracle
	qs []workload.Key
	r  *replica
}

func newLifeRig(t *testing.T) *lifeRig {
	keys := workload.SortedKeys(3000, 91)
	gc, shutdown := startGray(t, keys, 1, 3, 256, DialOptions{
		OpTimeout: 5 * time.Second,
		Rejoin:    RejoinOptions{Backoff: 20 * time.Millisecond, MaxBackoff: 40 * time.Millisecond},
		Ejection:  true,
	})
	t.Cleanup(shutdown)
	l := &lifeRig{t: t, grayCluster: gc, o: newTCPOracle(keys), qs: workload.UniformQueries(64, 92)}
	l.r = l.record(gc.addrs[0][1])
	return l
}

// record finds the live record for addr, nil when the group lists none.
func (l *lifeRig) record(addr string) *replica {
	g := l.c.ep.Load().groups[0]
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.replicas {
		if r.addr == addr {
			return r
		}
	}
	return nil
}

func (l *lifeRig) state() lifeState {
	l.r.g.mu.Lock()
	defer l.r.g.mu.Unlock()
	return l.r.state
}

func (l *lifeRig) counters() (out [numLifeCounters]uint64) {
	for i := range out {
		out[i] = l.r.life[i].Load()
	}
	return out
}

// lookup sends one frame of reads and holds the answer to the oracle.
func (l *lifeRig) lookup() {
	l.t.Helper()
	out := make([]int, len(l.qs))
	if err := l.c.LookupBatchInto(l.qs, out); err != nil {
		l.t.Fatal(err)
	}
	for i, q := range l.qs {
		if want := l.o.rank(q); out[i] != want {
			l.t.Fatalf("rank(%d) = %d, want %d", q, out[i], want)
		}
	}
}

// until drives the cluster with step until the record reaches want.
func (l *lifeRig) until(want lifeState, step func()) {
	l.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for l.state() != want {
		if time.Now().After(deadline) {
			l.t.Fatalf("record never reached %s; it is %s", stateNames[want], stateNames[l.state()])
		}
		step()
	}
}

func (l *lifeRig) slow(d time.Duration) {
	l.profiles[0][1].Set(faultnet.Faults{WriteLatency: d})
}

func (l *lifeRig) write() {
	l.t.Helper()
	batch := []workload.Key{11, 22, 33}
	if err := l.c.InsertBatch(batch); err != nil {
		l.t.Fatal(err)
	}
	l.o.insert(batch)
}

// restart serves the replica again, behind its fault profile.
func (l *lifeRig) restart() { l.grayCluster.restart(l.t, 0, 1) }

func (l *lifeRig) drain() error { return l.c.DrainReplica(0, l.addrs[0][1]) }

func (l *lifeRig) goDown() {
	l.kill(0, 1)
	l.until(stDown, l.lookup)
}

// holdSyncing parks the record in syncing: the partition absorbs a
// write, the replica restarts behind a link that stalls at its second
// write — the hello ack passes, the catch-up load's ack does not.
func (l *lifeRig) holdSyncing() {
	l.write()
	l.goDown()
	l.profiles[0][1].Set(faultnet.Faults{StallAfterWrites: 2})
	l.restart()
	l.until(stSyncing, func() { time.Sleep(time.Millisecond) })
}

func (l *lifeRig) goSuspect() {
	l.slow(30 * time.Millisecond)
	l.until(stSuspect, l.lookup)
}

func (l *lifeRig) goEjected() {
	l.goSuspect()
	l.until(stEjected, l.lookup)
}

// goProbing parks the record in probing: the link heals, one probe comes
// back fast, and the second has not been claimed yet.
func (l *lifeRig) goProbing() {
	l.goEjected()
	l.profiles[0][1].Disable()
	l.until(stProbing, l.lookup)
}

// probeInFlight makes the link very slow, then sends lookups from the
// side until the record has claimed one more probe, whose reply is still
// out when it returns. The returned func waits the lookups out.
func (l *lifeRig) probeInFlight() (wait func()) {
	l.slow(400 * time.Millisecond)
	before := l.r.life[cProbes].Load()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				out := make([]int, len(l.qs))
				l.c.LookupBatchInto(l.qs, out)
			}
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); l.r.life[cProbes].Load() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			l.t.Fatal("no probe was claimed")
		}
	}
	close(stop)
	return wg.Wait
}

// TestLifecycleTable walks the replica lifecycle table two ways: the
// transition function against the table itself (every legal edge moves
// and counts as declared, everything else is refused and changes
// nothing), and every legal edge driven by its real trigger on a live
// cluster, checked against the record, its counters and its Stats row.
func TestLifecycleTable(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		for from := lifeState(0); from < numStates; from++ {
			for ev := lifeEvent(0); ev < numEvents; ev++ {
				g := &replicaGroup{}
				r := &replica{g: g, state: from}
				e := lifecycle[from][ev]
				g.mu.Lock()
				moved := g.transition(r, ev)
				g.mu.Unlock()
				want, total := from, uint64(0)
				if e.ok {
					want = e.to
					if e.count != cNone {
						total = 1
					}
				} else if e != (edge{}) {
					t.Errorf("%s --%s-->: a refused edge carries data %+v", stateNames[from], eventNames[ev], e)
				}
				var got uint64
				for i := range r.life {
					got += r.life[i].Load()
				}
				if moved != e.ok || r.state != want || got != total || r.life[e.count].Load() != total {
					t.Errorf("%s --%s-->: moved=%v state=%s counters=%d, want moved=%v state=%s counters=%d on %s",
						stateNames[from], eventNames[ev], moved, stateNames[r.state], got, e.ok, stateNames[want], total, countNames[e.count])
				}
			}
		}
		if got := lifecycle[stDrained]; got != ([numEvents]edge{}) {
			t.Errorf("drained is terminal, yet the table moves it: %+v", got)
		}
	})

	type drill struct {
		from    lifeState
		ev      lifeEvent
		reach   func(*lifeRig)               // bring the record to from
		trigger func(*lifeRig) (wait func()) // make ev happen, return once it has
	}
	moveTo := func(to lifeState) func(*lifeRig) func() {
		return func(l *lifeRig) func() { l.until(to, l.lookup); return nil }
	}
	kill := func(l *lifeRig) func() { l.goDown(); return nil }
	drain := func(l *lifeRig) func() {
		if err := l.drain(); err != nil {
			l.t.Fatalf("DrainReplica: %v", err)
		}
		return nil
	}
	healthy := func(*lifeRig) {}
	drills := []drill{
		{stDown, evRejoin, (*lifeRig).goDown, func(l *lifeRig) func() { l.restart(); l.until(stHealthy, l.lookup); return nil }},
		{stDown, evCatchUp, func(l *lifeRig) { l.write(); l.goDown() }, func(l *lifeRig) func() {
			l.profiles[0][1].Set(faultnet.Faults{StallAfterWrites: 2})
			l.restart()
			l.until(stSyncing, func() { time.Sleep(time.Millisecond) })
			return nil
		}},
		{stDown, evDrain, (*lifeRig).goDown, drain},
		{stSyncing, evLoaded, (*lifeRig).holdSyncing, func(l *lifeRig) func() {
			l.profiles[0][1].Disable()
			l.until(stHealthy, l.lookup)
			return nil
		}},
		{stSyncing, evFail, (*lifeRig).holdSyncing, kill},
		{stSyncing, evDrain, (*lifeRig).holdSyncing, func(l *lifeRig) func() {
			// The drain frame queues behind the stalled load: the record
			// is off the list at once, the verb returns when the link heals.
			errc := make(chan error, 1)
			go func() { errc <- l.drain() }()
			l.until(stDrained, func() { time.Sleep(time.Millisecond) })
			return func() {
				l.profiles[0][1].Disable()
				if err := <-errc; err != nil {
					l.t.Errorf("DrainReplica of a syncing replica: %v", err)
				}
			}
		}},
		{stHealthy, evSlow, healthy, func(l *lifeRig) func() { l.goSuspect(); return nil }},
		{stHealthy, evFail, healthy, kill},
		{stHealthy, evDrain, healthy, drain},
		{stSuspect, evFast, (*lifeRig).goSuspect, func(l *lifeRig) func() {
			l.profiles[0][1].Disable()
			l.until(stHealthy, l.lookup)
			return nil
		}},
		{stSuspect, evEject, (*lifeRig).goSuspect, moveTo(stEjected)},
		{stSuspect, evFail, (*lifeRig).goSuspect, kill},
		{stSuspect, evDrain, (*lifeRig).goSuspect, drain},
		{stEjected, evProbe, (*lifeRig).goEjected, (*lifeRig).probeInFlight},
		{stEjected, evFail, (*lifeRig).goEjected, kill},
		{stEjected, evDrain, (*lifeRig).goEjected, drain},
		{stProbing, evProbe, (*lifeRig).goProbing, (*lifeRig).probeInFlight},
		{stProbing, evProbeSlow, (*lifeRig).goProbing, func(l *lifeRig) func() {
			l.slow(30 * time.Millisecond)
			l.until(stEjected, l.lookup)
			return nil
		}},
		{stProbing, evReadmit, (*lifeRig).goProbing, moveTo(stHealthy)},
		{stProbing, evFail, (*lifeRig).goProbing, kill},
		{stProbing, evDrain, (*lifeRig).goProbing, drain},
	}

	// The first edge of every record, down --dial--> healthy, has two
	// triggers and no "before": the epoch's own dial and AddReplica on a
	// pristine partition.
	t.Run("down/dial", func(t *testing.T) {
		l := newLifeRig(t)
		l.checkRow(l.addrs[0][1], stHealthy)
		joinAddr, stopJoin := startJoinNode(t, l.part.Parts[0].Keys)
		defer stopJoin()
		if err := l.c.AddReplica(0, joinAddr); err != nil {
			t.Fatal(err)
		}
		for _, r := range []*replica{l.r, l.record(joinAddr)} {
			l.r = r
			if got := l.counters(); l.state() != stHealthy || got != ([numLifeCounters]uint64{}) {
				t.Errorf("%s after its dial: state %s counters %v, want healthy and none", r.addr, stateNames[l.state()], got)
			}
		}
		l.checkRow(joinAddr, stHealthy)
	})

	drilled := map[[2]uint8]bool{{uint8(stDown), uint8(evDial)}: true}
	for _, d := range drills {
		e := lifecycle[d.from][d.ev]
		drilled[[2]uint8{uint8(d.from), uint8(d.ev)}] = true
		t.Run(stateNames[d.from]+"/"+eventNames[d.ev], func(t *testing.T) {
			if !e.ok {
				t.Fatal("drill for an edge the table does not have")
			}
			l := newLifeRig(t)
			d.reach(l)
			if got := l.state(); got != d.from {
				t.Fatalf("reach left the record %s, want %s", stateNames[got], stateNames[d.from])
			}
			before := l.counters()
			wait := d.trigger(l)
			got, after := l.state(), l.counters()
			if got != e.to {
				t.Errorf("landed in %s, want %s", stateNames[got], stateNames[e.to])
			}
			if e.count != cNone && after[e.count] != before[e.count]+1 {
				t.Errorf("%s went %d -> %d, want +1", countNames[e.count], before[e.count], after[e.count])
			}
			if e.to == stDown {
				// Probation belongs to the connection that left: the next
				// one must not inherit an outlier streak or a probe backoff.
				l.r.g.mu.Lock()
				if r := l.r; r.consecBad != 0 || r.goodProbes != 0 || r.probeDelay != 0 || !r.nextProbe.IsZero() {
					t.Errorf("down record keeps probation state: consecBad=%d goodProbes=%d probeDelay=%v nextProbe=%v", r.consecBad, r.goodProbes, r.probeDelay, r.nextProbe)
				}
				l.r.g.mu.Unlock()
			}
			l.checkRow(l.addrs[0][1], e.to)
			if wait != nil {
				wait()
			}
			// Whatever happened to the record, the group still answers.
			l.profiles[0][1].Disable()
			l.lookup()
		})
	}
	for from := range lifecycle {
		for ev, e := range lifecycle[from] {
			if e.ok && !drilled[[2]uint8{uint8(from), uint8(ev)}] {
				t.Errorf("legal edge %s --%s--> %s has no real-trigger drill", stateNames[from], eventNames[ev], stateNames[e.to])
			}
		}
	}

}

// checkRow holds addr's Stats row to what state means for an operator:
// a drained replica has no row; a down one is not Healthy and reports
// protocol 0; a syncing one is Healthy and Syncing; State names the
// probation states and reads "healthy" otherwise.
func (l *lifeRig) checkRow(addr string, state lifeState) {
	l.t.Helper()
	var row *ReplicaHealth
	for _, h := range l.c.Stats().Replicas {
		if h.Addr == addr {
			row = &h
		}
	}
	if state == stDrained {
		if row != nil {
			l.t.Errorf("drained replica still has a Stats row: %+v", *row)
		}
		return
	}
	if row == nil {
		l.t.Fatalf("no Stats row for %s", addr)
	}
	want := ReplicaHealth{State: "healthy", Healthy: state != stDown, Syncing: state == stSyncing}
	if want.Healthy {
		want.Proto = ProtoVersion
	}
	if state == stSuspect || state == stEjected || state == stProbing {
		want.State = stateNames[state]
	}
	if row.Healthy != want.Healthy || row.Syncing != want.Syncing || row.State != want.State || row.Proto != want.Proto {
		l.t.Errorf("Stats row in %s: Healthy=%v Syncing=%v State=%q Proto=%d, want %v %v %q %d", stateNames[state],
			row.Healthy, row.Syncing, row.State, row.Proto, want.Healthy, want.Syncing, want.State, want.Proto)
	}
}
