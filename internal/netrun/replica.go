package netrun

// The replica lifecycle. A replica group holds one record per configured
// address; a record holds one lifecycle state; and one function —
// replicaGroup.transition, reading the lifecycle table below — is the
// only writer of that state and the only place the lifecycle counters
// move. Whoever asks "what may this replica do right now" (serve a read,
// take a write, source a snapshot) asks replica.can. A connection enters
// its group through Cluster.admit and leaves it through Cluster.depart.
// Which eligible replica serves a given read is the read policy's
// business (hedge.go), not this file's.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// lifeState is a replica's lifecycle state.
type lifeState uint8

const (
	// stDown: no connection — not yet dialed, or failed and waiting on
	// its rejoin loop.
	stDown lifeState = iota
	// stSyncing: connected and catching up. Write fan-outs reach it
	// through its hold queue; it serves nothing until a sibling's
	// snapshot has loaded.
	stSyncing
	// stHealthy and stSuspect serve everything. Suspect is operator
	// signal: suspectAfter consecutive replies were latency outliers.
	stHealthy
	stSuspect
	// stEjected: a sustained latency outlier. Reads are shed, writes keep
	// flowing — slow is not dead. stProbing is ejected with a paced probe
	// batch claimed; readmitProbes fast ones readmit it.
	stEjected
	stProbing
	// stDrained: deconfigured by DrainReplica. Terminal; the record has
	// left its group's list.
	stDrained
	numStates
)

// lifeEvent is something that happened to a replica; the lifecycle table
// says what it does to each state.
type lifeEvent uint8

const (
	evDial      lifeEvent = iota // first connection to a pristine partition: the epoch's dial, AddReplica
	evRejoin                     // a failed replica re-dialed, partition still pristine
	evCatchUp                    // connected to a written-to partition: writes held, snapshot requested
	evLoaded                     // the catch-up load was acked
	evSlow                       // suspectAfter consecutive outlier replies
	evFast                       // a reply that is no outlier
	evEject                      // ejectAfter consecutive outliers, and a sibling can absorb the reads
	evProbe                      // target choice claimed a due probe slot
	evProbeSlow                  // a probe came back an outlier
	evReadmit                    // readmitProbes probes came back fast
	evFail                       // I/O error, op timeout, protocol violation, or the epoch ended
	evDrain                      // DrainReplica deconfigured the address
	numEvents
)

// lifeCounter indexes the lifecycle counters ReplicaHealth reports.
type lifeCounter uint8

const (
	cNone lifeCounter = iota
	cFailures
	cRejoins
	cEjections
	cProbes
	cReadmits
	numLifeCounters
)

// edge is one legal move: the state it lands in and the counter it bumps.
type edge struct {
	to    lifeState
	count lifeCounter
	ok    bool
}

// lifecycle is every legal move, state × event. An event offered in a
// state with no entry is refused and changes nothing — a late reply
// scoring a connection that has since failed, a rejoin racing a drain.
// README "Replication & failover" renders this table;
// TestLifecycleTable walks it.
var lifecycle = [numStates][numEvents]edge{
	stDown: {
		evDial:    {stHealthy, cNone, true},
		evRejoin:  {stHealthy, cRejoins, true},
		evCatchUp: {stSyncing, cNone, true},
		evDrain:   {stDrained, cNone, true},
	},
	stSyncing: {
		evLoaded: {stHealthy, cRejoins, true},
		evFail:   {stDown, cFailures, true},
		evDrain:  {stDrained, cNone, true},
	},
	stHealthy: {
		evSlow:  {stSuspect, cNone, true},
		evFail:  {stDown, cFailures, true},
		evDrain: {stDrained, cNone, true},
	},
	stSuspect: {
		evFast:  {stHealthy, cNone, true},
		evEject: {stEjected, cEjections, true},
		evFail:  {stDown, cFailures, true},
		evDrain: {stDrained, cNone, true},
	},
	stEjected: {
		evProbe: {stProbing, cProbes, true},
		evFail:  {stDown, cFailures, true},
		evDrain: {stDrained, cNone, true},
	},
	stProbing: {
		// A second probe can be claimed while the first is still out (it
		// outlived the probe backoff), or right after one fast reply.
		evProbe:     {stProbing, cProbes, true},
		evProbeSlow: {stEjected, cNone, true},
		evReadmit:   {stHealthy, cReadmits, true},
		evFail:      {stDown, cFailures, true},
		evDrain:     {stDrained, cNone, true},
	},
}

// use is what a caller wants from a replica.
type use uint8

const (
	useRead  use = 1 << iota // serve a read as a first choice
	useFull                  // holds the partition's full state: sources a snapshot, vouches for an acked write, serves a read when nothing better exists
	useWrite                 // receives every write fanned out to the group
)

// stateCan is what each state permits. Down and drained permit nothing.
var stateCan = [numStates]use{
	stSyncing: useWrite,
	stHealthy: useWrite | useFull | useRead,
	stSuspect: useWrite | useFull | useRead,
	stEjected: useWrite | useFull,
	stProbing: useWrite | useFull,
}

// healthName is the ReplicaHealth.State string per state: the probation
// view. Liveness is reported beside it (Healthy, Syncing), so every
// state outside probation reads "healthy".
var healthName = [numStates]string{
	stDown: "healthy", stSyncing: "healthy", stHealthy: "healthy", stSuspect: "suspect",
	stEjected: "ejected", stProbing: "probing", stDrained: "healthy",
}

// replica is one configured replica address for the length of an epoch:
// its lifecycle state, its current connection if it has one, its
// counters and its latency score. The record outlives connections — a
// rejoin installs a fresh clusterNode into the same record — and is
// created by dialEpoch or AddReplica and dropped from its group's list
// by DrainReplica.
type replica struct {
	g    *replicaGroup
	addr string

	// state is written by replicaGroup.transition and nowhere else.
	state lifeState //dc:guardedby g.mu
	// node is the current connection: set by admit, cleared by depart,
	// non-nil in exactly the states that permit useWrite.
	node *clusterNode //dc:guardedby g.mu
	// held queues the write fan-outs that reach a syncing replica; they
	// are flushed onto the connection behind the catch-up load, so the
	// load cannot wipe them.
	held []*pending //dc:guardedby g.mu

	// life is the lifecycle counters, bumped by transition as the table
	// directs.
	life         [numLifeCounters]atomic.Uint64
	dispatched   atomic.Uint64
	hedges       atomic.Uint64 // hedges dispatched because this replica lagged
	budgetDenied atomic.Uint64 // hedges suppressed by an empty token bucket
	// forceFull demands a full-snapshot catch-up on the next admission.
	// Set when a delta catch-up was refused (the histories diverged —
	// e.g. the replica durably logged writes this client never saw
	// acked); sticky until a catch-up of any kind succeeds. A catch-up
	// cannot switch from delta to full mid-admission — the hold queue and
	// a later snapshot cut would double-apply writes — so the whole
	// admission is retried.
	forceFull atomic.Bool

	// ewmaNs and hedgeNs are the latency score the connection's read loop
	// publishes (see observe): the smoothed reply latency behind the
	// outlier test and the windowed quantile behind the hedge delay.
	ewmaNs  atomic.Int64
	hedgeNs atomic.Int64

	// consecBad/goodProbes are the probation hysteresis; probeDelay/
	// nextProbe pace probe batches with the same jittered exponential
	// backoff the rejoin loop uses, so probation retries cannot
	// thundering-herd a recovering replica.
	consecBad  int           //dc:guardedby g.mu
	goodProbes int           //dc:guardedby g.mu
	probeDelay time.Duration //dc:guardedby g.mu
	nextProbe  time.Time     //dc:guardedby g.mu
}

// replicaGroup is one partition's replica set: one record per configured
// address, in configuration order. The list grows under AddReplica and
// shrinks under DrainReplica; what each record may do is its state's
// business (see can).
type replicaGroup struct {
	part     int
	mu       sync.Mutex
	replicas []*replica //dc:guardedby mu
	cursor   int        //dc:guardedby mu
	// written records that this client fanned a write out to this group
	// this epoch, or that a node's hello showed a live count above its
	// baseline when the epoch dialed. Set in the same mu section as the
	// fan-out itself: a write is dangerous to a plainly-installed replica
	// the moment it is *issued* — its ack lags by a network round trip,
	// and a replica installed in that window would permanently miss the
	// in-flight write. Another client's writes after the dial do not set
	// it.
	written bool //dc:guardedby mu

	// budget is the partition's hedge token bucket in milli-tokens: each
	// primary read dispatch earns hedgeEarnMilli (capped at
	// hedgeBurstMilli), each hedge spends 1000. Rate-proportional and
	// clock-free, so a gray partition can never amplify its own overload
	// — hedges are a bounded fraction of real traffic.
	budget int64 //dc:guardedby mu

	// admitCh/waiters implement bounded pending-queue admission: when
	// every eligible replica is at maxPending outstanding frames, read
	// dispatchers park on admitCh until a reply or sweep frees a slot
	// (with a short safety-valve timeout against lost wakeups).
	admitCh chan struct{}
	waiters atomic.Int32
}

// transition offers event ev to r. A legal move (see lifecycle) lands r
// in its new state and bumps the edge's counter; anything else is
// refused and changes nothing.
//
//dc:holds g.mu
func (g *replicaGroup) transition(r *replica, ev lifeEvent) bool {
	e := lifecycle[r.state][ev]
	if !e.ok {
		return false
	}
	r.state = e.to
	if e.count != cNone {
		r.life[e.count].Add(1)
	}
	return true
}

// can reports whether r may be used for u by an op request (0: no op in
// particular): the one eligibility rule target choice, the write
// fan-out, snapshot sourcing, departure settlement, the split preflight
// and Stats all share. Its state must permit the use, its connection
// must have negotiated the op's version, and its node must be durable
// when the op needs it.
//
//dc:holds r.g.mu
func (r *replica) can(u use, op uint8) bool {
	row, n := &opTable[op], r.node
	return stateCan[r.state]&u != 0 && n.version >= row.minVer && (n.durable || !row.durable)
}

// connected counts the group's live connections.
//
//dc:holds g.mu
func (g *replicaGroup) connected() (n int) {
	for _, r := range g.replicas {
		if r.node != nil {
			n++
		}
	}
	return n
}

// nodes snapshots the group's live connections in configuration order.
func (g *replicaGroup) nodes() []*clusterNode {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []*clusterNode
	for _, r := range g.replicas {
		if r.node != nil {
			out = append(out, r.node)
		}
	}
	return out
}

// errNoSource refuses an admission for now: the partition has absorbed
// writes and no sibling can supply them.
var errNoSource = errors.New("netrun: no replica can source a catch-up snapshot")

// admit makes the freshly dialed connection n replica r's connection and
// starts its loops. It is the one place the "is this replica's baseline
// state good enough" decision is taken, in the same g.mu section the
// write fan-out uses: while the partition is pristine n installs plainly
// along the caller's edge (evDial or evRejoin); once it has absorbed
// writes n is stale — its process holds the baseline key set, or a
// durable prefix — so it installs as syncing and catches up from a
// sibling before it serves (see catchUp). A concurrent first insert
// therefore either precedes the decision (written is set, catch-up
// required) or sees the installed replica and fans to it directly.
//
// The epoch's own dial runs before the group is marked written, so it
// installs every node as it finds it: at dial time this client has no
// write in flight and the nodes' state is the truth.
//
// A nil return means admitted: from then on every failure funnels
// through failNode, which owns cleanup and the next rejoin. Otherwise n
// is closed and r is unchanged: the epoch's root cause when it is over,
// errNoSource when nothing can source the catch-up, or the table's
// refusal (a drain won the race).
func (c *Cluster) admit(ep *epoch, r *replica, n *clusterNode, ev lifeEvent) error {
	g := r.g
	g.mu.Lock()
	// ep.fail cancels the epoch before it sweeps the group under this
	// mutex, so n is either refused here or swept there — never leaked.
	err := ep.Err()
	var src *replica
	if err == nil && g.written {
		ev = evCatchUp
		for i := range g.replicas {
			if m := g.replicas[(g.cursor+i+1)%len(g.replicas)]; m != r && m.can(useFull, OpSnapshot) {
				src = m
				break
			}
		}
		if src == nil || n.cannot(OpLoad) != nil {
			err = errNoSource
		}
	}
	if err == nil && !g.transition(r, ev) {
		err = fmt.Errorf("netrun: partition %d replica %s was drained", g.part, r.addr)
	}
	if err != nil {
		g.mu.Unlock()
		n.conn.Close()
		return err
	}
	r.node = n
	var snap *pending
	if src != nil {
		// The section that installs n also enqueues the snapshot request
		// on the source, so every concurrent write fan-out either precedes
		// the request in the source's FIFO (and is in the snapshot n
		// loads) or sees n installed (and lands in its hold queue, flushed
		// after the load) — each write reaches n exactly once.
		snap = c.snapshotRequest(n, src)
		if !c.post(src.node, snap, make(chan *pending, 1)) {
			// Only ep.fail marks a listed connection dead: the epoch is
			// ending and its sweep tears n down.
			snap = nil
		}
	}
	g.mu.Unlock()
	ep.wg.Add(2)
	go n.sendLoop(ep)
	go n.readLoop(ep)
	if snap != nil {
		c.catchUp(ep, r, n, snap)
	}
	return nil
}

// snapshotRequest builds the catch-up request n's admission sends to
// src. When both are durable nodes with a known chain it asks for the
// insert tail since n's own durable position instead of the full key set
// (OpSnapshotSince): a rejoining replica already holds everything it
// fsynced before the crash, so only the writes it missed move over the
// wire. The source falls back to a full payload by itself when it
// compacted past that position or the chains diverge.
//
//dc:holds src.g.mu
func (c *Cluster) snapshotRequest(n *clusterNode, src *replica) *pending {
	p := c.getPending()
	p.op = OpSnapshot
	if n.chain != 0 && src.node.chain != 0 && !n.r.forceFull.Load() {
		p.op = OpSnapshotSince
		gen := uint64(n.liveCount - n.keyCount)
		p.keys = append(p.keys, uint32(gen), uint32(gen>>32), uint32(n.chain), uint32(n.chain>>32))
	}
	return p
}

// catchUp finishes a syncing admission: it waits for the snapshot admit
// requested, loads it into n, and promotes r to full membership. A
// delta the rejoiner *refuses* (it durably logged writes the source
// never acked — divergent histories) aborts the admission with a sticky
// full-snapshot demand, because switching payload kinds mid-admission
// would let writes land twice (the hold-queue cut belongs to the
// original request).
func (c *Cluster) catchUp(ep *epoch, r *replica, n *clusterNode, snap *pending) {
	g := r.g
	abort := func(stage string, err error) {
		if snap.op == OpSnapshotSince {
			r.forceFull.Store(true)
		}
		c.failNode(ep, n, fmt.Errorf("netrun: catch-up %s for partition %d: %w", stage, g.part, err))
	}
	defer c.release(snap)
	if <-snap.done; snap.err != nil {
		abort("snapshot", snap.err)
		return
	}
	load := c.getPending()
	load.op = OpLoad
	load.keys = append(load.keys, snap.reply...)
	wasDelta := false
	if snap.op == OpSnapshotSince {
		// The reply rule (snapDelta) guarantees the position header.
		load.op = OpLoadAt
		wasDelta = snap.reply[0] == snapKindDelta
	}
	done := make(chan *pending, 1)
	if !c.post(n, load, done) {
		return // n died already; its departure swept the hold queue
	}
	<-done
	err := load.err
	c.release(load)
	if err != nil {
		abort("load", err)
		return
	}
	if wasDelta {
		c.deltaCatchups.Add(1)
	}
	r.forceFull.Store(false)
	// Promote: flush the held writes onto the connection — they follow
	// the load frame in the FIFO, so the reset cannot wipe them — and
	// open the replica to reads.
	g.mu.Lock()
	defer g.mu.Unlock()
	if r.node != n || !g.transition(r, evLoaded) {
		return // failed or drained since the ack; departure took the hold queue
	}
	for _, hp := range r.held {
		if ok, _ := n.enqueue(hp, c.reqID.Add(1), 0); ok {
			r.dispatched.Add(1)
		} else {
			// n died between the load ack and the flush; the survivors
			// hold the write (the insert sweep semantics).
			c.finish(hp, nil)
		}
	}
	r.held = nil
}

// post hands p straight to connection n — the caller has pinned the
// replica, so no target is chosen — to complete on done. False means n
// is dead and p, which never escaped, was recycled.
func (c *Cluster) post(n *clusterNode, p *pending, done chan *pending) bool {
	p.done = done
	p.refs.Store(2)
	if ok, _ := n.enqueue(p, c.reqID.Add(1), 0); !ok {
		c.putPending(p)
		return false
	}
	n.r.dispatched.Add(1)
	return true
}

// failNode is the single owner of a connection's death: it closes the
// connection and departs it from its group. Exactly-once per node; both
// loops and any protocol-violation path funnel through it, so a pending
// is collected by precisely one actor.
func (c *Cluster) failNode(ep *epoch, n *clusterNode, err error) {
	n.failOnce.Do(func() {
		n.conn.Close()
		c.depart(ep, n, err)
	})
}

// depart is the one way a connection leaves its group. The record goes
// down (failing the epoch when it was the partition's last connection)
// and its rejoin loop starts — unless DrainReplica already deconfigured
// it, in which case the table refuses the failure and there is nothing
// to re-dial. Either way everything the connection still owed — hold
// queue, send queue, in-flight table — is settled by each pending's
// loss policy: reads fail over, writes settle against the survivors,
// pinned catch-up and membership frames abort. cause is why it left.
func (c *Cluster) depart(ep *epoch, n *clusterNode, cause error) {
	r := n.r
	g := r.g
	// A syncing replica's held inserts go with it: every held pending
	// was also fanned out to the surviving replicas, which now define
	// the group's state. full records whether a surviving replica with
	// the *full* state exists: completing a swept insert as success is
	// only honest when one does. A syncing replica does not count —
	// writes fanned out before its admission are in neither its hold
	// queue nor a snapshot it can still load once its source died — so
	// those writes fail conservatively instead (the caller may retry;
	// inserts are idempotent only as multiset adds, and an error makes
	// the uncertainty explicit rather than acking a write no live node
	// holds).
	g.mu.Lock()
	failed := g.transition(r, evFail)
	r.node = nil
	// Probation is a verdict on the connection that just left: the next
	// one starts with no outlier streak and no probe backoff.
	r.consecBad, r.goodProbes, r.probeDelay, r.nextProbe = 0, 0, 0, time.Time{}
	held := r.held
	r.held = nil
	live, full := g.connected(), false
	for _, m := range g.replicas {
		full = full || m.can(useFull, OpInsert)
	}
	g.mu.Unlock()
	if failed && live == 0 {
		ep.fail(fmt.Errorf("netrun: partition %d lost its last replica (%s): %w", g.part, r.addr, cause))
	}
	for _, p := range n.collectPending(held) {
		row := &opTable[p.op]
		switch row.onLoss {
		case lossSettle:
			switch {
			case ep.Err() != nil:
				c.finish(p, ep.Err())
			case full:
				c.finish(p, nil)
			default:
				c.finish(p, fmt.Errorf("netrun: partition %d lost its last replica with the full state (%s) with a write in flight: %w", g.part, r.addr, cause))
			}
		case lossAbort:
			c.finish(p, fmt.Errorf("netrun: %s pinned to partition %d replica %s interrupted: %w", row.name, g.part, r.addr, cause))
		case lossRedispatch:
			// A read already claimed by a hedge (or a racing reply)
			// needs nothing from this chain — drop the reference.
			if p.claimed.Load() {
				c.release(p)
			} else {
				c.route(ep, g, p)
			}
		default:
			// Not a pending kind: nothing enqueues one, and re-routing a
			// request with no loss policy could only be wrong.
			c.finish(p, fmt.Errorf("netrun: %s request on partition %d replica %s has no loss policy: %w", row.name, g.part, r.addr, cause))
		}
	}
	if failed {
		ep.goRejoin(r)
	}
}

// goRejoin starts the background rejoin loop for a down replica, unless
// the epoch is already over. The wg.Add is safe against Close's Wait
// because every caller runs on a goroutine the WaitGroup already counts
// or holds Cluster.mu, which Close takes before it waits.
func (ep *epoch) goRejoin(r *replica) {
	if ep.Err() != nil {
		return
	}
	ep.wg.Add(1)
	go ep.c.rejoinLoop(ep, r)
}

// rejoinLoop re-dials a down replica with capped exponential backoff
// until a connection is admitted (see admit: fresh loops start, and a
// replica of a written-to partition first catches up from a sibling), it
// is drained, or the epoch ends. Callers are never interrupted:
// rejoining only grows the set of connected replicas.
func (c *Cluster) rejoinLoop(ep *epoch, r *replica) {
	defer ep.wg.Done()
	backoff := rejoinBackoff
	for {
		select {
		case <-ep.ctx.Done():
			return
		case <-time.After(jitterBackoff(backoff)):
		}
		r.g.mu.Lock()
		drained := r.state == stDrained
		r.g.mu.Unlock()
		if drained {
			return
		}
		n, err := c.dialNode(ep.ctx, r, false)
		if err == nil {
			err = c.admit(ep, r, n, evRejoin)
		}
		if err == nil {
			return
		}
		backoff = nextBackoff(backoff, rejoinMaxBackoff)
	}
}

// nextBackoff doubles a rejoin delay, capped at max.
func nextBackoff(d, max time.Duration) time.Duration {
	if d *= 2; d > max {
		return max
	}
	return d
}

// jitterBackoff spreads a rejoin sleep uniformly over [d/2, d): when
// one machine death drops several replicas at once, their rejoin dials
// de-correlate instead of thundering back at the recovering node in
// lockstep at every doubling.
func jitterBackoff(d time.Duration) time.Duration {
	if d < 2 {
		return d
	}
	return d/2 + rand.N(d/2)
}
