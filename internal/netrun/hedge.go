package netrun

// The read policy: code that only chooses targets. choose folds
// round-robin, probe claiming, the all-ejected fallback, the hedge
// token bucket and the admission cap into one verdict for route and the
// hedge clock; observe scores reply latency and offers the probation
// events to the lifecycle table (replica.go); hedgeDue is each
// connection's hedge clock, a timer over its in-flight table that
// re-dispatches overdue reads.

import (
	"slices"
	"time"
)

// Latency scoring and probation tuning. The hysteresis counts are
// deliberately small: a gray replica serves *every* reply slowly, so a
// handful of consecutive outliers is a strong signal, while a single
// GC pause or compaction stall never gets past "suspect".
const (
	// suspectAfter consecutive outlier replies mark a replica suspect
	// (still serving; the state is operator signal via Stats).
	suspectAfter = 3
	// ejectAfter consecutive outliers eject it — reads shed — provided
	// a non-ejected sibling exists to absorb them.
	ejectAfter = 6
	// readmitProbes fast probe replies promote an ejected replica back
	// to healthy.
	readmitProbes = 2
	// quantileEvery is how often (in samples) the latency window is
	// re-sorted into the hedge-delay quantile estimate.
	quantileEvery = 16
	// hedgeMinDelay floors the adaptive hedge delay; it is also the
	// cold-start delay before a replica has latency history.
	hedgeMinDelay = 10 * time.Millisecond
	// ejectMinLatency is the absolute floor below which a replica is
	// never considered an outlier, whatever the ratios say.
	ejectMinLatency = time.Millisecond
	// ejectFactor is the outlier ratio: a reply slower than ejectFactor
	// times the fastest sibling's EWMA counts against its replica.
	ejectFactor = 4
)

// maxPending bounds the outstanding frames (queued plus in flight) per
// replica connection for reads: dispatch parks politely when every
// eligible replica is at the cap, so a gray partition degrades to
// slower-but-correct instead of unbounded queue growth. Writes are
// exempt — bounding the fan-out under g.mu would stall the write path on
// its slowest replica. A variable only so the admission test can lower
// it.
var maxPending = 1024

// The hedge token bucket, in milli-tokens (see replicaGroup.budget):
// each primary read dispatch earns hedgeEarnMilli, capped at
// hedgeBurstMilli, and each hedge spends 1000 — at most ~10% extra load
// from hedging. Variables only so the budget drills can set them.
var (
	hedgeEarnMilli  int64 = 100
	hedgeBurstMilli int64 = 16000
)

// verdict is choose's answer.
type verdict uint8

const (
	sent      verdict = iota // p is on a replica's send queue
	parked                   // every eligible replica is at the admission cap: wait for a slot and ask again
	refused                  // connections exist but none may take p; the reason says why
	epochDead                // no connection left: the epoch is failing, its root cause is the answer
)

// choose finds the replica that takes p next and enqueues p on it, in
// one g.mu section. Eligibility is replica.can for p's op: syncing
// replicas take no reads (their state is mid-load).
//
// Replicas are tried round-robin. Latency-ejected ones are passed over,
// with two availability escapes: a due probe routes one real batch at an
// ejected replica (how it earns readmission), and when no replica takes
// first-choice reads, a second pass lets any replica with the full state
// serve p — ejection trades latency, never availability. Hedgeable reads
// dispatch under the admission cap; a replica at maxPending is skipped
// for its neighbour.
//
// origin is nil for a primary dispatch. The hedge clock passes the slow
// replica p is already on: a hedge never lands on its origin, has no
// second pass (the origin is still working), never joins a queue at the
// cap (piling onto a saturated sibling would only spread the gray), and
// must buy a token from the partition's budget first.
//
// p's fields are read before the enqueue: a successful enqueue hands the
// chain reference to the connection, after which p may complete and
// recycle at any moment.
func (g *replicaGroup) choose(c *Cluster, p *pending, origin *replica) (verdict, string) {
	read := opTable[p.op].hedge
	limit := 0
	if read {
		limit = maxPending
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	atCap, paid := false, false
	for pass := 0; pass < 2; pass++ {
		for range g.replicas {
			g.cursor++
			r := g.replicas[g.cursor%len(g.replicas)]
			if r == origin || !r.can(useFull, p.op) {
				continue
			}
			if pass == 0 && !r.can(useRead, p.op) && !g.claimProbe(r) {
				continue
			}
			if origin != nil && !paid {
				if g.budget < 1000 {
					origin.budgetDenied.Add(1)
					return refused, ""
				}
				g.budget -= 1000
				paid = true
			}
			ok, full := r.node.enqueue(p, c.reqID.Add(1), limit)
			if ok {
				r.dispatched.Add(1)
				if origin != nil {
					origin.hedges.Add(1)
				} else if read {
					g.budget = min(g.budget+hedgeEarnMilli, hedgeBurstMilli)
				}
				return sent, ""
			}
			if !full {
				// Only ep.fail marks a listed connection dead.
				return epochDead, ""
			}
			atCap = true
		}
		if origin != nil || atCap {
			break
		}
	}
	if atCap {
		return parked, ""
	}
	if g.connected() == 0 {
		return epochDead, ""
	}
	// Connections exist but none took p. For a hedge that leaves p with
	// its origin. For a primary dispatch every connection is syncing a
	// sibling snapshot — a read needs nothing else a connected node can
	// lack — which resolves itself in moments.
	return refused, "its only replicas are still syncing a sibling snapshot (momentary; retry)"
}

// claimProbe reports whether ejected replica r is due a probe batch and,
// when it is, claims the slot: the next probe is pushed out by the
// jittered backoff (doubled on each slow probe by observe).
//
//dc:holds g.mu
func (g *replicaGroup) claimProbe(r *replica) bool {
	now := time.Now()
	if now.Before(r.nextProbe) {
		return false
	}
	r.nextProbe = now.Add(jitterBackoff(r.probeDelay))
	return g.transition(r, evProbe)
}

// waitAdmit parks a read dispatcher until admission capacity may exist
// again: a freed slot, epoch death, or a 1ms safety valve (wakeups are
// best-effort; the caller re-checks by asking choose again).
func (g *replicaGroup) waitAdmit(ep *epoch) {
	g.waiters.Add(1)
	defer g.waiters.Add(-1)
	t := time.NewTimer(time.Millisecond)
	defer t.Stop()
	select {
	case <-g.admitCh:
	case <-ep.ctx.Done():
	case <-t.C:
	}
}

// admitFreed wakes one admission waiter, if any. Non-blocking.
func (g *replicaGroup) admitFreed() {
	if g.waiters.Load() > 0 {
		select {
		case g.admitCh <- struct{}{}:
		default:
		}
	}
}

// fastestSibling is the partition's best view of its own read latency
// with r left out: the smallest EWMA and the smallest hedge quantile
// among the siblings that take first-choice reads (0 where none has
// history yet), and whether any such sibling exists to absorb r's reads.
//
//dc:holds g.mu
func (g *replicaGroup) fastestSibling(r *replica) (ewma, quantile int64, exists bool) {
	for _, m := range g.replicas {
		if m == r || !m.can(useRead, 0) {
			continue
		}
		exists = true
		if e := m.ewmaNs.Load(); e > 0 && (ewma == 0 || e < ewma) {
			ewma = e
		}
		if q := m.hedgeNs.Load(); q > 0 && (quantile == 0 || q < quantile) {
			quantile = q
		}
	}
	return ewma, quantile, exists
}

// hedgeDelay is how long a read frame may sit on this replica before it
// is hedged: the minimum of the group's windowed quantiles, floored by
// hedgeMinDelay (which also covers the cold start before any history),
// and capped below the op timeout so a hedge always beats a timeout. The
// group minimum rather than n's own quantile matters for exactly the
// gray case: a uniformly slow replica inflates its own quantile and
// would otherwise never look overdue to its hedge clock.
func (n *clusterNode) hedgeDelay() time.Duration {
	g := n.r.g
	g.mu.Lock()
	_, q, _ := g.fastestSibling(n.r)
	g.mu.Unlock()
	if own := n.r.hedgeNs.Load(); q == 0 || (own > 0 && own < q) {
		q = own
	}
	return n.capHedge(max(time.Duration(q), hedgeMinDelay))
}

// capHedge caps a hedge delay below the op timeout.
func (n *clusterNode) capHedge(d time.Duration) time.Duration {
	if n.opTimeout > 0 {
		d = min(d, n.opTimeout/2)
	}
	return d
}

// observe records one read reply's latency against n's replica: the EWMA
// always, the windowed quantile estimate behind the hedge delay when
// DialOptions.Hedging armed hedging (only the hedge clock reads it), and —
// when DialOptions.Ejection enabled ejection — the probation events that
// shed reads from a sustained outlier. Called by the read loop, which
// owns the latency window; writes are never observed, so a replica
// drowning in inserts is not scored for it. With ejection off it takes
// no lock.
func (n *clusterNode) observe(c *Cluster, d time.Duration) {
	r := n.r
	ns := max(int64(d), 0)
	if ewma := r.ewmaNs.Load(); ewma == 0 {
		r.ewmaNs.Store(ns)
	} else {
		r.ewmaNs.Store(ewma + (ns-ewma)/8)
	}
	if q := c.opt.Hedging.Quantile; q > 0 {
		n.window[n.samples%len(n.window)] = ns
		n.samples++
		if k := n.samples; k%quantileEvery == 0 || k == quantileEvery/2 {
			buf := n.window
			m := min(k, len(buf))
			slices.Sort(buf[:m])
			r.hedgeNs.Store(buf[int(q*float64(m-1))])
		}
	}
	if !c.opt.Ejection {
		return
	}
	// The outlier test is relative: this reply against the fastest
	// sibling still taking first-choice reads. Without such a sibling
	// ejection is pointless: choose would route every read back through
	// the second pass anyway.
	g := r.g
	g.mu.Lock()
	defer g.mu.Unlock()
	base, _, hasAlt := g.fastestSibling(r)
	bad := base > 0 && ns > int64(ejectMinLatency) && ns > base*ejectFactor
	switch r.state {
	case stHealthy, stSuspect:
		if !bad {
			r.consecBad = 0
			g.transition(r, evFast)
			return
		}
		r.consecBad++
		if r.consecBad >= suspectAfter {
			g.transition(r, evSlow)
		}
		if r.consecBad >= ejectAfter && hasAlt && g.transition(r, evEject) {
			if r.probeDelay == 0 {
				r.probeDelay = rejoinBackoff
			}
			r.nextProbe = time.Now().Add(jitterBackoff(r.probeDelay))
			r.goodProbes = 0
		}
	case stProbing:
		if bad {
			// The probe came back slow: still an outlier. Back to
			// ejected, with the probe cadence backed off so probation
			// retries cannot hammer a struggling replica.
			r.goodProbes = 0
			r.probeDelay = nextBackoff(r.probeDelay, rejoinMaxBackoff)
			g.transition(r, evProbeSlow)
			return
		}
		if r.goodProbes++; r.goodProbes >= readmitProbes {
			r.consecBad, r.goodProbes = 0, 0
			r.probeDelay = rejoinBackoff
			g.transition(r, evReadmit)
			return
		}
		// First fast probe: promising — make the next one due
		// immediately instead of waiting out the backoff.
		r.nextProbe = time.Now()
	}
	// Ejected: a straggler from the pre-ejection backlog draining off
	// the slow replica carries no new signal. Down, syncing, drained: a
	// late reply from a connection that has already left.
}

// hedgeDue is a connection's hedge clock firing: every hedgeable read
// registered on n that is unclaimed, not yet hedged and older than the
// hedge delay is re-dispatched to a sibling — first valid reply claims
// the pending, the loser's reply is discarded by request id — and the
// clock is re-armed for the nearest deadline still ahead, or left idle.
// The delay is read once per firing, before n.mu (its group lock comes
// first). Each hedge's chain reference is taken under n.mu while its
// registration is verifiably live, so a racing reply can complete and
// recycle the pending only after the hedge chain also lets go.
func (n *clusterNode) hedgeDue(c *Cluster) {
	delay := n.hedgeDelay()
	now := time.Now()
	var due []*pending
	var next time.Duration
	n.mu.Lock()
	n.hedgeArmed = false
	for _, inf := range n.pending {
		p := inf.p
		if !opTable[p.op].hedge || p.claimed.Load() || p.hedged.Load() {
			continue
		}
		if wait := delay - now.Sub(inf.sentAt); wait > 0 {
			if next == 0 || wait < next {
				next = wait
			}
			continue
		}
		p.hedged.Store(true)
		p.refs.Add(1)
		due = append(due, p)
	}
	if next > 0 {
		n.hedgeArmed = true
		n.hedgeT.Reset(next)
	}
	n.mu.Unlock()
	for _, p := range due {
		if v, _ := n.r.g.choose(c, p, n.r); v != sent {
			// No sibling, no budget, or no room; the origin keeps sole
			// ownership.
			c.release(p)
		}
	}
}
