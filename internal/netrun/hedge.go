package netrun

import (
	"slices"
	"sync"
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
)

// observe records one read reply's latency against n's replica slot:
// the EWMA and the windowed quantile estimate behind the hedge delay
// always, and — when DialOptions.Ejection.Factor enabled ejection — the
// probation state machine that sheds reads from a sustained outlier.
// Called by the read loop with no locks held; writes are never
// observed, so a replica drowning in inserts is not scored for it.
func (n *clusterNode) observe(c *Cluster, d time.Duration) {
	s := n.stats()
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// The outlier test is relative: this reply against the fastest
	// non-ejected sibling's EWMA. Read the baseline before taking s.mu
	// — siblingBaseline takes g.mu, and replicaStats.mu nests inside
	// it, never around it.
	base, hasAlt := int64(0), false
	if c.opt.Ejection.Factor > 0 {
		base, hasAlt = n.g.siblingBaseline(n)
	}
	q := c.opt.Hedging.Quantile
	if q <= 0 {
		q = 0.99
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	ewma := s.ewmaNs.Load()
	if ewma == 0 {
		ewma = ns
	} else {
		ewma += (ns - ewma) / 8
	}
	s.ewmaNs.Store(ewma)
	k := s.samples.Add(1)
	s.window[(k-1)%int64(len(s.window))] = ns
	if k%quantileEvery == 0 || k == quantileEvery/2 {
		m := int64(len(s.window))
		if k < m {
			m = k
		}
		var buf [len(s.window)]int64
		copy(buf[:m], s.window[:m])
		slices.Sort(buf[:m])
		s.hedgeNs.Store(buf[int(q*float64(m-1))])
	}
	if c.opt.Ejection.Factor <= 0 {
		return
	}
	bad := base > 0 && ns > int64(c.opt.Ejection.MinLatency) &&
		float64(ns) > float64(base)*c.opt.Ejection.Factor
	switch s.state.Load() {
	case rsHealthy, rsSuspect:
		if !bad {
			s.consecBad = 0
			s.state.Store(rsHealthy)
			return
		}
		s.consecBad++
		switch {
		case s.consecBad >= ejectAfter && hasAlt:
			if s.probeDelay == 0 {
				s.probeDelay = c.opt.Ejection.ProbeBackoff
			}
			s.nextProbe = now.Add(jitterBackoff(s.probeDelay))
			s.goodProbes = 0
			s.state.Store(rsEjected)
			s.ejections.Add(1)
		case s.consecBad >= suspectAfter:
			s.state.Store(rsSuspect)
		}
	case rsProbing:
		if bad {
			// The probe came back slow: still an outlier. Back to
			// ejected, with the probe cadence backed off so probation
			// retries cannot hammer a struggling replica.
			s.goodProbes = 0
			s.probeDelay = nextBackoff(s.probeDelay, c.opt.Ejection.ProbeMaxBackoff)
			s.state.Store(rsEjected)
			return
		}
		if s.goodProbes++; s.goodProbes >= readmitProbes {
			s.consecBad, s.goodProbes = 0, 0
			s.probeDelay = c.opt.Ejection.ProbeBackoff
			s.state.Store(rsHealthy)
			s.readmits.Add(1)
			return
		}
		// First fast probe: promising — make the next one due
		// immediately instead of waiting out the backoff.
		s.nextProbe = now
	case rsEjected:
		// A straggler from the pre-ejection backlog draining off the
		// slow replica; it carries no new signal.
	}
}

// siblingBaseline reports the fastest non-ejected sibling's latency
// EWMA (0 when no sibling has history yet) and whether any such sibling
// exists to absorb n's reads — the two inputs to the relative-outlier
// test. Without an alternative, ejection is pointless: pickFor would
// route every read back as the fallback anyway.
func (g *replicaGroup) siblingBaseline(n *clusterNode) (base int64, hasAlt bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.members {
		if m == n || m.catchingUp {
			continue
		}
		s := m.stats()
		if s.state.Load() >= rsEjected {
			continue
		}
		hasAlt = true
		if e := s.ewmaNs.Load(); e > 0 && (base == 0 || e < base) {
			base = e
		}
	}
	return base, hasAlt
}

// hedger is an epoch's hedge clock. Send loops schedule a (node, reqID,
// deadline) entry after each read frame leaves for the wire; the loop
// sleeps until the earliest deadline and re-dispatches whichever
// registrations are still unanswered to a sibling replica — first valid
// reply claims the pending, the loser's reply is discarded by request
// id. One goroutine per epoch: hedges are rare by construction (the
// deadline is the replica's own high quantile), so a single clock
// never becomes a bottleneck.
type hedger struct {
	c    *Cluster
	ep   *epoch
	wake chan struct{} // capacity 1: "the earliest deadline moved"

	mu   sync.Mutex
	heap []hedgeEntry // min-heap by deadline //dc:guardedby mu
}

// hedgeEntry is one armed hedge: if reqID is still registered on n at
// the deadline, the request is re-dispatched to a sibling.
type hedgeEntry struct {
	n     *clusterNode
	reqID uint32
	at    time.Time
}

// schedule arms a hedge for one registration and wakes the loop when
// the new entry became the earliest deadline.
func (h *hedger) schedule(n *clusterNode, reqID uint32, at time.Time) {
	h.mu.Lock()
	h.heap = append(h.heap, hedgeEntry{n: n, reqID: reqID, at: at})
	i := len(h.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.heap[i].at.Before(h.heap[parent].at) {
			break
		}
		h.heap[i], h.heap[parent] = h.heap[parent], h.heap[i]
		i = parent
	}
	first := i == 0
	h.mu.Unlock()
	if first {
		select {
		case h.wake <- struct{}{}:
		default:
		}
	}
}

// next pops the earliest entry when its deadline has passed; otherwise
// it reports how long the loop should sleep for it.
func (h *hedger) next() (e hedgeEntry, wait time.Duration, fire bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.heap) == 0 {
		return hedgeEntry{}, time.Hour, false
	}
	if d := time.Until(h.heap[0].at); d > 0 {
		return hedgeEntry{}, d, false
	}
	e = h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap[last] = hedgeEntry{}
	h.heap = h.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && h.heap[l].at.Before(h.heap[min].at) {
			min = l
		}
		if r < last && h.heap[r].at.Before(h.heap[min].at) {
			min = r
		}
		if min == i {
			break
		}
		h.heap[i], h.heap[min] = h.heap[min], h.heap[i]
		i = min
	}
	return e, 0, true
}

func (h *hedger) loop() {
	defer h.ep.wg.Done()
	t := time.NewTimer(time.Hour)
	defer t.Stop()
	for {
		e, wait, fire := h.next()
		if fire {
			h.fire(e)
			continue
		}
		t.Reset(wait)
		select {
		case <-h.ep.failed:
			return
		case <-h.wake:
		case <-t.C:
		}
	}
}

// fire re-dispatches one overdue registration to a sibling, if the
// request is still unanswered, unhedged, and the partition's token
// bucket allows. The extra chain reference is taken under n.mu while
// the registration is verifiably live, so a racing reply can complete
// and recycle the pending only after the hedge chain also lets go —
// the hedge can never touch a recycled object.
func (h *hedger) fire(e hedgeEntry) {
	c, n := h.c, e.n
	n.mu.Lock()
	inf, ok := n.pending[e.reqID]
	if !ok || inf.p.claimed.Load() || inf.p.hedged.Load() || !opTable[inf.p.op].hedge {
		n.mu.Unlock()
		return
	}
	p := inf.p
	p.hedged.Store(true)
	p.refs.Add(1)
	n.mu.Unlock()
	g := n.g
	sib, _ := g.pickFor(c, p, n)
	if sib == nil {
		// No sibling to hedge to; the origin keeps sole ownership.
		c.release(p)
		return
	}
	if !g.takeHedge() {
		n.stats().budgetDenied.Add(1)
		c.release(p)
		return
	}
	if ok, _ := sib.enqueue(p, c.reqID.Add(1), c.maxPending); !ok {
		// The sibling died or is itself at the admission cap — piling
		// a hedge onto a saturated queue would only spread the gray.
		c.release(p)
		return
	}
	n.stats().hedges.Add(1)
	sib.stats().dispatched.Add(1)
}
