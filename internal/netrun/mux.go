package netrun

// The transport mux: one replica connection's send queue, in-flight
// request table, read deadline, and the send/read loops that move
// pendings across it. Every per-op decision the loops make — how a
// request is encoded, which reply answers it, how the reply is checked
// and delivered, how far an OpErr reaches — is a column of the op table
// (optable.go). The mux knows nothing about replica groups beyond
// handing a failed connection to Cluster.failNode and a reply latency to
// observe.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// clusterNode is one replica connection plus its send queue and
// in-flight request table. The send loop owns the write half (bc.w/
// bc.fw), the read loop owns the read half (bc.r/bc.fr); mu guards the
// queue, the pending map, and the read-deadline decisions that depend
// on them.
type clusterNode struct {
	// r is the replica record this connection serves (and, through it,
	// the group): the mux reads its address and partition for error
	// text and hands it reply latencies; it never touches lifecycle
	// state.
	r    *replica
	conn net.Conn
	bc   *bufferedConn
	// meta from the hello handshake.
	rankBase int
	keyCount int
	// liveCount is a writable node's current key count from the hello's
	// 6th word (0 from a read-only node): baseline plus every insert it
	// absorbed.
	liveCount int
	// chain is a durable node's fold position from the hello's words 7-8
	// (0: not a durable node, or unknown history). Together with
	// liveCount-keyCount (= the durable generation) it identifies the
	// exact insert history the node holds, which is what makes the
	// positioned delta catch-up safe to offer.
	chain uint64
	// version is the negotiated protocol version for this connection,
	// and has what the node's hello ack said it is.
	version uint32
	has     nodeNeed

	opTimeout time.Duration // <= 0: deadlines disabled
	failOnce  sync.Once     // failNode runs its body exactly once

	// window is a ring of the last read-reply latencies and samples
	// their count; with hedging armed, every few samples observe re-sorts
	// the ring into the hedge-delay quantile. Owned by the read loop.
	window  [64]int64
	samples int

	mu       sync.Mutex
	cond     *sync.Cond
	sendq    []sendReq           //dc:guardedby mu
	sendHead int                 //dc:guardedby mu
	pending  map[uint32]inflight //dc:guardedby mu
	dead     bool                //dc:guardedby mu

	// hedgeT is the connection's hedge clock (nil unless hedging is on):
	// it runs hedgeDue over the in-flight table. hedgeArmed says it is
	// running; both are changed only under mu, so one armed clock covers
	// every hedgeable frame registered after it.
	hedgeT     *time.Timer
	hedgeArmed bool //dc:guardedby mu
}

// sendReq is one queue entry: a pending plus the request id this
// particular registration uses. Ids are per-registration, not
// per-pending, because a hedged pending is registered on two
// connections at once — each enqueue stamps a fresh id, so a failover
// restamp on one connection can never race the other's encode.
type sendReq struct {
	p     *pending
	reqID uint32
}

// inflight is one registered request: the pending and its send
// timestamp, from which the read loop derives the reply-latency sample
// feeding the hedge quantile and the ejection score.
type inflight struct {
	p      *pending
	sentAt time.Time
}

// deregisterLocked removes a registration, maintains the invariant
// "read deadline armed iff requests outstanding", and wakes an
// admission waiter now that a queue slot freed.
//
//dc:holds n.mu
func (n *clusterNode) deregisterLocked(reqID uint32) {
	delete(n.pending, reqID)
	if n.opTimeout > 0 {
		if len(n.pending) == 0 {
			// Idle connections carry no deadline; the next registration
			// re-arms it.
			n.conn.SetReadDeadline(time.Time{})
		} else {
			n.conn.SetReadDeadline(time.Now().Add(n.opTimeout))
		}
	}
	n.r.g.admitFreed()
}

// pending is one request frame's lifecycle: the caller accumulates keys
// and positions into it, the send loop writes and registers it, the
// read loop scatters or records the reply and completes it back to the
// issuing call's gather channel — or, when its replica dies first, the
// failover path settles it per its row's loss policy. Key/position capacity is
// recycled through the cluster's pending pool.
//
// Hedging puts one pending on up to two connections at once, which
// forces three invariants the single-dispatch code never needed:
//
//   - keys (the request words) are immutable from dispatch until the
//     last reference drops; replies stage their payload in the separate
//     reply buffer instead of overwriting keys, so the losing
//     registration can still encode/validate against them. No element
//     reaches out or reply before its whole reply was checked and its
//     read loop won the claim: a reply's check is its length (and a
//     scan's or top-k's order), so it is decoded straight from the frame
//     into its destination after the claim.
//   - claimed elects exactly one resolver: whichever reply, refusal,
//     sweep, or routing failure wins the CompareAndSwap scatters the
//     result (or records the error) and completes p to the gather
//     channel; everyone else just drops their copy. A pending therefore
//     completes exactly once no matter how many replicas raced.
//   - refs counts the live owners (the issuing gather plus each
//     dispatch chain); the pending returns to the pool only when the
//     count hits zero, so a straggling reply from a slow replica can
//     never scribble on a recycled object.
type pending struct {
	// op is the request op whose op-table row governs this pending:
	// reply check, failover, hedging, OpErr scope, delivery.
	op   uint8
	keys []uint32
	pos  []int32
	out  []int
	// reply stages payload-carrying replies (counts, scans, top-k,
	// snapshots) for the issuing call's gather loop (deliverStage).
	reply []uint32
	// contig means the run maps to the contiguous out range starting
	// at posBase (a run of an ascending call, or of any call to one
	// partition, keeps query order), so the reply scatters sequentially
	// and pos stays unused.
	contig  bool
	posBase int
	// chunk links an insert fan-out pending back to its write chunk,
	// so InsertBatch can count this client's acked inserts per
	// fully-acked chunk (see insChunk). Nil for every other kind.
	chunk *insChunk
	// ask marks a rank call's count ask, which lives in a pool of its own
	// (see getAsk).
	ask  bool
	err  error
	done chan *pending

	claimed atomic.Bool
	refs    atomic.Int32
	// hedged caps re-dispatch amplification at one hedge per pending
	// (set by the origin's hedge clock when it fires, and checked by
	// every clock, so a hedge is never itself hedged).
	hedged atomic.Bool
}

// claim elects the caller as p's resolver; exactly one claim per
// lifecycle succeeds.
func (p *pending) claim() bool { return p.claimed.CompareAndSwap(false, true) }

// release drops one reference; the last one recycles p.
func (c *Cluster) release(p *pending) {
	if p.refs.Add(-1) == 0 {
		c.putPending(p)
	}
}

// finish terminates one dispatch chain with err: it completes p if this
// chain wins the claim, and drops the chain's reference either way.
func (c *Cluster) finish(p *pending, err error) {
	if p.claim() {
		p.complete(err)
	}
	c.release(p)
}

func (p *pending) complete(err error) {
	p.err = err
	p.done <- p
}

func (c *Cluster) getPending() *pending {
	p := c.pends.Get().(*pending)
	p.op = OpLookup
	p.keys = p.keys[:0]
	p.pos = p.pos[:0]
	p.reply = p.reply[:0]
	p.contig = false
	p.posBase = 0
	p.chunk = nil
	p.renew()
	return p
}

// getAsk checks out a rank call's count ask: an OpCountRange of the whole
// key space, two words out and one back. Asks have a pool of their own:
// taken from the frames' pool, their small buffers would pass to rank
// frames, which grow them by doubling mid-call.
func (c *Cluster) getAsk() *pending {
	p := c.asks.Get().(*pending)
	p.renew()
	return p
}

// renew readies a pooled pending for a new lifecycle.
func (p *pending) renew() {
	p.err = nil
	p.claimed.Store(false)
	p.hedged.Store(false)
	p.refs.Store(0)
}

func (c *Cluster) putPending(p *pending) {
	p.out = nil
	p.done = nil
	p.chunk = nil
	if p.ask {
		c.asks.Put(p)
		return
	}
	// Snapshot and load pendings stage a full partition's key set —
	// often orders of magnitude beyond BatchKeys. Recycling that
	// backing array would pin it in the pool behind every future
	// lookup pending for the cluster's lifetime; drop oversized
	// buffers instead.
	if cap(p.keys) > 2*c.batch {
		p.keys = nil
	}
	if cap(p.reply) > 2*c.batch {
		p.reply = nil
	}
	c.pends.Put(p)
}

// enqueue hands p to the node's send loop under the registration id
// reqID. It reports ok=false when p was not queued: the node is dead
// (the caller must route p elsewhere) or, when limit > 0, the node is
// at its admission cap (full=true — the caller may wait and retry).
// The dead check and the append are under the same mutex failNode's
// collection takes, so a pending can never be stranded in a queue
// nobody owns.
func (n *clusterNode) enqueue(p *pending, reqID uint32, limit int) (ok, full bool) {
	n.mu.Lock()
	if n.dead {
		n.mu.Unlock()
		return false, false
	}
	if limit > 0 && len(n.sendq)-n.sendHead+len(n.pending) >= limit {
		n.mu.Unlock()
		return false, true
	}
	n.sendq = append(n.sendq, sendReq{p: p, reqID: reqID})
	n.mu.Unlock()
	n.cond.Signal()
	return true, false
}

// collectPending takes sole ownership of everything queued or in flight
// on n, plus the caller-collected hold queue. dead is set in the same
// critical section, so a concurrent enqueue either lands before the
// sweep (and is collected) or observes dead and routes elsewhere.
// Shared by failNode and the drain teardown.
func (n *clusterNode) collectPending(held []*pending) []*pending {
	n.mu.Lock()
	n.dead = true
	rest := make([]*pending, 0, len(n.pending)+len(n.sendq)-n.sendHead+len(held))
	for _, sr := range n.sendq[n.sendHead:] {
		if sr.p != nil {
			rest = append(rest, sr.p)
		}
	}
	n.sendq, n.sendHead = nil, 0
	if n.hedgeT != nil {
		n.hedgeT.Stop()
		n.hedgeArmed = false
	}
	for _, inf := range n.pending {
		rest = append(rest, inf.p)
	}
	n.pending = map[uint32]inflight{}
	n.mu.Unlock()
	n.cond.Broadcast()
	n.r.g.admitFreed()
	return append(rest, held...)
}

// sendLoop writes queued frames to the node. Flushes coalesce: the
// bufio writer is flushed only when the queue drains, so pipelined
// batches from concurrent callers share syscalls. Each pending is
// registered in the in-flight table (and the read deadline armed)
// before its frame hits the wire, so a reply — or a failover sweep —
// always finds it. On any error the loop funnels through failNode and
// exits; it never completes pendings itself.
func (n *clusterNode) sendLoop(ep *epoch) {
	defer ep.wg.Done()
	c := ep.c
	unflushed := false
	for {
		n.mu.Lock()
		for n.sendHead == len(n.sendq) && !n.dead {
			if unflushed {
				n.mu.Unlock()
				unflushed = false
				if err := n.flush(); err != nil {
					c.failNode(ep, n, fmt.Errorf("netrun: partition %d replica %s write: %w", n.r.g.part, n.r.addr, err))
					return
				}
				n.armRead()
				n.mu.Lock()
				continue
			}
			n.cond.Wait()
		}
		if n.dead {
			// failNode owns (or will collect) whatever is queued.
			n.mu.Unlock()
			return
		}
		sr := n.sendq[n.sendHead]
		p := sr.p
		n.sendq[n.sendHead] = sendReq{}
		n.sendHead++
		if n.sendHead == len(n.sendq) {
			n.sendq = n.sendq[:0]
			n.sendHead = 0
		}
		if _, dup := n.pending[sr.reqID]; dup {
			// The 32-bit request-id space wrapped all the way around
			// onto a request still in flight on this connection.
			// Registering would silently orphan the first caller, so
			// fail this request fast and leave the in-flight one (and
			// the connection) intact.
			n.mu.Unlock()
			c.finish(p, fmt.Errorf("netrun: request id %d wrapped onto a request still in flight on partition %d replica %s (2^32 ids exhausted while one was outstanding); retry the batch",
				sr.reqID, n.r.g.part, n.r.addr))
			continue
		}
		// Ops the connection may not carry never get here: dispatch and
		// failover pick members by replica.can.
		row := &opTable[p.op]
		n.pending[sr.reqID] = inflight{p: p, sentAt: time.Now()}
		// Encode while still holding mu: the moment p is registered it
		// can complete (reply or failover sweep) and be recycled by its
		// caller, so no field of p may be read after the unlock. After
		// encode the frame lives in the writer's scratch, and the
		// blocking socket I/O below never touches p.
		if n.hedgeT != nil && !n.hedgeArmed && row.hedge && !p.hedged.Load() {
			// No read is overdue before the least delay hedgeDelay can
			// return; hedgeDue re-arms the clock for the real deadline.
			n.hedgeArmed = true
			n.hedgeT.Reset(n.capHedge(hedgeMinDelay))
		}
		buf, encErr := encodeRun(&n.bc.fw, p.op, sr.reqID, p.keys)
		n.mu.Unlock()

		if encErr != nil {
			// Unreachable with BatchKeys clamped to MaxFrameWords, but
			// p is registered: failNode sweeps and re-routes it.
			c.failNode(ep, n, fmt.Errorf("netrun: partition %d replica %s: %w", n.r.g.part, n.r.addr, encErr))
			return
		}
		if n.opTimeout > 0 {
			n.conn.SetWriteDeadline(time.Now().Add(n.opTimeout))
		}
		if _, err := n.bc.w.Write(buf); err != nil {
			// p is registered: failNode sweeps and re-routes it.
			c.failNode(ep, n, fmt.Errorf("netrun: partition %d replica %s write: %w", n.r.g.part, n.r.addr, err))
			return
		}
		n.armRead()
		unflushed = true
	}
}

func (n *clusterNode) flush() error {
	if n.opTimeout > 0 {
		n.conn.SetWriteDeadline(time.Now().Add(n.opTimeout))
	}
	return n.bc.w.Flush()
}

// armRead extends the read deadline if requests are in flight; the send
// loop calls it after each write or flush makes progress toward the
// node, so the reply clock starts when the request actually moves, not
// when it is registered (a slow-but-successful write must not eat into
// the node's reply window). The map check is under mu so the invariant
// "deadline armed iff requests outstanding" holds against the read
// loop's clear-when-empty.
func (n *clusterNode) armRead() {
	if n.opTimeout <= 0 {
		return
	}
	n.mu.Lock()
	if len(n.pending) > 0 {
		n.conn.SetReadDeadline(time.Now().Add(n.opTimeout))
	}
	n.mu.Unlock()
}

// readLoop demultiplexes reply frames by request id and resolves each
// by the op-table row its request went out under: decode, look the
// registration up, validate, deregister, record, claim, deliver,
// complete. Any read error, timeout, or protocol violation funnels
// through failNode: the replica dies alone and its in-flight requests
// settle by their rows' loss policies — no wrong or partial answer can
// ever complete, because a violating reply leaves its pending
// registered for the sweep.
func (n *clusterNode) readLoop(ep *epoch) {
	defer ep.wg.Done()
	c := ep.c
	fail := func(err error) {
		// Violation paths funnel through failNode even when the node is
		// already dead (a stale buffered frame after a sweep, or a frame
		// read between ep.fail marking us dead and the next read error):
		// failNode is idempotent, and skipping it here could strand
		// registered pendings a sweep never saw.
		c.failNode(ep, n, fmt.Errorf("netrun: partition %d replica %s %w", n.r.g.part, n.r.addr, err))
	}
	for {
		f, err := n.bc.readFrame()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				err = fmt.Errorf("no reply within %v (node hung?): %w", n.opTimeout, err)
			}
			fail(fmt.Errorf("read: %w", err))
			return
		}
		e := elems(f.Raw)

		// Everything read from the pending is read under the lock: on a
		// violation p stays registered, so a concurrent failNode sweep
		// may re-route, complete, and recycle it the moment the lock is
		// released.
		n.mu.Lock()
		inf, ok := n.pending[f.ReqID]
		var kind *opSpec
		if ok {
			kind = &opTable[inf.p.op]
		}
		var violation error
		refused := false
		switch {
		case !ok:
			violation = fmt.Errorf("sent unknown reqID %d (corrupt or stale stream)", f.ReqID)
		case f.Op == OpErr:
			code := uint32(0)
			if e.len() > 0 {
				code = e.at(0)
			}
			if refused = kind.onErr == scopeRequest; !refused {
				violation = fmt.Errorf("reported error %d", code)
			}
		case f.Op != kind.reply:
			violation = fmt.Errorf("answered a %s request with op %d, want op %d", kind.name, f.Op, kind.reply)
		case !kind.valid(inf.p.keys, e):
			violation = fmt.Errorf("sent %d reply elements for the %d request words of a %s", e.len(), len(inf.p.keys), kind.name)
		}
		if violation != nil {
			n.mu.Unlock()
			fail(violation)
			return
		}
		p := inf.p
		n.deregisterLocked(f.ReqID)
		n.mu.Unlock()

		// p left the table, so this chain's reference keeps it alive
		// until the release below.
		if refused {
			// The node declined this one request and keeps serving.
			c.finish(p, fmt.Errorf("netrun: partition %d replica %s refused the %s request", n.r.g.part, n.r.addr, kind.name))
			continue
		}
		d := time.Since(inf.sentAt)
		if kind.hedge {
			n.observe(c, d)
		}
		c.recordOp(p.op, d)
		if p.claim() {
			switch kind.deliver {
			case deliverScatter:
				p.scatter(e)
			case deliverStage:
				// Staged, not written into shared output: a range can
				// span partitions, so several replies may target one slot
				// and only the single gather loop may combine them.
				p.reply = decodeWords(e, p.reply)
			}
			p.complete(nil)
		}
		c.release(p)
	}
}

// elems is a reply's elements from its read until its delivery: the
// 4·len() little-endian bytes the frame reader checked, decoded by
// whoever consumes them.
type elems []byte

func (e elems) len() int { return len(e) / 4 }

func (e elems) at(i int) uint32 { return binary.LittleEndian.Uint32(e[4*i:]) }

// scatter writes reply element i to the out slot request key i came
// from, decoding the reply in the same pass.
//
//dc:noalloc
func (p *pending) scatter(raw elems) {
	// The loops' len(raw) conditions always hold (the reply was checked
	// against the request); stated, they drop the bounds checks.
	if p.contig {
		out := p.out[p.posBase:][:len(raw)/4]
		for i := 0; i < len(out) && len(raw) >= 4; i++ {
			out[i] = int(binary.LittleEndian.Uint32(raw))
			raw = raw[4:]
		}
		return
	}
	for i := 0; i < len(p.pos) && len(raw) >= 4; i++ {
		p.out[p.pos[i]] = int(binary.LittleEndian.Uint32(raw))
		raw = raw[4:]
	}
}
