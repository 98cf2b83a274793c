package netrun

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admin"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ErrClusterClosed is returned by lookups on a Cluster after Close.
var ErrClusterClosed = errors.New("netrun: cluster closed")

// Cluster is the master side over TCP: it holds a replica group per
// index partition (one or more node connections each), the delimiter
// routing table, and per-connection send/receive machinery. LookupBatch
// routes each query to a healthy replica of the partition whose cache
// holds its sub-range and gathers replies — Figure 2 over real sockets,
// with the replica-group availability pattern layered on top.
//
// A Cluster is safe for any number of concurrent LookupBatch callers:
// requests are multiplexed over the shared sockets by request id, so
// callers pipeline instead of serializing behind a lock (the paper's
// Section 3.2 "multiple master nodes" remark, realized as multiple
// in-process masters sharing one connection set). Per-call dispatch
// state and frame buffers are pooled, so a master in steady state
// allocates nothing per batch.
//
// Failure model: failures are per replica, and the failure domain is
// the replica group. Any I/O error, per-op timeout, or protocol
// violation on a node connection poisons only that replica: it is
// dropped from its partition's group, its in-flight requests are
// re-dispatched to a surviving replica of the same partition, and a
// background rejoin loop re-dials it with capped exponential backoff
// (re-running the hello partition verification) until it rejoins or the
// epoch ends — callers never observe a single-replica failure. Only
// when a partition loses its last replica does the epoch become
// terminal: every in-flight and subsequent call returns the root cause
// (see Err), because a partitioned index with an unreachable partition
// cannot answer arbitrary queries. Recovery from a terminal failure is
// opt-in via Redial; per-replica liveness and traffic counters are
// reported by Stats.
//
// Write model (protocol v3): Insert/InsertBatch route keys to the
// owning partition and fan each write out to every healthy v3 replica
// of that group; a replica that dies mid-write leaves the group (the
// survivors define the state) and reloads a sibling's snapshot when it
// rejoins, before it serves reads again. Pre-v3 replicas never receive
// writes, and stop serving a partition's lookups once this client has
// written to it. The client folds its per-partition insert counts into
// the nodes' static rank bases on the read path, so global ranks stay
// exact under a single writing client; Redial reuses the counters (the
// nodes retain their inserts), but a node that *restarted* across a
// terminal failure comes back stale and is only re-synced by the
// rejoin path, not by Redial.
type Cluster struct {
	// part is the live routing table. It is swapped atomically by
	// SplitPartition (under the pause write lock, with no data call in
	// flight), so every data-path call loads it once and works against
	// one consistent table.
	part atomic.Pointer[core.Partitioning]
	// groups is the configured replica address list, one slice per
	// partition: what dialEpoch (re)dials. Membership ops rewrite it.
	groups [][]string //dc:guardedby mu
	batch  int
	opt    DialOptions
	// helloVer is the protocol version this client advertises:
	// ProtoVersion, capped by DialOptions.MaxVersion. Every connection
	// negotiates min(helloVer, node version).
	helloVer uint32

	calls sync.Pool // *netCall
	pends sync.Pool // *pending
	reqID atomic.Uint32

	// ins[p] counts keys inserted into partition p: bumped once every
	// replica acked one of this client's writes, and seeded at dial
	// time from the nodes' advertised live counts (v3 hello), which
	// covers writes made by earlier, since-departed clients. Nodes
	// answer with their static rank base, so the client adds the
	// preceding partitions' counters when scattering replies — the
	// client-side half of keeping global ranks exact as the index
	// grows. Counters persist across Redial (they describe the nodes,
	// which outlive the connections). A concurrently-writing second
	// client remains invisible between dials, so exact global ranks
	// under writes assume one writing client at a time.
	ins []atomic.Int64

	ep atomic.Pointer[epoch]

	// deltaCatchups counts rejoins completed via the v4 positioned
	// delta path (as opposed to full-snapshot loads); tests assert the
	// cheap path actually ran.
	deltaCatchups atomic.Int64

	// Gray-failure knobs, precomputed from DialOptions at dial time
	// (immutable afterwards). hedgeEarnMilli/hedgeBurstMilli are the
	// per-group token bucket parameters in milli-tokens; maxPending is
	// the per-connection admission cap (0 = unbounded).
	hedgeEarnMilli  int64
	hedgeBurstMilli int64
	maxPending      int

	// tel is the client-side telemetry registry: the read loops record
	// one scatter-path latency sample per reply frame into the per-op
	// histograms in opHist (series dc_client_op_ns{op=...}). Exposed by
	// Telemetry and the auto-mounted admin endpoint (DialOptions.Admin).
	tel    *telemetry.Registry
	opHist [opMax]*telemetry.Histogram
	// adm is non-nil when DialOptions.Admin.Addr mounted an endpoint.
	adm *admin.Server //dc:guardedby mu

	// pause is the membership gate: every public data-path call holds
	// the read side for its full duration, so SplitPartition can take
	// the write side to quiesce the data plane while the nodes retarget
	// and the routing table is rewritten. Uncontended outside a split —
	// an RWMutex read lock is two atomic ops, which preserves the data
	// path's zero-allocation property. Lock order: mu before pause.
	pause sync.RWMutex

	mu     sync.Mutex // serializes Close, Redial, and the membership ops
	closed bool       //dc:guardedby mu
}

// insBefore sums the keys inserted into partitions < part: the dynamic
// rank-base correction applied to that partition's replies.
func (c *Cluster) insBefore(part int) int {
	s := 0
	for j := 0; j < part; j++ {
		s += int(c.ins[j].Load())
	}
	return s
}

// epoch is one generation of node connections. A terminal failure
// poisons the epoch, never the Cluster value itself: Redial installs a
// fresh epoch while calls racing the failure keep draining the old one.
type epoch struct {
	c      *Cluster
	groups []*replicaGroup
	wg     sync.WaitGroup
	failed chan struct{} // closed on terminal failure
	once   sync.Once
	err    error // root cause; written once before failed closes
	// hedger re-dispatches read frames that outlive their replica's
	// latency quantile to a healthy sibling. Nil unless
	// DialOptions.Hedging.Quantile enabled hedging for this client.
	hedger *hedger
}

// replicaGroup is one partition's replica set: the configured addresses
// and the currently healthy member connections. members shrinks when a
// replica fails and grows back when its rejoin loop restores it; the
// round-robin cursor spreads load across whoever is healthy. A member
// may be catching up (see clusterNode.catchingUp): it is listed so
// writes reach it (via its hold queue) but is skipped by every read
// until the catch-up load lands. addrs/stats grow under AddReplica and
// shrink under DrainReplica (live membership), so both are guarded by
// mu past the single-threaded dial; per-replica state is keyed by the
// *replicaStats pointer, which survives member churn.
type replicaGroup struct {
	part    int
	addrs   []string        //dc:guardedby mu
	stats   []*replicaStats //dc:guardedby mu
	mu      sync.Mutex
	cursor  int            //dc:guardedby mu
	members []*clusterNode //dc:guardedby mu
	// writes counts insert chunks fanned out to this group, bumped in
	// the same mu section as the fan-out itself. The rejoin path gates
	// on it rather than on the acked counters (Cluster.ins): a write
	// is dangerous to a plainly-readmitted replica the moment it is
	// *issued* — the acked counter lags by a network round trip, and a
	// replica installed in that window would permanently miss the
	// in-flight write.
	writes int //dc:guardedby mu

	// budget is the partition's hedge token bucket in milli-tokens:
	// each primary read dispatch earns Cluster.hedgeEarnMilli (capped
	// at hedgeBurstMilli), each hedge spends 1000. Rate-proportional
	// and clock-free, so a gray partition can never amplify its own
	// overload — hedges are a bounded fraction of real traffic.
	budget atomic.Int64

	// admitCh/waiters implement bounded pending-queue admission: when
	// every eligible replica is at Cluster.maxPending outstanding
	// frames, read dispatchers park on admitCh until a reply or sweep
	// frees a slot (with a short safety-valve timeout against lost
	// wakeups). Writes are exempt — bounding the fan-out under g.mu
	// would stall the write path on its slowest replica.
	admitCh chan struct{}
	waiters atomic.Int32
}

// earnHedge credits the bucket for one primary read dispatch.
func (g *replicaGroup) earnHedge(c *Cluster) {
	if c.hedgeEarnMilli <= 0 {
		return
	}
	for {
		cur := g.budget.Load()
		next := cur + c.hedgeEarnMilli
		if next > c.hedgeBurstMilli {
			next = c.hedgeBurstMilli
		}
		if next == cur || g.budget.CompareAndSwap(cur, next) {
			return
		}
	}
}

// takeHedge spends one hedge token; false means the budget is exhausted
// and the hedge must be suppressed.
func (g *replicaGroup) takeHedge() bool {
	for {
		cur := g.budget.Load()
		if cur < 1000 {
			return false
		}
		if g.budget.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}

// waitAdmit parks a read dispatcher until admission capacity may exist
// again: a freed slot, epoch death, or a 1ms safety valve (wakeups are
// best-effort, the caller re-checks by retrying the enqueue).
func (g *replicaGroup) waitAdmit(ep *epoch) {
	g.waiters.Add(1)
	defer g.waiters.Add(-1)
	t := time.NewTimer(time.Millisecond)
	defer t.Stop()
	select {
	case <-g.admitCh:
	case <-ep.failed:
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

// Lock ordering: a write fan-out holds g.mu while it locks each
// member's n.mu to enqueue; failNode and the rejoin path take the locks
// in the same order. The reverse — acquiring g.mu with n.mu held —
// would deadlock against them, and lockguard rejects it. pickFor claims
// probe slots (replicaStats.mu) under g.mu, so stats nest inside the
// group lock for the same reason:
//
//dc:lockorder replicaGroup.mu clusterNode.mu
//dc:lockorder replicaGroup.mu replicaStats.mu

// Probation states for latency-scored outlier ejection. A replica that
// keeps answering but much slower than its siblings walks healthy →
// suspect → ejected (reads shed, writes keep flowing — slow is not
// dead) → probing (paced real batches test recovery) → readmitted
// (back to healthy, counted in readmits). Hard I/O failures bypass
// this machine entirely: they go through failNode/rejoin as before.
const (
	rsHealthy = int32(iota)
	rsSuspect
	rsEjected
	rsProbing
)

// replicaStats counts one replica address's lifecycle events across
// member churn within an epoch, and carries its latency score: a
// windowed quantile feeding the hedge delay, an EWMA feeding the
// relative-outlier ejection score, and the probation state machine.
type replicaStats struct {
	dispatched atomic.Uint64
	failures   atomic.Uint64
	rejoins    atomic.Uint64
	// forceFull demands a full-snapshot catch-up on the next rejoin.
	// Set when a delta catch-up was refused (the histories diverged —
	// e.g. the replica durably logged writes this client never saw
	// acked); sticky until a catch-up of any kind succeeds. It lives on
	// the stats (not the member) because the decision must survive the
	// failed member's teardown: a catch-up cannot switch from delta to
	// full mid-admission — the hold queue and a later snapshot cut
	// would double-apply writes — so the whole admission is retried.
	forceFull atomic.Bool

	// Gray-failure counters (see ReplicaHealth).
	hedges       atomic.Uint64 // hedges dispatched because this replica lagged
	ejections    atomic.Uint64
	probes       atomic.Uint64
	readmits     atomic.Uint64
	budgetDenied atomic.Uint64 // hedges suppressed by an empty token bucket

	// state/ewmaNs/hedgeNs/samples are written under mu but published
	// atomically so pickFor (under g.mu), the hedger, siblings scoring
	// against this replica, and Stats read them without taking mu.
	state   atomic.Int32
	ewmaNs  atomic.Int64
	hedgeNs atomic.Int64 // current hedge delay: windowed quantile estimate
	samples atomic.Int64

	mu sync.Mutex
	// window is a ring of the last reply latencies (read kinds only);
	// every few samples it is re-sorted into the quantile estimate.
	window [64]int64 //dc:guardedby mu
	// consecBad/goodProbes are the state machine's hysteresis counters;
	// probeDelay/nextProbe pace probe batches with the same jittered
	// exponential backoff the rejoin loop uses, so probation retries
	// cannot thundering-herd a recovering replica.
	consecBad  int           //dc:guardedby mu
	goodProbes int           //dc:guardedby mu
	probeDelay time.Duration //dc:guardedby mu
	nextProbe  time.Time     //dc:guardedby mu
}

// tryProbe reports whether an ejected replica is due a probe batch and,
// when it is, claims the probe slot: the next probe is pushed out by the
// jittered backoff (doubled on each slow probe by the observe path) and
// the replica moves to the probing state.
func (s *replicaStats) tryProbe(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now.Before(s.nextProbe) {
		return false
	}
	s.nextProbe = now.Add(jitterBackoff(s.probeDelay))
	s.state.Store(rsProbing)
	s.probes.Add(1)
	return true
}

// pickFor returns a healthy member eligible for p, round-robin.
// Eligibility is a per-kind minimum protocol version (see
// minVersionFor): catching-up members take no traffic (their state is
// mid-load); snapshot requests need a v3 peer; the v5 query ops need a
// v5 peer; and once this client has written to the partition, pre-v3
// members are excluded from lookups — they never receive writes, so
// they can no longer prove they hold the full key set. The second
// result distinguishes "group empty" (nil, true — the epoch is
// failing, wait for the root cause) from "members exist but none can
// serve p" (nil, false — fail the request with a clear error, the
// epoch is fine).
//
// Latency-ejected members are skipped like catching-up ones, with two
// availability escapes: a due probe routes one real batch at the
// ejected member (how it earns readmission), and when every otherwise-
// eligible member is ejected the least-recently-considered one serves
// anyway — ejection trades latency, never availability. excl names a
// member to avoid: the hedger passes the slow origin so a hedge always
// lands on a sibling (nil everywhere else).
func (g *replicaGroup) pickFor(c *Cluster, p *pending, excl *clusterNode) (n *clusterNode, empty bool) {
	minV := c.minVersionFor(g, p)
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.members) == 0 {
		return nil, true
	}
	var fallback *clusterNode
	for range g.members {
		g.cursor++
		m := g.members[g.cursor%len(g.members)]
		if m == excl || m.catchingUp || m.version < minV {
			continue
		}
		if s := m.stats(); s.state.Load() >= rsEjected {
			if fallback == nil {
				fallback = m
			}
			if s.tryProbe(now) {
				return m, false
			}
			continue
		}
		return m, false
	}
	if fallback != nil && excl == nil {
		// Every eligible member is ejected (e.g. both replicas of a
		// 2-way group went gray at once): serve from one rather than
		// fail — slower-but-correct beats unavailable. A hedge (excl
		// set) has no such duty; its origin is still working.
		return fallback, false
	}
	return nil, false
}

// describeIneligible explains why a non-empty group had no member
// eligible for a request — the difference matters to an operator:
// a syncing replica resolves itself in moments, while a written-to
// partition whose last writable replica died stays read-unavailable
// (and may have lost acked writes) until a protocol-v3 replica rejoins
// and catches up.
func (g *replicaGroup) describeIneligible(c *Cluster, p *pending) string {
	minV := c.minVersionFor(g, p)
	g.mu.Lock()
	defer g.mu.Unlock()
	syncing := 0
	for _, m := range g.members {
		if m.catchingUp {
			syncing++
		}
	}
	switch {
	case minV >= ProtoV5 && syncing == 0:
		return "no protocol-v5 replica is available for the range/scan/top-k/multiget ops (rank lookups still work; upgrade the partition's nodes or cap the client with MaxVersion)"
	case syncing > 0:
		return "its only eligible replica is still syncing a sibling snapshot (momentary; retry)"
	case c.ins[g.part].Load() > 0:
		return "it absorbed writes and then lost its last writable protocol-v3 replica; the remaining pre-v3 replicas are stale, and acked writes may be lost until a v3 replica rejoins and catches up"
	default:
		return "no protocol-v3 replica is available to serve it"
	}
}

// remove drops n from the member list and reports how many members
// remain.
func (g *replicaGroup) remove(n *clusterNode) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, m := range g.members {
		if m == n {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	return len(g.members)
}

// ReplicaHealth is one replica's liveness and traffic counters within
// the current epoch (see ClusterStats.Replicas). The JSON shape is part of the
// versioned ClusterStats tree (see StatsSchemaVersion).
type ReplicaHealth struct {
	// Partition is the partition this replica serves.
	Partition int `json:"partition"`
	// Addr is the replica's configured address.
	Addr string `json:"addr"`
	// Healthy reports whether the replica is currently a live group
	// member (accepting dispatches).
	Healthy bool `json:"healthy"`
	// Syncing reports that the replica is a member mid-catch-up: it
	// receives writes (via its hold queue) but serves no reads until
	// the sibling snapshot load completes.
	Syncing bool `json:"syncing"`
	// Proto is the protocol version this replica's live connection
	// negotiated (0 while the replica is down). Mid-rollout it tells an
	// operator which replicas can serve the v5 query ops.
	Proto uint32 `json:"proto"`
	// Dispatched counts lookup frames handed to this replica.
	Dispatched uint64 `json:"dispatched"`
	// Failures counts times the replica was dropped from its group.
	Failures uint64 `json:"failures"`
	// Rejoins counts times the background rejoin loop restored it.
	Rejoins uint64 `json:"rejoins"`
	// State is the probation state machine's view of the replica:
	// "healthy", "suspect", "ejected", or "probing" (see the rs*
	// constants). Always "healthy" unless DialOptions.Ejection.Factor
	// enabled latency-scored ejection.
	State string `json:"state"`
	// LatencyEWMA is the smoothed reply latency of this replica's read
	// frames (0 until it has served one).
	LatencyEWMA time.Duration `json:"latency_ewma_ns"`
	// Hedges counts read frames re-dispatched to a sibling because this
	// replica sat on them past its latency quantile.
	Hedges uint64 `json:"hedges"`
	// Ejections/Probes/Readmits count probation transitions: reads shed
	// from the replica, paced probe batches sent to it while ejected,
	// and full readmissions.
	Ejections uint64 `json:"ejections"`
	Probes    uint64 `json:"probes"`
	Readmits  uint64 `json:"readmits"`
	// BudgetDenied counts hedges suppressed because the partition's
	// token bucket was empty — sustained growth means the hedge budget
	// is the binding constraint, not the slow replica.
	BudgetDenied uint64 `json:"budget_denied"`
}

// stateName maps a probation state to its ReplicaHealth string.
func stateName(s int32) string {
	switch s {
	case rsSuspect:
		return "suspect"
	case rsEjected:
		return "ejected"
	case rsProbing:
		return "probing"
	default:
		return "healthy"
	}
}

// Err returns the epoch's terminal error, or nil while healthy.
func (ep *epoch) Err() error {
	select {
	case <-ep.failed:
		return ep.err
	default:
		return nil
	}
}

// fail records the first root-cause error, then closes every member
// connection and marks every member dead so enqueuers, send loops, and
// rejoin loops stop. The pendings stranded on each member are collected
// and completed by that member's failNode call (triggered by its read
// loop observing the closed connection). Idempotent; concurrent callers
// block until the first completes, so ep.err is always set when fail
// returns.
func (ep *epoch) fail(err error) {
	ep.once.Do(func() {
		ep.err = err
		close(ep.failed)
		for _, g := range ep.groups {
			g.mu.Lock()
			members := append([]*clusterNode(nil), g.members...)
			g.mu.Unlock()
			for _, n := range members {
				n.conn.Close()
				n.mu.Lock()
				n.dead = true
				n.mu.Unlock()
				n.cond.Broadcast()
			}
		}
	})
}

// minVersionFor is the protocol version a member must have negotiated
// to serve p: its op's minVer, raised to v3 once the partition has been
// written to (pre-v3 members never receive writes, so they can no
// longer prove they hold the full key set).
func (c *Cluster) minVersionFor(g *replicaGroup, p *pending) uint32 {
	v := opTable[p.op].minVer
	if v < ProtoV3 && c.ins[g.part].Load() > 0 {
		v = ProtoV3
	}
	return v
}

// insChunk is one insert chunk's fan-out accounting: the chunk is
// credited to the partition's rank-base counter only when every
// fan-out pending completed without error. Partial failures (another
// partition erroring, a replica group losing its last v3 member)
// therefore never skew the counters for writes that were not fully
// acknowledged, and writes that WERE fully acknowledged are credited
// even when a later chunk errors. Touched only by the issuing
// InsertBatch's gather loop — no locking.
type insChunk struct {
	part      int
	n         int // keys in the chunk
	remaining int // fan-out pendings not yet gathered
	failed    bool
}

// netCall is one LookupBatch call's pooled dispatch state: per-group
// accumulating pendings plus the gather channel. The channel's capacity
// always covers the call's worst-case in-flight count, so the read
// loops never block delivering a completion (which would head-of-line
// block other callers' replies on that connection).
type netCall struct {
	done  chan *pending
	accum []*pending
	// sort is the pooled radix scratch for DialOptions.SortedBatches
	// callers (unsorted input sorted client-side to join the sorted
	// pipeline).
	sort core.RadixScratch
}

// HedgeOptions groups the hedged-read knobs (see DialOptions.Hedging).
//
//dc:knobs ../../README.md
type HedgeOptions struct {
	// Quantile (0 < q < 1, e.g. 0.99) enables hedged reads: a read
	// frame still unanswered after its replica's q-quantile reply
	// latency is re-dispatched to a healthy sibling, first valid reply
	// wins, the loser's reply is discarded by request id. 0 disables
	// hedging. Writes are never hedged.
	Quantile float64
	// MinDelay floors the adaptive hedge delay (default 10ms); it is
	// also the cold-start delay before a replica has latency history.
	MinDelay time.Duration
	// Budget is the hedge tokens earned per dispatched read frame
	// (default 0.1 ≈ at most ~10% extra load from hedging); negative
	// means no replenishment. Burst caps the token bucket (default 16).
	Budget float64
	Burst  int
}

// EjectOptions groups the latency-outlier ejection knobs (see
// DialOptions.Ejection).
//
//dc:knobs ../../README.md
type EjectOptions struct {
	// Factor (> 1) enables latency-scored outlier ejection: a replica
	// whose read latency stays above Factor times its best sibling's
	// EWMA (and above MinLatency) walks the probation state machine and
	// stops taking reads until paced probe batches come back fast. 0
	// disables ejection. Ejected replicas still receive every write.
	Factor float64
	// MinLatency is the absolute floor below which a replica is never
	// considered an outlier regardless of ratios (default 1ms).
	MinLatency time.Duration
	// ProbeBackoff/ProbeMaxBackoff pace the probe batches an ejected
	// replica receives (defaults: the Rejoin values).
	ProbeBackoff    time.Duration
	ProbeMaxBackoff time.Duration
}

// RejoinOptions groups the failed-replica re-dial knobs (see
// DialOptions.Rejoin).
//
//dc:knobs ../../README.md
type RejoinOptions struct {
	// Backoff is the initial delay before a failed replica is re-dialed
	// (default 100ms); each failed attempt doubles it up to MaxBackoff
	// (default 3s), jittered so correlated failures do not re-dial in
	// lockstep.
	Backoff    time.Duration
	MaxBackoff time.Duration
}

// AdminOptions groups the operations-plane endpoint knobs (see
// DialOptions.Admin).
//
//dc:knobs ../../README.md
type AdminOptions struct {
	// Addr, when non-empty, mounts the admin HTTP endpoint (metrics,
	// stats, health, membership verbs) on that listen address for the
	// cluster's lifetime (":0" picks a free port; see Cluster.Admin).
	// The endpoint has no auth — bind it to loopback or an operator
	// network.
	Addr string
}

// DialOptions configures Dial; zero values select the documented
// defaults.
//
//dc:knobs ../../README.md
type DialOptions struct {
	// Hedging configures hedged reads.
	Hedging HedgeOptions
	// Ejection configures latency-outlier ejection.
	Ejection EjectOptions
	// Rejoin configures failed-replica re-dial backoff.
	Rejoin RejoinOptions
	// Admin configures the operations-plane HTTP endpoint.
	Admin AdminOptions

	// BatchKeys is the per-node message granularity (default 16384
	// keys = 64 KB, the paper's sweet spot).
	BatchKeys int
	// Timeout bounds each dial and the hello exchange (default 5s).
	Timeout time.Duration
	// OpTimeout bounds progress on each connection while lookups are in
	// flight: if a replica neither accepts writes nor produces a reply
	// for this long, it is treated as failed (its in-flight requests
	// fail over to a surviving replica) instead of blocking the master
	// forever. Replies and new requests extend the deadline, so
	// slow-but-alive nodes are fine. Default 10s; negative disables
	// deadlines entirely.
	OpTimeout time.Duration
	// Replicas groups a flat address list into replica sets: addrs
	// holds Replicas consecutive addresses per partition, so
	// len(addrs) must be a multiple of it. Default (and minimum) 1.
	// Ignored when the grouped "addr|addr" syntax is used.
	Replicas int
	// SortedBatches opts unsorted callers into the sorted-batch
	// pipeline: batches that are not already ascending are sorted by
	// key (pooled radix sort) before dispatch, so they too get the
	// one-sweep routing, the nodes' streaming kernels, and the v2
	// delta-coded frames. Ascending batches are always auto-detected
	// and take the sorted path regardless of this flag.
	SortedBatches bool
	// MaxVersion caps the protocol version this client advertises in
	// the hello exchange; 0 means ProtoVersion (the highest this build
	// speaks). Capping below ProtoV5 emulates an older client
	// byte-for-byte — connections then negotiate at most this version,
	// and the v5 query ops (CountRange/ScanRange/TopK/MultiGet) fail
	// with a descriptive error while rank lookups keep working.
	// Interop tests and operators staging a rollout use it.
	MaxVersion uint32
	// MaxPending bounds the outstanding frames (queued plus in flight)
	// per replica connection; read dispatch blocks politely when every
	// eligible replica is at the cap, so a gray partition degrades to
	// slower-but-correct instead of unbounded queue growth. Default
	// 1024; negative disables admission control.
	MaxPending int
	// Dialer overrides the TCP dial for every node connection (nil uses
	// net.Dialer). The context carries the dial timeout/abort. This is
	// the client-side fault-injection seam: tests and the dcq -chaos
	// drill wrap the returned conn in a faultnet profile.
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
}

// GroupAddrs expands a dial address list into one replica address set
// per partition. Two syntaxes are accepted:
//
//   - grouped: any element may pack a partition's replicas as
//     "host:a|host:b|host:c" — element i lists partition i's replicas
//     (groups may differ in size; replicas is ignored);
//   - flat: with no "|" separators, addrs holds replicas consecutive
//     addresses per partition (replicas <= 1 means one each).
func GroupAddrs(addrs []string, replicas int) ([][]string, error) {
	if len(addrs) == 0 {
		return nil, errors.New("netrun: no node addresses")
	}
	grouped := false
	for _, a := range addrs {
		if strings.Contains(a, "|") {
			grouped = true
			break
		}
	}
	if grouped {
		out := make([][]string, len(addrs))
		for i, a := range addrs {
			for _, r := range strings.Split(a, "|") {
				r = strings.TrimSpace(r)
				if r == "" {
					return nil, fmt.Errorf("netrun: partition %d has an empty replica address in %q", i, a)
				}
				out[i] = append(out[i], r)
			}
		}
		return out, nil
	}
	if replicas <= 1 {
		out := make([][]string, len(addrs))
		for i, a := range addrs {
			out[i] = []string{a}
		}
		return out, nil
	}
	if len(addrs)%replicas != 0 {
		return nil, fmt.Errorf("netrun: %d addresses do not divide into groups of %d replicas", len(addrs), replicas)
	}
	out := make([][]string, 0, len(addrs)/replicas)
	for i := 0; i < len(addrs); i += replicas {
		out = append(out, addrs[i:i+replicas])
	}
	return out, nil
}

// Dial connects to every replica of every partition of keys, performs
// the hello handshake on each, and cross-checks each node's advertised
// partition against the local routing table. addrs is one address per
// partition, extended to replica sets by DialOptions.Replicas or the
// grouped "addr|addr" syntax (see GroupAddrs); every replica of
// partition i must serve partition i.
func Dial(addrs []string, keys []workload.Key, opt DialOptions) (*Cluster, error) {
	groups, err := GroupAddrs(addrs, opt.Replicas)
	if err != nil {
		return nil, err
	}
	if opt.BatchKeys <= 0 {
		opt.BatchKeys = 16384
	}
	if opt.BatchKeys > MaxFrameWords {
		opt.BatchKeys = MaxFrameWords
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 5 * time.Second
	}
	if opt.OpTimeout == 0 {
		opt.OpTimeout = 10 * time.Second
	}
	if opt.Rejoin.Backoff <= 0 {
		opt.Rejoin.Backoff = 100 * time.Millisecond
	}
	if opt.Rejoin.MaxBackoff <= 0 {
		opt.Rejoin.MaxBackoff = 3 * time.Second
	}
	if opt.Hedging.MinDelay <= 0 {
		opt.Hedging.MinDelay = 10 * time.Millisecond
	}
	if opt.Hedging.Budget == 0 {
		opt.Hedging.Budget = 0.1
	}
	if opt.Hedging.Burst <= 0 {
		opt.Hedging.Burst = 16
	}
	if opt.Ejection.MinLatency <= 0 {
		opt.Ejection.MinLatency = time.Millisecond
	}
	if opt.Ejection.ProbeBackoff <= 0 {
		opt.Ejection.ProbeBackoff = opt.Rejoin.Backoff
	}
	if opt.Ejection.ProbeMaxBackoff <= 0 {
		opt.Ejection.ProbeMaxBackoff = opt.Rejoin.MaxBackoff
	}
	if opt.MaxPending == 0 {
		opt.MaxPending = 1024
	}
	part, err := core.NewPartitioning(keys, len(groups))
	if err != nil {
		return nil, err
	}
	c := &Cluster{groups: groups, batch: opt.BatchKeys, opt: opt, helloVer: ProtoVersion}
	c.part.Store(part)
	if opt.Hedging.Quantile > 0 && opt.Hedging.Budget > 0 {
		c.hedgeEarnMilli = int64(opt.Hedging.Budget * 1000)
	}
	c.hedgeBurstMilli = int64(opt.Hedging.Burst) * 1000
	if opt.MaxPending > 0 {
		c.maxPending = opt.MaxPending
	}
	if opt.MaxVersion > 0 && opt.MaxVersion < ProtoVersion {
		c.helloVer = opt.MaxVersion
	}
	c.tel = telemetry.NewRegistry()
	for op := range opTable {
		if row := &opTable[op]; row.pendingKind() {
			c.opHist[op] = c.tel.Histogram(`dc_client_op_ns{op="` + row.name + `"}`)
		}
	}
	nParts := len(part.Parts)
	c.ins = make([]atomic.Int64, nParts)
	c.calls.New = func() any { return &netCall{accum: make([]*pending, nParts)} }
	c.pends.New = func() any { return new(pending) }
	c.mu.Lock()
	ep, err := c.dialEpoch()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.ep.Store(ep)
	if opt.Admin.Addr != "" {
		srv, err := admin.Serve(opt.Admin.Addr, admin.Config{
			Registry:     c.tel,
			BeforeScrape: c.scrapeGauges,
			Stats:        func() any { return c.Stats() },
			Health: func() (bool, any) {
				err := c.Err()
				detail := map[string]any{"partitions": c.Nodes()}
				if err != nil {
					detail["error"] = err.Error()
				}
				return err == nil, detail
			},
			Membership: c,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.mu.Lock()
		c.adm = srv
		c.mu.Unlock()
	}
	return c, nil
}

// Admin returns the mounted admin endpoint's listen address, or "" when
// DialOptions.Admin.Addr did not mount one (or the cluster is closed).
func (c *Cluster) Admin() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.adm == nil {
		return ""
	}
	return c.adm.Addr()
}

// Telemetry is the client-side registry: per-op scatter latency
// histograms (dc_client_op_ns) recorded by the connection read loops.
func (c *Cluster) Telemetry() *telemetry.Registry { return c.tel }

// recordOp folds one reply's send-to-reply latency into the op's
// client-side histogram.
func (c *Cluster) recordOp(op uint8, d time.Duration) {
	if h := c.opHist[op]; h != nil {
		h.Observe(d)
	}
}

// scrapeGauges refreshes the computed gauges ahead of a /metrics render:
// everything an operator dashboard wants that is state, not a counter.
func (c *Cluster) scrapeGauges(r *telemetry.Registry) {
	reps := c.replicas()
	live, hedges, failures, rejoins, ejections := 0, uint64(0), uint64(0), uint64(0), uint64(0)
	for _, h := range reps {
		if h.Healthy {
			live++
		}
		hedges += h.Hedges
		failures += h.Failures
		rejoins += h.Rejoins
		ejections += h.Ejections
	}
	ins := int64(0)
	for _, v := range c.InsertedKeys() {
		ins += v
	}
	r.Gauge("dc_client_partitions").Set(int64(c.Nodes()))
	r.Gauge("dc_client_live_replicas").Set(int64(live))
	r.Gauge("dc_client_inserted_keys").Set(ins)
	r.Gauge("dc_client_hedges").Set(int64(hedges))
	r.Gauge("dc_client_replica_failures").Set(int64(failures))
	r.Gauge("dc_client_replica_rejoins").Set(int64(rejoins))
	r.Gauge("dc_client_ejections").Set(int64(ejections))
	r.Gauge("dc_client_delta_catchups").Set(c.deltaCatchups.Load())
}

// dialEpoch dials and handshakes every replica of every partition, then
// starts the per-connection send and read loops. Callers hold c.mu so
// the configured c.groups cannot be rewritten by a concurrent
// membership op mid-dial (Dial holds it too, though the cluster is not
// yet published there).
//
//dc:holds c.mu
func (c *Cluster) dialEpoch() (*epoch, error) {
	ep := &epoch{c: c, failed: make(chan struct{})}
	for pi, addrs := range c.groups {
		// Copy the configured addresses: g.addrs grows and shrinks under
		// live membership independently of the config (which the
		// membership ops rewrite under c.mu for the next dialEpoch).
		addrs := append([]string(nil), addrs...)
		g := &replicaGroup{part: pi, addrs: addrs, stats: make([]*replicaStats, len(addrs)), admitCh: make(chan struct{}, 1)}
		g.budget.Store(c.hedgeBurstMilli)
		for slot := range addrs {
			g.stats[slot] = new(replicaStats)
		}
		ep.groups = append(ep.groups, g)
		for slot := range addrs {
			n, err := c.dialNode(g, addrs[slot], g.stats[slot], nil, false)
			if err != nil {
				closeEpochNodes(ep)
				return nil, err
			}
			g.members = append(g.members, n)
		}
	}
	// Seed the rank-base correction counters from the nodes' live
	// counts (v3 hello, live minus baseline = absorbed inserts), so a
	// fresh client — or a Redial after writes whose acks were lost to
	// the failure — answers consistently against nodes an earlier
	// session wrote to. Seeding happens only here, never on rejoin: at
	// dial time this client has no insert in flight, so the advertised
	// counts cannot double-count with a later ack credit.
	//dc:ignore lockguard epoch not yet published, dial is single-threaded
	for _, g := range ep.groups {
		for _, n := range g.members {
			if d := int64(n.liveCount - n.keyCount); d > 0 {
				for {
					cur := c.ins[g.part].Load()
					if d <= cur || c.ins[g.part].CompareAndSwap(cur, d) {
						break
					}
				}
			}
		}
	}
	//dc:ignore lockguard epoch not yet published, dial is single-threaded
	for _, g := range ep.groups {
		for _, n := range g.members {
			ep.wg.Add(2)
			go n.sendLoop(ep)
			go n.readLoop(ep)
		}
	}
	if c.opt.Hedging.Quantile > 0 {
		ep.hedger = &hedger{c: c, ep: ep, wake: make(chan struct{}, 1)}
		ep.wg.Add(1)
		go ep.hedger.loop()
	}
	return ep, nil
}

// dialNode dials one replica address and verifies via the hello
// handshake that it serves the expected partition. Shared by the
// initial dial, Redial, the rejoin loop, and AddReplica. A non-nil
// abort channel cancels an in-flight dial or hello the moment it closes
// (the rejoin loop passes ep.failed, so Close never waits out a dial
// timeout against a dead replica). joinOK additionally accepts an
// unassigned join node — zero identity, protocol v6+ — which the caller
// (AddReplica) then assigns an identity with OpAddReplica before any
// loop starts.
func (c *Cluster) dialNode(g *replicaGroup, addr string, st *replicaStats, abort <-chan struct{}, joinOK bool) (*clusterNode, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var connMu sync.Mutex
	var conn net.Conn
	if abort != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-abort:
				cancel()
				connMu.Lock()
				if conn != nil {
					conn.Close()
				}
				connMu.Unlock()
			case <-stop:
			}
		}()
	}
	var dialed net.Conn
	var err error
	if c.opt.Dialer != nil {
		dctx, dcancel := context.WithTimeout(ctx, c.opt.Timeout)
		dialed, err = c.opt.Dialer(dctx, addr)
		dcancel()
	} else {
		d := net.Dialer{Timeout: c.opt.Timeout}
		dialed, err = d.DialContext(ctx, "tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("netrun: dial partition %d replica %s: %w", g.part, addr, err)
	}
	connMu.Lock()
	conn = dialed
	if abort != nil {
		select {
		case <-abort:
			// The watcher may have checked conn before it was set;
			// re-check here so an abort always closes the connection
			// (at worst the hello below fails immediately).
			conn.Close()
		default:
		}
	}
	connMu.Unlock()
	opT := c.opt.OpTimeout
	if opT < 0 {
		opT = 0
	}
	n := &clusterNode{
		g:         g,
		st:        st,
		addr:      addr,
		conn:      conn,
		bc:        newBufferedConn(conn),
		opTimeout: opT,
		pending:   map[uint32]inflight{},
	}
	n.cond = sync.NewCond(&n.mu)
	if err := hello(n, c.part.Load().Parts[g.part], c.opt.Timeout, c.helloVer, joinOK); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netrun: partition %d replica %s: %w", g.part, addr, err)
	}
	return n, nil
}

func closeEpochNodes(ep *epoch) {
	//dc:ignore lockguard only called while dialing, before the epoch is published
	for _, g := range ep.groups {
		for _, n := range g.members {
			n.conn.Close()
		}
	}
}

// exchange performs one synchronous request/reply on a connection no
// loop owns yet — the hello, and a join node's identity assignment —
// checking the reply against the request's op-table row. The returned
// payload is valid until the connection's next read.
func exchange(n *clusterNode, f Frame, timeout time.Duration) ([]uint32, error) {
	n.conn.SetDeadline(time.Now().Add(timeout))
	defer n.conn.SetDeadline(time.Time{})
	if err := n.bc.writeFrame(f); err != nil {
		return nil, err
	}
	if err := n.bc.w.Flush(); err != nil {
		return nil, err
	}
	r, err := n.bc.readFrame()
	if err != nil {
		return nil, err
	}
	row := &opTable[f.Op]
	if r.Op == OpErr {
		return nil, fmt.Errorf("node refused the %s request", row.name)
	}
	if r.Op != row.reply || !row.valid(f.Payload, r.Payload) {
		return nil, fmt.Errorf("bad %s ack (op %d, %d words)", row.name, r.Op, len(r.Payload))
	}
	return r.Payload, nil
}

func hello(n *clusterNode, want core.Partition, timeout time.Duration, ver uint32, joinOK bool) error {
	// The reqID field of the hello advertises our protocol version
	// (ProtoVersion, or the DialOptions.MaxVersion cap); a v1 node
	// ignores it and acks 4 words, a v2 node acks 5 with the negotiated
	// version appended (see the package doc).
	ack, err := exchange(n, Frame{Op: OpHello, ReqID: ver}, timeout)
	if err != nil {
		return err
	}
	n.version = ProtoV1
	if len(ack) >= 5 {
		v := ack[4]
		if v < ProtoV1 || v > ver {
			return fmt.Errorf("node negotiated unsupported protocol version %d", v)
		}
		n.version = v
	}
	if len(ack) >= 6 {
		n.liveCount = int(ack[5])
	}
	if len(ack) == 8 {
		// A durable v4 node: words 7-8 carry its chain (low word
		// first); its generation is liveCount - keyCount.
		n.chain = u64(ack[6], ack[7])
	}
	n.rankBase = int(ack[0])
	n.keyCount = int(ack[1])
	if joinOK && n.keyCount == 0 {
		// An unassigned join node (dcnode -join): it advertises the
		// zero identity until OpAddReplica names its partition. Only a
		// v6 peer can be assigned one; a real partition always has at
		// least one key, so keyCount==0 cannot be a served identity.
		if n.version < ProtoV6 {
			return fmt.Errorf("unassigned node negotiated protocol v%d; joining a live cluster needs v6", n.version)
		}
		return nil
	}
	if n.rankBase != want.RankBase || n.keyCount != len(want.Keys) {
		return fmt.Errorf("partition mismatch: node serves base=%d n=%d, routing table expects base=%d n=%d",
			n.rankBase, n.keyCount, want.RankBase, len(want.Keys))
	}
	// Shape alone doesn't prove the same key set (equal-size partitions
	// of any n keys have identical bases and counts): cross-check the
	// served key range the node advertises.
	lo, hi := workload.Key(ack[2]), workload.Key(ack[3])
	if len(want.Keys) > 0 && (lo != want.Keys[0] || hi != want.Keys[len(want.Keys)-1]) {
		return fmt.Errorf("key-set mismatch: node serves range [%d, %d], routing table expects [%d, %d] (different keys or seed?)",
			lo, hi, want.Keys[0], want.Keys[len(want.Keys)-1])
	}
	return nil
}

// failNode is the single owner of a replica's death: it closes the
// connection, drops the replica from its group (failing the epoch when
// it was the partition's last member), settles every queued and
// in-flight pending, and spawns the rejoin loop. Exactly-once per node;
// both loops and any protocol-violation path funnel through it, so a
// pending is collected by precisely one actor.
func (c *Cluster) failNode(ep *epoch, n *clusterNode, err error) {
	n.failOnce.Do(func() {
		n.stats().failures.Add(1)
		n.conn.Close()
		g := n.g
		if g.remove(n) == 0 {
			ep.fail(fmt.Errorf("netrun: partition %d lost its last replica (%s): %w", g.part, n.addr, err))
		}
		c.settlePending(ep, n, err)
		ep.goRejoin(g, n.addr, n.st)
	})
}

// settlePending takes everything a departed member still owed — hold
// queue, send queue, in-flight table — and resolves each pending by its
// op's loss policy: reads fail over, writes settle against the
// survivors, pinned catch-up and membership frames abort. Shared by
// failNode and the drain teardown; the member has already left
// g.members, and err is its cause of departure.
func (c *Cluster) settlePending(ep *epoch, n *clusterNode, err error) {
	g := n.g
	// A catching-up member's held inserts go with it: every held
	// pending was also fanned out to the surviving members, which now
	// define the group's state. hasV3 records whether a surviving
	// *full* v3 member exists: completing a swept insert as success is
	// only honest when one does. A catching-up member does not count —
	// writes fanned out before its admission are in neither its hold
	// queue nor a snapshot it can still load once its source died — so
	// those writes fail conservatively instead (the caller may retry;
	// inserts are idempotent only as multiset adds, and an error makes
	// the uncertainty explicit rather than acking a write no live node
	// holds).
	g.mu.Lock()
	held := n.holdq
	n.holdq = nil
	n.catchingUp = false
	hasV3 := false
	for _, m := range g.members {
		if m.version >= ProtoV3 && !m.catchingUp {
			hasV3 = true
			break
		}
	}
	g.mu.Unlock()
	for _, p := range n.collectPending(held) {
		row := &opTable[p.op]
		switch row.onLoss {
		case lossSettle:
			switch {
			case ep.Err() != nil:
				c.finish(p, ep.err)
			case hasV3:
				c.finish(p, nil)
			default:
				c.finish(p, fmt.Errorf("netrun: partition %d lost its last full protocol-v3 replica (%s) with a write in flight: %w", g.part, n.addr, err))
			}
		case lossAbort:
			c.finish(p, fmt.Errorf("netrun: %s pinned to partition %d replica %s interrupted: %w", row.name, g.part, n.addr, err))
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
			c.finish(p, fmt.Errorf("netrun: %s request on partition %d replica %s has no loss policy: %w", row.name, g.part, n.addr, err))
		}
	}
}

// goRejoin starts the background rejoin loop for a failed replica,
// keyed by its address and stats (not a group slot — live membership
// reshapes the group's slices), unless the epoch is already terminal.
// The wg.Add is safe against Close's Wait because every caller runs on
// a goroutine the WaitGroup already counts.
func (ep *epoch) goRejoin(g *replicaGroup, addr string, st *replicaStats) {
	select {
	case <-ep.failed:
		return
	default:
	}
	ep.wg.Add(1)
	go ep.c.rejoinLoop(ep, g, addr, st)
}

// rejoinLoop re-dials a failed replica with capped exponential backoff
// until the dial and hello verification succeed (the replica rejoins
// its group and fresh send/read loops start) or the epoch ends. Callers
// are never interrupted: rejoining only grows the healthy member set.
// A replica rejoining a partition this client has written to is stale —
// its process restarted with the baseline key set — so it first catches
// up from a sibling's snapshot (readmitWithCatchUp) before it serves
// reads; a pre-v3 replica can never catch up and keeps backing off
// until the operator replaces it.
func (c *Cluster) rejoinLoop(ep *epoch, g *replicaGroup, addr string, st *replicaStats) {
	defer ep.wg.Done()
	backoff := c.opt.Rejoin.Backoff
	for {
		select {
		case <-ep.failed:
			return
		case <-time.After(jitterBackoff(backoff)):
		}
		// A drained replica's config entry is gone: stop re-dialing it
		// (benign race — a drain racing this replica's failure leaves
		// the loop running one iteration past the removal).
		g.mu.Lock()
		configured := false
		for i, a := range g.addrs {
			if a == addr && g.stats[i] == st {
				configured = true
				break
			}
		}
		g.mu.Unlock()
		if !configured {
			return
		}
		n, err := c.dialNode(g, addr, st, ep.failed, false)
		if err != nil {
			backoff = nextBackoff(backoff, c.opt.Rejoin.MaxBackoff)
			continue
		}
		// Install under g.mu, re-checking the terminal flag: ep.fail
		// closes failed before sweeping members under the same mutex,
		// so the new member is either refused here or swept there —
		// never leaked. The no-writes decision is taken in the same mu
		// section the write fan-out uses, so a concurrent first insert
		// either precedes it (writes > 0, catch-up required) or sees
		// the freshly installed member and fans to it directly — the
		// replica can never plainly install in an in-flight write's
		// blind spot. g.writes covers this epoch; the acked counters
		// cover writes from before a Redial (the nodes retain them).
		g.mu.Lock()
		select {
		case <-ep.failed:
			g.mu.Unlock()
			n.conn.Close()
			return
		default:
		}
		if g.writes == 0 && c.ins[g.part].Load() == 0 {
			g.members = append(g.members, n)
			g.mu.Unlock()
			n.stats().rejoins.Add(1)
			ep.wg.Add(2)
			go n.sendLoop(ep)
			go n.readLoop(ep)
			return
		}
		g.mu.Unlock()
		// The group has absorbed writes: the baseline replica is stale.
		if n.version < ProtoV3 {
			// Stale forever: it cannot receive the missed writes.
			n.conn.Close()
			backoff = nextBackoff(backoff, c.opt.Rejoin.MaxBackoff)
			continue
		}
		if c.readmitWithCatchUp(ep, g, n) {
			return // admitted; failNode owns any later failure
		}
		// No snapshot source right now; retry from scratch.
		n.conn.Close()
		backoff = nextBackoff(backoff, c.opt.Rejoin.MaxBackoff)
		continue
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

// readmitWithCatchUp admits n as a catching-up member — write fan-outs
// reach it through its hold queue, reads skip it — then loads a healthy
// sibling's snapshot into it and promotes it to full membership. The
// g.mu section that admits n also enqueues the snapshot request on the
// sibling, so every concurrent write fan-out either precedes the
// snapshot request in the sibling's FIFO (and is therefore in the
// snapshot n loads) or sees n as a member (and lands in its hold queue,
// flushed after the load) — each write reaches n exactly once.
//
// When both the rejoiner and the sibling are durable v4 nodes with a
// known chain, the catch-up asks for the insert tail since the
// rejoiner's own durable position instead of the full key set
// (OpSnapshotSince): a rejoining replica already holds everything it
// fsynced before the crash, so only the writes it missed move over the
// wire. The sibling falls back to a full payload by itself when it
// compacted past that position or the chains diverge; a delta the
// rejoiner *refuses* (it durably logged writes the sibling never acked
// — divergent histories) aborts the admission with a sticky full-
// snapshot demand, because switching payload kinds mid-admission would
// let writes land twice (the hold-queue cut belongs to the original
// request).
//
// It returns false when n was not admitted (no v3 sibling to snapshot
// from; the caller retries later). Once n is admitted, every failure
// funnels through failNode — which owns cleanup and schedules the next
// rejoin — and the function returns true so the calling loop exits.
func (c *Cluster) readmitWithCatchUp(ep *epoch, g *replicaGroup, n *clusterNode) bool {
	snapP := c.getPending()
	snapP.op = OpSnapshot
	snapP.done = make(chan *pending, 1)
	g.mu.Lock()
	select {
	case <-ep.failed:
		g.mu.Unlock()
		n.conn.Close()
		c.putPending(snapP)
		return true // the epoch is over; nothing left to rejoin
	default:
	}
	var sib *clusterNode
	for i := range g.members {
		m := g.members[(g.cursor+i+1)%len(g.members)]
		if m != n && !m.catchingUp && m.version >= ProtoV3 {
			sib = m
			break
		}
	}
	if sib == nil {
		g.mu.Unlock()
		c.putPending(snapP)
		return false
	}
	useDelta := n.version >= ProtoV4 && sib.version >= ProtoV4 &&
		n.chain != 0 && sib.chain != 0 && !n.stats().forceFull.Load()
	if useDelta {
		snapP.op = OpSnapshotSince
		rejGen := uint64(n.liveCount - n.keyCount)
		snapP.keys = append(snapP.keys[:0],
			uint32(rejGen), uint32(rejGen>>32),
			uint32(n.chain), uint32(n.chain>>32))
	}
	snapP.refs.Store(2)
	if ok, _ := sib.enqueue(snapP, c.reqID.Add(1), 0); !ok {
		g.mu.Unlock()
		c.putPending(snapP)
		return false
	}
	sib.stats().dispatched.Add(1)
	n.catchingUp = true
	g.members = append(g.members, n)
	g.mu.Unlock()
	ep.wg.Add(2)
	go n.sendLoop(ep)
	go n.readLoop(ep)

	p := <-snapP.done
	err := p.err
	snapKeys := append([]uint32(nil), p.reply...)
	c.release(p)
	if err != nil {
		if useDelta {
			n.stats().forceFull.Store(true)
		}
		c.failNode(ep, n, fmt.Errorf("netrun: catch-up snapshot for partition %d: %w", g.part, err))
		return true
	}
	wasDelta := false
	loadP := c.getPending()
	if useDelta {
		if len(snapKeys) < snapDeltaHeader {
			c.failNode(ep, n, fmt.Errorf("netrun: partition %d replica %s sent a truncated positioned snapshot (%d words)", g.part, sib.addr, len(snapKeys)))
			return true
		}
		wasDelta = snapKeys[0] == snapKindDelta
		loadP.op = OpLoadAt
	} else {
		loadP.op = OpLoad
	}
	loadP.keys = append(loadP.keys, snapKeys...)
	loadP.done = make(chan *pending, 1)
	loadP.refs.Store(2)
	if ok, _ := n.enqueue(loadP, c.reqID.Add(1), 0); !ok {
		// n died already; its failNode swept the hold queue.
		c.putPending(loadP)
		return true
	}
	n.stats().dispatched.Add(1)
	p = <-loadP.done
	err = p.err
	c.release(p)
	if err != nil {
		if useDelta {
			n.stats().forceFull.Store(true)
		}
		c.failNode(ep, n, fmt.Errorf("netrun: catch-up load for partition %d: %w", g.part, err))
		return true
	}
	if wasDelta {
		c.deltaCatchups.Add(1)
	}
	n.stats().forceFull.Store(false)
	// Promote: flush the held writes onto the connection — they follow
	// the load frame in the FIFO, so the reset cannot wipe them — and
	// open the member to reads.
	g.mu.Lock()
	n.catchingUp = false
	held := n.holdq
	n.holdq = nil
	for _, hp := range held {
		if ok, _ := n.enqueue(hp, c.reqID.Add(1), 0); ok {
			n.stats().dispatched.Add(1)
		} else {
			// n died between the load ack and the flush; the survivors
			// hold the write (the insert sweep semantics).
			c.finish(hp, nil)
		}
	}
	g.mu.Unlock()
	n.stats().rejoins.Add(1)
	return true
}

// hedgeDelay is how long a read frame may sit on this replica before it
// is hedged: the partition's fastest view of its own read latency — the
// minimum of the group members' windowed quantiles — floored by
// Hedging.MinDelay (which also covers the cold start before any history),
// and capped below the op timeout so a hedge always beats a timeout.
// The group minimum rather than n's own quantile matters for exactly
// the gray case: a uniformly slow replica inflates its own quantile and
// would otherwise never look overdue to the hedger.
func (n *clusterNode) hedgeDelay(c *Cluster) time.Duration {
	d := time.Duration(n.stats().hedgeNs.Load())
	n.g.mu.Lock()
	for _, m := range n.g.members {
		if m == n || m.catchingUp {
			continue
		}
		s := m.stats()
		if s.state.Load() >= rsEjected {
			continue
		}
		if q := time.Duration(s.hedgeNs.Load()); q > 0 && (d == 0 || q < d) {
			d = q
		}
	}
	n.g.mu.Unlock()
	if d < c.opt.Hedging.MinDelay {
		d = c.opt.Hedging.MinDelay
	}
	if n.opTimeout > 0 && d > n.opTimeout/2 {
		d = n.opTimeout / 2
	}
	return d
}

// route stamps p's registration with a fresh request id and hands it to
// an eligible healthy replica of g, retrying (with restamping) across
// members until one accepts it. When the group is empty the epoch is
// failing — the member that zeroed it invokes ep.fail before route can
// observe the empty group grow stale — so waiting on ep.failed is
// bounded and p completes with the root cause. A non-empty group with
// no member eligible for p (e.g. only pre-v3 replicas left on a
// partition this client has written to) fails p alone with a
// descriptive error; the epoch stays healthy.
//
// route owns one dispatch-chain reference to p (set up by dispatch, or
// inherited from the swept chain on a failover re-route): terminal
// paths finish the chain, a successful enqueue passes the reference on
// to the connection. Hedgeable reads dispatch under the admission cap:
// when every eligible replica is at MaxPending outstanding frames,
// route parks until a slot frees instead of growing the queues.
func (c *Cluster) route(ep *epoch, g *replicaGroup, p *pending) {
	// Read p.op once, before the enqueue: a successful enqueue hands
	// the chain reference to the connection, after which p may complete
	// and recycle at any moment.
	isRead := opTable[p.op].hedge
	limit := 0
	if isRead {
		limit = c.maxPending
	}
	for {
		if err := ep.Err(); err != nil {
			c.finish(p, err)
			return
		}
		n, empty := g.pickFor(c, p, nil)
		if n == nil {
			if !empty {
				c.finish(p, fmt.Errorf("netrun: partition %d cannot serve the request: %s", g.part, g.describeIneligible(c, p)))
				return
			}
			<-ep.failed
			c.finish(p, ep.err)
			return
		}
		ok, full := n.enqueue(p, c.reqID.Add(1), limit)
		if ok {
			n.stats().dispatched.Add(1)
			if isRead {
				g.earnHedge(c)
			}
			return
		}
		if full {
			g.waitAdmit(ep)
		}
	}
}

// dispatch binds p to the issuing call and routes it to partition gi.
// From here until the last reference drops, p is shared: one reference
// belongs to the issuing call's gather loop, one to the dispatch chain.
func (c *Cluster) dispatch(ep *epoch, gi int, p *pending, out []int, done chan *pending) {
	p.out = out
	p.done = done
	p.refs.Store(2)
	c.route(ep, ep.groups[gi], p)
}

// LookupBatch routes queries to the owning partitions in batches and
// returns global ranks in query order. Safe for concurrent callers.
func (c *Cluster) LookupBatch(queries []workload.Key) ([]int, error) {
	out := make([]int, len(queries))
	if err := c.LookupBatchInto(queries, out); err != nil {
		return nil, err
	}
	return out, nil
}

// LookupBatchInto is LookupBatch writing into a caller-provided slice
// (len(out) >= len(queries)) — with the pooled dispatch state this is
// the zero-allocation steady-state entry point. Concurrent callers
// multiplex over the shared node connections by request id; replies
// scatter directly into out from the connection read loops.
//
//dc:noalloc
func (c *Cluster) LookupBatchInto(queries []workload.Key, out []int) error {
	if len(out) < len(queries) {
		return fmt.Errorf("netrun: out len %d < %d queries", len(out), len(queries))
	}
	// The pause read lock is held for the whole call (two uncontended
	// atomic ops): a partition split blocks new calls here, waits out
	// the in-flight ones, and swaps the routing table with nobody
	// mid-scatter. The epoch must be loaded under it — a call that
	// loaded the pre-split epoch after the swap would fail spuriously.
	c.pause.RLock()
	defer c.pause.RUnlock()
	ep := c.ep.Load()
	if ep == nil {
		return ErrClusterClosed
	}
	if err := ep.Err(); err != nil {
		return err
	}
	if len(queries) == 0 {
		return nil
	}

	groups := ep.groups
	nc := c.calls.Get().(*netCall)
	if len(nc.accum) < len(groups) {
		nc.accum = make([]*pending, len(groups))
	}
	// Worst-case in flight: one full batch per BatchKeys run plus one
	// final partial flush per partition. Sizing the gather channel to
	// cover it means the read loops never block completing this call
	// (failover re-dispatch never changes the completion count: each
	// pending completes exactly once).
	if need := len(queries)/c.batch + len(groups) + 1; cap(nc.done) < need {
		nc.done = make(chan *pending, need)
	}

	// Sorted-batch detection mirrors the in-process runtime: an
	// ascending run is routed with one boundary search per partition
	// delimiter instead of one Route per key, its pendings stay
	// contiguous (sequential scatter, no position array), and v2
	// connections carry them as delta-coded frames. Unsorted input
	// joins the path via the pooled radix sort when the caller opted in
	// with DialOptions.SortedBatches.
	runKeys := queries
	var runPos []int32
	sorted := core.SortedRun(queries)
	if !sorted && c.opt.SortedBatches {
		runKeys, runPos = nc.sort.SortByKey(queries)
		sorted = true
	}

	part := c.part.Load()
	inflight := 0
	if sorted {
		core.ForEachSortedRun(part.Delimiters(), runKeys, c.batch, func(gi, start, end int) {
			p := c.getPending()
			p.sorted = true
			for _, q := range runKeys[start:end] {
				p.keys = append(p.keys, uint32(q))
			}
			if runPos != nil {
				p.pos = append(p.pos, runPos[start:end]...)
			} else {
				p.contig = true
				p.posBase = start
			}
			c.dispatch(ep, gi, p, out, nc.done)
			inflight++
		})
	} else {
		for i, q := range queries {
			gi := part.Route(q)
			p := nc.accum[gi]
			if p == nil {
				p = c.getPending()
				nc.accum[gi] = p
			}
			p.keys = append(p.keys, uint32(q))
			p.pos = append(p.pos, int32(i))
			if len(p.keys) >= c.batch {
				nc.accum[gi] = nil
				c.dispatch(ep, gi, p, out, nc.done)
				inflight++
			}
		}
		for gi, p := range nc.accum[:len(groups)] {
			if p == nil {
				continue
			}
			nc.accum[gi] = nil
			c.dispatch(ep, gi, p, out, nc.done)
			inflight++
		}
	}

	var firstErr error
	for inflight > 0 {
		p := <-nc.done
		inflight--
		if p.err != nil && firstErr == nil {
			firstErr = p.err
		}
		c.release(p)
	}
	c.calls.Put(nc)
	return firstErr
}

// Insert routes k to its owning partition and applies it to every
// healthy protocol-v3 replica of that partition. See InsertBatch.
func (c *Cluster) Insert(k workload.Key) error {
	var one [1]workload.Key
	one[0] = k
	return c.InsertBatch(one[:])
}

// InsertBatch adds keys (any order, duplicates allowed) to the running
// TCP cluster. Each key routes to the partition owning its sub-range
// and the write fans out to every healthy v3 replica of that partition
// — replicas answer lookups independently, so all of them must hold
// every write. Pre-v3 replicas never receive writes (and stop serving
// this client's lookups for the partition once it has written, since
// they are stale); a replica that dies mid-insert simply leaves the
// group — the survivors define the partition's state, and the replica
// reloads a sibling's snapshot when it rejoins. InsertBatch returns
// once every live replica acked: lookups issued after it returns see
// the keys. Safe for any number of concurrent callers and concurrently
// with lookups.
//
// Durability is bounded by the v3 replica count: a write acked by a
// partition's only v3 replica is lost if that replica's storage dies
// before a sibling syncs from it (its process restarting from the
// baseline key set cannot catch up from anyone, and reads of the
// partition fail rather than serve stale ranks). Deploy at least two
// v3 replicas per partition for writes that must survive a node loss.
//
// Global ranks stay exact through the client-side insert counters (see
// Cluster.ins), which assumes this client is the deployment's only
// writer; concurrent writing clients would need the counters shared.
func (c *Cluster) InsertBatch(keys []workload.Key) error {
	c.pause.RLock()
	defer c.pause.RUnlock()
	ep := c.ep.Load()
	if ep == nil {
		return ErrClusterClosed
	}
	if err := ep.Err(); err != nil {
		return err
	}
	if len(keys) == 0 {
		return nil
	}

	groups := ep.groups
	part := c.part.Load()
	perPart := make([][]uint32, len(groups))
	for _, k := range keys {
		gi := part.Route(k)
		perPart[gi] = append(perPart[gi], uint32(k))
	}
	// Near-worst-case fan-out pendings: every chunk to every current
	// member plus slack for one concurrent AddReplica; sizing the
	// gather channel to cover it keeps the read loops from blocking on
	// completions. (A replica admitted mid-call beyond the slack only
	// stalls a read loop momentarily — this gather loop always drains.)
	bound := 0
	for gi, pk := range perPart {
		if len(pk) > 0 {
			g := groups[gi]
			g.mu.Lock()
			m := len(g.members)
			g.mu.Unlock()
			bound += (len(pk)/c.batch + 1) * (m + 1)
		}
	}
	done := make(chan *pending, bound)
	inflight := 0
	var firstErr error
	// credit counts a gathered fan-out pending against its chunk and,
	// once the chunk is fully and cleanly acked, credits the
	// partition's rank-base counter. Per-chunk (not per-call) credit
	// keeps the counters truthful under partial failure: a chunk whose
	// replicas all applied is counted even when a later chunk errors —
	// the nodes hold those keys, so the read path must shift for them
	// — while a chunk that errored is not.
	credit := func(p *pending) {
		ck := p.chunk
		if p.err != nil {
			if firstErr == nil {
				firstErr = p.err
			}
			ck.failed = true
		}
		if ck.remaining--; ck.remaining == 0 && !ck.failed {
			c.ins[ck.part].Add(int64(ck.n))
		}
		c.release(p)
	}
	for gi, pk := range perPart {
		if len(pk) == 0 {
			continue
		}
		g := groups[gi]
		for start := 0; start < len(pk); start += c.batch {
			end := min(start+c.batch, len(pk))
			chunk := pk[start:end]
			ck := &insChunk{part: gi, n: len(chunk)}
			// Fan out under g.mu: membership changes (a replica dying,
			// a rejoiner being admitted) serialize against the fan-out,
			// which is what makes the catch-up snapshot protocol
			// exactly-once (see readmitWithCatchUp).
			targets, members := 0, 0
			g.mu.Lock()
			members = len(g.members)
			for _, m := range g.members {
				if m.version < ProtoV3 {
					continue
				}
				p := c.getPending()
				p.op = OpInsert
				p.keys = append(p.keys, chunk...)
				p.done = done
				p.chunk = ck
				p.refs.Store(2)
				if m.catchingUp {
					m.holdq = append(m.holdq, p)
					targets++
					continue
				}
				if ok, _ := m.enqueue(p, c.reqID.Add(1), 0); ok {
					m.stats().dispatched.Add(1)
					targets++
				} else {
					// The member is being failed; the survivors (and
					// its own future catch-up) cover the write. p never
					// escaped, so it recycles directly.
					c.putPending(p)
				}
			}
			if targets > 0 {
				g.writes++
			}
			g.mu.Unlock()
			ck.remaining = targets
			inflight += targets
			if targets == 0 {
				var err error
				if members == 0 {
					<-ep.failed
					err = ep.err
				} else {
					err = fmt.Errorf("netrun: partition %d has no protocol-v3 replica to accept writes", gi)
				}
				if firstErr == nil {
					firstErr = err
				}
				break
			}
		}
	}
	for ; inflight > 0; inflight-- {
		credit(<-done)
	}
	return firstErr
}

// Nodes returns the number of cluster partitions (replica groups).
func (c *Cluster) Nodes() int { return len(c.part.Load().Parts) }

// replicas snapshots per-replica liveness and traffic counters for the
// current epoch, ordered by partition then configured address — the
// producer of Stats().Replicas. It returns nil after Close. Counters
// reset on Redial (a fresh epoch).
func (c *Cluster) replicas() []ReplicaHealth {
	ep := c.ep.Load()
	if ep == nil {
		return nil
	}
	type liveInfo struct {
		syncing bool
		proto   uint32
	}
	var out []ReplicaHealth
	for _, g := range ep.groups {
		g.mu.Lock()
		addrs := append([]string(nil), g.addrs...)
		stats := append([]*replicaStats(nil), g.stats...)
		live := make(map[*replicaStats]liveInfo, len(g.members))
		for _, m := range g.members {
			live[m.st] = liveInfo{syncing: m.catchingUp, proto: m.version}
		}
		g.mu.Unlock()
		for i, addr := range addrs {
			s := stats[i]
			li, alive := live[s]
			out = append(out, ReplicaHealth{
				Partition:    g.part,
				Addr:         addr,
				Healthy:      alive,
				Syncing:      li.syncing,
				Proto:        li.proto,
				Dispatched:   s.dispatched.Load(),
				Failures:     s.failures.Load(),
				Rejoins:      s.rejoins.Load(),
				State:        stateName(s.state.Load()),
				LatencyEWMA:  time.Duration(s.ewmaNs.Load()),
				Hedges:       s.hedges.Load(),
				Ejections:    s.ejections.Load(),
				Probes:       s.probes.Load(),
				Readmits:     s.readmits.Load(),
				BudgetDenied: s.budgetDenied.Load(),
			})
		}
	}
	return out
}

// InsertedKeys reports how many keys this client has inserted into each
// partition (indexed by partition id) — the counters that correct the
// nodes' static rank bases on the read path.
func (c *Cluster) InsertedKeys() []int64 {
	// The pause read lock orders this read against SplitPartition's
	// counter-slice swap.
	c.pause.RLock()
	defer c.pause.RUnlock()
	out := make([]int64, len(c.ins))
	for i := range c.ins {
		out[i] = c.ins[i].Load()
	}
	return out
}

// StatsSchemaVersion identifies the ClusterStats JSON shape; consumers
// (dashboards, dcq) check it before interpreting the tree.
const StatsSchemaVersion = 1

// ClusterStats is the unified operator-facing view of a Cluster: the
// cluster-level shape and counters plus every replica's health row, in
// one versioned tree. It is what the admin endpoint's /stats serves and
// what dcq's health report consumes.
type ClusterStats struct {
	SchemaVersion int `json:"schema_version"`
	// Partitions is the current partition count (grows by one per
	// SplitPartition).
	Partitions int `json:"partitions"`
	// Protocol is the version this client advertises in hellos
	// (ProtoVersion, or the DialOptions.MaxVersion cap).
	Protocol uint32 `json:"protocol"`
	// InsertedKeys is the per-partition rank-base correction counters.
	InsertedKeys []int64 `json:"inserted_keys"`
	// DeltaCatchups counts rejoins completed via the positioned delta
	// path rather than a full snapshot load.
	DeltaCatchups int64           `json:"delta_catchups"`
	Replicas      []ReplicaHealth `json:"replicas"`
}

// Stats assembles the unified stats tree (see ClusterStats).
func (c *Cluster) Stats() ClusterStats {
	return ClusterStats{
		SchemaVersion: StatsSchemaVersion,
		Partitions:    c.Nodes(),
		Protocol:      c.helloVer,
		InsertedKeys:  c.InsertedKeys(),
		DeltaCatchups: c.deltaCatchups.Load(),
		Replicas:      c.replicas(),
	}
}

// errReplicaDrained is the cause a drained member's swept pendings see.
var errReplicaDrained = errors.New("netrun: replica drained")

// errSplitReconfig retires the pre-split epoch once every node of the
// split partition acked its new identity: the connections must
// re-handshake against the new routing table, so the old epoch's loops
// are torn down wholesale (the same mechanism Redial rides, except
// SplitPartition immediately dials the successor epoch itself).
var errSplitReconfig = errors.New("netrun: epoch retired by partition split")

// AddReplica joins a new replica at addr into partition part's group
// without restarting the epoch. The node may be an unassigned join node
// (dcnode -join, serving the zero identity until assigned) — AddReplica
// hands it the partition's identity over OpAddReplica before any loop
// starts — or a node already serving the exact identity, which passes
// the ordinary hello cross-check. A partition that has absorbed writes
// admits the newcomer through the same catch-up machinery rejoins use:
// it takes writes immediately (hold queue) but serves no reads until a
// sibling's snapshot lands. Requires a protocol-v6 node; returns an
// error when the dial, handshake, or identity assignment fails — once
// the address is registered, later failures are the rejoin loop's to
// retry, and AddReplica reports success.
func (c *Cluster) AddReplica(part int, addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClusterClosed
	}
	ep := c.ep.Load()
	if ep == nil {
		return ErrClusterClosed
	}
	if err := ep.Err(); err != nil {
		return err
	}
	pt := c.part.Load()
	if part < 0 || part >= len(pt.Parts) {
		return fmt.Errorf("netrun: partition %d out of range [0,%d)", part, len(pt.Parts))
	}
	g := ep.groups[part]
	g.mu.Lock()
	for _, a := range g.addrs {
		if a == addr {
			g.mu.Unlock()
			return fmt.Errorf("netrun: partition %d already has replica %s", part, addr)
		}
	}
	g.mu.Unlock()

	st := new(replicaStats)
	n, err := c.dialNode(g, addr, st, nil, true)
	if err != nil {
		return err
	}
	if n.version < ProtoV6 {
		n.conn.Close()
		return fmt.Errorf("netrun: partition %d: replica %s speaks protocol v%d; live membership needs v6", part, addr, n.version)
	}
	want := pt.Parts[part]
	if n.keyCount == 0 {
		// Unassigned join node: assign the identity synchronously,
		// before the loops take over the connection.
		ack, aerr := exchange(n, Frame{Op: OpAddReplica, ReqID: c.reqID.Add(1), Payload: []uint32{
			uint32(want.RankBase), uint32(len(want.Keys)),
			uint32(want.Keys[0]), uint32(want.Keys[len(want.Keys)-1]),
		}}, c.opt.Timeout)
		if aerr != nil {
			n.conn.Close()
			return fmt.Errorf("netrun: partition %d replica %s: assigning identity: %w", part, addr, aerr)
		}
		if int(ack[0]) != len(want.Keys) {
			n.conn.Close()
			return fmt.Errorf("netrun: partition %d replica %s acked %v for identity assignment, want [%d]", part, addr, ack, len(want.Keys))
		}
		n.rankBase, n.keyCount, n.liveCount = want.RankBase, len(want.Keys), len(want.Keys)
	}

	// Register the address: Stats lists it, a later failure re-dials
	// it, and the rewritten config carries it into the next dialEpoch.
	// Plain admission is sound only while the partition is pristine
	// (no write fanned out this epoch, no insert recorded); decided in
	// the same g.mu section the write fan-out uses, exactly like the
	// rejoin path.
	g.mu.Lock()
	g.addrs = append(g.addrs, addr)
	g.stats = append(g.stats, st)
	pristine := g.writes == 0 && c.ins[part].Load() == 0
	if pristine {
		select {
		case <-ep.failed:
			g.mu.Unlock()
			n.conn.Close()
			return ep.err
		default:
		}
		g.members = append(g.members, n)
	}
	g.mu.Unlock()
	c.groups[part] = append(c.groups[part], addr)
	if pristine {
		// The wg.Add cannot race Close's or Redial's Wait: both take
		// c.mu first, which this call holds.
		ep.wg.Add(2)
		go n.sendLoop(ep)
		go n.readLoop(ep)
		return nil
	}
	// The partition absorbed writes this baseline node never saw: admit
	// it through the catch-up path (writes flow to its hold queue, reads
	// skip it until a sibling's snapshot lands). A join node carries no
	// durable chain, so this always takes the full-snapshot payload.
	if !c.readmitWithCatchUp(ep, g, n) {
		// No snapshot source right now. The address is configured, so a
		// rejoin loop finishes the admission in the background.
		n.conn.Close()
		ep.goRejoin(g, addr, st)
	}
	return nil
}

// DrainReplica removes the replica at addr from partition part's group
// without restarting the epoch: the address is deconfigured (so no
// rejoin loop resurrects it), the node is quiesced over OpDrainReplica
// (v6 — it stops absorbing writes and keeps its final state), and the
// member's outstanding work is settled exactly the way a failed
// replica's is — reads fail over to siblings, acked writes stand. The
// node process itself keeps running and serving its index; it is simply
// no longer part of this cluster. Draining the partition's only
// configured replica, or its last live one, is refused.
func (c *Cluster) DrainReplica(part int, addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClusterClosed
	}
	ep := c.ep.Load()
	if ep == nil {
		return ErrClusterClosed
	}
	if err := ep.Err(); err != nil {
		return err
	}
	pt := c.part.Load()
	if part < 0 || part >= len(pt.Parts) {
		return fmt.Errorf("netrun: partition %d out of range [0,%d)", part, len(pt.Parts))
	}
	g := ep.groups[part]

	g.mu.Lock()
	idx := -1
	for i, a := range g.addrs {
		if a == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		g.mu.Unlock()
		return fmt.Errorf("netrun: partition %d has no replica %s", part, addr)
	}
	if len(g.addrs) == 1 {
		g.mu.Unlock()
		return fmt.Errorf("netrun: refusing to drain partition %d's only replica %s", part, addr)
	}
	var target *clusterNode
	for _, m := range g.members {
		if m.addr == addr {
			target = m
			break
		}
	}
	if target != nil {
		if len(g.members) == 1 {
			g.mu.Unlock()
			return fmt.Errorf("netrun: refusing to drain partition %d's last live replica %s (its siblings are down)", part, addr)
		}
		if target.version < ProtoV6 {
			g.mu.Unlock()
			return fmt.Errorf("netrun: partition %d: replica %s speaks protocol v%d; live membership needs v6", part, addr, target.version)
		}
	}
	// Deconfigure the address (a rejoin loop exits at its configured
	// check) and stop dispatching new work to the member.
	g.addrs = append(g.addrs[:idx], g.addrs[idx+1:]...)
	g.stats = append(g.stats[:idx], g.stats[idx+1:]...)
	if target != nil {
		for i, m := range g.members {
			if m == target {
				g.members = append(g.members[:i], g.members[i+1:]...)
				break
			}
		}
	}
	g.mu.Unlock()
	for i, a := range c.groups[part] {
		if a == addr {
			c.groups[part] = append(append([]string(nil), c.groups[part][:i]...), c.groups[part][i+1:]...)
			break
		}
	}
	if target == nil {
		// The replica was already down: deconfiguring it is the whole
		// drain.
		return nil
	}

	// Quiesce the node: after the ack it accepts no further writes, so
	// nothing this cluster does can change state it no longer reports.
	p := c.getPending()
	p.op = OpDrainReplica
	p.done = make(chan *pending, 1)
	p.refs.Store(2)
	var drainErr error
	if ok, _ := target.enqueue(p, c.reqID.Add(1), 0); ok {
		target.stats().dispatched.Add(1)
		r := <-p.done
		drainErr = r.err
		c.release(r)
	} else {
		c.putPending(p)
		drainErr = fmt.Errorf("netrun: partition %d replica %s died mid-drain", part, addr)
	}

	// Tear the member down exactly once. Losing the failOnce race to a
	// concurrent failNode is fine: the sweep ran there, and its rejoin
	// loop exits at the deconfigured address.
	target.failOnce.Do(func() {
		target.conn.Close()
		c.settlePending(ep, target, errReplicaDrained)
	})
	return drainErr
}

// SplitPartition divides partition part in two at the median of its
// baseline keys, retargeting the partition's replicas onto the halves
// live: the data plane pauses (in-flight calls drain, new ones block),
// every replica of the partition swaps to its assigned half-identity
// over OpSplitPartition, the routing table and insert counters are
// rebuilt, and a fresh connection epoch is dialed against the new
// shape. Reads and writes resume against the split layout; checksums
// are unchanged because every live key keeps exactly one owner (the
// split key assignment matches the new routing delimiter exactly).
//
// The partition's replicas divide between the halves (low half gets the
// ceiling), so the group must have at least two members; every group in
// the cluster must be full and settled (the reshape re-dials everyone);
// and the split partition's members must all speak protocol v6. A
// failure after some nodes retargeted leaves mixed identities no single
// routing table matches: the epoch fails with the root cause and the
// operator restores the partition's nodes before Redial.
func (c *Cluster) SplitPartition(part int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClusterClosed
	}
	ep := c.ep.Load()
	if ep == nil {
		return ErrClusterClosed
	}
	if err := ep.Err(); err != nil {
		return err
	}
	pt := c.part.Load()
	if part < 0 || part >= len(pt.Parts) {
		return fmt.Errorf("netrun: partition %d out of range [0,%d)", part, len(pt.Parts))
	}
	// Quiesce the data plane for the whole reshape: new calls block at
	// the pause read lock, in-flight ones drain before Lock returns.
	c.pause.Lock()
	defer c.pause.Unlock()

	// Preflight. Refusals here leave the cluster untouched.
	for _, g := range ep.groups {
		g.mu.Lock()
		full := len(g.members) == len(g.addrs)
		settled := true
		for _, m := range g.members {
			if m.catchingUp {
				settled = false
			}
		}
		g.mu.Unlock()
		if !full || !settled {
			return fmt.Errorf("netrun: partition %d has a down or syncing replica; a split re-dials every node, so the cluster must be fully healthy first", g.part)
		}
	}
	tg := ep.groups[part]
	tg.mu.Lock()
	addrs := append([]string(nil), tg.addrs...)
	byAddr := make(map[string]*clusterNode, len(tg.members))
	for _, m := range tg.members {
		byAddr[m.addr] = m
	}
	tg.mu.Unlock()
	if len(addrs) < 2 {
		return fmt.Errorf("netrun: partition %d has %d replica(s); a split needs at least one per half", part, len(addrs))
	}
	for _, a := range addrs {
		m := byAddr[a]
		if m == nil {
			return fmt.Errorf("netrun: partition %d replica %s went down mid-preflight", part, a)
		}
		if m.version < ProtoV6 {
			return fmt.Errorf("netrun: partition %d: replica %s speaks protocol v%d; live membership needs v6", part, a, m.version)
		}
	}

	keys := pt.Parts[part].Keys
	cut, ok := core.SplitPoint(keys)
	if !ok {
		return fmt.Errorf("netrun: partition %d cannot split: every baseline key is equal, no legal delimiter exists", part)
	}
	npt, err := pt.SplitAt(part, cut)
	if err != nil {
		return err
	}
	lo, hi := npt.Parts[part], npt.Parts[part+1]
	// splitKey assigns the nodes' live keys (baseline plus inserts): the
	// low node keeps k <= splitKey, the high node keeps k > splitKey.
	// keys[cut]-1 makes that assignment agree exactly with the new
	// routing delimiter keys[cut] (the high partition owns k >=
	// keys[cut]): keys inserted strictly between keys[cut-1] and
	// keys[cut] route low, so they must stay on the low node.
	splitKey := uint32(keys[cut]) - 1

	// Retarget every replica at its half: the first ceil(n/2) configured
	// addresses keep the low half, the rest the high half.
	done := make(chan *pending, len(addrs))
	loCount := (len(addrs) + 1) / 2
	sent := 0
	var opErr error
	for i, a := range addrs {
		half, keep := lo, uint32(0)
		if i >= loCount {
			half, keep = hi, 1
		}
		p := c.getPending()
		p.op = OpSplitPartition
		p.keys = append(p.keys,
			uint32(half.RankBase), uint32(len(half.Keys)),
			uint32(half.Keys[0]), uint32(half.Keys[len(half.Keys)-1]),
			splitKey, keep)
		p.done = done
		p.refs.Store(2)
		if ok, _ := byAddr[a].enqueue(p, c.reqID.Add(1), 0); !ok {
			c.putPending(p)
			opErr = fmt.Errorf("netrun: partition %d replica %s died before its split frame was sent", part, a)
			break
		}
		byAddr[a].stats().dispatched.Add(1)
		sent++
	}
	for ; sent > 0; sent-- {
		r := <-done
		if r.err != nil && opErr == nil {
			opErr = r.err
		}
		c.release(r)
	}
	if opErr != nil {
		ep.fail(fmt.Errorf("netrun: partition %d split failed mid-reshape; node identities may be mixed — restore or restart the partition's nodes, then Redial: %w", part, opErr))
		ep.wg.Wait()
		return opErr
	}

	// Every node acked its half: retire the epoch and dial the successor
	// against the new table. The WaitGroup barrier orders every
	// old-epoch goroutine before the swaps below, which is what makes
	// the plain-slice counter swap race-free.
	ep.fail(errSplitReconfig)
	ep.wg.Wait()
	c.part.Store(npt)
	ng := make([][]string, 0, len(c.groups)+1)
	for i, as := range c.groups {
		if i == part {
			ng = append(ng,
				append([]string(nil), addrs[:loCount]...),
				append([]string(nil), addrs[loCount:]...))
		} else {
			ng = append(ng, as)
		}
	}
	c.groups = ng
	// Fresh counters sized to the new partition count: dialEpoch's hello
	// seeding reconstructs each half's insert total from the nodes'
	// live-minus-baseline counts (writes were quiesced by the pause, so
	// no ack credit can race the seed).
	c.ins = make([]atomic.Int64, len(npt.Parts))
	nep, err := c.dialEpoch()
	if err != nil {
		// The config and routing table are already post-split and
		// mutually consistent; Redial retries the dial against them.
		return fmt.Errorf("netrun: partition %d split committed but the re-dial failed (Redial retries it): %w", part, err)
	}
	c.ep.Store(nep)
	return nil
}

// Err reports the cluster's terminal state: nil while healthy (single-
// replica failures are absorbed by failover and never surface here),
// ErrClusterClosed after Close, or the root-cause error after a
// partition lost its last replica (until Redial re-establishes the
// connections).
func (c *Cluster) Err() error {
	ep := c.ep.Load()
	if ep == nil {
		return ErrClusterClosed
	}
	return ep.Err()
}

// Redial tears down a failed connection set and dials a fresh one to
// the original addresses, re-running the hello verification on every
// replica. It is the opt-in recovery path from a terminal failure — a
// partition that lost every replica — and errors if the cluster is
// healthy (single-replica failures rejoin on their own) or closed.
func (c *Cluster) Redial() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClusterClosed
	}
	if old := c.ep.Load(); old != nil {
		if old.Err() == nil {
			return errors.New("netrun: Redial on a healthy cluster")
		}
		old.wg.Wait()
	}
	ep, err := c.dialEpoch()
	if err != nil {
		return err
	}
	c.ep.Store(ep)
	return nil
}

// Close fails the connection set with ErrClusterClosed (completing any
// in-flight calls with that error) and waits for the per-connection
// loops and rejoin loops to exit. Idempotent; Redial after Close is
// refused.
func (c *Cluster) Close() {
	c.mu.Lock()
	c.closed = true
	ep := c.ep.Swap(nil)
	adm := c.adm
	c.adm = nil
	c.mu.Unlock()
	if adm != nil {
		adm.Close()
	}
	if ep != nil {
		ep.fail(ErrClusterClosed)
		ep.wg.Wait()
	}
}
