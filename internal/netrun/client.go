package netrun

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
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
// the caller's: Close, then Dial again. Per-replica liveness and traffic
// counters are reported by Stats.
//
// Write model: Insert/InsertBatch route keys to the owning partition
// and fan each write out to every connected replica of that group —
// every node takes writes; a replica that dies mid-write leaves the
// group (the survivors define the state) and reloads a sibling's
// snapshot when it rejoins, before it serves reads again. Ranks are
// exact whoever wrote: a node answers with its static rank base, and
// each rank call corrects that base from the live key counts of the
// partitions below, asked in the same call (see LookupBatchInto).
type Cluster struct {
	// part is the live routing table. It is swapped atomically by
	// SplitPartition (under the pause write lock, with no data call in
	// flight), so every data-path call loads it once and works against
	// one consistent table.
	part atomic.Pointer[core.Partitioning]
	// groups is the configured replica address list, one slice per
	// partition: what the next dialEpoch dials. Membership ops rewrite
	// it; the running epoch keeps its own record per address (replica).
	groups [][]string //dc:guardedby mu
	batch  int
	// opt is the dial options with every default resolved.
	opt DialOptions

	calls sync.Pool // *netCall
	pends sync.Pool // *pending
	asks  sync.Pool // *pending, a rank call's count asks (getAsk)
	reqID atomic.Uint32

	// ins[p] counts the keys this client inserted into partition p,
	// bumped once every replica acked a chunk of them: a stat
	// (InsertedKeys), which no rank reads.
	ins []atomic.Int64

	ep atomic.Pointer[epoch]

	// deltaCatchups counts rejoins completed via the positioned
	// delta path (as opposed to full-snapshot loads); tests assert the
	// cheap path actually ran.
	deltaCatchups atomic.Int64

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
	// path's zero-allocation property.
	pause sync.RWMutex

	// mu serializes Close and the membership ops. Close leaves ep nil,
	// which is what "closed" means.
	mu sync.Mutex
}

// Lock order for the whole client, outermost first. Cluster.mu (Close,
// the membership verbs) is taken before the pause gate; data-path calls
// hold the gate's read side while they take a group's mu to choose a
// target or fan a write out; and a group's mu is held while a
// connection's mu is taken to enqueue — by target choice, the write
// fan-out, admission and the catch-up flush alike. Departure drops the
// group's mu before it sweeps the connection. The reverse of any pair
// would deadlock against these paths, and lockguard rejects it. A
// connection's hedge clock reads its group's delay before it takes the
// connection's mu, and re-dispatches only after releasing it.
//
//dc:lockorder Cluster.mu Cluster.pause
//dc:lockorder Cluster.mu replicaGroup.mu
//dc:lockorder Cluster.pause replicaGroup.mu
//dc:lockorder replicaGroup.mu clusterNode.mu

// epoch is one generation of node connections. A terminal failure
// poisons the epoch, never the Cluster value itself: SplitPartition
// installs a fresh epoch while calls racing the retired one keep draining
// it.
type epoch struct {
	c      *Cluster
	groups []*replicaGroup
	wg     sync.WaitGroup
	// ctx is cancelled on terminal failure, with the root cause as its
	// cancellation cause. Rejoin dials and admission waits stop on it.
	ctx    context.Context
	cancel context.CancelCauseFunc
}

// Err returns the epoch's terminal error, or nil while healthy.
func (ep *epoch) Err() error {
	select {
	case <-ep.ctx.Done():
		return context.Cause(ep.ctx)
	default:
		return nil
	}
}

// fail records the first root-cause error, then closes every connection
// and marks it dead so enqueuers, send loops, and rejoin loops stop. The
// pendings stranded on each connection are collected and completed by
// its failNode call (triggered by its read loop observing the closed
// connection). Idempotent: the first cause wins, and a repeated sweep
// finds nothing left to close.
func (ep *epoch) fail(err error) {
	ep.cancel(err)
	for _, g := range ep.groups {
		for _, n := range g.nodes() {
			n.conn.Close()
			n.mu.Lock()
			n.dead = true
			n.mu.Unlock()
			n.cond.Broadcast()
		}
	}
}

// ReplicaHealth is one replica's liveness and traffic counters within
// the current epoch (see ClusterStats.Replicas). The JSON shape is part of the
// versioned ClusterStats tree (see StatsSchemaVersion).
type ReplicaHealth struct {
	// Partition is the partition this replica serves.
	Partition int `json:"partition"`
	// Addr is the replica's configured address.
	Addr string `json:"addr"`
	// Healthy reports whether the replica currently has a live
	// connection — every lifecycle state but down (see replica.go).
	Healthy bool `json:"healthy"`
	// Syncing reports that the replica is connected but mid-catch-up: it
	// receives writes (via its hold queue) but serves no reads until
	// the sibling snapshot load completes.
	Syncing bool `json:"syncing"`
	// Proto is the protocol version this replica's live connection
	// negotiated (0 while the replica is down). Mid-rollout it tells an
	// operator which replicas can take the membership verbs.
	Proto uint32 `json:"proto"`
	// Dispatched counts request frames handed to this replica: reads,
	// a rank call's count asks and writes alike.
	Dispatched uint64 `json:"dispatched"`
	// Failures counts times the replica's connection failed and it went
	// down.
	Failures uint64 `json:"failures"`
	// Rejoins counts times a connection was restored to it: a plain
	// rejoin, or a completed catch-up.
	Rejoins uint64 `json:"rejoins"`
	// State is the latency-probation view of the replica's lifecycle
	// state: "suspect", "ejected" or "probing" in those states and
	// "healthy" in every other (liveness is Healthy and Syncing's
	// business). Always "healthy" unless DialOptions.Ejection enabled
	// latency-scored ejection.
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

// insChunk is one insert chunk's fan-out accounting: the chunk is
// counted in the partition's inserted-key stat only when every fan-out
// pending completed without error. Partial failures (another partition
// erroring, a replica group losing its last member) therefore never
// count writes that were not fully acknowledged, and writes that WERE
// fully acknowledged are counted even when a later chunk errors. Touched
// only by the issuing InsertBatch's gather loop — no locking.
type insChunk struct {
	part      int
	n         int // keys in the chunk
	remaining int // fan-out pendings not yet gathered
	failed    bool
}

// netCall is one call's pooled dispatch state: the plan that splits its
// keys or ranges into pendings, the pendings it composes from, and the
// gather channel. The channel's capacity always covers the call's
// worst-case in-flight count, so the read loops never block delivering a
// completion (which would head-of-line block other callers' replies on
// that connection).
type netCall struct {
	done chan *pending
	// pends is every pending of the call without an out slice — a count
	// batch's, a scan's or a top-k's, a rank call's count asks — in the
	// order the call composes them.
	pends []*pending
	plan  core.Plan[uint32, *pending]
	// base is a rank call's correction scratch: per partition, the live
	// keys of the partitions below it.
	base []int
}

// HedgeOptions groups the hedged-read knobs (see DialOptions.Hedging).
//
//dc:knobs ../../README.md
type HedgeOptions struct {
	// Quantile (0 < q < 1, e.g. 0.99) enables hedged reads: a read
	// frame still unanswered after its partition's q-quantile reply
	// latency (never less than 10ms, which is also the delay before any
	// latency history exists) is re-dispatched to a healthy sibling,
	// first valid reply wins, the loser's reply is discarded by request
	// id. 0 disables hedging; Dial refuses any other value (negative,
	// NaN, 1 or more). Writes are never hedged. Each partition's
	// hedges are paid from a token bucket: a dispatched read frame
	// earns 0.1 token, a hedge costs one, and the bucket holds at most
	// 16 (at most ~10% extra load from hedging).
	Quantile float64
}

// The dial values no program sets, at their defaults; variables only so
// the drills can lower them:
//   - dialTimeout bounds each dial and its hello exchange;
//   - a failed replica is re-dialed after rejoinBackoff, doubled on each
//     failed attempt up to rejoinMaxBackoff and jittered so correlated
//     failures do not re-dial in lockstep; the same envelope paces an
//     ejected replica's probes.
var (
	dialTimeout      = 5 * time.Second
	rejoinBackoff    = 100 * time.Millisecond
	rejoinMaxBackoff = 3 * time.Second
)

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
	// Ejection enables latency-scored outlier ejection: a replica whose
	// read latency stays above 4 times its best sibling's EWMA (and
	// above 1ms) walks the probation states of the replica lifecycle
	// and stops taking reads until probe batches, paced by the rejoin
	// backoff, come back fast. Ejected replicas still receive every
	// write.
	Ejection bool
	// Admin configures the operations-plane HTTP endpoint.
	Admin AdminOptions

	// BatchKeys is the per-node message granularity (default 16384
	// keys = 64 KB, the paper's sweet spot).
	BatchKeys int
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
	if !slices.ContainsFunc(addrs, func(a string) bool { return strings.Contains(a, "|") }) {
		replicas = max(replicas, 1)
		if len(addrs)%replicas != 0 {
			return nil, fmt.Errorf("netrun: %d addresses do not divide into groups of %d replicas", len(addrs), replicas)
		}
		return slices.Collect(slices.Chunk(addrs, replicas)), nil
	}
	out := make([][]string, len(addrs))
	for i, a := range addrs {
		for _, r := range strings.Split(a, "|") {
			if r = strings.TrimSpace(r); r == "" {
				return nil, fmt.Errorf("netrun: partition %d has an empty replica address in %q", i, a)
			}
			out[i] = append(out[i], r)
		}
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
	if q := opt.Hedging.Quantile; q != 0 && !(q > 0 && q < 1) {
		return nil, fmt.Errorf("netrun: Hedging.Quantile %v is outside (0, 1) (0 turns hedging off)", q)
	}
	groups, err := GroupAddrs(addrs, opt.Replicas)
	if err != nil {
		return nil, err
	}
	if opt.BatchKeys <= 0 {
		opt.BatchKeys = core.DefaultBatchKeys
	}
	if opt.BatchKeys > MaxFrameWords {
		opt.BatchKeys = MaxFrameWords
	}
	if opt.OpTimeout == 0 {
		opt.OpTimeout = 10 * time.Second
	}
	if opt.Dialer == nil {
		opt.Dialer = func(ctx context.Context, addr string) (net.Conn, error) {
			return new(net.Dialer).DialContext(ctx, "tcp", addr)
		}
	}
	part, err := core.NewPartitioning(keys, len(groups))
	if err != nil {
		return nil, err
	}
	c := &Cluster{groups: groups, batch: opt.BatchKeys, opt: opt}
	c.part.Store(part)
	c.tel = telemetry.NewRegistry()
	for op := range opTable {
		if row := &opTable[op]; row.pendingKind() {
			c.opHist[op] = c.tel.Histogram(`dc_client_op_ns{op="` + row.name + `"}`)
		}
	}
	nParts := len(part.Parts)
	c.ins = make([]atomic.Int64, nParts)
	c.calls.New = func() any { return new(netCall) }
	c.pends.New = func() any { return new(pending) }
	c.asks.New = func() any {
		return &pending{op: OpCountRange, keys: []uint32{0, math.MaxUint32}, ask: true}
	}
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

// dialEpoch builds one record per configured address, then dials and
// handshakes every one and admits the connection (which starts its send
// and read loops). Callers hold c.mu so the configured c.groups cannot
// be rewritten by a concurrent membership op mid-dial (Dial holds it
// too, though the cluster is not yet published there).
//
//dc:holds c.mu
func (c *Cluster) dialEpoch() (*epoch, error) {
	ep := &epoch{c: c}
	ep.ctx, ep.cancel = context.WithCancelCause(context.Background())
	// The whole structure exists before the first loop starts: a
	// connection that drops mid-dial departs (and may fail the epoch)
	// against complete groups.
	var all []*replica
	for pi, addrs := range c.groups {
		g := &replicaGroup{part: pi, budget: hedgeBurstMilli, admitCh: make(chan struct{}, 1)}
		for _, addr := range addrs {
			g.replicas = append(g.replicas, &replica{g: g, addr: addr})
		}
		all = append(all, g.replicas...)
		ep.groups = append(ep.groups, g)
	}
	written := make([]bool, len(ep.groups))
	for _, r := range all {
		n, err := c.dialNode(ep.ctx, r, false)
		if err == nil {
			// A live count above the baseline: some client wrote here.
			written[r.g.part] = written[r.g.part] || n.liveCount > n.keyCount
			err = c.admit(ep, r, n, evDial)
		}
		if err != nil {
			// The epoch's own cause wins: a partition that lost its last
			// connection mid-dial explains the aborted dials after it.
			ep.fail(err)
			ep.wg.Wait()
			return nil, ep.Err()
		}
	}
	// From here on a replica that (re)connects must prove it holds the
	// inserts the nodes reported: admission turns into catch-up.
	for _, g := range ep.groups {
		g.mu.Lock()
		g.written = written[g.part]
		g.mu.Unlock()
	}
	return ep, nil
}

// dialNode dials one replica address and verifies via the hello
// handshake that it serves the expected partition. Shared by the
// epoch's dial, the rejoin loop, and AddReplica. Cancelling ctx aborts
// an in-flight dial or hello at once (callers pass the epoch's context,
// so Close never waits out a dial timeout against a dead replica).
// joinOK additionally accepts an unassigned join node — zero identity —
// which the caller (AddReplica) then assigns an identity with
// OpAddReplica before any loop starts.
func (c *Cluster) dialNode(ctx context.Context, r *replica, joinOK bool) (*clusterNode, error) {
	part := r.g.part
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	conn, err := c.opt.Dialer(dctx, r.addr)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("netrun: dial partition %d replica %s: %w", part, r.addr, err)
	}
	// An abort mid-hello closes the connection under it.
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	n := &clusterNode{
		r:         r,
		conn:      conn,
		bc:        newBufferedConn(conn),
		opTimeout: max(c.opt.OpTimeout, 0),
		pending:   map[uint32]inflight{},
	}
	n.cond = sync.NewCond(&n.mu)
	if c.opt.Hedging.Quantile > 0 {
		// Parked until sendLoop registers the first hedgeable read.
		n.hedgeT = time.AfterFunc(time.Hour, func() { n.hedgeDue(c) })
		n.hedgeT.Stop()
	}
	if err := hello(n, c.part.Load().Parts[part], dialTimeout, joinOK); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netrun: partition %d replica %s: %w", part, r.addr, err)
	}
	return n, nil
}

// exchange performs one synchronous request/reply on a connection no
// loop owns yet — the hello, and a join node's identity assignment —
// checking the reply against the request's op-table row. Both replies
// are a few words, returned decoded.
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
	e := elems(r.Raw)
	if r.Op != row.reply || !row.valid(f.Payload, e) {
		return nil, fmt.Errorf("bad %s ack (op %d, %d words)", row.name, r.Op, e.len())
	}
	return decodeWords[uint32](e, nil), nil
}

// cannot says why connection n may not be sent op — it negotiated less
// than the op's version, or the op needs a durable node and this one is
// not — or nil.
func (n *clusterNode) cannot(op uint8) error {
	row, why := &opTable[op], ""
	switch {
	case n.version < row.minVer:
		why = fmt.Sprintf("speaks protocol v%d; %s needs v%d", n.version, row.name, row.minVer)
	case row.durable && !n.durable:
		why = fmt.Sprintf("is not durable; %s needs a durable replica", row.name)
	default:
		return nil
	}
	return fmt.Errorf("netrun: partition %d: replica %s %s", n.r.g.part, n.r.addr, why)
}

func hello(n *clusterNode, want core.Partition, timeout time.Duration, joinOK bool) error {
	// The reqID field of the hello advertises our protocol version; the
	// ack's fifth word is what the node settled on, and its length what
	// the node is (see the package doc).
	ack, err := exchange(n, Frame{Op: OpHello, ReqID: ProtoVersion}, timeout)
	if err != nil {
		return err
	}
	n.version = 1 // four words carry no version: the first protocol's ack
	if len(ack) > 4 {
		n.version = ack[4]
	}
	if n.version < MinProtoVersion || n.version > ProtoVersion {
		return errVersion("the node speaks", n.version)
	}
	if len(ack) < 6 {
		return errors.New("the hello ack has no live key count: a read-only node of an earlier build; this build has none")
	}
	n.rankBase = int(ack[0])
	n.keyCount = int(ack[1])
	n.liveCount = int(ack[5])
	if n.liveCount < n.keyCount {
		// Inserts only add keys, so a count below the baseline is no
		// state a node can be in; trusted, it would underflow a durable
		// node's generation (liveCount - keyCount).
		return fmt.Errorf("the hello ack's live key count %d is below the node's baseline %d", n.liveCount, n.keyCount)
	}
	if len(ack) == 8 {
		// A durable node's chain, low word first; its generation is
		// liveCount - keyCount.
		n.durable, n.chain = true, u64(ack[6], ack[7])
	}
	if joinOK && n.keyCount == 0 {
		// An unassigned join node (dcnode -join): it advertises the
		// zero identity until OpAddReplica names its partition. A real
		// partition always has at least one key, so keyCount==0 cannot
		// be a served identity.
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

// route hands p to an eligible replica of g, asking choose again (a
// fresh request id each time) until one accepts it. A group with no
// connection left means the epoch is failing — the departure that
// emptied it invokes ep.fail — so waiting on the epoch is bounded and p
// completes with the root cause. A group whose every connection is
// still syncing a sibling snapshot fails p alone with a descriptive
// error; the epoch stays healthy. When every eligible replica is at the
// admission cap, route parks until a slot frees instead of growing the
// queues.
//
// route owns one dispatch-chain reference to p (set up by dispatch, or
// inherited from the swept chain on a failover re-route): terminal
// paths finish the chain, a successful enqueue passes the reference on
// to the connection.
func (c *Cluster) route(ep *epoch, g *replicaGroup, p *pending) {
	for {
		if err := ep.Err(); err != nil {
			c.finish(p, err)
			return
		}
		switch v, why := g.choose(c, p, nil); v {
		case sent:
			return
		case parked:
			g.waitAdmit(ep)
		case refused:
			c.finish(p, fmt.Errorf("netrun: partition %d cannot serve the request: %s", g.part, why))
			return
		case epochDead:
			<-ep.ctx.Done()
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

// begin opens a data-path call. It returns holding the pause read lock,
// which the caller releases when the call ends (two uncontended atomic
// ops): a partition split blocks new calls here, waits out the
// in-flight ones, and swaps the routing table with nobody mid-scatter.
// The epoch is loaded under it — a call that loaded the pre-split epoch
// after the swap would fail spuriously. On error nothing is held.
func (c *Cluster) begin() (*epoch, error) {
	c.pause.RLock()
	err := ErrClusterClosed
	if ep := c.ep.Load(); ep != nil {
		if err = ep.Err(); err == nil {
			return ep, nil
		}
	}
	c.pause.RUnlock()
	return nil, err
}

// gather waits for n completions on done and returns the first error
// among them. Each pending completes exactly once, failover or not, so
// the count never changes under the caller. A pending is released as it
// arrives unless keep is set and it has no out slice: such a pending is
// in the call's pends, for the caller to compose from and release
// (endCall).
func (c *Cluster) gather(done chan *pending, n int, keep bool) error {
	var first error
	for ; n > 0; n-- {
		p := <-done
		if p.err != nil && first == nil {
			first = p.err
		}
		if !keep || p.out != nil {
			c.release(p)
		}
	}
	return first
}

// getCall checks out a call's pooled dispatch state with no pending kept.
//
//dc:noalloc
func (c *Cluster) getCall() *netCall {
	nc := c.calls.Get().(*netCall)
	nc.pends = nc.pends[:0]
	return nc
}

// room gives the gather channel room for inflight completions, so that a
// read loop never blocks completing this call. Like every part of a
// netCall it grows and never shrinks.
//
//dc:noalloc
func (nc *netCall) room(inflight int) {
	if cap(nc.done) < inflight {
		nc.done = make(chan *pending, inflight)
	}
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
// A node's rank is its local rank plus its static rank base, which no
// insert moves. So the call also asks every partition below the highest
// one it touches for its live key count, in the same wave as the rank
// frames, and once every reply is in adds to partition p's ranks the
// live keys below it minus p's static base. Each rank therefore counts
// every insert acked before the call began and none invoked after it
// returned, whichever client wrote it. When no partition below holds an
// insert, the correction is zero and makes no pass over out.
//
//dc:noalloc
func (c *Cluster) LookupBatchInto(queries []workload.Key, out []int) error {
	if len(out) < len(queries) {
		return fmt.Errorf("netrun: out len %d < %d queries", len(out), len(queries))
	}
	return c.scatterInto(OpLookup, queries, out)
}

// scatterInto is the one-reply-element-per-key call skeleton behind
// LookupBatchInto and MultiGetInto: the call's core.Plan splits keys into
// frames of op (key by key, or in runs — see Plan.Keys), each dispatched
// as it is planned, and the read loops scatter each reply straight into
// out. A run's frame is the same frame as a key-by-key one (the node
// finds a lookup's ascending keys itself) and scatters sequentially. Once
// every reply is in, a MultiGet adds the counts below its keys'
// partitions (core.Plan.AddBelow), and a lookup's ranks are rebased (see
// rebase).
//
//dc:noalloc
func (c *Cluster) scatterInto(op uint8, keys []workload.Key, out []int) error {
	if err := core.CheckCallSize(len(keys)); err != nil {
		return err
	}
	ep, err := c.begin()
	if err != nil {
		return err
	}
	defer c.pause.RUnlock()
	if len(keys) == 0 {
		return nil
	}

	part := c.part.Load()
	kop := core.RankKeys
	if op == OpMultiGet {
		kop = core.MultiGetKeys
	}
	nc := c.getCall()
	// Room for the plan's frames and a count ask of every partition.
	nc.room(part.Requests(len(keys), c.batch) + len(part.Parts))
	inflight, top := 0, 0 // top: the highest partition the call touches
	send := func(gi int, p *pending, o []int) {
		if o == nil {
			nc.pends = append(nc.pends, p)
		}
		c.dispatch(ep, gi, p, o, nc.done)
		inflight++
		top = max(top, gi)
	}
	nc.plan.Keys(part, keys, kop, c.batch, c.batch, func(int) (*pending, *[]uint32, *[]int32) {
		p := c.getPending()
		p.op = op
		return p, &p.keys, &p.pos
	}, func(gi int, p *pending) {
		send(gi, p, out)
	}, func(r core.KeyRun) {
		p := c.getPending()
		p.op = op
		p.keys = slices.Grow(p.keys, len(r.Keys))[:len(r.Keys)]
		for i, k := range r.Keys {
			p.keys[i] = uint32(k)
		}
		if r.Pos != nil {
			p.pos = append(p.pos, r.Pos...)
		} else {
			p.contig, p.posBase = true, r.PosBase
		}
		send(r.Part, p, out)
	})
	if op == OpLookup {
		for gi := range top {
			send(gi, c.getAsk(), nil)
		}
	}
	err = c.gather(nc.done, inflight, true)
	switch {
	case err != nil:
	case op == OpLookup:
		nc.rebase(part, keys, out)
	default:
		nc.plan.AddBelow(out)
	}
	c.endCall(nc)
	return err
}

// rebase corrects the static rank bases in a rank call's out, once every
// reply is in. The call's pends are the live key counts of partitions 0,
// 1, … in order: partition p's global base is the sum of the counts
// below it, and its node added its static base. Every key's rank came
// from the partition it routes to.
//
//dc:noalloc
func (nc *netCall) rebase(part *core.Partitioning, keys []workload.Key, out []int) {
	nc.base = append(nc.base[:0], 0)
	below, moved := 0, false
	for gi, p := range nc.pends {
		below += int(p.reply[0])
		d := below - part.Parts[gi+1].RankBase
		nc.base = append(nc.base, d)
		moved = moved || d != 0
	}
	if !moved {
		return
	}
	for i, k := range keys {
		out[i] += nc.base[part.Route(k)]
	}
}

// Insert routes k to its owning partition and applies it to every
// connected replica of that partition. See InsertBatch.
func (c *Cluster) Insert(k workload.Key) error {
	var one [1]workload.Key
	one[0] = k
	return c.InsertBatch(one[:])
}

// InsertBatch adds keys (any order, duplicates allowed) to the running
// TCP cluster. Each key routes to the partition owning its sub-range
// and the write fans out to every connected replica of that partition
// — replicas answer lookups independently, so all of them must hold
// every write. A replica that dies mid-insert simply leaves the group —
// the survivors define the partition's state, and the replica reloads a
// sibling's snapshot when it rejoins. InsertBatch returns once every
// live replica acked: lookups issued after it returns see the keys.
// Safe for any number of concurrent callers and concurrently with
// lookups.
//
// Durability is bounded by the replica count: a write acked by a
// partition's only live replica is lost if that replica's storage dies
// before a sibling syncs from it (its process restarting from the
// baseline key set cannot catch up from anyone, and reads of the
// partition fail rather than serve stale ranks). Deploy at least two
// replicas per partition for writes that must survive a node loss.
//
// Every client's ranks count the keys once InsertBatch returns: a rank
// call asks the partitions below the ones it reads for their live key
// counts (see LookupBatchInto).
func (c *Cluster) InsertBatch(keys []workload.Key) error {
	ep, err := c.begin()
	if err != nil {
		return err
	}
	defer c.pause.RUnlock()
	if len(keys) == 0 {
		return nil
	}

	groups := ep.groups
	part := c.part.Load()
	// Room for every fan-out pending: each chunk to every configured
	// replica plus slack for one concurrent AddReplica; sizing the gather
	// channel to cover it keeps the read loops from blocking on
	// completions. (A replica admitted mid-call beyond the slack only
	// stalls a read loop momentarily — this gather loop always drains.)
	reps := 0
	for _, g := range groups {
		g.mu.Lock()
		reps = max(reps, len(g.replicas))
		g.mu.Unlock()
	}
	nc := c.getCall()
	nc.room(part.Requests(len(keys), c.batch) * (reps + 1))
	inflight := 0
	var firstErr error
	nc.plan.Keys(part, keys, core.InsertKeys, c.batch, c.batch, func(int) (*pending, *[]uint32, *[]int32) {
		p := c.getPending()
		return p, &p.keys, nil
	}, func(gi int, chunk *pending) {
		g := groups[gi]
		ck := &insChunk{part: gi, n: len(chunk.keys)}
		// Fan out under g.mu: lifecycle moves (a replica dying, a
		// rejoiner being admitted) serialize against the fan-out, which
		// is what makes the catch-up snapshot protocol exactly-once (see
		// admit).
		g.mu.Lock()
		for _, r := range g.replicas {
			if !r.can(useWrite, OpInsert) {
				continue
			}
			p := c.getPending()
			p.op = OpInsert
			p.keys = append(p.keys, chunk.keys...)
			p.chunk = ck
			if r.state == stSyncing {
				p.done = nc.done
				p.refs.Store(2)
				r.held = append(r.held, p)
				ck.remaining++
			} else if c.post(r.node, p, nc.done) {
				ck.remaining++
			}
			// A connection that refused is being failed; the survivors
			// (and its own future catch-up) cover the write.
		}
		g.written = g.written || ck.remaining > 0
		g.mu.Unlock()
		c.putPending(chunk)
		inflight += ck.remaining
		if ck.remaining == 0 && firstErr == nil {
			// Every connected state takes writes, so no taker means no
			// connection left or every one marked dead — and only the
			// epoch's failure does either to a whole group.
			<-ep.ctx.Done()
			firstErr = ep.Err()
		}
	}, nil)
	// Gather, counting each fan-out pending against its chunk; a chunk
	// fully and cleanly acked counts in the partition's inserted-key
	// stat. Per-chunk (not per-call) counting keeps the stat truthful
	// under partial failure: a chunk whose replicas all applied is
	// counted even when a later chunk errors — the nodes hold those keys
	// — while a chunk that errored is not.
	for ; inflight > 0; inflight-- {
		p := <-nc.done
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
	c.endCall(nc)
	return firstErr
}

// Nodes returns the number of cluster partitions (replica groups).
func (c *Cluster) Nodes() int { return len(c.part.Load().Parts) }

// replicas snapshots per-replica liveness and traffic counters for the
// current epoch, ordered by partition then configured address — the
// producer of Stats().Replicas. It returns nil after Close. Counters
// reset with each fresh epoch (a partition split dials one).
func (c *Cluster) replicas() []ReplicaHealth {
	ep := c.ep.Load()
	if ep == nil {
		return nil
	}
	var out []ReplicaHealth
	for _, g := range ep.groups {
		g.mu.Lock()
		for _, r := range g.replicas {
			h := ReplicaHealth{
				Partition:    g.part,
				Addr:         r.addr,
				Healthy:      r.node != nil,
				Syncing:      r.state == stSyncing,
				Dispatched:   r.dispatched.Load(),
				Failures:     r.life[cFailures].Load(),
				Rejoins:      r.life[cRejoins].Load(),
				State:        healthName[r.state],
				LatencyEWMA:  time.Duration(r.ewmaNs.Load()),
				Hedges:       r.hedges.Load(),
				Ejections:    r.life[cEjections].Load(),
				Probes:       r.life[cProbes].Load(),
				Readmits:     r.life[cReadmits].Load(),
				BudgetDenied: r.budgetDenied.Load(),
			}
			if r.node != nil {
				h.Proto = r.node.version
			}
			out = append(out, h)
		}
		g.mu.Unlock()
	}
	return out
}

// InsertedKeys reports how many keys this client has inserted into each
// partition (indexed by partition id), counting a chunk of them once
// every replica acked it. A split leaves the split partition's count on
// its low half. Other clients' inserts are not in it; ranks do not read
// it.
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
	// Protocol is the version this client advertises in hellos.
	Protocol uint32 `json:"protocol"`
	// InsertedKeys is the keys this client inserted, per partition (see
	// Cluster.InsertedKeys).
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
		Protocol:      ProtoVersion,
		InsertedKeys:  c.InsertedKeys(),
		DeltaCatchups: c.deltaCatchups.Load(),
		Replicas:      c.replicas(),
	}
}

// errReplicaDrained is the cause a drained replica's swept pendings see.
var errReplicaDrained = errors.New("netrun: replica drained")

// errSplitReconfig retires the pre-split epoch once every node of the
// split partition acked its new identity: the connections must
// re-handshake against the new routing table, so the old epoch's loops
// are torn down wholesale, and SplitPartition dials the successor epoch
// itself.
var errSplitReconfig = errors.New("netrun: epoch retired by partition split")

// reshaping opens a membership verb on partition part: the cluster must
// be open and its epoch healthy, and the partition must exist.
//
//dc:holds c.mu
func (c *Cluster) reshaping(part int) (*epoch, *core.Partitioning, error) {
	if err := c.Err(); err != nil {
		return nil, nil, err
	}
	pt := c.part.Load()
	if part < 0 || part >= len(pt.Parts) {
		return nil, nil, fmt.Errorf("netrun: partition %d out of range [0,%d)", part, len(pt.Parts))
	}
	return c.ep.Load(), pt, nil
}

// AddReplica joins a new replica at addr into partition part's group
// without restarting the epoch. The node may be an unassigned join node
// (dcnode -join, serving the zero identity until assigned) — AddReplica
// hands it the partition's identity over OpAddReplica before any loop
// starts — or a node already serving the exact identity, which passes
// the ordinary hello cross-check. A partition that has absorbed writes
// admits the newcomer through the same catch-up machinery rejoins use:
// it takes writes immediately (hold queue) but serves no reads until a
// sibling's snapshot lands. AddReplica returns an error when the dial,
// handshake, or identity assignment fails — once the address is
// registered, later failures are the rejoin loop's to retry, and
// AddReplica reports success.
func (c *Cluster) AddReplica(part int, addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep, pt, err := c.reshaping(part)
	if err != nil {
		return err
	}
	g := ep.groups[part]
	g.mu.Lock()
	dup := slices.ContainsFunc(g.replicas, func(r *replica) bool { return r.addr == addr })
	g.mu.Unlock()
	if dup {
		return fmt.Errorf("netrun: partition %d already has replica %s", part, addr)
	}

	r := &replica{g: g, addr: addr}
	n, err := c.dialNode(ep.ctx, r, true)
	if err != nil {
		return err
	}
	if err := n.cannot(OpAddReplica); err != nil {
		n.conn.Close()
		return err
	}
	want := pt.Parts[part]
	if n.keyCount == 0 {
		// Unassigned join node: assign the identity synchronously,
		// before the loops take over the connection.
		ack, aerr := exchange(n, Frame{Op: OpAddReplica, ReqID: c.reqID.Add(1), Payload: []uint32{
			uint32(want.RankBase), uint32(len(want.Keys)),
			uint32(want.Keys[0]), uint32(want.Keys[len(want.Keys)-1]),
		}}, dialTimeout)
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

	// List the record — Stats shows it, write fan-outs see it once it is
	// connected — then admit the connection exactly as a rejoin would: a
	// pristine partition installs it plainly, one that absorbed writes
	// this baseline node never saw holds its writes and catches it up
	// from a sibling first (a join node carries no durable chain, so
	// that is always the full-snapshot payload).
	g.mu.Lock()
	g.replicas = append(g.replicas, r)
	g.mu.Unlock()
	if err := c.admit(ep, r, n, evDial); err != nil {
		if ep.Err() != nil {
			return err
		}
		// No snapshot source right now. The address is configured, so a
		// rejoin loop finishes the admission in the background.
		ep.goRejoin(r)
	}
	c.groups[part] = append(c.groups[part], addr)
	return nil
}

// DrainReplica removes the replica at addr from partition part's group
// without restarting the epoch: the address is deconfigured (so no
// rejoin loop resurrects it), the node is quiesced over OpDrainReplica
// (it stops absorbing writes and keeps its final state), and the
// connection's outstanding work is settled exactly the way a failed
// replica's is — reads fail over to siblings, acked writes stand. The
// node process itself keeps running and serving its index; it is simply
// no longer part of this cluster. Draining the partition's only
// configured replica, or its last live one, is refused.
func (c *Cluster) DrainReplica(part int, addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep, _, err := c.reshaping(part)
	if err != nil {
		return err
	}
	g := ep.groups[part]

	g.mu.Lock()
	idx := slices.IndexFunc(g.replicas, func(r *replica) bool { return r.addr == addr })
	var target *clusterNode
	if idx >= 0 {
		target = g.replicas[idx].node
	}
	switch {
	case idx < 0:
		err = fmt.Errorf("netrun: partition %d has no replica %s", part, addr)
	case len(g.replicas) == 1:
		err = fmt.Errorf("netrun: refusing to drain partition %d's only replica %s", part, addr)
	case target == nil:
		// Already down: deconfiguring it is the whole drain.
	case g.connected() == 1:
		err = fmt.Errorf("netrun: refusing to drain partition %d's last live replica %s (its siblings are down)", part, addr)
	default:
		err = target.cannot(OpDrainReplica)
	}
	if err == nil {
		// Deconfigure the address: off the list nothing dispatches new
		// work to it, and the drained state stops its rejoin loop and
		// turns the connection's departure below into a plain teardown.
		g.transition(g.replicas[idx], evDrain)
		g.replicas = slices.Delete(g.replicas, idx, idx+1)
	}
	g.mu.Unlock()
	if err != nil {
		return err
	}
	c.groups[part] = slices.DeleteFunc(slices.Clone(c.groups[part]), func(a string) bool { return a == addr })
	if target == nil {
		return nil
	}

	// Quiesce the node: after the ack it accepts no further writes, so
	// nothing this cluster does can change state it no longer reports.
	p := c.getPending()
	p.op = OpDrainReplica
	done := make(chan *pending, 1)
	err = fmt.Errorf("netrun: partition %d replica %s died mid-drain", part, addr)
	if c.post(target, p, done) {
		err = c.gather(done, 1, false)
	}
	// Tear the connection down exactly once, settling what it still owes
	// the way a failed replica's is. Losing the race to a concurrent
	// failure is fine: the sweep ran there.
	c.failNode(ep, target, errReplicaDrained)
	return err
}

// SplitPartition divides partition part in two at the median of its
// baseline keys, retargeting the partition's replicas onto the halves
// live: the data plane pauses (in-flight calls drain, new ones block),
// every replica of the partition swaps to its assigned half-identity
// over OpSplitPartition, the routing table is rebuilt, and a fresh connection epoch is dialed against the new
// shape. Reads and writes resume against the split layout; checksums
// are unchanged because every live key keeps exactly one owner (the
// split key assignment matches the new routing delimiter exactly).
//
// The partition's replicas divide between the halves (low half gets the
// ceiling), so the group must have at least two members, and every
// group in the cluster must be full and settled (the reshape re-dials
// everyone). A failure after some nodes retargeted leaves mixed
// identities no single routing table matches: the epoch fails with the
// root cause and the operator restores the partition's nodes before a
// new Dial. A split that committed but whose successor epoch failed to
// dial leaves the cluster terminal with that error.
func (c *Cluster) SplitPartition(part int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep, pt, err := c.reshaping(part)
	if err != nil {
		return err
	}
	// Quiesce the data plane for the whole reshape: new calls block at
	// the pause read lock, in-flight ones drain before Lock returns.
	c.pause.Lock()
	defer c.pause.Unlock()

	// Preflight. Refusals here leave the cluster untouched.
	var nodes []*clusterNode // the split partition's connections, in configuration order
	for _, g := range ep.groups {
		g.mu.Lock()
		ready := true
		for _, r := range g.replicas {
			ready = ready && r.can(useFull, 0)
			if ready && g.part == part {
				nodes = append(nodes, r.node)
			}
		}
		g.mu.Unlock()
		if !ready {
			return fmt.Errorf("netrun: partition %d has a down or syncing replica; a split re-dials every node, so the cluster must be fully healthy first", g.part)
		}
	}
	if len(nodes) < 2 {
		return fmt.Errorf("netrun: partition %d has %d replica(s); a split needs at least one per half", part, len(nodes))
	}
	for _, n := range nodes {
		if err := n.cannot(OpSplitPartition); err != nil {
			return err
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
	done := make(chan *pending, len(nodes))
	loCount := (len(nodes) + 1) / 2
	sent := 0
	var opErr error
	var addrs []string
	for i, n := range nodes {
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
		addrs = append(addrs, n.r.addr)
		if !c.post(n, p, done) {
			opErr = fmt.Errorf("netrun: partition %d replica %s died before its split frame was sent", part, n.r.addr)
			break
		}
		sent++
	}
	if err := c.gather(done, sent, false); opErr == nil {
		opErr = err
	}
	if opErr != nil {
		ep.fail(fmt.Errorf("netrun: partition %d split failed mid-reshape; node identities may be mixed — restore or restart the partition's nodes, then dial again: %w", part, opErr))
		ep.wg.Wait()
		return opErr
	}

	// Every node acked its half: retire the epoch and dial the successor
	// against the new table. The WaitGroup barrier orders every
	// old-epoch goroutine before the swaps below, which is what makes
	// the plain-slice stat swap race-free.
	ep.fail(errSplitReconfig)
	ep.wg.Wait()
	c.part.Store(npt)
	// The low half is clipped: AddReplica appends to a group's list, and
	// must not grow into the high half's.
	c.groups = slices.Concat(c.groups[:part], [][]string{slices.Clip(addrs[:loCount]), addrs[loCount:]}, c.groups[part+1:])
	// Each partition keeps its inserted-key stat; the high half starts
	// at zero.
	ins := make([]atomic.Int64, len(npt.Parts))
	for i := range c.ins {
		j := i
		if i > part {
			j++
		}
		ins[j].Store(c.ins[i].Load())
	}
	c.ins = ins
	nep, err := c.dialEpoch()
	if err != nil {
		return fmt.Errorf("netrun: partition %d split committed but the re-dial failed: %w", part, err)
	}
	c.ep.Store(nep)
	return nil
}

// Err reports the cluster's terminal state: nil while healthy (single-
// replica failures are absorbed by failover and never surface here),
// ErrClusterClosed after Close, or the root-cause error after a
// partition lost its last replica.
func (c *Cluster) Err() error {
	ep := c.ep.Load()
	if ep == nil {
		return ErrClusterClosed
	}
	return ep.Err()
}

// Close fails the connection set with ErrClusterClosed (completing any
// in-flight calls with that error) and waits for the per-connection
// loops and rejoin loops to exit. Idempotent.
func (c *Cluster) Close() {
	c.mu.Lock()
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
