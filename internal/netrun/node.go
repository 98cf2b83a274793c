package netrun

import (
	"errors"
	"fmt"
	"log"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Node serves one index partition (or a full replica) over TCP: the
// slave side of the paper's Figure 2. A Node is safe for any number of
// concurrent client connections; each connection gets its own
// goroutine. Every node is updatable: inserts land in a delta buffer
// consulted alongside the immutable base array, a background goroutine
// compacts the two, and snapshot/load frames let a rejoining replica
// catch up from a sibling.
type Node struct {
	upd *index.Updatable
	// dp is the durable write path (non-nil only for nodes built by
	// NewDurablePartitionNode): inserts append to its WAL and the ack
	// waits for the group fsync; the positioned catch-up ops serve from
	// and apply to it.
	dp *index.DurablePartition
	// ident is the node's advertised partition identity — the
	// construction-time baseline (rank base, baseline key count, key
	// bounds) the hello handshake reports, which online inserts never
	// move. It is an atomic pointer because the membership ops
	// (partition assignment, split) swap it while other connections'
	// handlers are live; the swapping client holds its membership pause
	// (no requests in flight), so each handler reading it once per
	// request observes a consistent identity.
	ident atomic.Pointer[nodeIdent]
	// universe, when non-nil, is the node's full sorted key file: the
	// joinable configuration (dcnode -join) in which OpAddReplica may
	// assign any [rankBase, rankBase+baseN) slice of it as this node's
	// partition. Immutable after construction.
	universe []workload.Key

	lis     net.Listener
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	serving bool
	wg      sync.WaitGroup

	// Logf receives connection-level errors; nil silences them.
	Logf func(format string, args ...any)

	// WriteTimeout bounds each reply write so a client that stopped
	// reading cannot wedge a handler goroutine forever (a healthy
	// client's read loop always drains, so only dead peers hit it).
	// Zero disables the deadline.
	WriteTimeout time.Duration

	// WrapConn, when non-nil, wraps every accepted connection before
	// its handler starts — the server-side fault-injection seam (gray-
	// failure tests and dcnode's -chaos drill install a faultnet
	// profile here to slow or stall one replica deterministically).
	// Set before Serve.
	WrapConn func(net.Conn) net.Conn

	// Telemetry, when non-nil, receives per-op service-time histograms
	// (series dc_node_op_ns{op=...}) for every request this node
	// serves; dcnode -admin exposes the registry over HTTP. Set before
	// Serve. Nil keeps the dispatch path measurement-free.
	Telemetry *telemetry.Registry
}

// nodeIdent is the immutable partition-identity tuple behind
// Node.ident. baseN == 0 means unassigned (a joinable node waiting for
// OpAddReplica).
type nodeIdent struct {
	rankBase int
	baseN    int
	lo, hi   workload.Key
}

// errVersion names a protocol version this build does not speak, and
// the ones it does.
func errVersion(whose string, v uint32) error {
	return fmt.Errorf("%w: %s v%d, this build speaks %s", ErrProtoVersion, whose, v, spoken())
}

// spoken names the versions this build speaks: "v7", or a range.
func spoken() string {
	if MinProtoVersion == ProtoVersion {
		return fmt.Sprintf("v%d", ProtoVersion)
	}
	return fmt.Sprintf("v%d–v%d", MinProtoVersion, ProtoVersion)
}

// newNode serves upd under the identity id.
func newNode(upd *index.Updatable, id nodeIdent) *Node {
	n := &Node{upd: upd, conns: map[net.Conn]struct{}{}}
	n.ident.Store(&id)
	return n
}

// identOf is the identity of the partition partKeys (not empty) whose
// first key has global rank rankBase; hi is inclusive.
func identOf(partKeys []workload.Key, rankBase int) nodeIdent {
	return nodeIdent{rankBase: rankBase, baseN: len(partKeys), lo: partKeys[0], hi: partKeys[len(partKeys)-1]}
}

// inMemory is the update layer of a node with no log: a delta buffer
// over the immutable sorted array (whose constructor panics on unsorted
// keys), compacted in the background once it reaches an eighth of the
// partition, or index.DefaultMergeThreshold keys if that is more.
func inMemory(partKeys []workload.Key) *index.Updatable {
	return index.NewUpdatableOver(partKeys, index.NewSortedArray(partKeys, 0), index.BuildSortedArray, 0)
}

// NewJoinNode builds an unassigned node over the full sorted key file:
// it serves an empty partition (hello advertises the zero identity)
// until a client assigns it one with OpAddReplica, naming a slice of
// the universe. This is how a fresh machine joins a running cluster
// without restarting the epoch (dcnode -join).
func NewJoinNode(universe []workload.Key) *Node {
	n := newNode(inMemory(nil), nodeIdent{})
	n.universe = universe
	return n
}

// NewPartitionNode builds a Method C-3 node (sorted-array partition)
// over partKeys; rankBase is the global rank of its first key.
func NewPartitionNode(partKeys []workload.Key, rankBase int) *Node {
	if len(partKeys) == 0 {
		panic("netrun: empty partition")
	}
	return newNode(inMemory(partKeys), identOf(partKeys, rankBase))
}

// NewDurablePartitionNode is NewPartitionNode with crash durability:
// the node recovers its state from dir (newest intact segment plus WAL
// tail; partKeys only seed a fresh directory), inserts are fsynced
// before they are acknowledged, and the hello advertises the node's
// durable position so a rejoin can catch up from the insert tail
// instead of a full snapshot. partKeys remains the node's baseline
// identity — the partition it verifies as — regardless of how many
// logged inserts the recovery replayed.
func NewDurablePartitionNode(partKeys []workload.Key, rankBase int, dir string, opt index.StoreOptions) (*Node, error) {
	if len(partKeys) == 0 {
		return nil, errors.New("netrun: empty partition")
	}
	dp, err := index.OpenDurablePartition(dir, partKeys, index.BuildSortedArray, 0, opt)
	if err != nil {
		return nil, err
	}
	n := newNode(dp.Upd, identOf(partKeys, rankBase))
	n.dp = dp
	return n, nil
}

// Serve accepts connections on lis until Close. It returns the listener
// error that ended the accept loop (net.ErrClosed after Close). Only
// one Serve may run at a time: a second concurrent call is refused
// instead of silently overwriting the active listener (which Close
// would then fail to release). After Serve returns — say its listener
// died — the Node may Serve again on a fresh listener; this is the
// server half of a replica restart, which the client-side rejoin loop
// then re-verifies and readmits.
func (n *Node) Serve(lis net.Listener) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("netrun: node closed")
	}
	if n.serving {
		n.mu.Unlock()
		return errors.New("netrun: node already serving (one Serve at a time)")
	}
	n.serving = true
	n.lis = lis
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.serving = false
		n.mu.Unlock()
	}()

	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		if n.WrapConn != nil {
			// Track (and later Close) the wrapper, not the raw conn:
			// closing a faultnet wrapper wakes any injected stall, so
			// Close never waits out a fault.
			conn = n.WrapConn(conn)
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		n.conns[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.handle(conn)
	}
}

// Close stops accepting, closes every live connection, and waits for
// handlers to drain.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	if n.lis != nil {
		n.lis.Close()
	}
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	if n.dp != nil {
		// Close drains the compaction daemon and the store (quiescing
		// the update layer on the way).
		if err := n.dp.Close(); err != nil {
			n.logf("netrun: close durable state: %v", err)
		}
		return
	}
	// Drain any background compaction so no goroutine outlives the node.
	n.upd.Quiesce()
}

// Position reports a durable node's (generation, chain) position —
// the logged insert count over the baseline and the order-sensitive
// fold over those inserts. Zeros for a non-durable node.
func (n *Node) Position() (gen, chain uint64) {
	if n.dp == nil {
		return 0, 0
	}
	return n.dp.Position()
}

// NodeInfo is a point-in-time identity-and-size snapshot of a serving
// node, shaped for the operations plane: dcnode's /stats and /indexes
// endpoints render it as JSON. SchemaVersion tracks StatsSchemaVersion.
type NodeInfo struct {
	SchemaVersion int `json:"schema_version"`
	// Assigned is false for a join node still waiting for OpAddReplica.
	Assigned bool `json:"assigned"`
	// RankBase and BaseKeys are the hello identity: the global rank
	// offset and the baseline key count (inserts do not move them).
	RankBase int `json:"rank_base"`
	BaseKeys int `json:"base_keys"`
	// Keys is the live total including applied inserts.
	Keys int `json:"keys"`
	// Lo and Hi bound the served key sub-range (zero when unassigned).
	Lo uint32 `json:"lo"`
	Hi uint32 `json:"hi"`
	// Durable is true for WAL-backed nodes; Generation is their logged
	// insert count over the baseline.
	Durable    bool   `json:"durable"`
	Generation uint64 `json:"generation"`
}

// Info snapshots the node's identity and live size. Safe to call
// concurrently with serving: the identity tuple is immutable behind an
// atomic pointer and the updatable layer pins its own state.
func (n *Node) Info() NodeInfo {
	id := n.ident.Load()
	info := NodeInfo{
		SchemaVersion: StatsSchemaVersion,
		Assigned:      id.baseN > 0,
		RankBase:      id.rankBase,
		BaseKeys:      id.baseN,
		Keys:          n.upd.TotalKeys(),
		Lo:            uint32(id.lo),
		Hi:            uint32(id.hi),
		Durable:       n.dp != nil,
	}
	if n.dp != nil {
		info.Generation, _ = n.dp.Position()
	}
	return info
}

func (n *Node) logf(format string, args ...any) {
	if n.Logf != nil {
		n.Logf(format, args...)
	}
}

// armWrite applies the node's write deadline to conn, if configured.
func (n *Node) armWrite(conn net.Conn) {
	if n.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(n.WriteTimeout))
	}
}

// refusal is a handler error that declines one request while the
// connection keeps serving: the node's own state is untouched, so
// charging the failure to the connection would fail a healthy replica
// (and can cascade to epoch death when it is the partition's snapshot
// source). Any other handler error answers OpErr and drops the
// connection, the way an old binary refuses an unknown op.
type refusal struct{ error }

func refusef(format string, args ...any) error { return refusal{fmt.Errorf(format, args...)} }

var errShape = errors.New("malformed request payload")

// keepReplyScratch caps, in elements, every scratch slice a connection
// retains between requests — the reply frame's bytes included. Lookup
// frames are a few tens of KB; a snapshot or an unlimited scan is the
// whole live key set, and a long-lived serving connection must not pin
// that much dead capacity after one rare request.
const keepReplyScratch = 1 << 20

// keep is buf if the connection may retain it, nil above the cap.
func keep[T any](buf []T) []T {
	if cap(buf) > keepReplyScratch {
		return nil
	}
	return buf
}

// nodeConn is one client connection's serving state: the frame codec,
// the version the connection speaks, and scratch reused across requests
// so the steady state allocates nothing. A request's words cross it in
// two passes besides the search: decoded from the frame's bytes into
// keyBuf, and encoded from the ranker's ints into the reply frame (the
// frame writer's buffer, which answer fills).
type nodeConn struct {
	n    *Node
	conn net.Conn
	bc   *bufferedConn
	// negotiated is the version the hello settled on; until a hello
	// arrives this build's applies — a client may send lookups without
	// negotiating.
	negotiated uint32
	// hists are the per-op service-time histograms, resolved once per
	// connection so a request costs one clock read and two atomic adds.
	hists [opMax]*telemetry.Histogram

	keyBuf  []workload.Key // the kernel's input: request keys decoded from words or a run, a count's range ends
	intBuf  []int          // ranker output, one per kernel key
	scanBuf []workload.Key // scan/top-k results, a count's request pairs
}

// newConn is the serving state of a connection that has not said hello.
func (n *Node) newConn(conn net.Conn) *nodeConn {
	s := &nodeConn{n: n, conn: conn, bc: newBufferedConn(conn), negotiated: ProtoVersion}
	if n.Telemetry != nil {
		for op := range opTable {
			if row := request(uint8(op)); row != nil {
				s.hists[op] = n.Telemetry.Histogram(`dc_node_op_ns{op="` + row.name + `"}`)
			}
		}
	}
	return s
}

func (n *Node) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
		n.wg.Done()
		if r := recover(); r != nil {
			// A malformed frame must not take the node down.
			n.logf("netrun: handler panic: %v", r)
		}
	}()

	s := n.newConn(conn)
	for {
		f, err := s.bc.readFrame()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				n.logf("netrun: %v", err)
			}
			return
		}
		if !s.serve(f) {
			return
		}
	}
}

// serve answers one request frame by its op-table row: gate, then the
// handler, which decodes the request and encodes its reply frame. It
// reports whether the connection keeps serving.
func (s *nodeConn) serve(f Frame) bool {
	n := s.n
	var start time.Time
	if n.Telemetry != nil {
		start = time.Now()
	}
	row := request(f.Op)
	var reply []byte
	var err error
	switch {
	case row == nil:
		err = errors.New("unexpected op")
	case row.minVer > s.negotiated:
		// Protocol discipline: an op above the connection's negotiated
		// version is refused before dispatch.
		err = fmt.Errorf("needs protocol v%d, the connection negotiated v%d", row.minVer, s.negotiated)
	case row.durable && n.dp == nil:
		err = errors.New("needs a durable node, this one is not")
	default:
		// One identity read per request: membership ops swap the
		// pointer, every other op serves under the snapshot it loaded.
		reply, err = row.serve(s, n.ident.Load(), f)
	}
	if err != nil {
		n.logf("netrun: op %d refused: %v", f.Op, err)
		reply, _ = encodeRun(&s.bc.fw, OpErr, f.ReqID, []uint32{uint32(f.Op)})
	}
	n.armWrite(s.conn)
	_, werr := s.bc.w.Write(reply)
	if werr == nil {
		werr = s.bc.w.Flush()
	}
	s.keyBuf, s.intBuf, s.scanBuf = keep(s.keyBuf), keep(s.intBuf), keep(s.scanBuf)
	s.bc.fw.buf = keep(s.bc.fw.buf)
	if werr != nil {
		n.logf("netrun: reply op %d: %v", reply[4], werr)
		return false
	}
	if err != nil {
		var soft refusal
		return errors.As(err, &soft)
	}
	if h := s.hists[f.Op]; h != nil {
		h.Observe(time.Since(start))
	}
	return true
}

// answer is the typed reply sink every handler ends in: it encodes vals
// as request f's reply frame — the row's reply op — narrowing each
// element as it goes, so a handler hands over what its ranker or scan
// produced as it produced it.
func answer[T ~uint32 | ~int](s *nodeConn, f Frame, vals []T) ([]byte, error) {
	return encodeRun(&s.bc.fw, replyOf[f.Op], f.ReqID, vals)
}

// ack answers f with one word counting the keys an op applied.
func (s *nodeConn) ack(f Frame, n int) ([]byte, error) {
	return answer(s, f, []int{n})
}

// keys decodes a word request straight into the key scratch.
func (s *nodeConn) keys(f Frame) []workload.Key {
	s.keyBuf = decodeWords(f.Raw, s.keyBuf)
	return s.keyBuf
}

// args decodes a fixed-shape word request into dst; false when the
// request has another length.
func args(f Frame, dst []uint32) bool {
	if len(f.Raw) != 4*len(dst) {
		return false
	}
	decodeWords(f.Raw, dst)
	return true
}

// ints returns n elements of the ranker-output scratch.
func (s *nodeConn) ints(n int) []int {
	if cap(s.intBuf) < n {
		s.intBuf = make([]int, n)
	}
	return s.intBuf[:n]
}

func u64(lo, hi uint32) uint64 { return uint64(lo) | uint64(hi)<<32 }

// serveHello answers the identity — the construction-time baseline,
// which inserts do not move (see the Node doc) — the negotiated version
// min(client, node), and the words that state what the node is: the
// LIVE key count (a client dialing learns from it that the partition was
// written), then a durable node's chain, captured with the live count as
// one consistent position (generation = live - baseline).
// A client below the floor is refused: the hard error answers OpErr,
// logs the version and drops the connection.
func (s *nodeConn) serveHello(id *nodeIdent, f Frame) ([]byte, error) {
	n := s.n
	if f.ReqID < MinProtoVersion {
		return nil, errVersion("the client speaks", f.ReqID)
	}
	s.negotiated = min(f.ReqID, ProtoVersion)
	payload := []uint32{uint32(id.rankBase), uint32(id.baseN), uint32(id.lo), uint32(id.hi), s.negotiated}
	if n.dp == nil {
		payload = append(payload, uint32(n.upd.TotalKeys()))
	} else {
		gen, chain := n.dp.Position()
		payload = append(payload, uint32(id.baseN)+uint32(gen), uint32(chain), uint32(chain>>32))
	}
	return answer(s, f, payload)
}

// ranks answers a lookup through the update layer — by the sorted kernel
// when the keys are an ascending run — from the kernel's ints.
func (s *nodeConn) ranks(id *nodeIdent, f Frame, keys []workload.Key) ([]byte, error) {
	ints := s.ints(len(keys))
	if core.SortedRun(keys) {
		s.n.upd.RankSorted(keys, ints, id.rankBase)
	} else {
		s.n.upd.RankBatch(keys, ints, id.rankBase)
	}
	return answer(s, f, ints)
}

// serveLookup: the frame carries no sortedness flag; the keys say it.
func (s *nodeConn) serveLookup(id *nodeIdent, f Frame) ([]byte, error) {
	return s.ranks(id, f, s.keys(f))
}

// serveInsert's ack is a durability promise on a durable node: log,
// apply, and wait for the group fsync. A log failure must never ack —
// the hard error drops the connection so the client fails this replica
// over instead of trusting a write the disk did not take.
func (s *nodeConn) serveInsert(_ *nodeIdent, f Frame) ([]byte, error) {
	n := s.n
	keys := s.keys(f)
	if n.dp == nil {
		n.upd.InsertBatch(keys)
	} else if err := n.dp.InsertBatch(keys); err != nil {
		return nil, fmt.Errorf("insert not durable: %w", err)
	}
	return s.ack(f, len(keys))
}

func (s *nodeConn) serveSnapshot(_ *nodeIdent, f Frame) ([]byte, error) {
	snap := s.n.upd.SnapshotKeys()
	if len(snap) > MaxFrameWords {
		return nil, refusef("snapshot of %d keys exceeds the frame limit; catch-up refused", len(snap))
	}
	return answer(s, f, snap)
}

func (s *nodeConn) serveLoad(id *nodeIdent, f Frame) ([]byte, error) {
	n := s.n
	run := s.keys(f)
	// Nothing makes a payload ascend, and the update layer panics on
	// a descent (Updatable.Reset).
	if i := index.FirstDescent(run); i > 0 {
		return nil, refusef("load payload descends at key %d", i)
	}
	fresh := slices.Clone(run)
	if n.dp == nil {
		n.upd.Reset(fresh)
		return s.ack(f, len(fresh))
	}
	// A plain load carries no position: reconstruct the generation
	// from the key count (every logged insert adds one key over the
	// baseline) and mark the chain unknown — later delta catch-ups from
	// this node degrade to full snapshots, but the store never diverges
	// from the served state.
	var gen uint64
	if len(fresh) > id.baseN {
		gen = uint64(len(fresh) - id.baseN)
	}
	if err := n.dp.ResetTo(fresh, gen, 0); err != nil {
		return nil, fmt.Errorf("load reset: %w", err)
	}
	return s.ack(f, len(fresh))
}

func (s *nodeConn) serveSnapshotSince(_ *nodeIdent, f Frame) ([]byte, error) {
	var pos [4]uint32
	if !args(f, pos[:]) {
		return nil, errShape
	}
	gen := u64(pos[0], pos[1])
	payload, ok := s.n.snapshotSince(gen, u64(pos[2], pos[3]))
	if !ok {
		// Neither the delta nor the full set fits one frame.
		return nil, refusef("positioned catch-up from generation %d exceeds the frame limit", gen)
	}
	return answer(s, f, payload)
}

func (s *nodeConn) serveLoadAt(_ *nodeIdent, f Frame) ([]byte, error) {
	n := s.n
	var hdr [snapDeltaHeader]uint32
	if len(f.Raw) < 4*len(hdr) {
		return nil, errShape
	}
	decodeWords(f.Raw[:4*len(hdr)], hdr[:])
	gen, chain := u64(hdr[1], hdr[2]), u64(hdr[3], hdr[4])
	// Fresh keys, not the connection scratch: the update layer keeps a
	// loaded key set for the node's lifetime.
	fresh := decodeWords[workload.Key](f.Raw[4*len(hdr):], nil)
	switch hdr[0] {
	case snapKindDelta:
		// Append-order insert tail: verified against the carried
		// position before anything is logged. A mismatch means the
		// histories diverged (e.g. this node durably logged writes its
		// sibling never acked); refuse so the client retries with a
		// full snapshot — never apply a delta that cannot prove
		// continuity. The node's own state is untouched, so it keeps
		// serving.
		if err := n.dp.InsertDelta(fresh, gen, chain); errors.Is(err, index.ErrCatchUpMismatch) {
			return nil, refusal{err}
		} else if err != nil {
			return nil, err
		}
	case snapKindFull:
		// ResetTo refuses a payload that is not ascending.
		if err := n.dp.ResetTo(fresh, gen, chain); err != nil {
			return nil, fmt.Errorf("positioned load reset: %w", err)
		}
	default:
		return nil, errShape
	}
	return s.ack(f, len(fresh))
}

// serveCountRange decodes the request pairs into scanBuf: CountPairs
// writes the range ends into keyBuf while it still reads the pairs.
func (s *nodeConn) serveCountRange(_ *nodeIdent, f Frame) ([]byte, error) {
	if len(f.Raw)%8 != 0 {
		return nil, errShape
	}
	s.scanBuf = decodeWords(f.Raw, s.scanBuf)
	return answer(s, f, index.CountPairs(s.n.upd, s.scanBuf, &s.keyBuf, &s.intBuf))
}

func (s *nodeConn) serveScanRange(_ *nodeIdent, f Frame) ([]byte, error) {
	var w [3]uint32
	if !args(f, w[:]) {
		return nil, errShape
	}
	// Wire 0 = unlimited. One key past the frame limit is all a scan that
	// will be refused needs to materialise.
	max := int(w[2])
	if max == 0 || max > MaxFrameWords {
		max = MaxFrameWords + 1
	}
	s.scanBuf = s.n.upd.ScanRange(workload.Key(w[0]), workload.Key(w[1]), max, s.scanBuf[:0])
	if len(s.scanBuf) > MaxFrameWords {
		// A truncated scan would silently be a wrong answer.
		return nil, refusef("scan exceeds the frame limit of %d keys", MaxFrameWords)
	}
	return answer(s, f, s.scanBuf)
}

func (s *nodeConn) serveTopK(_ *nodeIdent, f Frame) ([]byte, error) {
	var w [1]uint32
	if !args(f, w[:]) {
		return nil, errShape
	}
	k := int(w[0])
	if k > MaxFrameWords {
		return nil, refusef("top-%d exceeds the frame limit", k)
	}
	s.scanBuf = s.n.upd.TopK(k, s.scanBuf[:0])
	return answer(s, f, s.scanBuf)
}

func (s *nodeConn) serveMultiGet(_ *nodeIdent, f Frame) ([]byte, error) {
	run := s.keys(f)
	// The kernel's rank scratch rides behind its counts.
	n := len(run)
	ints := s.ints(2 * n)
	s.n.upd.CountKeys(run, ints[:n], ints[n:])
	return answer(s, f, ints[:n])
}

// serveAddReplica assigns this node a partition. The payload names a
// slice of the node's key universe plus its expected bounds, so a node
// started from a different key file refuses instead of silently serving
// wrong ranks. An already-assigned node accepts only a matching
// assignment (idempotent confirm — re-adding a drained replica takes
// this path).
func (s *nodeConn) serveAddReplica(id *nodeIdent, f Frame) ([]byte, error) {
	n := s.n
	var w [4]uint32
	if !args(f, w[:]) {
		return nil, errShape
	}
	rb, bn := int(w[0]), int(w[1])
	lo, hi := workload.Key(w[2]), workload.Key(w[3])
	switch {
	case id.baseN > 0:
		if rb != id.rankBase || bn != id.baseN || lo != id.lo || hi != id.hi {
			return nil, refusef("add-replica assignment [%d,+%d) does not match served identity [%d,+%d)",
				rb, bn, id.rankBase, id.baseN)
		}
	case n.universe == nil || bn <= 0 || rb < 0 || rb+bn > len(n.universe) ||
		n.universe[rb] != lo || n.universe[rb+bn-1] != hi:
		return nil, refusef("add-replica assignment [%d,+%d) invalid for a universe of %d keys",
			rb, bn, len(n.universe))
	default:
		n.upd.Reset(n.universe[rb : rb+bn])
		n.ident.Store(&nodeIdent{rankBase: rb, baseN: bn, lo: lo, hi: hi})
	}
	return s.ack(f, n.upd.TotalKeys())
}

// serveDrainReplica has nothing to tear down server-side — the client
// stops routing here and detaches. Quiesce the compaction daemon so the
// node idles clean before the ack.
func (s *nodeConn) serveDrainReplica(_ *nodeIdent, f Frame) ([]byte, error) {
	if len(f.Raw) != 0 {
		return nil, errShape
	}
	s.n.upd.Quiesce()
	return s.ack(f, s.n.upd.TotalKeys())
}

// serveSplitPartition retargets this node at one half of its split
// partition: keep the live keys on the named side of splitKey, swap the
// advertised identity, keep serving. The client holds its membership
// pause, so no reads race the swap.
func (s *nodeConn) serveSplitPartition(id *nodeIdent, f Frame) ([]byte, error) {
	n := s.n
	var w [6]uint32
	if !args(f, w[:]) {
		return nil, errShape
	}
	newRB, newBN := int(w[0]), int(w[1])
	newLo, newHi := workload.Key(w[2]), workload.Key(w[3])
	splitKey, keepHi := workload.Key(w[4]), w[5] != 0
	if newBN <= 0 || newRB < id.rankBase || newRB+newBN > id.rankBase+id.baseN {
		return nil, refusef("split half [%d,+%d) not within served identity [%d,+%d)",
			newRB, newBN, id.rankBase, id.baseN)
	}
	live := n.upd.SnapshotKeys()
	cut := sort.Search(len(live), func(i int) bool { return live[i] > splitKey })
	kept := live[:cut]
	if keepHi {
		kept = live[cut:]
	}
	if len(kept) < newBN {
		// The live set must contain at least the half's static keys;
		// fewer means the split parameters don't describe this node's
		// state.
		return nil, refusef("split kept %d live keys, below the half's %d static keys", len(kept), newBN)
	}
	// A durable position restarts at the half's generation (live minus
	// static) with an unknown chain: the next positioned catch-up
	// degrades to a full snapshot, but the store never diverges from the
	// served state.
	if n.dp == nil {
		n.upd.Reset(kept)
	} else if err := n.dp.ResetTo(kept, uint64(len(kept)-newBN), 0); err != nil {
		return nil, fmt.Errorf("split reset: %w", err)
	}
	n.ident.Store(&nodeIdent{rankBase: newRB, baseN: newBN, lo: newLo, hi: newHi})
	return s.ack(f, len(kept))
}

// snapshotSince builds an OpSnapshotDelta payload answering a catch-up
// from (gen, chain): the logged insert tail when the store can prove
// continuity from that position, the full current key set otherwise.
// ok=false when neither fits a frame.
func (n *Node) snapshotSince(gen, chain uint64) (payload []uint32, ok bool) {
	if chain != 0 {
		if tail, curGen, curChain, ok := n.dp.DeltaSince(gen, chain); ok {
			if len(tail)+snapDeltaHeader <= MaxFrameWords {
				return appendSnapPayload(snapKindDelta, curGen, curChain, tail), true
			}
			// An oversized delta nearly always means an oversized full
			// set too, but fall through and let the full-path check
			// decide.
		}
	}
	snap, curGen, curChain := n.dp.Snapshot()
	if len(snap)+snapDeltaHeader > MaxFrameWords {
		return nil, false
	}
	return appendSnapPayload(snapKindFull, curGen, curChain, snap), true
}

func appendSnapPayload(kind uint32, gen, chain uint64, keys []workload.Key) []uint32 {
	payload := make([]uint32, snapDeltaHeader, snapDeltaHeader+len(keys))
	payload[0] = kind
	payload[1], payload[2] = uint32(gen), uint32(gen>>32)
	payload[3], payload[4] = uint32(chain), uint32(chain>>32)
	for _, k := range keys {
		payload = append(payload, uint32(k))
	}
	return payload
}

// ListenAndServe is the one-call node entry point: it serves the
// partition on addr until the process dies.
func ListenAndServe(addr string, partKeys []workload.Key, rankBase int) error {
	return ListenAndServeNode(addr, NewPartitionNode(partKeys, rankBase))
}

// ListenAndServeNode serves an already-configured node (cmd/dcnode
// builds one to set fields like Telemetry and WrapConn first) on addr with the
// production defaults — log.Printf logging and a 30s reply-write
// timeout — filled in where the caller left them unset.
func ListenAndServeNode(addr string, node *Node) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("netrun: listen %s: %w", addr, err)
	}
	if node.Logf == nil {
		node.Logf = log.Printf
	}
	if node.WriteTimeout == 0 {
		node.WriteTimeout = 30 * time.Second
	}
	id := node.ident.Load()
	log.Printf("netrun: serving %d keys (rank base %d) on %s", id.baseN, id.rankBase, lis.Addr())
	return node.Serve(lis)
}
