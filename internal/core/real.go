package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/index"
	"repro/internal/workload"
)

// RealConfig configures the real concurrent runtime: goroutine nodes
// connected by channels, executing actual lookups on the host. This is
// the adoptable library the simulated engines validate against — every
// method returns bit-identical ranks; only performance differs.
type RealConfig struct {
	// Method selects the strategy. Methods A/B keep the whole index as
	// one copy that every worker reads, batches handed out in turn (the
	// paper's dispatcher with a load-balancing algorithm — in process the
	// nodes share memory, so "replicated" means each core's cache holds
	// its own copy of the hot lines, not Workers copies of the tree);
	// Method C partitions the index over Workers slaves with the caller
	// acting as master.
	Method Method
	// Workers is the number of processing goroutines (the paper's 10
	// slaves / 11 worker nodes): one partition each for Method C, all
	// reading the one copy for A/B.
	Workers int
	// BatchKeys is the most keys one message (hand-off to a worker)
	// carries. It is a ceiling: handoff cuts a call into smaller slices
	// when the call is too short to fill BatchKeys-sized ones early.
	BatchKeys int
	// MergeThreshold is the floor of the per-partition delta-buffer size
	// that triggers a background compaction of buffer+base into a fresh
	// immutable array (see Insert/InsertBatch): a buffer is compacted once
	// it holds max(MergeThreshold, an eighth of the partition) keys, so a
	// key is copied a constant number of times however large the
	// partition. Zero selects index.DefaultMergeThreshold.
	MergeThreshold int
	// PartitionBudget caps a partition's key count before a background
	// rebalance recomputes the delimiters over the whole key set — the
	// paper's fits-in-cache invariant, maintained dynamically as
	// inserts skew partitions. Zero selects twice the initial maximum
	// partition size; negative disables rebalancing. Once the whole
	// index outgrows budget*Workers the budget is unattainable by
	// re-partitioning, and the trigger degrades to skew detection
	// (twice the average partition size) instead of storming rebuilds.
	// Only meaningful for the distributed methods.
	PartitionBudget int
	// WALDir, when non-empty, makes writes durable: every partition
	// gets a write-ahead log under this directory, inserts are logged
	// and fsynced (group commit) before InsertBatch returns, frozen-
	// layer publishes flush immutable segments, and NewCluster recovers
	// segment+WAL state from the directory — in which case the caller's
	// keys serve only as the baseline for a fresh directory. Empty
	// keeps the index purely in memory (the previous behaviour).
	WALDir string
	// FsyncInterval chooses whether the WAL is fsynced (see
	// index.StoreOptions.FsyncInterval): 0 fsyncs on every commit
	// leader, < 0 disables fsync (acks are no longer crash-durable), and
	// a positive value is refused. Only meaningful with WALDir.
	FsyncInterval time.Duration
	// WALFS overrides the filesystem the durability layer writes
	// through (fault-injection hook for tests); nil means the real one.
	WALFS faultfs.FS
	// Logf, if set, receives recovery/quarantine/flush notices from the
	// durability layer.
	Logf func(format string, args ...any)
}

// DefaultRealConfig returns a ready-to-use configuration for m.
func DefaultRealConfig(m Method) RealConfig {
	return RealConfig{Method: m, Workers: 8, BatchKeys: 16384}
}

// queueDepth bounds in-flight batches per worker (backpressure).
const queueDepth = 4

// handoffFloor is the fewest keys a hand-off carries unless BatchKeys
// is smaller still: below this the channel operation and the worker's
// wake-up cost more than the search they start early (at 256 the
// referee's 16,384-key mixed reads lost 4 % and paid 6 % more CPU; at
// 512 and 1,024 they gained).
const handoffFloor = 512

// handoff returns how many keys one hand-off of an n-key call carries:
// about eight slices per worker however large the call, so the workers
// search the first slices while the master still routes the rest,
// within [handoffFloor, BatchKeys].
//
//dc:noalloc
func (c *Cluster) handoff(n int) int {
	return min(c.cfg.BatchKeys, max(handoffFloor, n/(8*c.cfg.Workers)))
}

func (c RealConfig) validate() error {
	if !c.Method.Valid() {
		return fmt.Errorf("core: invalid method %d", int(c.Method))
	}
	if c.Workers <= 0 {
		return fmt.Errorf("core: Workers = %d", c.Workers)
	}
	if c.BatchKeys <= 0 {
		return fmt.Errorf("core: BatchKeys = %d", c.BatchKeys)
	}
	if c.MergeThreshold < 0 {
		return fmt.Errorf("core: MergeThreshold = %d", c.MergeThreshold)
	}
	return nil
}

// CheckCallSize refuses a call of n keys that is too long to dispatch:
// every routed key carries its position in the caller's slice as an
// int32 (realBatch.pos, and the TCP client's pending.pos), which would
// wrap and scatter results to the wrong slots.
func CheckCallSize(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("core: %d keys in one call, the most is %d", n, math.MaxInt32)
	}
	return nil
}

// batchOp tags a realBatch with the operation the worker executes.
// One op-generic pipeline — pooled batches, per-call gather channels,
// epoch-pinned routing — serves every query shape; adding an op is a
// dispatch-table entry, not a new pipeline.
type batchOp uint8

const (
	// opRank resolves keys to global ranks (the paper's one query).
	opRank batchOp = iota
	// opCount counts the partition's keys in each inclusive range
	// [keys[2i], keys[2i+1]] into ranks (CountPairs).
	opCount
	// opScan returns the partition's keys in [keys[0], keys[1]],
	// ascending, at most limit of them, in outKeys.
	opScan
	// opTopK returns the partition's limit largest keys, descending,
	// in outKeys.
	opTopK
	// opMultiGet resolves each key to its multiplicity (indexed copies
	// of exactly that key) in the partition: no rank base applies.
	opMultiGet
)

// realBatch is one message on the channel interconnect. Batches are
// pooled per cluster: the dispatcher checks one out, tags the op, fills
// keys (and pos for scattered batches), the worker writes a rank or a
// multiplicity straight into the call's out, or fills ranks or outKeys
// for the gatherer to compose from, and the gatherer returns it to the
// pool — steady state allocates nothing.
type realBatch struct {
	op   batchOp
	keys []workload.Key
	// pos[i] is keys[i]'s position in the caller's query slice. A nil
	// pos means the batch is a contiguous run starting at posBase (a
	// slice of an already ascending call, or of any call to a
	// one-partition index), whose answers go to out[posBase:].
	pos     []int32
	posBase int
	// out is the call's result slice, which the worker of an opRank or
	// opMultiGet batch writes each answer into, at pos[i] (or posBase+i):
	// the master only routes. No two batches of a call share a slot.
	out []int
	// ranks holds counts only: one per pair for opCount, and a cut-run
	// ask's multiplicities (add), which the gatherer adds into out once
	// every other answer is in — both compose in the master.
	ranks []int
	// limit bounds a scan's result count (negative: unbounded) and is
	// the k of a top-k batch.
	limit int
	// outKeys is the worker's reply for the key-run ops (opScan
	// ascending, opTopK descending). Owned by the batch and recycled.
	outKeys []workload.Key
	// lp is the partition state the batch is answered against: set at
	// dispatch from the pinned epoch, so a batch routed before a
	// rebalance is answered by the epoch that routed it.
	lp *livePart
	// sorted marks keys as an ascending run, steering the worker onto
	// the sorted-run kernel (RankSorted), which searches on from each
	// answer instead of afresh per key.
	sorted bool
	// alias marks keys (and pos) as views into memory the batch does
	// not own — the caller's query slice or a pooled sort scratch — so
	// the gatherer drops them instead of recycling their capacity.
	alias bool
	// add marks a cut-run ask (KeyRun.Add): its multiplicities add into
	// out once every other answer of the call is in.
	add bool
	// keysBuf/posBuf are the batch's owned backing arrays. putBatch
	// restores them after an aliased use (and re-captures them after an
	// owned use grows them), so a workload that alternates sorted
	// (aliasing) and unsorted (accumulating) calls keeps its grown
	// capacity instead of re-allocating it every other call.
	keysBuf []workload.Key
	posBuf  []int32
	// reply routes the processed batch back to the issuing call; each
	// LookupBatch call gathers on its own channel, which is what makes
	// concurrent callers safe without a global lock.
	reply chan *realBatch
}

// workerStats tracks one worker's processed volume. Fields are atomics
// (callers may snapshot Stats while other goroutines query), and the
// struct is padded to a cache line so per-worker counters don't false-
// share.
type workerStats struct {
	keys    atomic.Int64
	batches atomic.Int64
	busyNs  atomic.Int64
	_       [40]byte
}

// Cluster is the running real engine. Create with NewCluster, query with
// Lookup/LookupBatch/LookupBatchInto, and Close when done. All lookup
// methods are safe for any number of concurrent callers: each call
// gathers replies on its own channel, so callers pipeline through the
// shared worker pool instead of serializing behind a lock. Close blocks
// until in-flight calls drain.
type Cluster struct {
	cfg  RealConfig
	keys []workload.Key

	// epoch is the current routing + partition state (see update.go):
	// one partition per worker for the Method C variants, one partition
	// every worker reads for A and B.
	epoch atomic.Pointer[updEpoch]

	in    []chan *realBatch
	wg    sync.WaitGroup
	stats []workerStats

	// insertMu serializes the write path against rebalances: insert
	// calls hold it shared for their full duration (through the acks),
	// the rebalancer takes it exclusively while migrating.
	insertMu    sync.RWMutex
	rebalanceCh chan struct{}
	stop        chan struct{}
	updWG       sync.WaitGroup
	budget      int

	insertedKeys atomic.Int64
	merges       atomic.Int64
	rebalances   atomic.Int64

	// batches pools *realBatch between dispatch and gather; calls pools
	// per-call dispatch state (gather channel + plan).
	// Each pool sits behind a bounded free-list channel: sync.Pool is
	// emptied by the garbage collector (victim caches survive only one
	// cycle), so a long-running cluster would re-allocate its entire
	// batch working set — tens of 16K-entry slices — after every GC.
	// The channel is invisible to the collector's pool sweep, holds the
	// steady-state working set (it is sized to the worst-case in-flight
	// batch count), and falls back to the pool only under bursts.
	freeBatches chan *realBatch
	freeCalls   chan *callState
	batches     sync.Pool
	calls       sync.Pool

	// cs is the durable state (nil without WALDir): the manifest and the
	// current epoch's partitions' logs.
	cs *clusterStore

	// mu is held shared by lookups for their full duration and
	// exclusively by Close, which therefore waits out in-flight calls.
	mu     sync.RWMutex
	closed bool //dc:guardedby mu

	rr atomic.Uint64 // round-robin cursor over the workers of a shared partition
}

// callState is one LookupBatch call's dispatch/gather scratch, pooled on
// the cluster.
type callState struct {
	// reply receives processed batches. LookupBatchInto grows it to
	// cover every batch the call can have in flight, so a worker never
	// blocks delivering a result (which would head-of-line-block other
	// callers' batches queued behind it); the pool keeps the largest.
	reply chan *realBatch
	// plan splits the call's keys or ranges into batches; runs holds the
	// answered batches of a scan or a top-k, and a MultiGet's cut-run
	// asks.
	plan Plan[workload.Key, *realBatch]
	runs []*realBatch
}

// NewCluster builds the index (one partition or one per worker, per the
// method), spawns the worker goroutines, and returns the running
// cluster.
func NewCluster(keys []workload.Key, cfg RealConfig) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("core: empty index")
	}
	if err := checkSorted(keys); err != nil {
		return nil, err
	}

	// Durable mode: recover the stored state first — an existing store
	// overrides the caller's keys, which then only seed a fresh
	// directory.
	var cs *clusterStore
	if cfg.WALDir != "" {
		var err error
		cs, err = openClusterStore(cfg.WALDir, index.StoreOptions{
			FS: cfg.WALFS, FsyncInterval: cfg.FsyncInterval, Logf: cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		if rec := cs.recoveredKeys(); rec != nil {
			if len(rec) == 0 {
				cs.close()
				return nil, fmt.Errorf("core: recovered an empty index from %s", cfg.WALDir)
			}
			if err := checkSorted(rec); err != nil {
				cs.close()
				return nil, fmt.Errorf("core: recovered keys from %s: %w", cfg.WALDir, err)
			}
			keys = rec
		}
	}

	c := &Cluster{
		cfg:         cfg,
		keys:        keys,
		in:          make([]chan *realBatch, cfg.Workers),
		stats:       make([]workerStats, cfg.Workers),
		rebalanceCh: make(chan struct{}, 1),
		stop:        make(chan struct{}),
		cs:          cs,
	}
	c.batches.New = func() any { return new(realBatch) }
	replyCap := cfg.Workers*queueDepth + cfg.Workers
	c.calls.New = func() any {
		return &callState{reply: make(chan *realBatch, replyCap)}
	}
	// Free-list capacities cover the steady state: every worker queue
	// full plus one accumulating and one in-process batch per worker,
	// and a handful of concurrent calls.
	c.freeBatches = make(chan *realBatch, cfg.Workers*(queueDepth+2))
	c.freeCalls = make(chan *callState, 16)

	ep, err := c.newEpoch(keys)
	if err == nil && cs != nil {
		err = c.attachDurable(ep)
	}
	if err != nil {
		if cs != nil {
			cs.close()
		}
		return nil, err
	}
	c.epoch.Store(ep)
	if cfg.PartitionBudget > 0 {
		c.budget = cfg.PartitionBudget
	} else if cfg.PartitionBudget == 0 {
		c.budget = 2 * ep.part.MaxPartKeys()
	}
	c.updWG.Add(1)
	go c.rebalancer()

	for w := 0; w < cfg.Workers; w++ {
		c.in[w] = make(chan *realBatch, queueDepth)
		c.wg.Add(1)
		go c.runWorker(w)
	}
	return c, nil
}

// Partitioning exposes the cluster's current routing structure, nil
// when the index is one partition (Methods A and B: there is nothing to
// route); callers reuse it instead of rebuilding one. A rebalance
// replaces it, so callers should not cache it across inserts.
func (c *Cluster) Partitioning() *Partitioning {
	if ep := c.epoch.Load(); len(ep.lps) > 1 {
		return ep.part
	}
	return nil
}

// workerFor picks the worker that answers a batch for partition s of
// ep: the partition's owner when every worker owns one, the next worker
// in turn when all of them read the one copy.
//
//dc:noalloc
func (c *Cluster) workerFor(ep *updEpoch, s int) int {
	if len(ep.lps) == c.cfg.Workers {
		return s
	}
	return c.nextWorker()
}

// nextWorker advances the round-robin cursor. The cursor is 64-bit so
// the modulo stays unbiased for any realistic lifetime: the previous
// uint32 cursor skewed selection toward low-numbered workers every time
// it wrapped when Workers didn't divide 2^32, whereas a uint64 never
// wraps in practice (584 years at a batch per nanosecond... per 584
// dispatchers) and the increment stays a single wait-free Add.
func (c *Cluster) nextWorker() int {
	return int((c.rr.Add(1) - 1) % uint64(c.cfg.Workers))
}

// processBatch executes one batch against the partition state it was
// routed with, switching on the op tag: scans and top-k fill outKeys
// with an ascending run from a pinned snapshot, counts compute into
// b.ranks, and ranks and multiplicities go straight into the call's out
// — ranks with the rank base (static plus the preceding partitions'
// insert counters) folded into the single write per key, through the
// kernel's positions form for a per-key batch. Every op reads; writes
// reach the partitions from InsertBatch's caller.
//
//dc:noalloc
func (c *Cluster) processBatch(b *realBatch) {
	lp := b.lp
	switch b.op {
	case opScan:
		b.outKeys = lp.upd.ScanRange(b.keys[0], b.keys[1], b.limit, b.outKeys[:0])
		b.ranks = b.ranks[:0]
		return
	case opTopK:
		b.outKeys = lp.upd.TopK(b.limit, b.outKeys[:0])
		slices.Reverse(b.outKeys)
		b.ranks = b.ranks[:0]
		return
	case opCount:
		b.ranks = CountPairs(lp.upd, b.keys, &b.outKeys, &b.ranks)
		return
	case opMultiGet:
		// The count kernel's scratch is the batch's own: the key-run buffer
		// no int-valued op fills, and room behind the counts. A contiguous
		// run counts straight into out, a sorted copy's run into ranks and
		// then out through pos; a cut-run ask stays in ranks.
		n := len(b.keys)
		b.ranks = slices.Grow(b.ranks[:0], 2*n)[:n]
		b.outKeys = slices.Grow(b.outKeys[:0], n)
		muls := b.ranks
		if !b.add && b.pos == nil {
			muls = b.out[b.posBase:]
		}
		lp.upd.CountKeys(b.keys, muls, b.outKeys[:n], b.ranks[n:2*n])
		if !b.add && b.pos != nil {
			for i, p := range b.pos {
				b.out[p] = muls[i]
			}
		}
		return
	}
	add := lp.rankBase + lp.ep.insertedBefore(lp.slot)
	switch {
	case b.pos != nil:
		lp.upd.RankInto(b.keys, b.pos, b.out, add)
	case b.sorted:
		lp.upd.RankSorted(b.keys, b.out[b.posBase:], add)
	default:
		lp.upd.RankBatch(b.keys, b.out[b.posBase:], add)
	}
}

func (c *Cluster) runWorker(w int) {
	defer c.wg.Done()
	st := &c.stats[w]
	for b := range c.in[w] {
		start := time.Now()
		c.processBatch(b)
		st.busyNs.Add(time.Since(start).Nanoseconds())
		st.keys.Add(int64(len(b.keys)))
		st.batches.Add(1)
		b.reply <- b
	}
}

// getBatch checks a pooled batch out for a call's reply channel.
func (c *Cluster) getBatch(reply chan *realBatch) *realBatch {
	var b *realBatch
	select {
	case b = <-c.freeBatches:
	default:
		b = c.batches.Get().(*realBatch)
	}
	b.op = opRank
	b.keys = b.keys[:0]
	b.pos = b.pos[:0]
	b.posBase = 0
	b.out = nil
	b.limit = 0
	b.outKeys = b.outKeys[:0]
	b.sorted = false
	b.alias = false
	b.add = false
	b.lp = nil
	b.reply = reply
	return b
}

// putBatch recycles b after its ranks were copied out. Aliased key and
// position slices (the sorted and one-partition dispatch point them at
// the caller's queries or at a call's pooled sort scratch) are
// swapped back for the batch's owned arrays rather than recycled: the
// aliased memory belongs to someone else and may be reused the moment
// the call returns, while the owned capacity must survive aliased uses
// so mixed sorted/unsorted workloads stay allocation-free.
func (c *Cluster) putBatch(b *realBatch) {
	if b.alias {
		b.keys, b.pos = b.keysBuf, b.posBuf
	} else {
		b.keysBuf, b.posBuf = b.keys, b.pos
	}
	b.reply = nil
	b.lp = nil
	b.out = nil
	select {
	case c.freeBatches <- b:
	default:
		c.batches.Put(b)
	}
}

// LookupBatch routes queries through the cluster and returns their
// global ranks, in query order. It is safe for concurrent callers.
func (c *Cluster) LookupBatch(queries []workload.Key) ([]int, error) {
	out := make([]int, len(queries))
	if err := c.LookupBatchInto(queries, out); err != nil {
		return nil, err
	}
	return out, nil
}

// LookupBatchInto is LookupBatch writing into a caller-provided slice
// (len(out) >= len(queries)), the zero-allocation steady-state entry
// point. The caller plays the master: it partitions (Method C) or
// cuts (A/B) the stream into batches, dispatches them over the
// channel interconnect, and gathers replies on a per-call channel —
// concurrent callers pipeline through the same worker pool. The worker
// goroutines write each rank into out[:len(queries)] themselves while
// the call runs, and nothing else of out: the caller must not read or
// write out until the call returns.
//
//dc:noalloc
func (c *Cluster) LookupBatchInto(queries []workload.Key, out []int) error {
	if len(out) < len(queries) {
		return fmt.Errorf("core: out len %d < %d queries", len(out), len(queries))
	}
	if err := CheckCallSize(len(queries)); err != nil {
		return err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return fmt.Errorf("core: cluster is closed")
	}
	if len(queries) == 0 {
		return nil
	}
	cs := c.getCall()
	defer c.putCall(cs)
	c.rankDispatch(cs, queries, out, opRank)
	return nil
}

// getCall checks a pooled per-call dispatch state out.
func (c *Cluster) getCall() *callState {
	select {
	case cs := <-c.freeCalls:
		return cs
	default:
		return c.calls.Get().(*callState)
	}
}

// putCall recycles a call's dispatch state.
func (c *Cluster) putCall(cs *callState) {
	select {
	case c.freeCalls <- cs:
	default:
		c.calls.Put(cs)
	}
}

// handOver sends b to worker w for the call that owns cs, handing the
// call's replies to gather while the worker's queue is full and then
// whatever replies are ready, without waiting for more: the workers
// search on meanwhile, and the call's batches recycle inside it.
func (c *Cluster) handOver(cs *callState, w int, b *realBatch, gather func(*realBatch)) {
	for {
		select {
		case c.in[w] <- b:
			for {
				select {
				case r := <-cs.reply:
					gather(r)
				default:
					return
				}
			}
		case r := <-cs.reply:
			gather(r)
		}
	}
}

// rankDispatch answers the key-at-a-time ops (opRank, opMultiGet): the
// call's Plan splits queries into batches, each handed to its worker as
// it is planned, and each worker writes its batch's answers into out at
// their positions; the gather only counts replies and recycles batches,
// and adds a MultiGet's cut-run asks once every other answer is in. A
// per-key batch holds a hand-off's worth of keys, so the
// workers search the first slices while the master still routes the
// rest; runs are cut at BatchKeys, their master having no per-key work
// to overlap with the workers'. An unsorted opRank call is not sorted:
// with partitions that fit the cache the per-key path measured faster at
// every call size. The caller holds c.mu shared and owns cs.
//
//dc:noalloc
func (c *Cluster) rankDispatch(cs *callState, queries []workload.Key, out []int, op batchOp) {
	if len(queries) == 0 {
		return
	}
	// Pin the routing epoch for the whole call: every batch carries the
	// livePart it was routed with, so a rebalance installing new
	// delimiters mid-call cannot mismatch routing and answering state.
	ep := c.epoch.Load()
	kop := RankKeys
	if op == opMultiGet {
		kop = MultiGetKeys
	}
	slice := c.handoff(len(queries))
	// Room for every batch the call can have in flight. Steady state this
	// is a no-op (the pooled channel already grew).
	if need := ep.part.Requests(len(queries), slice, kop); cap(cs.reply) < need {
		cs.reply = make(chan *realBatch, need)
	}
	pending := 0
	cs.runs = cs.runs[:0]
	gather := func(b *realBatch) {
		pending--
		if b.add {
			cs.runs = append(cs.runs, b)
			return
		}
		c.putBatch(b)
	}
	send := func(s int, b *realBatch) {
		pending++
		c.handOver(cs, c.workerFor(ep, s), b, gather)
	}
	room := min(slice, len(queries)) // the most keys one batch can receive
	cs.plan.Keys(ep.part, queries, kop, slice, c.cfg.BatchKeys, func(s int) (*realBatch, *[]workload.Key, *[]int32) {
		b := c.getBatch(cs.reply)
		b.op, b.lp, b.out = op, ep.lps[s], out
		if cap(b.keys) < room {
			// A new batch, or one last used by a shorter call: one
			// allocation each instead of append's doublings.
			b.keys, b.pos = make([]workload.Key, 0, room), make([]int32, 0, room)
		}
		return b, &b.keys, &b.pos
	}, send, func(r KeyRun) {
		// A run aliases the caller's keys or the plan's sorted copy.
		b := c.getBatch(cs.reply)
		b.op, b.lp, b.out = op, ep.lps[r.Part], out
		b.keys, b.pos, b.posBase = r.Keys, r.Pos, r.PosBase
		b.sorted, b.add, b.alias = r.Sorted, r.Add, true
		send(r.Part, b)
	})
	for pending > 0 {
		gather(<-cs.reply)
	}
	for _, b := range cs.runs {
		AddCounts(out[b.posBase:], b.pos, b.ranks)
		c.putBatch(b)
	}
}

// Lookup resolves a single key synchronously (a convenience wrapper; for
// throughput use LookupBatch).
func (c *Cluster) Lookup(q workload.Key) (int, error) {
	var one [1]workload.Key
	var res [1]int
	one[0] = q
	if err := c.LookupBatchInto(one[:], res[:]); err != nil {
		return 0, err
	}
	return res[0], nil
}

// RealStats summarizes the workers' lifetime work, which is queries
// only: inserts are applied by their caller and never pass through a
// worker (UpdateStats counts them).
type RealStats struct {
	Method  Method
	Workers int
	// KeysProcessed counts the query keys (range endpoints, scan bounds)
	// the workers answered; Batches the hand-offs they arrived in.
	KeysProcessed int64
	Batches       int64
	// BusyPerWorker is each worker's cumulative processing time.
	BusyPerWorker []time.Duration
}

// Stats snapshots the per-worker counters. Safe to call concurrently
// with lookups; a snapshot taken mid-call reflects the batches completed
// so far.
func (c *Cluster) Stats() RealStats {
	s := RealStats{
		Method:        c.cfg.Method,
		Workers:       c.cfg.Workers,
		BusyPerWorker: make([]time.Duration, c.cfg.Workers),
	}
	for w := range c.stats {
		s.KeysProcessed += c.stats[w].keys.Load()
		s.Batches += c.stats[w].batches.Load()
		s.BusyPerWorker[w] = time.Duration(c.stats[w].busyNs.Load())
	}
	return s
}

// Close shuts the workers down and waits for them to exit. Calls in
// flight complete first (including insert calls); further lookups and
// inserts fail. Background compactions and the rebalancer are drained
// before Close returns. Close is idempotent.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	close(c.stop)
	for _, ch := range c.in {
		close(ch)
	}
	c.wg.Wait()
	c.updWG.Wait()
	c.quiesceUpdates()
	if c.cs != nil {
		c.cs.close()
	}
}
