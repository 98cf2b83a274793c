// Package dcindex is the public API of the distributed in-cache index
// described in "Fast Query Processing by Distributing an Index over CPU
// Caches" (Ma & Cooperman, CLUSTER 2005).
//
// The index answers rank queries over a large sorted key set: Rank(k)
// returns how many indexed keys are <= k, which identifies the sub-range
// — and therefore the responsible node — for any incoming key. Instead
// of replicating the index on every node and paying a cache miss per
// tree level (the index is far larger than any CPU cache), the index is
// partitioned so every partition fits inside one node's cache, and
// queries travel in batches over the interconnect to the partition
// owner.
//
// Three layers are exposed:
//
//   - The real runtime (Open/Rank/RankBatch): goroutine nodes and
//     channel interconnect executing actual lookups on the host. All
//     five of the paper's methods are available; results are identical
//     across methods, only performance differs. An Index is safe for
//     any number of concurrent callers: every RankBatch call gathers
//     replies on its own channel, so callers pipeline through the
//     shared worker pool instead of serializing behind a lock. Batch
//     buffers are pooled; with RankBatchInto reusing the result slice,
//     MethodC3's sorted arrays and MethodA's and MethodC1's trees
//     allocate nothing per call in steady state (the buffered methods B
//     and C-2 still allocate inside the Zhou-Ross buffering plan). Close
//     blocks until in-flight calls drain. Ascending query batches
//     are auto-detected and take the sorted-batch pipeline — one
//     boundary search per partition instead of per-key routing,
//     zero-copy contiguous dispatch, and sorted-run search kernels
//     (see the README's "Sorted-batch mode"). The index is
//     updatable while serving: Insert/InsertBatch buffer new keys in
//     per-partition deltas, background merges compact them, and a
//     rebalance re-derives the partition delimiters when inserts skew
//     a partition past its cache budget (see the README's "Online
//     updates"). Beyond ranks, the same op-tagged batch pipeline
//     answers range counts, ordered range scans, top-k, and key
//     multiplicities — CountRange/CountRangeBatch, ScanRange, TopK,
//     MultiGet — exact against the live index (see the README's
//     "Query surface").
//   - The simulator (Simulate): a trace-driven cache/network/cluster
//     simulation parameterized by the paper's measured Pentium III
//     constants (Table 2), which reproduces the paper's Figure 3 numbers
//     deterministically on any host, one batch size a call.
//   - The analytical model (ProjectFigure4): Appendix A's closed-form
//     cost equations and the Section 4.2 future projection.
//
// Quickstart:
//
//	keys := dcindex.GenerateKeys(327680, 1)
//	idx, _ := dcindex.Open(keys, dcindex.Options{Method: dcindex.MethodC3})
//	defer idx.Close()
//	ranks, _ := idx.RankBatch(queries)
package dcindex

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netrun"
	"repro/internal/paper"
	"repro/internal/workload"
)

// Key is a 4-byte search key, the unit the paper indexes.
type Key = workload.Key

// Method selects one of the paper's five query-processing strategies.
type Method = core.Method

// The five methods of Section 3. MethodC3 — the partitioned sorted array
// with binary search — is the paper's overall winner.
const (
	MethodA  = core.MethodA
	MethodB  = core.MethodB
	MethodC1 = core.MethodC1
	MethodC2 = core.MethodC2
	MethodC3 = core.MethodC3
)

// Methods lists all five strategies in presentation order.
func Methods() []Method { return core.Methods() }

// Arch is an architecture parameter set for the simulator and model.
type Arch = arch.Params

// PentiumIII returns Table 2: the paper's measured cluster parameters.
func PentiumIII() Arch { return arch.PentiumIIICluster() }

// GenerateKeys returns n distinct, sorted, uniformly distributed keys —
// a ready-to-index key set (deterministic per seed).
func GenerateKeys(n int, seed uint64) []Key { return workload.SortedKeys(n, seed) }

// GenerateQueries returns q uniformly random query keys (deterministic
// per seed) — the paper's workload.
func GenerateQueries(q int, seed uint64) []Key { return workload.UniformQueries(q, seed) }

// DurabilityOptions groups the write-durability knobs: where the
// write-ahead state lives and whether it is fsynced. The zero value
// keeps the index purely in memory.
//
//dc:knobs ../README.md
type DurabilityOptions struct {
	// WALDir, when non-empty, makes writes durable: every partition
	// keeps a write-ahead log and segment snapshots under this
	// directory, InsertBatch returns only after the batch is fsynced,
	// and Open recovers the directory's state — the caller's keys then
	// serve only as the baseline for a fresh directory. Empty keeps the
	// index purely in memory.
	WALDir string
	// FsyncInterval chooses whether the WAL is fsynced when WALDir is
	// set: 0 fsyncs every group commit (full durability), < 0 never
	// fsyncs (benchmarking only — acks are no longer crash-durable).
	// Open refuses a positive value.
	FsyncInterval time.Duration
}

// Options configures the real runtime.
//
//dc:knobs ../README.md
type Options struct {
	// Method selects the strategy; the zero value is MethodC3, the
	// paper's recommended configuration.
	Method Method
	// Workers is the number of processing goroutines (default 8): the
	// slave count for Method C (one partition each); for A/B, how many
	// workers read the one copy of the index.
	Workers int
	// BatchKeys is the most keys one hand-off to a worker carries
	// (default 16384). It is a ceiling: the runtime hands a call over in
	// about eight slices per worker so the workers search while the
	// caller's goroutine still routes, and only calls of 8 x Workers x
	// BatchKeys keys or more reach it.
	BatchKeys int
	// Durability groups the write-durability knobs (WAL directory and
	// whether to fsync). The zero value keeps the index purely in memory.
	Durability DurabilityOptions
}

// withDefaults fills every field the caller left zero from
// core.DefaultRealConfig, the one home of the in-process defaults.
func (o Options) withDefaults() core.RealConfig {
	cfg := core.DefaultRealConfig(o.Method)
	if o.Workers != 0 {
		cfg.Workers = o.Workers
	}
	if o.BatchKeys != 0 {
		cfg.BatchKeys = o.BatchKeys
	}
	cfg.WALDir = o.Durability.WALDir
	cfg.FsyncInterval = o.Durability.FsyncInterval
	return cfg
}

// Index is a running distributed index. All lookup methods are safe for
// any number of concurrent callers — calls pipeline through the shared
// worker pool, each gathering on its own channel. Close blocks until
// in-flight calls finish, then releases the worker goroutines.
type Index struct {
	c   *core.Cluster
	opt core.RealConfig
}

// Open builds the index over sorted keys (ascending; duplicates allowed)
// and starts the runtime. It returns an error for unsorted or empty
// input or invalid options.
func Open(keys []Key, opt Options) (*Index, error) {
	cfg := opt.withDefaults()
	c, err := core.NewCluster(keys, cfg)
	if err != nil {
		return nil, err
	}
	return &Index{c: c, opt: cfg}, nil
}

// Method returns the strategy the index runs.
func (ix *Index) Method() Method { return ix.opt.Method }

// Rank returns the number of indexed keys <= k.
func (ix *Index) Rank(k Key) (int, error) { return ix.c.Lookup(k) }

// RankBatch resolves a query batch, returning global ranks in query
// order. Batching is how the paper's design amortizes communication;
// prefer it over Rank for throughput.
func (ix *Index) RankBatch(queries []Key) ([]int, error) {
	return ix.c.LookupBatch(queries)
}

// RankBatchInto is RankBatch writing into a caller-provided slice
// (len(out) >= len(queries)): the zero-allocation steady-state entry
// point for callers that recycle their result buffers. The index's
// worker goroutines write the ranks into out[:len(queries)] while the
// call runs (out[len(queries):] is left as it was), so the caller must
// not read or write out until RankBatchInto returns.
func (ix *Index) RankBatchInto(queries []Key, out []int) error {
	return ix.c.LookupBatchInto(queries, out)
}

// Insert adds one key to the running index. See InsertBatch.
func (ix *Index) Insert(k Key) error { return ix.c.Insert(k) }

// InsertBatch adds keys (any order, duplicates allowed) to the running
// index while it serves traffic: each key lands in the owning
// partition's small sorted delta buffer (replicated methods apply the
// batch to every replica), rank answers fold the buffered keys in
// immediately, and once a buffer holds max(4096, an eighth of its
// partition) keys a background merge compacts buffer and base into a
// fresh immutable structure — readers never block on a merge. When
// inserts grow a partition past twice the initial partition size, a
// background rebalance re-derives the partition delimiters so every
// partition keeps fitting its cache. InsertBatch returns once the keys
// are applied: ranks requested after it returns include them. Safe for
// any number of concurrent callers, concurrently with RankBatch.
func (ix *Index) InsertBatch(keys []Key) error { return ix.c.InsertBatch(keys) }

// KeyRange is an inclusive key interval [Lo, Hi] for CountRangeBatch.
type KeyRange = core.KeyRange

// CountRange returns the number of indexed keys in [lo, hi] inclusive
// (0 if hi < lo). Every partition the range spans counts its own keys in
// it — rank(hi) − rank(lo−1) on one snapshot of the partition — and the
// counts add up; an insert lands in one partition, so the count is exact
// under concurrent inserts too.
func (ix *Index) CountRange(lo, hi Key) (int, error) { return ix.c.CountRange(lo, hi) }

// CountRangeBatch answers many range counts in one dispatch: out[i]
// receives the key count of ranges[i] (len(out) >= len(ranges)).
func (ix *Index) CountRangeBatch(ranges []KeyRange, out []int) error {
	return ix.c.CountRangeBatch(ranges, out)
}

// ScanRange returns the indexed keys in [lo, hi] in ascending order,
// at most limit of them (limit < 0 means unlimited), appended to buf.
// Partitions stream their sub-ranges in partition order, which is key
// order, so the concatenation needs no merge.
func (ix *Index) ScanRange(lo, hi Key, limit int, buf []Key) ([]Key, error) {
	return ix.c.ScanRange(lo, hi, limit, buf)
}

// TopK returns the k largest indexed keys in descending order,
// appended to buf.
func (ix *Index) TopK(k int, buf []Key) ([]Key, error) { return ix.c.TopK(k, buf) }

// MultiGet returns the multiplicity of each query key — how many
// copies the index holds, CountRange(k, k) — in query order, answered by
// the partition each key routes to alone; when a run of copies is longer
// than a partition, the copies under it are a count the routing table
// holds.
func (ix *Index) MultiGet(keys []Key) ([]int, error) { return ix.c.MultiGet(keys) }

// MultiGetInto is MultiGet writing into a caller-provided slice
// (len(out) >= len(keys)).
func (ix *Index) MultiGetInto(keys []Key, out []int) error { return ix.c.MultiGetInto(keys, out) }

// Owner returns the worker (slave) that owns key k's sub-range: the
// routing decision a master makes, answered from the cluster's own
// routing table. For Methods A and B the index is one partition every
// worker reads, and Owner returns 0.
func (ix *Index) Owner(k Key) int {
	p := ix.c.Partitioning()
	if p == nil {
		return 0
	}
	return p.Route(k)
}

// UpdateStats mirrors core.UpdateStats: the write-path counters.
type UpdateStats = core.UpdateStats

// RuntimeStats mirrors core.RealStats: the runtime's lifetime work
// counters (batches dispatched, keys processed, merges, and so on).
type RuntimeStats = core.RealStats

// StatsSchemaVersion identifies the shape of the Stats and
// ClusterStats trees. Bump it on any structural change so operators
// scraping /stats can detect a mismatch instead of silently misreading
// fields.
const StatsSchemaVersion = netrun.StatsSchemaVersion

// Stats is the unified, versioned observability tree for an in-process
// Index: one snapshot of the key count, the method, the write-path
// counters and the runtime work counters. The json tags
// are the wire schema served by the admin /stats endpoint.
type Stats struct {
	// SchemaVersion is StatsSchemaVersion at build time.
	SchemaVersion int `json:"schema_version"`
	// Method is the strategy the index runs ("A", "B", "C-1", ...).
	Method string `json:"method"`
	// Keys is the current indexed key count (seed keys plus applied
	// inserts).
	Keys int `json:"keys"`
	// Updates are the write-path counters: keys inserted, background
	// merges completed, rebalances installed.
	Updates UpdateStats `json:"updates"`
	// Runtime are the lifetime work counters of the query pipeline.
	Runtime RuntimeStats `json:"runtime"`
}

// Stats snapshots the full observability tree in one call.
func (ix *Index) Stats() Stats {
	return Stats{
		SchemaVersion: StatsSchemaVersion,
		Method:        ix.opt.Method.String(),
		Keys:          ix.c.KeyCount(),
		Updates:       ix.c.UpdateStats(),
		Runtime:       ix.c.Stats(),
	}
}

// ClusterStats is the TCP-side counterpart of Stats, as returned by
// TCPCluster.Stats: the same versioned tree shape with per-replica
// ReplicaStats rows in place of the single-process runtime counters.
type ClusterStats = netrun.ClusterStats

// Close shuts down the runtime. It is idempotent.
func (ix *Index) Close() { ix.c.Close() }

// SimOptions configures one simulated experiment.
type SimOptions struct {
	// Arch is the simulated machine; zero value means PentiumIII().
	Arch Arch
	// Method under test.
	Method Method
	// IndexKeys is the key count of the Table 1 index (default 327680).
	IndexKeys int
	// Queries is the workload size (default 2^23, the paper's).
	Queries int
	// BatchBytes is Figure 3's x-axis (default 128 KB, Table 3's point).
	BatchBytes int
	// Masters and Slaves shape the cluster (defaults 1 and 10).
	Masters, Slaves int
	// SampleQueries caps the simulated work before extrapolation;
	// 0 picks an automatic steady-state sample. Set equal to Queries
	// for an exact full run.
	SampleQueries int
	// Seed makes the query stream reproducible.
	Seed uint64
	// Skew > 0 draws queries Zipf-distributed over the index instead
	// of uniformly (load-imbalance ablation; the paper assumes 0).
	Skew float64
}

func (o SimOptions) toConfig() paper.SimConfig {
	cfg := paper.SimConfig{
		P:             o.Arch,
		Method:        o.Method,
		IndexKeys:     workload.EvenKeys(cmp.Or(o.IndexKeys, 327680)),
		TotalQueries:  cmp.Or(o.Queries, 1<<23),
		BatchBytes:    cmp.Or(o.BatchBytes, 128<<10),
		Masters:       cmp.Or(o.Masters, 1),
		Slaves:        cmp.Or(o.Slaves, 10),
		SampleQueries: o.SampleQueries,
		QuerySeed:     cmp.Or(o.Seed, 42),
		Skew:          o.Skew,
	}
	if cfg.P.Name == "" {
		cfg.P = arch.PentiumIIICluster()
	}
	return cfg
}

// Report is a simulated experiment's outcome (see paper.SimReport for
// field documentation).
type Report = paper.SimReport

// Simulate runs one simulated experiment.
func Simulate(o SimOptions) (Report, error) {
	return paper.Run(o.toConfig())
}

// TCPCluster is a distributed index over real sockets: each partition is
// served by one or more node processes (cmd/dcnode or ServePartition),
// and this client routes query batches to a healthy replica of each
// partition owner — the paper's deployment model, with TCP in place of
// MPI and a replica-group availability layer on top.
//
// A TCPCluster is safe for any number of concurrent LookupBatch /
// LookupBatchInto callers: requests multiplex over the shared node
// connections by request id, so concurrent masters pipeline instead of
// serializing behind a lock, and the steady state allocates nothing per
// batch. Failures are per replica: a connection error, per-op timeout,
// or protocol violation drops only that replica from its partition's
// group — its in-flight batches are re-dispatched to a surviving
// replica and a background rejoin loop re-dials it with capped
// exponential backoff until it rejoins (TCPCluster.Stats().Replicas
// reports per-replica liveness and traffic). Only when a partition loses its
// last replica does the cluster become terminal — every in-flight and
// subsequent call returns the root-cause error (TCPCluster.Err reports
// it) — because a partitioned index with an unreachable partition
// cannot answer arbitrary queries. Recovery from a terminal failure is
// the caller's: Close the TCPCluster and dial a new one.
//
// A TCPCluster is also writable: Insert/InsertBatch route keys to the
// owning partitions and fan each write out to every connected writable
// replica (read-only nodes never receive writes), and a
// replica rejoining after a failure first reloads a sibling's snapshot
// so it cannot serve stale ranks. Ranks are exact whichever client
// inserted: each rank call asks the partitions below the ones it reads
// for their live key counts. One limit stays: a read-only replica serves
// reads until this TCPCluster learns that its partition was written — at
// dial, or by its own write — so another client's writes can make that
// replica's answers stale. See the netrun package documentation for the
// protocol.
//
// Beyond ranks, a TCPCluster serves the same query surface as an
// in-process Index — CountRange/CountRangeBatch, ScanRange, TopK, and
// MultiGet/MultiGetInto — planned and composed by the same code: each op
// asks the partitions its keys route to and composes their answers in
// partition (= key) order; a replica that dies mid-op has its pending
// requests re-dispatched to a sibling, so results are identical through
// a failover.
//
// The operations plane rides the same handle: Stats returns the
// versioned ClusterStats tree, Telemetry exposes the per-op latency
// histograms, Admin reports the optionally mounted HTTP server
// (TCPOptions.Admin.Addr), and the live-membership ops —
// AddReplica, DrainReplica, SplitPartition — reshape a serving cluster
// without restarting it (see the README's "Operations" section).
type TCPCluster = netrun.Cluster

// TCPOptions configures DialClusterOptions: batch granularity, the
// per-op progress timeout that turns a hung node into prompt failover
// instead of a blocked master, and the replica count for flat address
// lists. Ascending batches are auto-detected and ride the sorted
// pipeline's one-sweep routing; their frames are plain words, as for any
// lookup, and the node picks the sorted kernel from the keys. The dial
// timeout (5s) and the rejoin backoff (100ms doubling to 3s) are fixed.
//
// The resilience knobs: Hedging arms hedged reads (re-dispatch to a
// sibling past the partition's latency quantile, first valid reply wins,
// spend capped by a token bucket), Ejection arms latency-scored outlier
// ejection with probed readmission, Admin mounts the HTTP admin/metrics
// server on the client, and Dialer injects a custom transport — e.g. an
// internal/faultnet wrapper — for deterministic resilience drills.
type TCPOptions = netrun.DialOptions

// ReplicaStats is one replica's liveness and traffic counters inside
// ClusterStats: partition, address, current liveness,
// dispatched/failure/rejoin counts for the current epoch, and the
// gray-failure view — probation State, latency EWMA, and the
// hedge/ejection/probe/readmit/budget-denied counters.
type ReplicaStats = netrun.ReplicaHealth

// DialClusterOptions connects to every replica of every partition of keys
// and verifies that each node serves the partition the local routing
// table expects. Each element of addrs names partition i's replica set: a
// single address, or several packed as "host:a|host:b" (replicas fail
// over behind one routing slot; see TCPOptions.Replicas for flat lists).
// The zero TCPOptions takes every default.
func DialClusterOptions(addrs []string, keys []Key, opt TCPOptions) (*TCPCluster, error) {
	return netrun.Dial(addrs, keys, opt)
}

// ServePartition serves partition part of parts over addr, blocking
// until the listener fails. The key set must be identical on every node
// and client (use GenerateKeys with a shared seed, or distribute the key
// file).
func ServePartition(addr string, keys []Key, parts, part int) error {
	p, err := core.NewPartitioning(keys, parts)
	if err != nil {
		return err
	}
	if part < 0 || part >= parts {
		return fmt.Errorf("dcindex: partition %d out of range [0,%d)", part, parts)
	}
	return netrun.ListenAndServe(addr, p.Parts[part].Keys, p.Parts[part].RankBase)
}

// YearPoint mirrors model.YearPoint: one Figure 4 projection point.
type YearPoint = model.YearPoint

// ProjectFigure4 projects the model over the given number of years under
// the paper's scaling assumptions.
func ProjectFigure4(a Arch, years int) []YearPoint {
	return model.Figure4(a, years, arch.PaperScaling())
}
