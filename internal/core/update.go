package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buffering"
	"repro/internal/index"
	"repro/internal/workload"
)

// This file is the online-update layer of the real runtime: the paper's
// cluster, made writable while it serves traffic. Each partition (or
// replica) is an index.Updatable — an immutable base structure plus a
// small sorted delta buffer that a background goroutine periodically
// compacts — and the cluster glues them into a consistent whole:
//
//   - Inserts route like queries (Method C) or broadcast to every
//     replica (Methods A/B) and are applied by the owning worker
//     goroutine, so they serialize with that partition's reads without
//     any locking on the read path.
//   - Global ranks stay exact across partitions: an insert into
//     partition j shifts the global rank of every key in partitions
//     > j, so each epoch carries per-partition insert counters and a
//     read of partition s adds the counters of partitions < s to its
//     static rank base. Counters are monotone, so a read racing an
//     insert returns a rank the index held at some instant during the
//     call — the same linearization the static runtime provides.
//   - When a partition outgrows its budget — the paper's fits-in-cache
//     invariant, violated by skewed inserts — a background rebalance
//     recomputes the Partitioning delimiters over the full current key
//     set and swaps in a fresh epoch: new partition slices, new rank
//     bases, zeroed counters. Reads never block: calls pin the epoch
//     they routed with and old epochs answer stale-pinned batches
//     correctly forever (their state is frozen once writes move on).
//     Writes stall for the duration of the swap — the brief exclusive
//     section is what makes the migrated snapshot exact.

// livePart is one worker's live index state: the updatable base+delta
// stack for a partition (distributed methods, one per partition per
// epoch) or for a full replica (replicated methods, one per worker for
// the cluster's lifetime, ep == nil).
type livePart struct {
	slot     int
	rankBase int
	upd      *index.Updatable
	ep       *updEpoch

	// store is the partition's durable log (nil without WALDir).
	// dispatchMu serializes append-to-log with enqueue-to-worker: the
	// worker channel is single-consumer, so holding the lock across
	// both makes apply order equal WAL order — the invariant that lets
	// a frozen-layer watermark double as a segment flush point.
	store      *index.Store
	dispatchMu sync.Mutex
}

// Lock ordering on the write path: an insert call holds the cluster
// read gate (Cluster.mu) for its whole duration, takes the
// write/rebalance gate (Cluster.insertMu) inside it, and only then a
// dispatch lock — the owning partition's dispatchMu for the
// distributed methods, the shared replMu for the replicated ones.
// dclint (lockguard) enforces these orders.
//
//dc:lockorder Cluster.mu Cluster.insertMu
//dc:lockorder Cluster.insertMu livePart.dispatchMu
//dc:lockorder Cluster.insertMu Cluster.replMu

// updEpoch is one generation of the distributed methods' routing and
// partition state. A rebalance installs a fresh epoch; batches carry
// the livePart they were routed with, so in-flight work finishes
// against the epoch it started in.
type updEpoch struct {
	part     *Partitioning
	lps      []*livePart
	inserted []insCounter // per-partition keys inserted this epoch
	staticN  int          // total keys at epoch creation
}

// insCounter is a cache-line-padded per-partition insert counter:
// bumped by the owning worker, summed by every other partition's reads.
type insCounter struct {
	n atomic.Int64
	_ [56]byte
}

// insertedBefore sums the inserts applied to partitions < slot: the
// dynamic component of slot's global rank base.
func (ep *updEpoch) insertedBefore(slot int) int {
	s := 0
	for j := 0; j < slot; j++ {
		s += int(ep.inserted[j].n.Load())
	}
	return s
}

// insertedTotal sums all partitions' inserts this epoch.
func (ep *updEpoch) insertedTotal() int { return ep.insertedBefore(len(ep.inserted)) }

// methodBuilder returns the Builder that constructs one partition's (or
// replica's) base structure for the configured method: the delta layer
// is structure-agnostic, which is how all five methods share one update
// mechanism.
func methodBuilder(cfg RealConfig) index.Builder {
	switch cfg.Method {
	case MethodA, MethodC1:
		return func(keys []workload.Key) index.BatchRanker {
			return treeRanker{t: index.NewNaryTree(keys, 0)}
		}
	case MethodB:
		return func(keys []workload.Key) index.BatchRanker {
			return planRanker{plan: buffering.NewPlan(index.NewNaryTree(keys, 0), 256<<10)}
		}
	case MethodC2:
		return func(keys []workload.Key) index.BatchRanker {
			return planRanker{plan: buffering.NewPlan(index.NewNaryTree(keys, 0), 8<<10)}
		}
	default: // MethodC3
		// NewCluster has run checkSorted over every key set that reaches
		// an epoch, and merges and rebalances only merge and slice those.
		return index.BuildSortedArrayUnchecked
	}
}

// treeRanker adapts the n-ary tree's per-key Rank to the batch API.
type treeRanker struct{ t *index.Tree }

func (tr treeRanker) RankBatch(qs []workload.Key, out []int, add int) {
	for i, k := range qs {
		out[i] = tr.t.Rank(k) + add
	}
}

// planRanker adapts a Zhou-Ross buffered plan to the batch API.
type planRanker struct{ plan buffering.Plan }

func (pr planRanker) RankBatch(qs []workload.Key, out []int, add int) {
	pr.plan.RankBatch(qs, out, add, buffering.Hooks{})
}

// newEpoch builds a full epoch over sorted keys: partitioning, one
// updatable per partition, zeroed counters.
func (c *Cluster) newEpoch(keys []workload.Key) (*updEpoch, error) {
	part, err := newPartitioningSorted(keys, c.cfg.Workers)
	if err != nil {
		return nil, err
	}
	ep := &updEpoch{
		part:     part,
		lps:      make([]*livePart, c.cfg.Workers),
		inserted: make([]insCounter, c.cfg.Workers),
		staticN:  len(keys),
	}
	build := methodBuilder(c.cfg)
	for s := range ep.lps {
		u := index.NewUpdatable(part.Parts[s].Keys, build, c.cfg.MergeThreshold)
		u.OnMerge = c.noteMerge
		ep.lps[s] = &livePart{slot: s, rankBase: part.Parts[s].RankBase, upd: u, ep: ep}
	}
	return ep, nil
}

func (c *Cluster) noteMerge() { c.merges.Add(1) }

// Insert adds one key to the index while it serves traffic.
func (c *Cluster) Insert(k workload.Key) error {
	var one [1]workload.Key
	one[0] = k
	return c.InsertBatch(one[:])
}

// InsertBatch adds keys (any order, duplicates allowed) to the running
// index. For the distributed methods each key routes to the partition
// owning its sub-range; for the replicated methods the batch is applied
// to every replica. It returns once every destination applied the keys:
// reads that start after it returns see them, and concurrent reads see
// a consistent point-in-time subset. Safe for any number of concurrent
// callers, and safe concurrently with lookups.
func (c *Cluster) InsertBatch(keys []workload.Key) error {
	if len(keys) == 0 {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return fmt.Errorf("core: cluster is closed")
	}
	// Held for the whole call, through the acks: the rebalancer's
	// exclusive section can therefore equate "no insert calls in
	// flight" with "every accepted key is applied", which is what makes
	// its migration snapshot exact.
	c.insertMu.RLock()
	defer c.insertMu.RUnlock()

	cs := c.getCall()
	defer c.putCall(cs)
	bk := c.cfg.BatchKeys
	// Worst-case in-flight batches: the distributed methods split the
	// keys across partitions (one partial flush each); the replicated
	// methods send every chunk to every worker, multiplying the count.
	// Sizing the reply channel to cover it keeps the workers'
	// unconditional reply sends non-blocking, so a slow gatherer can
	// never stall other callers' batches behind an insert.
	need := len(keys)/bk + c.cfg.Workers + 1
	if !c.cfg.Method.Distributed() {
		need = c.cfg.Workers*(len(keys)/bk+1) + 1
	}
	if cap(cs.reply) < need {
		cs.reply = make(chan *realBatch, need)
	}
	pending := 0
	gather := func(b *realBatch) {
		c.putBatch(b)
		pending--
	}
	send := func(w int, b *realBatch) {
		pending++
		for {
			select {
			case c.in[w] <- b:
				return
			case r := <-cs.reply:
				gather(r)
			}
		}
	}

	// In durable mode an insert is logged before it is sent to its
	// worker (under the partition's dispatch lock, so apply order equals
	// WAL order) and the ack additionally waits for the group fsync
	// covering the appended records. An error return means nothing was
	// acknowledged — the keys may or may not survive a restart, exactly
	// like a crash mid-call.
	var insErr error
	if c.cfg.Method.Distributed() {
		ep := c.epoch.Load()
		durable := c.cs != nil
		if durable {
			for s := range cs.ends {
				cs.ends[s] = 0
			}
		}
		sendIns := func(s int, b *realBatch) {
			if !durable {
				send(s, b)
				return
			}
			if insErr != nil {
				c.putBatch(b) // already failing: drop, don't ack
				return
			}
			lp := ep.lps[s]
			lp.dispatchMu.Lock()
			end, gen, err := lp.store.Append(b.keys)
			if err != nil {
				lp.dispatchMu.Unlock()
				c.putBatch(b)
				insErr = err
				return
			}
			b.seq = gen
			send(s, b)
			lp.dispatchMu.Unlock()
			cs.ends[s] = end
		}
		for _, k := range keys {
			s := ep.part.Route(k)
			b := cs.accum[s]
			if b == nil {
				b = c.getBatch(cs.reply)
				b.op = opInsert
				b.lp = ep.lps[s]
				cs.accum[s] = b
			}
			b.keys = append(b.keys, k)
			if len(b.keys) >= bk {
				cs.accum[s] = nil
				sendIns(s, b)
			}
		}
		for s, b := range cs.accum {
			if b == nil {
				continue
			}
			cs.accum[s] = nil
			sendIns(s, b)
		}
		for pending > 0 {
			gather(<-cs.reply)
		}
		if durable {
			// Commit every touched partition concurrently: each Commit
			// blocks on (group) fsync, and the partitions' logs are
			// independent files, so serializing them would multiply the
			// ack latency by the partition count.
			var wg sync.WaitGroup
			var cmu sync.Mutex
			for s, end := range cs.ends {
				if end == 0 {
					continue
				}
				wg.Add(1)
				go func(s int, end int64) {
					defer wg.Done()
					if err := ep.lps[s].store.Commit(end); err != nil {
						cmu.Lock()
						if insErr == nil {
							insErr = err
						}
						cmu.Unlock()
					}
				}(s, end)
			}
			wg.Wait()
		}
	} else {
		// Replicated index: every worker holds a full copy, so every
		// worker must apply the batch before it is acknowledged. In
		// durable mode each chunk is logged once to the shared store and
		// fanned out to all workers under replMu, so every replica
		// applies the logged stream in the same order.
		var lastEnd int64
		for start := 0; start < len(keys); start += bk {
			stop := min(start+bk, len(keys))
			chunk := keys[start:stop]
			var gen uint64
			if c.cs != nil {
				c.replMu.Lock()
				end, g, err := c.replStore.Append(chunk)
				if err != nil {
					c.replMu.Unlock()
					insErr = err
					break
				}
				gen, lastEnd = g, end
			}
			for w := 0; w < c.cfg.Workers; w++ {
				b := c.getBatch(cs.reply)
				b.op = opInsert
				b.lp = c.repl[w]
				b.seq = gen
				b.keys = append(b.keys, chunk...)
				send(w, b)
			}
			if c.cs != nil {
				c.replMu.Unlock()
			}
		}
		for pending > 0 {
			gather(<-cs.reply)
		}
		if insErr == nil && c.cs != nil && lastEnd > 0 {
			insErr = c.replStore.Commit(lastEnd)
		}
	}

	if insErr != nil {
		return insErr
	}
	c.insertedKeys.Add(int64(len(keys)))
	return nil
}

// rebalanceThreshold returns the per-partition key count above which a
// rebalance is due, or 0 when rebalancing is disabled. It is the
// configured budget while that budget is attainable; once the whole
// index has grown past budget*Workers, equal partitions necessarily
// exceed the budget and re-partitioning cannot restore it — re-running
// full rebuilds on every insert would be a storm that helps nobody —
// so the trigger degrades to skew detection: twice the current average
// partition size.
func (c *Cluster) rebalanceThreshold(ep *updEpoch) int {
	if c.budget <= 0 {
		return 0
	}
	avg := (ep.staticN + ep.insertedTotal()) / c.cfg.Workers
	if c.budget < avg {
		// Unattainable: even perfectly equal partitions exceed the
		// budget. Fall back to skew detection.
		return 2 * avg
	}
	return c.budget
}

// maybeRebalance nudges the rebalancer when lp outgrew the rebalance
// threshold. Called by the owning worker after applying an insert
// batch; never blocks.
func (c *Cluster) maybeRebalance(lp *livePart) {
	if lp.ep == nil {
		return
	}
	t := c.rebalanceThreshold(lp.ep)
	if t == 0 || lp.upd.TotalKeys() <= t {
		return
	}
	select {
	case c.rebalanceCh <- struct{}{}:
	default:
	}
}

// rebalancer is the background goroutine that re-partitions the index
// when inserts skew a partition past its budget.
func (c *Cluster) rebalancer() {
	defer c.updWG.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-c.rebalanceCh:
		}
		c.rebalance()
	}
}

// rebalance recomputes the partition delimiters over the full current
// key set and installs a fresh epoch. Writes are excluded for the
// duration (InsertBatch holds insertMu shared through its acks, so
// taking it exclusively proves every accepted key is applied and the
// snapshot is exact); reads flow throughout — calls pin their epoch at
// dispatch, and a superseded epoch keeps answering its in-flight
// batches from state that can no longer change.
func (c *Cluster) rebalance() {
	c.insertMu.Lock()
	defer c.insertMu.Unlock()
	ep := c.epoch.Load()
	t := c.rebalanceThreshold(ep)
	over := false
	for _, lp := range ep.lps {
		if t > 0 && lp.upd.TotalKeys() > t {
			over = true
			break
		}
	}
	if !over {
		return // a previous pass already fixed it
	}
	all := make([]workload.Key, 0, ep.staticN+ep.insertedTotal())
	for _, lp := range ep.lps {
		// Partitions hold disjoint ascending ranges, so concatenating
		// the per-partition snapshots yields the full sorted key set.
		all = append(all, lp.upd.SnapshotKeys()...)
	}
	next, err := c.newEpoch(all)
	if err != nil {
		// Unreachable: all has at least the seed keys, which filled
		// Workers partitions once already.
		return
	}
	if c.cs != nil {
		// Re-anchor durability on the new boundaries: write a complete
		// new store epoch (fresh generation-0 segments per partition)
		// before any traffic can route to it. On failure keep the old
		// epoch — index and store still agree — and retry on the next
		// trigger.
		if err := c.attachDurable(next); err != nil {
			if c.cfg.Logf != nil {
				c.cfg.Logf("core: rebalance kept current epoch, store rebase failed: %v", err)
			}
			return
		}
	}
	c.epoch.Store(next)
	c.rebalances.Add(1)
	// Drain the superseded epoch's background compactions so no merge
	// goroutine outlives the state it belongs to; its lps still answer
	// any batches pinned to them.
	for _, lp := range ep.lps {
		lp.upd.Quiesce()
	}
}

// UpdateStats summarizes the cluster's write-path activity.
type UpdateStats struct {
	// InsertedKeys counts keys accepted by Insert/InsertBatch (each key
	// once, regardless of replication fan-out).
	InsertedKeys int64
	// Merges counts completed background delta compactions across all
	// partitions and epochs.
	Merges int64
	// Rebalances counts installed re-partitioning epochs.
	Rebalances int64
}

// UpdateStats snapshots the write-path counters. Safe concurrently
// with traffic.
func (c *Cluster) UpdateStats() UpdateStats {
	return UpdateStats{
		InsertedKeys: c.insertedKeys.Load(),
		Merges:       c.merges.Load(),
		Rebalances:   c.rebalances.Load(),
	}
}

// KeyCount reports the current indexed key count (seed keys plus
// applied inserts). With concurrent inserts in flight the count is a
// consistent point-in-time value.
func (c *Cluster) KeyCount() int {
	if c.cfg.Method.Distributed() {
		ep := c.epoch.Load()
		return ep.staticN + ep.insertedTotal()
	}
	return c.repl[0].upd.TotalKeys()
}

// quiesceUpdates waits out background compactions on the live state;
// Close calls it after the workers drain so no goroutine outlives the
// cluster.
func (c *Cluster) quiesceUpdates() {
	if c.cfg.Method.Distributed() {
		for _, lp := range c.epoch.Load().lps {
			lp.upd.Quiesce()
		}
		return
	}
	for _, lp := range c.repl {
		lp.upd.Quiesce()
	}
}
