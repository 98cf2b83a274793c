package core

import (
	"fmt"

	"repro/internal/buffering"
	"repro/internal/index"
	"repro/internal/workload"
)

// This file is the online-update layer of the real runtime: the paper's
// cluster, made writable while it serves traffic. Each partition — one
// per worker for Method C, the one whole-index partition of Methods A/B
// — is an index.Updatable — an immutable base structure plus a small
// sorted delta buffer that a background goroutine periodically compacts
// — and the cluster glues them into a consistent whole:
//
//   - Inserts route like queries and are applied by the calling
//     goroutine: the Updatable serialises writers and publishes each
//     state whole, so the workers' reads load a consistent one without a
//     lock, which is all a dcnode relies on too.
//   - Global ranks stay exact across partitions: an insert into
//     partition j shifts the global rank of every key in partitions
//     > j, so a read of partition s adds the keys that partitions < s
//     hold now (keysBefore) — the master's add of the paper's Section
//     3.2, and the rule the TCP client applies to its count asks. Within
//     an epoch the counts only grow, so a read racing an insert counts
//     every key acknowledged before it began and none not begun by its
//     end.
//   - When a partition outgrows its budget — the paper's fits-in-cache
//     invariant, violated by skewed inserts — a background rebalance
//     recomputes the Partitioning delimiters over the full current key
//     set and swaps in a fresh epoch: new partition slices, each a fresh
//     Updatable that holds its keys. Reads never block: calls pin the epoch
//     they routed with and old epochs answer stale-pinned batches
//     correctly forever (their state is frozen once writes move on).
//     Writes stall for the duration of the swap — the brief exclusive
//     section is what makes the migrated snapshot exact.

// livePart is one partition's live index state in one epoch: the
// updatable base+delta stack, and with WALDir the durable partition
// that logs an insert — as a record of this partition in the epoch's
// shared log — before applying it to that stack (index.DurablePartition
// holds one lock across both, so the partition's apply order equals the
// order of its records — the invariant that lets a frozen-layer
// watermark double as a segment flush point).
type livePart struct {
	slot int
	upd  *index.Updatable
	ep   *updEpoch
	dp   *index.DurablePartition // nil without WALDir; dp.Upd == upd
}

// Lock ordering on the write path: an insert call holds the cluster
// read gate (Cluster.mu) for its whole duration and takes the
// write/rebalance gate (Cluster.insertMu) inside it. Under those, each
// partition's share is applied under that partition's
// index.DurablePartition.mu, which is taken before its Store.mu, then
// the append lock of the epoch's one log (index.WAL.mu, shared by every
// partition of the epoch — the only point where two partitions' inserts
// meet), then the log's commit state (WAL.cmu); the ack's group commit
// takes the commit state alone, with no partition lock held. dclint
// (lockguard) enforces the order — the index half is declared beside
// the WAL type.
//
//dc:lockorder Cluster.mu Cluster.insertMu

// updEpoch is one generation of the routing and partition state. A
// rebalance installs a fresh epoch; batches carry the livePart they
// were routed with, so in-flight work finishes against the epoch it
// started in.
type updEpoch struct {
	part *Partitioning
	lps  []*livePart
}

// keysBefore is slot's global rank base: the keys that the partitions
// below it hold now. keysBefore(len(lps)) is the epoch's whole count.
func (ep *updEpoch) keysBefore(slot int) int {
	n := 0
	for _, lp := range ep.lps[:slot] {
		n += lp.upd.TotalKeys()
	}
	return n
}

// methodBuilder returns the Builder that constructs one partition's
// base structure for the configured method: the delta layer
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
		return index.BuildSortedArray
	}
}

// treeRanker adapts the n-ary tree's per-key Rank to the batch API.
type treeRanker struct{ t *index.Tree }

func (tr treeRanker) RankInto(qs []workload.Key, pos []int32, out []int, add int) {
	for i, k := range qs {
		j := i
		if pos != nil {
			j = int(pos[i])
		}
		out[j] = tr.t.Rank(k) + add
	}
}

// planRanker adapts a Zhou-Ross buffered plan to the batch API.
type planRanker struct{ plan buffering.Plan }

func (pr planRanker) RankInto(qs []workload.Key, pos []int32, out []int, add int) {
	pr.plan.RankInto(qs, pos, out, add, buffering.Hooks{})
}

// newEpoch builds a full epoch over sorted keys: partitioning and one
// updatable per partition. The partition count is the
// whole difference between the paper's methods here: the Method C
// variants give every worker its own sub-range, A and B keep one
// partition that all the workers read.
func (c *Cluster) newEpoch(keys []workload.Key) (*updEpoch, error) {
	parts := 1
	if c.cfg.Method.Distributed() {
		parts = c.cfg.Workers
	}
	part, err := newPartitioningSorted(keys, parts)
	if err != nil {
		return nil, err
	}
	ep := &updEpoch{part: part, lps: make([]*livePart, parts)}
	build := methodBuilder(c.cfg)
	for s := range ep.lps {
		u := index.NewUpdatable(part.Parts[s].Keys, build, c.cfg.mergeThreshold)
		u.OnMerge = c.noteMerge
		ep.lps[s] = &livePart{slot: s, upd: u, ep: ep}
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
// index: each key routes to the partition owning its sub-range and the
// calling goroutine applies it there. It returns once every key is
// applied — reads that start after it returns see them, and concurrent
// reads see a consistent point-in-time subset — and, with WALDir, once
// the epoch's log is fsynced through this call's records.
// Safe for any number of concurrent callers, and safe concurrently with
// lookups.
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

	ep := c.epoch.Load()
	cs := c.getCall()
	defer c.putCall(cs)

	// Every partition's share is applied by this goroutine: logged (with
	// WALDir) and put in memory under the partition's lock; ranks above
	// it count the keys that reached memory, so they stay exact whatever
	// happens to the log afterwards. The partitions of an
	// epoch share one log whose offsets grow in append order, so the call
	// is durable once the log is fsynced through the highest offset it was
	// handed — one group commit, however many partitions it touched. An
	// error return means nothing was acknowledged — the keys may or may
	// not survive a restart, exactly like a crash mid-call. A partition's
	// share goes in batches of at most BatchKeys, also the most keys one
	// log record carries.
	w := insertWave{c: c, ep: ep}
	bk := c.cfg.BatchKeys
	cs.plan.Keys(ep.part, keys, InsertKeys, bk, bk, func(int) (*realBatch, *[]workload.Key, *[]int32) {
		b := c.getBatch(nil)
		return b, &b.keys, nil
	}, w.apply, nil)
	if w.err == nil && w.end > 0 {
		w.err = ep.lps[0].dp.Store.Commit(w.end)
	}
	if w.err != nil {
		return w.err
	}
	c.insertedKeys.Add(int64(len(keys)))
	return nil
}

// insertWave is the state of one InsertBatch call while it applies its
// keys: the highest log offset it has to be durable through before it
// may ack (0: no log), and its first error.
type insertWave struct {
	c   *Cluster
	ep  *updEpoch
	end int64
	err error
}

// apply hands partition s its share b of the wave.
//
//dc:noalloc
func (w *insertWave) apply(s int, b *realBatch) {
	lp := w.ep.lps[s]
	switch {
	case w.err != nil: // already failing: drop, don't ack
	case lp.dp == nil:
		lp.upd.InsertBatch(b.keys)
	default:
		var end int64
		if end, w.err = lp.dp.Apply(b.keys); w.err == nil && end > w.end {
			w.end = end
		}
	}
	if w.err == nil {
		w.c.maybeRebalance(lp)
	}
	w.c.putBatch(b)
}

// rebalanceThreshold returns the per-partition key count above which a
// rebalance is due, or 0 when rebalancing is disabled. It is the
// configured budget while that budget is attainable; once the whole
// index has grown past budget*partitions, equal partitions necessarily
// exceed the budget and re-partitioning cannot restore it — re-running
// full rebuilds on every insert would be a storm that helps nobody —
// so the trigger degrades to skew detection: twice the current average
// partition size — which a single partition, being its own average,
// never reaches: one-partition epochs are never rebalanced.
func (c *Cluster) rebalanceThreshold(ep *updEpoch) int {
	if c.budget <= 0 {
		return 0
	}
	avg := ep.keysBefore(len(ep.lps)) / len(ep.lps)
	if c.budget < avg {
		// Unattainable: even perfectly equal partitions exceed the
		// budget. Fall back to skew detection.
		return 2 * avg
	}
	return c.budget
}

// maybeRebalance nudges the rebalancer when lp outgrew the rebalance
// threshold. Called after applying an insert batch; never blocks.
func (c *Cluster) maybeRebalance(lp *livePart) {
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
	all := make([]workload.Key, 0, ep.keysBefore(len(ep.lps)))
	for _, lp := range ep.lps {
		// Partitions hold disjoint ascending ranges, so concatenating
		// the per-partition snapshots yields the full sorted key set.
		all = append(all, lp.upd.SnapshotKeys()...)
	}
	next, err := c.newEpoch(all)
	if err != nil {
		// Unreachable: all has at least the seed keys, which filled the
		// partitions once already.
		return
	}
	if c.cs != nil {
		// Re-anchor durability on the new boundaries: write a complete
		// new store epoch (fresh generation-0 segments per partition)
		// before any traffic can route to it, then retire the old one's
		// logs (its compactions are waited out first, so none publishes
		// to a closed store). On failure keep the old epoch — index and
		// store still agree — and retry on the next trigger.
		if c.attachDurable(next) != nil {
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
	// InsertedKeys counts keys accepted by Insert/InsertBatch.
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
	ep := c.epoch.Load()
	return ep.keysBefore(len(ep.lps))
}

// quiesceUpdates waits out background compactions on the live state;
// Close calls it after the workers drain so no goroutine outlives the
// cluster.
func (c *Cluster) quiesceUpdates() {
	for _, lp := range c.epoch.Load().lps {
		lp.upd.Quiesce()
	}
}
