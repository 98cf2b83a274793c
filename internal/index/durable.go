package index

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/workload"
)

// DurablePartition couples one Updatable with its Store under the
// WAL-order-equals-apply-order contract: every insert is appended to
// the log and applied to memory under one lock (so the in-memory state
// always covers an exact prefix of the partition's records), then the
// ack path waits for the group fsync. Frozen-layer publishes go to a
// background daemon that writes a segment for those the log has grown
// enough to earn, which is what lets the log retire its files.
//
// This is the one implementation of that contract: netrun's durable
// nodes serve from it, over a store that has its log to itself
// (OpenDurablePartition; ResetTo and DeltaSince, the rejoin catch-up,
// need that), and the core cluster inserts through one per partition,
// over the stores of an epoch that share one log (OpenStores +
// NewDurablePartition): there a caller applies a wave to several
// partitions and commits the highest offset once.
type DurablePartition struct {
	Store *Store
	Upd   *Updatable

	mu sync.Mutex // serializes append+apply; taken before Store.mu and the log's locks (wal.go)
	// published is the newest base the flush daemon has not looked at yet
	// (latest wins: an older publish is covered by a newer one) and wake
	// tells the daemon there is one.
	published atomic.Pointer[flushReq]
	wake      chan struct{}
	stopped   chan struct{}
	wg        sync.WaitGroup
	logf      func(format string, args ...any)
}

type flushReq struct {
	keys []workload.Key
	gen  uint64
}

// flushTurn lets one partition of the process flush a segment at a time.
// A flush is a full-partition image and two fsyncs whose only deadline is
// WAL retirement, while the acks of every partition wait on fsyncs of the
// same disk and the readers on the same cores: partitions fed by one
// insert stream come due together, and their flushes are better taken one
// after the other than at once. Re-measured with segments written by the
// rule of Store.SegmentDue, half as often there and 1.6x shorter (the referee's
// mixed_durable, 5 alternating traced pairs with and without the mutex):
// without it dcindex.write_call_p99_ms 3.62 -> 3.96 (3 of 5) and
// dcindex.read_call_p99_ms 1.40 -> 2.28 (5 of 5), for 4 % off the median
// read call. It stays, for the tails.
var flushTurn sync.Mutex

// ErrCatchUpMismatch reports a delta catch-up whose keys would not
// reproduce the sibling's (generation, chain) accounting — the replicas
// diverged, and only a full snapshot can reconcile them.
var ErrCatchUpMismatch = errors.New("index: delta catch-up does not reproduce the expected generation/chain")

// OpenDurablePartition recovers (or creates) the durable state in dir —
// newest intact segment plus WAL tail, baseline when the directory is
// fresh — and serves it through an Updatable built with build.
func OpenDurablePartition(dir string, baseline []workload.Key, build Builder, threshold int, opt StoreOptions) (*DurablePartition, error) {
	// The one key set here that nothing has scanned yet: a segment is
	// checked as it is decoded and a replayed tail is sorted and merged in.
	if i := FirstDescent(baseline); i > 0 {
		return nil, fmt.Errorf("index: durable partition %s: baseline not sorted at %d", dir, i)
	}
	st, recovered, err := OpenStore(dir, baseline, opt)
	if err != nil {
		return nil, err
	}
	return NewDurablePartition(st, NewUpdatable(recovered, build, threshold), opt.Logf), nil
}

// NewDurablePartition pairs an open store with the Updatable holding
// the keys it recovered (and not yet used: its publish hook is set
// here) and starts the flush daemon.
func NewDurablePartition(st *Store, u *Updatable, logf func(format string, args ...any)) *DurablePartition {
	d := &DurablePartition{
		Store:   st,
		Upd:     u,
		wake:    make(chan struct{}, 1),
		stopped: make(chan struct{}),
		logf:    logf,
	}
	u.OnPublish = d.enqueueFlush
	d.wg.Add(1)
	go d.flusher()
	return d
}

// Apply logs keys and applies them to memory, in that order under the
// partition's lock, and returns the log offset to Commit (through
// Store.Commit; on a shared log the highest offset of a wave covers the
// wave): the half of an insert after which reads see the keys. On error
// nothing was applied.
func (d *DurablePartition) Apply(keys []workload.Key) (end int64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	end, gen, err := d.Store.Append(keys)
	if err != nil {
		return 0, err
	}
	d.Upd.InsertBatchAt(keys, gen)
	return end, nil
}

// InsertBatch logs keys, applies them, and returns once the record is
// fsynced: a nil return is the durability guarantee behind an insert
// ack. On error nothing was acked (the keys may or may not survive a
// restart, exactly like a crash mid-call).
func (d *DurablePartition) InsertBatch(keys []workload.Key) error {
	if len(keys) == 0 {
		return nil
	}
	end, err := d.Apply(keys)
	if err != nil {
		return err
	}
	return d.Store.Commit(end)
}

// InsertDelta applies a rejoin catch-up tail: keys (in the sibling's
// append order) must advance this partition exactly to wantGen/
// wantChain, which is verified before anything is logged — a mismatch
// means the histories diverged and the caller must fall back to a full
// snapshot.
func (d *DurablePartition) InsertDelta(keys []workload.Key, wantGen, wantChain uint64) error {
	d.mu.Lock()
	if got := d.Store.Gen() + uint64(len(keys)); got != wantGen {
		d.mu.Unlock()
		return fmt.Errorf("%w: would reach generation %d, want %d", ErrCatchUpMismatch, got, wantGen)
	}
	if got := ChainFold(d.Store.Chain(), keys); got != wantChain {
		d.mu.Unlock()
		return fmt.Errorf("%w: fold mismatch at generation %d", ErrCatchUpMismatch, wantGen)
	}
	if len(keys) == 0 {
		d.mu.Unlock()
		return nil
	}
	end, gen, err := d.Store.Append(keys)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	d.Upd.InsertBatchAt(keys, gen)
	d.mu.Unlock()
	return d.Store.Commit(end)
}

// ResetTo replaces the entire state with a full snapshot at the
// sibling's generation and chain (chain 0 = unknown; later delta
// catch-ups from this node then degrade to full snapshots). Refused,
// with nothing changed, when keys — they come off the wire — are not
// ascending, and on a partition whose store shares its log.
func (d *DurablePartition) ResetTo(keys []workload.Key, gen, chain uint64) error {
	if i := FirstDescent(keys); i > 0 {
		return fmt.Errorf("index: durable partition %s: reset with keys not sorted at %d", d.Store.Dir(), i)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.Store.ResetTo(keys, gen, chain); err != nil {
		return err
	}
	d.Upd.resetAt(keys, gen)
	return nil
}

// DeltaSince returns every key logged after generation gen in append
// order, together with the (generation, chain) position the delta
// advances to, all captured atomically against concurrent inserts.
// ok=false means the history cannot prove continuity from (gen, chain) —
// chain mismatch, compacted-away tail, a corrupt retained log, or a log
// this partition shares with others — and the caller must fall back to
// a full snapshot.
func (d *DurablePartition) DeltaSince(gen, chain uint64) (keys []workload.Key, curGen, curChain uint64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	keys, ok, err := d.Store.InsertsSince(gen, chain)
	if err != nil {
		if d.logf != nil {
			d.logf("durable partition %s: delta catch-up read failed: %v", d.Store.Dir(), err)
		}
		return nil, 0, 0, false
	}
	if !ok {
		return nil, 0, 0, false
	}
	return keys, d.Store.Gen(), d.Store.Chain(), true
}

// Snapshot returns the full current key set with the (generation,
// chain) position it corresponds to — the full-catch-up source. The
// position is captured atomically with the keys.
func (d *DurablePartition) Snapshot() (keys []workload.Key, gen, chain uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Upd.SnapshotKeys(), d.Store.Gen(), d.Store.Chain()
}

// Position returns the durable (generation, chain) position, captured
// atomically against concurrent inserts.
func (d *DurablePartition) Position() (gen, chain uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Store.Gen(), d.Store.Chain()
}

// enqueueFlush is the Updatable's OnPublish hook. It never blocks a
// merge: the publish replaces whatever the daemon has not picked up yet —
// the records are durable in the log, the newer base covers the older
// one's, and only file retirement waits.
func (d *DurablePartition) enqueueFlush(keys []workload.Key, gen uint64) {
	if gen == 0 {
		return
	}
	d.published.Store(&flushReq{keys: keys, gen: gen})
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// flusher is the compaction daemon: it turns a published base into a
// segment file — which is what lets the log retire the files it covers —
// when the store says the log behind it has earned one (Store.SegmentDue),
// and drops the publish otherwise. The question is asked here, not in the
// hook, so that a publish that arrived while a segment was being written
// is judged against that segment.
func (d *DurablePartition) flusher() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stopped:
			return
		case <-d.wake:
		}
		req := d.published.Swap(nil)
		if req == nil || !d.Store.SegmentDue(len(req.keys), req.gen) {
			continue
		}
		flushTurn.Lock()
		err := d.Store.FlushSegment(req.keys, req.gen)
		flushTurn.Unlock()
		if err != nil && d.logf != nil {
			d.logf("durable partition %s: segment flush at generation %d failed: %v", d.Store.Dir(), req.gen, err)
		}
	}
}

// Close drains background work and closes the store. The caller must
// have stopped inserts first.
func (d *DurablePartition) Close() error {
	d.Upd.Quiesce()
	close(d.stopped)
	d.wg.Wait()
	return d.Store.Close()
}
