package index

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/workload"
)

func openDP(t *testing.T, dir string, baseline []workload.Key, threshold int, opt StoreOptions) *DurablePartition {
	t.Helper()
	d, err := OpenDurablePartition(dir, baseline, sortedArrayBuilder, threshold, opt)
	if err != nil {
		t.Fatalf("OpenDurablePartition: %v", err)
	}
	return d
}

// TestDurablePartitionRestartOracle: insert, close, reopen — ranks must
// match a plain in-memory oracle built over the same keys, and the
// (generation, chain) position must carry across the restart.
func TestDurablePartitionRestartOracle(t *testing.T) {
	dir := t.TempDir()
	baseline := []workload.Key{10, 20, 30}
	d := openDP(t, dir, baseline, 4, StoreOptions{}) // tiny threshold: exercise merges + flushes
	oracle := append([]workload.Key(nil), baseline...)

	r := workload.NewRNG(11)
	for round := 0; round < 20; round++ {
		batch := make([]workload.Key, r.Intn(5)+1)
		for i := range batch {
			batch[i] = r.Key() % 500
		}
		if err := d.InsertBatch(batch); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
		oracle = append(oracle, batch...)
	}
	gen, chain := d.Position()
	if gen != uint64(len(oracle)-len(baseline)) {
		t.Fatalf("generation %d, want %d", gen, len(oracle)-len(baseline))
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2 := openDP(t, dir, baseline, 4, StoreOptions{})
	defer d2.Close()
	if g2, c2 := d2.Position(); g2 != gen || c2 != chain {
		t.Fatalf("restart position (%d, %#x), want (%d, %#x)", g2, c2, gen, chain)
	}
	sorted := sortedCopy(oracle)
	for _, probe := range []workload.Key{0, 5, 10, 100, 250, 499, 1000} {
		if got, want := d2.Upd.Rank(probe), oracleRank(sorted, probe); got != want {
			t.Fatalf("Rank(%d) after restart = %d, want %d", probe, got, want)
		}
	}
	if !sameKeys(d2.Upd.SnapshotKeys(), sorted) {
		t.Fatal("restart snapshot diverged from oracle multiset")
	}
}

// TestDurablePartitionConcurrentInserts drives parallel writers (run
// under -race): after close + reopen every acked key must be present.
func TestDurablePartitionConcurrentInserts(t *testing.T) {
	dir := t.TempDir()
	d := openDP(t, dir, nil, 64, StoreOptions{})
	const (
		writers = 6
		perW    = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := d.InsertBatch([]workload.Key{workload.Key(g*1000 + i)}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("writer failed: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDP(t, dir, nil, 64, StoreOptions{})
	defer d2.Close()
	if got, want := d2.Upd.TotalKeys(), writers*perW; got != want {
		t.Fatalf("recovered %d keys, want every one of the %d acked", got, want)
	}
	for g := 0; g < writers; g++ {
		for i := 0; i < perW; i++ {
			k := workload.Key(g*1000 + i)
			if d2.Upd.Rank(k) == d2.Upd.Rank(k-1) {
				t.Fatalf("acked key %d missing after restart", k)
			}
		}
	}
}

// TestDurablePartitionSegmentFlushRetiresWAL: once merges publish a
// frozen layer, the background flusher must write a segment; a restart
// then recovers from it without replaying the retired log.
func TestDurablePartitionSegmentFlushRetiresWAL(t *testing.T) {
	dir := t.TempDir()
	d := openDP(t, dir, nil, 8, StoreOptions{})
	for i := 0; i < 64; i++ {
		if err := d.InsertBatch([]workload.Key{workload.Key(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d.Upd.Quiesce() // drain pending merges so a publish definitely happened
	haveSeg := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".seg") {
				haveSeg = true
			}
		}
		if haveSeg {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !haveSeg {
		t.Fatal("no segment flushed after merges published frozen layers")
	}
	d2 := openDP(t, dir, nil, 8, StoreOptions{})
	defer d2.Close()
	if got := d2.Upd.TotalKeys(); got != 64 {
		t.Fatalf("recovered %d keys from segment+tail, want 64", got)
	}
}

// TestDurablePartitionInsertDelta covers the rejoin catch-up arithmetic:
// a matching delta applies; a diverged one is refused without logging
// anything.
func TestDurablePartitionInsertDelta(t *testing.T) {
	dirA := t.TempDir()
	dirB := t.TempDir()
	baseline := []workload.Key{10, 20}
	a := openDP(t, dirA, baseline, 64, StoreOptions{})
	defer a.Close()
	b := openDP(t, dirB, baseline, 64, StoreOptions{})
	defer b.Close()

	// A takes writes; B is the lagging rejoiner at generation 0.
	if err := a.InsertBatch([]workload.Key{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := a.InsertBatch([]workload.Key{3}); err != nil {
		t.Fatal(err)
	}
	bGen, bChain := b.Position()
	keys, gen, chain, ok := a.DeltaSince(bGen, bChain)
	if !ok {
		t.Fatal("sibling refused a delta it can prove")
	}
	if err := b.InsertDelta(keys, gen, chain); err != nil {
		t.Fatalf("InsertDelta: %v", err)
	}
	if g, c := b.Position(); g != gen || c != chain {
		t.Fatalf("catch-up landed at (%d, %#x), want (%d, %#x)", g, c, gen, chain)
	}
	if !sameKeys(b.Upd.SnapshotKeys(), a.Upd.SnapshotKeys()) {
		t.Fatal("catch-up did not converge the replicas")
	}

	// Divergence: B sneaks in a local write, then replays A's next delta.
	if err := b.InsertBatch([]workload.Key{999}); err != nil {
		t.Fatal(err)
	}
	if err := a.InsertBatch([]workload.Key{4}); err != nil {
		t.Fatal(err)
	}
	aGen, aChain := a.Position()
	if err := b.InsertDelta([]workload.Key{4}, aGen, aChain); !errors.Is(err, ErrCatchUpMismatch) {
		t.Fatalf("diverged delta = %v, want ErrCatchUpMismatch", err)
	}
}

// TestDurablePartitionDeltaSinceUnknown: positions the store cannot
// prove (wrong fold, never-reached generation) yield ok=false, never a
// guessed delta.
func TestDurablePartitionDeltaSinceUnknown(t *testing.T) {
	d := openDP(t, t.TempDir(), nil, 64, StoreOptions{})
	defer d.Close()
	if err := d.InsertBatch([]workload.Key{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	gen, chain := d.Position()
	if _, _, _, ok := d.DeltaSince(gen, chain^0x5); ok {
		t.Fatal("wrong fold served a delta")
	}
	if _, _, _, ok := d.DeltaSince(gen+10, chain); ok {
		t.Fatal("future generation served a delta")
	}
	if keys, g, c, ok := d.DeltaSince(gen, chain); !ok || len(keys) != 0 || g != gen || c != chain {
		t.Fatalf("up-to-date caller: keys=%v (%d, %#x) ok=%v", keys, g, c, ok)
	}
}

// TestDurablePartitionResetTo: a full-snapshot catch-up replaces state
// and survives restart at the sibling's position.
func TestDurablePartitionResetTo(t *testing.T) {
	dir := t.TempDir()
	d := openDP(t, dir, []workload.Key{1, 2}, 64, StoreOptions{})
	if err := d.InsertBatch([]workload.Key{3}); err != nil {
		t.Fatal(err)
	}
	fresh := []workload.Key{40, 50, 60}
	if err := d.ResetTo(fresh, 7, 0x77); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDP(t, dir, []workload.Key{999}, 64, StoreOptions{})
	defer d2.Close()
	if g, c := d2.Position(); g != 7 || c != 0x77 {
		t.Fatalf("restart position (%d, %#x), want (7, 0x77)", g, c)
	}
	if !sameKeys(d2.Upd.SnapshotKeys(), fresh) {
		t.Fatal("reset state did not survive restart")
	}
}

// TestDurablePartitionFsyncFailureNeverAcks: with a dying disk the
// insert errors (no ack) and a restart serves only previously acked
// keys — the unacked batch may or may not be on disk, both are legal,
// but nothing acked may be missing.
func TestDurablePartitionFsyncFailureNeverAcks(t *testing.T) {
	faulty := faultfs.NewFaulty(faultfs.OS)
	dir := t.TempDir()
	d := openDP(t, dir, nil, 64, StoreOptions{FS: faulty})
	if err := d.InsertBatch([]workload.Key{1}); err != nil {
		t.Fatal(err)
	}
	faulty.FailSyncAt(faulty.Syncs() + 1)
	if err := d.InsertBatch([]workload.Key{2}); err == nil {
		t.Fatal("insert acked over a failed fsync")
	}
	faulty.FailSyncAt(0)
	if err := d.InsertBatch([]workload.Key{3}); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("insert on poisoned log = %v, want ErrWALBroken", err)
	}
	d.Close()

	d2 := openDP(t, dir, nil, 64, StoreOptions{})
	defer d2.Close()
	if d2.Upd.Rank(1) != 1 {
		t.Fatal("acked key 1 lost")
	}
	if d2.Upd.Rank(3) != d2.Upd.Rank(2) {
		t.Fatal("never-acked key 3 surfaced after restart")
	}
}

// TestDurablePartitionKillNineSubdirSweep simulates kill -9 at every
// WAL offset at the partition level: copy the directory, truncate the
// log, reopen, and verify the recovered index is an exact acked-prefix
// oracle.
func TestDurablePartitionKillNineSubdirSweep(t *testing.T) {
	dir := t.TempDir()
	d := openDP(t, dir, nil, 1<<20, StoreOptions{}) // huge threshold: no merges, one WAL
	batches := [][]workload.Key{{5, 1}, {9}, {3, 3}}
	for _, b := range batches {
		if err := d.InsertBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName(1))
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int64{int64(walHeaderSize(1))}
	o := int64(walHeaderSize(1))
	for _, b := range batches {
		o += int64(walRecHeaderSize + 4*len(b) + walRecTrailerSize)
		ends = append(ends, o)
	}
	for cut := 0; cut <= len(full); cut++ {
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, walName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := 0
		for whole+1 < len(ends) && ends[whole+1] <= int64(cut) {
			whole++
		}
		var oracle []workload.Key
		for _, b := range batches[:whole] {
			oracle = append(oracle, b...)
		}
		d2, err := OpenDurablePartition(crashDir, nil, sortedArrayBuilder, 1<<20, StoreOptions{})
		if err != nil {
			t.Fatalf("cut %d: recovery refused: %v", cut, err)
		}
		if !sameKeys(d2.Upd.SnapshotKeys(), sortedCopy(oracle)) {
			t.Fatalf("cut %d: recovered %v, want %v", cut, d2.Upd.SnapshotKeys(), sortedCopy(oracle))
		}
		d2.Close()
	}
}
