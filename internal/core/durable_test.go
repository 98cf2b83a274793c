package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/index"
	"repro/internal/workload"
)

func durableCfg(dir string, method Method) RealConfig {
	return RealConfig{
		Method: method, Workers: 4, BatchKeys: 256, QueueDepth: 4,
		MergeThreshold: 128, WALDir: dir,
	}
}

// copyTree mirrors src into dst — the "disk image at this instant" a
// restart test reopens, standing in for the machine that rebooted.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if os.IsNotExist(err) {
			// The flush daemon may retire a WAL file mid-walk; a crash
			// image taken across that instant simply lacks the file.
			return nil
		}
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
	if err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
}

// TestClusterDurableRestartOracle: distributed method — insert under a
// WAL, close, reopen the same directory, and verify ranks against the
// oracle. The reopen passes a poisoned seed key set to prove recovery
// comes from disk, not from the caller.
func TestClusterDurableRestartOracle(t *testing.T) {
	dir := t.TempDir()
	keys := workload.SortedKeys(4096, 3)
	c, err := NewCluster(keys, durableCfg(dir, MethodC3))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(keys)
	r := workload.NewRNG(5)
	for round := 0; round < 8; round++ {
		batch := make([]workload.Key, 200)
		for i := range batch {
			batch[i] = r.Key()
		}
		if err := c.InsertBatch(batch); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
		o.insert(batch)
	}
	probes := workload.UniformQueries(500, 9)
	checkExact(t, c, o, probes)
	c.Close()

	poisoned := workload.SortedKeys(16, 99)
	c2, err := NewCluster(poisoned, durableCfg(dir, MethodC3))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if got, want := c2.KeyCount(), len(o.keys); got != want {
		t.Fatalf("recovered %d keys, want %d", got, want)
	}
	checkExact(t, c2, o, probes)
}

// TestClusterDurableReplicatedRestart: the replicated methods share one
// logged copy; restart must recover it identically on every worker.
func TestClusterDurableReplicatedRestart(t *testing.T) {
	dir := t.TempDir()
	keys := workload.SortedKeys(2048, 7)
	c, err := NewCluster(keys, durableCfg(dir, MethodB))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(keys)
	r := workload.NewRNG(13)
	for round := 0; round < 5; round++ {
		batch := make([]workload.Key, 150)
		for i := range batch {
			batch[i] = r.Key()
		}
		if err := c.InsertBatch(batch); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
		o.insert(batch)
	}
	probes := workload.UniformQueries(400, 17)
	checkExact(t, c, o, probes)
	c.Close()

	c2, err := NewCluster(workload.SortedKeys(16, 99), durableCfg(dir, MethodB))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if got, want := c2.KeyCount(), len(o.keys); got != want {
		t.Fatalf("recovered %d keys, want %d", got, want)
	}
	checkExact(t, c2, o, probes)
}

// freezeFS lets a test stop the disk: every call that changes the
// directory tree or a file's bytes holds mu shared, so whoever holds it
// exclusively sees the tree exactly as a crash at that instant would
// leave it (more kindly, even: unsynced bytes are all there).
type freezeFS struct {
	faultfs.FS
	mu sync.RWMutex
}

type freezeFile struct {
	faultfs.File
	fs *freezeFS
}

func (f *freezeFS) wrap(file faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &freezeFile{File: file, fs: f}, nil
}

func (f *freezeFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}

func (f *freezeFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

func (f *freezeFS) Rename(oldpath, newpath string) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.FS.Rename(oldpath, newpath)
}

func (f *freezeFS) Remove(name string) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.FS.Remove(name)
}

func (f *freezeFS) RemoveAll(path string) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.FS.RemoveAll(path)
}

func (f *freezeFile) Write(p []byte) (int, error) {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	return f.File.Write(p)
}

func (f *freezeFile) Truncate(size int64) error {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	return f.File.Truncate(size)
}

// TestClusterDurableCrashImageMidTraffic: the WAL directory, copied
// as-is while inserts are in flight — exactly what a crashed machine's
// disk would hold — must reopen to a state containing every key acked
// before the copy, and at quiescence to exactly the oracle. It runs for
// a one-partition method and a partitioned one, with one writer and
// with four concurrent ones, and with a merge threshold small enough
// that segments are flushed (at the frozen layer's watermark) between
// the images: what is under test is that a partition's log order is its
// apply order whoever the callers are.
func TestClusterDurableCrashImageMidTraffic(t *testing.T) {
	for _, m := range []Method{MethodB, MethodC3} {
		for _, writers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/writers=%d", m, writers), func(t *testing.T) {
				t.Parallel()
				crashImageMidTraffic(t, m, writers)
			})
		}
	}
}

func crashImageMidTraffic(t *testing.T, m Method, writers int) {
	const maxKey = 1 << 20 // few enough values that inserts repeat keys
	dir := t.TempDir()
	disk := &freezeFS{FS: faultfs.OS}
	keys := make([]workload.Key, 1024)
	rng := rand.New(rand.NewSource(21))
	for i := range keys {
		keys[i] = workload.Key(rng.Intn(maxKey))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	cfg := durableCfg(dir, m)
	cfg.MergeThreshold = 32
	cfg.WALFS = disk
	c, err := NewCluster(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Writers keep inserting until enough images were taken mid-traffic
	// (or the test has failed and is leaving).
	const minRounds, maxRounds, wantImages = 6, 400, 4
	var (
		mu     sync.Mutex
		acked  []workload.Key // in ack order, all writers
		images atomic.Int32
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	defer func() {
		failed.Store(t.Failed())
		wg.Wait()
		c.Close()
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(23 + w)))
			for round := 0; round < maxRounds && (round < minRounds || images.Load() < wantImages) && !failed.Load(); round++ {
				batch := make([]workload.Key, 100)
				for i := range batch {
					batch[i] = workload.Key(r.Intn(maxKey))
				}
				if err := c.InsertBatch(batch); err != nil {
					t.Errorf("InsertBatch: %v", err)
					return
				}
				mu.Lock()
				acked = append(acked, batch...)
				mu.Unlock()
			}
		}(w)
	}

	// image reopens the directory as it is on disk right now and checks
	// it holds every key acked before the copy began — and, with exact,
	// nothing else.
	image := func(exact bool) {
		mu.Lock()
		before := append([]workload.Key(nil), acked...)
		mu.Unlock()
		img := t.TempDir()
		disk.mu.Lock()
		copyTree(t, dir, img)
		disk.mu.Unlock()
		crashed, err := NewCluster(workload.SortedKeys(16, 99), durableCfg(img, m))
		if err != nil {
			t.Fatalf("crash image after %d acked keys refused: %v", len(before), err)
		}
		defer crashed.Close()
		want := newQueryOracle(keys)
		want.add(before)
		got, err := crashed.MultiGet(before)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range before {
			if got[i] < want.multiplicity(k) {
				t.Fatalf("crash image holds %d copies of acked key %d, want at least %d", got[i], k, want.multiplicity(k))
			}
		}
		if n := crashed.KeyCount(); n < len(want.ints) || exact && n != len(want.ints) {
			t.Fatalf("crash image has %d keys, %d were acked (exact: %v)", n, len(want.ints), exact)
		}
		if exact {
			o := newOracle(keys)
			o.insert(before)
			checkExact(t, crashed, o, workload.UniformQueries(300, 29))
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			image(false)
			images.Add(1)
		}
	}
	image(true)

	// The threshold was crossed many times over: some partition must have
	// flushed a segment past its generation-0 baseline (the flusher runs
	// behind the compactions, so give it a moment).
	flushed := func() bool {
		segs, _ := filepath.Glob(filepath.Join(dir, "e*", "p*", "seg-*.seg"))
		for _, s := range segs {
			if !strings.HasSuffix(s, "seg-00000000000000000000.seg") {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(10 * time.Second); !flushed(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no segment was flushed mid-traffic")
		}
	}
}

// TestClusterDurableRebalanceSurvivesRestart: skewed inserts trigger a
// re-partitioning (which rebases the store into a new epoch directory);
// a restart afterwards must recover the rebased state exactly.
func TestClusterDurableRebalanceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	keys := workload.SortedKeys(1024, 31)
	cfg := durableCfg(dir, MethodC3)
	cfg.PartitionBudget = 400
	c, err := NewCluster(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(keys)
	// Skew: every insert lands in the lowest partition.
	r := workload.NewRNG(37)
	for round := 0; round < 10; round++ {
		batch := make([]workload.Key, 100)
		for i := range batch {
			batch[i] = r.Key() % 1000
		}
		if err := c.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		o.insert(batch)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.UpdateStats().Rebalances == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c.UpdateStats().Rebalances == 0 {
		t.Fatal("no rebalance triggered by skewed inserts")
	}
	probes := workload.UniformQueries(300, 41)
	checkExact(t, c, o, probes)
	c.Close()

	c2, err := NewCluster(workload.SortedKeys(16, 99), durableCfg(dir, MethodC3))
	if err != nil {
		t.Fatalf("reopen after rebalance: %v", err)
	}
	defer c2.Close()
	if got, want := c2.KeyCount(), len(o.keys); got != want {
		t.Fatalf("recovered %d keys, want %d", got, want)
	}
	checkExact(t, c2, o, probes)
}

// TestClusterDurableFsyncFailureRefusesAck: with the disk refusing to
// sync, InsertBatch must return an error — and after a restart every
// previously acked key is present while lookups keep serving. A
// partition's insert counter follows its memory, not its log: keys whose
// fsync failed were applied (ranks include them, in their own partition
// and in the rank bases of those above it), keys whose append failed
// were not.
func TestClusterDurableFsyncFailureRefusesAck(t *testing.T) {
	for _, m := range []Method{MethodB, MethodC3} {
		t.Run(m.String(), func(t *testing.T) { fsyncFailureRefusesAck(t, m) })
	}
}

func fsyncFailureRefusesAck(t *testing.T, m Method) {
	faulty := faultfs.NewFaulty(faultfs.OS)
	dir := t.TempDir()
	keys := workload.SortedKeys(512, 43)
	cfg := durableCfg(dir, m)
	cfg.WALFS = faulty
	c, err := NewCluster(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(keys)
	acked := make([]workload.Key, 50)
	r := workload.NewRNG(47)
	for i := range acked {
		acked[i] = r.Key()
	}
	if err := c.InsertBatch(acked); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}
	o.insert(acked)

	probes := workload.UniformQueries(100, 53)
	faulty.FailSyncAt(faulty.Syncs() + 1)
	unacked := []workload.Key{1, 2, 3} // lowest partition: every other one ranks above them
	if err := c.InsertBatch(unacked); err == nil {
		t.Fatal("insert acked over a failed fsync")
	}
	faulty.FailSyncAt(0)
	// Logged, applied, not synced: the keys are in memory and counted.
	o.insert(unacked)
	if got, want := c.KeyCount(), len(o.keys); got != want {
		t.Fatalf("after a failed fsync KeyCount = %d, want %d (the keys were applied)", got, want)
	}
	checkExact(t, c, o, probes)
	// The log is poisoned: writes keep failing rather than acking over
	// the hole, and a key that was never logged never reaches memory.
	if err := c.InsertBatch([]workload.Key{4}); !errors.Is(err, index.ErrWALBroken) {
		t.Fatalf("insert on poisoned log = %v, want ErrWALBroken", err)
	}
	if got, want := c.KeyCount(), len(o.keys); got != want {
		t.Fatalf("after a failed append KeyCount = %d, want %d (nothing was applied)", got, want)
	}
	// Reads still serve, exactly.
	checkExact(t, c, o, probes)
	c.Close()

	c2, err := NewCluster(workload.SortedKeys(16, 99), durableCfg(dir, m))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	// Every acked key must have survived; the failed batches may or may
	// not appear (crash equivalence), so only lower-bound the count.
	if got, min := c2.KeyCount(), len(keys)+len(acked); got < min {
		t.Fatalf("recovered %d keys, want at least the %d acked", got, min)
	}
	for _, k := range acked {
		got, err := c2.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if prev, err2 := c2.Lookup(k - 1); err2 == nil && got == prev && k != 0 {
			t.Fatalf("acked key %d missing after restart", k)
		}
	}
}

// TestClusterDurableOrphanEpochSwept: a crash mid-rebase leaves an
// unreferenced epoch directory; the next open must remove it and serve
// the manifest's epoch.
func TestClusterDurableOrphanEpochSwept(t *testing.T) {
	dir := t.TempDir()
	keys := workload.SortedKeys(256, 59)
	c, err := NewCluster(keys, durableCfg(dir, MethodC3))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	orphan := filepath.Join(dir, "e99", "p0")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCluster(keys, durableCfg(dir, MethodC3))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := os.Stat(filepath.Join(dir, "e99")); !os.IsNotExist(err) {
		t.Fatalf("orphan epoch not swept (stat err %v)", err)
	}
	if got, want := c2.KeyCount(), len(keys); got != want {
		t.Fatalf("recovered %d keys, want %d", got, want)
	}
}
