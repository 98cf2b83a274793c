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
		Method: method, Workers: 4, BatchKeys: 256,
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

// waveOver draws keys until every partition of c owns at least perPart of
// them: an insert wave that touches the whole cluster.
func waveOver(c *Cluster, r *rand.Rand, perPart int) []workload.Key {
	part := c.Partitioning()
	have := make([]int, len(part.Parts))
	var wave []workload.Key
	for short := len(have); short > 0; {
		k := workload.Key(r.Uint32())
		wave = append(wave, k)
		s := part.Route(k)
		if have[s]++; have[s] == perPart {
			short--
		}
	}
	return wave
}

// TestClusterDurableOneSyncPerWave: the partitions of an epoch share one
// log, so an InsertBatch that touches all eight of them is durable after
// exactly one fsync — whether a partition's share is one record or
// several — and concurrent callers share fsyncs: never more than one per
// call.
func TestClusterDurableOneSyncPerWave(t *testing.T) {
	faulty := faultfs.NewFaulty(faultfs.OS)
	dir := t.TempDir()
	keys := workload.SortedKeys(8192, 61)
	c, err := NewCluster(keys, RealConfig{
		Method: MethodC3, Workers: 8, BatchKeys: 64,
		// No merge and no rebalance: no segment flush and no new epoch add
		// fsyncs of their own.
		MergeThreshold: 1 << 20, PartitionBudget: -1,
		WALDir: dir, WALFS: faulty,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if logs, _ := filepath.Glob(filepath.Join(dir, "e*", "wal-*.wal")); len(logs) != 1 {
		t.Fatalf("log files of an 8-partition epoch: %v, want one", logs)
	}
	o := newOracle(keys)
	r := rand.New(rand.NewSource(67))
	for i := 0; i < 20; i++ {
		perPart := 3
		if i%5 == 4 {
			perPart = 100 // more than BatchKeys: several records per partition
		}
		wave := waveOver(c, r, perPart)
		before := faulty.Syncs()
		if err := c.InsertBatch(wave); err != nil {
			t.Fatal(err)
		}
		if got := faulty.Syncs() - before; got != 1 {
			t.Fatalf("wave %d (%d keys over 8 partitions): %d fsyncs, want 1", i, len(wave), got)
		}
		o.insert(wave)
	}

	const callers, calls = 4, 25
	waves := make([][][]workload.Key, callers)
	for g := range waves {
		for i := 0; i < calls; i++ {
			waves[g] = append(waves[g], waveOver(c, r, 2))
		}
	}
	before := faulty.Syncs()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, wave := range waves[g] {
				if err := c.InsertBatch(wave); err != nil {
					t.Errorf("caller %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := faulty.Syncs() - before; got < 1 || got > callers*calls {
		t.Fatalf("%d fsyncs for %d concurrent calls, want between 1 and one per call", got, callers*calls)
	}
	for g := range waves {
		for _, wave := range waves[g] {
			o.insert(wave)
		}
	}
	checkExact(t, c, o, workload.UniformQueries(500, 71))
}

// TestClusterDurableCrashAtEveryOffset: the epoch's one log, holding the
// interleaved records of four partitions, truncated at every byte — what
// a crash at that instant leaves — and the cluster reopened. Every image
// must open; it holds exactly the records that are whole in the prefix
// (so every partition is at a prefix of its own stream and every wave
// acked before the cut is there in full), and ranks and MultiGet
// multiplicities equal the oracle over what was recovered.
func TestClusterDurableCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	keys := workload.SortedKeys(512, 73)
	cfg := durableCfg(dir, MethodC3)
	cfg.MergeThreshold = 1 << 20 // one log file, no segment past generation 0
	c, err := NewCluster(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	part := c.Partitioning()
	parts := len(part.Parts)
	logs, _ := filepath.Glob(filepath.Join(dir, "e*", "wal-*.wal"))
	if len(logs) != 1 {
		t.Fatalf("log files: %v, want one", logs)
	}
	logSize := func() int64 {
		st, err := os.Stat(logs[0])
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}

	// Format v2 as index/wal.go documents it: a header of 24 + 16 bytes a
	// partition, records of 32 bytes + 4 a key. An InsertBatch logs its
	// partitions' shares in partition order.
	type record struct {
		keys []workload.Key
		end  int64
	}
	var records []record
	var acked []int64 // log size when each wave was acked
	off := int64(24 + 16*parts)
	if got := logSize(); got != off {
		t.Fatalf("fresh log is %d bytes, want a %d-byte header", got, off)
	}
	r := rand.New(rand.NewSource(79))
	for wave := 0; wave < 5; wave++ {
		var batch []workload.Key
		if wave == 2 {
			batch = []workload.Key{part.Parts[1].Keys[0], part.Parts[1].Keys[0]} // a wave one partition takes alone
		} else {
			batch = waveOver(c, r, 1+wave%2)
		}
		shares := make([][]workload.Key, parts)
		for _, k := range batch {
			s := part.Route(k)
			shares[s] = append(shares[s], k)
		}
		for _, share := range shares {
			if len(share) > 0 {
				off += int64(32 + 4*len(share))
				records = append(records, record{share, off})
			}
		}
		if err := c.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		if got := logSize(); got != off {
			t.Fatalf("wave %d: log is %d bytes, computed %d", wave, got, off)
		}
		acked = append(acked, off)
	}
	c.Close()
	full, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := filepath.Rel(dir, logs[0])

	img := filepath.Join(t.TempDir(), "img")
	reopen := durableCfg(img, MethodC3)
	reopen.FsyncInterval = -1 // the images are throwaway; spare the disk the fsyncs of an open
	for cut := 0; cut <= len(full); cut++ {
		// A reopen cuts a fresh log file and, once the recovered keys have
		// moved the partition boundaries, rebases into a new epoch: every
		// cut starts from the directory as the crash left it.
		if err := os.RemoveAll(img); err != nil {
			t.Fatal(err)
		}
		copyTree(t, dir, img)
		if err := os.WriteFile(filepath.Join(img, rel), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		crashed, err := NewCluster(workload.SortedKeys(16, 99), reopen)
		if err != nil {
			t.Fatalf("cut %d: crash image refused: %v", cut, err)
		}
		want, o := newQueryOracle(keys), newOracle(keys)
		var recovered []workload.Key
		for _, rec := range records {
			if rec.end <= int64(cut) {
				recovered = append(recovered, rec.keys...)
			}
		}
		want.add(recovered)
		o.insert(recovered)
		if got := crashed.KeyCount(); got != len(o.keys) {
			t.Fatalf("cut %d: %d keys recovered, want %d", cut, got, len(o.keys))
		}
		for w, end := range acked {
			if end <= int64(cut) && len(recovered) == 0 {
				t.Fatalf("cut %d: wave %d was acked at %d and nothing was recovered", cut, w, end)
			}
		}
		probe := append(append([]workload.Key(nil), recovered...), workload.UniformQueries(40, uint64(cut))...)
		checkExact(t, crashed, o, probe)
		got, err := crashed.MultiGet(probe)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range probe {
			if got[i] != want.multiplicity(k) {
				t.Fatalf("cut %d: key %d held %d times, want %d", cut, k, got[i], want.multiplicity(k))
			}
		}
		crashed.Close()
	}
}

// TestClusterDurableSharedLogFailurePoisonsEveryPartition: a failed
// append on the shared log fails the call it belongs to — whose later
// shares are dropped, not applied — and poisons the log for every
// partition: nothing is applied or acked afterwards, wherever it routes,
// and reads keep serving exactly what reached memory.
func TestClusterDurableSharedLogFailurePoisonsEveryPartition(t *testing.T) {
	faulty := faultfs.NewFaulty(faultfs.OS)
	keys := workload.SortedKeys(1024, 83)
	cfg := durableCfg(t.TempDir(), MethodC3)
	cfg.MergeThreshold = 1 << 20
	cfg.WALFS = faulty
	c, err := NewCluster(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	part := c.Partitioning()
	o := newOracle(keys)
	r := rand.New(rand.NewSource(89))
	first := waveOver(c, r, 2)
	if err := c.InsertBatch(first); err != nil {
		t.Fatal(err)
	}
	o.insert(first)

	// The second record of the next wave fails to write: partition 0's
	// share is in memory, the rest of the wave never gets there.
	wave := waveOver(c, r, 2)
	faulty.FailWriteAt(faulty.Writes() + 2)
	if err := c.InsertBatch(wave); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("wave over a failing disk = %v, want ErrInjected", err)
	}
	faulty.FailWriteAt(0)
	for _, k := range wave {
		if part.Route(k) == 0 {
			o.insert([]workload.Key{k})
		}
	}
	if got, want := c.KeyCount(), len(o.keys); got != want {
		t.Fatalf("after the failed wave KeyCount = %d, want %d (partition 0's share only)", got, want)
	}
	for s := range part.Parts {
		k := part.Parts[s].Keys[0]
		if err := c.InsertBatch([]workload.Key{k}); !errors.Is(err, index.ErrWALBroken) {
			t.Fatalf("insert into partition %d on the poisoned log = %v, want ErrWALBroken", s, err)
		}
	}
	if got, want := c.KeyCount(), len(o.keys); got != want {
		t.Fatalf("KeyCount = %d after refused inserts, want %d", got, want)
	}
	checkExact(t, c, o, workload.UniformQueries(300, 97))
}

// TestClusterDurableRebaseCrashEitherSide: a rebalance writes the whole
// new epoch — its own log and segments — before it swaps MANIFEST. A
// crash just before the swap leaves the old epoch current and the new one
// an orphan; just after, the new one current and the old one an orphan.
// Both images must open to exactly the acked keys and sweep the orphan.
func TestClusterDurableRebaseCrashEitherSide(t *testing.T) {
	dir := t.TempDir()
	keys := workload.SortedKeys(1024, 101)
	cfg := durableCfg(dir, MethodC3)
	cfg.PartitionBudget = -1 // no rebalance yet: epoch 1 takes every insert
	c, err := NewCluster(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(keys)
	r := workload.NewRNG(103)
	for round := 0; round < 6; round++ {
		batch := make([]workload.Key, 100)
		for i := range batch {
			batch[i] = r.Key() % 1000 // skew: all in the lowest partition
		}
		if err := c.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		o.insert(batch)
	}
	c.Close()
	before := t.TempDir() // epoch 1 current, as closed
	copyTree(t, dir, before)

	// Reopen with a budget the skew breaks: recovery re-partitions, which
	// rebases into epoch 2.
	cfg.PartitionBudget = 400
	c, err = NewCluster(workload.SortedKeys(16, 99), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), "epoch 2") {
		t.Fatalf("no rebase happened: manifest %q", manifest)
	}
	if logs, _ := filepath.Glob(filepath.Join(dir, "e2", "wal-*.wal")); len(logs) == 0 {
		t.Fatal("epoch 2 has no log of its own")
	}

	// Before the swap: old manifest and epoch, the complete new epoch beside them.
	copyTree(t, filepath.Join(dir, "e2"), filepath.Join(before, "e2"))
	// After the swap: new manifest and epoch, the old epoch not yet removed.
	after := t.TempDir()
	copyTree(t, dir, after)
	copyTree(t, filepath.Join(before, "e1"), filepath.Join(after, "e1"))

	probes := workload.UniformQueries(300, 107)
	for _, tc := range []struct{ name, dir string }{{"before", before}, {"after", after}} {
		cfg := durableCfg(tc.dir, MethodC3)
		cfg.PartitionBudget = -1
		crashed, err := NewCluster(workload.SortedKeys(16, 99), cfg)
		if err != nil {
			t.Fatalf("crash %s the manifest swap: %v", tc.name, err)
		}
		if got, want := crashed.KeyCount(), len(o.keys); got != want {
			t.Fatalf("crash %s the swap: %d keys, want %d", tc.name, got, want)
		}
		checkExact(t, crashed, o, probes)
		crashed.Close()
		// One epoch directory is left, the one MANIFEST names (the open may
		// itself have rebased, into a fresh epoch number or the orphan's).
		var epoch uint64
		manifest, _ := os.ReadFile(filepath.Join(tc.dir, manifestName))
		if epoch, _, err = parseManifest(manifest); err != nil {
			t.Fatal(err)
		}
		epochs, _ := filepath.Glob(filepath.Join(tc.dir, "e*"))
		if len(epochs) != 1 || filepath.Base(epochs[0]) != fmt.Sprintf("e%d", epoch) {
			t.Fatalf("crash %s the swap: epoch directories %v left, manifest names e%d", tc.name, epochs, epoch)
		}
	}
}

// TestClusterDurableFormatV1Refused: a WAL directory written before the
// shared log — "dcstore v1", a log per partition under p<i>/ — is not
// this build's to read: NewCluster refuses it with index.ErrStoreFormat,
// names both versions, and leaves every byte where it was. The same for a
// v2 manifest over a v1 log file.
func TestClusterDurableFormatV1Refused(t *testing.T) {
	v1Log := []byte{0x41, 0x3a, 0x1d, 0xdc, 1, 0, 0, 0, // magic, version 1
		0, 0, 0, 0, 0, 0, 0, 0, // base generation 0
		0x25, 0x23, 0x22, 0x84, 0xe4, 0x9c, 0xf2, 0xcb} // base fold: FNV offset basis
	for _, tc := range []struct {
		name, manifest, logAt string
	}{
		{"manifest", "dcstore v1\nepoch 1\nparts 2\n", "e1/p0/wal-00000000000000000001.wal"},
		{"log", "dcstore v2\nepoch 1\nparts 2\n", "e1/wal-00000000000000000001.wal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			files := map[string][]byte{
				manifestName:                         []byte(tc.manifest),
				tc.logAt:                             v1Log,
				"e1/p0/seg-00000000000000000000.seg": []byte("a v1 segment"),
				"e1/p1/seg-00000000000000000000.seg": []byte("another"),
			}
			for rel, data := range files {
				path := filepath.Join(dir, rel)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err := NewCluster(workload.SortedKeys(64, 109), durableCfg(dir, MethodC3))
			if !errors.Is(err, index.ErrStoreFormat) || errors.Is(err, index.ErrStoreCorrupt) {
				t.Fatalf("open of a v1 directory = %v, want ErrStoreFormat (and not ErrStoreCorrupt)", err)
			}
			if msg := err.Error(); !strings.Contains(msg, "v1") || !strings.Contains(msg, "v2") {
				t.Fatalf("refusal %q does not name both versions", msg)
			}
			n := 0
			err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
				if err != nil || info.IsDir() {
					return err
				}
				n++
				rel, _ := filepath.Rel(dir, path)
				data, err := os.ReadFile(path)
				if err == nil && string(data) != string(files[filepath.ToSlash(rel)]) {
					t.Errorf("%s changed (or is new)", rel)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != len(files) {
				t.Fatalf("%d files after the refusal, want the %d written", n, len(files))
			}
		})
	}
}

// TestClusterDurableInsertAllocs: logging an insert costs no allocation.
// With fsync off (the commit is then a no-op; a waiting committer parks on
// a condition variable, which allocates nothing either) a steady-state
// InsertBatch over a WAL directory allocates no more than the same call
// on an in-memory cluster: no per-call offsets, no goroutine per
// partition, one reused record buffer for the whole log.
func TestClusterDurableInsertAllocs(t *testing.T) {
	keys := workload.SortedKeys(8192, 113)
	measure := func(walDir string) float64 {
		c, err := NewCluster(keys, RealConfig{
			Method: MethodC3, Workers: 8, BatchKeys: 256,
			MergeThreshold: 1 << 20, PartitionBudget: -1,
			WALDir: walDir, FsyncInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wave := waveOver(c, rand.New(rand.NewSource(127)), 40)
		insert := func() {
			if err := c.InsertBatch(wave); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ { // pools, record buffer and delta buffers reach their size
			insert()
		}
		return testing.AllocsPerRun(100, insert)
	}
	inMemory, durable := measure(""), measure(t.TempDir())
	t.Logf("allocations per InsertBatch: %.0f in memory, %.0f over a WAL", inMemory, durable)
	if durable > inMemory {
		t.Fatalf("InsertBatch allocates %.0f times a call over a WAL, %.0f in memory", durable, inMemory)
	}
}
