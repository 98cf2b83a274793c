package index

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	// Keys off the wire that are not ascending are refused before the
	// store or the served state is touched.
	gen0, chain0 := d.Position()
	if err := d.ResetTo([]workload.Key{40, 60, 50}, 7, 0x77); err == nil {
		t.Fatal("ResetTo accepted keys that are not sorted")
	}
	if g, c := d.Position(); g != gen0 || c != chain0 || !sameKeys(d.Upd.SnapshotKeys(), []workload.Key{1, 2, 3}) {
		t.Fatalf("refused reset moved the partition to (%d, %#x) %v", g, c, d.Upd.SnapshotKeys())
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

// segCountFS counts, on top of Faulty's writes, bytes and syncs, the
// segment files renamed into place.
type segCountFS struct {
	*faultfs.Faulty
	segs atomic.Int64
}

func (f *segCountFS) Rename(oldpath, newpath string) error {
	if strings.HasSuffix(newpath, ".seg") {
		f.segs.Add(1)
	}
	return f.Faulty.Rename(oldpath, newpath)
}

// policyRun drives one DurablePartition a merge at a time — a 32,768-key
// baseline, a merge threshold of 512, acked batches of one threshold each —
// and keeps the rules' own books: when a merge is due, restated here from
// its definition (the buffer holds max(threshold, image/layerFraction)
// keys), and which publishes earned a segment, restated from its
// ((gen - last segment's gen) * layerFraction >= keys in the image, or no
// segment yet) and waited for, so that the run is the same every time.
type policyRun struct {
	t      *testing.T
	dir    string
	fs     *segCountFS
	d      *DurablePartition
	base   []workload.Key
	oracle []workload.Key   // baseline and every acked key
	logged [][]workload.Key // the acked batches, in append order
	rng    *workload.RNG
	segs   []uint64 // the generations that earned a segment, ascending
	pubs   []uint64 // the generations of every publish, ascending
}

const (
	policyBase      = 32768
	policyThreshold = 512
)

func newPolicyRun(t *testing.T) *policyRun {
	t.Helper()
	p := &policyRun{t: t, dir: t.TempDir(), fs: &segCountFS{Faulty: faultfs.NewFaulty(faultfs.OS)}, rng: workload.NewRNG(21)}
	p.base = make([]workload.Key, policyBase)
	for i := range p.base {
		p.base[i] = workload.Key(i) << 16
	}
	p.oracle = append([]workload.Key(nil), p.base...)
	p.d = openDP(t, p.dir, p.base, policyThreshold, StoreOptions{FS: p.fs})
	t.Cleanup(func() { p.d.Close() })
	return p
}

// newestSegment is the generation of the segment s would recover from.
func newestSegment(s *Store) (gen uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segGen, s.hasSeg
}

func (p *policyRun) gen() uint64 { return uint64(len(p.oracle) - policyBase) }

// nextMerge is the number of keys the next merge admits: the trigger,
// max(threshold, image/layerFraction), rounded up to whole batches.
func (p *policyRun) nextMerge() int {
	due := max(policyThreshold, len(p.oracle)/layerFraction)
	return (due + policyThreshold - 1) / policyThreshold * policyThreshold
}

// merge inserts acked batches until the buffer reaches the merge trigger —
// one batch short, no merge has run — waits for the merge the last one
// triggers and, if the rule says its publish earned a segment, for that
// segment; it reports whether it did.
func (p *policyRun) merge() bool {
	p.t.Helper()
	for left := p.nextMerge(); left > 0; left -= policyThreshold {
		if left == policyThreshold {
			p.d.Upd.Quiesce()
			if got := p.d.Upd.Merges(); got != uint64(len(p.pubs)) {
				p.t.Fatalf("%d merges one batch short of the trigger, want %d", got, len(p.pubs))
			}
		}
		batch := make([]workload.Key, policyThreshold)
		for i := range batch {
			batch[i] = p.rng.Key()
		}
		if err := p.d.InsertBatch(batch); err != nil {
			p.t.Fatalf("InsertBatch: %v", err)
		}
		p.oracle = append(p.oracle, batch...)
		p.logged = append(p.logged, batch)
	}
	p.d.Upd.Quiesce()
	gen := p.gen()
	if p.pubs = append(p.pubs, gen); p.d.Upd.Merges() != uint64(len(p.pubs)) {
		p.t.Fatalf("%d merges at the trigger, want %d", p.d.Upd.Merges(), len(p.pubs))
	}
	if n := len(p.segs); n > 0 && (gen-p.segs[n-1])*layerFraction < uint64(len(p.oracle)) {
		return false
	}
	p.segs = append(p.segs, gen)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		at, has := newestSegment(p.d.Store)
		if has && at == gen {
			return true
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("publish at generation %d earned a segment and none was written (newest: %d)", gen, at)
		}
	}
}

// reopen opens a copy of the directory as it is now — what a crash at
// this moment leaves behind — after mutate, if any, has had its way with
// the copy, and checks it against the oracle: every acked key, the
// position, and the segment recovery started from.
func (p *policyRun) reopen(what string, wantSeg uint64, mutate func(dir string)) {
	p.t.Helper()
	img := p.t.TempDir()
	copyDir(p.t, p.dir, img)
	if mutate != nil {
		mutate(img)
	}
	d, err := OpenDurablePartition(img, p.base, sortedArrayBuilder, policyThreshold, StoreOptions{})
	if err != nil {
		p.t.Fatalf("%s: reopen refused: %v", what, err)
	}
	defer d.Close()
	if !sameKeys(d.Upd.SnapshotKeys(), sortedCopy(p.oracle)) {
		p.t.Fatalf("%s: reopened image does not hold exactly the acked keys", what)
	}
	wantGen, wantChain := p.d.Position()
	if g, c := d.Position(); g != wantGen || c != wantChain {
		p.t.Fatalf("%s: reopened at (%d, %#x), want (%d, %#x)", what, g, c, wantGen, wantChain)
	}
	if at, _ := newestSegment(d.Store); at != wantSeg {
		p.t.Fatalf("%s: recovery started from segment %d, want %d", what, at, wantSeg)
	}
}

// TestDurablePartitionSegmentPolicy: a segment is written when the log
// behind it has grown by the fixed fraction of the image, not at every
// merge — over the merges that double the partition the segments written
// are the rule's geometric handful, the first publish among them; the
// bytes written per inserted key stay under the bound the constant
// implies; and the log keeps being retired, so the directory holds two
// segments and the log of two intervals at most.
func TestDurablePartitionSegmentPolicy(t *testing.T) {
	p := newPolicyRun(t)
	bytes0 := p.fs.Bytes()
	for m := 1; len(p.oracle) < 2*policyBase; m++ {
		flushed := p.merge()
		if m == 1 && !flushed {
			t.Fatal("the first publish did not earn a segment")
		}
		// Two segments (the newest, and the one before it kept against
		// rot), and the records since the older of the two: two intervals
		// of at most image/fraction keys and one merge's,
		// max(threshold, image/fraction), each, in files cut at the flushes
		// — three of them at most, with the open one.
		n := len(p.oracle)
		interval := n/layerFraction + max(policyThreshold, n/layerFraction)
		recBytes := walRecHeaderSize + 4*policyThreshold + walRecTrailerSize
		most := int64(2*(segHeaderSize+4*n+4) + 3*walHeaderSize(1) + 2*(interval/policyThreshold)*recBytes)
		var disk int64
		ents, err := os.ReadDir(p.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if info, err := e.Info(); err == nil {
				disk += info.Size()
			}
		}
		if files := countWALFiles(t, p.dir); files > 3 || disk > most {
			t.Fatalf("after merge %d: %d log files and %d bytes on disk, want at most 3 and %d", m, files, disk, most)
		}
	}

	// A merge admits an eighth of the image, so the log behind a segment
	// reaches an eighth of the image at the second merge after it: about
	// 1 + log(2)/(2·log(1+1/fraction)) segments while the image doubles — 4
	// at an eighth — less what rounding every interval up to a whole merge
	// saves: 3 here. (A segment at every merge would be 6.)
	if got := p.fs.segs.Load(); got != int64(len(p.segs)) {
		t.Fatalf("%d segments written, the rule earns %d", got, len(p.segs))
	}
	if want := 1 + int(math.Ceil(math.Log(2)/(2*math.Log1p(1.0/layerFraction)))); len(p.segs) > want || len(p.segs) < want-2 {
		t.Fatalf("the rule earned %d segments (at %v), want about %d", len(p.segs), p.segs, want)
	}
	// Each segment but the first is 4 bytes a key of an image at most
	// fraction times the keys logged since the one before, and the first is
	// the baseline and one merge; the log itself is 4 bytes a key and its
	// framing.
	inserted := int64(p.gen())
	perKey := float64(p.fs.Bytes()-bytes0) / float64(inserted)
	bound := 4*layerFraction + 4*float64(policyBase+max(policyThreshold, policyBase/layerFraction))/float64(inserted) + 4 + 1
	if perKey > bound {
		t.Fatalf("%.1f bytes written per inserted key, want at most %.1f", perKey, bound)
	}
	t.Logf("%d segments at %v; %.1f bytes written per inserted key (bound %.1f)", len(p.segs), p.segs, perKey, bound)
}

// TestDurablePartitionCrashBetweenSegments: a publish that did not earn a
// segment loses nothing. A crash image taken after every merge between two
// segments reopens oracle-exact from the older segment and the longer log
// tail; and when the newest segment has rotted, recovery quarantines it and
// falls back to the one before, replaying a tail two intervals long.
func TestDurablePartitionCrashBetweenSegments(t *testing.T) {
	p := newPolicyRun(t)
	for len(p.segs) < 3 {
		if !p.merge() {
			p.reopen(fmt.Sprintf("crash at generation %d", p.gen()), p.segs[len(p.segs)-1], nil)
		}
	}
	// Go on to one merge short of the fourth segment: the tail past the
	// third is then a whole interval, less one merge.
	for next := p.nextMerge(); (p.gen()+uint64(next)-p.segs[2])*layerFraction < uint64(len(p.oracle)+next); next = p.nextMerge() {
		if p.merge() {
			t.Fatalf("segments at %v, want the run stopped before the fourth", p.segs)
		}
	}
	// A merge admits an eighth of the image, so the rule skips one publish
	// between two segments, not more.
	prev, newest := p.segs[1], p.segs[2]
	if skipped := len(p.pubs) - slices.Index(p.pubs, newest) - 1; skipped < 1 {
		t.Fatalf("only %d publishes skipped since segment %d: the test is not testing the rule", skipped, newest)
	}
	p.reopen("rotted newest segment", prev, func(dir string) {
		path := filepath.Join(dir, segName(newest))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x04
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDurablePartitionDeltaSinceAcrossSkippedFlushes: the rejoin delta is
// served from the retained log, and the log reaches back two intervals
// instead of two merges — a rejoiner that fell behind just after a segment
// is still caught up by a delta two merges and more than ten acked batches
// later (a segment at every merge had compacted its position away after
// two), and only once two segments have passed it is it sent to the full
// snapshot.
func TestDurablePartitionDeltaSinceAcrossSkippedFlushes(t *testing.T) {
	p := newPolicyRun(t)
	p.merge()
	p.merge()
	behind := len(p.logged)
	gen, chain := p.d.Position()
	rejoiner := openDP(t, t.TempDir(), p.base, policyThreshold, StoreOptions{})
	defer rejoiner.Close()
	for _, b := range p.logged {
		if err := rejoiner.InsertBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if g, c := rejoiner.Position(); g != gen || c != chain {
		t.Fatalf("rejoiner at (%d, %#x), sibling at (%d, %#x)", g, c, gen, chain)
	}

	for len(p.segs) < 2 {
		p.merge()
	}
	p.merge() // a publish the second segment's interval has not earned
	if len(p.segs) != 2 || len(p.logged)-behind < 10 {
		t.Fatalf("segments at %v after %d acked batches: want the rejoiner ten batches and one segment behind", p.segs, len(p.logged)-behind)
	}
	keys, curGen, curChain, ok := p.d.DeltaSince(gen, chain)
	if !ok {
		t.Fatalf("no delta from generation %d with segments at %v: its records are above the retention floor %d", gen, p.segs, p.segs[0])
	}
	var want []workload.Key
	for _, b := range p.logged[behind:] {
		want = append(want, b...)
	}
	if !sameKeys(keys, want) {
		t.Fatalf("delta of %d keys is not the %d logged since generation %d, in append order", len(keys), len(want), gen)
	}
	if err := rejoiner.InsertDelta(keys, curGen, curChain); err != nil {
		t.Fatalf("InsertDelta: %v", err)
	}
	if !sameKeys(rejoiner.Upd.SnapshotKeys(), sortedCopy(p.oracle)) {
		t.Fatal("the delta did not converge the rejoiner")
	}

	for len(p.segs) < 3 {
		p.merge()
	}
	if _, _, _, ok := p.d.DeltaSince(gen, chain); ok {
		t.Fatalf("generation %d is below the retention floor %d and was served a delta", gen, p.segs[1])
	}
}

// BenchmarkDurablePartitionInsert is the durable write path of one
// partition alone: an op is one acked 819-key InsertBatch (the referee's
// insert call) into a 327,680-key partition at the default merge
// threshold, merges and segment flushes falling where they fall.
// disk_B/key is every byte written — log and segments — per inserted key,
// from a counting faultfs: 4 and framing for the log, about as much again
// for the zeros the log preallocates ahead of its records, the rest is
// what the segments cost.
func BenchmarkDurablePartitionInsert(b *testing.B) {
	const batch = 819
	base := make([]workload.Key, 327680)
	for i := range base {
		base[i] = workload.Key(i) * 13000
	}
	fs := faultfs.NewFaulty(faultfs.OS)
	d, err := OpenDurablePartition(b.TempDir(), base, sortedArrayBuilder, 0, StoreOptions{FS: fs})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	r := workload.NewRNG(5)
	keys := make([]workload.Key, batch)
	bytes0 := fs.Bytes()
	b.SetBytes(4 * batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = r.Key()
		}
		if err := d.InsertBatch(keys); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d.Upd.Quiesce()
	b.ReportMetric(float64(fs.Bytes()-bytes0)/float64(b.N*batch), "disk_B/key")
}
