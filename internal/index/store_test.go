package index

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/workload"
)

// sortedCopy is the oracle normal form: the durable layer promises a
// multiset, not an order.
func sortedCopy(keys []workload.Key) []workload.Key {
	out := append([]workload.Key(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameKeys(got, want []workload.Key) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func mustOpenStore(t *testing.T, dir string, baseline []workload.Key, opt StoreOptions) (*Store, []workload.Key) {
	t.Helper()
	s, rec, err := OpenStore(dir, baseline, opt)
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", dir, err)
	}
	return s, rec
}

func storeAppend(t *testing.T, s *Store, keys []workload.Key) {
	t.Helper()
	end, _, err := s.Append(keys)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Commit(end); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestStoreFreshOpenServesBaseline(t *testing.T) {
	baseline := []workload.Key{10, 20, 30}
	s, rec := mustOpenStore(t, t.TempDir(), baseline, StoreOptions{})
	defer s.Close()
	if !sameKeys(rec, baseline) {
		t.Fatalf("fresh recovery = %v, want baseline %v", rec, baseline)
	}
	if s.Gen() != 0 || s.Chain() != ChainStart() {
		t.Fatalf("fresh position (%d, %#x), want (0, seed)", s.Gen(), s.Chain())
	}
}

func TestStoreRecoversWALTail(t *testing.T) {
	dir := t.TempDir()
	baseline := []workload.Key{10, 20, 30}
	s, _ := mustOpenStore(t, dir, baseline, StoreOptions{})
	storeAppend(t, s, []workload.Key{5, 25})
	storeAppend(t, s, []workload.Key{40})
	gen, chain := s.Gen(), s.Chain()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := mustOpenStore(t, dir, baseline, StoreOptions{})
	defer s2.Close()
	want := sortedCopy(append(append([]workload.Key(nil), baseline...), 5, 25, 40))
	if !sameKeys(rec, want) {
		t.Fatalf("recovered %v, want %v", rec, want)
	}
	if s2.Gen() != gen || s2.Chain() != chain {
		t.Fatalf("recovered position (%d, %#x), want (%d, %#x)", s2.Gen(), s2.Chain(), gen, chain)
	}
}

func TestStoreSegmentPlusTailRecovery(t *testing.T) {
	dir := t.TempDir()
	baseline := []workload.Key{10, 20}
	s, _ := mustOpenStore(t, dir, baseline, StoreOptions{})
	storeAppend(t, s, []workload.Key{1, 2})
	// Frozen-layer publish at generation 2: baseline + the two inserts.
	compact := sortedCopy(append(append([]workload.Key(nil), baseline...), 1, 2))
	if err := s.FlushSegment(compact, 2); err != nil {
		t.Fatalf("FlushSegment: %v", err)
	}
	storeAppend(t, s, []workload.Key{99}) // tail past the segment
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A recovery that ignored the baseline arg would catch a store that
	// failed to persist the segment: pass a poisoned baseline.
	s2, rec := mustOpenStore(t, dir, []workload.Key{777}, StoreOptions{})
	defer s2.Close()
	want := sortedCopy(append(append([]workload.Key(nil), compact...), 99))
	if !sameKeys(rec, want) {
		t.Fatalf("recovered %v, want segment+tail %v", rec, want)
	}
	if s2.Gen() != 3 {
		t.Fatalf("recovered generation %d, want 3", s2.Gen())
	}
}

// TestStoreCorruptSegmentFallsBack rots the newest segment: recovery
// must quarantine it and rebuild the exact state from the previous
// segment plus the retained WAL files.
func TestStoreCorruptSegmentFallsBack(t *testing.T) {
	dir := t.TempDir()
	baseline := []workload.Key{10, 20}
	s, _ := mustOpenStore(t, dir, baseline, StoreOptions{})
	oracle := append([]workload.Key(nil), baseline...)

	flushAt := func(gen uint64) {
		t.Helper()
		if err := s.FlushSegment(sortedCopy(oracle), gen); err != nil {
			t.Fatalf("FlushSegment(%d): %v", gen, err)
		}
	}
	storeAppend(t, s, []workload.Key{1, 2})
	oracle = append(oracle, 1, 2)
	flushAt(2)
	storeAppend(t, s, []workload.Key{3, 4})
	oracle = append(oracle, 3, 4)
	flushAt(4)
	storeAppend(t, s, []workload.Key{5})
	oracle = append(oracle, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a bit in the newest segment (generation 4).
	segPath := filepath.Join(dir, segName(4))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var notices []string
	s2, rec := mustOpenStore(t, dir, baseline, StoreOptions{
		Logf: func(format string, args ...any) { notices = append(notices, format) },
	})
	defer s2.Close()
	if !sameKeys(rec, sortedCopy(oracle)) {
		t.Fatalf("fallback recovery = %v, want oracle %v", rec, sortedCopy(oracle))
	}
	if s2.Gen() != 5 {
		t.Fatalf("recovered generation %d, want 5", s2.Gen())
	}
	if _, err := os.Stat(segPath + ".corrupt"); err != nil {
		t.Fatalf("rotted segment not quarantined: %v", err)
	}
	quarantined := false
	for _, n := range notices {
		if strings.Contains(n, "quarantined") {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatal("no quarantine notice logged")
	}
}

// TestStoreCrashAtEveryOffset is the store-level kill -9 sweep: truncate
// the active WAL at every byte offset (a crash leaves an arbitrary
// prefix) and reopen. Recovery must yield exactly baseline + the records
// wholly contained in the prefix — the durable contract for unacked
// writes is "all-or-nothing per record".
func TestStoreCrashAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	baseline := []workload.Key{100, 200}
	batches := [][]workload.Key{{1, 2}, {3}, {4, 5, 6}}
	s, _ := mustOpenStore(t, dir, baseline, StoreOptions{})
	for _, b := range batches {
		storeAppend(t, s, b)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName(1))
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Per-batch oracle states and their record end offsets.
	ends := []int64{int64(walHeaderSize(1))}
	states := [][]workload.Key{sortedCopy(baseline)}
	acc := append([]workload.Key(nil), baseline...)
	o := int64(walHeaderSize(1))
	for _, b := range batches {
		o += int64(walRecHeaderSize + 4*len(b) + walRecTrailerSize)
		ends = append(ends, o)
		acc = append(acc, b...)
		states = append(states, sortedCopy(acc))
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
		s2, rec, err := OpenStore(crashDir, baseline, StoreOptions{})
		if err != nil {
			t.Fatalf("cut %d: recovery refused: %v", cut, err)
		}
		if !sameKeys(rec, states[whole]) {
			t.Fatalf("cut %d: recovered %v, want %v", cut, rec, states[whole])
		}
		var wantGen uint64
		for i := 0; i < whole; i++ {
			wantGen += uint64(len(batches[i]))
		}
		if s2.Gen() != wantGen {
			t.Fatalf("cut %d: generation %d, want %d", cut, s2.Gen(), wantGen)
		}
		s2.Close()
		// A file the crash left without a record (torn header included) is
		// cut over again, not kept beside the fresh one.
		if n, want := countWALFiles(t, crashDir), min(whole, 1)+1; n != want {
			t.Fatalf("cut %d: %d log files after reopening, want %d", cut, n, want)
		}
	}
}

// TestStoreMidFileCorruptionRefuses: a hole in the middle of the log
// (valid records after the damage) must refuse to open — serving a
// gapped history would be silently wrong.
func TestStoreMidFileCorruptionRefuses(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenStore(t, dir, []workload.Key{10}, StoreOptions{})
	storeAppend(t, s, []workload.Key{1, 2, 3})
	storeAppend(t, s, []workload.Key{4, 5, 6})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[walHeaderSize(1)+walRecHeaderSize] ^= 0xff // first record's first key
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenStore(dir, []workload.Key{10}, StoreOptions{}); !errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("open over mid-file hole = %v, want ErrStoreCorrupt", err)
	}
}

// TestStoreCrashHoleRecoversPrefix: a crash during a group commit can
// leave a page of the active log unwritten with whole records after it.
// The store opens on that image with the inserts before the hole, and
// keeps opening with them: the file cut at that recovery continues from
// the prefix, so the holed file behind it still replays.
func TestStoreCrashHoleRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	baseline := []workload.Key{7}
	s, _ := mustOpenStore(t, dir, baseline, StoreOptions{})
	var batches [][]workload.Key
	for _, b := range holeBatches() {
		storeAppend(t, s, b.keys)
		batches = append(batches, b.keys)
	}
	live, err := os.ReadFile(filepath.Join(dir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	clear(live[4096:8192])
	want := append([]workload.Key(nil), baseline...)
	for o, i := int64(walHeaderSize(1)), 0; ; i++ {
		o += int64(walRecHeaderSize + 4*len(batches[i]) + walRecTrailerSize)
		if o > 4096 {
			break
		}
		want = append(want, batches[i]...)
	}
	crashDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashDir, walName(1)), live, 0o644); err != nil {
		t.Fatal(err)
	}
	var notices []string
	opt := StoreOptions{Logf: func(format string, args ...any) { notices = append(notices, fmt.Sprintf(format, args...)) }}
	for open := 1; open <= 2; open++ {
		s2, rec, err := OpenStore(crashDir, baseline, opt)
		if err != nil {
			t.Fatalf("open %d over a crash's hole: %v", open, err)
		}
		if !sameKeys(rec, sortedCopy(want)) {
			t.Fatalf("open %d recovered %d keys, want the %d before the hole", open, len(rec), len(want))
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(notices) == 0 || !strings.Contains(notices[0], "hole") {
		t.Fatalf("notices %q: want one naming the hole", notices)
	}
}

func TestStoreInsertsSince(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenStore(t, dir, []workload.Key{10}, StoreOptions{})
	defer s.Close()

	c0 := s.Chain()
	storeAppend(t, s, []workload.Key{1, 2})
	g1, c1 := s.Gen(), s.Chain()
	storeAppend(t, s, []workload.Key{3})
	g2, c2 := s.Gen(), s.Chain()

	keys, ok, err := s.InsertsSince(0, c0)
	if err != nil || !ok || !sameKeys(keys, []workload.Key{1, 2, 3}) {
		t.Fatalf("since 0: keys=%v ok=%v err=%v", keys, ok, err)
	}
	keys, ok, err = s.InsertsSince(g1, c1)
	if err != nil || !ok || !sameKeys(keys, []workload.Key{3}) {
		t.Fatalf("since %d: keys=%v ok=%v err=%v", g1, keys, ok, err)
	}
	keys, ok, err = s.InsertsSince(g2, c2)
	if err != nil || !ok || len(keys) != 0 {
		t.Fatalf("since head: keys=%v ok=%v err=%v", keys, ok, err)
	}
	// Diverged caller: right generation, wrong fold.
	if _, ok, err := s.InsertsSince(g1, c1^1); ok || err != nil {
		t.Fatalf("chain mismatch accepted (ok=%v err=%v)", ok, err)
	}
	// Future caller: a generation this store has never reached.
	if _, ok, err := s.InsertsSince(g2+5, c2); ok || err != nil {
		t.Fatalf("future generation accepted (ok=%v err=%v)", ok, err)
	}
}

// TestStoreInsertsSinceSurvivesRotation: the delta must thread across
// rotated WAL files, and a generation compacted past the retention floor
// must be refused (ok=false), steering the caller to a full snapshot.
func TestStoreInsertsSinceSurvivesRotation(t *testing.T) {
	dir := t.TempDir()
	baseline := []workload.Key{10}
	s, _ := mustOpenStore(t, dir, baseline, StoreOptions{})
	defer s.Close()
	oracle := append([]workload.Key(nil), baseline...)
	c0 := s.Chain()

	storeAppend(t, s, []workload.Key{1, 2})
	oracle = append(oracle, 1, 2)
	if err := s.FlushSegment(sortedCopy(oracle), 2); err != nil {
		t.Fatal(err)
	}
	g1, c1 := s.Gen(), s.Chain()
	storeAppend(t, s, []workload.Key{3, 4})
	oracle = append(oracle, 3, 4)
	if err := s.FlushSegment(sortedCopy(oracle), 4); err != nil {
		t.Fatal(err)
	}
	storeAppend(t, s, []workload.Key{5})

	// Generation 0 predates the retention floor (segment 2) once segment
	// 4 exists: the WAL that covered (0, 2] has been retired.
	if _, ok, err := s.InsertsSince(0, c0); ok || err != nil {
		t.Fatalf("compacted-away generation served a delta (ok=%v err=%v)", ok, err)
	}
	// Generation 2 is the previous segment: still covered by retained files.
	keys, ok, err := s.InsertsSince(g1, c1)
	if err != nil || !ok || !sameKeys(keys, []workload.Key{3, 4, 5}) {
		t.Fatalf("since retained floor: keys=%v ok=%v err=%v", keys, ok, err)
	}
}

func TestStoreResetToSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenStore(t, dir, []workload.Key{10}, StoreOptions{})
	storeAppend(t, s, []workload.Key{1})
	fresh := []workload.Key{50, 60, 70}
	if err := s.ResetTo(fresh, 9, 0xbeef); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	storeAppend(t, s, []workload.Key{80})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := mustOpenStore(t, dir, []workload.Key{777}, StoreOptions{})
	defer s2.Close()
	want := sortedCopy(append(append([]workload.Key(nil), fresh...), 80))
	if !sameKeys(rec, want) {
		t.Fatalf("recovered %v, want %v", rec, want)
	}
	if s2.Gen() != 10 {
		t.Fatalf("generation %d, want 10", s2.Gen())
	}
	if s2.Chain() != ChainFold(0xbeef, []workload.Key{80}) {
		t.Fatalf("chain %#x does not continue the reset fold", s2.Chain())
	}
}

// TestStoreFsyncFailureNeverAcks: when the disk refuses to sync, Commit
// must error (the caller never acks) and the store must refuse all
// further writes instead of acking over the hole.
func TestStoreFsyncFailureNeverAcks(t *testing.T) {
	faulty := faultfs.NewFaulty(faultfs.OS)
	s, _ := mustOpenStore(t, t.TempDir(), []workload.Key{10}, StoreOptions{FS: faulty})
	defer s.Close()
	storeAppend(t, s, []workload.Key{1})
	faulty.FailSyncAt(faulty.Syncs() + 1)
	end, _, err := s.Append([]workload.Key{2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(end); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("commit on dead disk = %v, want ErrInjected", err)
	}
	faulty.FailSyncAt(0)
	if _, _, err := s.Append([]workload.Key{3}); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("append after fsync failure = %v, want ErrWALBroken", err)
	}
	if s.Broken() == nil {
		t.Fatal("Broken() = nil after fsync failure")
	}
	if err := s.FlushSegment([]workload.Key{1, 2, 10}, 2); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("segment flush on a broken store = %v, want the sticky error", err)
	}
}

// TestStoreWALExtensionFaultNeverAcks: a failed write of the zeros an
// append extends the log with poisons the log like a failed record
// write. That insert and every later one return ErrWALBroken, none is
// acked, and a reopen recovers exactly the inserts acked before it.
func TestStoreWALExtensionFaultNeverAcks(t *testing.T) {
	faulty := faultfs.NewFaulty(faultfs.OS)
	dir := t.TempDir()
	baseline := []workload.Key{10}
	s, _ := mustOpenStore(t, dir, baseline, StoreOptions{FS: faulty})
	acked := append([]workload.Key(nil), baseline...)
	batch := func(i int) []workload.Key { return []workload.Key{workload.Key(100 + i), workload.Key(200 + i)} }
	rec := int64(walRecHeaderSize + 4*2 + walRecTrailerSize)
	extends := func() bool {
		s.log.mu.Lock()
		defer s.log.mu.Unlock()
		return s.log.end+rec > s.log.zeroed
	}
	i := 0
	for ; i < 2 || !extends(); i++ {
		storeAppend(t, s, batch(i))
		acked = append(acked, batch(i)...)
	}
	w0 := faulty.Writes()
	faulty.FailWriteAt(w0 + 1) // the extension's zeros
	if _, _, err := s.Append(batch(i)); !errors.Is(err, ErrWALBroken) || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append whose extension failed = %v, want ErrWALBroken wrapping ErrInjected", err)
	}
	if got := faulty.Writes() - w0; got != 1 {
		t.Fatalf("the append tried %d writes, want 1: nothing may be written after a failed extension", got)
	}
	faulty.FailWriteAt(0) // the disk "recovers"; the log must not
	for j := 1; j <= 3; j++ {
		if _, _, err := s.Append(batch(i + j)); !errors.Is(err, ErrWALBroken) {
			t.Fatalf("append %d after the failed extension = %v, want ErrWALBroken", j, err)
		}
	}
	if s.Broken() == nil {
		t.Fatal("Broken() = nil after a failed extension")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec2 := mustOpenStore(t, dir, baseline, StoreOptions{})
	defer s2.Close()
	if !sameKeys(rec2, sortedCopy(acked)) {
		t.Fatalf("reopen recovered %v, want the acked %v", rec2, sortedCopy(acked))
	}
}

// TestStoreWALTailFootprint pins the extension rule: appending small
// records to a fresh store, the log file is never more than twice its
// logical bytes plus one record, nor more than its logical bytes plus
// 1 MiB — so a test that copies or mutates the file a byte at a time
// stays bounded — and a clean close trims the tail.
func TestStoreWALTailFootprint(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenStore(t, dir, nil, StoreOptions{})
	keys := make([]workload.Key, 64)
	rec := int64(walRecHeaderSize + 4*len(keys) + walRecTrailerSize)
	logical := int64(walHeaderSize(1))
	path := filepath.Join(dir, walName(1))
	var widest int64
	for logical < 3*walExtendMax {
		if _, _, err := s.Append(keys); err != nil {
			t.Fatal(err)
		}
		logical += rec
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		size := st.Size()
		if size < logical || size > 2*logical+rec || size > logical+walExtendMax {
			t.Fatalf("%d logical bytes in a %d-byte file: want at least the logical bytes, at most %d and %d",
				logical, size, 2*logical+rec, logical+walExtendMax)
		}
		widest = max(widest, size-logical)
	}
	if widest < walExtendMax/2 {
		t.Fatalf("widest tail %d bytes over %d logical: the extensions never approached the cap", widest, logical)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != logical {
		t.Fatalf("closed log: %v, want %d bytes", err, logical)
	}
}

// TestStoreSegmentRetiresWALs: after a segment flush, WAL files wholly
// below the retention floor are deleted; the newest two segments are
// kept so a rotted head segment still has a fallback.
func TestStoreSegmentRetiresWALs(t *testing.T) {
	dir := t.TempDir()
	baseline := []workload.Key{10}
	s, _ := mustOpenStore(t, dir, baseline, StoreOptions{})
	defer s.Close()
	oracle := append([]workload.Key(nil), baseline...)
	for round := 0; round < 4; round++ {
		b := []workload.Key{workload.Key(round*10 + 1), workload.Key(round*10 + 2)}
		storeAppend(t, s, b)
		oracle = append(oracle, b...)
		if err := s.FlushSegment(sortedCopy(oracle), uint64(2*(round+1))); err != nil {
			t.Fatalf("flush %d: %v", round, err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs, wals int
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".seg"):
			segs++
		case strings.HasSuffix(e.Name(), ".wal"):
			wals++
		}
	}
	if segs != 2 {
		t.Fatalf("%d segments retained, want 2 (newest + fallback)", segs)
	}
	// Retained WALs: those covering (prevSegGen, gen] plus the active log.
	if wals > 3 {
		t.Fatalf("%d WAL files retained, want <= 3 (retirement is not keeping up)", wals)
	}
}

// TestStoreCommitAfterRotation: an insert's Commit can race a
// background segment flush that rotates the WAL out from under it. The
// cumulative end must resolve against the rotated file — whose records
// rotation already committed — instead of waiting on the fresh log to
// reach an offset it will never hold (a livelock that fsyncs forever).
func TestStoreCommitAfterRotation(t *testing.T) {
	s, _ := mustOpenStore(t, t.TempDir(), []workload.Key{10}, StoreOptions{})
	defer s.Close()
	end, gen, err := s.Append([]workload.Key{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// The flush rotates the active WAL before this append's Commit runs
	// — exactly what a concurrent frozen-layer publish does.
	if err := s.FlushSegment([]workload.Key{1, 2, 3, 10}, gen); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Commit(end) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Commit after rotation: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Commit hung waiting on a rotated-away WAL offset")
	}
	// The fresh log still appends and commits normally.
	end2, _, err := s.Append([]workload.Key{4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(end2); err != nil {
		t.Fatal(err)
	}
	if got := s.Gen(); got != gen+1 {
		t.Fatalf("gen after post-rotation append = %d, want %d", got, gen+1)
	}
}

// openSharedStores opens parts stores on one log in dir, over baselines
// that keep the partitions' key ranges apart (partition p: p*1000...).
func openSharedStores(t *testing.T, dir string, parts int, opt StoreOptions) ([]*Store, [][]workload.Key) {
	t.Helper()
	baselines := make([][]workload.Key, parts)
	for p := range baselines {
		baselines[p] = []workload.Key{workload.Key(p * 1000)}
	}
	stores, rec, err := OpenStores(dir, baselines, opt)
	if err != nil {
		t.Fatalf("OpenStores(%s): %v", dir, err)
	}
	return stores, rec
}

func closeStores(t *testing.T, stores []*Store) {
	t.Helper()
	for _, s := range stores {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
}

func countWALFiles(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

// TestStoresSharedWALOneCommitPerWave: stores on one log share its
// offsets, so a wave appended to all of them is durable after ONE commit
// of the highest end, through any of them — one fsync, not one per store
// — and survives a reopen whole.
func TestStoresSharedWALOneCommitPerWave(t *testing.T) {
	dir := t.TempDir()
	faulty := faultfs.NewFaulty(faultfs.OS)
	stores, _ := openSharedStores(t, dir, 4, StoreOptions{FS: faulty})
	want := make([][]workload.Key, 4)
	for p := range want {
		want[p] = []workload.Key{workload.Key(p * 1000)}
	}
	for wave := 0; wave < 5; wave++ {
		before := faulty.Syncs()
		var last int64
		for p, s := range stores {
			b := []workload.Key{workload.Key(p*1000 + wave + 1), workload.Key(p*1000 + wave + 1)}
			end, _, err := s.Append(b)
			if err != nil {
				t.Fatal(err)
			}
			if end <= last {
				t.Fatalf("wave %d: partition %d appended at offset %d, not past %d", wave, p, end, last)
			}
			last = end
			want[p] = append(want[p], b...)
		}
		if err := stores[wave%4].Commit(last); err != nil {
			t.Fatal(err)
		}
		if got := faulty.Syncs() - before; got != 1 {
			t.Fatalf("wave %d: %d fsyncs, want 1", wave, got)
		}
	}
	closeStores(t, stores)
	if n := countWALFiles(t, dir); n != 1 {
		t.Fatalf("%d log files for 4 partitions, want 1", n)
	}
	stores, rec := openSharedStores(t, dir, 4, StoreOptions{})
	defer closeStores(t, stores)
	for p := range want {
		if !sameKeys(rec[p], sortedCopy(want[p])) {
			t.Fatalf("partition %d recovered %v, want %v", p, rec[p], sortedCopy(want[p]))
		}
		if stores[p].Gen() != 10 {
			t.Fatalf("partition %d at generation %d, want 10", p, stores[p].Gen())
		}
	}
}

// TestStoresSharedWALRetirement: the log's files are retired by the
// slowest partition. Four partitions take a record each per wave and
// flush segments at uneven cadences; the fourth does not flush at all for
// the first waves. While it lags, the files holding its unflushed records
// stay (a copy of the directory taken after every wave recovers every
// partition exactly); once it flushes, the number of retained files is
// bounded by a constant however many waves follow.
func TestStoresSharedWALRetirement(t *testing.T) {
	const (
		parts     = 4
		lagWaves  = 8
		waves     = 40
		fileBound = 8 // twice the slowest cadence (3 waves), the active file, one of slack
	)
	dir := t.TempDir()
	stores, _ := openSharedStores(t, dir, parts, StoreOptions{FsyncInterval: -1})
	defer closeStores(t, stores)
	oracle := make([][]workload.Key, parts)
	for p := range oracle {
		oracle[p] = []workload.Key{workload.Key(p * 1000)}
	}
	cadence := []int{1, 2, 3, 1}
	peak := 0
	for wave := 1; wave <= waves; wave++ {
		for p, s := range stores {
			b := []workload.Key{workload.Key(p*1000 + wave%900 + 1), workload.Key(p*1000 + 7)}
			storeAppend(t, s, b)
			oracle[p] = append(oracle[p], b...)
		}
		for p, s := range stores {
			if wave%cadence[p] != 0 || (p == parts-1 && wave <= lagWaves) {
				continue
			}
			if err := s.FlushSegment(sortedCopy(oracle[p]), s.Gen()); err != nil {
				t.Fatalf("wave %d: flush partition %d: %v", wave, p, err)
			}
		}
		n := countWALFiles(t, dir)
		switch {
		case wave <= lagWaves:
			// Every wave rotated (partition 0 flushes each time) and the
			// laggard's floor is still 0: nothing may go.
			if n != wave+1 {
				t.Fatalf("wave %d: %d log files with partition %d never flushed, want %d", wave, n, parts-1, wave+1)
			}
		case wave > lagWaves+2 && n > fileBound:
			t.Fatalf("wave %d: %d log files retained, want <= %d (retirement is not keeping up)", wave, n, fileBound)
		}
		if wave > lagWaves+2 && n > peak {
			peak = n
		}
		// The disk as a crash now would leave it recovers every partition.
		img := t.TempDir()
		copyDir(t, dir, img)
		crashed, rec, err := OpenStores(img, make([][]workload.Key, parts), StoreOptions{FsyncInterval: -1})
		if err != nil {
			t.Fatalf("wave %d: crash image refused: %v", wave, err)
		}
		for p := range rec {
			// A partition that has no segment yet recovers from the nil
			// baseline: its log records alone.
			want := sortedCopy(oracle[p])
			if !crashed[p].HasSegment() {
				want = sortedCopy(oracle[p][1:])
			}
			if !sameKeys(rec[p], want) {
				t.Fatalf("wave %d: partition %d recovered %d keys, want %d", wave, p, len(rec[p]), len(want))
			}
		}
		closeStores(t, crashed)
	}
	t.Logf("peak retained log files after the laggard caught up: %d", peak)
	if peak < 2 {
		t.Fatalf("never more than %d log file(s): the test did not rotate", peak)
	}
}

// TestStoresSharedWALBitFlip flips one bit in every byte of a log three
// partitions share and reopens the stores: the open is refused, or it
// recovers for every partition a prefix of that partition's own stream
// (the flip read as a torn tail) — never a key that was not logged, never
// a key under another partition.
func TestStoresSharedWALBitFlip(t *testing.T) {
	const parts = 3
	dir := t.TempDir()
	stores, _ := openSharedStores(t, dir, parts, StoreOptions{})
	streams := make([][][]workload.Key, parts) // per partition, its batches in order
	for wave := 0; wave < 4; wave++ {
		for p, s := range stores {
			if wave == 2 && p == 1 {
				continue // a wave that skips a partition
			}
			b := []workload.Key{workload.Key(p*1000 + 10*wave + 1), workload.Key(p*1000 + 10*wave + 2)}
			storeAppend(t, s, b)
			streams[p] = append(streams[p], b)
		}
	}
	closeStores(t, stores)
	walPath := filepath.Join(dir, walName(1))
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	isPrefix := func(p int, rec []workload.Key) bool {
		want := []workload.Key{workload.Key(p * 1000)}
		if sameKeys(rec, want) {
			return true
		}
		for _, b := range streams[p] {
			want = append(want, b...)
			if sameKeys(rec, sortedCopy(want)) {
				return true
			}
		}
		return false
	}
	refused, torn := 0, 0
	for off := range full {
		mut := append([]byte(nil), full...)
		mut[off] ^= 1 << (off % 8)
		img := t.TempDir()
		if err := os.WriteFile(filepath.Join(img, walName(1)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		baselines := make([][]workload.Key, parts)
		for p := range baselines {
			baselines[p] = []workload.Key{workload.Key(p * 1000)}
		}
		crashed, rec, err := OpenStores(img, baselines, StoreOptions{FsyncInterval: -1})
		if err != nil {
			if !errors.Is(err, ErrStoreCorrupt) && !errors.Is(err, ErrStoreFormat) {
				t.Fatalf("flip at %d: %v, want ErrStoreCorrupt (or ErrStoreFormat in the version field)", off, err)
			}
			refused++
			continue
		}
		torn++
		for p := range rec {
			if !isPrefix(p, rec[p]) {
				t.Fatalf("flip at %d: partition %d served %v, not a prefix of its stream", off, p, rec[p])
			}
		}
		closeStores(t, crashed)
	}
	if refused == 0 || torn == 0 {
		t.Fatalf("%d flips refused, %d recovered as torn: want both kinds", refused, torn)
	}
}

// TestStoreSharedWALRefusesWholeLogOps: ResetTo and InsertsSince rewrite
// and re-read the whole log; on a log other partitions share they are
// refused and change nothing.
func TestStoreSharedWALRefusesWholeLogOps(t *testing.T) {
	dir := t.TempDir()
	stores, _ := openSharedStores(t, dir, 2, StoreOptions{})
	defer closeStores(t, stores)
	storeAppend(t, stores[0], []workload.Key{1})
	storeAppend(t, stores[1], []workload.Key{1001})
	if err := stores[0].ResetTo([]workload.Key{5}, 9, 0xbeef); err == nil {
		t.Fatal("ResetTo on a shared log succeeded")
	}
	if _, ok, err := stores[1].InsertsSince(0, ChainStart()); ok || err == nil {
		t.Fatalf("InsertsSince on a shared log: ok=%v err=%v, want a refusal", ok, err)
	}
	if stores[0].Gen() != 1 || stores[1].Gen() != 1 {
		t.Fatalf("positions moved: %d, %d", stores[0].Gen(), stores[1].Gen())
	}
	storeAppend(t, stores[1], []workload.Key{1002})
}

// dirImage reads every file under dir, for before/after comparisons.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		img[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestStoreFormatV1Refused: a directory written by the format before
// this one — a v1 log file beside a segment this build would not even
// parse — is refused with ErrStoreFormat naming both versions, and is
// byte for byte the same afterwards: nothing quarantined, nothing
// created, nothing replayed.
func TestStoreFormatV1Refused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000001.wal"), v1WALHeader(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(0)), []byte("a v1 segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	_, _, err := OpenStore(dir, []workload.Key{10}, StoreOptions{})
	if !errors.Is(err, ErrStoreFormat) || errors.Is(err, ErrStoreCorrupt) {
		t.Fatalf("open of a v1 directory = %v, want ErrStoreFormat (and not ErrStoreCorrupt)", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "v1") || !strings.Contains(msg, "v2") {
		t.Fatalf("refusal %q does not name both versions", msg)
	}
	after := dirImage(t, dir)
	if len(after) != len(before) {
		t.Fatalf("directory changed: %d files before, %d after", len(before), len(after))
	}
	for path, data := range before {
		if after[path] != data {
			t.Fatalf("%s changed", path)
		}
	}
}
