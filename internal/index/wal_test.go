package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/workload"
)

// startPos is the position of parts partitions that have logged nothing.
func startPos(parts int) []WALPos {
	pos := make([]WALPos, parts)
	for p := range pos {
		pos[p] = WALPos{0, ChainStart()}
	}
	return pos
}

// freshWAL starts a log of parts partitions in the empty directory dir;
// its one file is dir/walName(1).
func freshWAL(t *testing.T, fs faultfs.FS, dir string, parts int) *WAL {
	t.Helper()
	w := newWAL(fs, dir, parts, StoreOptions{})
	if err := w.start(startPos(parts), make([]uint64, parts)); err != nil {
		t.Fatalf("start log: %v", err)
	}
	return w
}

// Pos returns partition part's position after the last replayed record.
func (r *WALReplay) Pos(part int) WALPos {
	for i := len(r.Records) - 1; i >= 0; i-- {
		if rec := r.Records[i]; rec.Part == part {
			return WALPos{rec.Seq, rec.Chain}
		}
	}
	return r.Base[part]
}

// taggedBatch is one insert batch bound for one partition of a log.
type taggedBatch struct {
	part int
	keys []workload.Key
}

// appendOracle writes batches to a fresh log in dir and returns the
// per-record oracle (what a correct replay of its file must reproduce).
func appendOracle(t *testing.T, dir string, parts int, batches []taggedBatch) []WALRecord {
	t.Helper()
	w := freshWAL(t, faultfs.OS, dir, parts)
	var oracle []WALRecord
	pos := startPos(parts)
	for _, b := range batches {
		end, at, err := w.Append(b.part, b.keys)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := w.Commit(end); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		pos[b.part] = WALPos{pos[b.part].Gen + uint64(len(b.keys)), ChainFold(pos[b.part].Chain, b.keys)}
		if at != pos[b.part] {
			t.Fatalf("Append returned position %+v, want %+v", at, pos[b.part])
		}
		oracle = append(oracle, WALRecord{Part: b.part, Seq: at.Gen, Chain: at.Chain, Keys: b.keys})
	}
	for range parts {
		if err := w.release(); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	return oracle
}

func walBatches() []taggedBatch {
	return []taggedBatch{
		{0, []workload.Key{10, 20, 30}},
		{0, []workload.Key{5}},
		{0, []workload.Key{40, 41, 42, 43, 44}},
		{0, []workload.Key{7, 7, 7}}, // duplicates are legal: the index is a multiset
		{0, []workload.Key{99, 1}},
	}
}

// sharedBatches is the record run of a log three partitions share: waves
// that touch all of them, one that touches a single partition, and a
// partition that is silent for a while.
func sharedBatches() []taggedBatch {
	return []taggedBatch{
		{0, []workload.Key{10, 20}}, {1, []workload.Key{1000}}, {2, []workload.Key{2000, 2001, 2002}},
		{1, []workload.Key{1001, 1001}},
		{2, []workload.Key{2003}}, {0, []workload.Key{5}},
		{0, []workload.Key{6, 7}}, {1, []workload.Key{1002}}, {2, []workload.Key{2004}},
	}
}

// recordEnds returns the file offset after the header and after each
// record of oracle.
func recordEnds(parts int, oracle []WALRecord) []int64 {
	o := int64(walHeaderSize(parts))
	ends := []int64{o}
	for _, rec := range oracle {
		o += int64(walRecHeaderSize + 4*len(rec.Keys) + walRecTrailerSize)
		ends = append(ends, o)
	}
	return ends
}

// sameRecords compares a replay against an oracle prefix.
func sameRecords(got, want []WALRecord) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Part != want[i].Part || got[i].Seq != want[i].Seq || got[i].Chain != want[i].Chain || len(got[i].Keys) != len(want[i].Keys) {
			return false
		}
		for j := range got[i].Keys {
			if got[i].Keys[j] != want[i].Keys[j] {
				return false
			}
		}
	}
	return true
}

func readWALFile(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestWALReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	oracle := appendOracle(t, dir, 1, walBatches())
	rep, err := ReplayWALBytes(readWALFile(t, dir), 1, startPos(1))
	if err != nil {
		t.Fatalf("ReplayWALBytes: %v", err)
	}
	if rep.Torn {
		t.Fatal("clean file reported torn")
	}
	if !sameRecords(rep.Records, oracle) {
		t.Fatalf("replay diverged from oracle: got %d records, want %d", len(rep.Records), len(oracle))
	}
	last := oracle[len(oracle)-1]
	if got := rep.Pos(0); got != (WALPos{last.Seq, last.Chain}) {
		t.Fatalf("replay position %+v != oracle (%d, %#x)", got, last.Seq, last.Chain)
	}
}

// TestWALCrashAtEveryOffset simulates kill -9 at every possible write
// boundary: for each prefix length of the log file, replay must recover
// exactly the records wholly contained in the prefix — never an error,
// never a record that was not fully written. It runs over a log one
// partition has to itself and over one three partitions share, where
// every partition must also come back at a prefix of its own stream.
func TestWALCrashAtEveryOffset(t *testing.T) {
	for _, tc := range []struct {
		name    string
		parts   int
		batches []taggedBatch
	}{{"private", 1, walBatches()}, {"shared", 3, sharedBatches()}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			oracle := appendOracle(t, dir, tc.parts, tc.batches)
			data := readWALFile(t, dir)
			ends := recordEnds(tc.parts, oracle)
			if o := ends[len(ends)-1]; o != int64(len(data)) {
				t.Fatalf("offset accounting: computed end %d, file is %d bytes", o, len(data))
			}
			for cut := 0; cut <= len(data); cut++ {
				rep, err := ReplayWALBytes(data[:cut], tc.parts, startPos(tc.parts))
				if err != nil {
					t.Fatalf("cut %d: replay error %v (a torn tail must recover, not refuse)", cut, err)
				}
				// How many records fit wholly in the prefix?
				whole := 0
				for whole+1 < len(ends) && ends[whole+1] <= int64(cut) {
					whole++
				}
				if !sameRecords(rep.Records, oracle[:whole]) {
					t.Fatalf("cut %d: recovered %d records, want the %d whole ones", cut, len(rep.Records), whole)
				}
				wantTorn := cut != 0 && int64(cut) != ends[whole] // an empty file is absent, not torn
				if rep.Torn != wantTorn {
					t.Fatalf("cut %d: Torn = %v, want %v", cut, rep.Torn, wantTorn)
				}
				// Per partition: the position replay reports is the one
				// after the partition's last whole record.
				want := startPos(tc.parts)
				for _, rec := range oracle[:whole] {
					want[rec.Part] = WALPos{rec.Seq, rec.Chain}
				}
				for p := range want {
					if got := rep.Pos(p); got != want[p] {
						t.Fatalf("cut %d: partition %d at %+v, want %+v", cut, p, got, want[p])
					}
				}
			}
		})
	}
}

// TestWALBitFlipNeverSilentlyWrong flips every bit of the file, one at a
// time — header, partition tags and all, over a private log and over a
// run of records from three partitions. Each flip must either be
// rejected (ErrWALCorrupt — mid-file damage, bad header, a tag out of
// range, broken accounting; or ErrStoreFormat when the flip lands in the
// version field) or recover a strict prefix of the oracle (damage in the
// final record is indistinguishable from a torn write). It must never
// return records that differ from the oracle — in particular never a
// record moved to another partition.
func TestWALBitFlipNeverSilentlyWrong(t *testing.T) {
	for _, tc := range []struct {
		name    string
		parts   int
		batches []taggedBatch
	}{{"private", 1, walBatches()}, {"shared", 3, sharedBatches()}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			oracle := appendOracle(t, dir, tc.parts, tc.batches)
			data := readWALFile(t, dir)
			for byteOff := 0; byteOff < len(data); byteOff++ {
				for bit := 0; bit < 8; bit++ {
					mut := append([]byte(nil), data...)
					mut[byteOff] ^= 1 << bit
					rep, err := ReplayWALBytes(mut, tc.parts, startPos(tc.parts))
					if err != nil {
						if !errors.Is(err, ErrWALCorrupt) && !(errors.Is(err, ErrStoreFormat) && byteOff >= 4 && byteOff < 8) {
							t.Fatalf("flip %d.%d: error %v is not ErrWALCorrupt", byteOff, bit, err)
						}
						continue
					}
					if len(rep.Records) <= len(oracle) && sameRecords(rep.Records, oracle[:len(rep.Records)]) {
						continue // a clean prefix: equivalent to crashing earlier
					}
					t.Fatalf("flip %d.%d: silently wrong replay (%d records, not an oracle prefix)",
						byteOff, bit, len(rep.Records))
				}
			}
		})
	}
}

// TestWALZeroTailReplaysClean: the zeroed tail an fsyncing log keeps
// ahead of its appends is a clean end. The live file, read while the log
// is open, replays every record appended so far, and so does the closed
// file with zeros appended: the same records and Size as without them,
// and Torn false.
func TestWALZeroTailReplaysClean(t *testing.T) {
	for _, tc := range []struct {
		name    string
		parts   int
		batches []taggedBatch
	}{{"private", 1, walBatches()}, {"shared", 3, sharedBatches()}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := freshWAL(t, faultfs.OS, dir, tc.parts)
			var oracle []WALRecord
			tailed := false
			for _, b := range tc.batches {
				end, at, err := w.Append(b.part, b.keys)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Commit(end); err != nil {
					t.Fatal(err)
				}
				oracle = append(oracle, WALRecord{Part: b.part, Seq: at.Gen, Chain: at.Chain, Keys: b.keys})
				live := readWALFile(t, dir)
				rep, err := ReplayWALBytes(live, tc.parts, startPos(tc.parts))
				if err != nil {
					t.Fatalf("live file after %d records: %v", len(oracle), err)
				}
				if rep.Torn || !sameRecords(rep.Records, oracle) {
					t.Fatalf("live file after %d records: Torn %v, %d records", len(oracle), rep.Torn, len(rep.Records))
				}
				if want := recordEnds(tc.parts, oracle)[len(oracle)]; rep.Size != want {
					t.Fatalf("live file after %d records: Size %d, want %d", len(oracle), rep.Size, want)
				}
				tailed = tailed || int64(len(live)) > rep.Size
			}
			if !tailed {
				t.Fatal("the live file never ran past its last record: nothing was preallocated")
			}
			for range tc.parts {
				if err := w.release(); err != nil {
					t.Fatal(err)
				}
			}
			clean := readWALFile(t, dir)
			want, err := ReplayWALBytes(clean, tc.parts, startPos(tc.parts))
			if err != nil {
				t.Fatalf("closed file: %v", err)
			}
			if want.Torn || !sameRecords(want.Records, oracle) || want.Size != int64(len(clean)) {
				t.Fatalf("closed file of %d bytes: Torn %v, Size %d, %d records", len(clean), want.Torn, want.Size, len(want.Records))
			}
			for _, zeros := range []int{1, 3, 4096, walExtendMax + 5} {
				rep, err := ReplayWALBytes(append(clean[:len(clean):len(clean)], make([]byte, zeros)...), tc.parts, startPos(tc.parts))
				if err != nil {
					t.Fatalf("%d zeros: %v", zeros, err)
				}
				if rep.Torn || rep.Size != want.Size || !sameRecords(rep.Records, want.Records) {
					t.Fatalf("%d zeros: Torn %v, Size %d, %d records; want false, %d, %d", zeros, rep.Torn, rep.Size, len(rep.Records), want.Size, len(want.Records))
				}
			}
		})
	}
}

// TestWALTornInZeroTail: a crash tears the final record where it landed,
// in the zeroed tail — a prefix of the record, then zeros. Replay
// recovers every record before it and reports the tail torn.
func TestWALTornInZeroTail(t *testing.T) {
	for _, tc := range []struct {
		name    string
		parts   int
		batches []taggedBatch
	}{{"private", 1, walBatches()}, {"shared", 3, sharedBatches()}} {
		t.Run(tc.name, func(t *testing.T) {
			full := buildWALImage(startPos(tc.parts), tc.batches)
			oracle, err := ReplayWALBytes(full, tc.parts, startPos(tc.parts))
			if err != nil {
				t.Fatal(err)
			}
			ends := recordEnds(tc.parts, oracle.Records)
			last := ends[len(ends)-2] // where the final record begins
			for cut := last + 1; cut < int64(len(full)); cut++ {
				img := append(append([]byte(nil), full[:cut]...), make([]byte, int64(len(full))-cut+64)...)
				if bytes.Equal(img[:len(full)], full) {
					continue // the zeros the cut dropped were zeros: the record is whole
				}
				rep, err := ReplayWALBytes(img, tc.parts, startPos(tc.parts))
				if err != nil {
					t.Fatalf("cut %d: %v (a record torn in the tail must recover, not refuse)", cut, err)
				}
				if !rep.Torn || rep.Size != last || !sameRecords(rep.Records, oracle.Records[:len(oracle.Records)-1]) {
					t.Fatalf("cut %d: Torn %v, Size %d, %d records; want true, %d, %d",
						cut, rep.Torn, rep.Size, len(rep.Records), last, len(oracle.Records)-1)
				}
			}
		})
	}
}

// TestWALRecordAfterZerosCorrupt: zeros are a clean end only when
// nothing but zeros follows, and a hole only when they fill a sector. A
// valid record after zeros that fill none — nothing a crash leaves,
// since a sector that holds a record holds the records before it — is a
// gap in the history, refused as ErrWALCorrupt. A valid record planted
// in the zeroed tail, past zeros that run from the last record to a
// sector boundary, is a hole: the records before it, and Torn.
func TestWALRecordAfterZerosCorrupt(t *testing.T) {
	full := buildWALImage(startPos(1), walBatches())
	oracle, err := ReplayWALBytes(full, 1, startPos(1))
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(1, oracle.Records)
	last := ends[len(ends)-2]
	if last+64 > walSector {
		t.Fatalf("the image's last record begins at %d: the gaps below would reach a sector boundary", last)
	}
	for _, gap := range []int{1, 4, 64} {
		img := append(append(append([]byte(nil), full[:last]...), make([]byte, gap)...), full[last:]...)
		img = append(img, make([]byte, 64)...)
		if _, err := ReplayWALBytes(img, 1, startPos(1)); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("record after %d zeros: %v, want ErrWALCorrupt", gap, err)
		}
	}
	tail := append(append([]byte(nil), full...), make([]byte, walSector)...)
	planted := append(tail, full[last:]...)
	rep, err := ReplayWALBytes(planted, 1, startPos(1))
	if err != nil {
		t.Fatalf("record planted past the zeroed tail's first sector boundary: %v", err)
	}
	if !rep.Torn || !rep.Hole || rep.Size != int64(len(full)) || !sameRecords(rep.Records, oracle.Records) {
		t.Fatalf("record planted in the tail: Torn %v, Hole %v, Size %d, %d records; want true, true, %d, %d",
			rep.Torn, rep.Hole, rep.Size, len(rep.Records), len(full), len(oracle.Records))
	}
}

// holeBatches is a run of records long enough to span several 4 KiB
// pages: 120 records of 16 keys, 96 bytes each.
func holeBatches() []taggedBatch {
	var batches []taggedBatch
	for i := range 120 {
		keys := make([]workload.Key, 16)
		for j := range keys {
			keys[j] = workload.Key(1000*i + j + 1)
		}
		batches = append(batches, taggedBatch{0, keys})
	}
	return batches
}

// liveWALImage appends batches to a fresh log in dir, committing each,
// and returns the active file as a crash would find it — records, then
// the zeroed tail — with the oracle of its records.
func liveWALImage(t *testing.T, dir string, batches []taggedBatch) ([]byte, []WALRecord) {
	t.Helper()
	w := freshWAL(t, faultfs.OS, dir, 1)
	var oracle []WALRecord
	for _, b := range batches {
		end, at, err := w.Append(b.part, b.keys)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(end); err != nil {
			t.Fatal(err)
		}
		oracle = append(oracle, WALRecord{Part: b.part, Seq: at.Gen, Chain: at.Chain, Keys: b.keys})
	}
	live := readWALFile(t, dir)
	if err := w.release(); err != nil {
		t.Fatal(err)
	}
	if ends := recordEnds(1, oracle); int64(len(live)) <= ends[len(ends)-1] {
		t.Fatalf("live file of %d bytes has no zeroed tail", len(live))
	}
	return live, oracle
}

// TestWALCrashHoleRecoversPrefix: a commit overwrites zeroed blocks, and
// a crash during its fsync can leave any of its sectors unwritten — a
// hole of zeros with whole records after it. Zeroing a record that
// crosses a sector boundary, one 512-byte sector, or one 4 KiB page of a
// live image recovers every record before the first one the hole
// touches, and reports the tail torn. Zeros that fill no sector are
// damage, not a crash, and are refused.
func TestWALCrashHoleRecoversPrefix(t *testing.T) {
	live, oracle := liveWALImage(t, t.TempDir(), holeBatches())
	ends := recordEnds(1, oracle)
	// first returns the index of the first record that overlaps [lo, hi).
	first := func(lo, hi int64) int {
		for i := range oracle {
			if ends[i+1] > lo && ends[i] < hi {
				return i
			}
		}
		t.Fatalf("no record overlaps [%d, %d)", lo, hi)
		return 0
	}
	straddle := -1
	for i := range oracle {
		if ends[i]/walSector != (ends[i+1]-1)/walSector && i+1 < len(oracle)/2 {
			straddle = i
		}
	}
	holes := []struct {
		name   string
		lo, hi int64
	}{
		{"record", ends[straddle], ends[straddle+1]},
		{"sector", 3 * walSector, 4 * walSector},
		{"page", 4096, 8192},
		{"page and record after", 4096, ends[first(8192, 8193)+1]},
	}
	for _, h := range holes {
		img := append([]byte(nil), live...)
		clear(img[h.lo:h.hi])
		i := first(h.lo, h.hi)
		if i+1 >= len(oracle) {
			t.Fatalf("%s hole [%d, %d) leaves no record after it", h.name, h.lo, h.hi)
		}
		rep, err := ReplayWALBytes(img, 1, startPos(1))
		if err != nil {
			t.Fatalf("%s hole [%d, %d): %v (a crash's hole must recover, not refuse)", h.name, h.lo, h.hi, err)
		}
		if !rep.Torn || !rep.Hole || rep.Size != ends[i] || !sameRecords(rep.Records, oracle[:i]) {
			t.Fatalf("%s hole [%d, %d): Torn %v, Hole %v, Size %d, %d records; want true, true, %d, %d",
				h.name, h.lo, h.hi, rep.Torn, rep.Hole, rep.Size, len(rep.Records), ends[i], i)
		}
	}
	// Zeros inside one sector, with a whole record after them in the same
	// sector: a record that lies inside a sector, or eight bytes of one.
	inside := -1
	for i := range oracle[:len(oracle)-1] {
		if ends[i]/walSector == ends[i+2]/walSector && ends[i]%walSector != 0 {
			inside = i
			break
		}
	}
	for _, z := range [][2]int64{{ends[inside], ends[inside+1]}, {ends[inside] + 40, ends[inside] + 48}} {
		img := append([]byte(nil), live...)
		clear(img[z[0]:z[1]])
		if _, err := ReplayWALBytes(img, 1, startPos(1)); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("zeros [%d, %d) inside one sector: %v, want ErrWALCorrupt", z[0], z[1], err)
		}
	}
}

// walImageAt rewrites a one-file image's header as file ord's.
func walImageAt(img []byte, parts int, ord uint64) []byte {
	n := walHeaderSize(parts)
	binary.LittleEndian.PutUint64(img[8:16], ord)
	binary.LittleEndian.PutUint32(img[n-4:], crc32.Checksum(img[:n-4], crcTab))
	return img
}

// TestWALCrashHoleOnlyInActiveFile: a hole is recovered only where a
// crash can leave one. In the last file it is; in a file with a
// successor whose header continues past the hole — a file fsynced whole
// at rotation — the dropped records break the header check and the log
// is refused. A successor that continues from the prefix — the file cut
// after an earlier recovery — replays, so a recovered log keeps opening.
func TestWALCrashHoleOnlyInActiveFile(t *testing.T) {
	live, oracle := liveWALImage(t, t.TempDir(), holeBatches())
	ends := recordEnds(1, oracle)
	holed := append([]byte(nil), live...)
	clear(holed[4096:8192])
	keep := 0
	for ends[keep+1] <= 4096 {
		keep++
	}
	endOf := func(recs []WALRecord) []WALPos {
		return []WALPos{{recs[len(recs)-1].Seq, recs[len(recs)-1].Chain}}
	}
	for _, tc := range []struct {
		name string
		next []WALPos // the successor's header; nil: no successor
		ok   bool
	}{
		{"active", nil, true},
		{"rotated", endOf(oracle), false},
		{"recovered", endOf(oracle[:keep]), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walName(1)), holed, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.next != nil {
				if err := os.WriteFile(filepath.Join(dir, walName(2)), walImageAt(buildWALImage(tc.next, nil), 1, 2), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			streams, _, err := newWAL(faultfs.OS, dir, 1, StoreOptions{}).replay()
			if !tc.ok {
				if !errors.Is(err, ErrWALCorrupt) {
					t.Fatalf("hole in a file fsynced whole: %v, want ErrWALCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !sameRecords(streams[0].recs, oracle[:keep]) {
				t.Fatalf("replayed %d records, want the %d before the hole", len(streams[0].recs), keep)
			}
		})
	}
}

// TestWALGroupCommitConcurrent hammers Append+Commit from many
// goroutines, each on a partition of its own (run under -race): every
// acked record must be in the file, and the final replay must match the
// generation/chain accounting of every partition.
func TestWALGroupCommitConcurrent(t *testing.T) {
	const (
		writers = 8
		perW    = 50
	)
	dir := t.TempDir()
	faulty := faultfs.NewFaulty(faultfs.OS)
	w := freshWAL(t, faulty, dir, writers)
	syncs0 := faulty.Syncs()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var acked int
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				keys := []workload.Key{workload.Key(g*1000 + i)}
				end, _, err := w.Append(g, keys)
				if err != nil {
					errs <- err
					return
				}
				if err := w.Commit(end); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				acked++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("writer failed: %v", err)
	}
	if got := faulty.Syncs() - syncs0; got > writers*perW {
		t.Fatalf("%d fsyncs for %d commits: a commit led more than one", got, writers*perW)
	}
	for range writers {
		if err := w.release(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := ReplayWALBytes(readWALFile(t, dir), writers, startPos(writers))
	if err != nil {
		t.Fatalf("ReplayWALBytes: %v", err)
	}
	if rep.Torn {
		t.Fatal("torn tail after clean close")
	}
	for g := 0; g < writers; g++ {
		if got := rep.Pos(g).Gen; got != perW {
			t.Fatalf("partition %d replayed to generation %d, want %d (every acked record must be present)", g, got, perW)
		}
	}
	if acked != writers*perW {
		t.Fatalf("acked %d, want %d", acked, writers*perW)
	}
}

// TestWALInjectedWriteFailure: a failed append poisons the log — the
// caller gets an error (no ack), and every later append, of any
// partition, refuses with ErrWALBroken rather than writing past a hole.
func TestWALInjectedWriteFailure(t *testing.T) {
	faulty := faultfs.NewFaulty(faultfs.OS)
	w := freshWAL(t, faulty, t.TempDir(), 2)
	defer w.release()
	if _, _, err := w.Append(0, []workload.Key{1, 2}); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	faulty.FailWriteAt(faulty.Writes() + 1)
	if _, _, err := w.Append(0, []workload.Key{3}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("injected append error = %v, want ErrInjected", err)
	}
	faulty.FailWriteAt(0) // disk "recovers" — the log must stay poisoned
	for part := 0; part < 2; part++ {
		if _, _, err := w.Append(part, []workload.Key{4}); !errors.Is(err, ErrWALBroken) {
			t.Fatalf("partition %d append after failure = %v, want ErrWALBroken", part, err)
		}
	}
	if w.Broken() == nil {
		t.Fatal("Broken() = nil after write failure")
	}
}

// TestWALInjectedSyncFailure: a failed fsync means Commit returns an
// error (the insert is never acked), and the failure is sticky for every
// later committer and appender.
func TestWALInjectedSyncFailure(t *testing.T) {
	faulty := faultfs.NewFaulty(faultfs.OS)
	w := freshWAL(t, faulty, t.TempDir(), 2)
	defer w.release()
	end1, _, err := w.Append(0, []workload.Key{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(end1); err != nil {
		t.Fatalf("healthy commit: %v", err)
	}
	faulty.FailSyncAt(faulty.Syncs() + 1)
	end2, _, err := w.Append(0, []workload.Key{2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(end2); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("commit over failed fsync = %v, want ErrInjected", err)
	}
	faulty.FailSyncAt(0)
	if err := w.Commit(end2); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("commit after fsync failure = %v, want ErrWALBroken", err)
	}
	if _, _, err := w.Append(1, []workload.Key{3}); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("append after fsync failure = %v, want ErrWALBroken", err)
	}
}

// TestWALHeaderMismatch: a file whose header disagrees with what the
// caller expects (wrong base generation or fold, wrong partition count)
// is corruption, never a silent accept.
func TestWALHeaderMismatch(t *testing.T) {
	dir := t.TempDir()
	appendOracle(t, dir, 1, walBatches())
	data := readWALFile(t, dir)
	if _, err := ReplayWALBytes(data, 1, []WALPos{{7, ChainStart()}}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("baseGen mismatch = %v, want ErrWALCorrupt", err)
	}
	if _, err := ReplayWALBytes(data, 1, []WALPos{{0, 12345}}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("baseChain mismatch = %v, want ErrWALCorrupt", err)
	}
	if _, err := ReplayWALBytes(data, 2, nil); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("partition count mismatch = %v, want ErrWALCorrupt", err)
	}
}

// v1WALHeader is the whole of a format-v1 log file that holds no record
// yet: magic, version 1, base generation, base fold.
func v1WALHeader() []byte {
	head := make([]byte, 24)
	binary.LittleEndian.PutUint32(head[0:4], walMagic)
	binary.LittleEndian.PutUint32(head[4:8], 1)
	binary.LittleEndian.PutUint64(head[16:24], ChainStart())
	return head
}

// TestWALFormatV1Refused: a log file of the format before this one is not
// damage and not a torn header — it is refused by name.
func TestWALFormatV1Refused(t *testing.T) {
	for _, data := range [][]byte{v1WALHeader(), v1WALHeader()[:8], append(v1WALHeader(), make([]byte, 64)...)} {
		_, err := ReplayWALBytes(data, 1, nil)
		if !errors.Is(err, ErrStoreFormat) || errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("v1 image of %d bytes: %v, want ErrStoreFormat and not ErrWALCorrupt", len(data), err)
		}
	}
}
