package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/faultfs"
	"repro/internal/workload"
)

// Write-ahead log. One log serves every partition that was opened on it
// — the P stores of a cluster epoch (OpenStores), or the one store of a
// dcnode (OpenStore) — so an insert wave that touches all of them is one
// append stream and one fsync, whatever P is. Every insert batch becomes
// one framed record, tagged with its partition, appended before the keys
// touch the in-memory index; the ack path then waits for a group fsync
// covering the record, so an acked insert is on disk by definition. The
// log is a directory of files wal-<ordinal>.wal, ordinals ascending from
// 1, the last one active. Format v2 (all little-endian):
//
//	file   := header record* zero*
//	header := magic(u32 = 0xDC1D3A41) version(u32 = 2) ordinal(u64)
//	          parts(u32) parts*(baseGen(u64) baseChain(u64)) crc32c(u32)
//	record := rmagic(u32 = 0xDC1D0EC5) count(u32) part(u32)
//	          seq(u64) chain(u64) count*key(u32) crc32c(u32)
//
// The zeros are the active file's preallocated tail. A log that fsyncs
// extends its active file with zeros ahead of its appends — each
// extension max(record, min(file size, 1 MiB)), so the zeroed region
// doubles up to the cap — and a record then overwrites blocks that
// already exist on disk: the commit's fsync flushes data and no inode
// change, except the first one after an extension. The tail is at most
// the file's written bytes and never more than 1 MiB; a clean close
// trims it.
//
// The accounting is per partition, exactly as when each had a log of its
// own. seq is the partition's generation *after* the record applies (a
// store numbers every inserted key 1,2,3,... since its baseline); the
// header carries every partition's (generation, chain) position before
// the file's first record, so a file's records of partition p cover
// generations (baseGen[p], lastSeq[p]]. chain is a running
// order-sensitive FNV-1a fold of every key ever appended to the
// partition — two replicas agree on (gen, chain) iff they applied the
// same insert stream, which is what lets rejoin catch-up ship only a log
// tail and still detect divergence instead of serving silently wrong
// ranks. Each crc32 (Castagnoli) covers the whole header or record
// before it. Version 1 had one log per partition and untagged records; a
// v1 file is refused by name (ErrStoreFormat), never replayed.
//
// Replay policy, the heart of "never silently wrong":
//   - zeros from the end of the last record to the end of the file are
//     the preallocated tail: a clean end, not a torn one (a build before
//     preallocation reads them as a torn tail and recovers the same
//     records, so the format version did not change);
//   - a record that fails to parse at the tail of a file (short,
//     half-written) is a torn write from a crash: truncate there and
//     recover everything before it — for every partition a prefix of
//     its own stream;
//   - a record that fails to parse but is *followed* by a fully valid
//     record is mid-file corruption (bit rot, truncation in the middle):
//     refuse with ErrWALCorrupt — the caller refuses to serve a gapped
//     history — unless the unreadable bytes hold a hole, below;
//   - a hole is zeros, in the unreadable bytes before the next valid
//     record, that start at the unreadable record or at a sector
//     (512-byte) boundary and run to a sector boundary: a sector a crash
//     did not write. A commit overwrites zeroed blocks, and overwrites
//     reach the disk in no order, so a crash during a group fsync can
//     leave record N unwritten and record N+1 whole. A commit's fsync
//     covers every byte before its offset, so nothing from the hole on
//     was acked: recover the prefix before it, Torn, and drop the rest.
//     Only the active file can hold one — every other file was fsynced
//     whole before its successor was cut, and that successor's header
//     names where it ended, so a hole that drops records of a rotated
//     file breaks the header check and is refused (the file cut after a
//     recovery continues from the prefix, so a recovered hole passes).
//     The price: damage that zeroes whole sectors of the active file
//     reads as a crash;
//   - a record whose CRC passes but whose partition tag is out of range,
//     or whose seq or chain breaks its partition's running accounting, is
//     corrupt regardless of position; so is a file whose header does not
//     continue every partition exactly where the file before it ended.
//
// The undetectable cases are damage confined to the final record with
// only garbage after it, and zeroed sectors in the active file — both
// indistinguishable from a crash, so they recover the prefix (equivalent
// to crashing just before that append).
//
// Rotation and retirement are the log's, not a partition's: a segment
// flush that covers records in the active file closes it behind a final
// fsync and cuts the next one, and a file is deleted once every
// partition's retention floor has passed its records in it (files go
// oldest first, so a partition that never flushes pins the log from its
// oldest unflushed record on — the price of sharing one).

const (
	walMagic    uint32 = 0xDC1D3A41
	walVersion  uint32 = 2
	walRecMagic uint32 = 0xDC1D0EC5

	walRecHeaderSize  = 28 // rmagic, count, part, seq, chain
	walRecTrailerSize = 4  // crc32

	// maxWALRecordKeys bounds a single record so a corrupt count can
	// never drive a huge allocation during replay.
	maxWALRecordKeys = 1 << 26

	// walExtendMax caps one extension of the active file's zeroed tail.
	walExtendMax = 1 << 20

	// walSector is the unit a crash can leave unwritten: the smallest
	// disk sector, a divisor of every page size.
	walSector = 512
)

// walZeros is the one block every extension writes its zeros from, and
// the one replay compares a tail against.
var walZeros [walExtendMax]byte

// walHeaderSize is the length of the header of a file that serves parts
// partitions.
func walHeaderSize(parts int) int { return 20 + 16*parts + 4 }

func walName(ord uint64) string { return fmt.Sprintf("wal-%020d.wal", ord) }

// chainSeed is the initial chain value (the FNV-64 offset basis). A
// chain of 0 conventionally means "unknown" on the wire, and no honest
// fold realistically produces 0.
const chainSeed uint64 = 0xcbf29ce484222325

// ChainFold advances an order-sensitive fold of the insert stream by
// keys. Replicas that applied the same stream have the same fold.
func ChainFold(chain uint64, keys []workload.Key) uint64 {
	for _, k := range keys {
		chain ^= uint64(k)
		chain *= 0x100000001b3
	}
	return chain
}

// ChainStart returns the fold value of an empty stream.
func ChainStart() uint64 { return chainSeed }

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// keyChunk is the buffer WriteKeysLE encodes through: large enough that
// the per-write cost vanishes, small enough to stay in L2.
const keyChunk = 1 << 16

// PutKeys encodes keys as little-endian u32s at the head of dst, which
// must hold 4*len(keys) bytes: the one key encoder of every on-disk
// format (segment, WAL record, dcindex snapshot).
func PutKeys(dst []byte, keys []workload.Key) {
	for i, k := range keys {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(k))
	}
}

// WriteKeysLE writes head, then keys, to w: encoded into one buffer of
// at most keyChunk bytes and handed to w a bufferful at a time. crc, when
// not nil, is advanced (CRC-32C) over every byte written.
func WriteKeysLE(w io.Writer, head []byte, keys []workload.Key, crc *uint32) error {
	buf := make([]byte, min(keyChunk, len(head)+4*len(keys)))
	n := copy(buf, head)
	for {
		take := min(len(keys), (len(buf)-n)/4)
		PutKeys(buf[n:], keys[:take])
		n, keys = n+4*take, keys[take:]
		if crc != nil {
			*crc = crc32.Update(*crc, crcTab, buf[:n])
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
		if len(keys) == 0 {
			return nil
		}
		n = 0
	}
}

// ErrWALCorrupt reports unrecoverable WAL damage: mid-file corruption
// or broken generation/chain accounting. The store refuses to serve
// from such a log.
var ErrWALCorrupt = errors.New("index: WAL corrupt")

// ErrWALBroken is wrapped by the append or commit whose write or fsync
// failed and by every one after it: the log can no longer promise
// durability, so it permanently refuses — for every partition on it —
// instead of acking inserts it might have lost.
var ErrWALBroken = errors.New("index: WAL broken by earlier I/O error")

// WALPos is one partition's position in its insert stream: keys appended
// since the baseline, and the fold over them.
type WALPos struct {
	Gen   uint64
	Chain uint64
}

// walFile is one file of the log.
type walFile struct {
	path  string
	ord   uint64
	base  []WALPos // every partition's position before the file's first record
	empty bool     // replayed and found to hold no record
}

// Lock order on the write path, outermost first: DurablePartition.mu
// (append + apply of one partition), Store.mu (that partition's durable
// bookkeeping), WAL.mu (the append lock all partitions of the log
// share), WAL.cmu (commit state).
//
//dc:lockorder DurablePartition.mu Store.mu
//dc:lockorder Store.mu WAL.mu
//dc:lockorder WAL.mu WAL.cmu

// WAL is an append-only log shared by the stores opened on it. Appends
// are serialized by the append lock; Commit implements leader-based
// group commit, so concurrent ack paths — of one partition or of
// several — share fsyncs.
type WAL struct {
	fs    faultfs.FS
	dir   string
	parts int
	logf  func(format string, args ...any)

	// fsync is false when the log is never fsynced (acks are then not
	// crash-durable; benchmark/ephemeral use only). Otherwise a commit
	// leader syncs as soon as it claims the flush, coalescing whatever
	// queued meanwhile.
	fsync bool

	mu    sync.Mutex   // the append lock
	f     faultfs.File //dc:guardedby mu
	files []walFile    //dc:guardedby mu
	pos   []WALPos     //dc:guardedby mu
	floor []uint64     //dc:guardedby mu
	buf   []byte       //dc:guardedby mu
	refs  int          //dc:guardedby mu

	// end is the active file's logical end, where the next record goes;
	// zeroed is the end of the zeros written ahead of it. Only a log that
	// fsyncs writes them: in one that does not, zeroed stays at the
	// header.
	end    int64 //dc:guardedby mu
	zeroed int64 //dc:guardedby mu

	// written counts every byte ever handed to a file of this log, across
	// rotations; an Append returns its value as the offset to Commit.
	// Moved under mu, read by sync leaders without it.
	written atomic.Int64

	cmu  sync.Mutex
	cond *sync.Cond // on cmu
	// syncing is the sync token: its holder alone fsyncs, and only a
	// holder that also holds mu (rotate, reset) may replace the file.
	syncing bool         //dc:guardedby cmu
	syncf   faultfs.File //dc:guardedby cmu
	synced  int64        //dc:guardedby cmu
	err     error        //dc:guardedby cmu
}

func newWAL(fs faultfs.FS, dir string, parts int, opt StoreOptions) *WAL {
	w := &WAL{fs: fs, dir: dir, parts: parts, logf: opt.Logf, fsync: opt.FsyncInterval == 0}
	w.cond = sync.NewCond(&w.cmu)
	return w
}

// replay inventories the log's files and parses them in order, applying
// the policy documented at the top of this file. It returns, for every
// partition, the position before its oldest retained record and its
// records since; logged is false when no file with a whole header was
// found, and the streams then say nothing (the caller's segment, or its
// baseline, is the position).
func (w *WAL) replay() (streams []walStream, logged bool, err error) {
	names, err := scanNumbered(w.fs, w.dir, "wal-", ".wal")
	if err != nil {
		return nil, false, err
	}
	var files []walFile
	for _, nf := range names {
		if nf.n > 0 { // ordinals start at 1
			files = append(files, walFile{path: nf.path, ord: nf.n})
		}
	}
	if streams, logged, err = w.read(files); err != nil {
		return nil, false, err
	}
	w.mu.Lock()
	w.files = files
	w.mu.Unlock()
	return streams, logged, nil
}

// walStream is one partition's share of a replayed log.
type walStream struct {
	base WALPos
	recs []WALRecord
}

// read parses files (ascending) as one threaded history and fills in
// their bases: the oldest file's header is taken at its word — the
// segment-boundary check of each store catches a lie before any of its
// records are served — and every later header must continue every
// partition exactly where the file before it ended.
func (w *WAL) read(files []walFile) (streams []walStream, logged bool, err error) {
	streams = make([]walStream, w.parts)
	var pos []WALPos
	for i := range files {
		wf := &files[i]
		data, err := w.fs.ReadFile(wf.path)
		if err != nil {
			return nil, false, err
		}
		rep, err := ReplayWALBytes(data, w.parts, pos)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", filepath.Base(wf.path), err)
		}
		if rep.Size == 0 {
			// A torn header: the crash came while the file was being cut,
			// so it holds nothing and is the last one (start cuts it again).
			if i+1 < len(files) {
				return nil, false, fmt.Errorf("%s: %w: torn header on a file that is not the last", filepath.Base(wf.path), ErrWALCorrupt)
			}
			wf.empty = true
			break
		}
		if pos == nil {
			pos = append([]WALPos(nil), rep.Base...)
			for p := range streams {
				streams[p].base = pos[p]
			}
		}
		if rep.Ordinal != wf.ord {
			return nil, false, fmt.Errorf("%s: %w: header ordinal %d does not match name", filepath.Base(wf.path), ErrWALCorrupt, rep.Ordinal)
		}
		wf.base, wf.empty = append([]WALPos(nil), pos...), len(rep.Records) == 0
		for _, rec := range rep.Records {
			streams[rec.Part].recs = append(streams[rec.Part].recs, rec)
			pos[rec.Part] = WALPos{rec.Seq, rec.Chain}
		}
		if rep.Torn && w.logf != nil {
			what := "a torn tail"
			if rep.Hole {
				what = "a hole"
			}
			w.logf("log %s: %s has %s after %d bytes (crash); recovered the valid prefix",
				w.dir, filepath.Base(wf.path), what, rep.Size)
		}
	}
	return streams, pos != nil, nil
}

// start makes a replayed (or empty) log writable: pos and floor are
// every partition's recovered position and retention floor. Files
// wholly below the floors are retired and a fresh active file is cut, so
// replayed files stay immutable — except that a last file holding no
// record is cut over again instead of being kept: reopening an idle
// store must not pile up empty files.
func (w *WAL) start(pos []WALPos, floor []uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pos, w.floor, w.refs = pos, floor, w.parts
	ord := uint64(1)
	if n := len(w.files); n > 0 {
		ord = w.files[n-1].ord + 1
		if w.files[n-1].empty {
			ord--
			w.files = w.files[:n-1]
		}
	}
	w.retireLocked()
	return w.cutLocked(ord)
}

// cutLocked creates file ord, whose records continue the current
// positions, and makes it the active file. The header and the directory
// entry are fsynced before it returns, so records appended afterwards
// cannot outlive their file's existence. The caller holds the sync
// token or is the only user of the log (start).
//
//dc:holds w.mu
func (w *WAL) cutLocked(ord uint64) error {
	path := filepath.Join(w.dir, walName(ord))
	f, err := w.fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("index: create WAL %s: %w", path, err)
	}
	fail := func(err error) error {
		f.Close()
		return fmt.Errorf("index: create WAL %s: %w", path, err)
	}
	n := walHeaderSize(w.parts)
	head := make([]byte, n)
	binary.LittleEndian.PutUint32(head[0:4], walMagic)
	binary.LittleEndian.PutUint32(head[4:8], walVersion)
	binary.LittleEndian.PutUint64(head[8:16], ord)
	binary.LittleEndian.PutUint32(head[16:20], uint32(w.parts))
	for p, at := range w.pos {
		binary.LittleEndian.PutUint64(head[20+16*p:], at.Gen)
		binary.LittleEndian.PutUint64(head[28+16*p:], at.Chain)
	}
	binary.LittleEndian.PutUint32(head[n-4:], crc32.Checksum(head[:n-4], crcTab))
	if _, err := f.Write(head); err != nil {
		return fail(err)
	}
	if w.fsync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
		if err := faultfs.SyncDir(w.fs, w.dir); err != nil {
			return fail(err)
		}
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f = f
	w.end, w.zeroed = int64(n), int64(n)
	w.files = append(w.files, walFile{path: path, ord: ord, base: append([]WALPos(nil), w.pos...)})
	// Everything written so far is in files already synced (rotate) or
	// discarded (reset) — or there is nothing yet (start).
	end := w.written.Add(int64(n))
	w.cmu.Lock()
	w.syncf, w.synced = f, end
	w.cmu.Unlock()
	return nil
}

// Append frames keys as one record of partition part and writes it
// (buffered only by the OS). It returns the offset to pass to Commit and
// the partition's position after the record. It does NOT wait for
// durability — the caller applies the keys to memory (keeping the
// partition's log order equal to its apply order) and then calls Commit
// before acking. Offsets grow in append order across all partitions, so
// committing the highest one of a wave covers the wave.
//
//dc:noalloc
func (w *WAL) Append(part int, keys []workload.Key) (end int64, at WALPos, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.Broken(); err != nil {
		return 0, at, fmt.Errorf("%w: %w", ErrWALBroken, err)
	}
	if w.f == nil {
		return 0, at, fmt.Errorf("index: log %s is closed", w.dir)
	}
	n := len(keys)
	total := walRecHeaderSize + 4*n + walRecTrailerSize
	if cap(w.buf) < total {
		w.buf = make([]byte, total)
	}
	buf := w.buf[:total]
	at = WALPos{w.pos[part].Gen + uint64(n), ChainFold(w.pos[part].Chain, keys)}
	binary.LittleEndian.PutUint32(buf[0:4], walRecMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(n))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(part))
	binary.LittleEndian.PutUint64(buf[12:20], at.Gen)
	binary.LittleEndian.PutUint64(buf[20:28], at.Chain)
	PutKeys(buf[walRecHeaderSize:], keys)
	crc := crc32.Checksum(buf[:walRecHeaderSize+4*n], crcTab)
	binary.LittleEndian.PutUint32(buf[walRecHeaderSize+4*n:], crc)
	if w.fsync && w.end+int64(total) > w.zeroed {
		err = w.extendLocked(int64(total))
	}
	if err == nil {
		_, err = w.f.Write(buf)
	}
	if err != nil {
		// A short or failed write leaves the file in an unknown state;
		// poison the log so no later append can ack over the hole.
		w.fail(err)
		return 0, at, fmt.Errorf("%w: append %s: %w", ErrWALBroken, w.dir, err)
	}
	w.pos[part] = at
	w.end += int64(total)
	return w.written.Add(int64(total)), at, nil
}

// extendLocked writes max(need, min(file size, walExtendMax)) zeros at
// the end of the active file and leaves the file offset at the logical
// end, where the record that needed them goes.
//
//dc:holds w.mu
func (w *WAL) extendLocked(need int64) error {
	grow := max(need, min(w.zeroed, walExtendMax))
	if _, err := w.f.Seek(w.zeroed, io.SeekStart); err != nil {
		return err
	}
	for left := grow; left > 0; {
		k := min(left, walExtendMax)
		if _, err := w.f.Write(walZeros[:k]); err != nil {
			return err
		}
		left -= k
	}
	w.zeroed += grow
	_, err := w.f.Seek(w.end, io.SeekStart)
	return err
}

// fail records the log's first I/O error and wakes committers waiting on
// a log that just died.
func (w *WAL) fail(err error) {
	w.cmu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.cond.Broadcast()
	w.cmu.Unlock()
}

// Broken reports the sticky I/O error, if any.
func (w *WAL) Broken() error {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return w.err
}

// Commit blocks until every byte up to end is fsynced (leader-based
// group commit: the first waiter syncs on behalf of everyone queued
// behind it). With fsync disabled it is a no-op.
func (w *WAL) Commit(end int64) error {
	if !w.fsync {
		return nil
	}
	w.cmu.Lock()
	defer w.cmu.Unlock()
	for {
		if w.err != nil {
			return fmt.Errorf("%w: %w", ErrWALBroken, w.err)
		}
		if w.synced >= end {
			return nil
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		f := w.syncf // stays the active file while this leader has the token
		w.cmu.Unlock()
		target := w.written.Load()
		err := f.Sync()
		w.cmu.Lock()
		w.syncing = false
		if err != nil {
			if w.err == nil {
				w.err = err
			}
		} else if target > w.synced {
			w.synced = target
		}
		w.cond.Broadcast()
	}
}

// takeTokenLocked waits out a sync in flight and takes the sync token,
// so that the caller may fsync and replace the active file with no
// leader looking at it.
//
//dc:holds w.mu
func (w *WAL) takeTokenLocked() error {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	for w.syncing && w.err == nil {
		w.cond.Wait()
	}
	if w.err != nil {
		return fmt.Errorf("%w: %w", ErrWALBroken, w.err)
	}
	w.syncing = true
	return nil
}

func (w *WAL) dropToken() {
	w.cmu.Lock()
	w.syncing = false
	w.cond.Broadcast()
	w.cmu.Unlock()
}

// rotateLocked closes the active file behind a final fsync — a file is
// whole on disk before a record can land in the one after it, so a crash
// never leaves a torn file followed by a live one — and cuts the next.
// If the cut fails the old file stays active: only retirement is
// delayed.
//
//dc:holds w.mu
func (w *WAL) rotateLocked() error {
	if err := w.takeTokenLocked(); err != nil {
		return err
	}
	defer w.dropToken()
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			w.fail(err)
			return err
		}
		w.cmu.Lock()
		w.synced = w.written.Load()
		w.cmu.Unlock()
	}
	return w.cutLocked(w.files[len(w.files)-1].ord + 1)
}

// segmentFlushed is a store's notice that partition part now has a
// durable segment at generation gen and needs no record at or below
// floor: the active file is rotated if it holds records the segment
// covers (so that they sit in an immutable, retirable file), then every
// file all partitions are done with is deleted. A failed rotation only
// delays retirement. (Rotating at every flush of a partition that has
// records in the active file, as a log of its own did, is eight
// rotations a merge wave on a shared one, each three fsyncs under the
// append lock: a third of mixed_durable's throughput.)
func (w *WAL) segmentFlushed(part int, gen, floor uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if gen > w.files[len(w.files)-1].base[part].Gen {
		err = w.rotateLocked()
	}
	w.floor[part] = floor
	w.retireLocked()
	return err
}

// retireLocked deletes, oldest first, the files in which no partition
// has a record above its retention floor: those whose successor begins
// at or below every floor.
//
//dc:holds w.mu
func (w *WAL) retireLocked() {
	for len(w.files) > 1 {
		for p, at := range w.files[1].base {
			if at.Gen > w.floor[p] {
				return
			}
		}
		if w.fs.Remove(w.files[0].path) != nil {
			return
		}
		w.files = w.files[1:]
	}
}

// reset discards the whole log and restarts partition 0 — the only one:
// a store may reset only a log it does not share — at position at.
// anchor runs between the two, with no log file on disk: it writes the
// segment the new log continues from, so a crash at any point recovers
// either nothing or the segment, never a position without its keys.
// Offsets handed out against the discarded files resolve as committed.
func (w *WAL) reset(at WALPos, anchor func() error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.takeTokenLocked(); err != nil {
		return err
	}
	defer w.dropToken()
	ord := w.files[len(w.files)-1].ord + 1
	for _, wf := range w.files {
		w.fs.Remove(wf.path)
	}
	w.files = w.files[:0]
	w.pos[0], w.floor[0] = at, at.Gen
	err := anchor()
	if err == nil {
		err = w.cutLocked(ord)
	}
	if err != nil {
		w.fail(err) // the active file is unlinked: nothing appended to it would survive
	}
	return err
}

// retained returns a copy of the file list for a reader that keeps
// appends out by other means (Store.InsertsSince holds the store lock).
func (w *WAL) retained() []walFile {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]walFile(nil), w.files...)
}

// release drops one store's reference; the last one trims the active
// file's zeroed tail and closes it (without a final sync; Commit owns
// durability, and a tail that outlives a crash replays the same).
func (w *WAL) release() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.refs--
	if w.refs > 0 || w.f == nil {
		return nil
	}
	var err error
	if w.zeroed > w.end && w.Broken() == nil {
		err = w.f.Truncate(w.end)
	}
	err = errors.Join(err, w.f.Close())
	w.f = nil
	return err
}

// WALRecord is one replayed insert batch.
type WALRecord struct {
	Part  int    // partition the batch belongs to
	Seq   uint64 // the partition's generation after this record applies
	Chain uint64 // the partition's fold after this record applies
	Keys  []workload.Key
}

// WALReplay is the result of parsing one log file.
type WALReplay struct {
	Ordinal uint64
	Base    []WALPos // per partition, before the first record; nil: the header is torn
	Records []WALRecord
	Size    int64 // length of the valid prefix
	Torn    bool  // file had a torn tail after Size
	Hole    bool  // the torn tail begins with a hole and valid records follow it
}

// ReplayWALBytes parses the image of one log file serving parts
// partitions, applying the torn-tail/corruption policy documented at the
// top of this file (also the fuzz entry point: arbitrary bytes must never
// panic). want, when not nil, is the position every partition must
// continue from (the end of the file before); a mismatch is corruption,
// not a torn tail. A file in another format version is ErrStoreFormat.
func ReplayWALBytes(data []byte, parts int, want []WALPos) (*WALReplay, error) {
	if len(data) >= 8 {
		if got := binary.LittleEndian.Uint32(data[0:4]); got != walMagic {
			return nil, fmt.Errorf("%w: bad magic %#x", ErrWALCorrupt, got)
		}
		if got := binary.LittleEndian.Uint32(data[4:8]); got != walVersion {
			return nil, FormatError("WAL file", int(got))
		}
	}
	n := walHeaderSize(parts)
	if len(data) < n {
		// A crash can tear the header write itself; nothing was ever
		// appended past a header, so an under-length file holds nothing.
		return &WALReplay{Base: want, Size: 0, Torn: len(data) > 0}, nil
	}
	if got := binary.LittleEndian.Uint32(data[16:20]); got != uint32(parts) {
		return nil, fmt.Errorf("%w: header names %d partitions, want %d", ErrWALCorrupt, got, parts)
	}
	if crc32.Checksum(data[:n-4], crcTab) != binary.LittleEndian.Uint32(data[n-4:]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrWALCorrupt)
	}
	rep := &WALReplay{Ordinal: binary.LittleEndian.Uint64(data[8:16]), Base: make([]WALPos, parts)}
	for p := range rep.Base {
		rep.Base[p] = WALPos{binary.LittleEndian.Uint64(data[20+16*p:]), binary.LittleEndian.Uint64(data[28+16*p:])}
		if want != nil && rep.Base[p] != want[p] {
			return nil, fmt.Errorf("%w: header continues partition %d at (%d, %#x), the log before it ends at (%d, %#x)",
				ErrWALCorrupt, p, rep.Base[p].Gen, rep.Base[p].Chain, want[p].Gen, want[p].Chain)
		}
	}
	pos := append([]WALPos(nil), rep.Base...)
	o := int64(n)
	for {
		rec, total, ok := parseWALRecord(data[o:])
		if !ok {
			if allZero(data[o:]) {
				rep.Size = o
				return rep, nil // clean end: the end of the file, or its preallocated tail
			}
			if v := walRecordAfter(data[o+1:]); v >= 0 {
				if !crashHole(data, o, o+1+int64(v)) {
					return nil, fmt.Errorf("%w: unreadable record at offset %d followed by a valid one", ErrWALCorrupt, o)
				}
				rep.Hole = true
			}
			rep.Size = o
			rep.Torn = true
			return rep, nil
		}
		if rec.Part >= parts {
			return nil, fmt.Errorf("%w: record at offset %d is tagged partition %d of %d", ErrWALCorrupt, o, rec.Part, parts)
		}
		at := pos[rec.Part]
		if want := at.Gen + uint64(len(rec.Keys)); rec.Seq != want {
			return nil, fmt.Errorf("%w: record at offset %d has seq %d, want %d", ErrWALCorrupt, o, rec.Seq, want)
		}
		if rec.Chain != ChainFold(at.Chain, rec.Keys) {
			return nil, fmt.Errorf("%w: record at offset %d breaks the chain fold", ErrWALCorrupt, o)
		}
		pos[rec.Part] = WALPos{rec.Seq, rec.Chain}
		rep.Records = append(rep.Records, rec)
		o += total
	}
}

// parseWALRecord attempts to decode one record at the head of data.
// ok=false means "no complete valid record here" (short, bad magic,
// bad CRC) — the caller decides torn vs corrupt.
func parseWALRecord(data []byte) (rec WALRecord, total int64, ok bool) {
	if len(data) < walRecHeaderSize {
		return rec, 0, false
	}
	if binary.LittleEndian.Uint32(data[0:4]) != walRecMagic {
		return rec, 0, false
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	if n > maxWALRecordKeys {
		return rec, 0, false
	}
	total = int64(walRecHeaderSize) + 4*int64(n) + walRecTrailerSize
	if int64(len(data)) < total {
		return rec, 0, false
	}
	body := data[:total-walRecTrailerSize]
	crc := binary.LittleEndian.Uint32(data[total-walRecTrailerSize:])
	if crc32.Checksum(body, crcTab) != crc {
		return rec, 0, false
	}
	rec.Part = int(binary.LittleEndian.Uint32(data[8:12]))
	rec.Seq = binary.LittleEndian.Uint64(data[12:20])
	rec.Chain = binary.LittleEndian.Uint64(data[20:28])
	rec.Keys = make([]workload.Key, n)
	for i := range rec.Keys {
		rec.Keys[i] = workload.Key(binary.LittleEndian.Uint32(data[walRecHeaderSize+4*i:]))
	}
	return rec, total, true
}

// allZero reports whether data is all zero bytes (or empty).
func allZero(data []byte) bool {
	for len(data) > 0 {
		k := min(len(data), len(walZeros))
		if !bytes.Equal(data[:k], walZeros[:k]) {
			return false
		}
		data = data[k:]
	}
	return true
}

// walRecordAfter returns the offset of the first complete, CRC-valid
// record that begins anywhere in data, or -1 — the discriminator between
// a torn tail (nothing valid after the damage) and mid-file damage
// (valid records follow).
func walRecordAfter(data []byte) int {
	for o := 0; o+walRecHeaderSize <= len(data); o++ {
		if binary.LittleEndian.Uint32(data[o:]) != walRecMagic {
			continue
		}
		if _, _, ok := parseWALRecord(data[o:]); ok {
			return o
		}
	}
	return -1
}

// crashHole reports whether data[o:v] — the unreadable bytes from a
// record boundary o of a file image to the next valid record at v —
// holds a sector a crash left unwritten: zeros from o, or from a sector
// boundary, to the next sector boundary at or before v. (A sector on
// disk holds what had been written to it by some instant: data, then
// the zeros it was extended with.)
func crashHole(data []byte, o, v int64) bool {
	for a := o; ; {
		b := (a/walSector + 1) * walSector
		if b > v {
			return false
		}
		if allZero(data[a:b]) {
			return true
		}
		a = b
	}
}
