package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultfs"
	"repro/internal/workload"
)

// Per-partition write-ahead log. Every insert batch becomes one framed
// record appended before the keys touch the in-memory index; the ack
// path then waits for a group fsync covering the record, so an acked
// insert is on disk by definition. The format (all little-endian):
//
//	file   := magic(u32 = 0xDC1D3A41) version(u32 = 1)
//	          baseGen(u64) baseChain(u64)
//	record := rmagic(u32 = 0xDC1D0EC5) count(u32)
//	          seq(u64) chain(u64) count*key(u32) crc32c(u32)
//
// seq is the partition generation *after* the record applies (the store
// numbers every inserted key 1,2,3,... since its baseline); a file's
// records therefore cover generations (baseGen, lastSeq]. chain is a
// running order-sensitive FNV-1a fold of every key ever appended — two
// replicas agree on (gen, chain) iff they applied the same insert
// stream, which is what lets rejoin catch-up ship only a WAL tail and
// still detect divergence instead of serving silently wrong ranks. The
// crc32 (Castagnoli) covers the whole record before it.
//
// Replay policy, the heart of "never silently wrong":
//   - a record that fails to parse at the tail of the file (short,
//     half-written) is a torn write from a crash: truncate there and
//     recover everything before it;
//   - a record that fails to parse but is *followed* by a fully valid
//     record is mid-file corruption (bit rot, truncation in the middle):
//     refuse with ErrWALCorrupt — the caller quarantines and rebuilds
//     from a sibling rather than serving a gapped history;
//   - a record whose CRC passes but whose seq or chain breaks the
//     running accounting is corrupt regardless of position.
//
// The one undetectable case is damage confined to the final record with
// only garbage after it — indistinguishable from a torn write, so it
// recovers the prefix (equivalent to crashing just before that append).

const (
	walMagic    uint32 = 0xDC1D3A41
	walVersion  uint32 = 1
	walRecMagic uint32 = 0xDC1D0EC5

	walHeaderSize     = 24
	walRecHeaderSize  = 24 // rmagic, count, seq, chain
	walRecTrailerSize = 4  // crc32

	// maxWALRecordKeys bounds a single record so a corrupt count can
	// never drive a huge allocation during replay.
	maxWALRecordKeys = 1 << 26
)

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

// ErrWALCorrupt reports unrecoverable WAL damage: mid-file corruption
// or broken generation/chain accounting. The store refuses to serve
// from such a log.
var ErrWALCorrupt = errors.New("index: WAL corrupt")

// ErrWALBroken is wrapped by every append/commit after a write or fsync
// failure: the log can no longer promise durability, so it permanently
// refuses instead of acking inserts it might have lost.
var ErrWALBroken = errors.New("index: WAL broken by earlier I/O error")

// WAL is an append-only log for one partition. Appends are serialized
// by an internal mutex; Commit implements leader-based group commit, so
// concurrent ack paths share fsyncs.
type WAL struct {
	fs   faultfs.FS
	f    faultfs.File
	path string

	// interval is the group-commit window: 0 syncs as soon as a leader
	// claims the flush (coalescing whatever queued meanwhile), > 0 also
	// spaces syncs at least interval apart, < 0 disables fsync entirely
	// (acks are then not crash-durable; benchmark/ephemeral use only).
	interval time.Duration

	mu     sync.Mutex
	size   int64 // bytes written, including header
	gen    uint64
	chain  uint64
	buf    []byte
	broken error

	sc struct {
		sync.Mutex
		cond     *sync.Cond
		syncing  bool
		synced   int64
		lastSync time.Time
		err      error
	}
}

// CreateWAL starts a fresh log at path (truncating any previous file —
// callers only reuse a name whose records they have already replayed)
// whose records continue generation baseGen with fold value baseChain.
// The header and the directory entry are fsynced before it returns, so
// records appended afterwards cannot outlive their file's existence.
func CreateWAL(fs faultfs.FS, path string, baseGen, baseChain uint64, interval time.Duration) (*WAL, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("index: create WAL %s: %w", path, err)
	}
	head := make([]byte, walHeaderSize)
	binary.LittleEndian.PutUint32(head[0:4], walMagic)
	binary.LittleEndian.PutUint32(head[4:8], walVersion)
	binary.LittleEndian.PutUint64(head[8:16], baseGen)
	binary.LittleEndian.PutUint64(head[16:24], baseChain)
	fail := func(err error) (*WAL, error) {
		f.Close()
		return nil, fmt.Errorf("index: create WAL %s: %w", path, err)
	}
	if _, err := f.Write(head); err != nil {
		return fail(err)
	}
	if interval >= 0 {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
		if err := faultfs.SyncDir(fs, filepath.Dir(path)); err != nil {
			return fail(err)
		}
	}
	w := &WAL{fs: fs, f: f, path: path, interval: interval, size: walHeaderSize, gen: baseGen, chain: baseChain}
	w.sc.cond = sync.NewCond(&w.sc.Mutex)
	w.sc.synced = walHeaderSize
	return w, nil
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Append frames keys as one record and writes it (buffered only by the
// OS). It returns the end offset to pass to Commit and the generation
// after the record. It does NOT wait for durability — the caller
// applies the keys to memory (keeping log order equal to apply order)
// and then calls Commit before acking.
func (w *WAL) Append(keys []workload.Key) (end int64, gen uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return 0, 0, fmt.Errorf("%w: %w", ErrWALBroken, w.broken)
	}
	n := len(keys)
	total := walRecHeaderSize + 4*n + walRecTrailerSize
	if cap(w.buf) < total {
		w.buf = make([]byte, total)
	}
	buf := w.buf[:total]
	gen = w.gen + uint64(n)
	chain := ChainFold(w.chain, keys)
	binary.LittleEndian.PutUint32(buf[0:4], walRecMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(n))
	binary.LittleEndian.PutUint64(buf[8:16], gen)
	binary.LittleEndian.PutUint64(buf[16:24], chain)
	for i, k := range keys {
		binary.LittleEndian.PutUint32(buf[walRecHeaderSize+4*i:], uint32(k))
	}
	crc := crc32.Checksum(buf[:walRecHeaderSize+4*n], crcTab)
	binary.LittleEndian.PutUint32(buf[walRecHeaderSize+4*n:], crc)
	if _, err := w.f.Write(buf); err != nil {
		// A short or failed write leaves the file in an unknown state;
		// poison the log so no later append can ack over the hole.
		w.broken = err
		w.markSyncBroken(err)
		return 0, 0, fmt.Errorf("index: WAL append %s: %w", w.path, err)
	}
	w.size += int64(total)
	w.gen = gen
	w.chain = chain
	return w.size, gen, nil
}

// markSyncBroken wakes committers waiting on a log that just died.
func (w *WAL) markSyncBroken(err error) {
	w.sc.Lock()
	if w.sc.err == nil {
		w.sc.err = err
	}
	w.sc.cond.Broadcast()
	w.sc.Unlock()
}

// Commit blocks until every byte up to end is fsynced (leader-based
// group commit: the first waiter syncs on behalf of everyone queued
// behind it). With a negative interval it is a no-op.
func (w *WAL) Commit(end int64) error {
	if w.interval < 0 {
		return nil
	}
	w.sc.Lock()
	defer w.sc.Unlock()
	for {
		if w.sc.err != nil {
			return fmt.Errorf("%w: %w", ErrWALBroken, w.sc.err)
		}
		if w.sc.synced >= end {
			return nil
		}
		if w.sc.syncing {
			w.sc.cond.Wait()
			continue
		}
		w.sc.syncing = true
		var wait time.Duration
		if w.interval > 0 {
			if since := time.Since(w.sc.lastSync); since < w.interval {
				wait = w.interval - since
			}
		}
		w.sc.Unlock()
		if wait > 0 {
			// Group-commit window: let more appends pile onto this sync.
			time.Sleep(wait)
		}
		w.mu.Lock()
		target := w.size
		berr := w.broken
		w.mu.Unlock()
		var err error
		if berr == nil {
			err = w.f.Sync()
		} else {
			err = berr
		}
		w.sc.Lock()
		w.sc.syncing = false
		w.sc.lastSync = time.Now()
		if err != nil {
			if w.sc.err == nil {
				w.sc.err = err
			}
			w.mu.Lock()
			if w.broken == nil {
				w.broken = err
			}
			w.mu.Unlock()
		} else {
			w.sc.synced = target
		}
		w.sc.cond.Broadcast()
	}
}

// Gen returns the generation after the last appended record.
func (w *WAL) Gen() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// Chain returns the fold after the last appended record.
func (w *WAL) Chain() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.chain
}

// Broken reports the sticky I/O error, if any.
func (w *WAL) Broken() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// Close closes the underlying file (without a final sync; Commit owns
// durability).
func (w *WAL) Close() error { return w.f.Close() }

// WALRecord is one replayed insert batch.
type WALRecord struct {
	Seq   uint64 // generation after this record applies
	Chain uint64 // fold after this record applies
	Keys  []workload.Key
}

// WALReplay is the result of parsing a log file.
type WALReplay struct {
	BaseGen   uint64
	BaseChain uint64
	Records   []WALRecord
	Size      int64 // length of the valid prefix
	Torn      bool  // file had a torn tail after Size
}

// Gen returns the generation after the last replayed record.
func (r *WALReplay) Gen() uint64 {
	if len(r.Records) == 0 {
		return r.BaseGen
	}
	return r.Records[len(r.Records)-1].Seq
}

// Chain returns the fold after the last replayed record.
func (r *WALReplay) Chain() uint64 {
	if len(r.Records) == 0 {
		return r.BaseChain
	}
	return r.Records[len(r.Records)-1].Chain
}

// ReplayWAL parses the log at path, applying the torn-tail/corruption
// policy documented at the top of this file. wantBaseGen/wantBaseChain
// are the values the caller expects the file to continue from (from the
// file's name and the preceding segment or log); a mismatch is
// corruption, not a torn tail.
func ReplayWAL(fs faultfs.FS, path string, wantBaseGen, wantBaseChain uint64) (*WALReplay, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("index: replay WAL %s: %w", path, err)
	}
	rep, err := ReplayWALBytes(data, wantBaseGen, wantBaseChain)
	if err != nil {
		return nil, fmt.Errorf("index: replay WAL %s: %w", path, err)
	}
	return rep, nil
}

// ReplayWALBytes is ReplayWAL over an in-memory image (also the fuzz
// entry point: arbitrary bytes must never panic).
func ReplayWALBytes(data []byte, wantBaseGen, wantBaseChain uint64) (*WALReplay, error) {
	if len(data) < walHeaderSize {
		// A crash can tear the header write itself; nothing was ever
		// appended past a header, so an under-length file holds nothing.
		return &WALReplay{BaseGen: wantBaseGen, BaseChain: wantBaseChain, Size: 0, Torn: len(data) > 0}, nil
	}
	if got := binary.LittleEndian.Uint32(data[0:4]); got != walMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrWALCorrupt, got)
	}
	if got := binary.LittleEndian.Uint32(data[4:8]); got != walVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrWALCorrupt, got)
	}
	baseGen := binary.LittleEndian.Uint64(data[8:16])
	baseChain := binary.LittleEndian.Uint64(data[16:24])
	if baseGen != wantBaseGen {
		return nil, fmt.Errorf("%w: header baseGen %d, want %d", ErrWALCorrupt, baseGen, wantBaseGen)
	}
	if baseChain != wantBaseChain {
		return nil, fmt.Errorf("%w: header baseChain %#x, want %#x", ErrWALCorrupt, baseChain, wantBaseChain)
	}
	rep := &WALReplay{BaseGen: baseGen, BaseChain: baseChain}
	gen, chain := baseGen, baseChain
	o := int64(walHeaderSize)
	for {
		rec, total, ok := parseWALRecord(data[o:])
		if !ok {
			if int64(len(data)) == o {
				rep.Size = o
				return rep, nil // clean end
			}
			if walRecordAfter(data[o+1:]) {
				return nil, fmt.Errorf("%w: unreadable record at offset %d followed by a valid one", ErrWALCorrupt, o)
			}
			rep.Size = o
			rep.Torn = true
			return rep, nil
		}
		if rec.Seq != gen+uint64(len(rec.Keys)) {
			return nil, fmt.Errorf("%w: record at offset %d has seq %d, want %d", ErrWALCorrupt, o, rec.Seq, gen+uint64(len(rec.Keys)))
		}
		if want := ChainFold(chain, rec.Keys); rec.Chain != want {
			return nil, fmt.Errorf("%w: record at offset %d breaks the chain fold", ErrWALCorrupt, o)
		}
		gen, chain = rec.Seq, rec.Chain
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
	rec.Seq = binary.LittleEndian.Uint64(data[8:16])
	rec.Chain = binary.LittleEndian.Uint64(data[16:24])
	rec.Keys = make([]workload.Key, n)
	for i := range rec.Keys {
		rec.Keys[i] = workload.Key(binary.LittleEndian.Uint32(data[walRecHeaderSize+4*i:]))
	}
	return rec, total, true
}

// walRecordAfter reports whether any complete, CRC-valid record begins
// anywhere in data — the discriminator between a torn tail (nothing
// valid after the damage) and mid-file corruption (valid records
// follow, so history has a hole).
func walRecordAfter(data []byte) bool {
	for o := 0; o+walRecHeaderSize <= len(data); o++ {
		if binary.LittleEndian.Uint32(data[o:]) != walRecMagic {
			continue
		}
		if _, _, ok := parseWALRecord(data[o:]); ok {
			return true
		}
	}
	return false
}
