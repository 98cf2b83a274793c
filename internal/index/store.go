package index

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultfs"
	"repro/internal/workload"
)

// Store is the durable state of one partition: its records in an
// append-only log plus immutable segment snapshots, flushed when the
// in-memory index publishes a compacted base and the log has grown enough
// since the last one to earn it (SegmentDue). The log is either the
// store's own or shared with the other partitions of a cluster epoch —
// one code path, the layouts differ only in where the files sit:
//
//	OpenStore(dir)      dir/wal-<ordinal>.wal   the log, this store alone on it
//	                    dir/seg-<gen>.seg       its segments
//	OpenStores(dir, P)  dir/wal-<ordinal>.wal   the log, records tagged 0..P-1
//	                    dir/p<i>/seg-<gen>.seg  partition i's segments
//
// On open the log is read once and demultiplexed, and every store
// recovers by loading its newest valid segment and replaying its own
// records past it; a corrupt segment is quarantined and recovery falls
// back to the previous segment (whose covering log files are retained
// exactly for this), and a log with a mid-file hole makes the open refuse
// rather than serve a gapped history. A directory in another format
// version (v1: one log per partition) is refused with ErrStoreFormat
// before anything in it is touched.
//
// Concurrency contract: the caller serializes Append with its in-memory
// apply (so the partition's log order equals its apply order — the
// invariant that makes a frozen-layer watermark a prefix of its records);
// Commit is safe from any goroutine and group-commits across callers and
// partitions. FlushSegment and InsertsSince take the store lock
// internally. ResetTo and InsertsSince rewrite and re-read the whole log:
// they are for a store that is alone on its log (a dcnode's partition,
// whose rejoin catch-up is their one caller) and refuse on a shared one.

// StoreOptions configures durability behaviour.
type StoreOptions struct {
	// FS is the filesystem to write through; nil means the real one.
	FS faultfs.FS
	// FsyncInterval is the group-commit window: 0 fsyncs as soon as a
	// commit leader claims the flush, > 0 additionally spaces fsyncs at
	// least this far apart (higher insert latency, fewer fsyncs), < 0
	// disables fsync entirely (acks are no longer crash-durable).
	FsyncInterval time.Duration
	// Logf, if set, receives recovery and quarantine notices.
	Logf func(format string, args ...any)
}

// ErrStoreCorrupt reports durable state the store refuses to serve
// from: a WAL hole, broken cross-file accounting, or no intact segment
// chain back to the baseline.
var ErrStoreCorrupt = errors.New("index: store corrupt")

// StoreFormat is the on-disk format version this build writes and
// reads: the WAL header's version field and the cluster manifest's
// "dcstore v2".
const StoreFormat = int(walVersion)

// ErrStoreFormat reports a directory written in a format version this
// build does not read. It is not damage: nothing is quarantined, rebuilt
// or deleted, and the directory is left byte for byte as it was.
var ErrStoreFormat = errors.New("index: store format not readable by this build")

// FormatError is the ErrStoreFormat for what, found in version got.
func FormatError(what string, got int) error {
	return fmt.Errorf("%w: %s is format v%d, this build reads v%d only", ErrStoreFormat, what, got, StoreFormat)
}

// Store is one partition's segment directory and its share of a log.
type Store struct {
	fs   faultfs.FS
	dir  string
	opt  StoreOptions
	log  *WAL
	part int // this store's tag on the log

	mu         sync.Mutex
	gen        uint64 //dc:guardedby mu
	chain      uint64 //dc:guardedby mu
	segGen     uint64 //dc:guardedby mu
	hasSeg     bool   //dc:guardedby mu
	prevSegGen uint64 //dc:guardedby mu
	hasPrev    bool   //dc:guardedby mu
	// chainAt maps record-end gen -> chain, for appends since open.
	chainAt map[uint64]uint64 //dc:guardedby mu
	closed  bool              //dc:guardedby mu
}

func segName(gen uint64) string { return fmt.Sprintf("seg-%020d.seg", gen) }

func (s *Store) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// quarantine renames a damaged file aside (suffix .corrupt) so it is
// never picked up again but stays available for inspection.
func (s *Store) quarantine(path string, cause error) {
	if err := s.fs.Rename(path, path+".corrupt"); err != nil {
		s.logf("store %s: quarantine %s failed: %v", s.dir, filepath.Base(path), err)
		return
	}
	s.logf("store %s: quarantined %s: %v", s.dir, filepath.Base(path), cause)
}

// OpenStore opens (or creates) the durable store in dir, alone on a log
// of its own, and returns it together with the recovered key multiset:
// the newest intact segment's keys (or baseline when no segment exists)
// merged with every log record past that segment's generation. The
// recovered generation counter resumes where the log ends, and a fresh
// log file is cut so old files stay immutable.
func OpenStore(dir string, baseline []workload.Key, opt StoreOptions) (*Store, []workload.Key, error) {
	stores, recovered, err := openStores(dir, []string{dir}, [][]workload.Key{baseline}, opt)
	if err != nil {
		return nil, nil, err
	}
	return stores[0], recovered[0], nil
}

// OpenStores opens (or creates) len(baselines) stores that share the one
// log in dir, partition i's segments in dir/p<i>, each recovered as
// OpenStore recovers its own.
func OpenStores(dir string, baselines [][]workload.Key, opt StoreOptions) ([]*Store, [][]workload.Key, error) {
	segDirs := make([]string, len(baselines))
	for i := range segDirs {
		segDirs[i] = filepath.Join(dir, fmt.Sprintf("p%d", i))
	}
	return openStores(dir, segDirs, baselines, opt)
}

func openStores(logDir string, segDirs []string, baselines [][]workload.Key, opt StoreOptions) ([]*Store, [][]workload.Key, error) {
	fs := opt.FS
	if fs == nil {
		fs = faultfs.OS
	}
	for _, dir := range append([]string{logDir}, segDirs...) {
		if err := fs.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	// The log first: a directory this build cannot read is refused before
	// a segment is looked at, let alone quarantined.
	w := newWAL(fs, logDir, len(segDirs), opt)
	streams, logged, err := w.replay()
	if errors.Is(err, ErrStoreFormat) {
		return nil, nil, fmt.Errorf("index: store %s: %w", logDir, err)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrStoreCorrupt, logDir, err)
	}
	stores := make([]*Store, len(segDirs))
	recovered := make([][]workload.Key, len(segDirs))
	pos := make([]WALPos, len(segDirs))
	floor := make([]uint64, len(segDirs))
	for p, dir := range segDirs {
		s := &Store{fs: fs, dir: dir, opt: opt, log: w, part: p, chain: ChainStart(), chainAt: make(map[uint64]uint64)}
		if recovered[p], err = s.recover(baselines[p], streams[p], logged); err != nil {
			return nil, nil, err
		}
		stores[p], pos[p], floor[p] = s, WALPos{s.gen, s.chain}, s.retentionFloor()
	}
	if err := w.start(pos, floor); err != nil {
		return nil, nil, err
	}
	return stores, recovered, nil
}

// recover loads the newest intact segment and replays this partition's
// records past it. Only open calls it, before the store is shared with
// any other goroutine, so the lock contract below is vacuously satisfied.
//
//dc:holds s.mu
func (s *Store) recover(baseline []workload.Key, stream walStream, logged bool) ([]workload.Key, error) {
	segs, err := s.scanSegments()
	if err != nil {
		return nil, err
	}
	// Newest intact segment wins; corrupt ones are quarantined and the
	// previous segment (still covered by retained log files) takes over.
	base := baseline
	for i := len(segs) - 1; i >= 0; i-- {
		seg, err := ReadSegment(s.fs, segs[i].path)
		if err != nil {
			s.quarantine(segs[i].path, err)
			continue
		}
		if seg.Gen != segs[i].n {
			s.quarantine(segs[i].path, fmt.Errorf("%w: header gen %d does not match name", ErrSegmentCorrupt, seg.Gen))
			continue
		}
		base = seg.Keys
		s.gen, s.chain = seg.Gen, seg.Chain
		s.segGen, s.hasSeg = seg.Gen, true
		if i > 0 {
			s.prevSegGen, s.hasPrev = segs[i-1].n, true
		}
		break
	}
	if !logged {
		return base, nil
	}

	// The records thread from the oldest retained file's header, and the
	// fold must pass through the segment's (gen, chain) point — any break
	// is corruption, not a torn tail.
	hasSeg, segGen, segChain := s.hasSeg, s.gen, s.chain
	if hasSeg && stream.base.Gen > segGen {
		return nil, fmt.Errorf("%w: %s: oldest WAL starts at generation %d, past segment %d",
			ErrStoreCorrupt, s.dir, stream.base.Gen, segGen)
	}
	at := stream.base
	atSegment := func() error {
		if hasSeg && at.Gen == segGen && at.Chain != segChain {
			return fmt.Errorf("%w: %s: WAL fold at generation %d disagrees with segment", ErrStoreCorrupt, s.dir, segGen)
		}
		return nil
	}
	if err := atSegment(); err != nil {
		return nil, err
	}
	var replayed []workload.Key
	for _, rec := range stream.recs {
		if first := rec.Seq - uint64(len(rec.Keys)); rec.Seq > segGen {
			keep := rec.Keys
			if first < segGen {
				keep = keep[segGen-first:]
			}
			replayed = append(replayed, keep...)
		}
		at = WALPos{rec.Seq, rec.Chain}
		if err := atSegment(); err != nil {
			return nil, err
		}
	}
	if at.Gen < segGen {
		// The log ends before the segment it should extend — records
		// the segment proves existed are gone.
		return nil, fmt.Errorf("%w: %s: WAL ends at generation %d but segment covers %d",
			ErrStoreCorrupt, s.dir, at.Gen, segGen)
	}
	s.gen, s.chain = at.Gen, at.Chain
	if len(replayed) == 0 {
		return base, nil
	}
	sortKeys(replayed)
	return MergeKeys(base, replayed), nil
}

// numberedFile is a file named <prefix><20-digit number><suffix>: a
// segment (its generation) or a log file (its ordinal).
type numberedFile struct {
	path string
	n    uint64
}

// scanNumbered inventories the files of dir so named, ascending.
func scanNumbered(fs faultfs.FS, dir, prefix, suffix string) ([]numberedFile, error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []numberedFile
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		if err != nil {
			continue
		}
		files = append(files, numberedFile{filepath.Join(dir, name), n})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].n < files[j].n })
	return files, nil
}

// scanSegments inventories segment files, ascending by generation.
func (s *Store) scanSegments() ([]numberedFile, error) {
	return scanNumbered(s.fs, s.dir, "seg-", ".seg")
}

// retentionFloor is the generation below which durable history may be
// discarded: the previous segment's generation, so that if the newest
// segment rots, recovery still has old-segment + WAL tail.
//
//dc:holds s.mu
func (s *Store) retentionFloor() uint64 {
	if s.hasPrev {
		return s.prevSegGen
	}
	return 0
}

// Dir returns the store's segment directory.
func (s *Store) Dir() string { return s.dir }

// Gen returns the current generation (keys appended since baseline).
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Chain returns the current insert-stream fold.
func (s *Store) Chain() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chain
}

// Broken reports the log's sticky I/O error, if any.
func (s *Store) Broken() error { return s.log.Broken() }

// HasSegment reports whether the store currently holds an intact
// segment (cluster stores require one: their baseline is the segment).
func (s *Store) HasSegment() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hasSeg
}

// Append logs keys as one record. The caller must apply keys to the
// in-memory index before releasing whatever lock serializes its insert
// path (see the concurrency contract above), and must Commit(end)
// before acking.
//
//dc:noalloc
func (s *Store) Append(keys []workload.Key) (end int64, gen uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, fmt.Errorf("index: store %s is closed", s.dir)
	}
	end, at, err := s.log.Append(s.part, keys)
	if err != nil {
		return 0, 0, err
	}
	s.gen, s.chain = at.Gen, at.Chain
	s.chainAt[at.Gen] = at.Chain
	return end, at.Gen, nil
}

// Commit blocks until the log is durable through end (group commit).
// end is an offset in the store's log as Append returned it; offsets
// grow in append order across every store on the log, so a caller that
// appended to several of them commits the highest end once, through any
// of them. A record whose file has since been rotated away or reset is
// already durable (rotation syncs the old file before swapping it out).
func (s *Store) Commit(end int64) error { return s.log.Commit(end) }

// SegmentDue reports whether a base of n keys published at watermark gen
// should be flushed: there is no segment yet, or the keys logged since the
// last one are at least 1/layerFraction of the image (the geometric rule of
// Asadi & Lin, PAPERS.md). A segment is O(image) work — encode, checksum,
// two fsyncs — so written at every merge its cost per inserted key would
// grow with the partition; under the rule it is at most layerFraction image
// bytes per logged byte however large the partition, plus the slack of one
// merge, the granularity publishes come at. Since a merge itself admits an
// eighth of the image, the log earns a segment at about every second
// merge. The same constant bounds what a skipped publish defers: the log
// between two segments holds at most image/layerFraction keys and one
// merge's, max(threshold, image/layerFraction) — about a quarter of the
// image, the replay bound — and with the previous segment kept against rot
// a directory holds two segments and the log since the older one: two such
// intervals, three when inserts landed while a segment was being written
// (a log file stays whole while one record in it is above the floor).
// Measured on the referee (read_keys_per_s, 3 rounds of mixed_durable and
// 2 of mixed_tcp_replicated, when merges came every 4,096 keys): a
// fraction of 16 — a segment at every merge of mixed_durable's 40,960-key
// partitions — is 5-8 % and 3 % behind 8, and 4 another 3-4 % ahead of it
// for twice the retained log and twice the replay; 8 is where the
// referee's disk and recovery bounds still hold.
func (s *Store) SegmentDue(n int, gen uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.hasSeg || (gen > s.segGen && (gen-s.segGen)*layerFraction >= uint64(n))
}

// FlushSegment makes the compacted key set at watermark gen durable as
// an immutable segment, then lets the log rotate and retire the files
// every partition on it is done with. keys must be exactly the multiset
// covered by generations [0, gen] plus the baseline (the frozen-layer
// publish guarantees this). Duplicate or stale watermarks are ignored.
func (s *Store) FlushSegment(keys []workload.Key, gen uint64) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("index: store %s is closed", s.dir)
	}
	if err := s.log.Broken(); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.hasSeg && gen <= s.segGen {
		s.mu.Unlock()
		return nil
	}
	chain, ok := s.chainAt[gen]
	if !ok {
		if gen == s.gen {
			chain = s.chain
		} else {
			s.mu.Unlock()
			return fmt.Errorf("index: store %s: no fold recorded for flush watermark %d", s.dir, gen)
		}
	}
	path := filepath.Join(s.dir, segName(gen))

	// Write the segment off-lock: it is a full-partition image (two
	// fsyncs through AtomicWriteFile), and appends — the ack path —
	// must not stall behind it. The segment's content depends only on
	// (keys, gen, chain), all resolved above; concurrent appends land
	// in the log and stay retained until a later flush covers them.
	s.mu.Unlock()
	if err := WriteSegment(s.fs, path, keys, gen, chain); err != nil {
		return fmt.Errorf("index: store %s: flush segment %d: %w", s.dir, gen, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("index: store %s is closed", s.dir)
	}
	if (s.hasSeg && gen <= s.segGen) || gen > s.gen {
		// A concurrent flush advanced past us while the file was being
		// written, or a ResetTo rewound the store below our watermark;
		// either way ours is stale, not current.
		s.fs.Remove(path)
		return nil
	}
	if s.hasSeg {
		s.prevSegGen, s.hasPrev = s.segGen, true
	}
	s.segGen, s.hasSeg = gen, true
	if err := s.log.segmentFlushed(s.part, gen, s.retentionFloor()); err != nil {
		// The segment is durable; a failed rotation only delays
		// retirement. Keep serving.
		s.logf("store %s: WAL rotation after segment %d failed: %v", s.dir, gen, err)
	}
	if segs, err := s.scanSegments(); err == nil {
		for _, sf := range segs {
			if sf.n != s.segGen && !(s.hasPrev && sf.n == s.prevSegGen) {
				s.fs.Remove(sf.path)
			}
		}
	}
	for g := range s.chainAt {
		if g <= gen {
			delete(s.chainAt, g)
		}
	}
	return nil
}

// errSharedLog refuses the whole-log operations on a store that is not
// alone on its log.
func (s *Store) errSharedLog(op string) error {
	return fmt.Errorf("index: store %s: %s needs a log of its own, this one is shared by %d partitions", s.dir, op, s.log.parts)
}

// InsertsSince returns, in append order, every key logged after
// generation gen, verifying that the caller's fold at gen matches this
// store's history (ok=false on any mismatch, gap, or compacted-away
// tail — the caller then falls back to a full snapshot). gen must be a
// record boundary, which it is whenever it came from a store
// generation on either side. The store must be alone on its log.
func (s *Store) InsertsSince(gen, chain uint64) (keys []workload.Key, ok bool, err error) {
	if s.log.parts > 1 {
		return nil, false, s.errSharedLog("InsertsSince")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen > s.gen {
		return nil, false, nil
	}
	if gen == s.gen {
		return nil, chain == s.chain, nil
	}
	streams, _, rerr := s.log.read(s.log.retained())
	if rerr != nil {
		return nil, false, fmt.Errorf("%w: %s: %v", ErrStoreCorrupt, s.dir, rerr)
	}
	at := streams[0].base
	if at.Gen > gen {
		return nil, false, nil // compacted past the caller's generation
	}
	boundary := at == WALPos{gen, chain}
	for _, rec := range streams[0].recs {
		if rec.Seq == gen {
			boundary = rec.Chain == chain
		}
		if rec.Seq > gen {
			if first := rec.Seq - uint64(len(rec.Keys)); first < gen {
				return nil, false, nil // not a record boundary
			}
			keys = append(keys, rec.Keys...)
		}
		at = WALPos{rec.Seq, rec.Chain}
	}
	if at.Gen != s.gen || !boundary {
		return nil, false, nil
	}
	return keys, true, nil
}

// ResetTo replaces the entire durable state with keys at generation gen
// (fold chain): the full-snapshot catch-up path. Old files are deleted
// first — a crash mid-reset recovers to the baseline and honestly
// re-runs catch-up rather than resurrecting the pre-reset history with
// a generation that no longer means anything. The store must be alone
// on its log.
func (s *Store) ResetTo(keys []workload.Key, gen, chain uint64) error {
	if s.log.parts > 1 {
		return s.errSharedLog("ResetTo")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("index: store %s is closed", s.dir)
	}
	if err := s.log.Broken(); err != nil {
		return err
	}
	if segs, err := s.scanSegments(); err == nil {
		for _, sf := range segs {
			s.fs.Remove(sf.path)
		}
	}
	s.gen, s.chain = gen, chain
	s.segGen, s.hasSeg = gen, true
	s.hasPrev = false
	s.chainAt = make(map[uint64]uint64)
	return s.log.reset(WALPos{gen, chain}, func() error {
		return WriteSegment(s.fs, filepath.Join(s.dir, segName(gen)), keys, gen, chain)
	})
}

// Close gives up the store's hold on its log; the last store on a log
// closes its active file. It does not flush: durability is already
// guaranteed through the last Commit.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.release()
}
