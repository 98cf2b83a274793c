package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/faultfs"
	"repro/internal/index"
	"repro/internal/workload"
)

// Cluster-level durability. With RealConfig.WALDir set, every partition
// (for Methods A and B, the one whole-index partition) is served through
// an index.DurablePartition, and the partitions of an epoch share ONE
// write-ahead log: an insert appends a record tagged with its partition
// before it is applied, and the ack of an InsertBatch waits for one group
// fsync of that log, however many partitions the call touched.
// Frozen-layer publishes flush per-partition segments through each
// partition's background daemon; the log retires a file once every
// partition's segments have passed its records in it. What this file
// adds is the layout around them:
//
//	WALDir/MANIFEST                      "dcstore v2", current epoch, partition count
//	WALDir/e<epoch>/wal-<ordinal>.wal    the epoch's log (index/wal.go, format v2)
//	WALDir/e<epoch>/p<i>/seg-<gen>.seg   partition i's segments
//
// A rebalance (or a recovery whose key distribution no longer matches
// the stored partition boundaries) writes a complete new epoch — a
// fresh log and fresh per-partition segments at generation 0 — and then
// atomically replaces MANIFEST, so a crash at any point leaves either
// the old or the new epoch fully intact; orphaned epoch directories are
// swept on the next open. A directory whose MANIFEST or log names another
// format version (v1 kept one log per partition, in p<i>/) is refused
// with index.ErrStoreFormat and left exactly as it was.

const manifestName = "MANIFEST"

// clusterStore owns the manifest and the current epoch's partitions.
type clusterStore struct {
	fs    faultfs.FS
	dir   string
	opt   index.StoreOptions
	epoch uint64

	// stores are open and waiting for the index epoch they belong to
	// (recovered by openClusterStore or written by rebase); attach pairs
	// them with that epoch's Updatables into parts.
	stores  []*index.Store
	perPart [][]workload.Key // recovered keys per partition; nil once adopted
	parts   []*index.DurablePartition
}

// openClusterStore reads the manifest and recovers every partition
// store. A missing manifest means a fresh directory (no stores yet); a
// partition that cannot recover refuses the whole open.
func openClusterStore(dir string, opt index.StoreOptions) (*clusterStore, error) {
	fs := opt.FS
	if fs == nil {
		fs = faultfs.OS
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cs := &clusterStore{fs: fs, dir: dir, opt: opt}
	data, err := fs.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return cs, nil
		}
		return nil, err
	}
	epoch, parts, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%s: %w", dir, manifestName, err)
	}
	cs.epoch = epoch
	if cs.stores, cs.perPart, err = index.OpenStores(cs.epochDir(epoch), make([][]workload.Key, parts), opt); err != nil {
		return nil, fmt.Errorf("core: recover epoch %d: %w", epoch, err)
	}
	for p, st := range cs.stores {
		if !st.HasSegment() {
			cs.close()
			return nil, fmt.Errorf("core: recover partition %d: %w: no intact segment (its baseline is not reconstructible)", p, index.ErrStoreCorrupt)
		}
	}
	cs.sweepOrphanEpochs()
	return cs, nil
}

func (cs *clusterStore) epochDir(epoch uint64) string {
	return filepath.Join(cs.dir, fmt.Sprintf("e%d", epoch))
}

// sweepOrphanEpochs removes epoch directories the manifest does not
// reference — leftovers of a rebase that crashed before (or after) the
// manifest swap.
func (cs *clusterStore) sweepOrphanEpochs() {
	ents, err := cs.fs.ReadDir(cs.dir)
	if err != nil {
		return
	}
	current := fmt.Sprintf("e%d", cs.epoch)
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "e") || name == current {
			continue
		}
		// One that stays is swept again at the next open.
		_ = cs.fs.RemoveAll(filepath.Join(cs.dir, name))
	}
}

func parseManifest(data []byte) (epoch uint64, parts int, err error) {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var format int
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[0]), "dcstore v%d", &format); err != nil || len(lines) < 3 {
		return 0, 0, fmt.Errorf("unrecognized manifest")
	}
	if format != index.StoreFormat {
		return 0, 0, index.FormatError("manifest", format)
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[1]), "epoch %d", &epoch); err != nil {
		return 0, 0, fmt.Errorf("unrecognized manifest epoch line")
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(lines[2]), "parts %d", &parts); err != nil {
		return 0, 0, fmt.Errorf("unrecognized manifest parts line")
	}
	if parts <= 0 || parts > 1<<20 {
		return 0, 0, fmt.Errorf("manifest parts %d out of range", parts)
	}
	return epoch, parts, nil
}

// recoveredKeys concatenates the per-partition recoveries into the full
// key multiset (partitions hold disjoint ascending ranges; the caller
// re-validates sort order).
func (cs *clusterStore) recoveredKeys() []workload.Key {
	if cs.perPart == nil {
		return nil
	}
	n := 0
	for _, p := range cs.perPart {
		n += len(p)
	}
	all := make([]workload.Key, 0, n)
	for _, p := range cs.perPart {
		all = append(all, p...)
	}
	return all
}

// matches reports whether the stored partitions line up with the given
// partition slices. Because the recovered full multiset is exactly what
// the new partitioning was computed over, equal counts imply identical
// content — the stores can be adopted as-is.
func (cs *clusterStore) matches(parts [][]workload.Key) bool {
	if cs.perPart == nil || len(cs.stores) != len(parts) {
		return false
	}
	for i, p := range parts {
		if len(cs.perPart[i]) != len(p) {
			return false
		}
	}
	return true
}

// rebase writes a complete new epoch — a fresh log and one fresh store
// per partition, each anchored by a generation-0 segment of its key
// slice — then atomically swaps the manifest and retires the old epoch:
// its partitions are closed (compactions waited out, flusher stopped)
// before their directory goes. Called at first creation, after a
// recovery whose boundaries moved, and on every rebalance (with writes
// excluded, so the slices are exact and the old epoch can arm no new
// compaction).
func (cs *clusterStore) rebase(parts [][]workload.Key) error {
	newEpoch := cs.epoch + 1
	var stores []*index.Store
	fail := func(err error) error {
		for _, st := range stores {
			st.Close()
		}
		cs.fs.RemoveAll(cs.epochDir(newEpoch))
		return err
	}
	// Whatever a crashed rebase left under this epoch number is not this
	// epoch: the stores below must start empty, not recover it.
	cs.fs.RemoveAll(cs.epochDir(newEpoch))
	stores, _, err := index.OpenStores(cs.epochDir(newEpoch), parts, cs.opt)
	if err != nil {
		return fail(fmt.Errorf("core: rebase: %w", err))
	}
	for p, keys := range parts {
		if err := stores[p].FlushSegment(keys, 0); err != nil {
			return fail(fmt.Errorf("core: rebase partition %d: %w", p, err))
		}
	}
	manifest := fmt.Sprintf("dcstore v%d\nepoch %d\nparts %d\n", index.StoreFormat, newEpoch, len(parts))
	err = index.AtomicWriteFile(cs.fs, filepath.Join(cs.dir, manifestName), 0o644, func(w io.Writer) error {
		_, werr := io.WriteString(w, manifest)
		return werr
	})
	if err != nil {
		return fail(fmt.Errorf("core: rebase manifest: %w", err))
	}
	hadOld, oldEpoch := cs.stores != nil || cs.parts != nil, cs.epoch
	cs.close()
	cs.stores, cs.epoch, cs.perPart = stores, newEpoch, nil
	if hadOld {
		cs.fs.RemoveAll(cs.epochDir(oldEpoch))
	}
	return nil
}

// attachDurable adopts (or rebases) the cluster store onto a freshly
// built epoch and pairs each partition's store with its Updatable.
// Called before the epoch is published, so no traffic races the wiring.
func (c *Cluster) attachDurable(ep *updEpoch) error {
	cs := c.cs
	parts := make([][]workload.Key, len(ep.lps))
	for s := range parts {
		parts[s] = ep.part.Parts[s].Keys
	}
	if !cs.matches(parts) {
		if err := cs.rebase(parts); err != nil {
			return err
		}
	}
	for s, lp := range ep.lps {
		lp.dp = index.NewDurablePartition(cs.stores[s], lp.upd, nil)
		cs.parts = append(cs.parts, lp.dp)
	}
	cs.stores, cs.perPart = nil, nil
	return nil
}

// close closes every partition — compactions waited out, flusher
// stopped, store closed — and any store still waiting for its epoch.
// The caller must have stopped inserts first.
func (cs *clusterStore) close() {
	for _, dp := range cs.parts {
		dp.Close()
	}
	for _, st := range cs.stores {
		st.Close()
	}
	cs.parts, cs.stores = nil, nil
}
