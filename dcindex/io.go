package dcindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/faultfs"
	"repro/internal/index"
)

// Key-set snapshot format: a TCP deployment needs every node and client
// to agree on the exact indexed key set (cmd/dcnode regenerates it from
// a seed; real deployments load it from a file).
//
//	snapshot := magic(u32 = 0xDC1DF11E) version(u32 = 1) count(u64) count*key(u32)
//
// Keys must be sorted ascending; WriteKeys enforces it and ReadKeys
// verifies it, so a snapshot on disk is always a valid index input.

const (
	snapshotMagic   uint32 = 0xDC1DF11E
	snapshotVersion uint32 = 1
)

// WriteKeys streams a sorted key set to w in snapshot format.
func WriteKeys(w io.Writer, keys []Key) error {
	if i := index.FirstDescent(keys); i > 0 {
		return fmt.Errorf("dcindex: WriteKeys input not sorted at %d", i)
	}
	var head [16]byte
	binary.LittleEndian.PutUint32(head[0:4], snapshotMagic)
	binary.LittleEndian.PutUint32(head[4:8], snapshotVersion)
	binary.LittleEndian.PutUint64(head[8:16], uint64(len(keys)))
	if err := index.WriteKeysLE(w, head[:], keys, nil); err != nil {
		return fmt.Errorf("dcindex: write snapshot: %w", err)
	}
	return nil
}

// ReadKeys loads a snapshot written by WriteKeys, validating the header
// and the sort order.
func ReadKeys(r io.Reader) ([]Key, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, 16)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("dcindex: read snapshot header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(head[0:4]); got != snapshotMagic {
		return nil, fmt.Errorf("dcindex: bad snapshot magic %#x", got)
	}
	if got := binary.LittleEndian.Uint32(head[4:8]); got != snapshotVersion {
		return nil, fmt.Errorf("dcindex: unsupported snapshot version %d", got)
	}
	count := binary.LittleEndian.Uint64(head[8:16])
	const maxKeys = 1 << 32
	if count > maxKeys {
		return nil, fmt.Errorf("dcindex: snapshot claims %d keys", count)
	}
	// Grow the key slice while reading instead of trusting the header:
	// a corrupt or hostile count near 2^32 must not trigger a ~16 GiB
	// up-front allocation. A truncated stream errors after at most one
	// chunk; an honest giant snapshot still loads, paying only append's
	// amortized growth. The cursor stays uint64 — int(count) would wrap
	// negative on 32-bit platforms and silently return an empty key set.
	initCap := 1 << 16
	if count < uint64(initCap) {
		initCap = int(count)
	}
	keys := make([]Key, 0, initCap)
	buf := make([]byte, 4*4096)
	for remaining := count; remaining > 0; {
		chunk := len(buf)
		if byteCount := remaining * 4; byteCount < uint64(chunk) {
			chunk = int(byteCount)
		}
		if n, err := io.ReadFull(br, buf[:chunk]); err != nil {
			// Name both sides of the shortfall: a truncated copy of a
			// snapshot looks exactly like a corrupt one, and "got X of Y
			// bytes" is what lets an operator tell them apart.
			have := 16 + 4*int64(len(keys)) + int64(n)
			want := 16 + 4*int64(count)
			return nil, fmt.Errorf("dcindex: snapshot truncated at key %d of %d: got %d bytes, want %d: %w",
				(have-16)/4, count, have, want, err)
		}
		for off := 0; off < chunk; off += 4 {
			k := Key(binary.LittleEndian.Uint32(buf[off:]))
			if len(keys) > 0 && k < keys[len(keys)-1] {
				return nil, fmt.Errorf("dcindex: snapshot keys not sorted at %d", len(keys))
			}
			keys = append(keys, k)
		}
		remaining -= uint64(chunk / 4)
	}
	return keys, nil
}

// SaveKeys writes a snapshot to path atomically: the bytes are written
// to a uniquely named temp file in the target directory, fsynced, and
// renamed into place, with the parent directory fsynced so the rename
// itself survives a crash. The unique temp name keeps concurrent savers
// of the same path from clobbering each other's half-written file (the
// last rename wins with a complete snapshot). The write rides
// index.AtomicWriteFile — the same crash-safe path the durability
// layer's segment snapshots use.
func SaveKeys(path string, keys []Key) error {
	// index.AtomicWriteFile creates the temp file with os.CreateTemp's
	// 0600; a snapshot is meant to be distributed (every node and client
	// reads it), so widen to the target's existing permissions, or the
	// conventional 0644 for a new file.
	mode := os.FileMode(0o644)
	if st, err := os.Stat(path); err == nil {
		mode = st.Mode().Perm()
	}
	return index.AtomicWriteFile(faultfs.OS, path, mode, func(w io.Writer) error {
		return WriteKeys(w, keys)
	})
}

// LoadKeys reads a snapshot from path. Decode failures are wrapped with
// the path and the file's on-disk size, so a truncated or corrupt
// snapshot names the exact file to regenerate.
func LoadKeys(path string) ([]Key, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keys, err := ReadKeys(f)
	if err != nil {
		if st, serr := f.Stat(); serr == nil {
			return nil, fmt.Errorf("dcindex: load %s (%d bytes on disk): %w", path, st.Size(), err)
		}
		return nil, fmt.Errorf("dcindex: load %s: %w", path, err)
	}
	return keys, nil
}
