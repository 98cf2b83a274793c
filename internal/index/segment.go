package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
	"repro/internal/workload"
)

// Immutable segment snapshots. A segment is one frozen-layer publish
// made durable: the full sorted key multiset of a partition at a known
// generation, with a checksummed footer so recovery can tell a good
// segment from a rotted one and quarantine the latter instead of
// serving it. Format v1 (little-endian), unchanged since it was
// introduced — the writer has changed, from a Write per key to a Write
// per 64 KiB chunk, the bytes have not (segment_test.go keeps the old
// writer and compares):
//
//	segment := magic(u32 = 0xDC5E917F) version(u32 = 1)
//	           gen(u64) chain(u64) count(u64)
//	           count*key(u32) crc32c(u32 over all preceding bytes)

const (
	segMagic      uint32 = 0xDC5E917F
	segVersion    uint32 = 1
	segHeaderSize        = 32
)

// ErrSegmentCorrupt reports a segment that failed validation (bad
// magic, length, checksum, or sort order). Recovery quarantines the
// file and falls back to an older segment plus retained WAL tail.
var ErrSegmentCorrupt = errors.New("index: segment corrupt")

// Segment is a decoded segment snapshot.
type Segment struct {
	Gen   uint64
	Chain uint64
	Keys  []workload.Key
}

// WriteSegment atomically writes keys as the segment for generation gen
// (fold value chain) at path: header and keys leave through WriteKeysLE,
// a chunk per write, the checksum run over each chunk as it goes.
func WriteSegment(fs faultfs.FS, path string, keys []workload.Key, gen, chain uint64) error {
	return AtomicWriteFile(fs, path, 0o644, func(w io.Writer) error {
		var head [segHeaderSize]byte
		binary.LittleEndian.PutUint32(head[0:4], segMagic)
		binary.LittleEndian.PutUint32(head[4:8], segVersion)
		binary.LittleEndian.PutUint64(head[8:16], gen)
		binary.LittleEndian.PutUint64(head[16:24], chain)
		binary.LittleEndian.PutUint64(head[24:32], uint64(len(keys)))
		var crc uint32
		if err := WriteKeysLE(w, head[:], keys, &crc); err != nil {
			return err
		}
		_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc))
		return err
	})
}

// ReadSegment loads and fully validates the segment at path: header,
// footer checksum, and key sort order. Any failure is ErrSegmentCorrupt
// (wrapped), never a partially trusted result.
func ReadSegment(fs faultfs.FS, path string) (*Segment, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("index: read segment %s: %w", path, err)
	}
	seg, err := decodeSegment(data)
	if err != nil {
		return nil, fmt.Errorf("index: segment %s: %w", path, err)
	}
	return seg, nil
}

func decodeSegment(data []byte) (*Segment, error) {
	if len(data) < segHeaderSize+4 {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrSegmentCorrupt, len(data), segHeaderSize+4)
	}
	if got := binary.LittleEndian.Uint32(data[0:4]); got != segMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrSegmentCorrupt, got)
	}
	if got := binary.LittleEndian.Uint32(data[4:8]); got != segVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrSegmentCorrupt, got)
	}
	// The count is checked against the bytes there are before it is
	// multiplied: 4*count wraps for a count of 2^62 or more, and a wrapped
	// length that matched would size the key slice from the count.
	count := binary.LittleEndian.Uint64(data[24:32])
	if room := uint64(len(data) - segHeaderSize - 4); count > room/4 || 4*count != room {
		return nil, fmt.Errorf("%w: %d bytes for %d keys", ErrSegmentCorrupt, len(data), count)
	}
	body := data[:len(data)-4]
	crc := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTab) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSegmentCorrupt)
	}
	seg := &Segment{
		Gen:   binary.LittleEndian.Uint64(data[8:16]),
		Chain: binary.LittleEndian.Uint64(data[16:24]),
		Keys:  make([]workload.Key, count),
	}
	for i := range seg.Keys {
		seg.Keys[i] = workload.Key(binary.LittleEndian.Uint32(data[segHeaderSize+4*i:]))
		if i > 0 && seg.Keys[i] < seg.Keys[i-1] {
			return nil, fmt.Errorf("%w: keys not sorted at %d", ErrSegmentCorrupt, i)
		}
	}
	return seg, nil
}

// AtomicWriteFile writes a file so a crash at any point leaves either
// the old content or the complete new content, never a torn mix: the
// bytes go to a uniquely named temp file in the target directory, get
// fsynced, rename into place, and the parent directory is fsynced so
// the rename itself survives. This is the machinery dcindex.SaveKeys
// established for key-set snapshots, shared here so segments, WAL
// rotation manifests, and snapshots all ride the same proven path.
func AtomicWriteFile(fs faultfs.FS, path string, mode os.FileMode, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := fs.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Chmod(mode); err != nil {
		return fail(err)
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	return faultfs.SyncDir(fs, dir)
}
