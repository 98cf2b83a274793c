package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/workload"
)

// segmentImage is the bytes WriteSegment writes for keys at gen and chain.
func segmentImage(keys []workload.Key, gen, chain uint64) []byte {
	var head [segHeaderSize]byte
	binary.LittleEndian.PutUint32(head[0:4], segMagic)
	binary.LittleEndian.PutUint32(head[4:8], segVersion)
	binary.LittleEndian.PutUint64(head[8:16], gen)
	binary.LittleEndian.PutUint64(head[16:24], chain)
	binary.LittleEndian.PutUint64(head[24:32], uint64(len(keys)))
	var buf bytes.Buffer
	var crc uint32
	if err := WriteKeysLE(&buf, head[:], keys, &crc); err != nil {
		panic(err)
	}
	return binary.LittleEndian.AppendUint32(buf.Bytes(), crc)
}

// FuzzDecodeSegment holds the segment decoder to hostile bytes at rest: it
// refuses anything it does not accept with an ErrSegmentCorrupt, never
// panics, and what it accepts is a segment that encodes back to the same
// bytes. The seeds (and testdata/fuzz/FuzzDecodeSegment) are a valid
// segment, its truncations and a flipped bit, and headers whose key count
// wraps the length check.
func FuzzDecodeSegment(f *testing.F) {
	valid := segmentImage([]workload.Key{1, 5, 5, 1 << 31, maxKey}, 7, 0xfeedface)
	f.Add(valid)
	f.Add(segmentImage(nil, 0, 0))
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:segHeaderSize])
	flipped := slices.Clone(valid)
	flipped[segHeaderSize+2] ^= 0x10
	f.Add(flipped)
	// A count of 2^62 + 1 with the bytes of one key: 4*count wraps to 4.
	wrap := segmentImage([]workload.Key{3}, 1, 1)
	binary.LittleEndian.PutUint64(wrap[24:32], 1<<62+1)
	body := wrap[:len(wrap)-4]
	binary.LittleEndian.PutUint32(wrap[len(wrap)-4:], crc32.Checksum(body, crcTab))
	f.Add(wrap)
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := decodeSegment(data)
		if err != nil {
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("refused with %v, not ErrSegmentCorrupt", err)
			}
			return
		}
		if !slices.IsSorted(seg.Keys) {
			t.Fatalf("accepted keys out of order: %v", seg.Keys)
		}
		if got := segmentImage(seg.Keys, seg.Gen, seg.Chain); !bytes.Equal(got, data) {
			t.Fatalf("accepted %d bytes that encode back as %d other bytes", len(data), len(got))
		}
	})
}
