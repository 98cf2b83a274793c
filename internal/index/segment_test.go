package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/workload"
)

func TestSegmentRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-00000000000000000009.seg")
	keys := []workload.Key{1, 2, 2, 5, 9, 100}
	if err := WriteSegment(faultfs.OS, path, keys, 9, 0xfeed); err != nil {
		t.Fatalf("WriteSegment: %v", err)
	}
	seg, err := ReadSegment(faultfs.OS, path)
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	if seg.Gen != 9 || seg.Chain != 0xfeed {
		t.Fatalf("position (%d, %#x), want (9, 0xfeed)", seg.Gen, seg.Chain)
	}
	if len(seg.Keys) != len(keys) {
		t.Fatalf("%d keys, want %d", len(seg.Keys), len(keys))
	}
	for i := range keys {
		if seg.Keys[i] != keys[i] {
			t.Fatalf("key %d = %d, want %d", i, seg.Keys[i], keys[i])
		}
	}
}

// TestSegmentBitFlipDetected flips every bit of a segment file: every
// single flip must be caught by the checksum (or header validation) —
// a rotted segment is quarantined, never served.
func TestSegmentBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-00000000000000000004.seg")
	if err := WriteSegment(faultfs.OS, path, []workload.Key{3, 4, 4, 8}, 4, 0xabc); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutPath := filepath.Join(dir, "mut.seg")
	for byteOff := 0; byteOff < len(data); byteOff++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[byteOff] ^= 1 << bit
			if err := os.WriteFile(mutPath, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSegment(faultfs.OS, mutPath); !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("flip %d.%d: error %v, want ErrSegmentCorrupt", byteOff, bit, err)
			}
		}
	}
}

// TestSegmentTruncationDetected cuts the file at every length: any
// truncation must fail validation.
func TestSegmentTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-00000000000000000004.seg")
	if err := WriteSegment(faultfs.OS, path, []workload.Key{3, 4, 8}, 4, 0xabc); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutPath := filepath.Join(dir, "mut.seg")
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(mutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSegment(faultfs.OS, mutPath); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("cut %d: error %v, want ErrSegmentCorrupt", cut, err)
		}
	}
}

// TestAtomicWriteFileFaults: any injected failure along the temp-write-
// sync-rename path must leave the destination untouched (old content or
// absent) and clean up the temp file.
func TestAtomicWriteFileFaults(t *testing.T) {
	writeOld := func(t *testing.T, dir string) string {
		path := filepath.Join(dir, "target.seg")
		if err := WriteSegment(faultfs.OS, path, []workload.Key{1}, 1, 0x1); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		name string
		arm  func(f *faultfs.Faulty)
	}{
		{"write", func(f *faultfs.Faulty) { f.FailWriteAt(1) }},
		{"sync", func(f *faultfs.Faulty) { f.FailSyncAt(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeOld(t, dir)
			faulty := faultfs.NewFaulty(faultfs.OS)
			tc.arm(faulty)
			err := WriteSegment(faulty, path, []workload.Key{7, 8, 9}, 3, 0x3)
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("error %v, want ErrInjected", err)
			}
			seg, err := ReadSegment(faultfs.OS, path)
			if err != nil {
				t.Fatalf("old segment damaged by failed overwrite: %v", err)
			}
			if seg.Gen != 1 {
				t.Fatalf("old segment replaced: gen %d", seg.Gen)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if e.Name() != filepath.Base(path) {
					t.Fatalf("leftover file %s after failed atomic write", e.Name())
				}
			}
		})
	}
}

// refWriteSegment is the segment writer as it stood until the chunked one
// replaced it — every key its own 4-byte Write through a MultiWriter over
// a bufio.Writer and the checksum — kept as the definition of format v1
// that WriteSegment is held byte-identical to.
func refWriteSegment(w io.Writer, keys []workload.Key, gen, chain uint64) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	crc := crc32.New(crcTab)
	mw := io.MultiWriter(bw, crc)
	head := make([]byte, segHeaderSize)
	binary.LittleEndian.PutUint32(head[0:4], segMagic)
	binary.LittleEndian.PutUint32(head[4:8], segVersion)
	binary.LittleEndian.PutUint64(head[8:16], gen)
	binary.LittleEndian.PutUint64(head[16:24], chain)
	binary.LittleEndian.PutUint64(head[24:32], uint64(len(keys)))
	if _, err := mw.Write(head); err != nil {
		return err
	}
	var kb [4]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint32(kb[:], uint32(k))
		if _, err := mw.Write(kb[:]); err != nil {
			return err
		}
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], crc.Sum32())
	if _, err := bw.Write(foot[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// TestSegmentWriterMatchesReference: the chunked writer produces, for the
// same (keys, gen, chain), exactly the file the per-key writer did — at
// the sizes around its buffer's edge and at the referee's partition — and
// a write that fails anywhere along the way, mid-chunk included, leaves
// neither the segment nor its temp file behind.
func TestSegmentWriterMatchesReference(t *testing.T) {
	chunk := (keyChunk - segHeaderSize) / 4 // keys that fill the first buffer
	for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 368640} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			keys := make([]workload.Key, n)
			r := workload.NewRNG(uint64(n) + 1)
			for i := range keys {
				keys[i] = r.Key()
			}
			keys = sortedCopy(keys)
			gen, chain := uint64(n)+7, ChainFold(ChainStart(), keys)

			var want bytes.Buffer
			if err := refWriteSegment(&want, keys, gen, chain); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, segName(gen))
			faulty := faultfs.NewFaulty(faultfs.OS)
			if err := WriteSegment(faulty, path, keys, gen, chain); err != nil {
				t.Fatalf("WriteSegment: %v", err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%d keys: chunked writer's %d bytes differ from the reference's %d", n, len(got), want.Len())
			}
			if seg, err := ReadSegment(faultfs.OS, path); err != nil || !sameKeys(seg.Keys, keys) || seg.Gen != gen || seg.Chain != chain {
				t.Fatalf("%d keys: written segment does not read back: %v", n, err)
			}
			if faulty.Bytes() != int64(len(got)) || faulty.Syncs() != 2 {
				t.Fatalf("%d keys: %d bytes written and %d syncs, want %d and 2 (file, directory)", n, faulty.Bytes(), faulty.Syncs(), len(got))
			}
			if writes, most := faulty.Writes(), len(got)/keyChunk+2; writes > most {
				t.Fatalf("%d keys: %d writes, want at most %d (a chunk each, and the checksum)", n, writes, most)
			}

			for fail := 1; fail <= faulty.Writes(); fail++ {
				failDir := t.TempDir()
				dying := faultfs.NewFaulty(faultfs.OS)
				dying.FailWriteAt(fail)
				err := WriteSegment(dying, filepath.Join(failDir, segName(gen)), keys, gen, chain)
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("%d keys, write %d failing: error %v, want ErrInjected", n, fail, err)
				}
				if ents, _ := os.ReadDir(failDir); len(ents) != 0 {
					t.Fatalf("%d keys, write %d failing: %s left behind", n, fail, ents[0].Name())
				}
			}
		})
	}
}

// BenchmarkWriteSegment writes one segment a trip (b.SetBytes: the row
// reads MB/s of image) at the per-partition sizes of the referee's
// workloads, fsyncs and rename included — what one flush costs.
func BenchmarkWriteSegment(b *testing.B) {
	for _, n := range []int{40960, 368640, 2097152} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			keys := make([]workload.Key, n)
			for i := range keys {
				keys[i] = workload.Key(i) * 2000
			}
			path := filepath.Join(b.TempDir(), segName(1))
			b.SetBytes(int64(segHeaderSize + 4*n + 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := WriteSegment(faultfs.OS, path, keys, 1, 0x1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
